"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines on success.
"""

import math
import time
import warnings

import numpy as np

import dirac3sphere as d3s
from dirac3sphere import Metric

from _oracles import paper_Gtilde, random_metrics, random_metrics_with_sign, scal_zero_metrics, squared_row_entries

ROUND = Metric(1, 1, 1)


class _Criterion:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} [{status}] {self.name} ({elapsed:.2f}s)")
        self.elapsed = elapsed
        return False


def test_criterion_1_round_metric_exactness():
    with _Criterion(1, "round-metric exactness and certified fundamental tone") as c:
        assert abs(ROUND.C - 1.5) <= 1e-12 * 1.5
        assert abs(ROUND.mu - 1.5) <= 1e-12 * 1.5
        assert abs(ROUND.scal - 6.0) <= 1e-12 * 6.0
        assert abs(d3s.volume(ROUND, d3s.S3) - 2 * math.pi ** 2) <= 1e-12 * 2 * math.pi ** 2
        report = d3s.smallest(ROUND, d3s.S3)
        assert abs(report.value - 1.5) <= 1e-12 * 1.5
        assert report.multiplicity_d_squared == 4
        assert report.certified
        value, mult, _ = d3s.enumerated_min_abs(ROUND, d3s.S3, 25)
        assert abs(value - 1.5) <= 1e-12 * 1.5
        assert mult == 4
    assert c.elapsed < 1.0


def test_criterion_2_boundary_point_table():
    with _Criterion(2, "boundary-point table at (1, 1, 1/2)"):
        m = Metric(1, 1, 0.5)
        assert abs(m.C ** 2 - 9 / 4) <= 1e-12 * (9 / 4)
        assert abs(m.mu ** 2 - 1.0) <= 1e-12
        assert abs(m.scal) <= 1e-12
        for n, want in ((2, 0.25), (3, 0.0), (4, 0.25), (5, 1.0)):
            got = d3s.closed_form_G(m, n, 0)
            assert abs(got - want) <= 1e-12 * max(1.0, want), (n, got)


def test_criterion_3_fundamental_tone_property_suite():
    with _Criterion(3, "certified tone equals enumerated minimum on 1000 scal>0 metrics") as c:
        rng = np.random.default_rng(2028)
        metrics = random_metrics_with_sign(rng, 1000, d3s.POSITIVE)
        for m in metrics:
            for manifold, want in (
                (d3s.S3, m.mu),
                (d3s.SO3_NONTRIVIAL, m.mu),
                (d3s.SO3_TRIVIAL, m.C),
            ):
                value, mult, _ = d3s.enumerated_min_abs(m, manifold, 25)
                assert abs(value - want) <= 1e-9 * want, (m.triple(), manifold)
                assert mult == 2, (m.triple(), manifold, mult)
    assert c.elapsed < 120.0


def test_criterion_4_representation_oracle_equivalence():
    with _Criterion(4, "representation assembly equals recurrence blocks, n <= 12 x 100 metrics") as c:
        rng = np.random.default_rng(404)
        for m in random_metrics(rng, 100):
            for n in range(13):
                rep_a, rep_b = d3s.build_from_representation(m, n).blocks()
                for tag, rep in (("A", rep_a), ("B", rep_b)):
                    dense = d3s.build_block(m, n, tag).to_dense()
                    scale = max(1.0, float(np.abs(dense).max()))
                    assert float(np.abs(rep - dense).max()) <= 1e-12 * scale
    assert c.elapsed < 30.0


def test_criterion_5_closed_form_cross_checks():
    with _Criterion(5, "eigensolver vs chi_2/chi_4 roots and level-1/3 radicals"):
        rng = np.random.default_rng(505)
        for m in random_metrics(rng, 100):
            for n in (1, 3):
                closed = np.sort(d3s.closed_form_eigs(m, n))
                solved = np.sort(np.concatenate([
                    d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, n, tag))) for tag in "AB"
                ]))
                scale = max(1.0, float(np.abs(closed).max()))
                assert float(np.abs(closed - solved).max()) <= 1e-10 * scale
            for n in (2, 4):
                coeffs = d3s.char_poly_small_n(m, n)
                roots = np.sort(np.roots(coeffs).real)
                spectra = {}
                for tag in "AB":
                    vals = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, n, tag))) + m.C
                    spectra[tag] = np.sort(vals)
                    scale = max(1.0, float(np.abs(roots).max()))
                    assert float(np.abs(np.sort(vals) - roots).max()) <= 1e-10 * scale
                # both blocks share one characteristic polynomial at n = 2, 4
                assert float(np.abs(spectra["A"] - spectra["B"]).max()) <= 1e-10


def test_criterion_6_gershgorin_suite():
    with _Criterion(6, "squared-row formulas, row bounds, reflection, increments"):
        rng = np.random.default_rng(606)
        metrics = random_metrics(rng, 4) + [Metric(1, 1, 0.5), ROUND]
        for m in metrics:
            for n in range(1, 31):
                for tag in "AB":
                    dense = d3s.build_block(m, n, tag).to_dense()
                    sq = dense @ dense
                    scale = max(1.0, float(np.abs(sq).max()))
                    for k in range(n + 1):
                        entries = squared_row_entries(m, n, tag, k)
                        for off, e in zip(range(-2, 3), entries):
                            col = k + off
                            want = sq[k, col] if 0 <= col <= n else 0.0
                            assert abs(e - want) <= 1e-12 * scale
            for n in (2, 9, 20, 30):
                low = d3s.min_row_bound(m, n)
                for tag in "AB":
                    vals = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, n, tag)))
                    assert float((vals ** 2).min()) >= low - 1e-9 * max(1.0, abs(low))
            ms, _ = m.sorted()
            a, b, cc = ms.triple()
            C = ms.C
            for n in range(0, 51, 5):
                for k in range(0, n + 1, max(1, n // 3)):
                    g = d3s.closed_form_G(m, n, k)
                    gt = paper_Gtilde(a, b, cc, C, n, n - k)
                    assert abs(g - gt) <= 1e-12 * max(1.0, abs(g))
                inc = d3s.triangle_increment(m, n, min(2, n))
                want = 4.0 * (cc * cc * n - b * C + a * cc + b * b + cc * cc)
                assert abs(inc - want) <= 1e-10 * max(1.0, abs(want))
                if d3s.scal_sign_classification(m) == d3s.POSITIVE:
                    assert inc > 0


def test_criterion_7_inverse_round_trips():
    with _Criterion(7, "1000 metrics per regime reconstruct to 1e-8") as c:
        rng = np.random.default_rng(707)

        def check(r, m):
            want = np.array(m.sorted()[0].triple())
            assert np.abs(np.array(r.triple) / want - 1).max() <= 1e-8, m.triple()

        for m in random_metrics_with_sign(rng, 1000, d3s.POSITIVE):
            inv = d3s.invariants(m)
            check(d3s.reconstruct_positive_mu(inv.vol_s3, inv.scal, inv.mu, d3s.S3), m)
            check(d3s.reconstruct_positive_C(inv.vol_so3, inv.scal, inv.C, d3s.SO3_TRIVIAL), m)
        for m in random_metrics_with_sign(rng, 1000, d3s.NEGATIVE):
            inv = d3s.invariants(m)
            r = d3s.reconstruct_nonpositive(inv.vol_s3, inv.scal, inv.a2_tilde, d3s.S3)
            assert r.branch == "a2tilde-negative"
            check(r, m)
        for m in scal_zero_metrics(rng, 1000):
            inv = d3s.invariants(m)
            r = d3s.reconstruct_nonpositive(inv.vol_s3, inv.scal, inv.a2_tilde, d3s.S3)
            assert r.branch == "a2tilde-zero"
            check(r, m)
    assert c.elapsed < 30.0


def test_criterion_8_berger_arithmetic_progression():
    with _Criterion(8, "Berger metrics carry the level-1 eigenvalue 2 - T/2"):
        for T in (1.2, 1.5, 1.8):
            spec = d3s.assemble(Metric(1 / T, 1, 1), d3s.S3, 1)
            target = 2 - T / 2
            level1 = [l.eigenvalue for l in spec.lines if l.level == 1]
            assert min(abs(v - target) for v in level1) <= 1e-10, T


def test_criterion_9_heat_trace_asymptotics():
    with _Criterion(9, "truncated heat trace matches the 3-term expansion within 1%") as c:
        spec = d3s.assemble(ROUND, d3s.S3, 60)
        h = d3s.heat_invariants(ROUND, d3s.S3)
        for t in (0.02, 0.05, 0.1):
            result = d3s.heat_trace(spec, t)
            asym = (4 * math.pi * t) ** -1.5 * (h.a0 + h.a1 * t + h.a2 * t * t)
            assert abs(result.value / asym - 1) <= 0.01, t
            assert result.tail_estimate <= 1e-10 * result.value, t
    assert c.elapsed < 10.0


def test_criterion_10_weyl_count_sanity():
    with _Criterion(10, "eigenvalue count at lam = 40 within 10% of (2/3) lam^3"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = d3s.counting_function(d3s.assemble(ROUND, d3s.S3, 60), 40.0)
        assert abs(count - (2 / 3) * 40 ** 3) <= 0.1 * (2 / 3) * 40 ** 3
