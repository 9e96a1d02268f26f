import math

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric
from dirac3sphere.eigen import _bisect_range, default_tolerance

from _oracles import random_metrics_with_sign, replay_fundamental_tone

ROUND = Metric(1, 1, 1)


def test_admissible_levels():
    assert list(d3s.admissible_levels(d3s.S3, 4)) == [0, 1, 2, 3, 4]
    assert list(d3s.admissible_levels(d3s.SO3_TRIVIAL, 5)) == [0, 2, 4]
    assert list(d3s.admissible_levels(d3s.SO3_NONTRIVIAL, 5)) == [1, 3, 5]
    with pytest.raises(ValueError):
        d3s.admissible_levels("sphere", 3)
    with pytest.raises(d3s.DomainError):
        d3s.admissible_levels(d3s.S3, -1)


def test_assemble_so3_trivial_level0_single_line():
    spec = d3s.assemble(ROUND, d3s.SO3_TRIVIAL, 0)
    assert len(spec.lines) == 1
    line = spec.lines[0]
    assert line.eigenvalue == pytest.approx(-1.5, abs=1e-14)
    assert line.tag == "AB"
    assert line.block_multiplicity == 2
    assert line.total_multiplicity == 2


def test_assemble_s3_level1_contains_mu_line():
    spec = d3s.assemble(ROUND, d3s.S3, 1)
    mu_lines = [l for l in spec.lines if abs(l.eigenvalue - 1.5) < 1e-12]
    assert len(mu_lines) == 1
    assert mu_lines[0].level == 1
    assert mu_lines[0].total_multiplicity == 2
    # the level-1 eigenvalue -5/2 merges across blocks: 3 x dim V_1 = 6
    other = [l for l in spec.lines if abs(l.eigenvalue + 2.5) < 1e-12]
    assert other[0].total_multiplicity == 6


def test_line_multiplicity_consistency():
    spec = d3s.assemble(Metric(1.3, 0.8, 0.6), d3s.S3, 9)
    for line in spec.lines:
        assert line.total_multiplicity == line.block_multiplicity * (line.level + 1)
    assert [l.eigenvalue for l in spec.lines] == sorted(l.eigenvalue for l in spec.lines)
    # each level contributes dimension 2(n+1)^2 in total multiplicity
    per_level = {}
    for line in spec.lines:
        per_level[line.level] = per_level.get(line.level, 0) + line.total_multiplicity
    assert per_level == {n: 2 * (n + 1) ** 2 for n in range(10)}


def test_level_lines_match_the_assembled_level():
    m = Metric(1.3, 0.8, 0.6)
    spec = d3s.assemble(m, d3s.S3, 9)
    for n in (0, 4, 9):
        assert d3s.level_lines(m, n) == [l for l in spec.lines if l.level == n]


def test_even_levels_never_build_block_b(monkeypatch):
    from dirac3sphere import spectrum

    built = []

    def counting(m, n, tag):
        built.append((n, tag))
        return d3s.build_block(m, n, tag)

    monkeypatch.setattr(spectrum, "build_block", counting)
    for m in (Metric(1.3, 0.8, 0.6), Metric(3, 1, 0.3)):
        for manifold in (d3s.S3, d3s.SO3_TRIVIAL):
            d3s.assemble(m, manifold, 12)
            d3s.enumerated_min_abs(m, manifold, 40)
        d3s.level_lines(m, 4)
    assert not [(n, tag) for n, tag in built if n % 2 == 0 and tag == "B"]
    assert {tag for n, tag in built if n % 2 == 1} == {"A", "B"}


def test_even_levels_carry_only_paired_lines():
    spec = d3s.assemble(Metric(1.3, 0.8, 0.6), d3s.SO3_TRIVIAL, 40)
    assert {l.tag for l in spec.lines} == {"AB"}
    assert all(l.block_multiplicity % 2 == 0 for l in spec.lines)
    assert spec.total_count() == sum(2 * (n + 1) ** 2 for n in range(0, 41, 2))


def test_spin_structure_partition():
    m = Metric(1.1, 0.9, 0.75)
    full = d3s.assemble(m, d3s.S3, 8)
    even = d3s.assemble(m, d3s.SO3_TRIVIAL, 8)
    odd = d3s.assemble(m, d3s.SO3_NONTRIVIAL, 8)
    key = lambda l: (l.eigenvalue, l.level, l.tag, l.block_multiplicity, l.total_multiplicity)
    assert sorted(map(key, full.lines)) == sorted(map(key, even.lines + odd.lines))


def test_berger_family_level1_eigenvalue():
    for T in (1.2, 1.5, 1.8):
        m = Metric(1 / T, 1, 1)
        spec = d3s.assemble(m, d3s.S3, 1)
        target = 2 - T / 2
        assert min(abs(l.eigenvalue - target) for l in spec.lines) <= 1e-10
        assert m.mu == pytest.approx(target, rel=1e-14)


def test_merged_view_combines_cross_level_coincidences():
    # T = 2 Berger metric: -3 appears at level 1 (mult 2) and level 3 (mult 8)
    spec = d3s.assemble(Metric(0.5, 1, 1), d3s.S3, 3)
    raw = [l for l in spec.lines if abs(l.eigenvalue + 3.0) < 1e-9]
    assert {l.level for l in raw} == {1, 3}
    assert sum(l.total_multiplicity for l in raw) == 10
    merged = spec.merged_lines()
    hits = [(v, mult) for v, mult in merged if abs(v + 3.0) < 1e-9]
    assert len(hits) == 1
    assert hits[0][1] == 10
    # raw lines are untouched by the merged view
    assert len([l for l in spec.lines if abs(l.eigenvalue + 3.0) < 1e-9]) == 2


def test_round_sphere_spectrum_closed_form():
    # the classical full spectrum: level n carries n + 1/2 with multiplicity
    # n(n+1) (absent at n = 0) and -(n + 3/2) with multiplicity (n+1)(n+2)
    spec = d3s.assemble(ROUND, d3s.S3, 12)
    by_level = {}
    for line in spec.lines:
        by_level.setdefault(line.level, []).append(line)
    for n in range(13):
        lines = sorted(by_level[n], key=lambda l: l.eigenvalue)
        if n == 0:
            assert len(lines) == 1
        else:
            assert len(lines) == 2
            assert lines[1].eigenvalue == pytest.approx(n + 0.5, abs=1e-10)
            assert lines[1].total_multiplicity == n * (n + 1)
        assert lines[0].eigenvalue == pytest.approx(-(n + 1.5), abs=1e-10)
        assert lines[0].total_multiplicity == (n + 1) * (n + 2)


def test_smallest_round_metric():
    report = d3s.smallest(ROUND, d3s.S3)
    assert report.value == pytest.approx(1.5, rel=1e-14)
    assert report.multiplicity_d_squared == 4
    assert report.certified
    assert report.method == "closed-form"
    assert report.certification_trace.passed


def test_smallest_other_structures_round():
    r_triv = d3s.smallest(ROUND, d3s.SO3_TRIVIAL)
    assert r_triv.value == pytest.approx(1.5, rel=1e-14)
    assert r_triv.multiplicity_d_squared == 2
    r_non = d3s.smallest(ROUND, d3s.SO3_NONTRIVIAL)
    assert r_non.value == pytest.approx(1.5, rel=1e-14)
    assert r_non.multiplicity_d_squared == 2


def test_smallest_211():
    m = Metric(2, 1, 1)
    report = d3s.smallest(m, d3s.S3)
    assert report.value == pytest.approx(m.mu, rel=1e-14)
    assert report.value == pytest.approx(1.75, rel=1e-14)
    assert report.multiplicity_d_squared == 2
    assert report.certified
    value, mult, _ = d3s.enumerated_min_abs(m, d3s.S3, 25)
    assert value == pytest.approx(report.value, rel=1e-9)
    assert mult == 2


def test_smallest_negative_scal_uncertified():
    m = Metric(1, 1, 0.4)
    report = d3s.smallest(m, d3s.S3, max_level=30)
    assert not report.certified
    assert report.method == "enumeration"
    spec = d3s.assemble(m, d3s.S3, 30)
    assert report.value == pytest.approx(min(abs(l.eigenvalue) for l in spec.lines), rel=1e-10)
    with pytest.raises(d3s.UncertifiableError):
        d3s.smallest(m, d3s.S3, certify=True)


def test_smallest_certify_off_skips_trace():
    report = d3s.smallest(ROUND, d3s.S3, certify=False)
    assert not report.certified
    assert report.certification_trace is None
    assert report.value == pytest.approx(1.5, rel=1e-14)


def test_certify_round_and_near_boundary():
    trace = d3s.certify_fundamental_tone(ROUND)
    assert trace.passed
    named = {s.name: s for s in trace.steps}
    mu_eq = named["base:G(1,0)=mu^2"]
    assert "2.25" in mu_eq.detail
    # close to the scal = 0 point the chain still passes, with small margins
    trace2 = d3s.certify_fundamental_tone(Metric(1, 1, 0.55))
    assert trace2.passed
    assert 0 < trace2.min_margin < trace.min_margin


def test_certify_rejects_boundary_point():
    for t in ((1, 1, 0.5), (1, 1, 0.4999999999999)):
        with pytest.raises(d3s.UncertifiableError):
            d3s.certify_fundamental_tone(Metric(*t))


def test_certify_decides_next_to_the_wall():
    # the float sign screen calls this metric "zero"; the exact test proves scal > 0
    m = Metric(1, 1, 0.5000000000001)
    assert d3s.scal_sign_classification(m) == d3s.ZERO
    trace = d3s.certify_fundamental_tone(m)
    assert trace.passed
    assert 0 < trace.min_margin < 1e-12


def test_certify_agrees_with_float_replay():
    rng = np.random.default_rng(2022)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE) + [ROUND, Metric(1, 1, 0.55)]:
        assert replay_fundamental_tone(m), m.triple()
        assert d3s.certify_fundamental_tone(m).passed, m.triple()


def test_certify_step_list_is_fixed():
    rng = np.random.default_rng(5)
    metrics = random_metrics_with_sign(rng, 20, d3s.POSITIVE) + [
        ROUND, Metric(2, 1, 1), Metric(1, 1, 0.5000000000001), Metric(0.6, 1.3, 0.8),
        Metric(1e62, 1e62, 1e62),  # level-4 margins beyond the double range are reported as inf
    ]
    names = {tuple(s.name for s in d3s.certify_fundamental_tone(m).steps) for m in metrics}
    assert len(names) == 1


def test_certify_names_the_failing_condition(monkeypatch):
    from dirac3sphere import spectrum

    real = spectrum._char_poly_coeffs

    def positive_chi2(a, b, c, n):
        # chi_2 shifted up so that it is positive at 0
        return [1, 0, 0, 16 * a * b * c] if n == 2 else real(a, b, c, n)

    monkeypatch.setattr(spectrum, "_char_poly_coeffs", positive_chi2)
    with pytest.raises(d3s.CertificationError, match=r"level2:chi2\(0\)<0"):
        d3s.certify_fundamental_tone(ROUND)


def test_certified_minimum_matches_enumeration_sample():
    rng = np.random.default_rng(14)
    for m in random_metrics_with_sign(rng, 25, d3s.POSITIVE):
        for manifold, want in ((d3s.S3, m.mu), (d3s.SO3_NONTRIVIAL, m.mu), (d3s.SO3_TRIVIAL, m.C)):
            value, mult, _ = d3s.enumerated_min_abs(m, manifold, 25)
            assert value == pytest.approx(want, rel=1e-9)
            assert mult == 2
        # C >= mu > 0, strict unless a = b = c
        assert m.C >= m.mu > 0
        if not m.is_round():
            assert m.C > m.mu
    assert Metric(1, 1, 1).C == Metric(1, 1, 1).mu


def test_round_line_multiplicity_four_only_on_diagonal():
    value, mult, _ = d3s.enumerated_min_abs(ROUND, d3s.S3, 25)
    assert value == pytest.approx(1.5, rel=1e-12)
    assert mult == 4


def test_lichnerowicz_bound():
    rng = np.random.default_rng(21)
    for m in random_metrics_with_sign(rng, 10, d3s.POSITIVE):
        spec = d3s.assemble(m, d3s.S3, 10)
        bound = m.scal / 4
        for line in spec.lines:
            assert line.eigenvalue ** 2 >= bound * (1 - 1e-9)


def test_heat_trace_large_t_dominated_by_fundamental_tone():
    result = d3s.heat_trace(ROUND, d3s.S3, 10.0, 5)
    assert result.value == pytest.approx(4 * math.exp(-22.5), rel=1e-6)


def test_heat_trace_small_t_asymptotics():
    spec = d3s.assemble(ROUND, d3s.S3, 60)
    for t in (0.02, 0.05, 0.1):
        result = d3s.heat_trace(ROUND, d3s.S3, t, 60, spectrum=spec)
        asym = (4 * math.pi * t) ** -1.5 * (4 * math.pi ** 2 - 2 * math.pi ** 2 * t)
        assert result.value == pytest.approx(asym, rel=0.01)
        assert result.tail_estimate <= 1e-10 * result.value


def test_heat_trace_level0_closed_form():
    m = Metric(1.4, 0.7, 0.9)
    for t in (0.3, 2.0):
        result = d3s.heat_trace(m, d3s.SO3_TRIVIAL, t, 0)
        assert result.value == pytest.approx(2 * math.exp(-t * m.C ** 2), rel=1e-13)


def test_heat_trace_rejects_bad_t():
    with pytest.raises(ValueError):
        d3s.heat_trace(ROUND, d3s.S3, 0.0, 5)


def test_counting_function_round():
    spec = d3s.assemble(ROUND, d3s.S3, 12)
    assert d3s.counting_function(ROUND, d3s.S3, 1.0, 12, spectrum=spec) == 0
    with pytest.warns(d3s.TruncationWarning):
        assert d3s.counting_function(ROUND, d3s.SO3_TRIVIAL, 1.5, 0) == 2


def test_counting_function_weyl_ballpark():
    import warnings

    spec = d3s.assemble(ROUND, d3s.S3, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = d3s.counting_function(ROUND, d3s.S3, 40.0, 60, spectrum=spec)
    weyl = d3s.weyl_count_estimate(ROUND, d3s.S3, 40.0)
    assert weyl == pytest.approx((2 / 3) * 40 ** 3, rel=1e-12)
    assert abs(count - weyl) <= 0.1 * weyl


def test_counting_warns_when_levels_insufficient():
    with pytest.warns(d3s.TruncationWarning):
        d3s.counting_function(ROUND, d3s.S3, 50.0, 10)


def test_spectrum_permutation_invariance():
    import itertools

    m = Metric(1.2, 0.9, 0.6)
    base = d3s.assemble(m, d3s.S3, 6)
    base_vals = np.array([l.eigenvalue for l in base.lines for _ in range(l.total_multiplicity)])
    for perm in itertools.permutations(m.triple()):
        other = d3s.assemble(Metric(*perm), d3s.S3, 6)
        vals = np.array([l.eigenvalue for l in other.lines for _ in range(l.total_multiplicity)])
        assert np.abs(np.sort(base_vals) - np.sort(vals)).max() <= 1e-9


def _level_blocks(m, n):
    return [d3s.symmetrize(d3s.build_block(m, n, tag)) for tag in "AB"]


def test_assemble_agrees_with_bisection_reference():
    # the pure Sturm-bisection solve, level by level, as a multiset
    rng = np.random.default_rng(606)
    metrics = random_metrics_with_sign(rng, 2, d3s.POSITIVE) + random_metrics_with_sign(rng, 1, d3s.NEGATIVE)
    for m, manifold in zip(metrics, (d3s.S3, d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL)):
        spec = d3s.assemble(m, manifold, 60)
        for n in d3s.admissible_levels(manifold, 60):
            ts = _level_blocks(m, n)
            tol = max(default_tolerance(t) for t in ts)
            ref = np.sort(np.concatenate([_bisect_range(t.diag, t.offdiag, default_tolerance(t)) for t in ts]))
            got = np.sort([l.eigenvalue for l in spec.lines if l.level == n for _ in range(l.block_multiplicity)])
            assert np.abs(got - ref).max() <= 2 * tol


def test_assembled_values_pass_the_sturm_certificate():
    for m in (ROUND, Metric(1.3, 0.8, 0.6), Metric(1.4, 0.7, 0.7), Metric(3, 1, 0.3)):
        spec = d3s.assemble(m, d3s.S3, 40)
        for n in range(41):
            ts = _level_blocks(m, n)
            tol = max(default_tolerance(t) for t in ts)
            below = 0
            for line in sorted((l for l in spec.lines if l.level == n), key=lambda l: l.eigenvalue):
                assert sum(d3s.count_below(t, line.eigenvalue - tol) for t in ts) <= below
                below += line.block_multiplicity
                assert sum(d3s.count_below(t, line.eigenvalue + tol) for t in ts) >= below


def test_line_intervals_are_disjoint_and_hold_their_counts():
    # each line's interval [c - r, c + r] holds exactly its block multiplicity
    # of the level's eigenvalues, by Sturm counts over both blocks
    rng = np.random.default_rng(1212)
    metrics = random_metrics_with_sign(rng, 2, d3s.POSITIVE) + random_metrics_with_sign(rng, 1, d3s.NEGATIVE)
    for m in metrics:
        for manifold in (d3s.S3, d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL):
            spec = d3s.assemble(m, manifold, 60)
            for n in d3s.admissible_levels(manifold, 60):
                lines = [l for l in spec.lines if l.level == n]
                lo = np.array([l.eigenvalue - l.radius for l in lines])
                hi = np.array([l.eigenvalue + l.radius for l in lines])
                assert np.all(hi[:-1] < lo[1:])
                counts = d3s.count_below_batch(_level_blocks(m, n), np.concatenate([lo, np.nextafter(hi, np.inf)]))
                inside = counts.sum(axis=0)
                assert list(inside[len(lines):] - inside[:len(lines)]) == [l.block_multiplicity for l in lines]
                assert sum(l.total_multiplicity for l in lines) == 2 * (n + 1) ** 2


def test_close_distinct_eigenvalues_stay_separate_lines():
    # two values of block A at level 11 lie 1e-8 apart, far beyond the solve
    # tolerance: two lines, each a single value with radius tol
    m = Metric(1.2593, 0.5123, 0.3979)
    tol = max(default_tolerance(t) for t in _level_blocks(m, 11))
    near = [l for l in d3s.level_lines(m, 11) if abs(l.eigenvalue - 12.8294) < 1e-3]
    assert [(l.tag, l.block_multiplicity) for l in near] == [("A", 1), ("A", 1)]
    assert all(l.radius <= tol for l in near)
