import math
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, spectrum
from dirac3sphere.eigen import _bisect_range, default_tolerance

from _oracles import (
    berger_spectrum,
    count_below_blocks,
    random_metrics_with_sign,
    reference_block,
    replay_fundamental_tone,
)

ROUND = Metric(1, 1, 1)


#: the largest cutoff under ``spectrum.MAX_SOLVER_ENTRIES`` on each manifold
CAP_CUTOFFS = {d3s.S3: 647, d3s.SO3_TRIVIAL: 1447, d3s.SO3_NONTRIVIAL: 1024}


def test_the_cost_model_is_the_size_of_the_solver_rows():
    # the entries predicted from the cutoff alone are those of the padded rows
    m = Metric(1.3, 0.8, 0.6)
    for manifold in CAP_CUTOFFS:
        for max_level in [*range(12), 40, 81]:
            levels = d3s.admissible_levels(manifold, max_level)
            D = spectrum._level_rows(m, list(levels))[0] if len(levels) else np.zeros(0)
            assert spectrum._solver_entries(levels) == D.size, (manifold, max_level)


@pytest.mark.parametrize("manifold", list(CAP_CUTOFFS))
def test_the_cost_cap_admits_its_cutoff_and_refuses_the_next(monkeypatch, manifold):
    # the cap's own cutoff reaches the solver rows (stopped there: a full
    # solve at the cap takes seconds to a minute), the next is refused before
    cap = CAP_CUTOFFS[manifold]
    levels = d3s.admissible_levels(manifold, cap)
    assert spectrum._solver_entries(levels) <= spectrum.MAX_SOLVER_ENTRIES
    assert spectrum._solver_entries(d3s.admissible_levels(manifold, cap + 1)) > spectrum.MAX_SOLVER_ENTRIES
    reached, lines_of_levels = [], spectrum._lines_of_levels

    def stop(m, solved):
        reached.append(solved)
        return lines_of_levels(m, [])

    monkeypatch.setattr(spectrum, "_lines_of_levels", stop)
    d3s.assemble(ROUND, manifold, cap)
    assert reached == [list(levels)]
    with pytest.raises(d3s.DomainError, match="above the cap of 2\\^20"):
        d3s.assemble(ROUND, manifold, cap + 1)
    assert len(reached) == 1


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
    # every level source writes its rows with _raw_rows, through _full_rows:
    # assemble and level_lines by way of _level_rows, and the enumeration
    from dirac3sphere import spectrum

    calls = []
    raw_rows = spectrum._raw_rows

    def spy(m, n, flip):
        calls.append(list(zip(n.tolist(), flip.tolist())))
        return raw_rows(m, n, flip)

    monkeypatch.setattr(spectrum, "_raw_rows", spy)
    for m in (Metric(1.3, 0.8, 0.6), Metric(3, 1, 0.3)):
        for manifold in (d3s.S3, d3s.SO3_TRIVIAL):
            for run in (d3s.assemble, d3s.enumerated_min_abs):
                before = len(calls)
                run(m, manifold, 40 if run is d3s.enumerated_min_abs else 12)
                assert len(calls) > before
        d3s.level_lines(m, 4)
    for rows in calls:
        assert not [n for n, flip in rows if n % 2 == 0 and flip]
        odd = {n for n, _ in rows if n % 2 == 1}
        assert {(n, flip) for n, flip in rows if n % 2 == 1} == {(n, flip) for n in odd for flip in (False, True)}
    assert any(n % 2 == 1 for rows in calls for n, _ in rows)


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
    assert len(d3s.certify_fundamental_tone(ROUND).steps) == 13


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


def test_smallest_is_decided_by_the_certificate_with_or_without_certify():
    # next to the wall, on either side of it, and on it: the exact sign
    # routes, so certify=True changes only a refusal into an error
    m = Metric(1, 1, 0.5000000000001)
    assert d3s.scal_sign_classification(m) == d3s.POSITIVE
    for certify in (False, True):
        report = d3s.smallest(m, d3s.S3, certify=certify, max_level=10)
        assert (report.method, report.certified, report.value) == ("closed-form", True, m.mu)
    assert len(d3s.certify_fundamental_tone(m).steps) == 13
    for wall in (Metric(1, 1, 0.5), Metric(1, 1, 0.4999999999999), Metric(6, 4, Fraction(12, 5))):
        assert d3s.smallest(wall, d3s.S3, max_level=10).method == "enumeration"
        with pytest.raises(d3s.UncertifiableError):
            d3s.smallest(wall, d3s.S3, certify=True)


def test_smallest_refuses_an_unknown_manifold():
    with pytest.raises(d3s.DomainError, match="unknown manifold 'so3'"):
        d3s.smallest(ROUND, "so3")


def test_smallest_without_certify_still_certifies():
    # certify=False (and None, which reads as false) still runs the gate; a
    # metric with scal > 0 is certified all the same, and the report carries
    # no trace (the rows are certify_fundamental_tone's and verify's)
    for certify in (False, None):
        report = d3s.smallest(ROUND, d3s.S3, certify=certify)
        assert (report.method, report.certified, report.value) == ("closed-form", True, 1.5)
        assert not hasattr(report, "certification_trace")


def test_certify_round_and_near_boundary():
    trace = d3s.certify_fundamental_tone(ROUND)
    named = {s.name: s for s in trace.steps}
    assert named["base:G(5,0)>mu^2"].margin == math.sqrt(20.0)  # G(5,0) = 22.25, mu^2 = 2.25, degree 2
    # close to the scal = 0 point the chain still passes, with small margins
    trace2 = d3s.certify_fundamental_tone(Metric(1, 1, 0.55))
    assert 0 < trace2.min_margin < trace.min_margin


def test_certify_rejects_boundary_point():
    for t in ((1, 1, 0.5), (1, 1, 0.4999999999999)):
        with pytest.raises(d3s.UncertifiableError):
            d3s.certify_fundamental_tone(Metric(*t))


def test_certify_decides_next_to_the_wall():
    # within relative 1e-12 of the wall, and on its positive side exactly
    m = Metric(1, 1, 0.5000000000001)
    assert d3s.scal_sign_classification(m) == d3s.POSITIVE
    trace = d3s.certify_fundamental_tone(m)
    # the tightest row vanishes at the wall along (1, 1, c): G(5,0) = mu^2 at
    # c = 1/2, and its value is of order 1e-12, its margin (a square root) 2.2e-6
    tightest = min(trace.steps, key=lambda s: s.margin)
    assert tightest.name == "base:G(5,0)>mu^2" and 1e-6 < trace.min_margin < 1e-5


def test_certify_agrees_with_float_replay():
    rng = np.random.default_rng(2022)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE) + [ROUND, Metric(1, 1, 0.55)]:
        assert replay_fundamental_tone(m), m.triple()
        assert len(d3s.certify_fundamental_tone(m).steps) == 13, m.triple()


def test_certify_step_list_is_fixed():
    rng = np.random.default_rng(5)
    metrics = random_metrics_with_sign(rng, 20, d3s.POSITIVE) + [
        ROUND, Metric(2, 1, 1), Metric(1, 1, 0.5000000000001), Metric(0.6, 1.3, 0.8),
        Metric(1e62, 1e62, 1e62),  # its level-4 margins, at its own scale, were beyond the double range
    ]
    names = {tuple(s.name for s in d3s.certify_fundamental_tone(m).steps) for m in metrics}
    assert len(names) == 1


def test_certify_names_the_failing_condition(monkeypatch):
    from dirac3sphere import gershgorin

    real = gershgorin._char_poly_coeffs

    def positive_chi2(a, b, c, n):
        # chi_2 shifted up so that it is positive on [0, 2C]
        return [1, 0, 0, 16 * a * b * c] if n == 2 else real(a, b, c, n)

    monkeypatch.setattr(gershgorin, "_char_poly_coeffs", positive_chi2)
    with pytest.raises(d3s.CertificationError, match=r"level2:chi2\(2C\)<0"):
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
    result = d3s.heat_trace(d3s.assemble(ROUND, d3s.S3, 5), 10.0)
    assert result.value == pytest.approx(4 * math.exp(-22.5), rel=1e-6)


def test_heat_trace_small_t_asymptotics():
    spec = d3s.assemble(ROUND, d3s.S3, 60)
    for t in (0.02, 0.05, 0.1):
        result = d3s.heat_trace(spec, t)
        asym = (4 * math.pi * t) ** -1.5 * (4 * math.pi ** 2 - 2 * math.pi ** 2 * t)
        assert result.value == pytest.approx(asym, rel=0.01)
        assert result.tail_estimate <= 1e-10 * result.value


def test_heat_trace_level0_closed_form():
    m = Metric(1.4, 0.7, 0.9)
    for t in (0.3, 2.0):
        result = d3s.heat_trace(d3s.assemble(m, d3s.SO3_TRIVIAL, 0), t)
        assert result.value == pytest.approx(2 * math.exp(-t * m.C ** 2), rel=1e-13)


def test_heat_trace_and_counting_read_the_spectrum():
    # metric, manifold and cutoff come from the spectrum alone, so they cannot disagree with it
    spec = d3s.assemble(Metric(2, 1, 1), d3s.S3, 10)
    assert d3s.heat_trace(spec, 0.05).max_level == 10
    with pytest.warns(d3s.TruncationWarning, match=r"^level cutoff 10 .* at level 10 is"):
        d3s.counting_function(spec, 100.0)


def test_heat_trace_rejects_bad_t():
    with pytest.raises(ValueError):
        d3s.heat_trace(d3s.assemble(ROUND, d3s.S3, 5), 0.0)


def test_counting_function_round():
    spec = d3s.assemble(ROUND, d3s.S3, 12)
    assert d3s.counting_function(spec, 1.0) == 0
    with pytest.warns(d3s.TruncationWarning):
        assert d3s.counting_function(d3s.assemble(ROUND, d3s.SO3_TRIVIAL, 0), 1.5) == 2


def test_counting_function_weyl_ballpark():
    import warnings

    spec = d3s.assemble(ROUND, d3s.S3, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = d3s.counting_function(spec, 40.0)
    weyl = d3s.weyl_count_estimate(ROUND, d3s.S3, 40.0)
    assert weyl == pytest.approx((2 / 3) * 40 ** 3, rel=1e-12)
    assert abs(count - weyl) <= 0.1 * weyl


def test_weyl_estimate_stays_in_range_at_extreme_scales():
    # vol lam^3 overflows (and vol flushes to 0) at 1e152; the estimate is
    # scale invariant in lam / a
    for scale in (1e152, 1e-100):
        m = Metric(scale, scale, scale)
        assert d3s.weyl_count_estimate(m, d3s.S3, 40.0 * scale) == pytest.approx((2 / 3) * 40 ** 3, rel=1e-12)
        assert d3s.weyl_count_estimate(m, d3s.SO3_TRIVIAL, 40.0 * scale) == pytest.approx(40 ** 3 / 3, rel=1e-12)
        result = d3s.heat_trace(d3s.assemble(m, d3s.S3, 80), 1.0 / scale ** 2)
        assert math.isfinite(result.tail_estimate) and result.computed_count == 360882


def test_counting_warns_when_levels_insufficient():
    with pytest.warns(d3s.TruncationWarning):
        d3s.counting_function(d3s.assemble(ROUND, d3s.S3, 10), 50.0)


def test_spectrum_permutation_invariance():
    import itertools

    m = Metric(1.2, 0.9, 0.6)
    base = d3s.assemble(m, d3s.S3, 6)
    base_vals = np.array([l.eigenvalue for l in base.lines for _ in range(l.total_multiplicity)])
    for perm in itertools.permutations(m.triple()):
        other = d3s.assemble(Metric(*perm), d3s.S3, 6)
        vals = np.array([l.eigenvalue for l in other.lines for _ in range(l.total_multiplicity)])
        assert np.abs(np.sort(base_vals) - np.sort(vals)).max() <= 1e-9


def _both_blocks(m, n):
    return [d3s.symmetrize(d3s.build_block(m, n, tag)) for tag in "AB"]


def test_assemble_agrees_with_bisection_reference():
    # the pure Sturm-bisection solve, level by level, as a multiset
    rng = np.random.default_rng(606)
    metrics = random_metrics_with_sign(rng, 2, d3s.POSITIVE) + random_metrics_with_sign(rng, 1, d3s.NEGATIVE)
    for m, manifold in zip(metrics, (d3s.S3, d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL)):
        spec = d3s.assemble(m, manifold, 60)
        for n in d3s.admissible_levels(manifold, 60):
            ts = _both_blocks(m, n)
            tol = max(default_tolerance(t) for t in ts)
            ref = np.sort(np.concatenate([_bisect_range(t.diag, t.offdiag, default_tolerance(t)) for t in ts]))
            got = np.sort([l.eigenvalue for l in spec.lines if l.level == n for _ in range(l.block_multiplicity)])
            assert np.abs(got - ref).max() <= 2 * tol


def test_assembled_values_pass_the_sturm_certificate():
    # per line, in ascending order: count(v - tol) <= lines below it and
    # count(v + tol) >= lines up to it, both blocks counted in one batch
    for m in (ROUND, Metric(1.3, 0.8, 0.6), Metric(1.4, 0.7, 0.7), Metric(3, 1, 0.3)):
        spec = d3s.assemble(m, d3s.S3, 40)
        for n in range(41):
            ts = _both_blocks(m, n)
            tol = max(default_tolerance(t) for t in ts)
            at = spec.level == n
            values, mult = spec.eigenvalue[at], spec.block_multiplicity[at]
            counts = count_below_blocks(ts, np.concatenate([values - tol, values + tol])).sum(axis=0)
            up_to = np.cumsum(mult)
            assert np.all(counts[:len(values)] <= up_to - mult)
            assert np.all(counts[len(values):] >= up_to)


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
                counts = count_below_blocks(_both_blocks(m, n), np.concatenate([lo, np.nextafter(hi, np.inf)]))
                inside = counts.sum(axis=0)
                assert list(inside[len(lines):] - inside[:len(lines)]) == [l.block_multiplicity for l in lines]
                assert sum(l.total_multiplicity for l in lines) == 2 * (n + 1) ** 2


def test_close_distinct_eigenvalues_stay_separate_lines():
    # two values of block A at level 11 lie 1e-8 apart, far beyond the solve
    # tolerance: two lines, each a single value with radius tol
    m = Metric(1.2593, 0.5123, 0.3979)
    tol = max(default_tolerance(t) for t in _both_blocks(m, 11))
    near = [l for l in d3s.level_lines(m, 11) if abs(l.eigenvalue - 12.8294) < 1e-3]
    assert [(l.tag, l.block_multiplicity) for l in near] == [("A", 1), ("A", 1)]
    assert all(l.radius <= tol for l in near)


def _lead_positions(rng, count):
    """Seeded metrics of both scal signs, each with its largest entry at
    position 0, 1 and 2."""
    out = []
    for t in rng.uniform(0.25, 4.0, size=(count, 3)):
        rest = sorted(t)[:2]
        out += [Metric(*np.insert(rest, lead, t.max())) for lead in range(3)]
    return out


def test_level_rows_are_the_reference_blocks_bit_for_bit():
    from dirac3sphere.spectrum import _full_rows, _level_rows

    levels = np.arange(82)
    for m in _lead_positions(np.random.default_rng(2020), 20):
        # the full rows: A at every level, B after it at an odd one
        D, E, sizes, tol, level = _full_rows(m, levels)
        assert list(level) == [n for n in levels[::-1] for _ in range(1 + n % 2)]
        assert np.array_equal(sizes, level + 1)
        for r, n in enumerate(level):
            tag = "B" if r and level[r - 1] == n else "A"
            t = d3s.symmetrize(reference_block(m, n, tag))
            assert np.array_equal(D[r, :n + 1], t.diag) and not D[r, n + 1:].any()
            assert np.array_equal(E[r, :n], t.offdiag) and not E[r, n:].any()
            assert tol[r] == default_tolerance(t)

        D, E, sizes, level, weight, code, tol = _level_rows(m, levels)
        assert list(sizes) == sorted(sizes, reverse=True)
        for r, s in enumerate(sizes):
            assert not D[r, s:].any() and not E[r, s - 1:].any()
        for n in levels:
            a, b = (d3s.symmetrize(reference_block(m, n, tag)) for tag in "AB")
            rows = np.flatnonzero(level == n)
            assert set(tol[rows]) == {max(default_tolerance(a), default_tolerance(b) if n % 2 else 0.0)}
            if n % 2 == 0:  # one A row of weight 2
                (r,) = rows
                assert (sizes[r], weight[r], code[r]) == (n + 1, 2, 3)
                assert np.array_equal(D[r, :n + 1], a.diag) and np.array_equal(E[r, :n], a.offdiag)
                continue
            # two halves of each block: the leading h entries, with +e_{h-1}
            # and -e_{h-1} folded into the last diagonal entry
            h = (n + 1) // 2
            assert list(sizes[rows]) == [h] * 4 and list(weight[rows]) == [1] * 4
            for g, t in ((1, a), (2, b)):
                pair = rows[code[rows] == g]
                assert len(pair) == 2
                assert all(np.array_equal(D[q, :h - 1], t.diag[:h - 1]) for q in pair)
                assert all(np.array_equal(E[q, :h - 1], t.offdiag[:h - 1]) for q in pair)
                d, e = t.diag[h - 1], t.offdiag[h - 1]
                assert sorted(D[pair, h - 1]) == sorted([d + e, d - e])


def _half_spectra_mismatch(m, D, E, sizes, level, code, tol):
    """Largest distance, in units of the level's tol, between the union of
    the half spectra of each odd block and its dense full spectrum."""
    worst = 0.0
    for n in np.unique(level):
        for g, tag in ((1, "A"), (2, "B")):
            rows = np.flatnonzero((level == n) & (code == g))
            halves = []
            for r in rows:
                s = sizes[r]
                T = np.diag(D[r, :s]) + np.diag(E[r, :s - 1], -1) + np.diag(E[r, :s - 1], 1)
                halves.append(np.linalg.eigvalsh(T))
            full = np.linalg.eigvalsh(d3s.symmetrize(d3s.build_block(m, n, tag)).to_dense())
            worst = max(worst, np.abs(np.sort(np.concatenate(halves)) - full).max() / tol[rows[0]])
    return worst


def test_half_spectra_are_the_odd_block_spectrum():
    from dirac3sphere.spectrum import _level_rows

    odd = np.arange(1, 202, 2)
    for m in (Metric(1.3, 0.8, 0.6), Metric(3, 1, 0.3), Metric(0.7, 2.9, 1.1)):
        D, E, sizes, level, _, code, tol = _level_rows(m, odd)
        assert _half_spectra_mismatch(m, D, E, sizes, level, code, tol) <= 2.0
        # mutation: the middle coupling enters the second half of each block
        # with the first half's sign, so both halves are the same matrix
        mutated = D.copy()
        for r in range(1, len(level)):
            if (level[r], code[r]) == (level[r - 1], code[r - 1]):
                mutated[r, sizes[r] - 1] = mutated[r - 1, sizes[r] - 1]
        assert _half_spectra_mismatch(m, mutated, E, sizes, level, code, tol) > 1e6


def test_spectrum_columns_agree_with_the_line_objects():
    m = Metric(1.3, 0.8, 0.6)
    spec = d3s.assemble(m, d3s.SO3_NONTRIVIAL, 31)
    lines = spec.lines
    assert lines is spec.lines  # built once
    assert [l.eigenvalue for l in lines] == spec.eigenvalue.tolist()
    assert [l.tag for l in lines] == spec.tags
    assert spec.total_count() == sum(l.total_multiplicity for l in lines)
    t = 0.05
    want = math.fsum(l.total_multiplicity * math.exp(-t * l.eigenvalue ** 2) for l in lines)
    assert d3s.heat_trace(spec, t).value == pytest.approx(want, rel=1e-14)
    for lam in (2.0, 10.0, 30.0):
        want = sum(l.total_multiplicity for l in lines if abs(l.eigenvalue) <= lam + 1e-9 * (1 + lam))
        assert d3s.counting_function(spec, lam) == want


BERGER = ((1.3, 0.9), (0.4, 2.0), (3.0, 0.2))


def test_assemble_matches_the_berger_closed_form():
    # at b = c every eigenvalue is known in closed form, with no solver: the
    # k-th sorted one of a level lies in the interval of the line that holds
    # the k-th slot of the level's lines, counted by block multiplicity
    runs = [(ab, manifold, 120) for ab in BERGER for manifold in (d3s.S3, d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL)]
    for (a, b), manifold, top in runs + [((0.6, 1.7), d3s.S3, 300)]:
        spec = d3s.assemble(Metric(a, b, b), manifold, top)
        for n in d3s.admissible_levels(manifold, top):
            at = spec.level == n
            slots = np.repeat(np.flatnonzero(at), spec.block_multiplicity[at])
            err = np.abs(berger_spectrum(a, b, n) - spec.eigenvalue[slots])
            assert np.all(err <= spec.radius[slots]), ((a, b), manifold, n, (err - spec.radius[slots]).max())


def _power_sum_excess(m, spec, n):
    """How far the first two power sums of level n's lines miss the traces
    of the level's two blocks, each in units of what the lines allow.

    Both blocks together have trace -2(n+1)C and trace of the square
    (2/3)(a^2+b^2+c^2) n(n+1)(n+2) + 2(n+1)C^2: the +-a(n-2k) terms of A and B
    cancel, sum (n-2k)^2 = n(n+1)(n+2)/3, and the couplings give
    ((c+b)^2 + (c-b)^2) sum (k+1)(n-k) = 2(b^2+c^2) n(n+1)(n+2)/6 in each of
    the two off-diagonals.  A value within r of the centre v moves the sums
    by at most r and r(2|v| + r); the rest is the rounding of the entries
    and of the sums, a few eps of their magnitude.
    """
    a, b, c = m.triple()
    C = m.C
    at = spec.level == n
    w, v, r = spec.block_multiplicity[at], spec.eigenvalue[at], spec.radius[at]
    eps = np.finfo(float).eps
    traces = (-2 * (n + 1) * C, 2 / 3 * (a * a + b * b + c * c) * n * (n + 1) * (n + 2) + 2 * (n + 1) * C * C)
    excess = []
    for power, trace, allowed in ((1, traces[0], w * r), (2, traces[1], w * r * (2 * np.abs(v) + r))):
        terms = w * v ** power
        magnitude = math.fsum(np.abs(terms)) + abs(trace)
        excess.append(abs(math.fsum(terms) - trace) / (math.fsum(allowed) + 16 * eps * magnitude))
    return max(excess)


def test_level_power_sums_are_the_closed_form_traces():
    # the odd-level halves, the even-level weight 2 and the line grouping
    # together keep every level's trace and trace of the square
    metrics = [Metric(1.3, 0.8, 0.6), Metric(3, 1, 0.3), Metric(0.7, 2.9, 1.1)]
    runs = [(m, d3s.S3, 300) for m in metrics] + [(metrics[0], s, 120) for s in (d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL)]
    for m, manifold, top in runs:
        spec = d3s.assemble(m, manifold, top)
        for n in d3s.admissible_levels(manifold, top):
            assert _power_sum_excess(m, spec, n) <= 1.0, (m, manifold, n)
