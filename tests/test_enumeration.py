"""Enumerated minima: the sorted metric, level bounds, the Sturm screen and
the proved min-|eigenvalue| solves."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, eigen, gershgorin
from dirac3sphere.eigen import default_tolerance

from _oracles import (
    berger_spectrum,
    dense_min_abs,
    exact_level_bounds,
    random_metrics,
    random_metrics_with_sign,
    reference_enumerated_min_abs,
    reference_level_bounds,
    scal_zero_metrics,
)

MANIFOLDS = (d3s.S3, d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL)


def _lead(t, position):
    # the triple with its largest entry at ``position``
    return Metric(*np.roll(np.sort(t)[::-1], position))


def test_enumeration_matches_exhaustive_dense_reference():
    rng = np.random.default_rng(31)
    triples = [m.triple() for m in random_metrics_with_sign(rng, 4, d3s.NEGATIVE) + scal_zero_metrics(rng, 2)]
    for i, t in enumerate(triples):
        for position in range(3):
            m = _lead(t, position)
            for manifold, max_level in zip(MANIFOLDS, (20, 40, 60) if i % 2 else (60, 25, 40)):
                value, mult, examined = d3s.enumerated_min_abs(m, manifold, max_level)
                want, want_mult, tol = dense_min_abs(m, manifold, max_level)
                assert abs(value - want) <= 2 * tol, (m.triple(), manifold, value, want)
                assert mult == want_mult, (m.triple(), manifold)
                assert set(examined) <= set(d3s.admissible_levels(manifold, max_level))


def test_enumeration_is_the_same_in_every_order():
    rng = np.random.default_rng(32)
    for t in [m.triple() for m in random_metrics(rng, 3)] + [(3, 1, 0.3), (1, 1, 0.5)]:
        for manifold in MANIFOLDS:
            results = {d3s.enumerated_min_abs(Metric(*p), manifold, 40)[:2] for p in itertools.permutations(t)}
            assert len(results) == 1, (t, manifold, results)


def test_even_level_b_block_is_a_reversed():
    rng = np.random.default_rng(33)
    for m in random_metrics(rng, 40):
        for n in range(0, 201, 2):
            A, B = (d3s.symmetrize(d3s.build_block(m, n, tag)) for tag in "AB")
            assert np.array_equal(B.diag, A.diag[::-1])
            assert np.array_equal(B.offdiag, A.offdiag[::-1])


def test_level_bounds_equal_min_row_bound():
    # the sorted metric's G at its vertex rows, bit for bit the minimum of
    # G over every row, and the same in all six orderings
    rng = np.random.default_rng(34)
    for t in rng.uniform(0.25, 4.0, size=(3, 3)):
        levels = list(range(0, 61)) + [77, 200]
        ms, _ = Metric(*t).sorted()
        want = [min(d3s.closed_form_G(ms, n, k) for k in range(n + 1)) for n in levels]
        for perm in itertools.permutations(t):
            m = Metric(*perm)
            bounds = d3s.level_bounds(m, levels)
            assert bounds.tolist() == want
            assert bounds.tolist() == [d3s.min_row_bound(m, n) for n in levels]


def test_level_bounds_equal_the_full_row_pass():
    # the vertex rows give G's minimum over every row bit for bit:
    # log-uniform metrics, a = b and b = c in all six orderings, 2^+-600
    # scalings, a few levels up to 3000, and metrics whose rows overflow
    rng = np.random.default_rng(36)

    def log_uniform(count):
        return np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(count, 3)))

    triples = list(log_uniform(1500))
    for x, y, _ in log_uniform(200):
        triples += list(itertools.permutations((x, x, y)))
    triples += [t * 2.0 ** (600 * s) for t, s in zip(log_uniform(300), itertools.cycle((1, -1)))]
    cases = [(Metric(*t), range(121)) for t in triples]
    cases += [(Metric(*t), [*range(0, 3001, 61), 2999, 3000]) for t in log_uniform(4)]
    cases += [(Metric(*p), range(41)) for p in itertools.permutations((1e200, 1.0, 1.0))]
    cases += [(Metric(5.477230526345734e151, 4.0225565816369456e152, 1.8051498618607178e152), range(121))]
    assert len(cases) >= 3000
    for m, levels in cases:
        want = reference_level_bounds(m, levels)
        assert np.array_equal(d3s.level_bounds(m, levels), want, equal_nan=True), m.triple()
    assert d3s.level_bounds(Metric(1e200, 1, 1), [7])[0] == 64.0


def test_level_bounds_lie_within_the_allowance_of_the_exact_minimum():
    # the rounding bound of the level_bounds docstring, against the exact
    # Gershgorin minimum: levels up to 3000, the scal = 0 wall, 2^+-500 and
    # 2^+-600 scalings (a level whose bound or allowance overflows is never
    # pruned)
    rng = np.random.default_rng(37)
    metrics = random_metrics_with_sign(rng, 4, d3s.NEGATIVE, 0.25, 4.0) + scal_zero_metrics(rng, 3)
    metrics += random_metrics(rng, 3, 0.25, 4.0) + [Metric(4, 3.5, 0.25), Metric(6, 4, 2.4), Metric(1, 1, 1)]
    exponents = itertools.cycle((500, -500, 600, -600))
    scaled = [Metric(*(2.0 ** e * np.array(m.triple()))) for m, e in zip(metrics, exponents)]
    levels = [0, 1, 2, 7, 60, 1000, 3000]
    checked = 0
    for m in metrics + scaled:
        bounds = d3s.level_bounds(m, levels)
        if not np.isfinite(m.C):
            assert not np.isfinite(bounds).any()
            continue
        allowance = gershgorin._rounding_allowance(m, levels)
        for bound, allow, exact in zip(bounds, allowance, exact_level_bounds(m, levels)):
            if np.isfinite(bound - allow):
                checked += 1
                assert abs(Fraction(bound) - exact) <= Fraction(allow), (m.triple(), bound)
    assert checked >= (len(metrics) + len(scaled) // 2) * len(levels)


def test_level_bounds_of_an_overflowing_metric_are_not_finite():
    with np.errstate(all="raise"):
        bounds = d3s.level_bounds(Metric(1e200, 1, 1), range(6))
    assert not np.isfinite(bounds[0]) and not np.isfinite(bounds[2])


def test_non_finite_bound_never_prunes():
    # every row bound of (1e155, 1e153, 1) is inf - inf = nan, yet its blocks
    # are finite and all their eigenvalues round to -C
    m = Metric(1e155, 1e153, 1.0)
    assert np.isnan(d3s.level_bounds(m, range(11))).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, mult, examined = d3s.enumerated_min_abs(m, d3s.S3, 10)
    assert examined == list(range(11))
    assert (value, mult) == dense_min_abs(m, d3s.S3, 10)[:2] == (m.C, 1012)


def test_min_abs_falls_back_when_the_solve_is_wrong(monkeypatch):
    m = Metric(1.2, 1.1, 0.3)
    blocks = [d3s.build_block(m, n, tag) for n in (0, 1, 8, 31) for tag in "AB"]
    honest = [d3s.min_abs_eigenvalue(blk) for blk in blocks]
    enumerated = d3s.enumerated_min_abs(m, d3s.S3, 40)
    solve = eigen._solve
    monkeypatch.setattr(eigen, "_solve", lambda D, E, sizes: solve(D, E, sizes) + 1e-6)
    bisected = []
    bisect = eigen._bisect_range

    def spy(d, e, tol):
        bisected.append(len(d))
        return bisect(d, e, tol)

    monkeypatch.setattr(eigen, "_bisect_range", spy)
    for blk, w in zip(blocks, honest):
        v = d3s.min_abs_eigenvalue(blk)
        t = d3s.symmetrize(blk)
        tol = default_tolerance(t)
        assert abs(v - w) <= 2 * tol
        # the Sturm certificate of the fallback value
        assert d3s.count_below(t, v + tol) - d3s.count_below(t, -(v + tol)) >= 1
        assert d3s.count_below(t, v - tol) - d3s.count_below(t, -(v - tol)) <= 0
    assert bisected == [blk.size for blk in blocks]
    value, mult, _ = d3s.enumerated_min_abs(m, d3s.S3, 40)
    want, want_mult, tol = dense_min_abs(m, d3s.S3, 40)
    assert abs(value - enumerated[0]) <= 2 * tol and abs(value - want) <= 2 * tol
    assert mult == enumerated[1] == want_mult


def test_enumeration_reruns_its_passes_on_bisected_values(monkeypatch):
    # LAPACK values shrunk by 0.1% fail every proof: the seed's pass and the
    # inside rows' pass must run again on the bisected values, or the shrunk
    # seed value would set the threshold and come back as the minimum
    cases = [(Metric(4, 3.5, 0.25), d3s.S3, 200), (Metric(3, 1, 0.3), d3s.SO3_NONTRIVIAL, 120),
             (Metric(1.2, 1.1, 0.3), d3s.S3, 40), (Metric(6, 4, 2.4), d3s.S3, 200)]
    honest = [d3s.enumerated_min_abs(*case) for case in cases]
    solve = eigen._solve
    monkeypatch.setattr(eigen, "_solve", lambda D, E, sizes: solve(D, E, sizes) * (1 - 1e-3))
    for case, (want, want_mult, _) in zip(cases, honest):
        value, mult, _ = d3s.enumerated_min_abs(*case)
        assert abs(value - want) <= 1e-9 * max(1.0, want) and mult == want_mult, case


def test_non_finite_block_is_a_package_error():
    m = Metric(*(2.0 ** 600 * x for x in (1.3, 0.8, 0.3)))
    for manifold in MANIFOLDS:
        with np.errstate(all="raise"), pytest.raises(d3s.Dirac3SphereError, match="not finite"):
            d3s.enumerated_min_abs(m, manifold, 40)


def _wall_metrics(rng, count):
    # exact-wall rationals (p, q, pq/(p+q)), scal = 0, in a random order
    out = []
    for _ in range(count):
        p, q = rng.integers(1, 10, size=2)
        out.append(Metric(*rng.permutation([p, q, Fraction(int(p * q), int(p + q))]).astype(float)))
    return out


def _outcome(enumerate_min_abs, m, manifold, max_level):
    # (value, multiplicity), or the error type and message
    try:
        return enumerate_min_abs(m, manifold, max_level)[:2]
    except d3s.Dirac3SphereError as exc:
        return type(exc), str(exc)


def test_enumeration_equals_the_object_path_reference():
    # the packed rows and the low-level seed return the reference's value and
    # multiplicity exactly: on scal < 0, exact-wall and Berger metrics, on
    # every manifold, up to level 200; and on a metric whose bounds are all
    # nan, whose blocks overflow above level 25 (the same error either way)
    rng = np.random.default_rng(35)
    metrics = (random_metrics_with_sign(rng, 6, d3s.NEGATIVE, 0.25, 4.0) + _wall_metrics(rng, 6)
               + [Metric(a, b, b) for a, b in ((1.3, 0.9), (0.4, 2.0), (3.0, 0.2), (0.3, 1.7))]
               + [Metric(4, 3.5, 0.25)])
    cases = [(m, manifold, (200, 120, 60, 25)[(i + j) % 4])
             for i, m in enumerate(metrics) for j, manifold in enumerate(MANIFOLDS)]
    cases += [(Metric(1e155, 1e153, 1.0), manifold, max_level) for manifold in MANIFOLDS for max_level in (10, 25, 200)]
    raised = []
    for m, manifold, max_level in cases:
        got = _outcome(d3s.enumerated_min_abs, m, manifold, max_level)
        assert got == _outcome(reference_enumerated_min_abs, m, manifold, max_level), (m.triple(), manifold, max_level)
        if isinstance(got[0], type):
            raised.append(max_level)
    assert raised == [200] * 3


def test_seed_is_a_low_level(monkeypatch):
    # the lowest bound of (4, 3.5, 0.25) is at level 200, where every other
    # block has an eigenvalue inside the seed's value; a low seed solves few rows
    m = Metric(4, 3.5, 0.25)
    want = reference_enumerated_min_abs(m, d3s.S3, 200)[:2]
    rows = []
    solve = eigen._solve

    def spy(D, E, sizes):
        rows.append(len(sizes))
        return solve(D, E, sizes)

    monkeypatch.setattr(eigen, "_solve", spy)
    assert d3s.enumerated_min_abs(m, d3s.S3, 200)[:2] == want
    assert sum(rows) <= 40, rows


def _spy(monkeypatch, name):
    # the calls of eigen.<name>, one entry each, as seen through the module
    calls = []
    real = getattr(eigen, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(eigen, name, spy)
    return calls


def test_seed_proof_screen_and_count_share_one_sturm_pass(monkeypatch):
    # a seed that stands takes one LAPACK call and one Sturm pass; inside rows
    # take one more of each; the round sphere's tie between levels 0 and 1
    # (|-C| = mu) breaks the premise u' <= v - tol and takes the recount pass
    rng = np.random.default_rng(37)
    cases = [(m, manifold, 120) for m in random_metrics_with_sign(rng, 8, d3s.NEGATIVE, 0.25, 4.0)
             for manifold in MANIFOLDS]
    cases += [(m, manifold, 200) for m in _wall_metrics(rng, 4) for manifold in MANIFOLDS]
    cases += [(Metric(4, 3.5, 0.25), d3s.S3, 200), (Metric(1, 1, 1), d3s.S3, 25)]
    want = [reference_enumerated_min_abs(m, manifold, max_level)[:2] for m, manifold, max_level in cases]
    passes, solves = _spy(monkeypatch, "_sturm_counts"), _spy(monkeypatch, "_solve")
    seen = []
    for (m, manifold, max_level), expected in zip(cases, want):
        passes.clear()
        solves.clear()
        assert d3s.enumerated_min_abs(m, manifold, max_level)[:2] == expected, (m.triple(), manifold)
        seen.append((len(passes), len(solves)))
    assert set(seen) == {(1, 1), (2, 2), (3, 2)}, seen
    assert seen[-2][0] <= 2  # (4, 3.5, 0.25) on s3 at L = 200
    assert seen[-1] == (3, 2) and want[-1] == (1.5, 4)


def test_enumeration_matches_the_berger_closed_form():
    # at b = c every eigenvalue is known in closed form; the multiplicity
    # counts the closed-form values in [-u, u), weighted by n + 1
    for a, b in ((1.3, 0.9), (0.4, 2.0), (3.0, 0.2)):
        m = Metric(a, b, b)
        for manifold in MANIFOLDS:
            levels = d3s.admissible_levels(manifold, 200)
            spectra = {n: berger_spectrum(a, b, n) for n in levels}
            want = min(float(np.abs(v).min()) for v in spectra.values())
            u = want + d3s.spectrum.COINCIDENCE_RTOL * max(1.0, want)
            want_mult = sum((n + 1) * int(np.count_nonzero((v >= -u) & (v < u))) for n, v in spectra.items())
            tol = max(default_tolerance(d3s.symmetrize(d3s.build_block(m, n, "A"))) for n in levels)
            value, mult, _ = d3s.enumerated_min_abs(m, manifold, 200)
            assert abs(value - want) <= tol, ((a, b), manifold, value, want)
            assert mult == want_mult, ((a, b), manifold)
