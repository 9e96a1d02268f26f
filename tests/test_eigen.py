import math

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, eigen
from dirac3sphere.eigen import SymmetrizedTridiagonal, default_tolerance

from _oracles import brute_force_eigs, lapack_eigs, pack_blocks, random_metrics


def test_symmetrize_already_symmetric():
    m = Metric(1.2, 0.8, 0.5)
    t = d3s.symmetrize(d3s.build_block(m, 1, "A"))
    assert np.allclose(t.diag, m.a - m.C)
    assert t.offdiag[0] == pytest.approx(m.c + m.b, rel=1e-15)


def test_symmetrize_splits_at_zero_offdiagonal():
    # B block at b = c decouples; level 1 gives two 1x1 pieces of value -a-C
    m = Metric(1.3, 0.9, 0.9)
    t = d3s.symmetrize(d3s.build_block(m, 1, "B"))
    assert t.offdiag.tolist() == [0.0]
    eigs = d3s.eigenvalues(t)
    assert eigs == pytest.approx([-m.a - m.C, -m.a - m.C], rel=1e-14)


def test_symmetrize_rejects_sign_violation():
    blk = d3s.DiracBlock(level=1, tag="A", diag=np.zeros(2), sub=np.array([1.0]), sup=np.array([-1.0]))
    with pytest.raises(d3s.ConsistencyError):
        d3s.symmetrize(blk)
    blk2 = d3s.DiracBlock(level=1, tag="A", diag=np.zeros(2), sub=np.array([0.0]), sup=np.array([1.0]))
    with pytest.raises(d3s.ConsistencyError):
        d3s.symmetrize(blk2)


def test_two_by_two_closed_form():
    t = SymmetrizedTridiagonal(diag=np.array([1.1, 1.1]), offdiag=np.array([0.7]))
    assert d3s.eigenvalues(t) == pytest.approx([0.4, 1.8], abs=1e-15)


def test_spectrum_preserved_vs_brute_force():
    m = Metric(1, 0.9, 0.8)
    blk = d3s.build_block(m, 2, "A")
    mine = d3s.eigenvalues(d3s.symmetrize(blk))
    ref = brute_force_eigs(blk)
    assert np.abs(mine - ref).max() <= 1e-8


def test_dense_oracle_all_blocks_up_to_level8():
    # companion-matrix roots lose accuracy near clustered eigenvalues, so the
    # brute-force comparison is scale-aware; the LAPACK one stays tight
    rng = np.random.default_rng(99)
    for m in random_metrics(rng, 8):
        for n in range(0, 9):
            for tag in "AB":
                blk = d3s.build_block(m, n, tag)
                mine = d3s.eigenvalues(d3s.symmetrize(blk))
                assert np.abs(mine - brute_force_eigs(blk)).max() <= 1e-6 * (1 + blk.infnorm())
                assert np.abs(mine - lapack_eigs(blk)).max() <= 1e-10 * (1 + blk.infnorm())


def test_block_solvers_take_a_block_or_its_symmetrization_alike():
    # each of the four once failed or differed on the raw block: eigenvalues
    # and count_below had no offdiag, min_abs_eigenvalue symmetrized twice,
    # and default_tolerance summed the unsymmetrized couplings
    m = Metric(1.3, 0.8, 0.6)
    for n, tag in ((0, "A"), (3, "A"), (3, "B"), (8, "A")):
        b = d3s.build_block(m, n, tag)
        t = d3s.symmetrize(b)
        assert np.array_equal(d3s.eigenvalues(b), d3s.eigenvalues(t))
        assert d3s.count_below(b, 0.0) == d3s.count_below(t, 0.0)
        assert d3s.min_abs_eigenvalue(b) == d3s.min_abs_eigenvalue(t)
        assert default_tolerance(b) == default_tolerance(t)


def test_custom_tolerance_honored():
    m = Metric(1.7, 1.1, 0.4)
    blk = d3s.build_block(m, 9, "A")
    t = d3s.symmetrize(blk)
    coarse = d3s.eigenvalues(t, tol=1e-3)
    fine = d3s.eigenvalues(t, tol=1e-14)
    assert np.abs(coarse - fine).max() <= 2e-3
    with pytest.raises(ValueError):
        d3s.eigenvalues(t, tol=0.0)


def test_nan_tolerance_and_nan_shift_are_domain_errors():
    blk = d3s.build_block(Metric(1.7, 1.1, 0.4), 9, "A")
    t = d3s.symmetrize(blk)
    for tol in (float("nan"), 0.0, -1e-9):
        with pytest.raises(d3s.DomainError, match="tolerance must be positive"):
            d3s.eigenvalues(t, tol=tol)
        with pytest.raises(d3s.DomainError, match="tolerance must be positive"):
            d3s.min_abs_eigenvalue(blk, tol=tol)
    with pytest.raises(d3s.DomainError, match="NaN"):
        d3s.count_below(t, float("nan"))
    assert d3s.count_below(t, -math.inf) == 0 and d3s.count_below(t, math.inf) == t.size


def test_sturm_counts_certify_eigenvalues():
    m = Metric(1.2, 0.7, 0.5)
    for n in (4, 9, 14):
        for tag in "AB":
            t = d3s.symmetrize(d3s.build_block(m, n, tag))
            tol = default_tolerance(t)
            vals = d3s.eigenvalues(t, tol)
            for j, v in enumerate(vals):
                assert d3s.count_below(t, v - 4 * tol) <= j
                assert d3s.count_below(t, v + 4 * tol) >= j + 1


def test_trace_identities():
    rng = np.random.default_rng(5)
    for m in random_metrics(rng, 10):
        for n in (3, 8, 15):
            for tag in "AB":
                blk = d3s.build_block(m, n, tag)
                vals = d3s.eigenvalues(d3s.symmetrize(blk))
                tr = float(np.sum(blk.diag))
                tr2 = float(np.sum(blk.diag ** 2) + 2.0 * np.sum(blk.sub * blk.sup))
                scale = max(1.0, abs(tr), abs(tr2))
                assert abs(vals.sum() - tr) <= 1e-10 * scale
                assert abs((vals ** 2).sum() - tr2) <= 1e-10 * scale


def test_eigenvalues_inside_gershgorin_interval():
    m = Metric(2.2, 0.4, 1.0)
    for n in (5, 12):
        for tag in "AB":
            t = d3s.symmetrize(d3s.build_block(m, n, tag))
            r = np.zeros(t.size)
            r[1:] += t.offdiag
            r[:-1] += t.offdiag
            lo, hi = (t.diag - r).min(), (t.diag + r).max()
            vals = d3s.eigenvalues(t)
            assert vals.min() >= lo - 1e-9 and vals.max() <= hi + 1e-9


def test_min_abs_eigenvalue_examples():
    m = Metric(1, 1, 1)
    assert d3s.min_abs_eigenvalue(d3s.build_block(m, 0, "A")) == pytest.approx(1.5, abs=1e-14)
    assert d3s.min_abs_eigenvalue(d3s.build_block(m, 1, "A")) == pytest.approx(1.5, abs=1e-13)
    assert d3s.min_abs_eigenvalue(d3s.build_block(m, 2, "A")) == pytest.approx(2.5, abs=1e-11)
    m2 = Metric(0.9, 1.6, 0.7)
    assert d3s.min_abs_eigenvalue(d3s.build_block(m2, 0, "B")) == pytest.approx(m2.C, rel=1e-13)


def test_min_abs_matches_full_solve():
    rng = np.random.default_rng(17)
    for m in random_metrics(rng, 12):
        for n in (1, 2, 6, 13):
            for tag in "AB":
                blk = d3s.build_block(m, n, tag)
                direct = d3s.min_abs_eigenvalue(blk)
                full = np.abs(d3s.eigenvalues(d3s.symmetrize(blk))).min()
                assert direct == pytest.approx(full, abs=1e-10 * (1 + blk.infnorm()))


def test_degenerate_clusters_reported_repeated():
    vals = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(Metric(1, 1, 1), 2, "A")))
    assert vals[0] == pytest.approx(vals[1], abs=1e-11)
    assert math.isfinite(vals[2])


def _assert_within(t, vals, tol):
    # the Sturm certificate, on the scalar count: the j-th value lies within tol
    for j, v in enumerate(vals):
        assert d3s.count_below(t, v - tol) <= j
        assert d3s.count_below(t, v + tol) >= j + 1


def test_failed_check_falls_back_to_bisection(monkeypatch):
    tol = 1e-9
    ts = [d3s.symmetrize(d3s.build_block(Metric(1.4, 0.9, 0.6), n, tag)) for n in (0, 1, 7, 30) for tag in "AB"]
    solve = eigen._solve
    monkeypatch.setattr(eigen, "_solve", lambda D, E, sizes: solve(D, E, sizes) + 10 * tol)
    bisected = []
    bisect = eigen._bisect_range

    def spy(d, e, tol):
        bisected.append(len(d))
        return bisect(d, e, tol)

    monkeypatch.setattr(eigen, "_bisect_range", spy)
    for t in ts:
        _assert_within(t, d3s.eigenvalues(t, tol), tol)
    assert bisected == [t.size for t in ts]
    # the same blocks as padded rows of one batch, as assemble solves them:
    # every row is bisected once, on its own entries and tol
    bisected.clear()
    order, sizes, D, E, _ = pack_blocks(ts)
    V = eigen._proved_values(D, E, sizes, np.full(len(ts), tol))
    for b, j in enumerate(order):
        _assert_within(ts[j], V[b, :sizes[b]], tol)
    assert bisected == sizes


def test_mixed_sizes_and_reducible_blocks_agree_with_bisection():
    # sizes 1, 2 and 120, with reducible blocks (b = c splits every B block)
    ts = [
        d3s.symmetrize(d3s.build_block(m, n, tag))
        for m in (Metric(1.3, 0.9, 0.9), Metric(0.7, 1.6, 1.1))
        for n in (0, 1, 119)
        for tag in "AB"
    ]
    assert any((t.offdiag == 0.0).any() for t in ts)
    for t in ts:
        vals = d3s.eigenvalues(t)
        tol = default_tolerance(t)
        assert np.abs(vals - eigen._bisect_range(t.diag, t.offdiag, tol)).max() <= 2 * tol


def test_non_finite_block_is_a_package_error():
    t = SymmetrizedTridiagonal(diag=np.array([1.0, 2.0]), offdiag=np.array([np.inf]))
    with pytest.raises(d3s.Dirac3SphereError, match="not finite"):
        d3s.eigenvalues(t)
    # an overflowing metric builds a block of inf and nan entries without a
    # RuntimeWarning (the suite turns one into an error); the solvers refuse it
    for m in (Metric(1.0, 1e308, 1e308), Metric(1e308, 1.0, 1.0)):
        blk = d3s.build_block(m, 3, "A")
        assert not np.isfinite(np.concatenate([blk.diag, blk.sub, blk.sup])).all()
        with pytest.raises(d3s.Dirac3SphereError, match="not finite"):
            d3s.eigenvalues(d3s.symmetrize(blk))
        with pytest.raises(d3s.Dirac3SphereError, match="not finite"):
            d3s.min_abs_eigenvalue(blk)
