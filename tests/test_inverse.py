import math

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric

from _oracles import random_metrics_with_sign, scal_zero_metrics
from _oracles import rounded_scalars

TWO_PI_SQ = 2 * math.pi ** 2


def test_cubic_triple_root():
    assert d3s.cubic_positive_roots(3, 3, 1) == (1.0, 1.0, 1.0)


def test_cubic_double_root():
    assert d3s.cubic_positive_roots(4, 5, 2) == (2.0, 1.0, 1.0)


def test_cubic_random_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(400):
        t = np.sort(rng.uniform(0.2, 3.0, 3))[::-1]
        s1, s2, s3 = t.sum(), t[0] * t[1] + t[1] * t[2] + t[2] * t[0], t.prod()
        roots = d3s.cubic_positive_roots(s1, s2, s3)
        assert np.abs(np.array(roots) / t - 1).max() <= 1e-10


def test_cubic_rejects_complex_pair():
    # t^3 - t^2 + t - 1 = (t-1)(t^2+1)
    with pytest.raises(d3s.InconsistentInputError):
        d3s.cubic_positive_roots(1, 1, 1)
    with pytest.raises(d3s.InconsistentInputError):
        d3s.cubic_positive_roots(1, 1, -1)


def test_cubic_refuses_symmetric_polynomials_beyond_the_double_range():
    # at volume 1e-300 s2^2 overflows, and s1 = inf passed the positivity
    # gate: the refusal read "cubic root inf is not positive"
    for sym in ((math.inf, 1.0, 1.0), (1.0, math.nan, 1.0)):
        with pytest.raises(d3s.Dirac3SphereError, match="^the computation left the double range"):
            d3s.cubic_positive_roots(*sym)
    with pytest.raises(d3s.Dirac3SphereError, match="^the computation left the double range"):
        d3s.reconstruct(d3s.S3, 1e-300, 1.0, mu=1.0)


def test_volume_beyond_the_double_range_is_refused_on_every_route():
    # abc = 2 pi^2 / volume overflows at 1e-310 and is 0 at an infinite
    # volume; each once raised a raw ZeroDivisionError on the mu route and on
    # the a2~ route respectively
    routes = [(d3s.S3, 6.0, {"mu": 1.5}), (d3s.SO3_TRIVIAL, 6.0, {"C": 1.5}), (d3s.S3, -6.0, {"a2_tilde": 100.0})]
    for manifold, scal, datum in routes:
        with pytest.raises(d3s.InconsistentInputError, match="^volume must be finite, got inf$"):
            d3s.reconstruct(manifold, math.inf, scal, **datum)
        with pytest.raises(d3s.Dirac3SphereError, match="^the computation left the double range: abc inf"):
            d3s.reconstruct(manifold, 1e-310, scal, **datum)


def test_mu_reconstruction_round_point():
    r = d3s.reconstruct_positive_mu(TWO_PI_SQ, 6.0, 1.5, d3s.S3)
    assert r.triple == (1.0, 1.0, 1.0)
    assert r.branch == "mu"
    assert r.sym_polys["s2"] == pytest.approx(3.0, rel=1e-12)
    assert r.max_residual <= 1e-12


def test_mu_reconstruction_infeasible_data():
    with pytest.raises(d3s.InconsistentInputError):
        d3s.reconstruct_positive_mu(TWO_PI_SQ, 6.0, 100.0, d3s.S3)


def test_mu_round_trip_dyadic_double():
    m = Metric(2, 1, 1)
    inv = d3s.invariants(m)
    r = d3s.reconstruct_positive_mu(inv.vol_s3, inv.scal, inv.mu, d3s.S3)
    assert np.abs(np.array(r.triple) / np.array([2, 1, 1]) - 1).max() <= 1e-8


def test_mu_round_trips():
    rng = np.random.default_rng(9)
    for manifold in (d3s.S3, d3s.SO3_NONTRIVIAL):
        for m in random_metrics_with_sign(rng, 150, d3s.POSITIVE):
            inv = d3s.invariants(m)
            vol = inv.vol_s3 if manifold == d3s.S3 else inv.vol_so3
            r = d3s.reconstruct_positive_mu(vol, inv.scal, inv.mu, manifold)
            want = m.sorted()[0].triple()
            assert np.abs(np.array(r.triple) / np.array(want) - 1).max() <= 1e-8
            assert r.max_residual <= 1e-8


def test_C_reconstruction_round_point_and_trips():
    r = d3s.reconstruct_positive_C(math.pi ** 2, 6.0, 1.5, d3s.SO3_TRIVIAL)
    assert r.triple == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)
    rng = np.random.default_rng(29)
    for m in random_metrics_with_sign(rng, 200, d3s.POSITIVE):
        inv = d3s.invariants(m)
        r = d3s.reconstruct_positive_C(inv.vol_so3, inv.scal, inv.C, d3s.SO3_TRIVIAL)
        want = m.sorted()[0].triple()
        assert np.abs(np.array(r.triple) / np.array(want) - 1).max() <= 1e-8


def test_nonpositive_round_trips_negative_branch():
    rng = np.random.default_rng(41)
    for manifold in (d3s.S3, d3s.SO3_TRIVIAL):
        for m in random_metrics_with_sign(rng, 150, d3s.NEGATIVE):
            inv = d3s.invariants(m)
            vol = inv.vol_s3 if manifold == d3s.S3 else inv.vol_so3
            r = d3s.reconstruct_nonpositive(vol, inv.scal, inv.a2_tilde, manifold)
            assert r.branch == "a2tilde-negative"
            want = m.sorted()[0].triple()
            assert np.abs(np.array(r.triple) / np.array(want) - 1).max() <= 1e-8


def test_nonpositive_round_trips_zero_branch():
    m = Metric(1, 1, 0.5)
    inv = d3s.invariants(m)
    r = d3s.reconstruct_nonpositive(inv.vol_s3, inv.scal, inv.a2_tilde, d3s.S3)
    assert r.branch == "a2tilde-zero"
    assert r.triple == pytest.approx((1.0, 1.0, 0.5), rel=1e-12)

    rng = np.random.default_rng(52)
    for m in scal_zero_metrics(rng, 150):
        inv = d3s.invariants(m)
        r = d3s.reconstruct_nonpositive(inv.vol_s3, inv.scal, inv.a2_tilde, d3s.S3)
        want = m.sorted()[0].triple()
        assert np.abs(np.array(r.triple) / np.array(want) - 1).max() <= 1e-8


def test_specific_nonpositive_examples():
    for triple in ((1, 1, 0.4), (1.2, 1.1, 0.3)):
        m = Metric(*triple)
        assert d3s.scal_sign_classification(m) == d3s.NEGATIVE
        inv = d3s.invariants(m)
        r = d3s.reconstruct_nonpositive(inv.vol_s3, inv.scal, inv.a2_tilde, d3s.S3)
        want = m.sorted()[0].triple()
        assert np.abs(np.array(r.triple) / np.array(want) - 1).max() <= 1e-8


def test_regime_gating():
    pos = d3s.invariants(Metric(2, 1, 1))
    neg = d3s.invariants(Metric(1, 1, 0.4))
    with pytest.raises(d3s.WrongRegimeError):
        d3s.reconstruct_positive_mu(neg.vol_s3, neg.scal, neg.mu, d3s.S3)
    with pytest.raises(d3s.WrongRegimeError):
        d3s.reconstruct_positive_mu(pos.vol_so3, pos.scal, pos.mu, d3s.SO3_TRIVIAL)
    with pytest.raises(d3s.WrongRegimeError):
        d3s.reconstruct_positive_C(neg.vol_so3, neg.scal, neg.C, d3s.SO3_TRIVIAL)
    with pytest.raises(d3s.WrongRegimeError):
        d3s.reconstruct_positive_C(pos.vol_so3, pos.scal, pos.C, d3s.S3)
    with pytest.raises(d3s.WrongRegimeError):
        d3s.reconstruct_nonpositive(pos.vol_s3, pos.scal, pos.a2_tilde, d3s.S3)


def test_positive_quadratic_has_unique_positive_root():
    rng = np.random.default_rng(60)
    for m in random_metrics_with_sign(rng, 200, d3s.POSITIVE):
        inv = d3s.invariants(m)
        s3 = inv.s3
        lead, lin, const = 4 * inv.mu / s3, -16.0, -inv.scal
        disc = lin * lin - 4 * lead * const
        roots = np.roots([lead, lin, const])
        assert disc > 0
        assert int(np.sum(roots > 0)) == 1
        pos_root = roots[roots > 0][0]
        assert pos_root == pytest.approx(inv.s2, rel=1e-9)


def test_dispatcher():
    inv = d3s.invariants(Metric(2, 1, 1))
    r = d3s.reconstruct(d3s.S3, inv.vol_s3, inv.scal, mu=inv.mu)
    assert r.branch == "mu"
    with pytest.raises(ValueError):
        d3s.reconstruct(d3s.S3, inv.vol_s3, inv.scal)
    with pytest.raises(ValueError):
        d3s.reconstruct(d3s.S3, inv.vol_s3, inv.scal, mu=inv.mu, C=inv.C)


def test_residuals_attached():
    inv = d3s.invariants(Metric(1.5, 1.0, 0.8))
    r = d3s.reconstruct_positive_mu(inv.vol_s3, inv.scal, inv.mu, d3s.S3)
    assert set(r.residuals) == {"volume", "scal", "mu"}
    assert all(v >= 0 for v in r.residuals.values())


def test_zero_scal_sigma2_is_Y_over_4():
    # one formula on both branches: the stable root form gives Y/4 bit for
    # bit at scal = 0 exactly
    rng = np.random.default_rng(53)
    for m in [Metric(1, 1, 0.5), Metric(2, 2, 1)] + scal_zero_metrics(rng, 50):
        inv = d3s.invariants(m)
        for scal in (0.0, -0.0):
            r = d3s.reconstruct_nonpositive(inv.vol_s3, scal, inv.a2_tilde, d3s.S3)
            assert r.branch == "a2tilde-zero"
            assert r.sym_polys["sigma2"] == r.sym_polys["Y"] / 4, m.triple()


def test_residuals_read_the_exact_scalars():
    # the recovered metric's volume, scal and datum, each exact and rounded
    # once (the Fraction oracle), against the inputs, floored at (abc)^(1/3)
    # to the power of its degree
    def check(r, vol, scal, datum, value, degree):
        want = rounded_scalars(Metric(*r.triple))
        floor = ((2 if r.manifold == d3s.S3 else 1) * math.pi ** 2 / vol) ** (1 / 3)
        space = "vol_s3" if r.manifold == d3s.S3 else "vol_so3"
        for key, got, given, power in (("volume", want[space], vol, -3), ("scal", want["scal"], scal, 2),
                                       (datum, want[datum], value, degree)):
            assert r.residuals[key] == abs(got - given) / max(abs(got), abs(given), floor ** power), key
        return Metric(*r.triple).C != want["C"]

    rng = np.random.default_rng(54)
    float_C_differs = []
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE):
        inv = d3s.invariants(m)
        r = d3s.reconstruct_positive_mu(inv.vol_s3, inv.scal, inv.mu, d3s.S3)
        check(r, inv.vol_s3, inv.scal, "mu", inv.mu, 1)
        r = d3s.reconstruct_positive_C(inv.vol_so3, inv.scal, inv.C, d3s.SO3_TRIVIAL)
        float_C_differs.append(check(r, inv.vol_so3, inv.scal, "C", inv.C, 1))
    for m in random_metrics_with_sign(rng, 40, d3s.NEGATIVE):
        inv = d3s.invariants(m)
        r = d3s.reconstruct_nonpositive(inv.vol_so3, inv.scal, inv.a2_tilde, d3s.SO3_NONTRIVIAL)
        check(r, inv.vol_so3, inv.scal, "a2_tilde", inv.a2_tilde, 4)
    assert any(float_C_differs)  # the float C would have read other residuals


def test_volume_residual_is_relative_at_every_scale():
    # a floor of (abc)^(1/3), not its -3rd power, hid the volume's rounding
    # above unit size (3e-27 for a true 2.3e-16 at scale 1e3)
    rng = np.random.default_rng(55)
    for scale in (1e-3, 1.0, 1e3, 1e10):
        for m in random_metrics_with_sign(rng, 20, d3s.POSITIVE):
            inv = d3s.invariants(Metric(*(x * scale for x in m.triple())))
            r = d3s.reconstruct_positive_mu(inv.vol_s3, inv.scal, inv.mu, d3s.S3)
            got = d3s.volume(Metric(*r.triple), d3s.S3)
            assert r.residuals["volume"] == abs(got - inv.vol_s3) / max(got, inv.vol_s3), (scale, m.triple())
