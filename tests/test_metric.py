import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric

from _oracles import random_triples, rounded_scalars

TWO_PI_SQ = 2.0 * math.pi ** 2


def test_round_metric_values():
    m = Metric(1, 1, 1)
    assert m.C == 1.5
    assert m.mu == 1.5
    assert m.scal == 6.0


def test_boundary_point_values_exact():
    m = Metric(1, 1, 0.5)
    assert abs(m.C ** 2 - 2.25) <= 1e-12 * 2.25
    assert abs(m.mu ** 2 - 1.0) <= 1e-12
    assert m.scal == 0.0


def test_round_curvature_norms():
    inv = d3s.invariants(Metric(1, 1, 1))
    # each sectional curvature equals 1 at the round metric
    assert inv.K12 == pytest.approx(1.0, rel=1e-12)
    assert inv.K23 == pytest.approx(1.0, rel=1e-12)
    assert inv.K31 == pytest.approx(1.0, rel=1e-12)
    assert inv.ric_norm_sq == pytest.approx(12.0, rel=1e-12)
    assert inv.riem_norm_sq == pytest.approx(12.0, rel=1e-12)
    assert inv.a2_tilde == pytest.approx(180.0, rel=1e-12)


def test_volumes():
    assert d3s.volume(Metric(1, 1, 1), d3s.S3) == pytest.approx(TWO_PI_SQ, rel=1e-15)
    assert d3s.volume(Metric(1, 1, 1), d3s.SO3) == pytest.approx(TWO_PI_SQ / 2, rel=1e-15)
    assert d3s.volume(Metric(2, 1, 1), d3s.S3) == pytest.approx(math.pi ** 2, rel=1e-15)
    # spin-structure labels address the same underlying space
    assert d3s.volume(Metric(1, 1, 1), d3s.SO3_TRIVIAL) == d3s.volume(Metric(1, 1, 1), d3s.SO3)


def test_heat_invariants_round():
    h = d3s.heat_invariants(Metric(1, 1, 1), d3s.S3)
    assert h.a0 == pytest.approx(4 * math.pi ** 2, rel=1e-13)
    assert h.a1 == pytest.approx(-2 * math.pi ** 2, rel=1e-13)
    assert abs(h.a2) <= 1e-12 * abs(h.a0)
    assert h.dim_sigma == 2
    assert d3s.heat_invariants(Metric(1, 1, 1), d3s.SO3).a0 == pytest.approx(2 * math.pi ** 2, rel=1e-13)


def test_heat_invariants_boundary_a1_vanishes():
    h = d3s.heat_invariants(Metric(1, 1, 0.5), d3s.S3)
    assert h.a1 == 0.0


def test_scal_sign_classification():
    assert d3s.scal_sign_classification(Metric(1, 1, 1)) == d3s.POSITIVE
    assert d3s.scal_sign_classification(Metric(1, 1, 0.5)) == d3s.ZERO
    assert d3s.scal_sign_classification(Metric(1, 1, 0.4)) == d3s.NEGATIVE
    assert d3s.scal_sign_classification(Metric(2, 1, 1)) == d3s.POSITIVE


def test_scal_sign_matches_scal_value():
    rng = np.random.default_rng(10)
    for t in random_triples(rng, 500):
        m = Metric(*t)
        sign = d3s.scal_sign_classification(m)
        if sign == d3s.POSITIVE:
            assert m.scal > 0
        elif sign == d3s.NEGATIVE:
            assert m.scal < 0


@pytest.mark.parametrize("bad", [
    (0, 1, 1), (1, -2, 1), (1, 1, float("nan")), (1, float("inf"), 1),
    # an int beyond the double range once raised a raw OverflowError, and True was taken as 1
    (1, 10 ** 400, 1), (1, Fraction(10 ** 400, 3), 1), (True, 1, 1), (np.bool_(True), 1, 1), ("1", 1, 1),
])
def test_domain_errors(bad):
    with pytest.raises(d3s.DomainError):
        Metric(*bad)


@pytest.mark.parametrize("entry, stored", [
    (np.int64(2), 2.0), (np.float32(1.5), 1.5), (np.float64(0.3), 0.3), (Fraction(12, 5), 2.4), (3, 3.0),
], ids=["int64", "float32", "float64", "Fraction", "int"])
def test_metric_takes_any_real_as_its_nearest_double(entry, stored):
    # numpy scalars were refused as not "a positive finite real"
    m = Metric(1, entry, 1)
    assert type(m.b) is float and m.b == stored


def test_sorted_returns_permutation_without_mutating():
    m = Metric(0.7, 2.0, 1.1)
    ms, perm = m.sorted()
    assert ms.triple() == (2.0, 1.1, 0.7)
    assert tuple(m.triple()[i] for i in perm) == ms.triple()
    assert m.triple() == (0.7, 2.0, 1.1)


def test_scalar_inequality_suite_vectorized():
    # C^2 >= pairwise sums of squares; 2C >= a+b+c with equality iff a=b=c;
    # the three equivalent characterizations of scal > 0
    rng = np.random.default_rng(123)
    t = random_triples(rng, 10_000)
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    C = 0.5 * (a * b / c + b * c / a + c * a / b)
    pair_max = np.maximum(a * a + b * b, np.maximum(b * b + c * c, c * c + a * a))
    assert np.all(C * C >= pair_max * (1 - 1e-12))
    s1 = a + b + c
    assert np.all(2 * C >= s1 * (1 - 1e-12))
    near_equal = np.abs(2 * C - s1) <= 1e-12 * s1
    spread = (np.max(t, axis=1) - np.min(t, axis=1)) / np.max(t, axis=1)
    assert np.all(spread[near_equal] < 1e-6)

    scal = 8 * (a * a + b * b + c * c - C * C)
    factors_pos = (a * b < c * (a + b)) & (b * c < a * (b + c)) & (c * a < b * (c + a))
    c_bound = C < np.minimum(a + b * c / a, np.minimum(b + c * a / b, c + a * b / c))
    clearly = np.abs(scal) > 1e-9 * C * C  # skip razor-edge sign flips
    assert np.array_equal((scal > 0)[clearly], factors_pos[clearly])
    assert np.array_equal((scal > 0)[clearly], c_bound[clearly])


def _oracle_metrics():
    """Seeded unit-size metrics, metrics within 1e-6 of the wall ab = c(a + b),
    some of them scaled by 2^+-600, and round and near-round ones at 1e-160
    and 1e-200."""
    rng = np.random.default_rng(77)
    metrics = [Metric(*t) for t in random_triples(rng, 150, lo=0.25, hi=4.0)]
    for a, b, f in zip(*rng.uniform(0.25, 4.0, (2, 60)), rng.uniform(-1e-6, 1e-6, 60)):
        metrics.append(Metric(a, b, a * b / (a + b) * (1 + f)))
    metrics += [Metric(*(x * 2.0 ** e for x in m.triple())) for m in metrics[::21] for e in (600, -600)]
    metrics += [Metric(2, 1, 0.6666666666666676), Metric(1, 1, 0.5), Metric(1.3e160, 0.8e160, 0.9e160)]
    return metrics + [Metric(x, y * x, z * x) for x in (1e-160, 1e-200) for y, z in ((1, 1), (0.9, 0.8))]


_FIELDS = [f.name for f in dataclasses.fields(d3s.MetricInvariants)]


def _reported(m):
    """Every scalar the library reports for ``m``, by the oracle's keys, as ``repr``."""
    inv = d3s.invariants(m)
    got = {name: getattr(inv, name) for name in _FIELDS}
    for space in (d3s.S3, d3s.SO3):
        h = d3s.heat_invariants(m, space)
        got["heat", space] = (h.a0, h.a1, h.a2)
    return {key: repr(value) for key, value in got.items()}


def test_reported_scalars_are_the_exact_values_rounded_once():
    for m in _oracle_metrics():
        rounded = rounded_scalars(m)
        want = {key: repr(value) for key, value in rounded.items()}
        got = _reported(m)
        assert got == {key: want[key] for key in got}, m.triple()
        assert (repr(m.mu), repr(m.scal)) == (want["mu"], want["scal"])
        assert tuple(map(repr, d3s.sectional_curvatures(m))) == (want["K12"], want["K23"], want["K31"])
        for manifold, key in ((d3s.S3, "vol_s3"), (d3s.SO3, "vol_so3"), (d3s.SO3_TRIVIAL, "vol_so3")):
            assert repr(d3s.volume(m, manifold)) == want[key]
        ratio = rounded["scal_factor"]
        sign = d3s.ZERO if abs(ratio) < 1e-12 else d3s.POSITIVE if ratio > 0 else d3s.NEGATIVE
        assert d3s.scal_sign_classification(m) == sign


def test_certified_tone_and_trace_are_the_exact_values_rounded_once():
    certified = 0
    for m in _oracle_metrics():
        if d3s.scal_sign_classification(m) != d3s.POSITIVE:
            continue
        want = rounded_scalars(m)
        report = d3s.smallest(m, d3s.S3, certify=True)
        trace = report.certification_trace
        assert report.value == want["mu"], m.triple()
        assert (trace.C, trace.mu, trace.scal) == (want["C"], want["mu"], want["scal"])
        assert d3s.smallest(m, d3s.SO3_TRIVIAL).value == want["C"]
        certified += 1
    assert certified > 80


def test_permutation_invariance_of_invariants():
    # bit for bit, with the sectional curvatures permuted along with the triple
    planes = {"K12": (0, 1), "K23": (1, 2), "K31": (2, 0)}
    for m in [Metric(1.4, 0.9, 0.6)] + _oracle_metrics()[::7]:
        base = _reported(m)
        for order in itertools.permutations(range(3)):
            got = _reported(Metric(*(m.triple()[i] for i in order)))
            # the plane of permuted frame vectors i and j is the plane of original order[i] and order[j]
            for key, (i, j) in planes.items():
                original = next(k for k, plane in planes.items() if set(plane) == {order[i], order[j]})
                assert got.pop(key) == base[original]
            assert got == {key: value for key, value in base.items() if key not in planes}


def test_y_identity():
    rng = np.random.default_rng(2024)
    for t in random_triples(rng, 2000):
        inv = d3s.invariants(Metric(*t))
        y_heat = (inv.a2_tilde - 101.0 * inv.scal ** 2) / 576.0
        y_sym = -inv.scal * inv.sigma1 + 4.0 * inv.sigma2
        assert abs(y_heat - y_sym) <= 1e-10 * max(abs(y_sym), inv.sigma1 ** 2, 1.0)


def test_constant_invariants_against_symmetric_polynomials():
    m = Metric(1.2, 0.8, 0.5)
    inv = d3s.invariants(m)
    assert inv.C == pytest.approx(0.5 * inv.sigma2 / math.sqrt(inv.sigma3), rel=1e-12)
    assert inv.mu == pytest.approx(2 * inv.s1 - 0.5 * inv.s2 ** 2 / inv.s3, rel=1e-12)
    assert inv.scal == pytest.approx(8 * inv.sigma1 - 2 * inv.sigma2 ** 2 / inv.sigma3, rel=1e-10)
