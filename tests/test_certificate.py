"""The integer certificate against the Fraction oracle, its mutations, and
its lemmas and rows proved as integer polynomials."""

import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric
from dirac3sphere.gershgorin import (
    _G,
    _base_conditions,
    _char_poly_coeffs,
    _level3_pair,
    _level3_radicals,
    _level_conditions,
    _polyval,
)

from _oracles import Poly, certificate_unknowns, families, fraction_certificate, random_metrics_with_sign, scal_factors


def _outcome(certify, m):
    """The step list of one certificate run, or its refusal."""
    try:
        return [(s.name, s.detail, s.margin) for s in certify(m)]
    except d3s.Dirac3SphereError as exc:
        return type(exc).__name__, str(exc)


#: the library takes a margin's root in doubles, within an ulp or two of
#: the oracle's correctly rounded root; at most 2^-50 relative apart
MARGIN_RTOL = 2.0 ** -50


def _library(m):
    return d3s.certify_fundamental_tone(m).steps


#: the oracle's rows that hold for every sorted triple by an identity of
#: integer polynomials (``test_every_lemma_is_an_identity_of_integer_polynomials``)
IDENTITY_LEMMAS = frozenset({
    "regime:scal>0:1", "regime:scal>0:2", "regime:C>max", "level0",
    "level1:mu", "level1:gap:1", "level1:gap:2", "level1:gap:3",
    "level2:chi2(0)<0", "level4:chi4''(0)<0", "level4:chi4(0)>0",
    "base:G(0,0)=C^2", "base:G(1,0)=mu^2",
    "tail:G(n,n)-C^2:leading", "tail:G(n,0)-C^2:leading", "tail:G(n,1)-C^2:leading",
    "increment:slope",
})
#: and those positive on every sorted triple by their coefficients
#: (``test_the_inequality_lemmas_hold_for_every_sorted_triple``)
SORTED_LEMMAS = frozenset({
    "level3:alpha:1", "level3:alpha:2", "level3:alpha:3", "level3:alpha:4", "level3:pair:3",
    "tail:G(n,n)-C^2:q(1)>0", "tail:G(n,n)-C^2:q'(1)>0",
})
#: the library proves both kinds once and leaves them out of its table
LEMMA_ROWS = IDENTITY_LEMMAS | SORTED_LEMMAS
#: the oracle's rows that restate scal > 0, which the library's gate alone
#: decides (``test_the_gate_is_the_one_decision_of_scal_positive``)
GATE_ROWS = frozenset({"regime:scal>0:3", "regime:C^2<sigma1"})
#: what the library's table leaves out of the oracle's
SET_ASIDE = LEMMA_ROWS | GATE_ROWS


def _assert_equal_to_oracle(metrics):
    """The library's outcome is the oracle's with its lemma and gate rows
    set aside; every such row the oracle decides holds (it raises at the
    first row that fails, so a failure must name a row the library decides
    too)."""
    outcomes = []
    for m in metrics:
        got = _outcome(_library, m)
        want = _outcome(fraction_certificate, m)
        if isinstance(want, list):
            assert {name for name, *_ in want} >= SET_ASIDE, m.triple()
            want = [step for step in want if step[0] not in SET_ASIDE]
        else:
            assert want[1].split(" fails")[0] not in SET_ASIDE, m.triple()
        if isinstance(got, list) and isinstance(want, list):
            assert [step[:2] for step in got] == [step[:2] for step in want], m.triple()
            assert all(math.isclose(x[2], y[2], rel_tol=MARGIN_RTOL) for x, y in zip(got, want)), m.triple()
        else:
            assert got == want, m.triple()
        outcomes.append(isinstance(got, list))
    return outcomes


def test_certificate_equals_the_fraction_oracle_on_seeded_metrics():
    rng = np.random.default_rng(416)
    metrics = random_metrics_with_sign(rng, 200, d3s.POSITIVE, lo=0.25, hi=4.0)
    assert all(_assert_equal_to_oracle(metrics))


def test_certificate_equals_the_fraction_oracle_at_the_wall():
    # c = pq/(p+q) zeroes one scal factor; one relative 1e-13 either side
    values = (0.25, 0.6, 1.0, 1.7, 4.0)
    metrics = [Metric(p, q, p * q / (p + q) * f) for p in values for q in values for f in (1 - 1e-13, 1, 1 + 1e-13)]
    certified = _assert_equal_to_oracle(metrics)
    assert any(certified) and not all(certified)


def test_certificate_equals_the_fraction_oracle_far_from_unit_scale():
    rng = np.random.default_rng(417)
    metrics = [Metric(*(x * 2.0 ** e for x in m.triple()))
               for m in random_metrics_with_sign(rng, 10, d3s.POSITIVE, lo=0.25, hi=4.0) for e in (600, -600)]
    metrics += [Metric(1e62, 1e62, 1e62), Metric(1e-160, 1e-160, 1e-160), Metric(2.0 ** 600, 1.0, 2.0 ** -600),
                Metric(1.0, 1e-150, 1e-150),  # its integers overflow a double
                Metric(4.149515568880993e180, 1.0, 1.0)]
    _assert_equal_to_oracle(metrics)
    # one entry dwarfs the other two (b/a = c/a = 2.4e-181): the product of
    # pair 4 is of order (b/a)^2 at the normalized scale, below the double
    # range, and the exact decision still passes it; its margin, the fourth
    # root of that value, is positive (the value itself once printed 0.0),
    # and pairs 1 and 2 keep theirs, the fourth root of 16
    margins = {s.name: s.margin for s in _library(metrics[-1])}
    assert len(margins) == 13 and all(x > 0 for x in margins.values())
    assert 0 < margins["level3:pair:4"] < 1e-80
    assert margins["level3:pair:1"] == margins["level3:pair:2"] == 2.0
    # at the normalized scale no strict margin overflows (1e62's degree-5
    # margins once did) or underflows (1e-200's once did)
    for t in ((1e62, 1e62, 1e62), (1e-200, 1e-200, 1e-200), tuple(x * 2.0 ** -600 for x in (1.3, 0.8, 0.9))):
        margins = [s.margin for s in _library(Metric(*t))]
        assert all(0 < x < math.inf for x in margins), t


def test_certificate_catches_an_error_of_one_part_in_L(monkeypatch):
    # G(5,0) put one integer unit from mu^2 is a relative change far below a
    # double's resolution, and the exact decision still sees it: one unit
    # below fails, equality fails, one unit above passes
    from dirac3sphere import gershgorin

    real = gershgorin._G
    m = Metric(1.3, 0.8, 0.9)  # largest entry in [1, 2): margins in its units
    for unit in (-1, 0, 1):
        def nudged(a, b, c, C, n, k, unit=unit):
            return (a + b + c - C) ** 2 + unit if (n, k) == (5, 0) else real(a, b, c, C, n, k)

        monkeypatch.setattr(gershgorin, "_G", nudged)
        if unit > 0:
            margin = next(s.margin for s in _library(m) if s.name == "base:G(5,0)>mu^2")
        else:
            with pytest.raises(d3s.CertificationError, match=r"^base:G\(5,0\)>mu\^2 fails") as exc:
                d3s.certify_fundamental_tone(m)
            margin = float(re.match(r".* fails: margin (\S+)", str(exc.value)).group(1))
        assert (margin > 0) == (unit > 0) and abs(margin) < 1e-16 * m.mu, unit


def test_every_lemma_is_an_identity_of_integer_polynomials():
    # The rows the certificate leaves out hold for every a >= b >= c > 0 with
    # C = (a^2 b^2 + b^2 c^2 + c^2 a^2)/(2abc) (the lemmas of
    # certify_fundamental_tone).  Each is an identity whose right side is
    # visibly positive there, proved by running the library's code on free
    # unknowns and comparing coefficients.  C is a free unknown where the
    # identity holds for every C.
    def chi(a, b, c, n, derivative=0):
        return _polyval(_char_poly_coeffs(a, b, c, n), 0, derivative)

    def level1_gaps(a, b, c, C):
        # the first eigenvalue is mu; each other one e_x = -(C - x) - (s1 - x)
        # is negative since C > a >= x, and |e_x| - mu = -e_x - mu
        e = list(d3s.closed_form_eigs(SimpleNamespace(triple=lambda: (a, b, c), C=C), 1))
        return [e[0]] + [-v - e[0] for v in e[1:]] + e[1:]

    def tails(a, b, c, C, n):
        # along k = n, 0 and 1, G - C^2 and the leading coefficient of its quadratic
        return [_G(a, b, c, C, n, k) - C * C for k in (n, 0, 1)] + [A for *_, (A, _, _) in families(a, b, c, C)]

    def quadratics(a, b, c, C, n):
        return [A * n * n + B * n + D for *_, (A, B, D) in families(a, b, c, C)] + [(a - b) * (a + b) + c * c] * 3

    lemmas = [
        # (rows proved, unknowns, left side, right side)
        ({"regime:scal>0:1"}, 3, lambda a, b, c: scal_factors(a, b, c)[0], lambda a, b, c: a * (b - c) + b * c),
        ({"regime:scal>0:2"}, 3, lambda a, b, c: scal_factors(a, b, c)[1], lambda a, b, c: b * (a - c) + c * a),
        ({"regime:C>max"}, 3, lambda a, b, c: a * a * b * b + b * b * c * c + c * c * a * a - 2 * a * b * c * a,
         lambda a, b, c: a * a * (b - c) ** 2 + b * b * c * c),  # 2abc(C - a)
        # both level-0 blocks are (-C), and C >= mu: 2abc(2C - s1)
        ({"level0"}, 3,
         lambda a, b, c: 2 * (a * a * b * b + b * b * c * c + c * c * a * a) - 2 * a * b * c * (a + b + c),
         lambda a, b, c: (a * b - b * c) ** 2 + (b * c - c * a) ** 2 + (c * a - a * b) ** 2),
        ({"level1:mu", "level1:gap:1", "level1:gap:2", "level1:gap:3"}, 4, level1_gaps,
         lambda a, b, c, C: [a + b + c - C, 2 * (C - a), 2 * (C - b), 2 * (C - c)]
         + [-(C - x) - (a + b + c - x) for x in (a, b, c)]),
        ({"level2:chi2(0)<0"}, 3, lambda a, b, c: chi(a, b, c, 2), lambda a, b, c: -16 * a * b * c),
        ({"level4:chi4''(0)<0"}, 3, lambda a, b, c: chi(a, b, c, 4, 2), lambda a, b, c: -160 * a * b * c),
        ({"level4:chi4(0)>0"}, 3, lambda a, b, c: chi(a, b, c, 4),
         lambda a, b, c: 768 * a * b * c * (a * a + b * b + c * c)),
        ({"base:G(0,0)=C^2", "base:G(1,0)=mu^2"}, 4,
         lambda a, b, c, C: [_G(a, b, c, C, 0, 0), _G(a, b, c, C, 1, 0)],
         lambda a, b, c, C: [C * C, (a + b + c - C) ** 2]),
        ({"tail:G(n,n)-C^2:leading", "tail:G(n,0)-C^2:leading", "tail:G(n,1)-C^2:leading"}, 5, tails, quadratics),
        ({"increment:slope"}, 6,
         lambda a, b, c, C, n, k: _G(a, b, c, C, n + 2, k + 1) - _G(a, b, c, C, n, k),
         lambda a, b, c, C, n, k: 4 * (c * c * n - b * C + a * c + b * b + c * c)),  # slope 4c^2 in n
    ]
    assert set().union(*(rows for rows, *_ in lemmas)) == IDENTITY_LEMMAS
    for rows, variables, lhs, rhs in lemmas:
        unknowns = Poly.symbols(variables)
        assert lhs(*unknowns) == rhs(*unknowns), rows
    # the library decides the other 13 conditions, and nothing else
    steps = _library(Metric(1.3, 0.8, 0.9))
    assert len(steps) == 13 and all(s.margin > 0 for s in steps)
    assert not {s.name for s in steps} & SET_ASIDE


def _rows(a, b, c, C):
    return [*_level_conditions(a, b, c, C), *_base_conditions(a, b, c, C)]


def test_every_row_has_its_declared_degree():
    # on four free unknowns each row's value is homogeneous of its degree,
    # so a factor t on (a, b, c, C) multiplies it by t^degree: the exact
    # decision and the margin at the normalized scale rest on that
    rows = _rows(*Poly.symbols(4))
    assert len(rows) == 13
    for name, _, value, degree in rows:
        assert value.degrees() == {degree}, name


def test_the_inequality_lemmas_hold_for_every_sorted_triple():
    # Up to scale, (p, q, r) = (1 + x + z, 1 + z, 1) with x, z >= 0 is every
    # a >= b >= c > 0.  On the certificate's unknowns built from them, each
    # lemma below is a polynomial in (x, z) with no negative coefficient and
    # a positive constant term, so it is positive on every sorted triple:
    # alpha > 0 for all four level-3 pairs, the product of pair 3, and the
    # G(n,n) family's q(1) and q'(1)
    x, z = Poly.symbols(2)
    one = Poly(2, {(0, 0): 1})
    a, b, c, C = certificate_unknowns(1 + x + z, 1 + z, one)
    pairs = [_level3_pair(p, R, C, a + b + c - C) for p, R in _level3_radicals(a, b, c)]
    (name, n_min, (A, B, D)), *_ = families(a, b, c, C)
    lemmas = {f"level3:alpha:{i}": alpha for i, (alpha, _) in enumerate(pairs, start=1)}
    lemmas["level3:pair:3"] = pairs[2][1]
    lemmas[f"tail:{name}:q({n_min})>0"] = (A * n_min + B) * n_min + D
    lemmas[f"tail:{name}:q'({n_min})>0"] = 2 * A * n_min + B
    assert set(lemmas) == SORTED_LEMMAS
    for row, value in lemmas.items():
        assert value.positive(), row
    # R >= 0 for every level-3 pair, so its shifted eigenvalues are real:
    # positive for pairs 1, 2 and 4; the third has no constant term and is 0
    # exactly on the round line x = z = 0, and >= 0 on every sorted triple
    R1, R2, R3, R4 = (R for _, R in _level3_radicals(1 + x + z, 1 + z, one))
    assert R1.positive() and R2.positive() and R4.positive()
    assert R3.nonnegative() and (0, 0) not in R3.terms


def test_the_gate_is_the_one_decision_of_scal_positive():
    # The gate of the certificate requires the exact sign of scal,
    # ``m._exact.sign``, the sign of F = 4P^2 (X + Y + Z) - S2^2 on the
    # metric's integers, to be positive, and no row restates it.  F is
    # f1 f2 f3 (pq + qr + rp) with the scal factors f1, f2, f3, so the gate
    # is f3 > 0 on a sorted triple (f1 and f2 are lemmas there), and it
    # gives sigma1 - C^2 = scal/8 > 0 by the identity
    # 4 a^2 b^2 c^2 (sigma1 - C^2) = f1 f2 f3 (ab + bc + ca), proved here at
    # the certificate's unknowns and as polynomials in the integers
    a, b, c, C = certificate_unknowns(*Poly.symbols(3))
    f1, f2, f3 = scal_factors(a, b, c)
    assert 4 * a * a * b * b * c * c * (a * a + b * b + c * c - C * C) == f1 * f2 * f3 * (a * b + b * c + c * a)
    p, q, r = Poly.symbols(3)
    P, X, Y, Z = p * q * r, p * p, q * q, r * r
    S2 = X * Y + Y * Z + Z * X
    f1, f2, f3 = scal_factors(p, q, r)
    assert 4 * P * P * (X + Y + Z) - S2 * S2 == f1 * f2 * f3 * (p * q + q * r + r * p)
    # and the library's F is that polynomial at its integers
    for m in (Metric(1.3, 0.8, 0.6), Metric(6, 4, Fraction(12, 5)), Metric(1, 1, 0.4)):
        p, q, r, *_, F = m._exact.integers
        f1, f2, f3 = scal_factors(p, q, r)
        assert F == f1 * f2 * f3 * (p * q + q * r + r * p)


def test_every_row_holds_on_the_whole_scal_positive_region():
    """Theorem: for every left-invariant metric on S^3 or SO(3) with scal > 0,
    every row of the certificate holds, so with its lemmas the smallest
    |eigenvalue| of the Dirac operator is mu on S^3 and the odd quotient
    structure and C on the even one.

    Proof.  Sorting is an isometry and every row is homogeneous
    (``test_every_row_has_its_declared_degree``), so take b = 1 <= a and
    c <= 1.  Of the three scal factors two are lemmas, so scal > 0 exactly
    when c(a + 1) > a.  With a = 1 + x and c = (a + w)/(a + 1),
    w = 1/(1 + z), the points x, z >= 0 are every such triple: c runs over
    (a/(a + 1), 1] as w runs over (0, 1].  Clearing the denominators,
    (p, q, r) = ((1+x)(2+x)(1+z), (2+x)(1+z), (1+x)(1+z) + 1) is a positive
    multiple of (a, b, c).  The library's own two tables, run on the
    unknowns the certificate builds from (p, q, r), give every row as a
    polynomial in (x, z) with no negative coefficient and a positive
    constant term, positive wherever x, z >= 0.
    """
    x, z = Poly.symbols(2)
    unknowns = certificate_unknowns((1 + x) * (2 + x) * (1 + z), (2 + x) * (1 + z), (1 + x) * (1 + z) + 1)
    rows = _rows(*unknowns)
    assert len(rows) == 13
    for name, _, value, _ in rows:
        assert value.positive(), name


def _steps(trace):
    return [(s.name, s.detail, repr(s.margin)) for s in trace.steps]


def test_base_cases_are_the_certificates_base_tail_and_increment_rows():
    rng = np.random.default_rng(418)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE, lo=0.25, hi=4.0):
        steps = _steps(d3s.certify_fundamental_tone(m))
        assert _steps(d3s.base_cases(m)) == steps[-6:], m.triple()
        assert [name.split(":")[0] for name, *_ in steps[-6:]] == ["base"] + ["tail"] * 4 + ["increment"]


def test_certificate_is_covariant_under_permutation():
    # all six orders of a metric are one isometry class: the same step list,
    # margins bit for bit, and the permutation maps each order to the sorted one
    rng = np.random.default_rng(419)
    metrics = random_metrics_with_sign(rng, 30, d3s.POSITIVE, lo=0.25, hi=4.0)
    metrics += [Metric(2, 1, 1), Metric(1.3e-200, 0.8e-200, 0.9e-200), Metric(1, 1, 0.5000000000001)]
    for m in metrics:
        traces = [d3s.certify_fundamental_tone(Metric(*t)) for t in itertools.permutations(m.triple())]
        for trace in traces:
            assert _steps(trace) == _steps(traces[0]), m.triple()
            assert trace.sorted_triple == traces[0].sorted_triple
            assert tuple(trace.metric[i] for i in trace.permutation) == trace.sorted_triple
            assert (trace.C, trace.mu, trace.scal) == (traces[0].C, traces[0].mu, traces[0].scal)


def test_certificate_is_covariant_under_scaling():
    # scaling by 2^j moves only the exponent shared by the metric's integers:
    # the same step list, margins bit for bit, all at the normalized scale
    rng = np.random.default_rng(420)
    metrics = random_metrics_with_sign(rng, 20, d3s.POSITIVE, lo=0.25, hi=4.0)
    metrics += [Metric(1.3, 0.8, 0.9), Metric(1.0, 1.0, 1.0), Metric(2.0, 1.0, 1.0)]
    for m in metrics:
        unit = _steps(d3s.certify_fundamental_tone(m))
        for j in (-700, -600, -100, 3, 200):
            scaled = d3s.certify_fundamental_tone(Metric(*(x * 2.0 ** j for x in m.triple())))
            assert _steps(scaled) == unit, (m, j)
