"""The integer certificate against the Fraction oracle, and its mutations."""

import itertools
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric
from dirac3sphere.blocks import _char_poly_coeffs
from dirac3sphere.gershgorin import _G, _families, _polyval
from dirac3sphere.metric import scal_factors, shift_C

from _oracles import fraction_certificate, grid_identity, random_metrics_with_sign


def _outcome(certify, m):
    """The step list of one certificate run, margins as ``repr``, or its refusal."""
    try:
        return [(s.name, s.detail, repr(s.margin)) for s in certify(m)]
    except d3s.Dirac3SphereError as exc:
        return type(exc).__name__, str(exc)


def _library(m):
    return d3s.certify_fundamental_tone(m).steps


#: the oracle's rows that hold for every sorted triple: the library proves
#: them once (``test_every_lemma_is_an_identity_of_integer_polynomials``)
LEMMA_ROWS = frozenset({
    "regime:scal>0:1", "regime:scal>0:2", "regime:C>max", "level0",
    "level1:mu", "level1:gap:1", "level1:gap:2", "level1:gap:3",
    "level2:chi2(0)<0", "level4:chi4''(0)<0", "level4:chi4(0)>0",
    "base:G(0,0)=C^2", "base:G(1,0)=mu^2",
    "tail:G(n,n)-C^2:leading", "tail:G(n,0)-C^2:leading", "tail:G(n,1)-C^2:leading",
    "increment:slope",
})


def _assert_equal_to_oracle(metrics):
    """The library's outcome is the oracle's with its lemma rows set aside;
    every lemma row the oracle decides holds (it raises at the first row
    that fails, so a failure must name a row the library decides too)."""
    outcomes = []
    for m in metrics:
        got = _outcome(_library, m)
        want = _outcome(fraction_certificate, m)
        if isinstance(want, list):
            assert {name for name, *_ in want} >= LEMMA_ROWS, m.triple()
            want = [step for step in want if step[0] not in LEMMA_ROWS]
        else:
            assert want[1].split(" fails")[0] not in LEMMA_ROWS, m.triple()
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
    # one entry dwarfs the other two: p + 2 sqrt(R) - s1 cancels in doubles
    # unless it is rationalized
    assert min(s.margin for s in _library(metrics[-1]) if s.name.startswith("level3:")) > 0
    # at the normalized scale no strict margin overflows (1e62's degree-5
    # margins once did) or underflows (1e-200's once did)
    for t in ((1e62, 1e62, 1e62), (1e-200, 1e-200, 1e-200), tuple(x * 2.0 ** -600 for x in (1.3, 0.8, 0.9))):
        margins = [s.margin for s in _library(Metric(*t))]
        assert all(0 < x < math.inf for x in margins), t


def test_tail_root_margins_keep_their_digits():
    # n_min minus the largest root of A n^2 + B n + D cancels in doubles when
    # one entry dwarfs the others; against a 40-digit decimal evaluation
    def dec(x):
        return Decimal(x.numerator) / Decimal(x.denominator)

    for t in ((50, 1, 1), (1e4, 1, 1), (1e8, 1, 1)):
        a, b, c = (Fraction(x) for x in t)  # sorted already
        margins = {s.name: s.margin for s in _library(Metric(*t))}
        with localcontext() as ctx:
            ctx.prec = 40
            for name, n_min, (A, B, D) in _families(a, b, c, shift_C(a, b, c)):
                largest = (-dec(B) + dec(B * B - 4 * A * D).sqrt()) / (2 * dec(A))
                want = float(min(n_min - largest, n_min))
                assert margins[f"tail:{name}:root"] == pytest.approx(want, rel=1e-15, abs=0), (t, name)


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
        assert (margin > 0) == (unit > 0) and abs(margin) < 1e-16 * m.mu ** 2, unit


def test_every_lemma_is_an_identity_of_integer_polynomials():
    # The rows the certificate leaves out hold for every a >= b >= c > 0 with
    # C = (a^2 b^2 + b^2 c^2 + c^2 a^2)/(2abc) (the lemmas of
    # certify_fundamental_tone).  Each is an identity whose right side is
    # visibly positive there.  C is a free unknown where the identity holds
    # for every C.
    def chi(a, b, c, n, derivative=0):
        return _polyval(_char_poly_coeffs(a, b, c, n), 0, derivative)

    def level1_gaps(a, b, c, C):
        # the first eigenvalue is mu; each other one e_x = -(C - x) - (s1 - x)
        # is negative since C > a >= x, and |e_x| - mu = -e_x - mu
        e = [int(v) for v in d3s.closed_form_eigs(SimpleNamespace(triple=lambda: (a, b, c), C=C), 1)]
        return [e[0]] + [-v - e[0] for v in e[1:]] + e[1:]

    def tails(a, b, c, C, n):
        # along k = n, 0 and 1, G - C^2 and the leading coefficient of its quadratic
        return [_G(a, b, c, C, n, k) - C * C for k in (n, 0, 1)] + [A for *_, (A, _, _) in _families(a, b, c, C)]

    def quadratics(a, b, c, C, n):
        return [A * n * n + B * n + D for *_, (A, B, D) in _families(a, b, c, C)] + [(a - b) * (a + b) + c * c] * 3

    lemmas = [
        # (rows proved, unknowns, degree bound, left side, right side)
        ({"regime:scal>0:1"}, 3, 2, lambda a, b, c: scal_factors(a, b, c)[0], lambda a, b, c: a * (b - c) + b * c),
        ({"regime:scal>0:2"}, 3, 2, lambda a, b, c: scal_factors(a, b, c)[1], lambda a, b, c: b * (a - c) + c * a),
        ({"regime:C>max"}, 3, 4, lambda a, b, c: a * a * b * b + b * b * c * c + c * c * a * a - 2 * a * b * c * a,
         lambda a, b, c: a * a * (b - c) ** 2 + b * b * c * c),  # 2abc(C - a)
        # both level-0 blocks are (-C), and C >= mu: 2abc(2C - s1)
        ({"level0"}, 3, 2,
         lambda a, b, c: 2 * (a * a * b * b + b * b * c * c + c * c * a * a) - 2 * a * b * c * (a + b + c),
         lambda a, b, c: (a * b - b * c) ** 2 + (b * c - c * a) ** 2 + (c * a - a * b) ** 2),
        ({"level1:mu", "level1:gap:1", "level1:gap:2", "level1:gap:3"}, 4, 1, level1_gaps,
         lambda a, b, c, C: [a + b + c - C, 2 * (C - a), 2 * (C - b), 2 * (C - c)]
         + [-(C - x) - (a + b + c - x) for x in (a, b, c)]),
        ({"level2:chi2(0)<0"}, 3, 3, lambda a, b, c: chi(a, b, c, 2), lambda a, b, c: -16 * a * b * c),
        ({"level4:chi4''(0)<0"}, 3, 3, lambda a, b, c: chi(a, b, c, 4, 2), lambda a, b, c: -160 * a * b * c),
        ({"level4:chi4(0)>0"}, 3, 5, lambda a, b, c: chi(a, b, c, 4),
         lambda a, b, c: 768 * a * b * c * (a * a + b * b + c * c)),
        ({"base:G(0,0)=C^2", "base:G(1,0)=mu^2"}, 4, 2,
         lambda a, b, c, C: [_G(a, b, c, C, 0, 0), _G(a, b, c, C, 1, 0)],
         lambda a, b, c, C: [C * C, (a + b + c - C) ** 2]),
        ({"tail:G(n,n)-C^2:leading", "tail:G(n,0)-C^2:leading", "tail:G(n,1)-C^2:leading"}, 5, 4,
         tails, quadratics),
        ({"increment:slope"}, 6, 4,
         lambda a, b, c, C, n, k: _G(a, b, c, C, n + 2, k + 1) - _G(a, b, c, C, n, k),
         lambda a, b, c, C, n, k: 4 * (c * c * n - b * C + a * c + b * b + c * c)),  # slope 4c^2 in n
    ]
    assert set().union(*(rows for rows, *_ in lemmas)) == LEMMA_ROWS
    for _, variables, degree, lhs, rhs in lemmas:
        grid_identity(lhs, rhs, variables, degree)
    # the library decides the other 19 conditions, and nothing else
    steps = _library(Metric(1.3, 0.8, 0.9))
    assert len(steps) == 19 and all(s.margin > 0 for s in steps)
    assert not {s.name for s in steps} & LEMMA_ROWS


def _steps(trace):
    return [(s.name, s.detail, repr(s.margin)) for s in trace.steps]


def test_base_cases_are_the_certificates_base_tail_and_increment_rows():
    rng = np.random.default_rng(418)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE, lo=0.25, hi=4.0):
        steps = _steps(d3s.certify_fundamental_tone(m))
        assert _steps(d3s.base_cases(m)) == steps[-5:], m.triple()
        assert [name.split(":")[0] for name, *_ in steps[-5:]] == ["base", "tail", "tail", "tail", "increment"]


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
