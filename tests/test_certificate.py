"""The integer certificate against the Fraction oracle, and its mutations."""

import itertools
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric
from dirac3sphere.gershgorin import _families
from dirac3sphere.metric import shift_C

from _oracles import fraction_certificate, random_metrics_with_sign


def _outcome(certify, m):
    """The step list of one certificate run, margins as ``repr``, or its refusal."""
    try:
        return [(s.name, s.detail, repr(s.margin), s.passed, s.kind) for s in certify(m)]
    except d3s.Dirac3SphereError as exc:
        return type(exc).__name__, str(exc)


def _library(m):
    return d3s.certify_fundamental_tone(m).steps


def _assert_equal_to_oracle(metrics):
    outcomes = []
    for m in metrics:
        got = _outcome(_library, m)
        assert got == _outcome(fraction_certificate, m), m.triple()
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
        margins = [s.margin for s in _library(Metric(*t)) if s.kind == "strict"]
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
    # one integer unit on the level-1 eigenvalue mu is a relative error far
    # below a double's resolution, and the exact decision still sees it
    from dirac3sphere import gershgorin

    real = gershgorin._level1_eigs

    def nudged(a, b, c, C):
        first, *rest = real(a, b, c, C)
        return [first + 1, *rest]

    monkeypatch.setattr(gershgorin, "_level1_eigs", nudged)
    m = Metric(1.3, 0.8, 0.9)
    with pytest.raises(d3s.CertificationError, match=r"^level1:mu fails") as exc:
        d3s.certify_fundamental_tone(m)
    margin = float(re.match(r"level1:mu fails: margin (\S+)", str(exc.value)).group(1))
    assert 0 < margin < 1e-16 * m.mu


def _steps(trace):
    return [(s.name, s.detail, repr(s.margin), s.kind) for s in trace.steps]


def test_base_cases_are_the_certificates_base_tail_and_increment_rows():
    rng = np.random.default_rng(418)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE, lo=0.25, hi=4.0):
        steps = _steps(d3s.certify_fundamental_tone(m))
        first = next(i for i, step in enumerate(steps) if step[0].startswith("base:"))
        assert _steps(d3s.base_cases(m)) == steps[first:], m.triple()
        assert all(name.startswith(("base:", "tail:", "increment:")) for name, *_ in steps[first:])


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
    # the same step list, margins bit for bit, all at the normalized scale;
    # the level-0 note prints -C in the metric's own units
    rng = np.random.default_rng(420)
    metrics = random_metrics_with_sign(rng, 20, d3s.POSITIVE, lo=0.25, hi=4.0)
    metrics += [Metric(1.3, 0.8, 0.9), Metric(1.0, 1.0, 1.0), Metric(2.0, 1.0, 1.0)]
    for m in metrics:
        unit = _steps(d3s.certify_fundamental_tone(m))
        for j in (-700, -600, -100, 3, 200):
            scaled = d3s.certify_fundamental_tone(Metric(*(x * 2.0 ** j for x in m.triple())))
            assert [s for s in _steps(scaled) if s[0] != "level0"] == [s for s in unit if s[0] != "level0"], (m, j)
            note = next(s for s in scaled.steps if s.name == "level0")
            assert note.detail == f"sole eigenvalue -C = {-scaled.C!r} with multiplicity 2"
