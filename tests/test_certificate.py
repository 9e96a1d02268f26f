"""The integer certificate against the Fraction oracle, and its mutations."""

import re

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric

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
    metrics += [Metric(1e62, 1e62, 1e62), Metric(1e-160, 1e-160, 1e-160), Metric(2.0 ** 600, 1.0, 2.0 ** -600)]
    _assert_equal_to_oracle(metrics)
    # beyond the double range a margin reads inf, the same in both
    assert "inf" in {margin for _, _, margin, _, _ in _outcome(_library, Metric(1e62, 1e62, 1e62))}


def test_certificate_catches_an_error_of_one_part_in_L(monkeypatch):
    # one integer unit on the level-1 eigenvalue mu is a relative error far
    # below a double's resolution, and the exact decision still sees it
    from dirac3sphere import spectrum

    real = spectrum._level1_eigs

    def nudged(a, b, c, C):
        first, *rest = real(a, b, c, C)
        return [first + 1, *rest]

    monkeypatch.setattr(spectrum, "_level1_eigs", nudged)
    m = Metric(1.3, 0.8, 0.9)
    with pytest.raises(d3s.CertificationError, match=r"^level1:mu fails") as exc:
        d3s.certify_fundamental_tone(m)
    margin = float(re.match(r"level1:mu fails: margin (\S+)", str(exc.value)).group(1))
    assert 0 < margin < 1e-16 * m.mu
