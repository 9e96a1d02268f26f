"""The two block constructions against each other and their references:
the representation band proved equal to the recurrences once, for every
metric, the dense operator against the einsum reference, the recurrence
rows against the blocks written out, and ``verify``'s grid point against
its reference."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, blocks, cli
from dirac3sphere.blocks import _raw_rows

from _oracles import (
    einsum_representation,
    grid_identity,
    random_metrics,
    random_metrics_with_sign,
    reference_block,
    reference_verify_point,
    scal_zero_metrics,
)


def _scaled(m, exponent):
    return Metric(*(math.ldexp(x, exponent) for x in m.triple()))


def _metrics():
    rng = np.random.default_rng(2023)
    seeded = random_metrics(rng, 6)
    round_ = [Metric(1, 1, 1), Metric(2, 1, 1), Metric(1, 2, 0.5), Metric(3, 2, 1)]
    return seeded + round_ + [_scaled(m, e) for m in seeded[:2] + round_[:2] for e in (600, -600)]


def _prove_band_is_the_recurrences(levels):
    # Every entry of the band, less C on its diagonal as
    # build_from_representation subtracts it, and every entry of the
    # recurrence rows is a polynomial of degree <= 1 in each of a, b, c and C,
    # so agreement on {0, 1}^4 proves the two constructions equal for every
    # metric.  There every entry is a small integer, so the floats are exact.
    # At each level the A-A and B-B tridiagonals are the recurrence rows, and
    # every imaginary part and every A-B coupling is zero.
    def metric(a, b, c, C):
        return SimpleNamespace(triple=lambda: (a, b, c), C=C)

    for n in levels:
        def representation(*point):
            band = blocks._band(metric(*point), n)
            band[[0, 1], [0, 1], 1] -= point[3]
            return band

        def recurrences(*point):
            D, S, P = blocks._raw_rows(metric(*point), np.array([n, n]), np.array([False, True]))  # A, B
            want = np.zeros((2, 2, 3, n + 1), dtype=complex)  # [s, t, d + 1, k]
            want[[0, 1], [0, 1], 0, 1:] = P[:, :-1]  # (k - 1, k) is sup entry k - 1
            want[[0, 1], [0, 1], 1] = D
            want[[0, 1], [0, 1], 2] = S  # (k + 1, k) is sub entry k
            return want

        grid_identity(representation, recurrences, 4, 1)


def test_representation_band_is_the_recurrences_at_every_level():
    _prove_band_is_the_recurrences(range(301))


def _clifford_sign(monkeypatch):
    E = blocks._CLIFFORD.copy()
    E[0, 0, 0] *= -1  # one sign of E_1
    monkeypatch.setattr(blocks, "_CLIFFORD", E)


def _wrap(monkeypatch, name, edit):
    # replace blocks.<name> by the original with ``edit`` applied to its result
    original = getattr(blocks, name)
    monkeypatch.setattr(blocks, name, lambda *args: edit(original(*args), *args))


def _rep_entry(monkeypatch):
    def edit(X, m, n, k):
        X[1, 2] *= 2  # X_2 at d = +1: 2 b (k + 1) for b (k + 1)
        return X
    _wrap(monkeypatch, "_rep_entries", edit)


def _parity(monkeypatch):
    # c + b and c - b at each other's parity of k: the rows of the metric
    # with b negated, as the diagonal does not depend on b
    original = blocks._raw_rows

    def swapped(m, n, flip):
        a, b, c = m.triple()
        return original(SimpleNamespace(triple=lambda: (a, -b, c), C=m.C), n, flip)
    monkeypatch.setattr(blocks, "_raw_rows", swapped)


def _band_edit(s, t, d, value):
    def inject(monkeypatch):
        def edit(band, m, n):
            band[s, t, d, 0] += value
            return band
        _wrap(monkeypatch, "_band", edit)
    return inject


@pytest.mark.parametrize("fault", [
    _clifford_sign,
    _rep_entry,
    _parity,
    _band_edit(1, 1, 1, 1j),  # an imaginary part on the B diagonal
    _band_edit(0, 1, 1, 1.0),  # A_0 in the image of B_0
    _band_edit(1, 1, 2, 1.0),  # the B coupling below the diagonal, k = 0
], ids=["clifford-sign", "rep-entry", "parity", "imaginary", "coupling", "deviation"])
def test_identity_proof_fails_on_a_faulty_construction(monkeypatch, fault):
    # each fault is of degree <= 1 in a, b, c and C, so the proof's premise
    # holds and its 16 points must see it within the first levels
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        _prove_band_is_the_recurrences(range(9))


def test_band_construction_equals_einsum_reference():
    for m in _metrics():
        for n in range(41):
            if not math.isfinite(m.C):
                # at 2^600 the products ab overflow and C = inf: refused
                # before a matrix of nan (0 * inf) is built
                with pytest.raises(d3s.ConsistencyError, match=rf"level {n}: C = inf is not finite"):
                    d3s.build_from_representation(m, n)
                continue
            with np.errstate(invalid="raise"):
                got = d3s.build_from_representation(m, n).matrix
                want = einsum_representation(m, n).matrix
            assert np.array_equal(got, want), (m, n)


def test_full_raw_rows_are_build_block():
    # the one writer of the entry recurrences against the formula written out
    # for one block, and build_block as the one-row cut of it
    m = Metric(1.3, 0.8, 0.6)
    n = np.array([0, 1, 4, 7, 0, 1, 4, 7])
    D, S, P = _raw_rows(m, n, np.arange(8) >= 4)
    for r, (level, tag) in enumerate(zip(n, "AAAABBBB")):
        ref = reference_block(m, int(level), tag)
        assert np.array_equal(D[r, :level + 1], ref.diag)
        assert np.array_equal(S[r, :level], ref.sub) and np.array_equal(P[r, :level], ref.sup)
        assert not D[r, level + 1:].any() and not S[r, level:].any() and not P[r, level:].any()
        blk = d3s.build_block(m, int(level), tag)
        assert all(np.array_equal(x, y) for x, y in zip((blk.diag, blk.sub, blk.sup), (ref.diag, ref.sub, ref.sup)))


def _grid_points():
    rng = np.random.default_rng(11)
    positive = random_metrics_with_sign(rng, 4, d3s.POSITIVE)
    return (
        positive
        + random_metrics_with_sign(rng, 2, d3s.NEGATIVE)
        + scal_zero_metrics(rng, 1)
        + [Metric(1, 1, 1), Metric(1, 1, 0.5000000000001)]
        + [_scaled(m, e) for m in positive[:2] for e in (600, -600)]
    )


def test_verify_point_equals_reference():
    for m in _grid_points():
        for details in (False, True):
            assert cli._verify_point(m, details) == reference_verify_point(m, details)
