"""The representation cross-check of ``verify``: the band construction
against the dense einsum reference, the one-pass check against the
per-level loop, and the failure paths with faults injected into the band."""

import math

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, blocks, cli
from dirac3sphere.blocks import _raw_rows

from _oracles import (
    einsum_representation,
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


@pytest.mark.parametrize("rep_level", [0, 1, 8, 20])
def test_verify_point_equals_per_level_reference(rep_level):
    for m in _grid_points():
        for details in (False, True):
            assert cli._verify_point(m, rep_level, details) == reference_verify_point(m, rep_level, details)


# -- failure paths -------------------------------------------------------------

def _inject(monkeypatch, fault, levels):
    """Wrap the band builder so that ``fault(band, i)`` edits row i of every
    band it returns, for each row whose level is in ``levels``."""
    build = blocks._band

    def faulty(m, ns):
        band = build(m, ns)
        for i in np.flatnonzero(np.isin(ns, levels)):
            fault(band, i)
        return band

    monkeypatch.setattr(blocks, "_band", faulty)


def _imaginary(band, i):
    band[1, 1, 1, i, 0] += 1e-6j  # the B diagonal, a block entry


def _coupling(band, i):
    band[0, 1, 1, i, 0] += 1e-6  # A_0 in the image of B_0


def _deviation(tag):
    def fault(band, i):
        band[tag, tag, 2, i, 0] += 1e-6  # the coupling below the diagonal, k = 0
    return fault


REASONS = {
    "imaginary": "level {}: imaginary residue 1.000e-06 after reordering into the A/B basis",
    "coupling": "level {}: operator is not block-diagonal in the A/B basis (residue 1.000e-06)",
    "A": "representation block (n={}, A) deviates by 1.000e-06",
    "B": "representation block (n={}, B) deviates by 1.000e-06",
}


def _fails_as(m, reason):
    point = cli._verify_point(m, 8)
    assert point["status"] == "fail" and point["reason"] == reason
    # the per-level loop over the (equally faulty) library construction agrees
    assert reference_verify_point(m, 8, construct=d3s.build_from_representation) == point


@pytest.mark.parametrize("fault, levels, reason", [
    (_imaginary, (2, 5), REASONS["imaginary"].format(2)),
    (_coupling, (4, 6), REASONS["coupling"].format(4)),
    (_deviation(1), (3, 6), REASONS["B"].format(3)),
], ids=["imaginary", "coupling", "deviation"])
def test_injected_fault_fails_at_its_first_level(monkeypatch, fault, levels, reason):
    _inject(monkeypatch, fault, levels)
    m = Metric(1.3, 0.8, 0.9)
    _fails_as(m, reason)
    # below the first faulty level the point passes, with two checks per level
    passed = cli._verify_point(m, levels[0] - 1)
    assert passed["status"] == "pass"
    assert passed["checks"] == reference_verify_point(m, 0)["checks"] + 2 * (levels[0] - 1)


@pytest.mark.parametrize("faults, reason", [
    ([(_deviation(1), 3), (_deviation(0), 3)], REASONS["A"].format(3)),
    ([(_deviation(1), 4), (_coupling, 4), (_imaginary, 4)], REASONS["imaginary"].format(4)),
    ([(_deviation(0), 3), (_coupling, 3), (_imaginary, 5)], REASONS["coupling"].format(3)),
    ([(_coupling, 5), (_deviation(0), 5), (_imaginary, 2)], REASONS["imaginary"].format(2)),
], ids=["A-before-B", "residue-first", "coupling-before-deviation", "level-first"])
def test_first_failure_is_by_level_then_check(monkeypatch, faults, reason):
    for fault, level in faults:
        _inject(monkeypatch, fault, (level,))
    _fails_as(Metric(1.3, 0.8, 0.9), reason)
