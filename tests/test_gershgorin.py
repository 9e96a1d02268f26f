import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, gershgorin
from dirac3sphere.metric import shift_C

from _oracles import (
    direct_row_entries,
    exact_level_bounds,
    families,
    grid_identity,
    paper_Gtilde,
    random_metrics,
    random_metrics_with_sign,
    row_bound,
    squared_row_entries,
)


def test_out_of_range_entries_vanish_by_formula():
    m = Metric(1.7, 0.9, 0.4)
    for n in (1, 4, 9):
        for tag in "AB":
            em2, em1, _, _, _ = squared_row_entries(m, n, tag, 0)
            assert em2 == 0.0 and em1 == 0.0
            _, _, _, ep1, ep2 = squared_row_entries(m, n, tag, n)
            assert ep1 == 0.0 and ep2 == 0.0


def test_round_metric_diagonal_entry():
    # (c-b)^2 k (n-k+1) + (a(n-2k) - C)^2 + (c+b)^2 (n-k)(k+1) at n=1, k=0
    entries = squared_row_entries(Metric(1, 1, 1), 1, "A", 0)
    assert entries[2] == pytest.approx(17 / 4, abs=1e-14)


def test_entries_equal_literal_squares():
    rng = np.random.default_rng(31)
    metrics = random_metrics(rng, 6) + [Metric(1, 1, 1), Metric(1, 1, 0.5)]
    for m in metrics:
        for n in range(1, 31, 3):
            for tag in "AB":
                blk = d3s.build_block(m, n, tag).to_dense()
                sq = blk @ blk
                scale = max(1.0, np.abs(sq).max())
                for k in range(n + 1):
                    entries = squared_row_entries(m, n, tag, k)
                    for off, e in zip(range(-2, 3), entries):
                        col = k + off
                        want = sq[k, col] if 0 <= col <= n else 0.0
                        assert abs(e - want) <= 1e-12 * scale


def test_row_bound_round_metric_is_mu_squared():
    assert row_bound(Metric(1, 1, 1), 1, "A", 0) == pytest.approx(9 / 4, abs=1e-14)


def test_row_bounds_below_squared_spectrum():
    rng = np.random.default_rng(8)
    for m in random_metrics(rng, 5):
        for n in range(0, 31, 5):
            low = d3s.min_row_bound(m, n)
            for tag in "AB":
                vals = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, n, tag)))
                assert (vals ** 2).min() >= low - 1e-9 * max(1.0, abs(low))


def test_closed_form_minimum_bounds_squared_spectrum():
    # on the sorted metric, min over k of min(G, G~) = the Gershgorin floor
    # for every eigenvalue of the squared level operator
    rng = np.random.default_rng(81)
    for m in random_metrics_with_sign(rng, 5, d3s.POSITIVE):
        ms, _ = m.sorted()
        a, b, c = ms.triple()
        for n in range(0, 31, 3):
            floor = min(
                min(d3s.closed_form_G(ms, n, k), paper_Gtilde(a, b, c, ms.C, n, k)) for k in range(n + 1)
            )
            for tag in "AB":
                vals = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(ms, n, tag)))
                assert (vals ** 2).min() >= floor - 1e-9 * max(1.0, abs(floor))


def test_boundary_point_table():
    m = Metric(1, 1, 0.5)
    assert d3s.closed_form_G(m, 2, 0) == pytest.approx(0.25, abs=1e-12)
    assert d3s.closed_form_G(m, 3, 0) == pytest.approx(0.0, abs=1e-12)
    assert d3s.closed_form_G(m, 4, 0) == pytest.approx(0.25, abs=1e-12)
    assert d3s.closed_form_G(m, 5, 0) == pytest.approx(1.0, abs=1e-12)
    # row 0 is even: block A realizes G(3,0) = 0, block B realizes G~(3,0)
    assert row_bound(m, 3, "A", 0) == pytest.approx(0.0, abs=1e-12)
    assert row_bound(m, 3, "B", 0) == pytest.approx(paper_Gtilde(1.0, 1.0, 0.5, m.C, 3, 0), rel=1e-12)
    assert row_bound(m, 3, "B", 0) == pytest.approx(d3s.closed_form_G(m, 3, 3), rel=1e-12)
    # the dip below C^2 = 9/4 at n = 2, 4 is why those levels need their own proof
    assert d3s.closed_form_G(m, 4, 0) < m.C ** 2


def test_reflection_identity():
    rng = np.random.default_rng(44)
    for m in random_metrics(rng, 6):
        ms, _ = m.sorted()
        a, b, c = ms.triple()
        for n in range(0, 51, 7):
            for k in range(n + 1):
                g = d3s.closed_form_G(m, n, n - k)
                gt = paper_Gtilde(a, b, c, ms.C, n, k)
                assert abs(g - gt) <= 1e-12 * max(1.0, abs(g))


def test_closed_forms_match_direct_bounds_via_table():
    rng = np.random.default_rng(15)
    for m in random_metrics(rng, 8):
        for n in (1, 3, 8, 17, 30):
            table = d3s.gershgorin_table(m, n)
            assert table.level == n
            assert len(table.G) == n + 1
            ms, perm = m.sorted()
            assert table.sorted_triple == ms.triple()
            assert table.permutation == perm
            for tag, rows in (("A", table.row_bounds_A), ("B", table.row_bounds_B)):
                direct = np.array([row_bound(ms, n, tag, k) for k in range(n + 1)])
                assert np.abs(rows - direct).max() <= 1e-10 * max(1.0, np.abs(direct).max()), (m.triple(), n, tag)


def test_triangle_increment_round_metric():
    assert d3s.triangle_increment(Metric(1, 1, 1), 0, 0) == pytest.approx(6.0, abs=1e-13)


def test_triangle_increment_boundary_linear_in_n():
    m = Metric(1, 1, 0.5)
    for n in range(0, 12):
        # 4(c^2 n - bC + ac + b^2 + c^2) = n + 1 here: positive even at scal = 0
        assert d3s.triangle_increment(m, n, n // 2) == pytest.approx(n + 1.0, rel=1e-12)


def test_triangle_increment_positive_for_positive_scal():
    rng = np.random.default_rng(20)
    for m in random_metrics_with_sign(rng, 40, d3s.POSITIVE):
        for n in range(0, 51, 5):
            assert d3s.triangle_increment(m, n, min(n, 2)) > 0


def test_base_cases_round_and_generic():
    report = d3s.base_cases(Metric(1, 1, 1))
    # G(0,0) = C^2, G(1,0) = mu^2, the leading coefficients, the G(n,n)
    # family and the slope are lemmas, not rows; every row is a condition
    # with its margin
    assert [c.name for c in report.steps] == [
        "base:G(5,0)>mu^2", "tail:G(n,0)-C^2:q(6)>0", "tail:G(n,0)-C^2:q'(6)>0",
        "tail:G(n,1)-C^2:q(4)>0", "tail:G(n,1)-C^2:q'(4)>0", "increment:n=0",
    ]
    assert all(c.margin > 0 for c in report.steps)
    assert report.steps[0].margin == 20.0  # G(5,0) = 22.25, mu^2 = 2.25
    assert report.min_margin > 0

    report2 = d3s.base_cases(Metric(1, 2, 1))
    assert report2.min_margin > 0
    assert report2.sorted_triple == (2.0, 1.0, 1.0)
    assert report2.permutation == (1, 0, 2)
    assert [c.name for c in report2.steps] == [c.name for c in report.steps]


def test_base_cases_requires_positive_scal():
    for t in ((1, 1, 0.5), (1, 1, 0.4999999999999), (3, 1, 0.3)):
        with pytest.raises(d3s.UncertifiableError):
            d3s.base_cases(Metric(*t))


def test_base_cases_margin_rule_can_fail(monkeypatch):
    # a family negative at its n_min must fail, by the name of its row
    from dirac3sphere import gershgorin

    def family(a, b, c, C, k0, k1):
        return a, -14 * a, 0  # roots 0 and 14 >= 6

    monkeypatch.setattr(gershgorin, "_family", family)
    with pytest.raises(d3s.CertificationError, match=r"^tail:G\(n,0\)-C\^2:q\(6\)>0 fails"):
        d3s.base_cases(Metric(1, 1, 1))


def test_family_quadratics_match_direct_values():
    # exactly, on the certificate's integers and on the stored doubles with
    # their exact C in Fractions: A n^2 + B n + D is G - C^2 along k = n, 0, 1
    rng = np.random.default_rng(64)
    for m in random_metrics(rng, 10) + [Metric(1, 1, 1), Metric(6, 4, 2.4), Metric(4, 3.5, 0.25)]:
        ms, _ = m.sorted()
        p, q, r, P, _, _, _, S2, _ = ms._exact.integers
        exact = [Fraction(x) for x in ms.triple()]
        for a, b, c, C in ((2 * P * p, 2 * P * q, 2 * P * r, S2), (*exact, shift_C(*exact))):
            for (name, n_min, (A, B, D)), k in zip(families(a, b, c, C), (lambda n: n, lambda n: 0, lambda n: 1)):
                assert A == a * a - b * b + c * c
                for n in range(40):
                    assert A * n * n + B * n + D == gershgorin._G(a, b, c, C, n, k(n)) - C * C, (m.triple(), name, n)


def test_reflection_and_increment_are_exact_identities():
    # rational arithmetic: G~ is G reflected, and the increment is the
    # collapsed k-independent form that triangle_increment returns
    rng = np.random.default_rng(71)
    for _ in range(12):
        a, b, c = sorted((Fraction(int(p), int(q)) for p, q in rng.integers(1, 60, size=(3, 2))), reverse=True)
        C = shift_C(a, b, c)
        for n in range(0, 23, 3):
            collapsed = 4 * (c * c * n - b * C + a * c + b * b + c * c)
            for k in range(n + 1):
                assert gershgorin._G(a, b, c, C, n, n - k) == paper_Gtilde(a, b, c, C, n, k)
                assert gershgorin._G(a, b, c, C, n + 2, k + 1) - gershgorin._G(a, b, c, C, n, k) == collapsed
            m = Metric(float(a), float(b), float(c))
            assert d3s.triangle_increment(m, n, n // 2) == pytest.approx(float(collapsed), rel=1e-12, abs=1e-12)


def test_table_rows_are_the_row_bounds_bit_for_bit():
    # the parity dictionary: block A sees G at even k and G~ at odd k, block B the other way around
    rng = np.random.default_rng(202)
    for t in rng.uniform(0.25, 4.0, size=(3, 3)):
        for perm in itertools.permutations(t):
            m = Metric(*perm)
            for n in (0, 1, 2, 7, 30):
                table = d3s.gershgorin_table(m, n)
                G = [d3s.closed_form_G(m, n, k) for k in range(n + 1)]
                assert table.G.tolist() == G and table.Gtilde.tolist() == G[::-1]
                for tag, rows, parity in (("A", table.row_bounds_A, 0), ("B", table.row_bounds_B, 1)):
                    assert rows.tolist() == [G[k] if k % 2 == parity else G[n - k] for k in range(n + 1)], tag


def test_direct_rows_left_endpoint_is_G_for_every_sorted_triple():
    # The lemma of the gershgorin module, in two steps.  (1) Each
    # off-diagonal entry of a squared row, with the signs of a and b kept
    # (s = 1) or flipped (s = -1), is a sign times a product of factors that
    # are >= 0 where b >= c, C > a > 0 (a lemma of the certificate) and
    # 0 <= k <= n are integers: k(k - 1) and (n - k)(n - k - 1) are products
    # of consecutive integers.  (2) With those signs, e0 - |e-2| - |e-1| -
    # |e+1| - |e+2| is G(n, k) for the kept signs and G(n, n - k) for the
    # flipped ones.  Every side has degree <= 2 in each of (a, b, c, C, n,
    # k), so agreement on the 3^6 grid proves each identity for all inputs.
    def factored(s, a, b, c, C, n, k):
        # (sign, factors) of e-2, e-1, e+1 and e+2; flipping the signs swaps
        # which of 2(b - c)(C + a) and -2(b + c)(C - a) sits at k and at n - k
        bc, up, down = (b - c, b + c), (2 * (b - c), C + a), (2 * (b + c), C - a)
        if s == 1:
            em1, ep1 = (1, (*up, k)), (-1, (*down, n - k))
        else:
            em1, ep1 = (-1, (*down, k)), (1, (*up, n - k))
        return (-1, (*bc, k * (k - 1))), em1, ep1, (-1, (*bc, (n - k) * (n - k - 1)))

    for s in (1, -1):
        def entries(a, b, c, C, n, k, s=s):
            em2, em1, _, ep1, ep2 = direct_row_entries(s * a, s * b, c, C, n, k)
            return [em2, em1, ep1, ep2]

        def signed_products(*point, s=s):
            return [sign * math.prod(factors) for sign, factors in factored(s, *point)]

        def resolved_endpoint(a, b, c, C, n, k, s=s):
            e0 = direct_row_entries(s * a, s * b, c, C, n, k)[2]
            return e0 - sum(math.prod(factors) for _, factors in factored(s, a, b, c, C, n, k))

        def G(a, b, c, C, n, k, s=s):
            return gershgorin._G(a, b, c, C, n, k if s == 1 else n - k)

        grid_identity(entries, signed_products, 6, 2)
        grid_identity(resolved_endpoint, G, 6, 2)


@pytest.mark.parametrize("triple", [(1.3e160, 0.8e160, 0.9e160), (4e154, 3e154, 1e154), (1e154, 1e154, 0.6e154)])
def test_table_refuses_rows_beyond_the_double_range(triple):
    # (b - c)^2 or (b + c)^2 overflows; the last one has a finite C
    with np.errstate(all="raise"), pytest.raises(d3s.ConsistencyError, match="not finite"):
        d3s.gershgorin_table(Metric(*triple), 30)


def test_min_row_bound_is_the_exact_minimum_of_row_bounds():
    # enumeration prunes levels by comparing against this bound: in every
    # ordering, bit for bit the minimum of G over every row of the sorted
    # metric, and within the rounding allowance of the exact minimum
    rng = np.random.default_rng(200)
    levels = (0, 1, 2, 5, 24, 77, 200)
    for t in rng.uniform(0.25, 4.0, size=(4, 3)):
        exact = exact_level_bounds(Metric(*t), levels)
        allowance = gershgorin._rounding_allowance(Metric(*t), levels)
        for perm in itertools.permutations(t):
            m = Metric(*perm)
            for n, want, allow in zip(levels, exact, allowance):
                low = d3s.min_row_bound(m, n)
                assert low == min(d3s.closed_form_G(m, n, k) for k in range(n + 1))
                assert abs(Fraction(low) - want) <= Fraction(allow)


def test_level_bounds_refuse_levels_beyond_the_rounding_lemma():
    # the rounding allowance is proved for n < 2^26 only, where every integer
    # factor of G is exact in a double; a larger level is refused, not bounded
    m = Metric(1.3, 0.8, 0.6)
    assert math.isfinite(d3s.min_row_bound(m, 2 ** 26 - 1))
    for n in (2 ** 26, 2 ** 40):
        with pytest.raises(d3s.DomainError, match=r"below 2\^26"):
            d3s.min_row_bound(m, n)
    with pytest.raises(d3s.DomainError, match=r"below 2\^26"):
        d3s.level_bounds(m, [3, 2 ** 62])
