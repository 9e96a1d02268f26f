"""Row-wise lower bounds for the squared level blocks.

The squared blocks are pentadiagonal with entries in closed form; the left
endpoints of their Gershgorin intervals bound every eigenvalue of the squared
level operator from below.  Under the ordering a >= b >= c the absolute
values resolve and the endpoints collapse to two polynomial families G and
G~, linked by the reflection G(n, k) = G~(n, n-k).  The increment
G(n+2, k+1) - G(n, k) is independent of k and strictly positive for positive
scalar curvature, which propagates the base-case inequalities

    G(0,0) = C^2            G(n,n) > C^2  (n >= 1)
    G(n,0) > C^2  (n >= 6)  G(n,1) > C^2  (n >= 4)
    G(1,0) = mu^2           G(5,0) > mu^2

to every level.  ``base_cases`` decides them for every n at once: each of
the three families minus C^2 is a quadratic in n, and the increment is
linear in n with slope 4c^2.  The decision is exact integer arithmetic on
the stored doubles, scaled by one positive integer (:func:`exact_sorted`).
The closed forms sort the metric internally (an isometric relabeling) and
record the permutation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ConsistencyError, DomainError, UncertifiableError
from .metric import _approx, _integers, scal_factors


def _row_entries(a, b, c, C, n, k):
    """Entries (k, k-2) .. (k, k+2) of the squared level-n block at row k.

    ``n`` and ``k`` are ints or float arrays of rows; squares are products,
    so both forms give the same bits.
    """
    em2 = (c - b) * (c + b) * k * (k - 1)
    em1 = -2.0 * (c - b) * (C + a) * k
    x = a * (n - 2 * k) - C
    e0 = (
        (c - b) * (c - b) * k * (n - k + 1)
        + x * x
        + (c + b) * (c + b) * (n - k) * (k + 1)
    )
    ep1 = -2.0 * (c + b) * (C - a) * (n - k)
    ep2 = (c + b) * (c - b) * (n - k) * (n - k - 1)
    return em2, em1, e0, ep1, ep2


def squared_row_entries(m, n, tag, k):
    """Row k of the squared level-n block: entries (k, k-2) .. (k, k+2).

    Valid for any metric ordering; out-of-range positions evaluate to zero
    through the formulas themselves.  Odd rows flip the signs of a and b,
    tag "B" swaps the parities.
    """
    if not 0 <= k <= n:
        raise DomainError(f"row index {k} outside 0..{n}")
    a, b, c = m.triple()
    if (k % 2 == 0) != (tag == "A"):
        a, b = -a, -b
    return _row_entries(a, b, c, m.C, n, k)


def _left_endpoint(em2, em1, e0, ep1, ep2):
    return e0 - (abs(em2) + abs(em1) + abs(ep1) + abs(ep2))


def row_bound(m, n, tag, k):
    """Left Gershgorin endpoint of row k of the squared block."""
    return _left_endpoint(*squared_row_entries(m, n, tag, k))


def _row_endpoints(a, b, c, C, n, k):
    """Left endpoints of rows (n, k), with the signs of a and b kept and
    with them flipped: block A at even k and block B at odd k take the
    first, the other rows the second.  Bit for bit :func:`row_bound`."""
    return [_left_endpoint(*_row_entries(s * a, s * b, c, C, n, k)) for s in (1.0, -1.0)]


def _vertex_steps(a, b, c, C):
    """floor(2 delta) of the row quadratic for each sign choice, exactly, on
    the stored doubles; None where the quadratic is not convex or C is not
    finite (see :func:`level_bounds`)."""
    if not math.isfinite(C):
        return [None, None]
    (a, b, c, C), _ = _integers(a, b, c, C)
    A = 4 * a * a - 4 * max(b * b, c * c)
    if A <= 0:
        return [None, None]
    return [(4 * s * b * c - 4 * s * a * C + 2 * abs((c - s * b) * (C + s * a))
             - 2 * abs((c + s * b) * (C - s * a))) // A for s in (1, -1)]


def level_bounds(m, levels):
    """Smallest left endpoint over both blocks of each level, from a few
    rows per level.

    A certified lower bound for every eigenvalue of the squared level-n
    operator, at any metric, for each n in ``levels``.

    Vertex lemma.  On the rows k = 0..n of level n the absolute values of
    :func:`_left_endpoint` resolve, as k, n-k, k(k-1) and (n-k)(n-k-1) are
    >= 0 there.  So under either sign choice s (a and b as stored, or both
    flipped: :func:`_row_endpoints`) a row's endpoint is exactly a quadratic
    A k^2 + (B - A n) k + const in k, with

        A = 4a^2 - 4 max(b^2, c^2),
        B = -4sbc + 4saC - 2|(c - sb)(C + sa)| + 2|(c + sb)(C - sa)|,

    for the stored doubles (a, b, c, C), in any ordering.  Where A > 0 the
    vertex is v = n/2 + delta with delta = -B/(2A), the same for every
    level, and the quadratic's minimum over the integers 0..n lies at
    floor(v) or floor(v) + 1, clipped to [0, n]; where A <= 0 it lies at
    k = 0 or k = n.  With g = floor(2 delta), floor(v) = floor((n + g)/2)
    exactly, so one integer g per sign choice, computed in Python integers
    on the stored doubles (:func:`_vertex_steps`), places the candidate rows
    of every level.

    Each level evaluates rows 0 and n and the two rows at the vertex of
    each sign choice, under both sign choices, through the same float
    formula as :func:`row_bound`; a level whose candidates are not all
    finite, and every level when C is not finite, evaluates all its rows.
    The exact minimum row is always a candidate, so the bound is the float
    value of the exact Gershgorin minimum, within a few rounding errors of
    it, as the full pass over all rows was; on the seeded cases of
    ``tests/test_enumeration.py`` the two agree bit for bit.  Where a row
    overflows the double range the level's bound is inf or nan, silently;
    callers must not prune on a non-finite bound.
    """
    a, b, c = m.triple()
    ns = np.asarray(levels, dtype=np.int64)
    if not len(ns):
        return np.zeros(0)
    far = 2 * int(ns.max()) + 4  # a step beyond it clips every candidate to 0 or n
    k = [np.zeros_like(ns), ns]
    for g in _vertex_steps(a, b, c, m.C):
        g = -far if g is None else max(-far, min(far, g))
        k += [(ns + g) // 2, (ns + g) // 2 + 1]
    k = np.clip(np.stack(k, axis=1), 0, ns[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.minimum(*_row_endpoints(a, b, c, m.C, ns[:, None].astype(float), k.astype(float))).min(axis=1)
        unbounded = ~np.isfinite(bounds)
        if unbounded.any():
            sizes = ns[unbounded] + 1
            starts = np.cumsum(sizes) - sizes
            n = np.repeat(ns[unbounded], sizes).astype(float)
            k = np.arange(int(sizes.sum()), dtype=float) - np.repeat(starts, sizes)
            bounds[unbounded] = np.minimum.reduceat(np.minimum(*_row_endpoints(a, b, c, m.C, n, k)), starts)
    return bounds


def min_row_bound(m, n):
    """Smallest left endpoint over both blocks of level n.

    The one-level case of :func:`level_bounds`.
    """
    return float(level_bounds(m, [n])[0])


def _G(a, b, c, C, n, k):
    """The closed-form left endpoint G(n, k) on a sorted metric; G~(n, k)
    is G(n, n-k).  Exact on rationals and ints; on floats a square beyond
    the double range is inf, as a product is, not an ``OverflowError``."""
    x = a * (n - 2 * k) - C
    return (
        x * x
        + (b - c) * (b - c) * k * (n - k + 1)
        + (b + c) * (b + c) * (n - k) * (k + 1)
        - 2 * (b - c) * (C + a) * k
        - 2 * (b + c) * (C - a) * (n - k)
        - (b * b - c * c) * (k * (k - 1) + (n - k) * (n - k - 1))
    )


def closed_form_G(m, n, k, variant="G"):
    """Polynomial left endpoint G(n, k) or G~(n, k) = G(n, n-k).

    The metric is permuted internally to a >= b >= c (the sign resolutions
    assume b >= c).
    """
    if not 0 <= k <= n:
        raise DomainError(f"index {k} outside 0..{n}")
    if variant not in ("G", "Gtilde"):
        raise DomainError(f"unknown variant {variant!r}")
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    return _G(a, b, c, ms.C, n, k if variant == "G" else n - k)


def triangle_increment(m, n, k):
    """G(n+2, k+1) - G(n, k) in its collapsed form 4*(c^2 n - bC + ac + b^2 + c^2).

    The difference of the two polynomials is independent of k (metric
    sorted internally); ``tests/test_gershgorin.py`` proves the collapse in
    rational arithmetic.
    """
    if not 0 <= k <= n:
        raise DomainError(f"index {k} outside 0..{n}")
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    return 4.0 * (c * c * n - b * ms.C + a * c + b * b + c * c)


def _families(a, b, c, C):
    """The base-case families minus C^2 as records (name, n_min, (A, B, D)):
    A n^2 + B n + D must stay positive for every level n >= n_min."""
    lead = a * a - b * b + c * c
    return [
        ("G(n,n)-C^2", 1, (lead, 2 * (a * C + b * b - b * c - b * C + c * C - a * b + c * a), 0)),
        ("G(n,0)-C^2", 6, (lead, 2 * (-a * C + b * b + b * c - b * C - c * C + a * b + c * a), 0)),
        (
            "G(n,1)-C^2",
            4,
            (
                lead,
                -2 * (a + b + c) * C - 4 * a * a + 6 * b * b + 2 * (a * b + b * c + c * a),
                4 * (a + c) * C + 4 * a * a - 4 * b * b - 4 * a * b - 4 * b * c,
            ),
        ),
    ]


@dataclass(frozen=True)
class CertificationStep:
    """One decided condition of the certificate.

    Pass or fail is decided exactly, on integers that are a positive
    multiple of the condition (see :func:`exact_sorted`); ``margin`` is the
    exact margin rounded to a double, for information only (None for notes).
    """

    name: str
    detail: str
    margin: float
    passed: bool
    kind: str = "strict"  # "strict", "eq", or "note"


def record_step(steps, name, detail, value, scale=1, kind="strict", holds=None):
    """Append a step that holds, else raise :class:`CertificationError`.

    The margin is value / scale, with scale > 0 (L^d for a condition of
    degree d, see :func:`exact_sorted`).  A "strict" step holds when the
    exact ``value`` is positive, an "eq" step when it is zero; ``holds``
    overrides that for margins with a square root, which are then only a
    double estimate.
    """
    if holds is None:
        holds = value == 0 if kind == "eq" else value > 0
    margin = _approx(value, scale)
    if not holds:
        raise CertificationError(f"{name} fails: margin {margin:.3e} ({detail})")
    steps.append(CertificationStep(name, detail, margin, True, kind))


def exact_sorted(m):
    """(sorted metric, permutation, (a, b, c, C), L): a >= b >= c and C as
    integers, L times the exact values of the stored doubles, for one L > 0.

    Every double is p / 2^q.  With Q the largest q of the three, a' = a 2^Q,
    b' = b 2^Q and c' = c 2^Q are integers (:func:`_integers`); with
    D = 2a'b'c', (a'D, b'D, c'D, a'^2 b'^2 + b'^2 c'^2 + c'^2 a'^2) =
    L (a, b, c, C) for L = 2^Q D.  A condition homogeneous of degree d in
    (a, b, c, C) is L^d > 0 times its value on these integers, so the
    integers decide its sign exactly and its margin is the integer value
    over L^d.

    Raises :class:`UncertifiableError` unless scal > 0 exactly.
    """
    ms, perm = m.sorted()
    (a, b, c), den = _integers(*ms.triple())  # den = 2^Q
    if min(scal_factors(a, b, c)) <= 0:
        raise UncertifiableError("certification requires positive scalar curvature; only enumerated minima exist")
    d = 2 * a * b * c
    C = a * a * b * b + b * b * c * c + c * c * a * a
    return ms, perm, (a * d, b * d, c * d, C), den * d


@dataclass(frozen=True)
class BaseCaseReport:
    metric: tuple
    sorted_triple: tuple
    permutation: tuple
    checks: tuple

    @property
    def min_strict_margin(self):
        margins = [c.margin for c in self.checks if c.kind == "strict"]
        return min(margins) if margins else float("inf")


def base_cases(m):
    """Decide the base cases and the triangle increment for every level.

    Exact integer arithmetic (:func:`exact_sorted`), no tolerance, a fixed
    list of checks: G(0,0) = C^2, G(1,0) = mu^2, G(5,0) > mu^2; each family
    minus C^2, a quadratic q(n) with leading coefficient A > 0, has no real
    root at or beyond n_min (negative discriminant, or q(n_min) > 0 and
    q'(n_min) > 0); the increment G(2,1) - G(0,0) is positive and grows by
    4c^2 per level.  Every quantity is of degree 2 in (a, b, c, C), so each
    margin is its integer over L^2, and a root position is a ratio of two.
    Raises :class:`UncertifiableError` unless scal > 0, and
    :class:`CertificationError` naming a check that fails.
    """
    ms, perm, (a, b, c, C), L = exact_sorted(m)
    L2 = L * L
    mu = a + b + c - C
    steps = []
    for name, n, reference, kind in (
        ("base:G(0,0)=C^2", 0, C * C, "eq"),
        ("base:G(1,0)=mu^2", 1, mu * mu, "eq"),
        ("base:G(5,0)>mu^2", 5, mu * mu, "strict"),
    ):
        value = _G(a, b, c, C, n, 0)
        detail = f"n={n}, k=0: value {_approx(value, L2)!r} vs {_approx(reference, L2)!r}"
        record_step(steps, name, detail, value - reference, L2, kind)

    for name, n_min, (A, B, D) in _families(a, b, c, C):
        record_step(steps, f"tail:{name}:leading", "quadratic-in-n leading coefficient a^2-b^2+c^2", A, L2)
        disc = B * B - 4 * A * D
        # the largest root as vertex plus half-width, both free of the metric's scale
        largest = -math.inf if disc < 0 else _approx(-B, 2 * A) + math.sqrt(_approx(disc, 4 * A * A))
        record_step(steps, f"tail:{name}:root", f"n_min - largest real root (largest root {largest!r})",
                    min(n_min - largest, n_min),
                    holds=disc < 0 or ((A * n_min + B) * n_min + D > 0 and 2 * A * n_min + B > 0))

    increment = _G(a, b, c, C, 2, 1) - _G(a, b, c, C, 0, 0)
    record_step(steps, "increment:n=0", "G(2,1) - G(0,0) = 4*(-bC + ac + b^2 + c^2)", increment, L2)
    record_step(steps, "increment:slope", "4c^2, the growth of the increment per level", 4 * c * c, L2)

    return BaseCaseReport(
        metric=m.triple(),
        sorted_triple=ms.triple(),
        permutation=perm,
        checks=tuple(steps),
    )


_TABLE_RTOL = 1e-10


@dataclass(frozen=True)
class GershgorinTable:
    """Closed-form and direct left endpoints of one level.

    Built on the sorted metric; ``permutation`` records the relabeling.
    Row bounds follow the parity dictionary: block A sees G at even k and
    G~ at odd k, block B the other way around.
    """

    metric: tuple
    sorted_triple: tuple
    permutation: tuple
    level: int
    G: np.ndarray
    Gtilde: np.ndarray
    row_bounds_A: np.ndarray
    row_bounds_B: np.ndarray


def gershgorin_table(m, n):
    """Tabulate G, G~ and the direct row bounds of level n.

    The closed forms must reproduce the direct pentadiagonal bounds to
    relative 1e-10; a mismatch raises :class:`ConsistencyError` naming the
    row and the block.  So does a row that leaves the double range: a
    comparison with inf or nan proves nothing.
    """
    ms, perm = m.sorted()
    a, b, c = ms.triple()
    C = ms.C
    k = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        G = _G(a, b, c, C, n, k)
        Gt = _G(a, b, c, C, n, n - k)
        kept, flipped = _row_endpoints(a, b, c, C, n, k)
    even = k % 2 == 0
    bounds_a = np.where(even, kept, flipped)
    bounds_b = np.where(even, flipped, kept)
    for tag, got, want in (("A", bounds_a, np.where(even, G, Gt)), ("B", bounds_b, np.where(even, Gt, G))):
        scale = _TABLE_RTOL * np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
        with np.errstate(invalid="ignore"):  # inf - inf
            bad = ~(np.abs(got - want) <= scale) | ~np.isfinite(scale)
        if bad.any():
            j = int(np.argmax(bad))
            problem = "disagrees with direct row bound" if np.isfinite(scale[j]) else "or direct row bound is not finite"
            raise ConsistencyError(
                f"closed form {problem} at (n={n}, k={j}, {tag}): "
                f"{float(want[j])!r} vs {float(got[j])!r}"
            )
    return GershgorinTable(
        metric=m.triple(),
        sorted_triple=ms.triple(),
        permutation=perm,
        level=int(n),
        G=G,
        Gtilde=Gt,
        row_bounds_A=bounds_a,
        row_bounds_B=bounds_b,
    )
