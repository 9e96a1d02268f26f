"""Row-wise lower bounds for the squared level blocks, and the certificate
of the fundamental tone built on them.

The squared blocks are pentadiagonal with entries in closed form; the left
endpoints of their Gershgorin intervals bound every eigenvalue of the squared
level operator from below.  One formula, :func:`_G`, evaluates them, by this
lemma.  Row k of the squared level-n block, for tag A at even k and tag B at
odd k, has the entries

    e-2 = (c - b)(c + b) k(k - 1),
    e-1 = -2(c - b)(C + a) k,
    e0  = (c - b)^2 k(n - k + 1) + (a(n - 2k) - C)^2 + (c + b)^2 (n - k)(k + 1),
    e+1 = -2(c + b)(C - a)(n - k),
    e+2 = (c + b)(c - b)(n - k)(n - k - 1),

and the other rows flip the signs of a and b.  Where a >= b >= c > 0 (so
C > a, a lemma of :func:`certify_fundamental_tone`) and k, n are integers
with 0 <= k <= n, each off-diagonal entry is a sign times a product of
factors that are >= 0: b - c, b + c, C + a, C - a, k, n - k, k(k - 1) and
(n - k)(n - k - 1).  So the absolute values resolve, and the left endpoint
e0 - |e-2| - |e-1| - |e+1| - |e+2| is the polynomial G(n, k) for the kept
signs and G~(n, k) = G(n, n-k) for the flipped ones.
``tests/test_gershgorin.py`` proves both steps once, as identities of
integer polynomials; the direct rows stay in ``tests/_oracles.py`` as the
tests' independent oracle against the dense squared blocks.

The increment G(n+2, k+1) - G(n, k) is independent of k and strictly
positive for positive scalar curvature, which propagates the base cases

    G(0,0) = C^2            G(n,n) > C^2  (n >= 1)
    G(n,0) > C^2  (n >= 6)  G(n,1) > C^2  (n >= 4)
    G(1,0) = mu^2           G(5,0) > mu^2

to every level: each of the three families minus C^2 is a quadratic in n,
and the increment is linear in n with slope 4c^2.  The two equalities, the
positive leading coefficient of the families and the positive slope hold for
every sorted triple; the four inequalities depend on the metric.
``level_bounds`` bounds every level from G too, for any ordering, from the
sorted metric: G is a quadratic in k, so four rows per level, k = 0, n and
two at its vertex.

``certify_fundamental_tone`` proves the fundamental tone of one metric with
scal > 0.  Every condition of the proof that depends on the metric is a row
of one of two tables: the regime and levels 2 to 4 in closed form
(:func:`_level_conditions`), then G(5,0) > mu^2, the quadratic tails and the
increment (:func:`_base_conditions`).  One loop decides the rows exactly, on
the metric's own integers (``Metric._exact``) permuted to the sorted order,
and every row is a condition.  The facts that hold for every sorted triple,
level 0 among them, are lemmas, proved once in its docstring.
``base_cases`` decides the second table alone.  The closed forms sort the
metric internally (an isometric relabeling) and record the permutation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import _char_poly_coeffs, _level, _level3_radicals
from .errors import CertificationError, ConsistencyError, DomainError, UncertifiableError
from .metric import _approx, _integers, scal_factors


def level_bounds(m, levels):
    """Smallest left endpoint over both blocks of each level, for any
    ordering, from the sorted metric and four rows per level.

    A lower bound for every eigenvalue of the squared level-n operator, for
    each n in ``levels``, up to the rounding bounded below.  A permutation
    of (a, b, c) keeps every level spectrum, so the bound of the sorted
    metric a >= b >= c holds for every ordering.  There the left endpoints
    of level n are G(n, k) and G(n, n-k) (the parity dictionary of
    :class:`GershgorinTable`), so the level's bound is the minimum of
    G(n, k) over k = 0..n, a quadratic A k^2 + (B - A n) k + const in k with

        A = 4(a^2 - b^2) >= 0,    B = 4(aC + cC - ab - bc).

    Where A > 0 its vertex is n/2 - B/(2A), and with g = floor(-B/A), one
    integer computed exactly on the stored doubles, the minimum over the
    integers lies at floor((n + g)/2) or the row after it, clipped to
    [0, n]; where A = 0 it lies at k = 0 or k = n.  Each level evaluates
    :func:`_G` in doubles at these four rows.

    Rounding.  With u = 2^-53 and n < 2^26 (so every integer factor is
    exact), each of the six terms of :func:`_G` carries at most five
    rounding factors (1 + delta), |delta| <= u, and their sum five more, so
    a double G(n, k) is off from the exact one by at most gamma_10 W,
    gamma_10 = 10u/(1 - 10u), W the sum of the terms' absolute values.
    With T = an + C and V = (b + c)(n + 1), term by term
    W <= T^2 + 1.5 V^2 + 4TV <= 2 S_n, S_n = (T + V)^2.  The exact minimum
    row is a candidate, so the level's bound is within 21u S_n of the exact
    Gershgorin minimum.  Gradual underflow, an error of at most 2^-1075 per
    product, adds at most u S_n + 16 (n + 1)^2 2^-1075, and
    :func:`_rounding_allowance` exceeds the sum.  Where a row leaves the
    double range the level's bound is inf or nan, silently; callers must
    not prune on a non-finite bound.  A negative level raises
    :class:`DomainError`, and so do levels whose array is not of integer
    dtype (2.5 or "3" is refused, not truncated).
    """
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    ns = np.asarray(levels)
    if not len(ns):
        return np.zeros(0)
    if not np.issubdtype(ns.dtype, np.integer):
        raise DomainError(f"levels must be integers, got an array of dtype {ns.dtype}")
    ns = ns.astype(np.int64)
    if ns.min() < 0:
        raise DomainError(f"level must be nonnegative, got {int(ns.min())}")
    far = 2 * int(ns.max()) + 4  # a step beyond it clips both vertex rows to 0 or n
    g = -far
    if a > b and math.isfinite(ms.C):
        (p, q, r, P), _ = _integers(a, b, c, ms.C)
        g = max(-far, min(far, (p * q + q * r - (p + r) * P) // (p * p - q * q)))
    k = np.clip(np.stack([np.zeros_like(ns), ns, (ns + g) // 2, (ns + g) // 2 + 1], axis=1), 0, ns[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        return _G(a, b, c, ms.C, ns[:, None].astype(float), k.astype(float)).min(axis=1)


def _rounding_allowance(m, levels):
    """(2^-24 sqrt(S_n))^2 + 2^-1060 (n + 1)^2 for each n in ``levels``: more
    than the rounding of :func:`level_bounds`, its own rounding included."""
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    n = np.asarray(levels, dtype=float)
    with np.errstate(over="ignore"):
        return (2.0 ** -24 * (a * n + ms.C + (b + c) * (n + 1))) ** 2 + 2.0 ** -1060 * (n + 1) ** 2


def min_row_bound(m, n):
    """Smallest left endpoint over both blocks of level n, for any
    ordering, from the sorted metric: the one-level case of
    :func:`level_bounds`."""
    return float(level_bounds(m, [_level(n)])[0])


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


def _row(n, k):
    """Level n and row k as ints with 0 <= k <= n; :class:`DomainError` otherwise."""
    n, k = _level(n), _level(k, "index")
    if k > n:
        raise DomainError(f"index {k} outside 0..{n}")
    return n, k


def closed_form_G(m, n, k):
    """Polynomial left endpoint G(n, k); G~(n, k) is G(n, n-k).

    The metric is permuted internally to a >= b >= c (the sign resolutions
    assume b >= c).
    """
    n, k = _row(n, k)
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    return _G(a, b, c, ms.C, n, k)


def triangle_increment(m, n, k):
    """G(n+2, k+1) - G(n, k) in its collapsed form 4*(c^2 n - bC + ac + b^2 + c^2).

    The difference of the two polynomials is independent of k (metric
    sorted internally); ``tests/test_gershgorin.py`` proves the collapse in
    rational arithmetic.
    """
    n, k = _row(n, k)
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    return 4.0 * (c * c * n - b * ms.C + a * c + b * b + c * c)


def _families(a, b, c, C):
    """The base-case families minus C^2 as records (name, n_min, (A, B, D)):
    A n^2 + B n + D, G(n, k) - C^2 along k = n, 0 or 1, must stay positive
    for every level n >= n_min.  A = a^2 - b^2 + c^2, and D and B are read
    off G at n = 0 and n = 1 (exactly on exact input)."""
    A = a * a - b * b + c * c
    records = []
    for name, n_min, k0, k1 in (("G(n,n)-C^2", 1, 0, 1), ("G(n,0)-C^2", 6, 0, 0), ("G(n,1)-C^2", 4, 1, 1)):
        D = _G(a, b, c, C, 0, k0) - C * C
        records.append((name, n_min, (A, _G(a, b, c, C, 1, k1) - C * C - A - D, D)))
    return records


@dataclass(frozen=True)
class CertificationStep:
    """One condition of the certificate, decided and found to hold.

    It is decided exactly, on integers that are a positive multiple of the
    condition (see :func:`certify_fundamental_tone`); one that fails raises
    :class:`CertificationError` and leaves no step.  ``margin`` is the
    margin at the normalized scale (largest entry in [1, 2)), rounded to a
    double, for information only.
    """

    name: str
    detail: str
    margin: float


@dataclass(frozen=True)
class CertificationTrace:
    metric: tuple
    sorted_triple: tuple
    permutation: tuple
    C: float
    mu: float
    scal: float
    steps: tuple

    @property
    def min_margin(self):
        """Smallest margin among the steps, each a condition that depends
        on the metric: what holds for every sorted triple is a lemma of
        :func:`certify_fundamental_tone`, not a step."""
        return min(s.margin for s in self.steps)


def _root_exceeds(u, R, t):
    """Decide u * sqrt(R) > t exactly, for integers (or rationals) u, t and R >= 0."""
    if u >= 0:
        return t < 0 or u * u * R > t * t
    return t < 0 and u * u * R < t * t


def _polyval(coeffs, x, derivative=0):
    """Exact value at x of a derivative of the polynomial with descending ``coeffs`` (Horner)."""
    degree = len(coeffs) - 1
    value = 0
    for i, coeff in enumerate(coeffs[: len(coeffs) - derivative]):
        value = value * x + coeff * math.perm(degree - i, derivative)
    return value


def _plus_root(t, sign, root, R, margin):
    """t + sign root at the scale of ``margin``, t and R >= 0 integers of degrees 1 and 2, root = 2 sqrt(R)
    in doubles; for terms of opposite signs, as (t^2 - 4R)/(t - sign root), whose numerator is exact."""
    if sign * t >= 0:
        return margin(t, 1) + sign * root
    return margin(t * t - 4 * R, 2) / (margin(t, 1) - sign * root)


def _level_conditions(a, b, c, C, margin):
    """The certificate's first table, in order: the regime and levels 2 to
    4 in closed form, as rows (name, detail, value, degree, holds).

    (a, b, c, C) are integers, a positive multiple of the exact values on
    the sorted metric (see :func:`certify_fundamental_tone`).  A row is one
    of two kinds.  An integer row has the integer ``value`` of a condition
    of degree ``degree`` and holds=None: it holds when the integer is
    positive, and its margin is ``margin(value, degree)``.  A root row (level
    3, the tail roots of :func:`_base_conditions`) has degree None, a double
    estimate at the normalized scale as ``value`` and its exact decision in
    ``holds``.  Only conditions that depend on the metric are rows; the facts
    that hold for every sorted triple are the lemmas of
    :func:`certify_fundamental_tone`.  A generator, so no row is evaluated
    after the first that fails.
    """
    s1 = a + b + c

    # 1. regime
    yield "regime:scal>0:3", "factor of the scal product form", scal_factors(a, b, c)[2], 2, None
    yield "regime:C^2<sigma1", "a^2+b^2+c^2 - C^2 (equals scal/8)", a * a + b * b + c * c - C * C, 2, None
    yield "regime:mu>0", "mu", s1 - C, 1, None

    # 2. explicit small levels; levels 2 and 4 at x = 2C (at x = 0 their signs are lemmas)
    yield ("level2:chi2(2C)<0", "level-2 polynomial negative on [0, 2C] (convex, endpoints suffice)",
           -_polyval(_char_poly_coeffs(a, b, c, 2), 2 * C), 3, None)

    lo = 2 * C - s1
    for i, (p, R) in enumerate(_level3_radicals(a, b, c)):
        root = 2 * math.sqrt(margin(R, 2))
        for j, sign in enumerate((-1, 1)):
            outside = max(_plus_root(lo - p, -sign, root, R, margin), _plus_root(p - s1, sign, root, R, margin))
            yield (f"level3:outside:{2 * i + j + 1}", "distance of unshifted eigenvalue to [2C-s1, s1]", outside,
                   None, _root_exceeds(2 * sign, R, s1 - p) or _root_exceeds(-2 * sign, R, p - lo))

    chi4 = _char_poly_coeffs(a, b, c, 4)
    yield ("level4:chi4''(2C)<0", "second derivative negative on [0, 2C] (convex, endpoints suffice)",
           -_polyval(chi4, 2 * C, 2), 3, None)
    yield ("level4:chi4(2C)>0", "level-4 polynomial positive on [0, 2C] (concave there, endpoints suffice)",
           _polyval(chi4, 2 * C), 5, None)


def _base_conditions(a, b, c, C, margin):
    """The certificate's second table, in order: the base case, the
    quadratic tails and the triangle increment, as rows of
    :func:`_level_conditions`'s two kinds.  The table :func:`base_cases`
    decides."""
    mu = a + b + c - C

    # 3. base case, quadratic tails and triangle increment
    value = _G(a, b, c, C, 5, 0)
    detail = f"n=5, k=0: value {margin(value, 2)!r} vs {margin(mu * mu, 2)!r}"
    yield "base:G(5,0)>mu^2", detail, value - mu * mu, 2, None

    for name, n_min, (A, B, D0) in _families(a, b, c, C):
        disc = B * B - 4 * A * D0
        q, t = (A * n_min + B) * n_min + D0, 2 * A * n_min + B
        # the largest root as vertex plus half-width, and n_min minus it as
        # (t - sqrt(disc))/2A, or for t > 0 as 2q/(t + sqrt(disc)), whose
        # numerator is exact; every ratio free of the metric's scale
        largest, below = -math.inf, math.inf
        if disc >= 0:
            half = math.sqrt(_approx(disc, 4 * A * A))
            largest = _approx(-B, 2 * A) + half
            below = _approx(q, A) / (_approx(t, 2 * A) + half) if t > 0 else _approx(t, 2 * A) - half
        yield (f"tail:{name}:root", f"n_min - largest real root (largest root {largest!r})",
               min(below, float(n_min)), None, disc < 0 or (q > 0 and t > 0))

    increment = _G(a, b, c, C, 2, 1) - _G(a, b, c, C, 0, 0)
    yield "increment:n=0", "G(2,1) - G(0,0) = 4*(-bC + ac + b^2 + c^2)", increment, 2, None


def _certificate(m, *tables):
    """Decide the rows of ``tables`` for ``m``, in order, and return the
    trace."""
    ex = m._exact
    p, q, r, P, _, _, _, S2, _ = ex.integers
    if min(scal_factors(p, q, r)) <= 0:
        raise UncertifiableError("certification requires positive scalar curvature; only enumerated minima exist")
    ms, perm = m.sorted()
    D = 2 * P
    a, b, c = ((p, q, r)[i] * D for i in perm)
    unit = D << (max(p, q, r).bit_length() - 1)  # the largest entry over the unit is in [1, 2)
    powers = [unit ** d for d in range(6)]

    def margin(value, degree):
        return _approx(value, powers[degree])

    steps = []
    for table in tables:
        for name, detail, value, degree, holds in table(a, b, c, S2, margin):
            if degree is not None:
                holds = value > 0
                value = margin(value, degree)
            if not holds:
                raise CertificationError(f"{name} fails: margin {value:.3e} ({detail})")
            steps.append(CertificationStep(name, detail, value))
    return CertificationTrace(
        metric=m.triple(),
        sorted_triple=ms.triple(),
        permutation=perm,
        C=ex.C,
        mu=ex.mu,
        scal=ex.scal,
        steps=tuple(steps),
    )


def certify_fundamental_tone(m):
    """Prove, for one metric, that the fundamental tone is mu (sphere, odd
    quotient structure) and C (even structure).

    A fixed list of closed-form conditions in two tables
    (:func:`_level_conditions`, :func:`_base_conditions`), the same for
    every metric with scal > 0, each decided exactly on the stored doubles
    with no tolerance, in one loop; each step of the trace is one of them.
    The integers are the metric's own (``m._exact``, which also reports C,
    mu and scal): (a, b, c) = (p, q, r) 2^e with the shared power of two
    stripped, permuted to a >= b >= c.  With D = 2pqr,
    (pD, qD, rD, p^2 q^2 + q^2 r^2 + r^2 p^2) are D/2^e times the exact
    (a, b, c, C).  A condition homogeneous of degree d in (a, b, c, C) is
    (D/2^e)^d > 0 times its value on these integers, so they decide its
    sign exactly.  Its margin is the integer
    over (D 2^(L-1))^d, L the bit length of max(p, q, r), rounded once: its
    value on the metric normalized to a largest entry in [1, 2), where
    C^2 < a^2+b^2+c^2 < 12, so that no margin overflows and a factor 2^j
    on the metric changes none.  On the sorted metric the rows decide:

    1. the regime: the third scal factor -ab + bc + ca, a^2+b^2+c^2 - C^2
       (scal/8) and mu are positive.  Each holds once the check of
       scal > 0 that precedes the table has passed; they stay rows so that
       the table can be decided without that check;
    2. levels 2 to 4 in closed form: chi_2(2C) < 0, chi_4''(2C) < 0 and
       chi_4(2C) > 0.  With the lemmas at x = 0 and convexity on [0, 2C]
       (chi_2'' = 6x >= 0, chi_4'''' = 120x >= 0), the level-2 polynomial
       is negative there and the level-4 one, concave there, positive.
       Every level-3 eigenvalue keeps its distance (the radicals decided by
       squaring);
    3. the base case G(5,0) > mu^2, the quadratic tails (each family minus
       C^2 has no real root at or beyond its n_min) and the triangle
       increment at n = 0 (the second table, which :func:`base_cases`
       decides alone).

    Lemmas.  The rest of the argument holds for every triple a >= b >= c > 0
    (s1 = a + b + c, C = (a^2 b^2 + b^2 c^2 + c^2 a^2)/(2abc),
    mu = s1 - C), so it is proved once, not decided per metric;
    ``tests/test_certificate.py`` checks every identity below exactly, as
    integer polynomials:

    - two scal factors: ab + bc - ca = a(b - c) + bc > 0 and
      ab - bc + ca = b(a - c) + ca > 0;
    - C > max(a, b, c) = a: 2abc(C - a) = a^2 (b - c)^2 + b^2 c^2 > 0.  With
      b >= c this resolves the absolute values of :func:`_G`;
    - level 0: both blocks are the 1x1 matrix (-C), and
      2abc(2C - s1) = 2(a^2 b^2 + b^2 c^2 + c^2 a^2) - 2abc(a + b + c)
      = (ab - bc)^2 + (bc - ca)^2 + (ca - ab)^2 >= 0, so |-C| = C >= mu,
      with equality exactly on the round line a = b = c (where ``smallest``
      reports multiplicity 4);
    - level 1: the eigenvalues are mu and e_x = 2x - s1 - C for x = a, b, c,
      and e_x = -(C - x) - (s1 - x) < 0, so the gaps |e_x| - mu are
      2(C - a), 2(C - b) and 2(C - c), all > 0;
    - the left ends: chi_2(0) = -16abc < 0, chi_4''(0) = -160abc < 0 and
      chi_4(0) = 768abc(a^2 + b^2 + c^2) > 0;
    - the base identities G(0,0) = C^2 and G(1,0) = (a + b + c - C)^2 = mu^2;
    - the tails: along k = n, 0 and 1, G - C^2 is A n^2 + B n + D with
      A = a^2 - b^2 + c^2 = (a - b)(a + b) + c^2 > 0, one lemma per family.
      The tail-root decisions rely on it: they divide by A, and a quadratic
      that opens upwards stays positive beyond its largest root;
    - the increment: G(n+2, k+1) - G(n, k) = 4(c^2 n - bC + ac + b^2 + c^2)
      for every k, so it grows by 4c^2 > 0 per level and its row at n = 0
      decides it at every level.

    The trace's C, mu and scal are exact in the metric's units and rounded
    once, as :func:`invariants` reports them.  A failed condition raises
    :class:`CertificationError` naming the first row that fails; a metric
    without positive scalar curvature raises :class:`UncertifiableError`.
    """
    return _certificate(m, _level_conditions, _base_conditions)


def base_cases(m):
    """Decide the base cases and the triangle increment for every level.

    The certificate's second table (:func:`_base_conditions`), decided as
    :func:`certify_fundamental_tone` decides it: G(5,0) > mu^2; each
    family minus C^2, a quadratic q(n), has no real root at or beyond n_min
    (negative discriminant, or q(n_min) > 0 and q'(n_min) > 0); the
    increment G(2,1) - G(0,0) is positive.  G(0,0) = C^2, G(1,0) = mu^2,
    the leading coefficient A > 0 of each q and the growth of the increment
    by 4c^2 per level are lemmas of every sorted triple, not rows.
    Every quantity is of degree 2 in (a, b, c, C), and a root position is a
    ratio of two.  Returns a :class:`CertificationTrace` of those rows.
    Raises :class:`UncertifiableError` unless scal > 0, and
    :class:`CertificationError` naming a check that fails.
    """
    return _certificate(m, _base_conditions)


@dataclass(frozen=True)
class GershgorinTable:
    """The left endpoints G and G~ of one level, and the row bounds of both
    blocks.

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
    """Tabulate G, G~ and the row bounds of level n, from :func:`_G`.

    A level that is not a nonnegative integer raises :class:`DomainError`;
    a row that leaves the double range raises :class:`ConsistencyError`,
    since inf or nan bounds nothing.
    """
    n = _level(n)
    ms, perm = m.sorted()
    a, b, c = ms.triple()
    k = np.arange(n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are refused below
        G = _G(a, b, c, ms.C, n, k)
        Gt = _G(a, b, c, ms.C, n, n - k)
    finite = np.isfinite(G) & np.isfinite(Gt)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ConsistencyError(f"left endpoint is not finite at (n={n}, k={j}): G {G[j]!r}, G~ {Gt[j]!r}")
    even = k % 2 == 0
    return GershgorinTable(
        metric=m.triple(),
        sorted_triple=ms.triple(),
        permutation=perm,
        level=n,
        G=G,
        Gtilde=Gt,
        row_bounds_A=np.where(even, G, Gt),
        row_bounds_B=np.where(even, Gt, G),
    )
