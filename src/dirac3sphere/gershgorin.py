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

The increment G(n+2, k+1) - G(n, k) is independent of k, and the row
``increment:n=0`` decides that it is positive; it propagates the base cases

    G(0,0) = C^2            G(n,n) > C^2  (n >= 1)
    G(n,0) > C^2  (n >= 6)  G(n,1) > C^2  (n >= 4)
    G(1,0) = mu^2           G(5,0) > mu^2

to every level: each of the three families minus C^2 is a quadratic in n,
and the increment is linear in n with slope 4c^2.  The two equalities,
G(n,n) > C^2, the positive leading coefficient of the families and the
positive slope hold for every sorted triple; the other three inequalities
are rows of the certificate.
``level_bounds`` bounds every level from G too, for any ordering, from the
sorted metric: G is a quadratic in k, so four rows per level, k = 0, n and
two at its vertex.

``certify_fundamental_tone`` proves the fundamental tone of one metric with
scal > 0: an exact gate, then the rows of two tables, each decided exactly
on the metric's own integers; its docstring holds the proof, and the tests
prove every row on the whole scal > 0 region.  ``base_cases`` decides the
second table alone.  The closed forms sort the metric internally (an
isometric relabeling) and record the permutation.

``smallest`` answers scal > 0 by the certificate's theorem after its gate
alone, and lives here with it.  The module imports no numpy at load time;
``level_bounds`` (so ``min_row_bound``), ``gershgorin_table`` and the
enumerated branch of ``smallest`` import it when they run.
"""

import math
import operator
from dataclasses import dataclass

from .errors import CertificationError, ConsistencyError, DomainError, UncertifiableError, UnsupportedLevelError
from .metric import POSITIVE, S3, SO3_TRIVIAL, SPECTRUM_MANIFOLDS, _integers


def _level(n, what="level"):
    """``n`` as a nonnegative int, for a level or an index into one;
    anything else, a bool included, raises :class:`DomainError`."""
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None
    if n < 0:
        raise DomainError(f"{what} must be nonnegative, got {n}")
    return n


def _below_level_limit(n, what="level"):
    """``n`` (an int) below 2^26, where :func:`level_bounds` proves its rounding; else :class:`DomainError`."""
    if n >= 2 ** 26:
        raise DomainError(f"{what} must be below 2^26 for a proved rounding allowance, got {n}")
    return n


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
    :class:`DomainError`, and so do a level of 2^26 or more (the rounding
    above is proved below it only) and levels whose array is not of
    integer dtype (2.5 or "3" is refused, not truncated).
    """
    import numpy as np

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
    far = 2 * _below_level_limit(int(ns.max())) + 4  # a step beyond it clips both vertex rows to 0 or n
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
    import numpy as np

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


_FAMILIES = (("G(n,n)-C^2", 1, 0, 1), ("G(n,0)-C^2", 6, 0, 0), ("G(n,1)-C^2", 4, 1, 1))


def _family(a, b, c, C, k0, k1):
    """(A, B, D) of the quadratic A n^2 + B n + D in n that is one
    base-case family, G(n, k) - C^2 along k = n, 0 or 1, where k is k0 at
    n = 0 and k1 at n = 1.

    ``_FAMILIES`` lists the three as records (name, n_min, k0, k1): each
    must stay positive for every level n >= n_min.  The G(n,n) family is a
    lemma of :func:`certify_fundamental_tone`; the other two are rows.
    A = a^2 - b^2 + c^2, and D and B are read off G at n = 0 and n = 1
    (exactly on exact input)."""
    A = a * a - b * b + c * c
    D = _G(a, b, c, C, 0, k0) - C * C
    return A, _G(a, b, c, C, 1, k1) - C * C - A - D, D


@dataclass(frozen=True)
class CertificationStep:
    """One condition of the certificate, decided and found to hold.

    It is decided exactly, on integers that are a positive multiple of the
    condition (see :func:`certify_fundamental_tone`); one that fails raises
    :class:`CertificationError` and leaves no step.  ``margin`` is the
    degree-th root of the condition's value at the normalized scale
    (largest entry in [1, 2)), within an ulp or two (:func:`_margin`), for
    information only: a length, so that rows of degrees 1 to 5 compare.
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
        """Smallest margin among the steps, every one a length at one
        scale: the relatively tightest row for this metric.  Neither the
        lemmas of :func:`certify_fundamental_tone` nor its gate sets it."""
        return min(s.margin for s in self.steps)


def _polyval(coeffs, x, derivative=0):
    """Exact value at x of a derivative of the polynomial with descending ``coeffs`` (Horner)."""
    degree = len(coeffs) - 1
    value = 0
    for i, coeff in enumerate(coeffs[: len(coeffs) - derivative]):
        value = value * x + coeff * math.perm(degree - i, derivative)
    return value


def _char_poly_coeffs(a, b, c, n):
    """chi_2 or chi_4 coefficients (descending), for floats or exact rationals."""
    s = a * a + b * b + c * c
    abc = a * b * c
    if n == 2:
        return [1, 0, -4 * s, -16 * abc]
    if n == 4:
        quart = a ** 4 + b ** 4 + c ** 4 + 4 * (a * a * b * b + b * b * c * c + c * c * a * a)
        return [1, 0, -20 * s, -80 * abc, 64 * quart, 768 * abc * s]
    raise UnsupportedLevelError(f"characteristic polynomial in closed form only at n = 2, 4 (got {n})")


def _level3_radicals(a, b, c):
    """Level-3 unshifted eigenvalues as pairs (p, R) for p -+ 2 sqrt(R).

    Every R >= 0, a lemma of ``certify_fundamental_tone`` that needs no
    scal > 0: the third is ((a - b)^2 + (b - c)^2 + (c - a)^2)/2, and each
    other one is x^2 - xy + y^2 > 0 for two of the entries plus the
    positive rest.
    """
    s = a * a + b * b + c * c
    ab, bc, ca = a * b, b * c, c * a
    return [
        (a + b - c, s - ab + bc + ca),
        (a - b + c, s + ab + bc - ca),
        (-a - b - c, s - ab - bc - ca),
        (-a + b + c, s + ab - bc + ca),
    ]


def _level3_pair(p, R, C, mu):
    """(alpha, alpha^2 - 16 (p - C)^2 R), alpha = (p - C)^2 + 4R - mu^2, for
    one level-3 pair (p, R) of :func:`_level3_radicals`: the half-sum and
    the product of l^2 - mu^2 over its shifted eigenvalues l (degrees 2, 4)."""
    t2 = (p - C) * (p - C)
    alpha = t2 + 4 * R - mu * mu
    return alpha, alpha * alpha - 16 * t2 * R


def _level_conditions(a, b, c, C):
    """The certificate's first table, in order: mu > 0 and levels 2 to 4
    in closed form, as rows (name, detail, value, degree).

    (a, b, c, C) are a positive multiple of the exact values on the sorted
    metric: integers in the certificate (see
    :func:`certify_fundamental_tone`), polynomials in the tests.  Every row
    is of one kind: ``value`` is homogeneous of degree ``degree`` in
    (a, b, c, C), built with +, - and x alone, and the row holds when it is
    positive.  Only conditions that depend on the metric are rows: scal > 0
    is the gate that :func:`_certificate` decides before the first row, and
    the facts that hold for every sorted triple are the lemmas of
    :func:`certify_fundamental_tone`.  A generator, so no row is evaluated
    after the first that fails.
    """
    # 1. regime: scal > 0 is the gate; mu > 0 is a row
    mu = a + b + c - C
    yield "regime:mu>0", "mu", mu, 1

    # 2. explicit small levels; levels 2 and 4 at x = 2C (at x = 0 their signs are lemmas)
    yield ("level2:chi2(2C)<0", "level-2 polynomial negative on [0, 2C] (convex, endpoints suffice)",
           -_polyval(_char_poly_coeffs(a, b, c, 2), 2 * C), 3)

    radicals = _level3_radicals(a, b, c)
    for i in (1, 2, 4):  # every alpha, and the product of pair 3, are lemmas
        yield (f"level3:pair:{i}", "product of l^2 - mu^2 over the pair's two shifted eigenvalues l",
               _level3_pair(*radicals[i - 1], C, mu)[1], 4)

    chi4 = _char_poly_coeffs(a, b, c, 4)
    yield ("level4:chi4''(2C)<0", "second derivative negative on [0, 2C] (convex, endpoints suffice)",
           -_polyval(chi4, 2 * C, 2), 3)
    yield ("level4:chi4(2C)>0", "level-4 polynomial positive on [0, 2C] (concave there, endpoints suffice)",
           _polyval(chi4, 2 * C), 5)


def _base_conditions(a, b, c, C):
    """The certificate's second table, in order: the base case, the
    quadratic tails and the triangle increment, as rows of
    :func:`_level_conditions`'s one kind.  The table :func:`base_cases`
    decides."""
    mu = a + b + c - C

    # 3. base case, quadratic tails and triangle increment
    yield "base:G(5,0)>mu^2", "G(5,0) - mu^2", _G(a, b, c, C, 5, 0) - mu * mu, 2

    for name, n_min, k0, k1 in _FAMILIES[1:]:  # the G(n,n) family is a lemma
        A, B, D = _family(a, b, c, C, k0, k1)
        yield f"tail:{name}:q({n_min})>0", "A n^2 + B n + D at n_min", (A * n_min + B) * n_min + D, 2
        yield f"tail:{name}:q'({n_min})>0", "2A n + B at n_min (A > 0, so q grows from there)", 2 * A * n_min + B, 2

    increment = _G(a, b, c, C, 2, 1) - _G(a, b, c, C, 0, 0)
    yield "increment:n=0", "G(2,1) - G(0,0) = 4*(-bC + ac + b^2 + c^2)", increment, 2


def _margin(value, den, degree):
    """The real degree-th root of value / den (ints, den > 0), its sign kept,
    within two ulps: the quotient rounded once, its root taken in doubles.
    Outside (2^-16, 2^16) the quotient is first scaled by 2^(degree k) into
    (2^-(degree+1), 2) and the root back by 2^-k, so that the rounding of
    1/degree stays below an ulp and nothing underflows before the root."""
    if value <= 0:
        return -_margin(-value, den, degree) if value else 0.0
    x = value / den
    if 2.0 ** -16 < x < 2.0 ** 16:
        return x ** (1 / degree)
    k = (den.bit_length() - value.bit_length()) // degree
    x = (value << degree * k) / den if k >= 0 else value / (den << -degree * k)
    return math.ldexp(x ** (1 / degree), -k)


def _gate(m):
    """``m._exact`` once its exact sign of scal is positive, for the
    certificate and :func:`smallest`; :class:`UncertifiableError` otherwise."""
    ex = m._exact
    if ex.sign != POSITIVE:
        raise UncertifiableError("certification requires positive scalar curvature; only enumerated minima exist")
    return ex


def _certificate(m, *tables):
    """Decide the rows of ``tables`` for ``m``, in order, after the gate,
    and return the trace."""
    ex = _gate(m)
    p, q, r, P, _, _, _, S2, _ = ex.integers
    ms, perm = m.sorted()
    D = 2 * P
    a, b, c = ((p, q, r)[i] * D for i in perm)
    unit = D << (max(p, q, r).bit_length() - 1)  # the largest entry over the unit is in [1, 2)
    powers = [unit ** d for d in range(6)]  # every row is of degree 1 to 5

    steps = []
    for table in tables:
        for name, detail, value, degree in table(a, b, c, S2):
            margin = _margin(value, powers[degree], degree)
            if value <= 0:
                raise CertificationError(f"{name} fails: margin {margin:.3e} ({detail})")
            steps.append(CertificationStep(name, detail, margin))
    return CertificationTrace(metric=m.triple(), sorted_triple=ms.triple(), permutation=perm,
                              C=ex.C, mu=ex.mu, scal=ex.scal, steps=tuple(steps))


def certify_fundamental_tone(m):
    """Prove, for one metric, that the fundamental tone is mu (sphere, odd
    quotient structure) and C (even structure).

    A fixed list of closed-form conditions in two tables
    (:func:`_level_conditions`, :func:`_base_conditions`), the same for
    every metric with scal > 0, each decided exactly on the metric as
    written (:class:`~dirac3sphere.metric.Metric`) with no tolerance, in
    one loop; each step of the trace is one of them.  The integers are the
    metric's own (``m._exact``, which also reports C, mu and scal):
    (a, b, c) = (p, q, r) s with s > 0 rational (a power of two for
    doubles), permuted to a >= b >= c by the exact order of
    :meth:`~dirac3sphere.metric.Metric.sorted`.  With D = 2pqr,
    (pD, qD, rD, p^2 q^2 + q^2 r^2 + r^2 p^2) are D/s times the exact
    (a, b, c, C).  A condition homogeneous of degree d in (a, b, c, C) is
    (D/s)^d > 0 times its value on these integers, so they decide its
    sign exactly, and every row is such a condition.  Its margin is the
    d-th root of the integer over (D 2^(L-1))^d, L the bit length of
    max(p, q, r), in doubles (:func:`_margin`): the root of its value on
    the metric scaled to a largest entry in [1, 2), where
    C^2 < a^2+b^2+c^2 < 12 (the first by the gate, below), so that no
    margin overflows, a factor 2^j on the metric changes none, and the
    smallest names the relatively tightest row.

    The gate.  Before the first row, :func:`_gate` requires the exact sign
    of scal, ``m._exact.sign`` (as ``scal_sign_classification`` reports
    it), to be positive: the one decision of scal > 0.  It is the sign of
    F = 4P^2 (X + Y + Z) - S2^2 (:class:`~dirac3sphere.metric._Exact`), and
    F = f1 f2 f3 (pq + qr + rp) for the three scal factors
    f1 = pq + qr - rp, f2 = pq - qr + rp, f3 = -pq + qr + rp.  On a sorted
    triple f1 and f2 are lemmas, so the gate is f3 = -ab + bc + ca > 0,
    and as F/(4P^2) = X + Y + Z - C^2 at the integers' scale it gives
    C^2 < a^2 + b^2 + c^2 (scal/8 > 0) too.  Neither condition is a row.

    Rows, on the sorted metric:

    1. mu > 0;
    2. levels 2 to 4 in closed form: chi_2(2C) < 0, chi_4''(2C) < 0 and
       chi_4(2C) > 0; at level 3, for pairs 1, 2 and 4, the product
       alpha^2 - 16(p - C)^2 R of :func:`_level3_pair`;
    3. the base case G(5,0) > mu^2; for the G(n,0) and G(n,1) families, each
       a quadratic q(n) = A n^2 + B n + D, q(n_min) > 0 and
       q'(n_min) = 2A n_min + B > 0; the triangle increment at n = 0 (the
       second table, which :func:`base_cases` decides alone).

    Lemmas.  The rest of the argument holds for every triple a >= b >= c > 0
    (s1 = a + b + c, C = (a^2 b^2 + b^2 c^2 + c^2 a^2)/(2abc),
    mu = s1 - C), so it is proved once, not decided per metric;
    ``tests/test_certificate.py`` checks every lemma below exactly, as
    integer polynomials, on the library's own code:

    - two scal factors: ab + bc - ca = a(b - c) + bc > 0 and
      ab - bc + ca = b(a - c) + ca > 0;
    - C > max(a, b, c) = a: 2abc(C - a) = a^2 (b - c)^2 + b^2 c^2 > 0;
    - level 0: 2abc(2C - s1) = 2(a^2 b^2 + b^2 c^2 + c^2 a^2) - 2abc(a + b + c)
      = (ab - bc)^2 + (bc - ca)^2 + (ca - ab)^2 >= 0, so C >= mu, with
      equality exactly on the round line a = b = c (where ``smallest``
      reports multiplicity 4);
    - level 1: the eigenvalues are mu and e_x = 2x - s1 - C for x = a, b, c,
      and e_x = -(C - x) - (s1 - x) < 0, so the gaps |e_x| - mu are
      2(C - a), 2(C - b) and 2(C - c), all > 0;
    - the left ends: chi_2(0) = -16abc < 0, chi_4''(0) = -160abc < 0 and
      chi_4(0) = 768abc(a^2 + b^2 + c^2) > 0;
    - the base identities G(0,0) = C^2 and G(1,0) = (a + b + c - C)^2 = mu^2;
    - the tails: along k = n, 0 and 1, G - C^2 is A n^2 + B n + D with
      A = a^2 - b^2 + c^2 = (a - b)(a + b) + c^2 > 0, one lemma per family;
    - the increment: G(n+2, k+1) - G(n, k) = 4(c^2 n - bC + ac + b^2 + c^2)
      for every k, so it grows by 4c^2 > 0 per level;
    - by their coefficients: R >= 0 for all four level-3 pairs (the third
      is 0 exactly on the round line, the others are > 0), alpha > 0 for
      all four, the product of pair 3 (p = -s1), and q(1) > 0 and
      q'(1) > 0 for the G(n,n) family.  Each is a polynomial with no
      negative coefficient (and, but for the third R, a positive constant
      term) in x, z >= 0, where (a, b, c) = (1 + x + z, 1 + z, 1) is every
      sorted triple up to scale.

    The argument, part by part, with the rows and lemmas each uses.  l is
    an eigenvalue of the level-n operator and x = l + C one of its
    unshifted block, so |l| <= C exactly when x lies in [0, 2C]:

    - level 0: both blocks are the 1x1 matrix (-C); the lemma C >= mu;
    - level 1: the level-1 lemma; the row mu > 0 makes mu = |mu| the
      smallest |l|;
    - level 2: the lemmas chi_2(0) < 0 and chi_2'' = 6x >= 0 on [0, 2C],
      the row chi_2(2C) < 0: chi_2 is negative on [0, 2C], so every |l| > C;
    - level 3: the lemma R >= 0 makes the pair's shifted eigenvalues
      l = (p - C) +- 2 sqrt(R) real, with l^2 - mu^2 =
      alpha +- 4(p - C) sqrt(R).  Both are positive exactly when the
      half-sum alpha and the product alpha^2 - 16(p - C)^2 R are: the
      lemmas on every alpha and on the product of pair 3, the rows on
      pairs 1, 2 and 4.  The row mu > 0 then gives |l| > mu;
    - level 4: the lemmas chi_4''(0) < 0, chi_4(0) > 0 and
      chi_4'''' = 120x >= 0 on [0, 2C], the rows chi_4''(2C) < 0 and
      chi_4(2C) > 0: chi_4'' is negative on [0, 2C], so chi_4 is concave
      there and positive, and every |l| > C;
    - levels n >= 5, the Gershgorin sign resolution: the lemma C > a, with
      b >= c from the sort, resolves the absolute values of :func:`_G`, so
      every l^2 is at least the smallest G(n, k), 0 <= k <= n;
    - the base cases: the lemmas G(0,0) = C^2 and G(1,0) = mu^2, the row
      G(5,0) > mu^2;
    - the tails: the lemma A > 0 with the rows q(n_min) > 0 and
      q'(n_min) > 0 keeps q' and then q positive for every n >= n_min, for
      G(n,0) from n = 6 and G(n,1) from n = 4; the G(n,n) lemmas do the
      same from n = 1;
    - the increment: the row at n = 0 and the slope lemma make it positive
      at every n, so G grows along (n, k) -> (n + 2, k + 1).  That line
      keeps j = n - 2k and, below a level n >= 5, passes G(j, 0) for j in
      {0, 1, 5}, G(j + 2, 1) for j in 2..4, the G(n,0) tail for j >= 6 and
      the G(n,n) tail for j < 0.  So G(n, k) > C^2 at even n and > mu^2 at
      odd n, and as C >= mu > 0 every |l| > C at even n and > mu at odd n.

    Neither scal > 0 nor C^2 < a^2 + b^2 + c^2 appears in any part: the
    gate is their one decision, and the margin scale above their one other
    use.

    Theorem.  The tests run both tables the same way on (a, b, c) =
    (1 + x, 1, (1 + x + w)/(2 + x)), w = 1/(1 + z), which for x, z >= 0 is
    every sorted triple with scal > 0 up to scale, and find every row
    positive.  So every metric with scal > 0 passes: its fundamental tone
    is mu on the sphere and the odd quotient structure and C on the even
    one, and :func:`smallest` answers by this theorem after the gate alone.
    This function decides the rows for one metric, to report its margins.

    The trace's C, mu and scal are exact in the metric's units and rounded
    once, as :func:`invariants` reports them.  A failed condition raises
    :class:`CertificationError` naming the first row that fails; a metric
    without positive scalar curvature raises :class:`UncertifiableError`.
    """
    return _certificate(m, _level_conditions, _base_conditions)


def base_cases(m):
    """Decide the base cases and the triangle increment for every level.

    The certificate's second table (:func:`_base_conditions`), decided as
    :func:`certify_fundamental_tone` decides it, in six rows of degree 2:
    G(5,0) > mu^2; q(n_min) > 0 and q'(n_min) > 0 for the G(n,0) and G(n,1)
    families minus C^2, each a quadratic q(n); the increment
    G(2,1) - G(0,0) > 0.  Returns a :class:`CertificationTrace` of those
    rows; raises :class:`UncertifiableError` unless scal > 0, and
    :class:`CertificationError` naming a check that fails.
    """
    return _certificate(m, _base_conditions)


@dataclass(frozen=True)
class SmallestEigenvalueReport:
    """Smallest |eigenvalue| of one operator, with provenance.

    ``certified`` is True exactly when scal > 0, where the theorem of
    :func:`certify_fundamental_tone` proves the closed-form value.
    ``max_level`` is the enumeration cutoff of a numerical value, else None.
    """

    manifold: str
    metric: tuple
    value: float
    multiplicity_d_squared: int
    certified: bool
    method: str
    max_level: object


def smallest(m, manifold, certify=False, max_level=25):
    """Smallest absolute eigenvalue of the chosen operator.

    The certificate's gate decides first, by the exact sign of scal.  With
    scal > 0 the theorem of :func:`certify_fundamental_tone` gives the
    value, certified with no row decided: mu (sphere and odd structure) or
    C (even structure), with squared-operator multiplicity 4 exactly on the
    round line of the sphere and 2 otherwise, with ``certify=False`` too.

    Otherwise the gate refuses with :class:`UncertifiableError`, which is
    raised with ``certify`` true ("certified or refused"); with ``certify``
    false (the default) the value is the enumerated minimum over levels
    <= max_level (:func:`~dirac3sphere.spectrum.enumerated_min_abs`), never
    certified, computed at the normalized scale (largest entry in [1, 2))
    and scaled back once, so it is covariant under 2^j bit for bit; only
    then are the float layers, numpy among them, imported.  An unknown
    manifold raises :class:`DomainError`.
    """
    if manifold not in SPECTRUM_MANIFOLDS:
        raise DomainError(f"unknown manifold {manifold!r}; expected one of {SPECTRUM_MANIFOLDS}")
    try:
        ex = _gate(m)
    except UncertifiableError:
        if certify:
            raise
        ex = None
    if ex is None:
        from .spectrum import enumerated_min_abs

        value, mult, _ = enumerated_min_abs(m, manifold, max_level=max_level)
        method, cutoff = "enumeration", int(max_level)
    else:
        value = ex.C if manifold == SO3_TRIVIAL else ex.mu
        mult = 4 if manifold == S3 and m.is_round() else 2
        method, cutoff = "closed-form", None
    return SmallestEigenvalueReport(manifold=manifold, metric=m.triple(), value=value, multiplicity_d_squared=mult,
                                    certified=ex is not None, method=method, max_level=cutoff)


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
    G: "numpy.ndarray"
    Gtilde: "numpy.ndarray"
    row_bounds_A: "numpy.ndarray"
    row_bounds_B: "numpy.ndarray"


def gershgorin_table(m, n):
    """Tabulate G, G~ and the row bounds of level n, from :func:`_G`.

    A level that is not a nonnegative integer raises :class:`DomainError`;
    a row that leaves the double range raises :class:`ConsistencyError`,
    since inf or nan bounds nothing.
    """
    import numpy as np

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
