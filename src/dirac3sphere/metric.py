"""Left-invariant metrics on the 3-sphere and their closed-form invariants.

A metric is encoded by a positive triple (a, b, c): the quaternionic frame
{a*i, b*j, c*k} of left-invariant fields is declared orthonormal.  For these
homogeneous metrics every curvature and volume quantity reduces to a closed
form in (a, b, c); this module collects them all, since the same scalars
drive the spectral bounds and the reconstruction routines elsewhere.

Two scalars appear everywhere downstream:

    C  = (ab/c + bc/a + ca/b) / 2      (diagonal shift of every level block)
    mu = a + b + c - C                 (fundamental tone when scal > 0)

Every reported scalar is exact: evaluated in integers on the metric as
written (an entry given as a rational exactly, any other as its double) and
rounded once (a volume or heat coefficient: its rational factor, times
pi^2).  The sign of scal is decided there too, once, with no tolerance.
The one float formula left is :attr:`Metric.C`, the diagonal shift every
block row and Gershgorin bound is built from.

Permuting (a, b, c) gives an isometric metric; nothing here sorts the triple
silently.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

# Spaces and spin-structure labels.  ``S3`` carries a unique spin structure;
# the quotient SO(3) carries two, selecting even/odd levels respectively.
S3 = "s3"
SO3 = "so3"
SO3_TRIVIAL = "so3-trivial"
SO3_NONTRIVIAL = "so3-nontrivial"
SPECTRUM_MANIFOLDS = (S3, SO3_TRIVIAL, SO3_NONTRIVIAL)

#: complex dimension of the spinor space in three dimensions
DIM_SPINOR = 2

POSITIVE = "positive"
ZERO = "zero"
NEGATIVE = "negative"


def _volume_space(manifold):
    if manifold == S3:
        return S3
    if manifold in (SO3, SO3_TRIVIAL, SO3_NONTRIVIAL):
        return SO3
    raise DomainError(f"unknown manifold {manifold!r}")


def shift_C(a, b, c):
    """The shift C = (ab/c + bc/a + ca/b)/2, for floats or exact rationals."""
    return (a * b / c + b * c / a + c * a / b) / 2


def _integers(*xs):
    """The exact rationals ``xs`` (doubles, ints or ``Fraction``s) over one
    denominator, the lcm Q of theirs: each x = p/q, so x Q = p (Q/q) is an
    integer.  Returns (the integers, Q); for doubles Q is the largest power
    of two among their denominators."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _approx(value, scale=1):
    """Nearest double of value / scale, +-inf beyond the double range.

    For ints, Python's true division rounds the exact quotient correctly,
    so an exact value is rounded once.
    """
    try:
        return value / scale
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class _Exact:
    """Every closed-form scalar of the metric as written, exact and rounded
    once, and the sign of scal.

    With (a, b, c) = (p, q, r) 2^e / v (:func:`_integers`, the shared power
    of two of the integers and of their denominator moved into e, v the odd
    part of the denominator; v = 1 for doubles), P = pqr and
    (X, Y, Z) = (p^2, q^2, r^2), a scalar of degree d in (a, b, c) is an
    integer over a monomial in P, times (2^e / v)^d:
    C = (XY + YZ + ZX) / 2P, scal = 2F / P^2 with
    F = 4P^2 (X + Y + Z) - (XY + YZ + ZX)^2,
    K12 = (2(X + Y - Z) XYZ + Y^2 Z^2 + Z^2 X^2 - 3X^2 Y^2) / P^2 and
    cyclically, |Ric|^2 and |Riem|^2 over P^4, the sphere's volume
    2/P (2^e / v)^(-3) times pi^2.  ``sign`` is the sign of F, which is the
    sign of scal: the one decision of it, with "zero" exactly when scal = 0.
    C, mu, scal and the sign are evaluated at once, the rest (``full``) on
    first use.
    """

    def __init__(self, a, b, c):
        (p, q, r), den = _integers(a, b, c)
        t = min((x & -x).bit_length() for x in (p, q, r)) - 1
        k = (den & -den).bit_length() - 1
        p, q, r, self.e, self.v = p >> t, q >> t, r >> t, t - k, den >> k
        P, X, Y, Z = p * q * r, p * p, q * q, r * r
        S2 = X * Y + Y * Z + Z * X
        F = 4 * P * P * (X + Y + Z) - S2 * S2
        self.integers = p, q, r, P, X, Y, Z, S2, F
        self.sign = POSITIVE if F > 0 else ZERO if F == 0 else NEGATIVE
        self.C = self.rounded(S2, 2 * P, 1)
        self.mu = self.rounded(2 * P * (p + q + r) - S2, 2 * P, 1)
        self.scal = self.rounded(2 * F, P * P, 2)

    def rounded(self, num, den, degree):
        if degree > 0:
            den *= self.v ** degree
        else:
            num *= self.v ** -degree
        shift = degree * self.e
        return _approx(num << shift, den) if shift >= 0 else _approx(num, den << -shift)

    @functools.cached_property
    def full(self):
        """(:class:`MetricInvariants`, {space: :class:`HeatInvariants`})."""
        p, q, r, P, X, Y, Z, S2, F = self.integers
        rounded, P2, xy, yz, zx = self.rounded, P * P, X * Y, Y * Z, Z * X
        base = 2 * (X + Y + Z) * P2 + xy * xy + yz * yz + zx * zx
        # numerators of K12, K23, K31: 2(X + Y - Z) XYZ = 2(X + Y + Z) P^2 - 4XY Z^2, and cyclically
        K = [base - 4 * u * (u + w * w) for u, w in ((xy, Z), (yz, X), (zx, Y))]
        ric = sum((K[i] + K[i - 1]) ** 2 for i in range(3))
        riem = 4 * (K[0] * K[0] + K[1] * K[1] + K[2] * K[2])
        P4, pi2 = P2 * P2, math.pi ** 2
        invariants = MetricInvariants(
            C=self.C,
            mu=self.mu,
            scal=self.scal,
            vol_s3=rounded(2, P, -3) * pi2,
            vol_so3=rounded(1, P, -3) * pi2,
            s1=rounded(p + q + r, 1, 1),
            s2=rounded(p * q + q * r + r * p, 1, 2),
            s3=rounded(P, 1, 3),
            sigma1=rounded(X + Y + Z, 1, 2),
            sigma2=rounded(S2, 1, 4),
            sigma3=rounded(P2, 1, 6),
            K12=rounded(K[0], P2, 2),
            K23=rounded(K[1], P2, 2),
            K31=rounded(K[2], P2, 2),
            ric_norm_sq=rounded(ric, P4, 4),
            riem_norm_sq=rounded(riem, P4, 4),
            a2_tilde=rounded(8 * ric + 7 * riem, P4, 4),
        )
        heat = {
            space: HeatInvariants(
                a0=rounded(2 * w, P, -3) * pi2,
                a1=rounded(-w * F, 3 * P2 * P, -1) * pi2,
                a2=rounded(w * (20 * F * F - 8 * ric - 7 * riem), 720 * P4 * P, 1) * pi2,
            )
            for space, w in ((S3, 2), (SO3, 1))
        }
        return invariants, heat


@dataclass(frozen=True, eq=False)
class Metric:
    """Positive triple (a, b, c) of inverse frame lengths: any reals but
    bools; anything else, or an entry whose double is not positive and
    finite, raises :class:`DomainError`.

    ``a``, ``b`` and ``c`` are the nearest doubles, and every float layer
    (blocks, solver, level bounds) uses them.  The metric as written is
    kept too, for the exact scalars (``_exact``): an entry given as a
    :class:`numbers.Rational` (a ``Fraction``, an int, a numpy integer) as
    that rational, any other as its double, which is exact already.  So
    (6, 4, Fraction(12, 5)) lies on the wall scal = 0 although its doubles
    do not.  :meth:`sorted`, :meth:`is_round`, equality and hashing follow
    the exact values."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        written = []
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            try:
                x = float(v) if real else math.nan
            except OverflowError:
                raise DomainError(f"metric parameter {name} lies beyond the double range") from None
            if not math.isfinite(x) or x <= 0:
                raise DomainError(f"metric parameter {name} must be a positive finite real, got {(x if real else v)!r}")
            object.__setattr__(self, name, x)
            exact = not isinstance(v, float) and isinstance(v, numbers.Rational)
            written.append(Fraction(int(v.numerator), int(v.denominator)) if exact else x)
        object.__setattr__(self, "_written", tuple(written))

    def __eq__(self, other):
        return self._written == other._written if isinstance(other, Metric) else NotImplemented

    def __hash__(self):
        return hash(self._written)

    def triple(self):
        return (self.a, self.b, self.c)

    @functools.cached_property
    def _exact(self):
        return _Exact(*self._written)

    @property
    def C(self):
        """The shift C in floats, as every block row and row bound uses it
        (the exact value is ``invariants(m).C``)."""
        return shift_C(self.a, self.b, self.c)

    @property
    def mu(self):
        return self._exact.mu

    @property
    def scal(self):
        """Scalar curvature 8*(a^2 + b^2 + c^2 - C^2)."""
        return self._exact.scal

    def sorted(self):
        """Return (metric with a >= b >= c, permutation p).

        The order and the entries are the exact ones: two rationals that
        round to one double keep their order and their values.  p[i] is the
        index in the original triple of the i-th sorted entry; a sorted
        metric is returned itself, with p = (0, 1, 2).  Sorting is
        an isometric relabeling of the frame; it is exposed, never applied
        implicitly.
        """
        w = self._written
        order = tuple(sorted(range(3), key=lambda i: -w[i]))
        if order == (0, 1, 2):
            return self, order  # frozen, so the metric itself is its sorted form
        return Metric(w[order[0]], w[order[1]], w[order[2]]), order

    def is_round(self):
        """True when a = b = c exactly, as written.

        Off the round line 2C - (a + b + c) = ((ab-bc)^2 + (bc-ca)^2 +
        (ca-ab)^2) / (2abc) > 0, so C > mu however close the entries are.
        """
        w = self._written
        return w[0] == w[1] == w[2]


def _normalized(m):
    """(the sorted metric's doubles times 2^-k, k), k the exponent that
    puts the largest entry in [1, 2): the unit scale of the certificate
    (``gershgorin._certificate``), for the float layers.

    The scaling is exact: every entry survives the round trip back by 2^k.
    Where it would round an entry into the subnormal range (entries more
    than about 2^1021 apart) it raises :class:`DomainError`.  Eigenvalues
    are homogeneous of degree 1 in (a, b, c), so a level spectrum of m is
    2^k times that of the normalized metric.
    """
    ms, _ = m.sorted()
    k = math.frexp(ms.a)[1] - 1
    if k == 0:
        return ms, 0
    scaled = [math.ldexp(x, -k) for x in ms.triple()]
    if any(math.ldexp(y, k) != x for x, y in zip(ms.triple(), scaled)):
        raise DomainError(f"metric entries {ms.triple()} are too far apart to scale to unit size exactly")
    return Metric(*scaled), k


@dataclass(frozen=True)
class MetricInvariants:
    """Every closed-form scalar attached to one metric.

    Each field is the exact value for the metric as written, rounded once
    (volumes: the exact 2/(abc) or 1/(abc), rounded, times pi^2); the squared
    tensor norms come from the sectional curvatures.
    """

    C: float
    mu: float
    scal: float
    vol_s3: float
    vol_so3: float
    s1: float
    s2: float
    s3: float
    sigma1: float
    sigma2: float
    sigma3: float
    K12: float
    K23: float
    K31: float
    ric_norm_sq: float
    riem_norm_sq: float
    a2_tilde: float


@dataclass(frozen=True)
class HeatInvariants:
    """Leading coefficients of the small-time heat trace of the squared
    Dirac operator, integrands constant by homogeneity."""

    a0: float
    a1: float
    a2: float
    dim_sigma: int = DIM_SPINOR


def volume(m, manifold=S3):
    """Riemannian volume: 2*pi^2/(abc) on the sphere, half that on SO(3)."""
    return invariants(m).vol_s3 if _volume_space(manifold) == S3 else invariants(m).vol_so3


def sectional_curvatures(m):
    """(K12, K23, K31) of the coordinate planes of the orthonormal frame."""
    inv = invariants(m)
    return inv.K12, inv.K23, inv.K31


def scal_sign_classification(m):
    """The sign of the scalar curvature of the metric as written, decided
    exactly: "zero" only when scal = 0 exactly.

    It is the sign that the certificate's gate reads (``m._exact.sign``),
    so a metric is "positive" exactly when
    :func:`~dirac3sphere.gershgorin.certify_fundamental_tone` takes it.
    """
    return m._exact.sign


def invariants(m):
    """The full :class:`MetricInvariants` bundle, every field exact and
    rounded once."""
    return m._exact.full[0]


def heat_invariants(m, manifold=S3):
    """First three heat-trace coefficients of the squared Dirac operator.

    a0 = 2*vol,  a1 = -(2/12)*scal*vol,
    a2 = (2/1440)*(5*scal^2 - 8*|Ric|^2 - 7*|Riem|^2)*vol,

    each an exact rational, rounded once, times pi^2.
    """
    return m._exact.full[1][_volume_space(manifold)]
