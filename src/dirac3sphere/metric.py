"""Left-invariant metrics on the 3-sphere and their closed-form invariants.

A metric is encoded by a positive triple (a, b, c): the quaternionic frame
{a*i, b*j, c*k} of left-invariant fields is declared orthonormal.  For these
homogeneous metrics every curvature and volume quantity reduces to a closed
form in (a, b, c); this module collects them all, since the same scalars
drive the spectral bounds and the reconstruction routines elsewhere.

Two scalars appear everywhere downstream:

    C  = (ab/c + bc/a + ca/b) / 2      (diagonal shift of every level block)
    mu = a + b + c - C                 (fundamental tone when scal > 0)

Permuting (a, b, c) gives an isometric metric; nothing here sorts the triple
silently.
"""

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError

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


def scal_factors(a, b, c):
    """ab+bc-ca, ab-bc+ca, -ab+bc+ca: scal > 0 exactly when all three are positive."""
    ab, bc, ca = a * b, b * c, c * a
    return ab + bc - ca, ab - bc + ca, -ab + bc + ca


@dataclass(frozen=True)
class Metric:
    """Positive triple (a, b, c) of inverse frame lengths."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                raise DomainError(f"metric parameter {name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, float(v))

    def triple(self):
        return (self.a, self.b, self.c)

    @property
    def C(self):
        return shift_C(self.a, self.b, self.c)

    @property
    def mu(self):
        return self.a + self.b + self.c - self.C

    @property
    def scal(self):
        """Scalar curvature 8*(a^2 + b^2 + c^2 - C^2)."""
        a, b, c = self.a, self.b, self.c
        return 8.0 * (a * a + b * b + c * c - self.C ** 2)

    def sorted(self):
        """Return (metric with a >= b >= c, permutation p).

        p[i] is the index in the original triple of the i-th sorted entry.
        Sorting is an isometric relabeling of the frame; it is exposed, never
        applied implicitly.
        """
        t = self.triple()
        order = sorted(range(3), key=lambda i: -t[i])
        return Metric(t[order[0]], t[order[1]], t[order[2]]), tuple(order)

    def is_round(self):
        """True when a = b = c exactly.

        Off the round line 2C - (a + b + c) = ((ab-bc)^2 + (bc-ca)^2 +
        (ca-ab)^2) / (2abc) > 0, so C > mu however close the entries are.
        """
        return self.a == self.b == self.c


@dataclass(frozen=True)
class MetricInvariants:
    """Every closed-form scalar attached to one metric.

    ``ric_norm_sq`` / ``riem_norm_sq`` are squared tensor norms computed from
    the sectional curvatures; construction cross-checks them against the
    equivalent expressions in the symmetric polynomials sigma_i of the squares.
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
    abc = m.a * m.b * m.c
    if _volume_space(manifold) == S3:
        return 2.0 * math.pi ** 2 / abc
    return math.pi ** 2 / abc


def sectional_curvatures(m):
    """(K12, K23, K31) of the coordinate planes of the orthonormal frame."""
    a2, b2, c2 = m.a ** 2, m.b ** 2, m.c ** 2
    K12 = 2.0 * (a2 + b2 - c2) + b2 * c2 / a2 + c2 * a2 / b2 - 3.0 * a2 * b2 / c2
    K23 = 2.0 * (b2 + c2 - a2) + c2 * a2 / b2 + a2 * b2 / c2 - 3.0 * b2 * c2 / a2
    K31 = 2.0 * (c2 + a2 - b2) + a2 * b2 / c2 + b2 * c2 / a2 - 3.0 * c2 * a2 / b2
    return K12, K23, K31


def scal_product_form(m):
    """Scalar curvature as 2/(abc)^2 times the product of the four factors
    (ab+bc+ca), (ab+bc-ca), (ab-bc+ca), (-ab+bc+ca).

    Free of the cancellation that plagues 8*(sigma1 - C^2) near scal = 0.
    """
    f0 = m.a * m.b + m.b * m.c + m.c * m.a
    f1, f2, f3 = scal_factors(m.a, m.b, m.c)
    return 2.0 * f0 * f1 * f2 * f3 / (m.a * m.b * m.c) ** 2


def scal_sign_classification(m):
    """Classify the sign of the scalar curvature without cancellation.

    scal > 0 exactly when ab+bc-ca, ab-bc+ca and -ab+bc+ca are all positive;
    at most one of them can be negative.  "zero" is declared when the minimal
    factor is below 1e-12 (ab+bc+ca) in absolute value.
    """
    ab, bc, ca = m.a * m.b, m.b * m.c, m.c * m.a
    fmin = min(ab + bc - ca, ab - bc + ca, -ab + bc + ca)
    if abs(fmin) < 1e-12 * (ab + bc + ca):
        return ZERO
    return POSITIVE if fmin > 0 else NEGATIVE


def _check_agreement(x, y, scale, what):
    # scale covers the magnitude of the summed terms: both routes cancel
    # internally, so relative-to-result agreement is not attainable in
    # double precision for strongly anisotropic triples
    if abs(x - y) > 1e-12 * max(abs(x), abs(y), scale):
        raise ConsistencyError(f"{what}: curvature routes disagree ({x!r} vs {y!r})")


def invariants(m):
    """Compute the full :class:`MetricInvariants` bundle.

    The squared norms of the Ricci and curvature tensors are evaluated both
    from the sectional curvatures and from the polynomials sigma_i; the two
    routes must agree to relative 1e-12.
    """
    a, b, c = m.triple()
    C = m.C
    s1, s2, s3 = a + b + c, a * b + b * c + c * a, a * b * c
    a2, b2, c2 = a * a, b * b, c * c
    sigma1 = a2 + b2 + c2
    sigma2 = a2 * b2 + b2 * c2 + c2 * a2
    sigma3 = a2 * b2 * c2
    scal = 8.0 * (sigma1 - C * C)

    K12, K23, K31 = sectional_curvatures(m)
    ric = (K12 + K23) ** 2 + (K23 + K31) ** 2 + (K31 + K12) ** 2
    riem = 4.0 * (K12 ** 2 + K23 ** 2 + K31 ** 2)

    r = sigma2 ** 2 / sigma3
    ric_sigma = 64.0 * sigma1 ** 2 - 64.0 * sigma1 * r + 12.0 * r ** 2 + 64.0 * sigma2
    riem_sigma = 192.0 * sigma1 ** 2 - 224.0 * sigma1 * r + 44.0 * r ** 2 + 256.0 * sigma2
    term_scale = 192.0 * sigma1 ** 2 + 224.0 * sigma1 * r + 44.0 * r ** 2 + 256.0 * sigma2
    _check_agreement(ric, ric_sigma, term_scale, "|Ric|^2")
    _check_agreement(riem, riem_sigma, term_scale, "|Riem|^2")

    return MetricInvariants(
        C=C,
        mu=m.mu,
        scal=scal,
        vol_s3=volume(m, S3),
        vol_so3=volume(m, SO3),
        s1=s1,
        s2=s2,
        s3=s3,
        sigma1=sigma1,
        sigma2=sigma2,
        sigma3=sigma3,
        K12=K12,
        K23=K23,
        K31=K31,
        ric_norm_sq=ric,
        riem_norm_sq=riem,
        a2_tilde=8.0 * ric + 7.0 * riem,
    )


def heat_invariants(m, manifold=S3):
    """First three heat-trace coefficients of the squared Dirac operator.

    a0 = 2*vol,  a1 = -(2/12)*scal*vol,
    a2 = (2/1440)*(5*scal^2 - 8*|Ric|^2 - 7*|Riem|^2)*vol.
    """
    inv = invariants(m)
    vol = volume(m, manifold)
    a0 = DIM_SPINOR * vol
    a1 = -DIM_SPINOR / 12.0 * inv.scal * vol
    a2 = DIM_SPINOR / 1440.0 * (5.0 * inv.scal ** 2 - 8.0 * inv.ric_norm_sq - 7.0 * inv.riem_norm_sq) * vol
    return HeatInvariants(a0=a0, a1=a1, a2=a2)
