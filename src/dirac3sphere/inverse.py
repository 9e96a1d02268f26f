"""Recover (a, b, c) up to permutation from spectral data.

Volume, scalar curvature and one discriminator determine the metric within
the homogeneous family:

* scal > 0, sphere or odd quotient structure: the fundamental tone mu.
  The elementary symmetric polynomials s_i of (a, b, c) follow from
  s3 = volume constant / vol, the quadratic 4 mu s2^2/s3 - 16 s2 - scal = 0
  (exactly one positive root), and mu = 2 s1 - s2^2/(2 s3).
* scal > 0, even quotient structure: the shift C.  Here the symmetric
  polynomials sigma_i of the squares are used: C = sigma2/(2 sqrt(sigma3)),
  scal = 8 (sigma1 - C^2).
* scal <= 0, any operator: the heat-trace combination
  a2~ = 8|Ric|^2 + 7|Riem|^2.  With Y = (a2~ - 101 scal^2)/576 one has
  Y = -scal sigma1 + 4 sigma2; eliminating sigma1 leaves a quadratic in
  sigma2 whose right-hand side is strictly decreasing for scal < 0, hence
  at most one positive root, taken in the root form that gives Y/4 exactly
  at scal = 0.

Each route does only its own elimination down to the symmetric
polynomials; the triple is read off as the positive roots of the monic
cubic with them (square roots of the roots for the sigma_i).  One shared
tail builds the result: it recomputes volume, scal and the route's datum
from the recovered metric's exact scalars and attaches the relative
residuals.

Two slacks stay, stated: ``_ROOT_RTOL = 1e-9``, within which the cubic's
roots count as real and positive, and the band |scal| <= 1e-10 sigma3^(1/3)
that names the branch "a2tilde-zero".  They act on spectral data the user
measured, which carries its own error, not on a metric: the sign of scal
of a metric is decided exactly (``metric.scal_sign_classification``).
"""

import math
from dataclasses import dataclass

from .errors import Dirac3SphereError, DomainError, InconsistentInputError, WrongRegimeError
from .metric import S3, SO3_NONTRIVIAL, SO3_TRIVIAL, Metric, invariants, volume

_PI2 = math.pi ** 2
_EPS = 2.220446049250313e-16
_ROOT_RTOL = 1e-9  # relative slack within which the cubic's roots count as real and positive


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered triple (descending), intermediates, and forward residuals."""

    triple: tuple
    manifold: str
    branch: str
    sym_polys: dict
    residuals: dict

    @property
    def max_residual(self):
        return max(self.residuals.values())


def _cubic_eval(t, s1, s2, s3):
    return ((t - s1) * t + s2) * t - s3


def cubic_positive_roots(s1, s2, s3):
    """The three roots of t^3 - s1 t^2 + s2 t - s3, all required real and
    positive within relative ``_ROOT_RTOL``; returned descending.

    Trigonometric evaluation on the depressed cubic locates the roots; the
    best-separated one is Newton-polished and the remaining pair is read off
    the deflated quadratic, whose midpoint stays well conditioned even at a
    double root (where direct evaluation cannot do better than sqrt(eps)).
    Symmetric polynomials that are not finite, as when a reconstruction's
    s2^2 overflows, raise :class:`Dirac3SphereError`.
    """
    if not all(math.isfinite(s) for s in (s1, s2, s3)):
        raise Dirac3SphereError(f"the computation left the double range: symmetric polynomials {(s1, s2, s3)!r}")
    if not (s1 > 0 and s2 > 0 and s3 > 0):
        raise InconsistentInputError(f"symmetric polynomials must be positive, got {(s1, s2, s3)!r}")
    shift = s1 / 3.0
    p = s2 - s1 * s1 / 3.0
    q = -2.0 * s1 ** 3 / 27.0 + s1 * s2 / 3.0 - s3
    if p > _ROOT_RTOL * shift * shift:
        raise InconsistentInputError("cubic has a complex conjugate pair, no metric matches the data")
    if p >= 0.0 or math.sqrt(-p / 3.0) <= 4.0 * _EPS * shift:
        # (near-)triple root at the centroid
        roots = [shift, shift, shift]
    else:
        r = math.sqrt(-p / 3.0)
        # rounding can push |arg| past 1 near multiple roots; clamp and let
        # the deflated discriminant below reject genuinely complex pairs
        arg = min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r)))
        phi = math.acos(arg)
        trig = [2.0 * r * math.cos((phi - 2.0 * math.pi * j) / 3.0) + shift for j in range(3)]
        # most isolated root: well conditioned, safe to polish directly
        iso = max(range(3), key=lambda i: min(abs(trig[i] - trig[j]) for j in range(3) if j != i))
        t = trig[iso]
        f = _cubic_eval(t, s1, s2, s3)
        for _ in range(3):
            fp = (3.0 * t - 2.0 * s1) * t + s2
            if fp == 0.0:
                break
            t_new = t - f / fp
            f_new = _cubic_eval(t_new, s1, s2, s3)
            if abs(f_new) >= abs(f):
                break
            t, f = t_new, f_new
        pair_sum = s1 - t
        pair_mid = 0.5 * pair_sum
        disc4 = pair_mid * pair_mid - s3 / t if t != 0.0 else -1.0
        if disc4 < -_ROOT_RTOL * max(pair_mid * pair_mid, abs(s3 / t) if t else 1.0):
            raise InconsistentInputError("cubic has a complex conjugate pair, no metric matches the data")
        gap = math.sqrt(max(disc4, 0.0))
        roots = [t, pair_mid + gap, pair_mid - gap]
        s2_back = t * pair_sum + s3 / t
        if abs(s2_back - s2) > 1e-6 * max(s2, shift * shift):
            raise InconsistentInputError("no real positive triple reproduces the symmetric polynomials")
    if min(roots) <= _ROOT_RTOL * shift:
        raise InconsistentInputError(f"cubic root {min(roots)!r} is not positive")
    return tuple(sorted(roots, reverse=True))


def _rel(x, y, floor):
    return abs(x - y) / max(abs(x), abs(y), floor)


def _require(cond, message):
    if not cond:
        raise InconsistentInputError(message)


def _abc(vol, manifold):
    """abc from the volume: 2 pi^2 / vol on the sphere, pi^2 / vol on SO(3).

    A volume that is not positive and finite raises
    :class:`InconsistentInputError`; one whose abc is 0 or inf in doubles
    raises :class:`Dirac3SphereError`, as :func:`cubic_positive_roots` does.
    """
    _require(vol > 0, "volume must be positive")
    _require(vol < math.inf, f"volume must be finite, got {vol!r}")
    abc = (2.0 * _PI2 if manifold == S3 else _PI2) / vol
    if not 0 < abc < math.inf:
        raise Dirac3SphereError(f"the computation left the double range: abc {abc!r} from volume {vol!r}")
    return abc


def _result(triple, manifold, branch, sym_polys, vol, scal, datum, value, degree):
    """The result for a recovered triple, with the residuals of volume, scal
    and the route's datum (the :func:`invariants` field of that name, of
    degree ``degree``) read from the recovered metric's exact scalars, each
    floored at the scale (abc)^(1/3) to the power of its degree."""
    rec = Metric(*triple)
    floor = _abc(vol, manifold) ** (1.0 / 3.0)
    residuals = {
        "volume": _rel(volume(rec, manifold), vol, floor ** -3),
        "scal": _rel(rec.scal, scal, floor ** 2),
        datum: _rel(getattr(invariants(rec), datum), value, floor ** degree),
    }
    return ReconstructionResult(triple, manifold, branch, sym_polys, residuals)


def reconstruct_positive_mu(vol, scal, mu, manifold=S3):
    """Positive-curvature reconstruction from the fundamental tone mu."""
    if manifold not in (S3, SO3_NONTRIVIAL):
        raise WrongRegimeError(f"mu determines the metric on {S3!r} or {SO3_NONTRIVIAL!r}, not {manifold!r}")
    if scal <= 0:
        raise WrongRegimeError("mu-based reconstruction requires scal > 0")
    s3 = _abc(vol, manifold)
    _require(mu > 0, "mu must be positive")
    quad_lead = 4.0 * mu / s3
    disc = 256.0 + 4.0 * quad_lead * scal
    s2 = (16.0 + math.sqrt(disc)) / (2.0 * quad_lead)
    s1 = 0.5 * (mu + s2 * s2 / (2.0 * s3))
    triple = cubic_positive_roots(s1, s2, s3)
    return _result(triple, manifold, "mu", {"s1": s1, "s2": s2, "s3": s3}, vol, scal, "mu", mu, 1)


def reconstruct_positive_C(vol, scal, C, manifold=SO3_TRIVIAL):
    """Positive-curvature reconstruction from the shift C (even structure)."""
    if manifold != SO3_TRIVIAL:
        raise WrongRegimeError(f"C determines the metric on {SO3_TRIVIAL!r} only, not {manifold!r}")
    if scal <= 0:
        raise WrongRegimeError("C-based reconstruction requires scal > 0")
    sqrt_sigma3 = _abc(vol, manifold)
    _require(C > 0, "C must be positive")
    sigma3 = sqrt_sigma3 ** 2
    sigma2 = 2.0 * C * sqrt_sigma3
    sigma1 = scal / 8.0 + C * C
    triple = tuple(math.sqrt(t) for t in cubic_positive_roots(sigma1, sigma2, sigma3))
    sym_polys = {"sigma1": sigma1, "sigma2": sigma2, "sigma3": sigma3}
    return _result(triple, manifold, "C", sym_polys, vol, scal, "C", C, 1)


def reconstruct_nonpositive(vol, scal, a2_tilde, manifold=S3):
    """Nonpositive-curvature reconstruction from a2~ = 8|Ric|^2 + 7|Riem|^2,
    valid for every operator.  |scal| up to 1e-10 times the scale
    sigma3^(1/3) only names the branch "a2tilde-zero"; scal above it is refused."""
    if manifold not in (S3, SO3_TRIVIAL, SO3_NONTRIVIAL):
        raise WrongRegimeError(f"unknown manifold {manifold!r}")
    sqrt_sigma3 = _abc(vol, manifold)
    sigma3 = sqrt_sigma3 ** 2
    zero_scale = 1e-10 * sigma3 ** (1.0 / 3.0)
    if scal > zero_scale:
        raise WrongRegimeError("a2~-based reconstruction requires scal <= 0")
    branch = "a2tilde-zero" if abs(scal) <= zero_scale else "a2tilde-negative"
    Y = (a2_tilde - 101.0 * scal * scal) / 576.0
    # 2 (scal/sigma3) s^2 - 32 s + (scal^2 + 8Y) = 0, written in the root
    # form that stays stable as scal -> 0 (at scal = 0 exactly it is Y/4)
    lead = 2.0 * scal / sigma3
    const = scal * scal + 8.0 * Y
    disc = 1024.0 - 4.0 * lead * const
    _require(disc >= 0, "quadratic for sigma2 has no real root")
    sigma2 = const / (0.5 * (32.0 + math.sqrt(disc)))
    _require(sigma2 > 0, "no positive sigma2 matches the data")
    sigma1 = (scal + 2.0 * sigma2 * sigma2 / sigma3) / 8.0
    _require(sigma1 > 0, "no positive sigma1 matches the data")
    triple = tuple(math.sqrt(t) for t in cubic_positive_roots(sigma1, sigma2, sigma3))
    sym_polys = {"sigma1": sigma1, "sigma2": sigma2, "sigma3": sigma3, "Y": Y}
    return _result(triple, manifold, branch, sym_polys, vol, scal, "a2_tilde", a2_tilde, 4)


def reconstruct(manifold, vol, scal, mu=None, C=None, a2_tilde=None):
    """Dispatch on the single provided discriminator."""
    given = [name for name, v in (("mu", mu), ("C", C), ("a2_tilde", a2_tilde)) if v is not None]
    if len(given) != 1:
        raise DomainError(f"exactly one of mu, C, a2_tilde must be given, got {given or 'none'}")
    if mu is not None:
        return reconstruct_positive_mu(vol, scal, mu, manifold)
    if C is not None:
        return reconstruct_positive_C(vol, scal, C, manifold)
    return reconstruct_nonpositive(vol, scal, a2_tilde, manifold)
