"""Global Dirac spectra, certified fundamental tones, and heat traces.

The spectrum of the full operator is the union of the level spectra: the
sphere collects every level, the two spin structures of the quotient collect
the even and the odd levels respectively.  A level-n eigenvalue of block
multiplicity m contributes m*(n+1) to the total multiplicity.

For positive scalar curvature the smallest absolute eigenvalue is mu on the
sphere and on the nontrivial quotient structure, and C on the trivial one;
``certify_fundamental_tone`` proves that statement for a concrete metric by
deciding a fixed list of closed-form conditions exactly, and records every
margin.  Outside that regime only enumerated minima up to a level cutoff are
reported, clearly flagged as uncertified.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import TAG_A, TAG_B, _char_poly_coeffs, _level1_eigs, _level3_radicals, build_block
from .eigen import count_below_batch, default_tolerance, eigenvalues_batch, min_abs_batch, symmetrize
from .errors import DomainError, TruncationWarning, UncertifiableError
from .gershgorin import CertificationStep, _approx, base_cases, exact_sorted, level_bounds, record_step
from .metric import (
    POSITIVE,
    S3,
    SO3_NONTRIVIAL,
    SO3_TRIVIAL,
    SPECTRUM_MANIFOLDS,
    scal_factors,
    scal_sign_classification,
    volume,
)

#: relative slack of the multiplicity count in :func:`enumerated_min_abs`:
#: eigenvalues within it of the minimum count towards its multiplicity
COINCIDENCE_RTOL = 1e-9


def admissible_levels(manifold, max_level):
    """Levels contributing to the spectrum of the chosen operator."""
    if manifold not in SPECTRUM_MANIFOLDS:
        raise DomainError(f"unknown manifold {manifold!r}; expected one of {SPECTRUM_MANIFOLDS}")
    if max_level < 0:
        raise DomainError("max_level must be nonnegative")
    start = {S3: 0, SO3_TRIVIAL: 0, SO3_NONTRIVIAL: 1}[manifold]
    step = 1 if manifold == S3 else 2
    return range(start, max_level + 1, step)


@dataclass(frozen=True)
class SpectralLine:
    """One line of one level: ``block_multiplicity`` eigenvalues of the
    level's blocks, proved to lie in [eigenvalue - radius, eigenvalue + radius];
    ``tag`` is "A", "B", or "AB" when both blocks carry the line, and
    ``total_multiplicity`` is block multiplicity times (level + 1).

    Proof: :func:`~dirac3sphere.eigen.eigenvalues_batch` keeps the i-th
    sorted value v_i of a block only when count(v_i - tol) <= i and
    count(v_i + tol) >= i + 1 (its bisection fallback is within tol too), so
    eigenvalue i lies in [v_i - tol, v_i + tol].  With tol widened to tol_n,
    the largest default tolerance of the level's blocks, a line is a maximal
    run of sorted values each at most 2 tol_n above the previous one, so its
    interval [v_first - tol_n, v_last + tol_n] is disjoint from the level's
    other lines and holds exactly its members' eigenvalues.
    """

    eigenvalue: float
    radius: float
    level: int
    tag: str
    block_multiplicity: int
    total_multiplicity: int


@dataclass(frozen=True)
class Spectrum:
    manifold: str
    metric: tuple
    max_level: int
    lines: tuple

    def total_count(self):
        return sum(line.total_multiplicity for line in self.lines)

    def merged_lines(self):
        """Across-level merged view: (eigenvalue, total multiplicity) pairs.

        Lines whose intervals overlap once widened to the largest radius
        collapse into one (:func:`_overlap_lines`, one segment).  Raw lines
        are never altered.
        """
        values = np.array([line.eigenvalue for line in self.lines])
        weights = np.array([line.total_multiplicity for line in self.lines])
        zeros = np.zeros(len(values), dtype=int)
        halfwidths = np.full(len(values), max((line.radius for line in self.lines), default=0.0))
        _, centres, _, weights, _ = _overlap_lines(values, zeros, halfwidths, weights, zeros)
        return list(zip(centres.tolist(), weights.tolist()))


#: the tag of each tag code; a tag's code is its index, A = 1 and B = 2 bits
_TAGS = ("", TAG_A, TAG_B, "AB")


def _overlap_lines(values, segments, halfwidths, weights, tags):
    """Lines of values whose intervals [v - h, v + h] overlap, h the same
    within a segment: sorted by (segment, value), a line starts at a new
    segment or a gap above 2h (see :class:`SpectralLine`).  Returns, per
    line in that order: segment, centre v_last - (v_last - v_first)/2 (a
    single value as it came), radius (v_last - v_first)/2 + h, summed weight
    and bitwise OR of the tag codes.
    """
    order = np.lexsort((values, segments))
    v, s, h = values[order], segments[order], halfwidths[order]
    start = np.ones(len(v), dtype=bool)
    start[1:] = (s[1:] != s[:-1]) | (v[1:] - v[:-1] > 2.0 * h[1:])
    edges = np.flatnonzero(np.append(start, True))  # each line's first value, then len(v)
    first, last = edges[:-1], edges[1:] - 1
    half = (v[last] - v[first]) / 2.0
    return (s[first], v[last] - half, half + h[first],
            np.add.reduceat(weights[order], first), np.bitwise_or.reduceat(tags[order], first))


def _level_blocks(m, n):
    """The blocks that carry level n, as (tag, symmetrized block, block
    multiplicity) triples: ``[("AB", A_n, 2)]`` at an even level,
    ``[("A", A_n, 1), ("B", B_n, 1)]`` at an odd one.

    At an even level the two blocks are isospectral, because the symmetrized
    B_n is A_n reversed (J A_n J), bit for bit: its diagonal is +-a(n-2k) - C
    with the sign (-1)^k for A and -(-1)^k for B, and diag_A[n-k] =
    (-1)^(n-k) a(2k-n) - C = diag_B[k] because n - k has the parity of k; its
    coupling at index j is |f(j)| sqrt((j+1)(n-j)) with f = c+b at even j of
    A and odd j of B, else c-b, and index n-1-k has the opposite parity to k
    while (n-k)(k+1) is symmetric under the reversal.
    """
    if n % 2 == 0:
        return [("AB", symmetrize(build_block(m, n, TAG_A)), 2)]
    return [(tag, symmetrize(build_block(m, n, tag)), 1) for tag in (TAG_A, TAG_B)]


def _lines_of_levels(m, levels):
    """Spectral lines of ``levels``, sorted by (eigenvalue, level); see :func:`assemble`."""
    blocks = {n: _level_blocks(m, n) for n in levels}
    tols = {n: max(default_tolerance(t) for _, t, _ in level) for n, level in blocks.items()}
    rows = [(n, tols[n], w, _TAGS.index(tag), t, t.size) for n, level in blocks.items() for tag, t, w in level]
    if not rows:
        return []
    ns, tols, weights, codes, ts, sizes = zip(*rows)
    level, centre, radius, weight, code = _overlap_lines(
        np.concatenate(eigenvalues_batch(ts)), *(np.repeat(x, sizes) for x in (ns, tols, weights, codes)))
    order = np.lexsort((level, centre))
    return [SpectralLine(c, r, n, _TAGS[g], w, w * (n + 1))
            for c, r, n, w, g in zip(*(x[order].tolist() for x in (centre, radius, level, weight, code)))]


def level_lines(m, n):
    """Spectral lines of one level (an even one solved once, from A); see :func:`assemble`."""
    return _lines_of_levels(m, [int(n)])


def assemble(m, manifold, max_level):
    """Assemble the spectrum of the chosen operator up to ``max_level``.

    Every block of every admissible level, an even level once from A (see
    :func:`_level_blocks`), goes through one :func:`eigenvalues_batch` call,
    and one pass over all values groups them into lines: the values of a
    level whose proved intervals overlap form one line, with a proved radius
    and count (see :class:`SpectralLine` for the proof).  No two lines of a
    level overlap, and a line of one value carries that value unchanged.
    """
    lines = _lines_of_levels(m, list(admissible_levels(manifold, max_level)))
    return Spectrum(manifold=manifold, metric=m.triple(), max_level=int(max_level), lines=tuple(lines))


def enumerated_min_abs(m, manifold, max_level=25):
    """Numerically smallest |eigenvalue| over the admissible levels.

    Returns (value, multiplicity of the squared operator, levels solved or
    screened, ascending); the value lies within tol, each block's
    :func:`~dirac3sphere.eigen.default_tolerance`, of the true minimum over
    the levels up to ``max_level``.

    1. The metric is replaced by its sorted form a >= b >= c.  A permutation
       of (a, b, c) is an inner automorphism of SU(2): an orientation-keeping
       isometry that commutes with -1, so it keeps both spin structures of
       SO(3) and every level spectrum, and it makes the row bounds tight.
    2. :func:`~dirac3sphere.gershgorin.level_bounds` bounds lambda^2 from
       below on every admissible level in one pass.
    3. The level with the lowest bound is solved first, giving ``best``.
       One batched Sturm count at -best and best then screens the blocks of
       every other level whose bound is <= best^2 (1 + 1e-9); only blocks
       with an eigenvalue in [-best, best) are solved, and the smallest
       value wins.  A level whose bound is not finite is always screened.
    4. The multiplicity is one batched count in [-u, u), u = value +
       ``COINCIDENCE_RTOL`` max(1, value), over the levels whose bound is
       <= u^2 (1 + 1e-9), each block weighted by n + 1 times its multiplicity.

    Solves are :func:`~dirac3sphere.eigen.min_abs_batch`: LAPACK, proved
    within tol by four Sturm shifts, with bisection as the fallback.  The
    blocks come from :func:`_level_blocks`, so an even level is solved and
    counted once, from A, with weight 2.

    Within tol.  The screen is exact: a block it passes over has no
    eigenvalue in [-best, best), so nothing in it beats the returned value.
    Pruning rests on float bounds: a pruned level's computed bound exceeds
    best^2 (1 + 1e-9), and its exact Gershgorin bound is lower by at most
    the rounding error delta of a few row entries, so its eigenvalues satisfy
    lambda^2 > best^2 (1 + 1e-9) - delta.  The slack is there to absorb
    delta: with delta <= 1e-9 best^2 + 2 best tol, lambda^2 > (best - tol)^2,
    so a level left unscreened in spite of the slack can only hold a value
    above best - tol, within tol of the returned one.  A block with a
    non-finite entry raises :class:`Dirac3SphereError`.
    """
    levels = np.array(admissible_levels(manifold, max_level))
    if not len(levels):
        raise DomainError("no admissible levels below the requested cutoff")
    ms, _ = m.sorted()
    bounds = level_bounds(ms, levels)
    unbounded = ~np.isfinite(bounds)
    level_blocks = functools.cache(functools.partial(_level_blocks, ms))

    def within(x):
        # levels that may hold an eigenvalue with |lambda| <= x
        return [int(n) for n in levels[unbounded | (bounds <= x * x * (1.0 + 1e-9))]]

    first = int(levels[np.argmin(np.where(unbounded, np.inf, bounds))])
    best = float(min_abs_batch([t for _, t, _ in level_blocks(first)]).min())
    screened = [n for n in within(best) if n != first]
    ts = [t for n in screened for _, t, _ in level_blocks(n)]
    counts = count_below_batch(ts, [-best, best])
    inside = [t for t, (lo, hi) in zip(ts, counts) if hi > lo]
    if inside:
        best = min(best, float(min_abs_batch(inside).min()))

    u = best + COINCIDENCE_RTOL * max(1.0, best)
    counted = [(n, t, w) for n in within(u) for _, t, w in level_blocks(n)]
    counts = count_below_batch([t for _, t, _ in counted], [-u, u])
    mult = int(np.dot(counts[:, 1] - counts[:, 0], [(n + 1) * w for n, _, w in counted]))
    return best, mult, sorted([first] + screened)


@dataclass(frozen=True)
class CertificationTrace:
    metric: tuple
    sorted_triple: tuple
    permutation: tuple
    C: float
    mu: float
    scal: float
    steps: tuple
    passed: bool

    @property
    def min_margin(self):
        """Smallest margin among the strict inequalities."""
        margins = [s.margin for s in self.steps if s.kind == "strict"]
        return min(margins) if margins else float("inf")


def _root_exceeds(u, R, t):
    """Decide u * sqrt(R) > t exactly, for rationals u, t and R >= 0."""
    if u >= 0:
        return t < 0 or u * u * R > t * t
    return t < 0 and u * u * R < t * t


def certify_fundamental_tone(m):
    """Prove, for one metric, that the fundamental tone is mu (sphere, odd
    quotient structure) and C (even structure).

    A fixed list of closed-form conditions, the same for every metric with
    scal > 0, each decided in exact rational arithmetic on the stored
    doubles with no tolerance.  On the metric sorted to a >= b >= c:

    1. regime facts: the three scal factors are positive, C > max(a,b,c),
       C^2 < a^2+b^2+c^2, mu > 0;
    2. explicit levels 1..4: eigenvalues of levels 1 and 3 keep their
       distance (the level-3 radicals decided by squaring), the level-2
       polynomial is negative on [0, 2C], the level-4 polynomial is
       positive there (concavity reduces both to endpoint checks);
    3. the base cases and the triangle increment for every level, from
       :func:`base_cases`.

    Every step records its margin rounded to a double.  A failed condition
    raises :class:`CertificationError` naming it; a metric without positive
    scalar curvature raises :class:`UncertifiableError`.
    """
    ms, perm, (a, b, c, C) = exact_sorted(m)
    mu = a + b + c - C
    s1 = a + b + c
    steps = []

    # 1. regime
    for i, factor in enumerate(scal_factors(a, b, c), start=1):
        record_step(steps, f"regime:scal>0:{i}", "factor of the scal product form", factor)
    record_step(steps, "regime:C>max", "C - max(a,b,c)", C - a)
    record_step(steps, "regime:C^2<sigma1", "a^2+b^2+c^2 - C^2 (equals scal/8)", a * a + b * b + c * c - C * C)
    record_step(steps, "regime:mu>0", "mu", mu)

    steps.append(CertificationStep("level0", f"sole eigenvalue -C = {-ms.C!r} with multiplicity 2", None, True, "note"))

    # 2. explicit small levels
    e1 = _level1_eigs(a, b, c, C)
    record_step(steps, "level1:mu", "first closed-form eigenvalue equals mu", e1[0] - mu, "eq")
    for i, v in enumerate(e1[1:], start=1):
        record_step(steps, f"level1:gap:{i}", f"|eigenvalue {i}| - mu", abs(v) - mu)

    chi2 = np.array(_char_poly_coeffs(a, b, c, 2), dtype=object)
    for x, label in ((0, "0"), (2 * C, "2C")):
        record_step(steps, f"level2:chi2({label})<0",
                    "level-2 polynomial negative on [0, 2C] (convex, endpoints suffice)", -np.polyval(chi2, x))

    lo = 2 * C - s1
    for i, (p, R) in enumerate(_level3_radicals(a, b, c)):
        for j, sign in enumerate((-1, 1)):
            v = _approx(p) + 2 * sign * math.sqrt(_approx(R))
            record_step(steps, f"level3:outside:{2 * i + j + 1}", "distance of unshifted eigenvalue to [2C-s1, s1]",
                        max(_approx(lo) - v, v - _approx(s1)),
                        holds=_root_exceeds(2 * sign, R, s1 - p) or _root_exceeds(-2 * sign, R, p - lo))

    chi4 = np.array(_char_poly_coeffs(a, b, c, 4), dtype=object)
    chi4dd = np.polyder(chi4, 2)
    for x, label in ((0, "0"), (2 * C, "2C")):
        record_step(steps, f"level4:chi4''({label})<0",
                    "second derivative negative on [0, 2C] (convex, endpoints suffice)", -np.polyval(chi4dd, x))
    for x, label in ((0, "0"), (2 * C, "2C")):
        record_step(steps, f"level4:chi4({label})>0",
                    "level-4 polynomial positive on [0, 2C] (concave there, endpoints suffice)", np.polyval(chi4, x))

    # 3. base cases, quadratic tails and triangle increments
    steps.extend(base_cases(ms).checks)

    return CertificationTrace(
        metric=m.triple(),
        sorted_triple=ms.triple(),
        permutation=perm,
        C=ms.C,
        mu=ms.mu,
        scal=ms.scal,
        steps=tuple(steps),
        passed=True,
    )


@dataclass(frozen=True)
class SmallestEigenvalueReport:
    """Smallest |eigenvalue| of one operator, with provenance.

    ``certified`` is True only when the full verification chain ran and
    passed, which requires positive scalar curvature.  ``max_level`` is the
    enumeration level cutoff when the value is numerical, None for closed forms.
    """

    manifold: str
    metric: tuple
    value: float
    multiplicity_d_squared: int
    certified: bool
    certification_trace: object
    method: str
    max_level: object


def smallest(m, manifold, certify=None, max_level=25):
    """Smallest absolute eigenvalue of the chosen operator.

    With positive scalar curvature the value is mu (sphere and odd
    structure) or C (even structure), with squared-operator multiplicity 4
    exactly on the round line of the sphere and 2 otherwise; ``certify``
    (default: yes in this regime) attaches the full verification trace.

    Otherwise the value is the enumerated minimum over levels <= max_level,
    never certified; requesting certification there raises
    :class:`UncertifiableError`.
    """
    if manifold not in SPECTRUM_MANIFOLDS:
        raise ValueError(f"unknown manifold {manifold!r}")
    classification = scal_sign_classification(m)
    if classification == POSITIVE:
        value = m.C if manifold == SO3_TRIVIAL else m.mu
        mult = 4 if manifold == S3 and m.is_round() else 2
        trace = None
        if certify is None or certify:
            trace = certify_fundamental_tone(m)
        return SmallestEigenvalueReport(
            manifold=manifold,
            metric=m.triple(),
            value=value,
            multiplicity_d_squared=mult,
            certified=trace is not None,
            certification_trace=trace,
            method="closed-form",
            max_level=None,
        )
    if certify:
        raise UncertifiableError(
            "scal <= 0: eigenvalues may cross zero along metric families, no certified minimum exists"
        )
    value, mult, _ = enumerated_min_abs(m, manifold, max_level=max_level)
    return SmallestEigenvalueReport(
        manifold=manifold,
        metric=m.triple(),
        value=value,
        multiplicity_d_squared=mult,
        certified=False,
        certification_trace=None,
        method="enumeration",
        max_level=int(max_level),
    )


def weyl_count_estimate(m, manifold, lam):
    """Leading Weyl-law estimate of #{|eigenvalue| <= lam}: vol/(3 pi^2) lam^3."""
    return volume(m, manifold) / (3.0 * math.pi ** 2) * lam ** 3


@dataclass(frozen=True)
class HeatTraceResult:
    value: float
    tail_estimate: float
    t: float
    max_level: int
    lambda_max: float
    computed_count: int


def heat_trace(m, manifold, t, max_level, spectrum=None):
    """Truncated trace of exp(-t D^2) plus a truncation-tail estimate.

    The tail estimate is exp(-t lambda_max^2) times the Weyl-estimated
    number of eigenvalues the level cutoff may have missed below the largest
    computed |eigenvalue|; a heuristic order-of-magnitude figure, not a
    certified bound.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    spec = spectrum if spectrum is not None else assemble(m, manifold, max_level)
    value = 0.0
    lam_max = 0.0
    computed = 0
    for line in spec.lines:
        value += line.total_multiplicity * math.exp(-t * line.eigenvalue ** 2)
        lam_max = max(lam_max, abs(line.eigenvalue))
        computed += line.total_multiplicity
    missed = max(weyl_count_estimate(m, manifold, lam_max) - computed, 0.0)
    tail = math.exp(-t * lam_max ** 2) * missed
    return HeatTraceResult(
        value=value,
        tail_estimate=tail,
        t=float(t),
        max_level=int(max_level),
        lambda_max=lam_max,
        computed_count=computed,
    )


def counting_function(m, manifold, lam, max_level, spectrum=None):
    """Number of eigenvalues with |eigenvalue| <= lam, multiplicity counted.

    Warns with :class:`TruncationWarning` when the top computed level still
    lies entirely at or below lam, in which case higher levels would
    certainly contribute as well.
    """
    if not lam > 0:
        raise DomainError("lam must be positive")
    spec = spectrum if spectrum is not None else assemble(m, manifold, max_level)
    include = lam + 1e-9 * (1.0 + lam)
    count = sum(line.total_multiplicity for line in spec.lines if abs(line.eigenvalue) <= include)
    levels = list(admissible_levels(manifold, max_level))
    top = levels[-1] if levels else None
    top_max = max((abs(l.eigenvalue) for l in spec.lines if l.level == top), default=0.0)
    if top is None or top_max <= lam:
        warnings.warn(
            f"level cutoff {max_level} is insufficient for lam = {lam}: "
            f"largest |eigenvalue| at level {top} is {top_max}",
            TruncationWarning,
            stacklevel=2,
        )
    return count
