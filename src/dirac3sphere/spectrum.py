"""Global Dirac spectra, certified fundamental tones, and heat traces.

The spectrum of the full operator is the union of the level spectra: the
sphere collects every level, the two spin structures of the quotient collect
the even and the odd levels respectively.  A level-n eigenvalue of block
multiplicity m contributes m*(n+1) to the total multiplicity.

For positive scalar curvature the smallest absolute eigenvalue is mu on the
sphere and on the nontrivial quotient structure, and C on the trivial one;
``certify_fundamental_tone`` proves that statement for a concrete metric by
deciding one table of closed-form conditions exactly, in integers, and
records every margin; it lives with the Gershgorin bounds it rests on
(:mod:`~dirac3sphere.gershgorin`) and is re-exported here, with
``CertificationTrace``.  So are ``smallest`` and ``SmallestEigenvalueReport``,
which live next to the certificate whose gate and theorem they answer by,
so that a certified answer needs no numpy.  Outside that regime only
enumerated minima up to a level cutoff are reported
(:func:`enumerated_min_abs`, which ``smallest`` calls), clearly flagged as
uncertified.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import TAG_A, TAG_B, _raw_rows
from .eigen import _min_abs_candidates, _proved_min_abs, _proved_values, _row_norms, _tolerance, _windows
from .errors import DomainError, TruncationWarning
from .gershgorin import (  # noqa: F401 (re-exported)
    CertificationTrace,
    SmallestEigenvalueReport,
    certify_fundamental_tone,
    smallest,
)
from .gershgorin import _below_level_limit, _level, _rounding_allowance, level_bounds
from .metric import S3, SO3_NONTRIVIAL, SO3_TRIVIAL, SPECTRUM_MANIFOLDS, Metric, _normalized, _volume_space

#: relative slack of the multiplicity count in :func:`enumerated_min_abs`:
#: eigenvalues within it of the minimum count towards its multiplicity
COINCIDENCE_RTOL = 1e-9


def admissible_levels(manifold, max_level):
    """Levels contributing to the spectrum of the chosen operator."""
    if manifold not in SPECTRUM_MANIFOLDS:
        raise DomainError(f"unknown manifold {manifold!r}; expected one of {SPECTRUM_MANIFOLDS}")
    max_level = _level(max_level, "max_level")
    start = {S3: 0, SO3_TRIVIAL: 0, SO3_NONTRIVIAL: 1}[manifold]
    step = 1 if manifold == S3 else 2
    return range(start, max_level + 1, step)


@dataclass(frozen=True)
class SpectralLine:
    """One line of one level: ``block_multiplicity`` eigenvalues of the
    level's blocks, proved to lie in [eigenvalue - radius, eigenvalue + radius];
    ``tag`` is "A", "B", or "AB" when both blocks carry the line, and
    ``total_multiplicity`` is block multiplicity times (level + 1).

    Proof: :func:`~dirac3sphere.eigen._proved_values` keeps the i-th sorted
    value v_i of a row only when count(v_i - tol) <= i and
    count(v_i + tol) >= i + 1 (its bisection fallback is within tol too), so
    eigenvalue i lies in [v_i - tol, v_i + tol].  Every row of a level is
    proved with tol_n, the largest default tolerance of the level's full
    blocks; an odd level's rows are persymmetric halves, whose spectra
    together are the block's (:func:`_level_rows`).  A line is a maximal run
    of a level's sorted values each at most 2 tol_n above the previous one,
    so its interval [v_first - tol_n, v_last + tol_n] is disjoint from the
    level's other lines and holds exactly its members' eigenvalues.
    """

    eigenvalue: float
    radius: float
    level: int
    tag: str
    block_multiplicity: int
    total_multiplicity: int


#: the tag of each tag code; a tag's code is its index, A = 1 and B = 2 bits
_TAGS = ("", TAG_A, TAG_B, "AB")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectral lines as columns, sorted by (eigenvalue, level): line i has
    ``eigenvalue[i]``, ``radius[i]``, ``level[i]``, tag ``_TAGS[tag_code[i]]``
    and ``block_multiplicity[i]`` (see :class:`SpectralLine`).  Two spectra
    compare by identity, not by their arrays."""

    manifold: str
    metric: tuple
    max_level: int
    eigenvalue: np.ndarray
    radius: np.ndarray
    level: np.ndarray
    tag_code: np.ndarray
    block_multiplicity: np.ndarray

    @property
    def total_multiplicity(self):
        return self.block_multiplicity * (self.level + 1)

    @property
    def tags(self):
        return [_TAGS[g] for g in self.tag_code.tolist()]

    @functools.cached_property
    def lines(self):
        """The lines as :class:`SpectralLine` objects, built on first use."""
        return tuple(_line_objects(self.eigenvalue, self.radius, self.level, self.tag_code, self.block_multiplicity))

    def total_count(self):
        return int(self.total_multiplicity.sum())

    def merged_lines(self):
        """Across-level merged view: (eigenvalue, total multiplicity) pairs.

        Lines whose intervals overlap once widened to the largest radius
        collapse into one (:func:`_overlap_lines`, one segment).  Raw lines
        are never altered.
        """
        zeros = np.zeros(len(self.eigenvalue), dtype=int)
        halfwidths = np.full(len(zeros), self.radius.max(initial=0.0))
        _, centres, _, weights, _ = _overlap_lines(self.eigenvalue, zeros, halfwidths, self.total_multiplicity, zeros)
        return list(zip(centres.tolist(), weights.tolist()))


def _line_objects(centre, radius, level, code, weight):
    return [SpectralLine(c, r, n, _TAGS[g], w, w * (n + 1))
            for c, r, n, g, w in zip(*(x.tolist() for x in (centre, radius, level, code, weight)))]


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


def _full_rows(m, levels):
    """The full blocks of ``levels`` (ascending) in padded solver rows: the
    one writer of solver rows from a metric.

    Returns (D, E, sizes, tol, level) per row, the rows sorted by size,
    largest first: row r holds the diagonal of its symmetrized block in
    ``D[r]`` and the couplings in ``E[r]``, zero past its size ``sizes[r]``,
    as :func:`~dirac3sphere.eigen._sturm_counts` and LAPACK read them.  An
    even level is one row, A_n, which stands for both blocks; an odd level
    is two rows, A_n then B_n.  The entries are
    :func:`~dirac3sphere.blocks._raw_rows`, the one evaluation of the entry
    recurrences, followed by the float operations of
    :func:`~dirac3sphere.eigen.symmetrize`, so a row is the symmetrized
    level-n block of its tag bit for bit, and its tol is that block's
    :func:`~dirac3sphere.eigen.default_tolerance`.

    An even level's B block is A reversed (J A_n J), bit for bit, so the two
    are isospectral: the diagonal is +-a(n-2k) - C with the sign (-1)^k for
    A and -(-1)^k for B, and diag_A[n-k] = (-1)^(n-k) a(2k-n) - C = diag_B[k]
    because n - k has the parity of k; the coupling at index j is
    |f(j)| sqrt((j+1)(n-j)) with f = c+b at even j of A and odd j of B, else
    c-b, and index n-1-k has the opposite parity to k while (n-k)(k+1) is
    symmetric under the reversal.

    A block entry that is not finite raises
    :class:`~dirac3sphere.errors.Dirac3SphereError`.
    """
    ns = np.asarray(levels, dtype=np.int64)[::-1]
    n = np.repeat(ns, 1 + ns % 2)
    flip = np.zeros(len(n), dtype=bool)
    flip[1:] = n[1:] == n[:-1]  # the second row of an odd level is B
    D, S, P = _raw_rows(m, n, flip)
    with np.errstate(over="ignore", invalid="ignore"):  # _row_norms refuses what overflows
        S *= P
        E = np.sqrt(S[:, :-1])
    return D, E, n + 1, _tolerance(_row_norms(D, E)), n


def _level_rows(m, levels):
    """Every block of ``levels`` (ascending) as the solver rows of
    :func:`assemble`, cut from :func:`_full_rows`.

    Returns (D, E, sizes, level, weight, tag code, tol) per row, the rows
    sorted stably by size, largest first.  An even level keeps its A row,
    with weight 2 and tag "AB" (B_n is A_n reversed, see :func:`_full_rows`).
    Each row of an odd level, A_n then B_n, becomes its two halves of size
    h = (n+1)/2, weight 1 and tag "A" or "B": the leading h entries, with
    +e_{h-1} and then -e_{h-1} added to the last diagonal entry.  A level's
    tol is the largest tol of its full rows; as 1e-12 (1 + norm) is monotone
    in the norm, that is bit for bit the tol of the level's largest norm.

    Split lemma.  At odd n both symmetrized blocks are persymmetric, bit
    for bit: the diagonal term (-1)^(n-k) a(2k-n) equals (-1)^k a(n-2k),
    and coupling index n-1-j has the parity of j, with the two factors of
    (j+1)(n-j) swapped.  A symmetric persymmetric tridiagonal of even order
    2h has eigenvectors (x, +-Jx), so its spectrum is the union of the
    spectra of its leading h x h block with +e_{h-1} and with -e_{h-1} added
    to the last diagonal entry, e_{h-1} the middle coupling (Cantoni &
    Butler 1976).  The addition is rounded once, an error of at most
    eps ||T||, far below tol = 1e-12 (1 + ||T||).  A half's norm is at most
    the block's (|d +- e| <= |d| + e), so every half value proved within the
    level's tol is an eigenvalue of the block within that tol, and a line's
    radius keeps its meaning.

    A block entry that is not finite raises
    :class:`~dirac3sphere.errors.Dirac3SphereError`.
    """
    D, E, sizes, tol, n = _full_rows(m, levels)
    level_tol = np.zeros(int(n.max()) + 1)
    np.maximum.at(level_tol, n, tol)
    odd = n % 2 == 1
    second = np.zeros(len(n), dtype=bool)
    second[1:] = n[1:] == n[:-1]  # B, the second row of an odd level
    src = np.repeat(np.arange(len(n)), 1 + odd)  # the full row each new row is cut from
    fold = np.zeros(len(src), dtype=np.int64)
    fold[odd[src]] = np.tile([1, -1], int(odd.sum()))
    size = np.where(fold == 0, sizes[src], sizes[src] // 2)
    order = np.argsort(-size, kind="stable")
    src, fold, size = src[order], fold[order], size[order]

    width = size[0]
    Dh, Eh = D[src, :width], E[src, :width - 1]
    k = np.arange(width)
    Dh[k >= size[:, None]] = 0.0
    Eh[k[:-1] >= size[:, None] - 1] = 0.0
    half = np.flatnonzero(fold)
    mid = size[half] - 1
    Dh[half, mid] += fold[half] * E[src[half], mid]
    code = np.where(fold == 0, 3, 1 + second[src])
    return Dh, Eh, size, n[src], np.where(fold == 0, 2, 1), code, level_tol[n[src]]


def _lines_of_levels(m, levels):
    """Spectral lines of ``levels`` as columns (eigenvalue, radius, level,
    tag code, block multiplicity), sorted by (eigenvalue, level); see
    :func:`assemble`."""
    if not len(levels):
        return np.zeros(0), np.zeros(0), *(np.zeros(0, dtype=np.int64) for _ in range(3))
    D, E, sizes, level, weight, code, tol = _level_rows(m, levels)
    V = _proved_values(D, E, sizes, tol)
    values = V[np.arange(V.shape[1]) < sizes[:, None]]
    level, centre, radius, weight, code = _overlap_lines(
        values, *(np.repeat(x, sizes) for x in (level, tol, weight, code)))
    order = np.lexsort((level, centre))
    return tuple(x[order] for x in (centre, radius, level, code, weight))


#: the most entries, rows times width, of the padded solver rows that
#: :func:`assemble` builds (:func:`_affordable`).  At the last cutoffs it
#: admits, 647 on s3, 1024 on so3-nontrivial and 1447 on so3-trivial, a
#: whole ``spectrum`` run took 9, 13 and 50 s and peaked at 154, 198 and
#: 294 MB (2 cores, Python 3.11, numpy 2.4)
MAX_SOLVER_ENTRIES = 2 ** 20


def _solver_entries(levels):
    """Entries of the padded solver rows of :func:`_level_rows` for
    ``levels`` (a range), from the range alone: an even level n is one row
    of n + 1, an odd one four halves of (n + 1)/2, all padded to the
    widest, which the top two levels set."""
    odd = len(range(levels.start | 1, levels.stop, 2)) if levels.step == 1 else len(levels) * (levels.start % 2)
    return (len(levels) + 3 * odd) * max([(n + 1) // (1 + n % 2) for n in levels[-2:]], default=0)


def _affordable(levels):
    """``levels`` (a range) when their solver rows hold at most
    ``MAX_SOLVER_ENTRIES`` entries (:func:`_solver_entries`), else
    :class:`DomainError`, before any array."""
    entries = _solver_entries(levels)
    if entries > MAX_SOLVER_ENTRIES:
        raise DomainError(f"levels up to {levels[-1]} need {entries} solver entries, above the cap of 2^20")
    return levels


def level_lines(m, n):
    """Spectral lines of one level (an even one solved once, from A); see
    :func:`assemble`.  A level that is not a nonnegative integer raises
    :class:`DomainError`."""
    return _line_objects(*_lines_of_levels(m, [_level(n)]))


def assemble(m, manifold, max_level):
    """Assemble the spectrum of the chosen operator up to ``max_level``.

    Every block of every admissible level is written straight into padded
    rows (:func:`_level_rows`): an even level once, from A, and an odd level
    as the persymmetric halves of both blocks, proved within the tol of the
    level's full blocks.  One :func:`~dirac3sphere.eigen._proved_values`
    call solves them all, and one pass over all values groups them into
    lines: the values of a level whose proved intervals overlap form one
    line, with a proved radius and count (see :class:`SpectralLine` for the
    proof).  No two lines of a level overlap, and a line of one value
    carries that value unchanged.  The lines stay columns of the
    :class:`Spectrum`.  A cutoff whose solver rows would hold more than
    ``MAX_SOLVER_ENTRIES`` entries raises :class:`DomainError` before any
    array (:func:`_affordable`).
    """
    columns = _lines_of_levels(m, list(_affordable(admissible_levels(manifold, max_level))))
    return Spectrum(manifold, m.triple(), int(max_level), *columns)


def _rows_at(rows, idx):
    """Rows ``idx`` (ascending) of :func:`_full_rows` as (D, E, sizes, tol),
    trimmed to their largest size."""
    D, E, sizes, tol, _ = rows
    width = sizes[idx[0]]
    return D[idx, :width], E[idx, :width - 1], sizes[idx], tol[idx]


def _window_counts(rows, idx, hi, lo, u):
    """Eigenvalues of rows ``idx`` of :func:`_full_rows` in [-hi, hi),
    [-lo, lo) and [-u, u), with hi and lo one per row: one Sturm pass, a row
    of three counts for each row."""
    D, E, sizes, _ = _rows_at(rows, idx)
    return _windows(D, E, sizes, np.stack([hi, lo, np.full(len(idx), u)], axis=1))


#: :func:`enumerated_min_abs` seeds with the lowest-bound level among this
#: many first admissible levels
_SEED_LEVELS = 12


def enumerated_min_abs(m, manifold, max_level=25):
    """Numerically smallest |eigenvalue| over the admissible levels.

    Returns (value, multiplicity of the squared operator, levels solved or
    screened, ascending); the value lies within 2^k tol, tol the normalized
    block's :func:`~dirac3sphere.eigen.default_tolerance`, of the true
    minimum over the levels up to ``max_level``.

    1. The metric is replaced by its sorted form a >= b >= c, times 2^-k
       with the largest entry in [1, 2) (``metric._normalized``, exact).  A
       permutation of (a, b, c) is an inner automorphism of SU(2): an
       orientation-keeping isometry that commutes with -1, so it keeps both
       spin structures of SO(3) and every level spectrum, and the result is
       the same in every ordering.  Eigenvalues are homogeneous of degree 1
       in (a, b, c), so steps 2 to 5 run on the normalized metric and the
       value is scaled back by 2^k once: at 2^j m the result is 2^j times
       that at m, bit for bit, while neither rounds.
    2. :func:`~dirac3sphere.gershgorin.level_bounds` bounds lambda^2 from
       below on every admissible level: the least G(n, k) of the level, at
       k = 0, n and G's vertex.  Pruning takes each bound less its rounding
       allowance (``gershgorin._rounding_allowance``); a level where that
       is not finite is never pruned.
    3. The seed is the level with the lowest finite bound among the first 12
       admissible ones (the lowest finite bound of all when none of those
       is finite, the first level when none is); once bounds turn negative
       the lowest bound of all is often at the highest level, a poor seed.
       LAPACK gives each row of the seed (written into solver rows on its
       own) its candidate v_r = min |lambda|, and ``best``, the least of
       them, sets the threshold: the levels whose bound less its allowance
       is <= best^2 (1 + 1e-9) are screened, and those where it is
       <= u^2 (1 + 1e-9) are counted, u = best + ``COINCIDENCE_RTOL``
       max(1, best).
    4. Fused pass.  The seed level and every counted level go into one row
       set (:func:`_full_rows`: an even level is one row, A, with weight 2;
       the seed's own rows when no other level is counted), and one Sturm
       pass (:func:`_window_counts`) runs over all of them.  It proves each
       v_r on its seed row by the counts in [-(v_r + tol), v_r + tol) and
       [-(v_r - tol), v_r - tol)
       (:func:`~dirac3sphere.eigen._proved_min_abs`), screens every other
       row by its count in [-best, best), and counts every row in [-u, u).
       A seed row that fails its proof is bisected, and the pass runs again
       on the proved values.  When the screen finds no row inside, the seed
       stands: the value is best and the multiplicity the weighted count in
       [-u, u), each block weighted by n + 1, over the counted levels.
    5. Inside rows.  The screened rows with an eigenvalue in [-best, best)
       are solved by LAPACK, and one more pass over them alone proves their
       candidates, as in 4, and counts them in [-u', u'), u' the margin of
       the new minimum.  That count is the whole multiplicity while
       u' <= v_r - tol for every seed row: the proof counted nothing in
       [-(v_r - tol), v_r - tol), so nothing of a seed row lies in [-u', u');
       a screened row found empty at best holds nothing in [-u', u') since
       u' < best; and a level not screened has bound above best^2 (1 + 1e-9)
       >= u'^2 (1 + 1e-9), so it is not counted.  Otherwise the pass of 4
       runs again over every row, counting in [-u', u').  A failed proof is
       bisected and its pass run again on the proved values.

    Every count is an exact integer for the same row at the same shift as
    in a pass over all counted rows, so value and multiplicity do not
    depend on which pass produced them.  The seed sets only the screening
    threshold: the screen and the proof hold for any seed, so the value
    does not depend on it.  A lower threshold screens fewer levels, so the
    third return value shrinks, but keeps its meaning.

    Within tol.  The screen is exact: a block it passes over has no
    eigenvalue in [-best, best), so nothing in it beats the returned value.
    So is pruning: a pruned level's bound less its allowance exceeds
    best^2 (1 + 1e-9), the allowance exceeds the rounding of the bound (see
    :func:`~dirac3sphere.gershgorin.level_bounds`) and the slack 1e-9 the
    rounding of best^2 and of the comparison, so its exact Gershgorin bound
    exceeds best^2 and no eigenvalue of its operator on the stored doubles
    has |lambda| <= best; with u for best, none is left out of the count.
    The float-built rows that are counted differ from that operator by the
    rounding of their entries, far below tol, and each candidate is proved
    within tol (steps 4 and 5), all at the normalized scale.  A block with
    a non-finite entry raises :class:`~dirac3sphere.errors.Dirac3SphereError`,
    and a value beyond the double range once scaled back ``OverflowError``;
    entries too far apart to normalize exactly, and a cutoff of 2^26 or
    more (beyond ``level_bounds``), raise :class:`DomainError`, the cutoff
    before any array.
    """
    levels = admissible_levels(manifold, max_level)
    _below_level_limit(levels.stop - 1, "level cutoff")
    levels = np.array(levels)
    if not len(levels):
        raise DomainError("no admissible levels below the requested cutoff")
    ms, k = _normalized(m)
    bounds = level_bounds(ms, levels)
    with np.errstate(invalid="ignore"):  # inf - inf
        low = bounds - _rounding_allowance(ms, levels)
    unbounded = ~np.isfinite(low)

    def within(x):
        # mask of the levels that may hold an eigenvalue with |lambda| <= x
        return unbounded | (low <= x * x * (1.0 + 1e-9))

    def margin(x):
        return x + COINCIDENCE_RTOL * max(1.0, x)

    finite = np.where(np.isfinite(bounds), bounds, np.inf)
    lead = finite[:_SEED_LEVELS]
    first = int(np.argmin(lead if np.isfinite(lead).any() else finite))
    seed = _full_rows(ms, levels[first:first + 1])
    is_seed = np.arange(len(levels)) == first

    def fused(values):
        # the pass of step 4 for the seed candidates ``values``
        best = float(values.min())
        u = margin(best)
        chosen = within(u) | is_seed
        rows = seed if chosen.sum() == 1 else _full_rows(ms, levels[chosen])  # the seed's rows, bit for bit
        at = np.searchsorted(levels, rows[4])
        hi, lo = np.full(len(at), best), np.full(len(at), best)
        hi[at == first], lo[at == first] = values + seed[3], values - seed[3]
        return best, u, rows, at, hi, lo, _window_counts(rows, np.arange(len(at)), hi, lo, u)

    values = _min_abs_candidates(*seed[:3])
    best, u, rows, at, hi, lo, counts = fused(values)
    values, failed = _proved_min_abs(*seed[:4], values, counts[at == first, :2])
    if failed.any():
        best, u, rows, at, hi, lo, counts = fused(values)
    seeded = at == first
    screened = within(best) | is_seed
    counted = np.arange(len(at))  # the rows whose count in [-u, u) is counts[:, 2]
    inside = np.flatnonzero(screened[at] & ~seeded & (counts[:, 0] > 0))
    value = best
    if len(inside):
        sub = _rows_at(rows, inside)

        def prove(v):
            # the pass of step 5 for the inside candidates ``v``
            w = margin(min(best, float(v.min())))
            return w, _window_counts(rows, inside, v + sub[3], v - sub[3], w)

        v = _min_abs_candidates(*sub[:3])
        u, inside_counts = prove(v)
        v, failed = _proved_min_abs(*sub, v, inside_counts[:, :2])
        if failed.any():
            u, inside_counts = prove(v)
        value = min(best, float(v.min()))
        if u <= lo[seeded].min() and (counts[seeded, 1] <= 0).all():
            counts, counted = inside_counts, inside
        else:
            counts = _window_counts(rows, counted, hi, lo, u)
    n = rows[4][counted]
    keep = within(u)[at[counted]]
    mult = int(np.dot(counts[keep, 2], ((n + 1) * (2 - n % 2))[keep]))
    return math.ldexp(value, k), mult, levels[screened].tolist()


def weyl_count_estimate(m, manifold, lam):
    """Leading Weyl-law estimate of #{|eigenvalue| <= lam}: vol/(3 pi^2) lam^3.

    With vol = 2 pi^2/(abc) on the sphere and half that on SO(3), this is
    (2/3) (lam / (a^(1/3) b^(1/3) c^(1/3)))^3, halved on SO(3): the cube of a
    ratio of one scale, which stays in the double range where abc or lam^3
    would not.
    """
    ratio = lam / (m.a ** (1 / 3) * m.b ** (1 / 3) * m.c ** (1 / 3))
    return (2.0 if _volume_space(manifold) == S3 else 1.0) / 3.0 * ratio ** 3


@dataclass(frozen=True)
class HeatTraceResult:
    value: float
    tail_estimate: float
    t: float
    max_level: int
    lambda_max: float
    computed_count: int


def heat_trace(spectrum, t):
    """Truncated trace of exp(-t D^2) over ``spectrum`` plus a truncation-tail estimate.

    The tail estimate is exp(-t lambda_max^2) times the Weyl-estimated
    number of eigenvalues the level cutoff may have missed below the largest
    computed |eigenvalue|; a heuristic order-of-magnitude figure, not a
    certified bound.
    """
    if not t > 0:
        raise DomainError("t must be positive")
    mult = spectrum.total_multiplicity
    with np.errstate(over="raise"):  # a square beyond the double range is an ArithmeticError, as in floats
        value = float(np.dot(mult, np.exp(-t * spectrum.eigenvalue ** 2)))
    lam_max = float(np.abs(spectrum.eigenvalue).max(initial=0.0))
    computed = int(mult.sum())
    missed = max(weyl_count_estimate(Metric(*spectrum.metric), spectrum.manifold, lam_max) - computed, 0.0)
    tail = math.exp(-t * lam_max ** 2) * missed
    return HeatTraceResult(
        value=value,
        tail_estimate=tail,
        t=float(t),
        max_level=spectrum.max_level,
        lambda_max=lam_max,
        computed_count=computed,
    )


def counting_function(spectrum, lam):
    """Number of eigenvalues with |eigenvalue| <= lam in an :func:`assemble`
    result, multiplicity counted.

    Warns with :class:`TruncationWarning` when its top level still lies
    entirely at or below lam, in which case higher levels would certainly
    contribute as well, or when the cutoff admits no level at all.
    """
    if not lam > 0:
        raise DomainError("lam must be positive")
    include = lam + 1e-9 * (1.0 + lam)
    modulus = np.abs(spectrum.eigenvalue)
    count = int(spectrum.total_multiplicity[modulus <= include].sum())
    levels = admissible_levels(spectrum.manifold, spectrum.max_level)
    if not levels:
        detail = f"it admits no level on {spectrum.manifold}"
    else:
        top_max = float(modulus[spectrum.level == levels[-1]].max(initial=0.0))
        detail = f"largest |eigenvalue| at level {levels[-1]} is {top_max}" if top_max <= lam else None
    if detail is not None:
        warnings.warn(
            f"level cutoff {spectrum.max_level} is insufficient for lam = {lam}: {detail}",
            TruncationWarning,
            stacklevel=2,
        )
    return count
