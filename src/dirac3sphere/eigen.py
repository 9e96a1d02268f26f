"""Eigenvalues of symmetrizable real tridiagonal matrices.

The level blocks are diagonally similar to symmetric tridiagonal matrices
because paired off-diagonal entries always share their sign.  For a shift x
the number of negative pivots of the LDL^T recurrence

    q_0 = d_0 - x,   q_i = d_i - x - e_{i-1}^2 / q_{i-1}

equals the number of eigenvalues below x (the Sturm count).

Every query runs that recurrence in one batched kernel, ``_sturm_counts``,
over many blocks and many shifts at once; the blocks are sorted by size and
padded (``_pack``), and the pass stops visiting a block after its last row.
The kernel serves three ways:

1. Full spectra are solved by LAPACK (``numpy.linalg.eigvalsh``) and then
   proved: the i-th of the sorted values lam_0 <= lam_1 <= ... lies within
   tol of the i-th eigenvalue when count(lam_i - tol) <= i and
   count(lam_i + tol) >= i + 1 (``_proved_values``).  It takes packed rows
   with a tol per row: those of ``_pack`` (``eigenvalues_batch``), or the
   rows ``spectrum._full_rows`` writes straight from a metric, from which
   ``spectrum._level_rows`` cuts every level of an assembled spectrum.
2. Bracket queries: counts at given shifts (``_sturm_counts`` itself), and
   the smallest |eigenvalue| of each row, solved by LAPACK and proved with
   four shifts (``_min_abs_rows``).  Its parts are row kernels on packed
   rows: the LAPACK candidates (``_min_abs_candidates``), the counts in
   windows [-x, x) of one Sturm pass (``_windows``), and the proof with its
   bisection fallback (``_proved_min_abs``).  ``spectrum.enumerated_min_abs``
   calls them on the rows of ``spectrum._full_rows``, with the seed's proof,
   the screen and the multiplicity count as the windows of one pass.  On
   block objects ``count_below_batch`` and ``min_abs_batch`` pack first;
   ``count_below``, ``eigenvalues`` and ``min_abs_eigenvalue`` are batches
   of one.
3. A block whose LAPACK values fail the proof is solved again by
   Sturm-count bisection inside its Gershgorin bracket (``_bisect_range``),
   which is certified by construction.

Either way every returned value lies within tol of the truth.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, Dirac3SphereError

_SAFMIN = float(np.finfo(float).tiny)
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class SymmetrizedTridiagonal:
    """Symmetric tridiagonal carrier of a block's spectrum.

    ``offdiag[k]`` is sqrt(sub[k] * sup[k]) of the source block; diagonal
    similarity leaves the spectrum untouched.  A zero coupling, where the
    matrix decouples, needs no special case: the Sturm kernel and LAPACK
    both take it as it is.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def size(self):
        return len(self.diag)

    def infnorm(self):
        r = np.abs(self.diag).copy()
        if self.size > 1:
            r[1:] += self.offdiag
            r[:-1] += self.offdiag
        return float(r.max())

    def to_dense(self):
        M = np.diag(self.diag)
        if self.size > 1:
            M += np.diag(self.offdiag, -1) + np.diag(self.offdiag, 1)
        return M


def symmetrize(block):
    """Diagonal-similarity reduction of a block to symmetric tridiagonal form.

    Requires sub[k]*sup[k] >= 0 with joint vanishing; a violation means the
    block was not produced by the level recurrences and raises
    :class:`ConsistencyError`.  A product that overflows stays inf, silently;
    the solvers refuse the non-finite block.
    """
    sub = np.asarray(block.sub, dtype=float)
    sup = np.asarray(block.sup, dtype=float)
    with np.errstate(over="ignore"):
        prod = sub * sup
    if np.any(prod < 0.0):
        k = int(np.argmin(prod))
        raise ConsistencyError(
            f"off-diagonal pair at {k} has negative product {prod[k]!r}; block is not symmetrizable"
        )
    if np.any((sub == 0.0) != (sup == 0.0)):
        raise ConsistencyError("off-diagonal entries do not vanish jointly")
    return SymmetrizedTridiagonal(diag=np.asarray(block.diag, dtype=float).copy(), offdiag=np.sqrt(prod))


def _tolerance(norm):
    return 1e-12 * (1.0 + norm)


def default_tolerance(t):
    """Scale-aware absolute tolerance 1e-12 * (1 + max-norm)."""
    return _tolerance(t.infnorm())


def _sturm_counts(D, E2, X, sizes):
    """Sturm counts of many blocks at many shifts in one pass.

    Row b of ``D`` (diagonals) and ``E2`` (squared couplings) holds block b,
    padded past its size ``sizes[b]``; row b of ``X`` holds its shifts.
    ``sizes`` must be non-increasing, so the blocks still running at pivot i
    are a leading slice and padding is never read.  Returns the number of
    eigenvalues of block b below each of its shifts.
    """
    pivmin = _SAFMIN * np.maximum(1.0, E2.max(axis=1, initial=0.0))[:, None]
    active = (np.asarray(sizes)[:, None] > np.arange(D.shape[1])).sum(axis=0)
    q = D[:, :1] - X
    np.copyto(q, -pivmin, where=np.abs(q) < pivmin)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, D.shape[1]):
        a = active[i]
        qa = q[:a]
        np.divide(E2[:a, i - 1:i], qa, out=qa)
        np.subtract(D[:a, i:i + 1] - X[:a], qa, out=qa)
        np.copyto(qa, -pivmin[:a], where=np.abs(qa) < pivmin[:a])
        count[:a] += qa < 0.0
    return count


def _bisect_range(d, e, tol):
    """All eigenvalues of the tridiagonal (d, e) by Sturm-count bisection."""
    m = len(d)
    radius = np.zeros(m)
    radius[1:] += e
    radius[:-1] += e
    lo = float((d - radius).min()) - tol
    hi = float((d + radius).max()) + tol
    if hi <= lo:
        hi = lo + tol
    steps = max(1, min(_MAX_BISECTIONS, int(math.ceil(math.log2(max((hi - lo) / tol, 2.0)))) + 1))
    los = np.full(m, lo)
    his = np.full(m, hi)
    idx = np.arange(m)
    D, E2 = d[None, :], (e * e)[None, :]
    for _ in range(steps):
        mids = 0.5 * (los + his)
        below = _sturm_counts(D, E2, mids[None, :], [m])[0] > idx
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
    return 0.5 * (los + his)


def _solve(D, E, sizes):
    """LAPACK eigenvalues of the padded blocks, ascending in each row.

    Runs of equal size (adjacent, as ``sizes`` is sorted) share one stacked
    ``eigvalsh`` call; the entries past each block's size stay zero.
    """
    V = np.zeros(D.shape)
    b0 = 0
    for s, run in itertools.groupby(sizes):
        b1 = b0 + len(list(run))
        M = np.zeros((b1 - b0, s * s))
        M[:, ::s + 1] = D[b0:b1, :s]
        M[:, s::s + 1] = E[b0:b1, :s - 1]   # subdiagonal; eigvalsh reads the lower triangle
        V[b0:b1, :s] = np.linalg.eigvalsh(M.reshape(-1, s, s))
        b0 = b1
    return V


def _pack(ts):
    """Blocks sorted by size, largest first, and padded to a common size.

    Returns (order, sizes, D, E, norms): row b of the diagonals ``D`` and
    couplings ``E`` holds block ``ts[order[b]]`` of size ``sizes[b]``, zero
    past it; ``norms[b]`` is its :meth:`SymmetrizedTridiagonal.infnorm`.
    The Sturm pass and the LAPACK calls never read the padding.  A block with
    a non-finite entry raises :class:`Dirac3SphereError`.
    """
    order = sorted(range(len(ts)), key=lambda j: -ts[j].size)
    sizes = [ts[j].size for j in order]
    B, N = len(ts), sizes[0]
    pad = np.arange(N) >= np.array(sizes)[:, None]
    D = np.zeros((B, N))
    E = np.zeros((B, N - 1))
    D[~pad] = np.concatenate([ts[j].diag for j in order])
    E[~pad[:, 1:]] = np.concatenate([ts[j].offdiag for j in order])
    return order, sizes, D, E, _row_norms(D, E)


def _row_norms(D, E):
    """Infinity norm of every packed row, each row summed as
    :meth:`SymmetrizedTridiagonal.infnorm` sums it; a row with a non-finite
    entry raises :class:`Dirac3SphereError`."""
    R = np.abs(D)
    R[:, 1:] += E
    R[:, :-1] += E
    norms = R.max(axis=1)
    if not np.isfinite(norms).all():
        raise Dirac3SphereError("block entries are not finite; the spectrum cannot be computed")
    return norms


def _tolerances(norms, tol):
    if tol is None:
        return _tolerance(norms)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return np.full(len(norms), float(tol))


def _unsort(order, rows):
    out = np.empty_like(rows)
    out[order] = rows
    return out


def eigenvalues_batch(ts, tol=None):
    """All eigenvalues of each block in ``ts``, ascending, each within tol.

    ``tol`` defaults to :func:`default_tolerance` of each block.  The values
    come from LAPACK and are proved by one Sturm-count pass over all blocks
    (see the module docstring); a block whose values fail the check is
    solved by bisection instead.  Degenerate clusters come out as repeated
    values.  A block with a non-finite entry raises
    :class:`Dirac3SphereError`.
    """
    ts = list(ts)
    if not ts:
        return []
    order, sizes, D, E, norms = _pack(ts)
    V = _proved_values(D, E, sizes, _tolerances(norms, tol))
    out = [None] * len(ts)
    for b, (j, s) in enumerate(zip(order, sizes)):
        out[j] = V[b, :s].copy()
    return out


def _proved_values(D, E, sizes, tols):
    """All eigenvalues of packed blocks, ascending in each row, each within
    its row's tol.

    Row b of ``D`` and ``E`` holds a block of size ``sizes[b]`` as
    :func:`_pack` lays it out (sizes non-increasing, zero past each size).
    LAPACK gives the values and one Sturm pass proves them (see the module
    docstring); a row whose values fail the check is solved by bisection
    instead.  Entries past a row's size are zero.
    """
    N = sizes[0]
    V = _solve(D, E, sizes)
    X = np.concatenate([V - tols[:, None], V + tols[:, None]], axis=1)
    counts = _sturm_counts(D, E * E, X, sizes)
    i = np.arange(N)
    pad = i >= np.asarray(sizes)[:, None]
    proved = (((counts[:, :N] <= i) & (counts[:, N:] >= i + 1)) | pad).all(axis=1)
    for b in np.flatnonzero(~proved):
        s = sizes[b]
        V[b, :s] = _bisect_range(D[b, :s], E[b, :s - 1], tols[b])
    return V


def eigenvalues(t, tol=None):
    """All eigenvalues of ``t``, ascending, each within ``tol`` of the truth.

    The batch of one of :func:`eigenvalues_batch`.
    """
    return eigenvalues_batch([t], tol)[0]


def count_below_batch(ts, shifts):
    """Sturm counts of every block in ``ts`` at every shift, in one pass.

    Entry (j, i) is the number of eigenvalues of ``ts[j]`` strictly below
    ``shifts[i]``.  A block with a non-finite entry raises
    :class:`Dirac3SphereError`.
    """
    ts = list(ts)
    shifts = np.asarray(shifts, dtype=float)
    if not ts:
        return np.zeros((0, len(shifts)), dtype=np.int64)
    order, sizes, D, E, _ = _pack(ts)
    X = np.broadcast_to(shifts, (len(ts), len(shifts)))
    return _unsort(order, _sturm_counts(D, E * E, X, sizes))


def count_below(t, x):
    """Number of eigenvalues of ``t`` strictly below the shift ``x``.

    The batch of one of :func:`count_below_batch`.
    """
    return int(count_below_batch([t], [x])[0, 0])


def min_abs_batch(ts, tol=None):
    """Smallest absolute eigenvalue of every block in ``ts``, each within tol.

    ``tol`` defaults to :func:`default_tolerance` of each block.  The blocks
    are packed (:func:`_pack`) and solved by :func:`_min_abs_rows`.  A block
    with a non-finite entry raises :class:`Dirac3SphereError`.
    """
    ts = list(ts)
    if not ts:
        return np.zeros(0)
    order, sizes, D, E, norms = _pack(ts)
    return _unsort(order, _min_abs_rows(D, E, sizes, _tolerances(norms, tol)))


def _min_abs_rows(D, E, sizes, tols):
    """Smallest absolute eigenvalue of every packed row, each within its tol.

    Rows as :func:`_pack` lays them out, ``D.shape[1] == sizes[0]``.  LAPACK
    gives the candidate v = min |lambda| of each row
    (:func:`_min_abs_candidates`), and one Sturm pass proves it
    (:func:`_windows`, :func:`_proved_min_abs`).
    """
    v = _min_abs_candidates(D, E, sizes)
    return _proved_min_abs(D, E, sizes, tols, v, _windows(D, E, sizes, np.stack([v + tols, v - tols], axis=1)))[0]


def _min_abs_candidates(D, E, sizes):
    """Smallest |LAPACK value| of every packed row, not yet proved."""
    pad = np.arange(sizes[0]) >= np.asarray(sizes)[:, None]
    return np.where(pad, np.inf, np.abs(_solve(D, E, sizes))).min(axis=1)


def _windows(D, E, sizes, radii):
    """Eigenvalues of every packed row in [-x, x) for each x in its row of
    ``radii``, from one Sturm pass; an interval with x <= 0 is empty and
    counts 0 or less."""
    counts = _sturm_counts(D, E * E, np.concatenate([-radii, radii], axis=1), sizes)
    return counts[:, radii.shape[1]:] - counts[:, :radii.shape[1]]


def _proved_min_abs(D, E, sizes, tols, v, windows):
    """The candidates v of packed rows, proved or replaced.

    ``windows`` holds each row's eigenvalue counts in [-(v+tol), v+tol) and
    [-(v-tol), v-tol) (:func:`_windows`).  The first at least one means some
    |lambda| <= v + tol, the second zero (or the interval empty) means every
    |lambda| >= v - tol: v is proved within tol.  A row that fails takes the
    smallest |value| of its bisected spectrum, each value of which lies
    within tol.  Returns the values and the mask of the rows bisected.
    """
    failed = ~((windows[:, 0] >= 1) & (windows[:, 1] <= 0))
    v = v.copy()
    for b in np.flatnonzero(failed):
        s = sizes[b]
        v[b] = np.abs(_bisect_range(D[b, :s], E[b, :s - 1], tols[b])).min()
    return v, failed


def min_abs_eigenvalue(block, tol=None):
    """Smallest absolute eigenvalue of a block, within ``tol``.

    The batch of one of :func:`min_abs_batch`.
    """
    return float(min_abs_batch([symmetrize(block)], tol)[0])
