"""Eigenvalues of symmetrizable real tridiagonal matrices.

The level blocks are diagonally similar to symmetric tridiagonal matrices
because paired off-diagonal entries always share their sign.  For a shift x
the number of negative pivots of the LDL^T recurrence

    q_0 = d_0 - x,   q_i = d_i - x - e_{i-1}^2 / q_{i-1}

equals the number of eigenvalues below x (the Sturm count).

Every query runs that recurrence in one batched kernel, ``_sturm_counts``,
over many blocks and many shifts at once, on padded solver rows: the blocks
sorted by size, largest first, and zero past each size, as
``spectrum._full_rows`` writes them straight from a metric.  The pass stops
visiting a row after its last entry.  The kernel serves three ways:

1. Full spectra are solved by LAPACK (``numpy.linalg.eigvalsh``) and then
   proved: the i-th of the sorted values lam_0 <= lam_1 <= ... lies within
   tol of the i-th eigenvalue when count(lam_i - tol) <= i and
   count(lam_i + tol) >= i + 1 (``_proved_values``).  It takes the rows
   that ``spectrum._level_rows`` cuts for every level of an assembled
   spectrum.
2. Bracket queries: counts at given shifts (``_sturm_counts`` itself), and
   the smallest |eigenvalue| of each row, solved by LAPACK and proved with
   four shifts (``_min_abs_rows``).  Its parts are row kernels too: the
   LAPACK candidates (``_min_abs_candidates``), the counts in windows
   [-x, x) of one Sturm pass (``_windows``), and the proof with its
   bisection fallback (``_proved_min_abs``).  ``spectrum.enumerated_min_abs``
   calls them on the rows of ``spectrum._full_rows``, with the seed's proof,
   the screen and the multiplicity count as the windows of one pass.
3. A block whose LAPACK values fail the proof is solved again by
   Sturm-count bisection inside its Gershgorin bracket (``_bisect_range``),
   which is certified by construction.

The block-object API, ``eigenvalues``, ``count_below``,
``min_abs_eigenvalue`` and ``default_tolerance``, takes a ``DiracBlock`` or
its ``SymmetrizedTridiagonal`` alike and runs the same row kernels on it as
one row (``_one_row``, which symmetrizes the former).  Either way every
returned value lies within tol of the truth.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, Dirac3SphereError, DomainError

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
    """Scale-aware absolute tolerance 1e-12 * (1 + max-norm) of the
    symmetrized block (:func:`_one_row`)."""
    return float(_one_row(t)[3][0])


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


def _row_norms(D, E):
    """Infinity norm of every packed row: the largest sum of |d_i| and the
    couplings beside it; a row with a non-finite entry raises
    :class:`Dirac3SphereError`."""
    R = np.abs(D)
    R[:, 1:] += E
    R[:, :-1] += E
    norms = R.max(axis=1)
    if not np.isfinite(norms).all():
        raise Dirac3SphereError("block entries are not finite; the spectrum cannot be computed")
    return norms


def _one_row(t, tol=None):
    """Block ``t``, a :class:`SymmetrizedTridiagonal` or a block that
    :func:`symmetrize` takes, as one solver row (D, E, sizes, tols),
    checked by :func:`_row_norms`; ``tol`` defaults to
    :func:`default_tolerance` and must be positive."""
    t = t if isinstance(t, SymmetrizedTridiagonal) else symmetrize(t)
    D = np.asarray(t.diag, dtype=float)[None, :]
    E = np.asarray(t.offdiag, dtype=float)[None, :]
    norms = _row_norms(D, E)
    if tol is None:
        return D, E, [t.size], _tolerance(norms)
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    return D, E, [t.size], np.full(1, float(tol))


def _proved_values(D, E, sizes, tols):
    """All eigenvalues of packed blocks, ascending in each row, each within
    its row's tol.

    Row b of ``D`` and ``E`` holds a block of size ``sizes[b]``, zero past
    it; ``sizes`` is non-increasing and ``D.shape[1] == sizes[0]``.  LAPACK
    gives the values and one Sturm pass proves them (see the module
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

    ``tol`` defaults to :func:`default_tolerance`; it must be positive.  The
    values come from LAPACK and are proved by one Sturm pass
    (:func:`_proved_values`); if the proof fails they are bisected instead.
    Degenerate clusters come out as repeated values.  A block with a
    non-finite entry raises :class:`Dirac3SphereError`.
    """
    return _proved_values(*_one_row(t, tol))[0]


def count_below(t, x):
    """Number of eigenvalues of ``t`` strictly below the shift ``x``.

    A NaN shift raises :class:`DomainError`, a block with a non-finite entry
    :class:`Dirac3SphereError`.
    """
    if math.isnan(x):
        raise DomainError("the shift of a Sturm count must not be NaN")
    D, E, sizes, _ = _one_row(t)
    return int(_sturm_counts(D, E * E, np.full((1, 1), float(x)), sizes)[0, 0])


def _min_abs_rows(D, E, sizes, tols):
    """Smallest absolute eigenvalue of every packed row, each within its tol.

    Padded rows as :func:`_proved_values` takes them.  LAPACK gives the
    candidate v = min |lambda| of each row (:func:`_min_abs_candidates`),
    and one Sturm pass proves it (:func:`_windows`, :func:`_proved_min_abs`).
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

    Solved as one row (:func:`_one_row`) by :func:`_min_abs_rows`; ``tol``
    defaults to :func:`default_tolerance` and must be positive.  A block
    with a non-finite entry raises :class:`Dirac3SphereError`.
    """
    return float(_min_abs_rows(*_one_row(block, tol))[0])
