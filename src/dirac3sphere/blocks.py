"""Level blocks of the Dirac operator in the A/B basis.

For each level n >= 0 the operator restricts to a 2(n+1)-dimensional
invariant space of equivariant spinor maps.  In the parity-adapted basis
{A_0..A_n, B_0..B_n} the restriction splits into two real tridiagonal
(n+1)x(n+1) blocks, both shifted by -C on the diagonal.

Two independent constructions are provided.  The closed entry recurrences
are evaluated in one place, ``_raw_rows``, for whole blocks of many levels
in padded rows: ``spectrum._full_rows`` symmetrizes them into solver rows,
and ``build_block`` is the one-row cut that carries a single block as a
``DiracBlock``.  The representation construction applies
f -> -sum_l E_l f X_l - C f, with the su(2) representation matrices X_l and
the Clifford multiplication E_l, to the matrix units.  A_k is the unit at
spinor row r = k mod 2 and column k, B_k the one in the other row, so entry
(i, j) of the level operator is

    -sum_l E_l[r_i, r_j] X_l[k_j, k_i] - C delta_ij,

and every entry with |k_i - k_j| > 1 is exactly zero: X_1 is diagonal and
X_2, X_3 couple k only to k +- 1.  ``_band`` builds that nonzero band of one
level, and ``build_from_representation`` scatters it into the dense matrix.
Every entry of either construction is a polynomial of degree <= 1 in each
of a, b, c and C, so the two agree for every metric once they agree on the
16 points {0, 1}^4; ``tests/test_cross_check.py`` proves it that way at
every level 0..300, and nothing compares them at run time.  Closed forms
for the small levels (characteristic polynomials at n = 2, 4 and explicit
eigenvalues at n = 1, 3) round out the module; their exact formulas,
``_char_poly_coeffs`` and ``_level3_radicals``, live in
:mod:`~dirac3sphere.gershgorin`, whose certificate decides them in integers
without numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError, UnsupportedLevelError
from .gershgorin import _char_poly_coeffs, _level, _level3_radicals

TAG_A = "A"
TAG_B = "B"
TAGS = (TAG_A, TAG_B)

#: Clifford multiplication by the three frame vectors on 2-spinors.
#: Their product acts as -Id, which turns the C-term of the operator into
#: a plain diagonal shift.
CLIFFORD = (
    np.array([[1j, 0.0], [0.0, -1j]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [1j, 0.0]]),
)
_CLIFFORD = np.array(CLIFFORD)


@dataclass(frozen=True)
class DiracBlock:
    """One tridiagonal block of the level-n operator, shift -C included.

    ``sub[k]`` is the entry at (k+1, k), ``sup[k]`` the entry at (k, k+1).
    The two always share their sign: their product is (c+b)^2 (k+1)(n-k) or
    (c-b)^2 (k+1)(n-k) depending on parity, so the block is diagonally
    symmetrizable and has a real spectrum.
    """

    level: int
    tag: str
    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @property
    def size(self):
        return self.level + 1

    def to_dense(self):
        M = np.diag(self.diag)
        if self.level > 0:
            M += np.diag(self.sub, -1) + np.diag(self.sup, 1)
        return M

    def infnorm(self):
        n = self.size
        r = np.abs(self.diag).copy()
        if n > 1:
            r[1:] += np.abs(self.sub)
            r[:-1] += np.abs(self.sup)
        return float(r.max())


def _raw_rows(m, n, flip):
    """Level blocks in padded rows, before symmetrization: the one writer of
    the closed entry recurrences.

    Row r holds the level-``n[r]`` block (B where ``flip[r]``, else A): its
    n[r] + 1 diagonal entries in ``D`` and its sub- and superdiagonal entries
    of index j < n[r] in ``S`` and ``P``; every other entry is zero.  The
    diagonal alternates +-a(n-2k) by parity of k and carries the shift -C;
    the coupling weight alternates between (c+b) and (c-b), and sub entry j
    is the weight times (j+1), sup entry j the weight times (n-j).  B is A
    with the parities swapped.
    Overflow gives inf or nan silently; callers check.
    """
    a, b, c = m.triple()
    k = np.arange(int(n.max()) + 1)
    nn = n[:, None]
    kept = (k % 2 == 0) != flip[:, None]  # A's sign and c+b at even k; B swaps the parities
    with np.errstate(over="ignore", invalid="ignore"):
        D = np.where(k <= nn, np.where(kept, 1.0, -1.0) * (a * (nn - 2 * k)) - m.C, 0.0)
        f = np.where(k < nn, np.where(kept, c + b, c - b), 0.0)
        return D, f * (k + 1), f * (nn - k)


def build_block(m, n, tag):
    """Level-n block from the closed entry recurrences: the one row of
    :func:`_raw_rows` for level n and ``tag``, cut to its size."""
    n = _level(n)
    if tag not in TAGS:
        raise DomainError(f"unknown block tag {tag!r}")
    D, S, P = _raw_rows(m, np.array([n]), np.array([tag == TAG_B]))
    return DiracBlock(level=n, tag=tag, diag=D[0], sub=S[0, :n], sup=P[0, :n])


def _rep_entries(m, n, k):
    """The entries X_l[k, k+d] of the matrices of the derived irreducible
    su(2) action at level n, as an array indexed [l - 1, d + 1] over the
    broadcast shape of n and k.  On the monomial basis {P_0, ..., P_n}

        X1 . P_k = i a (n - 2k) P_k
        X2 . P_k = b k P_{k-1} - b (n - k) P_{k+1}
        X3 . P_k = i c k P_{k-1} + i c (n - k) P_{k+1}

    so X_1 is diagonal and X_2, X_3 only couple k to k +- 1: these are all
    the entries that can be nonzero."""
    a, b, c = m.triple()
    up, down = k + 1, n - k + 1  # X_2 and X_3 at d = +1 and d = -1
    X = np.zeros((3, 3) + np.broadcast(n, k).shape, dtype=complex)
    X[0, 1] = 1j * a * (n - 2 * k)
    X[1, 0], X[1, 2] = -b * down, b * up
    X[2, 0], X[2, 2] = 1j * c * down, 1j * c * up
    return X


@dataclass(frozen=True)
class RepresentationOperator:
    """Level-n operator on the flattened basis {A_0..A_n, B_0..B_n}."""

    level: int
    matrix: np.ndarray

    def blocks(self):
        """Split into the two real tridiagonal blocks.

        Raises :class:`ConsistencyError` if the matrix fails to be
        block-diagonal up to 1e-12 times its magnitude.
        """
        dim = self.level + 1
        M = self.matrix
        scale = max(1.0, float(np.abs(M).max()))
        off = max(float(np.abs(M[:dim, dim:]).max()), float(np.abs(M[dim:, :dim]).max()))
        if off > 1e-12 * scale:
            raise ConsistencyError(
                f"level {self.level}: operator is not block-diagonal in the A/B basis (residue {off:.3e})"
            )
        return M[:dim, :dim].real.copy(), M[dim:, dim:].real.copy()


def _band(m, n):
    """The band of the unshifted level-n operator (see the module
    docstring), as a complex array indexed [s, t, d + 1, k]: the coordinate
    of basis element (s, k + d) in the image of (t, k), tag 0 being A and 1
    being B, so

        band[s, t, d + 1, k] = -sum_l E_l[(s + k + d) % 2, (t + k) % 2] X_l[k, k + d]

    with E_l = CLIFFORD[l - 1], and zero where k + d leaves 0..n.
    Every E_l entry is 0, +-1 or +-i, so each product is exact, and at most
    two are nonzero: each entry is rounded once, as in a dense evaluation.
    """
    k = np.arange(n + 1)
    d = np.arange(-1, 2)[:, None]
    s, t = np.arange(2)[:, None, None, None], np.arange(2)[:, None, None]
    E = _CLIFFORD[:, (s + k + d) % 2, (t + k) % 2]  # [l - 1, s, t, d + 1, k]
    with np.errstate(over="ignore", invalid="ignore"):
        band = -np.einsum("lstdk,ldk->stdk", E, _rep_entries(m, n, k))
    band[:, :, (k + d < 0) | (k + d > n)] = 0.0
    return band


def build_from_representation(m, n):
    """Level-n operator assembled from the representation matrices: the
    level-n slice of :func:`_band`, scattered into the dense matrix on the
    basis {A_0..A_n, B_0..B_n}, minus C times the identity.

    Entry (i, j) is -sum_l E_l[r_i, r_j] X_l[k_j, k_i] - C delta_ij for the
    basis element i at spinor row r_i and column k_i.  It is exactly zero
    unless |k_i - k_j| <= 1, because X_1 is diagonal and X_2, X_3 couple k
    only to k +- 1.  Imaginary parts above 1e-12 (relative to the matrix
    magnitude) raise :class:`ConsistencyError` instead of being discarded,
    and so does a C that is not finite, before anything is built (the shift
    -C I would leave no entry finite).
    """
    n = _level(n)
    if not math.isfinite(m.C):
        raise ConsistencyError(f"level {n}: C = {m.C!r} is not finite; the operator cannot be built")
    band = _band(m, n)
    dim = n + 1
    k, tags = np.arange(dim), np.arange(2)
    matrix = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for d in (-1, 0, 1):
        j = k[max(0, -d):dim - max(0, d)]  # columns whose k + d is a level index
        matrix[tags[:, None, None] * dim + j + d, tags[:, None] * dim + j] = band[:, :, d + 1, j]
    matrix -= m.C * np.eye(2 * dim, dtype=complex)
    scale = max(1.0, float(np.abs(matrix).max()))
    residue = float(np.abs(matrix.imag).max())
    if residue > 1e-12 * scale:
        raise ConsistencyError(f"level {n}: imaginary residue {residue:.3e} after reordering into the A/B basis")
    return RepresentationOperator(level=n, matrix=matrix)


def char_poly_small_n(m, n):
    """Coefficients (descending) of the shared characteristic polynomial of
    the unshifted level-2 or level-4 blocks.

    chi_2(x) = x^3 - 4(a^2+b^2+c^2) x - 16 abc; chi_4 is the degree-5
    analogue.  Both blocks of a level have the same polynomial at n = 2, 4.
    """
    return np.array(_char_poly_coeffs(*m.triple(), _level(n)), dtype=float)


def closed_form_eigs(m, n):
    """All 2(n+1) eigenvalues of the level-n operator, n in {1, 3}.

    Level 1: {a+b+c-C, a-b-c-C, -a+b-c-C, -a-b+c-C}; the first one equals mu.
    Level 3: eight radical expressions, each shifted by -C; the first four
    belong to the A block, the last four to the B block.
    """
    n = _level(n)
    a, b, c = m.triple()
    C = m.C
    if n == 1:
        return np.array([a + b + c - C, a - b - c - C, -a + b - c - C, -a - b + c - C])
    if n == 3:
        vals = []
        for p, R in _level3_radicals(a, b, c):
            r = math.sqrt(max(R, 0.0))
            vals += [p - 2.0 * r, p + 2.0 * r]
        return np.array(vals) - C
    raise UnsupportedLevelError(f"closed-form eigenvalues only at n = 1, 3 (got {n})")
