"""Level blocks of the Dirac operator in the A/B basis.

For each level n >= 0 the operator restricts to a 2(n+1)-dimensional
invariant space of equivariant spinor maps.  In the parity-adapted basis
{A_0..A_n, B_0..B_n} the restriction splits into two real tridiagonal
(n+1)x(n+1) blocks, both shifted by -C on the diagonal.

Two independent constructions are provided and cross-validated in the test
suite: ``build_block`` evaluates the closed entry recurrences directly, while
``build_from_representation`` assembles the operator from the su(2)
representation matrices and the Clifford multiplication, then reads off the
blocks.  Closed forms for the small levels (characteristic polynomials at
n = 2, 4 and explicit eigenvalues at n = 1, 3) round out the module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsupportedLevelError

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


def build_block(m, n, tag):
    """Level-n block from the closed entry recurrences.

    The diagonal alternates +-a(n-2k) by parity of k and carries the shift
    -C; the off-diagonal couplings alternate between (c+b) and (c-b) weights.
    Tag "B" is tag "A" with the parities swapped.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if tag not in TAGS:
        raise ValueError(f"unknown block tag {tag!r}")
    a, b, c = m.triple()
    C = m.C
    k = np.arange(n + 1)
    even = k % 2 == 0
    sign = np.where(even, 1.0, -1.0)
    if tag == TAG_B:
        sign = -sign
    diag = sign * (a * (n - 2 * k)) - C

    kk = k[:-1]
    f_even, f_odd = (c + b, c - b) if tag == TAG_A else (c - b, c + b)
    factor = np.where(kk % 2 == 0, f_even, f_odd)
    sub = factor * (kk + 1)
    sup = factor * (n - kk)
    return DiracBlock(level=int(n), tag=tag, diag=diag, sub=sub, sup=sup)


def representation_matrices(m, n):
    """Matrices of the derived irreducible su(2) action at level n.

    On the monomial basis {P_0, ..., P_n}:
        X1 . P_k = i a (n - 2k) P_k
        X2 . P_k = b k P_{k-1} - b (n - k) P_{k+1}
        X3 . P_k = i c k P_{k-1} + i c (n - k) P_{k+1}
    """
    a, b, c = m.triple()
    k = np.arange(n + 1)
    M1 = np.diag(1j * a * (n - 2 * k))
    if n == 0:
        zero = np.zeros((1, 1), dtype=complex)
        return M1, zero.copy(), zero.copy()
    up = k[1:]          # column k, entry at row k-1
    down = n - k[:-1]   # column k, entry at row k+1
    M2 = np.diag(b * up.astype(float), 1) + np.diag(-b * down.astype(float), -1)
    M3 = np.diag(1j * c * up, 1) + np.diag(1j * c * down, -1)
    return M1, M2, M3


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


def _basis_positions(n):
    # A_k occupies spinor row k mod 2, B_k the other row, both in column k.
    dim = n + 1
    k = np.arange(dim)
    rows = np.concatenate([k % 2, 1 - k % 2])
    cols = np.concatenate([k, k])
    return rows, cols


def build_from_representation(m, n):
    """Level-n operator assembled from the representation matrices.

    Applies f -> -sum_l E_l f M_l - C f to every basis matrix unit and
    expresses the images in the A/B basis.  Imaginary parts above 1e-12
    (relative to the matrix magnitude) raise
    :class:`ConsistencyError` instead of being discarded.
    """
    M1, M2, M3 = representation_matrices(m, n)
    rows, cols = _basis_positions(n)
    nbasis = 2 * (n + 1)
    basis = np.zeros((nbasis, 2, n + 1), dtype=complex)
    basis[np.arange(nbasis), rows, cols] = 1.0

    image = -sum(
        np.einsum("ij,bjk,kl->bil", E, basis, M)
        for E, M in zip(CLIFFORD, (M1, M2, M3))
    )
    image -= m.C * basis

    # image[j] expressed in the A/B coordinates gives column j
    matrix = image[:, rows, cols].T.copy()
    scale = max(1.0, float(np.abs(matrix).max()))
    residue = float(np.abs(matrix.imag).max())
    if residue > 1e-12 * scale:
        raise ConsistencyError(
            f"level {n}: imaginary residue {residue:.3e} after reordering into the A/B basis"
        )
    return RepresentationOperator(level=int(n), matrix=matrix)


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


def char_poly_small_n(m, n):
    """Coefficients (descending) of the shared characteristic polynomial of
    the unshifted level-2 or level-4 blocks.

    chi_2(x) = x^3 - 4(a^2+b^2+c^2) x - 16 abc; chi_4 is the degree-5
    analogue.  Both blocks of a level have the same polynomial at n = 2, 4.
    """
    return np.array(_char_poly_coeffs(*m.triple(), n), dtype=float)


def _level1_eigs(a, b, c, C):
    """The four level-1 eigenvalues, the first one mu, for floats or exact rationals."""
    return [a + b + c - C, a - b - c - C, -a + b - c - C, -a - b + c - C]


def _level3_radicals(a, b, c):
    """Level-3 unshifted eigenvalues as pairs (p, R) for p -+ 2 sqrt(R).

    Every R >= 0 when scal > 0: the third is half a sum of squares, each
    other one is a^2+b^2+c^2 plus a positive scal factor.
    """
    s = a * a + b * b + c * c
    ab, bc, ca = a * b, b * c, c * a
    return [
        (a + b - c, s - ab + bc + ca),
        (a - b + c, s + ab + bc - ca),
        (-a - b - c, s - ab - bc - ca),
        (-a + b + c, s + ab - bc + ca),
    ]


def closed_form_eigs(m, n):
    """All 2(n+1) eigenvalues of the level-n operator, n in {1, 3}.

    Level 1: {a+b+c-C, a-b-c-C, -a+b-c-C, -a-b+c-C}; the first one equals mu.
    Level 3: eight radical expressions, each shifted by -C; the first four
    belong to the A block, the last four to the B block.
    """
    a, b, c = m.triple()
    C = m.C
    if n == 1:
        return np.array(_level1_eigs(a, b, c, C))
    if n == 3:
        vals = []
        for p, R in _level3_radicals(a, b, c):
            r = math.sqrt(max(R, 0.0))
            vals += [p - 2.0 * r, p + 2.0 * r]
        return np.array(vals) - C
    raise UnsupportedLevelError(f"closed-form eigenvalues only at n = 1, 3 (got {n})")
