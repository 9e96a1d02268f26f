"""Level blocks built two independent ways.

The level-n restriction of the operator is assembled once from the closed
entry recurrences and once from the derived su(2) representation matrices
with the Clifford action.  The two constructions agree entrywise, which is
the main internal cross-validation of the package.  Small levels also carry
closed forms: explicit eigenvalues at n = 1, 3 and shared characteristic
polynomials at n = 2, 4.
"""

import numpy as np

import dirac3sphere as d3s
from dirac3sphere import Metric


def main():
    m = Metric(1.3, 0.8, 0.6)
    print(f"metric (a, b, c) = {m.triple()},  C = {m.C:.6f}\n")

    print("Entrywise agreement of the two constructions:")
    for n in range(0, 13):
        rep_a, rep_b = d3s.build_from_representation(m, n).blocks()
        err = max(
            np.abs(rep_a - d3s.build_block(m, n, "A").to_dense()).max(),
            np.abs(rep_b - d3s.build_block(m, n, "B").to_dense()).max(),
        )
        print(f"  n = {n:2d}: max deviation {err:.2e}")

    print("\nLevel-1 blocks (shift -C included):")
    print(d3s.build_block(m, 1, "A").to_dense())
    print(d3s.build_block(m, 1, "B").to_dense())
    print("closed-form eigenvalues:", d3s.closed_form_eigs(m, 1))
    print("LAPACK solve, proved by Sturm counts, agrees:", np.sort(np.concatenate([
        d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, 1, tag))) for tag in "AB"
    ])))

    print("\nShared characteristic polynomial at n = 2 (coefficients, descending):")
    coeffs = d3s.char_poly_small_n(m, 2)
    print(" ", coeffs)
    eigs_a = d3s.eigenvalues(d3s.symmetrize(d3s.build_block(m, 2, "A"))) + m.C
    print("  residual at the A-block eigenvalues:", np.polyval(coeffs, eigs_a))


if __name__ == "__main__":
    main()
