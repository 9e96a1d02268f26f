"""Gershgorin triangles at the curvature wall, a proved identity, an open end.

The proof machinery rests on the left endpoints G(n, k) of the squared
blocks' Gershgorin rows.  At the boundary metric (1, 1, 1/2) the famous
small dips appear: G(2,0), G(3,0), G(4,0) fall below C^2 (one of them to
exactly zero), which is precisely why levels 2..4 need bespoke arguments.

The two blocks of one even level share their spectrum: the symmetrized B_n
is A_n reversed, J A_n J, bit for bit (proved in the docstring of
``spectrum.enumerated_min_abs``); the demo checks it entry by entry.

One question is left open by the theory and only probed numerically here,
with nothing asserted: whether the level-5 squared eigenvalues stay above
C^2 whenever scal > 0 (out of reach of the row bounds).
"""

import numpy as np

import dirac3sphere as d3s
from dirac3sphere import Metric


def triangle(m, rows):
    print(f"G(n, k) triangle at {m.triple()} (C^2 = {m.C ** 2}, mu^2 = {m.mu ** 2}):")
    for n in rows:
        vals = " ".join(f"{d3s.closed_form_G(m, n, k):8.3f}" for k in range(n + 1))
        print(f"  n = {n:2d}: {vals}")


def main():
    wall = Metric(1, 1, 0.5)
    triangle(wall, range(0, 7))
    print("\nincrements G(n+2, k+1) - G(n, k) stay positive even on the wall:")
    print("  ", [round(d3s.triangle_increment(wall, n, 0), 6) for n in range(6)])

    print("\nproved: at even n the symmetrized B block is the A block reversed, J A J")
    m = Metric(1.3, 0.8, 0.6)
    for n in range(2, 21, 2):
        ta, tb = (d3s.symmetrize(d3s.build_block(m, n, tag)) for tag in "AB")
        same = np.array_equal(tb.diag, ta.diag[::-1]) and np.array_equal(tb.offdiag, ta.offdiag[::-1])
        print(f"  n = {n:2d}: B = J A J bit for bit: {same}")

    print("\nexploratory: min eig of the squared level-5 operator vs C^2 and mu^2, scal > 0 samples")
    rng = np.random.default_rng(1234)
    worst_c, worst_mu, witness = np.inf, np.inf, None
    tested = 0
    while tested < 200:
        t = rng.uniform(0.25, 2.5, 3)
        mm = Metric(*t)
        if d3s.scal_sign_classification(mm) != d3s.POSITIVE:
            continue
        tested += 1
        low = min(d3s.min_abs_eigenvalue(d3s.build_block(mm, 5, tag)) for tag in "AB")
        if low ** 2 / mm.C ** 2 < worst_c:
            worst_c, witness = low ** 2 / mm.C ** 2, mm
        worst_mu = min(worst_mu, low ** 2 / mm.mu ** 2)
    print(f"  min over {tested} samples of (min eig D_5^2) / C^2  = {worst_c:.6f}")
    print(f"  min over {tested} samples of (min eig D_5^2) / mu^2 = {worst_mu:.6f}")
    if worst_c < 1:
        print(f"  the C^2 bound can fail, e.g. near {tuple(round(x, 4) for x in witness.triple())};")
        print("  the mu^2 bound (which is what the theory claims for odd levels) held throughout")


if __name__ == "__main__":
    main()
