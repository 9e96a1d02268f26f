"""Independent reference computations for the test suite.

Block eigenvalues come from brute-force characteristic polynomials
(principal minor recurrence plus companion-matrix root finding).  The
library itself solves full spectra with LAPACK's dense symmetric solver, so
``lapack_eigs`` is no longer independent of it; the independent checks are
``brute_force_eigs`` and the Sturm-bisection reference
(``eigen._bisect_range``, see ``tests/test_spectrum.py``).
"""

import numpy as np

import dirac3sphere as d3s
from dirac3sphere.eigen import default_tolerance


def char_poly_coeffs(diag, sub, sup):
    """Coefficients (descending) of det(x I - T) for a tridiagonal T.

    Principal-minor recurrence: p_i = (x - d_i) p_{i-1} - sub_{i-1} sup_{i-1} p_{i-2}.
    """
    diag = np.asarray(diag, dtype=float)
    prev = np.array([1.0])
    cur = np.array([1.0, -diag[0]])
    for i in range(1, len(diag)):
        nxt = np.polysub(np.polymul([1.0, -diag[i]], cur), sub[i - 1] * sup[i - 1] * prev)
        prev, cur = cur, nxt
    return cur


def brute_force_eigs(block):
    """Eigenvalues of a block via its characteristic polynomial's roots."""
    coeffs = char_poly_coeffs(block.diag, block.sub, block.sup)
    roots = np.roots(coeffs)
    assert np.abs(roots.imag).max() < 1e-6
    return np.sort(roots.real)


def lapack_eigs(block):
    """Eigenvalues via LAPACK on the symmetrized dense matrix."""
    return np.sort(np.linalg.eigvalsh(d3s.symmetrize(block).to_dense()))


def dense_min_abs(m, manifold, max_level, rtol=1e-9):
    """Exhaustive enumerated minimum: every block of every admissible level
    solved densely, with no pruning and no sorting of the metric.

    Returns (min |eigenvalue|, multiplicity of the squared operator counted
    as in the library, in [-u, u) with u = value + rtol max(1, value), and
    the largest default tolerance of the blocks).
    """
    solved = {}
    tol = 0.0
    for n in d3s.admissible_levels(manifold, max_level):
        blocks = [d3s.build_block(m, n, tag) for tag in "AB"]
        solved[n] = np.concatenate([lapack_eigs(blk) for blk in blocks])
        tol = max([tol] + [default_tolerance(d3s.symmetrize(blk)) for blk in blocks])
    best = min(float(np.abs(v).min()) for v in solved.values())
    u = best + rtol * max(1.0, best)
    mult = sum((n + 1) * int(np.count_nonzero((v >= -u) & (v < u))) for n, v in solved.items())
    return best, mult, tol


def random_triples(rng, count, lo=0.3, hi=2.5):
    return rng.uniform(lo, hi, size=(count, 3))


def random_metrics(rng, count, lo=0.3, hi=2.5):
    return [d3s.Metric(*t) for t in random_triples(rng, count, lo, hi)]


def random_metrics_with_sign(rng, count, sign, lo=0.3, hi=2.5):
    """Rejection-sample metrics whose factored scal classification is ``sign``."""
    out = []
    while len(out) < count:
        m = d3s.Metric(*rng.uniform(lo, hi, 3))
        if d3s.scal_sign_classification(m) == sign:
            out.append(m)
    return out


def scal_zero_metrics(rng, count, lo=0.3, hi=2.0):
    """Metrics on the scal = 0 boundary: c = ab/(a+b) kills one factor."""
    out = []
    while len(out) < count:
        a, b = rng.uniform(lo, hi, 2)
        m = d3s.Metric(a, b, a * b / (a + b))
        if d3s.scal_sign_classification(m) == d3s.ZERO:
            out.append(m)
    return out


def replay_fundamental_tone(m, horizon=200, rtol=1e-12):
    """Float replay of the base cases and triangle increments up to ``horizon``.

    The reference for the exact certificate: on the sorted metric,
    G(0,0) = C^2, G(1,0) = mu^2 and G(5,0) > mu^2, then G(n,n) > C^2 (n >= 1),
    G(n,0) > C^2 (n >= 6), G(n,1) > C^2 (n >= 4) and a positive triangle
    increment for every n <= horizon, strict inequalities clearing a margin
    of rtol * max(1, reference).  True when all of them hold.
    """
    ms, _ = m.sorted()
    C2, mu2 = ms.C ** 2, ms.mu ** 2

    def G(n, k):
        return d3s.closed_form_G(ms, n, k)

    def above(value, reference):
        return value - reference > rtol * max(1.0, abs(reference))

    def equal(value, reference):
        return abs(value - reference) <= rtol * max(abs(value), abs(reference))

    checks = [equal(G(0, 0), C2), equal(G(1, 0), mu2), above(G(5, 0), mu2)]
    checks += [above(G(n, n), C2) for n in range(1, horizon + 1)]
    checks += [above(G(n, 0), C2) for n in range(6, horizon + 1)]
    checks += [above(G(n, 1), C2) for n in range(4, horizon + 1)]
    checks += [d3s.triangle_increment(ms, n, 0) > 0 for n in range(horizon + 1)]
    return all(checks)


def paper_Gtilde(a, b, c, C, n, k):
    """The paper's second left-endpoint polynomial G~(n, k), written out on
    its own (the library derives it as G(n, n-k)); exact on rationals."""
    return (
        (a * (n - 2 * k) + C) ** 2
        + (b + c) ** 2 * k * (n - k + 1)
        + (b - c) ** 2 * (n - k) * (k + 1)
        - 2 * (b + c) * (C - a) * k
        - 2 * (b - c) * (C + a) * (n - k)
        - (b * b - c * c) * (k * (k - 1) + (n - k) * (n - k - 1))
    )
