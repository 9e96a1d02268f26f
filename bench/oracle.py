"""Independent reference answers and the per-operation output checks.

Nothing here calls the library's eigen, gershgorin, spectrum or inverse
code.  Each level operator is rebuilt from the su(2) representation
matrices and the Clifford multiplication, f -> -sum_l E_l f M_l - C f (the
operator ``blocks.build_from_representation`` assembles densely), read off
in the A/B basis in O(n) per level, symmetrized and handed to LAPACK's dense
symmetric solver.  Closed forms (C, mu, scal and its sign, volumes) are
evaluated in exact rational arithmetic on the doubles the CLI parses.

Metrics far from unit size are normalized by a power of two before any
floating-point work and the answers scaled back, which is exact in binary;
the oracle therefore answers at 2^+-600 where the library may not.
"""

import json
import math
from fractions import Fraction

import numpy as np

CLIFFORD = (
    np.array([[1j, 0.0], [0.0, -1j]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [1j, 0.0]]),
)
PI2 = math.pi ** 2

#: relative band within which two answers count as the same eigenvalue: the
#: library merges values within 1e-9 relative into one line, and solves each
#: block to 1e-12 * (1 + norm)
MERGE_RTOL = 2e-9
SOLVE_RTOL = 1e-11


def admissible_levels(manifold, max_level):
    start = 1 if manifold == "so3-nontrivial" else 0
    return range(start, max_level + 1, 1 if manifold == "s3" else 2)


def normalize(triple):
    """(triple / 2^k, k) with the scaled triple near unit size."""
    k = round(sum(math.frexp(x)[1] for x in triple) / 3)
    return tuple(math.ldexp(x, -k) for x in triple), k


# -- closed forms, exact -------------------------------------------------------

def exact_C(triple):
    a, b, c = (Fraction(x) for x in triple)
    return (a * b / c + b * c / a + c * a / b) / 2


def exact_mu(triple):
    return sum(Fraction(x) for x in triple) - exact_C(triple)


def exact_scal(triple):
    """8 (a^2+b^2+c^2 - C^2) as an exact rational."""
    a, b, c = (Fraction(x) for x in triple)
    return 8 * (a * a + b * b + c * c - exact_C(triple) ** 2)


def scal_factor(triple):
    """Minimal factor of the product form of scal, relative to ab+bc+ca.

    scal > 0 exactly when it is positive; scal = 0 exactly when it is 0.
    """
    a, b, c = (Fraction(x) for x in triple)
    ab, bc, ca = a * b, b * c, c * a
    return min(ab + bc - ca, ab - bc + ca, -ab + bc + ca) / (ab + bc + ca)


def a2_tilde(triple):
    """8|Ric|^2 + 7|Riem|^2 = 576 (4 sigma2 - scal sigma1) + 101 scal^2."""
    a, b, c = (Fraction(x) ** 2 for x in triple)
    sigma1, sigma2 = a + b + c, a * b + b * c + c * a
    scal = exact_scal(triple)
    return 576 * (4 * sigma2 - scal * sigma1) + 101 * scal * scal


def volume(triple, manifold):
    """2 pi^2/(abc) on the sphere, half that on SO(3), as a float or None when
    it leaves the double range."""
    a, b, c = (Fraction(x) for x in triple)
    inv = 1 / (a * b * c)
    try:
        return (2.0 if manifold == "s3" else 1.0) * PI2 * float(inv)
    except OverflowError:
        return None


# -- level operators from the representation --------------------------------

def _rep_diagonals(x, n):
    """(sub, diag, sup) diagonals of the three representation matrices.

    X1 P_k = i a (n-2k) P_k,  X2 P_k = b k P_{k-1} - b (n-k) P_{k+1},
    X3 P_k = i c k P_{k-1} + i c (n-k) P_{k+1}; column k is the image of P_k.
    """
    a, b, c = x
    k = np.arange(n + 1, dtype=float)
    zero = np.zeros(n, dtype=complex)
    up = k[1:]            # M[k-1, k]
    down = n - k[:-1]     # M[k+1, k]
    return (
        (zero, 1j * a * (n - 2 * k), zero),
        (-b * down + 0j, np.zeros(n + 1, dtype=complex), b * up + 0j),
        (1j * c * down, np.zeros(n + 1, dtype=complex), 1j * c * up),
    )


def level_blocks(x, n):
    """Both real tridiagonal blocks (diag, sub, sup) of level n.

    Entry (A_i, A_j) of the operator is -sum_l E_l[r_i, r_j] M_l[j, i] - C
    delta_ij, with A_k in spinor row k mod 2 and B_k in the other row.
    """
    a, b, c = x
    C = 0.5 * (a * b / c + b * c / a + c * a / b)
    mats = _rep_diagonals(x, n)
    k = np.arange(n + 1)
    out = []
    for flip in (0, 1):
        r = (k + flip) % 2
        diag = -sum(E[r, r] * M[1] for E, M in zip(CLIFFORD, mats)) - C
        sup = -sum(E[r[:-1], r[1:]] * M[0] for E, M in zip(CLIFFORD, mats))   # (i, i+1) uses M[i+1, i]
        sub = -sum(E[r[1:], r[:-1]] * M[2] for E, M in zip(CLIFFORD, mats))   # (i+1, i) uses M[i, i+1]
        parts = (diag, sub, sup)
        if max(float(np.abs(p.imag).max(initial=0.0)) for p in parts) > 1e-12 * (1.0 + n) * max(a, b, c, C):
            raise AssertionError(f"oracle: level {n} operator is not real in the A/B basis")
        out.append(tuple(p.real for p in parts))
    return out


def symmetric_tridiagonal(diag, sub, sup):
    prod = sub * sup
    if np.any(prod < 0.0):
        raise AssertionError("oracle: block is not symmetrizable")
    return diag, np.sqrt(prod)


def dense_eigs(d, e):
    """LAPACK eigenvalues and infinity norm of the symmetric tridiagonal (d, e)."""
    M = np.diag(d)
    if len(e):
        M += np.diag(e, 1) + np.diag(e, -1)
    return np.linalg.eigvalsh(M), float(np.abs(M).sum(axis=1).max())


def level_spectrum(x, n):
    """Sorted eigenvalues of both blocks of level n and the larger block norm."""
    vals, norm = [], 0.0
    for blk in level_blocks(x, n):
        v, nrm = dense_eigs(*symmetric_tridiagonal(*blk))
        vals.append(v)
        norm = max(norm, nrm)
    return np.sort(np.concatenate(vals)), norm


def squared_row_bound(d, e):
    """Lower bound on every squared eigenvalue: Gershgorin on T^2 (pentadiagonal)."""
    m = len(d)
    ep = np.zeros(m + 3)          # ep[i+2] = e_i, zero outside 0..m-2
    ep[2:m + 1] = e
    dp = np.zeros(m + 2)          # dp[i+1] = d_i
    dp[1:m + 1] = d
    i = np.arange(m)
    e_im1, e_i = ep[i + 1], ep[i + 2]
    e_im2, e_ip1 = ep[i], ep[i + 3]
    d_im1, d_i, d_ip1 = dp[i], dp[i + 1], dp[i + 2]
    center = d_i * d_i + e_im1 * e_im1 + e_i * e_i
    radius = np.abs(e_i * (d_i + d_ip1)) + np.abs(e_im1 * (d_im1 + d_i)) + np.abs(e_i * e_ip1) + np.abs(e_im2 * e_im1)
    return float((center - radius).min())


def check_representation(triple, top=6):
    """The O(n) operator above against ``build_from_representation`` itself."""
    from dirac3sphere import Metric, build_from_representation

    for n in range(top + 1):
        want = build_from_representation(Metric(*triple), n).blocks()
        for (diag, sub, sup), dense in zip(level_blocks(triple, n), want):
            got = np.diag(diag) + (np.diag(sub, -1) + np.diag(sup, 1) if n else 0.0)
            if np.abs(got - dense).max() > 1e-12 * max(1.0, np.abs(dense).max()):
                raise AssertionError(f"oracle: level {n} disagrees with build_from_representation")


# -- per-operation checks ----------------------------------------------------

def _close(got, want, atol):
    return got is not None and want is not None and abs(got - want) <= atol


def _as_float(x):
    try:
        return float(x)
    except OverflowError:
        return None


def _results(out):
    return json.loads(out.stdout)["results"]


def check_spectrum(op, out):
    x, k = normalize(op.triple)
    res = _results(out)
    lines = res["lines"]
    by_level = {}
    for line in lines:
        by_level.setdefault(line["level"], []).append(line)
    levels = list(admissible_levels(op.manifold, op.params["max_level"]))
    if sorted(by_level) != levels:
        return "spectrum: wrong set of levels"
    if res["count"] != sum(2 * (n + 1) ** 2 for n in levels):
        return "spectrum: wrong total count"
    if any(lines[i]["eigenvalue"] > lines[i + 1]["eigenvalue"] for i in range(len(lines) - 1)):
        return "spectrum: lines not sorted"
    for n in levels:
        want, norm = level_spectrum(x, n)
        got = []
        for line in by_level[n]:
            mult, rem = divmod(line["multiplicity"], n + 1)
            if rem:
                return f"spectrum: level {n} multiplicity not a multiple of {n + 1}"
            got += [math.ldexp(line["eigenvalue"], -k)] * mult
        if len(got) != len(want):
            return f"spectrum: level {n} has {len(got)} values, expected {len(want)}"
        tol = MERGE_RTOL * np.maximum(1.0, np.abs(want)) + SOLVE_RTOL * (1.0 + norm)
        if np.any(np.abs(np.sort(got) - want) > tol):
            return f"spectrum: level {n} eigenvalues disagree with the dense oracle"
    return None


def check_heat_trace(op, out):
    x, k = normalize(op.triple)
    res = _results(out)
    t, lam = op.params["t"], op.params["lam"]
    levels = list(admissible_levels(op.manifold, op.params["max_level"]))
    value = lo = hi = 0.0
    lam_max, computed = 0.0, 0
    include = lam + 1e-9 * (1.0 + lam)
    with np.errstate(over="ignore", under="ignore"):
        for n in levels:
            eigs, norm = level_spectrum(x, n)
            tol = MERGE_RTOL * np.maximum(1.0, np.abs(eigs)) + SOLVE_RTOL * (1.0 + norm)
            lam_n = np.ldexp(np.abs(eigs), k)
            tol = np.ldexp(tol, k)
            value += (n + 1) * float(np.exp(-t * lam_n * lam_n).sum())
            lam_max = max(lam_max, float(lam_n.max()))
            computed += (n + 1) * len(eigs)
            lo += (n + 1) * int(np.count_nonzero(lam_n + tol <= include))
            hi += (n + 1) * int(np.count_nonzero(lam_n - tol <= include))
    if res["computed_count"] != computed:
        return "heat-trace: computed_count disagrees"
    if not _close(res["value"], value, 1e-6 * value + 1e-300):
        return "heat-trace: value disagrees with the dense oracle"
    if not _close(res["lambda_max"], lam_max, 1e-8 * lam_max):
        return "heat-trace: lambda_max disagrees"
    if not (math.isfinite(res["tail_estimate"]) and res["tail_estimate"] >= 0.0):
        return "heat-trace: tail estimate not a finite nonnegative number"
    if not lo <= res["counting"]["count"] <= hi:
        return "heat-trace: counting function disagrees"
    return None


def check_smallest_certified(op, out):
    res = _results(out)
    exact = exact_C(op.triple) if op.manifold == "so3-trivial" else exact_mu(op.triple)
    a, b, c = op.triple
    if not _close(res["value"], _as_float(exact), 1e-12 * (a + b + c)):
        return "smallest: value is not the closed form"
    round_metric = op.manifold == "s3" and a == b == c
    if res["multiplicity_d_squared"] != (4 if round_metric else 2):
        return "smallest: wrong multiplicity"
    if res["certified"] is not True:
        return "smallest: not certified"
    return None


def dense_min_abs(triple, manifold, max_level):
    """(min |eigenvalue|, multiplicity band (lo, hi), tolerance) over the levels.

    Levels are visited in increasing order of their squared Gershgorin
    bound; once that bound clears the running minimum, no remaining level
    can hold a smaller or an equal value.
    """
    x, k = normalize(triple)
    blocks = {n: [symmetric_tridiagonal(*blk) for blk in level_blocks(x, n)]
              for n in admissible_levels(manifold, max_level)}
    bound = {n: min(squared_row_bound(d, e) for d, e in pair) for n, pair in blocks.items()}
    best, solved, norm = math.inf, {}, 0.0

    def edge():
        # the library counts |eigenvalue| < best + 1e-9 max(1, best); widen by
        # the band within which either side of that cut is acceptable
        return best + (1e-9 + MERGE_RTOL) * max(1.0, best) + SOLVE_RTOL * (1.0 + norm)

    for n in sorted(blocks, key=bound.get):
        if bound[n] > edge() ** 2:
            break
        eigs = []
        for d, e in blocks[n]:
            v, nrm = dense_eigs(d, e)
            eigs.append(v)
            norm = max(norm, nrm)
        solved[n] = np.abs(np.concatenate(eigs))
        best = min(best, float(solved[n].min()))
    tol = SOLVE_RTOL * (1.0 + norm)
    u = best + 1e-9 * max(1.0, best)
    band = MERGE_RTOL * max(1.0, best) + tol
    lo = sum((n + 1) * int(np.count_nonzero(v < u - band)) for n, v in solved.items())
    hi = sum((n + 1) * int(np.count_nonzero(v < u + band)) for n, v in solved.items())
    return math.ldexp(best, k), (lo, hi), math.ldexp(tol + MERGE_RTOL * max(1.0, best), k)


def check_smallest_enumerated(op, out):
    res = _results(out)
    best, (lo, hi), tol = dense_min_abs(op.triple, op.manifold, op.params["max_level"])
    if not _close(res["value"], best, tol):
        return "smallest: enumerated minimum disagrees with the dense oracle"
    if not lo <= res["multiplicity_d_squared"] <= hi:
        return "smallest: enumerated multiplicity disagrees with the dense oracle"
    if res["certified"] is not False:
        return "smallest: enumerated minimum claims certification"
    return None


def check_verify(op, out):
    res = _results(out)
    points = res["points"]
    if len(points) != math.prod(count for _, _, count in op.params["grid"]):
        return "verify: wrong number of grid points"
    for point, want in zip(points, op.params["points"]):
        got = tuple(point["metric"])
        if any(abs(g - w) > 1e-12 * w for g, w in zip(got, want)):
            return "verify: grid point differs from the requested grid"
        factor = scal_factor(got)
        if abs(factor) <= 1e-9:
            allowed = ("pass", "skipped")
        else:
            allowed = ("pass",) if factor > 0 else ("skipped",)
        if point["status"] not in allowed:
            return f"verify: status {point['status']} disagrees with the sign of scal"
    return None


def check_invariants(op, out):
    res = _results(out)
    a, b, c = (Fraction(v) for v in op.triple)
    C, scal = exact_C(op.triple), exact_scal(op.triple)
    sigma1 = a * a + b * b + c * c
    if not _close(res["C"], _as_float(C), 1e-12 * _as_float(C)):
        return "invariants: C disagrees"
    if not _close(res["mu"], _as_float(exact_mu(op.triple)), 1e-12 * _as_float(C)):
        return "invariants: mu disagrees"
    if not _close(res["scal"], _as_float(scal), 1e-11 * _as_float(sigma1 + C * C)):
        return "invariants: scal disagrees"
    factor = scal_factor(op.triple)
    if abs(factor) > 1e-9:
        if res["scal_sign"] != ("positive" if factor > 0 else "negative"):
            return "invariants: scal_sign disagrees"
    for key, manifold in (("vol_s3", "s3"), ("vol_so3", "so3")):
        want = volume(op.triple, manifold)
        if not _close(res[key], want, 1e-12 * (want or 0.0)):
            return f"invariants: {key} disagrees"
    return None


def check_reconstruct(op, out):
    got = sorted(_results(out)["triple"], reverse=True)
    want = sorted(op.triple, reverse=True)
    if any(abs(g - w) > 1e-6 * want[0] for g, w in zip(got, want)):
        return "reconstruct: triple does not round-trip"
    return None


def check_refusal(op, out):
    if out.stdout or not out.stderr.startswith("error:"):
        return "refusal: expected exit 1 with an error: line and no document"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "heat-trace": check_heat_trace,
    "smallest-certified": check_smallest_certified,
    "smallest-enumerated": check_smallest_enumerated,
    "smallest-wall": check_smallest_enumerated,
    "verify": check_verify,
    "invariants": check_invariants,
    "reconstruct-mu": check_reconstruct,
    "reconstruct-C": check_reconstruct,
    "reconstruct-a2tilde": check_reconstruct,
    "certify-refusal": check_refusal,
}


def verdict(op, out):
    """None when the operation answered correctly or was refused as documented,
    else a one-line reason.

    A raw exception, an unexpected exit code or an answer the oracle rejects
    is a failure.  Exit 2 is the documented refusal of a usage or domain
    error; it is accepted only for metrics far outside unit size, because
    every unit-size input is inside the declared domain.
    """
    if out.exception is not None:
        return f"raw {out.exception}"
    if op.scale and out.code == 2:
        return None
    expected = 1 if op.label == "certify-refusal" else 0
    if out.code != expected:
        return f"exit {out.code}"
    try:
        return CHECKS[op.label](op, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
