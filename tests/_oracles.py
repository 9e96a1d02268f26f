"""Independent reference computations for the test suite.

Block eigenvalues come from brute-force characteristic polynomials
(principal minor recurrence plus companion-matrix root finding).  The
library itself solves full spectra with LAPACK's dense symmetric solver, so
``lapack_eigs`` is no longer independent of it; the independent checks are
``brute_force_eigs`` and the Sturm-bisection reference
(``eigen._bisect_range``, see ``tests/test_spectrum.py``).  The level blocks'
reference is ``reference_block``: the entry recurrences written out for one
block, apart from the library's one writer ``blocks._raw_rows``.  The
certificate's reference is ``fraction_certificate``: the whole argument,
the library's rows, the conditions its lemmas prove for every sorted
triple and the two that restate its scal > 0 gate, decided in
``Fraction`` arithmetic on the stored doubles, with no integer scaling.  The representation construction's reference is
``einsum_representation``: the operator applied to every basis matrix unit
as a dense einsum, with the representation matrices built by ``np.diag``.
``reference_verify_point`` is ``verify``'s grid point written out.  The
Gershgorin bounds' reference is ``row_bound``: the left endpoint of the
direct pentadiagonal rows of the squared blocks
(``squared_row_entries``, from ``direct_row_entries``), which the tests
check against dense ``T @ T``; ``tests/test_gershgorin.py`` proves once, in
integers, that it equals the library's one formula ``gershgorin._G``.  The
enumeration's reference is ``reference_enumerated_min_abs``: the search on
block objects at the library's normalized scale (``_level_blocks``, from
``reference_block``) seeded with the globally lowest level bound, pruned by
``reference_level_bounds`` (``gershgorin._G`` at every (n, k) row of the
sorted metric) less the rounding allowance of ``level_bounds``, and solved
on block objects packed into solver rows by ``pack_blocks``
(``count_below_blocks``, ``min_abs_blocks``).  The level bounds' exact
reference is ``exact_level_bounds``: the Gershgorin minimum of every level
in integers.  The Berger metrics b = c have every eigenvalue in closed form
(``berger_spectrum``), with no solver at all.  The metric scalars'
reference is ``exact_scalars``: each one in ``Fraction`` arithmetic on the
stored doubles, from the sigma polynomials and the product form of scal,
which the library's integer evaluator does not use; ``rounded_scalars``
rounds them once.  ``grid_identity`` proves two integer polynomials equal
from their values on a small grid, for code that is not generic (numpy
arrays, ``abs``); ``Poly`` is a sparse integer polynomial that generic code
runs on unchanged, so the certificate's rows and lemmas are proved as
polynomials (``tests/test_certificate.py``).
"""

import decimal
import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

import numpy as np

import dirac3sphere as d3s
from dirac3sphere.blocks import CLIFFORD, TAGS, DiracBlock, RepresentationOperator
from dirac3sphere.eigen import _min_abs_rows, _row_norms, _sturm_counts, _tolerance, default_tolerance
from dirac3sphere.errors import ConsistencyError
from dirac3sphere.gershgorin import _FAMILIES, _G, _char_poly_coeffs, _family, _level3_radicals, _rounding_allowance
from dirac3sphere.metric import _normalized, shift_C
from dirac3sphere.spectrum import COINCIDENCE_RTOL


def scal_factors(a, b, c):
    """ab+bc-ca, ab-bc+ca, -ab+bc+ca: scal > 0 exactly when all three are
    positive, since (ab + bc + ca) times their product is
    4a^2 b^2 c^2 (a^2 + b^2 + c^2 - C^2) = a^2 b^2 c^2 scal / 2."""
    ab, bc, ca = a * b, b * c, c * a
    return ab + bc - ca, ab - bc + ca, -ab + bc + ca


def reference_block(m, n, tag):
    """The level-n block of ``tag`` from the closed entry recurrences,
    written out for one block: the diagonal alternates +-a(n-2k) by parity
    of k and carries the shift -C, the couplings alternate between (c+b)
    and (c-b) weights; tag "B" is tag "A" with the parities swapped."""
    assert n >= 0 and tag in TAGS
    a, b, c = m.triple()
    k = np.arange(n + 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    if tag == "B":
        sign = -sign
    diag = sign * (a * (n - 2 * k)) - m.C
    kk = k[:-1]
    f_even, f_odd = (c + b, c - b) if tag == "A" else (c - b, c + b)
    factor = np.where(kk % 2 == 0, f_even, f_odd)
    return DiracBlock(level=int(n), tag=tag, diag=diag, sub=factor * (kk + 1), sup=factor * (n - kk))


def pack_blocks(ts):
    """Symmetrized blocks sorted by size, largest first, and padded to a
    common size, as the library's solver rows lay them out.

    Returns (order, sizes, D, E, tols): row b of the diagonals ``D`` and
    couplings ``E`` holds block ``ts[order[b]]`` of size ``sizes[b]``, zero
    past it, and ``tols[b]`` is its default tolerance.  A block with a
    non-finite entry raises the library's error (``eigen._row_norms``).
    """
    order = sorted(range(len(ts)), key=lambda j: -ts[j].size)
    sizes = [ts[j].size for j in order]
    B, N = len(ts), sizes[0]
    pad = np.arange(N) >= np.array(sizes)[:, None]
    D = np.zeros((B, N))
    E = np.zeros((B, N - 1))
    D[~pad] = np.concatenate([ts[j].diag for j in order])
    E[~pad[:, 1:]] = np.concatenate([ts[j].offdiag for j in order])
    return order, sizes, D, E, _tolerance(_row_norms(D, E))


def _unsort(order, rows):
    out = np.empty_like(rows)
    out[order] = rows
    return out


def count_below_blocks(ts, shifts):
    """Sturm counts of every symmetrized block in ``ts`` at every shift, in
    one pass: entry (j, i) counts the eigenvalues of ``ts[j]`` below
    ``shifts[i]``."""
    order, sizes, D, E, _ = pack_blocks(ts)
    X = np.broadcast_to(np.asarray(shifts, dtype=float), (len(ts), len(shifts)))
    return _unsort(order, _sturm_counts(D, E * E, X, sizes))


def min_abs_blocks(ts):
    """Smallest |eigenvalue| of every symmetrized block in ``ts``, each
    within its default tolerance, in one packed solve."""
    order, sizes, D, E, tols = pack_blocks(ts)
    return _unsort(order, _min_abs_rows(D, E, sizes, tols))


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
        blocks = [reference_block(m, n, tag) for tag in "AB"]
        solved[n] = np.concatenate([lapack_eigs(blk) for blk in blocks])
        tol = max([tol] + [default_tolerance(d3s.symmetrize(blk)) for blk in blocks])
    best = min(float(np.abs(v).min()) for v in solved.values())
    u = best + rtol * max(1.0, best)
    mult = sum((n + 1) * int(np.count_nonzero((v >= -u) & (v < u))) for n, v in solved.items())
    return best, mult, tol


def _level_blocks(m, n):
    """The blocks that carry level n, as (tag, symmetrized block, block
    multiplicity) triples: ``[("AB", A_n, 2)]`` at an even level, where B_n
    is A_n reversed (see ``spectrum._full_rows``), and
    ``[("A", A_n, 1), ("B", B_n, 1)]`` at an odd one."""
    if n % 2 == 0:
        return [("AB", d3s.symmetrize(reference_block(m, n, "A")), 2)]
    return [(tag, d3s.symmetrize(reference_block(m, n, tag)), 1) for tag in "AB"]


def reference_level_bounds(m, levels):
    """Smallest left endpoint over both blocks of each level: ``_G`` at
    every (n, k) row of every level on the sorted metric, and the minimum
    over each level's segment; non-finite where a row overflows, silently."""
    ms, _ = m.sorted()
    a, b, c = ms.triple()
    ns = np.asarray(levels, dtype=np.int64)
    if not len(ns):
        return np.zeros(0)
    sizes = ns + 1
    starts = np.cumsum(sizes) - sizes
    n = np.repeat(ns, sizes).astype(float)
    k = np.arange(int(sizes.sum()), dtype=float) - np.repeat(starts, sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.minimum.reduceat(_G(a, b, c, ms.C, n, k), starts)


def exact_level_bounds(m, levels):
    """The exact Gershgorin minimum of each level on the stored doubles, as
    a ``Fraction``: ``_G`` at every row of the sorted metric in integers,
    the doubles scaled by their common denominator (G has degree 2)."""
    ms, _ = m.sorted()
    xs = [Fraction(x) for x in (*ms.triple(), ms.C)]
    den = max(x.denominator for x in xs)
    a, b, c, C = (int(x * den) for x in xs)
    return [Fraction(min(_G(a, b, c, C, n, k) for k in range(n + 1)), den * den) for n in levels]


def reference_enumerated_min_abs(m, manifold, max_level=25):
    """``enumerated_min_abs`` on block objects, seeded with the level of
    lowest finite bound over all admissible levels: the seed solved with
    ``min_abs_blocks``, every other level its bound cannot rule out screened
    by one ``count_below_blocks`` at -best and best, the blocks with an
    eigenvalue inside solved, and the multiplicity one count in [-u, u).
    It runs on the metric normalized by ``metric._normalized`` and scales
    the value back by 2^k once."""
    levels = np.array(d3s.admissible_levels(manifold, max_level))
    if not len(levels):
        raise d3s.DomainError("no admissible levels below the requested cutoff")
    ms, k = _normalized(m)
    bounds = reference_level_bounds(ms, levels)
    with np.errstate(invalid="ignore"):
        low = bounds - _rounding_allowance(ms, levels)
    level_blocks = functools.cache(functools.partial(_level_blocks, ms))

    def within(x):
        return [int(n) for n in levels[~np.isfinite(low) | (low <= x * x * (1.0 + 1e-9))]]

    first = int(levels[np.argmin(np.where(np.isfinite(bounds), bounds, np.inf))])
    best = float(min_abs_blocks([t for _, t, _ in level_blocks(first)]).min())
    screened = [n for n in within(best) if n != first]
    ts = [t for n in screened for _, t, _ in level_blocks(n)]
    counts = count_below_blocks(ts, [-best, best]) if ts else np.zeros((0, 2))
    inside = [t for t, (lo, hi) in zip(ts, counts) if hi > lo]
    if inside:
        best = min(best, float(min_abs_blocks(inside).min()))

    u = best + COINCIDENCE_RTOL * max(1.0, best)
    counted = [(n, t, w) for n in within(u) for _, t, w in level_blocks(n)]
    counts = count_below_blocks([t for _, t, _ in counted], [-u, u])
    mult = int(np.dot(counts[:, 1] - counts[:, 0], [(n + 1) * w for n, _, w in counted]))
    return math.ldexp(best, k), mult, sorted([first] + screened)


def berger_spectrum(a, b, n):
    """All 2(n+1) eigenvalues of level n of the Berger metric (a, b, b),
    ascending, in closed form (Hitchin, Adv. Math. 14, 1974).

    At b = c every coupling weighted by c - b vanishes, so each block is a
    direct sum of 2x2 blocks on the rows (k, k+1), k even in A and odd in B,
    and of 1x1 blocks on the rows left over.  Row k carries the diagonal
    s a(n-2k) - C with s = (-1)^k in A and -(-1)^k in B, so a paired row k
    has s = +1 and its partner s = -1; the pair's coupling squared is
    (2b)^2 (k+1)(n-k).  The 2x2 block has mean a - C and half-difference
    a(n-2k-1), so its eigenvalues are

        a - C +- sqrt(a^2 (n-2k-1)^2 + 4 b^2 (k+1)(n-k)),

    and an unpaired row keeps its diagonal s a(n-2k) - C: row n of A at even
    n, row 0 of B, and row n of B at odd n, each -an - C.  C is
    (ab/c + bc/a + ca/b)/2 at c = b, that is a + b^2/(2a).
    """
    C = a + b * b / (2 * a)
    values = []
    for first in (0, 1):  # the first paired row of A, then of B
        k = np.arange(first, n, 2)
        root = np.sqrt(a * a * (n - 2 * k - 1) ** 2 + 4 * b * b * (k + 1) * (n - k))
        values += [a - C - root, a - C + root]
        unpaired = (n + 1) - 2 * len(k)
        values.append(np.full(unpaired, -a * n - C))
    return np.sort(np.concatenate(values))


def random_triples(rng, count, lo=0.3, hi=2.5):
    return rng.uniform(lo, hi, size=(count, 3))


def random_metrics(rng, count, lo=0.3, hi=2.5):
    return [d3s.Metric(*t) for t in random_triples(rng, count, lo, hi)]


#: draws per requested metric after which a sampler gives up: a scal sign
#: that never comes up fails with a message instead of hanging the suite
MAX_DRAWS_PER_METRIC = 50


def random_metrics_with_sign(rng, count, sign, lo=0.3, hi=2.5):
    """Rejection-sample metrics whose exact scal sign is ``sign``, within
    ``MAX_DRAWS_PER_METRIC`` draws per metric."""
    out, draws = [], 0
    while len(out) < count:
        if draws == MAX_DRAWS_PER_METRIC * count:
            raise AssertionError(f"{len(out)} of {count} metrics with scal sign {sign!r} in {draws} draws")
        draws += 1
        m = d3s.Metric(*rng.uniform(lo, hi, 3))
        if d3s.scal_sign_classification(m) == sign:
            out.append(m)
    return out


def scal_zero_metrics(rng, count, lo=0.3, hi=2.0):
    """Metrics exactly on the scal = 0 wall: (a, b, ab/(a+b)) with a and b
    random doubles and the third entry the exact ``Fraction``, which kills
    the factor ab - bc - ca; the sign is checked, so a wrong one fails with a
    message."""
    out = []
    for _ in range(count):
        a, b = (Fraction(x) for x in rng.uniform(lo, hi, 2))
        m = d3s.Metric(a, b, a * b / (a + b))
        if d3s.scal_sign_classification(m) != d3s.ZERO:
            raise AssertionError(f"the wall metric {m.triple()} has scal sign {d3s.scal_sign_classification(m)!r}")
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


def direct_row_entries(a, b, c, C, n, k):
    """Entries (k, k-2) .. (k, k+2) of the squared level-n block at row k
    for tag A at even k, from the products of the block's entries; the
    other rows flip the signs of a and b.  Exact on ints and rationals, and
    positions outside the block vanish through the formulas themselves."""
    em2 = (c - b) * (c + b) * k * (k - 1)
    em1 = -2 * (c - b) * (C + a) * k
    x = a * (n - 2 * k) - C
    e0 = (c - b) * (c - b) * k * (n - k + 1) + x * x + (c + b) * (c + b) * (n - k) * (k + 1)
    ep1 = -2 * (c + b) * (C - a) * (n - k)
    ep2 = (c + b) * (c - b) * (n - k) * (n - k - 1)
    return em2, em1, e0, ep1, ep2


def squared_row_entries(m, n, tag, k):
    """Row k of the squared level-n block of ``m``, in any ordering: entries
    (k, k-2) .. (k, k+2) by :func:`direct_row_entries`; odd rows flip the
    signs of a and b, tag "B" swaps the parities."""
    assert 0 <= k <= n and tag in TAGS
    a, b, c = m.triple()
    if (k % 2 == 0) != (tag == "A"):
        a, b = -a, -b
    return direct_row_entries(a, b, c, m.C, n, k)


def row_bound(m, n, tag, k):
    """Left Gershgorin endpoint of row k of the squared block, from its direct entries."""
    em2, em1, e0, ep1, ep2 = squared_row_entries(m, n, tag, k)
    return e0 - (abs(em2) + abs(em1) + abs(ep1) + abs(ep2))


def _fraction_float(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def exact_scalars(m):
    """Every reported metric scalar of ``m``, as written, as an exact ``Fraction``, by
    other formulas than the library's: the symmetric polynomials sigma_i of
    the squares for |Ric|^2 and |Riem|^2, the product form
    2 (ab+bc+ca)(ab+bc-ca)(ab-bc+ca)(-ab+bc+ca) / (abc)^2 for scal, and the
    sectional curvatures in the frame's own terms.  Volumes and heat
    coefficients are their rational factors: the value is that factor times
    pi^2.  Keys: the ``MetricInvariants`` fields, ``("heat", space)`` for
    (a0, a1, a2) and ``"scal_factor"``, the smallest scal factor over
    ab + bc + ca."""
    a, b, c = (Fraction(x) for x in m._written)
    s1, s2, s3 = a + b + c, a * b + b * c + c * a, a * b * c
    a2, b2, c2 = a * a, b * b, c * c
    sigma1, sigma2, sigma3 = a2 + b2 + c2, a2 * b2 + b2 * c2 + c2 * a2, a2 * b2 * c2
    C = sigma2 / (2 * s3)
    factors = (a * b + b * c - c * a, a * b - b * c + c * a, -a * b + b * c + c * a)
    scal = 2 * s2 * factors[0] * factors[1] * factors[2] / sigma3
    r = sigma2 * sigma2 / sigma3
    ric = 64 * sigma1 ** 2 - 64 * sigma1 * r + 12 * r ** 2 + 64 * sigma2
    riem = 192 * sigma1 ** 2 - 224 * sigma1 * r + 44 * r ** 2 + 256 * sigma2

    def K(x2, y2, z2):  # the plane of the first two frame vectors
        return 2 * (x2 + y2 - z2) + y2 * z2 / x2 + z2 * x2 / y2 - 3 * x2 * y2 / z2

    out = {
        "C": C, "mu": s1 - C, "scal": scal, "vol_s3": 2 / s3, "vol_so3": 1 / s3,
        "s1": s1, "s2": s2, "s3": s3, "sigma1": sigma1, "sigma2": sigma2, "sigma3": sigma3,
        "K12": K(a2, b2, c2), "K23": K(b2, c2, a2), "K31": K(c2, a2, b2),
        "ric_norm_sq": ric, "riem_norm_sq": riem, "a2_tilde": 8 * ric + 7 * riem,
        "scal_factor": min(factors) / s2,
    }
    for space, vol in ((d3s.S3, 2 / s3), (d3s.SO3, 1 / s3)):
        out["heat", space] = (2 * vol, -Fraction(2, 12) * scal * vol,
                              Fraction(2, 1440) * (5 * scal * scal - 8 * ric - 7 * riem) * vol)
    return out


def rounded_scalars(m):
    """``exact_scalars(m)`` rounded once to doubles, each factor of pi^2
    multiplied by ``math.pi ** 2`` after its rounding."""
    pi2 = math.pi ** 2
    out = {}
    for key, value in exact_scalars(m).items():
        if isinstance(value, tuple):
            out[key] = tuple(_fraction_float(v) * pi2 for v in value)
        else:
            out[key] = _fraction_float(value) * (pi2 if key in ("vol_s3", "vol_so3") else 1)
    return out


#: one step of ``fraction_certificate``: the library's step record, with
#: margin None for the level-0 note
FractionStep = namedtuple("FractionStep", "name detail margin")

#: 80 significant digits, far beyond a double, and an exponent range far
#: beyond any margin
_ROOTS = decimal.Context(prec=80, Emin=-10 ** 6, Emax=10 ** 6)


def fraction_root(x, degree):
    """The real degree-th root of the rational ``x``, its sign kept, rounded
    to a double: exp(ln(x)/degree) in 80-digit decimal arithmetic, then
    rounded once more, which can differ from the exact root's rounding only
    within 1e-60 relative of a tie."""
    if x <= 0:
        return -fraction_root(-x, degree) if x else 0.0
    x = Fraction(x)
    value = _ROOTS.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return float(_ROOTS.exp(_ROOTS.divide(_ROOTS.ln(value), degree)))


def _fraction_step(steps, name, detail, margin, degree, kind="strict", holds=None):
    """Decide one condition of degree ``degree`` in (a, b, c, C) and record
    its margin, the degree-th root of its value correctly rounded (the
    library's is within an ulp or two of it)."""
    if holds is None:
        holds = margin == 0 if kind == "eq" else margin > 0
    if not holds:
        raise d3s.CertificationError(f"{name} fails: margin {fraction_root(margin, degree):.3e} ({detail})")
    steps.append(FractionStep(name, detail, fraction_root(margin, degree)))


def _fraction_root_exceeds(u, R, t):
    """u sqrt(R) > t, exactly, for rationals u, t and R >= 0."""
    if u >= 0:
        return t < 0 or u * u * R > t * t
    return t < 0 and u * u * R < t * t


def families(a, b, c, C):
    """Every family of ``gershgorin._FAMILIES``, the G(n,n) lemma family
    included, as (name, n_min, (A, B, D)): what the library's table
    evaluates only for the two families that are rows."""
    return [(name, n_min, _family(a, b, c, C, k0, k1)) for name, n_min, k0, k1 in _FAMILIES]


def fraction_certificate(m):
    """The steps of ``certify_fundamental_tone(m)``, what its lemmas prove
    for every sorted triple and what its scal > 0 gate implies (38
    conditions and the level-0 note, in the order of the proof), as
    :data:`FractionStep` records.  Each condition is decided on the exact
    rationals of the stored doubles (``Fraction``) divided by the power of
    two that puts the largest entry in [1, 2), and the margin of a
    condition of degree d in (a, b, c, C) is the d-th root of the exact
    rational at that scale, rounded to a double (:func:`fraction_root`);
    raises the library's errors with the library's messages.
    A level-3 pair is decided by what it states, both shifted eigenvalues
    (p - C) +- 2 sqrt(R) outside [-mu, mu] with the radicals compared
    exactly, and its margin is the root of the library's product."""
    ms, _ = m.sorted()
    unit = Fraction(2) ** (math.frexp(ms.a)[1] - 1)
    a, b, c = (Fraction(x) / unit for x in ms.triple())
    if min(scal_factors(a, b, c)) <= 0:
        raise d3s.UncertifiableError("certification requires positive scalar curvature; only enumerated minima exist")
    C = shift_C(a, b, c)
    mu = a + b + c - C
    steps = []
    for i, factor in enumerate(scal_factors(a, b, c), start=1):
        _fraction_step(steps, f"regime:scal>0:{i}", "factor of the scal product form", factor, 2)
    _fraction_step(steps, "regime:C>max", "C - max(a,b,c)", C - a, 1)
    _fraction_step(steps, "regime:C^2<sigma1", "a^2+b^2+c^2 - C^2 (equals scal/8)", a * a + b * b + c * c - C * C, 2)
    _fraction_step(steps, "regime:mu>0", "mu", mu, 1)
    steps.append(FractionStep("level0", f"sole eigenvalue -C = {-_fraction_float(C * unit)!r} with multiplicity 2",
                              None))

    e1 = [a + b + c - C, a - b - c - C, -a + b - c - C, -a - b + c - C]  # level 1 in closed form
    _fraction_step(steps, "level1:mu", "first closed-form eigenvalue equals mu", e1[0] - mu, 1, "eq")
    for i, v in enumerate(e1[1:], start=1):
        _fraction_step(steps, f"level1:gap:{i}", f"|eigenvalue {i}| - mu", abs(v) - mu, 1)

    chi2 = np.array(_char_poly_coeffs(a, b, c, 2), dtype=object)
    for x, label in ((0, "0"), (2 * C, "2C")):
        _fraction_step(steps, f"level2:chi2({label})<0",
                       "level-2 polynomial negative on [0, 2C] (convex, endpoints suffice)", -np.polyval(chi2, x), 3)

    for i, (p, R) in enumerate(_level3_radicals(a, b, c), start=1):
        t = p - C
        alpha = t * t + 4 * R - mu * mu
        _fraction_step(steps, f"level3:alpha:{i}", "half-sum of l^2 - mu^2 over the pair", alpha, 2)
        outside = all(_fraction_root_exceeds(2 * sign, R, mu - t) or _fraction_root_exceeds(-2 * sign, R, t + mu)
                      for sign in (-1, 1))
        _fraction_step(steps, f"level3:pair:{i}", "product of l^2 - mu^2 over the pair's two shifted eigenvalues l",
                       alpha * alpha - 16 * t * t * R, 4, holds=outside)

    chi4 = np.array(_char_poly_coeffs(a, b, c, 4), dtype=object)
    chi4dd = np.polyder(chi4, 2)
    for x, label in ((0, "0"), (2 * C, "2C")):
        _fraction_step(steps, f"level4:chi4''({label})<0",
                       "second derivative negative on [0, 2C] (convex, endpoints suffice)", -np.polyval(chi4dd, x), 3)
    for x, label in ((0, "0"), (2 * C, "2C")):
        _fraction_step(steps, f"level4:chi4({label})>0",
                       "level-4 polynomial positive on [0, 2C] (concave there, endpoints suffice)",
                       np.polyval(chi4, x), 5)

    _fraction_step(steps, "base:G(0,0)=C^2", "G(0,0) - C^2", _G(a, b, c, C, 0, 0) - C * C, 2, "eq")
    _fraction_step(steps, "base:G(1,0)=mu^2", "G(1,0) - mu^2", _G(a, b, c, C, 1, 0) - mu * mu, 2, "eq")
    _fraction_step(steps, "base:G(5,0)>mu^2", "G(5,0) - mu^2", _G(a, b, c, C, 5, 0) - mu * mu, 2)
    for name, n_min, (A, B, D) in families(a, b, c, C):
        _fraction_step(steps, f"tail:{name}:leading", "quadratic-in-n leading coefficient a^2-b^2+c^2", A, 2)
        _fraction_step(steps, f"tail:{name}:q({n_min})>0", "A n^2 + B n + D at n_min",
                       A * n_min * n_min + B * n_min + D, 2)
        _fraction_step(steps, f"tail:{name}:q'({n_min})>0", "2A n + B at n_min (A > 0, so q grows from there)",
                       2 * A * n_min + B, 2)
    increment = _G(a, b, c, C, 2, 1) - _G(a, b, c, C, 0, 0)
    _fraction_step(steps, "increment:n=0", "G(2,1) - G(0,0) = 4*(-bC + ac + b^2 + c^2)", increment, 2)
    _fraction_step(steps, "increment:slope", "4c^2, the growth of the increment per level", 4 * c * c, 2)
    return tuple(steps)


def diag_representation_matrices(m, n):
    """X_1, X_2, X_3 at level n on the monomial basis, each built from
    ``np.diag`` of its closed-form entries."""
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


def einsum_representation(m, n):
    """The level-n operator f -> -sum_l E_l f X_l - C f applied to every
    basis matrix unit {A_0..A_n, B_0..B_n} by one dense einsum, with the
    library's imaginary-residue check and message."""
    M1, M2, M3 = diag_representation_matrices(m, n)
    dim = n + 1
    k = np.arange(dim)
    rows = np.concatenate([k % 2, 1 - k % 2])  # A_k in spinor row k mod 2, B_k in the other
    cols = np.concatenate([k, k])
    nbasis = 2 * dim
    basis = np.zeros((nbasis, 2, dim), dtype=complex)
    basis[np.arange(nbasis), rows, cols] = 1.0

    image = -sum(
        np.einsum("ij,bjk,kl->bil", E, basis, M)
        for E, M in zip(CLIFFORD, (M1, M2, M3))
    )
    image -= m.C * basis

    matrix = image[:, rows, cols].T.copy()  # image[j] in the A/B coordinates is column j
    scale = max(1.0, float(np.abs(matrix).max()))
    residue = float(np.abs(matrix.imag).max())
    if residue > 1e-12 * scale:
        raise ConsistencyError(
            f"level {n}: imaginary residue {residue:.3e} after reordering into the A/B basis"
        )
    return RepresentationOperator(level=int(n), matrix=matrix)


def reference_verify_point(metric, details=False):
    """``cli._verify_point`` written out: the certificate decides, and a
    passing point's ``checks`` is its number of steps."""
    point = {"metric": list(metric.triple()), "scal_sign": d3s.scal_sign_classification(metric)}
    try:
        trace = d3s.certify_fundamental_tone(metric)
        point.update(status="pass", reason=None, checks=len(trace.steps), min_margin=trace.min_margin)
        if details:
            point["steps"] = [{"name": s.name, "detail": s.detail, "margin": s.margin} for s in trace.steps]
    except d3s.UncertifiableError:
        point.update(status="skipped", reason="certification needs scal > 0", checks=0, min_margin=None)
    except d3s.Dirac3SphereError as exc:
        point.update(status="fail", reason=str(exc), checks=None, min_margin=None)
    return point


def grid_identity(lhs, rhs, variables, degree):
    """lhs == rhs as polynomials, both of degree at most ``degree`` in each
    of ``variables`` unknowns: a nonzero polynomial of degree <= d in each
    of k variables does not vanish on all of {0..d}^k (induct on k: a
    nonzero univariate one has at most d roots), so agreement on those
    (d + 1)^k points, in Python integers, proves it for all inputs.  Either
    side may be an array, of integers or of floats that hold them exactly."""
    for point in itertools.product(range(degree + 1), repeat=variables):
        assert np.array_equal(lhs(*point), rhs(*point)), point


class Poly:
    """A polynomial with integer coefficients in ``k`` unknowns: a dict from
    exponent tuples to nonzero ints, with +, - and x (ints mix in as
    constants) and powers by a nonnegative int.  Library code that uses
    only these operations runs on it unchanged and returns its polynomial
    exactly, so two sides are equal as polynomials exactly when ``==``
    holds."""

    __slots__ = ("k", "terms")

    def __init__(self, k, terms):
        self.k, self.terms = k, {e: v for e, v in terms.items() if v}

    @classmethod
    def symbols(cls, k):
        return [cls(k, {tuple(int(i == j) for i in range(k)): 1}) for j in range(k)]

    def _lift(self, x):
        return x if isinstance(x, Poly) else Poly(self.k, {(0,) * self.k: x})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, v in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + v
        return Poly(self.k, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.k, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for f, w in self._lift(other).terms.items():
            for e, v in self.terms.items():
                g = tuple(map(operator.add, e, f))
                terms[g] = terms.get(g, 0) + v * w
        return Poly(self.k, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self._lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    def degrees(self):
        """The total degrees of the terms."""
        return {sum(e) for e in self.terms}

    def nonnegative(self):
        """No negative coefficient: then the polynomial is >= 0 wherever
        every unknown is >= 0."""
        return min(self.terms.values(), default=0) >= 0

    def positive(self):
        """No negative coefficient and a positive constant term: then the
        polynomial is positive wherever every unknown is >= 0."""
        return self.nonnegative() and self.terms.get((0,) * self.k, 0) > 0


def certificate_unknowns(p, q, r):
    """(a, b, c, C) as the certificate builds them from the metric's
    integers, for p, q, r in any number type: (pD, qD, rD,
    p^2 q^2 + q^2 r^2 + r^2 p^2) with D = 2pqr, which is D times the exact
    (p, q, r, C)."""
    D = 2 * p * q * r
    return p * D, q * D, r * D, p * p * q * q + q * q * r * r + r * r * p * p
