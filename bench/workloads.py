"""Seeded operation streams for the three benchmark workloads.

Each workload is a list of slots, one operation kind each; a round fills
every slot with a freshly drawn metric and shuffles the order.  Each slot
fixes the position of its metric's largest entry.  A run is a fixed number
of rounds for a given length, so every seed sees the same mix of operation
kinds, level cutoffs and entry positions, and only the metrics change.
Metrics are drawn log-uniformly on [1/4, 4]^3 and sorted into curvature
regimes by the exact sign of scal.  A few slots per round are scaled by
2^+600 or 2^-600: far outside unit size, and kept in on purpose, since the
library fails on many of them today.  The scaled slots cycle through every
(operation kind, sign) pair of the workload, so a run of the benchmark's
length tries each pair at least once.

The program sees only the generated argv lists; everything else on an
``Op`` is for the oracle.
"""

import collections
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import oracle

EXTREME_EXPONENT = 600
LOG_LO, LOG_HI = math.log(0.25), math.log(4.0)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    scale: int = 0                  # binary exponent applied to the metric
    triple: tuple = None            # the metric as the CLI parses it
    manifold: str = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple                    # (maker, slot options) pairs
    round_seconds: float            # one round's wall time on the reference machine

    def rounds(self, seconds):
        return max(1, round(seconds / self.round_seconds))

    def extremes(self, rounds):
        """Per round, {slot index: exponent} for the slots scaled far out.

        Every (operation kind, +-600) pair comes up in turn, as many per
        round as it takes to try them all within ``rounds``; a kind's
        scaled slot moves on through the slots of that kind.
        """
        kinds = [(make, opts.get("via")) for make, opts in self.slots]
        pairs = [(k, sign * EXTREME_EXPONENT) for sign in (1, -1) for k in dict.fromkeys(kinds)]
        per_round = -(-len(pairs) // rounds)
        used = collections.Counter()
        out = []
        for r in range(rounds):
            chosen = {}
            for j in range(per_round):
                kind, exponent = pairs[(r * per_round + j) % len(pairs)]
                where = [i for i, k in enumerate(kinds) if k == kind]
                chosen[where[used[kind] % len(where)]] = exponent
                used[kind] += 1
            out.append(chosen)
        return out

    def ops(self, seed, seconds):
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for extreme in self.extremes(self.rounds(seconds)):
            batch = [make(rng, extreme.get(i, 0), **{"lead": i % 3, **opts})
                     for i, (make, opts) in enumerate(self.slots)]
            rng.shuffle(batch)
            out += batch
        return out


# -- inputs ------------------------------------------------------------------

def _sign(triple):
    f = oracle.scal_factor(triple)
    return 0 if f == 0 else (1 if f > 0 else -1)


def _lead(rng, triple, lead):
    """The largest entry at position ``lead``, the other two in random order.

    The position of the largest entry decides whether Gershgorin pruning
    works (unsorted row bounds are loose), which changes the cost of an
    enumerated minimum about sevenfold; fixing it per slot gives every run
    the same share of each position and every slot a steady cost.
    """
    rest = sorted(triple, reverse=True)[1:]
    rng.shuffle(rest)
    rest.insert(lead, max(triple))
    return tuple(rest)


def draw_triple(rng, sign, lead):
    """Log-uniform triple whose scal has the given sign (+1 or -1)."""
    while True:
        t = tuple(math.exp(rng.uniform(LOG_LO, LOG_HI)) for _ in range(3))
        if _sign(t) == sign:
            return _lead(rng, t, lead)


def wall_triple(rng, lead):
    """An exact-wall rational metric (p, q, pq/(p+q)), scal = 0."""
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    return _lead(rng, (Fraction(p), Fraction(q), Fraction(p * q, p + q)), lead)


def scaled(triple, exponent):
    return tuple(math.ldexp(x, exponent) for x in triple)


def metric_arg(triple):
    return ",".join(repr(x) for x in triple)


def number_arg(x, exponent=0):
    """Decimal text of x * 2^exponent, exact even outside the double range."""
    if exponent == 0 or x == 0:
        return repr(float(x))
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(float(x)) * Decimal(2) ** exponent)


def _scale_of(triple):
    return math.prod(triple) ** (1.0 / 3.0)


# -- operation makers ------------------------------------------------------

def spectrum(rng, exponent, lead, manifold, max_level, sign):
    t = scaled(draw_triple(rng, sign, lead), exponent)
    argv = ("spectrum", "--metric", metric_arg(t), "--manifold", manifold, "--max-level", str(max_level))
    return Op("spectrum", argv, exponent, t, manifold, {"max_level": max_level})


def heat_trace(rng, exponent, lead, manifold, max_level, sign):
    base = draw_triple(rng, sign, lead)
    s = _scale_of(base)
    t_heat = math.exp(rng.uniform(math.log(0.05), math.log(0.5))) / (s * s)
    lam = math.ldexp(s * rng.uniform(2.0, max_level / 4.0), exponent)
    t = scaled(base, exponent)
    argv = ("heat-trace", "--metric", metric_arg(t), "--manifold", manifold, "--max-level", str(max_level),
            "--t", repr(t_heat), "--lam", repr(lam))
    return Op("heat-trace", argv, exponent, t, manifold, {"max_level": max_level, "t": t_heat, "lam": lam})


def smallest_certified(rng, exponent, lead, manifold):
    t = scaled(draw_triple(rng, +1, lead), exponent)
    argv = ("smallest", "--metric", metric_arg(t), "--manifold", manifold)
    return Op("smallest-certified", argv, exponent, t, manifold)


def smallest_enumerated(rng, exponent, lead, manifold, max_level):
    t = scaled(draw_triple(rng, -1, lead), exponent)
    argv = ("smallest", "--metric", metric_arg(t), "--manifold", manifold, "--max-level", str(max_level))
    return Op("smallest-enumerated", argv, exponent, t, manifold, {"max_level": max_level})


def smallest_wall(rng, exponent, lead, manifold, max_level):
    exact = [x * Fraction(2) ** exponent for x in wall_triple(rng, lead)]
    t = tuple(float(x) for x in exact)
    argv = ("smallest", "--metric", ",".join(str(x) for x in exact), "--manifold", manifold,
            "--max-level", str(max_level))
    return Op("smallest-wall", argv, exponent, t, manifold, {"max_level": max_level})


def certify_refusal(rng, exponent, lead, manifold):
    t = scaled(draw_triple(rng, -1, lead), exponent)
    argv = ("smallest", "--metric", metric_arg(t), "--manifold", manifold, "--certify", "on")
    return Op("certify-refusal", argv, exponent, t, manifold)


def invariants(rng, exponent, lead):
    t = scaled(draw_triple(rng, rng.choice((1, -1)), lead), exponent)
    return Op("invariants", ("invariants", "--metric", metric_arg(t)), exponent, t)


def verify(rng, exponent, lead, counts):
    """A small grid around a scal > 0 metric, spanning both regimes."""
    centre = draw_triple(rng, +1, lead)
    axes = []
    for x, count in zip(centre, counts):
        lo = math.ldexp(x * rng.uniform(0.7, 0.95), exponent)
        hi = math.ldexp(x * rng.uniform(1.05, 1.4), exponent)
        axes.append((lo, hi, count))
    values = [[lo + (hi - lo) * i / (count - 1) for i in range(count)] if count > 1 else [lo]
              for lo, hi, count in axes]
    points = [(a, b, c) for a in values[0] for b in values[1] for c in values[2]]
    argv = ("verify", "--grid", ",".join(f"{lo!r}:{hi!r}:{count}" for lo, hi, count in axes))
    return Op("verify", argv, exponent, None, None, {"grid": axes, "points": points})


def reconstruct(rng, exponent, lead, manifold, via):
    """Spectral data of a seeded metric, computed by the bench's closed forms."""
    base = draw_triple(rng, -1 if via == "a2tilde" else +1, lead)
    if via == "a2tilde" and rng.random() < 0.25:
        base = tuple(float(x) for x in wall_triple(rng, lead))
    vol = oracle.volume(base, manifold)
    scal = float(oracle.exact_scal(base))
    datum = {"mu": oracle.exact_mu(base), "c": oracle.exact_C(base), "a2tilde": oracle.a2_tilde(base)}[via]
    # "--scal=-1E+362": argparse reads a separate "-1E+362" as an option
    argv = ("reconstruct", "--manifold", manifold, f"--volume={number_arg(vol, -3 * exponent)}",
            f"--scal={number_arg(scal, 2 * exponent)}",
            f"--{via}={number_arg(datum, (4 if via == 'a2tilde' else 1) * exponent)}")
    label = {"mu": "reconstruct-mu", "c": "reconstruct-C", "a2tilde": "reconstruct-a2tilde"}[via]
    return Op(label, argv, exponent, scaled(base, exponent), manifold)


# -- the workloads -------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        # Full spectra: the Sturm bisection in eigen takes ~90% of each
        # operation; gershgorin, certification and inverse are bypassed.
        # Three cost tiers (5 cheap, 5 middle, 2 at high level), so that the
        # median falls inside the middle tier.  The first slots of each kind
        # are the cheap ones, which the scaled metrics replace.
        Workload("spectra-highL", (
            (spectrum, dict(manifold="so3-trivial", max_level=24, sign=+1)),
            (heat_trace, dict(manifold="so3-nontrivial", max_level=24, sign=-1)),
            (spectrum, dict(manifold="so3-nontrivial", max_level=28, sign=-1)),
            (heat_trace, dict(manifold="so3-trivial", max_level=28, sign=+1)),
            (heat_trace, dict(manifold="s3", max_level=24, sign=+1)),
            (spectrum, dict(manifold="s3", max_level=32, sign=-1)),
            (heat_trace, dict(manifold="so3-trivial", max_level=40, sign=-1)),
            (spectrum, dict(manifold="so3-nontrivial", max_level=40, sign=+1)),
            (heat_trace, dict(manifold="s3", max_level=32, sign=-1)),
            (spectrum, dict(manifold="so3-trivial", max_level=48, sign=+1)),
            (spectrum, dict(manifold="so3-trivial", max_level=80, sign=-1)),
            (heat_trace, dict(manifold="so3-nontrivial", max_level=64, sign=+1)),
        ), round_seconds=3.5),
        # Certified fundamental tones: closed forms, the certification replay,
        # the representation cross-check and large JSON documents; eigen does
        # no work here.  Half the slots are certified smallest queries of
        # similar cost, where the median falls.
        Workload("tone-certify", (
            *((smallest_certified, dict(manifold=m)) for m in
              ("s3", "so3-trivial", "so3-nontrivial", "s3", "so3-trivial", "so3-nontrivial", "s3", "so3-trivial")),
            (verify, dict(counts=(2, 2, 2))),
            (verify, dict(counts=(2, 2, 2))),
            (invariants, {}),
            (invariants, {}),
            (invariants, {}),
            (reconstruct, dict(manifold="s3", via="mu")),
            (reconstruct, dict(manifold="so3-nontrivial", via="mu")),
            (reconstruct, dict(manifold="so3-trivial", via="c")),
        ), round_seconds=0.17),
        # Enumerated minima: min-abs bracket queries and count_below on the
        # levels Gershgorin pruning keeps, up to level 200; no full spectra.
        # Pruning works when the largest entry leads (lead=0).  Four tiers:
        # 6 quick slots (reconstruct, refusals), 4 pruned queries of similar
        # cost where the median falls, 2 in between, and 4 unpruned queries
        # at high level where the tail percentile falls.
        Workload("tone-enumerate", (
            (smallest_wall, dict(manifold="s3", max_level=120, lead=0)),
            (smallest_enumerated, dict(manifold="so3-nontrivial", max_level=160, lead=0)),
            (smallest_wall, dict(manifold="so3-nontrivial", max_level=180, lead=0)),
            (smallest_wall, dict(manifold="so3-trivial", max_level=200, lead=0)),
            (smallest_enumerated, dict(manifold="s3", max_level=200, lead=0)),
            (smallest_enumerated, dict(manifold="so3-trivial", max_level=150, lead=1)),
            (smallest_enumerated, dict(manifold="so3-nontrivial", max_level=200, lead=1)),
            (smallest_enumerated, dict(manifold="so3-nontrivial", max_level=200, lead=2)),
            (smallest_enumerated, dict(manifold="so3-trivial", max_level=200, lead=1)),
            (smallest_enumerated, dict(manifold="s3", max_level=100, lead=2)),
            (reconstruct, dict(manifold="s3", via="a2tilde")),
            (reconstruct, dict(manifold="so3-trivial", via="a2tilde")),
            (reconstruct, dict(manifold="so3-nontrivial", via="a2tilde")),
            (reconstruct, dict(manifold="s3", via="a2tilde")),
            (certify_refusal, dict(manifold="s3")),
            (certify_refusal, dict(manifold="so3-nontrivial")),
        ), round_seconds=1.3),
    )
}
