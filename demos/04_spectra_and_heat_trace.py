"""Assembled spectra, Berger coincidences, heat traces, and Weyl counting.

The sphere collects every level; the two quotient structures split them by
parity.  Berger metrics (two equal parameters) produce arithmetic
progressions that realign across levels, visible in the merged view.  The
truncated heat trace reproduces the three-term small-time expansion, and the
counting function lands on the Weyl slope.
"""

import math

import dirac3sphere as d3s
from dirac3sphere import Metric


def main():
    m = Metric(1, 1, 1)
    spec = d3s.assemble(m, d3s.S3, 3)
    print("Round-sphere spectrum through level 3:")
    for line in spec.lines:
        print(
            f"  eigenvalue {line.eigenvalue:8.4f}  level {line.level}  block {line.tag:>2}"
            f"  multiplicity {line.total_multiplicity}"
        )

    print("\nSpin-structure split at level cutoff 4 (quotient):")
    for manifold in (d3s.SO3_TRIVIAL, d3s.SO3_NONTRIVIAL):
        sub = d3s.assemble(m, manifold, 4)
        levels = sorted({l.level for l in sub.lines})
        print(f"  {manifold:>15}: levels {levels}, count {sub.total_count()}")

    print("\nBerger metric (1/2, 1, 1): the value -3 recurs at levels 1 and 3;")
    bspec = d3s.assemble(Metric(0.5, 1, 1), d3s.S3, 3)
    for line in bspec.lines:
        if abs(line.eigenvalue + 3.0) < 1e-9:
            print(f"  raw line: level {line.level}, multiplicity {line.total_multiplicity}")
    merged = [x for x in bspec.merged_lines() if abs(x[0] + 3.0) < 1e-9]
    print(f"  merged view: eigenvalue {merged[0][0]:.6f} with multiplicity {merged[0][1]}")

    print("\nHeat trace vs the three-term expansion (round sphere, levels <= 60):")
    spec60 = d3s.assemble(m, d3s.S3, 60)
    h = d3s.heat_invariants(m, d3s.S3)
    for t in (0.02, 0.05, 0.1, 0.5):
        result = d3s.heat_trace(spec60, t)
        asym = (4 * math.pi * t) ** -1.5 * (h.a0 + h.a1 * t + h.a2 * t * t)
        print(
            f"  t = {t:5.2f}: trace {result.value:12.6f}  expansion {asym:12.6f}"
            f"  rel. dev {abs(result.value / asym - 1):9.2e}  tail est {result.tail_estimate:9.2e}"
        )

    print("\nCounting function vs the Weyl slope vol/(3 pi^2) lam^3:")
    for lam in (10.0, 20.0, 40.0):
        count = d3s.counting_function(spec60, lam)
        weyl = d3s.weyl_count_estimate(m, d3s.S3, lam)
        print(f"  lam = {lam:5.1f}: count {count:7d}  estimate {weyl:10.1f}  ratio {count / weyl:.4f}")


if __name__ == "__main__":
    main()
