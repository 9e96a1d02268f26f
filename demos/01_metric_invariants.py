"""Curvature invariants of left-invariant metrics.

Walks a handful of metrics through the closed-form invariants: the shift C,
the tone mu = a+b+c-C, scalar curvature, sectional curvatures, and the
heat-trace coefficients.  Each one is the exact value for the metric as
written (a ``Fraction`` entry exactly, a float as its double), computed in
integers and rounded once, so scal keeps its digits right up to the
scal = 0 wall, and its sign is decided exactly.
"""

from fractions import Fraction

import dirac3sphere as d3s
from dirac3sphere import Metric

SAMPLES = [
    ("round sphere", Metric(1, 1, 1)),
    ("stretched axis", Metric(2, 1, 1)),
    ("generic", Metric(1.3, 0.8, 0.6)),
    ("scal = 0 wall", Metric(1, 1, 0.5)),
    ("negative curvature", Metric(1, 1, 0.4)),
]


def main():
    header = f"{'metric':>22} {'C':>8} {'mu':>8} {'scal':>10} {'sign':>9} {'|Ric|^2':>9} {'|Riem|^2':>9} {'a2~':>9}"
    print(header)
    print("-" * len(header))
    for name, m in SAMPLES:
        inv = d3s.invariants(m)
        sign = d3s.scal_sign_classification(m)
        print(
            f"{name:>22} {inv.C:8.4f} {inv.mu:8.4f} {inv.scal:10.5f} {sign:>9}"
            f" {inv.ric_norm_sq:9.3f} {inv.riem_norm_sq:9.3f} {inv.a2_tilde:9.2f}"
        )

    print()
    print("Heat-trace coefficients of the squared operator (sphere):")
    for name, m in SAMPLES:
        h = d3s.heat_invariants(m, d3s.S3)
        print(f"{name:>22}:  a0 = {h.a0:9.4f}  a1 = {h.a1:9.4f}  a2 = {h.a2:9.5f}")

    print()
    m = Metric(1, 1, 0.5)
    print("At (1, 1, 1/2) scal is exactly zero, and so is the heat coefficient a1:")
    print(f"  scal = {m.scal!r},  a1 = {d3s.heat_invariants(m, d3s.S3).a1!r}")
    m = Metric(2, 1, 0.6666666666666676)
    print("Nine ulps off the wall (2, 1, 2/3), where 8*(sigma1 - C^2) in floats reads 4.97e-14:")
    print(f"  exact scal = {m.scal!r}, classified {d3s.scal_sign_classification(m)!r} (the exact sign)")
    print("The wall (6, 4, 12/5) as written, and as its nearest doubles:")
    for m in (Metric(6, 4, Fraction(12, 5)), Metric(6, 4, 2.4)):
        print(f"  {m.triple()}: scal = {m.scal!r}, classified {d3s.scal_sign_classification(m)!r}")


if __name__ == "__main__":
    main()
