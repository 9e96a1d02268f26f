"""The certified fundamental tone under positive scalar curvature.

For scal > 0 the smallest absolute eigenvalue is mu = a+b+c-C on the sphere
and on the odd quotient structure, and C on the even structure.  The package
proves that statement for each concrete metric: an exact gate decides
scal > 0, then it decides a fixed list of 13 closed-form conditions in exact
rational arithmetic on the metric as written, each an integer polynomial in
(a, b, c, C) that holds when it is positive;
the Gershgorin base cases and the triangle increment hold for every level at
once, so no level is replayed.  The tests run the same list on polynomials
and prove every condition for every metric with scal > 0; the run here
re-decides them for one metric and shows its margins.  This demo sweeps a family approaching the
scal = 0 wall and watches the margins shrink, cross-checks against plain
numerical enumeration, and decides metrics one rounding step from the wall.
"""

import dirac3sphere as d3s
from dirac3sphere import Metric


def main():
    print("Family (1, 1, c) with c sliding toward the scal = 0 wall at c = 1/2:")
    print(f"{'c':>6} {'scal':>9} {'mu':>8} {'enumerated':>11} {'mult':>5} {'certified':>10} {'min margin':>11}")
    for c in (1.0, 0.9, 0.8, 0.7, 0.6, 0.55, 0.52):
        m = Metric(1, 1, c)
        report = d3s.smallest(m, d3s.S3)
        value, mult, _ = d3s.enumerated_min_abs(m, d3s.S3, 25)
        margin = report.certification_trace.min_margin
        print(
            f"{c:6.2f} {m.scal:9.4f} {report.value:8.5f} {value:11.8f} {mult:5d}"
            f" {str(report.certified):>10} {margin:11.3e}"
        )

    print("\nNext to the wall the exact decision needs no tolerance:")
    m = Metric(1, 1, 0.5000000000001)
    trace = d3s.certify_fundamental_tone(m)
    print(f"  (1, 1, 0.5000000000001): exact sign {d3s.scal_sign_classification(m)!r},"
          f" certified by {len(trace.steps)} steps, smallest margin {trace.min_margin:.3e}")
    for c in (0.5, 0.4999999999999):
        try:
            d3s.certify_fundamental_tone(Metric(1, 1, c))
        except d3s.UncertifiableError as exc:
            print(f"  (1, 1, {c!r}): {exc}")

    print("\nBelow the wall only enumerated minima remain (never certified):")
    for c in (0.45, 0.4, 0.3):
        m = Metric(1, 1, c)
        report = d3s.smallest(m, d3s.S3, max_level=30)
        print(
            f"  c = {c:4.2f}: scal = {m.scal:8.4f}, min |eigenvalue| = {report.value:.8f}"
            f" (levels <= {report.max_level}, certified = {report.certified})"
        )

    print("\nAnatomy of one certificate, (a, b, c) = (2, 1, 1); every metric with scal > 0")
    print("gets the same list of steps:")
    trace = d3s.certify_fundamental_tone(Metric(2, 1, 1))
    kinds = {}
    for step in trace.steps:
        kinds[step.name.split(":")[0]] = kinds.get(step.name.split(":")[0], 0) + 1
    for kind, count in kinds.items():
        print(f"  {kind:>10}: {count:4d} checks")
    print(f"  total {len(trace.steps)} steps, smallest margin {trace.min_margin:.3e}")
    print("  (regime: mu > 0, as scal > 0 is the gate before the table; level2-4: the explicit small levels,")
    print("   level 3 as one product per pair of eigenvalues; base: G(5,0) > mu^2;")
    print("   tail: q(n_min) > 0 and q'(n_min) > 0 for the G(n,0) and G(n,1) quadratics in n;")
    print("   increment: positive at n = 0 with slope 4c^2, so positive at every n;")
    print("   what holds for every sorted triple, such as levels 0 and 1, the G(n,n) family,")
    print("   the level-3 radicands R >= 0 and the slope, is proved once)")


if __name__ == "__main__":
    main()
