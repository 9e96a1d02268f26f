"""Command-line interface.

Subcommands map one-to-one onto the library operations: ``invariants``,
``spectrum``, ``smallest``, ``heat-trace``, ``reconstruct``, and the grid
harness ``verify``.  JSON is the canonical output (stable field order,
every float as the shortest text that reads back as the same double
(Python's ``repr``), byte-identical for identical inputs); ``spectrum`` can
emit CSV with one line per row.  Exit codes: 0 success, 1 verification or
computation failure (including a result that is not finite), 2 usage error
(an argument out of its range included).
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from .blocks import build_block, build_from_representation
from .errors import CertificationError, Dirac3SphereError, DomainError
from .gershgorin import gershgorin_table
from .inverse import reconstruct
from .metric import (
    S3,
    SO3,
    SPECTRUM_MANIFOLDS,
    Metric,
    heat_invariants,
    invariants,
    scal_sign_classification,
)
from .spectrum import assemble, certify_fundamental_tone, counting_function, heat_trace, smallest

SCHEMA_VERSION = 3

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _format_float(x):
    if not math.isfinite(x):
        raise Dirac3SphereError(f"result is not finite ({x!r}); it cannot be serialized")
    return repr(x)


def _checked(convert, ok, what):
    def parse(text):  # an argparse type: ``convert``, then refuse values failing ``ok``
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid <type> value"
    return parse


_LEVEL = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_POSITIVE = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and positive")
_FINITE = _checked(float, math.isfinite, "finite")


def parse_metric(text):
    """Parse "a,b,c" with decimal or rational components ("1/2")."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"metric must have three components, got {text!r}")
    values = []
    for part in parts:
        try:
            values.append(float(Fraction(part.strip())))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad metric component {part!r}: {exc}") from exc
    return Metric(*values)


def parse_grid(text):
    """Parse "lo:hi:count,lo:hi:count,lo:hi:count" into three axis tuples."""
    axes = text.split(",")
    if len(axes) != 3:
        raise ValueError(f"grid must have three axes, got {text!r}")
    out = []
    for axis in axes:
        fields = axis.split(":")
        if len(fields) != 3:
            raise ValueError(f"axis must be lo:hi:count, got {axis!r}")
        lo, hi = float(Fraction(fields[0])), float(Fraction(fields[1]))
        count = int(fields[2])
        if count < 1 or hi < lo or lo <= 0:
            raise ValueError(f"bad axis {axis!r}")
        out.append((lo, hi, count))
    return out


def _axis_values(lo, hi, count):
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _spectrum_rows(spec):
    return [
        {
            "eigenvalue": line.eigenvalue,
            "level": line.level,
            "block": line.tag,
            "multiplicity": line.total_multiplicity,
        }
        for line in spec.lines
    ]


def _trace_payload(trace):
    if trace is None:
        return None
    return {
        "sorted_metric": list(trace.sorted_triple),
        "permutation": list(trace.permutation),
        "C": trace.C,
        "mu": trace.mu,
        "scal": trace.scal,
        "passed": trace.passed,
        "checks": len(trace.steps),
        "min_margin": trace.min_margin,
        "steps": [
            {"name": s.name, "detail": s.detail, "margin": s.margin, "passed": s.passed}
            for s in trace.steps
        ],
    }


def cmd_invariants(args):
    m = args.metric
    inv = invariants(m)
    heat_s3 = heat_invariants(m, S3)
    heat_so3 = heat_invariants(m, SO3)
    results = {
        "C": inv.C,
        "mu": inv.mu,
        "scal": inv.scal,
        "scal_sign": scal_sign_classification(m),
        "vol_s3": inv.vol_s3,
        "vol_so3": inv.vol_so3,
        "s1": inv.s1,
        "s2": inv.s2,
        "s3": inv.s3,
        "sigma1": inv.sigma1,
        "sigma2": inv.sigma2,
        "sigma3": inv.sigma3,
        "K12": inv.K12,
        "K23": inv.K23,
        "K31": inv.K31,
        "ric_norm_sq": inv.ric_norm_sq,
        "riem_norm_sq": inv.riem_norm_sq,
        "a2_tilde": inv.a2_tilde,
        "heat": {
            "s3": {"a0": heat_s3.a0, "a1": heat_s3.a1, "a2": heat_s3.a2},
            "so3": {"a0": heat_so3.a0, "a1": heat_so3.a1, "a2": heat_so3.a2},
        },
    }
    return results, EXIT_OK


def cmd_spectrum(args):
    spec = assemble(args.metric, args.manifold, args.max_level)
    results = {
        "max_level": spec.max_level,
        "max_radius": max((line.radius for line in spec.lines), default=0.0),
        "count": spec.total_count(),
        "lines": _spectrum_rows(spec),
    }
    return results, EXIT_OK


def cmd_smallest(args):
    certify = {"auto": None, "on": True, "off": False}[args.certify]
    report = smallest(
        args.metric,
        args.manifold,
        certify=certify,
        max_level=args.max_level,
    )
    results = {
        "value": report.value,
        "multiplicity_d_squared": report.multiplicity_d_squared,
        "certified": report.certified,
        "method": report.method,
        "max_level": report.max_level,
        "certification": _trace_payload(report.certification_trace),
    }
    return results, EXIT_OK


def cmd_heat_trace(args):
    spec = assemble(args.metric, args.manifold, args.max_level)
    result = heat_trace(args.metric, args.manifold, args.t, args.max_level, spectrum=spec)
    results = {
        "t": result.t,
        "max_level": result.max_level,
        "value": result.value,
        "tail_estimate": result.tail_estimate,
        "lambda_max": result.lambda_max,
        "computed_count": result.computed_count,
    }
    if args.lam is not None:
        results["counting"] = {
            "lam": args.lam,
            "count": counting_function(args.metric, args.manifold, args.lam, args.max_level, spectrum=spec),
        }
    return results, EXIT_OK


def cmd_reconstruct(args):
    result = reconstruct(args.manifold, args.volume, args.scal, mu=args.mu, C=args.c, a2_tilde=args.a2tilde)
    results = {
        "triple": list(result.triple),
        "branch": result.branch,
        "sym_polys": dict(result.sym_polys),
        "residuals": dict(result.residuals),
        "max_residual": result.max_residual,
    }
    return results, EXIT_OK


def _verify_point(metric, rep_level, details=False):
    sign = scal_sign_classification(metric)
    point = {"metric": list(metric.triple()), "scal_sign": sign}
    if sign != "positive":
        point.update(status="skipped", reason="certification needs scal > 0", checks=0, min_margin=None)
        return point
    try:
        trace = certify_fundamental_tone(metric)
        checks = len(trace.steps)
        min_margin = trace.min_margin
        for n in range(rep_level + 1):
            rep_a, rep_b = build_from_representation(metric, n).blocks()
            for tag, rep in (("A", rep_a), ("B", rep_b)):
                dense = build_block(metric, n, tag).to_dense()
                scale = max(1.0, float(abs(dense).max()))
                err = float(abs(rep - dense).max())
                if err > 1e-12 * scale:
                    raise CertificationError(
                        f"representation block (n={n}, {tag}) deviates by {err:.3e}"
                    )
                checks += 1
        gershgorin_table(metric, 30)  # closed forms vs direct bounds
        checks += 1
        point.update(status="pass", reason=None, checks=checks, min_margin=min_margin)
        if details:
            point["steps"] = [
                {"name": s.name, "margin": s.margin, "kind": s.kind} for s in trace.steps
            ]
    except Dirac3SphereError as exc:
        point.update(status="fail", reason=str(exc), checks=None, min_margin=None)
    return point


def cmd_verify(args):
    axes = [_axis_values(*axis) for axis in args.grid]
    metrics = [Metric(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    points = [_verify_point(m, args.rep_level, args.details) for m in metrics]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for p in points:
        counts[p["status"]] += 1
    results = {
        "grid": [list(axis) for axis in args.grid],
        "rep_level": args.rep_level,
        "points": points,
        "summary": counts,
    }
    return results, EXIT_OK if counts["fail"] == 0 else EXIT_FAILURE


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dirac3sphere",
        description="Dirac spectra of homogeneous metrics on the 3-sphere and its quotient",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, metric=True, manifold=True):
        if metric:
            p.add_argument("--metric", required=True, help="triple a,b,c (decimals or rationals like 1/2)")
        if manifold:
            p.add_argument("--manifold", required=True, choices=list(SPECTRUM_MANIFOLDS))
        p.add_argument("--timing", action="store_true", help="include wall time (breaks byte-stable output)")
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("invariants", help="curvature and volume invariants")
    add_common(p, manifold=False)
    p.set_defaults(func=cmd_invariants, manifold=None)

    p = sub.add_parser("spectrum", help="assembled spectrum up to a level cutoff")
    add_common(p)
    p.add_argument("--max-level", type=_LEVEL, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("smallest", help="smallest absolute eigenvalue, certified when scal > 0")
    add_common(p)
    p.add_argument("--max-level", type=_LEVEL, default=25, help="enumeration level cutoff when scal <= 0")
    p.add_argument("--certify", default="auto", choices=["auto", "on", "off"])
    p.set_defaults(func=cmd_smallest)

    p = sub.add_parser("heat-trace", help="truncated heat trace with tail estimate")
    add_common(p)
    p.add_argument("--t", type=_POSITIVE, required=True)
    p.add_argument("--max-level", type=_LEVEL, required=True)
    p.add_argument("--lam", type=_POSITIVE, default=None, help="also count eigenvalues with |lambda| <= lam")
    p.set_defaults(func=cmd_heat_trace)

    p = sub.add_parser("reconstruct", help="recover the metric from spectral data")
    add_common(p, metric=False)
    p.add_argument("--volume", type=_POSITIVE, required=True)
    p.add_argument("--scal", type=_FINITE, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mu", type=_FINITE, default=None)
    group.add_argument("--c", type=_FINITE, default=None)
    group.add_argument("--a2tilde", type=_FINITE, default=None)
    p.set_defaults(func=cmd_reconstruct, metric=None)

    p = sub.add_parser("verify", help="run the certificate and the cross-checks over a metric grid")
    add_common(p, metric=False, manifold=False)
    p.add_argument("--grid", required=True, help="three axes lo:hi:count, comma separated")
    p.add_argument("--rep-level", type=_LEVEL, default=8, help="top level for the representation cross-check")
    p.add_argument("--details", action="store_true", help="include every check's margin per grid point")
    p.set_defaults(func=cmd_verify, metric=None, manifold=None)

    return parser


def _spectrum_csv(results):
    rows = ["eigenvalue,level,block,multiplicity"]
    for line in results["lines"]:
        rows.append(
            f"{_format_float(line['eigenvalue'])},{line['level']},{line['block']},{line['multiplicity']}"
        )
    return "\n".join(rows) + "\n"


def _render(args, results, timing):
    if args.format == "csv":
        return _spectrum_csv(results)
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "metric", "manifold", "command", "timing")
        and not k.startswith("_")
        and (isinstance(v, (int, float, str, bool)) or v is None)
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "options": options,
        "metric": list(args.metric.triple()) if args.metric is not None else None,
        "manifold": args.manifold,
        "results": results,
        "timing_seconds": timing,
    }
    try:
        return json.dumps(doc, allow_nan=False) + "\n"
    except ValueError as exc:
        raise Dirac3SphereError("result is not finite; it cannot be serialized") from exc


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "metric", None) is not None and isinstance(args.metric, str):
        try:
            args.metric = parse_metric(args.metric)
        except (ValueError, DomainError) as exc:
            parser.error(str(exc))
    if args.command == "verify":
        try:
            args.grid = parse_grid(args.grid)
        except ValueError as exc:
            parser.error(str(exc))
    if args.format == "csv" and args.command != "spectrum":
        parser.error("csv output is only available for the spectrum command")

    started = time.perf_counter()
    try:
        results, code = args.func(args)
        timing = time.perf_counter() - started if args.timing else None
        text = _render(args, results, timing)  # refuses non-finite floats
    except Dirac3SphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ArithmeticError as exc:  # float overflow or underflow to a zero divisor
        print(f"error: the computation left the double range ({exc!r})", file=sys.stderr)
        return EXIT_FAILURE
    sys.stdout.write(text)
    return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
