"""Command-line interface.

Subcommands map one-to-one onto the library operations: ``invariants``,
``spectrum``, ``smallest``, ``heat-trace``, ``reconstruct``, and ``verify``,
the exact certificate of the fundamental tone over a metric grid.  JSON is
the canonical output (stable field order, every float as the shortest text
that reads back as the same double (Python's ``repr``), byte-identical for
identical inputs); ``spectrum`` alone takes ``--format``, and with ``csv``
emits one line per row.  Each subcommand has only the options that act on
it, and argparse reads every argument once: a malformed ``--metric`` or
``--grid`` is refused by the subcommand's own parser.  Exit codes: 0
success, 1 verification or computation failure (including a result that is
not finite, and one that does not fit in memory), 2 usage error (an
argument out of its range included).  A warning, such as a
``TruncationWarning``, is one ``warning: ...`` line on stderr.

Importing this module loads only the standard library, and so do the
commands decided in exact arithmetic: ``invariants``, ``reconstruct``,
``verify`` and a certified or refused ``smallest``.  ``spectrum``,
``heat-trace`` and an enumerated ``smallest`` import numpy when they run.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings
from fractions import Fraction

from .errors import Dirac3SphereError, UncertifiableError
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
from .gershgorin import certify_fundamental_tone, smallest

SCHEMA_VERSION = 6

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


def _real(text, what):
    """A decimal as its nearest double, as Python reads a float literal, or
    a ratio ("12/5") as that exact ``Fraction``; ValueError when it is
    neither or lies beyond the double range."""
    try:
        value = Fraction(text.strip())
        x = float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad {what} {text!r}: {exc}") from exc
    return value if "/" in text else x


def parse_metric(text):
    """Parse "a,b,c" with decimal or rational components ("1/2"): a ratio
    stays exact (:class:`~dirac3sphere.metric.Metric`), so "6,4,12/5" lies
    on the wall scal = 0."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"metric must have three components, got {text!r}")
    return Metric(*(_real(part, "metric component") for part in parts))


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
        lo, hi = (float(_real(field, "axis bound")) for field in fields[:2])
        count = int(fields[2])
        if count < 1 or hi < lo or lo <= 0:
            raise ValueError(f"bad axis {axis!r}")
        out.append((lo, hi, count))
    return out


def _usage_errors(parse):
    """``parse`` as an argparse type: its ``ValueError`` (a ``DomainError``
    included) becomes a usage error that keeps its message."""
    def adapter(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return adapter


def _axis_values(lo, hi, count):
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _spectrum_rows(spec):
    columns = (spec.eigenvalue.tolist(), spec.level.tolist(), spec.tags, spec.total_multiplicity.tolist())
    return [
        {"eigenvalue": value, "level": level, "block": tag, "multiplicity": mult}
        for value, level, tag, mult in zip(*columns)
    ]


def _step_record(step):
    """One certificate step as ``smallest`` and ``verify --details`` print it."""
    return {"name": step.name, "detail": step.detail, "margin": step.margin}


def _trace_payload(trace):
    if trace is None:
        return None
    return {
        "sorted_metric": list(trace.sorted_triple),
        "permutation": list(trace.permutation),
        "C": trace.C,
        "mu": trace.mu,
        "scal": trace.scal,
        "checks": len(trace.steps),
        "min_margin": trace.min_margin,
        "steps": [_step_record(s) for s in trace.steps],
    }


def cmd_invariants(args):
    m = args.metric
    inv = dataclasses.asdict(invariants(m))
    results = {"C": inv["C"], "mu": inv["mu"], "scal": inv["scal"], "scal_sign": scal_sign_classification(m)}
    results.update(inv)  # every field in its order, scal_sign after scal
    results["heat"] = {
        name: {"a0": h.a0, "a1": h.a1, "a2": h.a2}
        for name, h in (("s3", heat_invariants(m, S3)), ("so3", heat_invariants(m, SO3)))
    }
    return results, EXIT_OK


def cmd_spectrum(args):
    from .spectrum import assemble

    spec = assemble(args.metric, args.manifold, args.max_level)
    results = {
        "max_level": spec.max_level,
        "max_radius": float(spec.radius.max(initial=0.0)),
        "count": spec.total_count(),
        "lines": _spectrum_rows(spec),
    }
    return results, EXIT_OK


def cmd_smallest(args):
    report = smallest(args.metric, args.manifold, certify=args.certify == "on", max_level=args.max_level)
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
    from .spectrum import assemble, counting_function, heat_trace

    spec = assemble(args.metric, args.manifold, args.max_level)
    result = heat_trace(spec, args.t)
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
            "count": counting_function(spec, args.lam),
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


def _verify_point(metric, details=False):
    """One grid point: the certificate decides whether it passes (exact
    scal > 0) or is skipped, by the exact sign that ``scal_sign`` reports.
    A passing point's ``checks`` counts the certificate's steps."""
    point = {"metric": list(metric.triple()), "scal_sign": scal_sign_classification(metric)}
    try:
        trace = certify_fundamental_tone(metric)
        point.update(status="pass", reason=None, checks=len(trace.steps), min_margin=trace.min_margin)
        if details:
            point["steps"] = [_step_record(s) for s in trace.steps]
    except UncertifiableError:
        point.update(status="skipped", reason="certification needs scal > 0", checks=0, min_margin=None)
    except Dirac3SphereError as exc:
        point.update(status="fail", reason=str(exc), checks=None, min_margin=None)
    return point


def cmd_verify(args):
    axes = [_axis_values(*axis) for axis in args.grid]
    metrics = [Metric(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    points = [_verify_point(m, args.details) for m in metrics]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for p in points:
        counts[p["status"]] += 1
    results = {
        "grid": [list(axis) for axis in args.grid],
        "points": points,
        "summary": counts,
    }
    return results, EXIT_OK if counts["fail"] == 0 else EXIT_FAILURE


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every call of
    :func:`main`: ``parse_args`` returns a fresh namespace and nothing
    mutates the parser."""
    parser = argparse.ArgumentParser(
        prog="dirac3sphere",
        description="Dirac spectra of homogeneous metrics on the 3-sphere and its quotient",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, metric=True, manifold=True):
        if metric:
            p.add_argument("--metric", type=_usage_errors(parse_metric), required=True,
                           help="triple a,b,c (decimals or rationals like 1/2)")
        if manifold:
            p.add_argument("--manifold", required=True, choices=list(SPECTRUM_MANIFOLDS))

    p = sub.add_parser("invariants", help="curvature and volume invariants")
    add_common(p, manifold=False)
    p.set_defaults(func=cmd_invariants, manifold=None)

    p = sub.add_parser("spectrum", help="assembled spectrum up to a level cutoff")
    add_common(p)
    p.add_argument("--max-level", type=_LEVEL, required=True)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("smallest", help="smallest absolute eigenvalue, certified when scal > 0")
    add_common(p)
    p.add_argument("--max-level", type=_LEVEL, default=25, help="enumeration level cutoff when scal <= 0")
    p.add_argument("--certify", default="auto", choices=["auto", "on"],
                   help="auto: certified when scal > 0, else enumerated; on: certified or refused")
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

    p = sub.add_parser("verify", help="run the exact certificate of the fundamental tone over a metric grid")
    p.add_argument("--grid", type=_usage_errors(parse_grid), required=True,
                   help="three axes lo:hi:count, comma separated")
    p.add_argument("--details", action="store_true",
                   help="list every certificate step's name, detail and margin for each passing point")
    p.set_defaults(func=cmd_verify, metric=None, manifold=None)

    return parser


def _spectrum_csv(results):
    rows = ["eigenvalue,level,block,multiplicity"]
    for line in results["lines"]:
        rows.append(
            f"{_format_float(line['eigenvalue'])},{line['level']},{line['block']},{line['multiplicity']}"
        )
    return "\n".join(rows) + "\n"


def _render(args, results):
    if args.command == "spectrum" and args.format == "csv":
        return _spectrum_csv(results)
    options = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "metric", "manifold", "command")
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
    }
    try:
        return json.dumps(doc, allow_nan=False) + "\n"
    except ValueError as exc:
        raise Dirac3SphereError("result is not finite; it cannot be serialized") from exc


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None):
    parser = _build_parser()
    # argparse takes only "-1" and "-.5" forms for numbers, so "--scal
    # -1.6e2" would lose its value: join such a token to the option before it
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i].startswith("-") and _is_float(argv[i]) and argv[i - 1].startswith("--") and "=" not in argv[i - 1]:
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:  # a warning filtered to "error" still raises
            results, code = args.func(args)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        text = _render(args, results)  # refuses non-finite floats
    except Dirac3SphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ArithmeticError as exc:  # float overflow or underflow to a zero divisor
        print(f"error: the computation left the double range ({exc!r})", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:  # a level cutoff whose arrays cannot be allocated
        print("error: the computation ran out of memory", file=sys.stderr)
        return EXIT_FAILURE
    sys.stdout.write(text)
    return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
