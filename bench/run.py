"""Benchmark of the dirac3sphere command line, driven in-process.

    python3 bench/run.py --workload tone-certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the library is imported from its ``src``
directory, never from an installed copy.  Each workload is a closed loop with
one client: ``dirac3sphere.cli.main(argv)`` is called with stdout and stderr
captured, and the next operation starts when the previous one returns.
Every output is checked by the oracle in ``oracle.py`` outside the timed
section.

``--trace 0`` runs the operation stream PASSES times in a row and reports
the end-to-end metrics over each operation's fastest pass; ``--trace 1``
runs the stream once untraced and once with span recorders at the layer
boundaries and reports the per-layer metrics (see ``spans.py``).  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spectra-highL", "tone-certify", "tone-enumerate")
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASSES = 2
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import dirac3sphere.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass(frozen=True)
class Outcome:
    code: object            # exit code, or None after a raw exception
    exception: object       # exception type name, or None
    stdout: str
    stderr: str


def pin_environment():
    """One BLAS thread, and the verify sweep left single-threaded."""
    for var in THREAD_PINS:
        os.environ[var] = "1"
    os.environ.pop("DIRAC3SPHERE_THREADS", None)


def environment():
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_PINS},
        "DIRAC3SPHERE_THREADS": os.environ.get("DIRAC3SPHERE_THREADS", "unset"),
    }


def time_import():
    """Wall time of ``import dirac3sphere.cli`` in a fresh interpreter."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout)


def call(cli, argv):
    """One operation: cli.main(argv) with its output captured, and its wall time."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, exception = cli.main(list(argv)), None
    except SystemExit as exc:
        code, exception = exc.code, None
    except Exception as exc:        # a raw exception out of main is a measured failure
        code, exception = None, type(exc).__name__
    elapsed = time.perf_counter() - start
    return Outcome(code, exception, out.getvalue(), err.getvalue()), elapsed


def run_stream(cli, ops, verdict, after_op=lambda index: None):
    """Every operation in order; returns (per-op seconds, failures, output bytes).

    ``verdict(index, op, outcome)`` and ``after_op(index)`` run after each
    operation, outside its timed section.
    """
    times, failures, output_bytes = [], [], 0
    for index, op in enumerate(ops):
        outcome, elapsed = call(cli, op.argv)
        after_op(index)
        times.append(elapsed)
        output_bytes += len(outcome.stdout.encode())
        reason = verdict(index, op, outcome)
        if reason is not None:
            failures.append((op, reason))
    return times, failures, output_bytes


def once_per_output(check):
    """``check(op, outcome)`` asked once per operation and distinct output.

    A later pass that prints exactly what an earlier one printed gets the
    same verdict without solving the oracle again.
    """
    seen = {}

    def verdict(index, op, outcome):
        key = (index, hashlib.sha256(repr(outcome).encode()).hexdigest())
        if key not in seen:
            seen[key] = check(op, outcome)
        return seen[key]

    return verdict


def tail_index(n):
    """Index (sorted ascending) of the highest percentile with ten samples beyond it."""
    return max(0, n - 11)


def end_to_end(times, setup_s):
    ordered = sorted(times)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(ordered), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * ordered[tail_index(len(ordered))], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def load_known_failures():
    return json.loads((BENCH_DIR / "known_failures.json").read_text())["failures"]


def scale_tag(exponent):
    return "unit" if exponent == 0 else f"2^{exponent:+d}"


def summarize(name, failures, known, attempted):
    """Print the failures grouped by kind; True when all are listed as known."""
    groups = {}
    for op, reason in failures:
        key = (op.label, scale_tag(op.scale))
        groups.setdefault(key, [0, reason])[0] += 1
    unknown = False
    for (label, scale), (count, reason) in sorted(groups.items()):
        status = "known" if (label, scale) in known else "NEW"
        unknown |= status == "NEW"
        print(f"{name}: {count} failed  {label} @ {scale}  [{status}]  {reason}")
    print(f"{name}: fail_frac {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})")
    return not unknown


def run_workload(args):
    import oracle
    import spans
    import workloads

    if not (SRC / "dirac3sphere" / "cli.py").is_file():
        print(f"no library sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dirac3sphere
    import dirac3sphere.cli as cli

    if Path(dirac3sphere.__file__).resolve().parent != SRC / "dirac3sphere":
        print(f"imported dirac3sphere from {dirac3sphere.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    pass_seconds = args.seconds / PASSES
    ops = workload.ops(args.seed, pass_seconds)
    oracle.check_representation((1.3, 0.8, 0.6))
    listed = load_known_failures()
    known = {(e["operation"], e["scale"]) for e in listed}
    tried = {(op.label, scale_tag(op.scale)) for op in ops}
    env = environment()
    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(ops)} operations, {workload.rounds(pass_seconds)} rounds, seed {args.seed}")
    for label, scale in sorted({(e["operation"], e["scale"]) for e in listed if args.workload in e["workloads"]}
                               - tried):
        print(f"{args.workload}: listed failure {label} @ {scale} is not tried at this length")
    verdict = once_per_output(oracle.verdict)

    if not args.trace:
        # set-up samples are spread over the passes, between operations, so
        # that they see the same mix of machine speeds as the operations do
        due = {int((k + 0.5) * PASSES * len(ops) / SETUP_REPEATS) for k in range(SETUP_REPEATS)}
        imports = []
        time_import()       # writes the bytecode caches
        passes, failures = [], []
        for p in range(PASSES):
            times, pass_failures, _ = run_stream(
                cli, ops, verdict, lambda index: p * len(ops) + index in due and imports.append(time_import()))
            passes.append(times)
            failures += pass_failures
        # an operation's fastest pass: the slower ones differ by interference
        # from outside the process, which comes and goes within seconds
        times = [min(op_times) for op_times in zip(*passes)]
        metrics = end_to_end(times, min(imports))
        attempted, failed = PASSES * len(ops), len(failures)
        for name, m in metrics.items():
            print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']}")
        print(f"{args.workload}: op_tail_ms is p{100.0 * (tail_index(len(times)) + 1) / len(times):.1f} of N={len(times)}")
    else:
        times, failures, _ = run_stream(cli, ops, verdict)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_times, traced_failures, output_bytes = run_stream(
                cli, ops, verdict, lambda index: tracer.time_dense_reference())
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(output_bytes, len(times) / sum(times), len(traced_times) / sum(traced_times))
        failures += traced_failures
        attempted, failed = len(times) + len(traced_times), len(failures)
        for name, m in metrics.items():
            print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']}")

    correct = summarize(args.workload, failures, known, attempted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0, help="run length on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
