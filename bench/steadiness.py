"""Steadiness check: two sets of runs of the same code against the bounds.

    python3 bench/steadiness.py --runs 10
    python3 bench/steadiness.py --runs 10 --baseline bench/baseline.json --label "<commit>"

Two sets of runs: each runs every workload in BENCHMARK.json once per seed,
seeds 1..runs in the first set and runs+1..2*runs in the second,
sequentially, one process at a time.  For every end-to-end metric it
reports each set's median and quartile spread, (q3 - q1) / median, and
checks two things against the metric's bound in BENCHMARK.json: each set's
spread stays within the bound, and the two set medians differ by no more
than the bound, in either direction.  With ``--baseline`` the medians and
every run are written out as the reference numbers for later comparisons.
Seed 4242 is held out of all of this for confirming later claims.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HELD_OUT_SEED = 4242


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", type=Path, help="write medians and runs here")
    parser.add_argument("--label", default="", help="what was measured, for the baseline file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if HELD_OUT_SEED <= 2 * args.runs:
        parser.error(f"seed {HELD_OUT_SEED} is held out; use fewer runs")

    runs = {w: [] for w in workloads}
    for s in range(2):
        for w in workloads:
            for seed in range(1 + s * args.runs, 1 + (s + 1) * args.runs):
                result = run_once(spec, w, seed)
                result.update(set=s, seed=seed)
                runs[w].append(result)
                print(f"set {s} {w} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok, summary = True, {}
    for w in workloads:
        summary[w] = {}
        for name, m in metrics.items():
            per_set = [[r["metrics"][name]["value"] for r in runs[w] if r["set"] == s] for s in range(2)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            change = (medians[1] - medians[0]) / medians[0]
            bad = [f"spread {x:.3f}" for x in spreads if x > m["bound"]]
            bad += [f"set medians differ by {change:+.3f}"] if abs(change) > m["bound"] else []
            ok &= not bad
            summary[w][name] = {"unit": m["unit"], "medians": medians, "spreads": spreads, "change": change}
            print(f"{w:15s} {name:12s} medians " + " ".join(f"{x:.5g}" for x in medians)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads) + f"  change {change:+.3f}"
                  + f"  bound {m['bound']}" + ("  FAIL: " + ", ".join(bad) if bad else "  ok"))
        ok &= all(r["correct"] for r in runs[w])

    if args.baseline:
        args.baseline.write_text(json.dumps(
            {"label": args.label, "run_seconds": spec["run_seconds"], "summary": summary, "runs": runs},
            indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
