"""Span recorders around the library's layer boundaries, for the traced run.

``Tracer.install`` replaces each boundary function below with a recorder at
every place the package binds it: the defining module (so calls inside that
module pass through it too) and every module that imported the name, such as
``dirac3sphere.spectrum.eigenvalues`` or ``dirac3sphere.cli.assemble``.
Per-row helpers (``row_bound``, the Sturm count loops, ``Metric``
properties) are left alone; their time lands in the span that calls them.

A span's self time is its duration minus the durations of the spans it
directly caused.  Spans nest strictly in one thread, so children never
overlap and their durations simply add.
"""

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

import oracle

# (module, function, span name); metric-layer functions share one span name
BOUNDARIES = (
    ("cli", "main", "cli"),
    ("metric", "invariants", "metric"),
    ("metric", "heat_invariants", "metric"),
    ("metric", "scal_sign_classification", "metric"),
    ("metric", "volume", "metric"),
    ("blocks", "build_block", "blocks.build_block"),
    ("blocks", "build_from_representation", "blocks.representation"),
    ("eigen", "symmetrize", "eigen.symmetrize"),
    ("eigen", "eigenvalues", "eigen.eigenvalues"),
    ("eigen", "min_abs_eigenvalue", "eigen.min_abs"),
    ("eigen", "count_below", "eigen.count_below"),
    ("gershgorin", "min_row_bound", "gershgorin.min_row_bound"),
    ("gershgorin", "base_cases", "gershgorin.base_cases"),
    ("gershgorin", "triangle_increment", "gershgorin.triangle_increment"),
    ("gershgorin", "gershgorin_table", "gershgorin.table"),
    ("spectrum", "level_lines", "spectrum.level_lines"),
    ("spectrum", "assemble", "spectrum.assemble"),
    ("spectrum", "heat_trace", "spectrum.heat_trace"),
    ("spectrum", "counting_function", "spectrum.counting"),
    ("spectrum", "certify_fundamental_tone", "spectrum.certify"),
    ("spectrum", "enumerated_min_abs", "spectrum.enumerate"),
    ("spectrum", "smallest", "spectrum.smallest"),
    ("inverse", "reconstruct", "inverse.reconstruct"),
)

#: reported per-layer metrics: name -> unit
PER_LAYER = {
    "cli.self_s": "s",
    "cli.output_bytes": "count",
    "metric.calls": "count",
    "metric.self_s": "s",
    "blocks.build_block.calls": "count",
    "blocks.build_block.self_s": "s",
    "blocks.rows_built": "count",
    "blocks.representation.calls": "count",
    "blocks.representation.self_s": "s",
    "eigen.symmetrize.self_s": "s",
    "eigen.eigenvalues.calls": "count",
    "eigen.eigenvalues.self_s": "s",
    "eigen.rows_solved": "count",
    "eigen.rows_per_s": "1/s",
    "eigen.min_abs.calls": "count",
    "eigen.min_abs.self_s": "s",
    "eigen.count_below.calls": "count",
    "eigen.count_below.self_s": "s",
    "eigen.dense_ref_s": "s",
    "gershgorin.min_row_bound.calls": "count",
    "gershgorin.min_row_bound.self_s": "s",
    "gershgorin.base_cases.self_s": "s",
    "gershgorin.triangle_increment.calls": "count",
    "gershgorin.triangle_increment.self_s": "s",
    "gershgorin.table.self_s": "s",
    "spectrum.level_lines.self_s": "s",
    "spectrum.assemble.self_s": "s",
    "spectrum.heat_trace.self_s": "s",
    "spectrum.counting.self_s": "s",
    "spectrum.certify.calls": "count",
    "spectrum.certify.self_s": "s",
    "spectrum.certify.checks": "count",
    "spectrum.enumerate.self_s": "s",
    "spectrum.enumerate.levels_admissible": "count",
    "spectrum.enumerate.levels_examined": "count",
    "spectrum.enumerate.prune_ratio": "ratio",
    "spectrum.smallest.self_s": "s",
    "inverse.reconstruct.calls": "count",
    "inverse.reconstruct.self_s": "s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = []                 # child time accumulated by each open span
        self._solved = []               # symmetrized blocks passed to eigenvalues
        self._restore = []
        self.dense_ref_s = 0.0

    def _after(self, name, args, kwargs, result):
        if name == "blocks.build_block":
            self.counts["rows_built"] += _arg(args, kwargs, 1, "n") + 1
        elif name == "eigen.eigenvalues":
            t = _arg(args, kwargs, 0, "t")
            self.counts["rows_solved"] += t.size
            self._solved.append(t)
        elif name == "spectrum.certify":
            self.counts["certify_checks"] += len(result.steps)
        elif name == "spectrum.enumerate":
            manifold = _arg(args, kwargs, 1, "manifold")
            max_level = _arg(args, kwargs, 2, "max_level", 25)
            self.counts["levels_admissible"] += len(oracle.admissible_levels(manifold, max_level))
            self.counts["levels_examined"] += len(result[2])

    def _wrap(self, name, fn):
        stack, calls, self_s, clock = self._open, self.calls, self.self_s, time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
            self._after(name, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "dirac3sphere" or n.startswith("dirac3sphere.")]
        for module, func, name in BOUNDARIES:
            original = getattr(importlib.import_module(f"dirac3sphere.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def time_dense_reference(self):
        """LAPACK on the blocks the last operation solved, outside any span."""
        for t in self._solved:
            dense = t.to_dense()
            start = time.perf_counter()
            np.linalg.eigvalsh(dense)
            self.dense_ref_s += time.perf_counter() - start
        self._solved.clear()

    def metrics(self, output_bytes, untraced_ops_per_s, traced_ops_per_s):
        c, s, n = self.calls, self.self_s, self.counts
        eig_s = s["eigen.eigenvalues"]
        admissible = n["levels_admissible"]
        values = {
            "cli.self_s": s["cli"],
            "cli.output_bytes": output_bytes,
            "metric.calls": c["metric"],
            "metric.self_s": s["metric"],
            "blocks.rows_built": n["rows_built"],
            "eigen.rows_solved": n["rows_solved"],
            "eigen.rows_per_s": n["rows_solved"] / eig_s if eig_s > 0 else 0.0,
            "eigen.dense_ref_s": self.dense_ref_s,
            "spectrum.certify.checks": n["certify_checks"],
            "spectrum.enumerate.levels_admissible": admissible,
            "spectrum.enumerate.levels_examined": n["levels_examined"],
            "spectrum.enumerate.prune_ratio": 1.0 - n["levels_examined"] / admissible if admissible else 0.0,
            "trace.untraced_ops_per_s": untraced_ops_per_s,
            "trace.traced_ops_per_s": traced_ops_per_s,
            "trace.overhead": untraced_ops_per_s / traced_ops_per_s - 1.0,
        }
        for metric in PER_LAYER:
            if metric not in values:
                name, field = metric.rsplit(".", 1)
                values[metric] = c[name] if field == "calls" else s[name]
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER.items()}
