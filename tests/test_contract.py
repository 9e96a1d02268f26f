"""The package's outward contract: the names other code binds resolve, and
the object layer refuses bad arguments with the package's own error type."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _boundaries():
    # the BOUNDARIES literal of bench/spans.py, read without importing it
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py has no BOUNDARIES")


#: the declared public set, one name a line, so that any change to the exports shows as a diff
PUBLIC_NAMES = [
    "CertificationError",
    "CertificationTrace",
    "ConsistencyError",
    "DIM_SPINOR",
    "Dirac3SphereError",
    "DiracBlock",
    "DomainError",
    "GershgorinTable",
    "HeatInvariants",
    "HeatTraceResult",
    "InconsistentInputError",
    "Metric",
    "MetricInvariants",
    "NEGATIVE",
    "POSITIVE",
    "ReconstructionResult",
    "RepresentationOperator",
    "S3",
    "SO3",
    "SO3_NONTRIVIAL",
    "SO3_TRIVIAL",
    "SmallestEigenvalueReport",
    "SpectralLine",
    "Spectrum",
    "SymmetrizedTridiagonal",
    "TruncationWarning",
    "UncertifiableError",
    "UnsupportedLevelError",
    "WrongRegimeError",
    "ZERO",
    "admissible_levels",
    "assemble",
    "base_cases",
    "build_block",
    "build_from_representation",
    "certify_fundamental_tone",
    "char_poly_small_n",
    "closed_form_G",
    "closed_form_eigs",
    "count_below",
    "counting_function",
    "cubic_positive_roots",
    "eigenvalues",
    "enumerated_min_abs",
    "gershgorin_table",
    "heat_invariants",
    "heat_trace",
    "invariants",
    "level_bounds",
    "level_lines",
    "min_abs_eigenvalue",
    "min_row_bound",
    "reconstruct",
    "reconstruct_nonpositive",
    "reconstruct_positive_C",
    "reconstruct_positive_mu",
    "scal_sign_classification",
    "sectional_curvatures",
    "smallest",
    "symmetrize",
    "triangle_increment",
    "volume",
    "weyl_count_estimate",
]


def test_benchmark_boundaries_and_exports_resolve():
    # the names bench/spans.py wraps, and the oracle check bench/run.py makes
    # before its first operation: a renamed name or a changed representation
    # fails here, not only in a traced benchmark run
    boundaries = _boundaries()
    assert boundaries
    for module, func, _ in boundaries:
        assert callable(getattr(importlib.import_module(f"dirac3sphere.{module}"), func, None)), (module, func)
    spec = importlib.util.spec_from_file_location("bench_oracle", SPANS.with_name("oracle.py"))
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    oracle.check_representation((1.3, 0.8, 0.6))
    assert sorted(d3s.__all__) == PUBLIC_NAMES
    for name in d3s.__all__:
        assert hasattr(d3s, name), name


def test_object_layer_refusals_are_domain_errors():
    m = Metric(1.3, 0.8, 0.6)
    refusals = [
        (d3s.build_block, (m, -1, "A")),
        (d3s.build_block, (m, 2, "X")),
        (d3s.build_from_representation, (m, -1)),
        (d3s.level_bounds, (m, [-2])),
        # levels that are not integers: once truncated to 2, 3 and 0
        (d3s.level_bounds, (m, [2.5])),
        (d3s.level_bounds, (m, ["3"])),
        (d3s.level_bounds, (m, [-0.5])),
        (d3s.min_row_bound, (m, -1)),
        (d3s.level_lines, (m, -1)),
        (d3s.gershgorin_table, (m, -1)),
        (d3s.closed_form_G, (m, 3, 5)),
        (d3s.triangle_increment, (m, 3, 4)),
        # a level or index that is not an integer
        (d3s.level_lines, (m, 1.5)),
        (d3s.min_row_bound, (m, 2.5)),
        (d3s.gershgorin_table, (m, 2.5)),
        (d3s.build_block, (m, 1.5, "A")),
        (d3s.build_from_representation, (m, 1.5)),
        (d3s.admissible_levels, (d3s.S3, 2.5)),
        (d3s.enumerated_min_abs, (m, d3s.S3, 2.5)),
        (d3s.closed_form_G, (m, 2.5, 0)),
        (d3s.closed_form_G, (m, 3, 0.5)),
        (d3s.triangle_increment, (m, 2.5, 1)),
        (d3s.triangle_increment, (m, 3, 1.5)),
        # a bool is not a level, as it is not a metric entry
        (d3s.build_block, (m, True, "A")),
        (d3s.assemble, (m, d3s.S3, True)),
        (d3s.closed_form_G, (m, True, False)),
        (d3s.closed_form_G, (m, 1, False)),
        (d3s.level_bounds, (m, [True])),
        (d3s.min_row_bound, (m, np.True_)),
        (d3s.closed_form_eigs, (m, True)),
        (d3s.closed_form_eigs, (m, 3.0)),
        (d3s.char_poly_small_n, (m, 2.0)),
        (d3s.volume, (m, "t3")),
        (d3s.reconstruct, (d3s.S3, 19.7, 6.0)),
        (d3s.reconstruct, (d3s.S3, 19.7, 6.0, 1.5, 1.5)),
    ]
    for func, args in refusals:
        with pytest.raises(d3s.DomainError):
            func(*args)


INTEGER_LEVEL_CALLS = [
    (d3s.level_lines, (4,)),
    (d3s.min_row_bound, (4,)),
    (d3s.gershgorin_table, (4,)),
    (d3s.build_block, (4, "B")),
    (d3s.build_from_representation, (3,)),
    (d3s.admissible_levels, (5,)),
    (d3s.enumerated_min_abs, (d3s.S3, 5)),
    (d3s.closed_form_G, (5, 2)),
    (d3s.triangle_increment, (5, 2)),
    (d3s.closed_form_eigs, (3,)),
    (d3s.char_poly_small_n, (4,)),
]


@pytest.mark.parametrize("func, args", INTEGER_LEVEL_CALLS, ids=[f.__name__ for f, _ in INTEGER_LEVEL_CALLS])
def test_levels_of_any_integer_type_answer_as_int(func, args):
    # the level check takes whatever operator.index takes, numpy integers
    # included, and answers exactly as for the Python int
    first = d3s.S3 if func is d3s.admissible_levels else Metric(1.3, 0.8, 0.6)
    as_numpy = tuple(np.int64(x) if type(x) is int else x for x in args)
    assert repr(func(first, *as_numpy)) == repr(func(first, *args))


#: runs each argument through ``cli.main`` in one fresh interpreter, then
#: prints the exit codes and whether numpy was imported
_CLI_PROBE = """
import contextlib, io, json, sys
import dirac3sphere.cli as cli
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv.split()))
print(json.dumps([codes, "numpy" in sys.modules]))
"""

#: every command decided in exact arithmetic: invariants, the certified
#: smallest on each manifold, a --certify on refusal, verify and the three
#: reconstruct routes
EXACT_COMMANDS = [
    ("invariants --metric 1.3,0.8,0.6", 0),
    *((f"smallest --metric 1.3,0.8,0.6 --manifold {manifold}", 0) for manifold in ("s3", "so3-trivial", "so3-nontrivial")),
    ("smallest --metric 1.3,0.8,0.3 --manifold s3 --certify on", 1),
    ("verify --grid 0.5:2:3,0.5:2:3,0.5:2:3 --details", 0),
    ("reconstruct --manifold s3 --volume 9.869604401089358 --scal 7.5 --mu 1.75", 0),
    ("reconstruct --manifold so3-trivial --volume 4.934802200544679 --scal 7.5 --c 2.25", 0),
    ("reconstruct --manifold s3 --volume 21.932454224643017 --scal -1.6128e2 --a2tilde 3587278.2336000004", 0),
]

FLOAT_COMMANDS = [
    "spectrum --metric 1.3,0.8,0.6 --manifold s3 --max-level 4",
    "heat-trace --metric 1.3,0.8,0.6 --manifold s3 --t 1 --max-level 4",
    "smallest --metric 1.3,0.8,0.3 --manifold s3 --max-level 4",
]


def _fresh(code, *args):
    # ``code`` in a fresh interpreter on this checkout's sources: its stdout
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    return proc.stdout


def test_exact_commands_load_no_numpy():
    # the package and every command decided in exact arithmetic need only
    # the standard library; numpy is the first float command's import
    assert _fresh("import sys, dirac3sphere; print('numpy' in sys.modules)") == "False\n"
    codes, numpy_loaded = json.loads(_fresh(_CLI_PROBE, *(argv for argv, _ in EXACT_COMMANDS)))
    assert codes == [code for _, code in EXACT_COMMANDS]
    assert not numpy_loaded
    for argv in FLOAT_COMMANDS:
        assert json.loads(_fresh(_CLI_PROBE, argv)) == [[0], True], argv


def test_float_names_resolve_on_first_access():
    # the float layers' names, and their modules, are bound on the package
    # when first read, as the same objects their modules define
    code = ("import sys, dirac3sphere as d3s; print('numpy' in sys.modules, 'assemble' in vars(d3s)); "
            "print(d3s.spectrum.assemble is d3s.assemble, 'assemble' in vars(d3s), 'assemble' in dir(d3s))")
    assert _fresh(code) == "False False\nTrue True True\n"
    with pytest.raises(AttributeError):
        d3s.no_such_name
