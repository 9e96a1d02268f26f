"""The package's outward contract: the names other code binds resolve, and
the object layer refuses bad arguments with the package's own error type."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
    boundaries = _boundaries()
    assert boundaries
    for module, func, _ in boundaries:
        assert callable(getattr(importlib.import_module(f"dirac3sphere.{module}"), func, None)), (module, func)
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
]


@pytest.mark.parametrize("func, args", INTEGER_LEVEL_CALLS, ids=[f.__name__ for f, _ in INTEGER_LEVEL_CALLS])
def test_levels_of_any_integer_type_answer_as_int(func, args):
    # the level check takes whatever operator.index takes, numpy integers
    # included, and answers exactly as for the Python int
    first = d3s.S3 if func is d3s.admissible_levels else Metric(1.3, 0.8, 0.6)
    as_numpy = tuple(np.int64(x) if type(x) is int else x for x in args)
    assert repr(func(first, *as_numpy)) == repr(func(first, *args))
