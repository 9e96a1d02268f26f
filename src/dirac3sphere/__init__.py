"""Dirac spectra of homogeneous metrics on the 3-sphere and on SO(3).

The library computes the tridiagonal level blocks of the Dirac operator for
any left-invariant metric given by a positive triple (a, b, c), solves them
with LAPACK and proves every eigenvalue by Sturm counts (bisecting any
block that fails the proof), bounds their squares through
Gershgorin row estimates, certifies the fundamental tone in the positive
scalar curvature regime, and inverts (volume, scal, discriminator) data back
to the metric.

The exact layers (``metric``, ``inverse`` and the certificate in
``gershgorin``, ``smallest`` included) need only the standard library, and
importing the package loads nothing else.  The float layers (``blocks``,
``eigen`` and ``spectrum``) import numpy; their names here are resolved on
first access, so numpy loads with the first of them that is used.
"""

import importlib

from .errors import (
    CertificationError,
    ConsistencyError,
    Dirac3SphereError,
    DomainError,
    InconsistentInputError,
    TruncationWarning,
    UncertifiableError,
    UnsupportedLevelError,
    WrongRegimeError,
)
from .gershgorin import (
    CertificationTrace,
    GershgorinTable,
    SmallestEigenvalueReport,
    base_cases,
    certify_fundamental_tone,
    closed_form_G,
    gershgorin_table,
    level_bounds,
    min_row_bound,
    smallest,
    triangle_increment,
)
from .inverse import (
    ReconstructionResult,
    cubic_positive_roots,
    reconstruct,
    reconstruct_nonpositive,
    reconstruct_positive_C,
    reconstruct_positive_mu,
)
from .metric import (
    DIM_SPINOR,
    NEGATIVE,
    POSITIVE,
    S3,
    SO3,
    SO3_NONTRIVIAL,
    SO3_TRIVIAL,
    ZERO,
    HeatInvariants,
    Metric,
    MetricInvariants,
    heat_invariants,
    invariants,
    scal_sign_classification,
    sectional_curvatures,
    volume,
)

#: the float layers' public names, by module: imported on first access
_LAZY = {
    "blocks": (
        "DiracBlock",
        "RepresentationOperator",
        "build_block",
        "build_from_representation",
        "char_poly_small_n",
        "closed_form_eigs",
    ),
    "eigen": (
        "SymmetrizedTridiagonal",
        "count_below",
        "eigenvalues",
        "min_abs_eigenvalue",
        "symmetrize",
    ),
    "spectrum": (
        "HeatTraceResult",
        "SpectralLine",
        "Spectrum",
        "admissible_levels",
        "assemble",
        "counting_function",
        "enumerated_min_abs",
        "heat_trace",
        "level_lines",
        "weyl_count_estimate",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    """A float layer's public name, or the module itself, imported on first
    access and then bound here like an eager import (PEP 562)."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
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
