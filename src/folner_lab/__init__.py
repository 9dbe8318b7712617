"""Finite-section toolkit for Folner-sequence diagnostics, Szego-type
spectral approximation, and compression trace estimates.

The package exports its names lazily (PEP 562): `folner_lab.X` imports the
one submodule that defines X, on first use, so a command line run compiles
only the modules its subcommand calls.
"""
from importlib import import_module as _import_module

from ._util import VERSION as __version__

# every submodule, with the names the package exports from it
_EXPORTS = {
    "_util": ("ResidualError",),
    "cli": (),
    "diagnostics": ("FolnerReport", "folner_profile", "folner_ratio", "qd_gap",
                    "schatten_norm"),
    "operators": ("AlmostMathieu", "Band", "Dense", "LatticeMismatchError", "N0",
                  "NyquistError", "OperatorSpec", "Poly", "Shift", "Toeplitz", "Wave", "Z",
                  "identity", "op_prod", "op_scale", "op_sum", "toeplitz_from_samples"),
    "projections": ("IndexSet", "ProjectionSequence", "RankZeroError", "Window",
                    "finite_section", "finite_section_sequence"),
    "specio": (),
    "spectral": ("EmpiricalMeasure", "NonHermitianError", "ReferenceMeasure", "TestFunction",
                 "compression_eigenvalues", "compression_moments", "empirical_measure", "hat",
                 "integrate", "kolmogorov_distance", "monomial", "reference_pushforward"),
    "szego": ("MissingReferenceError", "NotSelfAdjointError", "SzegoReport",
              "default_f_family", "hat_family", "moments_reference", "szego_pair_test"),
    "tensor": ("TensorBoundRecord", "tensor_bound_check"),
    "traces": ("NCPolynomial", "TraceReport", "almost_mathieu_element", "canonical_trace",
               "nc_adjoint", "nc_monomial", "nc_multiply", "nc_one", "nc_u", "nc_v",
               "represent_nc", "trace_convergence_report", "trace_estimate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
