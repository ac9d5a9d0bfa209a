"""Spectral-edge expansion coefficients for weakly disordered lattice operators.

The public names below are resolved on first use (PEP 562): ``import bandedge``
loads no submodule, and a name loads its defining module when it is first read.
"""

from importlib import import_module

_EXPORTS = {
    "model": (
        "ConvergenceError", "DisorderSupport", "HoppingOperator", "LatticeGeometry",
        "SingleCellPotential", "load_model", "preset_model", "save_model", "shift_to_zero",
        "validate_hypotheses",
    ),
    "floquet": (
        "FloquetMatrix", "GroundSpaceData", "ThetaSet", "build_floquet", "fiber_eigh",
        "ground_space", "scan_theta_set",
    ),
    "perturbation": (
        "EdgeCoefficients", "PerturbationMatrix", "coeff_A1", "coeff_A2", "coeff_A2_variational",
        "edge_bound", "edge_coefficients", "nondegeneracy_check", "perron_frobenius_check",
        "perturbation_matrix",
    ),
    "verification": (
        "BoxSpectrumSample", "ExponentFit", "FiberMinResult", "box_min_eig",
        "fiber_bound_sandwich", "fiber_min_over_q", "fit_exponent", "kirsch_simon_sandwich",
        "quartic_trial_energy", "quasiperiodic_rayleigh", "torus_dual_minimum",
    ),
    "pipeline": ("RunConfig", "run_pipeline"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the defining module of an exported name, or a submodule that
    ``import bandedge`` used to load, and keep the result as a global."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
