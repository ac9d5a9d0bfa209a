"""Spectral-edge expansion coefficients for weakly disordered lattice operators."""

from .model import (
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
    load_model,
    preset_model,
    save_model,
    shift_to_zero,
    validate_hypotheses,
)
from .floquet import (
    FloquetMatrix,
    GroundSpaceData,
    ThetaSet,
    build_floquet,
    fiber_eigh,
    ground_space,
    scan_theta_set,
)
from .perturbation import (
    EdgeCoefficients,
    PerturbationMatrix,
    coeff_A1,
    coeff_A2,
    coeff_A2_variational,
    edge_bound,
    edge_coefficients,
    nondegeneracy_check,
    perron_frobenius_check,
    perturbation_matrix,
)
from .verification import (
    BoxSpectrumSample,
    ExponentFit,
    FiberMinResult,
    box_min_eig,
    fiber_bound_sandwich,
    fiber_min_over_q,
    fit_exponent,
    kirsch_simon_sandwich,
    quartic_trial_energy,
    quasiperiodic_rayleigh,
    torus_dual_minimum,
)
from .pipeline import RunConfig, run_pipeline

__version__ = "0.1.0"
