"""Expansion coefficients of the spectral bottom under weak disorder.

First order comes from diagonalizing the ground-space restriction of the
single-cell potential; second order from the potential coupling the ground
space to its orthogonal complement through the inverse of the fiber there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floquet import GroundSpaceData, _fix_phases, ground_space
from .model import (
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    SingleCellPotential,
    _require_epsilon,
    is_alloy,
)

CASE_LINEAR = "Linear"
CASE_QUADRATIC = "Quadratic"
CASE_NO_MOTION = "NoMotion"


def case_tolerance(potential: SingleCellPotential, disorder: DisorderSupport) -> float:
    return 1e-10 * (1.0 + potential.norm * disorder.coupling_scale)


@dataclass(frozen=True)
class PerturbationMatrix:
    """Ground-space restriction of the potential, diagonalized."""

    A: np.ndarray  # p x p Hermitian, in the incoming ground basis
    P: np.ndarray  # ascending eigenvalues P_1 <= ... <= P_p
    diagonalizing_basis: np.ndarray  # cell_size x p, <V psi_i, psi_j> = P_i delta_ij


@dataclass(frozen=True)
class EdgeCoefficients:
    """The coefficients at one minimizer, the report's per-theta row. A
    sign-changing support sets A1 and A2, a nonnegative one A1' and A2'."""

    theta: np.ndarray
    p: int
    gap: float | None
    P: np.ndarray
    A1: float | None
    A2: float | None
    A1_prime: float | None
    A2_prime: float | None
    case: str
    nondegenerate: bool
    V01_dim: int | None = None

    def first_order(self) -> float:
        return self.A1_prime if self.A1 is None else self.A1

    def second_order(self) -> float:
        return self.A2_prime if self.A2 is None else self.A2


def perturbation_matrix(
    ground: GroundSpaceData, potential: SingleCellPotential
) -> PerturbationMatrix:
    A = ground.basis.conj().T @ potential.matrix @ ground.basis
    A = 0.5 * (A + A.conj().T)
    P, rotation = np.linalg.eigh(A)
    basis = _fix_phases(ground.basis @ rotation)
    return PerturbationMatrix(A=A, P=P, diagonalizing_basis=basis)


def coeff_A1(pert: PerturbationMatrix, disorder: DisorderSupport) -> float:
    """First-order coefficient min(s_plus * P_1, s_minus * P_p), always <= 0."""
    if disorder.regime != DisorderSupport.SIGN_CHANGING:
        raise ValueError("first-order sign-changing coefficient needs the sign-changing regime")
    return float(min(disorder.s_plus * pert.P[0], disorder.s_minus * pert.P[-1]))


GAP_TOL = 1e-12  # smallest spectral gap the second-order pseudoinverse accepts
TOL_V01 = 1e-10  # eigenvalues of the perturbation matrix within this of P_1 span V01


def _v01(pert: PerturbationMatrix) -> np.ndarray:
    """Mask of the diagonalizing columns spanning V01, the P_1 eigenspace."""
    return pert.P <= pert.P[0] + TOL_V01


def _second_order(
    ground: GroundSpaceData, pert: PerturbationMatrix, disorder: DisorderSupport
) -> tuple[float, np.ndarray]:
    """(c^2, B) for both A2 estimates, once the spectral gap is checked.

    c^2 is the squared extremal coupling and B spans the ground subspace the
    second order acts on: the whole ground space for sign-changing couplings,
    V01 for nonnegative ones.
    """
    if ground.gap is None or ground.gap <= GAP_TOL:
        raise ConvergenceError(
            f"spectral gap {ground.gap} too small for the second-order pseudoinverse"
        )
    if disorder.regime == DisorderSupport.SIGN_CHANGING:
        return max(disorder.s_minus**2, disorder.s_plus**2), pert.diagonalizing_basis
    return disorder.s_plus**2, pert.diagonalizing_basis[:, _v01(pert)]


def coeff_A2(
    ground: GroundSpaceData,
    pert: PerturbationMatrix,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
) -> float:
    """Second-order coefficient via the closed-form pseudoinverse eigenproblem.

    Returns -c^2 * lambda_max(B* V Q (H|_perp)^+ Q V B) with B spanning the
    ground subspace of the regime and c^2 the squared extremal coupling.
    """
    c2, B = _second_order(ground, pert, disorder)
    vectors = ground.eigenvectors
    eigenvalues = ground.eigenvalues
    p = ground.p
    inv = np.zeros_like(eigenvalues)
    inv[p:] = 1.0 / (eigenvalues[p:] - eigenvalues[0])
    pinv = (vectors * inv) @ vectors.conj().T
    operator = potential.matrix @ pinv @ potential.matrix
    restricted = B.conj().T @ operator @ B
    restricted = 0.5 * (restricted + restricted.conj().T)
    top = float(np.linalg.eigvalsh(restricted)[-1])
    return -c2 * max(top, 0.0)


def coeff_A2_variational(
    ground: GroundSpaceData,
    pert: PerturbationMatrix,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
) -> float:
    """Independent value of the second-order coefficient, by one linear solve.

    For unit psi in span B the sup over phi orthogonal to the ground space of
    |<psi, V phi>|^2 / <(H - E0) phi, phi> is <Q V psi, phi>, where phi solves
    (M - E0 + G G*) phi = Q V psi, G is the ground basis and Q = 1 - G G*
    (Cauchy-Schwarz in the H - E0 form). One LU solve against Q V B gives the
    Hermitian form S = (Q V B)* phi on span B, and the value is -c^2 ||S||_2.
    No eigenvector of the complement enters, so this check does not share the
    pseudoinverse of ``coeff_A2``: a pseudoinverse missing or misweighting
    part of the complement makes the two disagree.
    """
    c2, B = _second_order(ground, pert, disorder)
    G = ground.basis
    coupled = potential.matrix @ B
    coupled = coupled - G @ (G.conj().T @ coupled)
    shifted = ground.fiber.matrix - ground.e0 * np.eye(len(G)) + G @ G.conj().T
    form = coupled.conj().T @ np.linalg.solve(shifted, coupled)
    return -c2 * float(np.linalg.norm(form, 2))


def nondegeneracy_check(ground: GroundSpaceData, potential: SingleCellPotential) -> bool:
    """True iff the potential acts nontrivially on the ground space."""
    return bool(np.linalg.norm(potential.matrix @ ground.basis) > 1e-12 * (1.0 + potential.norm))


def edge_coefficients(
    ground: GroundSpaceData,
    potential: SingleCellPotential,
    disorder: DisorderSupport,
) -> EdgeCoefficients:
    """Assemble the coefficient record and classify the leading behavior."""
    pert = perturbation_matrix(ground, potential)
    tol_case = case_tolerance(potential, disorder)
    A2 = 0.0 if ground.gap is None else coeff_A2(ground, pert, potential, disorder)
    if disorder.regime == DisorderSupport.SIGN_CHANGING:
        A1 = coeff_A1(pert, disorder)
        linear = abs(A1) > tol_case
        orders = dict(A1=A1, A2=A2, A1_prime=None, A2_prime=None)
    else:
        P1 = float(pert.P[0])
        linear = abs(P1) > tol_case
        orders = dict(
            A1=None,
            A2=None,
            A1_prime=min(disorder.s_plus * P1, disorder.s_minus * P1),
            A2_prime=A2,
            V01_dim=int(np.count_nonzero(_v01(pert))),
        )
    if linear:
        case = CASE_LINEAR
    elif abs(A2) > tol_case:
        case = CASE_QUADRATIC
    else:
        case = CASE_NO_MOTION
    return EdgeCoefficients(
        theta=ground.theta,
        p=ground.p,
        gap=ground.gap,
        P=pert.P,
        case=case,
        nondegenerate=nondegeneracy_check(ground, potential),
        **orders,
    )


def edge_bound(coeffs: EdgeCoefficients, epsilon: float) -> float:
    """Leading-order shift of the spectral bottom at coupling strength epsilon.

    The bound is one-sided: the constant coupling at the extremal endpoint
    gives inf Sigma_as <= E0 + epsilon * A1 (or epsilon^2 * A2) + higher
    order, and 0 for NoMotion. Non-constant coupling patterns can move the
    edge further: on the dipole chain alternating +-1 couplings reach about
    twice epsilon^2 * A2.
    """
    _require_epsilon(epsilon)
    if coeffs.case == CASE_LINEAR:
        return epsilon * coeffs.first_order()
    if coeffs.case == CASE_QUADRATIC:
        return epsilon**2 * coeffs.second_order()
    return 0.0


@dataclass(frozen=True)
class PFReport:
    applicable: bool
    simple: bool | None = None
    strictly_positive: bool | None = None
    min_entry: float | None = None
    ground: GroundSpaceData | None = None  # the theta = 0 ground space judged

    @property
    def passed(self) -> bool:
        return bool(self.applicable and self.simple and self.strictly_positive)


def perron_frobenius_check(hopping: HoppingOperator) -> PFReport:
    """At theta = 0 the lowest fiber state of -Delta + W is simple, every entry above 1e-12."""
    if not is_alloy(hopping):
        return PFReport(applicable=False)
    ground = ground_space(hopping, np.zeros(hopping.geometry.d))
    eigenvalues = ground.eigenvalues
    scale = max(float(np.abs(eigenvalues).max()), 1.0)
    simple = bool(len(eigenvalues) == 1 or eigenvalues[1] - eigenvalues[0] > 1e-10 * scale)
    psi = ground.basis[:, 0]
    if np.abs(psi.imag).max() > 1e-10:
        positive = False
        min_entry = float("nan")
    else:
        min_entry = float(psi.real.min())
        positive = min_entry > 1e-12
    return PFReport(
        applicable=True,
        simple=simple,
        strictly_positive=positive,
        min_entry=min_entry,
        ground=ground,
    )
