import dataclasses

import numpy as np
import pytest

from bandedge.floquet import ground_space
from bandedge.model import (
    DisorderSupport,
    SingleCellPotential,
    preset_model,
)
from bandedge.perturbation import (
    CASE_LINEAR,
    CASE_NO_MOTION,
    CASE_QUADRATIC,
    coeff_A1,
    coeff_A2,
    coeff_A2_variational,
    edge_bound,
    edge_coefficients,
    nondegeneracy_check,
    perron_frobenius_check,
    perturbation_matrix,
)

from conftest import no_motion_model, random_potential


def _ground(name, theta=None):
    hopping, potential, disorder = preset_model(name)
    d = hopping.geometry.d
    return ground_space(hopping, theta if theta is not None else [0.0] * d), potential, disorder


def test_perturbation_matrix_anderson():
    ground, potential, _ = _ground("anderson")
    pert = perturbation_matrix(ground, potential)
    assert np.allclose(pert.A, [[1.0]])
    assert np.allclose(pert.P, [1.0])


def test_perturbation_matrix_dipole_zero():
    ground, potential, _ = _ground("dipole")
    pert = perturbation_matrix(ground, potential)
    assert abs(pert.A[0, 0]) < 1e-12
    assert abs(pert.P[0]) < 1e-12


def test_perturbation_matrix_quartic_zero():
    ground, potential, _ = _ground("quartic")
    pert = perturbation_matrix(ground, potential)
    # (1/3)(1 - 1/2 - 1/2) = 0
    assert abs(pert.P[0]) < 1e-12


def test_perturbation_matrix_orthogonality():
    ground, potential, _ = _ground("quartic")
    pert = perturbation_matrix(ground, potential)
    basis = pert.diagonalizing_basis
    inner = basis.conj().T @ potential.matrix @ basis
    assert np.abs(inner - np.diag(pert.P)).max() < 1e-10


def test_coeff_A1_values():
    ground, potential, disorder = _ground("anderson")
    pert = perturbation_matrix(ground, potential)
    assert coeff_A1(pert, disorder) == pytest.approx(-1.0, abs=1e-12)


def test_coeff_A1_arithmetic():
    # definition applied to P = (-2, 3) with support (-1, 2)
    class FakePert:
        P = np.array([-2.0, 3.0])

    disorder = DisorderSupport(-1.0, 2.0)
    assert coeff_A1(FakePert, disorder) == -4.0


def test_coeff_A1_wrong_regime():
    ground, potential, _ = _ground("anderson")
    pert = perturbation_matrix(ground, potential)
    disorder = DisorderSupport(0.0, 1.0)
    with pytest.raises(ValueError):
        coeff_A1(pert, disorder)


def test_coeff_A2_dipole_quarter():
    ground, potential, disorder = _ground("dipole")
    pert = perturbation_matrix(ground, potential)
    assert coeff_A2(ground, pert, potential, disorder) == pytest.approx(-0.25, abs=1e-12)


def test_coeff_A2_quartic():
    ground, potential, disorder = _ground("quartic")
    pert = perturbation_matrix(ground, potential)
    assert coeff_A2(ground, pert, potential, disorder) == pytest.approx(-1.0 / 18.0, abs=1e-12)


def test_coeff_A2_zero_potential():
    ground, _, disorder = _ground("dipole")
    zero = SingleCellPotential(np.zeros((2, 2)))
    pert = perturbation_matrix(ground, zero)
    assert coeff_A2(ground, pert, zero, disorder) == 0.0


def test_coeff_A2_variational_agrees():
    ground, potential, disorder = _ground("dipole")
    pert = perturbation_matrix(ground, potential)
    closed = coeff_A2(ground, pert, potential, disorder)
    variational = coeff_A2_variational(ground, pert, potential, disorder)
    assert abs(closed - variational) < 1e-10


def test_coeff_A2_variational_quartic_negative():
    ground, potential, disorder = _ground("quartic")
    pert = perturbation_matrix(ground, potential)
    value = coeff_A2_variational(ground, pert, potential, disorder)
    assert value == pytest.approx(-1.0 / 18.0, abs=1e-8)
    assert value < 0


def test_positive_regime_dipole():
    ground, potential, _ = _ground("dipole")
    disorder = DisorderSupport(0.0, 1.0)
    coeffs = edge_coefficients(ground, potential, disorder)
    assert coeffs.A1_prime == pytest.approx(0.0, abs=1e-12)
    assert coeffs.A2_prime == pytest.approx(-0.25, abs=1e-12)
    assert coeffs.V01_dim == 1


def _v01_case():
    """(ground, potential, nonnegative support) on the dipole d=2 at theta =
    (pi/2, 0): fiber spectrum (2, 2, 6, 6), so a generic potential splits the
    ground space and V01 is one of its two lines."""
    hopping, _, _ = preset_model("dipole", d=2)
    ground = ground_space(hopping, [np.pi / 2, 0.0])
    return ground, random_potential(np.random.default_rng(5), 4), DisorderSupport(0.0, 1.0)


def test_positive_regime_second_order_over_v01():
    ground, potential, positive = _v01_case()
    pert = perturbation_matrix(ground, potential)
    coeffs = edge_coefficients(ground, potential, positive)
    assert ground.p == 2 and coeffs.V01_dim == 1
    variational = coeff_A2_variational(ground, pert, potential, positive)
    assert abs(coeffs.A2_prime - variational) <= 1e-8 * (1.0 + abs(coeffs.A2_prime))
    # the same c^2 = 1 over the whole ground space reaches further
    sign_changing = DisorderSupport(-1.0, 1.0)
    assert edge_coefficients(ground, potential, sign_changing).A2 < coeffs.A2_prime - 0.1


@pytest.mark.parametrize(
    "case", [lambda: _ground("dipole"), _v01_case], ids=["dipole-d1", "dipole-d2-v01"]
)
def test_coeff_A2_variational_reads_no_complement_eigenvector(case):
    # a check that reads the columns coeff_A2 builds its pseudoinverse from
    # cannot see a pseudoinverse that leaves out part of the complement
    ground, potential, disorder = case()
    pert = perturbation_matrix(ground, potential)
    value = coeff_A2_variational(ground, pert, potential, disorder)
    blind = dataclasses.replace(ground, eigenvectors=np.full_like(ground.eigenvectors, np.nan))
    assert coeff_A2_variational(blind, pert, potential, disorder) == value
    assert value == pytest.approx(coeff_A2(ground, pert, potential, disorder), rel=1e-12)


def test_positive_regime_arithmetic():
    # A1' = min(s_plus * P1, s_minus * P1) with support (1, 3) and P1 = +-1
    ground, _, _ = _ground("anderson")
    disorder = DisorderSupport(1.0, 3.0)
    for sign, expected in ((1.0, 1.0), (-1.0, -3.0)):
        potential = SingleCellPotential(np.array([[sign]]))
        assert edge_coefficients(ground, potential, disorder).A1_prime == expected


def test_nondegeneracy_dipole_true():
    ground, potential, _ = _ground("dipole")
    assert nondegeneracy_check(ground, potential)


def test_nondegeneracy_zero_potential_false():
    ground, _, _ = _ground("dipole")
    assert not nondegeneracy_check(ground, SingleCellPotential(np.zeros((2, 2))))


def test_nondegeneracy_disjoint_support_false():
    hopping, potential, disorder = no_motion_model()
    ground = ground_space(hopping, [0.0])
    assert not nondegeneracy_check(ground, potential)


def test_edge_coefficients_trichotomy():
    for name, expected in (("anderson", CASE_LINEAR), ("dipole", CASE_QUADRATIC)):
        ground, potential, disorder = _ground(name)
        coeffs = edge_coefficients(ground, potential, disorder)
        assert coeffs.case == expected, name
    hopping, potential, disorder = no_motion_model()
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    assert coeffs.case == CASE_NO_MOTION
    assert coeffs.A1 == 0.0 and coeffs.A2 == 0.0


def test_edge_bound_values():
    ground, potential, disorder = _ground("anderson")
    coeffs = edge_coefficients(ground, potential, disorder)
    assert edge_bound(coeffs, 0.01) == pytest.approx(-0.01, abs=1e-14)
    ground, potential, disorder = _ground("dipole")
    coeffs = edge_coefficients(ground, potential, disorder)
    assert edge_bound(coeffs, 0.01) == pytest.approx(-2.5e-5, rel=1e-10)
    hopping, potential, disorder = no_motion_model()
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    assert edge_bound(coeffs, 0.05) == 0.0


def test_positive_linear_with_zero_s_minus():
    ground, potential, _ = _ground("anderson")
    disorder = DisorderSupport(0.0, 1.0)
    coeffs = edge_coefficients(ground, potential, disorder)
    assert coeffs.case == CASE_LINEAR
    assert coeffs.A1_prime == 0.0
    assert edge_bound(coeffs, 0.01) == 0.0


def test_perron_frobenius_anderson():
    hopping, _, _ = preset_model("anderson")
    report = perron_frobenius_check(hopping)
    assert report.applicable and report.passed
    assert report.min_entry == pytest.approx(1.0)


def test_perron_frobenius_alloy():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    report = perron_frobenius_check(hopping)
    assert report.applicable and report.simple and report.strictly_positive


def test_perron_frobenius_inapplicable_quartic():
    hopping, _, _ = preset_model("quartic")
    report = perron_frobenius_check(hopping)
    assert not report.applicable
