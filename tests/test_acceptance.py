"""Acceptance checks, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s or in
failure output) and asserts that every clause of the criterion holds.
Criterion 3 contains clauses that are unattainable for the documented trial
state (its quotient is positive at every window size); that test fails red by
design and the reason is recorded in the README ("Tests").
"""

import itertools
import time

import numpy as np
import pytest

from bandedge.floquet import build_floquet, ground_space, scan_theta_set
from bandedge.model import DisorderSupport, preset_model
from bandedge.perturbation import (
    CASE_QUADRATIC,
    case_tolerance,
    coeff_A1,
    coeff_A2,
    coeff_A2_variational,
    edge_bound,
    edge_coefficients,
    nondegeneracy_check,
    perron_frobenius_check,
    perturbation_matrix,
)
from bandedge.pipeline import montecarlo_minima
from bandedge.verification import (
    box_min_eig,
    fiber_min_over_q,
    fiber_quotient,
    fit_exponent,
    quartic_trial_energy,
    quasiperiodic_rayleigh,
    torus_dual_minimum,
)

from conftest import no_motion_model, random_hopping, random_potential, sign_changing


def _report(number: int, clauses: dict[str, bool]) -> None:
    failed = [name for name, ok in clauses.items() if not ok]
    verdict = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"criterion {number}: {verdict}")
    assert not failed, f"criterion {number} failed clauses: {failed}"


def test_criterion_1_anderson_linear_expansion():
    start = time.monotonic()
    clauses = {}
    hopping, potential, disorder = preset_model("anderson")
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    clauses["A1 = -1 within 1e-12"] = abs(coeffs.A1 + 1.0) <= 1e-12

    exact = True
    for epsilon in (1e-1, 1e-2, 1e-3, 1e-4):
        result = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon)
        exact = exact and result.value == -epsilon
    clauses["fiber_min_over_q = -eps exactly"] = exact

    eps_list = [1e-5, 3e-5, 1e-4]
    runs = montecarlo_minima(hopping, potential, disorder, eps_list, 256, 200, 12345)
    minima = [min(s.lambda_min for s in samples) for samples in runs]
    fit = fit_exponent(eps_list, minima)
    clauses["MC exponent 1.00 +- 0.05"] = abs(fit.eta - 1.0) <= 0.05

    clauses["runtime < 60 s"] = (time.monotonic() - start) < 60.0
    _report(1, clauses)


def test_criterion_2_dipole_quadratic_expansion():
    clauses = {}
    hopping, potential, disorder = preset_model("dipole")
    ground = ground_space(hopping, [0.0])
    pert = perturbation_matrix(ground, potential)
    tol_case = case_tolerance(potential, disorder)
    clauses["A1 = 0 within tol_case"] = abs(coeff_A1(pert, disorder)) <= tol_case

    closed = coeff_A2(ground, pert, potential, disorder)
    variational = coeff_A2_variational(ground, pert, potential, disorder)
    clauses["A2 = -1/4"] = abs(closed + 0.25) <= 1e-10
    clauses["closed/variational agree to 1e-8"] = abs(closed - variational) <= 1e-8

    eps_list = [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    values = []
    residuals = []
    for epsilon in eps_list:
        value = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon).value
        values.append(value)
        residuals.append(-abs(value - epsilon**2 * closed))
    # the dipole fiber at theta = 0 is [[2 + eps q, -2], [-2, 2 - eps q]]; its
    # lowest eigenvalue over |q| <= 1 is 2 - sqrt(4 + eps^2)
    # = -eps^2/4 + eps^4/64 - O(eps^6), so the residual against eps^2 A2 is
    # eps^4/64 and its log-log slope is 4 (within the generic O(eps^3) bound)
    clauses["sweep = 2 - sqrt(4 + eps^2) to 1e-12"] = all(
        abs(v - (2.0 - np.sqrt(4.0 + e**2))) <= 1e-12 for v, e in zip(values, eps_list)
    )
    fit = fit_exponent(eps_list, residuals)
    clauses["residual slope 4.0 +- 0.3"] = abs(fit.eta - 4.0) <= 0.3
    _report(2, clauses)


def _quartic_fiber_oracle(theta: float) -> np.ndarray:
    a = -4.0 + np.exp(3j * theta)
    b = 1.0 - 4.0 * np.exp(3j * theta)
    return np.array(
        [
            [6.0, a, b],
            [np.conj(a), 6.0, a],
            [np.conj(b), np.conj(a), 6.0],
        ]
    )


def test_criterion_3_quartic_example():
    start = time.monotonic()
    clauses = {}
    hopping, _, _ = preset_model("quartic")

    rng = np.random.default_rng(99)
    max_err = 0.0
    for theta in rng.uniform(0.0, 2.0 * np.pi / 3.0, size=100):
        matrix = build_floquet(hopping, [theta]).matrix
        max_err = max(max_err, float(np.abs(matrix - _quartic_fiber_oracle(theta)).max()))
    clauses["fiber matches 3x3 oracle to 1e-14"] = max_err <= 1e-14

    max_band_err = 0.0
    for theta in np.linspace(0.0, 2.0 * np.pi / 3.0, 200, endpoint=False):
        lam = float(np.linalg.eigvalsh(build_floquet(hopping, [theta]).matrix)[0])
        band = min((2.0 - 2.0 * np.cos(theta + 2.0 * np.pi * k / 3.0)) ** 2 for k in range(3))
        max_band_err = max(max_band_err, abs(lam - band))
    clauses["lambda_min = (2-2cos)^2 to 1e-10"] = max_band_err <= 1e-10

    xi = 0.3
    eps_list = [1e-2, 3e-3, 1e-3]
    values = [quartic_trial_energy(epsilon, xi) for epsilon in eps_list]
    targets = [-(1.0 / 6.0) * epsilon ** (1.0 + 2.0 * xi) for epsilon in eps_list]
    # the trial quotient is positive (the potential terms cancel exactly and
    # the kinetic cost dominates), so these two clauses cannot hold; kept as
    # specified
    clauses["trial energy <= -(1/6) eps^(1+2xi)"] = all(
        v <= t for v, t in zip(values, targets)
    )
    eta_ok = False
    try:
        fit = fit_exponent(eps_list, values)
        eta_ok = abs(fit.eta - 1.6) <= 0.1
    except ValueError:
        eta_ok = False
    clauses["fitted eta = 1.6 +- 0.1"] = eta_ok

    clauses["runtime < 5 min"] = (time.monotonic() - start) < 300.0
    _report(3, clauses)


def test_criterion_4_quasiperiodic_convergence():
    clauses = {}
    ns = [8, 16, 32, 64, 128, 256, 512]
    cases = {
        "anderson": ([0.7], None),
        "dipole": ([0.5], None),
        "quartic": ([0.0], np.ones(3) / np.sqrt(3.0)),
    }
    for name, (theta, u0) in cases.items():
        hopping, potential, _ = preset_model(name)
        if u0 is None:
            u0 = ground_space(hopping, theta).basis[:, 0]
        quotients = quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, theta, u0, ns)
        limit = fiber_quotient(hopping, potential, 1.0, 0.01, theta, u0)
        residuals = np.array([abs(q - limit) for q in quotients])
        slope = float(np.polyfit(np.log(ns), np.log(residuals), 1)[0])
        clauses[f"{name} slope in [-1.3, -0.7]"] = -1.3 <= slope <= -0.7
    _report(4, clauses)


def _negative_part_constant(hopping, potential, disorder, theta, coeffs, eps_grid, power):
    worst = 0.0
    for epsilon in eps_grid:
        value = fiber_min_over_q(hopping, potential, disorder, theta, epsilon).value
        residual = value - edge_bound(coeffs, epsilon)
        worst = max(worst, max(0.0, -residual) / epsilon**power)
    return worst


def test_criterion_5_lower_bound_remainders():
    clauses = {}
    decade_small = np.geomspace(1e-3, 1e-2, 6)
    decade_large = np.geomspace(1e-2, 1e-1, 6)

    hopping, potential, disorder = preset_model("anderson")
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    c_small = _negative_part_constant(
        hopping, potential, disorder, [0.0], coeffs, decade_small, 1.5
    )
    c_large = _negative_part_constant(
        hopping, potential, disorder, [0.0], coeffs, decade_large, 1.5
    )
    clauses["linear remainder constant stable"] = c_small <= 1.2 * c_large + 1e-12

    hopping, potential, disorder = preset_model("dipole")
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    c_small = _negative_part_constant(
        hopping, potential, disorder, [0.0], coeffs, decade_small, 3.0
    )
    c_large = _negative_part_constant(
        hopping, potential, disorder, [0.0], coeffs, decade_large, 3.0
    )
    clauses["quadratic remainder constant stable"] = c_small <= 1.2 * c_large + 1e-12

    hopping, potential, disorder = no_motion_model()
    ok = True
    for epsilon in (1e-4, 1e-3, 1e-2):
        value = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon).value
        ok = ok and value >= -1e-12
    clauses["no-motion value >= -1e-12"] = ok
    _report(5, clauses)


def test_criterion_6_positive_regime_trichotomy():
    clauses = {}
    hopping, potential, _ = preset_model("dipole")
    disorder = DisorderSupport(0.0, 1.0)
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    clauses["dipole (0,1) case Quadratic"] = coeffs.case == CASE_QUADRATIC
    clauses["dipole (0,1) A2' = -1/4"] = abs(coeffs.A2_prime + 0.25) <= 1e-10

    hopping, potential, _ = preset_model("anderson")
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    clauses["anderson (0,1) first-order bound 0"] = edge_bound(coeffs, 0.01) == 0.0
    result = fiber_min_over_q(hopping, potential, disorder, [0.0], 0.01)
    clauses["anderson (0,1) minimum at q = 0"] = result.q_star == 0.0
    _report(6, clauses)


def test_criterion_7_nondegeneracy_biconditional():
    rng = np.random.default_rng(2024)
    counterexamples = 0
    for _ in range(500):
        N = int(rng.integers(1, 5))
        hopping = random_hopping(rng, d=1, N=N)
        potential = random_potential(rng, hopping.geometry.cell_size)
        disorder = sign_changing(rng)
        theta_set = scan_theta_set(hopping, grid_per_dim=32)
        ground = ground_space(hopping, theta_set.minimizers[0])
        if ground.gap is not None and ground.gap < 1e-6:
            continue  # clustering boundary, coefficient ill-conditioned
        pert = perturbation_matrix(ground, potential)
        a1 = coeff_A1(pert, disorder)
        a2 = 0.0 if ground.gap is None else coeff_A2(ground, pert, potential, disorder)
        tol = 1e-8 * (1.0 + potential.norm * disorder.coupling_scale)
        if nondegeneracy_check(ground, potential) != (abs(a1) + abs(a2) > tol):
            counterexamples += 1
    _report(7, {"zero counterexamples in 500 models": counterexamples == 0})


def test_criterion_8_perron_frobenius():
    rng = np.random.default_rng(77)
    failures = 0
    for i in range(100):
        d = 1 if i % 2 == 0 else 2
        N = int(rng.integers(1, 4))
        W = rng.uniform(0.0, 2.0, size=N**d)
        hopping, _, _ = preset_model("alloy", d=d, N=N, W=W)
        report = perron_frobenius_check(hopping)
        if not report.passed:
            failures += 1
    _report(8, {"100 random alloy models pass": failures == 0})


def test_criterion_9_torus_fiber_exactness():
    clauses = {}
    presets = {
        "anderson": preset_model("anderson"),
        "dipole": preset_model("dipole"),
        "quartic": preset_model("quartic"),
        "alloy": preset_model("alloy", N=2, W=[0.0, 1.0]),
    }
    for name, (hopping, potential, disorder) in presets.items():
        worst = 0.0
        for L in (1, 2, 3, 5):
            for q in (disorder.s_minus, disorder.s_plus):
                sample = box_min_eig(
                    hopping, potential, disorder, 0.03, L, sampler="PeriodicConstant", q=q
                )
                dual = torus_dual_minimum(hopping, potential, 0.03, q, L)
                worst = max(worst, abs(sample.lambda_min - dual))
        clauses[f"{name} torus = dual-grid fiber min to 1e-10"] = worst <= 1e-10
    _report(9, clauses)
