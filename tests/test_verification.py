import dataclasses
import functools
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import bandedge
from bandedge import verification
from bandedge.floquet import ground_space
from bandedge.model import (
    MAX_EPSILON,
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
    preset_model,
)
from bandedge.perturbation import edge_bound, edge_coefficients, perron_frobenius_check
from bandedge.verification import (
    SAMPLER_CONSTANT,
    SAMPLER_ENDPOINT,
    SAMPLER_UNIFORM,
    assemble_torus,
    box_min_eig,
    fiber_bound_sandwich,
    fiber_min_over_q,
    fiber_quotient,
    fit_exponent,
    kirsch_simon_sandwich,
    quartic_required_n,
    quartic_trial_energy,
    quasiperiodic_rayleigh,
    torus_dual_minimum,
    torus_structure,
)

from conftest import (
    PIPELINE_PRESETS,
    halve_ks_dispersion,
    no_motion_model,
    random_hopping,
    random_potential,
    refuse,
    sign_changing,
)

EPS = np.finfo(float).eps


def test_fiber_min_anderson_exact():
    hopping, potential, disorder = preset_model("anderson")
    for epsilon in (1e-1, 1e-2, 1e-3, 1e-4):
        result = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon)
        assert result.value == -epsilon
        assert result.q_star == -1.0


def test_fiber_min_epsilon_zero():
    for name in ("anderson", "dipole", "quartic"):
        hopping, potential, disorder = preset_model(name)
        result = fiber_min_over_q(hopping, potential, disorder, [0.0], 0.0)
        assert abs(result.value) < 1e-12


def test_fiber_min_dipole_matches_closed_form():
    hopping, potential, disorder = preset_model("dipole")
    epsilon = 0.01
    result = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon)
    # eigenvalues of [[2+eq, -2], [-2, 2-eq]] are 2 -+ sqrt(4 + (eq)^2)
    assert result.value == pytest.approx(2.0 - np.sqrt(4.0 + epsilon**2), abs=1e-14)


def test_fiber_min_dipole_closed_form_to_rounding():
    # the closed form evaluated at 50 digits leaves only the rounding of the
    # 2x2 eigvalsh, which must stay within one unit roundoff of ||M||_2 =
    # 2 + sqrt(4 + eps^2); what criterion 2's sweep residuals show above this
    # floor is truncation of the expansion, not rounding
    mpmath = pytest.importorskip("mpmath")
    hopping, potential, disorder = preset_model("dipole")
    for epsilon in 10.0 ** -np.arange(1.0, 8.5, 0.5):
        value = fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon).value
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(value) - (2 - mpmath.sqrt(4 + mpmath.mpf(epsilon) ** 2)))
        assert float(error) <= np.finfo(float).eps * (2.0 + np.sqrt(4.0 + epsilon**2))


def test_fiber_min_guard_on_random_models():
    rng = np.random.default_rng(21)
    for _ in range(20):
        hopping = random_hopping(rng, N=2)
        potential = random_potential(rng, hopping.geometry.cell_size)
        disorder = sign_changing(rng)
        fiber_min_over_q(hopping, potential, disorder, [rng.uniform(0, np.pi)], 0.05)


def sandwich_at_zero(hopping, potential, disorder, epsilon_list):
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    return fiber_bound_sandwich(potential, disorder, ground, coeffs, epsilon_list)


@pytest.mark.parametrize("name, params", PIPELINE_PRESETS)
def test_sandwich_solves_from_the_ground_fiber(monkeypatch, name, params):
    # every epsilon's endpoints in one eigvalsh on ground.fiber, with no fiber
    # built, and the bits of fiber_min_over_q at ground.theta
    hopping, potential, disorder = preset_model(name, **params)
    ground = ground_space(hopping, np.zeros(hopping.geometry.d))
    coeffs = edge_coefficients(ground, potential, disorder)
    epsilons = [0.0, 1e-3, 0.1, MAX_EPSILON]
    expected = [fiber_min_over_q(hopping, potential, disorder, ground.theta, e) for e in epsilons]
    monkeypatch.setattr(HoppingOperator, "fibers", refuse("HoppingOperator.fibers"))
    report = fiber_bound_sandwich(potential, disorder, ground, coeffs, epsilons)
    solved = verification._endpoint_minima(ground.fiber.matrix, potential, disorder, epsilons)
    assert [r.value.hex() for r in report.rows] == [e.value.hex() for e in expected]
    bits = [(e.q_star, e.value.hex()) for e in expected]
    assert [(r.q_star, r.value.hex()) for r in solved] == bits


@pytest.mark.parametrize("epsilon", [float("nan"), -0.01])
def test_sandwich_refuses_a_bad_epsilon_before_any_solve(monkeypatch, epsilon):
    hopping, potential, disorder = preset_model("dipole")
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse("eigvalsh"))
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        fiber_bound_sandwich(potential, disorder, ground, coeffs, [1e-3, epsilon])


def test_sandwich_anderson_exact():
    hopping, potential, disorder = preset_model("anderson")
    report = sandwich_at_zero(hopping, potential, disorder, [1e-3, 1e-2, 1e-1])
    assert report.case == "Linear"
    assert report.passed
    for row in report.rows:
        assert row.residual == 0.0


def test_sandwich_dipole_quadratic():
    hopping, potential, disorder = preset_model("dipole")
    report = sandwich_at_zero(hopping, potential, disorder, [1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    assert report.case == "Quadratic"
    assert report.passed
    # residual is quartic in epsilon for this model
    fit = fit_exponent(
        [r.epsilon for r in report.rows], [-abs(r.residual) for r in report.rows]
    )
    assert fit.eta == pytest.approx(4.0, abs=0.05)


def test_sandwich_fits_its_constant_on_positive_epsilons():
    hopping, potential, disorder = preset_model("dipole")
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    fitted = fiber_bound_sandwich(potential, disorder, ground, coeffs, [1e-3, 1e-2])
    report = fiber_bound_sandwich(potential, disorder, ground, coeffs, [0.0, 1e-3, 1e-2])
    assert report.C == fitted.C > 0
    assert report.passed and report.rows[0].epsilon == 0.0
    alone = fiber_bound_sandwich(potential, disorder, ground, coeffs, [0.0])
    assert alone.C == 0.0 and alone.passed


def test_sandwich_no_motion_nonnegative():
    hopping, potential, disorder = no_motion_model()
    report = sandwich_at_zero(hopping, potential, disorder, [1e-4, 1e-3, 1e-2])
    assert report.case == "NoMotion"
    assert report.passed


def test_quasiperiodic_constant_boundary_energy():
    # the infinite constant extension is in the kernel; truncation leaves
    # exactly the two boundary bonds, so the quotient is 2/n
    hopping, potential, _ = preset_model("anderson")
    ns = [4, 16, 64]
    quotients = quasiperiodic_rayleigh(hopping, potential, 0.0, 0.0, [0.0], [1.0], ns)
    for n, v in zip(ns, quotients):
        assert v == pytest.approx(2.0 / n, abs=1e-14)


def test_quasiperiodic_converges_to_fiber_value():
    hopping, potential, _ = preset_model("quartic")
    u0 = np.ones(3) / np.sqrt(3)
    ns = [8, 16, 32, 64, 128, 256]
    quotients = quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, [0.0], u0, ns)
    limit = fiber_quotient(hopping, potential, 1.0, 0.01, [0.0], u0)
    residuals = [abs(q - limit) for q in quotients]
    assert residuals == sorted(residuals, reverse=True)
    slope = np.polyfit(np.log(ns), np.log(residuals), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_quasiperiodic_dipole_with_coupling():
    hopping, potential, _ = preset_model("dipole")
    u0 = np.array([1.0, 1.0]) / np.sqrt(2)
    quotients = quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, [0.0], u0, [512])
    limit = fiber_quotient(hopping, potential, 1.0, 0.01, [0.0], u0)
    assert abs(quotients[0] - limit) < 1e-2
    assert limit == pytest.approx(0.0, abs=1e-12)  # <psi, V psi> = 0


@pytest.mark.parametrize(
    "model, u0, message",
    [
        ("anderson", [0.0], "u0 must be a nonzero cell vector of 1 finite entries"),
        ("anderson", [1.0, 1.0], "u0 must be a nonzero cell vector of 1 finite entries"),
        ("anderson", [np.nan], "u0 must be a nonzero cell vector of 1 finite entries"),
        ("dipole", [1.0, np.inf], "u0 must be a nonzero cell vector of 2 finite entries"),
    ],
    ids=["zero", "too-long", "nan", "inf"],
)
def test_quotients_refuse_a_bad_cell_vector(model, u0, message):
    # fiber_quotient checked no u0: [0] gave nan and [1, 1] a matmul error;
    # quasiperiodic_rayleigh passed [nan] through to a nan quotient
    hopping, potential, _ = preset_model(model)
    calls = [
        lambda: fiber_quotient(hopping, potential, 1.0, 0.01, [0.0], u0),
        lambda: quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, [0.0], u0, [8]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize(
    "sampler, q, message",
    [
        (SAMPLER_ENDPOINT, 0.5, "sampler 'EndpointBernoulli' takes no q"),
        (SAMPLER_UNIFORM, -1.0, "sampler 'Uniform' takes no q"),
        (SAMPLER_CONSTANT, None, "sampler 'PeriodicConstant' needs q"),
        ("bogus", None, "unknown sampler 'bogus'"),
    ],
    ids=["endpoint-with-q", "uniform-with-q", "constant-without-q", "unknown-sampler"],
)
def test_box_refuses_q_with_any_sampler_but_the_constant_one(monkeypatch, sampler, q, message):
    # endpoint couplings [1, 1, 1, -1] were drawn with q = 0.5 ignored, and an
    # unknown sampler raised only after the structure was built
    monkeypatch.setattr("bandedge.verification.torus_structure", refuse("torus_structure"))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ValueError, match=re.escape(message)):
        box_min_eig(hopping, potential, disorder, 0.1, 4, sampler=sampler, q=q)


def test_box_constant_coupling_matches_dual_grid():
    hopping, potential, disorder = preset_model("anderson")
    for L in (1, 2, 5, 64):
        sample = box_min_eig(
            hopping, potential, disorder, 0.05, L, sampler="PeriodicConstant", q=-1.0
        )
        dual = torus_dual_minimum(hopping, potential, 0.05, -1.0, L)
        assert abs(sample.lambda_min - dual) < 1e-10
        assert sample.lambda_min == pytest.approx(-0.05, abs=1e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_dual_grid_complex_potential_matches_torus(d):
    # an imaginary hop i from site 0 to each neighbour inside the cell breaks
    # M(-theta) = conj M(theta): at L >= 5 the torus bottom sits off theta = 0,
    # where a copy from the mirrored point would read a higher band value
    hopping, _, disorder = preset_model("alloy", d=d, N=2, W=[0.0] * 2**d)
    matrix = np.zeros((2**d, 2**d), dtype=complex)
    for axis in range(d):
        neighbour = 2 ** (d - 1 - axis)
        matrix[0, neighbour], matrix[neighbour, 0] = 1j, -1j
    potential = SingleCellPotential(matrix)
    for L in (1, 5, 8):
        sample = box_min_eig(
            hopping, potential, disorder, 1.0, L, sampler=SAMPLER_CONSTANT, q=1.0
        )
        dual = torus_dual_minimum(hopping, potential, 1.0, 1.0, L)
        assert abs(sample.lambda_min - dual) < 1e-10


@pytest.mark.parametrize("L", [0, -1, 2.0, True])
def test_torus_dual_minimum_rejects_bad_L(L):
    hopping, potential, _ = preset_model("anderson")
    with pytest.raises(ValueError, match="L must be an integer of at least 1"):
        torus_dual_minimum(hopping, potential, 0.05, -1.0, L)


@pytest.mark.parametrize(
    "theta, match",
    [([np.nan], "theta must be finite, got [nan]"), ([0.1, 0.2], "theta must have shape (1,)")],
)
def test_quasiperiodic_rejects_a_bad_theta(theta, match):
    # a NaN theta used to give NaN quotients; no theta was checked
    hopping, potential, _ = preset_model("dipole")
    with pytest.raises(ValueError, match=re.escape(match)):
        quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, theta, [1.0, 1.0], [8, 16])


def test_fiber_min_refuses_a_theta_whose_phase_overflows():
    # theta = 1e308 is finite, but theta.m on the dipole's offsets m = +-2 is not:
    # the fiber was NaN, and so was the minimum
    hopping, potential, disorder = preset_model("dipole")
    with pytest.raises(ValueError, match=re.escape("theta must be finite, got [1e+308]")):
        fiber_min_over_q(hopping, potential, disorder, [1e308], 0.01)


@pytest.mark.parametrize("ns", [[0], [8, 0, 16], [-4]])
def test_quasiperiodic_rejects_nonpositive_windows(ns):
    hopping, potential, _ = preset_model("dipole")
    with pytest.raises(ValueError, match="n_list must be positive"):
        quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, [0.0], [1.0, 1.0], ns)


@pytest.mark.parametrize("ns", [[2**53 + 1], [8, 10**20]])
def test_quasiperiodic_rejects_windows_past_2_to_the_53(ns):
    # 10**20 became a numpy object array and died in a ufunc TypeError
    hopping, potential, _ = preset_model("dipole")
    with pytest.raises(ValueError, match=re.escape(f"at most 2^53, got {ns}")):
        quasiperiodic_rayleigh(hopping, potential, 1.0, 0.01, [0.0], [1.0, 1.0], ns)


def test_box_epsilon_zero_nonnegative():
    hopping, potential, disorder = preset_model("dipole")
    sample = box_min_eig(hopping, potential, disorder, 0.0, 8, seed=1)
    assert sample.lambda_min >= -1e-10


def test_box_monotone_in_epsilon_for_definite_sign():
    hopping, potential, disorder = preset_model("anderson")
    values = [
        box_min_eig(
            hopping, potential, disorder, e, 16, sampler="PeriodicConstant", q=-1.0
        ).lambda_min
        for e in (0.01, 0.02, 0.05, 0.1)
    ]
    assert values == sorted(values, reverse=True)


def test_box_sparse_path_matches_dense():
    hopping, potential, disorder = preset_model("anderson")
    dense = box_min_eig(
        hopping, potential, disorder, 0.05, 600, sampler="PeriodicConstant", q=-1.0,
        dense_cutoff=4096,
    )
    sparse = box_min_eig(
        hopping, potential, disorder, 0.05, 600, sampler="PeriodicConstant", q=-1.0,
        dense_cutoff=10,
    )
    assert abs(dense.lambda_min - sparse.lambda_min) < 1e-9


def test_box_reproducible_by_seed():
    hopping, potential, disorder = preset_model("dipole")
    a = box_min_eig(hopping, potential, disorder, 0.05, 8, seed=42)
    b = box_min_eig(hopping, potential, disorder, 0.05, 8, seed=42)
    assert a.lambda_min == b.lambda_min
    assert np.array_equal(a.omega, b.omega)


def reference_torus(hopping, potential, epsilon, L, omega):
    """Per-cell loop over hops and potential entries: the torus assembly
    before it was vectorised."""
    geom = hopping.geometry
    d, N = geom.d, geom.N
    side = L * N
    n_sites = side**d
    cells = list(itertools.product(range(L), repeat=d))
    strides = [side ** (d - 1 - i) for i in range(d)]

    def site_id(coords) -> int:
        return sum((c % side) * s for c, s in zip(coords, strides))

    rows, cols, vals = [], [], []
    for ci, cell in enumerate(cells):
        base = [c * N for c in cell]
        for (k, kp, m), value in hopping:
            rows.append(site_id([b + kk for b, kk in zip(base, k)]))
            cols.append(site_id([b + kk + mm for b, kk, mm in zip(base, kp, m)]))
            vals.append(value)
        w = epsilon * omega[ci]
        if w != 0.0:
            ids = [site_id([b + kk for b, kk in zip(base, s)]) for s in geom.cell_sites()]
            for a, ia in enumerate(ids):
                for b, ib in enumerate(ids):
                    if potential.matrix[a, b] != 0.0:
                        rows.append(ia)
                        cols.append(ib)
                        vals.append(w * potential.matrix[a, b])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_sites, n_sites)).tocsr()


def _real_model(d, N):
    """A real preset on the geometry (d, N)."""
    if N == 1:
        return preset_model("anderson", d=d)
    if N == 2:
        return preset_model("dipole", d=d)
    if d == 1:
        return preset_model("quartic")
    W = np.random.default_rng(N).uniform(0.0, 2.0, N**d).tolist()
    return preset_model("alloy", d=d, N=N, W=W)


def _complex_model(d, N):
    rng = np.random.default_rng(10 * d + N)
    hopping = random_hopping(rng, d=d, N=N)
    return hopping, random_potential(rng, hopping.geometry.cell_size), sign_changing(rng)


MODELS = {"real": _real_model, "complex": _complex_model}
# every d, N in {1, 2, 3} and L in {1, 2, 3, 5} (L = 1, 2 fold hops onto
# each other), up to 1,000 sites; a complex table has (3 N^2)^d entries, so
# its reference loop is capped at 100,000 cell-entry pairs
TORUS_CASES = [
    pytest.param(kind, d, N, L, id=f"{kind}-d{d}-N{N}-L{L}")
    for kind in MODELS
    for d, N, L in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 5))
    if (L * N) ** d <= 1000 and (kind == "real" or (3 * N * N * L) ** d <= 100_000)
]


@pytest.mark.parametrize("kind,d,N,L", TORUS_CASES)
def test_assemble_torus_matches_reference_loop(kind, d, N, L):
    hopping, potential, _ = MODELS[kind](d, N)
    omega = np.random.default_rng(L).uniform(-1.0, 1.0, L**d)
    for epsilon in (0.0, 0.3):
        matrix = assemble_torus(hopping, potential, epsilon, L, omega)
        reference = reference_torus(hopping, potential, epsilon, L, omega).toarray()
        scale = np.abs(reference).sum(axis=1).max()
        assert matrix.dtype == (np.float64 if kind == "real" else np.complex128)
        assert matrix.shape == reference.shape
        assert np.abs(matrix.toarray() - reference).max() <= 1e-15 * scale


def reference_rayleigh(hopping, potential, q, epsilon, theta, u0, n_list):
    """quasiperiodic_rayleigh as a loop over the hopping table, as it was
    before it was vectorised."""
    geom = hopping.geometry
    theta = np.asarray(theta, dtype=float)
    u0 = np.asarray(u0, dtype=complex)
    norm0 = float(np.vdot(u0, u0).real)
    v_energy = float(np.vdot(u0, potential.matrix @ u0).real)
    quotients = []
    for n in n_list:
        h_energy = 0.0 + 0.0j
        for (k, kp, m), value in hopping:
            count = 1.0
            for ti in np.array(m) // geom.N:
                count *= max(0, n - abs(int(ti)))
            phase = np.exp(-1j * float(np.dot(theta, m)))
            i, j = geom.site_index(k), geom.site_index(kp)
            h_energy += np.conj(u0[i]) * value * phase * u0[j] * count
        total_cells = float(n**geom.d)
        quotient = (h_energy.real + epsilon * q * v_energy * total_cells) / (norm0 * total_cells)
        quotients.append(float(quotient))
    return quotients


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("d,N", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 1)])
def test_quasiperiodic_rayleigh_matches_reference_loop(kind, d, N):
    hopping, potential, _ = MODELS[kind](d, N)
    rng = np.random.default_rng(d + 7 * N)
    theta = rng.uniform(0.0, 2.0 * np.pi / N, d)
    u0 = rng.standard_normal(N**d) + 1j * rng.standard_normal(N**d)
    ns = [1, 2, 3, 8, 64]
    quotients = quasiperiodic_rayleigh(hopping, potential, 0.7, 0.01, theta, u0, ns)
    reference = reference_rayleigh(hopping, potential, 0.7, 0.01, theta, u0, ns)
    # the sums run in another order: allow rounding at the scale of the table
    scale = hopping.hopping_scale() + potential.norm
    assert np.abs(np.subtract(quotients, reference)).max() <= 1e-14 * scale


@pytest.mark.parametrize("kind,d,N,L", TORUS_CASES)
def test_box_min_eig_matches_full_eigvalsh(kind, d, N, L):
    hopping, potential, disorder = MODELS[kind](d, N)
    structure = torus_structure(hopping, potential, L)
    for epsilon in (0.0, 0.3):
        sample = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=SAMPLER_UNIFORM, seed=L
        )
        reference = reference_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(reference).sum(axis=1).max()
        assert abs(sample.lambda_min - np.linalg.eigvalsh(reference)[0]) <= 1e-12 * scale
        # one structure shared across couplings and samples changes no bit
        shared = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=SAMPLER_UNIFORM, seed=L,
            structure=structure,
        )
        assert shared.lambda_min == sample.lambda_min


@pytest.mark.parametrize("kind,d,N,L", TORUS_CASES)
def test_band_filled_from_slots_is_the_gathered_fill(kind, d, N, L):
    # the banded path adds the potential straight into the hopping band; it
    # must hold the bits of the CSR fill, gathered into the lower band
    hopping, own, _ = MODELS[kind](d, N)
    rng = np.random.default_rng(100 + L)
    dense = random_potential(rng, hopping.geometry.cell_size).matrix  # off-diagonal entries
    omega = rng.uniform(-1.0, 1.0, L**d)
    for potential in (own, SingleCellPotential(dense.real if kind == "real" else dense)):
        structure = torus_structure(hopping, potential, L)
        order, base, *_, start = structure.band
        assert not (base.flags.writeable or start.flags.writeable)
        rank = np.argsort(order)
        for epsilon in (0.0, 0.3):
            _, band, scale = verification._banded_lowest(structure, epsilon, omega)
            matrix = structure.fill(epsilon, omega).tocoo()
            i, j = rank[matrix.row], rank[matrix.col]
            lower = i >= j
            gathered = np.zeros_like(band)
            gathered[(i - j)[lower], j[lower]] = matrix.data[lower]
            assert band.dtype == matrix.dtype and band.tobytes() == gathered.tobytes()
            rows = np.abs(matrix.toarray()).sum(axis=1)
            assert abs(scale - rows.max()) <= 1e-15 * rows.max()


def test_endpoint_draw_is_rng_choice():
    # indexing the endpoints by rng.integers draws what rng.choice drew
    disorder = DisorderSupport(-0.7, 1.3)
    for seed, n in itertools.product(range(40), (1, 2, 5, 64, 256, 1000)):
        drawn = verification._draw_couplings(disorder, n, SAMPLER_ENDPOINT, seed, None)
        chosen = np.random.default_rng(seed).choice([disorder.s_minus, disorder.s_plus], size=n)
        assert drawn.dtype == chosen.dtype and drawn.tobytes() == chosen.tobytes()


def _band_case(model, L, epsilons=(0.0, 0.3), *, id):
    return pytest.param(model, L, epsilons, id=id)


# 1-D rings (reverse Cuthill-McKee gives half-bandwidth b = 2 to 8), two
# d = 2 tori of 256 sites (b = 31) and a d = 2 torus of 64 sites (b = 15),
# where n/b = 4.3. Under constant couplings the quartic ring of 85 cells has
# near-degenerate bottoms (gaps of 3.7e-7 at eps = 1e-2 and 1.6e-15 at
# 1e-1); the d = 1 alloy has N = 3.
BAND_CASES = [
    _band_case(functools.partial(MODELS[kind], 1, N), L, id=f"{kind}-d1-N{N}-L{L}")
    for kind in MODELS
    for N in (1, 2, 3)
    for L in (64, 128)
] + [
    _band_case(functools.partial(MODELS["real"], 2, 1), 16, id="real-d2-N1-L16"),
    _band_case(functools.partial(MODELS["real"], 2, 2), 8, id="real-d2-N2-L8"),
    _band_case(functools.partial(MODELS["real"], 2, 1), 8, id="real-d2-N1-L8"),
    _band_case(
        functools.partial(preset_model, "quartic"),
        85,
        epsilons=(1e-3, 1e-2, 1e-1),
        id="quartic-L85",
    ),
    _band_case(
        functools.partial(preset_model, "alloy", d=1, N=3, W=[0.0, 0.7, 0.3]),
        64,
        epsilons=(0.0, 0.1, 0.3),
        id="alloy-d1-N3-L64",
    ),
]


@pytest.mark.parametrize("model,L,epsilons", BAND_CASES)
def test_box_banded_branch_matches_eigvalsh(model, L, epsilons, monkeypatch):
    monkeypatch.setattr("scipy.linalg.eigh", refuse("eigh"))
    hopping, potential, disorder = model()
    structure = torus_structure(hopping, potential, L)
    draws = [(SAMPLER_UNIFORM, None)] + [
        (SAMPLER_CONSTANT, q) for q in (disorder.s_minus, disorder.s_plus)
    ]
    for epsilon, (sampler, q) in itertools.product(epsilons, draws):
        sample = box_min_eig(hopping, potential, disorder, epsilon, L, sampler=sampler, seed=L, q=q)
        matrix = assemble_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(matrix).sum(axis=1).max()
        assert abs(sample.lambda_min - np.linalg.eigvalsh(matrix)[0]) <= 1e-12 * scale
        shared = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=sampler, seed=L, q=q,
            structure=structure,
        )
        assert shared.lambda_min == sample.lambda_min


def flat_band_model():
    """A chain on site 0 and site 1 decoupled at -5, with the potential on
    the chain only: the bottom band is flat at -5 for every coupling."""
    hopping, _, disorder = no_motion_model()
    coeffs = dict(hopping.coefficients)
    coeffs[((1,), (1,), (0,))] = -5.0
    return HoppingOperator(hopping.geometry, coeffs), SingleCellPotential(np.diag([1.0, 0.0])), disorder


def test_box_banded_branch_degenerate_ground_space(monkeypatch):
    monkeypatch.setattr("scipy.linalg.eigh", refuse("eigh"))
    hopping, potential, disorder = flat_band_model()
    for epsilon in (0.0, 0.3):
        # the lowest eigenvalue is 128-fold degenerate: any vector in that
        # space passes the certificate
        sample = box_min_eig(
            hopping, potential, disorder, epsilon, 128, sampler=SAMPLER_UNIFORM, seed=1
        )
        matrix = assemble_torus(hopping, potential, epsilon, 128, sample.omega).toarray()
        scale = np.abs(matrix).sum(axis=1).max()
        spectrum = np.linalg.eigvalsh(matrix)
        assert np.all(np.abs(spectrum[:128] + 5.0) <= 1e-12 * scale) and spectrum[128] > -4.0
        assert abs(sample.lambda_min + 5.0) <= 1e-12 * scale


def _lapack_replaced(name, routine):
    """scipy.linalg.get_lapack_funcs with the LAPACK routine ``name`` replaced."""
    get = scipy.linalg.get_lapack_funcs

    def patched(names, *args, **kwargs):
        return routine if names == name else get(names, *args, **kwargs)

    return patched


def _nan_solve(factor, rhs, **kwargs):
    return np.full_like(rhs, np.nan), 0


def _not_positive_definite(band, **kwargs):
    return band, 1  # LAPACK: the leading minor of order 1 is not positive definite


@pytest.mark.parametrize(
    "name,routine,message",
    [
        pytest.param("pbtrs", _nan_solve, "exceeds certificate bound", id="nan-solve"),
        pytest.param(
            "pbtrf", _not_positive_definite, "Gershgorin bound failed on 64 sites", id="no-factor"
        ),
    ],
)
def test_box_banded_branch_failure_is_named(monkeypatch, name, routine, message):
    monkeypatch.setattr("scipy.linalg.get_lapack_funcs", _lapack_replaced(name, routine))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match=message):
        box_min_eig(hopping, potential, disorder, 0.05, 64)


def test_box_banded_certificate_rejects_the_second_eigenpair(monkeypatch):
    # the exact second eigenpair of a 64-site ring passes the residual
    # certificate; only the Cholesky factorization at its eigenvalue minus
    # 1e-10*scale shows that it is not the lowest
    lowest = verification._banded_lowest
    residuals = []

    def second(structure, epsilon, omega):
        _, band, scale = lowest(structure, epsilon, omega)
        order = structure.band[0]  # the band's site order
        matrix = structure.fill(epsilon, omega).toarray()[np.ix_(order, order)]
        values, vectors = np.linalg.eigh(matrix)
        residuals.append(np.linalg.norm(matrix @ vectors[:, 1] - values[1] * vectors[:, 1]) / scale)
        return vectors[:, 1], band, scale

    monkeypatch.setattr("bandedge.verification._banded_lowest", second)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="is not the lowest eigenvalue"):
        box_min_eig(hopping, potential, disorder, 0.05, 64)
    assert residuals[0] <= 1e-10


# random endpoint disorder, weak and strong, past a lowered dense cutoff: the
# LOBPCG solve and its Rayleigh quotient against a full dense spectrum
SPARSE_CASES = [
    pytest.param(model, d, N, L, epsilon, id=f"{model}-d{d}-N{N}-L{L}-eps{epsilon:g}")
    for model, d, N, L in (
        ("real", 2, 1, 24),
        ("complex", 1, 3, 40),
        ("real", 2, 2, 20),
        ("real", 2, 3, 10),
        ("complex", 2, 2, 8),
        ("real", 3, 1, 8),
        ("real", 3, 2, 4),
        ("complex", 3, 1, 6),
    )
    for epsilon in (1e-4, 0.3)
]


@pytest.mark.parametrize("kind,d,N,L,epsilon", SPARSE_CASES)
def test_box_sparse_path_matches_eigvalsh(kind, d, N, L, epsilon):
    hopping, potential, disorder = MODELS[kind](d, N)
    sample = box_min_eig(hopping, potential, disorder, epsilon, L, seed=L, dense_cutoff=10)
    matrix = assemble_torus(hopping, potential, epsilon, L, sample.omega).toarray()
    scale = np.abs(matrix).sum(axis=1).max()
    assert abs(sample.lambda_min - np.linalg.eigvalsh(matrix)[0]) <= 1e-12 * scale


def two_minimizer_chain():
    """A chain with hops -1 at distance 1 and +1/2 at distance 2 on N = 2
    cells, and the dipole potential: the dispersion -2 cos(phi) + cos(2 phi)
    has its minimum -3/2 at phi = +-pi/3, so a ring whose site count is a
    multiple of 6 has a twofold bottom at epsilon = 0."""
    geom = LatticeGeometry(d=1, N=2)
    coeffs = {}
    for k in (0, 1):
        for distance, value in ((1, -1.0), (-1, -1.0), (2, 0.5), (-2, 0.5)):
            target = k + distance
            coeffs[((k,), (target % 2,), (target - target % 2,))] = value
    return (
        HoppingOperator(geom, coeffs),
        SingleCellPotential(np.diag([1.0, -1.0])),
        DisorderSupport(-1.0, 1.0),
    )


@pytest.mark.parametrize("L", [30, 150])
def test_box_sparse_path_degenerate_bottom(L):
    hopping, potential, disorder = two_minimizer_chain()
    for epsilon in (0.0, 0.3):
        sample = box_min_eig(hopping, potential, disorder, epsilon, L, seed=L, dense_cutoff=10)
        matrix = assemble_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(matrix).sum(axis=1).max()
        spectrum = np.linalg.eigvalsh(matrix)
        if epsilon == 0.0:
            assert np.abs(spectrum[:2] + 1.5).max() <= 1e-12 * scale < spectrum[2] + 1.5
        assert abs(sample.lambda_min - spectrum[0]) <= 1e-12 * scale


def test_box_sparse_path_independent_of_earlier_solves():
    hopping, potential, disorder = preset_model("dipole", d=2)
    first = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    # another torus past the cutoff, and numpy's global generator advanced
    box_min_eig(*preset_model("anderson", d=2), 0.3, 24, seed=1, dense_cutoff=10)
    np.random.standard_normal(300)
    second = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    assert first.lambda_min == second.lambda_min


def test_box_sparse_path_builds_no_band_layout():
    # the reverse Cuthill-McKee layout is built on first use, and past the
    # dense cutoff nothing uses it
    hopping, potential, disorder = preset_model("anderson")
    structure = torus_structure(hopping, potential, 64)
    shared = box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10, structure=structure)
    assert "band" not in vars(structure)
    alone = box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)
    assert shared.lambda_min == alone.lambda_min
    box_min_eig(hopping, potential, disorder, 0.05, 64, structure=structure)
    assert "band" in vars(structure)


def test_box_sparse_path_budget_failure_is_named(monkeypatch):
    monkeypatch.setattr("bandedge.verification.MAX_ITERATIONS", 1)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="iterative eigensolver failed on 64 sites"):
        box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)


def test_box_sparse_path_preconditioner_failure_is_named(monkeypatch):
    # a preconditioner that returns NaN adds nothing to the basis, so the
    # iteration makes no progress until its budget runs out
    average = verification._translation_average
    calls = []

    def nan_preconditioner(*args):
        _, sigma, weyl = average(*args)

        def precondition(x):
            calls.append(len(x))
            return np.full_like(x, np.nan)

        return precondition, sigma, weyl

    monkeypatch.setattr("bandedge.verification._translation_average", nan_preconditioner)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="iterative eigensolver failed on 64 sites"):
        box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)
    assert calls == [64] * verification.MAX_ITERATIONS


def _preconditioner_model(kind, d, N):
    rng = np.random.default_rng(10 * d + N)
    hopping = random_hopping(rng, d=d, N=N)
    potential = random_potential(rng, hopping.geometry.cell_size)
    if kind == "real":
        hopping = HoppingOperator(hopping.geometry, {k: v.real for k, v in hopping})
        potential = SingleCellPotential(potential.matrix.real)
    return hopping, potential


# the grid of TORUS_CASES on random tables, real and complex; L = 1 has one
# coupling, so H = H_avg and sigma sits only 1e-9*scale below its bottom
PRECONDITIONER_CASES = [
    pytest.param(kind, d, N, L, id=f"{kind}-d{d}-N{N}-L{L}")
    for kind in ("real", "complex")
    for d, N, L in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 5))
    if (L * N) ** d <= 1000 and (3 * N * N * L) ** d <= 100_000
]


@pytest.mark.parametrize("kind,d,N,L", PRECONDITIONER_CASES)
def test_translation_average_inverts_the_shifted_average(kind, d, N, L):
    hopping, potential = _preconditioner_model(kind, d, N)
    structure = torus_structure(hopping, potential, L)
    rng = np.random.default_rng(L)
    omega = rng.uniform(-1.0, 1.0, L**d)
    matrix = structure.fill(0.3, omega)
    scale = np.abs(matrix).sum(axis=1).max()
    precondition, sigma, weyl = verification._translation_average(
        structure, matrix, 0.3, omega, scale
    )
    average = structure.fill(0.3, omega.mean())
    x = rng.standard_normal(matrix.shape[0]).astype(matrix.dtype)
    if kind == "complex":
        x += 1j * rng.standard_normal(len(x))
    z = precondition(average @ x - sigma * x)
    assert z.dtype == matrix.dtype
    # sigma lies below the average's spectrum; the error may reach rounding
    # at the scale of H_avg and sigma over the smallest eigenvalue of
    # H_avg - sigma, which is large at L = 1
    shifted = np.linalg.eigvalsh(average.toarray())[0] - sigma
    assert shifted > 0
    condition = (scale + abs(sigma)) / shifted
    assert np.linalg.norm(z - x) <= max(1e-8, 100 * condition * EPS) * np.linalg.norm(x)
    # the Weyl bound lies above the torus's bottom
    assert np.linalg.eigvalsh(matrix.toarray())[0] <= weyl + 1e-12 * scale


def test_box_sparse_path_uses_no_fiber_data_and_any_preconditioner(monkeypatch):
    # dipole d = 2 at L = 12 and anderson d = 2 at L = 24 share one grid of
    # 24 x 24 sites, so either torus's preconditioner applies to the other
    hopping, potential, disorder = preset_model("dipole", d=2)
    other = torus_structure(*preset_model("anderson", d=2)[:2], 24)
    other_omega = np.full(24**2, -1.0)
    other_matrix = other.fill(0.1, other_omega)
    average = verification._translation_average

    def identity(*args):
        _, sigma, weyl = average(*args)
        return (lambda x: x), sigma, weyl

    def other_symbol(*args):
        _, sigma, weyl = average(*args)
        return average(other, other_matrix, 0.1, other_omega, 4.1)[0], sigma, weyl

    for sampler, q in ((SAMPLER_CONSTANT, 1.0), (SAMPLER_UNIFORM, None)):
        monkeypatch.setattr(HoppingOperator, "fibers", refuse("fibers"))
        monkeypatch.setattr("bandedge.floquet.grid_band_bottom", refuse("grid_band_bottom"))
        monkeypatch.setattr("bandedge.verification.grid_band_bottom", refuse("grid_band_bottom"))
        args = (hopping, potential, disorder, 0.1, 12, sampler, 3, q, 10)
        reference = box_min_eig(*args)
        matrix = assemble_torus(hopping, potential, 0.1, 12, reference.omega).toarray()
        scale = np.abs(matrix).sum(axis=1).max()
        assert abs(reference.lambda_min - np.linalg.eigvalsh(matrix)[0]) <= 1e-12 * scale
        for wrong in (identity, other_symbol):
            monkeypatch.setattr("bandedge.verification._translation_average", wrong)
            try:
                value = box_min_eig(*args).lambda_min
            except ConvergenceError:
                continue
            assert abs(value - reference.lambda_min) <= 1e-12 * scale
        monkeypatch.undo()


def test_box_sparse_certificate_rejects_the_second_eigenpair(monkeypatch):
    # the exact second eigenpair of a constant-coupling torus passes the
    # residual certificate; only the Weyl bound shows that it is not the lowest
    lowest = verification._lobpcg_lowest_vector
    residuals = []

    def second(matrix, precondition, scale):
        lowest(matrix, precondition, scale)
        values, vectors = np.linalg.eigh(matrix.toarray())
        residuals.append(np.linalg.norm(matrix @ vectors[:, 1] - values[1] * vectors[:, 1]) / scale)
        return vectors[:, 1]

    monkeypatch.setattr("bandedge.verification._lobpcg_lowest_vector", second)
    hopping, potential, disorder = preset_model("anderson", d=2)
    with pytest.raises(ConvergenceError, match="is not the lowest eigenvalue"):
        box_min_eig(
            hopping, potential, disorder, 0.05, 8, sampler=SAMPLER_CONSTANT, q=-1.0, dense_cutoff=10
        )
    assert residuals[0] <= 1e-10


def on_site_torus(value):
    """An on-site-only table in d = 2: the torus is value * I."""
    hopping = HoppingOperator(LatticeGeometry(d=2, N=1), {((0, 0), (0, 0), (0, 0)): value})
    disorder = DisorderSupport(-1.0, 1.0)
    return hopping, SingleCellPotential(np.eye(1)), disorder


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value,epsilon,expected", [(1.0, 0.0, 1.0), (1.0, 0.1, 1.1), (0.0, 0.0, 0.0)]
)
def test_box_sparse_path_multiple_of_identity(value, epsilon, expected):
    # 6,400 sites, past the cutoff: the seeded start vector is already an
    # eigenvector, and the zero torus returns it before any preconditioner
    hopping, potential, disorder = on_site_torus(value)
    sample = box_min_eig(hopping, potential, disorder, epsilon, 80, sampler=SAMPLER_CONSTANT, q=1.0)
    assert sample.lambda_min == expected


def _nan_table():
    hopping, potential, disorder = preset_model("anderson", d=2)
    coeffs = dict(hopping.coefficients)
    coeffs[((0, 0), (0, 0), (0, 0))] = float("nan")
    return HoppingOperator(hopping.geometry, coeffs), potential, disorder


@pytest.mark.parametrize(
    "model,epsilon,L,q,message",
    [
        (lambda: preset_model("anderson"), 0.05, 0, 1.0, "L must be an integer of at least 1"),
        (lambda: preset_model("anderson"), 0.05, 2.0, 1.0, "L must be an integer of at least 1"),
        (lambda: preset_model("anderson"), 0.05, True, 1.0, "L must be an integer of at least 1"),
        (lambda: preset_model("anderson"), -0.01, 64, 1.0, "epsilon must be finite"),
        (lambda: preset_model("anderson"), float("inf"), 64, 1.0, "epsilon must be finite"),
        (lambda: preset_model("anderson"), 1e120, 64, 1.0, "epsilon must be finite"),
        (lambda: preset_model("anderson", d=2), 0.05, 72, float("nan"), "q must be finite"),
        (_nan_table, 0.05, 72, 1.0, "hopping amplitudes and potential entries"),
    ],
    ids=[
        "L0", "L-float", "L-bool", "eps-negative", "eps-inf", "eps-cube-overflows", "q-nan",
        "hopping-nan",
    ],
)
def test_box_rejects_bad_input_before_assembly(monkeypatch, capfd, model, epsilon, L, q, message):
    monkeypatch.setattr("bandedge.verification.assemble_torus", refuse("assemble_torus"))
    monkeypatch.setattr("bandedge.verification.torus_structure", refuse("torus_structure"))
    monkeypatch.setattr("bandedge.verification._lobpcg_lowest_vector", refuse("LOBPCG"))
    hopping, potential, disorder = model()
    with pytest.raises(ValueError, match=message):
        box_min_eig(hopping, potential, disorder, epsilon, L, sampler=SAMPLER_CONSTANT, q=q)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "epsilon, q, message",
    [
        (-0.1, 1.0, "epsilon must be finite and nonnegative"),
        (float("nan"), 1.0, "epsilon must be finite and nonnegative"),
        (float("inf"), 1.0, "epsilon must be finite and nonnegative"),
        (0.05, float("nan"), "coupling q must be finite"),
        (0.05, float("inf"), "coupling q must be finite"),
        (0.05, float("-inf"), "coupling q must be finite"),
    ],
    ids=["eps-negative", "eps-nan", "eps-inf", "q-nan", "q-inf", "q-minus-inf"],
)
def test_dual_and_quotients_refuse_a_bad_coupling_before_any_fiber(
    monkeypatch, epsilon, q, message
):
    # each returned NaN for a NaN or infinite epsilon or q, and the dual grid
    # took epsilon = -0.1 to -0.0025 on the dipole; box_min_eig, its partner in
    # every dual check, refuses all of them
    monkeypatch.setattr(HoppingOperator, "fibers", refuse("HoppingOperator.fibers"))
    monkeypatch.setattr("bandedge.verification.grid_band_bottom", refuse("grid_band_bottom"))
    hopping, potential, _ = preset_model("dipole")
    calls = [
        lambda: torus_dual_minimum(hopping, potential, epsilon, q, 8),
        lambda: quasiperiodic_rayleigh(hopping, potential, q, epsilon, [0.0], [1.0, 1.0], [8]),
        lambda: fiber_quotient(hopping, potential, q, epsilon, [0.0], [1.0, 1.0]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize(
    "epsilon", [-0.01, float("nan"), float("inf"), 1e120, np.nextafter(MAX_EPSILON, np.inf)]
)
def test_epsilon_checks_reject_every_non_finite_or_negative_value(epsilon):
    hopping, potential, disorder = preset_model("dipole")
    coeffs = edge_coefficients(ground_space(hopping, [0.0]), potential, disorder)
    calls = [
        lambda: edge_bound(coeffs, epsilon),
        lambda: fiber_min_over_q(hopping, potential, disorder, [0.0], epsilon),
        lambda: quartic_trial_energy(epsilon, 0.3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("name", ["anderson", "dipole", "quartic"])
def test_sweep_takes_the_largest_epsilon_whose_cube_is_finite(name):
    # the sweep raises epsilon to the power 1.5 or 3 with Python's **, which
    # raises OverflowError past a finite result
    hopping, potential, disorder = preset_model(name)
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    report = fiber_bound_sandwich(potential, disorder, ground, coeffs, [MAX_EPSILON])
    assert np.isfinite(report.rows[0].predicted)


@pytest.mark.parametrize("other", ["hopping", "potential", "L"])
def test_box_rejects_a_structure_built_for_another_torus(other):
    hopping, potential, disorder = preset_model("dipole")
    built = {"hopping": hopping, "potential": potential, "L": 16}
    # an equal copy is another object: the check is by identity
    built[other] = {
        "hopping": HoppingOperator(hopping.geometry, hopping.coefficients),
        "potential": SingleCellPotential(potential.matrix.copy()),
        "L": 8,
    }[other]
    structure = torus_structure(built["hopping"], built["potential"], built["L"])
    with pytest.raises(ValueError, match="structure was built for another hopping"):
        box_min_eig(hopping, potential, disorder, 0.05, 16, seed=1, structure=structure)


def test_box_one_site_torus_takes_dense_path():
    hopping, potential, disorder = preset_model("anderson")
    sample = box_min_eig(hopping, potential, disorder, 0.05, 1, seed=3, dense_cutoff=0)
    matrix = assemble_torus(hopping, potential, 0.05, 1, sample.omega)
    assert matrix.shape == (1, 1)
    assert sample.lambda_min == matrix[0, 0]


# a fresh interpreter: which of numpy.fft and scipy's modules are loaded
# after each step; the past-cutoff solve runs before any banded one, whose
# reverse Cuthill-McKee order (scipy.sparse.csgraph) loads scipy.sparse.linalg
SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    modules = ("numpy.fft", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg")
    return [m for m in modules if m in sys.modules]
steps = []
import bandedge
steps.append(loaded())
import bandedge.cli
steps.append(loaded())
from bandedge import pipeline
config = pipeline.RunConfig(model="dipole", epsilon_list=(1e-3, 1e-2), model_params={"d": 2})
assert pipeline.run_pipeline(config)[0] == 0
steps.append(loaded())
bandedge.box_min_eig(*bandedge.preset_model("anderson"), 0.05, 5000)
steps.append(loaded())
bandedge.box_min_eig(*bandedge.preset_model("anderson"), 0.05, 4)
steps.append(loaded())
print(json.dumps(steps))
"""


def test_scipy_loaded_only_by_torus_work():
    src = str(Path(bandedge.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, src], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [
        [],
        [],
        [],
        ["numpy.fft", "scipy.sparse"],
        ["numpy.fft", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"],
    ]


def test_fit_exponent_exact_lines():
    eps = [1e-3, 1e-2, 1e-1]
    fit = fit_exponent(eps, [-e for e in eps])
    assert fit.eta == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    fit = fit_exponent(eps, [-0.25 * e**2 for e in eps])
    assert fit.eta == pytest.approx(2.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(0.25, rel=1e-10)


def test_fit_exponent_excludes_nonnegative():
    eps = [1e-3, 1e-2, 1e-1, 1.0]
    values = [-1e-3, -1e-2, -1e-1, 0.5]
    with pytest.warns(UserWarning):
        fit = fit_exponent(eps, values)
    assert fit.excluded == 1
    assert fit.eta == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_drops_epsilon_zero_and_counts_each_kind():
    eps = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
    values = [-4e-17, -1e-3, -1e-2, -1e-1, 0.5]
    with pytest.warns(UserWarning, match=r"excluded 1 nonnegative value\(s\)$"):
        fit_exponent(eps[1:], values[1:])
    with pytest.warns(UserWarning) as caught:
        fit = fit_exponent(eps, values)
    message = "fit_exponent: excluded 1 nonnegative value(s) and 1 point(s) at epsilon <= 0"
    assert [str(w.message) for w in caught] == [message]
    assert fit.excluded == 2
    assert fit.eta == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_too_few_points():
    with pytest.raises(ValueError):
        fit_exponent([1e-2, 1e-1], [-1e-2, -1e-1])


def test_quartic_trial_small_n_rejected():
    with pytest.raises(ValueError):
        quartic_trial_energy(1e-2, 0.3, n=10)
    with pytest.raises(ValueError):
        quartic_trial_energy(1e-2, 0.2)  # xi <= 1/4


@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_quartic_trial_rejects_a_window_below_one_cell(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            quartic_trial_energy(0.0, 0.3, n=n)


def test_quartic_trial_epsilon_zero_vanishes():
    value = quartic_trial_energy(0.0, 0.3, n=2000)
    assert abs(value) < 1e-3
    larger = quartic_trial_energy(0.0, 0.3, n=8000)
    assert abs(larger) < abs(value)


def test_quartic_required_n_floors_epsilon_and_counts_at_least_one_cell():
    # eps = 0 takes the 1e-6 floor (it raised ZeroDivisionError), and a window
    # that underflows to 0 cells is one cell
    assert quartic_required_n(0.0, 0.3) == quartic_required_n(1e-6, 0.3) > 1
    assert quartic_required_n(1e40, 10.0) == 1


@pytest.mark.parametrize("epsilon, xi", [(0.5, 1e6), (1e-3, 30.0)])
def test_quartic_window_past_what_float64_counts_is_refused(epsilon, xi):
    # (0.5, 1e6) overflowed; (1e-3, 30) handed 4e183 cells to numpy as an object array
    message = re.escape(f"epsilon={epsilon!r}, xi={xi!r} exceeds 2^53 cells")
    with pytest.raises(ValueError, match=message):
        quartic_required_n(epsilon, xi)
    with pytest.raises(ValueError, match=message):
        quartic_trial_energy(epsilon, xi)


@pytest.mark.parametrize("n", [2**53 + 1, 10**20])
def test_quartic_trial_refuses_an_explicit_window_past_2_to_the_53(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be at most 2^53 cells, got {n}")):
        quartic_trial_energy(0.01, 0.3, n)


@pytest.mark.parametrize("xi, n", [(10.0, None), (10.0, 5), (5.0, 1)])
def test_quartic_trial_refuses_a_scale_that_overflows(xi, n):
    # eps^(1+2xi) is not finite at eps = 1e40; eps^xi overflowed at xi = 10
    with pytest.raises(ValueError, match=re.escape(f"overflows at epsilon=1e+40, xi={xi!r}")):
        quartic_trial_energy(1e40, xi, n)


def test_quartic_trial_scale():
    # the quotient tracks the epsilon^(1+2 xi) scale of the target bound
    epsilon, xi = 1e-2, 0.3
    value = quartic_trial_energy(epsilon, xi)
    assert abs(value) < 10.0 * epsilon ** (1.0 + 2.0 * xi)


def _quartic_trial_mp(epsilon, xi):
    """quartic_trial_energy's closed form at 50 digits: every pair of the two
    plane waves and every hop of the table, with each window sum
    sum_{c=lo}^{hi-1} z^c as z^lo (z^(hi-lo) - 1) / (z - 1)."""
    mp = pytest.importorskip("mpmath")
    hopping, potential, _ = preset_model("quartic")
    n = quartic_required_n(epsilon, xi)
    with mp.workdps(50):

        def window_sum(phi, t):
            lo, count = max(0, -t), max(0, n - abs(t))
            z = mp.expj(phi)
            return mp.mpf(count) if phi == 0 else z**lo * (z**count - 1) / (z - 1)

        eta = mp.mpf(epsilon) ** mp.mpf(xi)
        energy = norm = mp.mpf(0)
        for ca, ta in ((1, 0), (eta, eta)):
            for cb, tb in ((1, 0), (eta, eta)):
                ua = [mp.expj(-ta * k) for k in range(3)]
                ub = [mp.expj(-tb * k) for k in range(3)]
                for ((k,), (kp,), (m,)), value in hopping:
                    hop = mp.conj(ua[k]) * value.real * ub[kp] * mp.expj(-tb * m)
                    energy += ca * cb * hop * window_sum(3 * (ta - tb), m // 3)
                for k in range(3):
                    cell = ca * cb * mp.conj(ua[k]) * ub[k] * window_sum(3 * (ta - tb), 0)
                    energy += epsilon * potential.matrix[k, k].real * cell
                    norm += cell
        return float(mp.re(energy) / mp.re(norm))


@pytest.mark.parametrize("epsilon", [1e-2, 3e-3, 1e-3])
def test_quartic_trial_matches_a_50_digit_evaluation(epsilon):
    expected = _quartic_trial_mp(epsilon, 0.3)
    assert quartic_trial_energy(epsilon, 0.3) == pytest.approx(expected, rel=1e-10, abs=0)


def test_quartic_trial_memory_does_not_grow_with_the_window():
    # the window at epsilon = 1e-3 has 252,383 cells of 3 sites
    quartic_trial_energy(1e-3, 0.3)
    tracemalloc.start()
    try:
        quartic_trial_energy(1e-3, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _dense_open_chain(hopping, potential, coupling, n_cells):
    """H0 + coupling * (potential in every cell) on n_cells cells, entry by entry."""
    N = hopping.geometry.N
    matrix = np.zeros((n_cells * N, n_cells * N), dtype=complex)
    for c in range(n_cells):
        for ((k,), (kp,), (m,)), value in hopping:
            if 0 <= c + m // N < n_cells:
                matrix[c * N + k, (c + m // N) * N + kp] += value
        matrix[c * N : (c + 1) * N, c * N : (c + 1) * N] += coupling * potential.matrix
    return matrix


def _window_state(geom, parts, n, L):
    """sum_a c_a ext(u0_a, theta_a) on the sites of L^d cells in torus order,
    zero outside the first n^d cells."""
    x = np.indices((L * geom.N,) * geom.d).reshape(geom.d, -1).T
    cells, k = np.divmod(x, geom.N)
    sub = np.ravel_multi_index(k.T, (geom.N,) * geom.d)  # cell_sites is lexicographic
    u = sum(c * u0[sub] * np.exp(-1j * geom.N * cells @ theta) for c, theta, u0 in parts)
    return u * (cells < n).all(axis=1)


@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [1, 2, 5])
@pytest.mark.parametrize("coupling", [0.0, 0.3])
def test_window_quotients_match_dense_references(dtype, N, n_cells, coupling):
    # two-part superpositions in d = 1, 2, 3 (up to 8 sites a cell); the second
    # part shares the first's momentum on axis 0 when d > 1, so both kinds of
    # window sum meet in one product. Hops reach one cell: in d > 1 a torus of
    # n + 1 cells per axis, the last one empty, is the open window
    for d in [d for d in (1, 2, 3) if N**d <= 8]:
        rng = np.random.default_rng(100 * N + 10 * n_cells + d)
        hopping = random_hopping(rng, d=d, N=N)
        if dtype == "real":
            table = {key: value.real for key, value in hopping.coefficients.items()}
            hopping = HoppingOperator(hopping.geometry, table)
        geom = hopping.geometry
        potential = random_potential(rng, geom.cell_size)
        thetas = rng.uniform(0.0, 2.0 * np.pi / N, (2, d))
        thetas[1, 0] = thetas[0, 0] if d > 1 else thetas[1, 0]
        parts = [
            (complex(*rng.standard_normal(2)), theta, rng.standard_normal(geom.cell_size)
             + 1j * rng.standard_normal(geom.cell_size))
            for theta in thetas
        ]
        if d == 1:
            matrix = _dense_open_chain(hopping, potential, coupling, n_cells)
            u = _window_state(geom, parts, n_cells, n_cells)
        else:
            ones = np.ones((n_cells + 1) ** d)
            matrix = torus_structure(hopping, potential, n_cells + 1).fill(coupling, ones)
            u = _window_state(geom, parts, n_cells, n_cells + 1)
        expected = np.vdot(u, matrix @ u).real / np.vdot(u, u).real
        quotients = verification._window_quotients(hopping, potential, coupling, parts, [n_cells])
        scale = hopping.hopping_scale() + coupling * potential.norm
        assert abs(quotients[0] - expected) <= 1e-13 * scale, (d, quotients[0], expected)


def test_kirsch_simon_free_laplacian_equality():
    hopping, _, _ = preset_model("alloy", N=1, W=[0.0])
    grid = [[t] for t in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)]
    report = kirsch_simon_sandwich(hopping, grid)
    assert report.passed
    assert report.a_minus == pytest.approx(report.a_plus)


def test_kirsch_simon_diag_w():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    grid = [[t] for t in np.linspace(0.0, np.pi, 256)]
    report = kirsch_simon_sandwich(hopping, grid)
    assert report.passed
    assert 0 < report.a_minus < report.a_plus
    # a d = 1 grid may also be given as a flat array of thetas
    assert kirsch_simon_sandwich(hopping, np.linspace(0.0, np.pi, 256)) == report


@pytest.mark.parametrize("grid", [[], np.empty((0, 1))])
def test_kirsch_simon_rejects_empty_grid(grid):
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    with pytest.raises(ValueError, match="theta_grid is empty"):
        kirsch_simon_sandwich(hopping, grid)


@pytest.mark.parametrize(
    "d, grid, match",
    [
        (2, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], "shape"),  # was read as three points
        (2, [0.1, 0.2], "shape"),
        (1, [[0.1, 0.2]], "shape"),
        (1, np.zeros((2, 1, 1)), "shape"),
        (1, [0.1, np.nan], "non-finite"),  # was numpy's LinAlgError
        (2, [[0.1, np.inf]], "non-finite"),
        (1, [[0.1], [1e308]], "non-finite"),  # theta.m overflows; the report passed
    ],
)
def test_kirsch_simon_rejects_a_bad_grid_before_any_fiber(monkeypatch, d, grid, match):
    hopping, _, _ = preset_model("alloy", d=d, N=2, W=[0.0, 1.0] * 2 ** (d - 1))
    monkeypatch.setattr(HoppingOperator, "fibers", refuse("HoppingOperator.fibers"))
    with pytest.raises(ValueError, match=match):
        kirsch_simon_sandwich(hopping, grid)


@pytest.mark.parametrize("d, N", [(1, 1), (1, 3), (2, 2), (2, 3)])
def test_kirsch_simon_trial_quotient_lies_between_bottom_and_upper_side(d, N):
    # lambda_min <= v^H M v / |v|^2 <= E0(0) + upper for the plane-wave trial
    # state on the branch that attains the fold: a wrong sign of the phase or a
    # wrong branch puts the quotient above the upper side
    rng = np.random.default_rng(10 * d + N)
    for contrast in (0.5, 2.0, 8.0):
        hopping, _, _ = preset_model("alloy", d=d, N=N, W=list(rng.uniform(0.0, contrast, N**d)))
        ground = ground_space(hopping, np.zeros(d))
        psi = ground.basis[:, 0]
        thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(64, d))
        disp, kappa = verification._ks_dispersion(thetas, N)
        stack = hopping.fibers(thetas)
        geom = hopping.geometry
        quotients = verification._ks_trial_quotients(stack, psi, kappa, geom)
        upper = (psi.real.max() / psi.real.min()) ** 2 * disp
        tiny = 1e-12 * hopping.hopping_scale()
        assert (np.linalg.eigvalsh(stack)[:, 0] - tiny <= quotients).all()
        assert (quotients <= ground.e0 + upper + tiny).all()
        # it reads the lower triangle alone, as eigvalsh does
        lower = verification._ks_trial_quotients(np.tril(stack), psi, kappa, geom)
        assert np.array_equal(lower, quotients)
        # at theta = 0 the trial state is the ground state itself
        zero = np.zeros((1, d))
        at_zero = verification._ks_trial_quotients(hopping.fibers(zero), psi, zero, geom)
        assert abs(at_zero[0] - ground.e0) <= tiny


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_ks_dispersion_has_the_bits_of_the_fold_over_all_branches(d, N):
    # the fold as the minimum over the N^d branches theta + 2 pi b / N of the
    # sum over axes, and the branch argmin takes first
    thetas = np.random.default_rng(10 * d + N).uniform(-10.0, 10.0, size=(2000, d))
    branches = 2.0 * np.pi * np.array(list(itertools.product(range(N), repeat=d))) / N
    shifted = thetas[:, None, :] + branches
    folded = np.sum(2.0 * (1.0 - np.cos(shifted)), axis=2)
    kappa = shifted[np.arange(len(thetas)), folded.argmin(axis=1)]
    disp, got_kappa = verification._ks_dispersion(thetas, N)
    assert disp.tobytes() == folded.min(axis=1).tobytes()
    assert got_kappa.tobytes() == kappa.tobytes()


def test_kirsch_simon_solves_no_point_of_a_weak_alloy(monkeypatch):
    # d = 2, N = 3, W in [0, 2]: the inertia test and the trial state prove
    # every point of a 64^2 grid inside the folded sandwich
    axis = np.linspace(0.0, 2.0 * np.pi / 3, 64, endpoint=False)
    grid = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], -1)
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
    backgrounds = [np.zeros(9), 2.0 * np.eye(9)[4], np.random.default_rng(1).uniform(0.0, 2.0, 9)]
    for W in backgrounds:
        hopping, _, _ = preset_model("alloy", d=2, N=3, W=list(W))
        assert kirsch_simon_sandwich(hopping, grid).passed
    assert sum(rows) == 0


def test_kirsch_simon_refuses_an_alloy_the_perron_frobenius_check_fails():
    # min_entry = 5e-13 lies below the check's 1e-12 floor; the sandwich used to
    # pass with a_minus = 5e-13, its two sides a factor of about 1.6e49 apart
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 4e12])
    assert not perron_frobenius_check(hopping).passed
    with pytest.raises(ConvergenceError, match="not simple and strictly positive"):
        kirsch_simon_sandwich(hopping, [[0.1]])


def test_kirsch_simon_takes_its_ground_state_from_the_perron_frobenius_check():
    hopping, _, _ = preset_model("alloy", d=2, N=2, W=[0.0, 1.0, 0.5, 2.0])
    pf = perron_frobenius_check(hopping)
    fields = [f.name for f in dataclasses.fields(pf)]
    assert fields == ["applicable", "simple", "strictly_positive", "min_entry", "ground"]
    report = kirsch_simon_sandwich(hopping, [[0.1, 0.2]])
    assert report.a_minus == pf.min_entry
    assert report.a_plus == float(pf.ground.basis[:, 0].real.max())


def test_kirsch_simon_records_every_violation_and_only_those(monkeypatch):
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    grid = np.linspace(0.0, np.pi, 64)
    halve_ks_dispersion(monkeypatch)
    report = kirsch_simon_sandwich(hopping, grid)
    assert not report.passed
    e0 = perron_frobenius_check(hopping).ground.e0
    motion = np.linalg.eigvalsh(hopping.fibers(grid[:, None]))[:, 0] - e0
    disp, _ = verification._ks_dispersion(grid[:, None], 2)
    lower = (report.a_minus / report.a_plus) ** 2 * disp
    upper = (report.a_plus / report.a_minus) ** 2 * disp
    outside = (motion < lower - verification.KS_SLACK) | (motion > upper + verification.KS_SLACK)
    assert [v["theta"] for v in report.violations] == [[t] for t in grid[outside]]
    for v, i in zip(report.violations, np.flatnonzero(outside)):
        assert v["motion"] == motion[i]
        assert (v["lower"], v["upper"]) == (lower[i], upper[i])
        slack = verification.KS_SLACK
        assert not v["lower"] - slack <= v["motion"] <= v["upper"] + slack
    assert 0 < outside.sum() < len(grid)  # theta = 0 and its neighbours stay inside


def test_kirsch_simon_rejects_non_alloy():
    hopping, _, _ = preset_model("quartic")
    with pytest.raises(ValueError):
        kirsch_simon_sandwich(hopping, [[0.0]])


def test_theta_zero_both_sides_zero():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    report = kirsch_simon_sandwich(hopping, [[0.0]])
    assert report.passed
