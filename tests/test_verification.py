import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bandedge import verification
from bandedge.floquet import ground_space
from bandedge.model import ConvergenceError, DisorderSupport, preset_model
from bandedge.verification import (
    KS_FOLDED,
    KS_LITERAL,
    KS_ONE_MINUS_COS,
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
)

from conftest import no_motion_model, random_hopping, random_potential, sign_changing


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


def test_fiber_min_guard_on_random_models():
    rng = np.random.default_rng(21)
    for _ in range(20):
        hopping = random_hopping(rng, N=2)
        potential = random_potential(rng, hopping.geometry.cell_size)
        disorder = sign_changing(rng)
        fiber_min_over_q(hopping, potential, disorder, [rng.uniform(0, np.pi)], 0.05)


def test_sandwich_anderson_exact():
    hopping, potential, disorder = preset_model("anderson")
    report = fiber_bound_sandwich(hopping, potential, disorder, [0.0], [1e-3, 1e-2, 1e-1])
    assert report.case == "Linear"
    assert report.passed
    for row in report.rows:
        assert row.residual == 0.0


def test_sandwich_dipole_quadratic():
    hopping, potential, disorder = preset_model("dipole")
    report = fiber_bound_sandwich(
        hopping, potential, disorder, [0.0], [1e-3, 3e-3, 1e-2, 3e-2, 1e-1]
    )
    assert report.case == "Quadratic"
    assert report.passed
    # residual is quartic in epsilon for this model
    fit = fit_exponent(
        [r.epsilon for r in report.rows], [-abs(r.residual) for r in report.rows]
    )
    assert fit.eta == pytest.approx(4.0, abs=0.05)


def test_sandwich_no_motion_nonnegative():
    hopping, potential, disorder = no_motion_model()
    report = fiber_bound_sandwich(hopping, potential, disorder, [0.0], [1e-4, 1e-3, 1e-2])
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


def test_box_constant_coupling_matches_dual_grid():
    hopping, potential, disorder = preset_model("anderson")
    for L in (1, 2, 5, 64):
        sample = box_min_eig(
            hopping, potential, disorder, 0.05, L, sampler="PeriodicConstant", q=-1.0
        )
        dual = torus_dual_minimum(hopping, potential, 0.05, -1.0, L)
        assert abs(sample.lambda_min - dual) < 1e-10
        assert sample.lambda_min == pytest.approx(-0.05, abs=1e-10)


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


@pytest.mark.parametrize("kind,d,N,L", TORUS_CASES)
def test_box_min_eig_matches_full_eigvalsh(kind, d, N, L):
    hopping, potential, disorder = MODELS[kind](d, N)
    for epsilon in (0.0, 0.3):
        sample = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=SAMPLER_UNIFORM, seed=L
        )
        reference = reference_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(reference).sum(axis=1).max()
        assert abs(sample.lambda_min - np.linalg.eigvalsh(reference)[0]) <= 1e-12 * scale


# random endpoint disorder past a lowered dense cutoff: the shifted ARPACK
# solve and its Rayleigh quotient against a full dense spectrum
SPARSE_CASES = [
    pytest.param(model, d, N, L, epsilon, id=f"{model}-d{d}-N{N}-L{L}-eps{epsilon:g}")
    for model, d, N, L in (("real", 2, 2, 20), ("real", 2, 3, 10), ("complex", 2, 2, 8))
    for epsilon in (1e-4, 0.3)
]


@pytest.mark.parametrize("kind,d,N,L,epsilon", SPARSE_CASES)
def test_box_sparse_path_matches_eigvalsh(kind, d, N, L, epsilon):
    hopping, potential, disorder = MODELS[kind](d, N)
    sample = box_min_eig(hopping, potential, disorder, epsilon, L, seed=L, dense_cutoff=10)
    matrix = assemble_torus(hopping, potential, epsilon, L, sample.omega).toarray()
    scale = np.abs(matrix).sum(axis=1).max()
    assert abs(sample.lambda_min - np.linalg.eigvalsh(matrix)[0]) <= 1e-12 * scale


def test_box_sparse_path_independent_of_earlier_arpack_calls():
    hopping, potential, disorder = preset_model("dipole", d=2)
    first = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    spla.eigsh(sp.diags(np.arange(1.0, 301.0)), k=2)  # advances ARPACK's own start-vector state
    second = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    assert first.lambda_min == second.lambda_min


def test_box_sparse_path_arpack_failure_is_named(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(verification.spla, "eigsh", no_convergence)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="on 64 sites"):
        box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)


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


def test_fit_exponent_too_few_points():
    with pytest.raises(ValueError):
        fit_exponent([1e-2, 1e-1], [-1e-2, -1e-1])


def test_quartic_trial_small_n_rejected():
    with pytest.raises(ValueError):
        quartic_trial_energy(1e-2, 0.3, n=10)
    with pytest.raises(ValueError):
        quartic_trial_energy(1e-2, 0.2)  # xi <= 1/4


def test_quartic_trial_epsilon_zero_vanishes():
    value = quartic_trial_energy(0.0, 0.3, n=2000)
    assert abs(value) < 1e-3
    larger = quartic_trial_energy(0.0, 0.3, n=8000)
    assert abs(larger) < abs(value)


def test_quartic_trial_scale():
    # the quotient tracks the epsilon^(1+2 xi) scale of the target bound
    epsilon, xi = 1e-2, 0.3
    value = quartic_trial_energy(epsilon, xi)
    assert abs(value) < 10.0 * epsilon ** (1.0 + 2.0 * xi)


def test_kirsch_simon_free_laplacian_equality():
    hopping, _, _ = preset_model("alloy", N=1, W=[0.0])
    grid = [[t] for t in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)]
    report = kirsch_simon_sandwich(hopping, grid)
    assert report.passed
    assert report.a_minus == pytest.approx(report.a_plus)


def test_kirsch_simon_diag_w():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    grid = [[t] for t in np.linspace(0.0, np.pi, 256)]
    report = kirsch_simon_sandwich(hopping, grid, variant=KS_FOLDED)
    assert report.passed
    assert 0 < report.a_minus < report.a_plus


def test_kirsch_simon_variants_differ():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    grid = [[t] for t in np.linspace(0.0, np.pi, 64)]
    literal = kirsch_simon_sandwich(hopping, grid, variant=KS_LITERAL)
    one_minus = kirsch_simon_sandwich(hopping, grid, variant=KS_ONE_MINUS_COS)
    assert not literal.passed
    assert not one_minus.passed


def test_kirsch_simon_rejects_non_alloy():
    hopping, _, _ = preset_model("quartic")
    with pytest.raises(ValueError):
        kirsch_simon_sandwich(hopping, [[0.0]])


def test_theta_zero_both_sides_zero():
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    report = kirsch_simon_sandwich(hopping, [[0.0]])
    assert report.passed
