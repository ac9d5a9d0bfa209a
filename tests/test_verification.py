import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import bandedge
from bandedge.floquet import ground_space
from bandedge.model import (
    ConvergenceError,
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
    preset_model,
)
from bandedge.perturbation import edge_coefficients
from bandedge.verification import (
    KS_FOLDED,
    KS_LITERAL,
    KS_ONE_MINUS_COS,
    SAMPLER_CONSTANT,
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


def sandwich_at_zero(hopping, potential, disorder, epsilon_list):
    ground = ground_space(hopping, [0.0])
    coeffs = edge_coefficients(ground, potential, disorder)
    return fiber_bound_sandwich(hopping, potential, disorder, ground, coeffs, epsilon_list)


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
    for epsilon in (0.0, 0.3):
        sample = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=SAMPLER_UNIFORM, seed=L
        )
        reference = reference_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(reference).sum(axis=1).max()
        assert abs(sample.lambda_min - np.linalg.eigvalsh(reference)[0]) <= 1e-12 * scale


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return refused


# 1-D rings long enough for the banded solve (reverse Cuthill-McKee gives
# half-bandwidth b = 2 to 8, and BAND_RATIO * b <= n), and one d = 2 torus
# whose band (b = 31 on 256 sites) keeps it on the dense eigh
BAND_CASES = [
    pytest.param(kind, 1, N, L, "eigh", id=f"{kind}-d1-N{N}-L{L}")
    for kind in MODELS
    for N in (1, 2, 3)
    for L in (64, 128)
] + [pytest.param("real", 2, 1, 16, "eig_banded", id="real-d2-N1-L16-dense")]


@pytest.mark.parametrize("kind,d,N,L,unused", BAND_CASES)
def test_box_banded_branch_matches_eigvalsh(kind, d, N, L, unused, monkeypatch):
    monkeypatch.setattr(f"scipy.linalg.{unused}", _refuse(unused))
    hopping, potential, disorder = MODELS[kind](d, N)
    for epsilon in (0.0, 0.3):
        sample = box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=SAMPLER_UNIFORM, seed=L
        )
        matrix = assemble_torus(hopping, potential, epsilon, L, sample.omega).toarray()
        scale = np.abs(matrix).sum(axis=1).max()
        assert abs(sample.lambda_min - np.linalg.eigvalsh(matrix)[0]) <= 1e-12 * scale


def flat_band_model():
    """A chain on site 0 and site 1 decoupled at -5, with the potential on
    the chain only: the bottom band is flat at -5 for every coupling."""
    hopping, _, disorder = no_motion_model()
    coeffs = dict(hopping.coefficients)
    coeffs[((1,), (1,), (0,))] = -5.0
    return HoppingOperator(hopping.geometry, coeffs), SingleCellPotential(np.diag([1.0, 0.0])), disorder


def test_box_banded_branch_degenerate_ground_space(monkeypatch):
    monkeypatch.setattr("scipy.linalg.eigh", _refuse("eigh"))
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


def _nan_solve(bands, band, rhs, **kwargs):
    return np.full_like(rhs, np.nan)


def _singular_solve(*args, **kwargs):
    raise np.linalg.LinAlgError("singular matrix")


@pytest.mark.parametrize(
    "solve,message",
    [(_nan_solve, "exceeds certificate bound"), (_singular_solve, "banded solve failed")],
)
def test_box_banded_branch_failure_is_named(monkeypatch, solve, message):
    monkeypatch.setattr("scipy.linalg.solve_banded", solve)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match=message):
        box_min_eig(hopping, potential, disorder, 0.05, 64)


# random endpoint disorder past a lowered dense cutoff: the filtered Lanczos
# solve and its Rayleigh quotient against a full dense spectrum
SPARSE_CASES = [
    pytest.param(model, d, N, L, epsilon, id=f"{model}-d{d}-N{N}-L{L}-eps{epsilon:g}")
    for model, d, N, L in (
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
        DisorderSupport(-1.0, 1.0, DisorderSupport.SIGN_CHANGING),
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


def test_box_sparse_path_independent_of_earlier_arpack_calls():
    hopping, potential, disorder = preset_model("dipole", d=2)
    first = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    spla.eigsh(sp.diags(np.arange(1.0, 301.0)), k=2)  # advances ARPACK's own start-vector state
    second = box_min_eig(hopping, potential, disorder, 0.01, 12, seed=5, dense_cutoff=10)
    assert first.lambda_min == second.lambda_min


def test_box_sparse_path_arpack_failure_is_named(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="on 64 sites"):
        box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)


def test_box_sparse_path_filtered_failure_is_named(monkeypatch):
    eigsh = spla.eigsh
    calls = []

    def filtered_fails(operator, *args, **kwargs):
        calls.append(kwargs["which"])
        if kwargs["which"] == "LA":
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
        return eigsh(operator, *args, **kwargs)

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", filtered_fails)
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ConvergenceError, match="on 64 sites"):
        box_min_eig(hopping, potential, disorder, 0.05, 64, dense_cutoff=10)
    assert calls == ["SA", "LA"]


def on_site_torus(value):
    """An on-site-only table in d = 2: the torus is value * I."""
    hopping = HoppingOperator(LatticeGeometry(d=2, N=1), {((0, 0), (0, 0), (0, 0)): value})
    disorder = DisorderSupport(-1.0, 1.0, DisorderSupport.SIGN_CHANGING)
    return hopping, SingleCellPotential(np.eye(1)), disorder


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value,epsilon,expected", [(1.0, 0.0, 1.0), (1.0, 0.1, 1.1), (0.0, 0.0, 0.0)]
)
def test_box_sparse_path_multiple_of_identity(value, epsilon, expected):
    # 6,400 sites, past the cutoff: the filter interval [lo, scale] has zero
    # width, so the coarse Ritz pair goes to the certificate as it is
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
        (lambda: preset_model("anderson"), 0.05, 0, 1.0, "L must be a positive integer"),
        (lambda: preset_model("anderson"), 0.05, 2.0, 1.0, "L must be a positive integer"),
        (lambda: preset_model("anderson"), -0.01, 64, 1.0, "epsilon must be finite"),
        (lambda: preset_model("anderson"), float("inf"), 64, 1.0, "epsilon must be finite"),
        (lambda: preset_model("anderson", d=2), 0.05, 72, float("nan"), "q must be finite"),
        (_nan_table, 0.05, 72, 1.0, "hopping amplitudes and potential entries"),
    ],
    ids=["L0", "L-float", "eps-negative", "eps-inf", "q-nan", "hopping-nan"],
)
def test_box_rejects_bad_input_before_assembly(monkeypatch, capfd, model, epsilon, L, q, message):
    monkeypatch.setattr("bandedge.verification.assemble_torus", _refuse("assemble_torus"))
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", _refuse("eigsh"))
    hopping, potential, disorder = model()
    with pytest.raises(ValueError, match=message):
        box_min_eig(hopping, potential, disorder, epsilon, L, sampler=SAMPLER_CONSTANT, q=q)
    assert capfd.readouterr().err == ""


def test_box_one_site_torus_takes_dense_path():
    hopping, potential, disorder = preset_model("anderson")
    sample = box_min_eig(hopping, potential, disorder, 0.05, 1, seed=3, dense_cutoff=0)
    matrix = assemble_torus(hopping, potential, 0.05, 1, sample.omega)
    assert matrix.shape == (1, 1)
    assert sample.lambda_min == matrix[0, 0]


# a fresh interpreter: which scipy modules are loaded after each step
SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules]
steps = []
import bandedge
steps.append(loaded())
import bandedge.cli
steps.append(loaded())
from bandedge import pipeline
config = pipeline.RunConfig(model="dipole", epsilon_list=(1e-3, 1e-2), model_params={"d": 2})
assert pipeline.run_pipeline(config)[0] == 0
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
    assert json.loads(out) == [[], [], [], ["scipy.linalg", "scipy.sparse"]]


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
