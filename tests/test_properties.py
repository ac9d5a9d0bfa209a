import numpy as np
from hypothesis import given, settings, strategies as st

from bandedge.floquet import (
    _certificate_margin,
    _proven_above,
    build_floquet,
    grid_band_bottom,
    ground_space,
)
from bandedge.model import (
    DisorderSupport,
    HoppingOperator,
    SingleCellPotential,
    model_from_dict,
    model_to_dict,
    preset_model,
)
from bandedge.perturbation import (
    coeff_A1,
    coeff_A2,
    coeff_A2_variational,
    nondegeneracy_check,
    perturbation_matrix,
)
from bandedge.verification import (
    KS_SLACK,
    KirschSimonReport,
    _ks_dispersion,
    fiber_min_over_q,
    kirsch_simon_sandwich,
)

from conftest import random_hopping, random_potential, sign_changing

seeds = st.integers(min_value=0, max_value=10_000)
periods = st.integers(min_value=1, max_value=3)
thetas = st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False)


def _model(seed, N):
    rng = np.random.default_rng(seed)
    hopping = random_hopping(rng, N=N)
    potential = random_potential(rng, hopping.geometry.cell_size)
    disorder = sign_changing(rng)
    return hopping, potential, disorder


@settings(max_examples=40, deadline=None)
@given(seed=seeds, N=periods, theta=thetas)
def test_sign_coefficients_nonpositive(seed, N, theta):
    hopping, potential, disorder = _model(seed, N)
    ground = ground_space(hopping, [theta % (2 * np.pi / N)])
    pert = perturbation_matrix(ground, potential)
    tol = 1e-10 * (1.0 + potential.norm * disorder.coupling_scale)
    assert coeff_A1(pert, disorder) <= tol
    if ground.gap is not None and ground.gap > 1e-6:
        assert coeff_A2(ground, pert, potential, disorder) <= tol


@settings(max_examples=100, deadline=None)
@given(seed=seeds, N=st.integers(min_value=2, max_value=3), positive=st.booleans())
def test_closed_form_matches_variational(seed, N, positive):
    # positive couplings take the second order over V01 instead of the ground space
    hopping, potential, disorder = _model(seed, N)
    if positive:
        disorder = DisorderSupport(0.5, 1.5)
    ground = ground_space(hopping, [0.4])
    if ground.gap is None or ground.gap < 0.1:
        return
    pert = perturbation_matrix(ground, potential)
    closed = coeff_A2(ground, pert, potential, disorder)
    variational = coeff_A2_variational(ground, pert, potential, disorder)
    assert abs(closed - variational) <= 1e-8 * (1.0 + abs(closed))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, N=periods, theta=thetas)
def test_flip_symmetry(seed, N, theta):
    # (V, s-, s+) -> (-V, -s+, -s-) leaves both coefficients invariant
    hopping, potential, disorder = _model(seed, N)
    ground = ground_space(hopping, [theta % (2 * np.pi / N)])
    flipped_v = SingleCellPotential(-potential.matrix)
    flipped_s = DisorderSupport(-disorder.s_plus, -disorder.s_minus)
    pert = perturbation_matrix(ground, potential)
    pert_f = perturbation_matrix(ground, flipped_v)
    assert abs(coeff_A1(pert, disorder) - coeff_A1(pert_f, flipped_s)) < 1e-10
    if ground.gap is not None and ground.gap > 1e-6:
        a = coeff_A2(ground, pert, potential, disorder)
        b = coeff_A2(ground, pert_f, flipped_v, flipped_s)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, N=periods, c=st.floats(min_value=0.1, max_value=10.0))
def test_scaling_covariance(seed, N, c):
    # V -> cV together with (s-, s+) -> (s-/c, s+/c) leaves coefficients fixed
    hopping, potential, disorder = _model(seed, N)
    ground = ground_space(hopping, [0.3])
    scaled_v = SingleCellPotential(c * potential.matrix)
    scaled_s = DisorderSupport(disorder.s_minus / c, disorder.s_plus / c)
    pert = perturbation_matrix(ground, potential)
    pert_s = perturbation_matrix(ground, scaled_v)
    a1 = coeff_A1(pert, disorder)
    assert abs(a1 - coeff_A1(pert_s, scaled_s)) <= 1e-9 * (1.0 + abs(a1))
    if ground.gap is not None and ground.gap > 1e-6:
        a2 = coeff_A2(ground, pert, potential, disorder)
        assert abs(a2 - coeff_A2(ground, pert_s, scaled_v, scaled_s)) <= 1e-8 * (1.0 + abs(a2))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, N=periods)
def test_serialization_round_trip(seed, N):
    rng = np.random.default_rng(seed)
    hopping = random_hopping(rng, N=N)
    potential = random_potential(rng, hopping.geometry.cell_size)
    disorder = sign_changing(rng)
    h2, p2, d2 = model_from_dict(model_to_dict(hopping, potential, disorder))
    assert h2.coefficients == hopping.coefficients
    assert np.array_equal(p2.matrix, potential.matrix)
    assert (d2.s_minus, d2.s_plus) == (disorder.s_minus, disorder.s_plus)


def _random_table(seed, d, N, real):
    hopping = random_hopping(np.random.default_rng(seed), d=d, N=N)
    return HoppingOperator(hopping.geometry, {k: v.real for k, v in hopping}) if real else hopping


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    d=st.integers(min_value=1, max_value=2),
    N=periods,
    real=st.booleans(),
    t1=st.tuples(thetas, thetas),
    t2=st.tuples(thetas, thetas),
)
def test_lambda_min_lipschitz(seed, d, N, real, t1, t2):
    hopping = _random_table(seed, d, N, real)
    L = hopping.lipschitz_bound()
    a = float(np.linalg.eigvalsh(build_floquet(hopping, t1[:d]).matrix)[0])
    b = float(np.linalg.eigvalsh(build_floquet(hopping, t2[:d]).matrix)[0])
    assert abs(a - b) <= L * np.abs(np.subtract(t1[:d], t2[:d])).max() + 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=seeds, d=st.integers(min_value=1, max_value=2), N=periods, real=st.booleans())
def test_lipschitz_bound_never_exceeds_the_entry_sum(seed, d, N, real):
    # ||H_m||_2 <= sqrt(||H_m||_1 ||H_m||_inf) <= sum |H_m(k, k')|; equal on 1 x 1
    # blocks (N = 1), where only the rounding up can put the bound above
    hopping = _random_table(seed, d, N, real)
    entry_sum = sum(abs(v) * sum(map(abs, m)) for (_, _, m), v in hopping)
    bound = hopping.lipschitz_bound()
    assert bound <= entry_sum * (1 + 1e-13)
    if N > 1:
        assert bound < entry_sum


@settings(max_examples=40, deadline=None)
@given(seed=seeds, d=st.integers(min_value=1, max_value=2), N=periods, real=st.booleans())
def test_lipschitz_bound_never_exceeds_the_block_sum(seed, d, N, real):
    # the block sum sum_m |m|_1 sqrt(||H_m||_1 ||H_m||_inf), with the same rounding up
    hopping = _random_table(seed, d, N, real)
    block_sum = 0.0
    for m, block in zip(hopping.offsets, np.abs(hopping.blocks)):
        block_sum += np.abs(m).sum() * np.sqrt(block.sum(0).max() * block.sum(1).max())
    rounding = 1 + (hopping.geometry.cell_size + len(hopping.blocks) + 4) * np.finfo(float).eps
    assert hopping.lipschitz_bound() <= block_sum * rounding * (1 + 1e-13)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    preset=st.sampled_from([None, "anderson", "dipole", "quartic"]),
    N=periods,
    theta=thetas,
    eps=st.floats(min_value=0.0, max_value=2.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_endpoint_guard_never_fires(seed, preset, N, theta, eps, fractions):
    # lambda_min(M + eps q V) is concave in q, so no coupling inside the
    # support goes below the endpoint minimum the sweep returns
    hopping, potential, disorder = _model(seed, N) if preset is None else preset_model(preset)
    theta = [theta % (2 * np.pi / hopping.geometry.N)]
    result = fiber_min_over_q(hopping, potential, disorder, theta, eps)
    base = build_floquet(hopping, theta).matrix
    for f in fractions:
        q = disorder.s_minus + f * (disorder.s_plus - disorder.s_minus)
        bottom = np.linalg.eigvalsh(base + eps * q * potential.matrix)[0]
        assert result.value <= bottom + 1e-12 * (1.0 + abs(bottom))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, N=periods, theta=thetas)
def test_degenerate_biconditional(seed, N, theta):
    # no action on the ground space is the same as both coefficients vanishing
    hopping, potential, disorder = _model(seed, N)
    ground = ground_space(hopping, [theta % (2 * np.pi / N)])
    if ground.gap is not None and ground.gap < 1e-3:
        return
    pert = perturbation_matrix(ground, potential)
    a1 = coeff_A1(pert, disorder)
    a2 = 0.0 if ground.gap is None else coeff_A2(ground, pert, potential, disorder)
    tol = 1e-8 * (1.0 + potential.norm * disorder.coupling_scale)
    assert nondegeneracy_check(ground, potential) == (abs(a1) + abs(a2) > tol)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    d=st.integers(min_value=1, max_value=2),
    N=periods,
    n=st.integers(min_value=1, max_value=20),
    real=st.booleans(),
    perturbed=st.booleans(),
    window=st.sampled_from([0.0, 1e-9, 1e-3]),
)
def test_pruned_grid_keeps_every_point_near_its_minimum(seed, d, N, n, real, perturbed, window):
    rng = np.random.default_rng(seed)
    hopping = random_hopping(rng, d=d, N=N)
    added = random_potential(rng, hopping.geometry.cell_size).matrix if perturbed else None
    solved = np.arange(n**d)  # the point whose fiber gives each point's value
    if real:
        hopping = HoppingOperator(hopping.geometry, {k: v.real for k, v in hopping})
        added = None if added is None else added.real
        index = np.indices((n,) * d).reshape(d, -1)
        solved = np.minimum(solved, np.ravel_multi_index(tuple(-index % n), (n,) * d))
    points, values = grid_band_bottom(hopping, n, window, added)
    full = hopping.band_bottom(points, added)[solved]
    kept = np.isfinite(values)
    assert np.array_equal(values[kept], full[kept])
    assert (full[~kept] > values.min() + window).all()
    assert values.min() == full.min()


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    d=st.integers(min_value=1, max_value=2),
    N=periods,
    contrast=st.floats(min_value=0.0, max_value=8.0),
)
def test_certified_sandwich_matches_every_point_eigensolved(seed, d, N, contrast):
    rng = np.random.default_rng(seed)
    hopping, _, _ = preset_model("alloy", d=d, N=N, W=list(rng.uniform(0.0, contrast, N**d)))
    thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=(64, d))
    thetas[0] = 0.0
    # the report with hopping.band_bottom at every point
    ground = ground_space(hopping, np.zeros(d))
    a_minus, a_plus = float(ground.basis[:, 0].real.min()), float(ground.basis[:, 0].real.max())
    disp = _ks_dispersion(thetas, N)[0]
    lower = (a_minus / a_plus) ** 2 * disp
    upper = (a_plus / a_minus) ** 2 * disp
    motion = hopping.band_bottom(thetas) - ground.e0
    violations = tuple(
        {"theta": thetas[i].tolist(), "motion": motion[i], "lower": lower[i], "upper": upper[i]}
        for i in np.flatnonzero((motion < lower - KS_SLACK) | (motion > upper + KS_SLACK))
    )
    expected = KirschSimonReport(a_minus, a_plus, len(thetas), violations)
    assert kirsch_simon_sandwich(hopping, thetas) == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]))
def test_proven_above_is_sound_within_its_margin(seed, shape):
    # cell sizes n = 1, 2, 3, 4 and 9; one shift per matrix, within a few delta
    # of its lambda_min or far from it
    rng = np.random.default_rng(seed)
    hopping = random_hopping(rng, d=shape[0], N=shape[1])
    added = random_potential(rng, hopping.geometry.cell_size).matrix
    stack = hopping.fibers(rng.uniform(-7.0, 7.0, size=(128, shape[0]))) + added
    bottoms = np.linalg.eigvalsh(stack)[:, 0]
    level = bottoms + rng.choice([1e-300, 1.0], 128) * rng.uniform(-4.0, 4.0, 128)
    shifts = level + rng.uniform(-4.0, 4.0, 128) * _certificate_margin(hopping, level, added)
    delta = _certificate_margin(hopping, shifts, added)
    proven = _proven_above(stack, shifts)
    assert proven[bottoms > shifts + delta].all()
    assert not proven[bottoms < shifts - delta].any()
