import warnings

import numpy as np
import pytest

from bandedge import floquet
from bandedge.floquet import (
    MAX_REFINEMENTS,
    build_floquet,
    fiber_eigh,
    grid_band_bottom,
    ground_space,
    scan_theta_set,
)
from bandedge.model import (
    FIBER_CHUNK,
    HoppingOperator,
    LatticeGeometry,
    preset_model,
    save_model,
    shift_to_zero,
)
from bandedge.pipeline import RunConfig, run_pipeline

from conftest import PIPELINE_PRESETS, random_hopping, random_potential, refuse, sign_changing

NAN = float("nan")


def test_anderson_fiber_is_dispersion():
    hopping, _, _ = preset_model("anderson")
    for theta in (0.0, 0.4, 2.0, 5.1):
        fiber = build_floquet(hopping, [theta])
        assert fiber.matrix.shape == (1, 1)
        assert fiber.matrix[0, 0] == pytest.approx(2.0 - 2.0 * np.cos(theta), abs=1e-14)


def test_dipole_fiber_at_zero():
    hopping, _, _ = preset_model("dipole")
    matrix = build_floquet(hopping, [0.0]).matrix
    assert np.allclose(matrix, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-14)


def test_quartic_fiber_at_zero():
    hopping, _, _ = preset_model("quartic")
    matrix = build_floquet(hopping, [0.0]).matrix
    assert np.allclose(matrix, 9.0 * np.eye(3) - 3.0 * np.ones((3, 3)), atol=1e-14)


def test_fiber_theta_zero_collapses_to_coefficient_sums():
    rng = np.random.default_rng(3)
    hopping = random_hopping(rng, N=2)
    matrix = build_floquet(hopping, [0.0]).matrix
    geom = hopping.geometry
    expected = np.zeros_like(matrix)
    for (k, kp, m), value in hopping:
        expected[geom.site_index(k), geom.site_index(kp)] += value
    assert np.allclose(matrix, 0.5 * (expected + expected.conj().T), atol=1e-13)


def test_build_floquet_is_exactly_hermitian():
    rng = np.random.default_rng(6)
    for d, N in [(1, 3), (2, 2), (3, 1)]:
        hopping = random_hopping(rng, d=d, N=N)
        for theta in rng.uniform(-7.0, 7.0, size=(5, d)):
            matrix = build_floquet(hopping, theta).matrix
            assert np.array_equal(matrix, matrix.conj().T)


def test_fiber_eigh_certifies_pairs():
    hopping, _, _ = preset_model("dipole")
    eigenvalues, vectors = fiber_eigh(build_floquet(hopping, [0.0]))
    assert np.allclose(eigenvalues, [0.0, 4.0], atol=1e-12)
    assert abs(abs(np.vdot(vectors[:, 0], np.ones(2) / np.sqrt(2))) - 1.0) < 1e-12


def test_scan_anderson_unique_minimizer():
    hopping, _, _ = preset_model("anderson")
    theta_set = scan_theta_set(hopping)
    assert len(theta_set.minimizers) == 1
    assert np.allclose(theta_set.minimizers[0], [0.0], atol=1e-6)
    assert abs(theta_set.E0) <= 1e-9


def test_scan_quartic_unique_minimizer_despite_flatness():
    hopping, _, _ = preset_model("quartic")
    theta_set = scan_theta_set(hopping)
    assert len(theta_set.minimizers) == 1
    assert np.allclose(theta_set.minimizers[0], [0.0], atol=1e-3)
    assert abs(theta_set.E0) <= 1e-9


def test_scan_finds_interior_minimizer():
    # twisted hopping gives the band 2 - 2cos(theta + 1), minimized at 2 pi - 1
    hopping, _, _ = preset_model("anderson")
    coeffs = dict(hopping.coefficients)
    coeffs[((0,), (0,), (1,))] = -np.exp(-1j)
    coeffs[((0,), (0,), (-1,))] = -np.exp(1j)
    shifted = type(hopping)(hopping.geometry, coeffs)
    theta_set = scan_theta_set(shifted)
    assert len(theta_set.minimizers) == 1
    assert theta_set.minimizers[0][0] == pytest.approx(2.0 * np.pi - 1.0, abs=5e-4)


def test_scan_keeps_the_lowest_candidates():
    # deep rounds tie many neighbours at exactly 0.0; the head at theta = 0
    # lists itself first among them and so stays put
    hopping, _, _ = preset_model("anderson")
    theta_set = scan_theta_set(hopping, 64, 24)
    assert len(theta_set.minimizers) == 1
    assert theta_set.minimizers[0][0] == 0.0
    assert hopping.band_bottom(np.array(theta_set.minimizers))[0] == 0.0
    assert theta_set.E0 == 0.0


@pytest.mark.parametrize("refinements", [40, 45, 50, 58])
def test_scan_deep_refinement_keys_do_not_overflow(refinements):
    hopping, _, _ = preset_model("anderson")
    theta_set = scan_theta_set(hopping, 64, refinements)
    assert np.array(theta_set.minimizers).tolist() == [[0.0]]
    assert theta_set.E0 == 0.0


@pytest.mark.parametrize(
    "grid, refinements",
    [(0, 6), (-1, 6), (64.5, 6), (True, 6), (64, -1), (64, MAX_REFINEMENTS + 1)],
)
def test_scan_rejects_bad_arguments(grid, refinements):
    hopping, _, _ = preset_model("anderson")
    with pytest.raises(ValueError, match="grid_per_dim|refinements"):
        scan_theta_set(hopping, grid, refinements)


@pytest.mark.parametrize(
    "n, window",
    [(0, 0.0), (-3, 0.0), (8.0, 0.0), (True, 0.0), (8, -1e-9), (8, NAN), (8, np.inf)],
)
def test_grid_band_bottom_rejects_bad_arguments(monkeypatch, n, window):
    monkeypatch.setattr(HoppingOperator, "band_bottom", refuse("band_bottom"))
    monkeypatch.setattr(HoppingOperator, "fibers", refuse("fibers"))
    hopping, _, _ = preset_model("dipole", d=2)
    with pytest.raises(ValueError, match="^(n|window) must be"):
        grid_band_bottom(hopping, n, window)


@pytest.mark.parametrize(
    "tol_theta, tol_shift",
    [(NAN, None), (-1e-9, None), (0.0, None), (np.inf, None), (1e-9, NAN), (1e-9, -1e-9),
     (1e-9, 0.0), (1e-9, np.inf)],
)
def test_scan_rejects_bad_tolerances(monkeypatch, tol_theta, tol_shift):
    def refuse(*args, **kwargs):
        raise AssertionError("band solved before the tolerances were checked")

    monkeypatch.setattr(HoppingOperator, "band_bottom", refuse)
    hopping, _, _ = preset_model("dipole", d=2)
    with pytest.raises(ValueError, match="tol_(theta|shift) must be finite and positive"):
        scan_theta_set(hopping, tol_theta=tol_theta, tol_shift=tol_shift)


def test_ground_space_dipole():
    hopping, _, _ = preset_model("dipole")
    ground = ground_space(hopping, [0.0])
    assert ground.p == 1
    assert ground.gap == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(ground.basis[:, 0], np.ones(2) / np.sqrt(2), atol=1e-12)


def test_ground_space_quartic():
    hopping, _, _ = preset_model("quartic")
    ground = ground_space(hopping, [0.0])
    assert ground.p == 1
    assert ground.gap == pytest.approx(9.0, abs=1e-10)
    assert np.allclose(ground.basis[:, 0], np.ones(3) / np.sqrt(3), atol=1e-10)
    assert np.allclose(sorted(ground.eigenvalues), [0.0, 9.0, 9.0], atol=1e-10)


def test_ground_space_anderson_no_gap():
    hopping, _, _ = preset_model("anderson")
    ground = ground_space(hopping, [0.0])
    assert ground.p == 1
    assert ground.gap is None
    assert np.allclose(ground.basis, [[1.0]])


def test_ground_space_phase_fixed():
    rng = np.random.default_rng(5)
    hopping = random_hopping(rng, N=3)
    ground = ground_space(hopping, [0.7])
    for j in range(ground.p):
        column = ground.basis[:, j]
        pivot = column[int(np.argmax(np.abs(column)))]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-12
    # orthonormal
    gram = ground.basis.conj().T @ ground.basis
    assert np.abs(gram - np.eye(ground.p)).max() < 1e-10


def test_ground_space_residual_bound():
    rng = np.random.default_rng(9)
    hopping = random_hopping(rng, N=2)
    ground = ground_space(hopping, [0.3])
    residual = np.abs(
        ground.fiber.matrix @ ground.basis - ground.e0 * ground.basis
    ).max()
    norm = float(np.abs(ground.eigenvalues).max())  # the 2-norm of the Hermitian fiber
    tol_deg = max(1e-10, 1e-8 * norm)
    assert residual <= tol_deg * max(norm, 1.0)


def _fiber_reference(hopping, theta) -> np.ndarray:
    """The fiber at one theta, one table entry at a time."""
    geom = hopping.geometry
    matrix = np.zeros((geom.cell_size, geom.cell_size), dtype=complex)
    for (k, kp, m), value in hopping:
        phase = np.exp(-1j * float(np.dot(theta, m)))
        matrix[geom.site_index(k), geom.site_index(kp)] += phase * value
    return matrix


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_fibers_match_per_theta_reference(d, N):
    rng = np.random.default_rng(10 * d + N)
    hopping = random_hopping(rng, d=d, N=N)
    scale = hopping.hopping_scale()
    thetas = rng.uniform(-7.0, 7.0, size=(1000, d))
    full = hopping.fibers(thetas)
    assert full.shape == (1000, hopping.geometry.cell_size, hopping.geometry.cell_size)
    for batch in (1, FIBER_CHUNK - 1, FIBER_CHUNK, 1000):
        fibers = hopping.fibers(thetas[:batch])
        # a theta's matrix does not depend on the batch it is evaluated in
        assert np.array_equal(fibers, full[:batch])
        for i in sorted({0, batch // 2, batch - 1}):
            reference = _fiber_reference(hopping, thetas[i])
            assert np.abs(fibers[i] - reference).max() <= 1e-13 * scale
            assert np.array_equal(hopping.fiber(thetas[i]), fibers[i])


@pytest.mark.parametrize("d, N", [(1, 3), (2, 2), (3, 1)])
def test_band_bottom_matches_per_theta_eigvalsh(d, N):
    rng = np.random.default_rng(d + 7 * N)
    hopping = random_hopping(rng, d=d, N=N)
    potential = random_potential(rng, hopping.geometry.cell_size).matrix
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(1000, d))
    tol = 1e-13 * (hopping.hopping_scale() + np.abs(potential).sum())
    references = [_fiber_reference(hopping, t) for t in thetas]
    for added in (None, potential):
        shift = 0.0 if added is None else added
        expected = np.array([np.linalg.eigvalsh(m + shift)[0] for m in references])
        for batch in (1, FIBER_CHUNK - 1, FIBER_CHUNK, 1000):
            bottoms = hopping.band_bottom(thetas[:batch], added)
            assert bottoms.shape == (batch,)
            assert np.abs(bottoms - expected[:batch]).max() <= tol


def _shift_then_scan(hopping):
    """The zone scanned twice: once to shift, once for the minimizers."""
    shifted = shift_to_zero(hopping, 64)
    return shifted.energy_shift, scan_theta_set(shifted)


@pytest.mark.parametrize("name, params", PIPELINE_PRESETS)
def test_single_scan_equals_shift_then_scan_presets(name, params):
    status, report = run_pipeline(RunConfig(model=name, model_params=params))
    assert status == 0
    shift, theta_set = _shift_then_scan(preset_model(name, **params)[0])
    assert report["energy_shift"] == shift
    assert report["coefficients"]["E0"] == theta_set.E0
    minimizers = [list(map(float, t)) for t in theta_set.minimizers]
    assert report["coefficients"]["minimizers"] == minimizers


def test_single_scan_matches_shift_then_scan_random(tmp_path):
    rng = np.random.default_rng(31)
    for i, (d, N) in enumerate([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]):
        hopping = random_hopping(rng, d=d, N=N)
        path = tmp_path / f"random{i}.json"
        save_model(
            path, hopping, random_potential(rng, hopping.geometry.cell_size), sign_changing(rng)
        )
        status, report = run_pipeline(RunConfig(model=str(path)))
        assert status == 0
        shift, theta_set = _shift_then_scan(hopping)
        assert abs(report["energy_shift"] - shift) <= 1e-12
        assert abs(report["coefficients"]["E0"] - theta_set.E0) <= 1e-12
        minimizers = report["coefficients"]["minimizers"]
        assert len(minimizers) == len(theta_set.minimizers)
        assert np.abs(np.array(minimizers) - np.array(theta_set.minimizers)).max() <= 1e-12


def _count_solved(monkeypatch) -> dict[str, list[int]]:
    """Record the thetas of every band_bottom call, the fibers of every
    inertia test and the matrices of every eigvalsh call."""
    counts: dict[str, list[int]] = {"band_bottom": [], "tested": [], "eigvalsh": []}

    def counting(name, solve, size):
        def counted(*args, **kwargs):
            counts[name].append(size(*args))
            return solve(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        HoppingOperator,
        "band_bottom",
        counting("band_bottom", HoppingOperator.band_bottom, lambda _, thetas, *rest: len(thetas)),
    )
    monkeypatch.setattr(
        floquet, "_proven_above", counting("tested", floquet._proven_above, lambda s, _: len(s))
    )
    monkeypatch.setattr(
        np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh, lambda s, *_: len(s))
    )
    return counts


def _orbits(n: int, d: int) -> np.ndarray:
    """The first grid index of each point's orbit under j -> (-j) mod n."""
    index = np.indices((n,) * d).reshape(d, -1)
    return np.minimum(np.arange(n**d), np.ravel_multi_index(tuple(-index % n), (n,) * d))


# pairs off the coarse lines that the anchor bound does not clear, so that
# they go to the inertia test, without and with the perturbation
OPEN_PAIRS = {
    ("anderson", 1): (5, 5),
    ("anderson", 2): (136, 136),
    ("dipole", 1): (7, 7),
    ("dipole", 2): (326, 326),
    ("quartic", 1): (26, 27),
    ("alloy", 1): (12, 12),
    ("alloy", 2): (775, 775),
}


@pytest.mark.parametrize("name, params", PIPELINE_PRESETS)
def test_grid_band_bottom_folds_real_tables(monkeypatch, name, params):
    hopping, potential, _ = preset_model(name, **params)
    geom = hopping.geometry
    axis = np.arange(64) * (2.0 * np.pi / geom.N / 64)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([axis] * geom.d), indexing="ij")], -1)
    scale = hopping.hopping_scale() + np.abs(potential.matrix).sum()
    orbits = _orbits(64, geom.d)
    for added, open_pairs in zip((None, 0.3 * potential.matrix), OPEN_PAIRS[name, geom.d]):
        full = hopping.band_bottom(grid, added)
        counts = _count_solved(monkeypatch)
        points, values = grid_band_bottom(hopping, 64, 1e-9, added)
        monkeypatch.undo()
        solved = np.isfinite(values)
        # one point per orbit of j -> (-j) mod 64: 2 + 62/2 per axis pair;
        # the upper bound takes the orbits of every 8th point: 2 + 6/2, and
        # they keep their bottoms; of the other 28 (d = 1) or 2,016 (d = 2),
        # the inertia test gets those the anchors do not clear
        coarse = {1: 5, 2: 34}[geom.d]
        assert open_pairs <= {1: 33, 2: 2050}[geom.d] - coarse
        assert counts["band_bottom"] == [coarse, open_pairs]
        assert sum(counts["tested"]) == open_pairs
        assert sum(counts["eigvalsh"]) == len(np.unique(orbits[solved]))
        assert np.array_equal(solved, solved[orbits])
        assert np.array_equal(points, grid)
        assert np.abs(values[solved] - full[solved]).max() <= 1e-14 * scale
        assert (full[~solved] > values.min() + 1e-9).all()
        assert abs(values.min() - full.min()) <= 1e-14 * scale


@pytest.mark.parametrize("d, N", [(1, 3), (2, 2)])
def test_grid_band_bottom_solves_every_point_when_complex(monkeypatch, d, N):
    # points off the coarse lines that the anchors do not clear: complex table, real plus V
    open_points = {(1, 3): (14, 12), (2, 2): (252, 252)}[d, N]
    rng = np.random.default_rng(4 * d + N)
    complex_table = random_hopping(rng, d=d, N=N)
    real_table = HoppingOperator(complex_table.geometry, {k: v.real for k, v in complex_table})
    potential = random_potential(rng, complex_table.geometry.cell_size).matrix
    cases = ((complex_table, None), (real_table, potential))
    for (hopping, added), opened in zip(cases, open_points):
        full = hopping.band_bottom(grid_band_bottom(hopping, 16, 0.0)[0], added)
        counts = _count_solved(monkeypatch)
        _, values = grid_band_bottom(hopping, 16, 1e-3, added)
        monkeypatch.undo()
        solved = np.isfinite(values)
        # the upper bound takes every 8th point per axis: 2^d of them, each
        # solved once; of the rest, those the anchors do not clear go
        # through the inertia test
        assert counts["band_bottom"] == [2**d, opened]
        assert counts["tested"] == [opened]
        assert sum(counts["eigvalsh"]) == solved.sum()
        assert np.array_equal(values[solved], full[solved])
        assert (full[~solved] > full.min() + 1e-3).all()
        assert values.min() == full.min()


@pytest.mark.parametrize("d", [1, 2])
def test_anchor_bound_clears_only_points_above_the_level(monkeypatch, d):
    # no n is a multiple of COARSE_STRIDE: each axis's last coarse cell ends at
    # the period, and on a folded grid of 30 points the coarse points 16 and 24
    # have their pair's first point (14, 6) off the coarse lines, so they
    # anchor nothing; below 8 the only anchor is the point 0
    cleared = 0
    for n in (3, 5, 7, 30):
        rng = np.random.default_rng(10 * n + d)
        first = _orbits(n, d)
        for N in (1, 2, 3)[: 4 - d]:
            complex_table = random_hopping(rng, d=d, N=N)
            geom = complex_table.geometry
            real_table = HoppingOperator(geom, {k: v.real for k, v in complex_table})
            added = random_potential(rng, geom.cell_size).matrix.real
            cases = ((complex_table, None, np.arange(n**d)), (real_table, added, first))
            for hopping, perturbation, pairs in cases:
                full = hopping.band_bottom(floquet.zone_grid(geom, n), perturbation)
                full = full[pairs]  # the bottom each point gets: its pair's first point's
                width = full.max() - full.min()
                for window in (0.0, 0.01 * width, 0.2 * width, 0.5 * width):
                    counts = _count_solved(monkeypatch)
                    _, values = grid_band_bottom(hopping, n, window, perturbation)
                    monkeypatch.undo()
                    kept = np.isfinite(values)
                    assert np.array_equal(values[kept], full[kept])
                    assert (full[~kept] > values.min() + window).all()
                    assert values.min() == full.min()
                    coarse, opened = counts["band_bottom"]
                    cleared += len(np.unique(pairs)) - coarse - opened
    assert cleared > 0  # points the anchors cleared before any inertia test


def _flat_bottom(d: int, decoupled: bool) -> HoppingOperator:
    """A bottom band flat at -5 from a decoupled site beside a hopping chain,
    or flat at -2 from the interference of an inter-cell bond, where
    M = -1 - [[0, e^(-2i theta)], [e^(2i theta), 0]] holds -2 only to rounding."""
    geom = LatticeGeometry(d, 2)
    zero, a, b = (0,) * d, (0,) * d, (1,) + (0,) * (d - 1)
    if not decoupled:
        bond = (2,) + (0,) * (d - 1)
        back = tuple(-x for x in bond)
        return HoppingOperator(
            geom, {(a, a, zero): -1.0, (b, b, zero): -1.0, (a, b, bond): -1.0, (b, a, back): -1.0}
        )
    coeffs = {(a, a, zero): 2.0 * d, (b, b, zero): -5.0}
    for axis in range(d):
        step = tuple(2 * (i == axis) for i in range(d))
        coeffs[(a, a, step)] = coeffs[(a, a, tuple(-x for x in step))] = -1.0
    return HoppingOperator(geom, coeffs)


@pytest.mark.parametrize("decoupled", [True, False], ids=["decoupled", "interference"])
def test_flat_bottom_band_prunes_nothing(monkeypatch, decoupled):
    for d in (1, 2):
        hopping = _flat_bottom(d, decoupled)
        for window in (0.0, 1e-9):
            points, values = grid_band_bottom(hopping, 64, window)
            full = hopping.band_bottom(points)
            assert np.isfinite(values).all()
            assert np.abs(values - full).max() <= 4e-16 * hopping.hopping_scale()
    # the scan of a pruned grid is the scan of the full grid
    hopping = _flat_bottom(1, decoupled)
    pruned = scan_theta_set(hopping)
    grid = floquet.grid_band_bottom
    monkeypatch.setattr(floquet, "grid_band_bottom", lambda h, n, window: grid(h, n, 1e300))
    full = scan_theta_set(hopping)
    assert np.array_equal(pruned.minimizers, full.minimizers)
    assert (pruned.E0, pruned.resolution) == (full.E0, full.resolution)


def test_scan_refines_one_point_per_cluster(monkeypatch):
    # the flat band puts the whole 64^2 grid within tol_theta, one cluster;
    # each round solves the 3^d neighbours of that cluster's head alone
    hopping = _flat_bottom(2, decoupled=True)
    assert np.isfinite(grid_band_bottom(hopping, 64, floquet.DEFAULT_TOL_THETA)[1]).all()
    counts = _count_solved(monkeypatch)
    theta_set = scan_theta_set(hopping)
    monkeypatch.undo()
    assert len(theta_set.minimizers) == 1
    assert counts["band_bottom"][2:] == [3**2] * floquet.DEFAULT_REFINEMENTS


def test_zone_grid_matches_linspace_bits():
    for d, N, n in [(1, 1, 64), (1, 3, 7), (2, 2, 16), (3, 3, 5)]:
        axis = np.linspace(0.0, 2.0 * np.pi / N, n, endpoint=False)
        mesh = np.meshgrid(*[axis] * d, indexing="ij")
        expected = np.stack([g.ravel() for g in mesh], -1)
        assert np.array_equal(floquet.zone_grid(LatticeGeometry(d, N), n), expected)


def test_scan_keeps_a_near_tie_within_tol_theta():
    # two decoupled chains, bands -2 cos(2 theta) and 1e-10 + 2 cos(2 theta):
    # grid minima at theta = 0 and pi/2, 1e-10 apart
    a, b = (0,), (1,)
    coeffs = {(a, a, (2,)): -1.0, (a, a, (-2,)): -1.0, (b, b, (2,)): 1.0, (b, b, (-2,)): 1.0}
    hopping = HoppingOperator(LatticeGeometry(1, 2), {**coeffs, (b, b, (0,)): 1e-10})
    _, values = grid_band_bottom(hopping, 64, 1e-9)
    assert np.isfinite(values[[0, 32]]).all() and 0 < values[32] - values[0] <= 1e-9
    theta_set = scan_theta_set(hopping)
    assert [float(t[0]) for t in theta_set.minimizers] == pytest.approx([0.0, np.pi / 2], abs=1e-6)


def test_proven_above_takes_one_shift_per_matrix():
    rng = np.random.default_rng(5)
    stack = random_hopping(rng, d=2, N=2).fibers(rng.uniform(0.0, np.pi, size=(64, 2)))
    shifts = np.linalg.eigvalsh(stack)[:, 0] + rng.uniform(-1e-3, 1e-3, 64)
    proven = floquet._proven_above(stack, shifts)
    rowwise = [floquet._proven_above(m[None], s)[0] for m, s in zip(stack, shifts)]
    assert np.array_equal(proven, rowwise)
    assert proven.any() and not proven.all()
    scalar = floquet._proven_above(stack, 0.1)
    assert np.array_equal(floquet._proven_above(stack, np.full(64, 0.1)), scalar)


def test_proven_above_never_proves_a_nan_or_overflowing_factor():
    # each matrix is 10 I with one entry spoiled; a NaN pivot or a column that
    # overflows passes potrf's own test, and only the pivot check catches them
    stack = np.tile(10.0 * np.eye(3, dtype=complex), (7, 1, 1))
    stack[0, 2, 0] = NAN  # NaN below the diagonal
    stack[1, 0, 0] = NAN  # NaN pivot, leading
    stack[2, 2, 2] = NAN  # NaN pivot, trailing
    stack[3, 1, 1], stack[3, 2, 1] = 1e-300, 1e200  # column that overflows
    stack[4, 1, 0] = complex(0.0, NAN)  # NaN imaginary part below the diagonal
    stack[5, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proven = floquet._proven_above(stack, 0.0)
    assert proven.tolist() == [False] * 6 + [True]


def test_proven_above_ignores_the_strict_upper_triangle():
    rng = np.random.default_rng(9)
    for d, N in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
        stack = random_hopping(rng, d=d, N=N).fibers(rng.uniform(0.0, 7.0, size=(64, d)))
        shifts = np.linalg.eigvalsh(stack)[:, 0] + rng.uniform(-1e-3, 1e-3, 64)
        expected = floquet._proven_above(stack, shifts)
        upper = np.triu(np.ones(stack.shape[1:], dtype=bool), 1)
        for garbage in (NAN, np.inf, 1e300, complex(-5.0, 7.0)):
            spoiled = np.where(upper, garbage, stack)
            assert np.array_equal(floquet._proven_above(spoiled, shifts), expected)


def test_cholesky_gufunc_keeps_the_contract_proven_above_needs():
    # floquet._proven_above calls numpy's private batched ?potrf gufunc; a numpy
    # that breaks any of these would weaken its certificate without an error
    gufunc = getattr(np.linalg._umath_linalg, "cholesky_lo", None)
    message = "numpy's cholesky_lo changed: floquet._proven_above is no longer sound"
    assert gufunc is not None and "D->D" in gufunc.types, message
    stack = np.array([[[4.0, 0.0], [2.0, 5.0]], [[1.0, 0.0], [2.0, 1.0]]], dtype=complex)
    with np.errstate(all="ignore"):
        factor = gufunc(stack, signature="D->D")
        spoiled = gufunc(np.where([[False, True], [False, False]], NAN, stack), signature="D->D")
    assert np.array_equal(factor[0], [[2.0, 0.0], [1.0, 2.0]]), message  # lower, read alone
    assert np.isnan(factor[1]).all(), message  # a failed factor is NaN throughout
    assert np.array_equal(spoiled, factor, equal_nan=True), message  # upper triangle unread
    with np.errstate(all="ignore"):
        in_place = gufunc(stack, signature="D->D", out=stack)  # as _proven_above calls it
    assert np.array_equal(in_place, factor, equal_nan=True), message


def test_grid_band_bottom_reads_only_the_lower_triangle(monkeypatch):
    # eigvalsh reads the lower triangle alone, so the inertia test must too
    name, params = PIPELINE_PRESETS[-1]  # alloy d=2 N=3: 9 x 9 fibers
    hopping = preset_model(name, **params)[0]
    expected = grid_band_bottom(hopping, 64, 0.1)[1]
    assert 1 < np.isfinite(expected).sum() < len(expected)
    fibers = HoppingOperator.fibers
    monkeypatch.setattr(HoppingOperator, "fibers", lambda self, t: np.tril(fibers(self, t)))
    assert np.array_equal(grid_band_bottom(hopping, 64, 0.1)[1], expected)


def test_scan_complex_table_finds_the_unmirrored_minimizer():
    # Peierls phase on the x-bonds: band -2 cos(theta_x + 1) - 2 cos(theta_y),
    # lowest at (2 pi - 1, 0) alone; its mirror (1, 0) is not a minimizer
    geom = LatticeGeometry(2, 1)
    o = (0, 0)
    hopping = HoppingOperator(
        geom,
        {
            (o, o, (1, 0)): -np.exp(-1j),
            (o, o, (-1, 0)): -np.exp(1j),
            (o, o, (0, 1)): -1.0,
            (o, o, (0, -1)): -1.0,
        },
    )
    theta_set = scan_theta_set(hopping)
    assert len(theta_set.minimizers) == 1
    delta = np.abs(theta_set.minimizers[0] - np.array([2.0 * np.pi - 1.0, 0.0]))
    assert np.minimum(delta, 2.0 * np.pi - delta).max() <= 5e-4
    assert theta_set.E0 == pytest.approx(-4.0, abs=1e-6)


def _dense_fibers(hopping, thetas) -> np.ndarray:
    """M(theta) over every entry of every block H_m, zeros included: the dense
    offset-stack loop, always on the complex path, accumulated from +0."""
    angles = sum(thetas[:, [a]] * hopping.offsets[:, a] for a in range(hopping.geometry.d))
    shape = (len(thetas),) + hopping.blocks.shape[1:]
    real, imag = np.zeros(shape), np.zeros(shape)
    cos, sin = np.cos(angles).T[:, :, None, None], np.sin(angles).T[:, :, None, None]
    for c, s, re, im in zip(cos, sin, hopping.blocks.real, hopping.blocks.imag):
        real += c * re + s * im
        imag -= s * re - c * im
    matrices = real.astype(complex)
    matrices.imag = imag
    return matrices


def _sparse_tables(rng):
    """Presets and random tables, complex and real, with explicit zero amplitudes;
    at N = 1 and N = 2 one matrix position takes terms from several blocks H_m."""
    tables = [preset_model(name, **params)[0] for name, params in PIPELINE_PRESETS]
    for d, N in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1)]:
        table = dict(random_hopping(rng, d=d, N=N))
        for key in list(table)[::4]:
            table[key] = complex(0.0) if rng.random() < 0.5 else complex(-0.0, -0.0)
        geom = LatticeGeometry(d, N)
        real = {key: value.real for key, value in table.items()}
        tables += [HoppingOperator(geom, table), HoppingOperator(geom, real)]
    return tables


def test_fibers_are_the_dense_loop_bit_for_bit():
    # the kernel adds only the stored terms; a skipped zero term is an exact
    # no-op on an accumulator that starts at +0, so every bit (zero signs too)
    # is the dense loop's, on the real path as on the complex one
    rng = np.random.default_rng(25)
    tables = _sparse_tables(rng)
    assert any(len(t.terms[1]) >= 2 for t in tables) and not all(t.real for t in tables)
    for hopping in tables:
        geom = hopping.geometry
        thetas = rng.uniform(-7.0, 7.0, size=(1000, geom.d))
        thetas[:3] = [[0.0] * geom.d, [np.pi] * geom.d, [-0.5 * np.pi] * geom.d]
        expected = _dense_fibers(hopping, thetas)
        for batch in (1, 2, FIBER_CHUNK - 1, FIBER_CHUNK, 1000):
            fibers = hopping.fibers(thetas[:batch])
            assert np.array_equal(fibers.view(np.uint64), expected[:batch].view(np.uint64))
            parts = fibers.view(float)
            assert not np.signbit(parts[parts == 0.0]).any()


def _fiber_loop(hopping, theta) -> np.ndarray:
    """M(theta) summed entry by entry over the hopping table, offsets in the
    order they first appear, with the fiber kernel's real arithmetic."""
    geom = hopping.geometry
    slots = list(dict.fromkeys(m for _, _, m in hopping.coefficients))
    angles = np.array([sum(t * mi for t, mi in zip(theta, m)) for m in slots])
    cos, sin = np.cos(angles), np.sin(angles)
    real = np.zeros((geom.cell_size, geom.cell_size))
    imag = np.zeros((geom.cell_size, geom.cell_size))
    for slot, m in enumerate(slots):
        for (k, kp, offset), value in hopping:
            if offset == m:
                i, j = geom.site_index(k), geom.site_index(kp)
                real[i, j] += cos[slot] * value.real + sin[slot] * value.imag
                imag[i, j] += cos[slot] * value.imag - sin[slot] * value.real
    matrix = real.astype(complex)
    matrix.imag = imag
    return matrix


def test_fibers_match_the_table_loop_and_real_ones_are_conjugate():
    rng = np.random.default_rng(8)
    tables = [preset_model(name, **params)[0] for name, params in PIPELINE_PRESETS]
    for d, N in [(1, 3), (2, 2), (3, 1)]:
        table = random_hopping(rng, d=d, N=N)
        tables += [table, HoppingOperator(table.geometry, {k: v.real for k, v in table})]
    assert [t.real for t in tables] == [True] * len(PIPELINE_PRESETS) + [False, True] * 3
    for hopping in tables:
        thetas = rng.uniform(-7.0, 7.0, size=(50, hopping.geometry.d))
        fibers = hopping.fibers(thetas)
        # == ignores the sign of an exact zero; the dense-loop test pins those bits
        assert np.array_equal(fibers, np.array([_fiber_loop(hopping, t) for t in thetas]))
        if hopping.real:
            assert np.array_equal(hopping.fibers(-thetas), fibers.conj())
