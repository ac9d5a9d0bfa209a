import json

import numpy as np
import pytest

from bandedge.model import (
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
    is_alloy,
    load_model,
    model_from_dict,
    model_to_dict,
    preset_model,
    save_model,
    shift_to_zero,
    validate_hypotheses,
)

from conftest import random_hopping, random_potential


def test_geometry_ordering_lexicographic():
    geom = LatticeGeometry(2, 2)
    assert geom.cell_sites() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert geom.site_index((1, 0)) == 2
    assert geom.cell_size == 4


def test_geometry_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LatticeGeometry(0, 1)
    with pytest.raises(ValueError):
        LatticeGeometry(1, 0)


def test_hopping_rejects_out_of_range_offsets():
    geom = LatticeGeometry(1, 2)
    with pytest.raises(ValueError):
        HoppingOperator(geom, {((0,), (0,), (4,)): 1.0})
    with pytest.raises(ValueError):
        # offset must live on the sublattice
        HoppingOperator(geom, {((0,), (0,), (1,)): 1.0})


def test_validate_anderson_all_pass():
    hopping, potential, _ = preset_model("anderson")
    report = validate_hypotheses(hopping, potential)
    assert report.passed, report.failed_names()


def test_validate_flags_non_hermitian_diagonal():
    geom = LatticeGeometry(1, 1)
    hopping = HoppingOperator(geom, {((0,), (0,), (0,)): 1j, ((0,), (0,), (1,)): -1.0, ((0,), (0,), (-1,)): -1.0})
    potential = SingleCellPotential(np.array([[1.0]]))
    report = validate_hypotheses(hopping, potential)
    assert "hopping_hermitian" in report.failed_names()


@pytest.mark.parametrize("off,passed", [(np.nextafter(0.1, 1.0), True), (0.1 + 1e-6, False)])
def test_validate_potential_hermitian_up_to_rounding(off, passed):
    hopping, _, _ = preset_model("dipole")
    report = validate_hypotheses(hopping, SingleCellPotential(np.array([[1.0, off], [0.1, 0.0]])))
    assert ("potential_hermitian" not in report.failed_names()) is passed


def test_validate_flags_zero_potential():
    hopping, _, _ = preset_model("anderson")
    report = validate_hypotheses(hopping, SingleCellPotential(np.zeros((1, 1))))
    assert "potential_nontrivial" in report.failed_names()


def test_validate_flags_trivial_hopping():
    geom = LatticeGeometry(1, 1)
    hopping = HoppingOperator(geom, {((0,), (0,), (0,)): 3.0})
    potential = SingleCellPotential(np.array([[1.0]]))
    report = validate_hypotheses(hopping, potential)
    assert "hopping_nontrivial" in report.failed_names()


def test_disorder_regime_constraints():
    # a support needs finite s_minus < s_plus and s_plus > 0; s_minus's sign sets the regime
    bad = [(0.5, 0.5), (1.0, 0.5), (-1.0, 0.0), (-2.0, -1.0), (np.nan, 1.0), (0.0, np.nan)]
    for s_minus, s_plus in bad + [(-np.inf, 1.0), (-1.0, np.inf)]:
        with pytest.raises(ValueError, match="support needs"):
            DisorderSupport(s_minus, s_plus)
    assert DisorderSupport(-0.5, 1.0).regime == DisorderSupport.SIGN_CHANGING
    assert DisorderSupport(0.0, 1.0).regime == DisorderSupport.POSITIVE
    assert DisorderSupport(0.5, 1.0).regime == DisorderSupport.POSITIVE
    with pytest.raises(TypeError):
        DisorderSupport(-1.0, 1.0, DisorderSupport.POSITIVE)
    with pytest.raises(ValueError, match="unexpected parameters"):
        preset_model("anderson", regime=DisorderSupport.POSITIVE)


def alloy_table(geom: LatticeGeometry) -> dict:
    hopping, _, _ = preset_model("alloy", d=geom.d, N=geom.N, W=[0.0] * geom.cell_size)
    return dict(hopping.coefficients)


def test_is_alloy_accepts_laplacian_plus_real_diagonal():
    anderson, _, _ = preset_model("anderson", d=2)
    alloy, _, _ = preset_model("alloy", d=2, N=3, W=list(np.linspace(0.0, 2.0, 9)))
    for hopping in (anderson, alloy, alloy.shifted(0.7)):
        assert is_alloy(hopping)
    # no explicit diagonal entries: -Delta + W with W = -2d
    geom = LatticeGeometry(1, 2)
    table = alloy_table(geom)
    bonds = {key: value for key, value in table.items() if key[0] != key[1] or any(key[2])}
    assert is_alloy(HoppingOperator(geom, bonds))


def test_is_alloy_rejects_other_tables():
    geom = LatticeGeometry(1, 2)
    complex_diagonal = alloy_table(geom) | {((1,), (1,), (0,)): 2.0 + 1e-6j}
    next_nearest = alloy_table(geom) | {((0,), (0,), (2,)): -0.5, ((0,), (0,), (-2,)): -0.5}
    missing_bond = alloy_table(geom)
    del missing_bond[((0,), (1,), (0,))], missing_bond[((1,), (0,), (0,))]
    for table in (complex_diagonal, next_nearest, missing_bond):
        assert not is_alloy(HoppingOperator(geom, table))
    quartic, _, _ = preset_model("quartic")
    assert not is_alloy(quartic)


def test_shift_laplacian_is_noop():
    hopping, _, _ = preset_model("anderson")
    shifted = shift_to_zero(hopping)
    assert shifted.energy_shift == 0.0
    assert shifted.coefficients == hopping.coefficients


def test_shift_constant_offset():
    hopping, _, _ = preset_model("anderson")
    raised = hopping.shifted(-5.0)  # adds +5 to the diagonal
    shifted = shift_to_zero(raised)
    assert shifted.energy_shift == pytest.approx(-5.0 + 5.0, abs=1e-9)
    assert float(np.linalg.eigvalsh(shifted.fiber([0.0]))[0]) == pytest.approx(0.0, abs=1e-9)


def test_shift_quartic_is_noop():
    hopping, _, _ = preset_model("quartic")
    shifted = shift_to_zero(hopping)
    assert shifted.energy_shift == 0.0


def test_shift_idempotent():
    rng = np.random.default_rng(7)
    hopping = random_hopping(rng, N=2)
    once = shift_to_zero(hopping)
    twice = shift_to_zero(once)
    assert abs(once.energy_shift - twice.energy_shift) <= 1e-9


def test_preset_anderson():
    hopping, potential, disorder = preset_model("anderson")
    assert hopping.geometry.N == 1
    assert potential.matrix.shape == (1, 1) and potential.matrix[0, 0] == 1.0
    assert disorder.s_minus == -1.0 and disorder.s_plus == 1.0


def test_preset_dipole():
    _, potential, _ = preset_model("dipole")
    assert np.array_equal(potential.matrix, np.diag([1.0, -1.0]))


def test_preset_quartic_cell_mapping():
    hopping, potential, _ = preset_model("quartic")
    # cell values at canonical sites 0,1,2 correspond to 1, -1/2, -1/2
    assert np.array_equal(potential.matrix, np.diag([1.0, -0.5, -0.5]))
    # amplitudes 6 on-site, -4 at distance 1, 1 at distance 2
    assert hopping.coefficients[((0,), (0,), (0,))] == 6.0
    assert hopping.coefficients[((0,), (1,), (0,))] == -4.0
    assert hopping.coefficients[((0,), (2,), (0,))] == 1.0
    assert hopping.coefficients[((0,), (2,), (-3,))] == -4.0


# per-axis bounds G_a of the presets below, by name
AXIS_BOUNDS = {"anderson": (2.0, 2.0), "dipole": (2.0, 2.0), "alloy": (3.0, 3.0), "quartic": (15.0,)}


@pytest.mark.parametrize(
    "name, params, bound, entry_sum",
    [
        ("anderson", {"d": 2}, 4.0, 4.0),
        ("dipole", {"d": 2}, 4.0, 16.0),
        ("alloy", {"d": 2, "N": 3, "W": [0.3, 1.1, 0.7, 0.2, 1.9, 0.4, 1.2, 0.8, 0.1]}, 6.0, 36.0),
        ("quartic", {}, 15.0, 36.0),
        ("dipole", {"d": 1}, 2.0, 4.0),
    ],
)
def test_lipschitz_bound_of_the_presets(name, params, bound, entry_sum):
    # sqrt(||S||_1 ||S||_inf) with S = sum_m |m|_1 |H_m|, rounded up; the entry
    # sum sum |amplitude| |m|_1; per axis a the same with S_a = sum_m |m_a|
    # |H_m|, which in d = 1 is S, so G_1 = G to the bit
    hopping = preset_model(name, **params)[0]
    assert bound <= hopping.lipschitz_bound() <= bound * (1 + 1e-13)
    assert sum(abs(v) * sum(map(abs, m)) for (_, _, m), v in hopping) == entry_sum
    axes, per_axis = AXIS_BOUNDS[name][: hopping.geometry.d], hopping.axis_lipschitz_bounds()
    assert len(per_axis) == hopping.geometry.d
    assert all(a <= g <= a * (1 + 1e-13) for a, g in zip(axes, per_axis))
    if hopping.geometry.d == 1:
        assert per_axis == (hopping.lipschitz_bound(),)


def test_lipschitz_bound_takes_the_block_sum_when_it_is_smaller():
    # sqrt(||S||_1 ||S||_inf) with S = sum_m |m|_1 |H_m| is 19.738 on this
    # table, above the block sum sum_m |m|_1 sqrt(||H_m||_1 ||H_m||_inf)
    hopping = random_hopping(np.random.default_rng(6), d=1, N=3)
    magnitudes, weights = np.abs(hopping.blocks), np.abs(hopping.offsets).sum(1)
    entrywise = np.tensordot(weights, magnitudes, 1)
    assert np.sqrt(entrywise.sum(0).max() * entrywise.sum(1).max()) > 19.737
    assert 19.6281 <= hopping.lipschitz_bound() <= 19.6282


def test_table_bounds_are_computed_once_and_only_on_use():
    hopping = preset_model("dipole", d=2)[0]
    assert not {"_lipschitz_bounds", "_hopping_scale"} & set(vars(hopping))
    bound, scale = hopping.lipschitz_bound(), hopping.hopping_scale()
    assert {"_lipschitz_bounds", "_hopping_scale"} <= set(vars(hopping))
    assert (bound, scale) == (hopping.lipschitz_bound(), hopping.hopping_scale())
    assert hopping.axis_lipschitz_bounds() is hopping.axis_lipschitz_bounds()
    assert scale == sum(abs(v) for v in hopping.coefficients.values())


def test_preset_alloy_requires_w():
    with pytest.raises(ValueError, match="^preset 'alloy' requires W$"):
        preset_model("alloy", N=2)
    with pytest.raises(ValueError, match="^preset 'alloy' requires N$"):
        preset_model("alloy", W=[0.0])
    hopping, potential, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    assert hopping.coefficients[((1,), (1,), (0,))] == 3.0
    assert potential.matrix[0, 0] == 1.0


def test_preset_alloy_takes_no_potential():
    # the alloy's potential is delta at cell site 0; a model file sets any other
    message = r"unexpected parameters for preset 'alloy': \['potential'\]"
    with pytest.raises(ValueError, match=message):
        preset_model("alloy", N=2, W=[0.0, 1.0], potential=np.eye(2))


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_model("nonsense")


def test_serialization_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    hopping = random_hopping(rng, N=3)
    potential = random_potential(rng, hopping.geometry.cell_size)
    disorder = DisorderSupport(-0.7, 1.3)
    path = tmp_path / "model.json"
    save_model(path, hopping, potential, disorder)
    h2, p2, d2 = load_model(path)
    assert h2.coefficients == hopping.coefficients
    assert np.array_equal(p2.matrix, potential.matrix)
    assert (d2.s_minus, d2.s_plus, d2.regime) == (-0.7, 1.3, disorder.regime)


@pytest.mark.parametrize(
    "s_minus, regime", [(-1.0, "SignChanging"), (0.0, "Positive"), (0.5, "Positive")]
)
def test_model_file_regime_follows_the_support(tmp_path, s_minus, regime):
    hopping, potential, _ = preset_model("dipole", s_minus=s_minus, s_plus=1.0)
    path = tmp_path / "model.json"
    save_model(path, hopping, potential, DisorderSupport(s_minus, 1.0))
    data = json.loads(path.read_text())
    assert data["disorder"] == {"s_minus": s_minus, "s_plus": 1.0, "regime": regime}
    assert f'"regime": "{regime}"' in path.read_text()
    # a file may leave the regime out, but may not contradict its support
    del data["disorder"]["regime"]
    assert model_from_dict(data)[2] == DisorderSupport(s_minus, 1.0)
    data["disorder"]["regime"] = "Positive" if regime == "SignChanging" else "sign_changing"
    with pytest.raises(ValueError, match="contradicts the support"):
        model_from_dict(data)


@pytest.mark.parametrize("s_minus", [-1.0, 0.0])
def test_model_file_regime_names(s_minus):
    hopping, potential, _ = preset_model("dipole", s_minus=s_minus, s_plus=1.0)
    data = model_to_dict(hopping, potential, DisorderSupport(s_minus, 1.0))
    names = ["SignChanging", "SIGNCHANGING", "signchanging", "sign_changing"]
    if s_minus >= 0:
        names = ["Positive", "POSITIVE", "positive"]
    for name in names:
        data["disorder"]["regime"] = name
        assert model_from_dict(data)[2] == DisorderSupport(s_minus, 1.0)
    for name in ("bogus", "", "sign-changing", "nonnegative", None):
        data["disorder"]["regime"] = name
        with pytest.raises(ValueError, match="unknown regime"):
            model_from_dict(data)


def test_model_dict_schema_fields():
    hopping, potential, disorder = preset_model("dipole")
    data = model_to_dict(hopping, potential, disorder)
    assert set(data) >= {"dimension", "period", "hoppings", "potential", "disorder"}
    assert set(data["hoppings"][0]) == {"k", "k_prime", "m", "re", "im"}
    h2, _, _ = model_from_dict(json.loads(json.dumps(data)))
    assert h2.coefficients == hopping.coefficients


def test_model_file_with_an_infinite_support_endpoint_is_refused(tmp_path):
    # Python's json reads the non-standard Infinity; the support must refuse it
    data = model_to_dict(*preset_model("anderson"))
    data["disorder"]["s_plus"] = float("inf")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    assert '"s_plus": Infinity' in path.read_text()
    with pytest.raises(ValueError, match="both finite, got DisorderSupport"):
        load_model(path)
