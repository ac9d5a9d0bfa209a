import json

import numpy as np
import pytest

from bandedge.model import (
    DisorderSupport,
    HoppingOperator,
    LatticeGeometry,
    SingleCellPotential,
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
    with pytest.raises(ValueError):
        DisorderSupport(0.5, 1.0, DisorderSupport.SIGN_CHANGING)
    with pytest.raises(ValueError):
        DisorderSupport(-0.5, 1.0, DisorderSupport.POSITIVE)
    DisorderSupport(0.0, 1.0, DisorderSupport.POSITIVE)


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


def test_preset_alloy_requires_w():
    with pytest.raises(KeyError):
        preset_model("alloy", N=2)
    hopping, potential, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    assert hopping.coefficients[((1,), (1,), (0,))] == 3.0
    assert potential.matrix[0, 0] == 1.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_model("nonsense")


def test_serialization_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    hopping = random_hopping(rng, N=3)
    potential = random_potential(rng, hopping.geometry.cell_size)
    disorder = DisorderSupport(-0.7, 1.3, DisorderSupport.SIGN_CHANGING)
    path = tmp_path / "model.json"
    save_model(path, hopping, potential, disorder)
    h2, p2, d2 = load_model(path)
    assert h2.coefficients == hopping.coefficients
    assert np.array_equal(p2.matrix, potential.matrix)
    assert (d2.s_minus, d2.s_plus, d2.regime) == (-0.7, 1.3, disorder.regime)


def test_model_dict_schema_fields():
    hopping, potential, disorder = preset_model("dipole")
    data = model_to_dict(hopping, potential, disorder)
    assert set(data) >= {"dimension", "period", "hoppings", "potential", "disorder"}
    assert set(data["hoppings"][0]) == {"k", "k_prime", "m", "re", "im"}
    h2, _, _ = model_from_dict(json.loads(json.dumps(data)))
    assert h2.coefficients == hopping.coefficients
