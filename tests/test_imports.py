"""What importing bandedge loads, and that its lazily resolved exports are the
objects of their defining modules."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import bandedge
from bandedge import floquet, model, perturbation, verification

# perfbench's set-up body over every preset, the one CLI command that needs
# only the model, then a submodule reached as an attribute of the package
FOOTPRINT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("bandedge", "scipy"))
steps = []
from bandedge import pipeline
presets = [("anderson", {}), ("dipole", {"d": 2}), ("quartic", {}),
           ("alloy", {"d": 2, "N": 3, "W": [0.0, 1.0, 0.5] * 3})]
for name, params in presets:
    pipeline.resolve_model(name, params)
steps.append(loaded())
from bandedge.cli import main
assert main(["validate", "--model", "dipole", "--d", "2"]) == 0
steps.append(loaded())
import bandedge
bandedge.verification.box_min_eig
steps.append(loaded())
print(json.dumps(steps))
"""


def test_setup_and_validate_load_only_model_and_pipeline():
    src = str(Path(bandedge.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, src], capture_output=True, text=True, check=True
    ).stdout
    setup, validate, attribute = json.loads(out.splitlines()[-1])
    assert setup == ["bandedge", "bandedge.model", "bandedge.pipeline"]
    assert validate == ["bandedge", "bandedge.cli", "bandedge.model", "bandedge.pipeline"]
    oracles = ["bandedge.floquet", "bandedge.perturbation", "bandedge.verification"]
    assert attribute == sorted(validate + oracles)  # and still no scipy


@pytest.mark.parametrize("name", bandedge.__all__)
def test_every_export_is_its_defining_modules_object(name):
    home = importlib.import_module(f"bandedge.{bandedge._HOME[name]}")
    assert getattr(bandedge, name) is vars(home)[name]
    assert name in dir(bandedge)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bandedge.no_such_name  # noqa: B018


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bandedge import *", namespace)
    assert set(bandedge.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(bandedge, name) for name in bandedge.__all__)


def test_shared_constants_have_one_definition_and_keep_their_old_spellings():
    for name in ("DEFAULT_GRID_PER_DIM", "DEFAULT_REFINEMENTS", "DEFAULT_TOL_THETA"):
        assert getattr(floquet, name) is getattr(model, name)
    assert floquet.MAX_REFINEMENTS is model.MAX_REFINEMENTS
    for name in ("SAMPLER_ENDPOINT", "SAMPLER_UNIFORM", "SAMPLER_CONSTANT"):
        assert getattr(verification, name) is getattr(model, name)
    assert floquet._require_count is model._require_count
    for name in ("_require_count", "_require_epsilon"):
        assert getattr(verification, name) is getattr(model, name)
    assert perturbation._require_epsilon is model._require_epsilon
