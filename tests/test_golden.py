"""Fixed-seed `run_pipeline` reports against checked-in expected reports.

A refactor that should not change any number must leave these reports as
they are: keys, key order, strings, ints, bools and None exactly, floats to
1e-12 relative or 1e-14 absolute (so that BLAS rounding on another host does
not fail the test).

When a report change is deliberate, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which entries moved and why.
"""

import json
import math
from pathlib import Path

import pytest

from bandedge.pipeline import OutputConfig, RunConfig, VerifyConfig, run_pipeline, write_report

DATA = Path(__file__).parent / "data" / "golden"
EPS = (1e-3, 1e-2)
W_D2 = [0.0, 0.5, 1.0, 0.3, 0.8, 0.1, 0.6, 0.2, 0.9]

CASES = {
    "anderson_d1": dict(model="anderson", model_params={"d": 1}),
    "anderson_d2": dict(model="anderson", model_params={"d": 2}),
    "anderson_d1_positive": dict(
        model="anderson", model_params={"d": 1, "s_minus": 0.0, "s_plus": 1.0}
    ),
    "dipole_d1": dict(model="dipole", model_params={"d": 1}),
    "dipole_d2": dict(model="dipole", model_params={"d": 2}),
    "dipole_d2_positive": dict(
        model="dipole", model_params={"d": 2, "s_minus": 0.0, "s_plus": 1.0}
    ),
    "quartic": dict(model="quartic"),
    "alloy_d1_N3": dict(model="alloy", model_params={"d": 1, "N": 3, "W": [0.0, 0.7, 0.3]}),
    "alloy_d2_N3": dict(model="alloy", model_params={"d": 2, "N": 3, "W": W_D2}),
    "dipole_d1_samples": dict(
        model="dipole", model_params={"d": 1}, verify=VerifyConfig(L=32, samples=3, seed=7)
    ),
}


def report_text(name: str) -> str:
    config = RunConfig(epsilon_list=EPS, output=OutputConfig(), **CASES[name])
    _, report = run_pipeline(config)
    return write_report(report, config.output)


def assert_same(expected, actual, path="report"):
    assert type(actual) is type(expected), f"{path}: {actual!r} is not like {expected!r}"
    if isinstance(expected, dict):
        assert list(actual) == list(expected), f"{path}: keys {list(actual)} != {list(expected)}"
        for key in expected:
            assert_same(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            assert_same(e, a, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-14), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = json.loads((DATA / f"{name}.json").read_text())
    assert_same(expected, json.loads(report_text(name)))


def test_comparison_catches_changes():
    report = {"a": 1.0, "b": [1, True, "x", None]}
    assert_same(report, {"a": 1.0 + 1e-13, "b": [1, True, "x", None]})
    for changed in (
        {"b": [1, True, "x", None], "a": 1.0},
        {"a": 1.0 + 1e-9, "b": [1, True, "x", None]},
        {"a": 1.0, "b": [1, 1, "x", None]},
        {"a": 1.0, "b": [1.0, True, "x", None]},
        {"a": 1.0, "b": [1, True, "y", None]},
        {"a": 1.0, "b": [1, True, "x"]},
    ):
        with pytest.raises(AssertionError):
            assert_same(report, changed)


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (DATA / f"{name}.json").write_text(report_text(name) + "\n")
        print(f"wrote {DATA / name}.json")
