"""Fixed-seed `run_pipeline` reports and CLI outputs against checked-in
expected ones.

A refactor that should not change any number must leave these reports as
they are: keys, key order, strings, ints, bools and None exactly, floats to
1e-12 relative or 1e-14 absolute (so that BLAS rounding on another host does
not fail the test).

CLI outputs are compared the same way after parsing: the CSV rows (cells
that read as int or float become numbers) and the JSON payload that follows
them.

When a report change is deliberate, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

which writes only the files the comparison rejects, and say in the change
log which entries moved and why.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from bandedge.cli import main
from bandedge.pipeline import RunConfig, VerifyConfig, run_pipeline, write_report

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

SWEEP_EPS = ["--eps", "1e-3,1e-2,1e-1"]
CLI_CASES = {
    "validate_dipole_d2": ["validate", "--model", "dipole", "--d", "2"],
    "floquet_scan_alloy_d2": ["floquet-scan", "--model", "alloy", "--d", "2", "--N", "3",
                              "--W", ",".join(map(str, W_D2))],
    "floquet_scan_quartic": ["floquet-scan", "--model", "quartic"],
    "fiber_quartic": ["fiber", "--model", "quartic", "--theta", "0.3"],
    "coefficients_dipole_d2": ["coefficients", "--model", "dipole", "--d", "2",
                               "--eps", "1e-3,1e-2"],
    "coefficients_quartic": ["coefficients", "--model", "quartic"],
    "fiber_sweep_dipole": ["verify", "fiber-sweep", "--model", "dipole", *SWEEP_EPS],
    "fiber_sweep_quartic": ["verify", "fiber-sweep", "--model", "quartic", *SWEEP_EPS],
    "fiber_sweep_anderson": ["verify", "fiber-sweep", "--model", "anderson", *SWEEP_EPS],
    "montecarlo_anderson": ["verify", "montecarlo", "--model", "anderson", "--eps", "0.1,0.2,0.3",
                            "--L", "16", "--samples", "3", "--seed", "5"],
    "kirsch_simon_alloy": ["verify", "kirsch-simon", "--model", "alloy", "--N", "2",
                           "--W", "0,1", "--grid", "64"],
}


def report_text(name: str) -> str:
    _, report = run_pipeline(RunConfig(epsilon_list=EPS, **CASES[name]))
    return write_report(report)


def cli_text(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(CLI_CASES[name])
    return out.getvalue()


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_cli(text: str) -> dict:
    """CSV rows up to the first line that opens a JSON object, then that JSON."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("{")), len(lines))
    rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines[:start])]
    payload = json.loads("\n".join(lines[start:])) if start < len(lines) else None
    return {"csv": rows, "json": payload}


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


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name):
    expected = parse_cli((DATA / f"cli_{name}.txt").read_text())
    assert_same(expected, parse_cli(cli_text(name)))


def test_cli_parse_splits_csv_and_json():
    parsed = parse_cli('a,b,c\n1,0.5,True\n{\n  "x": 2.0\n}\n')
    assert parsed == {"csv": [{"a": 1, "b": 0.5, "c": "True"}], "json": {"x": 2.0}}
    assert parse_cli('{"x": 1}\n') == {"csv": [], "json": {"x": 1}}


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
    # rewrite only what the tests reject: a drift inside the tolerances stays unwritten
    DATA.mkdir(parents=True, exist_ok=True)
    outputs = [(DATA / f"{name}.json", report_text(name) + "\n", json.loads) for name in CASES]
    outputs += [(DATA / f"cli_{name}.txt", cli_text(name), parse_cli) for name in CLI_CASES]
    for path, text, parse in outputs:
        try:
            assert_same(parse(path.read_text()), parse(text))
        except (AssertionError, FileNotFoundError):
            path.write_text(text)
            print(f"wrote {path}")
