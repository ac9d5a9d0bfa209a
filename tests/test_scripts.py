"""Smoke test of the command-line scripts in scripts/: each runs with small
arguments, exits 0 and prints its CSV header first."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandedge

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(bandedge.__file__).resolve().parents[1])

SCRIPTS = [
    (["anderson_mc_exponent.py", "--L", "32", "--samples", "3"], "epsilon,min_lambda,mean_lambda"),
    # eps = 0 takes the default window's 1e-6 floor and has no threshold scale
    (["quartic_trial_scan.py", "--eps", "1e-2,0"], "epsilon,n,value,threshold,value_over_scale"),
    (["dipole_residual_order.py"], "epsilon,value,predicted,residual"),
]


@pytest.mark.parametrize("argv,header", SCRIPTS, ids=[argv[0] for argv, _ in SCRIPTS])
def test_script_runs_and_prints_csv_header(argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
