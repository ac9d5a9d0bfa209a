"""The names and arguments the benchmark in ``perfbench/`` reads from bandedge.

Tracing patches every function in ``perfbench/tracing.TRACED`` by name and its
counters read some of their arguments by name, so a function renamed or
dropped here would break only a traced benchmark run. These tests read the
benchmark's modules and change nothing in them.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _ in tracing.TRACED])
def test_every_traced_name_resolves_to_a_callable(module, path):
    owner = importlib.import_module(f"bandedge.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize(
    "module, name, arguments",
    [
        ("floquet", "scan_theta_set", {"hopping", "grid_per_dim"}),
        ("verification", "box_min_eig", {"hopping", "L", "dense_cutoff"}),
    ],
)
def test_counted_functions_keep_the_arguments_their_counters_read(module, name, arguments):
    function = getattr(importlib.import_module(f"bandedge.{module}"), name)
    assert arguments <= set(inspect.signature(function).parameters)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_every_workload_passes_its_checks(name):
    for op in workloads.WORKLOADS[name](1).ops:
        op.run()  # a wrong result raises workloads.CheckFailed
