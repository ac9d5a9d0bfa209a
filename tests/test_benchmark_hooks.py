"""The names, arguments and result fields the benchmark in ``perfbench/``
reads from bandedge.

Tracing patches every function in ``perfbench/tracing.TRACED`` by name and its
counters read some of their arguments by name, and the workloads check fields
of the results, so a name, argument or field renamed or dropped here would
break only a benchmark run. These tests read the benchmark's modules and
change nothing in them.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from bandedge import floquet, model, pipeline, verification  # noqa: E402


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


def test_results_keep_the_fields_the_benchmark_reads():
    hopping, potential, disorder = model.preset_model("anderson")
    alloy, _, _ = model.preset_model("alloy", d=2, N=3, W=[0.0, 1.0, 0.5] * 3)
    records = [
        (verification.box_min_eig(hopping, potential, disorder, 0.1, 4, seed=1), {"lambda_min"}),
        (verification.fiber_min_over_q(hopping, potential, disorder, [0.0], 0.1), {"value"}),
        (
            verification.kirsch_simon_sandwich(alloy, floquet.zone_grid(alloy.geometry, 4)),
            {"n_points", "passed", "violations"},
        ),
        (floquet.scan_theta_set(hopping, 4), {"resolution", "minimizers"}),
        (floquet.ground_space(hopping, [0.0]), {"basis"}),
    ]
    source = Path(workloads.__file__).read_text() + Path(tracing.__file__).read_text()
    for record, fields in records:
        for name in fields:
            assert f".{name}" in source  # the benchmark still reads it
            getattr(record, name)
    config = pipeline.RunConfig(
        model="anderson",
        epsilon_list=(0.1,),
        verify=pipeline.VerifyConfig(L=4, samples=2, seed=1),
    )
    _, report = pipeline.run_pipeline(config)
    assert isinstance(report["coefficients"]["best"], dict)
    assert report["montecarlo"][repr(0.1)]["min"] <= report["montecarlo"][repr(0.1)]["mean"]
