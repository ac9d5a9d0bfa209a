import csv
import dataclasses
import functools
import io
import json

import numpy as np
import pytest

from bandedge import floquet, model, perturbation, pipeline, verification
from bandedge.cli import main
from bandedge.model import preset_model, save_model
from bandedge.pipeline import RunConfig, VerifyConfig, run_pipeline

from conftest import halve_ks_dispersion, refuse


BAD_EPSILON = "epsilon must be finite and nonnegative, at most 5.64e+102"


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_validate_anderson(capsys):
    status, out = run_cli(capsys, "validate", "--model", "anderson")
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_validate_exit_status_on_failure(tmp_path, capsys):
    hopping, potential, disorder = preset_model("anderson")
    import bandedge.model as model

    bad = model.SingleCellPotential(np.zeros((1, 1)))
    path = tmp_path / "bad.json"
    save_model(path, hopping, bad, disorder)
    status, out = run_cli(capsys, "validate", "--model", str(path))
    assert status == 1


def test_floquet_scan_csv(capsys):
    status, out = run_cli(capsys, "floquet-scan", "--model", "dipole")
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["theta_0"]) == 0.0
    assert float(rows[0]["gap"]) == 4.0


def test_fiber_json(capsys):
    status, out = run_cli(capsys, "fiber", "--model", "dipole", "--theta", "0")
    assert status == 0
    payload = json.loads(out)
    assert payload["eigenvalues"] == [0.0, 4.0]


def test_coefficients_json(capsys):
    status, out = run_cli(capsys, "coefficients", "--model", "anderson", "--eps", "0.01")
    assert status == 0
    payload = json.loads(out)
    assert payload["A1"] == pytest.approx(-1.0, abs=1e-12)
    assert payload["case"] == "Linear"
    assert payload["bound"]["0.01"] == pytest.approx(-0.01)
    assert {"theta", "p", "P", "A1", "A2", "A1_prime", "A2_prime", "case", "nondegenerate"} <= set(
        payload
    )


def test_verify_fiber_sweep(capsys):
    status, out = run_cli(
        capsys, "verify", "fiber-sweep", "--model", "anderson", "--eps", "0.001,0.01,0.1"
    )
    assert status == 0
    assert '"passed": true' in out


def test_verify_montecarlo(capsys):
    status, out = run_cli(
        capsys,
        "verify",
        "montecarlo",
        "--model",
        "anderson",
        "--eps",
        "0.01,0.03,0.1",
        "--L",
        "16",
        "--samples",
        "5",
        "--seed",
        "7",
    )
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,seed,lambda_min"
    summary = json.loads("\n".join(lines[16:]))
    assert "eta" in summary or "fit_error" in summary


def test_verify_quartic_reports_red(capsys):
    status, out = run_cli(capsys, "verify", "quartic", "--xi", "0.3", "--eps", "0.01")
    # the trial-state inequality does not hold; the command reports that honestly
    assert status == 1
    assert '"all_satisfied": false' in out


def test_verify_quartic_at_epsilon_zero_prints_its_row(capsys):
    # the default window at eps = 0 (epsilon floored at 1e-6) has 1.6e10 cells
    status, out = run_cli(capsys, "verify", "quartic", "--eps", "0")
    rows = list(csv.DictReader(io.StringIO(out.split("{")[0])))
    assert [row["epsilon"] for row in rows] == ["0.0"]
    # H0 >= 0, and the window's two cut ends leave a positive quotient
    assert 0.0 < float(rows[0]["value"]) < 1e-9
    assert status == 1  # so the target 0 is not met


def test_verify_quartic_summarises_the_fit_as_montecarlo_does(monkeypatch, capsys):
    # the quartic's trial energies are positive, so a negative power law stands in
    monkeypatch.setattr(verification, "quartic_trial_energy", lambda e, xi, n: -(e**1.6))
    status, out = run_cli(capsys, "verify", "quartic", "--eps", "0.01,0.02,0.04")
    summary = json.loads(out[out.index("{") :])
    assert list(summary) == ["all_satisfied", "eta", "prefactor", "r_squared"]
    assert summary["eta"] == pytest.approx(1.6)
    assert summary["prefactor"] == pytest.approx(1.0)
    assert status == 0


def test_verify_fiber_sweep_honours_scan_grid(capsys, monkeypatch):
    grids = []
    scan = floquet.scan_theta_set

    def recorded(hopping, grid_per_dim, *args, **kwargs):
        grids.append(grid_per_dim)
        return scan(hopping, grid_per_dim, *args, **kwargs)

    def second_scan(*args, **kwargs):
        raise AssertionError("the zone is scanned once")

    monkeypatch.setattr(floquet, "scan_theta_set", recorded)
    monkeypatch.setattr(model, "shift_to_zero", second_scan)
    zone_16 = functools.partial(pipeline.scan_zone, grid_per_dim=16)
    monkeypatch.setattr(pipeline, "scan_zone", zone_16)
    status, out = run_cli(
        capsys, "verify", "fiber-sweep", "--model", "dipole", "--eps", "1e-3,1e-2,1e-1"
    )
    assert status == 0
    assert grids == [16]
    assert '"passed": true' in out


def test_verify_kirsch_simon(capsys):
    status, out = run_cli(
        capsys, "verify", "kirsch-simon", "--model", "alloy", "--N", "2", "--W", "0,1"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_kirsch_simon_prints_its_violations_and_exits_1(monkeypatch, capsys):
    halve_ks_dispersion(monkeypatch)
    hopping, _, _ = preset_model("alloy", N=2, W=[0.0, 1.0])
    report = verification.kirsch_simon_sandwich(hopping, floquet.zone_grid(hopping.geometry, 256))
    assert report.violations
    status, out = run_cli(
        capsys, "verify", "kirsch-simon", "--model", "alloy", "--N", "2", "--W", "0,1"
    )
    assert status == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violations"] == list(report.violations)


def test_verify_kirsch_simon_rejects_variant_option(capsys):
    # the folded dispersion is the only one; there is no --variant option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kirsch-simon", "--model", "alloy", "--W", "0,1", "--variant", "literal"])
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_pipeline_anderson(capsys):
    status, out = run_cli(capsys, "run", "--model", "anderson", "--eps", "0.01,0.1")
    assert status == 0
    payload = json.loads(out)
    assert payload["coefficients"]["best"]["A1"] == pytest.approx(-1.0)
    assert payload["fiber_sweep"]["passed"] is True
    assert payload["config"]["model"] == "anderson"


def test_run_report_embeds_resolved_config(tmp_path):
    config = RunConfig(
        model="dipole",
        epsilon_list=(0.01,),
        verify=VerifyConfig(L=8, samples=3, seed=5),
    )
    status, report = run_pipeline(config)
    assert status == 0
    assert report["config"]["verify"]["seed"] == 5
    assert "montecarlo" in report


def test_every_run_setting_has_a_run_flag(monkeypatch, tmp_path):
    # bz, tolerances and output.format had no flag: no run could set them
    configs = []

    def captured(config):
        configs.append(config)
        raise AssertionError("run_pipeline was called")

    monkeypatch.setattr(pipeline, "run_pipeline", captured)
    argv = [
        "run", "--model", "alloy", "--s-minus", "-0.5", "--s-plus", "0.5", "--d", "2",
        "--N", "3", "--W", "0,1,2", "--eps", "0.01", "--L", "8", "--samples", "2",
        "--seed", "3", "--sampler", "Uniform", "--output", str(tmp_path / "r.json"),
    ]
    with pytest.raises(AssertionError, match="run_pipeline was called"):
        main(argv)

    def assert_set(config, path):
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if dataclasses.is_dataclass(value):
                assert_set(value, f"{path}.{f.name}")
                continue
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            assert value != default, f"{path}.{f.name} keeps its default {default!r}"

    (config,) = configs
    assert_set(config, "config")


def test_run_deterministic_reports():
    config = RunConfig(
        model="dipole", epsilon_list=(0.05,), verify=VerifyConfig(L=8, samples=4, seed=11)
    )
    _, a = run_pipeline(config)
    _, b = run_pipeline(config)
    assert json.dumps(a, default=str) == json.dumps(b, default=str)


def test_run_sweeps_with_the_reported_coefficients(monkeypatch):
    # tol_case = 1.0 makes the dipole's A2 = -1/4 count as zero; the sweep
    # judges the case the coefficients block reports, and refutes it
    monkeypatch.setattr(perturbation, "case_tolerance", lambda potential, disorder: 1.0)
    status, report = run_pipeline(RunConfig(model="dipole", epsilon_list=(1e-3, 1e-2)))
    assert report["coefficients"]["best"]["case"] == "NoMotion"
    assert report["fiber_sweep"]["case"] == "NoMotion"
    assert report["fiber_sweep"]["passed"] is False
    assert status == 1


def test_run_computes_coefficients_once_per_minimizer(monkeypatch):
    calls = []
    original = perturbation.edge_coefficients

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (perturbation, pipeline, verification):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    status, report = run_pipeline(RunConfig(model="dipole", epsilon_list=(1e-3, 1e-2)))
    assert status == 0
    assert len(report["coefficients"]["minimizers"]) == 1
    assert len(calls) == 1


def test_verify_config_requires_seed():
    with pytest.raises(ValueError):
        VerifyConfig(samples=3, seed=None)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(L=0, samples=2), "L must be an integer of at least 1"),
        (dict(L=2.0), "L must be an integer of at least 1"),
        (dict(L=True), "L must be an integer of at least 1"),
        (dict(samples=-2, seed=1), "samples must be an integer of at least 0"),
        (dict(samples=2, seed=-1), "seed must be an integer of at least 0, got -1"),
    ],
    ids=["L0", "L-float", "L-bool", "samples-negative", "seed-negative"],
)
def test_verify_config_rejects_bad_counts(kwargs, message):
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**kwargs)


@pytest.mark.parametrize(
    "samples,L,message",
    [
        (0, 16, "samples must be an integer of at least 1"),
        (-2, 16, "samples must be an integer of at least 1"),
        (3, 0, "L must be an integer of at least 1"),
        (3, 2.0, "L must be an integer of at least 1"),
        (True, 16, "samples must be an integer of at least 1"),
    ],
    ids=["samples0", "samples-negative", "L0", "L-float", "samples-bool"],
)
def test_montecarlo_rejects_bad_counts_before_any_structure(monkeypatch, samples, L, message):
    monkeypatch.setattr(verification, "torus_structure", refuse("torus_structure"))
    monkeypatch.setattr(verification, "box_min_eig", refuse("box_min_eig"))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ValueError, match=message):
        pipeline.montecarlo_minima(hopping, potential, disorder, [0.05], L, samples, 1)


def test_montecarlo_rejects_a_negative_seed_before_any_structure(monkeypatch):
    # numpy's "expected non-negative integer" named no parameter
    monkeypatch.setattr(verification, "torus_structure", refuse("torus_structure"))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ValueError, match="seed must be an integer of at least 0, got -1"):
        pipeline.montecarlo_minima(hopping, potential, disorder, [0.05], 4, 2, -1)


@pytest.mark.parametrize(
    "epsilon_list, sampler, message",
    [
        ([0.05, -0.01], verification.SAMPLER_ENDPOINT, "epsilon must be finite and nonnegative"),
        ([0.05, float("nan")], verification.SAMPLER_ENDPOINT, "epsilon must be finite"),
        ([0.05], "bogus", "unknown Monte-Carlo sampler 'bogus'"),
        ([0.05], verification.SAMPLER_CONSTANT, "unknown Monte-Carlo sampler 'PeriodicConstant'"),
    ],
    ids=["eps-negative", "eps-nan", "sampler-unknown", "sampler-constant"],
)
def test_montecarlo_rejects_a_bad_epsilon_or_sampler_before_any_structure(
    monkeypatch, epsilon_list, sampler, message
):
    # a bad sampler was found only when the first sample was drawn, and a bad
    # epsilon only when its turn came, after the earlier ones were sampled
    monkeypatch.setattr(verification, "torus_structure", refuse("torus_structure"))
    monkeypatch.setattr(verification, "box_min_eig", refuse("box_min_eig"))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ValueError, match=message):
        pipeline.montecarlo_minima(hopping, potential, disorder, epsilon_list, 4, 2, 1, sampler)


def test_montecarlo_rejects_an_empty_epsilon_list_before_any_structure(monkeypatch):
    # an empty list built a structure and sampled nothing; verify montecarlo exited 0
    monkeypatch.setattr(verification, "torus_structure", refuse("torus_structure"))
    monkeypatch.setattr(verification, "box_min_eig", refuse("box_min_eig"))
    hopping, potential, disorder = preset_model("anderson")
    with pytest.raises(ValueError, match="Monte-Carlo samples need at least one epsilon"):
        pipeline.montecarlo_minima(hopping, potential, disorder, [], 4, 2, 1)


def _nan_hopping(hopping, potential):
    coeffs = {**hopping.coefficients, ((0,), (0,), (0,)): float("nan")}
    return model.HoppingOperator(hopping.geometry, coeffs), potential


def _nan_potential(hopping, potential):
    return hopping, model.SingleCellPotential(np.full_like(potential.matrix, np.nan))


@pytest.mark.parametrize("poison", [_nan_hopping, _nan_potential], ids=["hopping", "potential"])
def test_montecarlo_rejects_a_non_finite_model_before_any_structure(monkeypatch, poison):
    # only box_min_eig checked the table, after montecarlo_minima had built a structure
    build, built = verification.torus_structure, []

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verification, "torus_structure", counting_build)
    hopping, potential, disorder = preset_model("anderson")
    hopping, potential = poison(hopping, potential)
    message = "hopping amplitudes and potential entries must be finite"
    with pytest.raises(ValueError, match=message):
        pipeline.montecarlo_minima(hopping, potential, disorder, [0.05], 4, 2, 1)
    with pytest.raises(ValueError, match=message):
        verification.assemble_torus(hopping, potential, 0.05, 4, np.ones(4))
    assert built == []


def test_montecarlo_builds_one_structure_for_all_samples(monkeypatch):
    build, solve = verification.torus_structure, verification.box_min_eig
    built, used = [], []

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def counting_solve(*args, **kwargs):
        used.append(kwargs.get("structure"))
        return solve(*args, **kwargs)

    # box_min_eig builds its own structure through the same module attribute
    # when it is given none, so that would count as a second build
    monkeypatch.setattr(verification, "torus_structure", counting_build)
    monkeypatch.setattr(verification, "box_min_eig", counting_solve)
    hopping, potential, disorder = preset_model("dipole")
    runs = pipeline.montecarlo_minima(hopping, potential, disorder, [0.05, 0.2], 16, 5, 3)
    assert [len(samples) for samples in runs] == [5, 5] and len(used) == 10
    assert len(built) == 1 and all(structure is built[0] for structure in used)
    for epsilon, samples in zip([0.05, 0.2], runs):  # every epsilon on seeds 3 ... 7
        alone = [solve(hopping, potential, disorder, epsilon, 16, seed=3 + i) for i in range(5)]
        assert [s.lambda_min for s in samples] == [s.lambda_min for s in alone]


@pytest.mark.parametrize("name, L", [("anderson", 16), ("dipole", 8)])
def test_banded_montecarlo_builds_no_matrix_per_sample(monkeypatch, name, L):
    # each banded sample is filled straight into its band: no CSR fill, no
    # csr_matrix and no second finiteness check of the table per sample
    import scipy.sparse as sp

    counts = {"csr_matrix": 0, "_require_finite": 0}
    init, check = sp.csr_matrix.__init__, verification._require_finite

    def counting_init(self, *args, **kwargs):
        counts["csr_matrix"] += 1
        init(self, *args, **kwargs)

    def counting_check(*args):
        counts["_require_finite"] += 1
        check(*args)

    monkeypatch.setattr(verification.TorusStructure, "fill", refuse("TorusStructure.fill"))
    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    monkeypatch.setattr(verification, "_require_finite", counting_check)
    hopping, potential, disorder = preset_model(name)
    per_run = []
    for samples in (1, 6):
        before = dict(counts)
        pipeline.montecarlo_minima(hopping, potential, disorder, [1e-4, 0.1], L, samples, 2)
        per_run.append({key: counts[key] - before[key] for key in counts})
    assert per_run[0] == per_run[1] and per_run[0]["_require_finite"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "montecarlo", "--eps", "0.1", "--seed", "1", "--samples", "0"], "at least 1"),
        (["verify", "montecarlo", "--eps", "0.1", "--seed", "1", "--L", "0"], "at least 1"),
        (["run", "--eps", "0.1", "--seed", "1", "--samples", "-2"], "at least 0"),
        (["run", "--eps", "0.1", "--L", "0"], "at least 1"),
        (["floquet-scan", "--grid", "0"], "at least 1"),
        (["floquet-scan", "--refinements", "-1"], "at least 0"),
        (
            ["floquet-scan", "--refinements", str(floquet.MAX_REFINEMENTS + 1)],
            f"at most {floquet.MAX_REFINEMENTS}",
        ),
        (["verify", "kirsch-simon", "--grid", "0"], "at least 1"),
        (["run", "--eps", "0.1", "--samples", "2", "--seed", "-1"], "at least 0, got -1"),
        (["verify", "montecarlo", "--eps", "0.1", "--seed", "-1"], "at least 0, got -1"),
    ],
    ids=[
        "montecarlo-samples0",
        "montecarlo-L0",
        "run-samples-negative",
        "run-L0",
        "scan-grid0",
        "scan-refinements-negative",
        "scan-refinements-past-max",
        "kirsch-simon-grid0",
        "run-seed-negative",
        "montecarlo-seed-negative",
    ],
)
def test_cli_rejects_bad_counts(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(pipeline, "resolve_model", refuse("resolve_model"))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", "anderson"])
    assert exc.value.code == 2
    assert f"must be {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coefficients", "--model", "alloy", "--N", "2"], "preset 'alloy' requires W"),
        (["fiber", "--model", "anderson", "--theta", "0.1,0.2"], "theta must have shape (1,)"),
        (["coefficients", "--model", "anderson", "--d", "0"], "dimension must be >= 1"),
        (["verify", "quartic", "--xi", "0.2", "--eps", "0.01"], "xi must exceed 1/4"),
        (
            ["verify", "quartic", "--xi", "inf", "--eps", "0.01"],
            "xi must exceed 1/4 and be finite, got inf",
        ),
        (
            ["verify", "quartic", "--xi", "nan", "--eps", "0.01"],
            "xi must exceed 1/4 and be finite, got nan",
        ),
        (["verify", "quartic", "--n", "0", "--eps", "0.01"], "argument --n: must be at least 1"),
        (["coefficients", "--model", "dipole", "--eps", "nan"], "epsilon must be finite"),
        (
            ["verify", "fiber-sweep", "--model", "dipole", "--eps", "inf,0.1"],
            "epsilon must be finite",
        ),
        (["verify", "quartic", "--eps", "nan"], "epsilon must be finite"),
        (["run", "--model", "anderson", "--eps", "nan"], "epsilon must be finite"),
        (
            ["coefficients", "--model", "dipole", "--eps", "1e300"],
            "epsilon must be finite and nonnegative, at most 5.64e+102, got 1e+300",
        ),
        (
            ["verify", "fiber-sweep", "--model", "dipole", "--eps", "1e120"],
            "epsilon must be finite and nonnegative, at most 5.64e+102, got 1e+120",
        ),
        (
            ["run", "--model", "dipole", "--eps", "1e200"],
            "epsilon must be finite and nonnegative, at most 5.64e+102, got 1e+200",
        ),
        (
            ["coefficients", "--model", "anderson", "--s-plus", "inf"],
            "support needs s_minus < s_plus and s_plus > 0, both finite, "
            "got DisorderSupport(s_minus=-1.0, s_plus=inf)",
        ),
        (["fiber", "--model", "dipole", "--theta", "nan"], "theta must be finite, got [nan]"),
        (
            ["run", "--model", "anderson", "--samples", "3", "--seed", "1"],
            "Monte-Carlo samples need at least one epsilon",
        ),
        (
            ["verify", "montecarlo", "--model", "anderson", "--eps", "", "--seed", "1"],
            "Monte-Carlo samples need at least one epsilon",
        ),
        (
            ["verify", "fiber-sweep", "--model", "dipole", "--eps", ""],
            "epsilon_list is empty: the sweep would pass vacuously",
        ),
        (["verify", "quartic", "--eps", ""], "no epsilon given: the quartic check would hold"),
        (
            ["verify", "quartic", "--xi", "1e6", "--eps", "0.5"],
            "the window for epsilon=0.5, xi=1000000.0 exceeds 2^53 cells",
        ),
        (
            ["verify", "quartic", "--xi", "30", "--eps", "1e-3"],
            "the window for epsilon=0.001, xi=30.0 exceeds 2^53 cells",
        ),
        (
            ["verify", "quartic", "--xi", "10", "--eps", "1e40"],
            "eps^(1+2xi) overflows at epsilon=1e+40, xi=10.0",
        ),
        (
            ["verify", "quartic", "--xi", "10", "--eps", "1e40", "--n", "5"],
            "eps^(1+2xi) overflows at epsilon=1e+40, xi=10.0",
        ),
        (
            ["verify", "quartic", "--xi", "5", "--eps", "1e40", "--n", "1"],
            "eps^(1+2xi) overflows at epsilon=1e+40, xi=5.0",
        ),
        (["fiber", "--model", "quartic", "--theta", "1e308"], "theta must be finite, got [1e+308]"),
        (
            ["verify", "quartic", "--eps", "0.01", "--n", "100000000000000000000"],
            "n must be at most 2^53 cells, got 100000000000000000000",
        ),
    ],
    ids=[
        "alloy-without-W",
        "fiber-theta-too-long",
        "d0",
        "quartic-xi-too-small",
        "quartic-xi-inf",
        "quartic-xi-nan",
        "quartic-n0",
        "coefficients-eps-nan",
        "fiber-sweep-eps-inf",
        "quartic-eps-nan",
        "run-eps-nan",
        "coefficients-eps-cube-overflows",
        "fiber-sweep-eps-cube-overflows",
        "run-eps-cube-overflows",
        "support-s-plus-inf",
        "fiber-theta-nan",
        "run-samples-without-eps",
        "montecarlo-eps-empty",
        "fiber-sweep-eps-empty",
        "quartic-eps-empty",
        "quartic-window-overflows",
        "quartic-window-past-2^53",
        "quartic-window-underflows",
        "quartic-eps-to-xi-overflows",
        "quartic-threshold-overflows",
        "fiber-phase-overflows",
        "quartic-n-past-2^53",
    ],
)
def test_cli_reports_bad_input_as_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


MONTECARLO_D2 = ["verify", "montecarlo", "--model", "dipole", "--d", "2", "--seed", "1", "--eps"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--model", "dipole", "--eps", "-0.1"], f"{BAD_EPSILON}, got -0.1"),
        (["run", "--model", "dipole", "--eps", "nan"], f"{BAD_EPSILON}, got nan"),
        (["coefficients", "--model", "dipole", "--eps", "-0.1"], f"{BAD_EPSILON}, got -0.1"),
        (["verify", "fiber-sweep", "--model", "dipole", "--eps", "-0.1"],
         f"{BAD_EPSILON}, got -0.1"),
        (MONTECARLO_D2 + ["-0.1"], f"{BAD_EPSILON}, got -0.1"),
        (MONTECARLO_D2 + [""], "Monte-Carlo samples need at least one epsilon"),
        (["verify", "fiber-sweep", "--model", "dipole", "--d", "2", "--eps", ""],
         "epsilon_list is empty: the sweep would pass vacuously"),
    ],
    ids=[
        "run", "run-nan", "coefficients", "fiber-sweep", "montecarlo", "montecarlo-empty",
        "fiber-sweep-empty",
    ],
)
def test_cli_refuses_a_bad_epsilon_before_the_zone_scan(monkeypatch, capsys, argv, message):
    # each command ran a full zone scan before the epsilon list was checked
    scan, scans = floquet.scan_theta_set, []

    def counting_scan(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(floquet, "scan_theta_set", counting_scan)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert scans == []


def _preset_file(tmp_path, edit, preset="anderson"):
    """A preset as a model file, its payload first passed through ``edit``."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(model.model_to_dict(*preset_model(preset)))))
    return str(path)


def _without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def _first_hop(**fields):
    return lambda data: {**data, "hoppings": [{**data["hoppings"][0], **fields}]}


def _not_integral(field, name, value):
    refusal = f"ValueError('{name} must be an integer, got {value}')"
    return f"model field {field!r} is missing or malformed: {refusal}"


def _hops_with(key, old, new):
    """Every hop whose ``key`` is ``old`` given ``new`` in its place."""
    return lambda data: {
        **data, "hoppings": [{**h, key: new} if h[key] == old else h for h in data["hoppings"]]
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without("period"), "model field 'period' is missing or malformed: KeyError('period')"),
        (_without("disorder"), "model field 'disorder' is missing or malformed"),
        (lambda data: [data], "model field 'dimension' is missing or malformed: TypeError"),
        (_first_hop(re="abc"), "model field 'hoppings' is missing or malformed: TypeError"),
        (lambda data: {**data, "potential": [[1]]}, "model field 'potential' is missing"),
        (lambda data: {**data, "hoppings": 5}, "model field 'hoppings' is missing or malformed"),
        (lambda data: {**data, "period": 2.7}, _not_integral("period", "period", 2.7)),
        (lambda data: {**data, "dimension": 1.5}, _not_integral("dimension", "dimension", 1.5)),
        (lambda data: {**data, "dimension": True}, _not_integral("dimension", "dimension", True)),
        (_hops_with("k", [0], [0.6]), _not_integral("hoppings", "a site coordinate", 0.6)),
        (_hops_with("m", [1], [1.4]), _not_integral("hoppings", "a site coordinate", 1.4)),
    ],
    ids=[
        "no-period", "no-disorder", "top-level-list", "hop-re-abc", "potential-row-1", "hops-5",
        "period-2.7", "dimension-1.5", "dimension-true", "hop-k-0.6", "hop-m-1.4",
    ],
)
def test_cli_reports_an_unreadable_model_file_as_a_usage_error(tmp_path, capsys, edit, message):
    # each ended in a KeyError or TypeError traceback, or, for a bool or a
    # fraction in an integer field, was truncated and read
    path = _preset_file(tmp_path, edit)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--model", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: model file {path}: {message}" in err
    assert "Traceback" not in err


def _poisoned(key, value):
    """A model payload with its first hop's ``re`` or the real part of its
    potential[0][0] set to ``value``."""

    def edit(data):
        entry, index = (data["hoppings"][0], "re") if key == "re" else (data["potential"][0][0], 0)
        entry[index] = value
        return data

    return edit


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", [["validate"], ["run", "--eps", "0.01"]], ids=["validate", "run"]
)
@pytest.mark.parametrize(
    "key, value, failed",
    [
        ("re", float("nan"), "hopping_hermitian"),
        ("potential", float("nan"), "potential_hermitian"),
        ("potential", float("inf"), "potential_hermitian"),
    ],
    ids=["hop-nan", "potential-nan", "potential-inf"],
)
def test_validate_and_run_fail_a_non_finite_model(tmp_path, capsys, command, key, value, failed):
    # a NaN potential entry ended in "SVD did not converge" (exit 2) and an
    # infinite one warned of an invalid subtraction
    path = _preset_file(tmp_path, _poisoned(key, value), "dipole")
    status = main([*command, "--model", path])
    captured = capsys.readouterr()
    assert status == 1
    payload = json.loads(captured.out)
    checks = payload["checks"] if command == ["validate"] else payload["validation"]["checks"]
    assert [check["name"] for check in checks if not check["passed"]] == [failed]
    assert captured.err == ""


def test_a_directory_named_like_a_preset_does_not_shadow_it(tmp_path, monkeypatch, capsys):
    # the directory was opened as a model file: "[Errno 21] Is a directory"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "anderson").mkdir()
    status, out = run_cli(capsys, "validate", "--model", "anderson")
    assert status == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--model", "{tmp}/nope.json"], "No such file or directory: '{tmp}/nope.json'"),
        (["validate", "--model", "{tmp}"], "Is a directory: '{tmp}'"),
        (
            ["run", "--model", "anderson", "--output", "{tmp}/no/x.json"],
            "No such file or directory: '{tmp}/no/x.json'",
        ),
        (["run", "--model", "anderson", "--output", "{tmp}"], "Is a directory: '{tmp}'"),
    ],
    ids=[
        "missing-model-file", "model-is-a-directory", "output-directory-missing",
        "output-is-a-directory",
    ],
)
def test_cli_reports_a_path_it_cannot_open_as_a_usage_error(
    monkeypatch, tmp_path, capsys, argv, message
):
    # run found a bad --output only after the whole pipeline had run
    monkeypatch.setattr(pipeline, "run_pipeline", refuse("run_pipeline"))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err


def test_run_writes_to_output_what_it_would_print(tmp_path, capsys):
    argv = ["run", "--model", "dipole", "--eps", "0.01", "--samples", "2", "--seed", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--output", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out == ""
    written = (tmp_path / "r.json").read_text()
    # the report embeds its config, so only the output path differs
    assert written == printed.replace('"output": null', f'"output": "{tmp_path / "r.json"}"')


def test_cli_reports_a_convergence_error_as_a_failed_check(capsys):
    # the ground state of W = [0, 4e12] has an entry of 5e-13: the Kirsch-Simon
    # sandwich would be vacuous, and perron_frobenius_check fails it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kirsch-simon", "--model", "alloy", "--N", "2", "--W", "0,4e12"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "bandedge: error: ground state at theta = 0 is not simple and strictly positive" in err
    assert "Traceback" not in err


def _dipole_file(tmp_path, amplitude):
    """The dipole as a model file, its hop (0, 1, -2) set to ``amplitude``
    while the mirror hop (1, 0, 2) keeps -1."""
    hopping, potential, disorder = preset_model("dipole")
    table = {**hopping.coefficients, ((0,), (1,), (-2,)): amplitude}
    path = tmp_path / "model.json"
    save_model(path, model.HoppingOperator(hopping.geometry, table), potential, disorder)
    return str(path)


def _strict_json(text: str):
    """``text`` parsed as JSON, refusing Infinity, -Infinity and NaN."""
    return json.loads(text, parse_constant=refuse("a non-finite JSON number"))


@pytest.mark.parametrize("amplitude", [-1.5, float("inf")])
def test_validate_and_run_report_a_non_hermitian_table(tmp_path, capsys, amplitude):
    path = _dipole_file(tmp_path, amplitude)
    status, out = run_cli(capsys, "validate", "--model", path)
    assert status == 1
    checks = {check["name"]: check["passed"] for check in _strict_json(out)["checks"]}
    assert checks["hopping_hermitian"] is False
    status, report = run_pipeline(RunConfig(model=path, epsilon_list=(0.01,)))
    assert status == 1
    assert _strict_json(pipeline.write_report(report))["validation"] == {
        "passed": False,
        "checks": _strict_json(out)["checks"],
    }
    assert "coefficients" not in report


@pytest.mark.parametrize(
    "argv",
    [
        ["floquet-scan"],
        ["fiber", "--theta", "0.1"],
        ["coefficients"],
        ["verify", "fiber-sweep", "--eps", "0.01"],
        ["verify", "montecarlo", "--eps", "0.01", "--seed", "1"],
        ["verify", "kirsch-simon"],
    ],
)
def test_commands_refuse_a_model_that_fails_a_hypothesis(tmp_path, capsys, argv):
    # unchecked, floquet-scan's lower-triangle eigvalsh and ground_space's
    # symmetrised fiber disagree about the model
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", _dipole_file(tmp_path, -1.5)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: model fails the hypothesis checks ['hopping_hermitian']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["verify", "fiber-sweep", "--eps", "0"], ["verify", "fiber-sweep", "--eps", "0,0.01"],
     ["run", "--eps", "0"]],
)
def test_epsilon_zero_in_a_sweep_passes(capsys, argv):
    status, out = run_cli(capsys, *argv, "--model", "dipole")
    assert status == 0
    assert '"passed": true' in out


def test_sweep_measures_motion_from_the_ground_energy(tmp_path, capsys):
    # a band bottom of 5e-10 is under DEFAULT_TOL_SHIFT and stays unshifted,
    # one of -2e-9 is shifted to 0: the sweep once compared the absolute fiber
    # bottom with the motion alone, and failed the first model at eps = 1e-3
    hopping, potential, disorder = preset_model("dipole")
    path = tmp_path / "dipole.json"
    for shift in (-5e-10, 2e-9):
        save_model(path, hopping.shifted(shift), potential, disorder)
        status, out = run_cli(capsys, "run", "--model", str(path), "--eps", "1e-3,1e-2,1e-1")
        sweep = json.loads(out)["fiber_sweep"]
        assert (status, sweep["passed"]) == (0, True)
        for row in sweep["rows"]:
            assert row["residual"] == row["value"] - row["predicted"]
            assert abs(row["residual"]) < 2e-6


@pytest.mark.parametrize("params", [["--model", "anderson", "--d", "2"], ["--model", "quartic"]])
def test_montecarlo_fit_drops_epsilon_zero(capsys, params):
    # the eps = 0 minimum is a rounding-level negative, and log(0) once broke the fit
    argv = ["verify", "montecarlo", *params, "--eps", "0,1e-3,1e-2,1e-1", "--L", "4"]
    with pytest.warns(UserWarning, match=r"excluded 1 point\(s\) at epsilon <= 0$"):
        status, out = run_cli(capsys, *argv, "--samples", "2", "--seed", "1")
    assert status == 0
    summary = json.loads(out[out.index("{") :])
    assert "fit_error" not in summary
    minima = [summary["minima"][e] for e in ("0.001", "0.01", "0.1")]
    fit = verification.fit_exponent([1e-3, 1e-2, 1e-1], minima)
    assert (summary["eta"], summary["prefactor"]) == (fit.eta, fit.prefactor)


@pytest.mark.parametrize(
    "support",
    [
        ["--s-minus", "2"],
        ["--s-plus", "-0.5"],
        ["--s-minus", "0.5", "--s-plus", "0.5"],
        ["--s-minus", "nan"],
    ],
)
def test_cli_rejects_an_invalid_support(monkeypatch, capsys, support):
    monkeypatch.setattr(pipeline, "resolve_model", refuse("resolve_model"))
    with pytest.raises(SystemExit) as exc:
        main(["coefficients", "--model", "anderson", *support])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: support needs s_minus < s_plus and s_plus > 0" in err
    assert "Traceback" not in err


def test_model_file_round_trip_through_cli(tmp_path, capsys):
    hopping, potential, disorder = preset_model("dipole")
    path = tmp_path / "dipole.json"
    save_model(path, hopping, potential, disorder)
    status, out = run_cli(capsys, "coefficients", "--model", str(path))
    assert status == 0
    assert json.loads(out)["A2"] == pytest.approx(-0.25, abs=1e-10)


@pytest.mark.parametrize(
    "flags, names",
    [
        (["--s-minus", "0"], "['s_minus']"),
        (["--d", "2", "--N", "3", "--W", "0,1,2"], "['N', 'W', 'd']"),
    ],
)
def test_model_file_rejects_preset_parameters(tmp_path, capsys, flags, names):
    # a model file fixes the whole model: --s-minus 0 would otherwise be
    # dropped, and the file's sign-changing A2 reported in place of A2'
    path = tmp_path / "dipole.json"
    save_model(path, *preset_model("dipole"))
    with pytest.raises(SystemExit) as exc:
        main(["coefficients", "--model", str(path), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: a model file takes no preset parameters, got {names}" in err
    assert "Traceback" not in err


def test_regime_follows_s_minus_without_an_option(capsys):
    status, out = run_cli(capsys, "coefficients", "--model", "anderson", "--s-minus", "0")
    assert status == 0
    best = json.loads(out)
    assert best["A1"] is None and best["A1_prime"] == pytest.approx(0.0)
    with pytest.raises(SystemExit) as exc:
        main(["coefficients", "--model", "anderson", "--regime", "positive"])
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_rejects_format_option(capsys):
    # the report is always JSON; there is no --format option to ignore
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", "anderson", "--format", "CSV"])
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err
