"""End-to-end run configuration and orchestration."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import floquet, model, perturbation, verification


def worker_count() -> int:
    """Monte-Carlo worker count, recorded in benchmark environments. Sampling
    is serial: a thread pool measured slower than the serial loop on a 2-core
    host.
    """
    return 1


@dataclass(frozen=True)
class BZConfig:
    grid_per_dim: int = floquet.DEFAULT_GRID_PER_DIM
    refinements: int = floquet.DEFAULT_REFINEMENTS


@dataclass(frozen=True)
class Tolerances:
    tol_shift: float = model.DEFAULT_TOL_SHIFT
    tol_theta: float = floquet.DEFAULT_TOL_THETA
    tol_deg: float | None = None  # None: max(1e-10, 1e-8 * fiber norm)
    tol_case: float | None = None  # None: scaled by potential and coupling size

    def __post_init__(self) -> None:
        for name in ("tol_shift", "tol_theta", "tol_deg", "tol_case"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class VerifyConfig:
    L: int = 64
    samples: int = 0
    seed: int | None = None
    sampler: str = verification.SAMPLER_ENDPOINT

    def __post_init__(self) -> None:
        if self.samples > 0 and self.seed is None:
            raise ValueError("a seed is required whenever samples > 0")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "JSON"  # the only format; kept because reports embed the config
    path: str | None = None


@dataclass(frozen=True)
class RunConfig:
    model: str  # preset name or path to a model JSON file
    epsilon_list: tuple[float, ...] = ()
    bz: BZConfig = field(default_factory=BZConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    model_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        eps = tuple(sorted(float(e) for e in self.epsilon_list))
        object.__setattr__(self, "epsilon_list", eps)


def resolve_model(
    name: str, params: dict | None = None
) -> tuple[model.HoppingOperator, model.SingleCellPotential, model.DisorderSupport]:
    """Load a model from a preset name or a JSON file path."""
    params = dict(params or {})
    path = Path(name)
    if path.suffix == ".json" or path.exists():
        return model.load_model(path)
    return model.preset_model(name, **params)


def scan_zone(
    hopping: model.HoppingOperator,
    bz: BZConfig | None = None,
    tolerances: Tolerances | None = None,
) -> floquet.ThetaSet:
    """The one zone scan of a run: minimizers of the lowest band, with the
    operator shifted so that its band bottom is zero.  Configs default to
    BZConfig() and Tolerances()."""
    bz = bz or BZConfig()
    tolerances = tolerances or Tolerances()
    return floquet.scan_theta_set(
        hopping,
        bz.grid_per_dim,
        bz.refinements,
        tol_theta=tolerances.tol_theta,
        tol_shift=tolerances.tol_shift,
    )


def coefficients_report(
    theta_set: floquet.ThetaSet,
    potential: model.SingleCellPotential,
    disorder: model.DisorderSupport,
    config: RunConfig,
) -> dict:
    """Per-minimizer expansion coefficients of a zone scan.

    With several minimizers the reported bound takes the minimum over them;
    ties in the coefficients are broken by lexicographic order of theta.
    """
    hopping = theta_set.hopping
    per_theta = []
    for theta in theta_set.minimizers:
        ground = floquet.ground_space(hopping, theta, tol_deg=config.tolerances.tol_deg)
        coeffs = perturbation.edge_coefficients(
            ground, potential, disorder, tol_case=config.tolerances.tol_case
        )
        per_theta.append(
            {
                "theta": list(map(float, theta)),
                "p": ground.p,
                "gap": ground.gap,
                "P": [float(x) for x in coeffs.P],
                "A1": coeffs.A1,
                "A2": coeffs.A2,
                "A1_prime": coeffs.A1_prime,
                "A2_prime": coeffs.A2_prime,
                "case": coeffs.case,
                "nondegenerate": coeffs.nondegenerate,
                "V01_dim": coeffs.V01_dim,
                "bound": {
                    repr(e): perturbation.edge_bound(coeffs, e) for e in config.epsilon_list
                },
                "_coeffs": coeffs,
            }
        )
    best = min(
        per_theta,
        key=lambda entry: (
            min(entry["bound"].values(), default=0.0),
            tuple(entry["theta"]),
        ),
    )
    return {
        "E0": theta_set.E0,
        "resolution": theta_set.resolution,
        "minimizers": [list(map(float, t)) for t in theta_set.minimizers],
        "per_theta": per_theta,
        "best": best,
    }


def montecarlo_minima(
    hopping: model.HoppingOperator,
    potential: model.SingleCellPotential,
    disorder: model.DisorderSupport,
    epsilon: float,
    L: int,
    samples: int,
    seed: int,
    sampler: str = verification.SAMPLER_ENDPOINT,
) -> list[verification.BoxSpectrumSample]:
    """Independent disorder realizations, one per seed seed + i, in seed order."""
    return [
        verification.box_min_eig(
            hopping, potential, disorder, epsilon, L, sampler=sampler, seed=seed + i
        )
        for i in range(samples)
    ]


def run_pipeline(config: RunConfig) -> tuple[int, dict]:
    """validate -> scan and shift -> coefficients -> optional verification.

    Returns (exit_status, report); status is nonzero iff a hard invariant
    failed.
    """
    hopping, potential, disorder = resolve_model(config.model, config.model_params)
    report: dict = {"config": dataclasses.asdict(config)}
    status = 0

    validation = model.validate_hypotheses(hopping, potential)
    report["validation"] = {
        "passed": validation.passed,
        "checks": [dataclasses.asdict(c) for c in validation.checks],
    }
    if not validation.passed:
        return 1, report

    theta_set = scan_zone(hopping, config.bz, config.tolerances)
    hopping = theta_set.hopping
    report["energy_shift"] = hopping.energy_shift

    coeff_report = coefficients_report(theta_set, potential, disorder, config)
    best = coeff_report["best"]
    coeffs = best.pop("_coeffs")
    for entry in coeff_report["per_theta"]:
        entry.pop("_coeffs", None)
    report["coefficients"] = coeff_report

    if config.epsilon_list:
        theta = np.array(best["theta"])
        sandwich = verification.fiber_bound_sandwich(
            hopping, potential, disorder, theta, config.epsilon_list
        )
        report["fiber_sweep"] = {
            "case": sandwich.case,
            "C": sandwich.C,
            "passed": sandwich.passed,
            "rows": [dataclasses.asdict(r) for r in sandwich.rows],
        }
        if not sandwich.passed:
            status = 1

        if config.verify.samples > 0:
            mc = {}
            for epsilon in config.epsilon_list:
                samples = montecarlo_minima(
                    hopping,
                    potential,
                    disorder,
                    epsilon,
                    config.verify.L,
                    config.verify.samples,
                    config.verify.seed,
                    config.verify.sampler,
                )
                mc[repr(epsilon)] = {
                    "min": min(s.lambda_min for s in samples),
                    "mean": float(np.mean([s.lambda_min for s in samples])),
                }
            report["montecarlo"] = mc

    report["status"] = status
    return status, report


def write_report(report: dict, output: OutputConfig) -> str | None:
    if output.path is None:
        return json.dumps(report, indent=2, default=_json_default)
    text = json.dumps(report, indent=2, default=_json_default)
    Path(output.path).write_text(text + "\n")
    return None


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")
