"""End-to-end run configuration and orchestration."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import model

if TYPE_CHECKING:  # the functions that use them import them: resolve_model needs none
    from . import floquet, perturbation, verification


def worker_count() -> int:
    """Monte-Carlo worker count, recorded in benchmark environments. Sampling
    is serial: a thread pool measured slower than the serial loop on a 2-core
    host.
    """
    return 1


@dataclass(frozen=True)
class VerifyConfig:
    L: int = 64
    samples: int = 0
    seed: int | None = None
    sampler: str = model.SAMPLER_ENDPOINT

    def __post_init__(self) -> None:
        model._require_count("L", self.L, 1)
        model._require_count("samples", self.samples, 0)
        if self.samples > 0 or self.seed is not None:  # sampling needs a seed
            model._require_count("seed", self.seed, 0)


@dataclass(frozen=True)
class RunConfig:
    model: str  # preset name or path to a model JSON file
    epsilon_list: tuple[float, ...] = ()
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    output: str | None = None  # report path; None returns the report text
    model_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the OSError write_report would raise, before any run
        if (p := self.output) is not None and (Path(p).is_dir() or not Path(p).parent.is_dir()):
            code = errno.EISDIR if Path(p).is_dir() else errno.ENOENT
            raise OSError(code, os.strerror(code), p)
        eps = tuple(sorted(float(e) for e in self.epsilon_list))
        object.__setattr__(self, "epsilon_list", eps)
        for epsilon in eps:  # before any scan
            model._require_epsilon(epsilon)
        if self.verify.samples > 0 and not eps:
            raise ValueError("Monte-Carlo samples need at least one epsilon")


def resolve_model(
    name: str, params: dict | None = None
) -> tuple[model.HoppingOperator, model.SingleCellPotential, model.DisorderSupport]:
    """Load a model from a preset name, or from a JSON file path without params."""
    params = dict(params or {})
    path = Path(name)
    if path.suffix == ".json" or path.exists():
        if params:
            raise ValueError(f"a model file takes no preset parameters, got {sorted(params)}")
        return model.load_model(path)
    return model.preset_model(name, **params)


def scan_zone(
    hopping: model.HoppingOperator,
    grid_per_dim: int = model.DEFAULT_GRID_PER_DIM,
    refinements: int = model.DEFAULT_REFINEMENTS,
) -> floquet.ThetaSet:
    """The one zone scan of a run: minimizers of the lowest band, with the
    operator shifted so that its band bottom is zero."""
    from . import floquet

    return floquet.scan_theta_set(
        hopping, grid_per_dim, refinements, tol_shift=model.DEFAULT_TOL_SHIFT
    )


def coefficients_report(
    theta_set: floquet.ThetaSet,
    potential: model.SingleCellPotential,
    disorder: model.DisorderSupport,
    epsilon_list,
) -> tuple[dict, floquet.GroundSpaceData, perturbation.EdgeCoefficients]:
    """Per-minimizer expansion coefficients of a zone scan, plus the best
    minimizer's ground space and coefficients.

    With several minimizers the reported bound takes the minimum over them;
    ties in the coefficients are broken by lexicographic order of theta.
    """
    from . import floquet, perturbation

    hopping = theta_set.hopping
    rows = []
    for theta in theta_set.minimizers:
        ground = floquet.ground_space(hopping, theta)
        coeffs = perturbation.edge_coefficients(ground, potential, disorder)
        bound = {repr(e): perturbation.edge_bound(coeffs, e) for e in epsilon_list}
        rows.append(({**dataclasses.asdict(coeffs), "bound": bound}, ground, coeffs))
    best, ground, coeffs = min(
        rows, key=lambda row: (min(row[0]["bound"].values(), default=0.0), tuple(row[2].theta))
    )
    report = {
        "E0": theta_set.E0,
        "resolution": theta_set.resolution,
        "minimizers": [list(map(float, t)) for t in theta_set.minimizers],
        "per_theta": [entry for entry, _, _ in rows],
        "best": best,
    }
    return report, ground, coeffs


def montecarlo_minima(
    hopping: model.HoppingOperator,
    potential: model.SingleCellPotential,
    disorder: model.DisorderSupport,
    epsilon_list,
    L: int,
    samples: int,
    seed: int,
    sampler: str = model.SAMPLER_ENDPOINT,
) -> list[list[verification.BoxSpectrumSample]]:
    """Independent disorder realizations for each epsilon of ``epsilon_list``,
    one per seed seed + i, in seed order, on the same seeds for every epsilon;
    all filled from one torus structure, which bad input never reaches."""
    from . import verification

    if len(epsilon_list) == 0:
        raise ValueError("Monte-Carlo samples need at least one epsilon")
    for epsilon in epsilon_list:
        model._require_epsilon(epsilon)
    model._require_count("samples", samples, 1)
    model._require_count("L", L, 1)
    model._require_count("seed", seed, 0)
    if sampler not in (model.SAMPLER_ENDPOINT, model.SAMPLER_UNIFORM):
        raise ValueError(f"unknown Monte-Carlo sampler {sampler!r}")
    structure = verification.torus_structure(hopping, potential, L)
    return [
        [
            verification.box_min_eig(
                hopping, potential, disorder, epsilon, L, sampler, seed + i, structure=structure
            )
            for i in range(samples)
        ]
        for epsilon in epsilon_list
    ]


def run_pipeline(config: RunConfig) -> tuple[int, dict]:
    """validate -> scan and shift -> coefficients -> optional verification.

    Returns (exit_status, report); status is nonzero iff a hard check
    failed.
    """
    hopping, potential, disorder = resolve_model(config.model, config.model_params)
    report: dict = {"config": dataclasses.asdict(config)}
    status = 0

    report["validation"] = validation_block(model.validate_hypotheses(hopping, potential))
    if not report["validation"]["passed"]:
        return 1, report

    theta_set = scan_zone(hopping)
    hopping = theta_set.hopping
    report["energy_shift"] = hopping.energy_shift

    report["coefficients"], ground, coeffs = coefficients_report(
        theta_set, potential, disorder, config.epsilon_list
    )

    if config.epsilon_list:
        from . import verification

        sandwich = verification.fiber_bound_sandwich(
            potential, disorder, ground, coeffs, config.epsilon_list
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
            eps, v = config.epsilon_list, config.verify
            runs = montecarlo_minima(
                hopping, potential, disorder, eps, v.L, v.samples, v.seed, v.sampler
            )
            report["montecarlo"] = {
                repr(e): {"min": min(lams), "mean": float(np.mean(lams))}
                for e, lams in zip(eps, [[s.lambda_min for s in r] for r in runs])
            }

    report["status"] = status
    return status, report


def validation_block(report: model.ValidationReport) -> dict:
    """The ``validation`` payload of ``run`` and ``validate``."""
    return {"passed": report.passed, "checks": [dataclasses.asdict(c) for c in report.checks]}


def write_report(report: dict, path: str | None = None) -> str | None:
    """Strict JSON text of a report or any CLI payload, written to ``path``
    when it is given, else returned."""
    text = json.dumps(_json_ready(report), indent=2, allow_nan=False)
    if path is None:
        return text
    Path(path).write_text(text + "\n")
    return None


def _json_ready(obj):
    """numpy values as Python ones, a complex number as {"re", "im"}, and a
    non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _json_ready(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _json_ready(obj.real), "im": _json_ready(obj.imag)}
    return repr(obj) if isinstance(obj, float) and not np.isfinite(obj) else obj
