"""The benchmark's workloads: inputs drawn from the seed, a fixed op list, and
an output check on every op.

Ops call only public functions of bandedge.model, floquet, perturbation,
verification and pipeline, and receive only the generated inputs (preset
names with parameters, couplings, angles).  Each op resolves its models
itself, so every pass pays the same work.  An op whose result disagrees with
a closed form or an independent oracle raises CheckFailed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tracing
from bandedge import floquet, model, pipeline, verification

COEFF_TOL = 1e-10  # closed-form A1 / A2
DUAL_TOL = 1e-10  # torus minimum against the dual-grid fiber minimum
WEYL_TOL = 1e-9  # Monte-Carlo minima against the Weyl bounds
SWEEP_TOL = 1e-13  # dipole fiber bottom against 2 - sqrt(4 + eps^2)

SCAN_EPS = (1e-3, 1e-2, 1e-1)
MC_EPS = (1e-5, 3e-5, 1e-4)
MC_SAMPLES = 12
RAYLEIGH_NS = (8, 16, 32, 64, 128, 256, 512)
KS_GRID = 64


class CheckFailed(Exception):
    """An op's result disagrees with its closed form or oracle."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], None]


@dataclass(frozen=True)
class Workload:
    models: tuple[tuple[str, dict], ...]  # every (preset, params) the ops resolve
    ops: tuple[Op, ...]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _label(name: str, params: dict) -> str:
    label = f"{name}-d{params.get('d', 1)}"
    if "N" in params:
        label += f"-N{params['N']}"
    if "s_minus" in params:
        label += f"-s{params['s_minus']:g},{params['s_plus']:g}"
    return label


def _check_report(status: int, report: dict, expect: dict) -> None:
    _check(status == 0, f"run_pipeline status {status}")
    best = report["coefficients"]["best"]
    for key, value in expect.items():
        _check(abs(best[key] - value) <= COEFF_TOL, f"{key} = {best[key]!r}, expected {value!r}")


def _pipeline_op(name: str, params: dict, expect: dict) -> Op:
    config = pipeline.RunConfig(model=name, epsilon_list=SCAN_EPS, model_params=params)

    def run() -> None:
        status, report = pipeline.run_pipeline(config)
        _check_report(status, report, expect)

    return Op(f"pipeline:{_label(name, params)}", run)


def _montecarlo_op(
    name: str, params: dict, epsilon: float, L: int, seed: int, expect: dict
) -> Op:
    config = pipeline.RunConfig(
        model=name,
        epsilon_list=(epsilon,),
        model_params=params,
        verify=pipeline.VerifyConfig(L=L, samples=MC_SAMPLES, seed=seed),
    )

    def run() -> None:
        minima: list[float] = []

        def record(box_min_eig):
            @functools.wraps(box_min_eig)
            def recorded(*args, **kwargs):
                sample = box_min_eig(*args, **kwargs)
                minima.append(sample.lambda_min)
                return sample

            return recorded

        # run_pipeline reports only the min and mean per epsilon; the tap
        # hands every sample's minimum to the Weyl check
        with tracing.patched("verification", "box_min_eig", record):
            status, report = pipeline.run_pipeline(config)
        _check_report(status, report, expect)
        _check(len(minima) == MC_SAMPLES, f"{len(minima)} samples, expected {MC_SAMPLES}")
        _check(
            report["montecarlo"][repr(epsilon)]["min"] == min(minima),
            "reported minimum is not the minimum of the samples",
        )
        # the shifted H0 has torus minimum 0 (theta = 0 is on the dual grid),
        # and the disorder term is block diagonal with blocks eps * s * V
        _, potential, disorder = model.preset_model(name, **params)
        ends = [
            s * float(v)
            for s in (disorder.s_minus, disorder.s_plus)
            for v in np.linalg.eigvalsh(potential.matrix)
        ]
        lower, upper = epsilon * min(ends), epsilon * max(ends)
        for lam in minima:
            _check(
                lower - WEYL_TOL <= lam <= upper + WEYL_TOL,
                f"sample minimum {lam!r} outside Weyl bounds [{lower!r}, {upper!r}]",
            )

    return Op(f"montecarlo:{_label(name, params)}-L{L}-eps{epsilon:g}", run)


def _dual_op(
    name: str, params: dict, epsilon: float, L: int, endpoints=("s_minus", "s_plus")
) -> Op:
    """Constant-coupling torus against the dual-grid fiber minimum, with the
    coupling at the named endpoints of the support."""

    def run() -> None:
        hopping, potential, disorder = model.preset_model(name, **params)
        for q in (getattr(disorder, e) for e in endpoints):
            sample = verification.box_min_eig(
                hopping, potential, disorder, epsilon, L, sampler=verification.SAMPLER_CONSTANT, q=q
            )
            dual = verification.torus_dual_minimum(hopping, potential, epsilon, q, L)
            _check(
                abs(sample.lambda_min - dual) <= DUAL_TOL,
                f"q={q}: torus {sample.lambda_min!r} vs dual grid {dual!r}",
            )

    suffix = "" if len(endpoints) > 1 else f"-{endpoints[0]}"
    return Op(f"torus-dual:{_label(name, params)}-L{L}{suffix}", run)


def _kirsch_simon_op(W: list[float]) -> Op:
    params = {"d": 2, "N": 3, "W": W}

    def run() -> None:
        hopping, _, _ = model.preset_model("alloy", **params)
        axis = np.linspace(0.0, 2.0 * np.pi / 3, KS_GRID, endpoint=False)
        grid = [list(c) for c in itertools.product(axis, repeat=2)]
        report = verification.kirsch_simon_sandwich(hopping, grid)
        _check(report.n_points == KS_GRID**2, f"{report.n_points} grid points")
        _check(report.passed, f"{len(report.violations)} sandwich violations")

    return Op(f"kirsch-simon:{_label('alloy', params)}", run)


def _sweep_op(name: str, eps_list: tuple[float, ...]) -> Op:
    """Coupling-swept fiber bottom at theta = 0 against its closed form."""
    if name == "anderson":
        # the fiber at theta = 0 is exactly [0], so the bottom is exactly -eps
        def expected(e: float) -> float:
            return -e

        tol = 0.0
    else:
        # fiber [[2 + eps q, -2], [-2, 2 - eps q]]: bottom 2 - sqrt(4 + eps^2),
        # written without cancellation
        def expected(e: float) -> float:
            return -(e * e) / (2.0 + math.sqrt(4.0 + e * e))

        tol = SWEEP_TOL

    def run() -> None:
        hopping, potential, disorder = model.preset_model(name)
        for e in eps_list:
            value = verification.fiber_min_over_q(hopping, potential, disorder, [0.0], e).value
            _check(abs(value - expected(e)) <= tol, f"eps={e!r}: {value!r} vs {expected(e)!r}")

    return Op(f"fiber-sweep:{name}", run)


def _rayleigh_op(cases: tuple[tuple[str, float], ...]) -> Op:
    """Truncated quasi-periodic quotients against the fiber quotient, for each
    (preset, theta) in ``cases``.

    In d = 1 a window of n cells loses exactly the hops that leave it, so
    |q_n - limit| <= sum |u_k H0(k, k' + m) u_k'| |m / N| / (|u|^2 n).
    """

    def check(name: str, theta: float) -> None:
        hopping, potential, _ = model.preset_model(name)
        geom = hopping.geometry
        if name == "quartic":
            u0 = np.ones(3) / np.sqrt(3.0)
        else:
            u0 = floquet.ground_space(hopping, [theta]).basis[:, 0]
        quotients = verification.quasiperiodic_rayleigh(
            hopping, potential, 1.0, 0.01, [theta], u0, RAYLEIGH_NS
        )
        limit = verification.fiber_quotient(hopping, potential, 1.0, 0.01, [theta], u0)
        leak = sum(
            abs(u0[geom.site_index(k)] * value * u0[geom.site_index(kp)]) * abs(m[0] // geom.N)
            for (k, kp, m), value in hopping
        ) / float(np.vdot(u0, u0).real)
        for n, quotient in zip(RAYLEIGH_NS, quotients):
            _check(
                abs(quotient - limit) <= leak / n + 1e-12,
                f"{name} n={n}: |{quotient!r} - {limit!r}| exceeds {leak / n!r}",
            )

    def run() -> None:
        for name, theta in cases:
            check(name, theta)

    return Op(f"rayleigh:{','.join(name for name, _ in cases)}", run)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def scan2d(seed: int) -> Workload:
    """run_pipeline without sampling on d = 2 models: zone-scan bound.

    The two dipole ops (sign-changing and nonnegative couplings) cost the
    same and sit between the cheap anderson op and the dear alloy op, so the
    median and the tail op latency both fall on them whenever a run makes 4
    to 10 passes.
    """
    rng = np.random.default_rng(seed)
    W = [float(w) for w in rng.uniform(0.0, 2.0, size=9)]
    specs = (
        ("anderson", {"d": 2}, {"A1": -1.0}),
        ("dipole", {"d": 2}, {"A2": -3.0 / 32.0}),
        ("dipole", {"d": 2, "s_minus": 0.0, "s_plus": 1.0}, {"A2_prime": -3.0 / 32.0}),
        ("alloy", {"d": 2, "N": 3, "W": W}, {}),
    )
    ops = tuple(_pipeline_op(name, params, expect) for name, params, expect in specs)
    return Workload(tuple((name, params) for name, params, _ in specs), ops)


def mc1d(seed: int) -> Workload:
    """run_pipeline with torus Monte-Carlo in d = 1: dense torus eigensolves."""
    rng = np.random.default_rng(seed)
    # both tori have 256 sites, the size criterion 1 samples
    specs = (
        ("anderson", {"d": 1}, 256, {"A1": -1.0}),
        ("dipole", {"d": 1}, 128, {"A2": -0.25}),
    )
    ops = tuple(
        _montecarlo_op(name, params, epsilon, L, int(rng.integers(2**31)), expect)
        for name, params, L, expect in specs
        for epsilon in MC_EPS
    )
    return Workload(tuple((name, params) for name, params, _, _ in specs), ops)


def oracles(seed: int) -> Workload:
    """The independent cross-checks, one theta or one torus at a time.

    The four cheap ops (sweeps, quasi-periodic quotients, quartic pipeline)
    sit below the five dense torus checks and the four sparse or
    Kirsch-Simon ops above them, so the median op latency falls in the
    middle of the dense torus checks.  The two
    dipole sparse tori cost about what the Kirsch-Simon op costs, so the
    tail (rank 11 from the top) falls among these three ops whenever a run
    makes 4 to 10 passes.
    """
    rng = np.random.default_rng(seed)
    alloy_dual = {"d": 2, "N": 3, "W": [float(w) for w in rng.uniform(0.0, 2.0, size=9)]}
    alloy_ks = [float(w) for w in rng.uniform(0.0, 2.0, size=9)]
    # dense tori of 225-256 sites, then three past DENSE_SITE_CUTOFF (5,184
    # and 9,216 sites) on the sparse path
    dense = (
        ("anderson", {"d": 1}, 256),
        ("dipole", {"d": 1}, 128),
        ("quartic", {}, 85),
        ("dipole", {"d": 2}, 8),
        ("alloy", alloy_dual, 5),
    )
    ops = [
        _dual_op(name, params, float(_log_uniform(rng, 1e-3, 1e-1)), L)
        for name, params, L in dense
    ]
    sparse = (
        ("anderson", {"d": 2}, 72, str(rng.choice(["s_minus", "s_plus"]))),
        ("dipole", {"d": 2}, 48, "s_minus"),
        ("dipole", {"d": 2}, 48, "s_plus"),
    )
    ops += [
        _dual_op(name, params, float(_log_uniform(rng, 1e-3, 1e-1)), L, (endpoint,))
        for name, params, L, endpoint in sparse
    ]
    ops.append(_kirsch_simon_op(alloy_ks))
    sweep_eps = (1e-1, 1e-2, 1e-3, 1e-4) + tuple(
        float(e) for e in _log_uniform(rng, 1e-4, 1e-1, size=4)
    )
    ops += [_sweep_op("anderson", sweep_eps), _sweep_op("dipole", sweep_eps)]
    ops.append(
        _rayleigh_op(
            (
                ("anderson", float(rng.uniform(0.0, 2.0 * np.pi))),
                ("dipole", float(rng.uniform(0.0, np.pi))),
                ("quartic", 0.0),
            )
        )
    )
    ops.append(_pipeline_op("quartic", {}, {"A2": -1.0 / 18.0}))
    models = tuple((name, params) for name, params, *_ in dense + sparse) + (
        ("alloy", {"d": 2, "N": 3, "W": alloy_ks}),
    )
    return Workload(models, tuple(ops))


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "scan2d": scan2d,
    "mc1d": mc1d,
    "oracles": oracles,
}
