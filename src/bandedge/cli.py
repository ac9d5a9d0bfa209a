"""Command-line interface.

Subcommands: validate, floquet-scan, fiber, coefficients,
verify {fiber-sweep, montecarlo, quartic, kirsch-simon}, run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import model, pipeline  # each handler imports the rest of what it uses


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _count_at_least(minimum: int, maximum: int | None = None):
    def count(text: str) -> int:  # an argparse type: an integer in [minimum, maximum]
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        if maximum is not None and int(text) > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text}")
        return int(text)

    return count


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help="preset name (anderson, dipole, quartic, alloy) or path to a model JSON file",
    )
    parser.add_argument("--s-minus", type=float, default=None)
    parser.add_argument("--s-plus", type=float, default=None)
    parser.add_argument("--d", type=int, default=None, help="dimension for presets that take one")
    parser.add_argument("--N", type=int, default=None, help="period, alloy preset only")
    parser.add_argument("--W", default=None, help="comma-separated cell background, alloy preset")


def _model_params(args) -> dict:
    params = {}
    for key in ("s_minus", "s_plus", "d", "N"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if getattr(args, "W", None) is not None:
        params["W"] = _parse_floats(args.W)
    return params


def _load(args):
    """The model, refused as ``run`` refuses it when a hypothesis check fails."""
    hopping, potential, disorder = pipeline.resolve_model(args.model, _model_params(args))
    if failed := model.validate_hypotheses(hopping, potential).failed_names():
        raise ValueError(f"model fails the hypothesis checks {failed}")
    return hopping, potential, disorder


def _emit_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _print_json(payload) -> None:
    print(pipeline.write_report(payload))


def _fit_summary(epsilons, values) -> dict:
    """The exponent fit's eta, prefactor and r_squared, or the reason it failed."""
    from . import verification

    try:
        fit = verification.fit_exponent(epsilons, values)
    except ValueError as exc:
        return {"fit_error": str(exc)}
    return {"eta": fit.eta, "prefactor": fit.prefactor, "r_squared": fit.r_squared}


def cmd_validate(args) -> int:
    hopping, potential, _ = pipeline.resolve_model(args.model, _model_params(args))
    block = pipeline.validation_block(model.validate_hypotheses(hopping, potential))
    _print_json(block)
    return 0 if block["passed"] else 1


def cmd_floquet_scan(args) -> int:
    from . import floquet

    hopping, _, _ = _load(args)
    theta_set = pipeline.scan_zone(hopping, args.grid, args.refinements)
    rows = []
    for theta in theta_set.minimizers:
        ground = floquet.ground_space(theta_set.hopping, theta)
        row = {f"theta_{i}": float(t) for i, t in enumerate(theta)}
        row.update({"lambda_min": ground.e0, "p": ground.p, "gap": ground.gap})
        rows.append(row)
    _emit_csv(rows, sys.stdout)
    return 0


def cmd_fiber(args) -> int:
    from . import floquet

    hopping, _, _ = _load(args)
    theta = np.array(_parse_floats(args.theta))
    fiber = floquet.build_floquet(hopping, theta)
    eigenvalues, vectors = floquet.fiber_eigh(fiber)
    _print_json({"theta": theta, "eigenvalues": eigenvalues, "eigenvectors": vectors.T})
    return 0


def cmd_coefficients(args) -> int:
    hopping, potential, disorder = _load(args)
    eps = pipeline.RunConfig(model=args.model, epsilon_list=tuple(args.eps or ())).epsilon_list
    theta_set = pipeline.scan_zone(hopping)
    report, _, _ = pipeline.coefficients_report(theta_set, potential, disorder, eps)
    _print_json(report["best"])
    return 0


def cmd_verify_fiber_sweep(args) -> int:
    from . import verification

    eps = pipeline.RunConfig(model=args.model, epsilon_list=tuple(args.eps)).epsilon_list
    if not args.eps:  # refused before the scan, as fiber_bound_sandwich would refuse it
        raise ValueError("epsilon_list is empty: the sweep would pass vacuously")
    hopping, potential, disorder = _load(args)
    theta_set = pipeline.scan_zone(hopping)
    _, ground, coeffs = pipeline.coefficients_report(theta_set, potential, disorder, eps)
    report = verification.fiber_bound_sandwich(potential, disorder, ground, coeffs, args.eps)
    summary = dataclasses.asdict(report)
    _emit_csv(summary.pop("rows"), sys.stdout)
    _print_json({**summary, "passed": report.passed})
    return 0 if report.passed else 1


def cmd_verify_montecarlo(args) -> int:
    verify = pipeline.VerifyConfig(args.L, args.samples, args.seed, args.sampler)
    pipeline.RunConfig(args.model, tuple(args.eps), verify=verify)  # refused before the scan
    hopping, potential, disorder = _load(args)
    hopping = pipeline.scan_zone(hopping).hopping
    runs = pipeline.montecarlo_minima(
        hopping, potential, disorder, args.eps, args.L, args.samples, args.seed, args.sampler
    )
    rows = [
        {"epsilon": epsilon, "seed": args.seed + i, "lambda_min": s.lambda_min}
        for epsilon, run in zip(args.eps, runs)
        for i, s in enumerate(run)
    ]
    minima = [min(s.lambda_min for s in run) for run in runs]
    _emit_csv(rows, sys.stdout)
    _print_json(
        {"minima": dict(zip(map(repr, args.eps), minima)), **_fit_summary(args.eps, minima)}
    )
    return 0


def cmd_verify_quartic(args) -> int:
    from . import verification

    if not args.eps:
        raise ValueError("no epsilon given: the quartic check would hold vacuously")
    rows = []
    for epsilon in args.eps:
        value = verification.quartic_trial_energy(epsilon, args.xi, args.n)
        target = -(1.0 / 6.0) * epsilon ** (1.0 + 2.0 * args.xi)
        rows.append(
            {
                "epsilon": epsilon,
                "value": value,
                "target": target,
                "satisfied": value <= target,
            }
        )
    _emit_csv(rows, sys.stdout)
    satisfied = all(r["satisfied"] for r in rows)
    _print_json(
        {"all_satisfied": satisfied, **_fit_summary(args.eps, [r["value"] for r in rows])}
    )
    return 0 if satisfied else 1


def cmd_verify_kirsch_simon(args) -> int:
    from . import floquet, verification

    hopping, _, _ = _load(args)
    grid = floquet.zone_grid(hopping.geometry, args.grid)
    report = verification.kirsch_simon_sandwich(hopping, grid)
    _print_json({**dataclasses.asdict(report), "passed": report.passed})
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    config = pipeline.RunConfig(
        model=args.model,
        epsilon_list=tuple(args.eps or ()),
        verify=pipeline.VerifyConfig(
            L=args.L, samples=args.samples, seed=args.seed, sampler=args.sampler
        ),
        output=args.output,
        model_params=_model_params(args),
    )
    status, report = pipeline.run_pipeline(config)
    text = pipeline.write_report(report, config.output)
    if text is not None:
        print(text)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandedge",
        description="Spectral-edge expansion coefficients for weakly disordered lattice operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the model hypotheses")
    _add_model_argument(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("floquet-scan", help="scan the zone for band minimizers (CSV)")
    _add_model_argument(p)
    p.add_argument("--grid", type=_count_at_least(1), default=model.DEFAULT_GRID_PER_DIM)
    refinements = _count_at_least(0, model.MAX_REFINEMENTS)
    p.add_argument("--refinements", type=refinements, default=model.DEFAULT_REFINEMENTS)
    p.set_defaults(func=cmd_floquet_scan)

    p = sub.add_parser("fiber", help="full fiber spectrum at one theta (JSON)")
    _add_model_argument(p)
    p.add_argument("--theta", required=True, help="comma-separated components")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("coefficients", help="expansion coefficients at the best minimizer (JSON)")
    _add_model_argument(p)
    p.add_argument("--eps", type=_parse_floats, default=[])
    p.set_defaults(func=cmd_coefficients)

    verify = sub.add_parser("verify", help="independent numerical checks")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser(
        "fiber-sweep",
        help="CSV columns: epsilon, value, predicted, residual, lower_ok, upper_ok",
    )
    _add_model_argument(p)
    p.add_argument("--eps", type=_parse_floats, required=True)
    p.set_defaults(func=cmd_verify_fiber_sweep)

    p = vsub.add_parser(
        "montecarlo", help="CSV columns: epsilon, seed, lambda_min; JSON exponent fit"
    )
    _add_model_argument(p)
    p.add_argument("--eps", type=_parse_floats, required=True)
    p.add_argument("--L", type=_count_at_least(1), default=64)
    p.add_argument("--samples", type=_count_at_least(1), default=50)
    p.add_argument("--seed", type=_count_at_least(0), required=True)
    p.add_argument(
        "--sampler",
        default=model.SAMPLER_ENDPOINT,
        choices=[model.SAMPLER_ENDPOINT, model.SAMPLER_UNIFORM],
    )
    p.set_defaults(func=cmd_verify_montecarlo)

    p = vsub.add_parser(
        "quartic", help="CSV columns: epsilon, value, target, satisfied (trial-state energies)"
    )
    p.add_argument("--xi", type=float, default=0.3)
    p.add_argument("--eps", type=_parse_floats, required=True)
    p.add_argument("--n", type=_count_at_least(1), help="window size; adaptive when omitted")
    p.set_defaults(func=cmd_verify_quartic)

    p = vsub.add_parser("kirsch-simon", help="two-sided band-motion sandwich (JSON)")
    _add_model_argument(p)
    p.add_argument("--grid", type=_count_at_least(1), default=256)
    p.set_defaults(func=cmd_verify_kirsch_simon)

    p = sub.add_parser("run", help="full pipeline: validate, scan, coefficients, verification")
    _add_model_argument(p)
    p.add_argument("--eps", type=_parse_floats, default=[])
    p.add_argument("--L", type=_count_at_least(1), default=64)
    p.add_argument("--samples", type=_count_at_least(0), default=0)
    p.add_argument("--seed", type=_count_at_least(0), default=None)
    p.add_argument(
        "--sampler",
        default=model.SAMPLER_ENDPOINT,
        choices=[model.SAMPLER_ENDPOINT, model.SAMPLER_UNIFORM],
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    support = [getattr(args, key, None) for key in ("s_minus", "s_plus")]
    if support != [None, None]:
        try:  # an endpoint not given keeps the presets' default, -1 or 1
            model.DisorderSupport(*(d if v is None else v for v, d in zip(support, (-1.0, 1.0))))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a model, theta, parameter or path it cannot take
        parser.error(str(exc))
    except model.ConvergenceError as exc:  # a check that cannot be completed has failed
        parser.exit(1, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
