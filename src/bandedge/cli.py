"""Command-line interface.

Subcommands: validate, floquet-scan, fiber, coefficients,
verify {fiber-sweep, montecarlo, quartic, kirsch-simon}, run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import floquet, model, pipeline, verification


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        required=True,
        help="preset name (anderson, dipole, quartic, alloy) or path to a model JSON file",
    )
    parser.add_argument("--s-minus", type=float, default=None)
    parser.add_argument("--s-plus", type=float, default=None)
    parser.add_argument("--regime", choices=["sign_changing", "positive"], default=None)
    parser.add_argument("--d", type=int, default=None, help="dimension for presets that take one")
    parser.add_argument("--N", type=int, default=None, help="period, alloy preset only")
    parser.add_argument("--W", default=None, help="comma-separated cell background, alloy preset")


def _model_params(args) -> dict:
    params = {}
    for key in ("s_minus", "s_plus", "regime", "d", "N"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if getattr(args, "W", None) is not None:
        params["W"] = _parse_floats(args.W)
    return params


def _load(args):
    return pipeline.resolve_model(args.model, _model_params(args))


def _emit_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, default=pipeline._json_default))


def cmd_validate(args) -> int:
    hopping, potential, _ = _load(args)
    report = model.validate_hypotheses(hopping, potential)
    _print_json(
        {
            "passed": report.passed,
            "checks": [dataclasses.asdict(c) for c in report.checks],
        }
    )
    return 0 if report.passed else 1


def cmd_floquet_scan(args) -> int:
    hopping, _, _ = _load(args)
    theta_set = pipeline.scan_zone(hopping, pipeline.BZConfig(args.grid, args.refinements))
    rows = []
    for theta in theta_set.minimizers:
        ground = floquet.ground_space(theta_set.hopping, theta)
        row = {f"theta_{i}": float(t) for i, t in enumerate(theta)}
        row.update({"lambda_min": ground.e0, "p": ground.p, "gap": ground.gap})
        rows.append(row)
    _emit_csv(rows, sys.stdout)
    return 0


def cmd_fiber(args) -> int:
    hopping, _, _ = _load(args)
    theta = np.array(_parse_floats(args.theta))
    fiber = floquet.build_floquet(hopping, theta)
    eigenvalues, vectors = floquet.fiber_eigh(fiber)
    _print_json(
        {
            "theta": theta.tolist(),
            "eigenvalues": eigenvalues.tolist(),
            "eigenvectors": [
                [{"re": z.real, "im": z.imag} for z in vectors[:, j]]
                for j in range(vectors.shape[1])
            ],
        }
    )
    return 0


def cmd_coefficients(args) -> int:
    hopping, potential, disorder = _load(args)
    config = pipeline.RunConfig(model=args.model, epsilon_list=tuple(args.eps or ()))
    theta_set = pipeline.scan_zone(hopping, config.bz, config.tolerances)
    report = pipeline.coefficients_report(theta_set, potential, disorder, config)
    best = report["best"]
    best.pop("_coeffs", None)
    for entry in report["per_theta"]:
        entry.pop("_coeffs", None)
    _print_json(best)
    return 0


def cmd_verify_fiber_sweep(args) -> int:
    hopping, potential, disorder = _load(args)
    theta_set = pipeline.scan_zone(hopping)
    report = verification.fiber_bound_sandwich(
        theta_set.hopping, potential, disorder, theta_set.minimizers[0], args.eps
    )
    rows = [dataclasses.asdict(r) for r in report.rows]
    _emit_csv(rows, sys.stdout)
    _print_json(
        {
            "case": report.case,
            "C": report.C,
            "remainder_power": report.remainder_power,
            "passed": report.passed,
        }
    )
    return 0 if report.passed else 1


def cmd_verify_montecarlo(args) -> int:
    hopping, potential, disorder = _load(args)
    hopping = pipeline.scan_zone(hopping).hopping
    rows = []
    minima = []
    for epsilon in args.eps:
        samples = pipeline.montecarlo_minima(
            hopping, potential, disorder, epsilon, args.L, args.samples, args.seed, args.sampler
        )
        smallest = min(s.lambda_min for s in samples)
        minima.append(smallest)
        for i, s in enumerate(samples):
            rows.append(
                {"epsilon": epsilon, "seed": args.seed + i, "lambda_min": s.lambda_min}
            )
    _emit_csv(rows, sys.stdout)
    summary: dict = {"minima": dict(zip(map(repr, args.eps), minima))}
    try:
        fit = verification.fit_exponent(args.eps, minima)
        summary["eta"] = fit.eta
        summary["prefactor"] = fit.prefactor
        summary["r_squared"] = fit.r_squared
    except ValueError as exc:
        summary["fit_error"] = str(exc)
    _print_json(summary)
    return 0


def cmd_verify_quartic(args) -> int:
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
    summary: dict = {"all_satisfied": all(r["satisfied"] for r in rows)}
    try:
        fit = verification.fit_exponent([r["epsilon"] for r in rows], [r["value"] for r in rows])
        summary["eta"] = fit.eta
    except ValueError as exc:
        summary["fit_error"] = str(exc)
    _print_json(summary)
    return 0 if summary["all_satisfied"] else 1


def cmd_verify_kirsch_simon(args) -> int:
    hopping, _, _ = _load(args)
    d = hopping.geometry.d
    axis = np.linspace(0.0, 2.0 * np.pi / hopping.geometry.N, args.grid, endpoint=False)
    if d == 1:
        grid = [[t] for t in axis]
    else:
        import itertools

        grid = [list(c) for c in itertools.product(axis, repeat=d)]
    report = verification.kirsch_simon_sandwich(hopping, grid, variant=args.variant)
    _print_json(
        {
            "a_minus": report.a_minus,
            "a_plus": report.a_plus,
            "variant": report.variant,
            "n_points": report.n_points,
            "violations": list(report.violations),
            "passed": report.passed,
        }
    )
    return 0 if report.passed else 1


def cmd_run(args) -> int:
    config = pipeline.RunConfig(
        model=args.model,
        epsilon_list=tuple(args.eps or ()),
        verify=pipeline.VerifyConfig(
            L=args.L, samples=args.samples, seed=args.seed, sampler=args.sampler
        ),
        output=pipeline.OutputConfig(path=args.output),
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
    p.add_argument("--grid", type=int, default=floquet.DEFAULT_GRID_PER_DIM)
    p.add_argument("--refinements", type=int, default=floquet.DEFAULT_REFINEMENTS)
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
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--sampler",
        default=verification.SAMPLER_ENDPOINT,
        choices=[verification.SAMPLER_ENDPOINT, verification.SAMPLER_UNIFORM],
    )
    p.set_defaults(func=cmd_verify_montecarlo)

    p = vsub.add_parser(
        "quartic", help="CSV columns: epsilon, value, target, satisfied (trial-state energies)"
    )
    p.add_argument("--xi", type=float, default=0.3)
    p.add_argument("--eps", type=_parse_floats, required=True)
    p.add_argument("--n", type=int, default=None, help="window size; adaptive when omitted")
    p.set_defaults(func=cmd_verify_quartic)

    p = vsub.add_parser("kirsch-simon", help="two-sided band-motion sandwich (JSON)")
    _add_model_argument(p)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument(
        "--variant",
        default=verification.KS_FOLDED,
        choices=[verification.KS_FOLDED, verification.KS_ONE_MINUS_COS, verification.KS_LITERAL],
    )
    p.set_defaults(func=cmd_verify_kirsch_simon)

    p = sub.add_parser("run", help="full pipeline: validate, scan, coefficients, verification")
    _add_model_argument(p)
    p.add_argument("--eps", type=_parse_floats, default=[])
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--sampler",
        default=verification.SAMPLER_ENDPOINT,
        choices=[verification.SAMPLER_ENDPOINT, verification.SAMPLER_UNIFORM],
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
