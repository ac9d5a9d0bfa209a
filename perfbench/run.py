"""Run one benchmark workload, check every output, and print its metrics.

    python3 perfbench/run.py --workload scan2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured without tracing; with
``--trace 1`` they are the per-layer ones, from passes that alternate
between untraced and traced.  Each run also writes a record, with the
environment block and every op latency, to ``--out``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import astuple, fields
from pathlib import Path

import environment
import hostspeed
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("model.HoppingOperator.fiber.s", "s"),
    ("model.HoppingOperator.fiber.calls", "count"),
    ("model.shift_to_zero.s", "s"),
    ("model.shift_to_zero.calls", "count"),
    ("floquet.scan_theta_set.s", "s"),
    ("floquet.scan_theta_set.calls", "count"),
    ("floquet.scan.rounds", "count"),
    ("floquet.scan.minimizers", "count"),
    ("floquet.build_floquet.calls", "count"),
    ("floquet.fiber_eigh.s", "s"),
    ("floquet.ground_space.s", "s"),
    ("floquet.ground_space.calls", "count"),
    ("perturbation.edge_coefficients.s", "s"),
    ("perturbation.edge_coefficients.calls", "count"),
    ("model.validate_hypotheses.s", "s"),
    ("verification.fiber_bound_sandwich.s", "s"),
    ("verification.fiber_min_over_q.s", "s"),
    ("verification.fiber_min_over_q.calls", "count"),
    ("verification.assemble_torus.s", "s"),
    ("verification.assemble_torus.calls", "count"),
    ("verification.torus.sites", "count"),
    ("verification.box_min_eig.s", "s"),
    ("verification.box_min_eig.dense.calls", "count"),
    ("verification.box_min_eig.sparse.calls", "count"),
    ("verification.box_min_eig.dense_flops_computed", "flop"),
    ("pipeline.montecarlo_minima.s", "s"),
    ("pipeline.montecarlo_minima.busy_ratio", "ratio"),
    ("verification.torus_dual_minimum.s", "s"),
    ("verification.kirsch_simon_sandwich.s", "s"),
    ("verification.quasiperiodic_rayleigh.s", "s"),
    ("pipeline.run_pipeline.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

WORKLOAD_NAMES = ("scan2d", "mc1d", "oracles")
SETUP_REPEATS = 5

# a fresh interpreter importing bandedge and resolving the workload's models
SETUP_PROGRAM = """
import json, sys
sys.path.insert(0, sys.argv[1])
from bandedge import pipeline
for name, params in json.loads(sys.argv[2]):
    pipeline.resolve_model(name, params)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "perfbench" / "results" / "latest",
        help="directory for the run records (a result set)",
    )
    return parser.parse_args(argv)


def interpreter_seconds(*argv: str) -> float:
    """Wall time of a fresh interpreter running ``python -c *argv``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *argv], check=True, cwd=ROOT)
    return time.perf_counter() - start


def measure_setup(models) -> tuple[float, list[float], list[float]]:
    """Set-up time at the reference host speed.

    Each of SETUP_REPEATS rounds times a fresh interpreter importing
    hostspeed's reference libraries, then one doing the set-up; the result is
    the median ratio of the two, times REFERENCE_IMPORT_S.  Also returns the
    raw set-up and reference times."""
    times: list[float] = []
    reference: list[float] = []
    for _ in range(SETUP_REPEATS):
        reference.append(interpreter_seconds(hostspeed.IMPORT_PROGRAM))
        times.append(interpreter_seconds(SETUP_PROGRAM, str(SRC), json.dumps(models)))
    ratio = statistics.median(t / r for t, r in zip(times, reference))
    return ratio * hostspeed.REFERENCE_IMPORT_S, times, reference


def run_pass(workload) -> tuple[list[float], list[float], list[str]]:
    """One pass over the op list: (op latencies, host-speed kernel times,
    failures).  The kernel runs before the first op and after every op,
    outside the ops' timing, so op i lies between kernel samples i and i+1."""
    latencies: list[float] = []
    kernel = [hostspeed.sample()]
    failures: list[str] = []
    for op in workload.ops:
        start = time.perf_counter()
        try:
            op.run()
        except Exception:  # a failed op is counted and the pass goes on
            failures.append(f"{op.name}: {traceback.format_exc(limit=-3)}")
        latencies.append(time.perf_counter() - start)
        kernel.append(hostspeed.sample())
    return latencies, kernel, failures


def untraced_run(workload, seconds: float) -> dict:
    """Whole passes until ``seconds`` have passed and the op latencies
    suffice for a tail percentile; end-to-end metrics at the reference host
    speed.  A pass's wall time is the sum of its op latencies."""
    walls: list[float] = []
    latencies: list[float] = []
    raw: list[float] = []
    raw_walls: list[float] = []
    kernels: list[list[float]] = []
    failures: list[str] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) <= stats.TAIL_BEYOND:
        lats, kernel, fails = run_pass(workload)
        normalised = hostspeed.normalise(lats, kernel)
        kernels.append(kernel)
        raw += lats
        raw_walls.append(sum(lats))
        latencies += normalised
        walls.append(sum(normalised))
        failures += fails
    tail, percentile, n = stats.tail(latencies)
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "op_tail": {"percentile": percentile, "n": n},
        "pass_walls": walls,
        "op_latencies": latencies,
        "raw": {
            "wall_s": statistics.median(raw_walls),
            "op_p50_s": statistics.median(raw),
            "op_tail_s": stats.tail(raw)[0],
            "pass_walls": raw_walls,
            "op_latencies": raw,
            "host_kernel": kernels,
        },
        "attempted": len(latencies),
        "failures": failures,
    }


def traced_run(workload, seconds: float) -> dict:
    """Untraced and traced passes in turn; per-layer metrics are medians over
    the traced passes of raw span times, and the overhead is the difference
    of the two medians of pass wall time at the reference host speed."""
    from bandedge import pipeline

    workers = pipeline.worker_count()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    coverage: list[float] = []
    spans: list[dict] = []
    attempted = 0
    failures: list[str] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_walls:
        if len(plain_walls) == len(traced_walls):
            lats, kernel, fails = run_pass(workload)
            plain_walls.append(sum(hostspeed.normalise(lats, kernel)))
        else:
            tracer = tracing.Tracer()
            with tracer.installed():
                lats, kernel, fails = run_pass(workload)
            wall = sum(lats)
            traced_walls.append(sum(hostspeed.normalise(lats, kernel)))
            layers.append(tracing.layer_metrics(tracer.spans, workers))
            coverage.append(tracing.top_level_time(tracer.spans) / wall)
            spans.append({"wall": wall, "spans": tracer.spans})
        attempted += len(lats)
        failures += fails
    metrics = {
        name: statistics.median(layer.get(name, 0.0) for layer in layers)
        for name, _ in PER_LAYER
        if not name.startswith("trace.")
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.coverage"] = statistics.median(coverage)
    return {
        "metrics": metrics,
        "pass_walls": {"untraced": plain_walls, "traced": traced_walls},
        "attempted": attempted,
        "failures": failures,
        "spans": spans,
    }


def run_workload(args: argparse.Namespace) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = traced_run(workload, args.seconds)
        units = dict(PER_LAYER)
    else:
        setup, setup_raw, setup_reference = measure_setup(workload.models)
        result = untraced_run(workload, args.seconds)
        result["metrics"]["setup_s"] = setup
        result["raw"]["setup_s"] = statistics.median(setup_raw)
        result["raw"]["setup_runs"] = setup_raw
        result["raw"]["setup_reference_runs"] = setup_reference
        units = dict(END_TO_END)
    failed = len(result["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "failed_frac": failed / result["attempted"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]} for name in units},
        "environment": environment.environment(ROOT, args.seed),
        "ops": [op.name for op in workload.ops],
        **{k: v for k, v in result.items() if k not in ("metrics", "attempted", "spans")},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes = [
            {"wall": entry["wall"], "spans": [astuple(s) for s in entry["spans"]]}
            for entry in result["spans"]
        ]
        with gzip.open(args.out / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"fields": [f.name for f in fields(tracing.Span)], "passes": passes}, fh)
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_summary(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        note = ""
        if metric == "op_tail_s":
            note = f"  (p{record['op_tail']['percentile']:.1f} of n={record['op_tail']['n']} ops)"
        print(f"{name:8s} {metric:48s} {entry['value']:.6g} {entry['unit']}{note}")
    print(
        f"{name:8s} {'failed_frac':48s} {record['failed_frac']:.6g}"
        f"  ({record['failed']} of {record['attempted']} ops failed)"
    )
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        *lines, last = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bandedge" / "__init__.py").is_file():
        print(f"error: no bandedge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bandedge

    if Path(bandedge.__file__).resolve().parent != SRC / "bandedge":
        print(f"error: imported bandedge from {bandedge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_summary(record)
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
