"""Compare two result sets of perfbench/run.py, or summarise one.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULT_DIR

A result set is the ``--out`` directory of several runs, typically one per
seed.  For every workload and metric this prints each side's median and
quartiles, the spread (quartile distance over the median), and for the
end-to-end metrics a verdict under the bound recorded in BENCHMARK.json:
better, same, worse or unresolved (see stats.verdict).  Per-layer metrics have
no bound; they get the change in median only.  With one result set, spreads
wider than a third of the bound are flagged as unsteady.  The exit status is
1 when any end-to-end verdict is worse or any set has a failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> tuple[dict, int]:
    """{(workload, metric): {seed: value}} over the set's records, and the
    number of failed ops."""
    values: dict = defaultdict(dict)
    failed = 0
    records = sorted(directory.glob("*-trace[01].json"))
    if not records:
        raise SystemExit(f"no run records in {directory}")
    for path in records:
        record = json.loads(path.read_text())
        failed += record["failed"]
        for metric, entry in record["metrics"].items():
            values[(record["workload"], metric)][record["seed"]] = entry["value"]
    return values, failed


def paired(a: dict, b: dict) -> tuple[list, list]:
    """Values of two sides in pairing order: shared seeds when there are
    any, else each side in seed order."""
    shared = sorted(set(a) & set(b))
    if shared:
        return [a[s] for s in shared], [b[s] for s in shared]
    return [a[s] for s in sorted(a)], [b[s] for s in sorted(b)]


def describe(values) -> str:
    q1, median, q3 = stats.quartiles(values)
    return f"{median:12.6g} [{q1:.6g}, {q3:.6g}] {100 * stats.relative_spread(values):5.1f}%"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result directories")

    spec = json.loads(args.benchmark.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    loaded = [load_set(d) for d in args.sets]
    status = 0
    for directory, (_, failed) in zip(args.sets, loaded):
        print(f"{directory}: {failed} failed ops")
        status |= failed > 0

    keys = sorted(set().union(*(values for values, _ in loaded)))
    for workload, metric in keys:
        meta = e2e.get(metric) or layer.get(metric)
        if meta is None:
            continue
        sides = [values.get((workload, metric), {}) for values, _ in loaded]
        if not all(sides):
            print(f"{workload:8s} {metric:48s} missing from one set")
            continue
        bound = meta.get("bound")
        line = f"{workload:8s} {metric:48s} {describe(list(sides[0].values()))}"
        if len(sides) == 1:
            if bound is not None and stats.relative_spread(list(sides[0].values())) > bound / 3:
                line += f"  unsteady (bound {bound:g})"
            print(line)
            continue
        parent, change = paired(*sides)
        _, pm, _ = stats.quartiles(parent)
        _, cm, _ = stats.quartiles(change)
        delta = (cm - pm) / abs(pm) if pm else math.inf
        line += f" | {describe(change)} | {100 * delta:+6.1f}%"
        if bound is not None:
            verdict = stats.verdict(parent, change, meta["better"], bound)
            status |= verdict == stats.WORSE
            line += f"  {verdict} (bound {bound:g})"
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
