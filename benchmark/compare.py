#!/usr/bin/env python3
"""Compare two sets of benchmark results, or report the spread of one.

    python3 benchmark/compare.py BASE HEAD
    python3 benchmark/compare.py --spread SET [--json PATH]

A set is a directory of results files written by run.py --out, or a single
file. Runs are paired in file-name order, so name them in the order they
ran and alternate which commit runs first.

For every (end-to-end metric, workload) pair the comparison reports:
  worse       HEAD's median is worse than BASE's by more than the metric's
              BENCHMARK.json bound;
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, and not every HEAD run beats
              every BASE run;
  improved    HEAD wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than BASE's quartile
              distance;
  unchanged   otherwise.
Per-layer metrics get the same pair rule without a bound (informational).
Any difference in kernel's modeled sim.* counts between runs of the same
seed is flagged: a simulator-only change must leave them identical.
Exits 1 if any pair is worse or any HEAD run failed an op or a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
MODELED = ("sim.commands_per_wave", "sim.cycles_per_wave", "sim.activations",
           "sim.column_accesses_per_act", "sim.compute_ops", "sim.refreshes",
           "sim.bus_utilization", "sim.channel_imbalance")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare.py: no results files in {path}")
    runs = []
    for f in files:
        results = json.loads(f.read_text())
        for run in results["runs"]:
            runs.append(dict(run, seed=results["seed"]))
    return runs


def series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in run order."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(metric: dict, a: float, b: float) -> bool:
    """True if a is better than b."""
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric: dict, base: list[float], head: list[float], bound: float | None) -> str:
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    worse_by = (hmed - bmed) / abs(bmed) if bmed else 0.0
    if metric["better"] == "higher":
        worse_by = -worse_by
    pairs = list(zip(base, head))
    wins = sum(better(metric, h, b) for b, h in pairs)
    losses = sum(better(metric, b, h) for b, h in pairs)
    moved = abs(hmed - bmed) > (b3 - b1)
    if bound is not None:
        if max(rel_spread(base), rel_spread(head)) > bound:
            if all(better(metric, h, b) for h in head for b in base):
                return "improved"
            return "unresolved"
        if worse_by > bound:
            return "worse"
    if pairs and wins >= 0.9 * len(pairs) and moved:
        return "improved"
    if bound is None and pairs and losses >= 0.9 * len(pairs) and moved:
        return "worse"
    return "unchanged"


def compare(base_runs: list[dict], head_runs: list[dict]) -> int:
    status = 0
    for run in head_runs:
        if not run["correct"]:
            print(f"HEAD {run['workload']} (seed {run['seed']}): {run['failed']} failed ops, "
                  f"checks: {run['errors']}")
            status = 1
    base, head = series(base_runs), series(head_runs)
    print(f"{'workload':12s} {'metric':34s} {'base median':>14s} {'head median':>14s} "
          f"{'change':>8s}  verdict")
    for (workload, name) in sorted(base.keys() & head.keys()):
        metric = END_TO_END.get(name) or PER_LAYER[name]
        bound = metric.get("bound")
        b, h = base[(workload, name)], head[(workload, name)]
        v = verdict(metric, b, h, bound)
        bmed, hmed = statistics.median(b), statistics.median(h)
        change = f"{(hmed - bmed) / abs(bmed):+.1%}" if bmed else "n/a"
        layer = "" if bound is not None else " (per-layer)"
        print(f"{workload:12s} {name:34s} {bmed:14.6g} {hmed:14.6g} {change:>8s}  {v}{layer}")
        if v == "worse" and bound is not None:
            status = 1

    # Modeled counts of the same seed must repeat exactly.
    def modeled(runs: list[dict]) -> dict[tuple[int, str], set[float]]:
        out: dict[tuple[int, str], set[float]] = {}
        for run in runs:
            if run["workload"] == "kernel":
                for name in MODELED:
                    if name in run["metrics"]:
                        out.setdefault((run["seed"], name), set()).add(
                            run["metrics"][name]["value"])
        return out
    mb, mh = modeled(base_runs), modeled(head_runs)
    for key in sorted(mb.keys() & mh.keys()):
        if mb[key] != mh[key]:
            print(f"MODELED CHANGE kernel seed {key[0]} {key[1]}: "
                  f"{sorted(mb[key])} -> {sorted(mh[key])}")
    return status


def spread(runs: list[dict], json_path: Path | None) -> int:
    table = []
    print(f"{'workload':12s} {'metric':34s} {'n':>3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s}")
    for (workload, name), values in sorted(series(runs).items()):
        q1, med, q3 = quartiles(values)
        s = rel_spread(values)
        table.append({"workload": workload, "metric": name, "runs": len(values),
                      "median": med, "q1": q1, "q3": q3, "rel_iqr": s})
        print(f"{workload:12s} {name:34s} {len(values):3d} {q1:12.6g} {med:12.6g} "
              f"{q3:12.6g} {s:8.2%}")
    print("\nworst spread per end-to-end metric, and its bound:")
    for name, metric in END_TO_END.items():
        worst = max((r["rel_iqr"] for r in table if r["metric"] == name), default=0.0)
        print(f"  {name:34s} worst {worst:7.2%}  bound {metric['bound']:.0%}  "
              f"{'ok' if worst <= metric['bound'] / 3 else 'OVER A THIRD OF THE BOUND'}")
    if json_path:
        json_path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", type=Path, nargs="+", help="BASE HEAD, or one SET with --spread")
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--json", type=Path, help="with --spread: write the table here")
    args = parser.parse_args()
    if args.spread:
        return spread([r for s in args.sets for r in load(s)], args.json)
    if len(args.sets) != 2:
        parser.error("give exactly two sets: BASE HEAD")
    return compare(load(args.sets[0]), load(args.sets[1]))


if __name__ == "__main__":
    sys.exit(main())
