#!/usr/bin/env python3
"""Build and run the repo benchmark; see benchmark/README.md.

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out PATH]

Builds benchmark/ (a CMake project that compiles the library from this
checkout) into .bench_build/, runs each selected workload in its own process,
checks every output, prints every metric with its unit and writes a
results file. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With one workload the metric names are as declared in BENCHMARK.json;
with several they are prefixed "<workload>/". --trace 1 reports the
per-layer metrics and writes .bench_build/trace_<workload>.json. --smoke
runs every workload for 1 s in both modes and checks the output schema.
Exits non-zero if any op failed, any self-check failed or the schema is
wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / ".bench_build" / "benchmark"
EXE = BUILD_DIR / "nttpim_bench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def run_process(cmd: list[str], timeout: float, capture: bool) -> subprocess.CompletedProcess:
    """Runs cmd in its own process group, killing the whole group on
    timeout, and always waits for it to end."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"run.py: {cmd[0]} exceeded {timeout:.0f} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"run.py: {ROOT} holds no library sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if run_process(configure, BUILD_TIMEOUT_S, capture=False).returncode:
            raise SystemExit("run.py: configuring the benchmark failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "nttpim_bench",
                   "-j", jobs]
    if run_process(compile_cmd, BUILD_TIMEOUT_S, capture=False).returncode:
        raise SystemExit("run.py: building the benchmark failed")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own process; returns its checked record."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--trace-out", str(ROOT / ".bench_build" / f"trace_{workload}.json")]
    proc = run_process(cmd, RUN_TIMEOUT_S, capture=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"run.py: {workload} exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    errors = list(raw["errors"])
    got = raw["metrics"]
    for name in declared.keys() - got.keys():
        errors.append(f"declared metric {name} missing")
    for name in got.keys() - declared.keys():
        errors.append(f"undeclared metric {name} reported")
    for name, value in got.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} is not a finite number: {value}")
    metrics = {name: {"value": got[name], "unit": unit}
               for name, unit in declared.items() if name in got}
    return {
        "workload": workload,
        "trace": trace,
        "correct": not errors and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": errors,
        "metrics": metrics,
    }


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s per workload in both modes, schema check")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "results.json")
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    build()
    workloads = [args.workload] if args.workload else names
    seconds = 1.0 if args.smoke else args.seconds
    modes = (0, 1) if args.smoke else (args.trace,)
    runs = []
    for workload in workloads:
        for trace in modes:
            record = run_workload(spec, workload, args.seed, seconds, trace)
            runs.append(record)
            print(f"{workload} (trace {trace}): attempted {record['attempted']}, "
                  f"failed {record['failed']}")
            for name, m in record["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
            for error in record["errors"]:
                print(f"  CHECK FAILED: {error}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "seconds": seconds, "runs": runs}, indent=1) + "\n")
    prefix = len(runs) > 1
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {(f"{r['workload']}/" if prefix else "") + name: m
                    for r in runs for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
