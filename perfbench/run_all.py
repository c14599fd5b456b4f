"""Run every workload of run.py and check what each run reports.

    python3 perfbench/run_all.py                    # each workload once, untraced and traced
    python3 perfbench/run_all.py --toy              # smoke run at toy geometry, 1 s per run
    python3 perfbench/run_all.py --seeds 10 --trace 0   # run-to-run spread per metric

Each run is a separate `run.py` process, one after another, so no two
workloads share memory. Every run must print all metrics BENCHMARK.json
names for its mode, each with the unit named there and a finite value,
report no failed request and pass its output checks. Every metric must
be nonzero, except trace.overhead_pct, and a traced run's spans must
cover at least MIN_COVERAGE_PCT of each request: a per-layer metric that
reads 0 means a traced function was renamed or inlined.
With several seeds the spread of each end-to-end metric, (Q3 - Q1) /
median over the seeds, is printed against the metric's bound and must
stay within it. Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import run

RUN_TIMEOUT_S = 180
MIN_COVERAGE_PCT = 95.0
MAY_BE_ZERO = {"trace.overhead_pct"}


def check_result(result: dict, specs: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("outputs failed their check")
    if result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} requests failed")
    metrics = result["metrics"]
    if set(metrics) != set(specs):
        problems.append(f"missing {sorted(set(specs) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(specs))}")
    for name, m in metrics.items():
        if name in specs and m.get("unit") != specs[name]["unit"]:
            problems.append(f"{name}: unit {m.get('unit')!r} != {specs[name]['unit']!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif value == 0 and name not in MAY_BE_ZERO:
            problems.append(f"{name}: value is 0")
    coverage = metrics.get("trace.coverage_pct", {}).get("value")
    if coverage is not None and coverage < MIN_COVERAGE_PCT:
        problems.append(f"trace.coverage_pct {coverage:.2f} < {MIN_COVERAGE_PCT}")
    return problems


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args(argv)
    seconds = args.seconds or (1.0 if args.toy else bench["run_seconds"])
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    specs = {0: {m["name"]: m for m in bench["end_to_end"]},
             1: {m["name"]: m for m in bench["per_layer"]}}

    failures = 0
    values: dict = {}
    for workload in workloads:
        for trace in traces:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace)] + (["--toy"] if args.toy else [])
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                elapsed = time.perf_counter() - start
                tag = f"{workload} seed={seed} trace={trace}"
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                    problems = check_result(result, specs[trace])
                except (IndexError, ValueError):
                    result, problems = None, [f"exit {proc.returncode}, no JSON result"]
                if proc.returncode != 0:
                    problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
                print(f"== {tag}: {'ok' if not problems else 'FAIL'} ({elapsed:.1f} s)", flush=True)
                for line in lines[:-1]:
                    print(f"   {line}")
                for p in problems:
                    print(f"   problem: {p}")
                failures += bool(problems)
                if result:
                    for name, m in result["metrics"].items():
                        values.setdefault((workload, trace, name), []).append(m["value"])

    if args.seeds > 1 and 0 in traces:
        print("== spread over seeds: (Q3 - Q1) / median")
        for (workload, trace, name), vals in values.items():
            if trace != 0:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = specs[0][name]["bound"]
            over = spread > bound
            failures += over
            print(f"   {workload}.{name}: median {med:.6g}, spread {spread:.4f}, "
                  f"bound {bound} {'OVER' if over else ''}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
