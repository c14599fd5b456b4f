"""Run one pvc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload image_static --seed 0 --seconds 45 --trace 0

A closed loop with one client: each request starts when the previous one
has finished, for --seconds. With --trace 0 the requests run the library
untouched and the end-to-end metrics are printed; with --trace 1 traced
and untraced requests alternate, and the per-layer metrics come from the
traced ones (see spans.py). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Spans and results
are written under perfbench/out/.

The library is imported from src/ of the checkout this file sits in; if
it is not there the run fails before measuring anything.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("image_static", "video_dynamic")

# One BLAS thread per core of a 2-core box; more cores would make runs on
# different machines incomparable.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
GEMM_N = 1024
# Set-up is timed this many times in an untraced run: once before the
# measured loop, the rest spread evenly through it. The host's speed drifts
# in phases of tens of seconds, so builds taken together can all fall in
# one slow phase; spread out, their median drifts as little as latency's.
SETUP_BUILDS = 9
CHECKS_RID = -1  # request id of the traced pass of the library's checks
MB = 1e6


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": git_commit(), "seed": seed,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def gemm_peak_gflops(reps: int = 8) -> float:
    """Best-of-reps 2-D float64 GEMM rate: the roofline for every GFLOP/s."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((GEMM_N, GEMM_N))
    a @ a
    best = float("inf")
    for _ in range(reps):
        t = time.perf_counter()
        a @ a
        best = min(best, time.perf_counter() - t)
    return 2.0 * GEMM_N ** 3 / best / 1e9


def timed_setup(work) -> float:
    t = time.perf_counter()
    work.setup()
    return time.perf_counter() - t


def run_request(work) -> tuple[float, bool]:
    t = time.perf_counter()
    try:
        out = work.request()
    except Exception:  # a failed request is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - t, False
    dt = time.perf_counter() - t
    return dt, work.output_ok(out)


def end_to_end(work, seconds: float, first_setup: float) -> tuple[dict, list, list]:
    """Closed loop for `seconds`, not counting the builds timed inside it.

    A rebuild draws the same weights from the seed, so requests after it
    compute the same outputs.
    """
    latencies, oks, setup_times = [], [], [first_setup]
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0 - sum(setup_times[1:])
        if latencies and elapsed >= seconds:
            break
        if len(setup_times) < SETUP_BUILDS * elapsed / seconds:
            setup_times.append(timed_setup(work))
        dt, ok = run_request(work)
        latencies.append(dt)
        oks.append(ok)
    wall = time.perf_counter() - t0 - sum(setup_times[1:])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    flops = sum(work.flops().values()) * len(latencies)
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "requests_per_s": (sum(oks) / wall, "1/s"),
        "achieved_gflops_per_s": (flops / sum(latencies) / 1e9, "GFLOP/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, latencies, oks


def per_layer(work, seconds: float, checks) -> tuple[dict, list, list, dict]:
    """Alternate untraced and traced requests; roll the spans up per request.

    `checks` is one pass of the library's own checks, traced after the
    loop so the verification layer is measured on this workload.
    """
    import spans
    gemm_peak = gemm_peak_gflops()
    tracer = spans.Tracer()
    latencies, oks, plain_lat, traced_lat = [], [], [], []
    t0 = time.perf_counter()
    while not traced_lat or time.perf_counter() - t0 < seconds:
        dt, ok = run_request(work)
        plain_lat.append(dt)
        rid = len(traced_lat)
        with tracer.request(rid, track_memory=True):
            dt2, ok2 = run_request(work)
        traced_lat.append(dt2)
        latencies += [dt, dt2]
        oks += [ok, ok2]
    with tracer.request(CHECKS_RID, track_memory=False):
        dt, ok = run_request(checks)
    latencies.append(dt)
    oks.append(ok)

    flops = work.flops()
    metrics = layer_metrics(tracer, flops)
    plain_p50 = statistics.median(plain_lat)
    metrics.update({
        "bench.gemm_peak_gflops_per_s": (gemm_peak, "GFLOP/s"),
        "trace.overhead_pct": (100.0 * (statistics.median(traced_lat) / plain_p50 - 1), "%"),
    })
    rids = set(range(len(traced_lat)))
    trace = {"spans_request_0": tracer.dump(0), "rollup_requests": tracer.rollup(rids),
             "rollup_checks_pass": tracer.rollup({CHECKS_RID}),
             "traced_requests": len(traced_lat), "analytic_flops_per_request": flops,
             "flops_note": "computed from shapes by pvc.budget.estimate_flops, flops_per_mac=2"}
    return metrics, latencies, oks, trace


# span name -> per-layer metric summing the span's duration, children included
TOTALS = {"vit.spatial_mha": "vit.smha_s", "vit.temporal_mha_causal": "vit.tmha_s",
          "vit.layer_te": "vit.te_s", "vit.patchify": "vit.patchify_s",
          "compression.compress": "compression.compress_s",
          "compression.pixel_shuffle": "compression.pixel_shuffle_s",
          "tensor.silu": "tensor.silu_s", "tensor.layer_norm": "tensor.layer_norm_s",
          "io.write_tensor": "io.write_s",
          "verification.check_causality": "verification.causality_s",
          "verification.check_init_identity": "verification.init_identity_s"}

# Spans a per-layer figure is named after; in_layer adds the input
# pipeline. trace.coverage_pct sums the self time of every span that is one
# of them or sits below one, over the request's wall time: time in
# vit_forward itself, or in a span no figure names, is not covered.
LAYER_SPANS = {*TOTALS, "vit.progressive_layer_forward", "conditioning.ada_ln"}

# (metric, budget.estimate_flops stage, per-layer time it is divided by)
GFLOPS = (("vit.layer_plain_gflops_per_s", "vit_plain", "vit.layer_plain_s"),
          ("vit.layer_temporal_gflops_per_s", "vit_temporal", "vit.layer_temporal_s"),
          ("compression.gflops_per_s", "compression", "compression.compress_s"))

LAYER_UNITS = {
    **{key: "s" for key in (*TOTALS.values(), "vit.layer_plain_s", "vit.layer_temporal_s",
                            "vit.layer_self_s", "vit.adaln_s", "compression.adaln_s",
                            "compression.self_s", "input_pipeline.prepare_s")},
    **{f"verification.grad_check.{m}_s": "s" for m in
       ("adaln", "temporal_embedding", "tmha_causal", "progressive_layer", "compression")},
    "vit.smha_peak_mb": "MB", "compression.peak_mb": "MB",
    "vit.layer_plain_gflops_per_s": "GFLOP/s", "vit.layer_temporal_gflops_per_s": "GFLOP/s",
    "compression.gflops_per_s": "GFLOP/s", "verification.layer_forward_calls": "count",
    "trace.coverage_pct": "%",
}


def in_layer(name: str) -> bool:
    return name in LAYER_SPANS or name.startswith("input_pipeline.")


def layer_metrics(tracer, flops: dict) -> dict:
    """Per-layer figures per traced request, median over traced requests;
    the verification.* figures come from the traced pass of the checks."""
    own = tracer.self_times()
    recs = tracer.spans
    children: dict[int, set] = {}
    for s in recs:
        if s.parent is not None:
            children.setdefault(s.parent, set()).add(s.name)

    rows = {}
    for rid, indices in tracer.requests().items():
        r: dict[str, float] = {}

        def add(key, value):
            r[key] = r.get(key, 0.0) + value

        def peak(key, nbytes):
            r[key] = max(r.get(key, 0.0), nbytes / MB)

        for i in indices:
            s = recs[i]
            dur = s.end - s.start
            name = s.name
            if s.parent is None:  # the request's root span
                root_wall = dur
                continue
            if any(in_layer(n) for n in tracer.lineage(i)):
                add("covered", own[i])
            if name in TOTALS:
                add(TOTALS[name], dur)
            if name == "vit.spatial_mha":
                peak("vit.smha_peak_mb", s.peak_bytes)
            elif name == "vit.progressive_layer_forward":
                temporal = "vit.temporal_mha_causal" in children.get(i, ())
                add("vit.layer_temporal_s" if temporal else "vit.layer_plain_s", dur)
                add("vit.layer_self_s", own[i])
                add("verification.layer_forward_calls", 1)
            elif name == "conditioning.ada_ln":
                inside = "compression.compress" in tracer.lineage(s.parent)
                add("compression.adaln_s" if inside else "vit.adaln_s", dur)
            elif name == "compression.compress":
                add("compression.self_s", own[i])
                peak("compression.peak_mb", s.peak_bytes)
            elif name == "verification.run_grad_check":
                add(f"verification.grad_check.{s.label}_s", dur)
            elif name.startswith("input_pipeline.") and (
                    not recs[s.parent].name.startswith("input_pipeline.")):
                add("input_pipeline.prepare_s", dur)
        r["trace.coverage_pct"] = 100.0 * r.pop("covered", 0.0) / root_wall
        for metric, stage, seconds in GFLOPS:
            if stage in flops and r.get(seconds) and rid != CHECKS_RID:
                r[metric] = flops[stage] / r[seconds] / 1e9
        rows[rid] = r

    requests = [r for rid, r in rows.items() if rid != CHECKS_RID]
    checks = rows[CHECKS_RID]
    return {key: (checks.get(key, 0.0) if key.startswith("verification.") else
                  statistics.median(row.get(key, 0.0) for row in requests), unit)
            for key, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy geometry, for a quick smoke run")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "pvc" / "__init__.py").is_file():
        print(f"error: no pvc sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import pvc
    if Path(pvc.__file__).resolve().parent != (src / "pvc").resolve():
        print(f"error: imported pvc from {pvc.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    geo = workloads.TOY if args.toy else workloads.BENCH
    work = workloads.EncodeWorkload(args.workload, geo, args.seed, OUT_DIR)
    env = environment(args.seed)
    try:
        if args.trace:
            work.setup()
        else:
            first_setup = timed_setup(work)
        prefix_ok, prefix_gap = work.prefix_check()
        if args.trace:
            checks = workloads.ChecksPass(args.seed)
            metrics, latencies, oks, trace = per_layer(work, args.seconds, checks)
            name = f"{args.workload}-seed{args.seed}-spans.json"
            (OUT_DIR / name).write_text(json.dumps(trace))
        else:
            metrics, latencies, oks = end_to_end(work, args.seconds, first_setup)
    finally:
        work.cleanup()

    failed = oks.count(False)
    result = {"correct": prefix_ok and failed == 0, "attempted": len(oks),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for key, value in env.items():
        print(f"env.{key} = {value}")
    print(f"check.frame0_prefix_rel_gap = {prefix_gap:.3e} "
          f"(tolerance {workloads.PREFIX_RTOL:g}) {'pass' if prefix_ok else 'FAIL'}")
    print(f"requests = {len(oks)} (error_rate = {failed / len(oks):g})")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    record = {"workload": args.workload, "trace": args.trace, "toy": args.toy,
              "env": env, "latencies_s": latencies, **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
