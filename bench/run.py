"""Benchmark runner for secrecy-forge.

    python3 bench/run.py --workload classify-corpus --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs from the root of a source checkout.  Each workload runs in a fresh
interpreter with ``src`` on its path and BLAS/OpenMP pinned to one
thread; the runner itself starts one process at a time.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  It prints every metric with its
name and unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw figures,
machine details and the traced spans go to ``bench/out/``.

Exit codes: 0 when every item passed its check, 1 when some item failed
(the result is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from tracer import CLI_LABELS, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

# The names in workloads.WORKLOADS, repeated because the runner must not
# import the package it measures.
WORKLOADS = ("classify-corpus", "formation-2q", "cli-session", "dequantize-trees")

# Set-up is timed in this many fresh interpreters that stop after it,
# after one untimed interpreter that fills the bytecode and file caches.
SETUP_PROBES = 6
# Reference slices timed before and after each set-up probe.
GAUGE_SLICES = 3
P90_MIN_ITEMS = 100
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "items/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, probe: bool, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it with its set-up time (spawn to 'ready')."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT),
    ] + (["--probe"] if probe else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"{args.workload}: worker failed during set-up")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline and was stopped") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def gauge() -> float:
    """Mean time of a few reference slices run here, between workers."""
    return statistics.fmean(reference.slice_ns() / 1e9 for _ in range(GAUGE_SLICES))


def run_workload(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    setup_gauges = []
    if not args.trace:
        reference.slice_ns()  # warm-up
        for i in range(SETUP_PROBES + 1):
            before = gauge()
            proc, setup = start_worker(args, probe=True, deadline=deadline)
            finish(proc, deadline)
            if i:
                setups.append(setup)
                setup_gauges.append((before + gauge()) / 2)
    proc, setup = start_worker(args, probe=False, deadline=deadline)
    raw = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    summary = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failed_ratio": raw["failed"] / raw["attempted"],
        "failure_messages": raw["failure_messages"],
        "machine": raw["machine"],
    }
    if "eof_max_err" in raw:
        summary["eof_max_err"] = raw["eof_max_err"]
    if args.trace:
        metrics = dict(raw["layers"])
        p50 = raw["label_p50_ms"]
        for label in CLI_LABELS:
            metrics[f"cli.{label}.p50_ms"] = p50.get(label, 0.0)
        metrics["trace.overhead_ratio"] = raw["overhead_ratio"]
        metrics["trace.span_coverage"] = raw["span_coverage"]
        units = dict(per_layer_metrics())
        summary.update(
            setup_s=setup,
            passes=raw["passes"], traced_items=raw["traced_items"],
            counters_repeat=raw["repeatable"], spans_file=raw["spans_file"],
            wrapped_sites=raw["wrapped_sites"], overheads=raw["overheads"],
        )
    else:
        lat = raw["latencies_ms"]
        slices = raw["reference_slices_s"]
        items = sum(r["items"] for r in raw["rounds"])
        item_s = sum(r["item_s"] for r in raw["rounds"])
        # how much slower than nominal the machine ran during the timed items
        slowdown = statistics.fmean(slices) / reference.NOMINAL_S
        metrics = {
            "setup_s": statistics.median(
                s * reference.NOMINAL_S / g for s, g in zip(setups, setup_gauges)
            ),
            "throughput_per_s": items / item_s * slowdown,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        summary.update(
            items=len(lat), rounds=len(raw["rounds"]),
            raw_setup_s=statistics.median(setups), setup_samples_s=setups,
            setup_gauges_s=setup_gauges,
            raw_throughput_per_s=items / item_s, slowdown=slowdown,
            reference_slices=len(slices),
            latency_p50_ms=statistics.median(lat),
            round_throughputs=[r["items"] / r["item_s"] for r in raw["rounds"]],
            timed_rounds=raw["rounds"], reference_slices_s=slices,
        )
        if len(lat) >= P90_MIN_ITEMS:
            summary["latency_p90_ms"] = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        **summary,
    }


def report(res: dict) -> None:
    """Human-readable lines: every metric with its name and unit."""
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{w}  failed_ratio = {res['failed_ratio']:.6g} "
          f"({res['failed']} of {res['attempted']} items attempted)")
    if "items" in res:
        print(f"{w}  timed items = {res['items']} in {res['rounds']} rounds")
        print(f"{w}  machine slowdown against nominal = {res['slowdown']:.4g} "
              f"({res['reference_slices']} reference slices)")
        print(f"{w}  uncorrected: setup_s = {res['raw_setup_s']:.6g} s, "
              f"throughput_per_s = {res['raw_throughput_per_s']:.6g} items/s")
        print(f"{w}  latency_p50_ms = {res['latency_p50_ms']:.6g} ms")
        if "latency_p90_ms" in res:
            print(f"{w}  latency_p90_ms = {res['latency_p90_ms']:.6g} ms")
        else:
            print(f"{w}  latency_p90_ms not reported: {res['items']} items < {P90_MIN_ITEMS}")
    if "eof_max_err" in res:
        print(f"{w}  eof_max_err = {res['eof_max_err']:.3e} bits (bound 1e-4)")
    if "passes" in res:
        print(f"{w}  traced passes = {res['passes']} of {res['traced_items']} items; "
              f"counters repeat across passes: {res['counters_repeat']}")
        print(f"{w}  spans written to {res['spans_file']}")
    for msg in res["failure_messages"]:
        print(f"{w}  FAILED {msg}")
    m = res["machine"]
    print(f"{w}  machine: python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"blas {m['blas']}, nproc {m['nproc']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="secrecy-forge benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "secrecy_forge" / "__init__.py").is_file():
        print(f"error: no secrecy_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            OUT.mkdir(parents=True, exist_ok=True)
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1), encoding="utf-8")
            report(res)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
