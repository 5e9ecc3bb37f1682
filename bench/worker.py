"""One workload in one fresh interpreter; started by run.py, not by hand.

The worker builds its inputs (the set-up that run.py times), prints
``ready``, runs one untimed warm-up item per input family, then either

* times rounds of items back to back until ``--seconds`` have passed
  (``--trace 0``), or
* alternates a pass with tracing switched off and a traced pass over
  the first ``traced_rounds`` rounds until ``--seconds`` have passed
  (``--trace 1``); the traced passes give the per-layer figures and the
  pairs give the tracing overhead.

Its last line of output is one JSON object with the raw figures; run.py
turns them into metrics.
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
from pathlib import Path

import reference
import workloads
from tracer import LAYERS, Tracer, install, layer_report

MAX_FAILURE_MESSAGES = 20


def machine_info() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_info = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
    }


class Tally:
    """Attempted and failed items, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run_item(self, wl, item) -> int:
        """Run and check one item; returns its wall time in ns (call only)."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = wl.run(item)
        except Exception as exc:  # a failed item is counted, the run goes on
            elapsed = time.perf_counter_ns() - start
            self._fail(item, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter_ns() - start
        problems = wl.check(item, out)
        if problems:
            self._fail(item, "; ".join(problems))
        return elapsed

    def _fail(self, item, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(f"{item.family} {item.key}: {message}")


def timed_run(wl, seconds: float, tally: Tally) -> dict:
    """Rounds of items back to back, with one reference slice per
    ``reference.EVERY_S`` of item time (see reference.py)."""
    rounds = []
    latencies = []
    slices = []
    every_ns = int(reference.EVERY_S * 1e9)
    since_slice = 0
    reference.slice_ns()  # warm-up
    start = time.perf_counter()
    r = 0
    while True:
        ns = 0
        done = len(slices)
        items = wl.rounds[r % len(wl.rounds)]
        for item in items:
            dt = tally.run_item(wl, item)
            ns += dt
            latencies.append(dt / 1e6)
            since_slice += dt
            while since_slice >= every_ns:
                slices.append(reference.slice_ns() / 1e9)
                since_slice -= every_ns
        rounds.append({"items": len(items), "item_s": ns / 1e9, "slices": len(slices) - done})
        r += 1
        elapsed = time.perf_counter() - start
        # end within half a round of the requested time
        if elapsed + 0.5 * elapsed / r >= seconds:
            break
    return {"rounds": rounds, "latencies_ms": latencies, "reference_slices_s": slices}


def traced_run(wl, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Pairs of passes over the first rounds, one with tracing switched off
    and one with it on, in alternating order, until the time is up."""
    items = [it for rnd in wl.rounds[: wl.traced_rounds] for it in rnd]
    tracer = Tracer()
    rebinding = install(tracer)
    passes = []
    overheads = []
    coverages = []
    label_ms: dict[str, list[float]] = {}

    def plain_pass() -> int:
        total = 0
        for item in items:
            dt = tally.run_item(wl, item)
            total += dt
            label_ms.setdefault(item.family, []).append(dt / 1e6)
        return total

    def traced_pass() -> int:
        tracer.reset()
        tracer.recording = not passes
        rebinding.on()
        total = 0
        try:
            for i, item in enumerate(items):
                tracer.item = i
                total += tally.run_item(wl, item)
        finally:
            rebinding.off()
            tracer.recording = False
        passes.append(layer_report(tracer, len(items)))
        coverages.append(tracer.top_ns / total)
        if len(passes) == 1:
            write_spans(tracer.take_spans(), spans_path, wl.name)
        return total

    start = time.perf_counter()
    while True:
        if len(passes) % 2 == 0:
            plain_ns = plain_pass()
            traced_ns = traced_pass()
        else:
            traced_ns = traced_pass()
            plain_ns = plain_pass()
        overheads.append(traced_ns / plain_ns - 1.0)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    first = passes[0]
    layers = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            layers[name] = statistics.median(p[name] for p in passes)
        else:
            layers[name] = value
    return {
        "layers": layers,
        "repeatable": all(
            p[k] == first[k] for p in passes for k in first if not k.endswith(".self_s")
        ),
        "passes": len(passes),
        "traced_items": len(items),
        "wrapped_sites": len(rebinding.sites),
        "overheads": overheads,
        "overhead_ratio": statistics.median(overheads),
        "span_coverage": statistics.median(coverages),
        "label_p50_ms": {k: statistics.median(v) for k, v in label_ms.items()},
    }


def write_spans(spans: list[tuple], path: Path, workload: str) -> None:
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "workload": workload,
        "layers": list(LAYERS),
        "names": names,
        "fields": ["id", "parent", "name", "start_ns", "end_ns", "item"],
        "spans": [[s[0], s[1], index[s[2]], s[3], s[4], s[5]] for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for scratch and span files")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out_dir)
    print("ready", flush=True)
    try:
        if args.probe:
            return 0
        for item in wl.warmup_items():
            wl.run(item)
        tally = Tally()
        result: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
        if args.trace:
            spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.json"
            result.update(traced_run(wl, args.seconds, tally, spans_path))
            result["spans_file"] = str(spans_path)
        else:
            result.update(timed_run(wl, args.seconds, tally))
        if isinstance(wl, workloads.Formation2Q):
            result["eof_max_err"] = wl.eof_max_err
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            failure_messages=tally.messages,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine=machine_info(),
        )
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
