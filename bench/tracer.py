"""Span tracer that wraps secrecy_forge's public functions from outside.

Each layer is one module of the package.  ``install`` wraps every plain
function in the module's ``__all__``, plus the validating constructors
of ``QState``, ``PureState``, ``Dist2`` and ``Dist3``, and rebinds each
wrapped function in every ``secrecy_forge`` module that holds it under
some name: ``classify`` and ``keyrates`` import their callees by name,
so rebinding only the defining module would miss those calls.  Nothing
in the package's source changes.

A span records its name, start, end, parent and item.  Self time (a
span's duration minus the part its children cover) is summed per span
name as the spans close.  Counters read values the API already returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "distributions",
    "qlinalg",
    "embeddings",
    "common_info",
    "classify",
    "keyrates",
    "entanglement",
    "dequantize",
    "io",
    "cli",
)

CONSTRUCTORS = {
    "qlinalg": ("QState", "PureState"),
    "distributions": ("Dist2", "Dist3"),
}

# Spans whose own self time is reported next to their layer's.
FUNCTION_SELF_TIMES = (
    "entanglement.eof_numeric",
    "entanglement.rel_ent_upper",
    "dequantize.simulate_quantum",
    "dequantize.dequantize",
    "dequantize.simulate_classical",
)

# Counters summed from values the API returns (see _hooks), with units.
COUNTERS = (
    ("classify.channels_tested", "count"),
    ("classify.budget_exhausted", "count"),
    ("entanglement.eof_iterations", "count"),
    ("entanglement.rel_ent_iterations", "count"),
    ("qlinalg.qstate_built", "count"),
    ("qlinalg.qstate_bytes", "bytes"),
    ("dequantize.histories", "count"),
    ("io.bytes_written", "bytes"),
)

# Per-command medians of the cli-session workload, by command label.
CLI_LABELS = (
    "classify", "commoninfo", "keyrate", "embed", "measures", "chain",
    "dequantize-check", "reproduce-thm6a", "reproduce-thm6b", "reproduce-lemma",
    "reproduce-thm7d", "reproduce-table1", "reproduce-table2",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric of a traced run, in report order, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                (f"{layer}.errors", "count")]
    out += [
        ("common_info.ccf_per_classify", "ratio"),
        ("classify.classify_per_item", "ratio"),
    ]
    out += [(f"{name}.self_s", "s") for name in FUNCTION_SELF_TIMES]
    out += list(COUNTERS)
    out += [(f"cli.{label}.p50_ms", "ms") for label in CLI_LABELS]
    out += [("trace.overhead_ratio", "ratio"), ("trace.span_coverage", "ratio")]
    return out


class Tracer:
    """In-memory span recorder; spans are kept while ``recording`` is on."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.recording = False
        self.next_id = 0
        self.item: Any = None
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_ns = 0

    def reset(self) -> None:
        """Clear aggregates between passes; spans stay until taken."""
        self.self_ns.clear()
        self.calls.clear()
        self.errors.clear()
        self.counters.clear()
        self.top_ns = 0

    def take_spans(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        layer = name.split(".", 1)[0]
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0, layer]  # id, ns covered by children, layer
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_ns[name] += dur - frame[1]
                self.calls[name] += 1
                if parent is None:
                    self.top_ns += dur
                else:
                    parent[1] += dur
                if self.recording:
                    self.spans.append(
                        (span_id, None if parent is None else parent[0],
                         name, start, end, self.item)
                    )
            if hook is not None:
                hook(self.counters, out, args)
            return out

        return traced


def _hooks() -> dict[str, Callable]:
    """Counters taken from values the API returns."""

    def pd_down(c, out, args):
        c["classify.channels_tested"] += out.tested
        c["classify.budget_exhausted"] += out.reason == "budget exhausted"

    def eof(c, out, args):
        c["entanglement.eof_iterations"] += out.diagnostics.get("iterations", 0)

    def rel_ent(c, out, args):
        c["entanglement.rel_ent_iterations"] += out.diagnostics.get("iterations", 0)

    def qstate(c, out, args):
        c["qlinalg.qstate_built"] += 1
        c["qlinalg.qstate_bytes"] += 16 * args[0].dim ** 2

    def sim_quantum(c, out, args):
        c["dequantize.histories"] += out.dims[-1]

    def json_text(c, out, args):
        c["io.bytes_written"] += len(out.encode("utf-8"))

    return {
        "classify.is_ubi_pd_down": pd_down,
        "entanglement.eof_numeric": eof,
        "entanglement.rel_ent_upper": rel_ent,
        "qlinalg.QState": qstate,
        "dequantize.simulate_quantum": sim_quantum,
        "io.json_text": json_text,
    }


class Rebinding:
    """Every (owner, attribute) that ``install`` rebinds, so tracing can be
    switched off between traced passes and the untraced passes run the
    original functions."""

    def __init__(self) -> None:
        self.sites: list[tuple[Any, str, Callable, Callable]] = []

    def on(self) -> None:
        for owner, attr, _, traced in self.sites:
            setattr(owner, attr, traced)

    def off(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Rebinding:
    """Wrap every layer's public functions and constructors.

    Nothing is rebound until the returned ``Rebinding`` is switched on.
    """
    hooks = _hooks()
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "secrecy_forge" or name.startswith("secrecy_forge.")
    }
    rebinding = Rebinding()
    wrapped: dict[int, Callable] = {}
    for layer in LAYERS:
        mod = modules[f"secrecy_forge.{layer}"]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = tracer.wrap(name, fn, hooks.get(name))
        for cls_name in CONSTRUCTORS.get(layer, ()):
            cls = getattr(mod, cls_name)
            name = f"{layer}.{cls_name}"
            original = cls.__post_init__
            rebinding.sites.append(
                (cls, "__post_init__", original, tracer.wrap(name, original, hooks.get(name)))
            )
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                rebinding.sites.append((mod, attr, value, wrapped[id(value)]))
    return rebinding


def layer_report(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-layer calls, self time and errors, counters and ratios for a pass."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in tracer.calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(tracer.calls[n] for n in names)
        out[f"{layer}.self_s"] = sum(tracer.self_ns[n] for n in names) / 1e9
        out[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    for name in FUNCTION_SELF_TIMES:
        out[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9
    for name, _ in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    n_classify = tracer.calls.get("classify.classify", 0)
    n_ccf = tracer.calls.get("common_info.conditional_common_function", 0)
    out["common_info.ccf_per_classify"] = n_ccf / n_classify if n_classify else 0.0
    out["classify.classify_per_item"] = n_classify / items if items else 0.0
    return out
