"""Command-line surface: file-based workflows with deterministic JSON output.

Every command prints a single JSON envelope carrying the tool version,
seed, effective tolerances, and sha256 digests of the input files, so a
report can be regenerated and diffed byte for byte.  Exit codes: 0 on
success, 1 when a computed property fails its check, 2 on bad usage or
malformed input, including an input above a size cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, config, io
from .classify import classify
from .common_info import (
    common_information,
    conditional_common_function,
)
from .dequantize import random_instrument_tree, verify_equivalence
from .distributions import Dist2, binary_entropy
from .embeddings import embed_ccc, embed_ccq, embed_cqq, embed_qqq, pair_state
from .entanglement import (
    eof_2q,
    eof_numeric,
    esq_classical_extension_bound,
    negativity_log,
    rel_ent_upper,
)
from .errors import (
    DimensionCapExceeded,
    InvalidProtocol,
    SecrecyForgeError,
    UsageError,
)
from .keyrates import (
    ChainReport,
    advantage_report,
    binary_eve_family,
    independent_eve_example,
    kd_class,
    lemma_example_rates,
    two_block_uniform_example,
    verify_chain,
)

__all__ = ["main", "run"]

EXAMPLE_IDS = ("thm6a", "thm6b", "lemma", "thm7d", "table1", "table2")

NOTE_EF_FORMULA = (
    "E_F(lambda) has the closed form h((1 + sqrt(1 - C^2))/2) with "
    "C = 1/2 + sqrt(lambda*(1-lambda)) <= 1, so the radicand is never "
    "negative; the two-qubit concurrence routine supplies the value, and it "
    "matches the closed form"
)
NOTE_6B_SHORTHAND = (
    "the shorthand 1 - h(1/3) (~0.0817) does not equal this example's rate "
    "h(1/4) - 1/2 (~0.3113); the direct mutual-information value is reported"
)


# ---------------------------------------------------------------------------
# argument handling


def _extract_tol_flags(argv: list[str]) -> tuple[dict[str, float], list[str]]:
    """Pull --tol.<name> overrides out of argv before argparse sees it."""
    tols = dict(config.default_tolerances())
    rest: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            name, eq, val = arg[len("--tol.") :].partition("=")
            if not eq:
                i += 1
                if i >= len(argv):
                    raise UsageError(f"--tol.{name} needs a value")
                val = argv[i]
            if name not in tols:
                raise UsageError(
                    f"unknown tolerance {name!r}; known: {', '.join(sorted(tols))}"
                )
            try:
                x = float(val)
            except ValueError as exc:
                raise UsageError(f"--tol.{name}: {val!r} is not a number") from exc
            if not math.isfinite(x) or x <= 0:
                raise UsageError(f"--tol.{name} must be positive and finite")
            tols[name] = x
        else:
            rest.append(arg)
        i += 1
    return tols, rest


def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_seed, default=0, help="seed echoed into the report")
    sp.add_argument("--out", help="write the JSON envelope here instead of stdout")


# built on the first run, not at import; parse_args leaves the parser as it
# found it, so one instance serves every in-process call
@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secrecy-forge",
        description="Secret-key distillation analysis for tripartite distributions.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    for command, text in (
        ("classify", "class membership report for a distribution"),
        ("commoninfo", "per-flag common partitions and entropy"),
        ("keyrate", "classical key rate (exact where the class allows)"),
    ):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--dist", required=True)
        _add_common(sp)

    sp = sub.add_parser("embed", help="quantum embedding of a distribution")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--phases")
    sp.add_argument("--kind", required=True, choices=("qqq", "cqq", "ccq", "ccc"))
    _add_common(sp)

    sp = sub.add_parser("measures", help="entanglement measures of a state file")
    sp.add_argument("--state", required=True)
    sp.add_argument("--which", required=True, help="comma list from ef,esq,er,neg")
    _add_common(sp)

    sp = sub.add_parser("chain", help="key rate vs entanglement-measure chain checks")
    sp.add_argument("--dist", required=True)
    sp.add_argument("--phases")
    _add_common(sp)

    sp = sub.add_parser(
        "dequantize-check", help="quantum vs dequantized classical protocol deviation"
    )
    sp.add_argument("--tree", required=True)
    sp.add_argument("--dist", required=True)
    sp.add_argument("--n", type=int, default=1, help="number of i.i.d. copies")
    _add_common(sp)

    sp = sub.add_parser("reproduce", help="recompute a bundled example or table")
    sp.add_argument("example", choices=EXAMPLE_IDS)
    sp.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="family parameter for thm6a (default 0.25)",
    )
    _add_common(sp)
    return p


# ---------------------------------------------------------------------------
# report plumbing


def _emit(args: argparse.Namespace, tols: dict[str, float], result: Any) -> None:
    """Print or write the envelope; ``inputs`` digests every file argument given."""
    envelope = {
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "tolerances": tols,
        "inputs": {
            name: {"path": str(path), "sha256": io.sha256_file(path)}
            for name in ("dist", "phases", "state", "tree")
            if (path := getattr(args, name, None))
        },
        "result": result,
    }
    text = io.json_text(envelope)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _item(
    name: str,
    value: Any,
    expected: Any,
    passed: bool,
    tolerance: float | None = None,
) -> dict:
    return {
        "name": name,
        "value": value,
        "expected": expected,
        "tolerance": tolerance,
        "passed": bool(passed),
    }


def _same(name: str, value: Any, expected: Any) -> dict:
    return _item(name, value, expected, value == expected)


def _near(name: str, value: Any, expected: float, tol: float, ok: bool = True) -> dict:
    """Passes when ``ok`` and value is within tol of expected; None fails."""
    passed = ok and value is not None and abs(value - expected) <= tol
    return _item(name, value, expected, passed, tol)


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args, tols) -> int:
    d = io.load_dist(args.dist)
    report = classify(d, tol=tols["entropy"], support_eps=tols["support"])
    _emit(args, tols, report.to_json())
    return 0


def _cmd_commoninfo(args, tols) -> int:
    d = io.load_dist(args.dist)
    ccf = conditional_common_function(d, support_eps=tols["support"])
    result = {
        "cond_common_entropy": ccf.block_entropy(d),
        "conditional_common_function": ccf.to_json(),
        "xy_common_information": common_information(
            Dist2(d.p.sum(axis=2)), support_eps=tols["support"]
        ),
    }
    _emit(args, tols, result)
    return 0


def _cmd_keyrate(args, tols) -> int:
    d = io.load_dist(args.dist)
    rate = kd_class(d, tol=tols["entropy"], support_eps=tols["support"])
    _emit(args, tols, rate.to_json())
    return 0


def _cmd_embed(args, tols) -> int:
    d = io.load_dist(args.dist)
    phases = io.load_phases(args.phases, d.dims) if args.phases else None
    if args.kind == "ccc" and phases is not None:
        raise UsageError("the ccc embedding carries no phases; drop --phases")
    state = {
        "qqq": lambda: embed_qqq(d, phases).density(),
        "cqq": lambda: embed_cqq(d, phases),
        "ccq": lambda: embed_ccq(d, phases),
        "ccc": lambda: embed_ccc(d),
    }[args.kind]()
    _emit(args, tols, {"kind": args.kind, "state": io.dump_state(state)})
    return 0


def _cmd_measures(args, tols) -> int:
    state = io.load_state(args.state)
    measure = {
        "ef": lambda: (
            eof_2q(state) if state.dims == (2, 2) else eof_numeric(state, seed=args.seed)
        ),
        "esq": lambda: esq_classical_extension_bound(state),
        "er": lambda: rel_ent_upper(state, seed=args.seed, tol=tols["entropy"]),
        "neg": lambda: negativity_log(state),
    }
    which = dict.fromkeys(name.strip() for name in args.which.split(","))
    for name in which:
        if name not in measure:
            raise UsageError(f"unknown measure {name!r}; pick from ef,esq,er,neg")
    results = []
    for name in which:
        try:
            results.append(measure[name]().to_json())
        except SecrecyForgeError as exc:
            raise UsageError(f"{name}: {exc}") from exc
    _emit(args, tols, results)
    return 0


def _cmd_chain(args, tols) -> int:
    d = io.load_dist(args.dist)
    phases = io.load_phases(args.phases, d.dims) if args.phases else None
    report = verify_chain(
        d,
        phases,
        seed=args.seed,
        tol=tols["entropy"],
        chain_tol=tols["chain"],
        support_eps=tols["support"],
    )
    _emit(args, tols, report.to_json())
    return 0 if report.all_passed else 1


def _cmd_dequantize_check(args, tols) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    tree = io.load_tree(args.tree)
    d = io.load_dist(args.dist)
    try:
        deviation = verify_equivalence(tree, d, n=args.n)
    except InvalidProtocol as exc:
        # incompatible inputs, not a failed equivalence check
        raise UsageError(str(exc)) from exc
    tol = tols["equality"]
    passed = deviation <= tol
    result = {
        "n": args.n,
        "max_deviation": deviation,
        "tolerance": tol,
        "passed": passed,
    }
    _emit(args, tols, result)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bundled examples


def _thm6a_result(lam: float, tols: dict[str, float]) -> dict:
    if not 0.0 <= lam <= 0.5:
        raise UsageError("--lambda must lie in [0, 0.5]")
    d = binary_eve_family(lam)
    rate = kd_class(d, tol=tols["entropy"], support_eps=tols["support"])
    formula = 0.5 * (1.0 + binary_entropy(lam))
    ef = eof_2q(pair_state(d))
    gap = rate.value - ef.value
    items = [
        _same("kd_exact", rate.kind, "exact"),
        _near("kd_matches_formula", rate.value, formula, tols["equality"]),
    ]
    if abs(lam - 0.5) <= 1e-12:
        items.append(_near("kd_equals_formation", gap, 0.0, 1e-6))
    elif lam > 0.0:
        items.append(
            _item("kd_exceeds_formation", gap, "> 0", gap > tols["equality"])
        )
    return {
        "lambda": lam,
        "kd": rate.value,
        "kd_formula": formula,
        "eof_ab": ef.value,
        "gap": gap,
        "items": items,
        "notes": [NOTE_EF_FORMULA],
    }


def _thm6b_result(seed: int, tols: dict[str, float]) -> dict:
    d = independent_eve_example()
    adv = advantage_report(
        d, seed=seed, tol=tols["entropy"], support_eps=tols["support"]
    )
    classical = adv.classical.value
    # an unpinned quantum rate is reported as null and fails its items
    quantum = adv.quantum_value
    gap = None if quantum is None else quantum - classical
    items = [
        _near("classical_rate", classical, 0.311278124459, 1e-3),
        _near("quantum_rate", quantum, 0.600876, 1e-3),
        _item("gap_positive", gap, "> 0", gap is not None and gap > 0),
        _same("label", adv.label, "ab_advantage"),
    ]
    return {
        "advantage": adv.to_json(),
        "items": items,
        "notes": [NOTE_6B_SHORTHAND],
    }


def _lemma_result(tols: dict[str, float]) -> dict:
    rates = lemma_example_rates()
    expected = {"qqq": 1.0, "cqq": 2.0 / 3.0, "ccq": 1.0 / 3.0}
    items = [
        _near(f"{name}_rate", rates[name]["value"], value, tols["equality"])
        for name, value in expected.items()
    ]
    items.append(
        _same(
            "strict_ordering",
            rates["ordering"],
            {"qqq_gt_cqq": True, "cqq_gt_ccq": True},
        )
    )
    return {"rates": rates, "items": items, "notes": []}


def _two_block_chain(seed: int, tols: dict[str, float]) -> tuple[ChainReport, list[dict]]:
    """The two-block example's chain report and one item per chain check."""
    chain = verify_chain(
        two_block_uniform_example(),
        seed=seed,
        tol=tols["entropy"],
        chain_tol=tols["chain"],
        support_eps=tols["support"],
    )
    items = [
        _item(f"chain_{c.name}", c.slack, ">= 0 within band", c.passed)
        for c in chain.checks
    ]
    return chain, items


def _thm7d_result(seed: int, tols: dict[str, float]) -> dict:
    chain, chain_items = _two_block_chain(seed, tols)
    report = chain.classification
    rate = chain.measures["K_D_class"]
    items = [
        _same("ubi", report.ubi, "yes"),
        _same("semi_unambiguous", report.semi_unambiguous, "yes"),
        _near("kd", rate.value, 1.0, tols["equality"], ok=rate.kind == "exact"),
    ] + chain_items
    return {
        "classification": report.to_json(),
        "chain": chain.to_json(),
        "items": items,
        "notes": [],
    }


def _table1_result(seed: int, tols: dict[str, float]) -> dict:
    tree = random_instrument_tree(
        2, 2, rounds=2, outcomes=2, kraus_each=1, rng=np.random.default_rng(seed)
    )
    deviation = verify_equivalence(tree, binary_eve_family(0.25), n=1)
    tol, eps = tols["entropy"], tols["support"]
    adv_a = advantage_report(binary_eve_family(0.25), seed=seed, tol=tol, support_eps=eps)
    adv_b = advantage_report(independent_eve_example(), seed=seed, tol=tol, support_eps=eps)
    rates = lemma_example_rates()
    items = [
        # a sum of absolute differences, so never below 0
        _near("dequantize_deviation", deviation, 0.0, tols["equality"]),
        _same("classical_side_advantage", adv_a.label, "eve_advantage"),
        _same("quantum_side_advantage", adv_b.label, "ab_advantage"),
        _item(
            "dephasing_ladder",
            [rates["qqq"]["value"], rates["cqq"]["value"], rates["ccq"]["value"]],
            [1.0, 2.0 / 3.0, 1.0 / 3.0],
            rates["ordering"]["qqq_gt_cqq"] and rates["ordering"]["cqq_gt_ccq"],
        ),
    ]
    return {"items": items, "notes": []}


def _table2_result(seed: int, tols: dict[str, float]) -> dict:
    chain, items = _two_block_chain(seed, tols)
    rows = []
    for lam in (0.0, 0.1, 0.25, 0.4, 0.5):
        sub = _thm6a_result(lam, tols)
        rows.append({"lambda": lam, "kd": sub["kd"], "eof_ab": sub["eof_ab"]})
        items += [
            {**it, "name": f"lam_{lam:g}_{it['name']}"} for it in sub["items"]
        ]
    return {
        "chain": chain.to_json(),
        "formation_rows": rows,
        "items": items,
        "notes": [NOTE_EF_FORMULA],
    }


def _cmd_reproduce(args, tols) -> int:
    if args.lam is not None and args.example != "thm6a":
        raise UsageError("--lambda only applies to thm6a")
    if args.example == "thm6a":
        result = _thm6a_result(0.25 if args.lam is None else args.lam, tols)
    elif args.example == "lemma":
        result = _lemma_result(tols)
    else:
        result = {
            "thm6b": _thm6b_result,
            "thm7d": _thm7d_result,
            "table1": _table1_result,
            "table2": _table2_result,
        }[args.example](args.seed, tols)
    result["example"] = args.example
    _emit(args, tols, result)
    return 0 if all(it["passed"] for it in result["items"]) else 1


_HANDLERS = {
    "classify": _cmd_classify,
    "commoninfo": _cmd_commoninfo,
    "keyrate": _cmd_keyrate,
    "embed": _cmd_embed,
    "measures": _cmd_measures,
    "chain": _cmd_chain,
    "dequantize-check": _cmd_dequantize_check,
    "reproduce": _cmd_reproduce,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        tols, rest = _extract_tol_flags(argv)
        args = _parser().parse_args(rest)
        return _HANDLERS[args.command](args, tols)
    except (UsageError, DimensionCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SecrecyForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())
