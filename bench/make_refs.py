"""Regenerate the benchmark's input pools and reference outputs.

    python3 bench/make_refs.py [classify-corpus|formation-2q|cli-session ...]

Writes ``bench/refs/<workload>.json``.  The references record what the
program computed when they were made; the workload checks accept any
later output that is as resolved and still sound.  Regenerating them
after a change to the program would hide a regression, so do it only
when a workload's inputs change, and say so with the change.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402

# Pool members per stratum.
CLASSIFY_POOL = {"block": 48, "sparse": 96, "wide-z": 48}
# Candidates per rank, cut into this many cost strata.
FORMATION_POOL = {2: (64, 8), 3: (48, 8), 4: (48, 8)}
CLI_POOL = 16


def classify_refs() -> dict:
    refs = {}
    for stratum in wl.classify_strata():
        size = next(n for f, n in CLASSIFY_POOL.items() if stratum.startswith(f))
        refs[stratum] = [
            wl.classify_summary(wl.classify_item(wl.classify_pool_member(stratum, j)))
            for j in range(size)
        ]
        print(stratum, len(refs[stratum]), flush=True)
    return refs


def formation_refs() -> dict:
    strata = {}
    cost_ms = {}
    for rank, (size, n_strata) in FORMATION_POOL.items():
        costs = []
        for j in range(size):
            rho = wl.formation_pool_member(rank, j)
            start = time.perf_counter()
            wl.formation_item(rho, seed=j)
            costs.append((time.perf_counter() - start) * 1e3)
        order = sorted(range(size), key=costs.__getitem__)
        per = size // n_strata
        strata[rank] = [order[s * per:(s + 1) * per] for s in range(n_strata)]
        cost_ms[rank] = [round(c, 1) for c in costs]
        print("rank", rank, "strata", strata[rank], flush=True)
    return {
        "about": "pool keys per rank, cut into cost strata (cheapest first) "
                 "by one timed run of each item; cost_ms lists those times by key",
        "strata": strata,
        "cost_ms": cost_ms,
    }


def session(workdir: Path, pool_index: int, seed: int, only=None) -> dict[str, dict]:
    wl.write_cli_inputs(workdir, pool_index, seed)
    return {
        str(i): wl.session_summary(*wl.run_cli(argv))
        for i, (_, argv) in enumerate(wl.cli_session_commands(workdir))
        if only is None or i in only
    }


def seeded_commands() -> set[int]:
    """Indices of the commands whose inputs come from the pool."""
    return {
        i for i, (_, argv) in enumerate(wl.cli_session_commands(Path(".")))
        if any(a.endswith("rand.json") for a in argv)
    }


def cli_refs() -> dict:
    seeded = seeded_commands()
    with tempfile.TemporaryDirectory() as tmp:
        first = session(Path(tmp), 0, 0)
        fixed = {i: s for i, s in first.items() if int(i) not in seeded}
        pool = [session(Path(tmp), j, 0, only=seeded) for j in range(CLI_POOL)]
    return {"fixed": fixed, "pool": pool}


MAKERS = {
    "classify-corpus": classify_refs,
    "formation-2q": formation_refs,
    "cli-session": cli_refs,
}


def main(names: list[str]) -> None:
    (BENCH / "refs").mkdir(exist_ok=True)
    for name in names or list(MAKERS):
        doc = MAKERS[name]()
        path = BENCH / "refs" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main(sys.argv[1:])
