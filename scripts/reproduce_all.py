"""Regenerate every bundled example report into a directory of envelopes.

Besides the six ``reproduce`` examples, the script runs the 16 commands of
the benchmark's ``cli-session`` workload on its seeded input files (built
by ``bench/workloads.py``) and writes their envelopes under
``<out-dir>/cli-session``.  Input paths are written relative to the
out-dir, so ``diff -r`` of two out-dirs compares envelope content alone:
run the script on two checkouts at one seed to check that a change keeps
every envelope byte-identical.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

# this checkout's package and benchmark helpers, ahead of any installed copy
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from secrecy_forge.cli import EXAMPLE_IDS, _seed, run
from workloads import cli_session_commands, load_ref, write_cli_inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports",
                        help="directory for the JSON envelopes")
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for example in EXAMPLE_IDS:
        target = out_dir / f"{example}.json"
        code = run(["reproduce", example, "--seed", str(args.seed),
                    "--out", str(target)])
        print(f"{example:8s} exit {code}  {target}")
        worst = max(worst, code)

    # the pool member the benchmark's cli-session picks at this seed; the
    # session's exit codes are printed, not folded into the script's: its
    # one-sided-coherence chain exits 1, as bench/refs/cli-session.json records
    pool = load_ref("cli-session")["pool"]
    pool_index = int(np.random.default_rng([args.seed, 4]).integers(len(pool)))
    session = Path("cli-session")
    home = Path.cwd()
    os.chdir(out_dir)
    try:
        session.mkdir(exist_ok=True)
        write_cli_inputs(session, pool_index, args.seed)
        for label, argv in cli_session_commands(session):
            code = run(argv)
            print(f"{label:18s} exit {code}  {out_dir / argv[-1]}")
    finally:
        os.chdir(home)
    return worst


if __name__ == "__main__":
    sys.exit(main())
