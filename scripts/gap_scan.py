"""Scan the correlated-bit family: exact key rate vs entanglement of formation.

The two columns coincide at the balanced point and split everywhere
else, with the key rate on top.
"""

import argparse
import sys

import numpy as np

from secrecy_forge.embeddings import embed_qqq
from secrecy_forge.entanglement import eof_2q
from secrecy_forge.io import dump_json
from secrecy_forge.keyrates import binary_eve_family, kd_class
from secrecy_forge.qlinalg import partial_trace


def _points(text: str) -> int:
    """--points: a positive integer."""
    try:
        points = int(text)
    except ValueError:
        points = 0
    if points < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=_points, default=11,
                        help="grid points on [0, 1/2]")
    parser.add_argument("--out", help="also write the rows as JSON")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'lambda':>8s} {'K_D':>14s} {'E_F':>14s} {'gap':>12s}")
    for lam in np.linspace(0.0, 0.5, args.points):
        d = binary_eve_family(float(lam))
        kd = kd_class(d).value
        ef = eof_2q(partial_trace(embed_qqq(d).density(), keep=(0, 1))).value
        rows.append({"lambda": float(lam), "kd": kd, "ef": ef, "gap": kd - ef})
        print(f"{lam:8.3f} {kd:14.9f} {ef:14.9f} {kd - ef:12.3e}")

    if args.out:
        dump_json({"rows": rows}, args.out)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
