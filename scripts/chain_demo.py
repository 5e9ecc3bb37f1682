"""Walk the measure chain on the two-block example and label every bundled case."""

import argparse
import sys

from secrecy_forge.cli import _seed
from secrecy_forge.keyrates import (
    advantage_report,
    binary_eve_family,
    independent_eve_example,
    one_sided_coherence_example,
    two_block_uniform_example,
    verify_chain,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args(argv)

    report = verify_chain(two_block_uniform_example(), seed=args.seed)
    print("two-block example chain:")
    for check in report.checks:
        mark = "ok" if check.passed else "VIOLATED"
        print(f"  {check.name:32s} {check.lhs_name} = {check.lhs:.9f}  "
              f"{check.rhs_name} = {check.rhs:.9f}  slack {check.slack:+.3e}  {mark}")
    print(f"  all passed: {report.all_passed}")

    cases = [
        ("skewed family (lambda=1/4)", binary_eve_family(0.25), None),
        ("balanced family (lambda=1/2)", binary_eve_family(0.5), None),
        ("independent eavesdropper", independent_eve_example(), None),
        ("two-block uniform", two_block_uniform_example(), None),
    ]
    d, phases = one_sided_coherence_example()
    cases.append(("one-sided coherence", d, phases))

    print("\nadvantage labels:")
    for name, dist, ph in cases:
        adv = advantage_report(dist, phases=ph, seed=args.seed)
        gap = "n/a" if adv.gap is None else f"{adv.gap:+.6f}"
        print(f"  {name:30s} {adv.label:14s} gap {gap}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
