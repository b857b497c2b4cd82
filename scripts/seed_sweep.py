#!/usr/bin/env python3
"""Miss rate of each sampled acceptance check over many seeds.

Seven checks in tests/test_acceptance.py compare sampled values with
the paper's claim or the exact path at one fixed seed, so each passes
or fails by the draw of that seed. Each is declared once, in
``CHECKS`` of tests/acceptance_checks.py: its run (driver or
waiting-time draw, scenario, trials, shots), its suite seed, its pass
rule and its stated false-failure rate. This script reruns every check
at each seed of a range and prints, beside the stated rate, how many
seeds miss it.

Run:  python3 scripts/seed_sweep.py [--seeds 200] [--first 1]
(scipy provides the chi-square quantile.)
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from acceptance_checks import CHECKS, Run  # noqa: E402


def sweep(seeds) -> dict[str, list[int]]:
    """Seeds that miss each check, in ``CHECKS`` order."""
    misses = {name: [] for name in CHECKS}
    for seed in seeds:
        for name, check in CHECKS.items():
            if not check.judge(seed)[0]:
                misses[name].append(seed)
        # Memory holds one seed's runs however many checks share them.
        Run.output.cache_clear()
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="number of seeds (default 200)")
    parser.add_argument("--first", type=int, default=1, help="first seed (default 1)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = range(args.first, args.first + args.seeds)
    print(f"seeds {seeds.start}-{seeds.stop - 1}:")
    for name, missed in sweep(seeds).items():
        rate = 100.0 * len(missed) / len(seeds)
        shown = ", ".join(map(str, missed[:12])) + (", ..." if len(missed) > 12 else "")
        print(f"{name} (stated rate {CHECKS[name].rate:g}): "
              f"{len(missed)} of {len(seeds)} missed ({rate:.1f} %)"
              + (f" [{shown}]" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
