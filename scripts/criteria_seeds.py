"""Run acceptance criteria 04-08 at several seeds.

    python3 scripts/criteria_seeds.py [--first SEED] [--count N]

``tests/test_acceptance.py`` checks criteria 04-08 at one pinned seed. This
script runs the test module's own criterion functions, on the same ladders
and snapshot counts, at each of N consecutive seeds from SEED (default: the
pinned seed and the nine after it). It prints, per seed and criterion,
whether the criterion passes and the margin of each of its conditions to its
bound (positive where the condition holds), then each criterion's pass rate
and the smallest and median margin of each condition. It runs this
checkout's ``src``; it changes no test and is not part of tier-1. A seed
takes about 20 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acceptance  # noqa: E402

NAMES = {
    4: "open-env Wi-Fi saturation",
    5: "aggressive Wi-Fi outage trend",
    6: "erroneous-ZF outage growth",
    7: "environment-dependent coordination gain",
    8: "obstructed-env Wi-Fi knee",
}


def run_seed(seed: int) -> dict:
    """{criterion: {condition: Condition}} at one seed."""
    scn = acceptance._scn("table1-open", seed=seed, n_snapshots=500)
    wifi = acceptance._ladder_records(scn, ["wifi-baseline", "wifi-aggressive"], 100)
    zf = acceptance._ladder_records(scn, ["zf-erroneous", "zf-ideal"], 64)
    obstructed = acceptance._scn("table1-obstructed", seed=seed, n_snapshots=500)
    knee = acceptance._ladder_records(obstructed, ["wifi-baseline"], 100)["wifi-baseline"]
    return {
        4: acceptance.criterion_04(scn, wifi["wifi-baseline"]),
        5: acceptance.criterion_05(scn, wifi["wifi-aggressive"]),
        6: acceptance.criterion_06(scn, zf["zf-erroneous"], zf["zf-ideal"]),
        7: acceptance.criterion_07(acceptance.coordination_minimums(seed)),
        8: acceptance.criterion_08(knee),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=acceptance.SEED, help="first seed")
    parser.add_argument("--count", type=int, default=10, help="number of consecutive seeds")
    args = parser.parse_args(argv)
    results = {}
    for seed in range(args.first, args.first + args.count):
        results[seed] = run_seed(seed)
        for num, conditions in results[seed].items():
            verdict = "PASS" if acceptance.passes(conditions) else "FAIL"
            print(f"seed {seed} criterion {num:02d} {verdict}: {acceptance.describe(conditions)}",
                  flush=True)
    print(f"over {args.count} seeds from {args.first}:")
    for num, name in NAMES.items():
        passes = sum(acceptance.passes(results[seed][num]) for seed in results)
        print(f"criterion {num:02d} {name}: passes at {passes} of {args.count} seeds")
        for condition in results[args.first][num]:
            values = [results[seed][num][condition].margin for seed in results]
            print(f"    {condition}: min {min(values):+.4g}, "
                  f"median {statistics.median(values):+.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
