"""Run the statistics of acceptance criteria 04-08 at several seeds.

    python3 scripts/criteria_seeds.py [--first SEED] [--count N]

``tests/test_acceptance.py`` checks criteria 04-08 at one pinned seed. This
script computes the same statistics, on the same ladders, snapshot counts
and bounds, at each of N consecutive seeds from SEED (default: the pinned
seed and the nine after it). It prints, per seed and criterion, whether the
criterion passes and the margin of each of its conditions to its bound
(positive where the condition holds), then each criterion's pass rate and
the smallest and median margin of each condition. It runs this checkout's
``src`` and imports the test module's ladder and knee helpers, so the
statistics are the test's; it changes no test and is not part of tier-1. A
seed takes about half a minute on one core.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import test_acceptance as acceptance  # noqa: E402
from apdim import engine, scenario  # noqa: E402

NAMES = {
    4: "open-env Wi-Fi saturation",
    5: "aggressive Wi-Fi outage trend",
    6: "erroneous-ZF outage growth",
    7: "environment-dependent coordination gain",
    8: "obstructed-env Wi-Fi knee",
}


def _scn(preset: str, seed: int, **engine_overrides):
    raw = scenario.preset_raw(preset)
    raw["engine"].update(seed=seed, **engine_overrides)
    return scenario.from_dict(raw)


def criterion_04(scn, records) -> tuple[bool, dict]:
    ceiling = 16_200.0
    ceiling_demand = engine.throughput_to_demand(ceiling / scn.traffic.lambda_u_per_km2, scn.traffic)
    flat = [r for r in records if r.ap_count >= 3]
    worst_dev = max(abs(r.lambda_s.mean - ceiling) / ceiling for r in flat)
    worst_demand_dev = max(abs(r.demand_gb_month - ceiling_demand) / ceiling_demand for r in flat)
    ok = worst_dev <= 0.02 and worst_demand_dev <= 0.02 and abs(ceiling_demand - 10.7) <= 0.05
    return ok, {"0.02 - worst lambda_s deviation": 0.02 - worst_dev,
                "0.02 - worst demand deviation": 0.02 - worst_demand_dev}


def criterion_05(scn, records) -> tuple[bool, dict]:
    contended = [r for r in records if r.ap_count > scn.wifi.k_wifi]
    peak_idx = int(np.argmax([r.outage.mean for r in contended]))
    peak, final = contended[peak_idx], records[-1]
    past_peak = list(zip(contended[peak_idx:], contended[peak_idx + 1:]))
    violations = [b for a, b in past_peak if b.outage.ci_low > a.outage.ci_high]
    declined = peak.outage.ci_low > final.outage.ci_high
    ok = declined and not violations and final.outage.ci_high < scn.radio.beta
    return ok, {
        "decline: peak low - final high": peak.outage.ci_low - final.outage.ci_high,
        "no rise past peak: min(a high - b low)": min(
            (a.outage.ci_high - b.outage.ci_low for a, b in past_peak), default=np.inf),
        "beta - final high": scn.radio.beta - final.outage.ci_high,
    }


def criterion_06(scn, err, ideal) -> tuple[bool, dict]:
    beta = scn.radio.beta
    low = [r for r in err if r.ap_count <= 25]
    exceeds = [r for r in low if r.outage.ci_low > beta]
    pairs = list(zip(err, err[1:]))
    drops = [b for a, b in pairs if b.outage.ci_high < a.outage.ci_low]
    ideal_max = max(r.outage.mean for r in ideal)
    ok = bool(exceeds) and not drops and ideal_max <= 0.005
    return ok, {
        "exceeds: max low - beta to 25 APs": max(r.outage.ci_low for r in low) - beta,
        "no drop: min(b high - a low)": min(b.outage.ci_high - a.outage.ci_low for a, b in pairs),
        "0.005 - max ideal outage": 0.005 - ideal_max,
    }


def criterion_07(seed: int) -> tuple[bool, dict]:
    demand, mins = 25.0, {}
    for preset in ("table1-open", "table1-obstructed"):
        raw = scenario.preset_raw(preset)
        raw["engine"].update(n_snapshots=200, ladder_max_aps=64, seed=seed)
        raw["demand_gb_month"] = [demand]
        res = engine.dimension(scenario.from_dict(raw), ["static", "zf-ideal"])
        for system in ("static", "zf-ideal"):
            rec = res.per_system[system].minimums[demand]
            mins[preset, system] = None if rec is None else rec.ap_count
    if any(v is None for v in mins.values()):
        return False, {"separation - 3": -np.inf}
    separation = (mins["table1-open", "static"] / mins["table1-open", "zf-ideal"]) / (
        mins["table1-obstructed", "static"] / mins["table1-obstructed", "zf-ideal"])
    return separation >= 3.0, {"separation - 3": separation - 3.0}


def criterion_08(records) -> tuple[bool, dict]:
    by_count = {r.ap_count: r.demand_gb_month for r in records}
    upto_25 = [by_count[c] for c in sorted(c for c in by_count if c <= 25)]
    growth = [b / a - 1.0 for a, b in zip(upto_25, upto_25[1:])]
    before, past, further = acceptance._doubling_gains({r.ap_count: r.lambda_s for r in records})
    drops, rises = acceptance._knee_shape((before, past, further))
    ok = all(g > 0 for g in growth) and drops and not rises
    return ok, {
        "grows to 25 APs: min relative step": min(growth),
        "drop: 12->25 low - 25->49 high": before[1] - past[2],
        "no rise: 25->49 high - 49->100 low": past[2] - further[1],
    }


def run_seed(seed: int) -> dict:
    """{criterion: (passes, {condition: margin})} at one seed."""
    scn = _scn("table1-open", seed, n_snapshots=500)
    wifi = acceptance._ladder_records(scn, ["wifi-baseline", "wifi-aggressive"], 100)
    zf = acceptance._ladder_records(scn, ["zf-erroneous", "zf-ideal"], 64)
    obstructed = _scn("table1-obstructed", seed, n_snapshots=500)
    knee = acceptance._ladder_records(obstructed, ["wifi-baseline"], 100)["wifi-baseline"]
    return {
        4: criterion_04(scn, wifi["wifi-baseline"]),
        5: criterion_05(scn, wifi["wifi-aggressive"]),
        6: criterion_06(scn, zf["zf-erroneous"], zf["zf-ideal"]),
        7: criterion_07(seed),
        8: criterion_08(knee),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=acceptance.SEED, help="first seed")
    parser.add_argument("--count", type=int, default=10, help="number of consecutive seeds")
    args = parser.parse_args(argv)
    results = {}
    for seed in range(args.first, args.first + args.count):
        results[seed] = run_seed(seed)
        for num, (ok, margins) in results[seed].items():
            shown = ", ".join(f"{name} {value:+.4g}" for name, value in margins.items())
            print(f"seed {seed} criterion {num:02d} {'PASS' if ok else 'FAIL'}: {shown}",
                  flush=True)
    print(f"over {args.count} seeds from {args.first}:")
    for num, name in NAMES.items():
        passes = sum(results[seed][num][0] for seed in results)
        print(f"criterion {num:02d} {name}: passes at {passes} of {args.count} seeds")
        for condition in results[args.first][num][1]:
            values = [results[seed][num][1][condition] for seed in results]
            print(f"    {condition}: min {min(values):+.4g}, "
                  f"median {statistics.median(values):+.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
