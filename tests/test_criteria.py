"""Verdict logic of acceptance criteria 04-08 on hand-made ladder records, and
scripts/criteria_seeds.py reporting those verdicts.

Each condition is put on both sides of its bound, and each non-strict bound
is also hit exactly where floating point can reach it, so a comparison that
is turned around or made strict fails a case here.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import test_acceptance as acceptance
from apdim import engine, geometry

ROOT = Path(__file__).resolve().parent.parent
COUNTS = [nx * ny for nx, ny in geometry.grid_ladder(100)]  # 1, 2, 4, 6, 9, 12, ..., 100
OPEN = acceptance._scn("table1-open")  # beta 0.05, K^wifi 3


def _verdicts(conditions) -> list:
    return [(c.holds, c.margin) for c in conditions.values()]


def _holds(conditions) -> list:
    return [c.holds for c in conditions.values()]


def _estimate(low, mean, high) -> engine.Estimate:
    return engine.Estimate(mean=mean, count=500, ci_low=low, ci_high=high)


def _outages(*intervals, counts=COUNTS) -> list:
    """Records up the ladder with the given (low, mean, high) outage estimates."""
    return [acceptance._record(n, outage=_estimate(*i)) for n, i in zip(counts, intervals)]


def _up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def _down(x: float) -> float:
    return float(np.nextafter(x, -np.inf))


# --- criterion 04 --------------------------------------------------------------

def _ceiling_demand(scn) -> float:
    return engine.throughput_to_demand(16_200.0 / scn.traffic.lambda_u_per_km2, scn.traffic)


def _with_density(scn, lambda_u: float):
    return dataclasses.replace(
        scn, traffic=dataclasses.replace(scn.traffic, lambda_u_per_km2=lambda_u)
    )


def _saturation(scn, rung_9_lambda=16_200.0, rung_9_demand=None) -> list:
    """The ladder to 9 APs on the ceiling from 4 APs on, with the 9-AP rung set apart.

    1 and 2 APs lie far below the ceiling; the criterion does not judge them.
    """
    demand = _ceiling_demand(scn)
    rungs = [(1, 5_400.0, demand / 3), (2, 10_800.0, demand / 2), (4, 16_200.0, demand),
             (6, 16_200.0, demand), (9, rung_9_lambda, rung_9_demand or demand)]
    return [
        acceptance._record(n, lambda_s=_estimate(lam, lam, lam), demand=d) for n, lam, d in rungs
    ]


def test_criterion_04_verdicts():
    criterion = acceptance.criterion_04
    assert _verdicts(criterion(OPEN, _saturation(OPEN))) == [(True, 0.02), (True, 0.02)]
    # lambda_s exactly 2% above and below the ceiling: 324 / 16200 is 0.02 in floats
    for lam in (16_524.0, 15_876.0):
        assert _verdicts(criterion(OPEN, _saturation(OPEN, lam)))[0] == (True, 0.0)
        beyond = _up(lam) if lam > 16_200 else _down(lam)
        assert _holds(criterion(OPEN, _saturation(OPEN, beyond))) == [False, True]
    # At this density a demand of 1.02 times the ceiling's is exactly 2% off in floats.
    scn = _with_density(OPEN, 100_033.0)
    on_bound = _ceiling_demand(scn) * 1.02
    assert abs(on_bound - _ceiling_demand(scn)) / _ceiling_demand(scn) == 0.02
    assert _verdicts(criterion(scn, _saturation(scn, rung_9_demand=on_bound)))[1] == (True, 0.0)
    over = _saturation(scn, rung_9_demand=_up(on_bound))
    assert _holds(criterion(scn, over)) == [True, False]


# --- criterion 05 --------------------------------------------------------------

# 1-2 APs: no contention; 6 APs: the peak; 16 APs: the last rung.
_TREND = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.02, 0.03, 0.04), (0.06, 0.08, 0.10),
          (0.01, 0.02, 0.03), (0.02, 0.04, 0.06), (0.0, 0.005, 0.01)]


def _trend(**rungs) -> list:
    """_TREND with the rungs named by AP count (as "n6=...") replaced."""
    intervals = list(_TREND)
    for name, interval in rungs.items():
        intervals[COUNTS.index(int(name[1:]))] = interval
    return _outages(*intervals)


DECLINE, RISE, LAST = 0.06 - 0.01, 0.03 - 0.02, 0.05 - 0.01  # _TREND's margins


@pytest.mark.parametrize(
    "rungs, want",
    [
        ({}, [(True, DECLINE), (True, RISE), (True, LAST)]),
        # decline: the last upper bound exactly at, then just below, the peak's lower bound
        ({"n6": (0.01, 0.08, 0.10)}, [(False, 0.0), (True, RISE), (True, LAST)]),
        ({"n6": (_up(0.01), 0.08, 0.10)}, [(True, _up(0.01) - 0.01), (True, RISE), (True, LAST)]),
        # no rise: 12 APs' lower bound exactly at, then just above, 9 APs' upper bound
        ({"n12": (0.03, 0.04, 0.06)}, [(True, DECLINE), (True, 0.0), (True, LAST)]),
        ({"n12": (_up(0.03), 0.04, 0.06)},
         [(True, DECLINE), (False, 0.03 - _up(0.03)), (True, LAST)]),
        # the last upper bound exactly at, then just below, beta
        ({"n16": (0.04, 0.045, 0.05)}, [(True, 0.06 - 0.05), (True, RISE), (False, 0.0)]),
        ({"n16": (0.04, 0.045, _down(0.05))},
         [(True, 0.06 - _down(0.05)), (True, RISE), (True, 0.05 - _down(0.05))]),
    ],
    ids=["holds", "decline-on-bound", "decline-above", "rise-on-bound", "rise-above",
         "beta-on-bound", "beta-below"],
)
def test_criterion_05_verdicts(rungs, want):
    assert _verdicts(acceptance.criterion_05(OPEN, _trend(**rungs))) == want


# --- criterion 06 --------------------------------------------------------------

def _growth(rung_25=(0.06, 0.07, 0.08), rung_36=(0.10, 0.12, 0.14)) -> list:
    """Erroneous-ZF records at 9, 16, 25 and 36 APs."""
    intervals = ((0.01, 0.02, 0.03), (0.03, 0.04, 0.05), rung_25, rung_36)
    return _outages(*intervals, counts=(9, 16, 25, 36))


def test_criterion_06_verdicts():
    criterion = acceptance.criterion_06
    ideal = _outages((0.0, 0.001, 0.002), (0.0, 0.002, 0.004))
    assert _holds(criterion(OPEN, _growth(), ideal)) == [True, True, True]
    # exceeds: 25 APs' lower bound exactly at beta fails, and 36 APs' is not judged
    on_beta = _growth(rung_25=(0.05, 0.07, 0.08))
    assert _verdicts(criterion(OPEN, on_beta, ideal))[0] == (False, 0.0)
    above = _growth(rung_25=(_up(0.05), 0.07, 0.08))
    assert _holds(criterion(OPEN, above, ideal)) == [True, True, True]
    # no drop: 36 APs' upper bound exactly at, then just below, 25 APs' lower bound
    level = _growth(rung_36=(0.02, 0.04, 0.06))
    assert _verdicts(criterion(OPEN, level, ideal))[1] == (True, 0.0)
    below = _growth(rung_36=(0.02, 0.04, _down(0.06)))
    assert _holds(criterion(OPEN, below, ideal)) == [True, False, True]
    # ideal outage exactly at, then just above, 0.005
    on_bound = _outages((0.0, 0.005, 0.01))
    assert _verdicts(criterion(OPEN, _growth(), on_bound))[2] == (True, 0.0)
    over = _outages((0.0, _up(0.005), 0.01))
    assert _holds(criterion(OPEN, _growth(), over)) == [True, True, False]


# --- criterion 07 --------------------------------------------------------------

def _minimums(open_static=30, open_zf=10, obstructed_static=10, obstructed_zf=10) -> dict:
    return {
        ("table1-open", "static"): open_static,
        ("table1-open", "zf-ideal"): open_zf,
        ("table1-obstructed", "static"): obstructed_static,
        ("table1-obstructed", "zf-ideal"): obstructed_zf,
    }


def test_criterion_07_verdicts():
    # (30 / 10) / (10 / 10) is exactly 3.0
    assert _verdicts(acceptance.criterion_07(_minimums())) == [(True, 0.0), (True, 0.0)]
    assert _verdicts(acceptance.criterion_07(_minimums(open_static=31))) == [
        (True, 0.0), (True, 3.1 - 3.0)
    ]
    assert _verdicts(acceptance.criterion_07(_minimums(open_static=29))) == [
        (True, 0.0), (False, 2.9 - 3.0)
    ]
    assert _verdicts(acceptance.criterion_07(_minimums(obstructed_zf=None))) == [
        (False, -1.0), (False, -np.inf)
    ]


# --- criterion 08 --------------------------------------------------------------

def _knee(curve=lambda n: min(n, 25), halfwidth=0.0056, demand=None) -> list:
    """The ladder to 100 APs with lambda_s and D on curve; demand overrides D by AP count."""
    records = []
    for n in COUNTS:
        mean = float(curve(n))
        lambda_s = _estimate(mean * (1 - halfwidth), mean, mean * (1 + halfwidth))
        records.append(acceptance._record(n, lambda_s=lambda_s, demand=(demand or {}).get(n, mean)))
    return records


def test_criterion_08_verdicts():
    assert _holds(acceptance.criterion_08(_knee())) == [True, True, True]
    # D growth is strict: a repeated D fails with a zero margin
    assert _verdicts(acceptance.criterion_08(_knee(demand={20: 16.0})))[0] == (False, 0.0)
    assert _verdicts(acceptance.criterion_08(_knee(demand={20: _up(16.0)})))[0] == (
        True, _up(16.0) - 16.0
    )
    # flat past 25 with exact intervals: the gain past 49 equals the gain before it
    assert _verdicts(acceptance.criterion_08(_knee(halfwidth=0.0)))[2] == (True, 0.0)
    # linear with exact intervals: every gain per doubling is exactly 1, so no drop
    linear = acceptance.criterion_08(_knee(lambda n: n, halfwidth=0.0))
    assert _verdicts(linear)[1:] == [(False, 0.0), (True, 0.0)]
    rising = _knee(lambda n: min(n, 25) * (1.01 if n == 100 else 1.0), halfwidth=0.0)
    assert _holds(acceptance.criterion_08(rising)) == [True, True, False]
    assert _holds(acceptance.criterion_08(_knee(lambda n: n))) == [True, False, True]


# --- scripts/criteria_seeds.py ---------------------------------------------------

def _criteria_seeds():
    spec = importlib.util.spec_from_file_location(
        "criteria_seeds", ROOT / "scripts" / "criteria_seeds.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criteria_seeds_reports_the_tests_own_verdicts(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends src/ and tests/
    seeds = _criteria_seeds()
    assert seeds.acceptance is acceptance
    mins = _minimums(open_static=33)

    def ladders(seed):
        # Seed 7 puts 04's lambda_s on its bound and fails 05's decline; seed 8 passes both.
        on_bound = seed == 7
        return {
            ("table1-open", "wifi-baseline"): _saturation(OPEN, 16_524.0 if on_bound else 16_200.0),
            ("table1-open", "wifi-aggressive"): _trend(n6=(0.01 if on_bound else 0.06, 0.08, 0.10)),
            ("table1-open", "zf-erroneous"): _growth(),
            ("table1-open", "zf-ideal"): _outages((0.0, 0.001, 0.002)),
            ("table1-obstructed", "wifi-baseline"): _knee(),
        }

    def want(seed):
        records = {
            system if preset == "table1-open" else "knee": r
            for (preset, system), r in ladders(seed).items()
        }
        return {
            4: acceptance.criterion_04(OPEN, records["wifi-baseline"]),
            5: acceptance.criterion_05(OPEN, records["wifi-aggressive"]),
            6: acceptance.criterion_06(OPEN, records["zf-erroneous"], records["zf-ideal"]),
            7: acceptance.criterion_07(mins),
            8: acceptance.criterion_08(records["knee"]),
        }

    calls = []

    def ladder_records(scn, systems, max_aps):
        calls.append((scn.scenario_id, scn.engine.seed, scn.engine.n_snapshots, max_aps))
        return {system: ladders(scn.engine.seed)[scn.scenario_id, system] for system in systems}

    def dimension(scn, systems):
        config = scn.engine
        calls.append((scn.scenario_id, config.seed, config.n_snapshots, config.ladder_max_aps))
        per_system = {
            system: engine.SystemDimensioning(
                records=(), minimums={25.0: acceptance._record(mins[scn.scenario_id, system])}
            )
            for system in systems
        }
        return engine.DimensioningResult(demand_grid=(25.0,), ladder=(), per_system=per_system)

    monkeypatch.setattr(acceptance, "_ladder_records", ladder_records)
    monkeypatch.setattr(engine, "dimension", dimension)
    assert seeds.run_seed(7) == want(7)
    assert [acceptance.passes(c) for c in want(7).values()] == [True, False, True, True, True]
    assert calls == [
        ("table1-open", 7, 500, 100), ("table1-open", 7, 500, 64),
        ("table1-obstructed", 7, 500, 100),
        ("table1-open", 7, 200, 64), ("table1-obstructed", 7, 200, 64),
    ]
    assert seeds.main(["--first", "7", "--count", "2"]) == 0
    out = capsys.readouterr().out
    for seed in (7, 8):
        for num, conditions in want(seed).items():
            verdict = "PASS" if acceptance.passes(conditions) else "FAIL"
            line = f"seed {seed} criterion {num:02d} {verdict}: {acceptance.describe(conditions)}"
            assert line + "\n" in out
    assert "criterion 04 open-env Wi-Fi saturation: passes at 2 of 2 seeds\n" in out
    assert "criterion 05 aggressive Wi-Fi outage trend: passes at 1 of 2 seeds\n" in out
    assert "    worst lambda_s deviation <= 0.02: min +0, median +0.01\n" in out
