"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live. The
heavy criteria (4-8) drive the full Monte-Carlo engine at the preset snapshot
counts and take about 20 s together on a 2-core host.

Criteria 04-08 state their statistics once each, in ``criterion_04`` ...
``criterion_08``, which pytest does not collect. Each returns its named
conditions, and each test prints its line from them and asserts every one;
``scripts/criteria_seeds.py`` runs the same functions at other seeds.
"""

import json
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from apdim import channel as ch
from apdim import engine, geometry, scenario, wifi, zf
from apdim.oracles import papc_grid_check

SEED = 20240601


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


class Condition(NamedTuple):
    """Whether a criterion's condition holds, and its margin to its bound (> 0 where it
    holds). At a zero margin ``holds`` tells a non-strict bound from a strict one."""

    holds: bool
    margin: float


def _le(value, bound) -> Condition:
    return Condition(bool(value <= bound), float(bound - value))


def _lt(value, bound) -> Condition:
    return Condition(bool(value < bound), float(bound - value))


def passes(conditions: dict) -> bool:
    return all(c.holds for c in conditions.values())


def describe(conditions: dict) -> str:
    """Each condition's name and margin, as the ACCEPTANCE lines print them."""
    return ", ".join(f"{name} {c.margin:+.4g}" for name, c in conditions.items())


def _assert_criterion(num: int, name: str, conditions: dict, note: str) -> None:
    """Print criterion num's ACCEPTANCE line from its conditions, then assert each one."""
    _report(num, name, passes(conditions), f"{describe(conditions)}; {note}")
    for condition, c in conditions.items():
        assert c.holds, f"{condition}: margin {c.margin:+.4g}"


def _scn(preset: str, **engine_overrides):
    raw = scenario.preset_raw(preset)
    raw["engine"].update(engine_overrides)
    return scenario.from_dict(raw)


def _ladder_records(scn, systems, max_aps):
    """Each system's records up the ladder to max_aps, every rung in one shared pass."""
    records = {system: [] for system in systems}
    for rung, (nx, ny) in enumerate(geometry.grid_ladder(max_aps)):
        layout = geometry.place_aps(scn.area, nx, ny)
        for rec in engine.evaluate_rung(scn, layout, systems, rung):
            records[rec.system].append(rec)
    return records


def _record(ap_count, *, lambda_s=None, outage=None, demand=0.0) -> engine.DeploymentRecord:
    """A hand-made ladder record that sets only what the criteria read."""
    zero = engine.Estimate(mean=0.0, count=500, ci_low=0.0, ci_high=0.0)
    return engine.DeploymentRecord(
        system="hand-made", nx=ap_count, ny=1, ap_count=ap_count, ap_density_per_km2=0.0,
        k_channels=None, outage_feasible=False, lambda_s=lambda_s or zero,
        outage=outage or zero, mu_mbps_per_user=0.0, demand_gb_month=demand,
        n_snapshots=500, served_samples=0, zf_redraws=0, solver_fallbacks=0,
    )


def _timed_ladders(systems, max_aps):
    """(scenario, records per system, seconds) of one shared open-env ladder at 500 snapshots."""
    t0 = time.perf_counter()
    scn = _scn("table1-open", seed=SEED, n_snapshots=500)
    return scn, _ladder_records(scn, systems, max_aps), time.perf_counter() - t0


# A system's records do not depend on which systems share its rung's pass
# (tests/test_engine.py pins that), so criteria on the same ladder share one.
@pytest.fixture(scope="module")
def open_wifi_ladders():
    """Criteria 04 and 05: both Wi-Fi systems on the open ladder to 100 APs."""
    return _timed_ladders(["wifi-baseline", "wifi-aggressive"], max_aps=100)


@pytest.fixture(scope="module")
def open_zf_ladders():
    """Criterion 06: both ZF systems on the open ladder to 64 APs."""
    return _timed_ladders(["zf-erroneous", "zf-ideal"], max_aps=64)


def test_criterion_01_zf_inversion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in (1, 2, 4, 8, 16):
        for _ in range(1000):
            h = ch.draw_fading(rng, (n, n))
            (w,), (accepted,) = zf.build_beamformers(h[None])
            assert accepted, "a draw was rejected"
            worst = max(worst, float(np.abs(h @ w - np.eye(n)).max()))
    elapsed = time.perf_counter() - t0
    _assert_criterion(
        1, "ZF inversion residual",
        {"max |HW - I| < 1e-8": _lt(worst, 1e-8), "seconds < 10": _lt(elapsed, 10.0)},
        f"max |HW - I| = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_papc_solver_vs_grid_oracle():
    # Each of the solver's three paths (rate cap, water-filling, interior
    # point) is taken and checked against the grid on its own.
    t0 = time.perf_counter()
    worst = papc_grid_check(np.random.default_rng(SEED + 1), 200)
    elapsed = time.perf_counter() - t0
    conditions = {}
    for path, (count, rel, load) in worst.items():
        conditions[f"{path}: instances >= 1"] = _le(1, count)
        conditions[f"{path}: worst rel diff <= 0.01"] = _le(rel, 0.01)
        conditions[f"{path}: worst load/Pt <= 1 + 1e-6"] = _le(load, 1 + 1e-6)
    conditions["seconds < 60"] = _lt(elapsed, 60.0)
    _assert_criterion(
        2, "PAPC solver vs 400x400 grid", conditions,
        "; ".join(f"{path}: {count} instances, worst rel diff {rel:.2e}, worst load/Pt {load:.9f}"
                  for path, (count, rel, load) in worst.items()) + f", {elapsed:.1f} s",
    )


def test_criterion_03_ssi_distribution():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)

    one_channel = np.zeros(3, dtype=np.int64)
    clique = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(clique, False)
    wins = np.zeros(3)
    for _ in range(10_000):
        (act,) = wifi.sample_ssi([clique], one_channel, 1, rng)
        wifi.validate_active_set(clique, act)
        wins[act[0]] += 1
    clique_err = float(np.abs(wins / 10_000 - 1 / 3).max())

    path = np.zeros((3, 3), dtype=bool)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
    ends = 0
    for _ in range(10_000):
        (act,) = wifi.sample_ssi([path], one_channel, 1, rng)
        wifi.validate_active_set(path, act)
        ends += act.size == 2
    path_err = abs(ends / 10_000 - 2 / 3)

    elapsed = time.perf_counter() - t0
    _assert_criterion(
        3, "SSI sampling vs enumeration",
        {
            "clique max err <= 0.03": _le(clique_err, 0.03),
            "path err <= 0.03": _le(path_err, 0.03),
            "seconds < 5": _lt(elapsed, 5.0),
        },
        f"clique max err {clique_err:.4f}, path err {path_err:.4f}, {elapsed:.1f} s",
    )


def criterion_04(scn, records) -> dict:
    """Open-env Wi-Fi saturation: from 3 APs on, lambda_s and D within 2% of the ceiling."""
    ceiling = 16_200.0  # 3 active APs x 54 Mbps / 0.01 km2
    ceiling_demand = engine.throughput_to_demand(ceiling / scn.traffic.lambda_u_per_km2, scn.traffic)
    flat = [r for r in records if r.ap_count >= 3]
    worst_dev = max(abs(r.lambda_s.mean - ceiling) / ceiling for r in flat)
    worst_demand_dev = max(abs(r.demand_gb_month - ceiling_demand) / ceiling_demand for r in flat)
    return {
        "worst lambda_s deviation <= 0.02": _le(worst_dev, 0.02),
        "worst demand deviation <= 0.02": _le(worst_demand_dev, 0.02),
    }


def test_criterion_04_open_env_wifi_saturation(open_wifi_ladders):
    scn, ladders, ladder_s = open_wifi_ladders
    _assert_criterion(
        4, "open-env Wi-Fi saturation", criterion_04(scn, ladders["wifi-baseline"]),
        f"{ladder_s:.0f} s ladder shared with 05",
    )


def criterion_05(scn, records) -> dict:
    """Aggressive Wi-Fi outage: a significant decline from its peak and no rise past it."""
    # Collisions need a co-channel pair, so the trend window starts once the
    # ladder exceeds K^wifi APs; the collision peak must sit at moderate
    # density and the curve must not rise significantly beyond it (the W knob
    # shifts where contention sets in, so this is a shape test, not absolute).
    contended = [r for r in records if r.ap_count > scn.wifi.k_wifi]
    peak_idx = int(np.argmax([r.outage.mean for r in contended]))
    peak, final = contended[peak_idx].outage, records[-1].outage
    past_peak = zip(contended[peak_idx:], contended[peak_idx + 1 :])
    rise_gap = min((a.outage.ci_high - b.outage.ci_low for a, b in past_peak), default=np.inf)
    return {
        "decline: final high < peak low": _lt(final.ci_high, peak.ci_low),
        "no rise past peak: min(a high - b low) >= 0": _le(0.0, rise_gap),
        "final high < beta": _lt(final.ci_high, scn.radio.beta),
    }


def test_criterion_05_aggressive_wifi_outage_trend(open_wifi_ladders):
    scn, ladders, ladder_s = open_wifi_ladders
    _assert_criterion(
        5, "aggressive Wi-Fi outage trend", criterion_05(scn, ladders["wifi-aggressive"]),
        f"{ladder_s:.0f} s ladder shared with 04",
    )


def criterion_06(scn, err, ideal) -> dict:
    """Erroneous-CSIT ZF outage: significantly above beta by 25 APs, never dropping."""
    return {
        "exceeds: max low to 25 APs > beta": _lt(
            scn.radio.beta, max(r.outage.ci_low for r in err if r.ap_count <= 25)
        ),
        "no drop: min(b high - a low) >= 0": _le(
            0.0, min(b.outage.ci_high - a.outage.ci_low for a, b in zip(err, err[1:]))
        ),
        "max ideal outage <= 0.005": _le(max(r.outage.mean for r in ideal), 0.005),
    }


def test_criterion_06_erroneous_zf_outage_growth(open_zf_ladders):
    scn, ladders, ladder_s = open_zf_ladders
    _assert_criterion(
        6, "erroneous-ZF outage growth",
        criterion_06(scn, ladders["zf-erroneous"], ladders["zf-ideal"]),
        f"{ladder_s:.0f} s for both ZF ladders",
    )


# Matched high demand point: 25 GB/month/user, ~2.3x the open-env Wi-Fi ceiling
# and within the static system's open-env spectrum wall (the paper's absolute
# 40 GB point is not reproducible without its W).
COORDINATION_DEMAND = 25.0


def coordination_minimums(seed: int) -> dict:
    """{(preset, system): static's and ideal ZF's minimum AP count (or None) on both presets."""
    mins = {}
    for preset in ("table1-open", "table1-obstructed"):
        raw = scenario.preset_raw(preset)
        raw["engine"].update(n_snapshots=200, ladder_max_aps=64, seed=seed)
        raw["demand_gb_month"] = [COORDINATION_DEMAND]
        res = engine.dimension(scenario.from_dict(raw), ["static", "zf-ideal"])
        for system in ("static", "zf-ideal"):
            rec = res.per_system[system].minimums[COORDINATION_DEMAND]
            mins[preset, system] = None if rec is None else rec.ap_count
    return mins


def criterion_07(mins) -> dict:
    """Coordination gain: static/ZF AP ratio at least 3x larger open than obstructed."""
    found = sum(v is not None for v in mins.values())
    separation = -np.inf
    if found == 4:
        separation = (mins["table1-open", "static"] / mins["table1-open", "zf-ideal"]) / (
            mins["table1-obstructed", "static"] / mins["table1-obstructed", "zf-ideal"]
        )
    return {"all four minima found": _le(4, found), "separation >= 3.0": _le(3.0, separation)}


def test_criterion_07_environment_dependent_coordination_gain():
    t0 = time.perf_counter()
    mins = coordination_minimums(SEED)
    _assert_criterion(
        7, "environment-dependent coordination gain", criterion_07(mins),
        f"min APs {mins}, {time.perf_counter() - t0:.0f} s",
    )


# Doubling steps around the obstructed knee: before, just past and well past one
# AP per room (the 4x4 walls make 25 rooms).
KNEE_STEPS = ((12, 25), (25, 49), (49, 100))


def _doubling_gains(lambda_by_count):
    """Capacity gain per AP doubling over each of KNEE_STEPS, as (mean, low, high).

    A step n_a -> n_b is normalized to an exact doubling, (D_b / D_a) ** (1 / log2(n_b /
    n_a)) - 1, so a power law D ~ n**a gives the same gain at every step. D is
    proportional to mean lambda_s; the interval pairs the extremes of the two rungs'
    lambda_s confidence intervals.
    """
    gains = []
    for n_a, n_b in KNEE_STEPS:
        a, b = lambda_by_count[n_a], lambda_by_count[n_b]
        steps = np.log2(n_b / n_a)

        def gain(upper, lower):
            return (upper / lower) ** (1.0 / steps) - 1.0

        gains.append((gain(b.mean, a.mean), gain(b.ci_low, a.ci_high), gain(b.ci_high, a.ci_low)))
    return gains


def criterion_08(records) -> dict:
    """Obstructed Wi-Fi knee: D grows to 25 APs, then its gain per AP doubling drops."""
    # The network limit past one AP per room is a soft knee, not a 5% bound per
    # doubling. With K^wifi = 3 channels and contention only among co-channel
    # APs, one room can carry up to three concurrent transmitters, so APs added
    # past 25 bring more channels into use in each room. Carrier sensing runs on
    # faded AP-to-AP gains, so a deep fade can also hide two co-channel APs from
    # each other and let random sequential packing (Busson & Chelius, 2009) admit
    # both. The knee therefore shows as a per-doubling capacity gain that drops
    # significantly once rooms hold more than one AP and does not recover; a
    # power law D ~ n**a, i.e. a curve without a knee, keeps that gain constant.
    by_count = {r.ap_count: r.demand_gb_month for r in records}
    upto_25 = [by_count[c] for c in sorted(c for c in by_count if c <= 25)]
    growth = min(b - a for a, b in zip(upto_25, upto_25[1:]))
    before, past, further = _doubling_gains({r.ap_count: r.lambda_s for r in records})
    return {
        "grows to 25 APs: min(D_b - D_a) > 0": _lt(0.0, growth),
        "drop: 12->25 low > 25->49 high": _lt(past[2], before[1]),
        "no rise: 49->100 low <= 25->49 high": _le(further[1], past[2]),
    }


def test_criterion_08_obstructed_wifi_knee():
    t0 = time.perf_counter()
    scn = _scn("table1-obstructed", seed=SEED, n_snapshots=500)
    records = _ladder_records(scn, ["wifi-baseline"], max_aps=100)["wifi-baseline"]
    _assert_criterion(
        8, "obstructed-env Wi-Fi knee", criterion_08(records),
        f"{time.perf_counter() - t0:.0f} s",
    )


@pytest.mark.parametrize(
    "curve, has_knee",
    [
        (lambda n: n, False),
        (np.sqrt, False),
        (lambda n: min(n, 25), True),
        (lambda n: min(n, 25) * max(1.0, n / 49), False),
    ],
    ids=["linear", "sqrt", "flat-past-25", "flat-then-rising-past-49"],
)
def test_criterion_08_knee_shape_needs_a_knee(curve, has_knee):
    # Rungs of the ladder to 100 APs, with intervals as wide as criterion 08's
    # widest (0.56% of the mean); D is proportional to lambda_s.
    records = []
    for nx, ny in geometry.grid_ladder(100):
        mean = float(curve(nx * ny))
        lambda_s = engine.Estimate(
            mean=mean, count=500, ci_low=mean * (1 - 0.0056), ci_high=mean * (1 + 0.0056)
        )
        records.append(_record(nx * ny, lambda_s=lambda_s, demand=mean))
    assert passes(criterion_08(records)) == has_knee


def test_criterion_09_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    env = {
        "APDIM_DEMAND_GB_MONTH": "[1.0, 4.0]",
        "APDIM_ENGINE__LADDER_MAX_APS": "9",
        "APDIM_ENGINE__N_SNAPSHOTS": "60",
    }
    # Both round schedules of engine.dimension: the next rung per process
    # with early stop, the whole ladder in one round with --full-ladder.
    same = {}
    for ladder in ([], ["--full-ladder"]):
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads_{threads}{'_full' if ladder else ''}.csv"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "apdim.cli",
                    "run",
                    "--preset",
                    "table1-open",
                    "--systems",
                    "wifi-baseline,static,zf-ideal,zf-erroneous",
                    "--out",
                    str(out),
                    "--seed",
                    str(SEED),
                    "--threads",
                    threads,
                    "--quiet",
                    *ladder,
                ],
                capture_output=True,
                text=True,
                env={**dict(__import__("os").environ), **env},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        same["full ladder" if ladder else "early stop"] = outputs[0] == outputs[1]
    ok = all(same.values())
    _report(
        9,
        "thread-count determinism",
        ok,
        f"1 vs 4 threads byte-identical CSV: {same}, {time.perf_counter() - t0:.0f} s",
    )
    assert ok


def test_criterion_10_wilson_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    trials = 1000
    covered = 0
    for i in range(trials):
        q = (0.02, 0.05, 0.10, 0.30)[i % 4]
        flags = rng.random(500) < q
        est = engine.wilson_estimate(int(flags.sum()), 500)
        covered += est.ci_low <= q <= est.ci_high
    coverage = covered / trials
    _assert_criterion(
        10, "Wilson interval calibration", {"coverage >= 0.93": _le(0.93, coverage)},
        f"coverage {coverage * 100:.1f}% over {trials} Bernoulli streams, "
        f"{time.perf_counter() - t0:.1f} s",
    )
