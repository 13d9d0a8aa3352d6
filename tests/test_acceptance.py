"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live. The
heavy criteria (4-8) drive the full Monte-Carlo engine at the preset snapshot
counts and take several minutes together.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from apdim import channel as ch
from apdim import engine, geometry, scenario, wifi, zf
from apdim.oracles import random_papc_instance

SEED = 20240601


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


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
            bf = zf.build_beamformer(h)
            worst = max(worst, float(np.abs(h @ bf.w - np.eye(n)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, "ZF inversion residual", ok, f"max |HW - I| = {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_02_papc_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_rel = 0.0
    worst_load = 0.0
    for _ in range(200):
        inst = random_papc_instance(rng)
        worst_rel = max(
            worst_rel, abs(inst.solver_sum_rate - inst.grid_sum_rate) / inst.grid_sum_rate
        )
        worst_load = max(worst_load, inst.max_antenna_load / inst.pt_mw)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.01 and worst_load <= 1 + 1e-6 and elapsed < 60.0
    _report(
        2,
        "PAPC solver vs 400x400 grid",
        ok,
        f"worst rel diff {worst_rel:.2e}, worst load/Pt {worst_load:.9f}, {elapsed:.1f} s",
    )
    assert worst_rel <= 0.01
    assert worst_load <= 1 + 1e-6
    assert elapsed < 60.0


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
    ok = clique_err <= 0.03 and path_err <= 0.03 and elapsed < 5.0
    _report(
        3,
        "SSI sampling vs enumeration",
        ok,
        f"clique max err {clique_err:.4f}, path err {path_err:.4f}, {elapsed:.1f} s",
    )
    assert clique_err <= 0.03
    assert path_err <= 0.03
    assert elapsed < 5.0


def test_criterion_04_open_env_wifi_saturation(open_wifi_ladders):
    scn, ladders, ladder_s = open_wifi_ladders
    records = ladders["wifi-baseline"]
    ceiling = 16_200.0  # 3 active APs x 54 Mbps / 0.01 km2
    ceiling_demand = engine.throughput_to_demand(ceiling / scn.traffic.lambda_u_per_km2, scn.traffic)
    flat = [r for r in records if r.ap_count >= 3]
    worst_dev = max(abs(r.lambda_s.mean - ceiling) / ceiling for r in flat)
    worst_demand_dev = max(
        abs(r.demand_gb_month - ceiling_demand) / ceiling_demand for r in flat
    )
    ok = worst_dev <= 0.02 and worst_demand_dev <= 0.02 and abs(ceiling_demand - 10.7) < 0.05
    _report(
        4,
        "open-env Wi-Fi saturation",
        ok,
        f"worst deviation from 16200 Mbps/km2: {worst_dev * 100:.2f}%, "
        f"ceiling D = {ceiling_demand:.2f} GB/month/user (worst dev "
        f"{worst_demand_dev * 100:.2f}%), {ladder_s:.0f} s ladder shared with 05",
    )
    assert worst_dev <= 0.02, [(r.ap_count, r.lambda_s.mean) for r in flat]
    assert ceiling_demand == pytest.approx(10.7, abs=0.05)
    assert worst_demand_dev <= 0.02


def test_criterion_05_aggressive_wifi_outage_trend(open_wifi_ladders):
    # Collisions need a co-channel pair, so the trend window starts once the
    # ladder exceeds K^wifi APs; the collision peak must sit at moderate
    # density and the curve must not rise significantly beyond it (the W knob
    # shifts where contention sets in, so this is a shape test, not absolute).
    scn, ladders, ladder_s = open_wifi_ladders
    records = ladders["wifi-aggressive"]
    contended = [r for r in records if r.ap_count > scn.wifi.k_wifi]
    peak_idx = int(np.argmax([r.outage.mean for r in contended]))
    peak = contended[peak_idx]
    violations = [
        (a.ap_count, b.ap_count)
        for a, b in zip(contended[peak_idx:], contended[peak_idx + 1 :])
        if b.outage.ci_low > a.outage.ci_high  # significant increase
    ]
    final = records[-1]
    declined = peak.outage.ci_low > final.outage.ci_high  # densification really helps
    ok = declined and not violations and final.outage.ci_high < scn.radio.beta
    _report(
        5,
        "aggressive Wi-Fi outage trend",
        ok,
        f"peak nu {peak.outage.mean:.4f} at {peak.ap_count} APs, significant "
        f"decline to max density: {declined}, significant rises past peak: "
        f"{violations}, final nu {final.outage.mean:.4f} "
        f"[hi {final.outage.ci_high:.4f}] < beta, {ladder_s:.0f} s ladder shared with 04",
    )
    assert declined, (peak.outage, final.outage)
    assert not violations
    assert final.outage.ci_high < scn.radio.beta


def test_criterion_06_erroneous_zf_outage_growth(open_zf_ladders):
    scn, ladders, ladder_s = open_zf_ladders
    err, ideal = ladders["zf-erroneous"], ladders["zf-ideal"]
    beta = scn.radio.beta
    exceeds = [r for r in err if r.ap_count <= 25 and r.outage.ci_low > beta]
    drops = [
        (a.ap_count, b.ap_count)
        for a, b in zip(err, err[1:])
        if b.outage.ci_high < a.outage.ci_low  # significant decrease
    ]
    ideal_max = max(r.outage.mean for r in ideal)
    ok = bool(exceeds) and not drops and ideal_max <= 0.005
    _report(
        6,
        "erroneous-ZF outage growth",
        ok,
        f"first rung with nu significantly > beta: "
        f"{exceeds[0].ap_count if exceeds else 'none'} APs, "
        f"significant drops along ladder: {drops}, "
        f"max ideal-ZF nu {ideal_max:.5f}, nu at 64 APs {err[-1].outage.mean:.3f}, "
        f"{ladder_s:.0f} s for both ZF ladders",
    )
    assert exceeds, [(r.ap_count, r.outage.mean) for r in err]
    assert not drops
    assert ideal_max <= 0.005


def test_criterion_07_environment_dependent_coordination_gain():
    # Matched high demand point: 25 GB/month/user, ~2.3x the open-env Wi-Fi
    # ceiling and within the static system's open-env spectrum wall (the
    # paper's absolute 40 GB point is not reproducible without its W).
    t0 = time.perf_counter()
    demand = 25.0
    mins = {}
    for preset in ("table1-open", "table1-obstructed"):
        raw = scenario.preset_raw(preset)
        raw["engine"].update(n_snapshots=200, ladder_max_aps=64, seed=SEED)
        raw["demand_gb_month"] = [demand]
        scn = scenario.from_dict(raw)
        res = engine.dimension(scn, ["static", "zf-ideal"])
        for system in ("static", "zf-ideal"):
            rec = res.per_system[system].minimums[demand]
            mins[(preset, system)] = None if rec is None else rec.ap_count
    feasible = all(v is not None for v in mins.values())
    if feasible:
        ratio_open = mins[("table1-open", "static")] / mins[("table1-open", "zf-ideal")]
        ratio_obstructed = (
            mins[("table1-obstructed", "static")] / mins[("table1-obstructed", "zf-ideal")]
        )
        separation = ratio_open / ratio_obstructed
    else:
        ratio_open = ratio_obstructed = separation = float("nan")
    ok = feasible and separation >= 3.0
    _report(
        7,
        "environment-dependent coordination gain",
        ok,
        f"min APs {mins}, open ratio {ratio_open:.2f}, obstructed ratio "
        f"{ratio_obstructed:.2f}, separation {separation:.1f}x, "
        f"{time.perf_counter() - t0:.0f} s",
    )
    assert feasible, mins
    assert separation >= 3.0


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


def _knee_shape(gains):
    """(drops, rises): does the per-doubling gain fall significantly from 12->25 to
    25->49, and does it rise significantly from 25->49 to 49->100?"""
    before, past, further = gains
    return before[1] > past[2], further[1] > past[2]


def test_criterion_08_obstructed_wifi_knee():
    # The network limit past one AP per room is a soft knee, not a 5% bound per
    # doubling. With K^wifi = 3 channels and contention only among co-channel
    # APs, one room can carry up to three concurrent transmitters, so APs added
    # past 25 bring more channels into use in each room. Carrier sensing runs on
    # faded AP-to-AP gains, so a deep fade can also hide two co-channel APs from
    # each other and let random sequential packing (Busson & Chelius, 2009) admit
    # both. The knee therefore shows as a per-doubling capacity gain that drops
    # significantly once rooms hold more than one AP and does not recover; a
    # power law D ~ n**a, i.e. a curve without a knee, keeps that gain constant.
    t0 = time.perf_counter()
    scn = _scn("table1-obstructed", seed=SEED, n_snapshots=500)
    records = _ladder_records(scn, ["wifi-baseline"], max_aps=100)["wifi-baseline"]
    by_count = {r.ap_count: r.demand_gb_month for r in records}
    upto_25 = [by_count[c] for c in sorted(c for c in by_count if c <= 25)]
    grows_to_one_per_room = all(b > a for a, b in zip(upto_25, upto_25[1:]))
    gains = _doubling_gains({r.ap_count: r.lambda_s for r in records})
    drops, rises = _knee_shape(gains)
    ok = grows_to_one_per_room and drops and not rises
    shown = ", ".join(
        f"{a}->{b} {g * 100:+.1f}% [{lo * 100:+.1f}, {hi * 100:+.1f}]"
        for (a, b), (g, lo, hi) in zip(KNEE_STEPS, gains)
    )
    _report(
        8,
        "obstructed-env Wi-Fi knee",
        ok,
        f"D grows up to 25 APs: {grows_to_one_per_room} "
        f"(D(25)={by_count[25]:.1f}), gain per AP doubling: {shown}, "
        f"significant drop past 25: {drops}, significant rise past 49: {rises}, "
        f"{time.perf_counter() - t0:.0f} s",
    )
    assert grows_to_one_per_room, upto_25
    assert drops, f"no significant drop in gain per doubling past 25 APs: {shown}"
    assert not rises, f"gain per doubling rises significantly past 49 APs: {shown}"


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
    # widest (0.56% of the mean).
    lambda_by_count = {}
    for nx, ny in geometry.grid_ladder(100):
        mean = float(curve(nx * ny))
        lambda_by_count[nx * ny] = engine.Estimate(
            mean=mean, count=500, ci_low=mean * (1 - 0.0056), ci_high=mean * (1 + 0.0056)
        )
    drops, rises = _knee_shape(_doubling_gains(lambda_by_count))
    assert (drops and not rises) == has_knee


def test_criterion_09_determinism_across_threads(tmp_path):
    t0 = time.perf_counter()
    env = {
        "APDIM_DEMAND_GB_MONTH": "[1.0, 4.0]",
        "APDIM_ENGINE__LADDER_MAX_APS": "9",
        "APDIM_ENGINE__N_SNAPSHOTS": "60",
    }
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}.csv"
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
            ],
            capture_output=True,
            text=True,
            env={**dict(__import__("os").environ), **env},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report(
        9,
        "thread-count determinism",
        ok,
        f"1 vs 4 threads byte-identical CSV: {ok}, {time.perf_counter() - t0:.0f} s",
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
    ok = coverage >= 0.93
    _report(
        10,
        "Wilson interval calibration",
        ok,
        f"coverage {coverage * 100:.1f}% over {trials} Bernoulli streams, "
        f"{time.perf_counter() - t0:.1f} s",
    )
    assert coverage >= 0.93
