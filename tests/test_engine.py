"""Engine: drops, association, estimators, demand conversion, snapshot runs,
and the dimensioning walk."""

import dataclasses
import gc
import io
import os
import pickle
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from apdim import channel as ch
from apdim import engine, geometry, planning, results, scenario, wifi, zf

OPEN_AREA = geometry.ServiceArea(lx=100, ly=100)


# --- demand conversion -------------------------------------------------------

def test_c0_constant_exact():
    assert engine.C0_GB_MONTH_PER_MBPS == pytest.approx(13.18359375, abs=0)
    assert engine.C0_GB_MONTH_PER_MBPS == (1 / 1024) * (1 / 8) * 3600 * 30


def test_throughput_to_demand_zero():
    t = scenario.TrafficConfig(omega=0.2, lambda_u_per_km2=1e5)
    assert engine.throughput_to_demand(0.0, t) == 0.0
    with pytest.raises(ValueError):
        engine.throughput_to_demand(-1.0, t)


def test_throughput_to_demand_one_mbps():
    t = scenario.TrafficConfig(omega=0.2, lambda_u_per_km2=1e5)
    assert engine.throughput_to_demand(1.0, t) == pytest.approx(65.91796875)


def test_demand_round_trip():
    t = scenario.TrafficConfig(omega=0.35, lambda_u_per_km2=5e4)
    for mu in (0.01, 0.5, 3.2):
        assert engine.demand_to_throughput(engine.throughput_to_demand(mu, t), t) == pytest.approx(mu)


def test_wifi_saturation_demand_ceiling():
    # chained derived values on the open preset: 16200 Mbps/km2 -> mu = 0.162
    # -> D ~ 10.7, the ceiling that acceptance criterion 04 holds Wi-Fi to
    t = scenario.preset("table1-open").traffic
    ceiling_demand = engine.throughput_to_demand(16200.0 / t.lambda_u_per_km2, t)
    assert ceiling_demand == pytest.approx(10.68, abs=0.01)
    assert abs(ceiling_demand - 10.7) <= 0.05


# --- estimators ---------------------------------------------------------------

def test_normal_estimate_basics():
    est = engine.normal_estimate([2.0, 4.0, 6.0, 8.0])
    assert est.mean == pytest.approx(5.0)
    assert est.count == 4
    assert est.ci_low < 5.0 < est.ci_high
    halfwidth = (est.ci_high - est.ci_low) / 2
    assert halfwidth == pytest.approx(engine.Z95 * np.std([2, 4, 6, 8], ddof=1) / 2)


def test_normal_estimate_single_sample_degenerate():
    est = engine.normal_estimate([3.0])
    assert est.mean == 3.0 and (est.ci_high - est.ci_low) / 2 == 0.0


def test_wilson_estimate_bounds():
    est = engine.wilson_estimate(0, 100)
    assert est.mean == 0.0 and est.ci_low == pytest.approx(0.0, abs=1e-12) and est.ci_high > 0.0
    est = engine.wilson_estimate(100, 100)
    assert est.mean == 1.0 and est.ci_high == pytest.approx(1.0, abs=1e-12) and est.ci_low < 1.0
    with pytest.raises(ValueError):
        engine.wilson_estimate(5, 0)


def test_wilson_interval_contains_p_exactly():
    for trials in (100, 3977, 10**6):
        for successes in (0, 1, trials // 2, trials - 1, trials):
            est = engine.wilson_estimate(successes, trials)
            assert 0.0 <= est.ci_low <= est.mean <= est.ci_high <= 1.0
    assert engine.wilson_estimate(0, 3977).ci_low == 0.0
    assert engine.wilson_estimate(3977, 3977).ci_high == 1.0


def test_wilson_coverage_quick():
    # 200 synthetic Bernoulli streams; coverage should be near 95%
    rng = np.random.default_rng(60)
    q = 0.07
    covered = 0
    for _ in range(200):
        flags = rng.random(400) < q
        est = engine.wilson_estimate(int(flags.sum()), 400)
        covered += est.ci_low <= q <= est.ci_high
    assert covered / 200 >= 0.9


# --- snapshot building blocks ---------------------------------------------------

def test_drop_users_count_and_bounds():
    rng = np.random.default_rng(61)
    pts = engine.drop_users(OPEN_AREA, 1000, rng)
    assert pts.shape == (1000, 2)
    assert (pts >= 0).all() and (pts[:, 0] <= 100).all() and (pts[:, 1] <= 100).all()


def test_drop_users_uniform_marginals():
    rng = np.random.default_rng(62)
    pts = engine.drop_users(OPEN_AREA, 10_000, rng)
    assert stats.kstest(pts[:, 0] / 100.0, "uniform").pvalue > 0.01
    assert stats.kstest(pts[:, 1] / 100.0, "uniform").pvalue > 0.01
    assert np.allclose(pts.mean(axis=0), [50.0, 50.0], atol=1.5)


def test_table1_user_count():
    scn = scenario.preset("table1-open")
    assert scn.n_users == 1000  # 1e5 users/km2 * 0.01 km2


def test_associate_nearest_in_open_env():
    layout = geometry.place_aps(OPEN_AREA, 2, 2)
    prop = ch.PropagationParams(l0_db=37.0, alpha=2.0)
    users = np.array([[10.0, 10.0], [90.0, 10.0], [10.0, 90.0], [90.0, 90.0]])
    avg = ch.average_gains(OPEN_AREA, prop, layout.ap_xy, users)
    assert engine.associate(avg).tolist() == [0, 1, 2, 3]


def test_associate_tie_breaks_to_lowest_index():
    avg = np.array([[0.5, 0.7], [0.5, 0.9]])
    assert engine.associate(avg).tolist() == [0, 1]


def test_associate_wall_shadowed_ap_loses():
    # 12 m through 2 walls (alpha=4, Lw=10) loses to 20 m through none:
    # 40*log10(12) + 20 = 63.2 dB > 40*log10(20) = 52.0 dB
    prop = ch.PropagationParams(l0_db=37.0, alpha=4.0, lw_db=10.0)
    near_loss = ch.path_loss_db(prop, 12.0, 2)
    far_loss = ch.path_loss_db(prop, 20.0, 0)
    assert near_loss == pytest.approx(37 + 63.17, abs=0.05)
    assert far_loss == pytest.approx(37 + 52.04, abs=0.05)
    assert far_loss < near_loss
    gains = ch.linear_gain(np.array([[near_loss], [far_loss]]))
    assert engine.associate(gains).tolist() == [1]


# --- association by ranking costs ----------------------------------------------
# engine.associate_candidates over a layout's candidate_table must equal the
# exact argmax, associate(average_gains), for every user, ties included.

WALLED_AREA = geometry.ServiceArea(lx=100, ly=100, wx=4, wy=4)


def _probe_users(area, ap_xy, rng):
    """Users where a ranking from rounded costs would go wrong: on and next to
    AP-pair bisectors, on wall lines, on and within 1 m of APs, and at random."""
    extent = np.array([area.lx, area.ly])
    pts = [rng.random((200, 2)) * extent]
    n = ap_xy.shape[0]
    if n > 1:
        # a random point moved onto the bisector of its two nearest APs
        p = rng.random((300, 2)) * extent
        d = np.hypot(p[:, 0] - ap_xy[:, 0, None], p[:, 1] - ap_xy[:, 1, None])
        i, j = np.argsort(d, axis=0)[:2]
        ab = ap_xy[j] - ap_xy[i]
        mid = 0.5 * (ap_xy[i] + ap_xy[j])
        on = p - ab * (((p - mid) * ab).sum(axis=1) / (ab * ab).sum(axis=1))[:, None]
        # nudges of 1e-17 to 1e-13 of the AP spacing along the pair's axis
        # split the two distances by about the rounding of either formula
        scale = rng.choice([-1.0, 1.0], (300, 1)) * 10.0 ** rng.uniform(-17, -13, (300, 1))
        pts += [on, on + ab * scale]
    for walls, axis in zip(geometry.wall_positions(area), (0, 1)):
        if walls.size:
            on_wall = rng.random((100, 2)) * extent
            on_wall[:, axis] = rng.choice(walls, 100)
            pts.append(on_wall)
    angle = rng.uniform(0.0, 2.0 * np.pi, (n, 3))
    radius = rng.uniform(0.0, 1.0, (n, 3))
    near_ap = ap_xy[:, None, :] + radius[..., None] * np.stack(
        [np.cos(angle), np.sin(angle)], axis=-1
    )
    pts += [ap_xy, near_ap.reshape(-1, 2)]
    return np.clip(np.concatenate(pts), 0.0, extent)


def _probe_layouts(area):
    twin = np.array([[40.0, 50.0], [41.5, 50.0]])  # 1.5 m apart: users within 1 m of both
    return [
        geometry.place_aps(area, 1, 1).ap_xy,
        geometry.place_aps(area, 2, 1).ap_xy,
        twin,
        geometry.place_aps(area, 10, 10).ap_xy,
    ]


@pytest.mark.parametrize("alpha", [2.0, 3.5, 4.0])
@pytest.mark.parametrize("lw_db", [0.0, 10.0])
def test_associate_users_equals_exact_argmax(alpha, lw_db):
    prop = ch.PropagationParams(l0_db=37.0, alpha=alpha, lw_db=lw_db)
    rng = np.random.default_rng(int(10 * alpha + lw_db))
    for area in (OPEN_AREA, WALLED_AREA):
        for ap_xy in _probe_layouts(area):
            users = _probe_users(area, ap_xy, rng)
            exact = engine.associate(ch.average_gains(area, prop, ap_xy, users))
            table = engine.candidate_table(area, prop, ap_xy)
            ranked = engine.associate_candidates(table, users)
            assert np.array_equal(ranked, exact), (alpha, lw_db, area, ap_xy.shape[0])


@pytest.mark.parametrize(
    "prop",
    [
        ch.PropagationParams(l0_db=3300.0, alpha=2.0),  # every exact gain rounds to 0
        ch.PropagationParams(l0_db=37.0, alpha=0.0, lw_db=10.0),  # cost ties everywhere
        ch.PropagationParams(l0_db=37.0, alpha=150.0),  # most losses above 1000 dB
    ],
)
def test_associate_users_at_extreme_parameters(prop):
    rng = np.random.default_rng(5)
    ap_xy = geometry.place_aps(WALLED_AREA, 3, 3).ap_xy
    users = _probe_users(WALLED_AREA, ap_xy, rng)
    exact = engine.associate(ch.average_gains(WALLED_AREA, prop, ap_xy, users))
    table = engine.candidate_table(WALLED_AREA, prop, ap_xy)
    assert np.array_equal(engine.associate_candidates(table, users), exact)


# --- the candidate table -------------------------------------------------------
# engine.associate_candidates ranks each user over its raster cell's candidates
# only; an AP a cell leaves out must cost more than (1 + margin) times the best.

# APs of a 2 x 2 grid sit on wall lines: (2i + 1)(wx + 1) = 2j * nx at x = 25, 75
WALL_AP_AREA = geometry.ServiceArea(lx=100, ly=100, wx=3, wy=3)


def _raster_users(table, rng):
    """Users on every raster line (at random along it) and at every cell
    corner, and those users moved one float step down and one up."""
    lines_x, lines_y = table.lines
    along_x = rng.uniform(lines_x[0], lines_x[-1], (lines_y.size, 10))
    along_y = rng.uniform(lines_y[0], lines_y[-1], (lines_x.size, 10))
    corner_x, corner_y = np.meshgrid(lines_x, lines_y)
    on = np.concatenate([
        np.column_stack([np.repeat(lines_x, 10), along_y.ravel()]),
        np.column_stack([along_x.ravel(), np.repeat(lines_y, 10)]),
        np.column_stack([corner_x.ravel(), corner_y.ravel()]),
    ])
    return on, np.concatenate([np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])


@pytest.mark.parametrize("alpha", [2.0, 3.5, 4.0])
@pytest.mark.parametrize("lw_db", [0.0, 10.0])
def test_candidates_equal_exact_argmax_on_raster_lines_and_corners(alpha, lw_db):
    prop = ch.PropagationParams(l0_db=37.0, alpha=alpha, lw_db=lw_db)
    rng = np.random.default_rng(int(10 * alpha + lw_db) + 1)
    wall_aps = geometry.place_aps(WALL_AP_AREA, 2, 2).ap_xy
    assert np.isin(wall_aps, geometry.wall_positions(WALL_AP_AREA)[0]).all()
    cases = [(area, ap_xy) for area in (OPEN_AREA, WALLED_AREA) for ap_xy in _probe_layouts(area)]
    for area, ap_xy in cases + [(WALL_AP_AREA, wall_aps)]:
        table = engine.candidate_table(area, prop, ap_xy)
        on_lines, next_to_lines = _raster_users(table, rng)
        assert table.locate(on_lines)[1].all()  # left to the exact gains
        users = np.concatenate([on_lines, next_to_lines, _probe_users(area, ap_xy, rng)])
        users = users[(users >= 0.0).all(axis=1) & (users <= [area.lx, area.ly]).all(axis=1)]
        exact = engine.associate(ch.average_gains(area, prop, ap_xy, users))
        ranked = engine.associate_candidates(table, users)
        assert np.array_equal(ranked, exact), (alpha, lw_db, area, ap_xy.shape[0])


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
def test_candidates_leave_out_only_aps_beyond_the_margin(preset):
    scn = scenario.from_dict(scenario.preset_raw(preset))
    area, prop = scn.area, scn.propagation
    wall_factor = ch.wall_factors(area, prop)
    rng = np.random.default_rng(14)
    for nx, ny in geometry.grid_ladder(100):
        ap_xy = geometry.place_aps(area, nx, ny).ap_xy
        table = engine.candidate_table(area, prop, ap_xy)
        users = engine.drop_users(area, 1000, rng)
        cell, off = table.locate(users)
        assert not off.any()
        dx = ap_xy[:, 0, None] - users[:, 0]
        dy = ap_xy[:, 1, None] - users[:, 1]
        factor = wall_factor[geometry.crossing_counts(area, ap_xy, users)]
        cost = ch.association_cost(prop, dx * dx + dy * dy, factor)
        kept = np.isfinite(table.factor[:, cell])
        aps, cols = table.aps[:, cell][kept], np.nonzero(kept)[1]
        assert np.array_equal(table.factor[:, cell][kept], factor[aps, cols])
        assert np.array_equal(table.x[:, cell][kept], ap_xy[aps, 0])
        left_out = np.ones(cost.shape, dtype=bool)
        left_out[aps, cols] = False
        beyond = cost > cost.min(axis=0) * (1.0 + engine.CANDIDATE_MARGIN)
        assert np.all(beyond | ~left_out), (preset, nx, ny)


def _searchsorted_locate(table, users):
    """CandidateTable.locate as it was before its bucket index: two binary
    searches over the interior raster lines."""
    cell, off = 0, False
    for axis in (1, 0):
        lines, u = table.lines[axis], users[:, axis]
        i = np.searchsorted(lines[1:-1], u, side="right")
        off = off | (lines[i] >= u) | (u >= lines[-1])
        cell = cell * (lines.size - 1) + i
    return cell, off


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 3), (5, 5), (10, 10)])
def test_locate_matches_binary_search(preset, nx, ny):
    # every pair of per-axis coordinates from: 0, the far edge and every
    # other raster line, each one float step below and above, and points
    # outside the area; then random users inside it
    scn = scenario.preset(preset)
    table = engine.candidate_table(
        scn.area, scn.propagation, geometry.place_aps(scn.area, nx, ny).ap_xy
    )
    coords = []
    for lines in table.lines:
        extent = lines[-1]
        outside = [-np.inf, -extent, -1.0, -1e-300, extent + 1e-9, 2 * extent, 1e300, np.inf]
        coords.append(np.concatenate([
            lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf), outside
        ]))
    grid_x, grid_y = np.meshgrid(*coords)
    users = np.concatenate([
        np.column_stack([grid_x.ravel(), grid_y.ravel()]),
        engine.drop_users(scn.area, 5000, np.random.default_rng(nx)),
    ])
    cell, off = table.locate(users)
    want_cell, want_off = _searchsorted_locate(table, users)
    assert np.array_equal(cell, want_cell)
    assert np.array_equal(off, want_off)


@pytest.mark.parametrize("l0_db", [-5000.0, -2100.0, -37.0, 0.0, 37.0, 1000.0, 2300.0, 3300.0])
def test_ranked_costs_lie_inside_the_loss_band(l0_db):
    # a best cost that the table's bounds rank has a loss within
    # RANKED_LOSS_DB_MAX, so no user is ranked that the loss test re-ranks
    prop = ch.PropagationParams(l0_db=l0_db, alpha=2.0)
    table = engine.candidate_table(OPEN_AREA, prop, geometry.place_aps(OPEN_AREA, 2, 2).ap_xy)
    lo, hi = table.ranked_costs
    for cost in (lo, np.sqrt(lo) * np.sqrt(hi), hi) if lo <= hi else ():  # else none ranks
        assert abs(l0_db + 10.0 * np.log10(cost)) <= engine.RANKED_LOSS_DB_MAX, cost


# The largest number of candidates in any cell of either preset's ladder to
# 100 APs, and the largest area-weighted mean, as measured. A looser bound
# would let association drift back toward ranking every AP.
CANDIDATES_MAX = 4
CANDIDATES_MEAN_MAX = {"table1-open": 3.7, "table1-obstructed": 2.5}


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
def test_candidate_counts_per_rung(preset):
    scn = scenario.from_dict(scenario.preset_raw(preset))
    rows = []
    for nx, ny in geometry.grid_ladder(100):
        ap_xy = geometry.place_aps(scn.area, nx, ny).ap_xy
        table = engine.candidate_table(scn.area, scn.propagation, ap_xy)
        counts = np.isfinite(table.factor).sum(axis=0)
        lines_x, lines_y = table.lines
        cell_area = np.outer(np.diff(lines_y), np.diff(lines_x)).ravel()
        rows.append((nx * ny, counts @ cell_area / cell_area.sum(), counts.max()))
    report = "\n".join(f"{preset} {n:3d} APs: mean {m:.2f}, largest {k}" for n, m, k in rows)
    print(report)
    assert max(k for _, _, k in rows) <= CANDIDATES_MAX, report
    assert max(m for _, m, _ in rows) <= CANDIDATES_MEAN_MAX[preset], report


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 3), (10, 10)])
def test_snapshot_served_gains_are_the_exact_matrix_columns(preset, nx, ny):
    # five snapshots drawn as one block, each replayed on its own with the
    # full gain matrix, the exact argmax and the per-AP selection loop
    scn = scenario.from_dict(scenario.preset_raw(preset))
    layout = geometry.place_aps(scn.area, nx, ny)
    ctx = engine.make_context(scn, layout)
    rngs = [engine.substream(11, nx, s) for s in range(5)]
    block = engine.draw_block(ctx, rngs, engine.SYSTEMS)
    assert block.size == 5 and block.served_gains.shape == (layout.n_aps, block.serving.size)
    for s, rng in enumerate(rngs):
        replay = engine.substream(11, nx, s)
        users = engine.drop_users(scn.area, scn.n_users, replay)
        avg = ch.average_gains(scn.area, scn.propagation, layout.ap_xy, users)
        serving, cols = _select_served_per_ap(engine.associate(avg), layout.n_aps, replay)
        assert np.array_equal(block.serving[block.columns(s)], serving)
        assert np.array_equal(block.served_gains[:, block.columns(s)], avg[:, cols])
        assert np.array_equal(np.flatnonzero(block.has_user[s]), serving)
        assert block.s0[s] == replay.bit_generator.state


def test_select_served_one_user_per_nonempty_ap():
    rng = np.random.default_rng(63)
    assoc = np.array([0, 0, 2, 2, 2, 5])
    serving, cols, starts = engine.select_served(assoc[None], 6, [rng])
    assert serving.tolist() == [0, 2, 5] and starts.tolist() == [0, 3]
    assert assoc[cols].tolist() == [0, 2, 5]


def test_select_served_uniform_choice():
    assoc = np.array([0, 0, 0, 0])
    counts = np.zeros(4)
    for s in range(4000):
        rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(s,)))
        _, cols, _ = engine.select_served(assoc[None], 1, [rng])
        counts[cols[0]] += 1
    assert np.allclose(counts / 4000, 0.25, atol=0.03)


def _select_served_per_ap(assoc, n_aps, rng):
    # the per-AP loop select_served replaced: one rng.integers(m) per AP with users
    order = np.argsort(assoc, kind="stable")
    starts = np.searchsorted(assoc[order], np.arange(n_aps), side="left")
    ends = np.searchsorted(assoc[order], np.arange(n_aps), side="right")
    serving, chosen = [], []
    for ap in range(n_aps):
        if ends[ap] > starts[ap]:
            serving.append(ap)
            chosen.append(int(order[starts[ap] + rng.integers(ends[ap] - starts[ap])]))
    return np.array(serving, dtype=np.int64), np.array(chosen, dtype=np.int64)


@pytest.mark.parametrize(
    "n_aps, assoc",
    [
        (1, [0] * 7),  # a 1-AP layout
        (5, [3] * 40),  # every user on one AP, the others empty
        (6, [0, 0, 2, 2, 2, 5]),  # APs 1, 3 and 4 without a user
        (30, "random"),
        (120, "piled"),
    ],
)
def test_select_served_matches_per_ap_draws(n_aps, assoc):
    layout_rng = np.random.default_rng(n_aps)
    if assoc == "random":
        assoc = layout_rng.integers(n_aps, size=500)
    elif assoc == "piled":  # most users on a few APs, many APs empty
        assoc = layout_rng.choice([2, 17, 64, 119], size=1200, p=[0.7, 0.2, 0.09, 0.01])
    assoc = np.asarray(assoc, dtype=np.int64)
    # a block of three snapshots: the case, the case reordered, and a random one
    other = layout_rng.integers(n_aps, size=assoc.size)
    rows = np.stack([assoc, layout_rng.permutation(assoc), other])
    seeds = (2024, 2025, 2026)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    serving, cols, starts = engine.select_served(rows, n_aps, rngs)
    assert serving.dtype == cols.dtype == np.int64
    for b, (row, rng, seed) in enumerate(zip(rows, rngs, seeds)):
        loop_rng = np.random.default_rng(seed)
        want_serving, want_cols = _select_served_per_ap(row, n_aps, loop_rng)
        part = slice(starts[b], starts[b + 1])
        assert serving[part].tolist() == want_serving.tolist()
        assert (cols[part] - b * row.size).tolist() == want_cols.tolist()
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def _select_served_int64_sort(assoc, n_aps, rng):
    # select_served with its stable sort on the int64 keys
    order = np.argsort(assoc.astype(np.int64), kind="stable")
    counts = np.bincount(assoc, minlength=n_aps)
    serving = np.flatnonzero(counts)
    starts = np.cumsum(counts)[serving] - counts[serving]
    return serving, order[starts + rng.integers(counts[serving])]


@pytest.mark.parametrize("n_aps", [1, 2, 100, 256, 257, 65536, 65537])
def test_select_served_small_key_sort_matches_int64_sort(n_aps):
    assoc = np.random.default_rng(n_aps).integers(n_aps, size=1000)
    assoc[::97] = n_aps - 1  # the largest key
    small = assoc.astype(np.min_scalar_type(n_aps - 1))
    assert np.array_equal(
        np.argsort(small, kind="stable"), np.argsort(assoc, kind="stable")
    )
    # blocks of one and of two snapshots, whose keys span twice the APs
    for rows in (assoc[None], np.stack([assoc, assoc[::-1]])):
        rngs = [np.random.default_rng(31 + b) for b in range(len(rows))]
        serving, cols, starts = engine.select_served(rows, n_aps, rngs)
        for b, row in enumerate(rows):
            reference_rng = np.random.default_rng(31 + b)
            want_serving, want_cols = _select_served_int64_sort(row, n_aps, reference_rng)
            part = slice(starts[b], starts[b + 1])
            assert np.array_equal(serving[part], want_serving)
            assert np.array_equal(cols[part] - b * row.size, want_cols)
            assert rngs[b].bit_generator.state == reference_rng.bit_generator.state


# --- snapshot runs ---------------------------------------------------------------

def _wifi_setup(scn, layout):
    """wifi-baseline's context, carrier-sense threshold and channel assignment."""
    ctx = engine.make_context(scn, layout)
    k = scn.wifi.k_wifi
    plan_rng = engine.substream(scn.engine.seed, 0, 2, k)
    (assignment,) = planning.assign_channels(ctx.l_ap_ap, [k], [plan_rng])
    return ctx, scn.wifi.cs_thr_baseline_dbm, assignment


def _wifi_run(scn, layout, n_snapshots, master_seed, deployment_id):
    raw = scn.to_dict()
    raw["engine"].update(seed=master_seed, n_snapshots=n_snapshots)
    runs = engine.run_rung(scenario.from_dict(raw), layout, ["wifi-baseline"], deployment_id)
    (rec,) = runs["wifi-baseline"].values()
    return rec


def test_run_rung_deterministic():
    scn = scenario.preset("table1-open")
    layout = geometry.place_aps(scn.area, 2, 2)
    a = _wifi_run(scn, layout, 25, master_seed=9, deployment_id=3)
    b = _wifi_run(scn, layout, 25, master_seed=9, deployment_id=3)
    assert a.lambda_s == b.lambda_s and a.outage == b.outage
    _compare_runs(a, b, "rerun")


def test_snapshot_rate_sum_conservation():
    scn = scenario.preset("table1-open")
    ctx, cs_thr_dbm, assignment = _wifi_setup(scn, geometry.place_aps(scn.area, 2, 3))
    rngs = [engine.substream(5, 0, engine._SALT_SNAPSHOT, s) for s in range(10)]
    (members,) = planning.co_channel_members([assignment])
    block = engine.draw_block(ctx, rngs, ["wifi-baseline"])
    (tally,) = engine.wifi_block(ctx, block, [cs_thr_dbm], assignment, members)
    assert tally.rate_sums.shape == tally.hits.shape == (10, 1)
    for b in range(10):
        one = _snapshot_tally(tally, b)
        (run,) = engine._aggregate(ctx, "wifi-baseline", [assignment.k], [one]).values()
        assert run.lambda_s.mean * scn.area.area_km2 == pytest.approx(
            tally.rate_sums[b, 0], rel=1e-9
        )
        assert run.outage == engine.wilson_estimate(int(tally.hits[b, 0]), int(tally.served[b]))
        assert (run.n_snapshots, run.served_samples) == (1, tally.served[b])


def _snapshot_tally(tally, b):
    """Snapshot b's rows of ``tally``, as a tally of its own."""
    fields = dataclasses.fields(engine.Tally)
    return engine.Tally(**{f.name: getattr(tally, f.name)[b:b + 1] for f in fields})


def _compare_tallies(got, want, where):
    for field in dataclasses.fields(engine.Tally):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, field.name)


def _compare_runs(got, want, where):
    for field in dataclasses.fields(engine.DeploymentRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a == b, (where, field.name)


def test_stacked_static_score_aggregates_like_one_row_scores():
    # Static tallies all K plans of a snapshot from one (K, n_served) array;
    # its row sums must equal the per-plan sums a one-row tally gives, bit for
    # bit, or the CSV changes silently. Tallies of consecutive parts of the
    # rung must aggregate as the one tally of the whole.
    scn = scenario.preset("table1-open")
    ctx = engine.make_context(scn, geometry.place_aps(scn.area, 1, 1))
    gamma, area_km2 = scn.gamma_t_linear, scn.area.area_km2
    rng = np.random.default_rng(62)
    for k in range(1, 13):
        for trial in range(8):
            sizes = rng.integers(1, 201, size=rng.integers(1, 9))
            sizes[0] = (1, 200, sizes[0])[min(trial, 2)]  # pin both extreme sizes once
            starts = np.cumsum([0, *sizes])
            rates = rng.exponential(50.0, (k, starts[-1])) * rng.integers(0, 2, (k, starts[-1]))
            sinr = gamma * 10.0 ** rng.uniform(-1.0, 1.0, (k, starts[-1]))
            stacked = engine._aggregate(
                ctx, "static", range(1, k + 1), [engine._tally(ctx, rates, sinr, starts)])
            assert list(stacked) == list(range(1, k + 1))
            if sizes.size > 1:
                cut = sizes.size // 2
                parts = [engine._tally(ctx, rates, sinr, starts[:cut + 1]),
                         engine._tally(ctx, rates, sinr, starts[cut:])]
                for got, want in zip(
                        engine._aggregate(ctx, "static", range(1, k + 1), parts).values(),
                        stacked.values()):
                    _compare_runs(got, want, (k, trial, "parts"))
            for row, got in enumerate(stacked.values()):
                one = engine._tally(ctx, rates[row:row + 1], sinr[row:row + 1], starts)
                (want,) = engine._aggregate(ctx, "static", [row + 1], [one]).values()
                _compare_runs(got, want, (k, trial, row))
                # the per-snapshot sample as each snapshot's own row sums it
                reference = [float(rates[row, lo:hi].sum()) / area_km2
                             for lo, hi in zip(starts, starts[1:])]
                assert want.lambda_s == engine.normal_estimate(reference), (k, trial, row)
                hits = int((sinr[row] < gamma).sum())
                assert want.outage == engine.wilson_estimate(hits, int(starts[-1]))


def test_open_env_wifi_saturation_small():
    # analytic ceiling: 3 active APs x 54 Mbps / 0.01 km2 = 16200 Mbps/km2
    scn = scenario.preset("table1-open")
    run = _wifi_run(scn, geometry.place_aps(scn.area, 3, 3), 60, master_seed=11, deployment_id=0)
    assert run.lambda_s.mean == pytest.approx(16200.0, rel=0.02)


def test_zf_dominates_static_at_matched_seeds_open_env():
    raw = scenario.preset("table1-open").to_dict()
    raw["engine"]["n_snapshots"] = 60
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, 3, 3)
    rec_zf, rec_st = engine.evaluate_rung(scn, layout, ["zf-ideal", "static"], 0)
    assert rec_zf.lambda_s.mean >= rec_st.lambda_s.mean


def test_zf_erroneous_matches_ideal_at_delta_zero():
    scn = scenario.preset("table1-open")
    raw = scn.to_dict()
    raw["zf"]["delta"] = 0.0
    raw["engine"]["n_snapshots"] = 30
    scn0 = scenario.from_dict(raw)
    layout = geometry.place_aps(scn0.area, 2, 2)
    a, b = engine.evaluate_rung(scn0, layout, ["zf-ideal", "zf-erroneous"], 0)
    assert a.lambda_s.mean == b.lambda_s.mean
    assert a.outage.mean == b.outage.mean


# --- dimensioning -----------------------------------------------------------------

def _tiny_scenario(demands, ladder_cap=9, snapshots=90):
    # 90 snapshots so a zero-outage single-AP rung clears the Wilson upper
    # bound against beta = 0.05 (needs > ~73 clean served samples)
    raw = scenario.preset_raw("table1-open")
    raw["engine"].update(n_snapshots=snapshots, ladder_max_aps=ladder_cap, seed=77)
    raw["demand_gb_month"] = demands
    return scenario.from_dict(raw)


def _block_size(scn, nx, ny):
    return engine._block_size(engine.make_context(scn, geometry.place_aps(scn.area, nx, ny)))


def test_dimension_single_ap_suffices_for_tiny_demand():
    scn = _tiny_scenario([0.5])
    res = engine.dimension(scn, ["wifi-baseline", "zf-ideal"])
    for system in ("wifi-baseline", "zf-ideal"):
        rec = res.per_system[system].minimums[0.5]
        assert rec is not None and rec.ap_count == 1


def test_dimension_infeasible_beyond_ceiling():
    # baseline Wi-Fi in the open env saturates at D ~ 10.7; demand above the
    # ceiling stays infeasible at any density on the ladder
    scn = _tiny_scenario([2.0, 40.0], ladder_cap=16)
    res = engine.dimension(scn, ["wifi-baseline"])
    dims = res.per_system["wifi-baseline"]
    assert dims.minimums[2.0] is not None
    assert dims.minimums[40.0] is None
    assert len(dims.records) == len(geometry.grid_ladder(16))  # walked to the cap


def test_dimension_min_ap_monotone_in_demand():
    scn = _tiny_scenario([0.5, 2.0, 5.0, 10.0], ladder_cap=25)
    res = engine.dimension(scn, ["zf-ideal"])
    mins = res.per_system["zf-ideal"].minimums
    counts = [mins[d].ap_count for d in (0.5, 2.0, 5.0, 10.0) if mins[d] is not None]
    assert counts == sorted(counts)


def test_dimension_early_stop():
    scn = _tiny_scenario([0.5], ladder_cap=100)
    res = engine.dimension(scn, ["zf-ideal"])
    assert len(res.per_system["zf-ideal"].records) == 1  # stopped at 1x1


# --- rung worker processes -----------------------------------------------------------

def _fake_cpus(monkeypatch, n):
    """n usable CPUs whatever the host has; the caller's pins are recorded, not made."""
    pins = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))
    return pins


def _dimension_bytes(scn, systems, stop, threads):
    lines = []
    res = engine.dimension(scn, systems, stop_when_satisfied=stop, progress=lines.append,
                           threads=threads)
    records = {system: [repr(dataclasses.astuple(rec)) for rec in dims.records]
               for system, dims in res.per_system.items()}
    minimums = {system: {d: None if rec is None else rec.ap_count
                         for d, rec in dims.minimums.items()}
                for system, dims in res.per_system.items()}
    return res.workers, (records, minimums, lines)


@pytest.mark.parametrize(
    "stop, systems",
    [(True, engine.SYSTEMS), (False, engine.SYSTEMS), (True, ["zf-erroneous", "static"])],
)
def test_rung_workers_give_the_records_of_one_process(monkeypatch, stop, systems):
    # Static and ZF stop at 2x2 APs and both Wi-Fi systems walk to 16, so
    # with two processes the early-stop walk drops records of the 2x3 rung.
    scn = _tiny_scenario([1.0, 3.0], ladder_cap=16, snapshots=20)
    _, want = _dimension_bytes(scn, systems, stop, threads=1)
    for workers in (2, 3):
        pins = _fake_cpus(monkeypatch, workers)
        assert _dimension_bytes(scn, systems, stop, threads=8) == (workers, want), workers
        assert pins == [{0}, set(range(workers))]  # the caller's pin, then its mask again


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_a_failed_rung_reaches_the_caller_and_leaves_no_process(monkeypatch, failing):
    # A full ladder of four rungs on two processes: the worker takes rungs 3
    # and 1, the caller 2 and 0. With one usable CPU the caller takes all four.
    scn = _tiny_scenario([1.0], ladder_cap=6, snapshots=4)
    mask = os.sched_getaffinity(0)
    failing_rung = {"worker": 3, "parent": 2}[failing]
    evaluate_rung, fork, forks = engine.evaluate_rung, os.fork, []

    def evaluate_or_fail(scn, layout, systems, deployment_id):
        if deployment_id == failing_rung:
            raise RuntimeError(f"rung {deployment_id} failed")
        return evaluate_rung(scn, layout, systems, deployment_id)

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(engine, "evaluate_rung", evaluate_or_fail)
    monkeypatch.setattr(os, "fork", counted_fork)
    with pytest.raises(RuntimeError, match=f"^rung {failing_rung} failed$") as raised:
        engine.dimension(scn, ["static", "zf-ideal"], stop_when_satisfied=False, threads=2)
    assert len(forks) == min(2, len(mask)) - 1
    if forks and failing == "worker":  # the worker's traceback comes along
        assert "in evaluate_or_fail" in str(raised.value.__cause__)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


def test_a_failed_fork_leaves_no_pipe_pin_or_frozen_object(monkeypatch):
    scn = _tiny_scenario([1.0], ladder_cap=4, snapshots=4)
    pins = _fake_cpus(monkeypatch, 2)

    def fail():
        raise OSError("no fork")

    monkeypatch.setattr(os, "fork", fail)
    open_fds = os.listdir("/proc/self/fd")
    with pytest.raises(OSError, match="no fork"):
        engine.dimension(scn, ["static"], threads=2)
    assert os.listdir("/proc/self/fd") == open_fds
    assert pins == [{0, 1}]  # the mask restored, never pinned
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("platform", ["one usable CPU", "no fork", "no sched_setaffinity"])
def test_one_process_forks_nothing(monkeypatch, platform):
    scn = _tiny_scenario([1.0, 3.0], ladder_cap=9, snapshots=10)
    _, want = _dimension_bytes(scn, engine.SYSTEMS, False, threads=1)

    def refuse(*args):
        raise AssertionError("one process must not fork or pin")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    if platform == "one usable CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, platform[3:])
    assert _dimension_bytes(scn, engine.SYSTEMS, False, threads=4) == (1, want)


def test_a_worker_serves_its_tasks_until_their_end():
    # A worker's loop returns at the end of its task pipe, as when the caller
    # dies, and a failed rung (no rung 99 on this ladder) stops no later one.
    scn = _tiny_scenario([1.0], ladder_cap=4, snapshots=4)
    ladder = geometry.grid_ladder(4)
    tasks = io.BytesIO()
    for rung_id in (2, 99, 0):
        pickle.dump((rung_id, ["static", "zf-ideal"]), tasks)
    tasks.seek(0)
    results = io.BytesIO()
    engine._serve(scn, ladder, tasks, results)
    results.seek(0)
    for rung_id in (2, 99, 0):
        reply = pickle.load(results)
        if rung_id == 99:
            exc, trace = reply
            assert isinstance(exc, IndexError) and "_evaluate_ladder_rung" in trace
            continue
        nx, ny = ladder[rung_id]
        want = engine.evaluate_rung(scn, geometry.place_aps(scn.area, nx, ny),
                                    ["static", "zf-ideal"], rung_id)
        assert [dataclasses.astuple(rec) for rec in reply] == [
            dataclasses.astuple(rec) for rec in want]
    assert results.read() == b""


def test_normal_estimates_equal_each_row_alone():
    rows = np.random.default_rng(5).gamma(2.0, 1e3, size=(12, 37))
    assert engine.normal_estimates(rows) == [engine.normal_estimate(row) for row in rows]
    for n in (1, 2, 400):  # against one row's own mean and std
        row = rows.ravel()[:n]
        mean = float(row.mean())
        hw = float(engine.Z95 * row.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        want = engine.Estimate(mean, n, mean - hw, mean + hw)
        assert engine.normal_estimates(row[None]) == [want]


def test_evaluate_rung_rejects_unknown_system():
    scn = _tiny_scenario([1.0])
    with pytest.raises(ValueError):
        engine.evaluate_rung(scn, geometry.place_aps(scn.area, 1, 1), ["zf-ideal", "lte"], 0)


# --- selecting one record per system ------------------------------------------------

def _outage(mean, ci_high=None):
    ci_high = mean if ci_high is None else ci_high
    return engine.Estimate(mean=mean, count=1000, ci_low=mean, ci_high=ci_high)


def _record(system, k, outage, beta):
    # each K carries its own throughput, so a test can tell whose estimates a row shows
    lambda_s = engine.Estimate(mean=1000.0 * (k or 1), count=10, ci_low=900.0, ci_high=1100.0)
    return engine.DeploymentRecord(
        system=system, nx=2, ny=2, ap_count=4, ap_density_per_km2=400.0, k_channels=k,
        outage_feasible=engine.outage_feasible(outage, beta), lambda_s=lambda_s,
        outage=outage, mu_mbps_per_user=float(k or 1), demand_gb_month=10.0 * (k or 1),
        n_snapshots=10, served_samples=1000, zf_redraws=2, solver_fallbacks=1,
    )


def _select(monkeypatch, outages_by_system):
    """evaluate_rung on a run_rung stub that returns hand-made records per K."""
    scn = _tiny_scenario([1.0])
    beta = scn.radio.beta
    per_system = {
        system: {k: _record(system, k, est, beta) for k, est in outages.items()}
        for system, outages in outages_by_system.items()
    }

    def stub(scn_, layout, systems, deployment_id):
        return {system: per_system[system] for system in systems}

    monkeypatch.setattr(engine, "run_rung", stub)
    layout = geometry.place_aps(scn.area, 2, 2)
    records = engine.evaluate_rung(scn, layout, list(outages_by_system), 0)
    assert [rec.system for rec in records] == list(outages_by_system)
    return records, per_system


def test_evaluate_rung_picks_smallest_feasible_k(monkeypatch):
    outages = {1: 0.4, 2: 0.2, 3: 0.04, 4: 0.01}
    static = {k: _outage(v) for k, v in outages.items()}
    (rec,), per_system = _select(monkeypatch, {"static": static})
    assert rec is per_system["static"][3]


def test_evaluate_rung_none_feasible(monkeypatch):
    (rec,), per_system = _select(monkeypatch, {"static": {k: _outage(0.5) for k in (1, 2, 3)}})
    assert rec.k_channels is None and rec.outage_feasible is False
    # every K ties on the mean outage: the smallest K's estimates are reported
    want = dataclasses.replace(per_system["static"][1], k_channels=None)
    _compare_runs(rec, want, "tie")


def test_evaluate_rung_uses_the_outage_upper_bound(monkeypatch):
    # K = 1 and 2 have a mean outage below beta but an upper bound above it
    outages = {1: _outage(0.04, 0.07), 2: _outage(0.03, 0.05), 3: _outage(0.02, 0.04)}
    (rec,), per_system = _select(monkeypatch, {"static": outages})
    assert rec is per_system["static"][3]
    assert [engine.outage_feasible(est, 0.05) for est in outages.values()] == [False, False, True]


def test_evaluate_rung_reports_the_least_bad_static_k(monkeypatch):
    # no feasible K: the lowest mean outage wins, the smaller K on a tie
    outages = {1: 0.3, 2: 0.1, 3: 0.1, 4: 0.2}
    static = {k: _outage(v) for k, v in outages.items()}
    (rec,), per_system = _select(monkeypatch, {"static": static})
    assert rec.k_channels is None and rec.outage_feasible is False
    want = dataclasses.replace(per_system["static"][2], k_channels=None)
    _compare_runs(rec, want, "least bad")


def test_evaluate_rung_keeps_infeasible_wifi_and_zf_records(monkeypatch):
    k_wifi = 3
    records, per_system = _select(monkeypatch, {
        "wifi-aggressive": {k_wifi: _outage(0.5)},
        "zf-erroneous": {None: _outage(0.5)},
    })
    for rec, system, k in zip(records, ["wifi-aggressive", "zf-erroneous"], [k_wifi, None]):
        assert rec is per_system[system][k]
        assert rec.k_channels == k and rec.outage_feasible is False


def test_static_reuse_numbers_capped_at_n_aps():
    scn = _tiny_scenario([1.0], snapshots=2)
    for (nx, ny), ks in (((1, 3), [1, 2, 3]), ((4, 4), list(range(1, 13)))):
        layout = geometry.place_aps(scn.area, nx, ny)
        runs = engine.run_rung(scn, layout, ["static"], 0)
        assert list(runs["static"]) == ks  # K = 1..min(k_max = 12, n_aps)


def test_static_single_ap_k_star_is_one():
    # a lone AP has no co-channel interference at K = 1; with worst-corner SNR
    # far above the threshold the outage is ~0 and K* = 1
    scn = _tiny_scenario([1.0])
    (rec,) = engine.evaluate_rung(scn, geometry.place_aps(scn.area, 1, 1), ["static"], 0)
    assert rec.k_channels == 1 and rec.outage_feasible is True


# --- the shared snapshot pass ------------------------------------------------------
# Reference: every system, and every static K, run on its own from the public
# building blocks, each snapshot redoing the drop, gains and selection.

def _reference_snapshot(scn, layout, rng):
    users = engine.drop_users(scn.area, scn.n_users, rng)
    avg = ch.average_gains(scn.area, scn.propagation, layout.ap_xy, users)
    serving, cols = _select_served_per_ap(engine.associate(avg), layout.n_aps, rng)
    return avg, serving, cols


def _reference_symmetric_fading(rng, n):
    """Reciprocal AP-to-AP fading: one draw per pair above the diagonal, in
    row-major order, mirrored below it; zero diagonal."""
    z = np.zeros((n, n), dtype=complex)
    if n > 1:
        upper = np.triu_indices(n, k=1)
        z[upper] = ch.draw_fading(rng, upper[0].shape)
        z = z + z.T
    return z


def _subset_rates(rx, channels, k, eta, w, sigma2):
    """planning.reuse_rates on the transmitters of ``rx`` alone, on their own plan."""
    padded = np.vstack([rx, np.zeros(rx.shape[1])])
    members = planning.co_channel_members([planning.ChannelAssignment(k, channels)])
    rates, sinr = planning.reuse_rates(padded, members, [k], eta, w, sigma2)
    return rates[0], sinr[0]


def _reference_rates(scn, layout, system, assignment, avg, serving, cols, l_ap_ap, rng):
    w, sigma2, pt = scn.radio.bandwidth_mhz, scn.sigma2_mw, scn.radio.pt_mw
    if system == "static":
        z = ch.draw_fading(rng, (layout.n_aps, cols.shape[0]))
        gains = avg[:, cols] * np.abs(z) ** 2
        rx, channels = gains[serving] * pt, assignment.channel_of[serving]
        return _subset_rates(rx, channels, assignment.k, scn.static.eta_sta, w, sigma2)
    if system.startswith("wifi"):
        baseline = system == "wifi-baseline"
        cs = scn.wifi.cs_thr_baseline_dbm if baseline else scn.wifi.cs_thr_aggressive_dbm
        z = ch.draw_fading(rng, (layout.n_aps, cols.shape[0]))
        gains = avg[:, cols] * np.abs(z) ** 2
        g_ap_ap = l_ap_ap * np.abs(_reference_symmetric_fading(rng, layout.n_aps)) ** 2
        channels = assignment.channel_of[serving]
        adj = wifi.contention_graph(channels, g_ap_ap[np.ix_(serving, serving)], pt, cs)
        (act,) = wifi.sample_ssi([adj], channels, assignment.k, rng)
        rx = gains[np.ix_(serving[act], act)] * pt
        return _subset_rates(rx, channels[act], assignment.k, scn.wifi.eta_wifi, w, sigma2)
    sqrt_l = np.sqrt(avg[np.ix_(serving, cols)].T)
    while True:
        z = ch.draw_fading(rng, sqrt_l.shape)
        try:
            bf = zf.build_beamformer(sqrt_l * z)
            break
        except zf.SingularChannelError:
            pass
    alloc = zf.allocate_powers([bf], sigma2, pt, scn.zf.eta_zf)[0]
    if system == "zf-erroneous":
        z_now = ch.delayed_csit(z, scn.zf.delta, scn.zf.rho, rng)
        return zf.zf_rates_erroneous(sqrt_l * z_now, bf.w, alloc.p_mw, w, sigma2, scn.zf.eta_zf)
    return zf.zf_rates_ideal(alloc.p_mw, w, sigma2, scn.zf.eta_zf)


def _reference_run(scn, layout, system, k, deployment_id, n_snapshots):
    seed = scn.engine.seed
    l_ap_ap = ch.average_gains(scn.area, scn.propagation, layout.ap_xy, layout.ap_xy)
    assignment = None
    if k is not None:
        plan_rng = engine.substream(seed, deployment_id, 2, k)
        (assignment,) = planning.assign_channels(l_ap_ap, [k], [plan_rng])
    lambdas, hits, served = [], 0, 0
    for s in range(n_snapshots):
        rng = engine.substream(seed, deployment_id, 1, s)
        avg, serving, cols = _reference_snapshot(scn, layout, rng)
        rates, sinr = _reference_rates(
            scn, layout, system, assignment, avg, serving, cols, l_ap_ap, rng
        )
        lambdas.append(float(rates.sum()) / scn.area.area_km2)
        hits += int((sinr < scn.gamma_t_linear).sum())
        served += int(rates.shape[0])
    return np.array(lambdas), hits, served


@pytest.mark.parametrize("preset,nx,ny", [("table1-open", 3, 3), ("table1-obstructed", 2, 2)])
def test_shared_pass_matches_independent_runs(preset, nx, ny):
    raw = scenario.preset_raw(preset)
    n_snapshots, deployment_id = 20, 4
    raw["engine"].update(seed=20240601, n_snapshots=n_snapshots)
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, nx, ny)
    runs = engine.run_rung(scn, layout, engine.SYSTEMS, deployment_id)
    assert list(runs) == list(engine.SYSTEMS)
    assert list(runs["static"]) == list(range(1, min(scn.static.k_max, layout.n_aps) + 1))
    for system, per_k in runs.items():
        for k, run in per_k.items():
            lambdas, hits, served = _reference_run(
                scn, layout, system, k, deployment_id, n_snapshots
            )
            assert run.lambda_s == engine.normal_estimate(lambdas), (system, k)
            assert run.served_samples == served, (system, k)
            assert run.outage == engine.wilson_estimate(hits, served), (system, k)


def test_wifi_counts_outage_over_its_active_sets(monkeypatch):
    # Wi-Fi takes a snapshot's outage over the users of its SSI active set,
    # the APs that transmit in the epoch; static and ZF over every scheduled
    # user. Pinned at 10x10 APs on table1-obstructed, 20 snapshots, seed 1.
    active_sizes, scheduled = Counter(), []
    sample_ssi, select_served = wifi.sample_ssi, engine.select_served

    def spy_ssi(graphs, channels, k, rng):
        active = sample_ssi(graphs, channels, k, rng)
        active_sizes.update({t: aps.size for t, aps in enumerate(active)})
        return active

    def spy_select(assoc, n_aps, rngs):
        serving, cols, starts = select_served(assoc, n_aps, rngs)
        scheduled.append(serving.size)
        return serving, cols, starts

    monkeypatch.setattr(wifi, "sample_ssi", spy_ssi)
    monkeypatch.setattr(engine, "select_served", spy_select)
    raw = scenario.preset_raw("table1-obstructed")
    raw["engine"].update(seed=1, n_snapshots=20)
    scn = scenario.from_dict(raw)
    ladder = geometry.grid_ladder(100)
    runs = engine.run_rung(scn, geometry.place_aps(scn.area, 10, 10), engine.SYSTEMS,
                           ladder.index((10, 10)))
    served = {system: {rec.served_samples for rec in per_k.values()}
              for system, per_k in runs.items()}
    assert served == {"wifi-baseline": {751}, "wifi-aggressive": {1695}, "static": {2000},
                      "zf-ideal": {2000}, "zf-erroneous": {2000}}
    assert active_sizes == {0: 751, 1: 1695}  # baseline's threshold first
    assert sum(scheduled) == 2000


def test_zf_rung_with_mixed_sizes_matches_solo_solves(monkeypatch):
    # 3 users on 2x2 APs: a snapshot serves 1, 2 or 3 APs, so one block's
    # power solve takes PAPC instances of several sizes. Behind walls, some of
    # one size take the closed form at the rate cap and some the interior point.
    raw = scenario.preset_raw("table1-obstructed")
    area_km2 = scenario.preset("table1-obstructed").area.area_km2
    raw["traffic"].update(lambda_u_per_km2=3.0 / area_km2)
    systems, n_snapshots, deployment_id = ("zf-ideal", "zf-erroneous"), 30, 3
    raw["engine"]["n_snapshots"] = n_snapshots
    scn = scenario.from_dict(raw)
    assert scn.n_users == 3
    layout = geometry.place_aps(scn.area, 2, 2)
    ctx = engine.make_context(scn, layout)

    def rngs(indices):
        return [engine.substream(scn.engine.seed, deployment_id, engine._SALT_SNAPSHOT, s)
                for s in indices]

    allocate_powers, calls = zf.allocate_powers, []

    def spy(beamformers, *args):
        allocs = allocate_powers(beamformers, *args)
        calls.append([(bf.w.shape[0], a.newton_iterations > 0)
                      for bf, a in zip(beamformers, allocs)])
        return allocs

    monkeypatch.setattr(zf, "allocate_powers", spy)
    finished = engine.zf_block(ctx, engine.draw_block(ctx, rngs(range(n_snapshots)), systems),
                               erroneous=True)
    assert list(finished) == list(systems)
    (stacked,) = calls
    assert {n for n, _ in stacked} == {1, 2, 3}
    iterated = {n for n, solved in stacked if solved}
    closed_form = {n for n, solved in stacked if not solved}
    assert {2, 3} <= iterated & closed_form
    assert finished["zf-ideal"].served.tolist() == [n for n, _ in stacked]
    for i in range(n_snapshots):
        solo = engine.zf_block(ctx, engine.draw_block(ctx, rngs([i]), systems), erroneous=True)
        for system in systems:
            _compare_tallies(_snapshot_tally(finished[system], i), solo[system], (system, i))

    runs = engine.run_rung(scn, layout, systems, deployment_id)
    for system in systems:
        lambdas, hits, served = _reference_run(
            scn, layout, system, None, deployment_id, n_snapshots
        )
        run = runs[system][None]
        assert run.lambda_s == engine.normal_estimate(lambdas), system
        assert run.served_samples == served, system
        assert run.outage == engine.wilson_estimate(hits, served), system


def test_dimension_computes_average_gains_once_per_snapshot(monkeypatch):
    scn = _tiny_scenario([1.0], ladder_cap=6, snapshots=3)
    blocks = [-(-3 // _block_size(scn, nx, ny)) for nx, ny in geometry.grid_ladder(6)]
    calls = []
    average_gains = ch.average_gains

    def counted(*args, **kwargs):
        calls.append(1)
        return average_gains(*args, **kwargs)

    monkeypatch.setattr(ch, "average_gains", counted)
    res = engine.dimension(scn, engine.SYSTEMS, stop_when_satisfied=False)
    rungs = len(res.ladder)
    assert rungs == 4
    assert all(len(dims.records) == rungs for dims in res.per_system.values())
    assert len(calls) == rungs + sum(blocks)  # AP-to-AP once, AP-to-user once per block


def test_dimension_draws_shared_fading_once_per_snapshot(monkeypatch):
    # Static and both Wi-Fi systems read one AP-to-user draw per snapshot, and
    # the Wi-Fi systems one AP-to-AP draw and one SSI visiting order (one
    # permutation per channel) for both thresholds; both ZF systems share one
    # ZF pass.
    scn = _tiny_scenario([1.0], ladder_cap=6, snapshots=3)
    fading_by_caller, pair_counts = Counter(), []
    zf_calls = Counter()
    ssi_permutations = []
    draw_fading, sample_ssi = ch.draw_fading, wifi.sample_ssi
    build_beamformers, allocate_powers = zf.build_beamformers, zf.allocate_powers

    def counted_fading(rng, shape, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        fading_by_caller[caller] += 1
        if caller == "draw_ap_gains":
            pair_counts.append(shape)
        return draw_fading(rng, shape, *args, **kwargs)

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def permutation(self, n):
            ssi_permutations.append(n)
            return self.rng.permutation(n)

    def counted_ssi(graphs, channels, k, rng):
        return sample_ssi(graphs, channels, k, CountingGenerator(rng))

    def counted_build(h_hat):
        zf_calls["inverted"] += len(h_hat)
        return build_beamformers(h_hat)

    def counted_allocate(beamformers, *args):
        zf_calls["allocate_powers"] += 1
        zf_calls["instances"] += len(beamformers)
        return allocate_powers(beamformers, *args)

    monkeypatch.setattr(ch, "draw_fading", counted_fading)
    monkeypatch.setattr(wifi, "sample_ssi", counted_ssi)
    monkeypatch.setattr(zf, "build_beamformers", counted_build)
    monkeypatch.setattr(zf, "allocate_powers", counted_allocate)
    res = engine.dimension(scn, engine.SYSTEMS, stop_when_satisfied=False)
    rungs = len(res.ladder)
    assert rungs == 4
    snapshots = rungs * 3
    per_snapshot = [n_aps for nx, ny in res.ladder for n_aps in [nx * ny] * 3]
    assert sorted(pair_counts) == sorted(n * (n - 1) // 2 for n in per_snapshot if n > 1)
    assert len(ssi_permutations) == snapshots * scn.wifi.k_wifi
    redraws = [rec.zf_redraws for rec in res.per_system["zf-ideal"].records]
    assert redraws == [rec.zf_redraws for rec in res.per_system["zf-erroneous"].records]
    assert dict(fading_by_caller) == {
        "draw_received_powers": snapshots,
        "draw_ap_gains": sum(n > 1 for n in per_snapshot),
        "zf_block": snapshots + sum(redraws),
        "delayed_csit": snapshots,
    }
    blocks = [-(-3 // _block_size(scn, nx, ny)) for nx, ny in res.ladder]
    assert dict(zf_calls) == {
        "inverted": snapshots + sum(redraws),
        "allocate_powers": sum(blocks),
        "instances": snapshots,
    }
    # static alone draws no AP-to-AP fading, and ZF alone neither shared draw
    fading_by_caller.clear()
    engine.dimension(scn, ["static"], stop_when_satisfied=False)
    assert dict(fading_by_caller) == {"draw_received_powers": snapshots}
    fading_by_caller.clear()
    engine.dimension(scn, ["zf-ideal", "zf-erroneous"], stop_when_satisfied=False)
    assert set(fading_by_caller) == {"zf_block", "delayed_csit"}


def test_ap_gains_reciprocal():
    # one fade per AP pair, read by both directions: the gains are symmetric
    # bit for bit with a zero diagonal, and the 780 pair powers of a 40-AP
    # layout average E|z|^2 = 1
    scn = scenario.preset("table1-open")
    ctx = engine.make_context(scn, geometry.place_aps(scn.area, 5, 8))
    block = engine.draw_block(ctx, [np.random.default_rng(13)], ["wifi-baseline"])
    (g,) = block.g_ap_ap
    assert np.array_equal(g, g.T)
    assert not np.diag(g).any()
    off = (g / ctx.l_ap_ap)[np.triu_indices(40, k=1)]
    assert np.mean(off) == pytest.approx(1.0, abs=0.15)


def test_forced_redraws_keep_both_zf_systems_on_one_pass(monkeypatch):
    # Rejecting by content, not by call order, makes the engine's stacked
    # inversion and the reference's one-matrix inversion (build_beamformer,
    # which calls build_beamformers) redraw the same snapshots. The true
    # channel is drawn once, after the accepted CSIT, so both ZF rows report
    # the same redraws.
    build_beamformers, delayed_csit = zf.build_beamformers, ch.delayed_csit
    delayed_calls = []

    def rejecting(h_hat):
        return [None if h[0, 0].real > 0 else bf for h, bf in zip(h_hat, build_beamformers(h_hat))]

    def counted_delayed(*args, **kwargs):
        delayed_calls.append(1)
        return delayed_csit(*args, **kwargs)

    monkeypatch.setattr(zf, "build_beamformers", rejecting)
    monkeypatch.setattr(ch, "delayed_csit", counted_delayed)
    raw = scenario.preset_raw("table1-obstructed")
    n_snapshots, deployment_id = 16, 5
    raw["engine"].update(seed=20240601, n_snapshots=n_snapshots)
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, 2, 2)
    systems = ["zf-ideal", "zf-erroneous"]
    runs = engine.run_rung(scn, layout, systems, deployment_id)
    assert len(delayed_calls) == n_snapshots
    ideal, erroneous = runs["zf-ideal"][None], runs["zf-erroneous"][None]
    assert ideal.zf_redraws == erroneous.zf_redraws > 0
    for system in systems:
        lambdas, hits, served = _reference_run(
            scn, layout, system, None, deployment_id, n_snapshots
        )
        run = runs[system][None]
        assert run.lambda_s == engine.normal_estimate(lambdas), system
        assert run.served_samples == served, system
        assert run.outage == engine.wilson_estimate(hits, served), system


def test_a_singular_first_csit_is_redrawn_as_in_the_per_snapshot_loop(monkeypatch, tmp_path):
    # Snapshot 7's first CSIT on every rung is forced exactly singular. It
    # fails its block's stacked inversion, which then inverts one matrix at a
    # time, and that snapshot alone redraws, from its own generator. Redraws,
    # ZF draws and run CSV bytes equal those of blocks of one snapshot, where
    # each snapshot is inverted on its own, as in the per-snapshot loop.
    raw = scenario.preset_raw("table1-obstructed")
    n_snapshots, target = 12, 7
    raw["engine"].update(seed=20240601, n_snapshots=n_snapshots, ladder_max_aps=4)
    scn = scenario.from_dict(raw)
    ladder = geometry.grid_ladder(4)
    systems = ["zf-ideal", "zf-erroneous"]
    at_s0 = []  # the target's S0 state on each rung
    for rung, (nx, ny) in enumerate(ladder):
        ctx = engine.make_context(scn, geometry.place_aps(scn.area, nx, ny))
        assert engine._block_size(ctx) == n_snapshots  # one block: one stacked inversion per size
        rng = engine.substream(scn.engine.seed, rung, engine._SALT_SNAPSHOT, target)
        at_s0.append(engine.draw_block(ctx, [rng], systems).s0[0])
    draw_fading, draws = ch.draw_fading, Counter()

    def singular_at_s0(rng, shape, *args, **kwargs):
        forced = rng.bit_generator.state in at_s0
        draws[sys._getframe(1).f_code.co_name, forced] += 1
        z = draw_fading(rng, shape, *args, **kwargs)
        return np.zeros_like(z) if forced else z

    monkeypatch.setattr(ch, "draw_fading", singular_at_s0)

    def run(name):
        draws.clear()
        res = engine.dimension(scn, systems, stop_when_satisfied=False)
        path = tmp_path / f"{name}.csv"
        results.write_result_csv(str(path), "singular", res)
        return res, dict(draws), path.read_bytes()

    stacked, stacked_draws, stacked_csv = run("stacked")
    monkeypatch.setattr(engine, "_block_size", lambda ctx: 1)
    _, alone_draws, alone_csv = run("alone")
    rungs = len(ladder)
    assert stacked_csv == alone_csv
    assert stacked_draws == alone_draws == {
        ("zf_block", True): rungs,
        ("zf_block", False): rungs * n_snapshots,  # the others' CSIT and the one redraw
        ("delayed_csit", False): rungs * n_snapshots,
    }
    for system in systems:
        assert [rec.zf_redraws for rec in stacked.per_system[system].records] == [1] * rungs


def test_draw_block_makes_every_shared_draw_at_once_in_stream_order():
    # Each generator ends where a fresh replay of the prefix, the AP-to-user
    # fading and the AP-to-AP fading ends, and the arrays hold those draws;
    # every ZF pass starts over at S0; static alone draws the same received
    # powers and no AP-to-AP fading.
    scn = scenario.preset("table1-obstructed")
    layout = geometry.place_aps(scn.area, 3, 3)
    ctx = engine.make_context(scn, layout)
    n, sigma_z2, pt = layout.n_aps, scn.radio.sigma_z2, scn.radio.pt_mw

    def block(systems):
        rngs = [engine.substream(5, 0, engine._SALT_SNAPSHOT, s) for s in range(3)]
        return engine.draw_block(ctx, rngs, systems)

    draws = block(engine.SYSTEMS)
    assert draws.rx.shape == (3, n + 1, n) and draws.g_ap_ap.shape == (3, n, n)
    for shared in (draws.rx, draws.g_ap_ap):
        with pytest.raises(ValueError):
            shared[0, 0] = 1.0
        with pytest.raises(ValueError):
            shared *= 2.0
    for s, rng in enumerate(draws.rngs):
        replay = engine.substream(5, 0, engine._SALT_SNAPSHOT, s)
        avg, serving, cols = _reference_snapshot(scn, layout, replay)
        assert draws.s0[s] == replay.bit_generator.state
        gains = avg[:, cols] * np.abs(ch.draw_fading(replay, (n, cols.size), sigma_z2)) ** 2
        rx = np.zeros((n + 1, n))
        rx[np.ix_(serving, serving)] = gains[serving] * pt
        assert np.array_equal(draws.rx[s], rx)
        g_ap_ap = ctx.l_ap_ap * np.abs(_reference_symmetric_fading(replay, n)) ** 2
        assert np.array_equal(draws.g_ap_ap[s], g_ap_ap)
        assert rng.bit_generator.state == replay.bit_generator.state
    first = engine.zf_block(ctx, draws, erroneous=True)
    ends = [rng.bit_generator.state for rng in draws.rngs]
    again = engine.zf_block(ctx, draws, erroneous=True)
    assert [rng.bit_generator.state for rng in draws.rngs] == ends
    for system in first:
        _compare_tallies(again[system], first[system], system)
    static = block(["static"])
    assert np.array_equal(static.rx, draws.rx) and static.g_ap_ap is None


@pytest.fixture(scope="module")
def full_pass():
    # Open area: both Wi-Fi systems contend, so each one's SSI draw matters.
    raw = scenario.preset_raw("table1-open")
    raw["engine"].update(seed=20240601, n_snapshots=12)
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, 3, 3)
    return scn, layout, engine.run_rung(scn, layout, engine.SYSTEMS, 2)


@pytest.mark.parametrize(
    "systems",
    [
        ["wifi-aggressive"],
        ["static"],
        ["wifi-aggressive", "static", "wifi-baseline"],
        ["zf-ideal"],
        ["zf-erroneous", "wifi-baseline"],
        list(reversed(engine.SYSTEMS)),
    ],
)
def test_subsets_and_orders_of_systems_match_the_full_pass(full_pass, systems):
    # A system's results must not depend on which systems share its snapshots,
    # nor on their order: no system may read another's draws or SSI generator.
    scn, layout, full = full_pass
    runs = engine.run_rung(scn, layout, systems, 2)
    assert list(runs) == systems
    for system in systems:
        assert list(runs[system]) == list(full[system]), system
        for k, run in runs[system].items():
            _compare_runs(run, full[system][k], (system, k))


# --- blocks of snapshots ------------------------------------------------------------

def _force_block_size(monkeypatch, ctx, size):
    """Set the byte budget to what a block of ``size`` snapshots of ``ctx`` takes."""
    stack = 8 * ctx.n_aps * (ctx.n_aps + 1)
    per_user = 8 * (3 * ctx.candidates.aps.shape[0] + 5)
    budget = 6 * stack + size * (7 * stack + ctx.scn.n_users * per_user)
    monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
    assert engine._block_size(ctx) == size


@pytest.mark.parametrize(
    "preset, users, nx, ny, systems",
    [
        ("table1-open", None, 3, 3, engine.SYSTEMS),
        ("table1-obstructed", None, 3, 4, engine.SYSTEMS),
        ("table1-open", 3, 4, 4, engine.SYSTEMS),  # most APs serve no one
        ("table1-open", None, 3, 3, ["wifi-aggressive"]),
        ("table1-obstructed", 5, 2, 3, ["static"]),
    ],
)
def test_results_do_not_depend_on_the_block_size(monkeypatch, preset, users, nx, ny, systems):
    # Blocks of one snapshot, of a part of the rung and of the whole rung give
    # the same bytes, and so do the ZF passes and power solves that the blocks
    # cut; a system run alone matches the full pass at every size.
    raw = scenario.preset_raw(preset)
    n_snapshots = 12
    raw["engine"].update(seed=20240601, n_snapshots=n_snapshots)
    if users is not None:
        area_km2 = scenario.preset(preset).area.area_km2
        raw["traffic"].update(lambda_u_per_km2=users / area_km2)
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, nx, ny)
    if users is not None:
        assert scn.n_users == users < layout.n_aps
    zf_block, calls = engine.zf_block, []

    def counted_zf(ctx, block, erroneous):
        calls.append(block.size)
        return zf_block(ctx, block, erroneous)

    monkeypatch.setattr(engine, "zf_block", counted_zf)

    def run(systems, size):
        calls.clear()
        runs = engine.run_rung(scn, layout, systems, 6)
        zf_runs = any(system.startswith("zf-") for system in systems)
        # one ZF pass per block: the blocks' sizes in order, the last one short
        blocks = [min(size, n_snapshots - first) for first in range(0, n_snapshots, size)]
        assert calls == (blocks if zf_runs else []), calls
        return runs

    results = {}
    for size in (1, 5, n_snapshots):
        _force_block_size(monkeypatch, engine.make_context(scn, layout), size)
        results[size] = run(systems, size)
        if list(systems) != list(engine.SYSTEMS):
            full = run(engine.SYSTEMS, size)
            results[size, "full"] = {system: full[system] for system in systems}
    reference = results[1]
    assert list(reference) == list(systems)
    for key, runs in results.items():
        assert list(runs) == list(systems), key
        for system in systems:
            assert list(runs[system]) == list(reference[system]), (key, system)
            for k, run in runs[system].items():
                _compare_runs(run, reference[system][k], (key, system, k))


# Block sizes at 1,000 users: walls leave the obstructed 4x5 rung 2
# candidates per cell, where the others have 4.
_BLOCK_SIZES = {(3, 3): 12, (4, 5): 10, (7, 8): 4, (8, 9): 3, (9, 9): 2, (10, 10): 1}


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
@pytest.mark.parametrize(
    "nx,ny,n_snapshots",
    # small rungs, where the association's per-user temporaries dominate, then large ones
    [(3, 3, 24), (4, 5, 30), (7, 8, 8), (8, 9, 4), (9, 9, 3), (10, 10, 2)],
)
def test_a_rung_stays_within_the_block_byte_budget(preset, nx, ny, n_snapshots):
    # _block_size counts the rung's own arrays, its block's and the block's
    # association in one byte budget; a rung with Wi-Fi and static, run as
    # two blocks or more, must peak within it.
    raw = scenario.preset_raw(preset)
    raw["engine"].update(seed=3, n_snapshots=n_snapshots)
    scn = scenario.from_dict(raw)
    layout = geometry.place_aps(scn.area, nx, ny)
    assert scn.n_users == 1000
    size = engine._block_size(engine.make_context(scn, layout))
    assert size == (15 if (preset, nx, ny) == ("table1-obstructed", 4, 5) else _BLOCK_SIZES[nx, ny])
    assert size < n_snapshots
    systems = ["wifi-baseline", "wifi-aggressive", "static"]
    engine.run_rung(scn, layout, systems, 0)  # imports and first-call set-up
    tracemalloc.start()
    try:
        engine.run_rung(scn, layout, systems, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= engine._BLOCK_BYTES, peak


@pytest.mark.parametrize("systems", [["static"], ["zf-ideal", "zf-erroneous"]])
def test_a_paper_default_rung_stays_within_its_byte_budget(systems):
    # At 500 snapshots a rung of 3x3 or 10x10 APs keeps only its tallies:
    # static peaks within the block budget, and ZF within twice it, since its
    # precoders and true channels live only while their block is scored and
    # the inversion's and the power solve's temporaries come on top.
    raw = scenario.preset_raw("table1-open")
    raw["engine"].update(seed=1, n_snapshots=500)
    scn = scenario.from_dict(raw)
    warm = scenario.from_dict({**raw, "engine": {**raw["engine"], "n_snapshots": 2}})
    budget = engine._BLOCK_BYTES if systems == ["static"] else 2 * engine._BLOCK_BYTES
    for nx, ny in ((3, 3), (10, 10)):
        layout = geometry.place_aps(scn.area, nx, ny)
        engine.run_rung(warm, layout, systems, 0)  # imports and first-call set-up
        tracemalloc.start()
        try:
            runs = engine.run_rung(scn, layout, systems, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(rec.n_snapshots == 500 for per_k in runs.values() for rec in per_k.values())
        assert peak <= budget, (nx, ny, peak)
