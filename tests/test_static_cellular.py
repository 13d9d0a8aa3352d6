"""Static frequency-planned cellular: the reuse-K rate equation (``planning.reuse_rates``)."""

from types import SimpleNamespace

import numpy as np
import pytest

from apdim import channel as ch
from apdim import engine, geometry, planning, scenario, wifi
from apdim.planning import ChannelAssignment

W_MHZ = 60.0
SIGMA2 = 2.484e-10
PT = 100.0
ETA = 3.75
GAMMA_T = 10 ** 0.3  # 3 dB


def _fixed_block(servings, gains):
    """A context and an engine.Block with given faded gains, one column per served
    user snapshot by snapshot."""
    radio = SimpleNamespace(bandwidth_mhz=W_MHZ)
    scn = SimpleNamespace(
        radio=radio, static=SimpleNamespace(eta_sta=ETA), sigma2_mw=SIGMA2, gamma_t_linear=GAMMA_T)
    n_aps = gains.shape[0]
    serving = np.concatenate([np.asarray(aps, dtype=np.int64) for aps in servings])
    starts = np.cumsum([0] + [len(aps) for aps in servings])
    snapshot = np.repeat(np.arange(len(servings)), np.diff(starts))
    has_user = np.zeros((len(servings), n_aps), dtype=bool)
    has_user[snapshot, serving] = True
    rx = np.zeros((len(servings), n_aps + 1, n_aps))
    rx[snapshot, :n_aps, serving] = (gains * PT).T
    rx[:, :n_aps][~has_user] = 0.0
    rngs = [None] * len(servings)  # the block draws nothing
    block = engine.Block(serving, starts, snapshot, has_user, None, rx, None, rngs, None)
    return SimpleNamespace(scn=scn, n_aps=n_aps), block


def assert_tally(tally, rates, sinrs):
    """``tally`` holds, per snapshot and plan, the sum of the row ``rates[b][p]``
    in its order, bit for bit, the count of ``sinrs[b][p]`` below GAMMA_T, and
    each snapshot's user count."""
    assert np.array_equal(tally.rate_sums, [r.sum(axis=1) for r in rates])
    assert np.array_equal(tally.hits, [(s < GAMMA_T).sum(axis=1) for s in sinrs])
    assert tally.served.tolist() == [r.shape[1] for r in rates] == [s.shape[1] for s in sinrs]
    assert not tally.redraws.any() and not tally.solver_fallbacks.any()


def static_rates(assignments, serving_aps, gains):
    """Every serving AP transmits: (rates, sinr) of the served users, one row per plan.

    ``gains`` holds AP-to-user power gains with one column per served user,
    aligned with ``serving_aps``. The per-user values come from the call
    engine.static_block makes, planning.reuse_rates on the received powers;
    engine.static_block's tally must hold their sums and counts.
    """
    members = planning.co_channel_members(assignments)
    ctx, block = _fixed_block([serving_aps], gains)
    ks = [a.k for a in assignments]
    rates, sinr = planning.reuse_rates(block.rx[0], members, ks, ETA, W_MHZ, SIGMA2)
    rates, sinr = rates[:, serving_aps], sinr[:, serving_aps]
    assert_tally(engine.static_block(ctx, block, assignments, members), [rates], [sinr])
    return rates, sinr


def test_single_ap_link_budget_caps():
    # user at 10 m, open env: SINR = (20 dBm - 57 dB) - (-96 dBm) = 59 dB,
    # so the rate clamps at R_max = 60 MHz * 3.75 = 225 Mbps
    g = 10 ** (-57.0 / 10.0)
    assignment = ChannelAssignment(k=1, channel_of=np.array([0]))
    (rates,), (sinr,) = static_rates([assignment], np.array([0]), np.array([[g]]))
    assert 10 * np.log10(sinr[0]) == pytest.approx(59.0, abs=0.1)
    assert rates[0] == pytest.approx(225.0)


def test_vanishing_gain_vanishing_rate():
    assignment = ChannelAssignment(k=1, channel_of=np.array([0]))
    (rates,), (sinr,) = static_rates([assignment], np.array([0]), np.array([[1e-30]]))
    assert sinr[0] < 1e-15
    assert rates[0] < 1e-9


def test_symmetric_midpoint_user_in_outage():
    # two co-channel APs, K = 1, user equidistant: interference >= signal so
    # SINR <= 1 (0 dB), below the 3 dB threshold
    g = 1e-7
    gains = np.array([[g, g], [g, g]])
    assignment = ChannelAssignment(k=1, channel_of=np.array([0, 0]))
    (rates,), (sinr,) = static_rates([assignment], np.array([0, 1]), gains)
    assert (sinr <= 1.0).all()
    assert (sinr < 10 ** 0.3).all()


def test_rate_cap_invariant():
    rng = np.random.default_rng(40)
    n = 6
    gains = 10 ** rng.uniform(-12, -4, size=(n, n))
    assignment = ChannelAssignment(k=3, channel_of=rng.integers(0, 3, n))
    (rates,), _ = static_rates([assignment], np.arange(n), gains)
    assert (rates <= (W_MHZ / 3) * 3.75 + 1e-9).all()


def test_interference_includes_all_cochannel_aps():
    # three co-channel transmitters: the middle user's interference is the sum
    # of both others (full-buffer downlink, no MAC silencing)
    gains = np.array(
        [
            [1e-6, 1e-8, 1e-9],
            [1e-8, 1e-6, 1e-8],
            [1e-9, 1e-8, 1e-6],
        ]
    )
    assignment = ChannelAssignment(k=1, channel_of=np.zeros(3, dtype=np.int64))
    _, (sinr,) = static_rates([assignment], np.arange(3), gains)
    expected_mid = gains[1, 1] * PT / ((gains[0, 1] + gains[2, 1]) * PT + SIGMA2)
    assert sinr[1] == pytest.approx(expected_mid, rel=1e-12)


def test_nested_assignment_k_monotonicity():
    # refining K=2 into K=4 (each channel split in two) shrinks every co-channel
    # set and the per-band noise, so no user's SINR decreases
    rng = np.random.default_rng(41)
    n = 8
    gains = 10 ** rng.uniform(-10, -5, size=(n, n))
    coarse = ChannelAssignment(k=2, channel_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    fine = ChannelAssignment(k=4, channel_of=np.array([0, 0, 2, 2, 1, 1, 3, 3]))
    _, (sinr2,) = static_rates([coarse], np.arange(n), gains)
    _, (sinr4,) = static_rates([fine], np.arange(n), gains)
    assert (sinr4 >= sinr2 - 1e-15).all()


def test_static_sinr_dominated_by_wifi_active_subset():
    # on identical gains, Wi-Fi's interferer set (an SSI active subset) is a
    # subset of the static full-load co-channel set, so the static SINR on the
    # same serving link cannot exceed the Wi-Fi SINR at equal channel width
    rng = np.random.default_rng(42)
    n = 6
    gains = 10 ** rng.uniform(-9, -5, size=(n, n))
    channels = np.zeros(n, dtype=np.int64)
    assignment = ChannelAssignment(k=1, channel_of=channels)
    _, (static_sinr,) = static_rates([assignment], np.arange(n), gains)
    (act,) = wifi.sample_ssi([wifi.contention_graph(channels, gains, PT, -85.0)], channels, 1, rng)
    members = planning.co_channel_members([ChannelAssignment(k=1, channel_of=channels[act])])
    _, (wifi_sinr,) = planning.reuse_rates(
        _pad(gains[np.ix_(act, act)] * PT), members, [1], 3.75, W_MHZ, SIGMA2
    )
    assert act.size >= 1
    for p, s in zip(act, wifi_sinr):
        assert static_sinr[p] <= s + 1e-12


def _per_channel_rates(assignment, serving_aps, gains, w_total_mhz, sigma2_mw):
    """Reference: one sum per channel over its co-channel transmitters."""
    k = assignment.k
    w = w_total_mhz / k
    sinr = np.empty(serving_aps.shape[0])
    channels = assignment.channel_of[serving_aps]
    for c in np.unique(channels):
        sel = np.flatnonzero(channels == c)
        rx = gains[np.ix_(serving_aps[sel], sel)] * PT
        signal = np.diag(rx)
        sinr[sel] = signal / (rx.sum(axis=0) - signal + sigma2_mw / k)
    return np.minimum(w * np.log2(1.0 + sinr), w * ETA), sinr


def test_all_plans_equal_per_channel_reference():
    # K = 1..12 over 7 and 30 served users: K > n_served, single-member and
    # empty channels, and APs without a served user; then three snapshots
    # with 1 to n_aps served users scored as one block
    rng = np.random.default_rng(43)
    for n_aps, n_served in ((9, 7), (40, 30)):
        l_ap_ap = 10 ** rng.uniform(-12, -5, (n_aps, n_aps))
        plans = [planning.assign_channels(l_ap_ap, [k], [rng])[0] for k in range(1, 13)]
        plans.append(ChannelAssignment(k=4, channel_of=rng.integers(0, 4, n_aps)))
        sizes = [[n_served], [1, n_aps, n_served]]
        for block_sizes in sizes:
            servings = [np.sort(rng.choice(n_aps, m, replace=False)) for m in block_sizes]
            gains = [
                10 ** rng.uniform(-12, -5, (n_aps, m)) * rng.exponential(size=(n_aps, m))
                for m in block_sizes
            ]
            ctx, block = _fixed_block(servings, np.concatenate(gains, axis=1))
            tally = engine.static_block(ctx, block, plans, planning.co_channel_members(plans))
            refs = [
                [_per_channel_rates(plan, serving, gain, W_MHZ, SIGMA2) for plan in plans]
                for serving, gain in zip(servings, gains)
            ]
            assert_tally(
                tally,
                [np.array([rates for rates, _ in ref]) for ref in refs],
                [np.array([sinr for _, sinr in ref]) for ref in refs],
            )


def test_stacked_plans_equal_one_plan_calls():
    # The engine scores every static plan in one call and Wi-Fi its one plan;
    # each plan's row of the stacked call must equal its one-plan call bit
    # for bit.
    rng = np.random.default_rng(44)
    ks = list(range(1, 13))
    for n in range(1, 41):
        rx = _pad(10 ** rng.uniform(-12, -5, (n, n)) * rng.exponential(size=(n, n)))
        plans = [ChannelAssignment(k=k, channel_of=rng.integers(0, k, n)) for k in ks]
        members = planning.co_channel_members(plans)
        rates, sinr = planning.reuse_rates(rx, members, ks, ETA, W_MHZ, SIGMA2)
        for k, table, plan_rates, plan_sinr in zip(ks, members, rates, sinr):
            (one_rates,), (one_sinr,) = planning.reuse_rates(rx, [table], [k], ETA, W_MHZ, SIGMA2)
            assert np.array_equal(plan_sinr, one_sinr), (n, k)
            assert np.array_equal(plan_rates, one_rates), (n, k)


# --- the member-list rule against the dense co-channel mask it replaced ---------------

def _pad(rx):
    """``rx`` with the zero row below its transmitters that ``reuse_rates`` reads."""
    return np.concatenate([rx, np.zeros(rx.shape[:-2] + (1, rx.shape[-1]))], axis=-2)


def _dense_reuse_rates(rx, channels, k, eta, w_total_mhz, sigma2_mw):
    """The rate rule on a dense co-channel mask, kept frozen as the reference.

    ``rx[..., j, i]`` is transmitter j's power at transmitter i's user (no
    zero row) and ``channels[..., j]`` its channel. Every transmitter's
    product with the mask is summed in ascending order, exact zeros included.
    """
    signal = np.diagonal(rx, axis1=-2, axis2=-1)
    co_channel = channels[..., :, None] == channels[..., None, :]
    interference = (rx * co_channel).sum(axis=-2) - signal
    w = w_total_mhz / k
    sinr = signal / (interference + sigma2_mw / k)
    rates = np.minimum(w * np.log2(1.0 + sinr), w * eta)
    return rates, sinr


def _loop_members(assignment):
    """co_channel_members of one plan, AP by AP."""
    channel_of, n = assignment.channel_of, assignment.channel_of.size
    lists = [[j for j in range(n) if channel_of[j] == channel_of[i]] for i in range(n)]
    height = max(len(aps) for aps in lists)
    table = np.array([aps + [n] * (height - len(aps)) for aps in lists]).T
    return table * n + np.arange(n)


def test_member_tables_list_co_channel_aps_ascending_then_the_zero_row():
    rng = np.random.default_rng(45)
    for n in (1, 2, 7, 30):
        plans = [ChannelAssignment(k=k, channel_of=rng.integers(0, k, n)) for k in range(1, 13)]
        plans.append(ChannelAssignment(k=5, channel_of=np.zeros(n, dtype=np.int64)))
        for plan, table in zip(plans, planning.co_channel_members(plans)):
            assert table.dtype == np.intp
            assert np.array_equal(table, _loop_members(plan)), (n, plan.k)


def _ladder_plans(preset, n_aps):
    scn = scenario.preset(preset)
    (shape,) = [(nx, ny) for nx, ny in geometry.grid_ladder(100) if nx * ny == n_aps]
    layout = geometry.place_aps(scn.area, *shape)
    l_ap_ap = ch.average_gains(scn.area, scn.propagation, layout.ap_xy, layout.ap_xy)
    ks = list(range(1, min(12, n_aps) + 1))
    rngs = [engine.substream(7, n_aps, engine._SALT_PLANNING, k) for k in ks]
    return scn, l_ap_ap, planning.assign_channels(l_ap_ap, ks, rngs)


def _silent_stack(rng, n_aps):
    """Three snapshots of received powers: every AP, about half and one AP transmit."""
    rx = 10 ** rng.uniform(-12, -5, (3, n_aps, n_aps)) * rng.exponential(size=(3, n_aps, n_aps))
    rx[1, rng.random(n_aps) < 0.5] = 0.0
    rx[2, np.arange(n_aps) != rng.integers(n_aps)] = 0.0
    return rx


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
@pytest.mark.parametrize("n_aps", [1, 2, 9, 25, 100])
def test_member_lists_equal_the_dense_mask_on_every_plan(preset, n_aps):
    # Static's stacked call on the assign_channels plans of K = 1..min(12, n)
    # against the dense rule, bit for bit, on a stack with silent rows; a
    # lone AP has one plan and no interferer.
    rng = np.random.default_rng(46 + n_aps)
    _, _, plans = _ladder_plans(preset, n_aps)
    rx = _silent_stack(rng, n_aps)
    ks = [plan.k for plan in plans]
    rates, sinr = planning.reuse_rates(
        _pad(rx), planning.co_channel_members(plans), ks, ETA, W_MHZ, SIGMA2)
    assert rates.shape == sinr.shape == (3, len(plans), n_aps)
    for p, plan in enumerate(plans):
        ref_rates, ref_sinr = _dense_reuse_rates(rx, plan.channel_of, plan.k, ETA, W_MHZ, SIGMA2)
        assert np.array_equal(sinr[:, p], ref_sinr), plan.k
        assert np.array_equal(rates[:, p], ref_rates), plan.k
    if n_aps == 1:
        assert np.array_equal(sinr[0, 0], rx[0, 0] / SIGMA2)


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
@pytest.mark.parametrize("n_aps", [1, 2, 9, 25, 100])
def test_member_lists_equal_the_dense_mask_under_a_wifi_transmit_mask(preset, n_aps):
    # Wi-Fi's call: the K^wifi plan's table on the received powers with the
    # rows of the APs outside an SSI active set zeroed, at both carrier-sense
    # thresholds. At the active APs it equals the dense rule on that stack
    # and on the active APs alone, bit for bit.
    rng = np.random.default_rng(47 + n_aps)
    scn, l_ap_ap, plans = _ladder_plans(preset, n_aps)
    k = min(scn.wifi.k_wifi, n_aps)
    plan = plans[k - 1]
    g = l_ap_ap * rng.exponential(size=(n_aps, n_aps))
    g_ap_ap = np.triu(g, 1) + np.triu(g, 1).T
    rx = 10 ** rng.uniform(-12, -5, (n_aps, n_aps)) * rng.exponential(size=(n_aps, n_aps))
    thresholds = (scn.wifi.cs_thr_baseline_dbm, scn.wifi.cs_thr_aggressive_dbm)
    graphs = [wifi.contention_graph(plan.channel_of, g_ap_ap, PT, cs) for cs in thresholds]
    actives = wifi.sample_ssi(graphs, plan.channel_of, k, rng)
    transmits = np.zeros((len(thresholds), n_aps), dtype=bool)
    for t, active in enumerate(actives):
        transmits[t, active] = True
    masked = rx * transmits[:, :, None]
    (members,) = planning.co_channel_members([plan])
    (rates, sinr) = (a[:, 0] for a in planning.reuse_rates(
        _pad(masked), [members], [k], ETA, W_MHZ, SIGMA2))
    ref_rates, ref_sinr = _dense_reuse_rates(masked, plan.channel_of, k, ETA, W_MHZ, SIGMA2)
    for t, active in enumerate(actives):
        assert np.array_equal(sinr[t, active], ref_sinr[t, active])
        assert np.array_equal(rates[t, active], ref_rates[t, active])
        alone = _dense_reuse_rates(
            rx[np.ix_(active, active)], plan.channel_of[active], k, ETA, W_MHZ, SIGMA2)
        assert np.array_equal(sinr[t, active], alone[1])
        assert np.array_equal(rates[t, active], alone[0])
