"""Frequency planning: the greedy channel assignment heuristic."""

import numpy as np
import pytest

from apdim import channel as ch
from apdim import engine, planning, scenario
from apdim.geometry import ServiceArea, grid_ladder, place_aps

OPEN = ch.PropagationParams(l0_db=37.0, alpha=2.0, lw_db=0.0)


def _l_ap_ap(nx, ny, area=None):
    area = area or ServiceArea(lx=100, ly=100)
    layout = place_aps(area, nx, ny)
    return layout, ch.average_gains(area, OPEN, layout.ap_xy, layout.ap_xy)


def test_single_channel_assignment():
    _, l = _l_ap_ap(2, 2)
    (a,) = planning.assign_channels(l, [1], [np.random.default_rng(0)])
    assert (a.channel_of == 0).all()


def test_more_channels_than_aps_first_fit():
    # every AP sees an empty channel with zero interference, so by the
    # lowest-index tie rule no channel is reused
    _, l = _l_ap_ap(2, 2)
    (a,) = planning.assign_channels(l, [6], [np.random.default_rng(1)])
    assert len(set(a.channel_of.tolist())) == 4
    assert set(a.channel_of.tolist()) == {0, 1, 2, 3}


def test_two_aps_two_channels_always_split():
    _, l = _l_ap_ap(2, 1)
    for seed in range(20):
        (a,) = planning.assign_channels(l, [2], [np.random.default_rng(seed)])
        assert a.channel_of[0] != a.channel_of[1]


def test_assignment_channel_range_invariant():
    rng = np.random.default_rng(2)
    _, l = _l_ap_ap(4, 3)
    for k in (1, 2, 3, 5, 12):
        (a,) = planning.assign_channels(l, [k], [rng])
        assert ((a.channel_of >= 0) & (a.channel_of < k)).all()
        assert a.channel_of.shape == (12,)


def test_assignment_spreads_cochannel_aps():
    # on a 3x3 grid with 3 channels the greedy heuristic should never put two
    # APs of the same row-adjacent pair on one channel when a cleaner option
    # exists; verify aggregate same-channel interference is below the
    # all-on-one-channel worst case by a wide margin
    layout, l = _l_ap_ap(3, 3)
    (a,) = planning.assign_channels(l, [3], [np.random.default_rng(3)])
    mask_same = a.channel_of[:, None] == a.channel_of[None, :]
    np.fill_diagonal(mask_same, False)
    cochannel = (l * mask_same).sum()
    assert cochannel < 0.25 * (l.sum() - np.trace(l))


def test_assignment_validation():
    _, l = _l_ap_ap(2, 2)
    with pytest.raises(ValueError):
        planning.assign_channels(l, [0], [np.random.default_rng(0)])
    with pytest.raises(ValueError):
        planning.ChannelAssignment(k=2, channel_of=np.array([0, 2]))


def _one_plan_greedy(l_ap_ap, k, rng):
    """The greedy assignment of one plan on its own, as it was before the
    plans ran in lockstep: visit the APs in random order, pick the least
    interfered of k channels."""
    n = l_ap_ap.shape[0]
    channel_of = np.full(n, -1, dtype=np.int64)
    aggregate = np.zeros((n, k))
    for i in rng.permutation(n):
        c = int(np.argmin(aggregate[i]))
        channel_of[i] = c
        aggregate[:, c] += l_ap_ap[i]
    return channel_of


@pytest.mark.parametrize("preset", ["table1-open", "table1-obstructed"])
def test_lockstep_plans_equal_one_plan_loop(preset):
    # every rung of the ladder to 100 APs, with the engine's reuse numbers
    # (K = 1..min(k_max, n) and K^wifi, which exceeds n on the first rungs),
    # plus k = n + 5; n = 1 is the first rung
    scn = scenario.preset(preset)
    for rung, (nx, ny) in enumerate(grid_ladder(100)):
        layout = place_aps(scn.area, nx, ny)
        l_ap_ap = ch.average_gains(scn.area, scn.propagation, layout.ap_xy, layout.ap_xy)
        n = layout.n_aps
        ks = sorted({*range(1, min(scn.static.k_max, n) + 1), scn.wifi.k_wifi, n + 5})
        plans = planning.assign_channels(
            l_ap_ap, ks, [engine.substream(1, rung, 2, k) for k in ks]
        )
        assert [plan.k for plan in plans] == ks
        for k, plan in zip(ks, plans):
            want = _one_plan_greedy(l_ap_ap, k, engine.substream(1, rung, 2, k))
            assert plan.channel_of.dtype == want.dtype
            assert np.array_equal(plan.channel_of, want), (preset, nx, ny, k)


def test_open_env_2x2_reuse1_is_outage_bound():
    # Brute-force SINR CDF for K = 1 on a 2x2 open grid: midcell users see
    # interference comparable to signal, so P(SINR < 2) is far above 5%.
    rng = np.random.default_rng(4)
    area = ServiceArea(lx=100, ly=100)
    layout = place_aps(area, 2, 2)
    users = rng.random((10_000, 2)) * 100
    l = ch.average_gains(area, OPEN, layout.ap_xy, users)
    z = ch.draw_fading(rng, l.shape)
    g = l * np.abs(z) ** 2
    serving = np.argmax(l, axis=0)
    pt, sigma2 = 100.0, 2.484e-10
    signal = g[serving, np.arange(users.shape[0])] * pt
    total = g.sum(axis=0) * pt
    sinr = signal / (total - signal + sigma2)
    outage_fraction = np.mean(sinr < 10 ** 0.3)
    assert outage_fraction > 0.3  # K=1 is hopeless in the open environment
