"""CSMA/CA: the contention matrix, SSI sampling vs enumeration, Wi-Fi snapshot rates."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from apdim import engine, planning, wifi
from apdim.oracles import enumerate_ssi_distribution
from apdim.planning import ChannelAssignment

PT_MW = 100.0  # 20 dBm
W_MHZ = 60.0
SIGMA2 = 2.484e-10


ETA_WIFI = 2.7
GAMMA_T = 10 ** 0.3  # 3 dB


def params(cs=-85.0, k=3):
    """A carrier-sense threshold (dBm) and a channel count."""
    return SimpleNamespace(cs_thr_dbm=cs, k_wifi=k)


def _fixed_block(servings, gains, g_ap_ap, rngs):
    """A context and an engine.Block with given draws: faded gains, one column per
    served user snapshot by snapshot, and one AP-to-AP gain matrix per snapshot.
    Snapshot b's SSI draws start where ``rngs[b]`` stands."""
    radio = SimpleNamespace(pt_mw=PT_MW, bandwidth_mhz=W_MHZ)
    wifi_config = SimpleNamespace(eta_wifi=ETA_WIFI)
    scn = SimpleNamespace(radio=radio, wifi=wifi_config, sigma2_mw=SIGMA2, gamma_t_linear=GAMMA_T)
    n_aps = gains.shape[0]
    serving = np.concatenate([np.asarray(aps, dtype=np.int64) for aps in servings])
    starts = np.cumsum([0] + [len(aps) for aps in servings])
    snapshot = np.repeat(np.arange(len(servings)), np.diff(starts))
    has_user = np.zeros((len(servings), n_aps), dtype=bool)
    has_user[snapshot, serving] = True
    rx = np.zeros((len(servings), n_aps + 1, n_aps))
    rx[snapshot, :n_aps, serving] = (gains * PT_MW).T
    rx[:, :n_aps][~has_user] = 0.0
    block = engine.Block(serving, starts, snapshot, has_user, None, rx, g_ap_ap, rngs, None)
    return SimpleNamespace(scn=scn, n_aps=n_aps), block


def assert_tally(tally, rates, sinrs):
    """``tally`` holds each snapshot's ``rates[b]`` summed in their order, bit for
    bit, its ``sinrs[b]`` below GAMMA_T counted, and their count."""
    assert tally.rate_sums.shape == tally.hits.shape == (len(rates), 1)
    assert np.array_equal(tally.rate_sums[:, 0], [r.sum() for r in rates])
    assert np.array_equal(tally.hits[:, 0], [(s < GAMMA_T).sum() for s in sinrs])
    assert tally.served.tolist() == [r.size for r in rates] == [s.size for s in sinrs]
    assert not tally.redraws.any() and not tally.solver_fallbacks.any()


def wifi_scores(p, channel_of, serving, gains, g_ap_ap, rng):
    """One snapshot's Wi-Fi epoch on fixed gains: (rates, sinr) of the active users.

    The per-user values come from the calls engine.wifi_block makes
    (wifi.contention_graph, wifi.sample_ssi from a copy of ``rng``,
    planning.reuse_rates on the active APs' rows); engine.wifi_block's tally
    must hold their sums and counts and leave ``rng`` where the copy ends.
    """
    assignment = ChannelAssignment(k=p.k_wifi, channel_of=np.asarray(channel_of))
    ctx, block = _fixed_block([serving], gains, g_ap_ap[None], [rng])
    (members,) = planning.co_channel_members([assignment])
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    (tally,) = engine.wifi_block(ctx, block, [p.cs_thr_dbm], assignment, members)
    graph = wifi.contention_graph(assignment.channel_of, g_ap_ap, PT_MW, p.cs_thr_dbm)
    channels = np.where(block.has_user[0], assignment.channel_of, -1)
    (active,) = wifi.sample_ssi([graph], channels, p.k_wifi, replay)
    transmits = np.zeros((block.rx.shape[1], 1), dtype=bool)
    transmits[active] = True
    rates, sinr = planning.reuse_rates(
        block.rx[0] * transmits, [members], [p.k_wifi], ETA_WIFI, W_MHZ, SIGMA2)
    rates, sinr = rates[0, active], sinr[0, active]
    assert_tally(tally, [rates], [sinr])
    assert rng.bit_generator.state == replay.bit_generator.state
    return rates, sinr


def test_contention_clique_at_worst_case_separation():
    # Open env link budget: at 141.4 m the received level is
    # 20 dBm - (37 + 20*log10(141.4)) = -60 dBm > -85 dBm, so even the
    # farthest pair in a 100 m square contends: every co-channel pair adjacent.
    d = 141.4
    rss_dbm = 10 * math.log10(PT_MW) - (37 + 20 * math.log10(d))
    assert rss_dbm == pytest.approx(-60.0, abs=0.1)
    gain = 10 ** (-(37 + 20 * math.log10(d)) / 10)
    g = np.full((4, 4), gain)
    np.fill_diagonal(g, 1.0)
    adj = wifi.contention_graph(np.zeros(4, dtype=np.int64), g, PT_MW, -85.0)
    assert adj.sum() == 4 * 3  # complete graph, no self-edges
    assert not np.diag(adj).any()


def test_contention_disabled_sentinel():
    g = np.ones((5, 5))
    adj = wifi.contention_graph(np.zeros(5, dtype=np.int64), g, PT_MW, math.inf)
    assert not adj.any()


def test_contention_different_channels_never_adjacent():
    g = np.ones((2, 2))
    assert not wifi.contention_graph(np.array([0, 1]), g, PT_MW, -85.0).any()
    # the same gains on one channel do contend
    assert wifi.contention_graph(np.array([1, 1]), g, PT_MW, -85.0).tolist() == [
        [False, True],
        [True, False],
    ]


def test_contention_participation_filter():
    # AP 1 shares AP 0's channel and hears it far above the threshold, but has
    # no user: it neither contends nor blocks, so AP 0 transmits in every draw
    # and sees noise only. With a user, AP 1 contends and one of the two wins.
    g_ap_ap = np.full((2, 2), 1e-3)
    gains = np.array([[1e-7, 1e-7], [1e-7, 1e-7]])
    p = params(k=1)
    rng = np.random.default_rng(39)
    for _ in range(20):
        rates, sinr = wifi_scores(p, [0, 0], [0], gains[:, :1], g_ap_ap, rng)
        assert sinr.tolist() == [1e-7 * PT_MW / SIGMA2]
    for _ in range(20):
        rates, sinr = wifi_scores(p, [0, 0], [0, 1], gains, g_ap_ap, rng)
        assert sinr.tolist() == [1e-7 * PT_MW / SIGMA2]  # one winner, no interferer


def _clique(n):
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def _path3():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    return adj


ONE_CHANNEL = np.zeros(3, dtype=np.int64)


def test_ssi_clique_single_winner_uniform():
    adj = _clique(3)
    rng = np.random.default_rng(30)
    counts = np.zeros(3)
    for _ in range(3000):
        (act,) = wifi.sample_ssi([adj], ONE_CHANNEL, 1, rng)
        wifi.validate_active_set(adj, act)
        assert act.size == 1
        counts[act[0]] += 1
    # enumeration oracle: each AP wins with probability 1/3
    dist = enumerate_ssi_distribution(adj)
    assert all(dist[frozenset([i])] == pytest.approx(1 / 3) for i in range(3))
    assert np.allclose(counts / 3000, 1 / 3, atol=0.05)


def test_ssi_path_distribution():
    adj = _path3()
    dist = enumerate_ssi_distribution(adj)
    assert dist[frozenset([0, 2])] == pytest.approx(2 / 3)
    assert dist[frozenset([1])] == pytest.approx(1 / 3)
    rng = np.random.default_rng(31)
    ends = 0
    for _ in range(3000):
        (act,) = wifi.sample_ssi([adj], ONE_CHANNEL, 1, rng)
        wifi.validate_active_set(adj, act)
        if act.size == 2:
            ends += 1
    assert ends / 3000 == pytest.approx(2 / 3, abs=0.05)


def test_validate_active_set_rejects_dependent_and_non_maximal_sets():
    adj = _path3()
    with pytest.raises(AssertionError, match="adjacent"):
        wifi.validate_active_set(adj, np.array([0, 1]))
    with pytest.raises(AssertionError, match="not blocked"):
        wifi.validate_active_set(adj, np.array([0]))
    with pytest.raises(AssertionError, match="not blocked"):
        wifi.validate_active_set(adj, np.array([], dtype=np.int64))
    wifi.validate_active_set(adj, np.array([0, 2]))
    wifi.validate_active_set(adj, np.array([1]))


def test_ssi_empty_graph_all_active():
    n = 7
    adj = np.zeros((n, n), dtype=bool)
    rng = np.random.default_rng(32)
    for _ in range(50):
        (act,) = wifi.sample_ssi([adj], np.zeros(n, dtype=np.int64), 1, rng)
        assert act.tolist() == list(range(n))


def test_ssi_respects_channels():
    # two independent cliques on interleaved channels: one winner per channel,
    # channel 0's first
    channels = np.array([0, 1, 0, 1])
    adj = channels[:, None] == channels[None, :]
    np.fill_diagonal(adj, False)
    rng = np.random.default_rng(33)
    for _ in range(20):
        (act,) = wifi.sample_ssi([adj], channels, 2, rng)
        wifi.validate_active_set(adj, act)
        assert channels[act].tolist() == [0, 1]


def test_raising_threshold_never_shrinks_active_sets():
    # fewer contention edges (higher threshold) => at least as many transmitters,
    # checked pairwise on matched permutations over random gain matrices
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = 8
        g = 10 ** rng.uniform(-10, -6, size=(n, n))
        g = (g + g.T) / 2
        channels = np.zeros(n, dtype=np.int64)
        sizes = []
        for cs in (-85.0, -75.0, -65.0):
            adj = wifi.contention_graph(channels, g, PT_MW, cs)
            draw_rng = np.random.default_rng(777)  # matched admission orders
            total = 0
            for _ in range(40):
                total += wifi.sample_ssi([adj], channels, 1, draw_rng)[0].size
            sizes.append(total / 40)
        assert sizes[0] <= sizes[1] + 1e-9 and sizes[1] <= sizes[2] + 1e-9


def test_wifi_rate_caps_at_54mbps():
    # single active AP, no interferers, high SNR: R = (60/3) MHz * 2.7 = 54 Mbps
    gains = np.array([[1e-5]])  # -50 dB path: SNR huge
    rates, sinr = wifi_scores(params(), [0], [0], gains, np.ones((1, 1)), np.random.default_rng(35))
    assert rates[0] == pytest.approx(54.0)
    assert sinr[0] > 10 ** (40 / 10)


def test_wifi_rate_cap_boundary():
    # SINR chosen so spectral efficiency is exactly eta: the min clamps at R_max
    p = params()
    w = W_MHZ / p.k_wifi
    sinr_cap = 2**ETA_WIFI - 1
    g = sinr_cap * (SIGMA2 / p.k_wifi) / PT_MW
    rng = np.random.default_rng(36)
    rates, sinr = wifi_scores(p, [0], [0], np.array([[g]]), np.ones((1, 1)), rng)
    assert rates[0] == pytest.approx(w * ETA_WIFI, rel=1e-9)
    assert sinr[0] == pytest.approx(sinr_cap, rel=1e-9)


def test_wifi_rate_two_symmetric_cochannel_aps():
    # both APs active on one channel (they cannot hear each other), symmetric
    # gains g_ij = g_xj: SINR = g*Pt / (g*Pt + sigma2/K) < 1, so each rate < w
    g = 1e-7
    gains = np.full((2, 2), g)
    p = params()
    rng = np.random.default_rng(37)
    rates, sinr = wifi_scores(p, [0, 0], [0, 1], gains, np.zeros((2, 2)), rng)
    expected_sinr = g * PT_MW / (g * PT_MW + SIGMA2 / p.k_wifi)
    assert sinr.shape == (2,)
    assert np.allclose(sinr, expected_sinr, rtol=1e-12)
    assert (sinr < 1.0).all()
    w = W_MHZ / p.k_wifi
    assert (rates < w).all()
    assert rates[0] == pytest.approx(w * np.log2(1 + expected_sinr))


def test_wifi_rate_monotone_in_gains():
    p = params()

    def rate0(own, interferer):
        gains = np.array([[own, 1e-9], [interferer, 1e-7]])
        rng = np.random.default_rng(38)
        rates, _ = wifi_scores(p, [0, 0], [0, 1], gains, np.zeros((2, 2)), rng)
        return rates[0]

    assert rate0(2e-8, 1e-8) >= rate0(1e-8, 1e-8)  # own gain up, rate up
    assert rate0(1e-8, 2e-8) <= rate0(1e-8, 1e-8)  # interferer up, rate down


def test_wifi_rates_with_no_active_ap():
    # no AP has a user, so none contends or transmits
    empty = np.zeros((2, 0))
    rates, sinr = wifi_scores(params(), [0, 1], [], empty, np.ones((2, 2)), np.random.default_rng(3))
    assert rates.shape == sinr.shape == (0,)
    assert rates.dtype == sinr.dtype == np.float64


# --- the contention matrix, SSI packing and rates vs per-channel loops ----------


def _loop_sample_ssi(adjacency, channels, k, rng):
    """The per-AP admission loop per channel: AP i is admitted iff adj[i, admitted] is empty."""
    active = []
    for c in range(k):
        aps = np.flatnonzero(channels == c)
        m = aps.shape[0]
        if m == 0:
            continue
        adj = adjacency[np.ix_(aps, aps)]
        admitted = []
        for i in rng.permutation(m):
            if not admitted or not adj[i, admitted].any():
                admitted.append(int(i))
        active.append(np.sort(aps[admitted]))
    return np.concatenate([np.array([], dtype=np.int64), *active])


def _loop_contention_graph(channels, g_ap_ap, p):
    """Pair by pair: same channel and g * Pt above the carrier-sense threshold."""
    n = channels.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for x in range(n):
            if i != x and channels[i] == channels[x]:
                adj[i, x] = g_ap_ap[i, x] * PT_MW > 10.0 ** (p.cs_thr_dbm / 10.0)
    return adj


def _loop_wifi_rates(active, channels, serving_aps, gains, p, w_total_mhz, sigma2_mw):
    """The per-channel rate loop over the active positions, channel by channel."""
    w = w_total_mhz / p.k_wifi
    noise = sigma2_mw / p.k_wifi
    sinrs = []
    for c in range(p.k_wifi):
        cols = [int(a) for a in active if channels[a] == c]
        if not cols:
            continue
        rx = gains[np.ix_(serving_aps[cols], cols)] * PT_MW
        signal = np.diag(rx)
        sinr = signal / (rx.sum(axis=0) - signal + noise)
        sinrs.extend(float(s) for s in sinr)
    sinr_arr = np.array(sinrs, dtype=float)
    rates = np.minimum(w * np.log2(1.0 + sinr_arr), w * ETA_WIFI)
    return rates, sinr_arr


def _random_graph(rng, sizes, density, symmetric=True):
    """Random per-channel graphs, with the channels' APs interleaved in position."""
    channels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    adjacency = np.zeros((channels.shape[0], channels.shape[0]), dtype=bool)
    for c, m in enumerate(sizes):
        adj = rng.random((m, m)) < density
        if symmetric:
            adj = np.triu(adj, 1)
            adj = adj | adj.T
        np.fill_diagonal(adj, False)
        aps = np.flatnonzero(channels == c)
        adjacency[np.ix_(aps, aps)] = adj
    return adjacency, channels, len(sizes)


def _ssi_cases():
    rng = np.random.default_rng(90)
    empty = np.array([], dtype=np.int64)
    return {
        "empty-channels": (np.zeros((0, 0), dtype=bool), empty, 2),
        "one-ap": (np.zeros((1, 1), dtype=bool), np.array([0]), 1),
        "clique": (_clique(6), np.zeros(6, dtype=np.int64), 1),
        "path": (_path3(), ONE_CHANNEL, 1),
        **{
            f"random-{density}": _random_graph(rng, [0, 1, 7, 30], density)
            for density in (0.0, 0.2, 0.5, 0.9)
        },
        "asymmetric": _random_graph(rng, [5, 12, 40], 0.3, symmetric=False),
    }


SSI_CASES = _ssi_cases()


@pytest.mark.parametrize("case", list(SSI_CASES))
def test_sample_ssi_matches_admission_loop(case):
    adjacency, channels, k = SSI_CASES[case]
    # the case's graph, then a stack of it, a sparser graph and an empty one,
    # as one threshold each: one visiting order serves every graph, so each
    # active set equals a loop on that graph alone from the same state
    thinned = adjacency & (np.random.default_rng(91).random(adjacency.shape) < 0.5)
    thinned &= thinned.T
    for graphs in ([adjacency], [adjacency, thinned, np.zeros_like(adjacency)]):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            got = wifi.sample_ssi(graphs, channels, k, rng)
            assert len(got) == len(graphs)
            for graph, active in zip(graphs, got):
                ref_rng = np.random.default_rng(seed)
                want = _loop_sample_ssi(graph, channels, k, ref_rng)
                assert active.dtype == want.dtype and np.array_equal(active, want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(6))
def test_wifi_rates_match_per_channel_loop(seed):
    # engine.wifi_block (contention matrix, SSI draw, reuse rate rule) on a
    # block of three snapshots at three thresholds against the loops, bit for
    # bit: 1-4 channels, some empty; carrier sense from always to never; APs
    # without a user among those with one
    rng = np.random.default_rng(100 + seed)
    n_aps, k = 60, int(rng.integers(1, 5))
    channel_of = rng.integers(0, k, n_aps)
    thresholds = (-85.0, -65.0, math.inf)
    servings, gains, g_ap_ap, draw_seeds = [], [], [], []
    for _ in range(3):
        serving = np.sort(rng.choice(n_aps, int(rng.integers(1, 46)), replace=False))
        servings.append(serving)
        gains.append(10.0 ** rng.uniform(-12, -5, (n_aps, serving.shape[0])))
        g = 10.0 ** rng.uniform(-15, -8, (n_aps, n_aps))
        g_ap_ap.append((g + g.T) / 2)
        draw_seeds.append(int(rng.integers(2**31)))
    draw_rngs = [np.random.default_rng(draw_seed) for draw_seed in draw_seeds]
    ctx, block = _fixed_block(
        servings, np.concatenate(gains, axis=1), np.stack(g_ap_ap), draw_rngs)
    assignment = ChannelAssignment(k=k, channel_of=channel_of)
    got = engine.wifi_block(
        ctx, block, thresholds, assignment, planning.co_channel_members([assignment])[0])
    assert len(got) == 3
    for tally, cs in zip(got, thresholds):
        p = params(cs=cs, k=k)
        wants = []
        for b, serving in enumerate(servings):
            ref_rng = np.random.default_rng(draw_seeds[b])
            channels, g_served = channel_of[serving], g_ap_ap[b][np.ix_(serving, serving)]
            adj = _loop_contention_graph(channels, g_served, p)
            assert np.array_equal(wifi.contention_graph(channels, g_served, PT_MW, cs), adj)
            active = _loop_sample_ssi(adj, channels, k, ref_rng)
            wants.append(_loop_wifi_rates(active, channels, serving, gains[b], p, W_MHZ, SIGMA2))
            if cs == thresholds[-1]:  # one visiting order served every threshold
                assert draw_rngs[b].bit_generator.state == ref_rng.bit_generator.state
        assert_tally(tally, [rates for rates, _ in wants], [sinr for _, sinr in wants])
        assert 0 < tally.hits.sum() < tally.served.sum()  # both sides of gamma_t are scored
