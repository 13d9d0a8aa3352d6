"""CSMA/CA: contention graphs, SSI sampling vs enumeration, the Wi-Fi rate equation."""

import math

import numpy as np
import pytest

from apdim import wifi
from apdim.oracles import enumerate_ssi_distribution
from apdim.planning import ChannelAssignment

PT_MW = 100.0  # 20 dBm
W_MHZ = 60.0
SIGMA2 = 2.484e-10


def params(cs=-85.0, k=3):
    return wifi.WifiParams(cs_thr_dbm=cs, k_wifi=k, eta_wifi=2.7, pt_mw=PT_MW)


def test_params_validation():
    with pytest.raises(ValueError):
        wifi.WifiParams(cs_thr_dbm=-85, k_wifi=0, eta_wifi=2.7, pt_mw=100)
    with pytest.raises(ValueError):
        wifi.WifiParams(cs_thr_dbm=-85, k_wifi=3, eta_wifi=-1, pt_mw=100)


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
    assignment = ChannelAssignment(k=1, channel_of=np.zeros(4, dtype=np.int64))
    graph = wifi.build_contention_graph(assignment, g, params(k=1))
    adj = graph.adjacency[0]
    assert adj.sum() == 4 * 3  # complete graph, no self-edges
    assert not np.diag(adj).any()


def test_contention_disabled_sentinel():
    g = np.ones((5, 5))
    assignment = ChannelAssignment(k=1, channel_of=np.zeros(5, dtype=np.int64))
    graph = wifi.build_contention_graph(assignment, g, params(cs=math.inf, k=1))
    assert not graph.adjacency[0].any()


def test_contention_different_channels_never_adjacent():
    g = np.ones((2, 2))
    assignment = ChannelAssignment(k=2, channel_of=np.array([0, 1]))
    graph = wifi.build_contention_graph(assignment, g, params(k=2))
    assert all(adj.size <= 1 or not adj.any() for adj in graph.adjacency)
    assert [m.tolist() for m in graph.members] == [[0], [1]]


def test_contention_participation_filter():
    g = np.ones((3, 3)) * 1e-3
    assignment = ChannelAssignment(k=1, channel_of=np.zeros(3, dtype=np.int64))
    graph = wifi.build_contention_graph(assignment, g, params(k=1), participating=[0, 2])
    assert graph.members[0].tolist() == [0, 2]


def _clique(n):
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return wifi.ContentionGraph(
        k=1, members=(np.arange(n),), adjacency=(adj,)
    )


def _path3():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    return wifi.ContentionGraph(k=1, members=(np.arange(3),), adjacency=(adj,))


def test_ssi_clique_single_winner_uniform():
    graph = _clique(3)
    rng = np.random.default_rng(30)
    counts = np.zeros(3)
    for _ in range(3000):
        act = wifi.sample_ssi(graph, rng)
        wifi.validate_active_set(graph, act)
        assert act.all_active.size == 1
        counts[act.all_active[0]] += 1
    # enumeration oracle: each AP wins with probability 1/3
    dist = enumerate_ssi_distribution(graph.adjacency[0])
    assert all(dist[frozenset([i])] == pytest.approx(1 / 3) for i in range(3))
    assert np.allclose(counts / 3000, 1 / 3, atol=0.05)


def test_ssi_path_distribution():
    graph = _path3()
    dist = enumerate_ssi_distribution(graph.adjacency[0])
    assert dist[frozenset([0, 2])] == pytest.approx(2 / 3)
    assert dist[frozenset([1])] == pytest.approx(1 / 3)
    rng = np.random.default_rng(31)
    ends = 0
    for _ in range(3000):
        act = wifi.sample_ssi(graph, rng)
        wifi.validate_active_set(graph, act)
        if act.all_active.size == 2:
            ends += 1
    assert ends / 3000 == pytest.approx(2 / 3, abs=0.05)


def test_ssi_empty_graph_all_active():
    n = 7
    graph = wifi.ContentionGraph(
        k=1, members=(np.arange(n),), adjacency=(np.zeros((n, n), dtype=bool),)
    )
    rng = np.random.default_rng(32)
    for _ in range(50):
        act = wifi.sample_ssi(graph, rng)
        assert act.all_active.tolist() == list(range(n))


def test_ssi_respects_channels():
    # two independent cliques on separate channels: one winner per channel
    adj = np.ones((2, 2), dtype=bool)
    np.fill_diagonal(adj, False)
    graph = wifi.ContentionGraph(
        k=2,
        members=(np.array([0, 1]), np.array([2, 3])),
        adjacency=(adj.copy(), adj.copy()),
    )
    rng = np.random.default_rng(33)
    act = wifi.sample_ssi(graph, rng)
    assert act.per_channel[0].size == 1 and act.per_channel[1].size == 1


def test_raising_threshold_never_shrinks_active_sets():
    # fewer contention edges (higher threshold) => at least as many transmitters,
    # checked pairwise on matched permutations over random gain matrices
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = 8
        g = 10 ** rng.uniform(-10, -6, size=(n, n))
        g = (g + g.T) / 2
        assignment = ChannelAssignment(k=1, channel_of=np.zeros(n, dtype=np.int64))
        sizes = []
        for cs in (-85.0, -75.0, -65.0):
            graph = wifi.build_contention_graph(assignment, g, params(cs=cs, k=1))
            draw_rng = np.random.default_rng(777)  # matched admission orders
            total = 0
            for _ in range(40):
                total += wifi.sample_ssi(graph, draw_rng).all_active.size
            sizes.append(total / 40)
        assert sizes[0] <= sizes[1] + 1e-9 and sizes[1] <= sizes[2] + 1e-9


def test_wifi_rate_caps_at_54mbps():
    # single active AP, no interferers, high SNR: R = (60/3) MHz * 2.7 = 54 Mbps
    graph = wifi.ContentionGraph(
        k=3,
        members=(np.array([0]), np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
        adjacency=(np.zeros((1, 1), dtype=bool), np.zeros((0, 0), dtype=bool), np.zeros((0, 0), dtype=bool)),
    )
    act = wifi.sample_ssi(graph, np.random.default_rng(35))
    gains = np.array([[1e-5]])  # -50 dB path: SNR huge
    pos, rates, sinr = wifi.wifi_rates(act, np.array([0]), gains, params(), W_MHZ, SIGMA2)
    assert rates[0] == pytest.approx(54.0)
    assert sinr[0] > 10 ** (40 / 10)


def test_wifi_rate_cap_boundary():
    # SINR chosen so spectral efficiency is exactly eta: the min clamps at R_max
    p = params()
    w = W_MHZ / p.k_wifi
    sinr_cap = 2**p.eta_wifi - 1
    g = sinr_cap * (SIGMA2 / p.k_wifi) / PT_MW
    graph = wifi.ContentionGraph(
        k=1, members=(np.array([0]),), adjacency=(np.zeros((1, 1), dtype=bool),)
    )
    act = wifi.sample_ssi(graph, np.random.default_rng(36))
    pos, rates, sinr = wifi.wifi_rates(act, np.array([0]), np.array([[g]]), p, W_MHZ, SIGMA2)
    assert rates[0] == pytest.approx(w * p.eta_wifi, rel=1e-9)
    assert sinr[0] == pytest.approx(sinr_cap, rel=1e-9)


def test_wifi_rate_two_symmetric_cochannel_aps():
    # both APs active on one channel, symmetric gains g_ij = g_xj:
    # SINR = g*Pt / (g*Pt + sigma2/K) < 1, so each rate < w bit/s/Hz * w
    g = 1e-7
    gains = np.full((2, 2), g)
    graph = wifi.ContentionGraph(
        k=1, members=(np.array([0, 1]),), adjacency=(np.zeros((2, 2), dtype=bool),)
    )
    act = wifi.sample_ssi(graph, np.random.default_rng(37))
    p = params()
    pos, rates, sinr = wifi.wifi_rates(act, np.array([0, 1]), gains, p, W_MHZ, SIGMA2)
    expected_sinr = g * PT_MW / (g * PT_MW + SIGMA2 / p.k_wifi)
    assert np.allclose(sinr, expected_sinr, rtol=1e-12)
    assert (sinr < 1.0).all()
    w = W_MHZ / p.k_wifi
    assert (rates < w).all()
    assert rates[0] == pytest.approx(w * np.log2(1 + expected_sinr))


def test_wifi_rate_monotone_in_gains():
    p = params()
    graph = wifi.ContentionGraph(
        k=1, members=(np.array([0, 1]),), adjacency=(np.zeros((2, 2), dtype=bool),)
    )
    act = wifi.sample_ssi(graph, np.random.default_rng(38))

    def rate0(own, interferer):
        gains = np.array([[own, 1e-9], [interferer, 1e-7]])
        _, rates, _ = wifi.wifi_rates(act, np.array([0, 1]), gains, p, W_MHZ, SIGMA2)
        return rates[0]

    assert rate0(2e-8, 1e-8) >= rate0(1e-8, 1e-8)  # own gain up, rate up
    assert rate0(1e-8, 2e-8) <= rate0(1e-8, 1e-8)  # interferer up, rate down


# --- vectorized SSI packing and rates vs the per-AP loops they replaced ---------


def _loop_sample_ssi(graph, rng):
    """The per-AP admission loop: AP i is admitted iff adj[i, admitted] is empty."""
    active = []
    for aps, adj in zip(graph.members, graph.adjacency):
        m = aps.shape[0]
        if m == 0:
            active.append(np.array([], dtype=np.int64))
            continue
        admitted = []
        for i in rng.permutation(m):
            if not admitted or not adj[i, admitted].any():
                admitted.append(int(i))
        active.append(np.sort(aps[admitted]))
    return wifi.ActiveSet(per_channel=tuple(active))


def _loop_wifi_rates(active, serving_aps, gains, p, w_total_mhz, sigma2_mw):
    """The per-channel rate loop with dict lookups."""
    w = w_total_mhz / p.k_wifi
    noise = sigma2_mw / p.k_wifi
    ap_pos = {int(a): i for i, a in enumerate(serving_aps)}
    positions, sinrs = [], []
    for act in active.per_channel:
        if act.shape[0] == 0:
            continue
        cols = np.array([ap_pos[int(a)] for a in act])
        rx = gains[np.ix_(act, cols)] * p.pt_mw
        signal = np.diag(rx)
        sinr = signal / (rx.sum(axis=0) - signal + noise)
        positions.extend(int(c) for c in cols)
        sinrs.extend(float(s) for s in sinr)
    sinr_arr = np.array(sinrs, dtype=float)
    rates = np.minimum(w * np.log2(1.0 + sinr_arr), w * p.eta_wifi)
    return np.array(positions, dtype=np.int64), rates, sinr_arr


def _random_graph(rng, sizes, density, symmetric=True):
    members, adjacency, start = [], [], 0
    for m in sizes:
        adj = rng.random((m, m)) < density
        if symmetric:
            adj = np.triu(adj, 1)
            adj = adj | adj.T
        np.fill_diagonal(adj, False)
        members.append(start + np.sort(rng.choice(3 * m + 1, m, replace=False)))
        adjacency.append(adj)
        start += 3 * m + 1
    return wifi.ContentionGraph(k=len(sizes), members=tuple(members), adjacency=tuple(adjacency))


def _ssi_cases():
    rng = np.random.default_rng(90)
    empty = np.array([], dtype=np.int64)
    no_edges = np.zeros((0, 0), dtype=bool)
    return {
        "empty-channels": wifi.ContentionGraph(
            k=2, members=(empty, empty), adjacency=(no_edges, no_edges)
        ),
        "one-ap": wifi.ContentionGraph(
            k=1, members=(np.array([4]),), adjacency=(np.zeros((1, 1), dtype=bool),)
        ),
        "clique": _clique(6),
        "path": _path3(),
        **{
            f"random-{density}": _random_graph(rng, [0, 1, 7, 30], density)
            for density in (0.0, 0.2, 0.5, 0.9)
        },
        "asymmetric": _random_graph(rng, [5, 12, 40], 0.3, symmetric=False),
    }


SSI_CASES = _ssi_cases()


@pytest.mark.parametrize("case", list(SSI_CASES))
def test_sample_ssi_matches_admission_loop(case):
    graph = SSI_CASES[case]
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = wifi.sample_ssi(graph, rng), _loop_sample_ssi(graph, ref_rng)
        assert len(got.per_channel) == len(want.per_channel)
        for g, w in zip(got.per_channel, want.per_channel):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(6))
def test_wifi_rates_match_per_channel_loop(seed):
    rng = np.random.default_rng(100 + seed)
    n_aps = 60
    serving = np.sort(rng.choice(n_aps, 45, replace=False))
    gains = 10.0 ** rng.uniform(-12, -5, (n_aps, serving.shape[0]))
    # channels with 0, 1 and several (up to 20) active APs, in random channel order
    sizes = [0, 1, int(rng.integers(2, 6)), 20]
    rng.shuffle(sizes)
    picks = rng.permutation(serving)
    cuts = np.cumsum(sizes)[:-1]
    per_channel = tuple(np.sort(a) for a in np.split(picks[: sum(sizes)], cuts))
    active = wifi.ActiveSet(per_channel=per_channel)
    p = params(k=len(sizes))
    got = wifi.wifi_rates(active, serving, gains, p, W_MHZ, SIGMA2)
    want = _loop_wifi_rates(active, serving, gains, p, W_MHZ, SIGMA2)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_wifi_rates_with_no_active_ap():
    empty = np.array([], dtype=np.int64)
    active = wifi.ActiveSet(per_channel=(empty, empty, empty))
    gains = np.ones((2, 2))
    pos, rates, sinr = wifi.wifi_rates(active, np.array([0, 1]), gains, params(), W_MHZ, SIGMA2)
    assert pos.dtype == np.int64 and pos.size == rates.size == sinr.size == 0
