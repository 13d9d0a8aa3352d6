"""CSMA/CA model: per-channel contention graphs, SSI active-set sampling, Wi-Fi rates.

Only APs that currently have an associated user take part in contention; an AP
with nothing to send neither transmits nor defers anyone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planning import ChannelAssignment, reuse_rates


@dataclass(frozen=True)
class WifiParams:
    cs_thr_dbm: float  # carrier-sense threshold; +inf disables sensing entirely
    k_wifi: int  # number of non-overlapping channels
    eta_wifi: float  # max link spectral efficiency, bps/Hz
    pt_mw: float

    def __post_init__(self):
        if self.k_wifi < 1:
            raise ValueError(f"k_wifi must be >= 1, got {self.k_wifi}")
        if self.eta_wifi <= 0:
            raise ValueError(f"eta_wifi must be > 0, got {self.eta_wifi}")
        if self.pt_mw <= 0:
            raise ValueError(f"pt_mw must be > 0, got {self.pt_mw}")

    @property
    def cs_thr_mw(self) -> float:
        return 10.0 ** (self.cs_thr_dbm / 10.0)


@dataclass(frozen=True, eq=False)
class ContentionGraph:
    """Per-channel adjacency over participating APs.

    ``members[k]`` holds global AP indices on channel k (ascending) and
    ``adjacency[k]`` the symmetric boolean matrix over them (no self-edges).
    APs on different channels are never adjacent.
    """

    k: int
    members: tuple[np.ndarray, ...]
    adjacency: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class ActiveSet:
    """One SSI draw: the simultaneously transmitting APs, per channel."""

    per_channel: tuple[np.ndarray, ...]

    @property
    def all_active(self) -> np.ndarray:
        if not self.per_channel:
            return np.array([], dtype=np.int64)
        return np.sort(np.concatenate(self.per_channel))


def build_contention_graph(
    assignment: ChannelAssignment,
    g_ap_ap: np.ndarray,
    params: WifiParams,
    participating=None,
) -> ContentionGraph:
    """Contention adjacency: APs i, x on one channel contend iff g_ix * Pt > CS_thr.

    ``g_ap_ap`` are instantaneous AP-to-AP power gains (assumed reciprocal so
    the relation is symmetric). ``participating`` optionally restricts to the
    APs that have traffic (ascending); others are left out entirely.
    """
    n = assignment.channel_of.shape[0]
    if participating is None:
        participating = np.arange(n)
    participating = np.asarray(participating, dtype=np.int64)
    channel_of = assignment.channel_of[participating]
    members = []
    adjacency = []
    for ch in range(assignment.k):
        aps = participating[channel_of == ch]
        adj = g_ap_ap[aps[:, None], aps] * params.pt_mw > params.cs_thr_mw
        np.fill_diagonal(adj, False)
        members.append(aps)
        adjacency.append(adj)
    return ContentionGraph(k=assignment.k, members=tuple(members), adjacency=tuple(adjacency))


def sample_ssi(graph: ContentionGraph, rng: np.random.Generator) -> ActiveSet:
    """Draw one active set by sequential packing.

    Per channel: visit the channel's APs in a uniformly random order and admit
    each AP iff it is not in the contention domain of any AP admitted so far.
    The result is an independent and maximal set of the channel's graph.
    ``blocked`` is the running union of the admitted APs' adjacency columns,
    so AP i is blocked iff adj[i, j] holds for some admitted j.
    """
    active = []
    for aps, adj in zip(graph.members, graph.adjacency):
        m = aps.shape[0]
        blocked = np.zeros(m, dtype=bool)
        admitted = np.zeros(m, dtype=bool)
        for i in rng.permutation(m).tolist():
            if not blocked[i]:
                admitted[i] = True
                blocked |= adj[:, i]
        active.append(aps[admitted])  # members are ascending
    return ActiveSet(per_channel=tuple(active))


def validate_active_set(graph: ContentionGraph, active: ActiveSet) -> None:
    """Assert independence and maximality of an active set; raises AssertionError."""
    for aps, adj, act in zip(graph.members, graph.adjacency, active.per_channel):
        pos = {int(a): i for i, a in enumerate(aps)}
        idx = [pos[int(a)] for a in act]
        sub = adj[np.ix_(idx, idx)]
        assert not sub.any(), "active set contains adjacent APs"
        blocked = np.zeros(aps.shape[0], dtype=bool)
        blocked[idx] = True
        for i in range(aps.shape[0]):
            if not blocked[i]:
                assert adj[i, idx].any(), "inactive AP not blocked by any active AP"


def wifi_rates(
    active: ActiveSet,
    serving_aps: np.ndarray,
    gains: np.ndarray,
    params: WifiParams,
    w_total_mhz: float,
    sigma2_mw: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user Wi-Fi rate and SINR for the users served by active APs.

    ``gains`` holds AP-to-user power gains with one column per served user,
    aligned with ``serving_aps`` (ascending; column i belongs to the user
    selected by serving_aps[i]). Each active AP transmits to its user over
    w = W / K^wifi; interference comes from the other active APs on the same
    channel and the noise in that channel is sigma2 / K^wifi.

    Returns (served_positions, rates_mbps, sinr), channel by channel, where
    served_positions indexes into serving_aps; the rates and SINR follow
    ``planning.reuse_rates`` over the active APs.
    """
    per_channel = active.per_channel
    act = np.concatenate([np.empty(0, dtype=np.int64), *per_channel])
    channel = np.repeat(np.arange(len(per_channel)), [a.shape[0] for a in per_channel])
    positions = np.searchsorted(serving_aps, act)
    rx = gains[act[:, None], positions] * params.pt_mw  # (active, their users)
    rates, sinr = reuse_rates(rx, channel, params.k_wifi, params.eta_wifi, w_total_mhz, sigma2_mw)
    return positions, rates, sinr
