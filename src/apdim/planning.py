"""Frequency planning: greedy min-interference channel assignment, and the
co-channel rate rule on a plan.

The same assignment heuristic serves both the Wi-Fi channelization and the
static-cellular reuse plan; planning is done once per deployment on average
path gains, never per fading snapshot. Both systems also share one rate rule
(``reuse_rates``); they differ only in which APs transmit: the SSI active set
for Wi-Fi, every AP with traffic for static.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class ChannelAssignment:
    """Total map AP index -> channel index in [0, k)."""

    k: int
    channel_of: np.ndarray  # (n_aps,) int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if np.any(self.channel_of < 0) or np.any(self.channel_of >= self.k):
            raise ValueError("channel indices must lie in [0, k)")


def assign_channels(
    l_ap_ap: np.ndarray, ks: Sequence[int], rngs: Sequence[np.random.Generator]
) -> list[ChannelAssignment]:
    """Greedy assignments, one per reuse number ``ks[p]`` drawn from ``rngs[p]``.

    Each plan visits the APs in its own random order (one ``rng.permutation``)
    and gives each visited AP the channel minimizing the aggregate average
    interference sum(L_ij) over already-assigned co-channel APs j (the common
    transmit power scales all candidates equally and is omitted). Ties break
    toward the lowest channel index, so empty channels fill first.

    The plans run in lockstep, one visit position at a time, on one
    aggregate stack whose channels at or above a plan's k stay at +inf and
    are never picked; every plan's aggregate takes the same additions in the
    same order as a plan made on its own, so each assignment is that plan's.
    """
    if any(k < 1 for k in ks):
        raise ValueError(f"every k must be >= 1, got {list(ks)}")
    n = l_ap_ap.shape[0]
    plans = np.arange(len(ks))
    orders = np.array([rng.permutation(n) for rng in rngs])  # (n_plans, n)
    # aggregate[p, c, i]: plan p's average interference at AP i from channel c
    aggregate = np.zeros((plans.size, max(ks), n))
    for p, k in enumerate(ks):
        aggregate[p, k:] = np.inf
    channel_of = np.empty((plans.size, n), dtype=np.int64)
    for visited in orders.T:  # the AP each plan visits at this position
        c = aggregate[plans, :, visited].argmin(axis=1)
        channel_of[plans, visited] = c
        # Also adds each visited AP's own (unused) diagonal entry to its
        # aggregate, which is never read again: each AP is visited once.
        aggregate[plans, c] += l_ap_ap[visited]
    return [ChannelAssignment(k=k, channel_of=row) for k, row in zip(ks, channel_of)]


def co_channel_members(assignments: Sequence[ChannelAssignment]) -> list[np.ndarray]:
    """``reuse_rates``' member table of each plan: (T_p, n_aps) flat indices.

    Column i of plan p's table lists AP i's co-channel APs j, itself
    included, in ascending order, each as the index j * n_aps + i of entry
    [j, i] in a flattened (n_aps + 1, n_aps) matrix. T_p is the plan's
    largest channel size, and a shorter list is padded at its end with the
    index of entry [n_aps, i], in the matrix's last row, which
    ``reuse_rates`` keeps zero. One stable sort groups every plan's APs by
    (plan, channel) at once.
    """
    channel_of = np.array([a.channel_of for a in assignments])  # (n_plans, n_aps)
    n = channel_of.shape[1]
    first = np.cumsum([0] + [a.k for a in assignments])  # each plan's first channel key
    keys = channel_of + first[:-1, None]  # one key per (plan, channel)
    by_key = np.argsort(keys, axis=None, kind="stable")  # ascending AP within a key
    sorted_keys = keys.ravel()[by_key]
    counts = np.bincount(sorted_keys, minlength=first[-1])
    slot = np.arange(by_key.size) - (np.cumsum(counts) - counts)[sorted_keys]
    members = np.full((counts.max(), first[-1]), n * n)  # [slot, key]: rows j as j * n
    members[slot, sorted_keys] = by_key % n * n
    sizes = np.maximum.reduceat(counts, first[:-1]).tolist()  # each plan's largest channel
    return [members[:size].take(plan_keys, axis=1) + np.arange(n)
            for size, plan_keys in zip(sizes, keys)]


def reuse_rates(
    rx: np.ndarray,
    members: Sequence[np.ndarray],
    ks: Sequence[int],
    eta: float,
    w_total_mhz: float,
    sigma2_mw: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link rate (Mbps) and SINR on each plan when the transmitters of ``rx`` all send.

    ``rx[..., j, i]`` (shape (..., n + 1, n)) is the power of transmitter j
    at transmitter i's user; its last row is zero. Plan p has ``ks[p]``
    channels and the member table ``members[p]`` (``co_channel_members``).
    Returns arrays of shape (..., n_plans, n). The other co-channel
    transmitters interfere with each user; each link uses w = W / K, sees
    noise sigma2 / K, and its rate clamps at w * eta.

    Each interference sum gathers a column's members and adds them in
    ascending transmitter order over an outer axis, so it is sequential. It
    takes the same non-zero terms in the same order as a sum over every
    transmitter times a co-channel mask, which only adds exact zeros, and
    equals it bit for bit; so does a sum over the transmitting APs alone
    when the rows of silent transmitters are zero, and each matrix of a
    stack equals a call on its own.
    """
    flat = rx.reshape(*rx.shape[:-2], -1)
    interference = np.empty(rx.shape[:-2] + (len(members), rx.shape[-1]))
    for p, table in enumerate(members):
        np.add.reduce(np.take(flat, table, axis=-1), axis=-2, out=interference[..., p, :])
    signal = np.diagonal(rx, axis1=-2, axis2=-1)[..., None, :]
    interference -= signal
    k = np.asarray(ks, dtype=float)[:, None]
    w = w_total_mhz / k
    sinr = signal / (interference + sigma2_mw / k)
    rates = np.minimum(w * np.log2(1.0 + sinr), w * eta)
    return rates, sinr
