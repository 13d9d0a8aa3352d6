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


def reuse_rates(
    rx: np.ndarray,
    channels: np.ndarray,
    k: float | np.ndarray,
    eta: float,
    w_total_mhz: float,
    sigma2_mw: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link rate (Mbps) and SINR when the transmitters of ``rx`` all send at once.

    ``rx[..., j, i]`` is the power of transmitter j at transmitter i's user
    and ``channels[..., j]`` is transmitter j's channel on a plan of ``k``
    channels. Leading axes broadcast: a plan axis of ``channels`` with ``k``
    of shape (n_plans, 1), a stack of ``rx`` (one plan takes 1-D channels and
    a scalar k). The other co-channel transmitters interfere with each user;
    each link uses w = W / K, sees noise sigma2 / K, and its rate clamps at
    w * eta.

    The interference is summed over transmitters in ascending order; the exact
    zeros of other channels, and of rows of transmitters that stay silent,
    leave each co-channel sum bit-identical to a per-channel sum over the
    transmitting APs, and every row of a stack to a call on its own.
    """
    signal = np.diagonal(rx, axis1=-2, axis2=-1)
    co_channel = channels[..., :, None] == channels[..., None, :]
    interference = (rx * co_channel).sum(axis=-2) - signal
    w = w_total_mhz / k
    sinr = signal / (interference + sigma2_mw / k)
    rates = np.minimum(w * np.log2(1.0 + sinr), w * eta)
    return rates, sinr
