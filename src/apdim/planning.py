"""Frequency planning: greedy min-interference channel assignment.

The same assignment heuristic serves both the Wi-Fi channelization and the
static-cellular reuse plan; planning is done once per deployment on average
path gains, never per fading snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def assign_channels(l_ap_ap: np.ndarray, k: int, rng: np.random.Generator) -> ChannelAssignment:
    """Greedy assignment: visit APs in random order, pick the least-interfered channel.

    Each visited AP gets the channel minimizing the aggregate average
    interference sum(L_ij) over already-assigned co-channel APs j (the common
    transmit power scales all candidates equally and is omitted). Ties break
    toward the lowest channel index, so empty channels fill first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = l_ap_ap.shape[0]
    channel_of = np.full(n, -1, dtype=np.int64)
    aggregate = np.zeros((n, k))  # aggregate[i, c]: avg interference at AP i from channel c
    for i in rng.permutation(n):
        c = int(np.argmin(aggregate[i]))
        channel_of[i] = c
        # Also adds AP i's own (unused) diagonal entry to row i, which is
        # never read again: each AP is visited once.
        aggregate[:, c] += l_ap_ap[i]
    return ChannelAssignment(k=k, channel_of=channel_of)
