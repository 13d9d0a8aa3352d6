"""Frequency-planned pico-cellular rates: full-buffer downlink, reuse-K SINR."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .planning import ChannelAssignment


@dataclass(frozen=True)
class StaticParams:
    eta_sta: float  # max link spectral efficiency, bps/Hz
    pt_mw: float

    def __post_init__(self):
        if self.eta_sta <= 0:
            raise ValueError(f"eta_sta must be > 0, got {self.eta_sta}")
        if self.pt_mw <= 0:
            raise ValueError(f"pt_mw must be > 0, got {self.pt_mw}")


def static_rates(
    assignments: Sequence[ChannelAssignment],
    serving_aps: np.ndarray,
    gains: np.ndarray,
    params: StaticParams,
    w_total_mhz: float,
    sigma2_mw: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rate (Mbps) and SINR under static reuse-K planning, per plan.

    Returns (rates, sinr), each (n_plans, n_served) with one row per
    assignment, all scored on the same gains. Every AP with traffic transmits
    in every snapshot (full buffer), so the interference at a served user sums
    over all co-channel transmitters except the serving AP. Each link uses w = W / K and sees noise
    sigma2 / K; the rate clamps at R_max = w * eta_sta.

    ``gains`` holds AP-to-user power gains with one column per served user,
    aligned with ``serving_aps`` (column i belongs to the user served by
    serving_aps[i]).
    """
    rx = gains[serving_aps] * params.pt_mw  # rx[j, i]: power from serving AP j at user i
    signal = np.diag(rx)
    channels = np.array([a.channel_of[serving_aps] for a in assignments])
    co_channel = channels[:, :, None] == channels[:, None, :]
    # Summed over transmitters in ascending order; the exact zeros of other
    # channels leave each co-channel sum bit-identical to a per-channel sum.
    interference = (rx * co_channel).sum(axis=1) - signal
    k = np.array([[a.k] for a in assignments], dtype=float)
    w = w_total_mhz / k
    sinr = signal / (interference + sigma2_mw / k)
    rates = np.minimum(w * np.log2(1.0 + sinr), w * params.eta_sta)
    return rates, sinr
