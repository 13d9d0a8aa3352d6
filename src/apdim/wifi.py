"""CSMA/CA model: the contention matrix and SSI active-set sampling.

Wi-Fi and static reuse-K differ only in which APs transmit: every AP with a
user for static, the SSI active set for Wi-Fi, which both then score with
``planning.reuse_rates``. Only APs that currently have an associated user
take part in contention; an AP with nothing to send neither transmits nor
defers anyone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def contention_graph(
    channels: np.ndarray, g_ap_ap: np.ndarray, pt_mw: float, cs_thr_dbm: float
) -> np.ndarray:
    """Contention adjacency over the contending APs: entry (i, x) iff they contend.

    APs i, x contend iff they share a channel and g_ix * pt_mw exceeds the
    carrier-sense threshold ``cs_thr_dbm`` in mW (+inf disables sensing).
    ``channels`` and the square ``g_ap_ap`` (instantaneous power gains,
    assumed reciprocal so the relation is symmetric), or each matrix of a
    stack of them, cover the same APs in the same order. No AP contends with
    itself.
    """
    adjacency = g_ap_ap * pt_mw > 10.0 ** (cs_thr_dbm / 10.0)
    adjacency &= channels[:, None] == channels[None, :]
    diagonal = np.arange(channels.shape[0])
    adjacency[..., diagonal, diagonal] = False
    return adjacency


def sample_ssi(
    graphs: Sequence[np.ndarray], channels: np.ndarray, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Draw one visiting order and pack an active set on each of ``graphs``.

    ``graphs`` is a sequence (or stack) of (n, n) contention adjacencies over
    the same APs, such as one per carrier-sense threshold. The order visits
    channels 0..k-1 in turn and each channel's APs in a uniformly random
    order (one ``rng.permutation`` per channel, drawn once for every graph).
    On each adjacency, an AP is admitted iff it is not in the contention
    domain of any AP admitted so far: ``blocked`` is the running union of the
    admitted APs' adjacency columns, so AP i is blocked iff adjacency[i, j]
    holds for some admitted j. An adjacency must have no edges between APs of
    two channels in 0..k-1. An AP with any other channel value is never
    visited, so it takes no part. Returns, per adjacency, the admitted positions: an
    independent and maximal set, channel by channel and ascending within a
    channel; each equals a draw on that adjacency alone from the same state.
    """
    by_channel = np.argsort(channels, kind="stable")
    bounds = np.searchsorted(channels[by_channel], np.arange(k + 1)).tolist()
    visits = [  # channel by channel
        by_channel[start:end][rng.permutation(end - start)].tolist()
        for start, end in zip(bounds, bounds[1:])
    ]
    active = []
    for adjacency in graphs:
        blocked = np.zeros(channels.shape[0], dtype=bool)
        admitted = []
        for members in visits:
            chosen = []
            for i in members:
                if not blocked[i]:
                    chosen.append(i)
                    blocked |= adjacency[:, i]
            admitted += sorted(chosen)
        active.append(np.array(admitted, dtype=np.intp))
    return active


def validate_active_set(adjacency: np.ndarray, active: np.ndarray) -> None:
    """Assert independence and maximality of an active set; raises AssertionError."""
    assert not adjacency[active[:, None], active].any(), "active set contains adjacent APs"
    inactive = np.ones(adjacency.shape[0], dtype=bool)
    inactive[active] = False
    blocked_by = adjacency[inactive][:, active]
    assert blocked_by.any(axis=1).all(), "inactive AP not blocked by any active AP"
