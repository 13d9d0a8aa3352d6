"""Snapshot Monte-Carlo engine: user drops, association, per-system evaluation,
estimates with confidence intervals, demand conversion, and the AP-count search.

Determinism contract: every snapshot derives its own generator from
(master_seed, deployment_id, snapshot_index) and draws along one tree
(``Block``), so a system's results depend neither on the evaluation order,
nor on which other systems share the rung's one snapshot pass, nor on how
``run_rung`` cuts the pass into blocks, nor on which process ``dimension``
runs a rung in.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import channel as ch
from . import planning, wifi, zf
from .geometry import Layout, ServiceArea, grid_ladder, place_aps, wall_positions

Z95 = 1.959963984540054

# Mbps/user -> GB/month/user at 100% busy-hour fraction:
# /8 bits per byte, /1024 MB per GB, x3600 busy seconds per day, x30 days.
C0_GB_MONTH_PER_MBPS = (1.0 / 1024.0) * (1.0 / 8.0) * 3600.0 * 30.0

_SALT_SNAPSHOT = 1
_SALT_PLANNING = 2

MAX_REDRAWS_PER_SNAPSHOT = 100

# Association by ranking costs (associate_candidates): the relative gap between a
# user's two best costs below which the exact gains decide, and the largest
# loss at which exact gains keep the precision that gap assumes.
RANK_RTOL = 1e-12
RANKED_LOSS_DB_MAX = 1000.0

SYSTEMS = ("wifi-baseline", "wifi-aggressive", "static", "zf-ideal", "zf-erroneous")


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent deterministic generator for one (seed, key...) coordinate."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# Demand conversion
# ---------------------------------------------------------------------------


def throughput_to_demand(mu_mbps_per_user: float, traffic) -> float:
    """Busy-hour per-user throughput (Mbps) -> monthly demand (GB/month/user).

    ``traffic`` is a scenario's ``traffic`` section; its ``omega`` is read.
    """
    if mu_mbps_per_user < 0:
        raise ValueError(f"mu must be >= 0, got {mu_mbps_per_user}")
    return C0_GB_MONTH_PER_MBPS / traffic.omega * mu_mbps_per_user


def demand_to_throughput(demand_gb_month: float, traffic) -> float:
    """Inverse of throughput_to_demand."""
    return demand_gb_month * traffic.omega / C0_GB_MONTH_PER_MBPS


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a 95% confidence interval."""

    mean: float
    count: int
    ci_low: float
    ci_high: float


def normal_estimate(samples) -> Estimate:
    """Sample mean with a normal-approximation interval (degenerate at n = 1)."""
    (estimate,) = normal_estimates(np.asarray(samples, dtype=float).reshape(1, -1))
    return estimate


def normal_estimates(rows: np.ndarray) -> list[Estimate]:
    """``normal_estimate`` of each row of ``rows``, with one ``mean`` and one ``std`` call.

    Both reduce along contiguous rows, each with the pairwise sum of a row on
    its own, so every estimate equals that of its row alone bit for bit.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    n = rows.shape[1]
    if n < 1:
        raise ValueError("need at least one sample")
    means = rows.mean(axis=1).tolist()
    hws = (Z95 * rows.std(axis=1, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [0.0] * len(means)
    return [Estimate(mean=mean, count=n, ci_low=mean - hw, ci_high=mean + hw)
            for mean, hw in zip(means, hws)]


def wilson_estimate(successes: int, trials: int) -> Estimate:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    hw = Z95 / denom * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # Clamped so that ci_low <= p <= ci_high holds exactly; rounding in
    # center -/+ hw would otherwise leave e.g. ci_low ~1e-20 above p = 0.
    return Estimate(
        mean=p,
        count=trials,
        ci_low=min(p, max(0.0, center - hw)),
        ci_high=max(p, min(1.0, center + hw)),
    )


# ---------------------------------------------------------------------------
# Snapshot building blocks
# ---------------------------------------------------------------------------


def drop_users(area: ServiceArea, count: int, rng: np.random.Generator) -> np.ndarray:
    """count i.i.d. uniform user positions in the area, (count, 2)."""
    return rng.random((count, 2)) * np.array([area.lx, area.ly])


def associate(avg_gains: np.ndarray) -> np.ndarray:
    """Attach each user to the AP with the highest average gain (lowest index on ties)."""
    return np.argmax(avg_gains, axis=0)


# An AP is a candidate for a raster cell when its smallest cost over the cell
# is at most (1 + CANDIDATE_MARGIN) times the smallest of every AP's largest
# cost over it. The margin lies far above RANK_RTOL and the rounding of costs.
CANDIDATE_MARGIN = 1e-9
# Cell-AP pairs bounded at once, which keeps each temporary of the table's
# build to 32 KB at any AP count.
_BOUND_BLOCK_PAIRS = 4096


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """The APs that can be a user's best in each cell of a raster over one layout.

    Per axis, the raster lines (``lines``) are the area's edges, the unique
    AP coordinates, the midpoints between neighbouring ones and the wall
    lines. No wall lies inside a cell, so every user strictly inside a cell
    crosses the same walls to a given AP. Cells are numbered row-major, y
    outer. Column c of ``aps`` lists cell c's candidates in ascending index,
    padded to a common height; ``x`` and ``y`` are their coordinates and
    ``factor`` their wall factors from inside the cell, inf on padding.
    """

    area: ServiceArea
    prop: ch.PropagationParams
    ap_xy: np.ndarray
    lines: tuple[np.ndarray, np.ndarray]
    aps: np.ndarray  # (height, n_cells), as are x, y and factor
    x: np.ndarray
    y: np.ndarray
    factor: np.ndarray
    buckets: tuple[tuple, tuple]  # per axis, from _raster_buckets
    # the best costs that associate_candidates ranks: strictly inside the
    # RANKED_LOSS_DB_MAX band, so a cost out of it is re-ranked exactly
    ranked_costs: tuple[float, float]

    def locate(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each user's cell, and whether it lies on a raster line or off the raster.

        Per axis, the user's uniform bucket gives a lower bound on its
        interval i, which at most ``steps`` steps past each interval's end
        raise to the one with lines[i] <= u < lines[i + 1] (the last interval
        for u at or beyond the far edge, the first below the near one).
        """
        cell, off = 0, False
        for axis in (1, 0):  # y outer
            lines, u = self.lines[axis], users[:, axis]
            scale, first, ends, steps = self.buckets[axis]
            bucket = np.subtract(u, lines[0])
            bucket *= scale
            np.clip(bucket, 0, first.size - 1, out=bucket)
            i = first[bucket.astype(np.intp)]
            for _ in range(steps):
                i += u >= ends[i]
            off = off | (lines[i] >= u) | (u >= lines[-1])
            cell = cell * (lines.size - 1) + i
        return cell, off


def candidate_table(area: ServiceArea, prop: ch.PropagationParams, ap_xy) -> CandidateTable:
    """Bound every AP's cost over every raster cell and keep each cell's candidates.

    The lower bound is the cost at the cell's nearest point to the AP, the
    upper bound that at its farthest corner, both with the walls crossed
    from the cell's inside. Both are ``ch.association_cost`` of a point of
    the closed cell, whose every step rounds monotonically, so they bound
    the cost of every user strictly inside the cell. Every non-candidate of
    such a user's cell then costs more than (1 + CANDIDATE_MARGIN) times the
    user's best cost. Bounds are taken for a block of cells at a time.
    """
    ap_xy = np.atleast_2d(np.asarray(ap_xy, dtype=float))
    axes = [_raster_axis(extent, walls, c) for extent, walls, c in
            zip((area.lx, area.ly), wall_positions(area), ap_xy.T)]
    (lines_x, near2_x, far2_x, cross_x), (lines_y, near2_y, far2_y, cross_y) = axes
    # (y interval, x interval, AP) for a block of y intervals at a time
    wall_factor = ch.wall_factors(area, prop)
    n_aps = ap_xy.shape[0]
    step = max(1, _BOUND_BLOCK_PAIRS // far2_x.size)
    blocks, kept_factors = [], []
    for start in range(0, lines_y.size - 1, step):
        rows = slice(start, start + step)
        factor = wall_factor[cross_y[rows, None] + cross_x]
        bound = ch.association_cost(prop, far2_y[rows, None] + far2_x, factor)
        threshold = bound.min(axis=2, keepdims=True) * (1.0 + CANDIDATE_MARGIN)
        np.add(near2_y[rows, None], near2_x, out=bound)
        block = ch.association_cost(prop, bound, factor) <= threshold
        blocks.append(block.reshape(-1, n_aps))
        kept_factors.append(factor[block])
    is_candidate = np.concatenate(blocks)
    counts = is_candidate.sum(axis=1)
    cells, aps = np.nonzero(is_candidate)  # by cell, then ascending AP
    slots = np.arange(cells.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.zeros((counts.max(), counts.size), dtype=np.intp)
    table[slots, cells] = aps
    table_factor = np.full(table.shape, np.inf)
    table_factor[slots, cells] = np.concatenate(kept_factors)
    # The costs whose loss L0 + 10 log10(cost) lies within RANKED_LOSS_DB_MAX,
    # narrowed by far more than that sum's rounding and kept to normal floats.
    with np.errstate(over="ignore", under="ignore"):
        lo, hi = 10.0 ** ((np.array([-RANKED_LOSS_DB_MAX, RANKED_LOSS_DB_MAX]) - prop.l0_db) / 10.0)
    finite = np.finfo(float)
    ranked_costs = (max(lo * (1.0 + 1e-9), finite.tiny), min(hi * (1.0 - 1e-9), finite.max))
    return CandidateTable(
        area=area,
        prop=prop,
        ap_xy=ap_xy,
        lines=(lines_x, lines_y),
        aps=table,
        x=ap_xy[table, 0],
        y=ap_xy[table, 1],
        factor=table_factor,
        buckets=(_raster_buckets(lines_x), _raster_buckets(lines_y)),
        ranked_costs=ranked_costs,
    )


def _raster_axis(extent: float, walls: np.ndarray, c: np.ndarray) -> tuple:
    """One axis of ``candidate_table``'s raster, for AP coordinates ``c``.

    Returns the raster lines and, per (interval, AP), the squared distances
    to the interval's nearest and farthest point and the walls crossed from
    its inside. Those walls follow ``geometry.crossing_counts``' rule, with
    the inside ranked as a point just above the interval's lower line.
    """
    # a few hundred values at most; np.unique would import numpy.ma (0.6 MB)
    u = sorted(set(c.tolist()))
    mid = [0.5 * (a + b) for a, b in zip(u, u[1:])]
    lines = np.array(sorted({0.0, extent, *u, *mid, *walls.tolist()}))
    lo, hi = lines[:-1, None], lines[1:, None]
    near = c - np.minimum(np.maximum(c, lo), hi)
    to_lo, to_hi = c - lo, c - hi
    far = np.where(np.abs(to_lo) >= np.abs(to_hi), to_lo, to_hi)
    rank = np.searchsorted(walls, lo, side="right")
    cross = np.maximum(rank, np.searchsorted(walls, c, side="left"))
    cross -= np.minimum(rank, np.searchsorted(walls, c, side="right"))
    return lines, near * near, far * far, cross


# Uniform buckets per raster interval in CandidateTable.locate: enough that no
# bucket on either preset's ladder to 100 APs holds more than one raster line,
# so one step finds each user's interval.
_BUCKETS_PER_INTERVAL = 8


def _raster_buckets(lines: np.ndarray) -> tuple:
    """``CandidateTable.locate``'s uniform buckets over one axis's raster ``lines``.

    Returns (scale, first, ends, steps). A coordinate u falls in bucket
    floor((u - lines[0]) * scale), clipped to the buckets; first[j] counts
    the interior lines at or below every u of bucket j, and at most
    ``steps`` more lie at or below any of them. ends[i] = lines[i + 1] ends
    interval i, except the last, which never ends: no u compares >= NaN.
    Each bucket's range is widened by a millionth of a bucket, far above the
    rounding of u's bucket.
    """
    interior, n = lines[1:-1], _BUCKETS_PER_INTERVAL * (lines.size - 1)
    width = (lines[-1] - lines[0]) / n
    edges = lines[0] + width * np.arange(n + 1)
    first = np.searchsorted(interior, edges[:-1] - 1e-6 * width, side="right")
    last = np.searchsorted(interior, edges[1:] + 1e-6 * width, side="right")
    last[-1] = interior.size  # the last bucket also takes every u beyond it
    ends = np.append(interior, np.nan)
    return 1.0 / width, first, ends, int((last - first).max())


def associate_candidates(table: CandidateTable, users: np.ndarray) -> np.ndarray:
    """``associate(ch.average_gains(...))`` of ``users`` on the table's layout.

    Each user is ranked by ``ch.association_cost`` over its cell's
    candidates only; the APs left out all cost more than (1 +
    CANDIDATE_MARGIN) times its best, so the best and any near tie are among
    them. The costs order APs as the exact gains do up to rounding of about
    1e-14 relative. A user with a second cost within RANK_RTOL of its best
    is re-ranked with the exact gains over every AP, and so is one whose
    best cost lies outside ``table.ranked_costs``, whose loss may be beyond
    RANKED_LOSS_DB_MAX (where exact gains lose that precision, or round to 0
    or inf and tie), and one that ``locate`` finds on a raster line or off
    the raster.
    """
    users = np.asarray(users, dtype=float)
    cell, exact = table.locate(users)
    dx = np.take(table.x, cell, axis=1)
    dx -= users[:, 0]
    dy = np.take(table.y, cell, axis=1)
    dy -= users[:, 1]
    cost = np.multiply(dx, dx, out=dx)
    cost += np.multiply(dy, dy, out=dy)
    # The wall factors reuse dy's buffer, which keeps the (height, n_users)
    # temporaries to three as a block of snapshots associates many users.
    factor = np.take(table.factor, cell, axis=1, out=dy, mode="clip")  # cells are in range
    ch.association_cost(table.prop, cost, factor)
    best_cost = cost.min(axis=0)
    is_best = cost <= best_cost * (1.0 + RANK_RTOL)
    del dx, dy, cost, factor
    exact |= is_best.sum(axis=0) > 1
    lo, hi = table.ranked_costs
    exact |= (best_cost < lo) | ~(best_cost <= hi)  # NaN is re-ranked too
    # the one AP within RANK_RTOL of the best cost, where no other is
    best = np.take(table.aps, cell, axis=1)
    best = np.multiply(best, is_best, out=best).sum(axis=0)
    if exact.any():
        best[exact] = associate(
            ch.average_gains(table.area, table.prop, table.ap_xy, users[exact])
        )
    return best


def select_served(
    assoc: np.ndarray, n_aps: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One uniformly chosen user per AP that has any, for each snapshot of a block.

    Row b of ``assoc`` (n_snapshots, n_users) is snapshot b's association,
    and ``rngs[b]`` makes its draw. Returns (serving, cols, starts): the APs
    with a user and the flat index (b * n_users + user) of the user each one
    serves, snapshot by snapshot and in AP order within one; snapshot b's
    entries are [starts[b], starts[b + 1]).
    """
    n_snapshots = assoc.shape[0]
    keys = (assoc + n_aps * np.arange(n_snapshots)[:, None]).ravel()  # (snapshot, AP)
    # the same permutation; numpy radix-sorts keys of 8 and 16 bits
    order = np.argsort(keys.astype(np.min_scalar_type(n_snapshots * n_aps - 1)), kind="stable")
    counts = np.bincount(keys, minlength=n_snapshots * n_aps)
    slots = np.flatnonzero(counts)
    firsts = (np.cumsum(counts) - counts)[slots]
    counts = counts[slots]
    starts = np.searchsorted(slots, n_aps * np.arange(n_snapshots + 1))
    # one draw over an array of bounds equals one rng.integers(m) per AP in order
    picks = [rng.integers(counts[lo:hi]) for rng, lo, hi in zip(rngs, starts, starts[1:])]
    return slots % n_aps, order[firsts + np.concatenate(picks)], starts


@dataclass(frozen=True, eq=False)
class Tally:
    """Every scorer's result on consecutive snapshots b and plans p (static's reuse
    numbers, else one): rate sums (Mbps), users below gamma_t, users counted,
    and ZF's singular-channel redraws and unconverged power solves."""

    rate_sums: np.ndarray  # (n_snapshots, n_plans)
    hits: np.ndarray  # (n_snapshots, n_plans)
    served: np.ndarray  # (n_snapshots,)
    redraws: np.ndarray  # (n_snapshots,)
    solver_fallbacks: np.ndarray  # (n_snapshots,)


def _tally(ctx, rates: np.ndarray, sinr: np.ndarray, starts: np.ndarray, **zf_counts) -> Tally:
    """Tally per-user (n_plans, n_users) ``rates`` and ``sinr``, snapshot b's in the
    columns [starts[b], starts[b + 1]). Each rate sum is the ``.sum`` of one
    contiguous row segment, pairwise as over that snapshot's row alone."""
    rate_sums = np.array([rates[:, lo:hi].sum(axis=1) for lo, hi in zip(starts, starts[1:])])
    below = np.zeros((sinr.shape[0], sinr.shape[1] + 1), dtype=np.intp)
    np.cumsum(sinr < ctx.scn.gamma_t_linear, axis=1, out=below[:, 1:])
    zeros = np.zeros(len(starts) - 1, dtype=np.intp)
    counts = {"redraws": zeros, "solver_fallbacks": zeros, **zf_counts}
    return Tally(rate_sums, np.diff(below[:, starts], axis=1).T, np.diff(starts), **counts)


@dataclass(frozen=True, eq=False)
class DeploymentContext:
    """One layout and what is built from it once, shared by every system evaluated on it.

    ``scn`` is the validated Scenario (see apdim.scenario), the one holder of
    the run's parameters; every system reads them from it. The other fields
    come from the layout.
    """

    scn: object
    layout: Layout
    l_ap_ap: np.ndarray  # average AP-to-AP gains (diagonal unused)
    candidates: CandidateTable  # the layout's association candidates

    @property
    def n_aps(self) -> int:
        return self.layout.n_aps


def make_context(scn, layout: Layout) -> DeploymentContext:
    return DeploymentContext(
        scn=scn,
        layout=layout,
        l_ap_ap=ch.average_gains(scn.area, scn.propagation, layout.ap_xy, layout.ap_xy),
        candidates=candidate_table(scn.area, scn.propagation, layout.ap_xy),
    )


@dataclass(frozen=True, eq=False)
class Block:
    """Consecutive snapshots' shared prefix and shared fading, all drawn by ``draw_block``.

    Snapshot b draws only from ``rngs[b]``, along one tree. Its prefix
    (user drop, association, selection) ends at S0, saved in ``s0[b]``.
    From there:

    - the faded AP-to-user gains, which static and both Wi-Fi systems read
      in ``rx``, are drawn from S0, leaving S1;
    - the AP-to-AP fading, which both Wi-Fi systems read in ``g_ap_ap``, is
      drawn from S1, leaving S2, where ``rngs[b]`` is left: the one SSI
      visiting order, which both Wi-Fi systems pack at their own
      thresholds, starts there;
    - the one ZF pass, shared by both CSIT models, sets ``rngs[b]`` back to
      S0 (``zf_block``): the CSIT fading until the precoder is accepted,
      then the delayed CSIT if erroneous CSIT is scored.

    A shared draw is made only if a system that reads it runs, and is None
    otherwise. Every system thus consumes random numbers exactly as if it
    ran alone, and every snapshot as if it were a block of its own, so
    results depend neither on which other systems share the snapshot nor on
    the block. ``rx`` and ``g_ap_ap`` are read-only.
    """

    serving: np.ndarray  # the APs with a user, snapshot by snapshot and ascending within one
    starts: np.ndarray  # snapshot b's are serving[starts[b]:starts[b + 1]]
    snapshot: np.ndarray  # snapshot[c]: the snapshot of serving[c]
    has_user: np.ndarray  # (size, n_aps); [b, j]: AP j serves in snapshot b
    # Average gains to the scheduled users, (n_aps, n_served); column c
    # belongs to the user of serving[c].
    served_gains: np.ndarray
    rx: Optional[np.ndarray]  # from draw_received_powers, if static or Wi-Fi runs
    g_ap_ap: Optional[np.ndarray]  # from draw_ap_gains, if Wi-Fi runs
    rngs: Sequence[np.random.Generator]
    s0: Sequence[dict]  # each generator's state at S0

    @property
    def size(self) -> int:
        return len(self.rngs)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def draw_received_powers(
    ctx: DeploymentContext, rngs: Sequence[np.random.Generator], serving: np.ndarray,
    starts: np.ndarray, served_gains: np.ndarray, has_user: np.ndarray,
) -> np.ndarray:
    """Received powers, (size, n_aps + 1, n_aps), drawn from each generator at S0, leaving S1.

    Entry [b, j, i] is AP j's power at the user that AP i serves in snapshot
    b: the average gain times |z|^2 of one complex fade per (AP, served
    user), times the transmit power. Rows and columns of the APs without a
    user in snapshot b are zero, and so is the last row, which pads
    ``planning.reuse_rates``' member lists.
    """
    n_aps, radio = ctx.n_aps, ctx.scn.radio
    rx = np.zeros((len(rngs), n_aps + 1, n_aps))
    for b, rng in enumerate(rngs):  # one snapshot's complex draw alive at a time
        cols = slice(starts[b], starts[b + 1])
        power = np.abs(ch.draw_fading(rng, (n_aps, cols.stop - cols.start), radio.sigma_z2))
        power = np.multiply(power, power, out=power)
        power = np.multiply(served_gains[:, cols], power, out=power)
        rx[b, :n_aps, serving[cols]] = np.multiply(power, radio.pt_mw, out=power).T
    rx[:, :n_aps][~has_user] = 0.0
    return _read_only(rx)


def draw_ap_gains(ctx: DeploymentContext, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(size, n_aps, n_aps) AP-to-AP power gains, drawn from each generator at S1, leaving S2.

    The links are reciprocal: snapshot b draws one complex fade per AP pair
    above the diagonal, in row-major order, and both directions of a pair
    read its power |z|^2; the diagonal is zero. The average gains
    ``l_ap_ap`` are symmetric bit for bit, so the gains are too.
    """
    n_aps, sigma_z2 = ctx.n_aps, ctx.scn.radio.sigma_z2
    upper = ~np.tri(n_aps, dtype=bool)
    n_pairs = n_aps * (n_aps - 1) // 2
    g = np.zeros((len(rngs), n_aps, n_aps))
    for b, rng in enumerate(rngs):
        if n_pairs:  # a lone AP has no link to draw
            power = np.abs(ch.draw_fading(rng, n_pairs, sigma_z2))
            g[b][upper] = np.multiply(power, power, out=power)
    g += g.transpose(0, 2, 1)  # the lower triangle adds to zeros
    g *= ctx.l_ap_ap
    return _read_only(g)


def draw_block(
    ctx: DeploymentContext, rngs: Sequence[np.random.Generator], systems: Sequence[str]
) -> Block:
    """Drop, associate and schedule each snapshot's users, then draw the fading ``systems`` share.

    Snapshot b draws from ``rngs[b]`` in the order of ``Block``'s tree: its
    users and its selection, ending at S0; the faded AP-to-user gains
    (``draw_received_powers``) if static or a Wi-Fi system runs; the
    AP-to-AP fading (``draw_ap_gains``) if a Wi-Fi system runs. The block's
    users are associated in one ``associate_candidates`` call and their
    gains taken in one ``ch.average_gains`` call; both are elementwise over
    users, so every snapshot's association and gains equal those of a block
    of its own bit for bit. The returned block takes ``rngs`` over.
    """
    scn, size = ctx.scn, len(rngs)
    users = np.concatenate([drop_users(scn.area, scn.n_users, rng) for rng in rngs])
    assoc = associate_candidates(ctx.candidates, users).reshape(size, scn.n_users)
    serving, cols, starts = select_served(assoc, ctx.n_aps, rngs)
    served_gains = ch.average_gains(scn.area, scn.propagation, ctx.layout.ap_xy, users[cols])
    snapshot = np.repeat(np.arange(size), np.diff(starts))
    has_user = np.zeros((size, ctx.n_aps), dtype=bool)
    has_user[snapshot, serving] = True
    s0 = [rng.bit_generator.state for rng in rngs]
    wifi_runs = any(system.startswith("wifi-") for system in systems)
    rx = g_ap_ap = None
    if wifi_runs or "static" in systems:
        rx = draw_received_powers(ctx, rngs, serving, starts, served_gains, has_user)
    if wifi_runs:
        g_ap_ap = draw_ap_gains(ctx, rngs)
    return Block(serving, starts, snapshot, has_user, served_gains, rx, g_ap_ap, rngs, s0)


def wifi_block(
    ctx: DeploymentContext,
    block: Block,
    thresholds: Sequence[float],
    assignment: planning.ChannelAssignment,
    members: np.ndarray,
) -> list[Tally]:
    """Wi-Fi epochs, one per snapshot and carrier-sense threshold, scored by static's reuse rule.

    At each threshold (dBm) the serving APs contend (``wifi.contention_graph``
    over ``block.g_ap_ap``). One SSI visiting order per snapshot, drawn on
    the assignment's K^wifi channels from the snapshot's generator where
    ``draw_block`` left it, at S2, is packed on every threshold's graph
    (``wifi.sample_ssi``) into that snapshot's active sets, channel by
    channel; the APs without a user take no part. The active APs then
    transmit as every serving AP does under static reuse: one
    ``planning.reuse_rates`` call on the assignment's member table
    (``members``) scores every threshold and snapshot on ``block.rx`` with
    the rows of the APs that do not transmit zeroed, so only the other
    active co-channel APs interfere. Returns one ``Tally`` per threshold over
    the active APs' users, each snapshot's summed in active-set order.
    """
    scn, channel_of, k = ctx.scn, assignment.channel_of, assignment.k
    # channel -1 keeps the APs without a user out of the SSI draw
    channels = np.where(block.has_user, channel_of, -1)
    graphs = [wifi.contention_graph(channel_of, block.g_ap_ap, scn.radio.pt_mw, cs_thr_dbm)
              for cs_thr_dbm in thresholds]
    drawn = [  # per snapshot, then per threshold
        wifi.sample_ssi([graph[b] for graph in graphs], channels[b], k, rng)
        for b, rng in enumerate(block.rngs)
    ]
    active = [aps for per_snapshot in zip(*drawn) for aps in per_snapshot]  # threshold outer
    sizes = [aps.size for aps in active]
    row, aps = np.repeat(np.arange(len(active)), sizes), np.concatenate(active)
    transmits = np.zeros((len(active), block.rx.shape[1]), dtype=bool)
    transmits[row, aps] = True
    rates, sinr = planning.reuse_rates(
        block.rx * transmits.reshape(len(thresholds), block.size, -1, 1), [members], [k],
        scn.wifi.eta_wifi, scn.radio.bandwidth_mhz, scn.sigma2_mw,
    )
    shape = (len(active), ctx.n_aps)
    rates, sinr = rates.reshape(shape)[row, aps], sinr.reshape(shape)[row, aps]
    starts = np.cumsum([0] + sizes)  # (threshold, snapshot) t * size + b owns a segment
    return [_tally(ctx, rates[None], sinr[None], starts[first:first + block.size + 1])
            for first in range(0, len(active), block.size)]


def static_block(
    ctx: DeploymentContext,
    block: Block,
    assignments: Sequence[planning.ChannelAssignment],
    members: Sequence[np.ndarray],
) -> Tally:
    """Full-buffer frequency-planned cellular snapshots, one plan per reuse number.

    Every AP with traffic transmits in every snapshot, so each served user's
    interference sums over all co-channel serving APs: one
    ``planning.reuse_rates`` call, on each plan's member table
    (``members[p]`` for ``assignments[p]``), scores every plan of every
    snapshot on ``block.rx``, whose rows of the APs without a user are
    zero. Every plan is scored on the same fading draw.
    """
    scn = ctx.scn
    rates, sinr = planning.reuse_rates(
        block.rx, members, [a.k for a in assignments],
        scn.static.eta_sta, scn.radio.bandwidth_mhz, scn.sigma2_mw,
    )
    # contiguous (n_plans, n_served) rows: each snapshot's rate sum is pairwise
    rates = np.ascontiguousarray(rates[block.snapshot, :, block.serving].T)
    return _tally(ctx, rates, sinr[block.snapshot, :, block.serving].T, block.starts)


def zf_block(ctx: DeploymentContext, block: Block, erroneous: bool) -> dict[str, Tally]:
    """Multi-cell ZF on every snapshot of ``block``, one pass for both CSIT models.

    The snapshots of each size n run one pipeline on (k, n, n) stacks. Each
    generator is set back to S0, so a second pass repeats the first, and
    draws its CSIT fading; the stack is inverted at once
    (``zf.build_beamformers``). A near-singular draw is replaced by a fresh
    one from the snapshot's own generator, inverted alone, up to
    MAX_REDRAWS_PER_SNAPSHOT times. With ``erroneous`` set, the accepted
    CSIT is then evolved past the feedback delay (``ch.delayed_csit``,
    per-link outdated with the scenario's probability ``zf.delta`` and
    correlation ``zf.rho``) into the true channel. One ``zf.allocate_powers``
    call optimizes the stack's PAPC powers, each as on its own, and
    erroneous CSIT is scored on the stack; the powers, rates, SINR and
    fallbacks go into the block's per-user and per-snapshot arrays, and
    ideal CSIT is scored on the block's powers at once. Returns
    {"zf-ideal": tally, "zf-erroneous": tally}, the latter if ``erroneous``.
    """
    scn = ctx.scn
    w_mhz, sigma2, eta_zf = scn.radio.bandwidth_mhz, scn.sigma2_mw, scn.zf.eta_zf
    sigma_z2 = scn.radio.sigma_z2
    sizes = np.diff(block.starts)
    p_mw = np.empty(block.serving.size)
    rates, sinr = np.empty_like(p_mw), np.empty_like(p_mw)  # erroneous CSIT's
    redraws = np.zeros(block.size, dtype=np.intp)
    fallbacks = np.zeros(block.size, dtype=np.intp)
    for n in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == n)
        cols = block.starts[members][:, None] + np.arange(n)  # (k, n): each member's users
        # sqrt_l[m, j, i]: user j's amplitude gain from antenna i, the AP of user i
        sqrt_l = np.sqrt(block.served_gains[block.serving[cols][:, None, :], cols[:, :, None]])
        z = np.empty(sqrt_l.shape, dtype=complex)
        for m, b in enumerate(members):
            block.rngs[b].bit_generator.state = block.s0[b]
            z[m] = ch.draw_fading(block.rngs[b], (n, n), sigma_z2)
        w, accepted = zf.build_beamformers(sqrt_l * z)
        for m in np.flatnonzero(~accepted):
            b = members[m]
            while not accepted[m]:  # the snapshot's generator alone redraws it
                redraws[b] += 1
                if redraws[b] > MAX_REDRAWS_PER_SNAPSHOT:
                    raise RuntimeError(
                        f"snapshot exceeded {MAX_REDRAWS_PER_SNAPSHOT} singular-channel redraws"
                    )
                z[m] = ch.draw_fading(block.rngs[b], (n, n), sigma_z2)
                (w[m],), (accepted[m],) = zf.build_beamformers((sqrt_l[m] * z[m])[None])
        alloc = zf.allocate_powers(w, sigma2, scn.radio.pt_mw, eta_zf)
        p_mw[cols] = alloc.p_mw
        fallbacks[members] = ~alloc.converged
        if erroneous:  # z moves on to the fading past the delay
            for m, b in enumerate(members):
                z[m] = ch.delayed_csit(z[m], scn.zf.delta, scn.zf.rho, block.rngs[b], sigma_z2)
            rates[cols], sinr[cols] = zf.zf_rates_erroneous(
                sqrt_l * z, w, alloc.p_mw, w_mhz, sigma2, eta_zf
            )
    scores = {"zf-ideal": zf.zf_rates_ideal(p_mw, w_mhz, sigma2, eta_zf)}
    if erroneous:
        scores["zf-erroneous"] = rates, sinr
    return {system: _tally(ctx, rates[None], sinr[None], block.starts,
                           redraws=redraws, solver_fallbacks=fallbacks)
            for system, (rates, sinr) in scores.items()}


# ---------------------------------------------------------------------------
# Monte-Carlo runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DeploymentRecord:
    """One (deployment, system, K) evaluation, ready for a result row."""

    system: str
    nx: int
    ny: int
    ap_count: int
    ap_density_per_km2: float
    k_channels: Optional[int]  # K^wifi, static's K, or None (ZF / static with no feasible K)
    outage_feasible: bool  # upper 95% bound of outage < beta
    lambda_s: Estimate
    outage: Estimate
    mu_mbps_per_user: float
    demand_gb_month: float  # demand this deployment can carry
    n_snapshots: int
    served_samples: int
    zf_redraws: int
    solver_fallbacks: int


def outage_feasible(outage: Estimate, beta: float) -> bool:
    """The one feasibility rule: the upper 95% bound of the outage is below beta."""
    return bool(outage.ci_high < beta)


def _aggregate(
    ctx: DeploymentContext, system: str, ks: Sequence[Optional[int]], tallies: Sequence[Tally]
) -> dict:
    """{k: DeploymentRecord} from a system's tallies in snapshot order, one plan per k."""
    scn, layout = ctx.scn, ctx.layout
    rate_sums = np.concatenate([t.rate_sums for t in tallies])  # (snapshot, plan)
    hits = np.concatenate([t.hits for t in tallies]).sum(axis=0)  # per plan
    served_total = int(sum(t.served.sum() for t in tallies))
    redraws = int(sum(t.redraws.sum() for t in tallies))
    solver_fallbacks = int(sum(t.solver_fallbacks.sum() for t in tallies))
    records = {}
    lambdas = normal_estimates(np.ascontiguousarray(rate_sums.T) / scn.area.area_km2)
    for k, lambda_s, plan_hits in zip(ks, lambdas, hits, strict=True):
        outage = wilson_estimate(int(plan_hits), served_total)
        mu = lambda_s.mean / scn.traffic.lambda_u_per_km2
        records[k] = DeploymentRecord(
            system=system,
            nx=layout.nx,
            ny=layout.ny,
            ap_count=layout.n_aps,
            ap_density_per_km2=layout.density_per_km2,
            k_channels=k,
            outage_feasible=outage_feasible(outage, scn.radio.beta),
            lambda_s=lambda_s,
            outage=outage,
            mu_mbps_per_user=mu,
            demand_gb_month=throughput_to_demand(max(mu, 0.0), scn.traffic),
            n_snapshots=rate_sums.shape[0],
            served_samples=served_total,
            zf_redraws=redraws,
            solver_fallbacks=solver_fallbacks,
        )
    return records


# ---------------------------------------------------------------------------
# Deployment evaluation and dimensioning
# ---------------------------------------------------------------------------


# Snapshots evaluated together (run_rung): one byte budget sizes a block, of
# at least one snapshot and at most the rung's. Counted in float
# (n_aps + 1, n_aps) stacks, a rung with Wi-Fi and static holds about six of
# its own (the average AP-to-AP gains and the member tables of twelve plans)
# and seven per snapshot of a block: the three arrays a Block holds (the
# served users' average gains, the received powers and the faded AP-to-AP
# gains), Wi-Fi's copy of the received powers at each of two thresholds, the
# gathered member lists, and one of headroom for the contention graphs and
# the temporaries of the draws. Association adds about 8 (3 height + 5)
# bytes per user of the block: associate_candidates' three (height,
# n_users) temporaries over the candidate table's height, and each user's
# coordinates, cell and best cost. A ZF snapshot of n <= n_aps users holds
# its amplitudes, CSIT fading, precoder and true channel, 56 n^2 bytes, about
# the seven stacks; the stacked inversion's and the power solve's
# temporaries come on top, so a ZF rung peaks within twice _BLOCK_BYTES.
# _block_size keeps the stacks and the association within _BLOCK_BYTES, and
# run_rung releases each block before it draws the next. At 1,000 users and
# a height of 4 that gives 12 snapshots up to 9 APs, 11 at 12 and 16, 10 at
# 20, 9 at 25, 8 at 30, 7 at 36, 6 at 42, 5 at 49, 4 at 56 and 64, 3 at 72,
# 2 at 81 and 90, and 1 at 100.
_BLOCK_BYTES = 1_700_000


def _block_size(ctx: DeploymentContext) -> int:
    n_aps, scn = ctx.n_aps, ctx.scn
    stack = 8 * n_aps * (n_aps + 1)
    per_user = 8 * (3 * ctx.candidates.aps.shape[0] + 5)
    size = (_BLOCK_BYTES - 6 * stack) // (7 * stack + scn.n_users * per_user)
    return max(1, min(scn.engine.n_snapshots, size))


def run_rung(scn, layout: Layout, systems: Sequence[str], deployment_id: int) -> dict:
    """Run every system on one AP layout in one serial snapshot pass.

    Returns {system: {k: DeploymentRecord}}, one record per reuse number k:
    K^wifi for Wi-Fi, every K = 1..min(k_max, n_aps) for static in ascending
    order, and None for ZF. The AP-to-AP gains, every K's channel assignment
    (one lockstep ``planning.assign_channels`` call, each plan from its own
    substream) and every plan's co-channel member table are built once, and
    the systems share them.

    The scenario's ``engine.n_snapshots`` snapshots run in blocks of
    consecutive indices (``_block_size``), one after another in the calling
    process. Their work holds the GIL for most of its time, which no thread
    pool can share out, so ``dimension`` deals whole rungs to processes it
    forks for each round instead. Each snapshot draws from its own
    generator, derived from (seed, deployment_id, snapshot index), in the
    order a block of one would. Every system reads the one ``Block`` that ``draw_block`` makes,
    released before the next is drawn: static and both Wi-Fi systems make
    one rate call each per block (``static_block``, ``wifi_block``), and
    both ZF systems one pass with one power solve (``zf_block``). Every
    scorer returns a ``Tally`` whose sums are those of a block of one, so no
    byte depends on the blocks, and the rung keeps only tallies.

    ``scn`` is the validated Scenario (see apdim.scenario), held by the
    rung's ``DeploymentContext``; only its documented attributes are read,
    keeping this module independent of the config layer.
    """
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    seed = scn.engine.seed
    ctx = make_context(scn, layout)
    ks = dict.fromkeys(systems, [None])  # ZF reports on no channel count
    wifi_systems = [system for system in ks if system.startswith("wifi-")]
    if wifi_systems:
        thresholds = [
            scn.wifi.cs_thr_baseline_dbm if system == "wifi-baseline"
            else scn.wifi.cs_thr_aggressive_dbm
            for system in wifi_systems
        ]
        ks.update(dict.fromkeys(wifi_systems, [scn.wifi.k_wifi]))
    if "static" in ks:
        ks["static"] = list(range(1, min(scn.static.k_max, ctx.n_aps) + 1))
    reuse = sorted({k for system in ks for k in ks[system] if k is not None})
    plans, members = {}, {}
    if reuse:  # every reuse number's plan, each drawn from its own substream
        plan_rngs = [substream(seed, deployment_id, _SALT_PLANNING, k) for k in reuse]
        plans = dict(zip(reuse, planning.assign_channels(ctx.l_ap_ap, reuse, plan_rngs)))
        members = dict(zip(reuse, planning.co_channel_members(list(plans.values()))))
    erroneous = "zf-erroneous" in ks
    run_zf = erroneous or "zf-ideal" in ks
    tallies = defaultdict(list)  # per system, in snapshot order
    n_snapshots, size = scn.engine.n_snapshots, _block_size(ctx)
    for first in range(0, n_snapshots, size):
        indices = range(first, min(first + size, n_snapshots))
        rngs = [substream(seed, deployment_id, _SALT_SNAPSHOT, s) for s in indices]
        block = draw_block(ctx, rngs, systems)
        # Wi-Fi draws its SSI order from S2, where draw_block leaves each
        # generator; the ZF pass sets it back to S0, so it comes last.
        if wifi_systems:
            k = scn.wifi.k_wifi
            for system, tally in zip(wifi_systems, wifi_block(
                    ctx, block, thresholds, plans[k], members[k])):
                tallies[system].append(tally)
        if "static" in ks:
            static = ks["static"]
            tallies["static"].append(static_block(
                ctx, block, [plans[k] for k in static], [members[k] for k in static]))
        if run_zf:
            for system, tally in zf_block(ctx, block, erroneous).items():
                tallies[system].append(tally)
        del block  # released before the next block is drawn, as _block_size counts
    return {system: _aggregate(ctx, system, ks[system], tallies[system]) for system in ks}


def evaluate_rung(
    scn, layout: Layout, systems: Sequence[str], deployment_id: int
) -> list[DeploymentRecord]:
    """Evaluate each system on one AP layout; one record per system, in order.

    Each system reports its first feasible record in ascending K: for static
    that is K*, the smallest feasible reuse number. A static rung with no
    feasible K reports the K with the lowest mean outage (the smaller K on a
    tie) as a diagnostic, with ``k_channels`` None. Wi-Fi and ZF report
    their one record as it is.
    """
    records = []
    for system, per_k in run_rung(scn, layout, systems, deployment_id).items():
        rec = next((rec for rec in per_k.values() if rec.outage_feasible), None)
        if rec is None:
            # min keeps the first of a tie, the smaller K: per_k is in ascending K
            rec = min(per_k.values(), key=lambda rec: rec.outage.mean)
            if system == "static":
                rec = replace(rec, k_channels=None)
        records.append(rec)
    return records


@dataclass(frozen=True, eq=False)
class SystemDimensioning:
    records: tuple[DeploymentRecord, ...]
    # demand (GB/month/user) -> minimal feasible record, or None if infeasible up to cap
    minimums: dict


@dataclass(frozen=True, eq=False)
class DimensioningResult:
    demand_grid: tuple[float, ...]
    ladder: tuple[tuple[int, int], ...]
    per_system: dict
    workers: int = 1  # the processes a round's rungs are dealt to, the caller's included


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluate_ladder_rung(scn, ladder, rung_id: int, systems) -> list[DeploymentRecord]:
    nx, ny = ladder[rung_id]
    return evaluate_rung(scn, place_aps(scn.area, nx, ny), systems, rung_id)


def _evaluate_round(scn, ladder, rung_ids, systems, cpus) -> list[list[DeploymentRecord]]:
    """Each rung's ``evaluate_rung`` records, in the order of ``rung_ids``.

    The rungs are dealt largest first, round-robin, over the first
    min(len(cpus), len(rung_ids)) CPUs, the caller's share last, since the
    caller also reads the records and writes the outputs. With more than one
    share, ``os.fork`` starts one child per other CPU with its share in hand.
    The child pins itself to that CPU, evaluates its rungs, writes one
    pickled reply to its pipe (the share's records, or the exception it
    raised and its formatted traceback) and exits; it exits before its next
    rung if the caller has died. The caller pins itself to the first CPU,
    evaluates its own share, then reads the replies. Before the round returns
    or raises, the caller's mask is restored and every child reaped, after a
    kill if an exception is on its way out.
    """
    cpus = cpus[:len(rung_ids)]
    if len(cpus) < 2:
        return [_evaluate_ladder_rung(scn, ladder, rung_id, systems) for rung_id in rung_ids]
    import gc  # only a round on several processes loads it

    dealt = sorted(rung_ids, reverse=True)  # largest first: the ladder ascends
    shares = [dealt[i::len(cpus)] for i in range(len(cpus))]
    caller, mask, children = os.getpid(), os.sched_getaffinity(0), []  # (pid, reader, share)
    # Before the fork, numpy imports its random module, which every rung
    # reads, once rather than once per process, and the caller's objects
    # leave the cyclic collector's reach, so that no process's collections
    # write to (and so copy) the memory the processes share.
    np.random.default_rng  # noqa: B018 - the lazy import
    gc.freeze()
    try:
        for cpu, share in zip(cpus[1:], shares):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # a child never returns into the caller's stack
                code = 1
                try:
                    os.sched_setaffinity(0, {cpu})
                    try:
                        found = []
                        for rung_id in share:
                            if os.getppid() != caller:  # no one reads the reply
                                os._exit(code)
                            found.append(_evaluate_ladder_rung(scn, ladder, rung_id, systems))
                        reply = pickle.dumps(found)
                    except Exception as exc:  # noqa: BLE001 - handed to the caller, which raises it
                        import traceback

                        trace = traceback.format_exc()
                        try:
                            reply = pickle.dumps((exc, trace))
                            pickle.loads(reply)  # some exceptions pickle but do not load
                        except Exception:  # noqa: BLE001 - the type and message still go
                            reply = pickle.dumps(
                                (RuntimeError(f"{type(exc).__name__}: {exc}"), trace))
                    with os.fdopen(write, "wb") as results:
                        results.write(reply)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), share))
        os.sched_setaffinity(0, {cpus[0]})
        found = {rung_id: _evaluate_ladder_rung(scn, ladder, rung_id, systems)
                 for rung_id in shares[-1]}
        for pid, results, share in children:
            try:
                reply = pickle.load(results)
            except EOFError:
                raise RuntimeError(
                    f"rung process {pid} exited without the records of rungs {share}") from None
            if isinstance(reply, tuple):  # a rung failed
                exc, trace = reply
                raise exc from RuntimeError(f"in rung process {pid}:\n{trace}")
            found.update(zip(share, reply))
        return [found[rung_id] for rung_id in rung_ids]
    except BaseException:
        import signal

        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.sched_setaffinity(0, mask)
        gc.unfreeze()
        for pid, results, _ in children:
            results.close()
            os.waitpid(pid, 0)


def dimension(
    scn,
    systems: Sequence[str],
    stop_when_satisfied: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    threads: int = 1,
) -> DimensioningResult:
    """Minimum AP count per demand point, per system, walking the grid ladder.

    A deployment is feasible for demand D when the upper 95% bound of its
    outage estimate is below beta and its mean area throughput covers
    mu(D) * E[lambda_u]. Each rung evaluates every system still walking in
    one pass of the scenario's ``engine.n_snapshots`` snapshots. A system
    stops early once every demand point has found its minimum, unless
    ``stop_when_satisfied`` is off.

    The ladder is walked in rounds on min(threads, usable CPUs) processes,
    forked for each round (``_evaluate_round``). With early stop a round is
    the next rung per process, each evaluating the systems walking at the
    round's start, and a record of a system that stopped at an earlier rung
    of the round is dropped; on a full ladder the whole ladder is one round.
    One process, as where the platform cannot fork or pin, runs one rung
    per round. Records are applied in ladder order, and a system's records
    do not depend on which other systems share its pass, so the records, the
    progress lines and every output byte are the same at any ``threads``.
    """
    demand_grid = tuple(scn.demand_gb_month)
    ladder = tuple(grid_ladder(scn.engine.ladder_max_aps))
    targets = {
        d: demand_to_throughput(d, scn.traffic) * scn.traffic.lambda_u_per_km2
        for d in demand_grid
    }
    systems = list(dict.fromkeys(systems))
    records = {system: [] for system in systems}
    minimums = {system: dict.fromkeys(demand_grid) for system in systems}
    walking = systems
    can_pin = hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0))[:max(1, threads)] if can_pin else [0]
    step = len(cpus) if stop_when_satisfied or len(cpus) == 1 else len(ladder)
    for first in range(0, len(ladder), step):
        if not walking:
            break
        rung_ids = range(first, min(first + step, len(ladder)))
        for rung_id, rung_records in zip(
                rung_ids, _evaluate_round(scn, ladder, rung_ids, walking, cpus)):
            nx, ny = ladder[rung_id]
            for rec in rung_records:
                if rec.system not in walking:  # stopped at an earlier rung of the round
                    continue
                records[rec.system].append(rec)
                if progress is not None:
                    progress(
                        f"{rec.system} {nx}x{ny}: lambda_s={rec.lambda_s.mean:.4g} Mbps/km2 "
                        f"outage={rec.outage.mean:.4f} feasible={rec.outage_feasible}"
                    )
                mins = minimums[rec.system]
                for d in demand_grid:
                    if (mins[d] is None and rec.outage_feasible
                            and rec.lambda_s.mean >= targets[d]):
                        mins[d] = rec
            if stop_when_satisfied:
                walking = [s for s in walking if any(v is None for v in minimums[s].values())]
    per_system = {
        system: SystemDimensioning(records=tuple(records[system]), minimums=minimums[system])
        for system in systems
    }
    return DimensioningResult(demand_grid=demand_grid, ladder=ladder, per_system=per_system,
                              workers=len(cpus))
