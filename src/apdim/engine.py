"""Snapshot Monte-Carlo engine: user drops, association, per-system evaluation,
estimates with confidence intervals, demand conversion, and the AP-count search.

Determinism contract: every snapshot derives its own generator from
(master_seed, deployment_id, snapshot_index), so results are bit-identical
for any evaluation order. One serial snapshot pass per rung (``run_rung``)
serves every system: the shared prefix and every later draw that several
systems make (the faded gains, the AP-to-AP fading) are drawn once, and each
system continues on its own generator where its draws part from the
others', so its results do not depend on which other systems run beside it.
Both ZF systems share one ZF pass per snapshot and one stacked power solve
per rung; they differ only in the channel their rates are scored on.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def normal_estimate(samples) -> Estimate:
    """Sample mean with a normal-approximation interval (degenerate at n = 1)."""
    samples = np.asarray(samples, dtype=float)
    n = int(samples.size)
    if n < 1:
        raise ValueError("need at least one sample")
    mean = float(samples.mean())
    hw = float(Z95 * samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, count=n, ci_low=mean - hw, ci_high=mean + hw)


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

    def locate(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each user's cell, and whether it lies on a raster line or off the raster."""
        cell, off = 0, False
        for axis in (1, 0):  # y outer
            lines, u = self.lines[axis], users[:, axis]
            i = np.searchsorted(lines[1:-1], u, side="right")  # lines[i] <= u < lines[i + 1]
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
    return CandidateTable(
        area=area,
        prop=prop,
        ap_xy=ap_xy,
        lines=(lines_x, lines_y),
        aps=table,
        x=ap_xy[table, 0],
        y=ap_xy[table, 1],
        factor=table_factor,
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


def associate_candidates(table: CandidateTable, users: np.ndarray) -> np.ndarray:
    """``associate(ch.average_gains(...))`` of ``users`` on the table's layout.

    Each user is ranked by ``ch.association_cost`` over its cell's
    candidates only; the APs left out all cost more than (1 +
    CANDIDATE_MARGIN) times its best, so the best and any near tie are among
    them. The costs order APs as the exact gains do up to rounding of about
    1e-14 relative. A user with a second cost within RANK_RTOL of its best
    is re-ranked with the exact gains over every AP, and so is one whose
    best loss is beyond RANKED_LOSS_DB_MAX (where exact gains lose that
    precision, or round to 0 or inf and tie) and one that ``locate`` finds
    on a raster line or off the raster.
    """
    users = np.asarray(users, dtype=float)
    cell, exact = table.locate(users)
    dx = np.take(table.x, cell, axis=1)
    dx -= users[:, 0]
    dy = np.take(table.y, cell, axis=1)
    dy -= users[:, 1]
    cost = np.multiply(dx, dx, out=dx)
    cost += np.multiply(dy, dy, out=dy)
    ch.association_cost(table.prop, cost, np.take(table.factor, cell, axis=1))
    best_cost = cost.min(axis=0)
    is_best = cost <= best_cost * (1.0 + RANK_RTOL)
    exact |= is_best.sum(axis=0) > 1
    exact |= ~(np.abs(table.prop.l0_db + 10.0 * np.log10(best_cost)) <= RANKED_LOSS_DB_MAX)
    # the one AP within RANK_RTOL of the best cost, where no other is
    best = (np.take(table.aps, cell, axis=1) * is_best).sum(axis=0)
    if exact.any():
        best[exact] = associate(
            ch.average_gains(table.area, table.prop, table.ap_xy, users[exact])
        )
    return best


def select_served(
    assoc: np.ndarray, n_aps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One uniformly chosen user per AP that has any; APs visited in index order.

    Returns (serving_aps, user_cols): parallel arrays of AP indices and the
    column (user index) each one serves this snapshot.
    """
    # the same permutation; numpy radix-sorts keys of 8 and 16 bits
    order = np.argsort(assoc.astype(np.min_scalar_type(n_aps - 1)), kind="stable")
    counts = np.bincount(assoc, minlength=n_aps)
    serving = np.flatnonzero(counts)
    starts = np.cumsum(counts)[serving] - counts[serving]
    # one draw over an array of bounds equals one rng.integers(m) per AP in order
    return serving, order[starts + rng.integers(counts[serving])]


@dataclass(frozen=True, eq=False)
class Scored:
    """One system's raw outcome of one snapshot: rate (Mbps) and SINR per served user.

    The arrays are (n_served,), or (n_plans, n_served) with one row per reuse
    plan for static, which scores every plan on one draw.
    """

    rates_mbps: np.ndarray
    sinr: np.ndarray
    redraws: int = 0
    solver_fallbacks: int = 0


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


# Seeds the bit generators that _generator_at overwrites at once.
_ANY_SEED = np.random.SeedSequence(0)


def _generator_at(state: dict) -> np.random.Generator:
    """A new generator whose bit generator starts at ``state``.

    Three times cheaper than ``copy.deepcopy`` of a generator, which pickles
    it. The seed is overwritten at once; a fixed, prebuilt one skips the OS
    entropy read and the seed sequence's set-up.
    """
    bit_generator = np.random.PCG64(_ANY_SEED)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


class Snapshot:
    """One snapshot: the shared prefix, and its later random draws, each made at most once.

    The prefix (user drop, association, selection) leaves the snapshot's
    generator at S0. The generator tree below it:

    - the one ZF pass, shared by both CSIT models, continues on its own
      generator at S0 (``generator``): the CSIT fading until the precoder
      is accepted, then the delayed CSIT if erroneous CSIT is scored;
    - the faded AP-to-user gains are drawn from S0, leaving S1
      (``faded_gains``; static and both Wi-Fi systems read them);
    - the AP-to-AP gains are drawn from S1, leaving S2 (``ap_gains``), and
      each Wi-Fi system continues on its own generator at S2.

    Every system thus consumes random numbers exactly as if it ran alone, so
    its results do not depend on which other systems share the snapshot. A
    draw is made on first use and kept only as long as this object, which
    lives for one snapshot; the shared arrays are read-only.
    """

    def __init__(
        self,
        ctx: DeploymentContext,
        served_gains: np.ndarray,
        serving: np.ndarray,
        rng: np.random.Generator,
    ):
        """``rng`` stands at S0; the shared draws are made from it, so it is taken over."""
        self.ctx = ctx
        # Average gains to the scheduled users, (n_aps, n_served); column i
        # belongs to the user of serving[i], the APs with a user in ascending order.
        self.served_gains = served_gains
        self.serving = serving
        self._rng = rng
        self._s0 = rng.bit_generator.state
        self._gains: Optional[np.ndarray] = None
        self._g_ap_ap: Optional[np.ndarray] = None

    def generator(self) -> np.random.Generator:
        """A new generator at S0."""
        return _generator_at(self._s0)

    def faded_gains(self) -> np.ndarray:
        """AP-to-user power gains, one column per scheduled user, drawn from S0."""
        if self._gains is None:
            z = ch.draw_fading(self._rng, self.served_gains.shape, self.ctx.scn.radio.sigma_z2)
            self._gains = _read_only(self.served_gains * np.abs(z) ** 2)
        return self._gains

    def ap_gains(self) -> tuple[np.ndarray, np.random.Generator]:
        """AP-to-AP power gains drawn from S1, and a new generator at S2."""
        if self._g_ap_ap is None:
            self.faded_gains()
            z_ap = ch.draw_symmetric_fading(self._rng, self.ctx.n_aps, self.ctx.scn.radio.sigma_z2)
            self._g_ap_ap = _read_only(self.ctx.l_ap_ap * np.abs(z_ap) ** 2)
        return self._g_ap_ap, _generator_at(self._rng.bit_generator.state)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def draw_snapshot(ctx: DeploymentContext, rng: np.random.Generator) -> Snapshot:
    """Drop users, associate them, schedule one per AP; exact gains for the scheduled only.

    ``ch.average_gains`` is elementwise, so its columns for the scheduled
    users equal those of the full AP-to-user matrix bit for bit. The
    returned snapshot takes ``rng`` over for its later draws.
    """
    scn = ctx.scn
    users = drop_users(scn.area, scn.n_users, rng)
    assoc = associate_candidates(ctx.candidates, users)
    serving, cols = select_served(assoc, ctx.n_aps, rng)
    served_gains = ch.average_gains(scn.area, scn.propagation, ctx.layout.ap_xy, users[cols])
    return Snapshot(ctx, served_gains, serving, rng)


def wifi_snapshot(
    snap: Snapshot, cs_thr_dbm: float, assignment: planning.ChannelAssignment
) -> Scored:
    """One Wi-Fi transmission epoch, scored as static's reuse rule over the SSI active set.

    The serving APs contend (``wifi.contention_graph`` at carrier-sense
    threshold ``cs_thr_dbm`` over the AP-to-AP fading) and one SSI draw on
    the assignment's K^wifi channels picks the active set; its positions into
    ``serving`` come channel by channel. The active APs then transmit as
    every serving AP does under static reuse (``planning.reuse_rates``), so
    only the other active co-channel APs interfere.
    """
    scn, serving, k = snap.ctx.scn, snap.serving, assignment.k
    gains = snap.faded_gains()
    g_ap_ap, rng = snap.ap_gains()
    channels = assignment.channel_of[serving]
    adjacency = wifi.contention_graph(
        channels, g_ap_ap[serving[:, None], serving], scn.radio.pt_mw, cs_thr_dbm
    )
    act = wifi.sample_ssi(adjacency, channels, k, rng)
    rx = gains[serving[act]][:, act] * scn.radio.pt_mw  # rx[j, i]: active AP j at active user i
    rates, sinr = planning.reuse_rates(
        rx, channels[act], k, scn.wifi.eta_wifi, scn.radio.bandwidth_mhz, scn.sigma2_mw
    )
    return Scored(rates, sinr)


def static_snapshot(snap: Snapshot, assignments: Sequence[planning.ChannelAssignment]) -> Scored:
    """Full-buffer frequency-planned cellular snapshot, one row per reuse plan.

    Every AP with traffic transmits in every snapshot, so each served user's
    interference sums over all co-channel serving APs (``planning.reuse_rates``).
    Every plan is scored on the same fading draw.
    """
    scn, serving = snap.ctx.scn, snap.serving
    rx = snap.faded_gains()[serving] * scn.radio.pt_mw  # rx[j, i]: serving AP j at user i
    channels = np.array([a.channel_of[serving] for a in assignments])
    k = np.array([[a.k] for a in assignments], dtype=float)
    rates, sinr = planning.reuse_rates(
        rx, channels, k, scn.static.eta_sta, scn.radio.bandwidth_mhz, scn.sigma2_mw
    )
    return Scored(rates, sinr)


@dataclass(frozen=True, eq=False)
class ZfPrecoded:
    """A ZF snapshot up to its power allocation, which ``finish_zf`` takes for many at once."""

    beamformer: zf.Beamformer
    h_true: Optional[np.ndarray]  # true channel after the feedback delay, if drawn
    redraws: int


def zf_snapshot(snap: Snapshot, erroneous: bool) -> ZfPrecoded:
    """Multi-cell ZF snapshot, first phase: fading, the inversion precoder and the true channel.

    One pass serves both CSIT models. The CSIT is a fading draw from S0;
    near-singular draws are replaced by a fresh one, up to
    MAX_REDRAWS_PER_SNAPSHOT. With ``erroneous`` set, the accepted CSIT is
    then evolved past the feedback delay (``ch.delayed_csit``, per-link
    outdated with the scenario's probability ``zf.delta`` and correlation
    ``zf.rho``) into the true channel on which erroneous CSIT is scored.
    This phase draws every random number of the snapshot; ``finish_zf``
    optimizes the PAPC powers and scores the result.
    """
    scn, rng = snap.ctx.scn, snap.generator()
    sqrt_l = np.sqrt(snap.served_gains[snap.serving].T)  # (user j, antenna i)
    redraws = 0
    while True:
        z = ch.draw_fading(rng, sqrt_l.shape, scn.radio.sigma_z2)
        try:
            bf = zf.build_beamformer(sqrt_l * z)
            break
        except zf.SingularChannelError:
            redraws += 1
            if redraws > MAX_REDRAWS_PER_SNAPSHOT:
                raise RuntimeError(
                    f"snapshot exceeded {MAX_REDRAWS_PER_SNAPSHOT} singular-channel redraws"
                )
    h_true = None
    if erroneous:
        h_true = sqrt_l * ch.delayed_csit(z, scn.zf.delta, scn.zf.rho, rng, scn.radio.sigma_z2)
    return ZfPrecoded(beamformer=bf, h_true=h_true, redraws=redraws)


def finish_zf(ctx: DeploymentContext, precoded: Sequence[ZfPrecoded]) -> dict[str, list[Scored]]:
    """Optimize the PAPC powers of all ``precoded`` snapshots at once, then score each.

    One ``zf.allocate_powers`` call stacks one instance per snapshot; each
    result equals that of a solve on its own, so the scores do not depend on
    which snapshots are finished together. Both CSIT models read the one
    allocation: returns {"zf-ideal": scores, "zf-erroneous": scores}, the
    latter for the snapshots that carry ``h_true``. Both rows of a snapshot
    report its redraws and solver fallbacks.
    """
    scn = ctx.scn
    w, sigma2, eta_zf = scn.radio.bandwidth_mhz, scn.sigma2_mw, scn.zf.eta_zf
    beamformers = [pre.beamformer for pre in precoded]
    allocs = zf.allocate_powers(beamformers, sigma2, scn.radio.pt_mw, w, eta_zf)
    scored: dict = {"zf-ideal": [], "zf-erroneous": []}
    for pre, alloc in zip(precoded, allocs):
        counts = {"redraws": pre.redraws, "solver_fallbacks": 0 if alloc.converged else 1}
        scored["zf-ideal"].append(Scored(*zf.zf_rates_ideal(alloc, w, sigma2, eta_zf), **counts))
        if pre.h_true is not None:
            rates = zf.zf_rates_erroneous(pre.h_true, pre.beamformer, alloc, w, sigma2, eta_zf)
            scored["zf-erroneous"].append(Scored(*rates, **counts))
    return scored


# ---------------------------------------------------------------------------
# Monte-Carlo runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunResult:
    lambda_s: Estimate  # Mbps/km2
    outage: Estimate  # proportion over served users, pooled
    served_total: int
    redraws: int
    solver_fallbacks: int
    lambda_samples: np.ndarray


def _aggregate(ctx: DeploymentContext, scored: Sequence[Scored]) -> list[RunResult]:
    """One RunResult per row of a system's per-snapshot scores (one per reuse plan)."""
    gamma_t = ctx.scn.gamma_t_linear
    rate_sums = np.array([np.atleast_2d(sc.rates_mbps).sum(axis=1) for sc in scored])
    hits = np.array([(np.atleast_2d(sc.sinr) < gamma_t).sum(axis=1) for sc in scored])
    served_total = sum(sc.rates_mbps.shape[-1] for sc in scored)
    redraws = sum(sc.redraws for sc in scored)
    solver_fallbacks = sum(sc.solver_fallbacks for sc in scored)
    runs = []
    for plan_sums, plan_hits in zip(rate_sums.T, hits.T):  # over snapshots, per plan
        lambda_samples = plan_sums / ctx.scn.area.area_km2
        runs.append(
            RunResult(
                lambda_s=normal_estimate(lambda_samples),
                outage=wilson_estimate(int(plan_hits.sum()), served_total),
                served_total=served_total,
                redraws=redraws,
                solver_fallbacks=solver_fallbacks,
                lambda_samples=lambda_samples,
            )
        )
    return runs


# ---------------------------------------------------------------------------
# Deployment evaluation and dimensioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DeploymentRecord:
    """One (deployment, system) evaluation, ready for a result row."""

    system: str
    nx: int
    ny: int
    ap_count: int
    ap_density_per_km2: float
    k_channels: Optional[int]  # K^wifi, K*, or None (ZF / no feasible K)
    outage_feasible: bool  # upper 95% bound of outage < beta
    lambda_s: Estimate
    outage: Estimate
    mu_mbps_per_user: float
    demand_gb_month: float  # demand this deployment can carry
    n_snapshots: int
    served_samples: int
    zf_redraws: int
    solver_fallbacks: int


def _evaluator(ctx: DeploymentContext, system: str, plan) -> tuple[list, Callable]:
    """The channel counts a Wi-Fi or static system reports on and its per-snapshot evaluator.

    ``plan(k)`` returns the rung's channel assignment for k channels. The
    evaluator maps a ``Snapshot`` to a ``Scored``, whose rows follow the
    channel counts.
    """
    scn = ctx.scn
    if system in ("wifi-baseline", "wifi-aggressive"):
        baseline = system == "wifi-baseline"
        cs_thr_dbm = scn.wifi.cs_thr_baseline_dbm if baseline else scn.wifi.cs_thr_aggressive_dbm
        assignment = plan(scn.wifi.k_wifi)
        return [assignment.k], lambda snap: wifi_snapshot(snap, cs_thr_dbm, assignment)
    ks = list(range(1, min(scn.static.k_max, ctx.n_aps) + 1))
    assignments = [plan(k) for k in ks]
    return ks, lambda snap: static_snapshot(snap, assignments)


def run_rung(scn, layout: Layout, systems: Sequence[str], deployment_id: int) -> dict:
    """Run every system on one AP layout in one serial snapshot pass.

    Returns {system: {k: RunResult}}: K^wifi for Wi-Fi, every reuse number
    K = 1..min(k_max, n_aps) for static, and None for ZF. The AP-to-AP gains
    and each K's channel assignment are built once and shared by the systems.

    The scenario's ``engine.n_snapshots`` snapshots each draw the shared
    prefix (``draw_snapshot``) once from their generator, derived from (seed,
    deployment_id, snapshot index), and every system reads that one
    ``Snapshot``. The snapshots run one after another in the calling thread:
    their work holds the GIL for most of its time, which no thread pool can
    share out. When a ZF system runs, each snapshot makes one ZF pass
    (``zf_snapshot``) for both CSIT models, drawing the true channel only if
    zf-erroneous runs; after the pass, one ``finish_zf`` call solves and
    scores them all.

    ``scn`` is the validated Scenario (see apdim.scenario). The rung's
    ``DeploymentContext`` holds it, and every system reads its parameters
    from there; only its documented attributes are touched, keeping this
    module independent of the config layer.
    """
    for system in systems:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    seed = scn.engine.seed
    ctx = make_context(scn, layout)
    plans: dict = {}

    def plan(k: int) -> planning.ChannelAssignment:
        if k not in plans:
            plans[k] = planning.assign_channels(
                ctx.l_ap_ap, k, substream(seed, deployment_id, _SALT_PLANNING, k)
            )
        return plans[k]

    ks = dict.fromkeys(systems, [None])  # ZF reports on no channel count
    evaluators = {}
    for system in ks:
        if not system.startswith("zf-"):
            ks[system], evaluators[system] = _evaluator(ctx, system, plan)
    erroneous = "zf-erroneous" in ks
    run_zf = erroneous or "zf-ideal" in ks
    scored: dict = {system: [] for system in evaluators}  # per system, per snapshot
    precoded = []
    for s in range(scn.engine.n_snapshots):
        snap = draw_snapshot(ctx, substream(seed, deployment_id, _SALT_SNAPSHOT, s))
        for system, evaluate in evaluators.items():
            scored[system].append(evaluate(snap))
        if run_zf:
            precoded.append(zf_snapshot(snap, erroneous))
    if run_zf:
        scored.update(finish_zf(ctx, precoded))
    return {system: dict(zip(ks[system], _aggregate(ctx, scored[system]))) for system in ks}


def outage_feasible(outage: Estimate, beta: float) -> bool:
    """The one feasibility rule: the upper 95% bound of the outage is below beta."""
    return bool(outage.ci_high < beta)


def k_star(outages: dict, beta: float) -> Optional[int]:
    """Smallest reuse number K whose outage estimate is feasible, or None."""
    return min((k for k, est in outages.items() if outage_feasible(est, beta)), default=None)


def evaluate_rung(
    scn, layout: Layout, systems: Sequence[str], deployment_id: int
) -> list[DeploymentRecord]:
    """Evaluate each system on one AP layout; one record per system, in order."""
    beta = scn.radio.beta
    records = []
    for system, runs in run_rung(scn, layout, systems, deployment_id).items():
        if system == "static":
            k_channels = k_star({k: run.outage for k, run in runs.items()}, beta)
            if k_channels is None:
                # No K is feasible; report the least-bad K as a diagnostic.
                run = runs[min(runs, key=lambda k: (runs[k].outage.mean, k))]
            else:
                run = runs[k_channels]
        else:
            ((k_channels, run),) = runs.items()
        mu = run.lambda_s.mean / scn.traffic.lambda_u_per_km2
        records.append(
            DeploymentRecord(
                system=system,
                nx=layout.nx,
                ny=layout.ny,
                ap_count=layout.n_aps,
                ap_density_per_km2=layout.density_per_km2,
                k_channels=k_channels,
                outage_feasible=outage_feasible(run.outage, beta),
                lambda_s=run.lambda_s,
                outage=run.outage,
                mu_mbps_per_user=mu,
                demand_gb_month=throughput_to_demand(max(mu, 0.0), scn.traffic),
                n_snapshots=scn.engine.n_snapshots,
                served_samples=run.served_total,
                zf_redraws=run.redraws,
                solver_fallbacks=run.solver_fallbacks,
            )
        )
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


def dimension(
    scn,
    systems: Sequence[str],
    stop_when_satisfied: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> DimensioningResult:
    """Minimum AP count per demand point, per system, walking the grid ladder.

    A deployment is feasible for demand D when the upper 95% bound of its
    outage estimate is below beta and its mean area throughput covers
    mu(D) * E[lambda_u]. Each rung evaluates every system still walking in
    one pass of the scenario's ``engine.n_snapshots`` snapshots. A system
    stops early once every demand point has found its minimum, unless
    ``stop_when_satisfied`` is off.
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
    for rung_id, (nx, ny) in enumerate(ladder):
        if not walking:
            break
        layout = place_aps(scn.area, nx, ny)
        for rec in evaluate_rung(scn, layout, walking, rung_id):
            records[rec.system].append(rec)
            if progress is not None:
                progress(
                    f"{rec.system} {nx}x{ny}: lambda_s={rec.lambda_s.mean:.4g} Mbps/km2 "
                    f"outage={rec.outage.mean:.4f} feasible={rec.outage_feasible}"
                )
            mins = minimums[rec.system]
            for d in demand_grid:
                if mins[d] is None and rec.outage_feasible and rec.lambda_s.mean >= targets[d]:
                    mins[d] = rec
        if stop_when_satisfied:
            walking = [s for s in walking if any(v is None for v in minimums[s].values())]
    per_system = {
        system: SystemDimensioning(records=tuple(records[system]), minimums=minimums[system])
        for system in systems
    }
    return DimensioningResult(demand_grid=demand_grid, ladder=ladder, per_system=per_system)
