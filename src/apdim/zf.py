"""Multi-cell zero-forcing: channel inversion, PAPC power optimization, rate evaluation.

The symbol-power problem is

    maximize   sum_j min{ W log2(1 + p_j / sigma2), W eta }
    subject to sum_j |w_ij|^2 p_j <= Pt   for every antenna i,   p >= 0

which, because power beyond the rate cap is wasted, equals the smooth concave
program with per-user caps p_j <= sigma2 (2^eta - 1). It is solved with a
primal-dual interior-point method (Mehrotra predictor-corrector) on the
SNR-scaled variables q = p / sigma2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class SingularChannelError(RuntimeError):
    """Raised when the CSIT matrix is too ill-conditioned to invert reliably."""


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Channel-inverting beamforming matrix."""

    w: np.ndarray  # (N, N) complex, H_hat @ w == I


COND_LIMIT = 1e12
_INVERSION_TOL = 1e-8
# Relative margin of the Frobenius bound's tests: far above the rounding of
# both norms and of the singular values, so the bound decides only where the
# singular values would decide the same.
_BOUND_MARGIN = 1e-6


def _svd_cond(h_hat: np.ndarray) -> float:
    s = np.linalg.svd(h_hat, compute_uv=False)
    return np.inf if s[-1] == 0.0 else float((s[0] / s[-1]) ** 2)


def build_beamformer(h_hat: np.ndarray) -> Beamformer:
    """Invert the CSIT matrix so that every user receives only its own symbol.

    For the square N = M case the precoder H^dagger (H H^dagger)^{-1} is the
    plain matrix inverse; one step of iterative refinement keeps the
    multiply-back residual ||H_hat w - I||_inf below 1e-8. Channels whose
    H H^dagger condition number exceeds COND_LIMIT are rejected so the
    caller can redraw the snapshot's fading.

    The condition is tested on the inverse: kappa_F = ||H||_F ||W||_F
    brackets the 2-norm condition, kappa_F / N <= kappa_2 <= kappa_F, so
    the bound accepts or rejects unless COND_LIMIT lies within the bracket,
    where the singular values decide. A matrix that ``solve`` finds exactly
    singular is rejected.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.ndim != 2 or h_hat.shape[0] != h_hat.shape[1]:
        raise ValueError(f"expected a square channel matrix, got shape {h_hat.shape}")
    (beamformer,) = build_beamformers(h_hat[None])
    if beamformer is None:
        raise SingularChannelError(f"channel condition exceeds {COND_LIMIT:.1e} or is singular")
    return beamformer


def build_beamformers(h_hat: np.ndarray) -> list[Optional[Beamformer]]:
    """``build_beamformer`` of every matrix of a (k, n, n) complex stack, None where it rejects.

    One stacked ``solve`` inverts the stack, and the Frobenius bound, the
    residual test and the refinement are stacked too; only a matrix that the
    bound cannot accept computes more on its own. Stacked ``solve`` and
    ``matmul`` make per matrix the LAPACK and BLAS calls that the matrix
    alone makes, so each precoder equals ``build_beamformer``'s bit for bit.
    An exactly singular matrix fails the stacked ``solve`` as a whole; the
    stack is then inverted one matrix at a time.
    """
    k, n, _ = h_hat.shape
    eye = np.eye(n, dtype=complex)
    try:
        w = np.linalg.solve(h_hat, eye)
    except np.linalg.LinAlgError:
        return [None] if k == 1 else [bf for h in h_hat for bf in build_beamformers(h[None])]
    kappa_f2 = _frobenius2(h_hat) * _frobenius2(w)  # kappa_F^2
    accepted = kappa_f2 <= COND_LIMIT * (1.0 - _BOUND_MARGIN)
    for j in np.flatnonzero(~accepted):  # the bound does not accept
        if kappa_f2[j] > COND_LIMIT * (1.0 + _BOUND_MARGIN) * n * n:
            cond = kappa_f2[j] / (n * n)  # a lower bound
        else:
            cond = _svd_cond(h_hat[j])
        accepted[j] = not cond > COND_LIMIT
    residual = eye - h_hat @ w
    refine = accepted & (np.abs(residual).max(axis=(1, 2)) > _INVERSION_TOL)
    if refine.any():
        h = h_hat[refine]
        w[refine] = w[refine] + np.linalg.solve(h, residual[refine])
        accepted[refine] = ~(np.abs(h @ w[refine] - eye).max(axis=(1, 2)) > _INVERSION_TOL)
    return [Beamformer(w=w[j]) if accepted[j] else None for j in range(k)]


def _frobenius2(a: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a stack."""
    return np.einsum("kij,kij->k", a, a.conj()).real


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Optimized symbol powers and how the solve that found them ended."""

    p_mw: np.ndarray  # (N,) symbol powers
    converged: bool
    kkt_residual: float
    newton_iterations: int  # interior-point iterations (one Newton matrix each)


def allocate_powers(
    beamformers: Sequence[Beamformer],
    sigma2_mw: float,
    pt_mw: float,
    eta_zf: float,
) -> list[PowerAllocation]:
    """Maximize each capped sum rate subject to its per-antenna power constraints.

    Instances are grouped by size n. An instance whose optimum has at most
    one binding antenna gets it in closed form (``_closed_form``): with every
    user at the rate cap, q = q_cap, where the antennas carry that, else by
    water-filling on the one antenna that binds. Such a point is exact up to
    rounding and is reported converged, with a KKT residual of 0 after 0
    iterations. The other instances of one size are solved together in one
    stacked interior-point loop. Each follows exactly the iterates it would
    follow alone, so its result does not depend on the other beamformers in
    the call. ``newton_iterations`` of a result counts interior-point
    iterations. Results are returned in the order of ``beamformers``.
    """
    q_cap = 2.0**eta_zf - 1.0  # SNR value at which the rate cap binds
    by_size: dict = {}
    for i, bf in enumerate(beamformers):
        by_size.setdefault(bf.w.shape[0], []).append(i)
    allocations: list = [None] * len(beamformers)
    for members in by_size.values():
        members = np.array(members)
        # b[k, i, j] = |w_ij|^2 sigma2: antenna i's load coefficient on user j
        # of instance k in q = p / sigma2 units
        b = np.stack([np.abs(beamformers[i].w) ** 2 for i in members]) * sigma2_mw
        q, closed = _closed_form(b, pt_mw, q_cap)
        for i, q_i in zip(members[closed], q[closed]):
            allocations[i] = PowerAllocation(
                p_mw=q_i * sigma2_mw,
                converged=True,
                kkt_residual=0.0,
                newton_iterations=0,
            )
        if closed.all():
            continue
        for i, (q_i, converged, kkt, iters) in zip(
            members[~closed], _interior_point_solve(b[~closed], pt_mw, q_cap)
        ):
            allocations[i] = PowerAllocation(
                p_mw=q_i * sigma2_mw,
                converged=converged,
                kkt_residual=kkt,
                newton_iterations=iters,
            )
    return allocations


# Water-filling aims the binding antenna's load this far (relative) below the
# budget and accepts a point only where every antenna keeps half of it: far
# above the rounding of an n-term load, far below the interior point's
# tolerances.
_WATER_FILL_MARGIN = 1e-12


def _closed_form(b: np.ndarray, budget: float, q_cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The optimum of each instance of a (k, n, n) stack with at most one binding antenna.

    Returns q, (k, n), and where it holds, (k,). An instance whose antennas
    all carry every user at the cap has the optimum q = q_cap. Else each
    antenna i overloaded at the cap is taken alone: its constraint
    sum_j b_ij q_j <= budget with 0 <= q <= q_cap is met by water-filling
    (Yu and Lan, IEEE TSP 2007), q_j = clip(x / b_ij - 1, 0, q_cap), at the
    level x where the antenna's load sum_j clip(x - b_ij, 0, q_cap b_ij)
    meets the budget. The load is piecewise linear in x: user j is active
    from x = b_ij and capped from x = (1 + q_cap) b_ij. Sorting those
    breakpoints and summing along them finds the breakpoint past which the
    load exceeds the budget, and with it the active and the capped users; a
    user with b_ij = 0 is capped from the start. Each active user's share
    x - b_ij follows from differences to the largest active b_ik, which
    round relative to themselves, so the load stays exact to rounding even
    where q_j is tiny.

    Each antenna's point maximizes the objective over a superset of the
    feasible set, so none falls below the optimum, and one that fits every
    antenna is the optimum. Only the smallest of an instance's points can
    fit, and it is tested. Each instance is computed on its own rows, so
    its result does not depend on the others in the stack.
    """
    k, n, _ = b.shape
    q = np.full((k, n), q_cap)
    over = ~(b.sum(axis=2) * q_cap <= budget)  # NaN loads go to the interior point
    closed = ~over.any(axis=1)
    inst, antenna = np.nonzero(over)
    if inst.size == 0:
        return q, closed
    c = b[inst, antenna]  # (rows, n): each overloaded antenna's coefficients
    rows = np.arange(inst.size)[:, None]
    target = budget * (1.0 - _WATER_FILL_MARGIN)
    breaks = np.concatenate((c, c * (1.0 + q_cap)), axis=1)
    order = np.argsort(breaks, axis=1)
    sign = np.where(order < n, 1.0, -1.0)  # an active user starts, or reaches its cap
    at = breaks[rows, order]
    load = np.cumsum(sign, axis=1) * at - np.cumsum(sign * at, axis=1)
    first = np.argmax(load > target, axis=1)  # 0 where no breakpoint's load exceeds it
    rank = np.empty_like(order)
    rank[rows, order] = np.arange(2 * n)
    passed = rank < first[:, None]
    capped = passed[:, n:]
    active = passed[:, :n] & ~capped
    # |A| (x - c_j) = spare + sum over active k of (c_k - c_top) + |A| (c_top - c_j)
    top = np.where(active, c, 0.0).max(axis=1, keepdims=True)
    spare = target - q_cap * np.where(capped, c, 0.0).sum(axis=1, keepdims=True)
    spare += np.where(active, c - top, 0.0).sum(axis=1, keepdims=True)
    n_active = active.sum(axis=1, keepdims=True)
    share = spare + n_active * (top - c)
    q_rows = np.divide(share, n_active * c, out=np.zeros_like(c), where=active)
    q_rows = np.where(capped, q_cap, np.clip(q_rows, 0.0, q_cap))
    # per instance, its smallest single-antenna optimum: rows sorted by instance, then value
    by_value = np.lexsort((np.log1p(q_rows).sum(axis=1), inst))
    smallest = by_value[np.diff(inst[by_value], prepend=-1) > 0]
    inst, q_rows = inst[smallest], q_rows[smallest]
    loads = _matvec(b[inst], q_rows)
    fits = (first[smallest] > 0) & (loads <= budget * (1.0 - 0.5 * _WATER_FILL_MARGIN)).all(axis=1)
    q[inst[fits]] = q_rows[fits]
    closed[inst[fits]] = True
    return q, closed


_MAX_ITERATIONS = 100  # interior-point iterations per solve
_STEP_TO_BOUNDARY = 0.99  # fraction of the longest step that keeps s, y > 0


def _interior_point_solve(
    b: np.ndarray, budget: float, q_cap: float
) -> list[tuple[np.ndarray, bool, float, int]]:
    """max sum(log(1+q)) s.t. b @ q <= budget, 0 <= q <= q_cap, by primal-dual interior point.

    ``b`` stacks k instances of one size n, shape (k, n, n); every array of
    the loop carries the instances on axis 0, and an instance leaves the
    stack once it converges or reaches the iteration cap. Per instance, the
    3n inequalities are stacked as G q <= h with G = [b; -I; I] and
    h = [budget; 0; q_cap]; s = h - G q are their slacks and y their
    multipliers. Each iteration builds one reduced Newton matrix
    diag(1/(1+q)^2) + G^T diag(y/s) G, solves it for Mehrotra's predictor and
    corrector, and takes one fraction-to-boundary step; there is no line
    search. The corrector's centering target never drops below a tenth of the
    gap tolerance per constraint, so the gap cannot collapse while the
    stationarity residual still lags. Converged means both tolerances hold.
    Returns (q, converged, relative KKT stationarity residual, iterations)
    per instance; at the iteration cap or on a singular matrix the current
    strictly feasible q is returned with converged False.

    Each instance's iterates equal those of a solve on it alone, bit for
    bit: every product and sum is taken per instance by the BLAS call the
    unstacked arrays would make (stacked ``matmul`` and ``solve`` loop over
    the instances), the stacked transpose is a view of a C-contiguous stack
    as ``b.T`` is of ``b``, and the Mehrotra cube is Python's float power.
    """
    k, _, n = b.shape
    m = 3 * n  # antenna constraints + lower + upper bounds
    # Strictly feasible start: shrink a uniform point until every row has slack.
    row_load = b.sum(axis=2) * q_cap
    theta = np.fmin(0.45, 0.45 * budget / np.maximum(row_load.max(axis=1), np.finfo(float).tiny))
    q = np.repeat((theta * q_cap)[:, None], n, axis=1)
    s = np.concatenate((budget - _matvec(b, q), q, q_cap - q), axis=1)
    f_scale = max(1.0, n * np.log1p(q_cap))
    # A gap of 1e-8 * f_scale left the objective up to 1e-6 relative below
    # the optimum on weak channels, where the objective is far below f_scale.
    gap_tol = 1e-10 * f_scale
    grad_tol = 1e-8  # relative stationarity, well under the 1e-6 contract
    mu_floor = 0.1 * gap_tol / m
    # Centered multipliers, then the bound multipliers raised until the
    # start is exactly stationary; without the shift, weak channels crawl.
    y = min(1.0, f_scale / m) / s
    r0 = _g_t(b, y) - 1.0 / (1.0 + q)
    y[:, n : 2 * n] += np.maximum(r0, 0.0)
    y[:, 2 * n :] -= np.minimum(r0, 0.0)
    solved: list = [None] * k
    active = np.arange(k)  # instance index of each row of the stack
    iters = 0
    while True:
        r_dual = _g_t(b, y) - 1.0 / (1.0 + q)
        kkt = np.abs(r_dual).max(axis=1) * (1.0 + q.min(axis=1))
        gap = _dot(s, y)
        converged = (kkt <= grad_tol) & (gap <= gap_tol)
        stop = converged | (iters >= _MAX_ITERATIONS)
        if stop.any():
            for j in np.flatnonzero(stop):
                solved[active[j]] = (q[j], bool(converged[j]), float(kkt[j]), iters)
            if stop.all():
                return solved
            keep = ~stop
            active, b, q, s, y, r_dual, gap, kkt = (
                v[keep] for v in (active, b, q, s, y, r_dual, gap, kkt)
            )
        try:
            q, s, y = _mehrotra_step(b, q, s, y, r_dual, gap, mu_floor)
        except np.linalg.LinAlgError:
            # A stacked solve fails as a whole; redo the step one instance at a time.
            keep = np.ones(len(active), dtype=bool)
            steps = []
            for j in range(len(active)):
                one = slice(j, j + 1)
                state = (b[one], q[one], s[one], y[one], r_dual[one], gap[one])
                try:
                    steps.append(_mehrotra_step(*state, mu_floor))
                except np.linalg.LinAlgError:
                    solved[active[j]] = (q[j], False, float(kkt[j]), iters)
                    keep[j] = False
            if not steps:
                return solved
            q, s, y = (np.concatenate(v) for v in zip(*steps))
            active, b = active[keep], b[keep]
        iters += 1


def _mehrotra_step(
    b: np.ndarray,
    q: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    r_dual: np.ndarray,
    gap: np.ndarray,
    mu_floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One predictor-corrector step per stacked instance; returns the new (q, s, y).

    ``b`` must be C-contiguous per instance, as a compacted stack or a basic
    slice of one is, so that its transposed view takes the BLAS path that
    ``b.T`` takes alone; a transpose made contiguous would not.
    """
    n = q.shape[1]
    m = 3 * n
    bt = b.transpose(0, 2, 1)
    d = y / s
    hess = (bt * d[:, None, :n]) @ b
    diag = np.arange(n)
    hess[:, diag, diag] += 1.0 / (1.0 + q) ** 2 + d[:, n : 2 * n] + d[:, 2 * n :]

    def direction(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Linearized stationarity with y*ds + s*dy = -r.
        dq = np.linalg.solve(hess, (_g_t(b, r / s) - r_dual)[..., None])[..., 0]
        ds = np.concatenate((-_matvec(b, dq), dq, -dq), axis=1)
        return dq, ds, -(r + y * ds) / s

    # fmin and where pick what Python's min picks, also when a step is NaN
    _, ds_aff, dy_aff = direction(s * y)
    alpha_aff = np.fmin(np.fmin(1.0, _max_step(s, ds_aff)), _max_step(y, dy_aff))[:, None]
    mu = gap / m
    mu_aff = _dot(s + alpha_aff * ds_aff, y + alpha_aff * dy_aff) / m
    # Python's float power: NumPy's array power differs in the last bit for some values.
    target = [max((a / c) ** 3 * c, mu_floor) for a, c in zip(mu_aff.tolist(), mu.tolist())]
    dq, ds, dy = direction(s * y - np.array(target)[:, None] + ds_aff * dy_aff)
    step_s, step_y = _max_step(s, ds), _max_step(y, dy)
    alpha = np.fmin(1.0, _STEP_TO_BOUNDARY * np.where(step_y < step_s, step_y, step_s))[:, None]
    # s is stepped with q, not recomputed, so it stays positive
    return q + alpha * dq, s + alpha * ds, y + alpha * dy


def _g_t(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G^T v per stacked instance, for G = [b; -I; I]."""
    n = b.shape[1]
    return _matvec(b.transpose(0, 2, 1), v[:, :n]) - v[:, n : 2 * n] + v[:, 2 * n :]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a[i] @ v[i] for each stacked instance i."""
    return (a @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for each stacked instance i."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _max_step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per instance, the largest alpha with v + alpha * dv >= 0 (inf where dv >= 0)."""
    return np.divide(v, -dv, out=np.full_like(v, np.inf), where=dv < 0).min(axis=1)


def zf_rates_ideal(
    p_mw: np.ndarray, w_mhz: float, sigma2_mw: float, eta_zf: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rate (Mbps) and effective SNR with perfect CSIT, for symbol powers of any shape.

    Inversion leaves each user with only its own symbol plus noise, so the SNR
    is p_j / sigma2 and the rate is min{W log2(1 + SNR), W eta}.
    """
    snr = p_mw / sigma2_mw
    rates = np.minimum(w_mhz * np.log2(1.0 + snr), w_mhz * eta_zf)
    return rates, snr


def zf_rates_erroneous(
    h_true: np.ndarray,
    w: np.ndarray,
    p_mw: np.ndarray,
    w_mhz: float,
    sigma2_mw: float,
    eta_zf: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rate and SINR when the precoder was built from stale CSIT.

    The true channel applied to the stale precoder leaves the residual
    coupling C = H_true @ W; user j keeps |c_jj|^2 p_j of signal and absorbs
    sum_{m != j} |c_jm|^2 p_m of leakage from the other users' symbols.
    ``h_true`` and ``w`` are (..., n, n) and ``p_mw`` is (..., n): one
    instance, or a stack of one size, whose products are taken per instance
    by the BLAS calls that the instance alone makes.
    """
    coupling = np.abs(h_true @ w)
    coupling *= coupling
    signal = np.diagonal(coupling, axis1=-2, axis2=-1) * p_mw
    leakage = (coupling @ p_mw[..., None])[..., 0] - signal
    sinr = signal / (leakage + sigma2_mw)
    rates = np.minimum(w_mhz * np.log2(1.0 + sinr), w_mhz * eta_zf)
    return rates, sinr
