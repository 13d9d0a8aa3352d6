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

import numpy as np


class SingularChannelError(RuntimeError):
    """Raised when the CSIT matrix is too ill-conditioned to invert reliably."""


@dataclass(frozen=True)
class ZfParams:
    eta_zf: float  # max link spectral efficiency, bps/Hz
    pt_mw: float  # per-antenna power budget
    delta: float = 0.0  # probability a link's CSIT is outdated
    rho: float = 0.9  # fading correlation across the feedback delay

    def __post_init__(self):
        if self.eta_zf <= 0:
            raise ValueError(f"eta_zf must be > 0, got {self.eta_zf}")
        if self.pt_mw <= 0:
            raise ValueError(f"pt_mw must be > 0, got {self.pt_mw}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Channel-inverting beamforming matrix with its conditioning diagnostic."""

    w: np.ndarray  # (N, N) complex, H_hat @ w == I
    cond: float  # condition number of H_hat @ H_hat^dagger


COND_LIMIT = 1e12
_INVERSION_TOL = 1e-8


def build_beamformer(h_hat: np.ndarray, cond_limit: float = COND_LIMIT) -> Beamformer:
    """Invert the CSIT matrix so that every user receives only its own symbol.

    For the square N = M case the precoder H^dagger (H H^dagger)^{-1} is the
    plain matrix inverse; one step of iterative refinement keeps the
    multiply-back residual ||H_hat w - I||_inf below 1e-8. Channels whose
    H H^dagger condition number exceeds ``cond_limit`` are rejected so the
    caller can redraw the snapshot's fading.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.ndim != 2 or h_hat.shape[0] != h_hat.shape[1]:
        raise ValueError(f"expected a square channel matrix, got shape {h_hat.shape}")
    n = h_hat.shape[0]
    s = np.linalg.svd(h_hat, compute_uv=False)
    cond = np.inf if s[-1] == 0.0 else float((s[0] / s[-1]) ** 2)
    if cond > cond_limit:
        raise SingularChannelError(f"channel condition {cond:.3e} exceeds {cond_limit:.1e}")
    eye = np.eye(n, dtype=complex)
    w = np.linalg.solve(h_hat, eye)
    residual = eye - h_hat @ w
    if np.abs(residual).max() > _INVERSION_TOL:
        w = w + np.linalg.solve(h_hat, residual)
        if np.abs(h_hat @ w - eye).max() > _INVERSION_TOL:
            raise SingularChannelError("inversion residual did not reach tolerance")
    return Beamformer(w=w, cond=cond)


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Optimized symbol powers and the per-antenna loads they induce."""

    p_mw: np.ndarray  # (N,) symbol powers
    antenna_load_mw: np.ndarray  # (N,) sum_j |w_ij|^2 p_j
    sum_rate_mbps: float
    converged: bool
    kkt_residual: float
    newton_iterations: int  # interior-point iterations (one Newton matrix each)


def allocate_power(
    beamformer: Beamformer,
    sigma2_mw: float,
    pt_mw: float,
    w_mhz: float,
    eta_zf: float,
) -> PowerAllocation:
    """Maximize the capped sum rate subject to the per-antenna power constraints.

    ``newton_iterations`` of the result counts interior-point iterations.
    """
    a = np.abs(beamformer.w) ** 2  # antenna i load coefficient on user j
    q_cap = 2.0**eta_zf - 1.0  # SNR value at which the rate cap binds
    b = a * sigma2_mw  # constraint matrix in q = p / sigma2 units
    q, converged, kkt, iters = _interior_point_solve(b, pt_mw, q_cap)
    p = q * sigma2_mw
    rates = np.minimum(w_mhz * np.log2(1.0 + q), w_mhz * eta_zf)
    return PowerAllocation(
        p_mw=p,
        antenna_load_mw=a @ p,
        sum_rate_mbps=float(rates.sum()),
        converged=converged,
        kkt_residual=kkt,
        newton_iterations=iters,
    )


_MAX_ITERATIONS = 100  # interior-point iterations per solve
_STEP_TO_BOUNDARY = 0.99  # fraction of the longest step that keeps s, y > 0


def _interior_point_solve(
    b: np.ndarray, budget: float, q_cap: float
) -> tuple[np.ndarray, bool, float, int]:
    """max sum(log(1+q)) s.t. b @ q <= budget, 0 <= q <= q_cap, by primal-dual interior point.

    The 3n inequalities are stacked as G q <= h with G = [b; -I; I] and
    h = [budget; 0; q_cap]; s = h - G q are their slacks and y their
    multipliers. Each iteration builds one reduced Newton matrix
    diag(1/(1+q)^2) + G^T diag(y/s) G, solves it for Mehrotra's predictor and
    corrector, and takes one fraction-to-boundary step; there is no line
    search. The corrector's centering target never drops below a tenth of the
    gap tolerance per constraint, so the gap cannot collapse while the
    stationarity residual still lags. Converged means both tolerances hold.
    Returns (q, converged, relative KKT stationarity residual, iterations);
    at the iteration cap or on a singular matrix the current strictly
    feasible q is returned with converged False.
    """
    n = b.shape[1]
    m = 3 * n  # antenna constraints + lower + upper bounds
    # Strictly feasible start: shrink a uniform point until every row has slack.
    row_load = b.sum(axis=1) * q_cap
    theta = min(0.45, 0.45 * budget / max(row_load.max(), np.finfo(float).tiny))
    q = np.full(n, theta * q_cap)
    s = np.concatenate((budget - b @ q, q, q_cap - q))

    def g_t(v: np.ndarray) -> np.ndarray:
        return b.T @ v[:n] - v[n : 2 * n] + v[2 * n :]

    f_scale = max(1.0, n * np.log1p(q_cap))
    # A gap of 1e-8 * f_scale left the objective up to 1e-6 relative below
    # the optimum on weak channels, where the objective is far below f_scale.
    gap_tol = 1e-10 * f_scale
    grad_tol = 1e-8  # relative stationarity, well under the 1e-6 contract
    mu_floor = 0.1 * gap_tol / m
    # Centered multipliers, then the bound multipliers raised until the
    # start is exactly stationary; without the shift, weak channels crawl.
    y = min(1.0, f_scale / m) / s
    r0 = g_t(y) - 1.0 / (1.0 + q)
    y[n : 2 * n] += np.maximum(r0, 0.0)
    y[2 * n :] -= np.minimum(r0, 0.0)
    iters = 0
    while True:
        r_dual = g_t(y) - 1.0 / (1.0 + q)
        kkt = float(np.abs(r_dual).max() * (1.0 + q.min()))
        gap = float(s @ y)
        if kkt <= grad_tol and gap <= gap_tol:
            return q, True, kkt, iters
        if iters >= _MAX_ITERATIONS:
            return q, False, kkt, iters
        d = y / s
        hess = (b.T * d[:n]) @ b
        hess[np.diag_indices_from(hess)] += 1.0 / (1.0 + q) ** 2 + d[n : 2 * n] + d[2 * n :]

        def direction(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Linearized stationarity with y*ds + s*dy = -r.
            dq = np.linalg.solve(hess, g_t(r / s) - r_dual)
            ds = np.concatenate((-(b @ dq), dq, -dq))
            return dq, ds, -(r + y * ds) / s

        try:
            _, ds_aff, dy_aff = direction(s * y)
            alpha_aff = min(1.0, _max_step(s, ds_aff), _max_step(y, dy_aff))
            mu = gap / m
            mu_aff = float((s + alpha_aff * ds_aff) @ (y + alpha_aff * dy_aff)) / m
            target = max((mu_aff / mu) ** 3 * mu, mu_floor)
            dq, ds, dy = direction(s * y - target + ds_aff * dy_aff)
        except np.linalg.LinAlgError:
            return q, False, kkt, iters
        alpha = min(1.0, _STEP_TO_BOUNDARY * min(_max_step(s, ds), _max_step(y, dy)))
        q = q + alpha * dq
        s = s + alpha * ds  # stepped with q, not recomputed, so it stays positive
        y = y + alpha * dy
        iters += 1


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha * dv >= 0 (inf when dv >= 0)."""
    neg = dv < 0
    return float((v[neg] / -dv[neg]).min()) if neg.any() else np.inf


def zf_rates_ideal(
    alloc: PowerAllocation, w_mhz: float, sigma2_mw: float, eta_zf: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rate (Mbps) and effective SNR with perfect CSIT.

    Inversion leaves each user with only its own symbol plus noise, so the SNR
    is p_j / sigma2 and the rate is min{W log2(1 + SNR), W eta}.
    """
    snr = alloc.p_mw / sigma2_mw
    rates = np.minimum(w_mhz * np.log2(1.0 + snr), w_mhz * eta_zf)
    return rates, snr


def zf_rates_erroneous(
    h_true: np.ndarray,
    beamformer: Beamformer,
    alloc: PowerAllocation,
    w_mhz: float,
    sigma2_mw: float,
    eta_zf: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user rate and SINR when the precoder was built from stale CSIT.

    The true channel applied to the stale beamformer leaves the residual
    coupling C = H_true @ W; user j keeps |c_jj|^2 p_j of signal and absorbs
    sum_{m != j} |c_jm|^2 p_m of leakage from the other users' symbols.
    """
    coupling = np.abs(np.asarray(h_true) @ beamformer.w) ** 2
    signal = np.diag(coupling) * alloc.p_mw
    leakage = coupling @ alloc.p_mw - signal
    sinr = signal / (leakage + sigma2_mw)
    rates = np.minimum(w_mhz * np.log2(1.0 + sinr), w_mhz * eta_zf)
    return rates, sinr
