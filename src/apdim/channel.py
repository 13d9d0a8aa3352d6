"""Radio channel model: multiwall pathloss, Rayleigh block fading, delayed CSIT.

All powers are linear milliwatts unless a name says dB/dBm. Gain matrices are
indexed [transmitter, receiver].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ServiceArea, crossing_counts, wall_positions

# Pathloss is evaluated at max(d, 1 m); the model diverges below the 1 m
# intercept that the constant-loss term represents.
MIN_DISTANCE_M = 1.0


@dataclass(frozen=True)
class PropagationParams:
    """Multiwall pathloss parameters: constant loss, exponent, per-wall loss."""

    l0_db: float
    alpha: float
    lw_db: float = 0.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.lw_db < 0:
            raise ValueError(f"per-wall loss must be >= 0 dB, got {self.lw_db}")


def path_loss_db(params: PropagationParams, d_m, phi):
    """Pathloss L0 + 10*alpha*log10(d) + phi*Lw in dB. Scalar or elementwise.

    Distances below 1 m are clamped to 1 m; d <= 0 is rejected.
    """
    d_m = np.asarray(d_m, dtype=float)
    if np.any(d_m <= 0.0):
        raise ValueError("distance must be positive")
    d_m = np.maximum(d_m, MIN_DISTANCE_M)
    loss = params.l0_db + 10.0 * params.alpha * np.log10(d_m) + np.asarray(phi) * params.lw_db
    return loss if loss.ndim else float(loss)


def linear_gain(loss_db):
    """dB loss -> linear power gain 10^(-loss/10)."""
    out = 10.0 ** (-np.asarray(loss_db, dtype=float) / 10.0)
    return out if out.ndim else float(out)


def average_gains(area: ServiceArea, params: PropagationParams, tx_xy, rx_xy) -> np.ndarray:
    """Linear average path gains between all tx/rx point pairs, (n_tx, n_rx).

    Euclidean distance (clamped at 1 m) plus the strict wall-crossing count.
    Evaluates ``linear_gain(path_loss_db(d, phi))`` with the same operations
    in the same order, in place in one (n_tx, n_rx) buffer, so every value
    is bit-identical to the two-step formula; at ``lw_db == 0`` the wall
    term, exact zeros, is not added.
    """
    tx_xy = np.atleast_2d(np.asarray(tx_xy, dtype=float))
    rx_xy = np.atleast_2d(np.asarray(rx_xy, dtype=float))
    out = np.subtract.outer(tx_xy[:, 0], rx_xy[:, 0])
    scratch = np.subtract.outer(tx_xy[:, 1], rx_xy[:, 1])
    np.hypot(out, scratch, out=out)
    np.maximum(out, MIN_DISTANCE_M, out=out)
    np.log10(out, out=out)
    np.multiply(10.0 * params.alpha, out, out=out)
    np.add(params.l0_db, out, out=out)
    if params.lw_db != 0.0:  # else the wall term adds exact zeros
        np.multiply(crossing_counts(area, tx_xy, rx_xy), params.lw_db, out=scratch)
        np.add(out, scratch, out=out)
    np.negative(out, out=out)
    np.divide(out, 10.0, out=out)
    return np.power(10.0, out, out=out)


def wall_factors(area: ServiceArea, params: PropagationParams) -> np.ndarray:
    """Linear wall loss 10^(phi*Lw/10) for phi = 0 .. every wall of the area."""
    n_walls = sum(walls.size for walls in wall_positions(area))
    return 10.0 ** (np.arange(n_walls + 1) * (params.lw_db / 10.0))


def association_cost(params: PropagationParams, d2: np.ndarray, wall_factor) -> np.ndarray:
    """Linear pathloss without L0, max(d^2, 1)^(alpha/2) * wall_factor, in place in ``d2``.

    ``d2`` holds squared distances dx*dx + dy*dy and ``wall_factor`` the
    ``wall_factors`` entry of each pair's crossing count. No hypot, no power
    for alpha = 2, one square for alpha = 4. ``average_gains`` equals
    10^(-L0/10) / cost in exact arithmetic, so the costs rank transmitters
    as those gains do, up to rounding. Every step rounds monotonically, so
    the cost at a larger squared distance or wall factor is never smaller.
    """
    np.maximum(d2, MIN_DISTANCE_M**2, out=d2)
    with np.errstate(over="ignore"):  # an overflowed cost ranks as inf
        if params.alpha == 4.0:
            np.multiply(d2, d2, out=d2)
        elif params.alpha != 2.0:
            np.power(d2, params.alpha / 2.0, out=d2)
        return np.multiply(d2, wall_factor, out=d2)


def noise_power_mw(boltzmann_j_per_k: float, temperature_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power k*T*W over the given bandwidth, in mW."""
    return boltzmann_j_per_k * temperature_k * bandwidth_hz * 1e3


def draw_fading(rng: np.random.Generator, shape, sigma_z2: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws with E[|z|^2] = sigma_z2."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= np.sqrt(sigma_z2 / 2.0)
    return z


def delayed_csit(
    z_prev: np.ndarray,
    delta: float,
    rho: float,
    rng: np.random.Generator,
    sigma_z2: float = 1.0,
) -> np.ndarray:
    """Evolve fading past a feedback delay; the CSIT keeps the pre-delay state.

    ``delta`` and ``rho`` lie in [0, 1]; the scenario schema checks both.
    Each link is independently outdated with probability ``delta``. On an
    outdated link the current fading is the AR(1) step
    z_now = rho * z_prev + sqrt(1 - rho^2) * q with q ~ CN(0, sigma_z2);
    elsewhere z_now == z_prev, so the CSIT (always z_prev) is exact there.

    Returns z_now. The caller builds h_hat = sqrt(L) * z_prev and the true
    channel from z_now; average gains are shared.
    """
    z_prev = np.asarray(z_prev)
    outdated = rng.random(z_prev.shape) < delta
    q = draw_fading(rng, z_prev.shape, sigma_z2)
    evolved = rho * z_prev + np.sqrt(1.0 - rho**2) * q
    return np.where(outdated, evolved, z_prev)
