"""Brute-force oracles for the verification suite and the `apdim oracle` verb.

Each oracle computes an expected result by a route independent of the code it
checks: segment-segment intersection for wall counts, admission-order
enumeration for SSI probabilities, dense grid search for the PAPC power
program, and a KS test against the analytic exponential CDF for fading powers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import channel as ch
from . import zf
from .geometry import ServiceArea, wall_crossings, wall_positions


# --- wall crossings ----------------------------------------------------------

def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    """Proper crossing test via orientation signs (touching endpoints excluded)."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(q1, q2, p1)
    d2 = cross(q1, q2, p2)
    d3 = cross(p1, p2, q1)
    d4 = cross(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def brute_force_wall_crossings(area: ServiceArea, p, q) -> int:
    """Count wall segments properly intersected by segment p-q.

    A proper intersection excludes touching a wall's end, so a segment along
    the area's boundary crosses nothing here, while ``crossing_counts`` counts
    every wall it passes. The two are compared on interior points only.
    """
    xs, ys = wall_positions(area)
    count = 0
    for x in xs:
        if _segments_properly_intersect(p, q, (x, 0.0), (x, area.ly)):
            count += 1
    for y in ys:
        if _segments_properly_intersect(p, q, (0.0, y), (area.lx, y)):
            count += 1
    return count


def compare_wall_crossings(n_pairs: int = 1000, seed: int = 7) -> int:
    """Max |fast - brute| over random point pairs in a walled area (expect 0)."""
    rng = np.random.default_rng(seed)
    area = ServiceArea(lx=100.0, ly=80.0, wx=4, wy=3)
    worst = 0
    for _ in range(n_pairs):
        p = tuple(rng.random(2) * [area.lx, area.ly])
        q = tuple(rng.random(2) * [area.lx, area.ly])
        worst = max(worst, abs(wall_crossings(area, p, q) - brute_force_wall_crossings(area, p, q)))
    return worst


# --- SSI distribution ----------------------------------------------------------

def enumerate_ssi_distribution(adjacency: np.ndarray) -> dict[frozenset, float]:
    """Exact active-set distribution by enumerating all admission orders."""
    n = adjacency.shape[0]
    dist: dict[frozenset, float] = {}
    orders = list(itertools.permutations(range(n)))
    for order in orders:
        admitted: list[int] = []
        for i in order:
            if not admitted or not adjacency[i, admitted].any():
                admitted.append(i)
        key = frozenset(admitted)
        dist[key] = dist.get(key, 0.0) + 1.0 / len(orders)
    return dist


# --- PAPC power allocation -----------------------------------------------------

# The three ways zf.allocate_powers reaches an optimum.
PAPC_PATHS = ("rate cap", "water-filling", "interior point")


@dataclass(frozen=True)
class PapcInstance:
    """One random N=2 problem with both the solver answer and the grid optimum."""

    solver_sum_rate: float
    grid_sum_rate: float
    max_antenna_load: float
    pt_mw: float
    path: str  # one of PAPC_PATHS


def grid_search_sum_rate(
    a: np.ndarray, sigma2_mw: float, pt_mw: float, w_mhz: float, eta: float, points: int = 400
) -> float:
    """Dense grid search over the N=2 feasible polytope; returns the best sum rate."""
    if a.shape != (2, 2):
        raise ValueError("grid oracle is defined for N=2 only")
    p_cap = sigma2_mw * (2.0**eta - 1.0)
    lims = [min(p_cap, float(np.min(pt_mw / a[:, j][a[:, j] > 0]))) for j in range(2)]
    g1 = np.linspace(0.0, lims[0], points)
    g2 = np.linspace(0.0, lims[1], points)
    p1, p2 = np.meshgrid(g1, g2, indexing="ij")
    feasible = (a[0, 0] * p1 + a[0, 1] * p2 <= pt_mw) & (a[1, 0] * p1 + a[1, 1] * p2 <= pt_mw)
    rates = np.minimum(w_mhz * np.log2(1.0 + p1 / sigma2_mw), w_mhz * eta) + np.minimum(
        w_mhz * np.log2(1.0 + p2 / sigma2_mw), w_mhz * eta
    )
    rates[~feasible] = -np.inf
    return float(rates.max())


def random_papc_instance(
    rng: np.random.Generator,
    sigma2_mw: float = 2.484e-10,
    pt_mw: float = 100.0,
    w_mhz: float = 60.0,
    eta: float = 3.75,
    points: int = 400,
) -> PapcInstance:
    """Draw a random N=2 channel and solve it both ways.

    Each user's path gain to its own AP is 10^U(-13, -9), and to the other
    AP 10^-U(0, 2) times that, with Rayleigh fading on every link. The
    strong draws carry both users at the rate cap, the weak ones load both
    antennas to their budget (the interior point), and the uneven ones in
    between bind one antenna (water-filling), so every path of
    ``zf.allocate_powers`` is taken.
    """
    own = rng.uniform(-13.0, -9.0, size=2)  # log10 of user j's gain to AP j
    cross = own - rng.uniform(0.0, 2.0, size=2)  # and to the other AP
    gains = 10.0 ** np.array([[own[0], cross[0]], [cross[1], own[1]]])
    h = np.sqrt(gains) * ch.draw_fading(rng, (2, 2))
    (w,), (accepted,) = zf.build_beamformers(h[None])
    if not accepted:
        raise RuntimeError("the N=2 channel draw is too ill-conditioned to invert")
    alloc = zf.allocate_powers(w[None], sigma2_mw, pt_mw, eta)
    p_mw, a = alloc.p_mw[0], np.abs(w) ** 2
    if alloc.newton_iterations[0] > 0:
        path = "interior point"
    elif (p_mw == (2.0**eta - 1.0) * sigma2_mw).all():
        path = "rate cap"
    else:
        path = "water-filling"
    return PapcInstance(
        solver_sum_rate=float(zf.zf_rates_ideal(p_mw, w_mhz, sigma2_mw, eta)[0].sum()),
        grid_sum_rate=grid_search_sum_rate(a, sigma2_mw, pt_mw, w_mhz, eta, points),
        max_antenna_load=float((a @ p_mw).max()),
        pt_mw=pt_mw,
        path=path,
    )


def papc_grid_check(rng: np.random.Generator, count: int) -> dict:
    """{path: (instances, worst relative sum-rate difference, worst load / Pt)} over
    ``count`` random instances, for each of PAPC_PATHS (0, 0.0, 0.0 where none took it)."""
    worst = {path: (0, 0.0, 0.0) for path in PAPC_PATHS}
    for _ in range(count):
        inst = random_papc_instance(rng)
        n, rel, load = worst[inst.path]
        worst[inst.path] = (
            n + 1,
            max(rel, abs(inst.solver_sum_rate - inst.grid_sum_rate) / inst.grid_sum_rate),
            max(load, inst.max_antenna_load / inst.pt_mw),
        )
    return worst


# --- fading statistics -----------------------------------------------------------

def fading_power_ks_pvalue(n: int = 100_000, sigma_z2: float = 1.0, seed: int = 11) -> float:
    """KS p-value of |z|^2 against the exponential law with mean sigma_z2."""
    rng = np.random.default_rng(seed)
    z = ch.draw_fading(rng, n, sigma_z2)
    power = np.abs(z) ** 2
    return float(stats.kstest(power, "expon", args=(0.0, sigma_z2)).pvalue)


# --- console entry used by the CLI `oracle` verb ---------------------------------

def run_all(print_fn=print) -> bool:
    """Run every oracle comparison, print one line each; True if all pass."""
    ok = True

    worst = compare_wall_crossings()
    passed = worst == 0
    ok &= passed
    print_fn(f"wall-crossings vs segment intersection: max diff {worst} "
             f"{'PASS' if passed else 'FAIL'}")

    rng = np.random.default_rng(2024)
    clique = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(clique, False)
    dist = enumerate_ssi_distribution(clique)
    passed = all(abs(dist[frozenset([i])] - 1 / 3) < 1e-12 for i in range(3))
    ok &= passed
    print_fn(f"SSI enumeration, 3-clique: P(single AP) = 1/3 each "
             f"{'PASS' if passed else 'FAIL'}")

    path = np.zeros((3, 3), dtype=bool)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
    dist = enumerate_ssi_distribution(path)
    passed = abs(dist[frozenset([0, 2])] - 2 / 3) < 1e-12 and abs(dist[frozenset([1])] - 1 / 3) < 1e-12
    ok &= passed
    print_fn(f"SSI enumeration, 3-path: P(ends) = 2/3, P(middle) = 1/3 "
             f"{'PASS' if passed else 'FAIL'}")

    for path, (n, rel, load) in papc_grid_check(rng, 20).items():
        passed = n > 0 and rel <= 0.01 and load <= 1.0 + 1e-6
        ok &= passed
        print_fn(f"PAPC {path} vs 400x400 grid ({n} of 20 instances): worst rel diff {rel:.3e}, "
                 f"worst load/Pt {load:.9f} {'PASS' if passed else 'FAIL'}")

    p = fading_power_ks_pvalue(20_000)
    passed = p > 0.01
    ok &= passed
    print_fn(f"fading power vs exponential CDF: KS p-value {p:.4f} "
             f"{'PASS' if passed else 'FAIL'}")

    return ok
