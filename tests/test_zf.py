"""Zero-forcing: inversion, PAPC power optimization vs the grid oracle, rates."""

import itertools

import numpy as np
import pytest

from apdim import channel as ch
from apdim import engine, geometry, scenario, zf
from apdim.oracles import grid_search_sum_rate, random_papc_instance

SIGMA2 = 2.484e-10
PT = 100.0
W_MHZ = 60.0
ETA = 3.75
Q_CAP = 2.0**ETA - 1.0


def random_h(rng, n, lo=-9.0, hi=-5.0):
    gains = 10.0 ** rng.uniform(lo, hi, size=(n, n))
    return np.sqrt(gains) * ch.draw_fading(rng, (n, n))


def antenna_loads(bf, alloc) -> np.ndarray:
    """Each antenna's power, sum_j |w_ij|^2 p_j."""
    return np.abs(bf.w) ** 2 @ alloc.p_mw


def sum_rate(alloc) -> float:
    return float(zf.zf_rates_ideal(alloc.p_mw, W_MHZ, SIGMA2, ETA)[0].sum())


def at_cap(bf) -> bool:
    """Whether every antenna stays within PT with every user at the rate cap,
    where allocate_powers takes q = q_cap without a solve."""
    return bool(((np.abs(bf.w) ** 2 * SIGMA2).sum(axis=1) * Q_CAP <= PT).all())


def closed_form(bf) -> bool:
    """Whether allocate_powers takes bf's optimum in closed form: at the rate cap
    or by water-filling on its one binding antenna."""
    return bool(zf._closed_form(np.abs(bf.w)[None] ** 2 * SIGMA2, PT, Q_CAP)[1][0])


def binding_antennas(bf, alloc) -> int:
    """The antennas whose load at ``alloc`` is within 1e-6 of PT."""
    return int((antenna_loads(bf, alloc) >= PT * (1 - 1e-6)).sum())


def test_beamformer_scalar_inverse():
    h = np.array([[0.3 - 0.4j]])
    bf = zf.build_beamformer(h)
    assert bf.w[0, 0] == pytest.approx(1.0 / h[0, 0])
    assert np.abs(bf.w[0, 0]) ** 2 == pytest.approx(1.0 / np.abs(h[0, 0]) ** 2)


def test_beamformer_diagonal_channel():
    d = np.array([0.5 + 0.1j, -0.2 + 0.9j, 1.5 - 0.3j])
    bf = zf.build_beamformer(np.diag(d))
    assert np.allclose(bf.w, np.diag(1.0 / d))


def test_beamformer_multiply_back():
    rng = np.random.default_rng(50)
    h = ch.draw_fading(rng, (4, 4))
    bf = zf.build_beamformer(h)
    assert np.abs(h @ bf.w - np.eye(4)).max() < 1e-8


def test_beamformer_rejects_singular():
    h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(zf.SingularChannelError):
        zf.build_beamformer(h)


def test_beamformer_rejects_non_square():
    with pytest.raises(ValueError):
        zf.build_beamformer(np.ones((2, 3), dtype=complex))


def test_beamformer_cond_diagnostic():
    h = np.diag(np.array([1.0, 1e-3], dtype=complex))
    bf = zf.build_beamformer(h)
    # the singular values of w are those of h inverted: cond(H H^dagger) = cond(H)^2
    assert zf._svd_cond(bf.w) == pytest.approx(1e6, rel=1e-6)


def test_beamformer_cond_limit_boundary():
    with pytest.raises(zf.SingularChannelError):
        zf.build_beamformer(np.diag(np.array([1.0, 1e-7], dtype=complex)))  # cond^2 = 1e14


def _svd_first_beamformer(h_hat):
    """build_beamformer as it was before the Frobenius bound: the singular values
    decide first, then the same solve and refinement."""
    s = np.linalg.svd(h_hat, compute_uv=False)
    cond = np.inf if s[-1] == 0.0 else float((s[0] / s[-1]) ** 2)
    if cond > zf.COND_LIMIT:
        return None, cond
    eye = np.eye(h_hat.shape[0], dtype=complex)
    w = np.linalg.solve(h_hat, eye)
    residual = eye - h_hat @ w
    if np.abs(residual).max() > 1e-8:
        w = w + np.linalg.solve(h_hat, residual)
        if np.abs(h_hat @ w - eye).max() > 1e-8:
            return None, cond
    return w, cond


def _conditioned(rng, n, cond2):
    """A random complex n x n matrix whose H H^dagger has condition cond2."""
    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q
    s = np.geomspace(1.0, cond2 ** -0.5, n) * 10.0 ** rng.uniform(-5, -2)
    return (unitary() * s) @ unitary()


def test_frobenius_bound_decides_as_the_singular_values(monkeypatch):
    # Random channels, matrices conditioned at and around COND_LIMIT, and
    # singular ones: the same accept or reject and the same w as deciding by
    # the singular values first; the SVD runs only where the bound cannot decide.
    rng = np.random.default_rng(64)
    svd_calls = []
    svd_cond = zf._svd_cond
    monkeypatch.setattr(zf, "_svd_cond", lambda h: svd_calls.append(1) or svd_cond(h))
    cases = [random_h(rng, n) for n in (1, 2, 4, 9, 25, 49) for _ in range(5)]
    plain = len(cases)
    for n in (2, 3, 6, 12):
        for factor in (1e-3, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3):
            cases.append(_conditioned(rng, n, zf.COND_LIMIT * factor))
    cases += [np.ones((3, 3), dtype=complex), np.zeros((2, 2), dtype=complex)]
    for i, h in enumerate(cases):
        want_w, want_cond = _svd_first_beamformer(h)
        calls = len(svd_calls)
        try:
            bf = zf.build_beamformer(h)
        except zf.SingularChannelError:
            assert want_w is None, (i, want_cond)
        else:
            assert want_w is not None and np.array_equal(bf.w, want_w), (i, want_cond)
        if i < plain:
            assert len(svd_calls) == calls, i  # no SVD for a well-conditioned channel
    assert 0 < len(svd_calls) < len(cases) - plain


def test_stacked_inversion_matches_one_matrix_at_a_time():
    # Random channels, matrices conditioned around COND_LIMIT and an exactly
    # singular one in one stack: each precoder equals the one-matrix
    # reference bit for bit, and None stands where that rejects. The singular
    # matrix fails the stacked solve, and the others are still inverted.
    rng = np.random.default_rng(70)
    for n in (1, 2, 3, 6):
        stack = [random_h(rng, n) for _ in range(4)]
        stack += [_conditioned(rng, n, zf.COND_LIMIT * f) for f in (0.5, 0.999, 1.001, 2.0)]
        for extra in ([], [np.zeros((n, n), dtype=complex)]):
            h = np.stack(stack + extra)
            got = zf.build_beamformers(h)
            assert len(got) == len(h)
            for h_j, bf in zip(h, got):
                want_w, _ = _svd_first_beamformer(h_j)
                if want_w is None:
                    assert bf is None
                else:
                    assert bf is not None and np.array_equal(bf.w, want_w)
            assert got[-1] is None if extra else got[0] is not None


def test_allocate_power_scalar_closed_form():
    # N=1: either the antenna budget binds (p = Pt*g) or the cap binds
    for g in (1e-9, 1e-6):
        h = np.array([[np.sqrt(g)]], dtype=complex)
        alloc = zf.allocate_powers([zf.build_beamformer(h)], SIGMA2, PT, ETA)[0]
        expected = min(PT * g, SIGMA2 * (2**ETA - 1))
        assert alloc.p_mw[0] == pytest.approx(expected, rel=1e-6)


def test_allocate_power_diagonal_symmetry():
    g = 1e-10  # weak: the antenna budget binds before the cap
    h = np.diag(np.full(3, np.sqrt(g))).astype(complex)
    alloc = zf.allocate_powers([zf.build_beamformer(h)], SIGMA2, PT, ETA)[0]
    expected = min(PT * g, SIGMA2 * (2**ETA - 1))
    assert np.allclose(alloc.p_mw, expected, rtol=1e-6)


def test_allocate_power_vs_grid_oracle_spot():
    rng = np.random.default_rng(51)
    for _ in range(10):
        inst = random_papc_instance(rng)
        assert inst.solver_sum_rate == pytest.approx(inst.grid_sum_rate, rel=0.01)


def test_allocate_power_papc_feasible_and_kkt():
    rng = np.random.default_rng(52)
    for n in (2, 5, 9):
        bf = zf.build_beamformer(random_h(rng, n))
        alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
        assert (antenna_loads(bf, alloc) <= PT * (1 + 1e-6)).all()
        assert (alloc.p_mw >= 0).all()
        assert alloc.converged
        assert alloc.kkt_residual <= 1e-6


def _equal_power_baseline(beamformer, sigma2_mw: float, pt_mw: float, eta_zf: float) -> np.ndarray:
    """Uniform feasible powers, scaled to the tightest antenna constraint and capped."""
    a = np.abs(beamformer.w) ** 2
    tightest = a.sum(axis=1).max()
    c = pt_mw / max(tightest, np.finfo(float).tiny)
    p_cap = sigma2_mw * (2.0**eta_zf - 1.0)
    return np.full(a.shape[1], min(c, p_cap))


def test_allocate_power_beats_equal_power_baseline():
    rng = np.random.default_rng(53)
    for n in (2, 4, 8):
        bf = zf.build_beamformer(random_h(rng, n, lo=-12, hi=-6))
        alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
        p_eq = _equal_power_baseline(bf, SIGMA2, PT, ETA)
        base_rate = np.minimum(W_MHZ * np.log2(1 + p_eq / SIGMA2), W_MHZ * ETA).sum()
        assert sum_rate(alloc) >= base_rate - 1e-6


def test_allocate_power_permutation_symmetry():
    rng = np.random.default_rng(54)
    h = random_h(rng, 5)
    alloc = zf.allocate_powers([zf.build_beamformer(h)], SIGMA2, PT, ETA)[0]
    perm = np.random.default_rng(1).permutation(5)
    alloc_p = zf.allocate_powers([zf.build_beamformer(h[perm])], SIGMA2, PT, ETA)[0]
    assert sum_rate(alloc_p) == pytest.approx(sum_rate(alloc), rel=1e-6)


# --- the interior-point solver against the log-barrier reference -----------------

def _barrier_reference(
    b: np.ndarray, budget: float, q_cap: float
) -> tuple[np.ndarray, bool, float, int]:
    """max sum(log(1+q)) s.t. b @ q <= budget, 0 <= q <= q_cap, via log barrier.

    The primal log-barrier Newton solver that zf._interior_point_solve
    replaced, kept unchanged as a reference.

    The centering objective is scaled by 1/t, i.e. -f0(q) + phi(q)/t, so line
    search comparisons stay well conditioned as t grows. Returns
    (q, converged, relative KKT stationarity residual, Newton steps).
    """
    n = b.shape[1]
    m = 3 * n  # antenna constraints + lower + upper bounds
    # Strictly feasible start: shrink a uniform point until every row has slack.
    row_load = b.sum(axis=1) * q_cap
    theta = min(0.45, 0.45 * budget / max(row_load.max(), np.finfo(float).tiny))
    q = np.full(n, theta * q_cap)

    def centering_value(qv: np.ndarray, t: float) -> float:
        slack = budget - b @ qv
        if slack.min() <= 0 or qv.min() <= 0 or (q_cap - qv).min() <= 0:
            return np.inf
        phi = -np.log(slack).sum() - np.log(qv).sum() - np.log(q_cap - qv).sum()
        return float(-np.log1p(qv).sum() + phi / t)

    def scaled_gradient(qv: np.ndarray, t: float) -> np.ndarray:
        inv_slack = 1.0 / (budget - b @ qv)
        return -1.0 / (1.0 + qv) + (b.T @ inv_slack - 1.0 / qv + 1.0 / (q_cap - qv)) / t

    def grad_rel_of(g: np.ndarray, qv: np.ndarray) -> float:
        # Stationarity residual of the KKT system with the barrier multipliers
        # (exactly the scaled gradient), relative to ||grad f0||_inf.
        return float(np.abs(g).max() * (1.0 + qv.min()))

    f_scale = max(1.0, n * np.log1p(q_cap))
    gap_tol = 1e-8 * f_scale
    grad_tol = 1e-8  # well under the 1e-6 contract; ~3e-9 is the float floor here
    t = max(1.0, m / f_scale)
    total_newton = 0
    stalled = False
    while True:
        # Intermediate centers only guide the path; only the last one must
        # satisfy the tight stationarity tolerance.
        final_round = m / t <= gap_tol
        inner_tol = grad_tol if final_round else 1e-4
        for _ in range(60):
            slack = budget - b @ q
            inv_slack = 1.0 / slack
            grad = scaled_gradient(q, t)
            if grad_rel_of(grad, q) <= inner_tol:
                break
            hess = (b.T * inv_slack**2) @ b / t
            diag = 1.0 / (1.0 + q) ** 2 + (1.0 / q**2 + 1.0 / (q_cap - q) ** 2) / t
            hess[np.diag_indices_from(hess)] += diag
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                stalled = True
                break
            total_newton += 1
            # Largest step keeping strict feasibility, with a 1% margin.
            alpha = 1.0
            load = b @ step
            for num, den in ((slack, load), (q, -step), (q_cap - q, step)):
                pos = den > 0
                if pos.any():
                    alpha = min(alpha, 0.99 * float((num[pos] / den[pos]).min()))
            base = centering_value(q, t)
            gts = float(grad @ step)
            accepted = False
            while alpha > 1e-13:
                cand = q + alpha * step
                val = centering_value(cand, t)
                if np.isfinite(val) and val <= base + 0.25 * alpha * gts:
                    q = cand
                    accepted = True
                    break
                # Near the center the value decrease falls below float
                # resolution; a (near-)full Newton step that shrinks the
                # gradient norm is equally valid there.
                if np.isfinite(val) and alpha >= 0.5:
                    if np.abs(scaled_gradient(cand, t)).max() < np.abs(grad).max():
                        q = cand
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                if grad_rel_of(grad, q) > 1e-7:
                    stalled = True
                break
        if stalled or m / t <= gap_tol:
            break
        t *= 30.0
    final_grad_rel = grad_rel_of(scaled_gradient(q, t), q)
    return q, not stalled, final_grad_rel, total_newton


def _geometric_beamformer(rng, n, g0):
    """Precoder for n users, each dropped in its own AP's unit cell.

    APs sit at the cell centres of a square grid; the gain from an antenna to a
    user is g0 * d^-4 (d floored at 0.05 cells) times Rayleigh fading, so each
    user's own AP is usually, but not always, its strongest, as in the
    engine's snapshots.
    """
    side = int(np.ceil(np.sqrt(n)))
    cells = np.stack(np.divmod(np.arange(n), side), axis=1).astype(float)
    users = cells + rng.uniform(0.0, 1.0, size=(n, 2))
    d = np.hypot(*(users[:, None, :] - (cells + 0.5)[None, :, :]).transpose(2, 0, 1))
    h = np.sqrt(g0 * np.maximum(d, 0.05) ** -4.0) * ch.draw_fading(rng, (n, n))
    return zf.build_beamformer(h)


def _geometric_b(rng, n, g0):
    """PAPC constraint matrix of ``_geometric_beamformer``'s precoder."""
    return np.abs(_geometric_beamformer(rng, n, g0).w) ** 2 * SIGMA2


# gain at one cell's distance: the antenna budget binds, every cap binds, or both occur
PAPC_REGIMES = {"weak": 1e-13, "strong": 1e-7, "mixed": 3e-11}


def test_interior_point_matches_barrier_reference():
    rng = np.random.default_rng(59)
    q_cap = 2.0**ETA - 1.0
    iterations = []
    compared = dict.fromkeys(PAPC_REGIMES, 0)
    for regime, g0 in PAPC_REGIMES.items():
        for n in (1, 2, 5, 9, 25, 49, 100):
            for _ in range(3 if n <= 25 else 1):
                b = _geometric_b(rng, n, g0)
                q, converged, kkt, iters = zf._interior_point_solve(b[None], PT, q_cap)[0]
                q_ref, ref_converged, ref_kkt, _ = _barrier_reference(b, PT, q_cap)
                iterations.append(iters)
                assert converged and kkt <= 1e-8
                f, f_ref = np.log1p(q).sum(), np.log1p(q_ref).sum()
                assert f >= f_ref - 1e-9 * abs(f_ref)
                assert (b @ q <= PT * (1 + 1e-6)).all()
                if regime == "weak":
                    assert (b @ q).max() >= PT * (1 - 1e-6)
                if regime == "strong":
                    assert (q >= q_cap * (1 - 1e-6)).all()
                # The reference reports converged with a stationarity residual
                # up to 1e-3 on weak channels; q is compared only where it met
                # its own 1e-8 tolerance, the objective everywhere.
                if ref_converged and ref_kkt <= 1e-8:
                    assert np.abs(q - q_ref).max() <= 1e-7 * q_cap
                    compared[regime] += 1
    assert np.median(iterations) <= 15
    assert all(count > 0 for count in compared.values()), compared


def test_iteration_cap_reports_not_converged(monkeypatch):
    rng = np.random.default_rng(60)
    while closed_form(bf := zf.build_beamformer(random_h(rng, 4, lo=-13, hi=-11))):
        pass
    assert binding_antennas(bf, _solo_allocation(bf)) >= 2
    monkeypatch.setattr(zf, "_MAX_ITERATIONS", 1)
    alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
    assert alloc.converged is False
    assert alloc.newton_iterations == 1
    assert (antenna_loads(bf, alloc) <= PT).all() and (alloc.p_mw > 0).all()

    # behind walls this snapshot's antennas cannot carry every user at the cap
    scn = scenario.preset("table1-obstructed")
    ctx = engine.make_context(scn, geometry.place_aps(scn.area, 2, 2))
    rngs = [engine.substream(5, 0, engine._SALT_SNAPSHOT, 0)]
    block = engine.draw_block(ctx, rngs, ["zf-ideal"])
    tallies = engine.zf_block(ctx, block, erroneous=False)
    assert list(tallies) == ["zf-ideal"]
    assert tallies["zf-ideal"].solver_fallbacks.tolist() == [1]


# --- the stacked solver against the solo solver it replaced ----------------------

def _solo_solve(
    b: np.ndarray, budget: float, q_cap: float
) -> tuple[np.ndarray, bool, float, int]:
    """max sum(log(1+q)) s.t. b @ q <= budget, 0 <= q <= q_cap, by primal-dual interior point.

    The one-instance solver that the stacked zf._interior_point_solve
    replaced, kept unchanged as a reference (it reads the iteration cap and
    the step fraction from zf, as it did there).
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
        if iters >= zf._MAX_ITERATIONS:
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
            alpha_aff = min(1.0, _solo_max_step(s, ds_aff), _solo_max_step(y, dy_aff))
            mu = gap / m
            mu_aff = float((s + alpha_aff * ds_aff) @ (y + alpha_aff * dy_aff)) / m
            target = max((mu_aff / mu) ** 3 * mu, mu_floor)
            dq, ds, dy = direction(s * y - target + ds_aff * dy_aff)
        except np.linalg.LinAlgError:
            return q, False, kkt, iters
        alpha = min(1.0, zf._STEP_TO_BOUNDARY * min(_solo_max_step(s, ds), _solo_max_step(y, dy)))
        q = q + alpha * dq
        s = s + alpha * ds  # stepped with q, not recomputed, so it stays positive
        y = y + alpha * dy
        iters += 1


def _solo_max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha * dv >= 0 (inf when dv >= 0)."""
    neg = dv < 0
    return float((v[neg] / -dv[neg]).min()) if neg.any() else np.inf


def _solo_allocation(beamformer) -> zf.PowerAllocation:
    """zf.allocate_power as it was before the stacked solver, on ``_solo_solve``."""
    q_cap = 2.0**ETA - 1.0
    q, converged, kkt, iters = _solo_solve(np.abs(beamformer.w) ** 2 * SIGMA2, PT, q_cap)
    return zf.PowerAllocation(
        p_mw=q * SIGMA2,
        converged=converged,
        kkt_residual=kkt,
        newton_iterations=iters,
    )


def _assert_same_allocation(got: zf.PowerAllocation, want: zf.PowerAllocation) -> None:
    assert np.array_equal(got.p_mw, want.p_mw)
    assert got.converged is want.converged
    assert got.kkt_residual == want.kkt_residual
    assert got.newton_iterations == want.newton_iterations


# gain at one cell's distance for instances that allocate_powers solves by
# interior point: few, some or many users end at their cap
SOLVER_REGIMES = {"weak": 1e-13, "mixed": 1e-12, "near-cap": 1e-11}


def _solver_bound_beamformer(rng, n, g0):
    """``_geometric_beamformer``, redrawn while allocate_powers would take it in closed form.
    Its optimum then binds two antennas or more, which the callers assert."""
    while closed_form(bf := _geometric_beamformer(rng, n, g0)):
        pass
    return bf


def _papc_batch(seed: int, per_regime: int = 3) -> list:
    """Solver-bound precoders of every size in SOLVER_REGIMES' three regimes, regimes
    interleaved. A single antenna is always solved in closed form, so n >= 2."""
    rng = np.random.default_rng(seed)
    return [
        _solver_bound_beamformer(rng, n, g0)
        for n in (2, 5, 9, 25, 49)
        for _ in range(per_regime)
        for g0 in SOLVER_REGIMES.values()
    ]


def test_allocate_powers_matches_solo_solves():
    beamformers = _papc_batch(61)
    # sizes shuffled within the one call: grouping by n must keep the order
    order = np.random.default_rng(0).permutation(len(beamformers))
    got = zf.allocate_powers([beamformers[i] for i in order], SIGMA2, PT, ETA)
    assert len(got) == len(beamformers)
    iterations: dict = {}
    for i, alloc in zip(order, got):
        want = _solo_allocation(beamformers[i])
        _assert_same_allocation(alloc, want)
        assert want.converged
        assert binding_antennas(beamformers[i], want) >= 2
        iterations.setdefault(beamformers[i].w.shape[0], set()).add(want.newton_iterations)
    # instances of one size leave the stack at different iterations
    assert all(len(counts) > 1 for counts in iterations.values()), iterations


def test_allocate_powers_batch_of_one():
    assert zf.allocate_powers([], SIGMA2, PT, ETA) == []
    for bf in _papc_batch(63, per_regime=1):
        (alloc,) = zf.allocate_powers([bf], SIGMA2, PT, ETA)
        want = _solo_allocation(bf)
        assert binding_antennas(bf, want) >= 2
        _assert_same_allocation(alloc, want)


def test_allocate_powers_at_iteration_cap(monkeypatch):
    beamformers = _papc_batch(64, per_regime=1)
    assert all(binding_antennas(bf, _solo_allocation(bf)) >= 2 for bf in beamformers)
    monkeypatch.setattr(zf, "_MAX_ITERATIONS", 1)
    for bf, alloc in zip(beamformers, zf.allocate_powers(beamformers, SIGMA2, PT, ETA)):
        want = _solo_allocation(bf)
        _assert_same_allocation(alloc, want)
        assert want.converged is False and want.newton_iterations == 1


def test_singular_newton_step_fails_only_its_instance(monkeypatch):
    rng = np.random.default_rng(65)
    beamformers = [
        _solver_bound_beamformer(rng, 9, g0) for g0 in SOLVER_REGIMES.values() for _ in (0, 1)
    ]
    want = [_solo_allocation(bf) for bf in beamformers]
    assert all(binding_antennas(bf, w) >= 2 for bf, w in zip(beamformers, want))
    # Every instance takes at least 7 iterations, so all 6 are still stacked
    # at iteration 3: its predictor solve is the 7th stacked call. The
    # instance-by-instance redo then solves twice per instance before it
    # reaches the target's predictor.
    target, failing_iteration = 4, 3
    with monkeypatch.context() as cap:
        cap.setattr(zf, "_MAX_ITERATIONS", failing_iteration)
        want[target] = _solo_allocation(beamformers[target])
    assert all(w.newton_iterations > failing_iteration for i, w in enumerate(want) if i != target)
    solve = np.linalg.solve
    calls = {"stacked": 0, "single": 0}

    def flaky_solve(a, b):
        if a.shape[0] > 1:
            calls["stacked"] += 1
            if calls["stacked"] == 2 * failing_iteration + 1:
                raise np.linalg.LinAlgError("Singular matrix")
        elif calls["stacked"] == 2 * failing_iteration + 1:
            calls["single"] += 1
            if calls["single"] == 2 * target + 1:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(zf.np.linalg, "solve", flaky_solve)
    got = zf.allocate_powers(beamformers, SIGMA2, PT, ETA)
    assert calls["single"] == 2 * len(beamformers) - 1  # every other instance stepped alone
    assert calls["stacked"] > 2 * failing_iteration + 1  # and the stack went on without it
    for alloc, expected in zip(got, want):
        _assert_same_allocation(alloc, expected)
    assert got[target].converged is False
    assert got[target].newton_iterations == failing_iteration
    assert (antenna_loads(beamformers[target], got[target]) <= PT).all()
    assert (got[target].p_mw > 0).all()


def test_allocate_powers_closed_form_at_the_rate_cap():
    # Strong channels carry every user at its cap: allocate_powers returns
    # q = q_cap without a solve, where the interior point ends within its
    # tolerances. Stacked with solver-bound instances of the same sizes, those
    # still match solo solves bit for bit.
    rng = np.random.default_rng(66)
    capped = [_geometric_beamformer(rng, n, PAPC_REGIMES["strong"]) for n in (1, 2, 5, 9, 25, 49)]
    assert all(at_cap(bf) for bf in capped)
    beamformers = capped + _papc_batch(67, per_regime=1)
    order = np.random.default_rng(1).permutation(len(beamformers))
    got = zf.allocate_powers([beamformers[i] for i in order], SIGMA2, PT, ETA)
    for i, alloc in zip(order, got):
        bf = beamformers[i]
        if i >= len(capped):
            _assert_same_allocation(alloc, _solo_allocation(bf))
            continue
        n = bf.w.shape[0]
        want = zf.PowerAllocation(
            p_mw=np.full(n, Q_CAP * SIGMA2), converged=True, kkt_residual=0.0, newton_iterations=0
        )
        _assert_same_allocation(alloc, want)
        q, converged, kkt, iters = zf._interior_point_solve(
            np.abs(bf.w)[None] ** 2 * SIGMA2, PT, Q_CAP
        )[0]
        assert converged and kkt <= 1e-8 and iters > 0
        f_cap = n * np.log1p(Q_CAP)
        assert 0.0 <= f_cap - np.log1p(q).sum() <= 1e-10 * max(1.0, f_cap)  # its gap tolerance
        assert np.abs(q - Q_CAP).max() <= 1e-7 * Q_CAP


# --- water-filling where one antenna binds ------------------------------------------

def _one_binding_beamformer(rng, n):
    """``_geometric_beamformer`` at gains that overload some antenna at the cap, redrawn
    until the optimum that a solo solve finds binds exactly one antenna."""
    for g0 in itertools.cycle((1e-12, 1e-11, 3e-11, 1e-10)):
        bf = _geometric_beamformer(rng, n, g0)
        if not at_cap(bf) and binding_antennas(bf, _solo_allocation(bf)) == 1:
            return bf


def overloaded_antennas(bf) -> int:
    """The antennas that cannot carry every user at the rate cap."""
    return int(((np.abs(bf.w) ** 2 * SIGMA2).sum(axis=1) * Q_CAP > PT).sum())


def test_water_filling_matches_the_interior_point():
    # Where one antenna binds, also where several are overloaded at the cap,
    # allocate_powers water-fills without a solve; the interior point on the
    # same instance converges within its tolerances of that point, and both
    # bind the one antenna. Stacked or alone, an instance gets the same
    # allocation.
    rng = np.random.default_rng(68)
    beamformers = [_one_binding_beamformer(rng, n) for n in (1, 2, 5, 9, 25, 49) for _ in (0, 1)]
    assert max(overloaded_antennas(bf) for bf in beamformers) >= 2
    for bf, alloc in zip(beamformers, zf.allocate_powers(beamformers, SIGMA2, PT, ETA)):
        n = bf.w.shape[0]
        assert alloc.converged and alloc.kkt_residual == 0.0 and alloc.newton_iterations == 0
        _assert_same_allocation(alloc, zf.allocate_powers([bf], SIGMA2, PT, ETA)[0])
        assert (antenna_loads(bf, alloc) <= PT).all() and (alloc.p_mw >= 0).all()
        assert binding_antennas(bf, alloc) == 1
        want = _solo_allocation(bf)
        assert want.converged and want.newton_iterations > 0
        assert binding_antennas(bf, want) == 1
        f, f_ip = np.log1p(alloc.p_mw / SIGMA2).sum(), np.log1p(want.p_mw / SIGMA2).sum()
        assert abs(f - f_ip) <= 1e-10 * max(1.0, n * np.log1p(Q_CAP))  # the gap tolerance
        assert np.abs(alloc.p_mw - want.p_mw).max() <= 1e-6 * Q_CAP * SIGMA2


def test_water_filling_meets_kkt():
    # With the binding antenna's multiplier lambda and all others zero, every
    # user strictly inside (0, q_cap) has 1 / (1 + q_j) = lambda b_ij, a user at
    # 0 has lambda b_ij >= 1, and a user at the cap lambda b_ij <= 1 / (1 + q_cap).
    rng = np.random.default_rng(69)
    for n in (1, 2, 5, 9, 25, 49):
        bf = _one_binding_beamformer(rng, n)
        (alloc,) = zf.allocate_powers([bf], SIGMA2, PT, ETA)
        assert alloc.newton_iterations == 0
        q, b = alloc.p_mw / SIGMA2, np.abs(bf.w) ** 2 * SIGMA2
        loads = b @ q
        i = int(np.argmax(loads))
        assert PT * (1 - 1e-9) <= loads[i] <= PT
        assert (np.delete(loads, i) < PT).all()
        inside = (q > 0) & (q < Q_CAP)
        price = 1.0 / ((1.0 + q[inside]) * b[i, inside])
        lam = price.mean()
        assert np.abs(price - lam).max() <= 1e-9 * lam
        assert (lam * b[i, q == 0] >= 1 - 1e-9).all()
        assert (lam * b[i, q == Q_CAP] <= (1 + 1e-9) / (1 + Q_CAP)).all()
        assert ((q == 0) | inside | (q == Q_CAP)).all()


def test_water_filling_caps_a_user_at_zero_load():
    # A lower-triangular precoder: antenna 0 spends nothing on user 1. Antenna
    # 0 alone binds, so user 1 stays at its cap and user 0 takes antenna 0's
    # budget, q_0 = PT / b_00.
    bf = zf.Beamformer(w=np.array([[np.sqrt(1e11) * np.exp(0.3j), 0.0],
                                   [np.sqrt(1e9) * np.exp(1.1j), np.sqrt(1e9) * np.exp(-0.7j)]]))
    b = np.abs(bf.w) ** 2 * SIGMA2
    assert b[0, 1] == 0.0 and b[0, 0] * Q_CAP > PT and b[1].sum() * Q_CAP < PT
    (alloc,) = zf.allocate_powers([bf], SIGMA2, PT, ETA)
    assert alloc.converged and alloc.newton_iterations == 0
    assert alloc.p_mw[1] == Q_CAP * SIGMA2
    assert alloc.p_mw[0] == pytest.approx(PT / b[0, 0] * SIGMA2, rel=1e-11)
    assert (antenna_loads(bf, alloc) <= PT).all()
    want = _solo_allocation(bf)
    assert np.abs(alloc.p_mw - want.p_mw).max() <= 1e-6 * Q_CAP * SIGMA2


def test_water_filling_declines_two_binding_antennas():
    # A weak, nearly diagonal channel overloads both antennas, and its optimum
    # binds both: each antenna's water-filling point overloads the other, so
    # the instance goes to the interior point and matches its solo solve.
    h = np.sqrt(1e-12) * np.array([[1.0, 0.1j], [0.2, 0.9 - 0.1j]])
    bf = zf.build_beamformer(h)
    assert ((np.abs(bf.w) ** 2 * SIGMA2).sum(axis=1) * Q_CAP > PT).all()
    want = _solo_allocation(bf)
    assert want.converged and binding_antennas(bf, want) == 2
    assert not closed_form(bf)
    (alloc,) = zf.allocate_powers([bf], SIGMA2, PT, ETA)
    assert alloc.newton_iterations > 0
    _assert_same_allocation(alloc, want)


def test_zf_rates_ideal_zero_power():
    alloc = zf.PowerAllocation(
        p_mw=np.zeros(2),
        converged=True,
        kkt_residual=0.0,
        newton_iterations=0,
    )
    rates, snr = zf.zf_rates_ideal(alloc.p_mw, W_MHZ, SIGMA2, ETA)
    assert (rates == 0).all()
    assert (snr == 0).all()


def test_zf_rates_ideal_cap_boundary():
    p = SIGMA2 * (2**ETA - 1)
    alloc = zf.PowerAllocation(
        p_mw=np.array([p]),
        converged=True,
        kkt_residual=0.0,
        newton_iterations=0,
    )
    rates, snr = zf.zf_rates_ideal(alloc.p_mw, W_MHZ, SIGMA2, ETA)
    assert rates[0] == pytest.approx(W_MHZ * ETA)
    assert snr[0] == pytest.approx(2**ETA - 1)


def test_zf_rates_erroneous_reduces_to_ideal_when_exact():
    rng = np.random.default_rng(55)
    h = random_h(rng, 4)
    bf = zf.build_beamformer(h)
    alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
    rates_i, snr_i = zf.zf_rates_ideal(alloc.p_mw, W_MHZ, SIGMA2, ETA)
    rates_e, sinr_e = zf.zf_rates_erroneous(h, bf.w, alloc.p_mw, W_MHZ, SIGMA2, ETA)
    assert np.allclose(rates_e, rates_i, rtol=1e-9)
    assert np.allclose(sinr_e, snr_i, rtol=1e-6)


def test_zf_rates_erroneous_on_a_stack_equals_the_formula_per_instance():
    # Stacked instances of one size: each user's SINR is |c_jj|^2 p_j over the
    # leakage sum_{m != j} |c_jm|^2 p_m plus noise, for C = H_true W, and each
    # instance's rates equal those of a call on it alone, bit for bit.
    rng = np.random.default_rng(71)
    h_true = np.stack([random_h(rng, 4) for _ in range(3)])
    w = np.stack([zf.build_beamformer(random_h(rng, 4)).w for _ in range(3)])
    p = rng.uniform(0.0, Q_CAP * SIGMA2, size=(3, 4))
    rates, sinr = zf.zf_rates_erroneous(h_true, w, p, W_MHZ, SIGMA2, ETA)
    for h_k, w_k, p_k, rates_k, sinr_k in zip(h_true, w, p, rates, sinr):
        alone = zf.zf_rates_erroneous(h_k, w_k, p_k, W_MHZ, SIGMA2, ETA)
        assert np.array_equal(alone[0], rates_k) and np.array_equal(alone[1], sinr_k)
        c = np.abs(h_k @ w_k) ** 2
        for j in range(4):
            leak = sum(c[j, m] * p_k[m] for m in range(4) if m != j)
            assert sinr_k[j] == pytest.approx(c[j, j] * p_k[j] / (leak + SIGMA2), rel=1e-12)
        assert np.allclose(rates_k, np.minimum(W_MHZ * np.log2(1 + sinr_k), W_MHZ * ETA))


def test_zf_rates_erroneous_zero_leakage_without_outdating():
    rng = np.random.default_rng(56)
    h = random_h(rng, 5)
    z_prev = ch.draw_fading(rng, (5, 5))
    z_now = ch.delayed_csit(z_prev, delta=0.0, rho=0.9, rng=rng)
    assert not (z_now != z_prev).any()
    coupling = np.abs(h @ zf.build_beamformer(h).w) ** 2
    off_diag = coupling - np.diag(np.diag(coupling))
    assert off_diag.max() < 1e-12


def test_zf_erroneous_median_sinr_collapse_at_full_outdating():
    # delta=1, rho=0: the precoder sees a channel independent of the true one;
    # at N=8 the matched-snapshot median SINR drops by >= 20 dB vs ideal.
    rng = np.random.default_rng(57)
    drops = []
    for _ in range(60):
        gains = 10.0 ** rng.uniform(-8.0, -6.0, size=(8, 8))
        sqrt_l = np.sqrt(gains)
        z_prev = ch.draw_fading(rng, (8, 8))
        z_now = ch.delayed_csit(z_prev, delta=1.0, rho=0.0, rng=rng)
        h_hat = sqrt_l * z_prev
        h_true = sqrt_l * z_now
        bf = zf.build_beamformer(h_hat)
        alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
        _, snr_i = zf.zf_rates_ideal(alloc.p_mw, W_MHZ, SIGMA2, ETA)
        _, sinr_e = zf.zf_rates_erroneous(h_true, bf.w, alloc.p_mw, W_MHZ, SIGMA2, ETA)
        drops.append(10 * np.log10(np.median(snr_i) / np.median(sinr_e)))
    assert np.median(drops) >= 20.0


def test_outage_non_decreasing_in_delta_matched_seeds():
    rng_master = np.random.default_rng(58)
    gains = 10.0 ** rng_master.uniform(-8.0, -6.0, size=(6, 6))
    sqrt_l = np.sqrt(gains)
    gamma = 10 ** 0.3
    outage_by_delta = []
    for delta in (0.0, 0.05, 0.2, 0.5):
        hits = total = 0
        for s in range(300):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(s,)))
            z_prev = ch.draw_fading(rng, (6, 6))
            z_now = ch.delayed_csit(z_prev, delta=delta, rho=0.9, rng=rng)
            h_hat = sqrt_l * z_prev
            bf = zf.build_beamformer(h_hat)
            alloc = zf.allocate_powers([bf], SIGMA2, PT, ETA)[0]
            _, sinr = zf.zf_rates_erroneous(sqrt_l * z_now, bf.w, alloc.p_mw, W_MHZ, SIGMA2, ETA)
            hits += int((sinr < gamma).sum())
            total += sinr.size
        outage_by_delta.append(hits / total)
    assert all(b >= a - 0.01 for a, b in zip(outage_by_delta, outage_by_delta[1:]))
