"""Channel model: pathloss arithmetic, fading statistics, delayed CSIT."""

import numpy as np
import pytest
from scipy import stats

from apdim import channel as ch
from apdim.geometry import ServiceArea, place_aps

OPEN = ch.PropagationParams(l0_db=37.0, alpha=2.0, lw_db=0.0)


def test_path_loss_log_decade():
    assert ch.path_loss_db(OPEN, 10.0, 0) == pytest.approx(57.0)


def test_path_loss_at_one_meter():
    assert ch.path_loss_db(OPEN, 1.0, 0) == pytest.approx(37.0)


def test_path_loss_with_walls():
    params = ch.PropagationParams(l0_db=37.0, alpha=4.0, lw_db=10.0)
    assert ch.path_loss_db(params, 10.0, 3) == pytest.approx(107.0)


def test_path_loss_clamps_below_one_meter():
    assert ch.path_loss_db(OPEN, 0.2, 0) == pytest.approx(37.0)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        ch.path_loss_db(OPEN, 0.0, 0)
    with pytest.raises(ValueError):
        ch.path_loss_db(OPEN, np.array([5.0, -1.0]), 0)


def test_path_loss_monotone_in_d_phi_alpha():
    d = np.linspace(1.5, 200, 50)
    loss = ch.path_loss_db(OPEN, d, 0)
    assert (np.diff(loss) > 0).all()
    walls = ch.PropagationParams(l0_db=37.0, alpha=2.0, lw_db=10.0)
    assert ch.path_loss_db(walls, 10.0, 2) > ch.path_loss_db(walls, 10.0, 1)
    steeper = ch.PropagationParams(l0_db=37.0, alpha=3.0, lw_db=0.0)
    assert ch.path_loss_db(steeper, 10.0, 0) > ch.path_loss_db(OPEN, 10.0, 0)


def test_linear_gain_values():
    assert ch.linear_gain(0.0) == pytest.approx(1.0)
    assert ch.linear_gain(30.0) == pytest.approx(1e-3)
    # 10^(-5.7), evaluated independently
    assert ch.linear_gain(57.0) == pytest.approx(1.9952623149688797e-06, rel=1e-12)


def test_noise_power_table_values():
    # k*T*W for W = 60 MHz: 1.38e-23 * 300 * 6e7 * 1e3 mW
    sigma2 = ch.noise_power_mw(1.38e-23, 300.0, 60e6)
    assert sigma2 == pytest.approx(2.484e-10, rel=1e-9)
    assert 10 * np.log10(sigma2) == pytest.approx(-96.0, abs=0.1)


def test_fading_second_moment():
    rng = np.random.default_rng(10)
    z = ch.draw_fading(rng, 100_000, sigma_z2=1.0)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.01)


def test_fading_power_is_exponential():
    rng = np.random.default_rng(11)
    power = np.abs(ch.draw_fading(rng, 50_000, sigma_z2=1.0)) ** 2
    assert stats.kstest(power, "expon", args=(0.0, 1.0)).pvalue > 0.01


def test_fading_scales_with_variance():
    rng = np.random.default_rng(12)
    z = ch.draw_fading(rng, 100_000, sigma_z2=2.5)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.5, rel=0.02)


def _draw_fading_three_temporaries(rng, shape, sigma_z2):
    # the formula draw_fading replaced: scale * (re + 1j * im)
    scale = np.sqrt(sigma_z2 / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


@pytest.mark.parametrize("shape", [7, (9, 9), (49, 49), (100, 100), (3, 4, 5), (0, 3)])
@pytest.mark.parametrize("sigma_z2", [1.0, 2.5, 0.3, 1e-300])
def test_fading_bits_equal_the_three_temporary_formula(shape, sigma_z2):
    rng, reference_rng = np.random.default_rng(24), np.random.default_rng(24)
    z = ch.draw_fading(rng, shape, sigma_z2)
    want = _draw_fading_three_temporaries(reference_rng, shape, sigma_z2)
    assert z.dtype == want.dtype and z.shape == want.shape
    assert z.tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_average_gains_in_unit_interval():
    area = ServiceArea(lx=100, ly=100, wx=2, wy=2)
    layout = place_aps(area, 2, 2)
    params = ch.PropagationParams(l0_db=37.0, alpha=3.0, lw_db=8.0)
    users = np.random.default_rng(14).random((30, 2)) * 100
    gains = ch.average_gains(area, params, layout.ap_xy, users)
    assert gains.shape == (4, 30)
    assert ((gains > 0) & (gains <= 1)).all()


def test_average_gains_equal_two_step_formula():
    # the in-place kernel against linear_gain(path_loss_db(d, phi)) on the
    # same distances and brute-force wall counts, bit for bit
    from apdim.oracles import brute_force_wall_crossings

    rng = np.random.default_rng(15)
    cases = (
        (ServiceArea(lx=100, ly=80), ch.PropagationParams(l0_db=40.05, alpha=3.5)),
        (ServiceArea(lx=100, ly=80, wx=4, wy=3), ch.PropagationParams(40.05, 4.0, 10.0)),
        (ServiceArea(lx=100, ly=80, wx=4, wy=3), ch.PropagationParams(40.05, 4.0, 0.0)),
    )
    for area, params in cases:
        tx = place_aps(area, 7, 6).ap_xy
        users = rng.random((60, 2)) * [area.lx, area.ly]
        users[:20] = tx[:20] + rng.uniform(-0.7, 0.7, (20, 2))  # pairs under 1 m
        for rx in (users, tx):  # tx against itself: coincident pairs
            diff = tx[:, None, :] - rx[None, :, :]
            d = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), ch.MIN_DISTANCE_M)
            phi = np.array(
                [[brute_force_wall_crossings(area, tuple(p), tuple(q)) for q in rx] for p in tx]
            )
            expected = ch.linear_gain(ch.path_loss_db(params, d, phi))
            assert np.array_equal(ch.average_gains(area, params, tx, rx), expected)


def test_snapshots_are_independent_block_fading():
    draws = []
    for s in range(10_000):
        rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(s,)))
        draws.append(ch.draw_fading(rng, (1, 1))[0, 0])
    z = np.array(draws)
    lag1 = np.corrcoef(np.abs(z[:-1]) ** 2, np.abs(z[1:]) ** 2)[0, 1]
    assert abs(lag1) < 0.02


def test_delayed_csit_delta_zero_is_exact():
    rng = np.random.default_rng(16)
    z = ch.draw_fading(rng, (4, 4))
    z_now = ch.delayed_csit(z, delta=0.0, rho=0.9, rng=rng)
    assert not (z_now != z).any()
    assert np.array_equal(z_now, z)


def test_delayed_csit_rho_one_degenerates():
    rng = np.random.default_rng(17)
    z = ch.draw_fading(rng, (4, 4))
    z_now = ch.delayed_csit(z, delta=1.0, rho=1.0, rng=rng)
    assert np.allclose(z_now, z)


def test_delayed_csit_independent_when_uncorrelated():
    rng = np.random.default_rng(18)
    z = ch.draw_fading(rng, 10_000)
    z_now = ch.delayed_csit(z, delta=1.0, rho=0.0, rng=rng)
    assert (z_now != z).all()
    corr = np.corrcoef(np.real(z), np.real(z_now))[0, 1]
    assert abs(corr) < 0.02


def test_ar1_preserves_stationary_variance():
    rng = np.random.default_rng(19)
    z = ch.draw_fading(rng, 100_000)
    z_now = ch.delayed_csit(z, delta=0.7, rho=0.6, rng=rng)
    assert np.mean(np.abs(z_now) ** 2) == pytest.approx(1.0, rel=0.02)


def test_ar1_correlation_equals_rho():
    rho = 0.9
    rng = np.random.default_rng(20)
    z = ch.draw_fading(rng, 100_000)
    z_now = ch.delayed_csit(z, delta=1.0, rho=rho, rng=rng)
    assert (z_now != z).all()
    # E[z_now * conj(z_prev)] = rho * sigma_z^2 on outdated links
    cov = np.mean(z_now * np.conj(z)).real
    assert cov == pytest.approx(rho, rel=0.03)


def test_outdated_fraction_matches_delta():
    rng = np.random.default_rng(21)
    z = ch.draw_fading(rng, 100_000)
    z_now = ch.delayed_csit(z, delta=0.3, rng=rng, rho=0.9)
    assert (z_now != z).mean() == pytest.approx(0.3, abs=0.01)
