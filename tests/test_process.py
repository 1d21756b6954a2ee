"""Tests for noise schedules, transition kernels and pinned bridges."""

import warnings

import numpy as np
import pytest

from spdm import (
    GaussianMixture,
    GaussianParams,
    InvalidParams,
    SingularAtTerminal,
    TimeOutOfRange,
    bridge_forward_drift,
    bridge_kernel,
    diffused_score,
    grad_log_transition_h,
    log_density,
    make_point_group_2d,
    transition,
    ve_schedule,
    vp_schedule,
)
from spdm.process import bridge_coefficients


def test_vp_boundary_values():
    s = vp_schedule()
    assert s.alpha(0.0) == 1.0
    assert s.sigma2(0.0) == 0.0
    assert s.beta_min == 0.1 and s.beta_max == 20.0 and s.T == 1.0
    assert s.alpha(s.T) < 0.01
    np.testing.assert_allclose(s.alpha(s.T) ** 2 + s.sigma2(s.T), 1.0, atol=1e-12)


def test_vp_g2_equals_beta():
    # For this family dsigma^2/dt + beta sigma^2 = beta alpha^2 + beta sigma^2,
    # and alpha^2 + sigma^2 = 1, so g^2 collapses to the ramp itself.
    s = vp_schedule(beta_min=0.2, beta_max=15.0, T=2.0)
    t = np.linspace(0.0, 2.0, 41)
    np.testing.assert_allclose(s.g2(t), s.beta(t), atol=1e-12)


def test_g2_matches_finite_differences():
    h = 1e-6
    for s in (vp_schedule(), ve_schedule()):
        for t in np.linspace(0.1, 0.9, 9):
            d_s2 = (s.sigma2(t + h) - s.sigma2(t - h)) / (2 * h)
            d_la = (s.log_alpha(t + h) - s.log_alpha(t - h)) / (2 * h)
            want = d_s2 - 2.0 * d_la * s.sigma2(t)
            np.testing.assert_allclose(s.g2(t), want, rtol=1e-6)


def test_eta_strictly_decreasing():
    t = np.linspace(0.01, 1.0, 200)
    for s in (vp_schedule(), ve_schedule()):
        eta = s.eta(t)
        assert np.all(np.diff(eta) < 0.0)


def test_ve_schedule_values():
    s = ve_schedule(sigma_min=0.01, sigma_max=10.0, T=1.0)
    assert s.sigma(0.0) == pytest.approx(0.01)
    assert s.sigma(1.0) == pytest.approx(10.0)
    np.testing.assert_array_equal(s.drift(np.ones(3), 0.5), np.zeros(3))
    want = s.sigma2(0.5) * 2.0 * np.log(1000.0)
    np.testing.assert_allclose(s.g2(0.5), want, rtol=1e-12)


def test_alpha_sigma2_is_one_lookup_with_the_same_bits():
    ts = (0.0, 0.37, 1.0, np.linspace(0.0, 1.0, 9), np.array([[0.2], [0.9]]))
    for s in (vp_schedule(), ve_schedule(), vp_schedule(beta_min=0.3, T=2.0)):
        for t in ts:
            t = np.asarray(t) * s.T
            a, s2 = s.alpha_sigma2(t)
            np.testing.assert_array_equal(a, s.alpha(t))
            np.testing.assert_array_equal(s2, s.sigma2(t))
            assert np.shape(a) == np.shape(s2) == np.shape(t)
        for bad in (-0.1, 1.5 * s.T, np.array([0.2, 2.0 * s.T])):
            with pytest.raises(TimeOutOfRange):
                s.alpha_sigma2(bad)
        # the pinned-bridge coefficients keep the bits of four separate calls
        for t in (0.0, 0.25, 0.5 * s.T, s.T):
            a_t, a_T = float(s.alpha(t)), float(s.alpha(s.T))
            s2_t, s2_T = float(s.sigma2(t)), float(s.sigma2(s.T))
            assert bridge_coefficients(s, t) == (a_t, a_T, s2_t,
                                                 (a_T**2 * s2_t) / (a_t**2 * s2_T))
        with pytest.raises(TimeOutOfRange):
            bridge_coefficients(s, 1.5 * s.T)


def test_schedule_validation():
    with pytest.raises(InvalidParams):
        vp_schedule(beta_min=0.0)
    with pytest.raises(InvalidParams):
        vp_schedule(beta_min=5.0, beta_max=1.0)
    with pytest.raises(InvalidParams):
        vp_schedule(T=0.0)
    with pytest.raises(InvalidParams):
        ve_schedule(sigma_min=2.0, sigma_max=1.0)
    with pytest.raises(InvalidParams):
        ve_schedule(sigma_min=0.0)
    with pytest.raises(InvalidParams, match="T must be > 0"):
        ve_schedule(T=0.0)


def test_vp_schedule_refuses_an_underflowing_alpha_T():
    # alpha_T^2 = exp(-T (beta_min + beta_max) / 2) passes the smallest
    # normal float near beta_min + beta_max = 1417 at T = 1; the bridge
    # weights and the Tweedie denoiser divide by it
    s = vp_schedule(beta_max=1400.0)
    assert float(s.alpha(s.T)) ** 2 >= np.finfo(float).tiny
    for kwargs in ({"beta_max": 1e6}, {"beta_max": 1600.0},
                   {"beta_max": 20.0, "T": 200.0}):
        with pytest.raises(InvalidParams, match="beta_max"):
            vp_schedule(**kwargs)


def test_overflowing_schedules_are_refused_without_a_warning():
    # VP: alpha_T at a huge horizon overflows t^2 on its way to 0 (or NaN when
    # beta_min == beta_max); VE: sigma_T^2 or g^2(T) overflows
    cases = [(vp_schedule, {"T": 1e300}, "beta_max"),
             (vp_schedule, {"beta_min": 1.0, "beta_max": 1.0, "T": 1e300}, "beta_max"),
             (ve_schedule, {"sigma_max": 1e200}, "sigma_max"),
             (ve_schedule, {"sigma_min": 1e199, "sigma_max": 1e200}, "sigma_max"),
             (ve_schedule, {"sigma_max": 1e150, "T": 1e-300}, "sigma_max")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, kwargs, key in cases:
            with pytest.raises(InvalidParams, match=key):
                make(**kwargs)
        s = ve_schedule(sigma_max=1e150)
        assert np.isfinite(s.g2(s.T)) and np.isfinite(s.sigma2(s.T))


def test_time_range_enforced():
    s = vp_schedule()
    with pytest.raises(TimeOutOfRange):
        s.sigma2(1.5)
    with pytest.raises(TimeOutOfRange):
        s.alpha(-0.1)
    with pytest.raises(TimeOutOfRange):
        transition(s, np.zeros(2), 2.0)


@pytest.mark.parametrize("s", [vp_schedule(), ve_schedule()], ids=["vp", "ve"])
def test_nan_times_are_refused(s):
    # NaN fails every comparison, so a range test written as "t < 0 or
    # t > T" would let it through
    methods = (s.beta, s.log_alpha, s.dlog_alpha_dt, s.alpha, s.sigma2, s.alpha_sigma2,
               s.sigma, s.dsigma2_dt, s.g2, s.g, s.eta, lambda t: s.drift(np.ones(2), t))
    m = GaussianMixture(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                        np.array([0.3, 0.5]))
    x = np.zeros((2, 2))
    oracle = (lambda t: diffused_score(m, s, x, t), lambda t: log_density(m, s, x, t),
              lambda t: diffused_score(m, s, x, t, group=make_point_group_2d(4)))
    for t in (np.nan, np.array([0.3, np.nan])):
        for f in methods + oracle:
            with pytest.raises(TimeOutOfRange):
                f(t)


def test_transition_at_zero_is_exact():
    x0 = np.array([1.0, -2.0, 3.0])
    p = transition(vp_schedule(), x0, 0.0)
    np.testing.assert_array_equal(p.mean, x0)
    assert p.variance == 0.0
    p = transition(ve_schedule(), x0, 0.0)
    np.testing.assert_array_equal(p.mean, x0)
    assert p.variance == pytest.approx(1e-4)


def test_transition_moments_monte_carlo():
    rng = np.random.default_rng(0)
    s = vp_schedule()
    x0 = np.array([0.7, -1.2])
    t = 0.4
    p = transition(s, x0, t)
    draws = p.sample(rng, 100_000)
    se_mean = np.sqrt(p.variance / draws.shape[0])
    np.testing.assert_allclose(draws.mean(axis=0), p.mean, atol=4 * se_mean)
    se_var = p.variance * np.sqrt(2.0 / draws.shape[0])
    np.testing.assert_allclose(draws.var(axis=0), p.variance, atol=4 * se_var)


def test_gaussian_params_validation_and_shapes():
    with pytest.raises(InvalidParams):
        GaussianParams(mean=np.zeros(2), variance=-1.0)
    p = GaussianParams(mean=np.zeros((3, 2)), variance=1.0)
    assert p.sample(np.random.default_rng(1)).shape == (3, 2)
    assert p.sample(np.random.default_rng(1), 5).shape == (5, 3, 2)


def test_h_closed_form_without_drift():
    s = ve_schedule()
    x_t = np.array([0.3, -0.8])
    x_T = np.array([1.0, 2.0])
    t = 0.6
    want = (x_T - x_t) / (s.sigma2(s.T) - s.sigma2(t))
    np.testing.assert_allclose(grad_log_transition_h(s, x_t, x_T, t), want, rtol=1e-12)
    at_pin = grad_log_transition_h(s, x_T, x_T, t)
    np.testing.assert_array_equal(at_pin, np.zeros(2))


def test_h_matches_conditional_gaussian_gradient():
    # Independent derivation: x_T | x_t is Gaussian with mean (a_T/a_t) x_t
    # and variance sigma_T^2 - (a_T/a_t)^2 sigma_t^2.  Differentiate its log
    # density in x_t by central differences.
    s = vp_schedule()
    rng = np.random.default_rng(2)
    for t in (0.2, 0.5, 0.8):
        scale = float(s.alpha(s.T) / s.alpha(t))
        var = float(s.sigma2(s.T)) - scale**2 * float(s.sigma2(t))

        def log_p(x_t, x_T):
            return -0.5 * np.sum((x_T - scale * x_t) ** 2) / var

        x_t = rng.standard_normal(3)
        x_T = rng.standard_normal(3)
        h = grad_log_transition_h(s, x_t, x_T, t)
        eps = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd = (log_p(x_t + e, x_T) - log_p(x_t - e, x_T)) / (2 * eps)
            np.testing.assert_allclose(h[j], fd, rtol=1e-5)


def test_h_refuses_terminal_window():
    s = vp_schedule()
    with pytest.raises(SingularAtTerminal):
        grad_log_transition_h(s, np.zeros(2), np.ones(2), 1.0 - 1e-4)
    grad_log_transition_h(s, np.zeros(2), np.ones(2), 1.0 - 2e-3)
    with pytest.raises(TimeOutOfRange):
        grad_log_transition_h(s, np.zeros(2), np.ones(2), 1.5)


def test_h_refuses_exactly_past_the_bridge_grid_start():
    # the terminal limit is the float T - t_clip that bridge_grid starts at,
    # at horizons where T - (T - t_clip) rounds below t_clip
    for T in (0.5, 1.0, 3.0, 5.0, 7.0, 10.0, 100.0):
        for s in (vp_schedule(beta_min=0.1 / T, beta_max=20.0 / T, T=T), ve_schedule(T=T)):
            t_max = s.T - s.t_clip
            assert np.all(np.isfinite(grad_log_transition_h(s, np.zeros(2), np.ones(2), t_max)))
            with pytest.raises(SingularAtTerminal):
                grad_log_transition_h(s, np.zeros(2), np.ones(2), np.nextafter(t_max, s.T))


def test_h_is_equivariant():
    s = vp_schedule()
    g = make_point_group_2d(4)
    rng = np.random.default_rng(3)
    x_t = rng.standard_normal(2)
    x_T = rng.standard_normal(2)
    for k in g.elements:
        lhs = grad_log_transition_h(s, k.apply(x_t), k.apply(x_T), 0.5)
        rhs = k.apply(grad_log_transition_h(s, x_t, x_T, 0.5))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_bridge_kernel_pins_both_ends():
    s = vp_schedule()
    x0 = np.array([1.0, -1.0])
    x_T = np.array([2.0, 0.5])
    p0 = bridge_kernel(s, x0, x_T, 0.0)
    np.testing.assert_array_equal(p0.mean, x0)
    assert p0.variance == 0.0
    pT = bridge_kernel(s, x0, x_T, s.T)
    np.testing.assert_allclose(pT.mean, x_T, atol=1e-12)
    assert pT.variance <= 1e-15


def test_bridge_kernel_halfway_noise_level():
    # Driftless case at the time where sigma_t^2 = sigma_T^2 / 2: the mixing
    # weight is 1/2, so the mean is the midpoint and the variance sigma_T^2/4.
    s = ve_schedule(sigma_min=0.01, sigma_max=10.0, T=1.0)
    rho = np.log(s.sigma_max / s.sigma_min)
    t = s.T * (1.0 - np.log(2.0) / (2.0 * rho))
    np.testing.assert_allclose(s.sigma2(t), s.sigma2(s.T) / 2.0, rtol=1e-12)
    x0 = np.array([2.0, 0.0])
    x_T = np.array([0.0, 4.0])
    p = bridge_kernel(s, x0, x_T, t)
    np.testing.assert_allclose(p.mean, [1.0, 2.0], rtol=1e-10)
    np.testing.assert_allclose(p.variance, s.sigma2(s.T) / 4.0, rtol=1e-10)


def test_bridge_kernel_matches_gaussian_conditioning():
    # Independent oracle: condition the forward chain x_0 -> x_t -> x_T with
    # standard Gaussian posterior algebra and compare moments.
    rng = np.random.default_rng(4)
    for s in (vp_schedule(), ve_schedule()):
        for t in (0.15, 0.5, 0.85):
            x0 = rng.standard_normal(2)
            x_T = rng.standard_normal(2)
            a_t = float(s.alpha(t))
            scale = float(s.alpha(s.T)) / a_t
            v_fwd = float(s.sigma2(t))
            v_cond = float(s.sigma2(s.T)) - scale**2 * v_fwd
            prec = 1.0 / v_fwd + scale**2 / v_cond
            mean = (a_t * x0 / v_fwd + scale * x_T / v_cond) / prec
            p = bridge_kernel(s, x0, x_T, t)
            np.testing.assert_allclose(p.mean, mean, rtol=1e-8)
            np.testing.assert_allclose(p.variance, 1.0 / prec, rtol=1e-8)


def test_bridge_kernel_time_range():
    s = vp_schedule()
    with pytest.raises(TimeOutOfRange):
        bridge_kernel(s, np.zeros(2), np.ones(2), 1.2)


def test_bridge_forward_drift_closed_form():
    s = ve_schedule()
    x = np.array([0.5, -0.5])
    x_T = np.array([3.0, 1.0])
    t = 0.4
    want = float(s.g2(t)) * (x_T - x) / (s.sigma2(s.T) - s.sigma2(t))
    np.testing.assert_allclose(bridge_forward_drift(s, x, x_T, t), want, rtol=1e-12)
    # The drift always points from the state toward the pinned endpoint.
    assert np.dot(x_T - x, bridge_forward_drift(s, x, x_T, t)) > 0.0


def test_bridge_forward_simulation_matches_kernel_moments():
    s = vp_schedule()
    x0 = np.array([1.5])
    x_T = np.array([-0.5])
    n, steps = 4000, 300
    t_hi = s.T - s.t_clip
    ts = np.linspace(s.t_clip, t_hi, steps + 1)
    rng = np.random.default_rng(5)
    x = np.tile(x0, (n, 1))
    t_check, snap = 0.5, None
    for i in range(steps):
        t, dt = ts[i], ts[i + 1] - ts[i]
        drift = bridge_forward_drift(s, x, np.tile(x_T, (n, 1)), float(t))
        x = x + drift * dt + float(s.g(float(t))) * np.sqrt(dt) * rng.standard_normal(x.shape)
        if snap is None and ts[i + 1] >= t_check:
            snap, t_snap = x.copy(), float(ts[i + 1])
    p = bridge_kernel(s, x0, x_T, t_snap)
    se = np.sqrt(p.variance / n)
    assert abs(snap.mean() - p.mean[0]) < 4 * se + 0.01
    assert abs(snap.var() - p.variance) < 4 * p.variance * np.sqrt(2.0 / n) + 0.01
