"""Tests for the MLP score net, manual gradients, tying and training."""

import os
import subprocess
import sys

import numpy as np
import pytest

from spdm import (
    Adam,
    DivergedLoss,
    GaussianMixture,
    InvalidParams,
    Mlp,
    ShapeMismatch,
    TrainerConfig,
    TrainResult,
    UnsupportedSize,
    conv2d,
    diffused_score,
    dsm_loss,
    ema_update,
    equivariance_gap,
    equivariance_regularizer,
    make_c4_group,
    make_d4_group,
    make_flip_group,
    make_point_group_2d,
    make_tied_kernel,
    train,
    vp_schedule,
)
from spdm.nets import _diffuse, _draw_t_eps, _lane_rng, apply_elements, time_embed


def small_mixture():
    return GaussianMixture(
        weights=np.array([0.6, 0.4]),
        means=np.array([[1.5, 0.0], [0.5, 1.0]]),
        variances=np.array([0.08, 0.12]),
    )


def test_time_embed_values():
    np.testing.assert_allclose(time_embed(0.0, 1.0), [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(time_embed(1.0, 1.0), [1.0, 0.0, 1.0], atol=1e-12)
    assert time_embed(np.linspace(0, 1, 5), 1.0).shape == (5, 3)


def test_forward_shapes_and_zero_net():
    net = Mlp(2, hidden=(8,), seed=0)
    assert net.forward(np.zeros(2), t=0.5).shape == (2,)
    assert net.forward(np.zeros((7, 2)), t=0.5).shape == (7, 2)
    net.set_flat_parameters(np.zeros_like(net.flat_parameters()))
    np.testing.assert_array_equal(net.forward(np.ones((3, 2)), t=0.3), np.zeros((3, 2)))


def test_forward_shape_errors():
    net = Mlp(2, hidden=(8,), seed=0)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros(3), t=0.5)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros(2), y=np.zeros(2), t=0.5)
    cond = Mlp(2, hidden=(8,), y_dim=2, seed=0)
    with pytest.raises(ShapeMismatch):
        cond.forward(np.zeros(2), t=0.5)


def test_forward_deterministic_and_finite():
    net = Mlp(2, hidden=(16, 16), seed=3)
    x = np.random.default_rng(0).standard_normal((5, 2))
    np.testing.assert_array_equal(net.forward(x, t=0.2), net.forward(x, t=0.2))
    out = net.forward(np.full(2, 1e6), t=0.9)
    assert np.all(np.isfinite(out))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 2))
    for tie in (None, make_point_group_2d(4)):
        net = Mlp(2, hidden=(4, 4), seed=2, tie_group=tie)
        out, cache = net.forward(x, None, 0.3, want_cache=True)
        grads = net.backward(cache, out - target)
        theta = net.flat_parameters()
        eps = 1e-6
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            for sign in (1.0, -1.0):
                v = theta.copy()
                v[j] += sign * eps
                net.set_flat_parameters(v)
                o = net.forward(x, None, 0.3)
                fd[j] += sign * 0.5 * float(np.sum((o - target) ** 2)) / (2 * eps)
            net.set_flat_parameters(theta)
        scale = np.maximum(np.abs(fd), 1.0)
        assert float(np.max(np.abs(grads - fd) / scale)) < 1e-5


def test_linear_layer_gradients_analytic():
    # With no hidden layers the loss gradients have textbook closed forms.
    net = Mlp(2, hidden=(), seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 2))
    target = rng.standard_normal((8, 2))
    out, cache = net.forward(x, None, 0.7, want_cache=True)
    adj = 2.0 * (out - target)
    grads = net.backward(cache, adj)
    feats = cache["inputs"][0]
    np.testing.assert_allclose(net._unflatten(grads)[0][0], adj.T @ feats, atol=1e-12)
    np.testing.assert_allclose(net._unflatten(grads)[1][0], adj.sum(axis=0), atol=1e-12)


def test_conditional_net_uses_conditioning():
    net = Mlp(2, hidden=(8,), y_dim=2, seed=6)
    x = np.zeros((1, 2))
    a = net.forward(x, np.array([[1.0, 0.0]]), 0.5)
    b = net.forward(x, np.array([[0.0, 1.0]]), 0.5)
    assert float(np.max(np.abs(a - b))) > 1e-6


def test_dsm_loss_reproducible_and_nonnegative():
    net = Mlp(2, hidden=(8,), seed=7)
    mix = small_mixture()
    s = vp_schedule()
    batch = mix.sample(np.random.default_rng(8), 64)
    l1, _ = dsm_loss(net, s, batch, np.random.default_rng(9))
    l2, _ = dsm_loss(net, s, batch, np.random.default_rng(9))
    assert l1 == l2 and l1 >= 0.0
    with pytest.raises(InvalidParams):
        dsm_loss(net, s, np.zeros((0, 2)), np.random.default_rng(0))


def test_oracle_score_beats_zero_function():
    # Replicate the internal batch draws, then compare the weighted residual
    # of the exact score against the zero predictor on the same noise.
    mix = small_mixture()
    s = vp_schedule()
    rng = np.random.default_rng(10)
    x0 = mix.sample(rng, 4096)
    t, eps = _draw_t_eps(s, x0, rng)
    sigma, x_t = _diffuse(s, x0, t, eps)
    out = np.stack([diffused_score(mix, s, x, ti) for x, ti in zip(x_t, t)])
    oracle = float(np.mean(np.sum((sigma * out + eps) ** 2, axis=1)))
    zero = float(np.mean(np.sum(eps**2, axis=1)))
    assert oracle < zero
    net = Mlp(2, hidden=(8,), seed=11)
    net.set_flat_parameters(np.zeros_like(net.flat_parameters()))
    loss_zero_net, _ = dsm_loss(net, s, x0, np.random.default_rng(10))
    assert loss_zero_net > oracle


def test_dsm_minimizer_matches_least_squares():
    # One linear layer: the loss is quadratic in the parameters, so its
    # minimizer solves the normal equations of the weighted regression from
    # features (x_t, time embedding, 1) onto -eps.  The loss gradient must
    # vanish there.
    s = vp_schedule()
    x0 = np.tile([[2.0]], (512, 1))
    rng = np.random.default_rng(12)
    t, eps = _draw_t_eps(s, x0, rng)
    sigma, x_t = _diffuse(s, x0, t, eps)
    feats = np.concatenate([x_t, time_embed(t, s.T), np.ones((512, 1))], axis=1)
    a = sigma * feats
    theta = np.linalg.solve(a.T @ a, -a.T @ eps[:, 0])
    net = Mlp(1, hidden=(), seed=13)
    net.weights[0][...] = theta[:4].reshape(1, 4)
    net.biases[0][...] = theta[4:]
    loss, grads = dsm_loss(net, s, x0, np.random.default_rng(12))
    resid = a @ theta + eps[:, 0]
    np.testing.assert_allclose(loss, float(np.mean(resid**2)), rtol=1e-12)
    assert float(np.max(np.abs(grads))) < 1e-10


def test_regularizer_zero_for_trivial_group():
    net = Mlp(2, hidden=(8,), seed=14)
    g = make_point_group_2d(1)
    batch = small_mixture().sample(np.random.default_rng(15), 32)
    loss, _ = equivariance_regularizer(
        net, net, g, batch, np.random.default_rng(16), vp_schedule())
    assert loss == 0.0


def test_regularizer_positive_for_plain_net():
    net = Mlp(2, hidden=(8,), seed=17)
    g = make_point_group_2d(4)
    batch = small_mixture().sample(np.random.default_rng(18), 64)
    loss, _ = equivariance_regularizer(
        net, net, g, batch, np.random.default_rng(19), vp_schedule())
    assert loss > 1e-4


def test_regularizer_gradients_match_finite_differences():
    g = make_point_group_2d(4)
    net = Mlp(2, hidden=(4,), seed=20)
    ema = Mlp(2, hidden=(4,), seed=21)
    batch = small_mixture().sample(np.random.default_rng(22), 16)
    s = vp_schedule()

    def value(theta):
        net.set_flat_parameters(theta)
        return equivariance_regularizer(
            net, ema, g, batch, np.random.default_rng(23), s)[0]

    theta = net.flat_parameters()
    _, flat = equivariance_regularizer(
        net, ema, g, batch, np.random.default_rng(23), s)
    eps = 1e-6
    fd = np.array([(value(theta + eps * e) - value(theta - eps * e)) / (2 * eps)
                   for e in np.eye(theta.size)])
    net.set_flat_parameters(theta)
    scale = np.maximum(np.abs(fd), 1e-2)
    assert float(np.max(np.abs(flat - fd) / scale)) < 1e-5


def test_ema_update_limits_and_contraction():
    a = Mlp(2, hidden=(4,), seed=24)
    b = Mlp(2, hidden=(4,), seed=25)
    out = ema_update(a, b, 0.0)
    np.testing.assert_array_equal(out.flat_parameters(), b.flat_parameters())
    out = ema_update(a, a, 0.5)
    np.testing.assert_array_equal(out.flat_parameters(), a.flat_parameters())
    out = ema_update(a, b, 0.9)
    d0 = np.linalg.norm(a.flat_parameters() - b.flat_parameters())
    d1 = np.linalg.norm(out.flat_parameters() - b.flat_parameters())
    np.testing.assert_allclose(d1, 0.9 * d0, rtol=1e-12)
    with pytest.raises(InvalidParams):
        ema_update(a, b, 1.0)


def test_train_zero_steps_returns_initialization():
    cfg = TrainerConfig(steps=0, seed=5, hidden=(8,))
    res = train(cfg, small_mixture(), vp_schedule())
    fresh = Mlp(2, hidden=(8,), horizon=1.0, seed=5)
    np.testing.assert_array_equal(res.net.flat_parameters(), fresh.flat_parameters())
    assert res.steps_done == 0


def test_train_deterministic():
    cfg = TrainerConfig(steps=40, seed=1, hidden=(8,), batch_size=16)
    r1 = train(cfg, small_mixture(), vp_schedule())
    r2 = train(cfg, small_mixture(), vp_schedule())
    np.testing.assert_array_equal(r1.net.flat_parameters(), r2.net.flat_parameters())
    np.testing.assert_array_equal(r1.losses, r2.losses)


def test_train_zero_reg_weight_matches_plain():
    g = make_point_group_2d(4)
    base = dict(steps=40, seed=2, hidden=(8,), batch_size=16)
    plain = train(TrainerConfig(**base), small_mixture(), vp_schedule())
    reg0 = train(TrainerConfig(reg_weight=0.0, **base), small_mixture(),
                 vp_schedule(), group=g, mode="regularized")
    np.testing.assert_array_equal(plain.net.flat_parameters(),
                                  reg0.net.flat_parameters())


def test_train_resume_is_bit_exact():
    cfg_a = TrainerConfig(steps=30, seed=3, hidden=(8,), batch_size=16)
    cfg_b = TrainerConfig(steps=60, seed=3, hidden=(8,), batch_size=16)
    first = train(cfg_a, small_mixture(), vp_schedule())
    state = (*first.opt_state[:2], first.net.flat_parameters(),
             first.ema_net.flat_parameters())
    before = [a.copy() for a in state]
    resumed = train(cfg_a, small_mixture(), vp_schedule(), resume=first)
    straight = train(cfg_b, small_mixture(), vp_schedule())
    # the caller's resume state is read, never written
    for a, b in zip(before, (*first.opt_state[:2], first.net.flat_parameters(),
                             first.ema_net.flat_parameters())):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(resumed.net.flat_parameters(),
                                  straight.net.flat_parameters())
    np.testing.assert_array_equal(resumed.ema_net.flat_parameters(),
                                  straight.ema_net.flat_parameters())


def test_train_reaches_oracle_loss():
    # Long run: the held-out weighted residual should come within 10% of the
    # exact-score residual on the same draws.
    mix = small_mixture()
    s = vp_schedule()
    cfg = TrainerConfig(steps=20_000, seed=0, learning_rate=1e-3, hidden=(64, 64))
    res = train(cfg, mix, s)
    rng = np.random.default_rng(555)
    x0 = mix.sample(rng, 4096)
    t, eps = _draw_t_eps(s, x0, rng)
    sigma, x_t = _diffuse(s, x0, t, eps)

    def loss_of(score_fn):
        out = np.stack([np.asarray(score_fn(x, ti)) for x, ti in zip(x_t, t)])
        return float(np.mean(np.sum((sigma * out + eps) ** 2, axis=1)))

    oracle = loss_of(lambda x, ti: diffused_score(mix, s, x, ti))
    learned = loss_of(lambda x, ti: res.ema_net(x, ti))
    assert abs(learned / oracle - 1.0) < 0.1


def test_train_mode_validation_and_divergence():
    with pytest.raises(InvalidParams):
        train(TrainerConfig(steps=1), small_mixture(), vp_schedule(), mode="bogus")
    with pytest.raises(InvalidParams):
        train(TrainerConfig(steps=1), small_mixture(), vp_schedule(), mode="WT")
    bad = np.full((10, 2), np.nan)
    with pytest.raises(DivergedLoss):
        train(TrainerConfig(steps=2, batch_size=4, hidden=(4,)), bad, vp_schedule())


def test_weight_tied_net_is_exactly_equivariant():
    g = make_point_group_2d(4)
    net = Mlp(2, hidden=(8, 8), seed=9, tie_group=g)
    xs = np.random.default_rng(26).standard_normal((50, 2))
    gap = equivariance_gap(lambda x, t: net(x, t), g, xs, 0.4)
    assert gap < 1e-24
    plain = Mlp(2, hidden=(8, 8), seed=9)
    assert equivariance_gap(lambda x, t: plain(x, t), g, xs, 0.4) > 1e-4


def test_weight_tying_validation():
    with pytest.raises(InvalidParams):
        Mlp(2, hidden=(7,), tie_group=make_point_group_2d(4))
    with pytest.raises(InvalidParams):
        Mlp(2, hidden=(8,), tie_group=make_point_group_2d(3))
    with pytest.raises(InvalidParams):
        Mlp(2, hidden=(8,), tie_group=make_c4_group((2, 2)))
    with pytest.raises(InvalidParams, match="must carry the group action"):
        Mlp(3, hidden=(6,), tie_group=make_point_group_2d(4))


def test_net_refusals_are_typed():
    with pytest.raises(InvalidParams, match="x_dim >= 1"):
        Mlp(0)
    net = Mlp(2, hidden=(4,), y_dim=2)
    x, y = np.zeros((3, 2)), np.zeros((3, 3))
    with pytest.raises(ShapeMismatch, match=r"y has shape \(3, 3\)"):
        net.forward(x, y, 0.5)
    with pytest.raises(ShapeMismatch, match=r"y has shape \(3, 3\)"):
        net(x, y, 0.5)
    with pytest.raises(ShapeMismatch, match=r"net takes \(x, y, t\)"):
        net(x, 0.5)
    with pytest.raises(ShapeMismatch, match=r"net takes \(x, t\)"):
        Mlp(2, hidden=(4,))(x, x, 0.5)
    for width in (-1, 0, 2.5):
        with pytest.raises(InvalidParams, match="hidden widths must be positive integers"):
            Mlp(2, hidden=(width,))
    with pytest.raises(ShapeMismatch, match="parameter vector has"):
        net.set_flat_parameters(np.zeros(net.flat_parameters().size + 1))
    plain = Mlp(2, hidden=(4,))
    with pytest.raises(InvalidParams, match="batch must be nonempty"):
        equivariance_regularizer(plain, plain, make_point_group_2d(4), np.zeros((0, 2)),
                                 np.random.default_rng(0), vp_schedule())
    for key, value in (("ema_mu", 1.0), ("learning_rate", 0.0), ("batch_size", 0),
                       ("steps", -1), ("reg_weight", -0.1)):
        with pytest.raises(InvalidParams, match=key):
            TrainerConfig(**{key: value})
    with pytest.raises(ShapeMismatch, match="image must be"):
        conv2d(np.ones((3, 3)), np.zeros((4, 4, 2, 2)))


def test_set_flat_parameters_keeps_its_own_copy():
    net = Mlp(2, hidden=(4,))
    x = np.random.default_rng(1).standard_normal((3, 2))
    v = net.flat_parameters() + 0.25
    want = v.copy()
    net.set_flat_parameters(v)
    before = net(x, 0.5)
    v[:] = 7.0  # the caller reuses its vector
    np.testing.assert_array_equal(net(x, 0.5), before)
    np.testing.assert_array_equal(net.flat_parameters(), want)
    # theta is the one parameter state: weights and biases are views of it
    np.testing.assert_array_equal(net.weights[0], want[:net.weights[0].size].reshape(4, 5))
    np.testing.assert_array_equal(net.biases[-1], want[-2:])
    net.weights[0][0, 0] += 1.0
    want[0] += 1.0
    np.testing.assert_array_equal(net.flat_parameters(), want)
    assert not np.array_equal(net(x, 0.5), before)
    copy = net.clone()
    copy.weights[0][...] = 0.0
    copy.biases[0][...] = 3.0
    copy.set_flat_parameters(copy.flat_parameters() - 1.0)
    np.testing.assert_array_equal(net.flat_parameters(), want)


def test_free_parameter_count_matches_projector_rank():
    # Independent oracle: push a basis through the tying gather and count
    # the rank of its image.
    g = make_point_group_2d(4)
    net = Mlp(2, hidden=(4, 4), seed=0, tie_group=g)
    basis = np.eye(net.flat_parameters().size)
    image = np.stack([net._effective(e) for e in basis], axis=1)
    assert net.free_parameter_count() == np.linalg.matrix_rank(image, tol=1e-10)
    full = Mlp(2, hidden=(4, 4), seed=0)
    assert net.free_parameter_count() < full.free_parameter_count()


def _reference_reps(net):
    """Stacked R_in and R_out matrices of every layer of a tied net."""
    d = net.x_dim
    mats = [el.matrix for el in net.tie_group.elements]

    def layer_rep(width, trivial_tail):
        out = np.zeros((len(mats), width, width))
        for k, m in enumerate(mats):
            for b in range((width - trivial_tail) // d):
                out[k, b * d:(b + 1) * d, b * d:(b + 1) * d] = m
            for j in range(width - trivial_tail, width):
                out[k, j, j] = 1.0
        return out

    reps = [layer_rep(net.sizes[0], 3)] + [layer_rep(h, 0) for h in net.sizes[1:]]
    return reps[:-1], reps[1:]


def test_tied_projection_matches_einsum():
    # The cached signed gather must reproduce the representation average
    # mean_g R_out(g)^T W R_in(g) bit for bit.
    rng = np.random.default_rng(31)
    c4, d4 = make_point_group_2d(4), make_point_group_2d(4, with_reflection=True)
    for g, hidden, y_dim in ((c4, (16, 16), 0), (d4, (32, 32), 0), (c4, (), 0),
                             (d4, (), 2), (c4, (4, 8, 12), 2)):
        net = Mlp(2, hidden=hidden, y_dim=y_dim, seed=5, tie_group=g)
        theta = rng.standard_normal(net.flat_parameters().size)
        ws, bs = net._unflatten(theta)
        tied_ws, tied_bs = net._unflatten(net._effective(theta))
        rin, rout = _reference_reps(net)
        for layer, (ro, ri) in enumerate(zip(rout, rin)):
            np.testing.assert_array_equal(
                tied_ws[layer],
                np.einsum("gao,ab,gbi->oi", ro, ws[layer], ri) / len(ro))
            np.testing.assert_array_equal(
                tied_bs[layer], np.einsum("gba,b->a", ro, bs[layer]) / len(ro))


def test_lone_row_rounds_like_its_batch_row():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((64, 2))
    ts = rng.uniform(0.01, 1.0, size=64)
    for tie in (None, make_point_group_2d(4)):
        net = Mlp(2, hidden=(16, 16), seed=3, tie_group=tie)
        batch = net.forward(x, t=ts)
        for i in range(64):
            np.testing.assert_array_equal(net.forward(x[i], t=ts[i]), batch[i])
            np.testing.assert_array_equal(net.forward(x[i:i + 1], t=ts[i]), batch[i:i + 1])


class _ReferenceNet:
    """An Mlp's parameters as weight and bias lists, tied by matrix sums."""

    def __init__(self, net):
        self.ws = [w.copy() for w in net.weights]
        self.bs = [b.copy() for b in net.biases]
        self.horizon = net.horizon
        self.reps = None if net.tie_group is None else _reference_reps(net)

    def project(self, ws, bs):
        if self.reps is None:
            return ws, bs
        rin, rout = self.reps
        return ([np.sum(ro.transpose(0, 2, 1) @ w @ ri, axis=0) / len(ro)
                 for ro, ri, w in zip(rout, rin, ws)],
                [np.sum(ro.transpose(0, 2, 1) @ b, axis=0) / len(ro)
                 for ro, b in zip(rout, bs)])

    def forward(self, x, t):
        a = np.concatenate([x, time_embed(t, self.horizon)], axis=1)
        ws, bs = self.project(self.ws, self.bs)
        inputs = [a]
        for layer, (w, b) in enumerate(zip(ws, bs)):
            z = a @ w.T + b
            a = z if layer == len(ws) - 1 else np.tanh(z)
            inputs.append(a)
        return inputs, ws

    def grad(self, inputs, ws, adj):
        gw, gb = [None] * len(ws), [None] * len(ws)
        for layer in range(len(ws) - 1, -1, -1):
            gw[layer] = adj.T @ inputs[layer]
            gb[layer] = adj.sum(axis=0)
            if layer > 0:
                adj = (adj @ ws[layer]) * (1.0 - inputs[layer] ** 2)
        gw, gb = self.project(gw, gb)
        return np.concatenate([g.ravel() for g in (*gw, *gb)])

    def flat(self):
        return np.concatenate([p.ravel() for p in (*self.ws, *self.bs)])

    def set_flat(self, v):
        pos = 0
        for params in (self.ws, self.bs):
            for i, p in enumerate(params):
                params[i] = v[pos:pos + p.size].reshape(p.shape)
                pos += p.size


def _reference_train(cfg, data, s, net, ema, group=None, mode="plain",
                     opt_state=None, start_step=0):
    """The training loop written out step by step on weight lists: per
    step a noisy batch, the forward and backward passes, the regularizer,
    one Adam step and one EMA step."""
    net, ema = _ReferenceNet(net), _ReferenceNet(ema)
    size = net.flat().size
    m, v, count = (np.zeros(size), np.zeros(size), 0) if opt_state is None else \
        (opt_state[0].copy(), opt_state[1].copy(), opt_state[2])
    b1, b2 = 0.9, 0.999
    n = cfg.batch_size
    losses = np.zeros(cfg.steps)
    reg_losses = np.zeros(cfg.steps) if mode == "regularized" else None

    def noisy(rng, x0):
        t = rng.uniform(s.t_clip, s.T, size=n)
        eps = rng.standard_normal(x0.shape)
        sigma = s.sigma(t)[:, None]
        return t, eps, sigma, s.alpha(t)[:, None] * x0 + sigma * eps

    for step in range(cfg.steps):
        rng = _lane_rng(cfg.seed, 2, start_step + step)
        x0 = data[rng.integers(len(data), size=n)]
        t, eps, sigma, x_t = noisy(rng, x0)
        inputs, ws = net.forward(x_t, t)
        resid = sigma * inputs[-1] + eps
        losses[step] = float(np.mean(np.sum(resid**2, axis=1)))
        grad = net.grad(inputs, ws, 2.0 * sigma * resid / n)
        if mode == "regularized" and cfg.reg_weight > 0:
            rng = _lane_rng(cfg.seed, 3, start_step + step)
            t, _, _, x_t = noisy(rng, x0)
            ids = rng.integers(len(group), size=n)
            target = apply_elements(group, ids, ema.forward(x_t, t)[0][-1])
            inputs, ws = net.forward(apply_elements(group, ids, x_t), t)
            resid = inputs[-1] - target
            reg_losses[step] = float(np.mean(np.sum(resid**2, axis=1)))
            grad = grad + cfg.reg_weight * net.grad(inputs, ws, 2.0 * resid / n)
        count += 1
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad**2
        mh = m / (1.0 - b1**count)
        vh = v / (1.0 - b2**count)
        net.set_flat(net.flat() - cfg.learning_rate * mh / (np.sqrt(vh) + 1e-8))
        ema.set_flat(cfg.ema_mu * ema.flat() + (1.0 - cfg.ema_mu) * net.flat())
    return net.flat(), ema.flat(), losses, reg_losses, (m, v, count)


# Training shapes: by default a batch of 1000 rows puts 4 steps in a block,
# so 9 steps make three blocks, the last one short.  The bench shape puts 16
# steps in a block, so 33 steps end on a block of one; a batch of one row
# takes the lone-row (gemv) products.
_TRAIN_SHAPES = {
    "bench": dict(steps=33, hidden=(16, 16), batch_size=256),
    "batch_1": dict(steps=40, hidden=(8, 8), batch_size=1),
}


@pytest.mark.parametrize("case", ["plain", "WT_C4", "WT_D4", "regularized", "resumed",
                                  "WT_C4_bench", "plain_batch_1", "WT_C4_batch_1",
                                  "regularized_batch_1"])
def test_train_matches_reference_loop_bit_for_bit(case):
    s = vp_schedule()
    data = small_mixture().sample(np.random.default_rng(35), 500)
    shape = next((v for k, v in _TRAIN_SHAPES.items() if case.endswith(k)),
                 dict(steps=9, hidden=(8, 8), batch_size=1000))
    cfg = TrainerConfig(seed=6, learning_rate=1e-2, ema_mu=0.9, reg_weight=0.5, **shape)
    kind = case.split("_batch")[0].split("_bench")[0]
    group = {"WT_C4": make_point_group_2d(4), "regularized": make_point_group_2d(4),
             "WT_D4": make_point_group_2d(4, with_reflection=True)}.get(kind)
    mode = {"WT_C4": "WT", "WT_D4": "WT", "regularized": "regularized"}.get(kind, "plain")
    init = Mlp(2, hidden=cfg.hidden, horizon=s.T, seed=cfg.seed,
               tie_group=group if mode == "WT" else None)
    resume = None
    ref_start = dict(net=init, ema=init)
    if case == "resumed":
        first = train(TrainerConfig(steps=5, seed=6, hidden=(8, 8), batch_size=1000,
                                    learning_rate=1e-2, ema_mu=0.9), data, s)
        resume = first
        ref_start = dict(net=first.net, ema=first.ema_net, opt_state=first.opt_state,
                         start_step=first.steps_done)
    res = train(cfg, data, s, group=group, mode=mode, resume=resume)
    net, ema, losses, reg_losses, (m, v, count) = _reference_train(
        cfg, data, s, group=group, mode=mode, **ref_start)
    np.testing.assert_array_equal(res.net.flat_parameters(), net)
    np.testing.assert_array_equal(res.ema_net.flat_parameters(), ema)
    np.testing.assert_array_equal(res.losses, losses)
    if reg_losses is None:
        assert res.reg_losses is None
    else:
        assert np.all(reg_losses > 0)
        np.testing.assert_array_equal(res.reg_losses, reg_losses)
    np.testing.assert_array_equal(res.opt_state[0], m)
    np.testing.assert_array_equal(res.opt_state[1], v)
    assert res.opt_state[2] == count


@pytest.mark.parametrize("mode", ["plain", "WT", "regularized"])
def test_public_step_functions_reproduce_one_train_step(mode):
    # dsm_loss, equivariance_regularizer, Adam.step and ema_update on a fresh
    # net, drawing from the step's lanes, give the bits of train's step 0
    s = vp_schedule()
    g = make_point_group_2d(4)
    data = small_mixture().sample(np.random.default_rng(37), 300)
    cfg = TrainerConfig(steps=1, seed=8, hidden=(16, 16), batch_size=64,
                        learning_rate=1e-2, ema_mu=0.9, reg_weight=0.5)
    res = train(cfg, data, s, group=g, mode=mode)
    net = Mlp(2, hidden=cfg.hidden, horizon=s.T, seed=cfg.seed,
              tie_group=g if mode == "WT" else None)
    ema = net.clone()
    rng = _lane_rng(cfg.seed, 2, 0)
    x0 = data[rng.integers(len(data), size=cfg.batch_size)]
    loss, grad = dsm_loss(net, s, x0, rng)
    if mode == "regularized":
        rloss, rgrad = equivariance_regularizer(net, ema, g, x0, _lane_rng(cfg.seed, 3, 0), s)
        grad = grad + cfg.reg_weight * rgrad
        assert res.reg_losses[0] == rloss
    opt = Adam(grad.size, lr=cfg.learning_rate)
    net.set_flat_parameters(opt.step(net.flat_parameters(), grad))
    ema = ema_update(ema, net, cfg.ema_mu)
    assert res.losses[0] == loss
    np.testing.assert_array_equal(res.net.flat_parameters(), net.flat_parameters())
    np.testing.assert_array_equal(res.ema_net.flat_parameters(), ema.flat_parameters())
    np.testing.assert_array_equal(res.opt_state[0], opt.m)
    np.testing.assert_array_equal(res.opt_state[1], opt.v)


@pytest.mark.parametrize("tie", [None, "C4"])
def test_work_arrays_of_other_calls_leave_training_bits_alone(tie):
    # the step's work arrays are per net and grow only: calls on batches of
    # other sizes, and training a clone, do not move a bit of later training
    s = vp_schedule()
    g = make_point_group_2d(4)
    data = small_mixture().sample(np.random.default_rng(38), 300)
    cfg = TrainerConfig(steps=20, seed=9, hidden=(8, 8), batch_size=32,
                        learning_rate=1e-2, ema_mu=0.9)
    mode = "plain" if tie is None else "WT"
    group = None if tie is None else g

    def fresh():
        return Mlp(2, hidden=cfg.hidden, horizon=s.T, seed=cfg.seed, tie_group=group)

    want = train(cfg, data, s, group=group, mode=mode,
                 resume=TrainResult(net=fresh(), ema_net=fresh()))
    used = fresh()
    x = np.random.default_rng(39).standard_normal((1000, 2))
    used.forward(x, t=0.5)
    used.forward(x[0], t=0.5)
    dsm_loss(used, s, data[:7], np.random.default_rng(40))
    resume = TrainResult(net=used, ema_net=used)
    train(cfg, data, s, group=group, mode=mode,
          resume=TrainResult(net=used.clone(), ema_net=used.clone()))
    for got in (train(cfg, data, s, group=group, mode=mode, resume=resume),
                train(cfg, data, s, group=group, mode=mode, resume=resume)):
        np.testing.assert_array_equal(got.net.flat_parameters(), want.net.flat_parameters())
        np.testing.assert_array_equal(got.ema_net.flat_parameters(),
                                      want.ema_net.flat_parameters())
        np.testing.assert_array_equal(got.losses, want.losses)
    # a one-step loss on the used net and on a fresh one
    for rows in (32, 1, 1000):
        batch = x[:rows]
        a = dsm_loss(used, s, batch, np.random.default_rng(41))
        b = dsm_loss(fresh(), s, batch, np.random.default_rng(41))
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])


def test_clone_has_its_own_work_arrays():
    # a tied net and its EMA clone each project into their own arrays, so the
    # regularizer sees two different nets, as with an independent copy
    g = make_point_group_2d(4)
    s = vp_schedule()
    net = Mlp(2, hidden=(8, 8), seed=11, tie_group=g)
    ema = net.clone()
    ema.set_flat_parameters(0.5 * ema.flat_parameters())
    twin = Mlp(2, hidden=(8, 8), seed=11, tie_group=g)
    twin.set_flat_parameters(ema.flat_parameters())
    batch = small_mixture().sample(np.random.default_rng(43), 16)
    loss, grads = equivariance_regularizer(net, ema, g, batch, np.random.default_rng(44), s)
    want, want_grads = equivariance_regularizer(net, twin, g, batch,
                                                np.random.default_rng(44), s)
    assert loss == want > 0
    np.testing.assert_array_equal(grads, want_grads)


def test_train_weight_tied_mode():
    g = make_point_group_2d(4)
    cfg = TrainerConfig(steps=50, seed=4, hidden=(8,), batch_size=16)
    res = train(cfg, small_mixture(), vp_schedule(), group=g, mode="WT")
    xs = np.random.default_rng(27).standard_normal((20, 2))
    assert equivariance_gap(lambda x, t: res.net(x, t), g, xs, 0.5) < 1e-24
    assert res.free_parameters < Mlp(2, hidden=(8,)).free_parameter_count()


def test_lane_rng_streams_are_decoupled():
    a = _lane_rng(0, 2, 5).standard_normal(4)
    b = _lane_rng(0, 3, 5).standard_normal(4)
    c = _lane_rng(0, 2, 5).standard_normal(4)
    assert float(np.max(np.abs(a - b))) > 1e-6
    np.testing.assert_array_equal(a, c)
    # the stream of default_rng on the lane's seed sequence
    ss = np.random.SeedSequence(entropy=0, spawn_key=(2, 5))
    np.testing.assert_array_equal(np.random.default_rng(ss).standard_normal(4), a)


def test_apply_elements_matches_loop():
    g = make_point_group_2d(4, with_reflection=True)
    rng = np.random.default_rng(28)
    x = rng.standard_normal((10, 2))
    ids = rng.integers(len(g), size=10)
    out = apply_elements(g, ids, x)
    for i in range(10):
        np.testing.assert_allclose(out[i], g.elements[ids[i]].apply(x[i]), atol=1e-15)


def test_tied_kernel_free_parameter_counts():
    assert make_tied_kernel("flip_h", 3).n_free == 6
    assert make_tied_kernel("C4", 5).n_free == 7
    assert make_tied_kernel("D4", 5).n_free == 6


def test_flip_kernel_orbit_layout():
    k = make_tied_kernel("flip_h", 3)
    np.testing.assert_array_equal(
        k.orbit_index, [[0, 1, 0], [2, 3, 2], [4, 5, 4]])


def test_tied_kernel_expansion_invariance():
    for tag, size, ops in (
        ("flip_h", 3, [np.fliplr]),
        ("C4", 5, [lambda a: np.rot90(a, -1)]),
        ("D4", 5, [lambda a: np.rot90(a, -1), np.fliplr]),
    ):
        k = make_tied_kernel(tag, size)
        expanded = k.expand()
        for op in ops:
            np.testing.assert_array_equal(op(expanded), expanded)


def test_c4_and_d4_orbits_differ():
    c4 = make_tied_kernel("C4", 5).expand()
    d4 = make_tied_kernel("D4", 5).expand()
    # The dihedral group merges the transpose pair (0, 1) / (1, 0).
    assert d4[0, 1] == d4[1, 0]
    assert c4[0, 1] != c4[1, 0]


def test_tied_kernel_validation():
    with pytest.raises(UnsupportedSize):
        make_tied_kernel("C4", 4)
    with pytest.raises(UnsupportedSize):
        make_tied_kernel("flip_h", 1)
    for tag in ("C8", "flip"):
        with pytest.raises(InvalidParams):
            make_tied_kernel(tag, 5)
    k = make_tied_kernel("flip_h", 3)
    with pytest.raises(ShapeMismatch):
        k.expand(np.ones(4))


def test_conv2d_identity_kernel():
    k = np.zeros((3, 3))
    k[1, 1] = 1.0
    img = np.random.default_rng(29).standard_normal((8, 8))
    np.testing.assert_allclose(conv2d(k, img), img, atol=1e-15)


def test_conv2d_matches_direct_sum():
    # Zero-filled cross-correlation anchored at the kernel centre, written
    # out as the defining double sum.
    rng = np.random.default_rng(33)
    img = rng.standard_normal((6, 7))
    k = rng.standard_normal((3, 5))
    ref = np.zeros_like(img)
    for i in range(6):
        for j in range(7):
            for a in range(3):
                for b in range(5):
                    y, x = i + a - 1, j + b - 2
                    if 0 <= y < 6 and 0 <= x < 7:
                        ref[i, j] += k[a, b] * img[y, x]
    np.testing.assert_allclose(conv2d(k, img), ref, atol=1e-13)


def test_import_loads_no_scipy():
    code = ("import sys, spdm, spdm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_tied_conv_commutes_with_group_action():
    rng = np.random.default_rng(30)
    img = rng.standard_normal((8, 8))
    cases = [
        ("flip_h", 3, make_flip_group("horizontal", (8, 8))),
        ("C4", 5, make_c4_group((8, 8))),
        ("D4", 5, make_d4_group((8, 8))),
    ]
    for tag, size, group in cases:
        kern = make_tied_kernel(tag, size)
        kern.params = rng.standard_normal(kern.n_free)
        for el in group.elements:
            lhs = conv2d(kern, el.apply(img))
            rhs = el.apply(conv2d(kern, img))
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-12
    dense = rng.standard_normal((5, 5))
    group = make_c4_group((8, 8))
    worst = max(
        float(np.max(np.abs(conv2d(dense, el.apply(img)) - el.apply(conv2d(dense, img)))))
        for el in group.elements)
    assert worst > 0.01


def test_conv2d_multichannel():
    rng = np.random.default_rng(31)
    img = rng.standard_normal((6, 6, 2))
    k = rng.standard_normal((3, 3))
    out = conv2d(k, img)
    for c in range(2):
        np.testing.assert_array_equal(out[..., c], conv2d(k, img[..., c]))
    stack = rng.standard_normal((3, 3, 2, 4))
    assert conv2d(stack, img).shape == (6, 6, 4)
    with pytest.raises(ShapeMismatch):
        conv2d(stack, rng.standard_normal((6, 6, 3)))
    with pytest.raises(ShapeMismatch):
        conv2d(rng.standard_normal((3, 3, 2)), img)


def test_tied_conv_stack_is_equivariant_end_to_end():
    # Two tied convolutions with a pointwise nonlinearity stay equivariant.
    rng = np.random.default_rng(32)
    k1 = make_tied_kernel("D4", 5)
    k1.params = rng.standard_normal(k1.n_free)
    k2 = make_tied_kernel("D4", 3)
    k2.params = rng.standard_normal(k2.n_free)

    def net(img):
        return conv2d(k2, np.tanh(conv2d(k1, img)))

    img = rng.standard_normal((8, 8))
    for el in make_d4_group((8, 8)).elements:
        assert float(np.max(np.abs(net(el.apply(img)) - el.apply(net(img))))) <= 1e-12
