"""Tests for analytic mixture scores, symmetrization and bridge couplings."""

import tracemalloc

import numpy as np
import pytest

from spdm import (
    AnalyticScoreField,
    BridgeScoreField,
    DegenerateCoupling,
    FrameAveragedField,
    GaussianCoupling,
    GaussianMixture,
    InvalidParams,
    Mlp,
    ShapeMismatch,
    TimeOutOfRange,
    bridge_conditional_params,
    bridge_kernel,
    bridge_score_oracle,
    diffused_score,
    frame_average,
    log_density,
    make_c4_group,
    make_group,
    make_point_group_2d,
    symmetrize,
    ve_schedule,
    vp_schedule,
)
from spdm.groups import equivariance_residuals


def two_component_mixture():
    return GaussianMixture(
        weights=np.array([0.6, 0.4]),
        means=np.array([[1.5, 0.0], [0.5, 1.0]]),
        variances=np.array([0.08, 0.12]),
    )


def test_mixture_validation():
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([0.5, 0.4]), np.zeros((2, 2)), np.ones(2))
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.array([-1.0]))
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([0.5, 0.5]), np.zeros((3, 2)), np.ones(2))
    with pytest.raises(InvalidParams, match="non-empty"):
        GaussianMixture(np.zeros(0), np.zeros((0, 2)), np.zeros(0))


def test_mixture_sampling_moments():
    m = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([0.25]))
    draws = m.sample(np.random.default_rng(0), 100_000)
    np.testing.assert_allclose(draws.mean(axis=0), [2.0, -1.0], atol=0.01)
    np.testing.assert_allclose(draws.var(axis=0), 0.25, atol=0.01)


def test_symmetrize_orbit_of_point():
    base = GaussianMixture(np.array([1.0]), np.array([[1.0, 0.0]]), np.array([0.1]))
    sym = symmetrize(base, make_point_group_2d(4))
    assert len(sym.weights) == 4
    np.testing.assert_allclose(sym.weights, 0.25)
    got = {tuple(np.round(m, 12)) for m in sym.means}
    assert got == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}


def test_symmetrize_is_idempotent_in_density():
    g = make_point_group_2d(4)
    once = symmetrize(two_component_mixture(), g)
    twice = symmetrize(once, g)
    s = vp_schedule()
    x = np.random.default_rng(1).standard_normal((100, 2))
    np.testing.assert_allclose(
        log_density(once, s, x, 0.3), log_density(twice, s, x, 0.3), atol=1e-12)


def test_symmetrized_density_is_invariant():
    g = make_point_group_2d(4, with_reflection=True)
    sym = symmetrize(two_component_mixture(), g)
    s = vp_schedule()
    x = np.random.default_rng(2).standard_normal((50, 2))
    for k in g.elements:
        np.testing.assert_allclose(
            log_density(sym, s, k.apply(x), 0.2),
            log_density(sym, s, x, 0.2), atol=1e-10)


def test_symmetrized_score_is_equivariant():
    g = make_point_group_2d(4)
    sym = symmetrize(two_component_mixture(), g)
    s = vp_schedule()
    x = np.random.default_rng(3).standard_normal((50, 2))
    worst_sym, worst_raw = 0.0, 0.0
    raw = two_component_mixture()
    for k in g.elements:
        gap = np.abs(diffused_score(sym, s, k.apply(x), 0.2)
                     - k.apply(diffused_score(sym, s, x, 0.2)))
        worst_sym = max(worst_sym, float(gap.max()))
        gap = np.abs(diffused_score(raw, s, k.apply(x), 0.2)
                     - k.apply(diffused_score(raw, s, x, 0.2)))
        worst_raw = max(worst_raw, float(gap.max()))
    assert worst_sym <= 1e-10
    assert worst_raw > 0.1


def test_score_is_gradient_of_log_density():
    m = two_component_mixture()
    rng = np.random.default_rng(4)
    eps = 1e-6
    for s in (vp_schedule(), ve_schedule()):
        for t in (0.0, 0.25, 0.7, 1.0):
            x = rng.standard_normal(2)
            score = diffused_score(m, s, x, t)
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd = (log_density(m, s, x + e, t)
                      - log_density(m, s, x - e, t)) / (2 * eps)
                np.testing.assert_allclose(score[j], fd, rtol=1e-5, atol=1e-7)


def test_standard_normal_closed_forms():
    m = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([1.0]))
    x = np.random.default_rng(5).standard_normal((20, 2))
    vp = vp_schedule()
    # A unit Gaussian is stationary for the variance-preserving chain.
    np.testing.assert_allclose(diffused_score(m, vp, x, 0.6), -x, atol=1e-12)
    ve = ve_schedule()
    var = 1.0 + float(ve.sigma2(0.6))
    np.testing.assert_allclose(diffused_score(m, ve, x, 0.6), -x / var, atol=1e-12)
    want = -0.5 * (x**2).sum(axis=1) - np.log(2.0 * np.pi)
    np.testing.assert_allclose(log_density(m, vp, x, 0.6), want, atol=1e-12)


def test_density_normalizes():
    m = two_component_mixture()
    s = vp_schedule()
    xs = np.linspace(-8.0, 8.0, 400)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    p = np.exp(log_density(m, s, grid, 0.5)).reshape(400, 400)
    h = xs[1] - xs[0]
    assert abs(np.trapezoid(np.trapezoid(p, dx=h), dx=h) - 1.0) < 1e-3


def test_batch_matches_single_point():
    m = two_component_mixture()
    s = vp_schedule()
    x = np.random.default_rng(6).standard_normal((10, 2))
    batched = diffused_score(m, s, x, 0.4)
    for i in range(10):
        np.testing.assert_array_equal(batched[i], diffused_score(m, s, x[i], 0.4))


def symmetric_grid_mixture(tag, shape, rng, components=2):
    """A mixture of ``components`` components symmetrized over the group
    the tag names, on the grid shape or, with shape None, on 2-D points."""
    g = make_group(tag, shape)
    return symmetrize(GaussianMixture(np.full(components, 1.0 / components),
                                      rng.standard_normal((components, *g.state_shape)),
                                      np.linspace(0.3, 0.5, components)), g)


@pytest.mark.parametrize("tag, shape", [("C4", (5, 5)), ("D4", (8, 8)), ("flip_v", (4, 6)),
                                        ("D4", None), ("C4", (7, 7))])
def test_batch_rows_match_lone_states(tag, shape):
    # a lone state runs through the same matrix products as a batch row
    # (two rows, so gemm and not gemv), and the product back has a width
    # that is a multiple of 8, so its score and log-density keep their
    # bits in a batch of any size; also with K = 24 components on D4
    # points and K = 16 on a C4 7x7 grid
    rng = np.random.default_rng(11)
    m = symmetric_grid_mixture(tag, shape, rng, {None: 3, (7, 7): 4}.get(shape, 2))
    s = vp_schedule()
    x = rng.standard_normal((2048, *m.event_shape))
    rows = (0, 1, 2, 16, 2047)
    for t in (0.0, 0.3, 1.0):
        lone = [diffused_score(m, s, x[i], t) for i in rows]
        lone_density = [log_density(m, s, x[i], t) for i in rows]
        for size in (1, 2, 3, 17, 2048):
            score = diffused_score(m, s, x[:size], t)
            density = log_density(m, s, x[:size], t)
            for j, i in enumerate(rows):
                if i < size:
                    np.testing.assert_array_equal(score[i], lone[j])
                    assert density[i] == lone_density[j]


def test_row_times_match_scalar_calls():
    # distinct times, and times in runs, whose coefficients are computed
    # once per run; a time may come back in a later run
    rng = np.random.default_rng(12)
    s = vp_schedule()
    for m, shape in ((two_component_mixture(), (2,)),
                     (symmetric_grid_mixture("D4", (8, 8), rng), (8, 8))):
        for n in (1, 2, 17, 40):
            x = rng.standard_normal((n, *shape))
            ts = rng.uniform(0.0, s.T, n)
            ts[:2] = (0.0, s.T)[:n]
            if n == 40:
                ts = np.repeat(ts[:4], (16, 1, 3, 20))
                ts[30:] = ts[0]
            score = diffused_score(m, s, x, ts)
            density = log_density(m, s, x, ts)
            for i in range(n):
                np.testing.assert_array_equal(score[i], diffused_score(m, s, x[i], ts[i]))
                assert density[i] == log_density(m, s, x[i], float(ts[i]))


def test_batch_score_builds_no_point_component_dim_array():
    rng = np.random.default_rng(13)
    m = symmetric_grid_mixture("D4", (8, 8), rng)
    s = vp_schedule()
    x = rng.standard_normal((2048, 8, 8))
    diffused_score(m, s, x[:2], 0.3)  # builds the cached mean operands
    tracemalloc.start()
    try:
        diffused_score(m, s, x, 0.3)
        log_density(m, s, x, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, k, d = len(x), len(m.weights), m.dim
    assert peak < n * k * d * 8 / 4


def test_row_times_are_checked():
    m = two_component_mixture()
    s = vp_schedule()
    x = np.zeros((3, 2))
    with pytest.raises(TimeOutOfRange):
        diffused_score(m, s, x, np.array([0.2, 1.5, 0.3]))
    with pytest.raises(TimeOutOfRange):
        log_density(m, s, x, np.array([0.2, 0.5, -0.1]))
    with pytest.raises(InvalidParams):
        diffused_score(m, s, x, np.array([0.2, 0.5]))
    with pytest.raises(InvalidParams):
        log_density(m, s, x[0], np.array([0.2, 0.5]))


def two_pass_reference(m, s, x, t):
    # score and log-density from the differences m_i - x shaped
    # (points, components, d), with the squared distances and the pulls as
    # two separate passes over them
    a, s2 = float(s.alpha(t)), float(s.sigma2(t))
    means = a * m.means.reshape(len(m.weights), -1)
    var = a * a * m.variances + s2
    x2d = x.reshape(len(x), -1)
    d = x2d.shape[1]
    diff2 = ((x2d[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    lr = (np.log(m.weights)[None, :] - 0.5 * d * np.log(2.0 * np.pi * var)[None, :]
          - 0.5 * diff2 / var[None, :])
    shift = lr.max(axis=1, keepdims=True)
    gamma = np.exp(lr - shift)
    density = np.log(gamma.sum(axis=1)) + shift[:, 0]
    gamma /= gamma.sum(axis=1, keepdims=True)
    pull = (means[None, :, :] - x2d[:, None, :]) / var[None, :, None]
    return (gamma[:, :, None] * pull).sum(axis=1).reshape(x.shape), density


def test_score_and_density_match_two_pass_reference():
    # diffused_score expands the squared distances into matrix products;
    # near the data and far from it (|x| ~ 50 sqrt(d), where the expanded
    # square could cancel) it must agree with the direct differences to a
    # relative 1e-13: the score per row against the row's largest entry,
    # the log-density per point
    s = vp_schedule()
    rng = np.random.default_rng(8)
    grid = symmetrize(GaussianMixture(np.array([0.5, 0.5]), rng.standard_normal((2, 4, 4)),
                                      np.array([0.3, 0.5])), make_c4_group((4, 4)))
    for m in (two_component_mixture(), grid):
        near = rng.standard_normal((9, *m.event_shape))
        far = rng.standard_normal((9, m.dim))
        far *= 50.0 * np.sqrt(m.dim) / np.linalg.norm(far, axis=1, keepdims=True)
        for x in (near, far.reshape(near.shape)):
            for t in (0.0, 0.3, 1.0):
                score, density = two_pass_reference(m, s, x, t)
                err = np.abs(diffused_score(m, s, x, t) - score).reshape(9, -1)
                scale = np.abs(score).reshape(9, -1).max(axis=1)
                assert np.all(err.max(axis=1) <= 1e-13 * scale)
                np.testing.assert_allclose(log_density(m, s, x, t), density,
                                           rtol=1e-13, atol=0.0)


def test_score_field_wrapper_and_time_range():
    m = two_component_mixture()
    s = vp_schedule()
    field = AnalyticScoreField(m, s)
    x = np.ones(2)
    np.testing.assert_array_equal(field(x, 0.3), diffused_score(m, s, x, 0.3))
    assert field.log_density(x, 0.3) == log_density(m, s, x, 0.3)
    with pytest.raises(TimeOutOfRange):
        diffused_score(m, s, x, 1.5)
    with pytest.raises(TimeOutOfRange):
        log_density(m, s, x, -0.1)


def raw_mixture(shape, rng):
    """An unsymmetrized mixture, whose score a frame average changes."""
    return GaussianMixture(np.array([0.2, 0.3, 0.5]), 1.5 * rng.standard_normal((3, *shape)),
                           np.array([0.2, 0.4, 0.6]))


AVERAGED = [("C3", None), ("C4", None), ("D4", None),
            ("D4", (8, 8)), ("C4", (5, 5)), ("flip_v", (4, 6))]


@pytest.mark.parametrize("tag, shape", AVERAGED)
def test_closed_form_average_matches_the_moved_copies(tag, shape):
    # k^-1 s_M(k x) = s_{k^-1 M}(x): the oracle averages itself at x on
    # the |G| K moved means, to what FrameAveragedField finds by moving x;
    # passing the oracle as a plain callable forces the moved copies
    rng = np.random.default_rng(40)
    g = make_group(tag, shape)
    s = vp_schedule()
    base = AnalyticScoreField(raw_mixture(g.state_shape, rng), s)
    closed = frame_average(base, g)
    moved = frame_average(lambda x, t: base(x, t), g)
    assert isinstance(closed, AnalyticScoreField) and isinstance(moved, FrameAveragedField)
    for lead in ((), (1,), (7,), (64,)):
        x = 2.0 * rng.standard_normal((*lead, *g.state_shape))
        times = [0.0, 0.3, s.T] + ([rng.uniform(0.0, s.T, lead[0])] if lead else [])
        for t in times:
            want, got = moved(x, t), closed(x, t)
            assert got.shape == want.shape == x.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if lead:
            gaps = [np.abs(equivariance_residuals(closed, g, x, t)).max()
                    for t in (0.0, 0.3, s.T)]
            assert max(gaps) <= 1e-12


def sub_symmetric_mixture(tag, sub, shape, rng, components=2):
    """A mixture symmetrized over the group ``sub`` names, on the states of
    the group ``tag`` names; with sub == tag, fully symmetrized."""
    g = make_group(tag, shape)
    return symmetric_grid_mixture(sub, g.grid_shape, rng, components), g


SYMMETRIZED = [("C4", None), ("D4", None), ("C4", (5, 5)), ("D4", (8, 8)), ("flip_v", (4, 6))]
# (tag, subgroup symmetrized over, grid shape, distinct moved mixtures)
ORBITS = [(tag, tag, shape, 1) for tag, shape in SYMMETRIZED] + [
    ("D4", "C4", None, 2), ("D4", "C4", (8, 8), 2)]


@pytest.mark.parametrize("tag, sub, shape, blocks", ORBITS)
def test_orbit_keeps_one_block_per_distinct_moved_mixture(tag, sub, shape, blocks):
    # k^-1 M is the same mixture for every k in one coset of M's
    # stabiliser; a raw mixture has |G| distinct moved copies
    rng = np.random.default_rng(43)
    m, g = sub_symmetric_mixture(tag, sub, shape, rng)
    assert m._orbit(g).blocks == blocks
    assert raw_mixture(g.state_shape, rng)._orbit(g).blocks == len(g)


def test_orbit_keeps_every_block_when_rounded_copies_match_unevenly():
    # at general angles only some moved copies round alike: a C2-symmetric
    # mixture under C6 matches block 0 with block 3 alone, so one block per
    # distinct mixture would weight the orbit unevenly, and all 6 stay
    rng = np.random.default_rng(44)
    m, g = sub_symmetric_mixture("C6", "C2", None, rng)
    assert m._orbit(g).blocks == len(g)
    for tag in ("C3", "C5"):
        m, g = sub_symmetric_mixture(tag, tag, None, rng)
        assert m._orbit(g).blocks == len(g)


@pytest.mark.parametrize("tag, shape", SYMMETRIZED)
def test_symmetrized_average_is_the_plain_oracle_bit_for_bit(tag, shape):
    # the average of an equivariant score is the score itself: one block,
    # M in its own order, so the plain oracle's bits
    rng = np.random.default_rng(45)
    m, g = sub_symmetric_mixture(tag, tag, shape, rng)
    s = vp_schedule()
    closed = frame_average(AnalyticScoreField(m, s), g)
    x = rng.standard_normal((9, *g.state_shape))
    for xs, t in ((x[0], 0.3), (x[0], s.T), (x, 0.0), (x, 0.3), (x, s.T),
                  (x, rng.uniform(0.0, s.T, 9))):
        np.testing.assert_array_equal(closed(xs, t), diffused_score(m, s, xs, t))


@pytest.mark.parametrize("tag, sub, shape", [("D4", "C4", None), ("D4", "C4", (8, 8)),
                                             ("C3", "C3", None), ("C5", "C5", None),
                                             ("C6", "C2", None)])
def test_partly_kept_orbits_match_the_moved_copies(tag, sub, shape):
    # two distinct blocks of a C4-symmetric mixture under D4, and every
    # block of the mixtures whose moved means round, average to what
    # FrameAveragedField finds by moving x
    rng = np.random.default_rng(46)
    m, g = sub_symmetric_mixture(tag, sub, shape, rng)
    s = vp_schedule()
    base = AnalyticScoreField(m, s)
    closed = frame_average(base, g)
    moved = frame_average(lambda x, t: base(x, t), g)
    for lead in ((), (7,), (64,)):
        x = 2.0 * rng.standard_normal((*lead, *g.state_shape))
        times = [0.0, 0.3, s.T] + ([rng.uniform(0.0, s.T, lead[0])] if lead else [])
        for t in times:
            want, got = moved(x, t), closed(x, t)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if lead:
            gaps = [np.abs(equivariance_residuals(closed, g, x, t)).max()
                    for t in (0.0, 0.3, s.T)]
            assert max(gaps) <= 1e-12


@pytest.mark.parametrize("shape, components", [((8, 8), 8), (None, 12)])
def test_symmetrized_average_batch_rows_match_lone_states(shape, components):
    # K = 64 on a D4 8x8 grid and K = 96 on D4 points: averaged over all
    # |G| blocks (512 and 768 columns) some batch rows rounded unlike the
    # same lone state; one block keeps every row's bits
    rng = np.random.default_rng(47)
    m = symmetric_grid_mixture("D4", shape, rng, components)
    g = make_group("D4", shape)
    s = vp_schedule()
    x = rng.standard_normal((2048, *m.event_shape))
    for t in (0.0, 0.3):
        lone = np.stack([diffused_score(m, s, row, t, group=g) for row in x])
        for size in (64, 256, 2048):
            np.testing.assert_array_equal(diffused_score(m, s, x[:size], t, group=g),
                                          lone[:size])


def test_one_element_average_is_the_plain_oracle_bit_for_bit():
    rng = np.random.default_rng(41)
    m, s = raw_mixture((2,), rng), vp_schedule()
    closed = frame_average(AnalyticScoreField(m, s), make_group("C1"))
    x = rng.standard_normal((9, 2))
    for xs, t in ((x[0], 0.3), (x, 0.0), (x, 0.3), (x, s.T), (x, rng.uniform(0.0, s.T, 9))):
        np.testing.assert_array_equal(closed(xs, t), diffused_score(m, s, xs, t))


def test_averaged_oracle_keeps_the_fields_it_cannot_average_and_no_density():
    rng = np.random.default_rng(42)
    s = vp_schedule()
    c4, grid = make_group("C4"), make_group("D4", (4, 4))
    base = AnalyticScoreField(raw_mixture((2,), rng), s)
    closed = frame_average(base, c4)
    x = rng.standard_normal((3, 2))
    # the average of the moved mixtures' scores has no log-density
    assert base.log_density(x, 0.3).shape == (3,)
    with pytest.raises(InvalidParams):
        closed.log_density(x, 0.3)
    # the mixture's events must be the group's states, checked at once
    for m, g in ((raw_mixture((3,), rng), c4), (raw_mixture((2,), rng), grid),
                 (raw_mixture((4, 5), rng), grid)):
        with pytest.raises(ShapeMismatch):
            frame_average(AnalyticScoreField(m, s), g)
    # nets, bridge scores, conditional averages and an averaged oracle
    # averaged again move copies of their states
    bridge = BridgeScoreField(GaussianCoupling(matrix=0.8, noise_var=0.05), s)
    for field, conditional in ((Mlp(2, hidden=(8,), seed=0), False), (bridge, True),
                               (lambda x, t: base(x, t), False),
                               (closed, False)):
        assert isinstance(frame_average(field, c4, conditional), FrameAveragedField)


def test_grid_mixture_score():
    rng = np.random.default_rng(7)
    m = GaussianMixture(np.array([0.5, 0.5]),
                        rng.standard_normal((2, 4, 4)),
                        np.array([0.3, 0.5]))
    s = vp_schedule()
    x = rng.standard_normal((4, 4))
    score = diffused_score(m, s, x, 0.3)
    assert score.shape == (4, 4)
    g = make_c4_group((4, 4))
    sym = symmetrize(m, g)
    for k in g.elements:
        np.testing.assert_allclose(
            diffused_score(sym, s, k.apply(x), 0.3),
            k.apply(diffused_score(sym, s, x, 0.3)), atol=1e-10)


def test_coupling_validation_and_mean_map():
    with pytest.raises(InvalidParams):
        GaussianCoupling(matrix=1.0, noise_var=-0.5)
    c = GaussianCoupling(matrix=0.5, noise_var=0.0)
    np.testing.assert_array_equal(c.mean_map(np.array([2.0, 4.0])), [1.0, 2.0])
    c = GaussianCoupling(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), noise_var=0.1)
    np.testing.assert_array_equal(c.mean_map(np.array([2.0, 4.0])), [4.0, 2.0])


def test_bridge_conditional_params_monte_carlo():
    # Independent check: draw x_0 from the coupling, then x_t from the pinned
    # bridge, and compare empirical moments of the mixture of bridges.
    s = vp_schedule()
    coupling = GaussianCoupling(matrix=0.4, noise_var=0.09)
    x_T = np.array([1.0, -2.0])
    t = 0.45
    rng = np.random.default_rng(8)
    n = 100_000
    x0 = coupling.sample_x0(np.tile(x_T, (n, 1)), rng)
    bk = bridge_kernel(s, x0, x_T, t)
    draws = bk.mean + np.sqrt(bk.variance) * rng.standard_normal((n, 2))
    params = bridge_conditional_params(coupling, s, x_T, t)
    se = np.sqrt(params.variance / n)
    np.testing.assert_allclose(draws.mean(axis=0), params.mean, atol=5 * se)
    emp_var = draws.var(axis=0).mean()
    assert abs(emp_var - params.variance) < 5 * params.variance * np.sqrt(2.0 / n)


def test_bridge_score_matches_conditional_gradient():
    s = vp_schedule()
    coupling = GaussianCoupling(matrix=0.7, noise_var=0.05)
    rng = np.random.default_rng(9)
    x_t = rng.standard_normal(2)
    x_T = rng.standard_normal(2)
    t = 0.35
    params = bridge_conditional_params(coupling, s, x_T, t)
    eps = 1e-6

    def log_q(x):
        return -0.5 * np.sum((x - params.mean) ** 2) / params.variance

    score = bridge_score_oracle(coupling, s, x_t, x_T, t)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (log_q(x_t + e) - log_q(x_t - e)) / (2 * eps)
        np.testing.assert_allclose(score[j], fd, rtol=1e-5, atol=1e-8)


def test_bridge_score_equivariance_depends_on_coupling():
    s = vp_schedule()
    g = make_point_group_2d(4)
    rng = np.random.default_rng(10)
    x_t = rng.standard_normal(2)
    x_T = rng.standard_normal(2)
    commuting = GaussianCoupling(matrix=0.3, noise_var=0.02)
    skew = GaussianCoupling(matrix=np.diag([1.0, 0.5]), noise_var=0.02)
    worst_c, worst_s = 0.0, 0.0
    for k in g.elements:
        lhs = bridge_score_oracle(commuting, s, k.apply(x_t), k.apply(x_T), 0.4)
        rhs = k.apply(bridge_score_oracle(commuting, s, x_t, x_T, 0.4))
        worst_c = max(worst_c, float(np.max(np.abs(lhs - rhs))))
        lhs = bridge_score_oracle(skew, s, k.apply(x_t), k.apply(x_T), 0.4)
        rhs = k.apply(bridge_score_oracle(skew, s, x_t, x_T, 0.4))
        worst_s = max(worst_s, float(np.max(np.abs(lhs - rhs))))
    assert worst_c <= 1e-12
    assert worst_s > 0.1


def test_bridge_score_endpoint_behavior():
    s = vp_schedule()
    coupling = GaussianCoupling(matrix=1.0, noise_var=0.0)
    with pytest.raises(TimeOutOfRange):
        bridge_score_oracle(coupling, s, np.zeros(2), np.ones(2), 0.0)
    with pytest.raises(TimeOutOfRange):
        bridge_score_oracle(coupling, s, np.zeros(2), np.ones(2), s.T)
    # Deep in the t -> 0 limit a noiseless coupling collapses the conditional.
    with pytest.raises(DegenerateCoupling):
        bridge_score_oracle(coupling, s, np.zeros(2), np.ones(2), 1e-320)
    field = BridgeScoreField(coupling, s)
    np.testing.assert_array_equal(
        field(np.zeros(2), np.ones(2), 0.5),
        bridge_score_oracle(coupling, s, np.zeros(2), np.ones(2), 0.5))


def test_bridge_score_refuses_row_times():
    # one time is shared by every row; an array of row times is refused
    # with a typed error, not an untyped TypeError from float(t)
    s = vp_schedule()
    field = BridgeScoreField(GaussianCoupling(matrix=0.8, noise_var=0.05), s)
    x = np.zeros((3, 2))
    for t in (np.array([0.2, 0.4, 0.6]), np.array([0.5]), [0.3, 0.4, 0.5]):
        with pytest.raises(InvalidParams):
            field(x, np.ones((3, 2)), t)
    fa = frame_average(field, make_point_group_2d(4), conditional=True)
    with pytest.raises(InvalidParams):
        fa(x, np.ones((3, 2)), np.array([0.2, 0.4, 0.6]))
    np.testing.assert_array_equal(field(x, np.ones((3, 2)), np.float64(0.5)),
                                  field(x, np.ones((3, 2)), 0.5))
