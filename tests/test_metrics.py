"""Tests for likelihoods, Frechet metrics, two-sample tests and residuals."""

import numpy as np
import pytest

from spdm import (
    AnalyticScoreField,
    FeatureSpec,
    FeatureStats,
    GaussianMixture,
    InvalidParams,
    NonPsd,
    ShapeMismatch,
    SpdmError,
    TimeGrid,
    dataset_stats,
    delta_x0_gap,
    divergence,
    energy_distance_test,
    frame_average,
    fokker_planck_residual,
    frechet_distance,
    group_averaged_stats,
    inv_fid,
    log_density,
    make_c4_group,
    make_d4_group,
    make_flip_group,
    make_point_group_2d,
    nll_grid,
    pf_ode_nll,
    symmetrize,
    vp_schedule,
)
from spdm.metrics import _ENERGY_BLOCK_ROWS, _div_eval, _row_norms
from spdm.sampling import _flow_drift, pf_ode_solve

from fresh_process import needs_resource, usage


def test_divergence_of_linear_field():
    a = np.array([[1.0, 2.0], [0.5, -3.0]])
    field = lambda x, t: x @ a.T
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(divergence(field, x, 0.0), np.trace(a), atol=1e-8)
    est = divergence(field, x, 0.0, mode="hutchinson", probes=256, seed=1)
    assert abs(est - np.trace(a)) < 0.5
    with pytest.raises(InvalidParams):
        divergence(field, x, 0.0, mode="bogus")
    with pytest.raises(InvalidParams):
        divergence(field, x, 0.0, mode="hutchinson", probes=0)


def test_nll_stationary_gaussian():
    # Unit Gaussian data under the variance-preserving flow: the PF-ODE
    # drift vanishes identically and the likelihood is the prior itself.
    s = vp_schedule()
    m = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([1.0]))
    field = AnalyticScoreField(m, s)
    x0 = np.random.default_rng(0).standard_normal((20, 2))
    rep = pf_ode_nll(field, s, x0, nll_grid(s, 200))
    want = log_density(m, s, x0, 0.0)
    assert float(np.max(np.abs(rep.log_likelihood - want))) / 2 < 1e-2
    assert rep.steps == 200 and rep.div_mode == "exact_fd"


def test_nll_shifted_gaussian():
    # Non-stationary case: the flow now moves mass and the divergence
    # integral must reproduce the exact density.  The centered-prior
    # approximation contributes a bias of order alpha_T |mean|, which the
    # 1e-2 nats/dim tolerance absorbs.
    s = vp_schedule()
    m = GaussianMixture(np.array([1.0]), np.array([[0.8, -0.4]]), np.array([0.4]))
    field = AnalyticScoreField(m, s)
    x0 = m.sample(np.random.default_rng(1), 10)
    rep = pf_ode_nll(field, s, x0, nll_grid(s, 600))
    want = log_density(m, s, x0, 0.0)
    assert float(np.max(np.abs(rep.log_likelihood - want))) / 2 < 1e-2


def test_nll_hutchinson_close_to_exact():
    s = vp_schedule()
    m = GaussianMixture(np.array([1.0]), np.array([[0.5, 0.5]]), np.array([0.5]))
    field = AnalyticScoreField(m, s)
    x0 = np.array([[0.2, -0.1]])
    grid = nll_grid(s, 100)
    exact = pf_ode_nll(field, s, x0, grid)
    hutch = pf_ode_nll(field, s, x0, grid, div_mode="hutchinson", probes=128, seed=2)
    assert abs(float(exact.bits_per_dim[0]) - float(hutch.bits_per_dim[0])) < 0.05


def test_nll_dequant_offset_and_validation():
    s = vp_schedule()
    m = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([1.0]))
    field = AnalyticScoreField(m, s)
    x0 = np.array([0.1, 0.2])
    grid = nll_grid(s, 20)
    base = pf_ode_nll(field, s, x0, grid)
    shifted = pf_ode_nll(field, s, x0, grid, dequant_offset=7.0)
    np.testing.assert_allclose(shifted.bits_per_dim, base.bits_per_dim + 7.0)
    with pytest.raises(InvalidParams):
        pf_ode_nll(field, s, x0, grid.reversed())
    with pytest.raises(InvalidParams):
        pf_ode_nll(field, s, np.zeros((0, 2)), grid)
    with pytest.raises(InvalidParams, match="at least one step"):
        pf_ode_nll(field, s, x0, TimeGrid(np.array([s.t_clip])))


def test_nll_invariant_under_rotations():
    s = vp_schedule()
    base = GaussianMixture(np.array([1.0]), np.array([[1.0, 0.3]]), np.array([0.2]))
    g = make_point_group_2d(4)
    field = AnalyticScoreField(symmetrize(base, g), s)
    x0 = np.random.default_rng(3).standard_normal((5, 2))
    grid = nll_grid(s, 100)
    ref = pf_ode_nll(field, s, x0, grid).log_likelihood
    for k in g.elements:
        got = pf_ode_nll(field, s, k.apply(x0), grid).log_likelihood
        assert float(np.max(np.abs(got - ref))) < 1e-6


def reference_divergence(f, xs, t, mode, probes=64, seed=0):
    """One field call per point and per perturbed coordinate or probe state."""

    def call(y):
        return np.asarray(f(y[None], t), dtype=float)[0]

    out = []
    for x in xs:
        total = 0.0
        if mode == "exact_fd":
            for j in range(x.size):
                h = 1e-5 * (1.0 + abs(x.flat[j]))
                xp, xm = x.copy(), x.copy()
                xp.flat[j] += h
                xm.flat[j] -= h
                total += (call(xp).flat[j] - call(xm).flat[j]) / (2.0 * h)
        else:
            rng = np.random.default_rng(seed)
            h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
            for _ in range(probes):
                v = rng.choice([-1.0, 1.0], size=x.shape)
                jv = (call(x + h * v) - call(x - h * v)) / (2.0 * h)
                total += float(np.sum(v * jv))
            total /= probes
        out.append(total)
    return np.array(out)


class CountingField:
    def __init__(self, field):
        self.field, self.calls = field, 0

    def __call__(self, y, t):
        self.calls += 1
        return self.field(y, t)


def point_field():
    s = vp_schedule()
    g = make_point_group_2d(4)
    mix = symmetrize(GaussianMixture(np.array([0.6, 0.4]),
                                     np.array([[2.4, 0.6], [0.6, 1.8]]),
                                     np.array([0.4, 0.5])), g)
    return frame_average(AnalyticScoreField(mix, s), g)


def grid_field():
    s = vp_schedule()
    d4 = make_d4_group((8, 8))
    means = 0.4 * np.random.default_rng(0).standard_normal((2, 8, 8))
    mix = symmetrize(GaussianMixture(np.array([0.5, 0.5]), means,
                                     np.array([0.5, 0.5])), d4)
    return frame_average(AnalyticScoreField(mix, s), d4)


def test_div_eval_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    for field, event in ((point_field(), (2,)), (grid_field(), (8, 8))):
        xs = rng.standard_normal((3, *event))
        for mode, probes in (("exact_fd", 64), ("hutchinson", 16)):
            got = _div_eval(field, xs[None], [0.4], mode, probes, 5)[0]
            want = reference_divergence(field, xs, 0.4, mode, probes, 5)
            np.testing.assert_array_equal(got, want)


def test_row_norms_match_per_row_norm_bit_for_bit():
    # the Hutchinson step 1e-5 (1 + |x|) takes its norms in one stacked product
    rng = np.random.default_rng(36)
    for d in (2, 3, 64):
        for scale in (0.1, 1.0, 10.0, 100.0):
            x = scale * rng.standard_normal((5000, d))
            want = np.array([np.linalg.norm(row) for row in x])
            np.testing.assert_array_equal(_row_norms(x), want)
            np.testing.assert_array_equal(_row_norms(x.T.copy().T), want)


class TimeRecordingField(CountingField):
    def __init__(self, field):
        super().__init__(field)
        self.times = []

    def __call__(self, y, t):
        self.times.append(np.array(t, dtype=float))
        return super().__call__(y, t)


def test_nll_groups_small_recorded_states_into_one_field_call():
    s = vp_schedule()
    rng = np.random.default_rng(9)
    # (points, event, mode, steps, divergence calls): the perturbed rows of
    # one state hold 2 k d n entries (k = d or the probes); consecutive
    # states share a call up to 1024 entries, a grid state is never regrouped
    cases = ((point_field(), 4, (2,), "exact_fd", 12, 1),     # 32 entries: all 13
             (point_field(), 4, (2,), "hutchinson", 12, 13),  # 1024: one state each
             (point_field(), 1, (2,), "hutchinson", 28, 8),   # 256: 4 a call, 29 states
             (grid_field(), 2, (8, 8), "exact_fd", 3, 4))     # 16384: one state each
    for field, n, event, mode, steps, div_calls in cases:
        grid = nll_grid(s, steps)
        recorder = TimeRecordingField(field)
        pf_ode_nll(recorder, s, rng.standard_normal((n, *event)), grid, div_mode=mode)
        assert recorder.calls == 2 * steps + div_calls
        # the divergence calls come last; a lone state keeps its scalar time,
        # a group of states passes each row the time of its state
        seen = np.concatenate([np.unique(t) for t in recorder.times[2 * steps:]])
        np.testing.assert_array_equal(seen, grid.times)
        for t in recorder.times[2 * steps:]:
            assert t.ndim == (0 if len(np.unique(t)) == 1 else 1)


def reference_nll(score, s, x0, grid, mode, probes, seed):
    """pf_ode_nll with every divergence from reference_divergence: one
    field call per point and probe, at each state's own scalar time."""
    f, _ = _flow_drift(score, s, grid, 0.5)
    states = pf_ode_solve(score, s, grid, x0).states
    times = grid.times
    divs = np.stack([reference_divergence(lambda y, t, j=j: f(y, j), states[j],
                                          times[j], mode, probes, seed + j)
                     for j in range(len(times))])
    integral = np.cumsum(0.5 * np.diff(times)[:, None] * (divs[:-1] + divs[1:]),
                         axis=0)[-1]
    s2_T = float(s.sigma2(s.T))
    d = x0[0].size
    return -0.5 * d * np.log(2.0 * np.pi * s2_T) \
        - 0.5 * np.sum(states[-1].reshape(len(x0), d)**2, axis=1) / s2_T + integral


def test_grouped_nll_matches_per_state_reference_bit_for_bit():
    # several recorded states in one field call rely on the oracle rounding
    # a row alike in any batch, which holds for 2-D points and D4 8x8
    s = vp_schedule()
    rng = np.random.default_rng(24)
    cases = []
    for g in (make_point_group_2d(4), make_point_group_2d(4, with_reflection=True)):
        mix = symmetrize(GaussianMixture(np.array([0.6, 0.4]),
                                         np.array([[2.4, 0.6], [0.6, 1.8]]),
                                         np.array([0.4, 0.5])), g)
        field = frame_average(AnalyticScoreField(mix, s), g)
        cases += [(field, (2,), "exact_fd", 64, 8), (field, (2,), "hutchinson", 64, 8)]
    cases += [(grid_field(), (8, 8), "exact_fd", 64, 2),
              (grid_field(), (8, 8), "hutchinson", 2, 4)]
    for field, event, mode, probes, steps in cases:
        grid = nll_grid(s, steps)
        for n in (1, 2, 3):
            x0 = rng.standard_normal((n, *event))
            got = pf_ode_nll(field, s, x0, grid, div_mode=mode, probes=probes,
                             seed=3).log_likelihood
            want = reference_nll(field, s, x0, grid, mode, probes, 3)
            np.testing.assert_array_equal(got, want)


def test_grid_states_in_their_own_shape_match_the_flat_adapter_bit_for_bit():
    # the reference: the score on flat (n, 64) rows through a reshaping adapter
    s = vp_schedule()
    fa = grid_field()
    flat = lambda y, t: fa(y.reshape(-1, 8, 8), t).reshape(len(y), -1)
    grid = nll_grid(s, 2)
    rng = np.random.default_rng(25)
    for mode, probes in (("exact_fd", 64), ("hutchinson", 4)):
        for n in (1, 2):
            x0 = rng.standard_normal((n, 8, 8))
            got = pf_ode_nll(fa, s, x0, grid, div_mode=mode, probes=probes, seed=3)
            want = pf_ode_nll(flat, s, x0.reshape(n, -1), grid, div_mode=mode,
                              probes=probes, seed=3)
            np.testing.assert_array_equal(got.log_likelihood, want.log_likelihood)
            np.testing.assert_array_equal(got.bits_per_dim, want.bits_per_dim)
        x = rng.standard_normal((8, 8))
        assert divergence(fa, x, 0.4, mode, probes, 5) == \
            divergence(flat, x.reshape(-1), 0.4, mode, probes, 5)


def test_lone_grid_state_raises_a_typed_error():
    # (8, 8) is a batch of eight 8-vectors; a lone grid state is x[None]
    s = vp_schedule()
    x = np.random.default_rng(26).standard_normal((8, 8))
    with pytest.raises(SpdmError):
        pf_ode_nll(grid_field(), s, x, nll_grid(s, 2))
    assert np.isfinite(pf_ode_nll(grid_field(), s, x[None], nll_grid(s, 2))
                       .log_likelihood).all()


@needs_resource
def test_point_nll_keeps_the_peak_resident_set():
    # a point_en-sized NLL: C4 points, 28 steps, 64 probes.  Grouping four
    # recorded states per field call keeps its (rows, K) work arrays at
    # 128 KB; all 29 states in one call raised the peak by about 3.4 MB
    setup = """
    import numpy as np
    import spdm
    s = spdm.vp_schedule()
    g = spdm.make_point_group_2d(4)
    mix = spdm.symmetrize(spdm.GaussianMixture(
        np.array([0.6, 0.4]), np.array([[2.4, 0.6], [0.6, 1.8]]),
        np.array([0.4, 0.5])), g)
    field = spdm.frame_average(spdm.AnalyticScoreField(mix, s), g)
    x0 = np.array([[1.2, -0.4]])
    # warm-up: one step, so its two recorded states share one call
    spdm.pf_ode_nll(field, s, x0, spdm.nll_grid(s, 1), div_mode="hutchinson")
    """
    call = """
    spdm.pf_ode_nll(field, s, x0, spdm.nll_grid(s, 28), div_mode="hutchinson")
    """
    assert usage(setup, call).growth_mb < 0.5


def test_div_eval_chunks_whole_points_on_large_states():
    # d = 300 needs 2 d^2 = 180000 entries per point under exact_fd and
    # 2 * 64 * 300 = 38400 under hutchinson: one point per field call.
    def field(y, t):
        return np.tanh(y) * np.roll(y, 1, axis=-1) + t * y**2

    xs = np.random.default_rng(10).standard_normal((3, 300))
    for mode in ("exact_fd", "hutchinson"):
        counting = CountingField(field)
        got = _div_eval(counting, xs[None], [0.3], mode, 64, 2)[0]
        assert counting.calls == 3
        np.testing.assert_array_equal(
            got, reference_divergence(field, xs, 0.3, mode, 64, 2))


def test_feature_map_deterministic_and_bounded():
    spec = FeatureSpec(dim_in=4, dim_out=16)
    x = np.random.default_rng(4).standard_normal((10, 4))
    f = spec.project(x)
    assert f.shape == (10, 16)
    np.testing.assert_array_equal(f, spec.project(x))
    assert np.all(np.abs(f) < 1.0)
    with pytest.raises(ShapeMismatch):
        spec.project(np.zeros((3, 5)))


def test_feature_stats_match_numpy():
    f = np.random.default_rng(5).standard_normal((50, 6))
    st = FeatureStats.from_features(f)
    np.testing.assert_allclose(st.mean, f.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(st.cov, np.cov(f, rowvar=False, ddof=0), atol=1e-12)
    assert st.count == 50
    np.testing.assert_allclose(st.cov, st.cov.T, atol=0)


def test_group_averaged_stats_equal_augmented_dataset():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((40, 4, 4))
    g = make_flip_group("vertical", (4, 4))
    spec = FeatureSpec(dim_in=16, dim_out=12)
    avg = group_averaged_stats(data, g, spec)
    augmented = np.concatenate([k.apply(data) for k in g.elements])
    direct = dataset_stats(augmented, spec)
    np.testing.assert_allclose(avg.mean, direct.mean, atol=1e-12)
    np.testing.assert_allclose(avg.cov, direct.cov, atol=1e-12)
    assert avg.count == direct.count
    with pytest.raises(InvalidParams):
        group_averaged_stats(np.zeros((0, 4, 4)), g, spec)


def test_frechet_closed_forms():
    d = 5
    rng = np.random.default_rng(7)
    w = rng.standard_normal((d, d))
    cov = w @ w.T / d
    mu = rng.standard_normal(d)
    same = FeatureStats(mean=mu, cov=cov, count=1)
    assert frechet_distance(same, same) <= 1e-8
    shifted = FeatureStats(mean=mu + 2.0, cov=cov.copy(), count=1)
    np.testing.assert_allclose(frechet_distance(same, shifted), 4.0 * d, rtol=1e-8)
    iso_a = FeatureStats(mean=np.zeros(d), cov=4.0 * np.eye(d), count=1)
    iso_b = FeatureStats(mean=np.zeros(d), cov=9.0 * np.eye(d), count=1)
    np.testing.assert_allclose(frechet_distance(iso_a, iso_b), d * 1.0, rtol=1e-10)
    one_a = FeatureStats(mean=np.array([1.0]), cov=np.array([[4.0]]), count=1)
    one_b = FeatureStats(mean=np.array([3.0]), cov=np.array([[9.0]]), count=1)
    np.testing.assert_allclose(frechet_distance(one_a, one_b), 4.0 + 1.0, rtol=1e-10)


def test_frechet_ignores_last_bit_sample_changes():
    # 64-dim features of 2-D points have a rank-deficient covariance; the
    # rounding-level eigenvalues of the product matrix must not reach the
    # distance through their square roots
    rng = np.random.default_rng(0)
    spec = FeatureSpec(dim_in=2)
    ref = dataset_stats(rng.standard_normal((512, 2)) + np.array([1.5, 0.0]), spec)
    samples = rng.standard_normal((64, 2)) + np.array([1.4, 0.2])
    vals = [frechet_distance(ref, dataset_stats(
        samples * (1.0 + 1e-15 * rng.standard_normal(samples.shape)), spec))
        for _ in range(8)]
    assert max(vals) - min(vals) < 2e-8


def test_frechet_error_cases():
    bad = FeatureStats(mean=np.zeros(2), cov=np.diag([1.0, -1.0]), count=1)
    ok = FeatureStats(mean=np.zeros(2), cov=np.eye(2), count=1)
    with pytest.raises(NonPsd):
        frechet_distance(bad, ok)
    other = FeatureStats(mean=np.zeros(3), cov=np.eye(3), count=1)
    with pytest.raises(ShapeMismatch):
        frechet_distance(ok, other)


def test_inv_fid_detects_asymmetry():
    rng = np.random.default_rng(8)
    g = make_point_group_2d(4)
    base = GaussianMixture(np.array([1.0]), np.array([[1.5, 0.0]]), np.array([0.1]))
    sym = symmetrize(base, g)
    spec = FeatureSpec(dim_in=2, dim_out=16)
    v_sym = inv_fid(sym.sample(rng, 2000), g, spec)
    v_one = inv_fid(base.sample(rng, 2000), g, spec)
    assert v_one > 10.0 * v_sym
    with pytest.raises(InvalidParams):
        inv_fid(np.zeros((4, 2)), make_point_group_2d(1), spec)


def test_inv_fid_matches_per_pair_frechet_loop():
    # each orientation's square root is taken once; the value is the worst
    # frechet_distance over the pairs, bit for bit
    rng = np.random.default_rng(21)
    for g, shape in ((make_d4_group((4, 4)), (4, 4)), (make_point_group_2d(4), (2,))):
        data = rng.standard_normal((300, *shape)) + rng.standard_normal(shape)
        spec = FeatureSpec(dim_in=int(np.prod(shape)), dim_out=16)
        stats = [dataset_stats(k.apply(data), spec) for k in g.elements]
        want = max(frechet_distance(stats[i], stats[j])
                   for i in range(len(g)) for j in range(i + 1, len(g)))
        assert inv_fid(data, g, spec) == want > 0.0


def test_delta_x0_gap():
    g = make_point_group_2d(4)
    inputs = np.random.default_rng(9).standard_normal((16, 2))
    radial = lambda x: np.tanh(np.linalg.norm(x, axis=1, keepdims=True)) * x
    assert delta_x0_gap(radial, inputs, g, np.random.default_rng(10)) <= 1e-15
    skew = lambda x: x @ np.diag([2.0, 1.0])
    assert delta_x0_gap(skew, inputs, g, np.random.default_rng(11)) > 0.1


def test_delta_x0_gap_needs_two_elements():
    with pytest.raises(InvalidParams):
        delta_x0_gap(lambda x: x, np.zeros((4, 2)), make_point_group_2d(1),
                     np.random.default_rng(0))


def test_delta_x0_gap_never_draws_the_identity():
    # x -> x + w has gap max|w - flip w| = 6 under the flip and 0 under the
    # identity, exactly on these integers; every input must read 6
    g = make_flip_group("vertical", (3, 3))
    w = np.arange(9.0).reshape(3, 3)
    inputs = np.random.default_rng(12).integers(-4, 5, (32, 3, 3)).astype(float)
    for seed in range(4):
        assert delta_x0_gap(lambda x: x + w, inputs, g,
                            np.random.default_rng(seed)) == 6.0


def per_row_delta_x0(model, inputs, group, rng):
    """Reference: one element draw and two lone-row model calls per input."""
    gaps = []
    for x in inputs:
        k = group.elements[1 + int(rng.integers(len(group) - 1))]
        gaps.append(np.max(np.abs(model(k.apply(x)[None])[0]
                                  - k.apply(model(x[None])[0]))))
    return float(np.mean(gaps))


def test_delta_x0_gap_matches_per_row_reference():
    rng = np.random.default_rng(14)
    for g, shape in ((make_point_group_2d(4), (2,)), (make_d4_group((4, 4)), (4, 4))):
        w = rng.standard_normal(shape)
        model = lambda x: np.tanh(x * w) + w  # row-wise and not equivariant
        inputs = rng.standard_normal((24, *shape))
        for seed in (0, 1, 2):
            got = delta_x0_gap(model, inputs, g, np.random.default_rng(seed))
            assert got > 0.1
            assert got == per_row_delta_x0(model, inputs, g, np.random.default_rng(seed))


def test_energy_statistic_matches_brute_force():
    # a point is at distance exactly 0 from itself; the square root of the
    # rounding residue of |x|^2 + |x|^2 - 2 x.x moved the statistic by
    # 3e-11 (2-D) to 4e-10 (64-D) relative
    rng = np.random.default_rng(12)
    for n, m, d in ((40, 35, 3), (512, 512, 2), (256, 256, 64)):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d)) + 0.3
        stat, _ = energy_distance_test(a, b, permutations=5, seed=0)

        def mean_dist(u, v):
            return float(np.mean(np.linalg.norm(u[:, None, :] - v[None, :, :], axis=2)))

        want = 2.0 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b)
        np.testing.assert_allclose(stat, want, rtol=1e-12, atol=0.0)


def test_energy_test_calibration():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2))
    _, p_same = energy_distance_test(a, b, seed=1)
    assert p_same > 0.01
    _, p_diff = energy_distance_test(a, b + 1.0, seed=1)
    assert p_diff == pytest.approx(0.01)


def test_energy_test_validation():
    with pytest.raises(InvalidParams):
        energy_distance_test(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        energy_distance_test(np.zeros((3, 2)), np.zeros((3, 3)))
    for bad in (-1, -2, -100):
        with pytest.raises(InvalidParams):
            energy_distance_test(np.ones((3, 2)), np.zeros((3, 2)), permutations=bad)
    _, p = energy_distance_test(np.ones((3, 2)), np.zeros((3, 2)), permutations=0)
    assert p == 1.0


def dense_energy_reference(a, b, permutations, seed):
    """The energy test on the whole (N, N) distance matrix at once."""
    n, m = len(a), len(b)
    x = np.concatenate([a, b])
    sq = np.sum(x**2, axis=1)
    g = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(g, 0.0)
    dist = np.sqrt(np.maximum(g, 0.0))
    row_tot = dist.sum(axis=1)
    rng = np.random.default_rng(seed)
    z = np.zeros((n + m, permutations + 1))
    z[:n, 0] = 1.0
    for k in range(1, permutations + 1):
        z[rng.permutation(n + m)[:n], k] = 1.0
    dz = dist @ z
    s_aa = np.einsum("ik,ik->k", z, dz)
    s_ab = row_tot @ z - s_aa
    s_bb = float(row_tot.sum()) - 2.0 * s_ab - s_aa
    stats = 2.0 * s_ab / (n * m) - s_aa / n**2 - s_bb / m**2
    return float(stats[0]), (1.0 + np.sum(stats[1:] >= stats[0])) / (1.0 + permutations)


def test_streamed_energy_test_matches_dense_reference():
    # the same arithmetic per entry; only BLAS may block the two matrix
    # products differently, which moves a sum by rounding at most
    rng = np.random.default_rng(22)
    block = _ENERGY_BLOCK_ROWS
    for n, m, d in ((1, 1, 2), (3, 4, 2), (40, 24, 2), (block, block, 2),
                    (block + 5, block - 2, 3), (150, 93, 5), (2 * block + 1, 60, 64)):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d)) + 0.1
        for perms, seed in ((0, 0), (19, 1), (99, 2)):
            stat, p = energy_distance_test(a, b, permutations=perms, seed=seed)
            want_stat, want_p = dense_energy_reference(a, b, perms, seed)
            assert p == want_p
            np.testing.assert_allclose(stat, want_stat, rtol=0.0, atol=1e-12)


@needs_resource
def test_energy_test_memory_grows_with_n_not_n_squared():
    # 2 x 5000 points: the dense (N, N) matrix alone would be 800 MB
    setup = """
    import numpy as np
    from spdm.metrics import energy_distance_test
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5000, 2))
    b = rng.standard_normal((5000, 2)) + 0.05
    """
    use = usage(setup, "energy_distance_test(a, b, permutations=199, seed=0)")
    assert use.maxrss_mb < 350.0


def _gaussian_isotropic(var):
    def p(pts, t):
        sq = np.sum(pts**2, axis=-1)
        return np.exp(-0.5 * sq / var) / (2.0 * np.pi * var)
    return p


def test_fp_residual_stationary_ou():
    # f = -x with g^2 = 2 keeps the unit Gaussian stationary, so only
    # finite-difference error remains.
    axes = (np.linspace(-4, 4, 401), np.linspace(-4, 4, 401))
    res = fokker_planck_residual(
        lambda pts, t: _gaussian_isotropic(1.0)(pts, t),
        lambda pts, t: -pts, np.sqrt(2.0), 0.5, axes)
    assert res.max_abs < 1e-4
    assert res.rms <= res.max_abs
    assert res.residual.shape == (399, 399)


def test_fp_residual_heat_kernel():
    # Pure diffusion: variance grows linearly at rate g^2.
    def p(pts, t):
        return _gaussian_isotropic(0.5 + 2.0 * t)(pts, t)

    axes = (np.linspace(-4, 4, 401), np.linspace(-4, 4, 401))
    res = fokker_planck_residual(p, None, lambda t: np.sqrt(2.0), 0.3, axes)
    assert res.max_abs < 1e-4


def test_liouville_rotation_residual():
    # The rotation field (y, -x) transports any radial density to itself.
    axes = (np.linspace(-4, 4, 801), np.linspace(-4, 4, 801))
    res = fokker_planck_residual(
        lambda pts, t: _gaussian_isotropic(1.0)(pts, t),
        lambda pts, t: np.stack([pts[..., 1], -pts[..., 0]], axis=-1),
        0.0, 0.0, axes)
    assert res.max_abs < 5e-6


def test_fp_residual_validation():
    bad = (np.array([0.0, 0.1, 0.3]), np.linspace(0, 1, 5))
    with pytest.raises(InvalidParams):
        fokker_planck_residual(lambda pts, t: np.ones(pts.shape[:-1]),
                               None, 1.0, 0.0, bad)
