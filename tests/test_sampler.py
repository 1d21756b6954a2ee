"""Tests for SDE/ODE integrators, noise sequences and canonicalizers."""

import numpy as np
import pytest

from spdm import (
    AnalyticScoreField,
    BridgeScoreField,
    GaussianCoupling,
    GaussianMixture,
    InvalidParams,
    IsometryGroup,
    NoiseSequence,
    NonFiniteState,
    SingularAtTerminal,
    TimeGrid,
    TimeOutOfRange,
    bridge_grid,
    canonical_ids,
    canonicalize,
    ddbm_reverse_sample,
    default_canonicalizer,
    equivariant_noise_batch,
    equivariant_noise_sequence,
    frame_average,
    grad_log_transition_h,
    make_c4_group,
    make_d4_group,
    make_flip_group,
    make_group,
    make_point_group_2d,
    nll_grid,
    pf_ode_nll,
    pf_ode_solve,
    reverse_sde_sample,
    sampling_grid,
    sdedit_denoise,
    simulate_drift_only,
    symmetrize,
    ve_schedule,
    vp_schedule,
)


def broad_mixture():
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.0, 0.0], [-0.5, 0.8]]),
        variances=np.array([0.5, 0.6]),
    )


def test_time_grid_validation():
    with pytest.raises(InvalidParams):
        TimeGrid(np.array([0.0, 0.5, 0.3]))
    with pytest.raises(InvalidParams):
        TimeGrid(np.zeros((2, 2)))
    g = TimeGrid(np.array([1.0, 0.5, 0.0]))
    assert g.n_steps == 2 and g.descending
    assert not g.reversed().descending


def test_grid_constructors():
    s = vp_schedule()
    g = sampling_grid(s, 10)
    assert g.times[0] == s.T and g.times[-1] == pytest.approx(s.t_clip)
    assert g.descending and g.n_steps == 10
    g = bridge_grid(s, 10)
    assert g.times[0] == pytest.approx(s.T - s.t_clip)
    assert g.times[-1] == pytest.approx(s.t_clip)
    g = nll_grid(s, 10)
    assert not g.descending
    assert g.times[0] == pytest.approx(s.t_clip) and g.times[-1] == s.T


def test_noise_sequence_reproducible():
    seq = NoiseSequence(seed=42, n=5, shape=(3, 3))
    np.testing.assert_array_equal(seq.get(2), seq.get(2))
    other = NoiseSequence(seed=42, n=5, shape=(3, 3))
    np.testing.assert_array_equal(seq.get(4), other.get(4))
    assert float(np.max(np.abs(seq.get(0) - seq.get(1)))) > 1e-6
    with pytest.raises(InvalidParams):
        seq.get(5)


def test_noise_sequence_orientation_bit_exact():
    g = make_c4_group((4, 4))
    k = g.element_by_name("r1")
    base = NoiseSequence(seed=7, n=4, shape=(4, 4))
    oriented = NoiseSequence(seed=7, n=4, shape=(4, 4), group=g, ids=k.gid)
    for i in range(4):
        np.testing.assert_array_equal(oriented.get(i), k.apply(base.get(i)))


def test_noise_sequence_shifted():
    seq = NoiseSequence(seed=1, n=6, shape=(2,))
    tail = seq.shifted(2)
    np.testing.assert_array_equal(tail.get(0), seq.get(2))
    np.testing.assert_array_equal(tail.get(3), seq.get(5))


def test_noise_sequence_rows_replay_stream_rows():
    # Row r is stream row rows[r] of the plain block, repeats and gaps too.
    rows = np.array([0, 1, 2, 3, 4, 1, 0, 4])
    seq = NoiseSequence(seed=5, n=4, shape=(8, 3), rows=rows)
    plain = NoiseSequence(seed=5, n=4, shape=(5, 3))
    for i in range(4):
        np.testing.assert_array_equal(seq.get(i), plain.get(i)[rows])
    tail = seq.shifted(1)
    np.testing.assert_array_equal(tail.get(2), plain.get(3)[rows])
    sparse = NoiseSequence(seed=5, n=4, shape=(2, 3), rows=np.array([3, 0]))
    np.testing.assert_array_equal(sparse.get(1), plain.get(1)[[3, 0]])
    for bad in (np.arange(7), np.array([0, 1, 2, 3, 4, 1, 0, -1]), rows + 0.0):
        with pytest.raises(InvalidParams):
            NoiseSequence(seed=5, n=4, shape=(8, 3), rows=bad)


def test_reverse_sde_validation():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    grid = sampling_grid(s, 5)
    with pytest.raises(InvalidParams):
        reverse_sde_sample(field, s, -0.5, grid, np.zeros(2))
    for lam in (1e300, np.nan):  # the drift weighs the score by (1 + lam^2) / 2
        with pytest.raises(InvalidParams, match="lambda"):
            reverse_sde_sample(field, s, lam, grid, np.zeros(2), noise=0)
    with pytest.raises(InvalidParams):
        reverse_sde_sample(field, s, 0.0, grid.reversed(), np.zeros(2))
    with pytest.raises(InvalidParams):
        reverse_sde_sample(field, s, 1.0, grid, np.zeros(2))  # no noise given
    with pytest.raises(InvalidParams):
        reverse_sde_sample(field, s, 0.0, grid, lambda rng: rng.standard_normal(2))


def test_reverse_sde_deterministic_and_metadata():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    grid = sampling_grid(s, 50)
    a = reverse_sde_sample(field, s, 1.0, grid, np.ones(2), noise=3)
    b = reverse_sde_sample(field, s, 1.0, grid, np.ones(2), noise=3)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.metadata["lam"] == 1.0 and a.metadata["kind"] == "reverse_sde"
    assert a.states.shape == (51, 2)
    np.testing.assert_array_equal(a.states[0], np.ones(2))


def test_noise_free_solver_ignores_noise_argument():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    grid = sampling_grid(s, 20)
    a = reverse_sde_sample(field, s, 0.0, grid, np.ones(2), noise=1)
    b = reverse_sde_sample(field, s, 0.0, grid, np.ones(2), noise=99)
    np.testing.assert_array_equal(a.states, b.states)


def test_stationary_gaussian_moments_preserved():
    # A unit Gaussian is a fixed point of the variance-preserving chain, so
    # reverse sampling from the exact prior must return unit moments.
    s = vp_schedule()
    m = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0]]), np.array([1.0]))
    field = AnalyticScoreField(m, s)
    n = 2000
    x_T = np.random.default_rng(0).standard_normal((n, 2))
    out = reverse_sde_sample(field, s, 1.0, sampling_grid(s, 200), x_T, noise=5)
    term = out.terminal
    se_mean = 1.0 / np.sqrt(n)
    np.testing.assert_allclose(term.mean(axis=0), 0.0, atol=5 * se_mean)
    np.testing.assert_allclose(term.var(axis=0), 1.0, atol=5 * np.sqrt(2.0 / n) + 0.01)


def test_pf_ode_round_trip():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    x0 = np.array([[0.8, -0.3], [1.2, 0.9], [-0.7, 0.1]])
    fwd = pf_ode_solve(field, s, nll_grid(s, 200), x0)
    back = pf_ode_solve(field, s, nll_grid(s, 200).reversed(), fwd.terminal)
    np.testing.assert_allclose(back.terminal, x0, atol=1e-3)


def test_pf_ode_direction_follows_grid():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    fwd = pf_ode_solve(field, s, nll_grid(s, 5), np.zeros(2))
    back = pf_ode_solve(field, s, sampling_grid(s, 5), np.zeros(2))
    assert fwd.metadata["direction"] == "forward"
    assert back.metadata["direction"] == "backward"


def _blow_up(x, *args):
    return 1e160 * x


NON_FINITE_RUNS = {
    "reverse_sde_sample": lambda s: reverse_sde_sample(
        _blow_up, s, 0.0, sampling_grid(s, 20), np.ones(2)),
    "pf_ode_solve": lambda s: pf_ode_solve(
        _blow_up, s, sampling_grid(s, 20), np.ones(2)),
    "ddbm_reverse_sample": lambda s: ddbm_reverse_sample(
        _blow_up, s, np.ones(2), 0.0, bridge_grid(s, 20)),
    "simulate_drift_only": lambda s: simulate_drift_only(
        _blow_up, np.ones((1, 2)), nll_grid(s, 20), 1),
    "pf_ode_nll": lambda s: pf_ode_nll(_blow_up, s, np.ones(2), nll_grid(s, 20)),
}


def test_non_finite_state_detected():
    # Every integrator runs through the shared stepper and its check.
    for name, run in NON_FINITE_RUNS.items():
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState, match="non-finite at step"):
            run(vp_schedule())


def test_ddbm_validation():
    s = vp_schedule()
    field = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)
    good = bridge_grid(s, 10)
    with pytest.raises(InvalidParams):
        ddbm_reverse_sample(field, s, np.zeros(2), -1.0, good)
    for tau in (1e300, np.nan):
        with pytest.raises(InvalidParams, match="tau"):
            ddbm_reverse_sample(field, s, np.zeros(2), tau, good, noise=0)
    with pytest.raises(InvalidParams):
        ddbm_reverse_sample(field, s, np.zeros(2), 0.5, good)  # no noise
    with pytest.raises(InvalidParams):
        ddbm_reverse_sample(field, s, np.zeros(2), 0.0, good.reversed())
    with pytest.raises(TimeOutOfRange):
        ddbm_reverse_sample(field, s, np.zeros(2), 0.0, sampling_grid(s, 10))
    # inside the grid check's rounding slack but within t_clip of T
    near = TimeGrid(np.linspace(s.T - s.t_clip + 5e-13, s.t_clip, 5))
    with pytest.raises(SingularAtTerminal):
        ddbm_reverse_sample(field, s, np.zeros(2), 0.0, near)


def test_ddbm_runs_on_the_bridge_grid_at_every_horizon():
    # bridge_grid starts at the float T - t_clip; the sampler's terminal
    # check must accept it whichever way T - (T - t_clip) rounds
    for T in (0.5, 1.0, 3.0, 5.0, 7.0, 10.0, 100.0):
        for s in (vp_schedule(beta_min=0.1 / T, beta_max=20.0 / T, T=T), ve_schedule(T=T)):
            field = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)
            traj = ddbm_reverse_sample(field, s, np.ones((3, 2)), 1.0, bridge_grid(s, 10),
                                       noise=0, record=False)
            assert np.all(np.isfinite(traj.terminal)), (T, s.kind)


def test_ddbm_matches_per_step_h_reference():
    # The bridge takes h's ratio and denominator once per grid; stepping with
    # grad_log_transition_h at every step gives the same states bit for bit.
    for s in (vp_schedule(), ve_schedule()):
        field = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)
        grid = bridge_grid(s, 40)
        x_T = np.random.default_rng(2).standard_normal((5, 2))
        dla, g2 = s.dlog_alpha_dt(grid.times), s.g2(grid.times)
        for tau in (0.0, 1.0):
            seq = NoiseSequence(seed=8, n=grid.n_steps, shape=x_T.shape)
            weight = 0.5 * (1.0 + tau**2)
            x, want = x_T.copy(), [x_T]
            for i in range(grid.n_steps):
                t, dt = grid.times[i], grid.times[i + 1] - grid.times[i]
                h = grad_log_transition_h(s, x, x_T, t)
                x = x + (dla[i] * x + g2[i] * h - weight * g2[i] * field(x, x_T, t)) * dt
                if tau > 0:
                    x = x + tau * np.sqrt(g2)[i] * np.sqrt(abs(dt)) * seq.get(i)
                want.append(x)
            got = ddbm_reverse_sample(field, s, x_T, tau, grid, noise=seq)
            np.testing.assert_array_equal(got.states, np.stack(want), err_msg=s.kind)


def test_trajectory_counters():
    # nfe counts the score calls each integrator makes; chains the rows
    s = vp_schedule()
    calls = []
    field = AnalyticScoreField(broad_mixture(), s)
    cond = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)

    def counted(score):
        def f(*args):
            calls.append(None)
            return score(*args)
        return f

    xs = np.ones((5, 2))
    cases = [
        (lambda: reverse_sde_sample(counted(field), s, 1.0, sampling_grid(s, 7), xs,
                                    noise=1), 5),
        (lambda: reverse_sde_sample(counted(field), s, 0.0, sampling_grid(s, 7),
                                    np.ones(2)), 1),
        (lambda: pf_ode_solve(counted(field), s, nll_grid(s, 7), xs), 5),
        (lambda: ddbm_reverse_sample(counted(cond), s, xs, 1.0, bridge_grid(s, 7),
                                     noise=1), 5),
    ]
    for traj, chains in cases:
        calls.clear()
        meta = traj().metadata
        assert meta["nfe"] == len(calls) > 0 and meta["chains"] == chains, meta


def test_record_false_keeps_terminal_and_metadata():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    cond = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)
    xs = np.random.default_rng(3).standard_normal((6, 2))
    runs = (
        lambda record: reverse_sde_sample(field, s, 1.0, sampling_grid(s, 9), xs,
                                          noise=4, record=record),
        lambda record: reverse_sde_sample(field, s, 0.0, sampling_grid(s, 9), xs[0],
                                          record=record),
        lambda record: ddbm_reverse_sample(cond, s, xs, 1.0, bridge_grid(s, 9),
                                           noise=4, record=record),
    )
    for run in runs:
        full, last = run(True), run(False)
        assert full.states.shape[0] == 10
        assert last.states.shape == (1, *full.states.shape[1:])
        np.testing.assert_array_equal(last.terminal, full.terminal)
        assert last.metadata == full.metadata


def test_ddbm_deterministic_when_tau_zero():
    s = vp_schedule()
    field = BridgeScoreField(GaussianCoupling(matrix=0.5, noise_var=0.05), s)
    grid = bridge_grid(s, 50)
    a = ddbm_reverse_sample(field, s, np.array([1.0, -1.0]), 0.0, grid)
    b = ddbm_reverse_sample(field, s, np.array([1.0, -1.0]), 0.0, grid)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.metadata["kind"] == "ddbm"


def test_ddbm_recovers_coupling_moments():
    # Integrating the backward bridge to t_clip should reproduce the
    # endpoint coupling x_0 | x_T up to discretization and residual noise.
    s = vp_schedule()
    coupling = GaussianCoupling(matrix=0.5, noise_var=0.04)
    field = BridgeScoreField(coupling, s)
    x_T = np.array([1.2, -0.6])
    n = 4000
    tiled = np.tile(x_T, (n, 1))
    out = ddbm_reverse_sample(field, s, tiled, 1.0, bridge_grid(s, 400), noise=9)
    term = out.terminal
    want_mean = coupling.mean_map(x_T)
    total_var = coupling.noise_var + float(s.sigma2(s.t_clip))
    se = np.sqrt(total_var / n)
    np.testing.assert_allclose(term.mean(axis=0), want_mean, atol=5 * se + 0.01)
    np.testing.assert_allclose(term.var(axis=0), total_var,
                               atol=5 * total_var * np.sqrt(2.0 / n) + 0.01)


def test_ddbm_equivariant_with_commuting_coupling():
    s = vp_schedule()
    field = BridgeScoreField(GaussianCoupling(matrix=0.6, noise_var=0.0), s)
    g = make_point_group_2d(4)
    x_T = np.array([0.9, 0.4])
    grid = bridge_grid(s, 100)
    base = ddbm_reverse_sample(field, s, x_T, 0.0, grid).terminal
    for k in g.elements:
        rotated = ddbm_reverse_sample(field, s, k.apply(x_T), 0.0, grid).terminal
        np.testing.assert_allclose(rotated, k.apply(base), atol=1e-12)


def test_grid_canonicalizer_property():
    # The element returned must move its input into the reference region,
    # and relabeling the input by k must relabel the orientation by k.  The
    # peak sits off every symmetry axis first, then on cells that some
    # element fixes: diagonals, the middle row and column, the centre.
    rng = np.random.default_rng(1)
    peaks = {4: [(0, 1), (0, 0), (1, 1)], 5: [(0, 1), (1, 1), (2, 0), (0, 2), (2, 2)]}
    for tag in ("flip_v", "flip_h", "C4", "D4"):
        for n, cells in peaks.items():
            c = default_canonicalizer(make_group(tag, (n, n)))
            for cell in cells:
                x = rng.standard_normal((n, n))
                x[cell] = 10.0
                k = canonicalize(c, x)
                assert c.group.peak_region[np.argmax(c.group.inverse(k).apply(x))]
                for el in c.group.elements:
                    got = canonicalize(c, el.apply(x))
                    assert got.gid == c.group.compose(el, k).gid, (tag, n, cell)


def test_point_canonicalizer_property():
    c = default_canonicalizer(make_group("C4"))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(2)
        k = canonicalize(c, x)
        y = c.group.inverse(k).apply(x)
        ang = float(np.arctan2(y[1], y[0])) % (2.0 * np.pi)
        assert ang < np.pi / 2.0
        for el in c.group.elements:
            assert canonicalize(c, el.apply(x)).gid == c.group.compose(el, k).gid


def test_canonicalizer_validation():
    with pytest.raises(InvalidParams):
        default_canonicalizer(make_group("C8"))
    g = make_c4_group((4, 4))
    with pytest.raises(InvalidParams):
        default_canonicalizer(IsometryGroup(g.name, g.elements, g.compose_table,
                                            g.inverse_table))
    c = default_canonicalizer(g)
    with pytest.raises(InvalidParams):
        canonicalize(c, np.zeros(4))


def test_default_canonicalizer_inference():
    for g in (make_flip_group("vertical", (4, 4)), make_flip_group("horizontal", (3, 5)),
              make_c4_group((4, 4)), make_d4_group((4, 4)),
              make_point_group_2d(4), make_point_group_2d(4, with_reflection=True)):
        c = default_canonicalizer(g)
        assert c.group is g
    with pytest.raises(InvalidParams):
        default_canonicalizer(make_point_group_2d(8))


def test_equivariant_noise_follows_reference():
    g = make_c4_group((4, 4))
    c = default_canonicalizer(g)
    rng = np.random.default_rng(3)
    x_ref = rng.standard_normal((4, 4))
    x_ref[0, 1] = 8.0
    seq = equivariant_noise_sequence(x_ref, 11, g, c, 5)
    for k in g.elements:
        rotated = equivariant_noise_sequence(k.apply(x_ref), 11, g, c, 5)
        for i in range(5):
            np.testing.assert_array_equal(rotated.get(i), k.apply(seq.get(i)))


def test_equivariant_noise_point_group():
    g = make_point_group_2d(4)
    c = default_canonicalizer(g)
    x_ref = np.array([0.9, 0.2])
    seq = equivariant_noise_sequence(x_ref, 13, g, c, 3)
    k = g.element_by_name("r1")
    rotated = equivariant_noise_sequence(k.apply(x_ref), 13, g, c, 3)
    for i in range(3):
        np.testing.assert_array_equal(rotated.get(i), k.apply(seq.get(i)))
    with pytest.raises(InvalidParams):
        equivariant_noise_sequence(x_ref, 13, make_point_group_2d(8), c, 3)


def loop_canonicalize(c, x):
    """Reference canonicalizer: a Python loop over the elements, with the
    reference regions written out per tag."""
    g = c.group
    best, best_key = 0, None
    for k in g.elements:
        y = g.inverse(k).apply(x)
        if g.grid_shape is None:
            angle = float(np.arctan2(y[1], y[0])) % (2.0 * np.pi)
            inside = angle < (np.pi / 2.0 if g.tag == "C4" else np.pi / 4.0)
        else:
            (h, w), plane = g.grid_shape, y if y.ndim == 2 else np.max(y, axis=-1)
            i, j = divmod(int(np.argmax(plane)), w)
            inside = {"flip_v": i < h / 2, "flip_h": j < w / 2,
                      "C4": i < h / 2 and j < w / 2,
                      "D4": i < h / 2 and j < w / 2 and j >= i}[g.tag]
        if inside:
            key = tuple(y.ravel())
            if best_key is None or key > best_key:
                best, best_key = k.gid, key
    return best


def test_canonical_ids_match_per_row_canonicalize():
    # Peaks on every cell, so on the diagonals, the middle rows and columns
    # and the centre of odd grids; points on the sector boundaries too.
    # Grids with a channel axis and all-equal rows (ties everywhere) too.
    rng = np.random.default_rng(5)
    cases = []
    for tag in ("C4", "D4"):
        xs = rng.standard_normal((64, 2))
        xs[:8] = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1], [2, -2], [0, 0]]
        cases.append((make_group(tag), xs))
    for tag in ("flip_v", "flip_h", "C4", "D4"):
        for n in (4, 5, 8):
            xs = rng.standard_normal((n * n + 2, n, n))
            for r in range(n * n):
                xs[r].flat[r] = 10.0
            xs[0].flat[-1] = 10.0  # two peak cells
            xs[-2:] = 0.0
            cases.append((make_group(tag, (n, n)), xs))
            cases.append((make_group(tag, (n, n)), rng.standard_normal((8, n, n, 3))))
    for g, xs in cases:
        c = default_canonicalizer(g)
        ids = canonical_ids(c, xs)
        want = [canonicalize(c, x).gid for x in xs]
        np.testing.assert_array_equal(ids, want, err_msg=g.name)
        np.testing.assert_array_equal(ids, [loop_canonicalize(c, x) for x in xs],
                                      err_msg=g.name)


def test_one_chain_en_is_row_zero_of_batch():
    for g, x in ((make_point_group_2d(4), np.array([0.9, 0.2])),
                 (make_d4_group((4, 4)), np.random.default_rng(6).standard_normal((4, 4)))):
        c = default_canonicalizer(g)
        one = equivariant_noise_sequence(x, 21, g, c, 4)
        batch = equivariant_noise_batch(x[None], 21, g, c, 4)
        for i in range(4):
            np.testing.assert_array_equal(one.get(i), batch.get(i)[0])


def test_en_batch_rows_follow_their_starts():
    # Row r of the batched stream does not depend on the batch size, and
    # moving start r by k moves its noise row by k.
    g = make_d4_group((5, 5))
    c = default_canonicalizer(g)
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((6, 5, 5))
    ks = rng.integers(len(g), size=6)
    seq = equivariant_noise_batch(xs, 3, g, c, 3)
    head = equivariant_noise_batch(xs[:2], 3, g, c, 3)
    moved = equivariant_noise_batch(
        np.stack([g.elements[k].apply(x) for k, x in zip(ks, xs)]), 3, g, c, 3)
    for i in range(3):
        eps = seq.get(i)
        np.testing.assert_array_equal(head.get(i), eps[:2])
        np.testing.assert_array_equal(
            moved.get(i), np.stack([g.elements[k].apply(e) for k, e in zip(ks, eps)]))


def test_en_batch_replayed_rows_match_their_own_calls():
    # A probe row that replays stream row i after the batch is oriented as a
    # call on its start alone that draws stream row i, and as row i of a
    # batch of the moved starts: on 2-D C4 points and on a D4 5x5 grid.
    rng = np.random.default_rng(4)
    for g, xs in ((make_point_group_2d(4), rng.standard_normal((6, 2))),
                  (make_d4_group((5, 5)), rng.standard_normal((6, 5, 5)))):
        c = default_canonicalizer(g)
        n, p = len(xs), 3
        moved = np.stack([g.elements[1 + i].apply(x) for i, x in enumerate(xs[:p])])
        rows = np.concatenate([np.arange(n), np.arange(p)])
        seq = equivariant_noise_batch(np.concatenate([xs, moved]), 11, g, c, 3, rows)
        plain = equivariant_noise_batch(xs, 11, g, c, 3)
        apart = equivariant_noise_batch(moved, 11, g, c, 3)
        for i in range(p):
            alone = equivariant_noise_batch(moved[i][None], 11, g, c, 3,
                                            np.array([i]))
            for step in range(3):
                eps = seq.get(step)
                np.testing.assert_array_equal(eps[:n], plain.get(step), err_msg=g.name)
                np.testing.assert_array_equal(eps[n + i], alone.get(step)[0],
                                              err_msg=g.name)
                np.testing.assert_array_equal(eps[n + i], apart.get(step)[i],
                                              err_msg=g.name)


def test_denoising_equivariance_needs_aligned_noise():
    s = vp_schedule()
    g = make_point_group_2d(4)
    sym = symmetrize(broad_mixture(), g)
    field = frame_average(AnalyticScoreField(sym, s), g)
    t_start = 0.4
    grid = TimeGrid(np.linspace(t_start, s.t_clip, 81))
    x = np.array([0.8, 0.35])
    k = g.element_by_name("r1")
    with_en, without_en = [], []
    for use_en in (True, False):
        a = sdedit_denoise(field, s, x, t_start, grid, G=g, use_en=use_en, seed=4)
        b = sdedit_denoise(field, s, k.apply(x), t_start, grid, G=g,
                           use_en=use_en, seed=4)
        gap = float(np.max(np.abs(b - k.apply(a))))
        (with_en if use_en else without_en).append(gap)
    assert with_en[0] <= 1e-10
    assert without_en[0] > 1e-3


def test_denoising_validation_and_near_data_limit():
    s = vp_schedule()
    field = AnalyticScoreField(broad_mixture(), s)
    with pytest.raises(TimeOutOfRange):
        sdedit_denoise(field, s, np.zeros(2), s.T, TimeGrid(np.array([s.T])))
    with pytest.raises(InvalidParams):
        sdedit_denoise(field, s, np.zeros(2), 0.4,
                       TimeGrid(np.linspace(0.3, s.t_clip, 11)))
    x = np.array([1.0, -0.5])
    out = sdedit_denoise(field, s, x, s.t_clip, TimeGrid(np.array([s.t_clip])), seed=6)
    np.testing.assert_allclose(out, x, atol=0.05)


def test_drift_only_rotation_field():
    # dx = (y, -x) dt rotates every point clockwise; Euler should track the
    # exact rotation closely and preserve radii to first order.
    def drift(x, t):
        return np.stack([x[:, 1], -x[:, 0]], axis=1)

    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((100, 2))
    angle = np.pi / 2.0
    grid = TimeGrid(np.linspace(0.0, angle, 2001))
    term = simulate_drift_only(drift, x0, grid, 100)
    rot = np.array([[np.cos(angle), np.sin(angle)],
                    [-np.sin(angle), np.cos(angle)]])
    np.testing.assert_allclose(term, x0 @ rot.T, atol=5e-3)
    np.testing.assert_allclose(np.linalg.norm(term, axis=1),
                               np.linalg.norm(x0, axis=1), rtol=1e-3)


def test_drift_only_start_state_handling():
    grid = TimeGrid(np.linspace(0.0, 1.0, 11))
    zero = lambda x, t: np.zeros_like(x)
    with pytest.raises(InvalidParams):
        simulate_drift_only(zero, np.zeros((5, 2)), grid, 4)
    a = simulate_drift_only(zero, lambda rng, n: rng.standard_normal((n, 2)),
                            grid, 8, seed=3)
    b = simulate_drift_only(zero, lambda rng, n: rng.standard_normal((n, 2)),
                            grid, 8, seed=3)
    np.testing.assert_array_equal(a, b)
