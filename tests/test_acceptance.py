"""Acceptance suite: one test per headline guarantee of the toolkit.

Each test prints a single PASS/FAIL line with the observed values, so a
``pytest -s tests/test_acceptance.py`` run doubles as a verification
report.  Tolerances are stated inline next to each check.
"""

import itertools
import json

import numpy as np

from spdm.cli import FlatField, main
from spdm.groups import (diagonal_pair_group, frame_average, make_c4_group,
                         make_d4_group, make_flip_group, make_point_group_2d,
                         verify_group_axioms)
from spdm.metrics import (FeatureSpec, FeatureStats, energy_distance_test,
                          fokker_planck_residual, frechet_distance, inv_fid,
                          pf_ode_nll)
from spdm.nets import (Mlp, TrainerConfig, conv2d, equivariance_gap,
                       make_tied_kernel, train)
from spdm.oracle import (AnalyticScoreField, BridgeScoreField, GaussianCoupling,
                         GaussianMixture, symmetrize)
from spdm.process import (bridge_forward_drift, bridge_kernel, transition,
                          vp_schedule)
from spdm import sampling
from spdm.sampling import (TimeGrid, bridge_grid, nll_grid, sampling_grid,
                           simulate_drift_only)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} criterion {num:02d} {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def c4_symmetric_mixture():
    return symmetrize(
        GaussianMixture(weights=np.array([1.0]), means=np.array([[1.2, 0.5]]),
                        variances=np.array([0.08])),
        make_point_group_2d(4))


def action_matrix(el, dim: int) -> np.ndarray:
    if el.kind == "matrix":
        return el.matrix
    basis = np.eye(dim).reshape(dim, *el.grid_shape)
    return el.apply(basis).reshape(dim, dim).T


# ---- 1: group algebra ----------------------------------------------------


def test_criterion_01_group_axioms():
    groups = [
        make_flip_group("vertical", (3, 3)),
        make_flip_group("horizontal", (3, 3)),
        make_c4_group((4, 4)),
        make_d4_group((4, 4)),
        make_point_group_2d(4),
        make_point_group_2d(4, with_reflection=True),
    ]
    all_ok = True
    worst_orth = 0.0
    for g in groups:
        rep = verify_group_axioms(g, atol=1e-12)
        all_ok = all_ok and rep.passed
        dim = (g.elements[0].grid_shape[0] * g.elements[0].grid_shape[1]
               if g.elements[0].kind == "grid" else 2)
        for el in g.elements:
            a = action_matrix(el, dim)
            worst_orth = max(worst_orth,
                             float(np.max(np.abs(a.T @ a - np.eye(dim)))))
    ok = all_ok and worst_orth <= 1e-12
    report(1, "group axioms", ok,
           f"{len(groups)} groups, max |A^T A - I| = {worst_orth:.2e} "
           f"(tol 1e-12)")


# ---- 2: tied kernels -----------------------------------------------------


def test_criterion_02_tied_kernels():
    counts = {("flip", 3): 6, ("C4", 5): 7, ("D4", 5): 6}
    got = {key: make_tied_kernel(*key).n_free for key in counts}
    counts_ok = got == counts

    rng = np.random.default_rng(202)
    images = rng.standard_normal((100, 8, 8))

    def conv_batch(kern, batch):
        # conv2d is channels-last; route the batch through the channel axis
        return np.moveaxis(conv2d(kern, np.moveaxis(batch, 0, -1)), -1, 0)

    cases = [
        ("flip", 3, make_flip_group("horizontal", (8, 8))),
        ("C4", 5, make_c4_group((8, 8))),
        ("D4", 5, make_d4_group((8, 8))),
    ]
    worst_tied = 0.0
    for tag, size, group in cases:
        kern = make_tied_kernel(tag, size)
        kern.params = rng.standard_normal(kern.n_free)
        for el in group.elements:
            gap = float(np.max(np.abs(conv_batch(kern, el.apply(images))
                                      - el.apply(conv_batch(kern, images)))))
            worst_tied = max(worst_tied, gap)

    dense = rng.standard_normal((5, 5))
    group = make_c4_group((8, 8))
    dense_gap = max(
        float(np.max(np.abs(conv_batch(dense, el.apply(images))
                            - el.apply(conv_batch(dense, images)))))
        for el in group.elements)

    ok = counts_ok and worst_tied <= 1e-12 and dense_gap > 0.01
    report(2, "tied kernels", ok,
           f"free counts {tuple(got.values())} (want (6, 7, 6)), tied "
           f"commutation gap {worst_tied:.2e} (tol 1e-12), dense control "
           f"{dense_gap:.3f} (> 0.01)")


# ---- 3: frame averaging --------------------------------------------------


def test_criterion_03_frame_averaging():
    rng = np.random.default_rng(303)
    cases = [
        make_point_group_2d(4),
        make_point_group_2d(4, with_reflection=True),
        make_flip_group("vertical", (3, 3)),
        make_c4_group((4, 4)),
        make_d4_group((4, 4)),
    ]
    worst = 0.0
    for group in cases:
        el0 = group.elements[0]
        if el0.kind == "grid":
            shape = el0.grid_shape
            dim = shape[0] * shape[1]
            field = FlatField(Mlp(dim, hidden=(16,), seed=5), shape)
            probes = 1.5 * rng.standard_normal((1000, *shape))
        else:
            field = Mlp(2, hidden=(16,), seed=5)
            probes = 1.5 * rng.standard_normal((1000, 2))
        wrapped = frame_average(field, group)
        t = 0.37
        base = np.asarray(wrapped(probes, t))
        for el in group.elements:
            gap = np.linalg.norm(
                (np.asarray(wrapped(el.apply(probes), t))
                 - el.apply(base)).reshape(probes.shape[0], -1), axis=1)
            worst = max(worst, float(np.max(gap)))
    ok = worst <= 1e-12
    report(3, "frame averaging", ok,
           f"5 groups x 1000 probes, max equivariance gap {worst:.2e} "
           f"(tol 1e-12)")


# ---- 4: symmetrized mixture score ----------------------------------------


def test_criterion_04_symmetrized_score_equivariance():
    s = vp_schedule()
    G = make_point_group_2d(4)
    sym = AnalyticScoreField(c4_symmetric_mixture(), s)
    raw = AnalyticScoreField(
        GaussianMixture(weights=np.array([1.0]), means=np.array([[1.2, 0.5]]),
                        variances=np.array([0.08])), s)
    rng = np.random.default_rng(404)
    probes = 1.5 * rng.standard_normal((500, 2))
    ts = rng.uniform(0.0, s.T, 500)

    def max_gap(field):
        worst = 0.0
        for el in G.elements[1:]:
            for x, t in zip(probes, ts):
                gap = np.max(np.abs(field(el.apply(x), t)
                                    - el.apply(field(x, t))))
                worst = max(worst, float(gap))
        return worst

    sym_gap = max_gap(sym)
    raw_gap = max_gap(raw)
    ok = sym_gap <= 1e-10 and raw_gap > 0.1
    report(4, "symmetrized score", ok,
           f"symmetrized gap {sym_gap:.2e} (tol 1e-10), asymmetric control "
           f"{raw_gap:.3f} (> 0.1)")


# ---- 5: reverse-SDE family -----------------------------------------------


def test_criterion_05_reverse_family_marginals():
    s = vp_schedule()
    mix = GaussianMixture(weights=np.array([0.6, 0.4]),
                          means=np.array([[1.2, 0.6], [-0.8, -0.3]]),
                          variances=np.array([0.05, 0.12]))
    score = AnalyticScoreField(mix, s)
    n = 5000
    grid = sampling_grid(s, 400)
    x0_draws = mix.sample(np.random.default_rng(21), n)
    x_T = transition(s, x0_draws, s.T).sample(np.random.default_rng(22))

    sets = {}
    for lam, seed in ((0.0, 100), (0.5, 101), (1.0, 102)):
        sets[lam] = sampling.reverse_sde_sample(score, s, lam, grid, x_T,
                                                noise=seed).terminal
    direct = mix.sample(np.random.default_rng(23), n)

    pvals = {}
    for lam in sets:
        _, p = energy_distance_test(sets[lam], direct, permutations=199,
                                    seed=int(10 * lam) + 7)
        pvals[f"lam={lam} vs data"] = p
    for a, b in itertools.combinations(sorted(sets), 2):
        _, p = energy_distance_test(sets[a], sets[b], permutations=199,
                                    seed=int(10 * (a + b)))
        pvals[f"lam={a} vs lam={b}"] = p

    ok = all(p > 0.01 for p in pvals.values())
    worst = min(pvals, key=pvals.get)
    report(5, "reverse family", ok,
           f"6 energy tests at N={n}, min p = {pvals[worst]:.3f} "
           f"({worst}; need > 0.01)")


# ---- 6: likelihood -------------------------------------------------------


def test_criterion_06_nll_accuracy_and_invariance():
    s = vp_schedule()
    # the unit Gaussian is the stationary law of the VP process, so the
    # probability-flow likelihood has a closed form to compare against
    stat_mix = GaussianMixture(weights=np.array([1.0]),
                               means=np.array([[0.0, 0.0]]),
                               variances=np.array([1.0]))
    field = AnalyticScoreField(stat_mix, s)
    x = np.random.default_rng(71).standard_normal((100, 2))
    rep = pf_ode_nll(field, s, x, nll_grid(s, 1000))
    truth = -0.5 * np.sum(x**2, axis=1) - np.log(2.0 * np.pi)
    err = float(np.max(np.abs(rep.log_likelihood - truth))) / 2.0

    G = make_point_group_2d(4)
    inv_field = AnalyticScoreField(c4_symmetric_mixture(), s)
    pts = c4_symmetric_mixture().sample(np.random.default_rng(72), 100)
    grid = nll_grid(s, 100)
    base = pf_ode_nll(inv_field, s, pts, grid).log_likelihood
    worst_inv = 0.0
    for el in G.elements[1:]:
        moved = pf_ode_nll(inv_field, s, el.apply(pts), grid).log_likelihood
        worst_inv = max(worst_inv, float(np.max(np.abs(moved - base))))

    ok = err < 1e-2 and worst_inv < 1e-6
    report(6, "likelihood", ok,
           f"stationary NLL error {err:.2e} nats/dim (tol 1e-2), orientation "
           f"spread {worst_inv:.2e} over C4 at 100 points (tol 1e-6)")


# ---- 7: bridge kernels ---------------------------------------------------


def test_criterion_07_bridge_marginals_and_pinning():
    s = vp_schedule()
    x0 = np.array([1.0, -0.5])
    x_T = np.array([-0.7, 0.9])
    n = 5000
    tc = s.t_clip
    times = np.linspace(tc, s.T - tc, 600)
    rng = np.random.default_rng(41)
    x = np.tile(x0, (n, 1))
    snap_idx = {120, 240, 300, 360, 480}
    snaps = {}
    for i in range(len(times) - 1):
        t = float(times[i])
        dt = float(times[i + 1] - t)
        x = x + dt * bridge_forward_drift(s, x, x_T, t) \
            + float(s.g(t)) * np.sqrt(dt) * rng.standard_normal(x.shape)
        if i + 1 in snap_idx:
            snaps[i + 1] = x.copy()

    pvals = {}
    for k, snap in snaps.items():
        tt = float(times[k])
        bk = bridge_kernel(s, x0, x_T, tt)
        ref = bk.mean + np.sqrt(bk.variance) * \
            np.random.default_rng(50 + k).standard_normal((n, 2))
        _, p = energy_distance_test(snap, ref, permutations=199, seed=60 + k)
        pvals[tt] = p

    end_var = max(float(np.max(np.abs(bridge_kernel(s, x0, x_T, t).variance)))
                  for t in (0.0, s.T))
    ok = all(p > 0.01 for p in pvals.values()) and end_var < 1e-10
    worst_t = min(pvals, key=pvals.get)
    report(7, "bridge kernels", ok,
           f"5 interior marginals at N={n}, min p = {pvals[worst_t]:.3f} at "
           f"t={worst_t:.3f} (need > 0.01); endpoint variance {end_var:.1e} "
           f"(tol 1e-10)")


# ---- 8: bridge-sampler equivariance ablation -----------------------------


def test_criterion_08_ddbm_equivariance_ablation():
    s = vp_schedule()
    G = make_point_group_2d(4)
    coupling = GaussianCoupling(matrix=np.diag([1.0, 0.5]), noise_var=0.04)
    raw = BridgeScoreField(coupling, s)
    fa = frame_average(raw, G, diagonal_pair_group(G))
    canon = sampling.default_canonicalizer(G)
    grid = bridge_grid(s, 100)
    tau, seed = 1.0, 11

    sig_T = float(np.sqrt(s.sigma2(s.T)))
    x_T = sig_T * np.random.default_rng(31).standard_normal((16, 2))

    def chain_seed(i):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(9, i))
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def run(field, use_en, i, endpoint):
        if use_en:
            noise = sampling.equivariant_noise_sequence(
                endpoint, chain_seed(i), G, canon, grid.n_steps)
        else:
            noise = chain_seed(i)
        return sampling.ddbm_reverse_sample(field, s, endpoint, tau, grid,
                                            noise=noise).terminal

    def delta(field, use_en):
        krng = np.random.default_rng(99)
        gaps = []
        for i, v in enumerate(x_T):
            k = G.elements[1 + int(krng.integers(len(G) - 1))]
            gaps.append(float(np.max(np.abs(
                run(field, use_en, i, k.apply(v))
                - k.apply(run(field, use_en, i, v))))))
        return float(np.mean(gaps))

    d_base = delta(raw, False)
    d_fa = delta(fa, False)
    d_en = delta(raw, True)
    d_faen = delta(fa, True)

    ok = (d_faen <= 1e-10 and d_faen < d_en and d_faen < d_fa
          and d_en < d_base and d_fa < d_base and d_base > 0.01)
    report(8, "bridge equivariance", ok,
           f"delta_x0 on 16 inputs: FA+EN {d_faen:.1e} (tol 1e-10) < "
           f"EN {d_en:.3f}, FA {d_fa:.3f} < baseline {d_base:.3f}")


# ---- 9: distribution-preserving drift ------------------------------------


def test_criterion_09_preserving_drift():
    grid = TimeGrid(times=np.linspace(0.0, 1.0, 401))

    def f(x, t):
        return np.stack([x[..., 1], -x[..., 0]], axis=-1)

    n = 10_000
    term = simulate_drift_only(f, lambda rng, m: rng.standard_normal((m, 2)),
                               grid, n, seed=81)
    mean = term.mean(axis=0)
    cov = np.cov(term.T, ddof=0)
    se_mean = 3.0 / np.sqrt(n)
    se_var = 3.0 * np.sqrt(2.0 / n)
    moments_ok = (np.all(np.abs(mean) < se_mean)
                  and np.all(np.abs(np.diag(cov) - 1.0) < se_var)
                  and abs(cov[0, 1]) < se_mean)

    def p(pts, t):
        q = pts[..., 0]**2 + pts[..., 1]**2
        return np.exp(-0.5 * q) / (2.0 * np.pi)

    xs = np.linspace(-4.0, 4.0, 1601)
    resid = fokker_planck_residual(p, f, 0.0, 0.0, (xs, xs))
    ok = moments_ok and resid.max_abs < 1e-6
    report(9, "preserving drift", ok,
           f"terminal |mean| {np.max(np.abs(mean)):.4f} (< {se_mean:.3f}), "
           f"|cov - I| {np.max(np.abs(cov - np.eye(2))):.4f} (< {se_var:.3f}), "
           f"transport residual {resid.max_abs:.2e} (tol 1e-6)")


# ---- 10: training --------------------------------------------------------


def test_criterion_10_training():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 2))
    worst_rel = 0.0
    for tie in (None, make_point_group_2d(4)):
        net = Mlp(2, hidden=(4, 4), seed=2, tie_group=tie)
        out, cache = net.forward(x, None, 0.3, want_cache=True)
        grads = net.backward(cache, out - target).flat()
        theta = net.flat_parameters()
        eps = 1e-6
        fd = np.zeros_like(theta)
        for j in range(theta.size):
            for sign in (1.0, -1.0):
                v = theta.copy()
                v[j] += sign * eps
                net.set_flat_parameters(v)
                o = net.forward(x, None, 0.3)
                fd[j] += sign * 0.5 * float(np.sum((o - target)**2)) / (2 * eps)
            net.set_flat_parameters(theta)
        scale = np.maximum(np.abs(fd), 1.0)
        worst_rel = max(worst_rel, float(np.max(np.abs(grads - fd) / scale)))

    s = vp_schedule()
    G = make_point_group_2d(4)
    mix = c4_symmetric_mixture()
    data = mix.sample(np.random.default_rng(12), 2000)
    nets = {}
    for mode, w in (("plain", 0.0), ("regularized", 1.0)):
        cfg = TrainerConfig(steps=3000, learning_rate=1e-3, batch_size=64,
                            hidden=(16, 16), seed=2, reg_weight=w)
        nets[mode] = train(cfg, data, s, group=G, mode=mode).ema_net
    probe_rng = np.random.default_rng(77)
    xs = mix.sample(probe_rng, 256)
    ts = probe_rng.uniform(s.t_clip, s.T, 256)
    gap_plain = equivariance_gap(nets["plain"], G, xs, ts)
    gap_reg = equivariance_gap(nets["regularized"], G, xs, ts)

    ok = worst_rel < 1e-5 and gap_reg < gap_plain
    report(10, "training", ok,
           f"gradient check rel err {worst_rel:.2e} (tol 1e-5); held-out "
           f"equivariance gap regularized {gap_reg:.4f} < plain "
           f"{gap_plain:.4f}")


# ---- 11: metrics ---------------------------------------------------------


def test_criterion_11_metrics():
    d = 4
    mu = np.zeros(d)
    eye = np.eye(d)
    cases = [
        (FeatureStats(mu, eye, 10), FeatureStats(mu, eye, 10), 0.0),
        (FeatureStats(mu, eye, 10), FeatureStats(mu + 0.5, eye, 10),
         d * 0.25),
        (FeatureStats(mu, 4.0 * eye, 10), FeatureStats(mu, eye, 10),
         d * (2.0 - 1.0)**2),
        (FeatureStats(np.array([1.0]), np.array([[2.25]]), 10),
         FeatureStats(np.array([-1.0]), np.array([[0.25]]), 10),
         4.0 + (1.5 - 0.5)**2),
    ]
    worst_closed = max(abs(frechet_distance(a, b) - want)
                       for a, b, want in cases)

    G = make_point_group_2d(4)
    mix_one = GaussianMixture(weights=np.array([1.0]),
                              means=np.array([[1.2, 0.5]]),
                              variances=np.array([0.08]))
    rng = np.random.default_rng(83)
    spec = FeatureSpec(dim_in=2)
    v_sym = inv_fid(c4_symmetric_mixture().sample(rng, 8000), G, spec)
    v_one = inv_fid(mix_one.sample(rng, 8000), G, spec)

    ok = worst_closed <= 1e-8 and v_sym < 0.05 and v_one > 10.0 * v_sym
    report(11, "metrics", ok,
           f"closed-form distance error {worst_closed:.1e} (tol 1e-8); "
           f"inv-fid symmetric {v_sym:.4f} (< 0.05), single orientation "
           f"{v_one:.2f} (> 10x)")


# ---- 12: determinism -----------------------------------------------------


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "schedule": {"kind": "vp"},
        "group": {"name": "C4"},
        "data": {
            "components": [
                {"weight": 1.0, "mean": [1.2, 0.5], "variance": 0.08}
            ],
            "symmetrize": True,
            "n_samples": 200,
            "seed": 7,
        },
        "model": {"kind": "oracle+FA",
                  "coupling": {"matrix": 0.5, "noise_var": 0.04}},
        "train": {"steps": 30, "hidden": [16], "seed": 0, "batch_size": 32,
                  "learning_rate": 1e-3},
        "sampler": {"lam": 1.0, "steps": 20, "n_samples": 4, "seed": 3,
                    "tau": 1.0, "equivariant_noise": True},
        "nll": {"points": 2, "steps": 30},
        "metrics": ["fid", "inv_fid", "energy"],
    }
    commands = ["gen-data", "train", "sample", "bridge", "nll", "metrics",
                "verify"]
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(cfg), "utf-8")
        for command in commands:
            code = main([command, "--config", str(cfg_path),
                         "--out", str(out)])
            assert code == 0, f"{command} exited {code}"

    compared = []
    for path in sorted((tmp_path / "a").iterdir()):
        if path.name in ("run.log", "config.json"):
            continue
        other = tmp_path / "b" / path.name
        assert other.exists(), f"missing {path.name} in second run"
        compared.append(path.name)
        identical = path.read_bytes() == other.read_bytes()
        assert identical, f"{path.name} differs between re-runs"
    ok = len(compared) >= 20
    report(12, "determinism", ok,
           f"{len(compared)} output files byte-identical across full "
           f"pipeline re-runs")
