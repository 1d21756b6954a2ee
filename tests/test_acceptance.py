"""Acceptance suite: one test per headline guarantee of the toolkit.

Each test prints a single PASS/FAIL line with the observed values, so a
``pytest -s tests/test_acceptance.py`` run doubles as a verification
report.  Tolerances are stated inline next to each check.  The property
measurements come from ``spdm.verify``: ``spdm verify`` runs the same
functions on quick inputs, the criteria here on full-size inputs.
"""

import itertools
import json

import numpy as np

from spdm.cli import FlatField, main
from spdm.groups import frame_average, make_group, make_point_group_2d
from spdm.metrics import (FeatureStats, delta_x0_gap, energy_distance_test,
                          pf_ode_nll)
from spdm.nets import Mlp, TrainerConfig, equivariance_gap, make_tied_kernel, train
from spdm.oracle import (AnalyticScoreField, BridgeScoreField, GaussianCoupling,
                         GaussianMixture, symmetrize)
from spdm.process import (bridge_forward_drift, bridge_kernel, transition,
                          vp_schedule)
from spdm import sampling
from spdm.sampling import (TimeGrid, bridge_grid, nll_grid, sampling_grid,
                           simulate_drift_only)
from spdm.verify import (TIED_KERNELS, bridge_pinning_error, check_group_axioms,
                         conv_gap, equivariance_residuals, frechet_error,
                         inv_fid_pair, liouville_residual, nll_closed_form_error,
                         rotation_drift, score_gap)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} criterion {num:02d} {name}: {detail}"
    print(line, flush=True)
    assert passed, line


def one_orientation_mixture():
    return GaussianMixture(weights=np.array([1.0]), means=np.array([[1.2, 0.5]]),
                           variances=np.array([0.08]))


def c4_symmetric_mixture():
    return symmetrize(one_orientation_mixture(), make_point_group_2d(4))


# ---- 1: group algebra ----------------------------------------------------


def test_criterion_01_group_axioms():
    groups = [make_group("flip_v", (3, 3)), make_group("flip_h", (3, 3)),
              make_group("C4", (4, 4)), make_group("D4", (4, 4)),
              make_group("C4"), make_group("D4")]
    results = check_group_axioms(groups)
    worst_orth = max(r.observed for r in results
                     if r.name.startswith("group_orthogonality"))
    ok = all(r.passed for r in results)
    report(1, "group axioms", ok,
           f"{len(groups)} groups, max |A^T A - I| = {worst_orth:.2e} "
           f"(tol 1e-12)")


# ---- 2: tied kernels -----------------------------------------------------


def test_criterion_02_tied_kernels():
    got = tuple(make_tied_kernel(tag, size).n_free for tag, size, _ in TIED_KERNELS)

    rng = np.random.default_rng(202)
    images = rng.standard_normal((100, 8, 8))
    worst_tied = 0.0
    for tag, size, _ in TIED_KERNELS:
        kern = make_tied_kernel(tag, size)
        kern.params = rng.standard_normal(kern.n_free)
        worst_tied = max(worst_tied, conv_gap(kern, make_group(tag, (8, 8)), images))
    dense_gap = conv_gap(rng.standard_normal((5, 5)), make_group("C4", (8, 8)), images)

    ok = got == (6, 7, 6) and worst_tied <= 1e-12 and dense_gap > 0.01
    report(2, "tied kernels", ok,
           f"free counts {got} (want (6, 7, 6)), tied "
           f"commutation gap {worst_tied:.2e} (tol 1e-12), dense control "
           f"{dense_gap:.3f} (> 0.01)")


# ---- 3: frame averaging --------------------------------------------------


def test_criterion_03_frame_averaging():
    rng = np.random.default_rng(303)
    cases = [make_group("C4"), make_group("D4"), make_group("flip_v", (3, 3)),
             make_group("C4", (4, 4)), make_group("D4", (4, 4))]
    worst = 0.0
    for group in cases:
        shape = group.state_shape
        field = FlatField(Mlp(int(np.prod(shape)), hidden=(16,), seed=5), shape)
        probes = 1.5 * rng.standard_normal((1000, *shape))
        res = equivariance_residuals(frame_average(field, group), group, probes, 0.37)
        gap = np.linalg.norm(res.reshape(len(group), len(probes), -1), axis=2)
        worst = max(worst, float(np.max(gap)))
    ok = worst <= 1e-12
    report(3, "frame averaging", ok,
           f"5 groups x 1000 probes, max equivariance gap {worst:.2e} "
           f"(tol 1e-12)")


# ---- 4: symmetrized mixture score ----------------------------------------


def test_criterion_04_symmetrized_score_equivariance():
    s = vp_schedule()
    G = make_point_group_2d(4)
    rng = np.random.default_rng(404)
    probes = 1.5 * rng.standard_normal((500, 2))
    ts = rng.uniform(0.0, s.T, 500)

    sym_gap = score_gap(c4_symmetric_mixture(), s, G, probes, ts)
    raw_gap = score_gap(one_orientation_mixture(), s, G, probes, ts)
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
    x = np.random.default_rng(71).standard_normal((100, 2))
    err = nll_closed_form_error(x, nll_grid(s, 1000))

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

    end_err = bridge_pinning_error(x0, x_T)
    ok = all(p > 0.01 for p in pvals.values()) and end_err < 1e-10
    worst_t = min(pvals, key=pvals.get)
    report(7, "bridge kernels", ok,
           f"5 interior marginals at N={n}, min p = {pvals[worst_t]:.3f} at "
           f"t={worst_t:.3f} (need > 0.01); endpoint mean and variance error "
           f"{end_err:.1e} (tol 1e-10)")


# ---- 8: bridge-sampler equivariance ablation -----------------------------


def test_criterion_08_ddbm_equivariance_ablation():
    s = vp_schedule()
    G = make_point_group_2d(4)
    coupling = GaussianCoupling(matrix=np.diag([1.0, 0.5]), noise_var=0.04)
    raw = BridgeScoreField(coupling, s)
    fa = frame_average(raw, G, conditional=True)
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
        def chains(endpoints):  # chain i keeps its own seed
            return np.stack([run(field, use_en, i, v)
                             for i, v in enumerate(endpoints)])
        return delta_x0_gap(chains, x_T, G, np.random.default_rng(99))

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
    n = 10_000
    term = simulate_drift_only(rotation_drift,
                               lambda rng, m: rng.standard_normal((m, 2)),
                               grid, n, seed=81)
    mean = term.mean(axis=0)
    cov = np.cov(term.T, ddof=0)
    se_mean = 3.0 / np.sqrt(n)
    se_var = 3.0 * np.sqrt(2.0 / n)
    moments_ok = (np.all(np.abs(mean) < se_mean)
                  and np.all(np.abs(np.diag(cov) - 1.0) < se_var)
                  and abs(cov[0, 1]) < se_mean)

    resid = liouville_residual(np.linspace(-4.0, 4.0, 1601))
    ok = moments_ok and resid < 1e-6
    report(9, "preserving drift", ok,
           f"terminal |mean| {np.max(np.abs(mean)):.4f} (< {se_mean:.3f}), "
           f"|cov - I| {np.max(np.abs(cov - np.eye(2))):.4f} (< {se_var:.3f}), "
           f"transport residual {resid:.2e} (tol 1e-6)")


# ---- 10: training --------------------------------------------------------


def test_criterion_10_training():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 2))
    target = rng.standard_normal((6, 2))
    worst_rel = 0.0
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
    worst_closed = frechet_error(cases)

    rng = np.random.default_rng(83)
    v_sym, v_one = inv_fid_pair(c4_symmetric_mixture().sample(rng, 8000),
                                one_orientation_mixture().sample(rng, 8000),
                                make_point_group_2d(4))

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
