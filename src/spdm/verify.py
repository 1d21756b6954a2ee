"""Named self-checks covering every module's headline invariants.

Each check returns CheckResult records with a stable name, the tolerance
used, the observed value and a pass flag, so the command layer can emit
a machine-readable report.  Checks marked "must exceed" in their note
are negative controls: they pass when the observed value is ABOVE the
threshold, demonstrating that the corresponding property is not vacuous.

The checks here are fast (seconds); the test suite runs the same
properties at full scale.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics, oracle, sampling
from .groups import (IsometryGroup, frame_average, make_group,
                     verify_group_axioms)
from .io import read_spdt, write_spdt
from .nets import Mlp, conv2d, make_tied_kernel
from .process import bridge_kernel, ve_schedule, vp_schedule


@dataclass
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "tolerance": self.tolerance,
                "observed": self.observed, "passed": bool(self.passed),
                "note": self.note}


def default_groups() -> list[IsometryGroup]:
    grids = [make_group(tag, (4, 4)) for tag in ("flip_v", "flip_h", "C4", "D4")]
    return grids + [make_group("C4"), make_group("D4")]


def check_group_axioms(groups: list[IsometryGroup] | None = None) -> list[CheckResult]:
    """Closure, identity, inverses, associativity and orthogonality."""
    out = []
    for g in groups if groups is not None else default_groups():
        rep = verify_group_axioms(g)
        algebra_ok = rep.closure and rep.identity and rep.inverses and rep.associativity
        out.append(CheckResult(
            name=f"group_closure[{g.name}]", tolerance=1e-12,
            observed=float(rep.max_closure_error), passed=bool(algebra_ok)))
        out.append(CheckResult(
            name=f"group_orthogonality[{g.name}]", tolerance=1e-12,
            observed=float(rep.max_orthogonality_error),
            passed=bool(rep.orthogonality)))
    return out


def check_tied_kernels(seed: int = 0) -> list[CheckResult]:
    out = []
    expected = {("flip", 3): 6, ("C4", 5): 7, ("D4", 5): 6}
    worst = 0
    for (tag, size), count in expected.items():
        worst = max(worst, abs(make_tied_kernel(tag, size).n_free - count))
    out.append(CheckResult(name="tied_kernel_counts", tolerance=0.0,
                           observed=float(worst), passed=worst == 0))
    rng = np.random.default_rng(seed)
    groups = {"flip": make_group("flip_h", (8, 8)),
              "C4": make_group("C4", (8, 8)), "D4": make_group("D4", (8, 8))}
    gap = 0.0
    for tag, size in [("flip", 3), ("C4", 5), ("D4", 5)]:
        kern = make_tied_kernel(tag, size)
        kern = replace(kern, params=rng.standard_normal(kern.n_free))
        for _ in range(10):
            img = rng.standard_normal((8, 8))
            for k in groups[tag].elements:
                gap = max(gap, float(np.max(np.abs(
                    conv2d(kern, k.apply(img)) - k.apply(conv2d(kern, img))))))
    out.append(CheckResult(name="tied_kernel_commutation", tolerance=1e-12,
                           observed=gap, passed=gap <= 1e-12))
    dense = rng.standard_normal((3, 3))
    img = rng.standard_normal((8, 8))
    flip = groups["flip"].elements[1]
    ctl = float(np.max(np.abs(conv2d(dense, flip.apply(img))
                              - flip.apply(conv2d(dense, img)))))
    out.append(CheckResult(name="dense_kernel_control", tolerance=0.01,
                           observed=ctl, passed=ctl > 0.01,
                           note="must exceed"))
    return out


def check_frame_averaging(seed: int = 0, probes: int = 50) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    grid_group = make_group("flip_v", (4, 4))
    net = Mlp(16, hidden=(32,), seed=seed)

    def base_grid(x, t):
        return net(x.reshape(-1), t).reshape(4, 4)

    fa = frame_average(base_grid, grid_group)
    gap = 0.0
    for _ in range(probes):
        x = rng.standard_normal((4, 4))
        t = rng.uniform(0.01, 1.0)
        for k in grid_group.elements:
            gap = max(gap, float(np.max(np.abs(fa(k.apply(x), t)
                                               - k.apply(fa(x, t))))))
    out.append(CheckResult(name="frame_averaging[grid-flip]", tolerance=1e-12,
                           observed=gap, passed=gap <= 1e-12))

    pt_group = make_group("C4")
    net2 = Mlp(2, hidden=(32,), seed=seed + 1)
    fa2 = frame_average(lambda x, t: net2(x, t), pt_group)
    gap2 = 0.0
    for _ in range(probes):
        x = rng.standard_normal(2)
        t = rng.uniform(0.01, 1.0)
        for k in pt_group.elements:
            gap2 = max(gap2, float(np.max(np.abs(fa2(k.apply(x), t)
                                                 - k.apply(fa2(x, t))))))
    out.append(CheckResult(name="frame_averaging[point-C4]", tolerance=1e-12,
                           observed=gap2, passed=gap2 <= 1e-12))
    return out


def _demo_mixture(symmetric: bool) -> oracle.GaussianMixture:
    m = oracle.GaussianMixture(weights=np.array([0.6, 0.4]),
                               means=np.array([[1.5, 0.0], [0.5, 1.0]]),
                               variances=np.array([0.08, 0.12]))
    if symmetric:
        return oracle.symmetrize(m, make_group("C4"))
    return m


def check_analytic_score(seed: int = 0) -> list[CheckResult]:
    out = []
    s = vp_schedule()
    group = make_group("C4")
    sym = _demo_mixture(True)
    rng = np.random.default_rng(seed)
    xs = sym.sample(rng, 50)
    ts = rng.uniform(s.t_clip, s.T, size=50)
    gap = 0.0
    for x, t in zip(xs, ts):
        sc = oracle.diffused_score(sym, s, x, float(t))
        for k in group.elements:
            sc_k = oracle.diffused_score(sym, s, k.apply(x), float(t))
            gap = max(gap, float(np.max(np.abs(sc_k - k.apply(sc)))))
    out.append(CheckResult(name="analytic_score_equivariance", tolerance=1e-10,
                           observed=gap, passed=gap <= 1e-10))

    asym = _demo_mixture(False)
    gap_a = 0.0
    for x, t in zip(xs, ts):
        sc = oracle.diffused_score(asym, s, x, float(t))
        for k in group.elements[1:]:
            sc_k = oracle.diffused_score(asym, s, k.apply(x), float(t))
            gap_a = max(gap_a, float(np.max(np.abs(sc_k - k.apply(sc)))))
    out.append(CheckResult(name="asymmetric_score_control", tolerance=0.1,
                           observed=gap_a, passed=gap_a > 0.1,
                           note="must exceed"))

    rel = 0.0
    for x, t in zip(xs[:20], ts[:20]):
        t = float(t)
        sc = oracle.diffused_score(sym, s, x, t)
        fd = np.zeros_like(x)
        for j in range(x.size):
            h = 1e-5 * (1.0 + abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (oracle.log_density(sym, s, xp, t)
                     - oracle.log_density(sym, s, xm, t)) / (2 * h)
        rel = max(rel, float(np.max(np.abs(fd - sc))
                             / max(1e-12, float(np.max(np.abs(sc))))))
    out.append(CheckResult(name="score_gradient_consistency", tolerance=1e-6,
                           observed=rel, passed=rel <= 1e-6))
    return out


def check_schedule_identities() -> list[CheckResult]:
    out = []
    ts = np.linspace(1e-3, 1.0, 41)
    vp = vp_schedule()
    pres = max(abs(vp.alpha(float(t))**2 + vp.sigma2(float(t)) - 1.0) for t in ts)
    out.append(CheckResult(name="vp_variance_preservation", tolerance=1e-12,
                           observed=float(pres), passed=pres <= 1e-12))
    worst = 0.0
    for s in (vp, ve_schedule()):
        for t in ts[1:-1]:
            t = float(t)
            h = 1e-6
            fd_ds2 = (s.sigma2(t + h) - s.sigma2(t - h)) / (2 * h)
            fd_dla = (s.log_alpha(t + h) - s.log_alpha(t - h)) / (2 * h)
            ident = fd_ds2 - 2.0 * fd_dla * s.sigma2(t)
            worst = max(worst, abs(s.g2(t) - ident))
    out.append(CheckResult(name="g2_table_identity", tolerance=1e-4,
                           observed=float(worst), passed=worst <= 1e-4,
                           note="finite-difference comparison"))
    return out


def check_bridge_endpoints(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(3)
    x_T = rng.standard_normal(3)
    # VP pins at both ends (sigma(0) = 0 exactly); the VE transition
    # starts at sigma_min > 0 by construction, so only its T end pins.
    worst = 0.0
    vp = vp_schedule()
    for t, target in ((0.0, x0), (vp.T, x_T)):
        p = bridge_kernel(vp, x0, x_T, t)
        worst = max(worst, float(np.max(np.abs(p.mean - target))),
                    abs(float(p.variance)))
    ve = ve_schedule()
    pT = bridge_kernel(ve, x0, x_T, ve.T)
    worst = max(worst, float(np.max(np.abs(pT.mean - x_T))),
                abs(float(pT.variance)))
    out.append(CheckResult(name="bridge_endpoint_pinning", tolerance=1e-10,
                           observed=worst, passed=worst <= 1e-10))

    s = vp_schedule()
    coupling = oracle.GaussianCoupling(matrix=1.0, noise_var=0.0)
    gap = 0.0
    for _ in range(20):
        t = float(rng.uniform(s.t_clip, s.T - s.t_clip))
        x_t = rng.standard_normal(3)
        xe = rng.standard_normal(3)
        ka = bridge_kernel(s, xe, xe, t)
        direct = (ka.mean - x_t) / ka.variance
        via = oracle.bridge_score_oracle(coupling, s, x_t, xe, t)
        gap = max(gap, float(np.max(np.abs(direct - via))))
    out.append(CheckResult(name="bridge_oracle_point_coupling", tolerance=1e-10,
                           observed=gap, passed=gap <= 1e-10))
    return out


def check_sampler_determinism(seed: int = 0) -> list[CheckResult]:
    s = vp_schedule()
    mix = _demo_mixture(True)
    score = oracle.AnalyticScoreField(mix, s)
    grid = sampling.sampling_grid(s, 40)

    def run():
        return sampling.reverse_sde_sample(
            score, s, lam=1.0, grid=grid,
            x_T=lambda rng: np.sqrt(s.sigma2(s.T)) * rng.standard_normal((8, 2)),
            noise=seed).terminal

    a, b = run(), run()
    same = float(np.max(np.abs(a - b)))
    return [CheckResult(name="sampler_determinism", tolerance=0.0,
                        observed=same, passed=same == 0.0)]


def check_nll_consistency() -> list[CheckResult]:
    s = vp_schedule()
    mix = oracle.GaussianMixture(weights=np.array([1.0]),
                                 means=np.zeros((1, 2)),
                                 variances=np.array([1.0]))
    score = oracle.AnalyticScoreField(mix, s)
    xs = np.array([[0.0, 0.0], [1.0, -0.5], [0.3, 1.2], [-1.1, 0.4]])
    rep = metrics.pf_ode_nll(score, s, xs, sampling.nll_grid(s, 200))
    exact = np.array([float(oracle.log_density(mix, s, x, 0.0)) for x in xs])
    err = float(np.max(np.abs(rep.log_likelihood - exact))) / xs.shape[1]
    return [CheckResult(name="nll_closed_form", tolerance=1e-2,
                        observed=err, passed=err <= 1e-2,
                        note="nats per dim")]


def check_drift_preservation() -> list[CheckResult]:
    axis = np.arange(-4.0, 4.0 + 1e-12, 0.005)

    def p_t(pts, t):
        return np.exp(-0.5 * np.sum(pts**2, axis=-1)) / (2.0 * np.pi)

    def f(pts, t):
        return np.stack([pts[..., 1], -pts[..., 0]], axis=-1)

    res = metrics.fokker_planck_residual(p_t, f, 0.0, 0.5, (axis, axis))
    return [CheckResult(name="liouville_residual[y,-x]", tolerance=1e-6,
                        observed=res.max_abs, passed=res.max_abs <= 1e-6)]


def check_frechet_closed_form(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    d = 6
    mu = rng.standard_normal(d)
    a_mat = rng.standard_normal((d, d)) / np.sqrt(d)
    cov = a_mat @ a_mat.T + 0.5 * np.eye(d)
    sa = metrics.FeatureStats(mean=mu, cov=cov, count=1)
    worst = abs(metrics.frechet_distance(sa, sa))
    shift = rng.standard_normal(d)
    sb = metrics.FeatureStats(mean=mu + shift, cov=cov.copy(), count=1)
    worst = max(worst, abs(metrics.frechet_distance(sa, sb)
                           - float(np.sum(shift**2))))
    s1 = metrics.FeatureStats(mean=np.zeros(d), cov=2.0 * np.eye(d), count=1)
    s2 = metrics.FeatureStats(mean=np.zeros(d), cov=0.5 * np.eye(d), count=1)
    worst = max(worst, abs(metrics.frechet_distance(s1, s2)
                           - d * (np.sqrt(2.0) - np.sqrt(0.5))**2))
    out.append(CheckResult(name="frechet_closed_form", tolerance=1e-8,
                           observed=float(worst), passed=worst <= 1e-8))
    return out


def check_inv_fid(seed: int = 0, n: int = 8000) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    group = make_group("C4")
    spec = metrics.FeatureSpec(dim_in=2)
    sym = _demo_mixture(True).sample(rng, n)
    one = _demo_mixture(False).sample(rng, n)
    v_sym = metrics.inv_fid(sym, group, spec)
    v_one = metrics.inv_fid(one, group, spec)
    out.append(CheckResult(name="inv_fid_symmetrized", tolerance=0.05,
                           observed=v_sym, passed=v_sym < 0.05))
    ratio = v_one / max(v_sym, 1e-12)
    out.append(CheckResult(name="inv_fid_asymmetric_ratio", tolerance=10.0,
                           observed=ratio, passed=ratio > 10.0,
                           note="must exceed"))
    return out


def check_spdt_roundtrip(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((3, 4, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.spdt"
        write_spdt(path, arr)
        back = read_spdt(path)
    exact = arr.shape == back.shape and np.array_equal(
        arr.view(np.uint64), back.view(np.uint64))
    return [CheckResult(name="spdt_roundtrip", tolerance=0.0,
                        observed=0.0 if exact else 1.0, passed=bool(exact))]


def check_energy_test(seed: int = 0, n: int = 300) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2))
    _, p_same = metrics.energy_distance_test(a, b, permutations=99, seed=seed)
    out.append(CheckResult(name="energy_test_null", tolerance=0.01,
                           observed=p_same, passed=p_same > 0.01,
                           note="must exceed"))
    c = rng.standard_normal((n, 2)) + 1.5
    _, p_diff = metrics.energy_distance_test(a, c, permutations=99, seed=seed)
    out.append(CheckResult(name="energy_test_power", tolerance=0.02,
                           observed=p_diff, passed=p_diff <= 0.02))
    return out


ALL_CHECKS = [
    check_group_axioms,
    check_tied_kernels,
    check_frame_averaging,
    check_analytic_score,
    check_schedule_identities,
    check_bridge_endpoints,
    check_sampler_determinism,
    check_nll_consistency,
    check_drift_preservation,
    check_frechet_closed_form,
    check_inv_fid,
    check_spdt_roundtrip,
    check_energy_test,
]


def run_all() -> list[CheckResult]:
    """Run every registered check in fixed order."""
    results = []
    for fn in ALL_CHECKS:
        results.extend(fn())
    return results
