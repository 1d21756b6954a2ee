"""Named self-checks covering every module's headline invariants.

Each check returns CheckResult records with a stable name, the tolerance
used, the observed value and a pass flag, so the command layer can emit
a machine-readable report.  Checks marked "must exceed" in their note
are negative controls: they pass when the observed value is ABOVE the
threshold, demonstrating that the corresponding property is not vacuous.

The property measurements (``equivariance_residuals``, defined in
``groups`` so that ``nets.equivariance_gap`` can use it too, and the
functions below) are shared with the acceptance suite, so each property
has one implementation: the ``check_*`` functions run them on quick
inputs, in seconds, and ``tests/test_acceptance.py`` on full-size inputs.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, oracle, sampling
from .groups import (IsometryGroup, equivariance_residuals, frame_average,
                     make_group, verify_group_axioms)
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


def _at_most(name: str, tolerance: float, observed, note: str = "") -> CheckResult:
    observed = float(observed)
    return CheckResult(name, tolerance, observed, observed <= tolerance, note)


def _above(name: str, tolerance: float, observed) -> CheckResult:
    """A negative control: passes when the observed value exceeds the threshold."""
    observed = float(observed)
    return CheckResult(name, tolerance, observed, observed > tolerance, "must exceed")


# ---- shared property measurements -----------------------------------------


# (make_group tag of the group that fixes the kernel, kernel size, free
# parameters of the tied kernel); the kernel must commute with the same
# group on an 8 x 8 grid
TIED_KERNELS = (("flip_h", 3, 6), ("C4", 5, 7), ("D4", 5, 6))


def conv_gap(kernel, group: IsometryGroup, images: np.ndarray) -> float:
    """Worst |conv(k x) - k conv(x)| over the elements k and the (n, H, W) images."""
    def conv(batch):
        # conv2d is channels-last and depthwise for a (k, k) kernel, so the
        # batch runs through the channel axis
        return np.moveaxis(conv2d(kernel, np.moveaxis(batch, 0, -1)), -1, 0)
    return float(np.max(np.abs(equivariance_residuals(conv, group, images))))


def score_gap(mixture: oracle.GaussianMixture, s, group: IsometryGroup,
              xs: np.ndarray, ts: np.ndarray) -> float:
    """Worst |s(k x, t) - k s(x, t)| of the diffused mixture score over the
    non-identity elements k and the rows (x, t)."""
    score = oracle.AnalyticScoreField(mixture, s)
    return float(np.max(np.abs(equivariance_residuals(score, group, xs, ts)[1:])))


def nll_closed_form_error(xs: np.ndarray, grid) -> float:
    """Worst probability-flow log-likelihood error, in nats per dim, at the
    rows of ``xs`` on the VP ``grid``.  The unit Gaussian is the stationary
    law of the VP process, so its likelihood has a closed form."""
    s = vp_schedule()
    d = xs.shape[1]
    unit = oracle.GaussianMixture(weights=np.ones(1), means=np.zeros((1, d)),
                                  variances=np.ones(1))
    rep = metrics.pf_ode_nll(oracle.AnalyticScoreField(unit, s), s, xs, grid)
    truth = -0.5 * np.sum(xs**2, axis=1) - 0.5 * d * np.log(2.0 * np.pi)
    return float(np.max(np.abs(rep.log_likelihood - truth))) / d


def bridge_pinning_error(x0: np.ndarray, x_T: np.ndarray) -> float:
    """Worst |mean - endpoint| and |variance| of the pinned bridge at its
    ends: both ends under VP, where sigma(0) = 0, and the T end under VE,
    whose transition starts at sigma_min > 0 by construction."""
    vp, ve = vp_schedule(), ve_schedule()
    worst = 0.0
    for s, t, target in ((vp, 0.0, x0), (vp, vp.T, x_T), (ve, ve.T, x_T)):
        p = bridge_kernel(s, x0, x_T, t)
        worst = max(worst, float(np.max(np.abs(p.mean - target))),
                    abs(float(p.variance)))
    return worst


def rotation_drift(x, t):
    """The rotation field (y, -x), which preserves the unit Gaussian."""
    return np.stack([x[..., 1], -x[..., 0]], axis=-1)


def liouville_residual(axis: np.ndarray) -> float:
    """Worst Liouville residual of the unit Gaussian under rotation_drift on
    the ``axis`` x ``axis`` grid."""
    def p(pts, t):
        return np.exp(-0.5 * np.sum(pts**2, axis=-1)) / (2.0 * np.pi)
    return metrics.fokker_planck_residual(p, rotation_drift, 0.0, 0.0,
                                          (axis, axis)).max_abs


def frechet_error(cases) -> float:
    """Worst |frechet_distance(a, b) - want| over (a, b, want) triples."""
    return max(abs(metrics.frechet_distance(a, b) - want) for a, b, want in cases)


def inv_fid_pair(sym: np.ndarray, one: np.ndarray,
                 group: IsometryGroup) -> tuple[float, float]:
    """Inv-FID of a symmetrized sample set and of a one-orientation set."""
    spec = metrics.FeatureSpec(dim_in=sym.shape[1])
    return metrics.inv_fid(sym, group, spec), metrics.inv_fid(one, group, spec)


# ---- checks -----------------------------------------------------------------


def check_group_axioms(groups: list[IsometryGroup] | None = None) -> list[CheckResult]:
    """Closure, identity, inverses, associativity and orthogonality; by
    default on the 4 x 4 grid groups and the C4 and D4 point groups."""
    if groups is None:
        groups = [make_group(tag, (4, 4)) for tag in ("flip_v", "flip_h", "C4", "D4")]
        groups += [make_group("C4"), make_group("D4")]
    out = []
    for g in groups:
        rep = verify_group_axioms(g)
        algebra_ok = rep.closure and rep.identity and rep.inverses and rep.associativity
        out.append(CheckResult(f"group_closure[{g.name}]", 1e-12,
                               float(rep.max_closure_error), bool(algebra_ok)))
        out.append(_at_most(f"group_orthogonality[{g.name}]", 1e-12,
                            rep.max_orthogonality_error))
    return out


def check_tied_kernels() -> list[CheckResult]:
    worst = max(abs(make_tied_kernel(tag, size).n_free - n_free)
                for tag, size, n_free in TIED_KERNELS)
    out = [_at_most("tied_kernel_counts", 0.0, worst)]
    rng = np.random.default_rng(0)
    gap = 0.0
    for tag, size, _ in TIED_KERNELS:
        kern = make_tied_kernel(tag, size)
        kern.params = rng.standard_normal(kern.n_free)
        gap = max(gap, conv_gap(kern, make_group(tag, (8, 8)),
                                rng.standard_normal((10, 8, 8))))
    dense = rng.standard_normal((3, 3))
    ctl = conv_gap(dense, make_group("flip_h", (8, 8)), rng.standard_normal((1, 8, 8)))
    return out + [_at_most("tied_kernel_commutation", 1e-12, gap),
                  _above("dense_kernel_control", 0.01, ctl)]


def _probes(rng: np.random.Generator, shape: tuple[int, ...], n: int):
    """n probe pairs (x, t), each x drawn just before its t."""
    pairs = [(rng.standard_normal(shape), rng.uniform(0.01, 1.0)) for _ in range(n)]
    return np.stack([x for x, _ in pairs]), np.array([t for _, t in pairs])


def check_frame_averaging() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    grid_group = make_group("flip_v", (4, 4))
    net = Mlp(16, hidden=(32,), seed=0)
    fa = frame_average(lambda x, t: net(x.reshape(len(x), -1), t).reshape(x.shape),
                       grid_group)
    res = equivariance_residuals(fa, grid_group, *_probes(rng, (4, 4), 50))
    pt_group = make_group("C4")
    fa2 = frame_average(Mlp(2, hidden=(32,), seed=1), pt_group)
    res2 = equivariance_residuals(fa2, pt_group, *_probes(rng, (2,), 50))
    return [_at_most("frame_averaging[grid-flip]", 1e-12, np.max(np.abs(res))),
            _at_most("frame_averaging[point-C4]", 1e-12, np.max(np.abs(res2)))]


def _demo_mixture(symmetric: bool) -> oracle.GaussianMixture:
    m = oracle.GaussianMixture(weights=np.array([0.6, 0.4]),
                               means=np.array([[1.5, 0.0], [0.5, 1.0]]),
                               variances=np.array([0.08, 0.12]))
    return oracle.symmetrize(m, make_group("C4")) if symmetric else m


def check_analytic_score() -> list[CheckResult]:
    s = vp_schedule()
    group = make_group("C4")
    sym = _demo_mixture(True)
    rng = np.random.default_rng(0)
    xs = sym.sample(rng, 50)
    ts = rng.uniform(s.t_clip, s.T, size=50)
    rel = 0.0
    for x, t in zip(xs[:20], ts[:20]):
        t = float(t)
        sc = oracle.diffused_score(sym, s, x, t)
        h = 1e-5 * (1.0 + np.abs(x))
        # row j of x +- diag(h) moves coordinate j only
        fd = (oracle.log_density(sym, s, x + np.diag(h), t)
              - oracle.log_density(sym, s, x - np.diag(h), t)) / (2 * h)
        rel = max(rel, float(np.max(np.abs(fd - sc))
                             / max(1e-12, float(np.max(np.abs(sc))))))
    return [_at_most("analytic_score_equivariance", 1e-10,
                     score_gap(sym, s, group, xs, ts)),
            _above("asymmetric_score_control", 0.1,
                   score_gap(_demo_mixture(False), s, group, xs, ts)),
            _at_most("score_gradient_consistency", 1e-6, rel)]


def check_schedule_identities() -> list[CheckResult]:
    ts = np.linspace(1e-3, 1.0, 41)
    vp = vp_schedule()
    pres = max(abs(vp.alpha(float(t))**2 + vp.sigma2(float(t)) - 1.0) for t in ts)
    worst = 0.0
    for s in (vp, ve_schedule()):
        for t in ts[1:-1]:
            t = float(t)
            h = 1e-6
            fd_ds2 = (s.sigma2(t + h) - s.sigma2(t - h)) / (2 * h)
            fd_dla = (s.log_alpha(t + h) - s.log_alpha(t - h)) / (2 * h)
            ident = fd_ds2 - 2.0 * fd_dla * s.sigma2(t)
            worst = max(worst, abs(s.g2(t) - ident))
    return [_at_most("vp_variance_preservation", 1e-12, pres),
            _at_most("g2_table_identity", 1e-4, worst, "finite-difference comparison")]


def check_bridge_endpoints() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    worst = bridge_pinning_error(rng.standard_normal(3), rng.standard_normal(3))

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
    return [_at_most("bridge_endpoint_pinning", 1e-10, worst),
            _at_most("bridge_oracle_point_coupling", 1e-10, gap)]


def check_sampler_determinism() -> list[CheckResult]:
    s = vp_schedule()
    mix = _demo_mixture(True)
    score = oracle.AnalyticScoreField(mix, s)
    grid = sampling.sampling_grid(s, 40)

    def run():
        return sampling.reverse_sde_sample(
            score, s, lam=1.0, grid=grid,
            x_T=lambda rng: np.sqrt(s.sigma2(s.T)) * rng.standard_normal((8, 2)),
            noise=0).terminal

    a, b = run(), run()
    return [_at_most("sampler_determinism", 0.0, np.max(np.abs(a - b)))]


def check_nll_consistency() -> list[CheckResult]:
    xs = np.array([[0.0, 0.0], [1.0, -0.5], [0.3, 1.2], [-1.1, 0.4]])
    err = nll_closed_form_error(xs, sampling.nll_grid(vp_schedule(), 200))
    return [_at_most("nll_closed_form", 1e-2, err, "nats per dim")]


def check_drift_preservation() -> list[CheckResult]:
    return [_at_most("liouville_residual[y,-x]", 1e-6,
                     liouville_residual(np.arange(-4.0, 4.0 + 1e-12, 0.005)))]


def check_frechet_closed_form() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    d = 6
    mu = rng.standard_normal(d)
    a_mat = rng.standard_normal((d, d)) / np.sqrt(d)
    cov = a_mat @ a_mat.T + 0.5 * np.eye(d)
    shift = rng.standard_normal(d)
    sa = metrics.FeatureStats(mean=mu, cov=cov, count=1)
    worst = frechet_error([
        (sa, sa, 0.0),
        (sa, metrics.FeatureStats(mean=mu + shift, cov=cov.copy(), count=1),
         float(np.sum(shift**2))),
        (metrics.FeatureStats(mean=np.zeros(d), cov=2.0 * np.eye(d), count=1),
         metrics.FeatureStats(mean=np.zeros(d), cov=0.5 * np.eye(d), count=1),
         d * (np.sqrt(2.0) - np.sqrt(0.5))**2),
    ])
    return [_at_most("frechet_closed_form", 1e-8, worst)]


def check_inv_fid() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    v_sym, v_one = inv_fid_pair(_demo_mixture(True).sample(rng, 8000),
                                _demo_mixture(False).sample(rng, 8000),
                                make_group("C4"))
    return [CheckResult("inv_fid_symmetrized", 0.05, v_sym, v_sym < 0.05),
            _above("inv_fid_asymmetric_ratio", 10.0, v_one / max(v_sym, 1e-12))]


def check_spdt_roundtrip() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.spdt"
        write_spdt(path, arr)
        back = read_spdt(path)
    exact = arr.shape == back.shape and np.array_equal(
        arr.view(np.uint64), back.view(np.uint64))
    return [_at_most("spdt_roundtrip", 0.0, 0.0 if exact else 1.0)]


def check_energy_test() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2))
    _, p_same = metrics.energy_distance_test(a, b, permutations=99, seed=0)
    c = rng.standard_normal((300, 2)) + 1.5
    _, p_diff = metrics.energy_distance_test(a, c, permutations=99, seed=0)
    return [_above("energy_test_null", 0.01, p_same),
            _at_most("energy_test_power", 0.02, p_diff)]


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
