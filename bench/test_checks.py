"""Each correctness check passes on a right output and fails on a wrong one.

Run with ``python3 -m pytest bench/test_checks.py``.  The right outputs
are drawn exactly from the closed-form laws with numpy; the wrong ones
carry one deliberate fault each, so no check can pass vacuously.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def draw(mix: checks.Mixture, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ks = rng.choice(len(mix.weights), size=n, p=mix.weights)
    return mix.means[ks] + np.sqrt(mix.variances[ks])[:, None] * \
        rng.standard_normal((n, mix.dim))


def passed(results) -> bool:
    return all(c.passed for c in results)


@pytest.fixture(scope="module")
def point_cfg():
    return workloads.point_en(5).configs


@pytest.fixture(scope="module")
def grid_cfg():
    return workloads.grid_batched(5).configs["config.json"]


def test_spdt_reader_round_trip(tmp_path):
    arr = np.arange(12.0).reshape(3, 4)
    raw = b"SPDT" + struct.pack("<III", 1, 1, 2) + struct.pack("<2Q", 3, 4) \
        + arr.astype("<f8").tobytes()
    (tmp_path / "a.spdt").write_bytes(raw)
    assert np.array_equal(checks.read_spdt(tmp_path / "a.spdt"), arr)


def test_symmetrized_mixtures_are_invariant(point_cfg, grid_cfg):
    mix = checks.mixture_from_config(point_cfg["config.json"])
    assert len(mix.weights) == 8 and np.allclose(mix.mean(), 0.0)
    gmix = checks.mixture_from_config(grid_cfg)
    image = gmix.mean().reshape(8, 8)
    for op in checks.grid_ops("D4"):
        assert np.allclose(op(image), image)


def prior_draws(n: int, dim: int, seed: int = 2) -> np.ndarray:
    """Start points of the reverse chains: N(0, sigma_T^2 I) of the VP schedule."""
    sigma_T = np.sqrt(checks.schedule_sigma2_T({"schedule": {"kind": "vp"}}))
    return sigma_T * np.random.default_rng(seed).standard_normal((n, dim))


def test_point_moments(point_cfg):
    cfg = point_cfg["config.json"]
    mix = checks.mixture_from_config(cfg)
    n, steps = cfg["sampler"]["n_samples"], cfg["sampler"]["steps"]
    good = draw(mix, n)
    assert passed(checks.check_moments("sample", good, mix, steps))
    assert not passed(checks.check_moments("sample", 1.5 * good, mix, steps))
    assert not passed(checks.check_moments("sample", good + [1.5, 0.0], mix, steps))
    # A sampler that writes its prior draws unchanged, or nothing but zeros.
    assert not passed(checks.check_moments("sample", prior_draws(n, 2), mix, steps))
    assert not passed(checks.check_moments("sample", np.zeros((n, 2)), mix, steps))
    bad = good.copy()
    bad[0, 0] = np.nan
    assert not passed(checks.check_moments("sample", bad, mix, steps))


def test_grid_moments(grid_cfg):
    mix = checks.mixture_from_config(grid_cfg)
    n, steps = grid_cfg["sampler"]["n_samples"], grid_cfg["sampler"]["steps"]
    assert passed(checks.check_moments("sample", draw(mix, n), mix, steps))
    # Samples from the mixture before symmetrization: wrong mean image.
    raw = dict(grid_cfg, data=dict(grid_cfg["data"], symmetrize=False))
    unsym = checks.mixture_from_config(raw)
    assert not passed(checks.check_moments("sample", draw(unsym, n), mix, steps))
    assert not passed(checks.check_moments("sample", 1.3 * draw(mix, n), mix, steps))
    assert not passed(checks.check_moments("sample", prior_draws(n, 64), mix, steps))
    assert not passed(checks.check_moments("sample", np.zeros((n, 64)), mix, steps))


def test_bridge_marginal(point_cfg):
    cfg = point_cfg["bridge.json"]
    c = cfg["model"]["coupling"]
    n = cfg["sampler"]["n_samples"]
    rng = np.random.default_rng(1)

    def bridge_draws(matrix):
        x_T = np.sqrt(checks.schedule_sigma2_T(cfg)) * rng.standard_normal((n, 2))
        return matrix * x_T + np.sqrt(c["noise_var"]) * rng.standard_normal((n, 2))

    assert passed(checks.check_bridge_marginal(bridge_draws(c["matrix"]), cfg))
    assert not passed(checks.check_bridge_marginal(bridge_draws(2 * c["matrix"]), cfg))
    # A bridge that drops the coupling (C = 0), or writes only zeros.
    assert not passed(checks.check_bridge_marginal(bridge_draws(0.0), cfg))
    assert not passed(checks.check_bridge_marginal(np.zeros((n, 2)), cfg))
    assert not passed(checks.check_bridge_marginal(
        bridge_draws(c["matrix"]) + 1.5, cfg))


def test_chi2_ratio_bounds_hold_the_bulk():
    # Over 20000 draws of chi^2_64 / 64 none should leave the 6-sigma bounds,
    # and the bounds must be much tighter than the naive 1 -+ 6 sqrt(2/64).
    lo, hi = checks.chi2_ratio_bounds(64)
    r = np.random.default_rng(0).chisquare(64, 20000) / 64
    assert lo < r.min() and r.max() < hi
    assert 0.2 < lo < 0.35 and 2.2 < hi < 2.7


def test_nll_gate(point_cfg, grid_cfg):
    for cfg in (point_cfg["config.json"], grid_cfg):
        mix = checks.mixture_from_config(cfg)
        data = draw(mix, 8)
        points = cfg["nll"]["points"]
        exact = mix.log_density(data[:points])

        def rows(shift):
            return [{"index": str(i), "log_likelihood": repr(float(v - shift * mix.dim))}
                    for i, v in enumerate(exact)]

        assert passed(checks.check_nll(rows(0.0), data, mix, points))
        assert not passed(checks.check_nll(rows(0.05), data, mix, points))
        assert not passed(checks.check_nll(rows(0.0)[:-1] if points > 1 else [],
                                           data, mix, points))


def test_en_commutation():
    mats = checks.point_group("C4")
    start, end = np.array([0.2, 0.4]), np.array([0.7, -1.3])
    good = [end @ k.T for k in mats]
    assert passed(checks.check_en_commutation([(start, end, good)], mats))
    # Each chain oriented by the next rotation: a mismatched orientation.
    shifted = good[1:] + good[:1]
    assert not passed(checks.check_en_commutation([(start, end, good),
                                                   (start, end, shifted)], mats))
    # A sampler that returns its start commutes, but has not moved.
    still = [start @ k.T for k in mats]
    assert not passed(checks.check_en_commutation([(start, start, still)], mats))


def test_fa_delta_x0_row():
    rows = [{"name": "fid", "value": "3.0"}, {"name": "delta_x0", "value": "1e-16"}]
    assert passed(checks.check_metric_row(rows, "delta_x0", checks.EXACT_TOL))
    rows[1]["value"] = "1e-6"
    assert not passed(checks.check_metric_row(rows, "delta_x0", checks.EXACT_TOL))
    assert not passed(checks.check_metric_row(rows[:1], "delta_x0", checks.EXACT_TOL))


def mlp_forward(weights, biases, horizon: float, x: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    """Tanh MLP on [x, t/T, sin 2 pi t/T, cos 2 pi t/T], linear last layer."""
    w = 2.0 * np.pi * t / horizon
    a = np.concatenate([x, np.stack([t / horizon, np.sin(w), np.cos(w)], 1)], 1)
    for i, (wt, b) in enumerate(zip(weights, biases)):
        a = a @ wt.T + b
        if i < len(weights) - 1:
            a = np.tanh(a)
    return a


def tied_net(seed: int = 0, hidden: int = 8):
    """A D4-tied tanh MLP built by averaging each layer over the group."""
    rng = np.random.default_rng(seed)
    mats = checks.point_group("D4")

    def rep(k, width, trivial):
        m = np.eye(width)
        for b in range((width - trivial) // 2):
            m[2 * b:2 * b + 2, 2 * b:2 * b + 2] = k
        return m

    sizes = [(5, 3), (hidden, 0), (hidden, 0), (2, 0)]
    weights, biases = [], []
    for (w_in, t_in), (w_out, t_out) in zip(sizes[:-1], sizes[1:]):
        w = rng.standard_normal((w_out, w_in))
        b = rng.standard_normal(w_out)
        weights.append(sum(rep(k, w_out, t_out).T @ w @ rep(k, w_in, t_in)
                           for k in mats) / len(mats))
        biases.append(sum(rep(k, w_out, t_out).T @ b for k in mats) / len(mats))
    return weights, biases


def test_tying():
    mats = checks.point_group("D4")
    weights, biases = tied_net()

    def forward(ws):
        return lambda x, t: mlp_forward(ws, biases, 1.0, x, t)

    assert passed(checks.check_tying(forward(weights), mats, 1.0, 0, "t"))
    untied = [w.copy() for w in weights]
    untied[1][0, 1] += 1e-3
    assert not passed(checks.check_tying(forward(untied), mats, 1.0, 0, "t"))


def test_loss_drop():
    steps = np.arange(400)
    good = 0.6 + 0.9 * np.exp(-steps / 60.0)
    assert passed(checks.check_loss_drop(good))
    flat = 1.0 + 0.05 * np.random.default_rng(0).standard_normal(400)
    assert not passed(checks.check_loss_drop(1.0 - 0.02 * (1.0 - np.exp(-steps / 60.0))))
    assert not passed(checks.check_loss_drop(flat))


def test_absent_probe_is_reported(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(SRC))
    monkeypatch.setattr(tracing, "PROBES", [
        ("io", "spdm.io", "write_json", "write"),
        ("metrics", "spdm.metrics", "no_such_divergence", "div"),
    ])
    import spdm.io

    tr = tracing.Tracer()
    root = tr.add_probe("cli", "main:sample", "command")
    tr.install()
    try:
        tr.span(root, lambda: spdm.io.write_json(tmp_path / "a.json", {}))()
    finally:
        tr.uninstall()
    assert tr.absent == ["spdm.metrics:no_such_divergence"]
    out = tracing.layer_metrics(tr, root, 1, 2)
    assert out["metrics.div_us"] is None
    assert out["metrics.score_evals_per_div"] is None
    assert out["io.calls"] == 1 and out["io.bytes_written"] == 3
