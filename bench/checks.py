"""Correctness checks on the files a pipeline wrote.

Every reference value here is computed with numpy from the workload's
config alone (closed-form Gaussian-mixture moments and log-densities, own
group matrices and grid symmetries, own SPDT reader), or is a property the
method must have (exact equivariance, decreasing training loss).  Nothing
is compared against a stored copy of an earlier output.

Monte-Carlo estimates get a tolerance of ``Z`` standard errors, the
standard error computed from the closed-form variance and the chain
count, plus a stated allowance for the sampler's time discretisation.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Standard errors allowed for a Monte-Carlo estimate.  At 6 a correct
# program fails one moment check in about 5e8 under a normal approximation,
# which keeps false alarms out of thousands of benchmark runs.
Z = 6.0
# Relative allowance for the Euler-Maruyama bias of a second moment is
# DISCRETISATION / steps.  Measured with 20000 chains (2048 on the grid) the
# bias was 1.9% at 24 steps (0.7% at 32) on the point mixture, 3.0% at 32
# steps on the grid and 5.9% at 20 steps (2.9% at 40) for the bridge: at
# most 1.2 / steps.
DISCRETISATION = 1.5
# Likelihood gate, the same 1e-2 nats/dim the program's own checks use.
NLL_TOL = 1e-2
# Exact-equivariance gate: group actions here are signed permutations.
EXACT_TOL = 1e-12
# A reverse chain must end at least this far (max-abs) from where it
# started; a correct chain lands in such a box around its start with
# probability about 1e-6.
MIN_MOVE = 1e-3
# The last tenth of the training loss curve must sit this far below the
# first tenth.  On point_en over 60 seeds it sat 43-62% lower after 400
# steps (median 47%), and 12% at the least: the smallest drops come from
# initial nets whose loss already lies near that of a zero output, about
# 15% above the floor the training reaches.
LOSS_DROP = 0.05


@dataclass
class Check:
    name: str
    observed: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "observed": self.observed,
                "tolerance": self.tolerance, "passed": self.passed}


def _check(name: str, observed: float, tolerance: float) -> Check:
    observed = float(observed)
    return Check(name, observed, float(tolerance),
                 bool(np.isfinite(observed) and observed <= tolerance))


# ---- reading outputs -----------------------------------------------------


def read_spdt(path) -> np.ndarray:
    """SPDT tensor: magic, u32 version, u32 dtype tag, u32 rank, u64 dims."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"SPDT":
        raise ValueError(f"{path} is not an SPDT file")
    _, dtag, rank = struct.unpack_from("<III", raw, 4)
    if dtag != 1:
        raise ValueError(f"{path}: dtype tag {dtag} is not float64")
    dims = struct.unpack_from(f"<{rank}Q", raw, 16)
    return np.frombuffer(raw, dtype="<f8", offset=16 + 8 * rank).reshape(dims)


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---- groups and mixtures, independent of the program -----------------------


def point_group(name: str) -> list[np.ndarray]:
    """C4 or D4 on R^2: the rotation and signed-permutation matrices."""
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    rots = [np.linalg.matrix_power(r, k) for k in range(4)]
    if name == "C4":
        return rots
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    return rots + [flip @ m for m in rots]


def grid_ops(name: str) -> list:
    """The D4 (or C4) symmetries of a square grid as array functions."""
    rots = [lambda a, k=k: np.rot90(a, k, axes=(-2, -1)) for k in range(4)]
    if name == "C4":
        return rots
    return rots + [lambda a, k=k: np.swapaxes(np.rot90(a, k, axes=(-2, -1)), -1, -2)
                   for k in range(4)]


@dataclass
class Mixture:
    """Isotropic Gaussian mixture; means are flat (K, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def coord_var(self) -> np.ndarray:
        """Per-coordinate variance."""
        second = self.weights @ (self.means**2 + self.variances[:, None])
        return second - self.mean() ** 2

    def m2(self) -> float:
        """E|x|^2."""
        return float(self.weights @ (np.sum(self.means**2, axis=1)
                                     + self.dim * self.variances))

    def m2_sd(self) -> float:
        """Standard deviation of |x|^2 (isotropic Gaussian fourth moments)."""
        d, v = self.dim, self.variances
        nm2 = np.sum(self.means**2, axis=1)
        fourth = (nm2 + d * v) ** 2 + 4.0 * v * nm2 + 2.0 * d * v**2
        return math.sqrt(max(float(self.weights @ fourth) - self.m2() ** 2, 0.0))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(len(x), -1)
        d2 = np.sum((x[:, None, :] - self.means[None]) ** 2, axis=2)
        lg = (np.log(self.weights)[None] - 0.5 * self.dim
              * np.log(2.0 * np.pi * self.variances)[None]
              - 0.5 * d2 / self.variances[None])
        top = lg.max(axis=1)
        return top + np.log(np.exp(lg - top[:, None]).sum(axis=1))


def mixture_from_config(cfg: dict) -> Mixture:
    """The configured mixture, symmetrized over its group if asked."""
    comps = cfg["data"]["components"]
    w = np.array([c["weight"] for c in comps], dtype=float)
    w = w / w.sum()
    m = np.array([c["mean"] for c in comps], dtype=float)
    v = np.array([c["variance"] for c in comps], dtype=float)
    if not cfg["data"].get("symmetrize", False):
        return Mixture(w, m, v)
    group = cfg["group"]
    if "shape" in group:
        h, wd = group["shape"]
        grids = m.reshape(len(w), h, wd)
        orbit = [op(grids).reshape(len(w), -1) for op in grid_ops(group["name"])]
    else:
        orbit = [m @ k.T for k in point_group(group["name"])]
    n = len(orbit)
    return Mixture(np.tile(w / n, n), np.concatenate(orbit), np.tile(v, n))


def schedule_sigma2_T(cfg: dict) -> float:
    """sigma_T^2 of the configured VP schedule (1 - alpha_T^2)."""
    spec = cfg.get("schedule", {"kind": "vp"})
    if spec["kind"] != "vp":
        raise ValueError("benchmark configs use the VP schedule")
    b0, b1 = spec.get("beta_min", 0.1), spec.get("beta_max", 20.0)
    T = spec.get("T", 1.0)
    log_alpha = -0.25 * T * (b1 - b0) - 0.5 * T * b0
    return -math.expm1(2.0 * log_alpha)


# ---- checks ----------------------------------------------------------------


def check_moments(prefix: str, samples: np.ndarray, mix: Mixture,
                  steps: int) -> list[Check]:
    """Sample mean and E|x|^2 against the closed-form mixture moments.

    With ``b = DISCRETISATION / steps`` the mean check reports the largest
    per-coordinate gap in units of ``Z sqrt(var_j / n) + b rms`` and passes
    at <= 1.  The second moment passes within ``Z sd(|x|^2) / sqrt(n) +
    b E|x|^2``.
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    n = x.shape[0]
    bias = DISCRETISATION / steps
    rms = math.sqrt(mix.m2() / mix.dim)
    tol_mean = Z * np.sqrt(mix.coord_var() / n) + bias * rms
    mean_gap = float(np.max(np.abs(x.mean(axis=0) - mix.mean()) / tol_mean))
    m2_hat = float(np.mean(np.sum(x**2, axis=1)))
    tol_m2 = Z * mix.m2_sd() / math.sqrt(n) + bias * mix.m2()
    finite = bool(np.all(np.isfinite(x)))
    return [_check(f"{prefix}_mean", mean_gap if finite else math.inf, 1.0),
            _check(f"{prefix}_m2", abs(m2_hat - mix.m2()) if finite else math.inf,
                   tol_m2)]


def chi2_ratio_bounds(m: int) -> tuple[float, float]:
    """Bounds of chi^2_m / m at Z standard errors (Wilson-Hilferty).

    The cube root of chi^2_m / m is close to normal with mean 1 - a and
    variance a, a = 2 / (9 m), far into the tails, where the plain normal
    approximation of chi^2_m / m would put the lower bound below zero.
    """
    a = 2.0 / (9.0 * m)
    lo = max(1.0 - a - Z * math.sqrt(a), 0.0) ** 3
    return lo, (1.0 - a + Z * math.sqrt(a)) ** 3


def check_bridge_marginal(samples: np.ndarray, cfg: dict) -> list[Check]:
    """Bridge draws x_0 ~ N(C x_T, v I) with x_T ~ N(0, sigma_T^2 I).

    Their marginal is N(0, (C^2 sigma_T^2 + v) I).  The largest coordinate
    mean gets Z standard errors plus ``b = DISCRETISATION / steps`` of the
    standard deviation.  The ratio r of the pooled mean square of the m
    values to that variance is distributed as chi^2_m / m, so it must lie
    within ``chi2_ratio_bounds(m)``, widened by the factors 1 - b and
    1 + b; the check reports max(lo / r, r / hi) and passes at <= 1.
    """
    coupling = cfg["model"]["coupling"]
    c, v = float(coupling["matrix"]), float(coupling["noise_var"])
    var = c * c * schedule_sigma2_T(cfg) + v
    bias = DISCRETISATION / cfg["sampler"]["steps"]
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    n, m = x.shape[0], x.size
    tol_mean = Z * math.sqrt(var / n) + bias * math.sqrt(var)
    lo, hi = chi2_ratio_bounds(m)
    lo, hi = lo * (1.0 - bias), hi * (1.0 + bias)
    finite = bool(np.all(np.isfinite(x)))
    mean_gap = float(np.max(np.abs(x.mean(axis=0)))) if finite else math.inf
    ratio = float(np.mean(x**2)) / var
    var_gap = max(lo / ratio, ratio / hi) if finite and ratio > 0 else math.inf
    return [_check("bridge_mean", mean_gap, tol_mean),
            _check("bridge_var", var_gap, 1.0)]


def check_nll(rows: list[dict], data: np.ndarray, mix: Mixture,
              expected_points: int) -> list[Check]:
    """Per-point |log p - exact| / d within the 1e-2 nats/dim gate."""
    if len(rows) != expected_points:
        return [_check("nll_rows", abs(len(rows) - expected_points), 0)]
    idx = [int(r["index"]) for r in rows]
    ll = np.array([float(r["log_likelihood"]) for r in rows])
    exact = mix.log_density(np.asarray(data)[idx])
    gap = float(np.max(np.abs(ll - exact))) / mix.dim
    return [_check("nll_closed_form", gap, NLL_TOL)]


def check_en_commutation(runs: list, mats: list[np.ndarray]) -> list[Check]:
    """EN chains: the chain from k x must end at k (chain from x).

    Each run is ``(x, end, ends)``: a start, the end of the chain from it,
    and ``ends[i]``, the end of the chain started at ``mats[i] @ x``.  A
    sampler that returns its start commutes too, so every chain must also
    have moved at least ``MIN_MOVE``.
    """
    gap = max(float(np.max(np.abs(e - end @ k.T)))
              for _, end, ends in runs for e, k in zip(ends, mats))
    moved = min(float(np.max(np.abs(end - x))) for x, end, _ in runs)
    return [_check("en_commutation", gap, EXACT_TOL),
            Check("en_chain_moved", moved, MIN_MOVE, bool(moved >= MIN_MOVE))]


def check_metric_row(rows: list[dict], name: str, tolerance: float) -> list[Check]:
    """One named row of metrics.csv, at most ``tolerance``."""
    values = [float(r["value"]) for r in rows if r["name"] == name]
    observed = abs(values[0]) if len(values) == 1 else math.inf
    return [_check(f"metrics_{name}", observed, tolerance)]


def check_tying(forward, mats: list[np.ndarray], horizon: float, seed: int,
                label: str) -> list[Check]:
    """|s(k x, t) - k s(x, t)| <= 1e-12 for every k, on seeded probes.

    ``forward(x, t)`` evaluates the score net on a batch (n, 2), (n,).
    """
    rng = np.random.default_rng(seed)
    x = 1.5 * rng.standard_normal((64, 2))
    t = rng.uniform(1e-3 * horizon, horizon, 64)
    base = forward(x, t)
    gap = max(float(np.max(np.abs(forward(x @ k.T, t) - base @ k.T)))
              for k in mats)
    return [_check(f"tying_{label}", gap, EXACT_TOL)]


def check_loss_drop(losses: np.ndarray) -> list[Check]:
    """Mean loss of the last tenth <= (1 - LOSS_DROP) x mean of the first."""
    losses = np.asarray(losses, dtype=float)
    n = max(len(losses) // 10, 1)
    ratio = float(np.mean(losses[-n:]) / np.mean(losses[:n]))
    return [_check("train_loss_ratio", ratio, 1.0 - LOSS_DROP)]
