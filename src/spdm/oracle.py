"""Closed-form score fields for Gaussian-mixture data.

A mixture of isotropic Gaussians stays a mixture under either schedule's
Gaussian transition: component i with weight w_i, mean m_i and variance v_i
becomes weight w_i, mean alpha_t m_i and variance alpha_t^2 v_i + sigma_t^2.
Scores and log-densities therefore have exact expressions, evaluated here
with max-shifted log-sum-exp for stability.

Symmetrizing a mixture over a finite isometry group produces an invariant
density, whose score is then exactly equivariant; this is the analytic
ground truth the rest of the toolkit is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCoupling, InvalidParams, TimeOutOfRange
from .groups import IsometryGroup
from .process import GaussianParams, Schedule, bridge_coefficients

_WEIGHT_ATOL = 1e-12


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of isotropic Gaussians on arrays of a fixed shape.

    Parameters
    ----------
    weights : (K,) ndarray
        Convex weights; must sum to 1 within 1e-12.
    means : (K, ...) ndarray
        Component means; trailing shape is the event shape (a vector for
        point data, a grid for images).
    variances : (K,) ndarray
        Per-component isotropic variances, all > 0.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise InvalidParams("weights must be a non-empty 1-D array")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_ATOL:
            raise InvalidParams("weights must be >= 0 and sum to 1 within 1e-12")
        if m.ndim < 2 or m.shape[0] != len(w):
            raise InvalidParams("means must have shape (K, ...) matching weights")
        if v.shape != (len(w),) or np.any(v <= 0.0):
            raise InvalidParams("variances must be positive with shape (K,)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def event_shape(self) -> tuple[int, ...]:
        return self.means.shape[1:]

    @property
    def dim(self) -> int:
        return int(np.prod(self.event_shape))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points; shape (n, *event_shape)."""
        ks = rng.choice(len(self.weights), size=n, p=self.weights)
        eps = rng.standard_normal((n, *self.event_shape))
        return self.means[ks] + np.sqrt(self.variances[ks]).reshape(
            (n,) + (1,) * len(self.event_shape)) * eps


def symmetrize(mixture: GaussianMixture, group: IsometryGroup) -> GaussianMixture:
    """Average the mixture over the group orbit of its components.

    Each component (w, m, v) is replaced by the |G| components
    (w / |G|, k m, v); isotropic components are closed under isometries, so
    the result is an exactly G-invariant density.
    """
    ws, ms, vs = [], [], []
    for k in group.elements:
        ws.append(mixture.weights / len(group))
        ms.append(np.stack([k.apply(m) for m in mixture.means]))
        vs.append(mixture.variances)
    return GaussianMixture(
        weights=np.concatenate(ws),
        means=np.concatenate(ms),
        variances=np.concatenate(vs),
    )


def _flat(x: np.ndarray, event_shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    ne = len(event_shape)
    if x.shape[-ne:] != event_shape or x.ndim > ne + 1:
        raise InvalidParams(f"input shape {x.shape} must be {event_shape} "
                            f"or a batch (n, {', '.join(map(str, event_shape))})")
    if x.ndim == ne:
        return x.reshape(1, -1), True
    return x.reshape(x.shape[0], -1), False


def _diffused_params(m: GaussianMixture, s: Schedule, t: float):
    a = float(s.alpha(t))
    s2 = float(s.sigma2(t))
    means = a * m.means.reshape(len(m.weights), -1)
    variances = a * a * m.variances + s2
    return means, variances


def _log_resp(diff, variances, log_w):
    # log of w_i N(x; m_i, s_i^2 I) for every point (rows) and component
    # (cols), from the differences m_i - x shaped (points, components, d)
    d = diff.shape[2]
    return (log_w[None, :]
            - 0.5 * d * np.log(2.0 * np.pi * variances)[None, :]
            - 0.5 * (diff ** 2).sum(axis=2) / variances[None, :])


def diffused_score(m: GaussianMixture, s: Schedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact score of the time-t diffused mixture at x.

    Accepts a single point or a batch (leading axis).  Valid for any
    t in [0, T]: component variances are strictly positive, so the t=0
    limit is the data-mixture score.
    """
    t = float(t)
    if t < 0.0 or t > s.T:
        raise TimeOutOfRange(f"t={t} outside [0, {s.T}]")
    x2d, single = _flat(x, m.event_shape)
    means, variances = _diffused_params(m, s, t)
    diff = means[None, :, :] - x2d[:, None, :]
    lr = _log_resp(diff, variances, np.log(m.weights))
    lr -= lr.max(axis=1, keepdims=True)
    gamma = np.exp(lr)
    gamma /= gamma.sum(axis=1, keepdims=True)
    # the pulls (m_i - x) / s_i^2, weighted by gamma, built in place in diff
    diff /= variances[None, :, None]
    diff *= gamma[:, :, None]
    out = diff.sum(axis=1)
    out = out.reshape(-1, *m.event_shape)
    return out[0] if single else out


def log_density(m: GaussianMixture, s: Schedule, x: np.ndarray, t: float) -> np.ndarray:
    """Exact log-density of the time-t diffused mixture at x (t in [0, T])."""
    t = float(t)
    if t < 0.0 or t > s.T:
        raise TimeOutOfRange(f"t={t} outside [0, {s.T}]")
    x2d, single = _flat(x, m.event_shape)
    means, variances = _diffused_params(m, s, t)
    lr = _log_resp(means[None, :, :] - x2d[:, None, :], variances, np.log(m.weights))
    shift = lr.max(axis=1, keepdims=True)
    out = np.log(np.exp(lr - shift).sum(axis=1)) + shift[:, 0]
    return float(out[0]) if single else out


class AnalyticScoreField:
    """Callable (x, t) -> score bound to a fixed mixture and schedule."""

    def __init__(self, mixture: GaussianMixture, schedule: Schedule):
        self.mixture = mixture
        self.schedule = schedule

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        return diffused_score(self.mixture, self.schedule, x, t)

    def log_density(self, x: np.ndarray, t: float):
        return log_density(self.mixture, self.schedule, x, t)


@dataclass(frozen=True)
class GaussianCoupling:
    """Linear-Gaussian endpoint coupling x_0 | x_T ~ N(C x_T, v I).

    ``matrix`` may be a scalar (then C = c I) or a (d, d) array.  The
    coupling commutes with an isometry k exactly when C k = k C; only then
    is the induced conditional score equivariant.
    """

    matrix: np.ndarray | float
    noise_var: float

    def __post_init__(self):
        if self.noise_var < 0.0:
            raise InvalidParams(f"noise_var must be >= 0, got {self.noise_var}")

    def mean_map(self, x_T: np.ndarray) -> np.ndarray:
        x_T = np.asarray(x_T, dtype=float)
        if np.isscalar(self.matrix) or np.ndim(self.matrix) == 0:
            return float(self.matrix) * x_T
        return x_T @ np.asarray(self.matrix, dtype=float).T

    def sample_x0(self, x_T: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mean = self.mean_map(x_T)
        return mean + np.sqrt(self.noise_var) * rng.standard_normal(mean.shape)


def bridge_conditional_params(coupling: GaussianCoupling, s: Schedule,
                              x_T: np.ndarray, t: float) -> GaussianParams:
    """Parameters of q_t(x_t | x_T) under the coupling-mixed bridge.

    Integrating the pinned-bridge kernel against x_0 | x_T gives another
    Gaussian: with mixing weight r_t = eta_T / eta_t the mean is
    ``r_t (alpha_t/alpha_T) x_T + alpha_t (1 - r_t) C x_T`` and the variance
    ``sigma_t^2 (1 - r_t) + alpha_t^2 (1 - r_t)^2 v``.
    """
    a_t, a_T, s2_t, r = bridge_coefficients(s, t)
    x_T = np.asarray(x_T, dtype=float)
    b_t = a_t * (1.0 - r)
    mean = r * (a_t / a_T) * x_T + b_t * coupling.mean_map(x_T)
    var = max(s2_t * (1.0 - r), 0.0) + b_t**2 * coupling.noise_var
    return GaussianParams(mean=mean, variance=var)


def bridge_score_oracle(coupling: GaussianCoupling, s: Schedule, x_t: np.ndarray,
                        x_T: np.ndarray, t: float) -> np.ndarray:
    """Exact conditional score grad_x log q_t(x_t | x_T) for the coupling.

    Requires t strictly inside (0, T): at both endpoints the conditional
    collapses (variance -> coupling noise at t=0, -> 0 at t=T) and the
    score is undefined for zero variance.
    """
    t = float(t)
    if t <= 0.0 or t >= s.T:
        raise TimeOutOfRange(f"t={t} outside (0, {s.T})")
    params = bridge_conditional_params(coupling, s, x_T, t)
    if params.variance <= 1e-300:
        raise DegenerateCoupling(
            f"conditional variance {params.variance} is zero at t={t}")
    return (params.mean - np.asarray(x_t, dtype=float)) / params.variance


class BridgeScoreField:
    """Callable (x, x_T, t) -> conditional score for a fixed coupling."""

    def __init__(self, coupling: GaussianCoupling, schedule: Schedule):
        self.coupling = coupling
        self.schedule = schedule

    def __call__(self, x: np.ndarray, x_T: np.ndarray, t: float) -> np.ndarray:
        return bridge_score_oracle(self.coupling, self.schedule, x, x_T, t)
