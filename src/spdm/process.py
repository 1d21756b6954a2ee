"""Forward diffusion schedules, transition kernels and pinned bridges.

Two schedule families are provided.  Both are stated through the scaling
``alpha_t`` and noise level ``sigma_t`` of the Gaussian transition
``p(x_t | x_0) = N(alpha_t x_0, sigma_t^2 I)``:

* variance-preserving (VP): ``alpha(t) = exp(-t^2 (b1 - b0) / (4 T)
  - t b0 / 2)`` with ``sigma_t^2 = 1 - alpha_t^2``; the SDE drift is
  ``u(x, t) = (d log alpha_t / dt) x`` and
  ``g^2(t) = d sigma_t^2/dt - (d log alpha_t^2 / dt) sigma_t^2``.
* variance-exploding (VE): ``alpha = 1``, geometric noise growth
  ``sigma(t) = sigma_min (sigma_max / sigma_min)^(t/T)``, zero drift and
  ``g^2(t) = d sigma_t^2 / dt``.

The signal-to-noise ratio is ``eta_t = alpha_t^2 / sigma_t^2``.  Quantities
tied to the pinned endpoint become singular at ``t = T``; they refuse times
within ``t_clip = 1e-3 T`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, SingularAtTerminal, TimeOutOfRange

T_CLIP_FRACTION = 1e-3


@dataclass(frozen=True)
class GaussianParams:
    """Mean and scalar variance of an isotropic Gaussian."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        if not np.isfinite(self.variance) or self.variance < 0.0:
            raise InvalidParams(f"variance must be finite and >= 0, got {self.variance}")

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Draw n samples (or one if n is None) with the stored mean shape."""
        mean = np.asarray(self.mean, dtype=float)
        shape = mean.shape if n is None else (n, *mean.shape)
        return mean + np.sqrt(self.variance) * rng.standard_normal(shape)


@dataclass(frozen=True)
class Schedule:
    """A forward-noising schedule of kind ``"vp"`` or ``"ve"``.

    Use the ``vp_schedule`` / ``ve_schedule`` constructors; they validate
    parameters.  All time methods accept scalars or arrays in [0, T].
    """

    kind: str
    T: float
    beta_min: float = 0.0
    beta_max: float = 0.0
    sigma_min: float = 0.0
    sigma_max: float = 0.0

    @property
    def t_clip(self) -> float:
        return T_CLIP_FRACTION * self.T

    def _check_time(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        bad = ~((t >= 0.0) & (t <= self.T))  # NaN fails both comparisons
        if bad.any():
            raise TimeOutOfRange(f"t={t[bad].flat[0]} outside [0, {self.T}]")
        return t

    def beta(self, t):
        t = self._check_time(t)
        return self.beta_min + (self.beta_max - self.beta_min) * t / self.T

    def log_alpha(self, t):
        return self._log_alpha(self._check_time(t))

    def _log_alpha(self, t):
        # t: checked float times
        if self.kind == "ve":
            return np.zeros_like(t)
        return -0.25 * t**2 * (self.beta_max - self.beta_min) / self.T \
            - 0.5 * t * self.beta_min

    def dlog_alpha_dt(self, t):
        t = self._check_time(t)
        if self.kind == "ve":
            return np.zeros_like(t)
        return -0.5 * self.beta(t)

    def alpha(self, t):
        return np.exp(self.log_alpha(t))

    def sigma2(self, t):
        t = self._check_time(t)
        return self._sigma2(t, self._log_alpha(t))

    def _sigma2(self, t, la):
        # t: checked float times, la: log alpha at t
        if self.kind == "ve":
            return self.sigma_min**2 * (self.sigma_max / self.sigma_min) ** (2.0 * t / self.T)
        # 1 - alpha^2 computed as -expm1(2 log alpha) to keep precision near t=0
        return -np.expm1(2.0 * la)

    def alpha_sigma2(self, t):
        """``(alpha_t, sigma_t^2)`` from one checked lookup of log alpha_t,
        with the bits of ``alpha(t)`` and ``sigma2(t)``."""
        t = self._check_time(t)
        la = self._log_alpha(t)
        return np.exp(la), self._sigma2(t, la)

    def sigma(self, t):
        return np.sqrt(self.sigma2(t))

    def dsigma2_dt(self, t):
        if self.kind == "ve":
            return self.sigma2(t) * 2.0 * np.log(self.sigma_max / self.sigma_min) / self.T
        # d(1 - alpha^2)/dt = -2 alpha^2 dlog(alpha)/dt
        return -2.0 * np.exp(2.0 * self.log_alpha(t)) * self.dlog_alpha_dt(t)

    def g2(self, t):
        """Squared diffusion coefficient g^2(t) = dsigma^2/dt - (dlog alpha^2/dt) sigma^2."""
        return self.dsigma2_dt(t) - 2.0 * self.dlog_alpha_dt(t) * self.sigma2(t)

    def g(self, t):
        return np.sqrt(self.g2(t))

    def eta(self, t):
        """Signal-to-noise ratio alpha_t^2 / sigma_t^2 (infinite at t=0 for VP)."""
        with np.errstate(divide="ignore"):
            return np.exp(2.0 * self.log_alpha(t)) / self.sigma2(t)

    def drift(self, x, t):
        """Forward SDE drift u(x, t)."""
        rate = self.dlog_alpha_dt(t)  # checks t under either family
        if self.kind == "ve":
            return np.zeros_like(np.asarray(x, dtype=float))
        return rate * np.asarray(x, dtype=float)


def vp_schedule(beta_min: float = 0.1, beta_max: float = 20.0, T: float = 1.0) -> Schedule:
    """Variance-preserving schedule with a linear beta ramp.

    Parameters
    ----------
    beta_min, beta_max : float
        Endpoints of the linear ramp; require 0 < beta_min <= beta_max.
    T : float
        Terminal time, > 0.  alpha_T^2 must not underflow (bridges divide by it).
    """
    if not (0.0 < beta_min <= beta_max):
        raise InvalidParams(f"need 0 < beta_min <= beta_max, got {beta_min}, {beta_max}")
    if T <= 0.0:
        raise InvalidParams(f"T must be > 0, got {T}")
    s = Schedule(kind="vp", T=float(T), beta_min=float(beta_min), beta_max=float(beta_max))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge T gives alpha_T 0 or NaN
        alpha_T = float(s.alpha(s.T))
    if not alpha_T**2 >= np.finfo(float).tiny:
        raise InvalidParams(f"beta_max={beta_max} (T={T}) drives alpha_T^2 below "
                            f"{np.finfo(float).tiny:.3g}; lower beta_max or T")
    return s


def ve_schedule(sigma_min: float = 0.01, sigma_max: float = 10.0, T: float = 1.0) -> Schedule:
    """Variance-exploding schedule with geometric noise interpolation.

    Parameters
    ----------
    sigma_min, sigma_max : float
        Noise levels at t=0 and t=T; require 0 < sigma_min < sigma_max, with
        sigma_T^2 and g^2(T) finite.
    T : float
        Terminal time, > 0.
    """
    if not (0.0 < sigma_min < sigma_max):
        raise InvalidParams(f"need 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    if T <= 0.0:
        raise InvalidParams(f"T must be > 0, got {T}")
    s = Schedule(kind="ve", T=float(T), sigma_min=float(sigma_min), sigma_max=float(sigma_max))
    try:  # g^2 = sigma^2 2 log(sigma_max / sigma_min) / T grows with t, as sigma^2 does
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(s.g2(s.T))
    except OverflowError:  # sigma_min**2, a Python float
        finite = False
    if not finite:
        raise InvalidParams(f"sigma_max={sigma_max} (sigma_min={sigma_min}, T={T}) makes "
                            "sigma_T^2 or g^2(T) overflow; lower sigma_max")
    return s


def transition(s: Schedule, x0: np.ndarray, t: float) -> GaussianParams:
    """Gaussian forward transition p(x_t | x_0) = N(alpha_t x_0, sigma_t^2 I)."""
    a, s2 = map(float, s.alpha_sigma2(float(np.asarray(t, dtype=float))))
    return GaussianParams(mean=a * np.asarray(x0, dtype=float), variance=s2)


def _refuse_terminal(s: Schedule, t) -> None:
    """Refuse times past ``T - t_clip``, the float ``bridge_grid`` starts at;
    h and the bridge weights are singular at T."""
    if np.any(np.asarray(t) > s.T - s.t_clip):
        raise SingularAtTerminal(f"t={np.max(t)} is within t_clip={s.t_clip} of T={s.T}")


def _h_denominator(s: Schedule, t) -> tuple[np.ndarray, np.ndarray]:
    """Return (alpha_t / alpha_T, (alpha_t/alpha_T)^2 sigma_T^2 - sigma_t^2)
    at a time or, elementwise, at an array of times."""
    ratio = np.exp(s.log_alpha(t) - s.log_alpha(s.T))
    return ratio, ratio**2 * s.sigma2(s.T) - s.sigma2(t)


def grad_log_transition_h(s: Schedule, x_t: np.ndarray, x_T: np.ndarray,
                          t: float) -> np.ndarray:
    """Gradient in x_t of log p(x_T | x_t): the drift adjustment h.

    For the VP family this is ``((alpha_t/alpha_T) x_T - x_t) /
    (sigma_t^2 (eta_t/eta_T - 1))``; the VE family reduces to
    ``(x_T - x_t) / (sigma_T^2 - sigma_t^2)``.  Singular at the terminal
    time: times past ``T - t_clip`` are refused.
    """
    t = float(t)
    if t < 0.0 or t > s.T:
        raise TimeOutOfRange(f"t={t} outside [0, {s.T}]")
    _refuse_terminal(s, t)
    ratio, denom = _h_denominator(s, t)
    return (ratio * np.asarray(x_T, dtype=float) - np.asarray(x_t, dtype=float)) / denom


def bridge_kernel(s: Schedule, x0: np.ndarray, x_T: np.ndarray, t: float) -> GaussianParams:
    """Marginal of the bridge pinned at (x_0, 0) and (x_T, T).

    Returns ``N(r_t (alpha_t/alpha_T) x_T + alpha_t (1 - r_t) x_0,
    sigma_t^2 (1 - r_t) I)`` with ``r_t = eta_T / eta_t``; the VE case
    reduces to the familiar Brownian-bridge mixing ``r_t = sigma_t^2 /
    sigma_T^2``.  Exact at both endpoints.
    """
    a_t, a_T, s2_t, r = bridge_coefficients(s, t)
    mean = r * (a_t / a_T) * np.asarray(x_T, dtype=float) \
        + a_t * (1.0 - r) * np.asarray(x0, dtype=float)
    return GaussianParams(mean=mean, variance=max(s2_t * (1.0 - r), 0.0))


def bridge_coefficients(s: Schedule, t: float) -> tuple[float, float, float, float]:
    """``(alpha_t, alpha_T, sigma_t^2, r_t)`` of the pinned bridge at time t,
    with mixing weight ``r_t = eta_T / eta_t``; t must lie in [0, T]."""
    a_t, s2_t = map(float, s.alpha_sigma2(float(t)))
    a_T, s2_T = map(float, s.alpha_sigma2(s.T))
    return a_t, a_T, s2_t, (a_T**2 * s2_t) / (a_t**2 * s2_T)


def bridge_forward_drift(s: Schedule, x_t: np.ndarray, x_T: np.ndarray,
                         t: float) -> np.ndarray:
    """Drift of the forward bridge SDE: u(x_t, t) + g^2(t) h(x_t, x_T, t)."""
    h = grad_log_transition_h(s, x_t, x_T, t)
    return s.drift(x_t, t) + float(s.g2(t)) * h
