"""Closed-form score fields for Gaussian-mixture data.

A mixture of isotropic Gaussians stays a mixture under either schedule's
Gaussian transition: component i with weight w_i, mean m_i and variance v_i
becomes weight w_i, mean alpha_t m_i and variance alpha_t^2 v_i + sigma_t^2.
Scores and log-densities therefore have exact expressions, evaluated here
with max-shifted log-sum-exp for stability.

Both are two matrix products over the flat (n, d) rows x and (K, d) means
M, and build no (n, K, d) array.  The squared distances are
``|x|^2 - 2 a x.m_i + a^2 |m_i|^2``, with the cross terms ``x @ M^T``
taken once on the unscaled means and scaled by each row's alpha_t; row
times add only (rows, K) coefficient arrays, computed once per run of
equal times.  With the
responsibilities gamma, the score is ``a (gamma/v) @ M - x sum_i
gamma_i/v_i``.  Two rules make a batch row round as the same lone state:
a lone row runs as two equal rows, since numpy would hand a one-row
product to gemv, which sums in a different order from gemm; and both
operands of each product are C-contiguous, since a transposed view makes
gemm's bits depend on the number of rows.  With them a row keeps its
bits at any batch size for 2-D points and for the grid mixtures
checked (K = 8 on C4 5x5 and 6x6, K = 16 on D4 8x8, flip_v 4x6),
which is what frame averages and the NLL's grouped divergence calls rely
on.  It is not so for every (d, K): with K = 16 on 6x6 and 7x7 grids
every batch size tried, and on 5x5 some, round a row differently from a
2048-row call in the last bits, as the gemm takes another kernel path.

Symmetrizing a mixture over a finite isometry group produces an invariant
density, whose score is then exactly equivariant; this is the analytic
ground truth the rest of the toolkit is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCoupling, InvalidParams, TimeOutOfRange
from .groups import IsometryGroup, _WorkArrays
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

    @cached_property
    def dim(self) -> int:
        return int(np.prod(self.event_shape))

    @cached_property
    def _log_weights(self) -> np.ndarray:
        return np.log(self.weights)

    @cached_property
    def _flat_means(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # C-contiguous (K, d) and (d, K) operands, as the module docstring
        # requires, and the squared norms of the means
        flat = np.ascontiguousarray(self.means.reshape(len(self.weights), -1))
        return flat, np.ascontiguousarray(flat.T), (flat * flat).sum(axis=1)

    @cached_property
    def _work(self) -> _WorkArrays:
        # diffused_score's (rows, K) log-terms, and its (rows, d) product,
        # which shares its array with a transposed copy of the log-terms
        return _WorkArrays()

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


def _log_terms(m: GaussianMixture, s: Schedule, x, t, work=None):
    """The log-terms of the diffused mixture at the rows of x.

    Returns ``(x2d, lr, a, v, n, single)``: the rows as a C-contiguous
    (rows, d) array, ``lr[r, i] = log w_i N(x_r; a_r m_i, v_ri I)``, the
    row scales a and variances v (a (1, 1) / (1, K) pair for a shared t,
    (n, 1) / (n, K) for row times), the number n of input rows and
    whether x was a lone state.  A lone state runs as two equal rows; the
    callers keep the first n rows.  With ``work`` (``_WorkArrays``), lr is
    one of its arrays.
    """
    x2d, single = _flat(x, m.event_shape)
    n = len(x2d)
    t = np.asarray(t, dtype=float)
    if t.ndim > 1 or (t.ndim == 1 and t.shape != (n,)):
        raise InvalidParams(f"t must be a scalar or have shape ({n},), got {t.shape}")
    t = t.reshape(-1, 1)  # one shared time, or one per row
    runs = None
    if len(t) > 1:
        # row times come in runs (a frame average tiles them, and an NLL
        # groups recorded states): each coefficient row is computed once
        # per run, by the same operations, and then repeated
        first = np.flatnonzero(np.concatenate(([True], t[1:, 0] != t[:-1, 0])))
        runs = np.diff(first, append=n)
        t = t[first]
    _, flat_t, sq = m._flat_means
    a, s2 = s.alpha_sigma2(t)  # one checked schedule lookup
    v = a * a * m.variances + s2
    shift = 0.5 * a * sq
    norm = m._log_weights - 0.5 * m.dim * np.log(2.0 * np.pi * v)
    if runs is not None and len(runs) < n:
        a, v, shift, norm = (np.repeat(c, runs, axis=0) for c in (a, v, shift, norm))
    if n == 1:
        x2d = np.concatenate([x2d, x2d])
    x2d = np.ascontiguousarray(x2d)
    # |x - a m_i|^2 = |x|^2 - 2 a x.m_i + a^2 |m_i|^2, built in place in
    # the (rows, K) product (fresh temporaries of that size cost page
    # faults); rounding is at the scale of |x|^2, which test_oracle
    # bounds far from the means
    lr = np.matmul(x2d, flat_t, out=None if work is None
                   else work.get("lr", (len(x2d), len(m.weights))))
    lr -= shift
    lr *= a
    lr -= 0.5 * np.einsum("ij,ij->i", x2d, x2d)[:, None]
    lr /= v
    lr += norm
    return x2d, lr, a, v, n, single


def diffused_score(m: GaussianMixture, s: Schedule, x: np.ndarray, t,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Exact score of the time-t diffused mixture at x.

    Accepts a single point or a batch (leading axis), and t as one time
    or as an (n,) array with one time per batch row.  Valid for any t in
    [0, T]: component variances are strictly positive, so the t=0 limit
    is the data-mixture score.  With ``out``, a C-contiguous float64
    array of the result's shape, the score is written there and ``out``
    returned, with the same bits.  The (rows, K) and (rows, d) work
    arrays are kept on the mixture between calls, so one mixture is not
    scored from two threads at once.
    """
    work = m._work
    x2d, lr, a, v, n, single = _log_terms(m, s, x, t, work)
    shape = m.event_shape if single else (n, *m.event_shape)
    if out is not None and (not isinstance(out, np.ndarray) or out.shape != shape
                            or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise InvalidParams(f"out must be a C-contiguous float64 array of shape "
                            f"{shape}")
    # the row maxima, taken down the columns of a transposed copy: a max
    # along the short rows of lr costs ~80 ns per row, and max is exact.
    # The copy is dead before the (rows, d) product is written, so the
    # two share one work array
    lr_t = work.get("rows", lr.shape[::-1])
    np.copyto(lr_t, lr.T)
    lr -= lr_t.max(axis=0)[:, None]
    pull = np.exp(lr, out=lr)
    pull /= pull.sum(axis=1, keepdims=True)
    pull /= v
    # sum_i (gamma_i / v_i) (a m_i - x) as a second product with the means
    score = np.matmul(pull, m._flat_means[0],
                      out=None if out is None or single else out.reshape(n, -1))
    score *= a
    score -= np.multiply(x2d, pull.sum(axis=1, keepdims=True),
                         out=work.get("rows", x2d.shape))
    score = score[:n].reshape(-1, *m.event_shape)
    if out is None:
        return score[0] if single else score
    if single:
        out[...] = score[0]
    return out


def log_density(m: GaussianMixture, s: Schedule, x: np.ndarray, t) -> np.ndarray:
    """Exact log-density of the time-t diffused mixture at x (t in [0, T]);
    t is one time or an (n,) array of row times, as in diffused_score."""
    _, lr, _, _, n, single = _log_terms(m, s, x, t)
    shift = lr.max(axis=1, keepdims=True)
    out = (np.log(np.exp(lr - shift).sum(axis=1)) + shift[:, 0])[:n]
    return float(out[0]) if single else out


class AnalyticScoreField:
    """Callable (x, t) -> score bound to a fixed mixture and schedule."""

    def __init__(self, mixture: GaussianMixture, schedule: Schedule):
        self.mixture = mixture
        self.schedule = schedule

    def __call__(self, x: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
        return diffused_score(self.mixture, self.schedule, x, t, out=out)

    def log_density(self, x: np.ndarray, t):
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
    score is undefined for zero variance.  The time is one scalar shared
    by every row; an array of row times raises InvalidParams.
    """
    if np.ndim(t) != 0:
        raise InvalidParams(f"the bridge score takes one scalar time t, "
                            f"got shape {np.shape(t)}")
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
