"""Closed-form score fields for Gaussian-mixture data.

A mixture of isotropic Gaussians stays a mixture under either schedule's
Gaussian transition: component i with weight w_i, mean m_i and variance v_i
becomes weight w_i, mean alpha_t m_i and variance alpha_t^2 v_i + sigma_t^2.
Scores and log-densities therefore have exact expressions, evaluated here
with max-shifted log-sum-exp for stability.

Both are two matrix products over the flat (n, d) rows x and the (K, d)
means M, and build no (n, K, d) array.  The squared distances are
``|x|^2 - 2 a x.m_i + a^2 |m_i|^2``, with the cross terms ``x @ M^T``
taken once on the unscaled means and scaled by each row's alpha_t; row
times add only (rows, K) coefficient arrays, computed once per run of
equal times.  With the responsibilities gamma, the score is
``a (gamma/v) @ M - x sum_i gamma_i/v_i``.

The frame average over a finite isometry group G is the same two
products on more columns.  For an isometry k, k^-1 s_M(k x) = s_{k^-1 M}(x),
where k^-1 M moves every mean by k^-1, so the average mean_k k^-1 s(k x)
is the mean of the |G| oracles of the moved mixtures, all taken at x
itself: one product against the moved means, a softmax within each block
of K columns, and one product back with the moved means, which also sums
over the blocks.  Elements in one coset of M's stabiliser move M to the
same mixture, so only the distinct moved mixtures are kept, one block
each: a symmetrized mixture keeps one block, M itself, and its average is
the plain oracle, bit for bit.  The plain oracle is the one-block case.

Three rules make a batch row round as the same lone state.  A lone row
runs as two equal rows, since numpy would hand a one-row product to gemv,
which sums in a different order from gemm.  Both operands of each product
are C-contiguous, since a transposed view makes gemm's bits depend on the
number of rows.  And the means of the product back carry zero columns up
to a multiple of 8, since with 16 or more columns to sum gemm rounds the
rows of an output of another width by batch size.  With these rules a
row kept its bits at every batch size checked, 1 to 2048 rows, for 2-D
points with K up to 96, for the grids checked (3x3 to 8x8, K up to 64) and
for frame averages of symmetrized mixtures (one block), which is what the
NLL's grouped divergence calls rely on.  Averages of unsymmetrized
mixtures of 512 columns or more (|G| K, as D4 8x8 at K = 64 or D4 points
at K = 96) round rows of some batches of 64 rows or more differently.

Symmetrizing a mixture over a finite isometry group produces an invariant
density, whose score is then exactly equivariant; this is the analytic
ground truth the rest of the toolkit is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCoupling, InvalidParams, ShapeMismatch, TimeOutOfRange
from .groups import FrameAveragedField, IsometryGroup, _move_blocks, _WorkArrays
from .process import GaussianParams, Schedule, bridge_coefficients

_WEIGHT_ATOL = 1e-12


class _Components(NamedTuple):
    """The columns the score's products read: ``blocks`` blocks of the K
    components, each block with its own means.  The plain mixture is one
    block; its orbit under a group has one block k^-1 M per distinct moved
    mixture, from 1 (a symmetrized mixture) to |G|.  The means of the
    product back carry zero columns up to a multiple of 8 (module
    docstring)."""

    means: np.ndarray        # (blocks K, d padded to a multiple of 8), C-contiguous
    means_t: np.ndarray      # (d, blocks K), C-contiguous
    sq: np.ndarray           # (blocks K,) squared norms of the means
    log_weights: np.ndarray  # (blocks K,), each block's log w_i
    variances: np.ndarray    # (blocks K,), each block's v_i
    blocks: int


def _build_components(flat: np.ndarray, log_weights: np.ndarray,
                      variances: np.ndarray, blocks: int) -> _Components:
    # C-contiguous operands, as the module docstring requires
    flat = np.ascontiguousarray(flat)
    back = np.zeros((len(flat), -(-flat.shape[1] // 8) * 8))
    back[:, :flat.shape[1]] = flat
    return _Components(back, np.ascontiguousarray(flat.T), (flat * flat).sum(axis=1),
                       np.tile(log_weights, blocks), np.tile(variances, blocks), blocks)


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
    def _components(self) -> _Components:
        return _build_components(self.means.reshape(len(self.weights), -1),
                                 self._log_weights, self.variances, 1)

    @cached_property
    def _orbits(self) -> dict:
        # id(group) -> (group, its orbit's components); holding the group
        # keeps its id from being reused while the entry lives
        return {}

    def _orbit(self, group: IsometryGroup) -> _Components:
        """The components of the distinct moved mixtures k^-1 M, built once
        per group; ShapeMismatch unless the group acts on the event shape.

        k^-1 M is one mixture for all k in a coset of M's stabiliser, so
        each distinct one occurs |Stab| times and the mean over them is the
        mean over all |G|.  They are found by value (``_distinct_blocks``),
        with no tolerance: a mixture symmetrized over a grid group or a
        signed-permutation point group keeps block 0, M in its own order.
        At general angles the moved means round, so no copy matches (C3,
        C5) or only some do (a C2-symmetric mixture under C6); then the
        counts differ and every block stays.
        """
        hit = self._orbits.get(id(group))
        if hit is None:
            if self.event_shape != group.state_shape:
                raise ShapeMismatch(f"mixture events of shape {self.event_shape} are "
                                    f"not the states {group.state_shape} of {group.name}")
            g, size = len(group), len(self.weights)
            moved = _move_blocks(group, self.means[None], group.inverse_table).reshape(
                g, size, -1)
            stats = np.stack([self.weights, self.variances], axis=1)
            kept = _distinct_blocks(np.concatenate(
                [np.broadcast_to(stats, (g, size, 2)), moved], axis=2))
            hit = self._orbits[id(group)] = (group, _build_components(
                moved[kept].reshape(len(kept) * size, -1), self._log_weights,
                self.variances, len(kept)))
        return hit[1]

    @cached_property
    def _work(self) -> _WorkArrays:
        # diffused_score's (rows, columns) log-terms, and its (rows, d)
        # product, which shares its array with a transposed copy of the
        # log-terms
        return _WorkArrays()

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n points; shape (n, *event_shape)."""
        ks = rng.choice(len(self.weights), size=n, p=self.weights)
        eps = rng.standard_normal((n, *self.event_shape))
        return self.means[ks] + np.sqrt(self.variances[ks]).reshape(
            (n,) + (1,) * len(self.event_shape)) * eps


def _distinct_blocks(rows: np.ndarray) -> list[int]:
    """The first block of each distinct mixture in a (B, K, c) stack of
    component rows, if every distinct one occurs equally often; otherwise
    every block.

    Rows are sorted within each block and compared by value, so -0.0
    matches 0.0 and components in another order still match.  Blocks with
    equal counts have the same mean over the kept blocks as over all.
    """
    ordered = [block[np.lexsort(block.T[::-1])] for block in rows]
    kept, labels = [], []
    for j, block in enumerate(ordered):
        label = next((i for i, k in enumerate(kept) if np.array_equal(block, ordered[k])),
                     len(kept))
        if label == len(kept):
            kept.append(j)
        labels.append(label)
    counts = np.bincount(labels)
    return kept if np.all(counts == counts[0]) else list(range(len(rows)))


def symmetrize(mixture: GaussianMixture, group: IsometryGroup) -> GaussianMixture:
    """Average the mixture over the group orbit of its components.

    Each component (w, m, v) is replaced by the |G| components
    (w / |G|, k m, v); isotropic components are closed under isometries, so
    the result is an exactly G-invariant density.
    """
    g = len(group)
    moved = _move_blocks(group, mixture.means[None], np.arange(g))
    return GaussianMixture(
        weights=np.tile(mixture.weights / g, g),
        means=moved.reshape(-1, *mixture.event_shape),
        variances=np.tile(mixture.variances, g),
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


def _log_terms(m: GaussianMixture, s: Schedule, x, t, comps: _Components, work=None):
    """The log-terms of the diffused mixture at the rows of x.

    Returns ``(x2d, lr, a, v, n, single)``: the rows as a C-contiguous
    (rows, d) array, ``lr[r, j] = log w_j N(x_r; a_r m_j, v_rj I)`` for
    every column j of ``comps``, the row scales a and variances v (a
    (1, 1) / (1, columns) pair for a shared t, (rows, 1) / (rows, columns)
    for row times), the number n of input rows and whether x was a lone
    state.  A lone state runs as two equal rows; the callers keep the
    first n rows.  With ``work`` (``_WorkArrays``), lr is one of its
    arrays.
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
    a, s2 = s.alpha_sigma2(t)  # one checked schedule lookup
    v = a * a * comps.variances + s2
    shift = 0.5 * a * comps.sq
    norm = comps.log_weights - 0.5 * m.dim * np.log(2.0 * np.pi * v)
    if runs is not None and len(runs) < n:
        a, v, shift, norm = (np.repeat(c, runs, axis=0) for c in (a, v, shift, norm))
    if n == 1:
        x2d = np.concatenate([x2d, x2d])
    x2d = np.ascontiguousarray(x2d)
    # |x - a m_j|^2 = |x|^2 - 2 a x.m_j + a^2 |m_j|^2, built in place in
    # the (rows, columns) product (fresh temporaries of that size cost page
    # faults); rounding is at the scale of |x|^2, which test_oracle
    # bounds far from the means
    lr = np.matmul(x2d, comps.means_t, out=None if work is None
                   else work.get("lr", (len(x2d), len(comps.sq))))
    lr -= shift
    lr *= a
    lr -= 0.5 * np.einsum("ij,ij->i", x2d, x2d)[:, None]
    lr /= v
    lr += norm
    return x2d, lr, a, v, n, single


def diffused_score(m: GaussianMixture, s: Schedule, x: np.ndarray, t,
                   group: IsometryGroup | None = None) -> np.ndarray:
    """Exact score of the time-t diffused mixture at x.

    Accepts a single point or a batch (leading axis), and t as one time
    or as an (n,) array with one time per batch row.  Valid for any t in
    [0, T]: component variances are strictly positive, so the t=0 limit
    is the data-mixture score.  With ``group``, the score's frame average
    mean_k k^-1 s(k x, t) over the group, in closed form: the mean of the
    scores of the moved mixtures k^-1 M at x (module docstring).  The work
    arrays are kept on the mixture between calls, so one mixture is not
    scored from two threads at once.
    """
    comps = m._components if group is None else m._orbit(group)
    work = m._work
    x2d, lr, a, v, n, single = _log_terms(m, s, x, t, comps, work)
    # each block's row maxima, taken down the columns of a transposed
    # copy: a max along the short rows of lr costs ~80 ns per row, and
    # max is exact.  The copy is dead before the (rows, d) product is
    # written, so the two share one work array
    rows, blocks = len(lr), comps.blocks
    lr_t = work.get("rows", lr.shape[::-1])
    np.copyto(lr_t, lr.T)
    blocked = lr.reshape(rows, blocks, -1)
    blocked -= lr_t.reshape(blocks, -1, rows).max(axis=1).T[:, :, None]
    pull = np.exp(lr, out=lr)
    blocked /= blocked.sum(axis=2, keepdims=True)  # gamma, per block of pull
    pull /= v
    # the mean over the blocks of sum_j (gamma_j / v_j) (a m_j - x), as a
    # second product with the means, whose padding columns are dropped
    d = x2d.shape[1]
    score = np.matmul(pull, comps.means)[:, :d]
    score *= a / blocks
    score -= np.multiply(x2d, pull.sum(axis=1, keepdims=True) / blocks,
                         out=work.get("rows", x2d.shape))
    score = score[:n].reshape(-1, *m.event_shape)
    return score[0] if single else score


def log_density(m: GaussianMixture, s: Schedule, x: np.ndarray, t) -> np.ndarray:
    """Exact log-density of the time-t diffused mixture at x (t in [0, T]);
    t is one time or an (n,) array of row times, as in diffused_score."""
    _, lr, _, _, n, single = _log_terms(m, s, x, t, m._components)
    shift = lr.max(axis=1, keepdims=True)
    out = (np.log(np.exp(lr - shift).sum(axis=1)) + shift[:, 0])[:n]
    return float(out[0]) if single else out


class AnalyticScoreField:
    """Callable (x, t) -> score bound to a fixed mixture and schedule.

    With a group, the field is the score's frame average over that group
    in closed form (``diffused_score``) over the distinct moved mixtures,
    and the mixture's event shape must be the group's state shape.  On a
    mixture symmetrized over the group that is one block, so the field
    returns the plain oracle's bits at the plain oracle's cost (256 rows
    of a symmetrized D4 8x8 mixture of 32 components: 963 us per call
    over all |G| blocks, 201 us over the one, on a 2-core x86-64 host with
    one BLAS thread).  An averaged field has no log_density:
    the mean of the moved mixtures' scores is the gradient of the mean of
    their log-densities, which is not a normalized log-density.
    """

    def __init__(self, mixture: GaussianMixture, schedule: Schedule,
                 group: IsometryGroup | None = None):
        self.mixture = mixture
        self.schedule = schedule
        self.group = group
        if group is not None:
            mixture._orbit(group)  # checks the shapes and builds the moved means

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        return diffused_score(self.mixture, self.schedule, x, t, group=self.group)

    def log_density(self, x: np.ndarray, t):
        if self.group is not None:
            raise InvalidParams(f"the oracle averaged over {self.group.name} has "
                                "no log_density")
        return log_density(self.mixture, self.schedule, x, t)

    def frame_average(self, group: IsometryGroup):
        """The field's average over ``group``: in closed form for the plain
        oracle, through ``FrameAveragedField`` for an averaged one."""
        if self.group is not None:
            return FrameAveragedField(self, group)
        return AnalyticScoreField(self.mixture, self.schedule, group)


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
