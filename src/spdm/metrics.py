"""Likelihoods, sample-quality metrics and PDE residual checks.

The log-likelihood follows the probability-flow identity
``log p_0(x_0) = log p_T(x_T) + int_0^T div f(x_t, t) dt`` along the
PF-ODE trajectory, with the divergence taken either by exact central
differences per coordinate or by a Hutchinson estimator with Rademacher
probes, every perturbed state of a recorded step in one batched field
call (``_div_eval``).  The prior term uses the schedule's terminal Gaussian
N(0, sigma_T^2 I); for the default VP constants the neglected alpha_T x_0
mean bias is of order 7e-3 |x_0| in state space and far below the 1e-2
nats/dim tolerance used by the likelihood checks.

Frechet machinery: features are a fixed seeded random tanh projection
(a desk-scale stand-in for a pretrained feature extractor).  Covariances
use the 1/N convention so that group-averaged statistics equal the
statistics of the explicitly augmented dataset.  The group-averaged
reference statistics average the per-orientation means and raw second
moments with equal weight 1/|G| and re-derive the covariance about the
averaged mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonPsd, ShapeMismatch
from .groups import IsometryGroup, _move_blocks, apply_elements
from .process import Schedule
from .sampling import TimeGrid, _flow_drift, _integrate


# ---- divergence and likelihood ------------------------------------------


_DIV_BATCH_ENTRIES = 2**16  # state entries (rows x d) per field call
# Consecutive recorded states of an NLL share a divergence call while their
# perturbed rows hold at most this many entries: 4 states of one 2-D point
# under 64 probes.  Larger calls stopped paying and raised the peak resident
# set with their per-row-time work arrays; a grid state (one exact_fd 8x8
# point is 8192 entries) is never regrouped, as larger gemms were slower.
_DIV_GROUP_ENTRIES = 2**10


def divergence(field, x: np.ndarray, t: float, mode: str = "exact_fd",
               probes: int = 64, seed: int = 0) -> float:
    """Divergence of a vector field at one state x (estimators: ``_div_eval``).

    ``field(y, t)`` is called once, on a batch of states shaped like ``x``.
    """
    x = np.asarray(x, dtype=float)
    return float(_div_eval(field, x[None, None], [t], mode, probes, seed)[0, 0])


@dataclass
class NllReport:
    """Per-sample likelihoods from the PF-ODE integral."""

    log_likelihood: np.ndarray
    bits_per_dim: np.ndarray
    div_mode: str
    steps: int


def pf_ode_nll(score, s: Schedule, x0: np.ndarray, grid: TimeGrid,
               div_mode: str = "exact_fd", probes: int = 64, seed: int = 0,
               dequant_offset: float = 0.0) -> NllReport:
    """Log-likelihood of data points under the PF-ODE flow of a score field.

    ``x0`` is a batch of states along its leading axis, each in the shape
    the score takes (a grid state is passed as ``x[None]``), or one 1-D
    state.  Integrates dx = [u - g^2 s / 2] dt forward along an ascending
    grid with Heun steps, takes the divergence integral over the recorded
    states by the trapezoid rule (the divergence at grid index j uses seed
    ``seed + j``), then adds the terminal Gaussian log-density
    log N(x_T; 0, sigma_T^2 I).  Consecutive recorded states whose
    perturbed rows together hold at most ``_DIV_GROUP_ENTRIES`` entries
    share one field call (``_div_eval``).

    ``dequant_offset`` is added to bits-per-dim when discrete data was
    dequantized; desk-scale data is continuous so the default is 0.
    """
    if grid.n_steps < 1:
        raise InvalidParams("NLL integration needs at least one step")
    if grid.descending:
        raise InvalidParams("NLL integration needs an ascending grid")
    x0 = np.asarray(x0, dtype=float)
    xs = x0.reshape(1, -1) if x0.ndim < 2 else x0
    if len(xs) == 0:
        raise InvalidParams("NLL integration needs at least one state")
    n, d = len(xs), xs[0].size
    group = max(1, _DIV_GROUP_ENTRIES // (2 * _n_directions(div_mode, probes, d) * d * n))
    f, _ = _flow_drift(score, s, grid, 0.5)
    states = _integrate(f, grid, xs, heun=True)
    times = grid.times
    divs = np.empty((grid.n_steps + 1, n))
    for lo in range(0, len(divs), group):
        hi = min(lo + group, len(divs))
        divs[lo:hi] = _div_eval(f, states[lo:hi], range(lo, hi), div_mode, probes,
                                seed + lo)
    integral = np.cumsum(0.5 * np.diff(times)[:, None] * (divs[:-1] + divs[1:]),
                         axis=0)[-1]
    s2_T = float(s.sigma2(s.T))
    log_prior = -0.5 * d * np.log(2.0 * np.pi * s2_T) \
        - 0.5 * np.sum(states[-1].reshape(n, d)**2, axis=1) / s2_T
    ll = log_prior + integral
    bpd = -ll / (d * np.log(2.0)) + dequant_offset
    return NllReport(log_likelihood=ll, bits_per_dim=bpd,
                     div_mode=div_mode, steps=grid.n_steps)


def _n_directions(mode, probes, d) -> int:
    if mode == "exact_fd":
        return d
    if mode == "hutchinson":
        if probes < 1:
            raise InvalidParams(f"hutchinson needs probes >= 1, got {probes}")
        return probes
    raise InvalidParams(f"unknown divergence mode {mode!r}")


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, with the bits of
    ``np.linalg.norm(row)``: the square root of one dot product per row.
    The ``axis=-1`` form sums the squares in another order."""
    x = np.ascontiguousarray(x, dtype=float)
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def _div_eval(f, states, ts, mode, probes, seed):
    """Divergence of the field ``f(y, t)`` at every point of m states.

    ``states`` is a stack (m, n, *event) of m states of n points each, in
    the shape ``f`` takes; state j is at time ``ts[j]`` and draws its probes
    with seed ``seed + j``.  Returns the (m, n) divergences.  ``exact_fd``
    sums central differences of step 1e-5 (1 + |x_i|) along each coordinate
    e_i; ``hutchinson`` averages v . (J v) over the probes
    ``default_rng(seed + j).choice([-1, 1], (probes, d))``, step
    1e-5 (1 + |x|).  The perturbed points x +- h v of every state go to
    ``f`` together, in calls of whole points of at most
    ``_DIV_BATCH_ENTRIES`` entries (or one point): a lone state with its
    scalar time, several states with the time of its state on every row.
    Terms are summed in sequential order, so neither chunking nor grouping
    moves a bit when ``f`` rounds a row alike in any batch.
    """
    states = np.asarray(states, dtype=float)
    (m, n), event = states.shape[:2], states.shape[2:]
    xs = states.reshape(m, n, -1)
    d = xs.shape[2]
    k = _n_directions(mode, probes, d)
    if mode == "exact_fd":
        h, v = 1e-5 * (1.0 + np.abs(xs)), np.eye(k)[None, None]
    else:
        h = (1e-5 * (1.0 + _row_norms(xs.reshape(-1, d)))).reshape(m, n, 1)
        v = np.stack([np.random.default_rng(seed + j).choice([-1.0, 1.0], size=(k, d))
                      for j in range(m)])[:, None]
    chunk = max(1, _DIV_BATCH_ENTRIES // (2 * k * d * m))
    terms = np.empty((m, n, k))
    for lo in range(0, n, chunk):
        hc = h[:, lo:lo + chunk, :, None]
        x, step = xs[:, lo:lo + chunk, None], hc * v
        rows = np.stack([x + step, x - step], axis=1)
        t = ts[0] if m == 1 else np.repeat(ts, rows[0].size // d)
        out = np.asarray(f(rows.reshape(-1, *event), t), dtype=float).reshape(rows.shape)
        jv = (out[:, 0] - out[:, 1]) / (2.0 * hc)
        terms[:, lo:lo + chunk] = np.diagonal(jv, axis1=2, axis2=3) \
            if mode == "exact_fd" else np.sum(v * jv, axis=-1)
    total = np.cumsum(terms, axis=-1)[..., -1]
    return total if mode == "exact_fd" else total / probes


# ---- feature statistics and Frechet distances ---------------------------


@dataclass(frozen=True)
class FeatureSpec:
    """Seeded random tanh projection x -> tanh(W x + b), W: (dim_out, dim_in)."""

    dim_in: int
    dim_out: int = 64
    seed: int = 7

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(x.shape[0], -1) if x.ndim > 1 else x.reshape(1, -1)
        if flat.shape[1] != self.dim_in:
            raise ShapeMismatch(f"expected flattened dim {self.dim_in}, got {flat.shape[1]}")
        rng = np.random.default_rng(self.seed)
        w = rng.standard_normal((self.dim_out, self.dim_in)) / np.sqrt(self.dim_in)
        b = 0.1 * rng.standard_normal(self.dim_out)
        return np.tanh(flat @ w.T + b)


@dataclass
class FeatureStats:
    """Mean and covariance (1/N convention) of a feature cloud."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    @classmethod
    def from_features(cls, f: np.ndarray) -> "FeatureStats":
        f = np.atleast_2d(np.asarray(f, dtype=float))
        mu = f.mean(axis=0)
        c = (f - mu).T @ (f - mu) / f.shape[0]
        return cls(mean=mu, cov=0.5 * (c + c.T), count=f.shape[0])


def _psd_sqrt(a: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if np.min(vals) < -tol:
        raise NonPsd(f"matrix has eigenvalue {np.min(vals)} below -{tol}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: FeatureStats, b: FeatureStats) -> float:
    """Frechet distance ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}).

    The square-root trace is evaluated on the symmetrized product
    S_a^{1/2} S_b S_a^{1/2} by eigen-decomposition.  Eigenvalues at or
    below ``len(vals) * eps * max(vals)`` (the ``matrix_rank`` rule) are
    rounding noise and count as zero, so that their square roots do not
    turn last-bit changes of the samples into 7th-digit moves.
    """
    if a.mean.shape != b.mean.shape:
        raise ShapeMismatch("feature dimensions differ")
    return _frechet(a, b, _psd_sqrt(a.cov))


def _frechet(a: FeatureStats, b: FeatureStats, ra: np.ndarray) -> float:
    """``frechet_distance(a, b)`` given ra = S_a^{1/2}."""
    mid = ra @ b.cov @ ra
    vals = np.linalg.eigvalsh(0.5 * (mid + mid.T))
    if np.min(vals) < -1e-6:
        raise NonPsd(f"product matrix has eigenvalue {np.min(vals)} below -1e-6")
    cut = len(vals) * np.finfo(float).eps * max(float(np.max(vals)), 0.0)
    tr_sqrt = float(np.sum(np.sqrt(np.where(vals > cut, vals, 0.0))))
    d2 = float(np.sum((a.mean - b.mean) ** 2)
               + np.trace(a.cov) + np.trace(b.cov) - 2.0 * tr_sqrt)
    return max(d2, 0.0)


def dataset_stats(dataset: np.ndarray, spec: FeatureSpec) -> FeatureStats:
    """Feature statistics T(D) of a dataset (leading axis indexes samples)."""
    return FeatureStats.from_features(spec.project(dataset))


def group_averaged_stats(dataset: np.ndarray, group: IsometryGroup,
                         spec: FeatureSpec) -> FeatureStats:
    """Reference statistics averaged over all orientations of the dataset:
    the plain statistics of the augmented dataset, every orientation k D
    stacked with equal weight (1/N covariance convention)."""
    dataset = np.asarray(dataset, dtype=float)
    if dataset.shape[0] == 0:
        raise InvalidParams("dataset must be nonempty")
    orbit = _move_blocks(group, dataset[None], np.arange(len(group)))
    return dataset_stats(orbit.reshape(-1, *dataset.shape[1:]), spec)


def inv_fid(dataset: np.ndarray, group: IsometryGroup, spec: FeatureSpec) -> float:
    """Invariance FID: the worst Frechet distance between two orientations.

    Zero for a perfectly G-invariant sample set; large when the set is
    concentrated in one orientation.  Pairs are unordered since the
    distance is symmetric.
    """
    if len(group) < 2:
        raise InvalidParams("inv_fid needs a group with at least 2 elements")
    orbit = _move_blocks(group, np.asarray(dataset, dtype=float)[None],
                         np.arange(len(group)))
    stats = [dataset_stats(moved, spec) for moved in orbit]
    worst = 0.0
    for i in range(len(stats) - 1):
        ra = _psd_sqrt(stats[i].cov)  # one square root per orientation
        for j in range(i + 1, len(stats)):
            worst = max(worst, _frechet(stats[i], stats[j], ra))
    return worst


def delta_x0_moves(inputs: np.ndarray, group: IsometryGroup,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The moved inputs of a δx0 probe and the element ids that moved them.

    Input i is moved by the non-identity element ``elements[ids[i]]``,
    ``ids = 1 + rng.integers(len(group) - 1, size=n)`` drawn in one call.
    """
    if len(group) < 2:
        raise InvalidParams("delta_x0 needs a group with at least 2 elements")
    inputs = np.asarray(inputs, dtype=float)
    ids = 1 + rng.integers(len(group) - 1, size=len(inputs))
    return apply_elements(group, ids, inputs), ids


def delta_x0_from_ends(ends: np.ndarray, moved_ends: np.ndarray,
                       group: IsometryGroup, ids: np.ndarray) -> float:
    """Mean over inputs of the largest absolute entry of
    m(k_i x_i) - k_i m(x_i), given the ends m(x_i), the moved ends
    m(k_i x_i) and the ids of the k_i (see ``delta_x0_moves``)."""
    ends = np.asarray(ends)
    gaps = np.abs(np.asarray(moved_ends) - apply_elements(group, ids, ends))
    return float(np.mean(np.max(gaps.reshape(len(ends), -1), axis=1)))


def delta_x0_gap(model, inputs: np.ndarray, group: IsometryGroup,
                 rng: np.random.Generator) -> float:
    """Mean worst-entry equivariance gap of a batched map on its inputs.

    ``model`` maps a batch of states (rows along the leading axis) to a
    batch of the same shape, and is called twice: on the inputs and on the
    moved inputs.  Input i is moved by a non-identity element k_i drawn by
    ``delta_x0_moves``, and its gap is the largest absolute entry of
    m(k_i x_i) - k_i m(x_i), in the data's native scale.  Returns the mean
    of the gaps over the inputs (``delta_x0_from_ends``).
    """
    moved, ids = delta_x0_moves(inputs, group, rng)
    ends = model(np.asarray(inputs, dtype=float))
    return delta_x0_from_ends(ends, model(moved), group, ids)


# ---- two-sample testing --------------------------------------------------


_ENERGY_BLOCK_ROWS = 64  # distance rows held at once by the energy test


def energy_distance_test(a: np.ndarray, b: np.ndarray, permutations: int = 99,
                         seed: int = 0) -> tuple[float, float]:
    """Energy-distance two-sample test with a permutation p-value.

    The statistic is ``2 E||a-b|| - E||a-a'|| - E||b-b'||`` in V-statistic
    form; the p-value counts permuted label splits whose statistic is at
    least the observed one, with the +1 correction.  Each permutation
    costs one matrix-vector product against the pooled distance matrix,
    which is built and used in blocks of ``_ENERGY_BLOCK_ROWS`` rows, so
    memory grows with the pooled size times (block rows + permutations),
    not with its square.
    """
    if permutations < 0:
        raise InvalidParams(f"permutations must be >= 0, got {permutations}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidParams("both sample sets must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch("sample dimensions differ")
    n, m = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b], axis=0)

    # All label assignments are packed into one indicator matrix so the
    # permutation sweep costs one matrix product per block of distance
    # rows.  Column 0 is the observed labeling.
    rng = np.random.default_rng(seed)
    z = np.zeros((n + m, permutations + 1))
    z[:n, 0] = 1.0
    for k in range(1, permutations + 1):
        z[rng.permutation(n + m)[:n], k] = 1.0
    # block rows of the distance matrix, |x|^2 + |y|^2 - 2 x.y clipped at 0
    # and exactly 0 from a point to itself, built in two arrays that every
    # block reuses
    sq = np.sum(pooled**2, axis=1)
    block = min(_ENERGY_BLOCK_ROWS, n + m)
    dist, sums = np.empty((block, n + m)), np.empty((block, n + m))
    row_tot, dz = np.empty(n + m), np.empty((n + m, permutations + 1))
    for lo in range(0, n + m, block):
        hi = min(lo + block, n + m)
        d_b = np.matmul(pooled[lo:hi], pooled.T, out=dist[:hi - lo])
        d_b *= 2.0
        np.subtract(np.add(sq[lo:hi, None], sq[None, :], out=sums[:hi - lo]), d_b,
                    out=d_b)
        np.maximum(d_b, 0.0, out=d_b)
        np.fill_diagonal(d_b[:, lo:hi], 0.0)
        np.sqrt(d_b, out=d_b)
        row_tot[lo:hi] = d_b.sum(axis=1)
        np.matmul(d_b, z, out=dz[lo:hi])
    s_tot = float(row_tot.sum())
    s_aa = np.einsum("ik,ik->k", z, dz)
    s_ab = row_tot @ z - s_aa
    s_bb = s_tot - 2.0 * s_ab - s_aa
    stats = 2.0 * s_ab / (n * m) - s_aa / n**2 - s_bb / m**2
    obs = float(stats[0])
    hits = int(np.sum(stats[1:] >= obs))
    p = (1.0 + hits) / (1.0 + permutations)
    return obs, p


# ---- Fokker-Planck / Liouville residual ---------------------------------


@dataclass
class FpResidual:
    """Interior residual field with its max-abs and root-mean-square norms."""

    residual: np.ndarray
    max_abs: float
    rms: float
    xs: np.ndarray
    ys: np.ndarray


def fokker_planck_residual(p_t, f, g, t: float, grid2d, dt: float = 1e-4) -> FpResidual:
    """Residual of dp/dt + div(p f) - (g^2 / 2) Laplacian(p) on a 2-D grid.

    Parameters
    ----------
    p_t : callable (points (..., 2), t) -> densities (...)
    f : callable (points (..., 2), t) -> vector field (..., 2), or None
        for a drift-free process.
    g : float or callable t -> float
        Diffusion coefficient (0 gives the Liouville equation).
    t : float
    grid2d : (xs, ys)
        1-D axes with uniform spacing; the residual is reported on the
        interior nodes.
    dt : float
        Half-width of the central time difference.

    Spatial derivatives use second-order central differences on the grid.
    """
    xs, ys = (np.asarray(v, dtype=float) for v in grid2d)
    hx = float(xs[1] - xs[0])
    hy = float(ys[1] - ys[0])
    if (np.max(np.abs(np.diff(xs) - hx)) > 1e-12 * max(1.0, abs(hx))
            or np.max(np.abs(np.diff(ys) - hy)) > 1e-12 * max(1.0, abs(hy))):
        raise InvalidParams("grid axes must be uniformly spaced")
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx, gy], axis=-1)

    p_now = np.asarray(p_t(pts, t), dtype=float)
    dp_dt = (np.asarray(p_t(pts, t + dt), dtype=float)
             - np.asarray(p_t(pts, t - dt), dtype=float)) / (2.0 * dt)

    interior = np.s_[1:-1, 1:-1]
    resid = dp_dt[interior].copy()

    if f is not None:
        vf = np.asarray(f(pts, t), dtype=float)
        pf = p_now[..., None] * vf
        div = (pf[2:, 1:-1, 0] - pf[:-2, 1:-1, 0]) / (2.0 * hx) \
            + (pf[1:-1, 2:, 1] - pf[1:-1, :-2, 1]) / (2.0 * hy)
        resid += div

    g_val = float(g(t)) if callable(g) else float(g)
    if g_val != 0.0:
        lap = (p_now[2:, 1:-1] - 2.0 * p_now[1:-1, 1:-1] + p_now[:-2, 1:-1]) / hx**2 \
            + (p_now[1:-1, 2:] - 2.0 * p_now[1:-1, 1:-1] + p_now[1:-1, :-2]) / hy**2
        resid -= 0.5 * g_val**2 * lap
    return FpResidual(residual=resid,
                      max_abs=float(np.max(np.abs(resid))),
                      rms=float(np.sqrt(np.mean(resid**2))),
                      xs=xs, ys=ys)
