"""Trainable score networks with exact manual gradients.

The network is a small tanh MLP over the concatenation of the state, an
optional conditioning vector and a fixed time embedding.  Reverse-mode
gradients are written out by hand so they can be checked against central
finite differences to 64-bit accuracy.

Two equivariance mechanisms are provided:

* weight tying (WT): every linear layer is projected onto the subspace of
  maps commuting with the group representation, so the network is exactly
  equivariant by construction.  For point data the hidden layers carry
  block-diagonal copies of the 2x2 action; this requires the action
  matrices to be signed permutations so that tanh commutes with them.
* a training-time regularizer penalizing the mismatch between
  ``s_theta(k x, t)`` and ``k s_ema(x, t)`` with a frozen EMA copy of the
  weights as the target.

Tied convolution kernels on grids are named by the ``make_group`` tag of
the grid group that fixes them (flip_v / flip_h / C4 / D4) and built by
orbit averaging of kernel positions, which reproduces the free-parameter
counts 6 (flip_h 3x3), 7 (C4 5x5) and 6 (D4 5x5).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergedLoss, InvalidParams, ShapeMismatch, UnsupportedSize
from .groups import (IsometryGroup, _WorkArrays, apply_elements,
                     equivariance_residuals, make_group)
from .process import Schedule


def time_embed(t, horizon: float) -> np.ndarray:
    """Fixed embedding (t/T, sin 2 pi t/T, cos 2 pi t/T); shape (..., 3)."""
    t = np.asarray(t, dtype=float)
    w = 2.0 * np.pi * t / horizon
    return np.stack([t / horizon, np.sin(w), np.cos(w)], axis=-1)


class Mlp:
    """Tanh MLP score network s_theta(x, [y], t) with manual gradients.

    Parameters
    ----------
    x_dim : int
        State dimension; also the output dimension.
    hidden : sequence of int
        Hidden layer widths.
    y_dim : int
        Conditioning dimension (0 for unconditional nets).
    horizon : float
        Time horizon T used by the time embedding.
    seed : int
        Initialization seed; weights are N(0, 1/fan_in), biases zero.
    tie_group : IsometryGroup, optional
        If given, every layer is projected onto the group-commuting
        subspace (weight tying).  Requires a matrix point group whose
        matrices are signed permutations and hidden widths divisible by
        the action dimension.
    """

    def __init__(self, x_dim: int, hidden=(64, 64), y_dim: int = 0,
                 horizon: float = 1.0, seed: int = 0,
                 tie_group: IsometryGroup | None = None):
        if x_dim < 1 or y_dim < 0 or horizon <= 0:
            raise InvalidParams("x_dim >= 1, y_dim >= 0, horizon > 0 required")
        self.x_dim = int(x_dim)
        self.y_dim = int(y_dim)
        self.horizon = float(horizon)
        self.hidden = tuple(int(h) for h in hidden)
        self.sizes = [self.x_dim + self.y_dim + 3, *self.hidden, self.x_dim]
        rng = np.random.default_rng(seed)
        self.weights = [
            rng.standard_normal((self.sizes[i + 1], self.sizes[i]))
            / np.sqrt(self.sizes[i])
            for i in range(len(self.sizes) - 1)
        ]
        self.biases = [np.zeros(self.sizes[i + 1]) for i in range(len(self.sizes) - 1)]
        # (start, stop, shape) of each weight, then each bias, in the
        # flat_parameters() vector
        self._layout, pos = [], 0
        for p in (*self.weights, *self.biases):
            self._layout.append((pos, pos + p.size, p.shape))
            pos += p.size
        self.tie_group = tie_group
        self._tie_index = self._tie_sign = None
        if tie_group is not None:
            self._build_tying(tie_group)
        self._work = _WorkArrays()

    # ---- weight tying ----------------------------------------------------

    def _build_tying(self, group: IsometryGroup) -> None:
        """Gather tables of the projection onto the group-commuting maps.

        Layer l maps R_in(g) = blockdiag(M_g, ..., M_g[, I_3]) on its inputs
        to R_out(g) on its outputs, M_g the 2x2 action.  Because every R(g)
        is a signed permutation, ``mean_g R_out(g)^T W R_in(g)`` picks one
        signed entry of W per element and position: entry p of the tied
        flat vector is ``sum_k sign[k, p] theta[index[k, p]] / |G|`` over
        the elements k in id order.  The products with +-1 are exact, so
        the gather equals the matrix sums bit for bit.
        """
        if group.grid_shape is not None:
            raise InvalidParams("weight tying needs a matrix point group")
        mats = group.stacked
        d = mats.shape[1]
        if self.x_dim != d or (self.y_dim not in (0, d)):
            raise InvalidParams("x (and y, if present) must carry the group action")
        if not np.all(np.isin(mats, (-1.0, 0.0, 1.0))):
            raise InvalidParams(
                "weight tying requires signed-permutation matrices so that "
                "tanh commutes with the action")
        for h in self.hidden:
            if h % d != 0:
                raise InvalidParams(f"hidden width {h} not divisible by {d}")
        # column c of M_g has its one nonzero, col_sign[g, c], in row col_row[g, c]
        col_row = np.abs(mats).argmax(axis=1)
        col_sign = np.take_along_axis(mats, col_row[:, None, :], axis=1)[:, 0, :]
        n_el = len(mats)

        def columns(width: int, trivial_tail: int):
            """Row and sign of the nonzero in each column of R(g), per element g."""
            blocks = (width - trivial_tail) // d
            rows = (np.arange(blocks)[:, None] * d + col_row[:, None, :]).reshape(n_el, -1)
            tail = np.arange(width - trivial_tail, width)
            return (np.concatenate([rows, np.broadcast_to(tail, (n_el, trivial_tail))], axis=1),
                    np.concatenate([np.tile(col_sign, blocks), np.ones((n_el, trivial_tail))],
                                   axis=1))

        reps = [columns(self.sizes[0], 3), *(columns(h, 0) for h in self.sizes[1:])]
        n_layers = len(self.weights)
        index, sign = [], []
        for layer, (start, _, (_, n_in)) in enumerate(self._layout[:n_layers]):
            (ri, si), (ro, so) = reps[layer], reps[layer + 1]
            index.append((start + ro[:, :, None] * n_in + ri[:, None, :]).reshape(n_el, -1))
            sign.append((so[:, :, None] * si[:, None, :]).reshape(n_el, -1))
        for layer, (start, _, _) in enumerate(self._layout[n_layers:]):
            ro, so = reps[layer + 1]
            index.append(start + ro)
            sign.append(so)
        self._tie_index = np.concatenate(index, axis=1)
        self._tie_sign = np.concatenate(sign, axis=1)

    def _project(self, flat: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        """The tied vector ``sum_k sign[k] flat[index[k]] / |G|``, into ``out``.

        The gathered rows are summed along the element axis in id order.
        """
        gathered = work.get("gather", self._tie_index.shape)
        np.take(flat, self._tie_index, out=gathered, mode="wrap")
        gathered *= self._tie_sign
        np.add.reduce(gathered, axis=0, out=out)
        out /= len(gathered)
        return out

    def _effective(self, flat: np.ndarray, work=None) -> np.ndarray:
        """The flat parameters the forward pass uses: tied, or ``flat`` itself.

        A tied vector goes to ``work``, or to a fresh array without one.
        """
        work = _WorkArrays() if work is None else work
        if self._tie_index is None:
            return flat
        return self._project(flat, work.get("tied", flat.shape), work)

    def _unflatten(self, flat: np.ndarray):
        """Weight and bias views of a flat parameter vector."""
        parts = [flat[a:b].reshape(shape) for a, b, shape in self._layout]
        return parts[:len(self.weights)], parts[len(self.weights):]

    def _forward_parameters(self, work):
        """Weights and biases of the forward pass; tied ones in ``work``."""
        if self._tie_index is None:
            return self.weights, self.biases
        return self._unflatten(self._effective(self.flat_parameters(), work))

    def effective_parameters(self):
        """Weights and biases actually used in the forward pass."""
        ws, bs = self._forward_parameters(_WorkArrays())
        return list(ws), list(bs)

    def free_parameter_count(self) -> int:
        """Dimension of the parameter space after tying.

        For tied nets this is the rank of the averaging projector, its
        trace: the character formula mean_g tr R_in(g) tr R_out(g) per
        layer (plus mean_g tr R_out(g) for the bias).
        """
        if self._tie_index is None:
            return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        fixed = self._tie_index == np.arange(self._tie_index.shape[1])
        return int(round(float(np.sum(self._tie_sign * fixed)) / len(self._tie_index)))

    # ---- forward / backward ---------------------------------------------

    def _features(self, x, y, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        if x.shape[1] != self.x_dim:
            raise ShapeMismatch(f"x has dim {x.shape[1]}, net expects {self.x_dim}")
        parts = [x]
        if self.y_dim:
            if y is None:
                raise ShapeMismatch("net is conditional but y is None")
            y = np.atleast_2d(np.asarray(y, dtype=float))
            if y.shape != (n, self.y_dim):
                raise ShapeMismatch(f"y has shape {y.shape}, expected ({n}, {self.y_dim})")
            parts.append(y)
        elif y is not None:
            raise ShapeMismatch("net is unconditional but y was given")
        emb = time_embed(np.broadcast_to(np.asarray(t, dtype=float), (n,)), self.horizon)
        parts.append(emb)
        return np.concatenate(parts, axis=1)

    def forward(self, x, y=None, t=0.0, want_cache: bool = False):
        """The net at the rows of x (or at one state x).

        A lone row runs as two equal rows: numpy hands a one-row product
        to gemv, which sums in another order than the gemm of a batch, so
        a lone state rounds like the same row inside a batch.  The layers
        run in the net's work arrays, and the output is a fresh array; a
        cache for ``backward`` holds fresh arrays of its own.
        """
        single = np.asarray(x).ndim == 1
        a = self._features(x, y, t)
        work = _WorkArrays() if want_cache else self._work
        ws, bs = self._forward_parameters(work)
        if len(a) == 1:
            inputs = [v[:1] for v in _layers(np.concatenate([a, a]), ws, bs, work)]
        else:
            inputs = _layers(a, ws, bs, work)
        out = inputs[-1] if want_cache else inputs[-1].copy()
        if single:
            out = out[0]
        if not want_cache:
            return out
        cache = {"inputs": inputs, "eff_weights": ws}
        return out, cache

    def __call__(self, x, *args):
        if self.y_dim:
            y, t = args
            return self.forward(x, y, t)
        (t,) = args
        return self.forward(x, None, t)

    def backward(self, cache, out_adjoint: np.ndarray) -> "MlpGrads":
        """Gradients of a scalar loss given d loss / d output (batch rows)."""
        adj = np.atleast_2d(np.asarray(out_adjoint, dtype=float))
        grad = self._flat_grad(cache["inputs"], cache["eff_weights"], adj,
                               np.empty(self._layout[-1][1]), self._work)
        return MlpGrads(*self._unflatten(grad))

    def _flat_grad(self, inputs, ws, adj, out: np.ndarray, work) -> np.ndarray:
        """Flat loss gradient (projected when tied) from the layer inputs.

        The gradient goes to ``out``; the adjoints of the hidden layers,
        and the unprojected gradient of a tied net, go to ``work``.
        """
        grad = out if self._tie_index is None else work.get("raw_grad", out.shape)
        gw, gb = self._unflatten(grad)
        for layer in range(len(ws) - 1, -1, -1):
            np.matmul(adj.T, inputs[layer], out=gw[layer])
            np.add.reduce(adj, axis=0, out=gb[layer])
            if layer > 0:
                # (adj @ W) * (1 - a**2), a the layer's tanh input
                a = inputs[layer]
                slope = np.square(a, out=work.get("slope", a.shape))
                np.subtract(1.0, slope, out=slope)
                adj = np.matmul(adj, ws[layer], out=work.get(("adjoint", layer), a.shape))
                adj *= slope
        return grad if self._tie_index is None else self._project(grad, out, work)

    # ---- parameter vector helpers ---------------------------------------

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in (*self.weights, *self.biases)])

    def set_flat_parameters(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=float)
        if v.shape != (self._layout[-1][1],):
            raise ShapeMismatch(f"parameter vector has {v.size} entries, "
                                f"expected {self._layout[-1][1]}")
        self.weights, self.biases = self._unflatten(v)

    def clone(self) -> "Mlp":
        """A copy with its own parameters and its own work arrays."""
        other = copy.copy(self)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        other._work = _WorkArrays()
        return other


def _layers(a: np.ndarray, ws, bs, work) -> list:
    """Every layer's input, the features first, and the output last.

    Layer l computes ``tanh(a @ W.T + b)`` (no tanh on the last) in the
    work array of its output.
    """
    inputs = [a]
    last = len(ws) - 1
    for layer, (w, b) in enumerate(zip(ws, bs)):
        a = np.matmul(a, w.T, out=work.get(("layer", layer), (len(a), len(b))))
        a += b
        if layer != last:
            np.tanh(a, out=a)
        inputs.append(a)
    return inputs


@dataclass
class MlpGrads:
    """Per-parameter gradients mirroring Mlp.weights / Mlp.biases."""

    weights: list
    biases: list

    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in (*self.weights, *self.biases)])


# ---- losses --------------------------------------------------------------


def _draw_t_eps(schedule: Schedule, x0: np.ndarray, rng: np.random.Generator):
    """Per-row times t ~ Uniform(t_clip, T), then noise eps ~ N(0, I)."""
    return (rng.uniform(schedule.t_clip, schedule.T, size=x0.shape[0]),
            rng.standard_normal(x0.shape))


def _diffuse(schedule: Schedule, x0: np.ndarray, t: np.ndarray, eps: np.ndarray):
    """sigma_t as a (rows, 1) column and x_t = alpha_t x0 + sigma_t eps.

    One checked schedule lookup gives both coefficients.
    """
    alpha, sigma2 = schedule.alpha_sigma2(t)
    sigma = np.sqrt(sigma2)[:, None]
    return sigma, alpha[:, None] * x0 + sigma * eps


def _mean_row_square(resid: np.ndarray, work) -> float:
    """``mean_i ||resid_i||^2``, summed as ``np.mean(np.sum(resid**2, axis=1))``."""
    square = np.square(resid, out=work.get("square", resid.shape))
    rows = np.add.reduce(square, axis=1, out=work.get("row_sums", resid.shape[:1]))
    return float(np.add.reduce(rows)) / len(rows)


def _dsm_terms(net: Mlp, params, feats, sigma, eps, out: np.ndarray) -> float:
    """Weighted DSM loss of one noisy batch; its flat gradient goes to ``out``.

    ``params`` are the (weights, biases) the forward pass uses, ``feats``
    the net inputs at x_t and ``sigma`` the (rows, 1) noise scales.  The
    passes run in the net's work arrays.
    """
    work = net._work
    inputs = _layers(feats, *params, work)
    resid = np.multiply(sigma, inputs[-1], out=work.get("resid", eps.shape))
    resid += eps
    loss = _mean_row_square(resid, work)
    # the adjoint 2 sigma resid / rows
    adj = np.multiply(np.multiply(sigma, 2.0, out=work.get("two_sigma", sigma.shape)),
                      resid, out=work.get("out_adjoint", eps.shape))
    adj /= len(feats)
    net._flat_grad(inputs, params[0], adj, out, work)
    return loss


def _move_flat(group: IsometryGroup, ids, rows: np.ndarray) -> np.ndarray:
    """Flat states (a net's view of a grid), row i moved by elements[ids[i]]."""
    shaped = rows.reshape(len(rows), *group.state_shape)
    return apply_elements(group, ids, shaped).reshape(rows.shape)


def _reg_terms(net: Mlp, params, ema: Mlp, ema_params, group, ids, feats,
               moved_feats, out: np.ndarray) -> float:
    """Equivariance penalty of one batch; its flat gradient goes to ``out``.

    ``feats`` are the EMA net's inputs at x_t, ``moved_feats`` the trained
    net's inputs at k x_t (and k y), row i moved by element ``ids[i]``.
    """
    target = _move_flat(group, ids, _layers(feats, *ema_params, ema._work)[-1])
    work = net._work
    inputs = _layers(moved_feats, *params, work)
    resid = np.subtract(inputs[-1], target, out=work.get("resid", target.shape))
    loss = _mean_row_square(resid, work)
    adj = np.multiply(resid, 2.0, out=work.get("out_adjoint", target.shape))
    adj /= len(feats)
    net._flat_grad(inputs, params[0], adj, out, work)
    return loss


def dsm_loss(net: Mlp, schedule: Schedule, batch, rng: np.random.Generator,
             y: np.ndarray | None = None):
    """Denoising score-matching loss and gradients on one batch.

    Samples t ~ Uniform(t_clip, T) and eps ~ N(0, I) per row, forms
    x_t = alpha_t x_0 + sigma_t eps, and returns the sigma^2-weighted loss
    ``mean_i || sigma_i s_theta(x_t, t) + eps_i ||^2`` with its gradients.
    """
    x0 = np.atleast_2d(np.asarray(batch, dtype=float))
    if x0.shape[0] == 0:
        raise InvalidParams("batch must be nonempty")
    t, eps = _draw_t_eps(schedule, x0, rng)
    sigma, x_t = _diffuse(schedule, x0, t, eps)
    grad = np.empty(net._layout[-1][1])
    loss = _dsm_terms(net, net._forward_parameters(net._work), net._features(x_t, y, t),
                      sigma, eps, grad)
    return loss, MlpGrads(*net._unflatten(grad))


def equivariance_regularizer(net: Mlp, ema_net: Mlp, group: IsometryGroup,
                             batch, rng: np.random.Generator, schedule: Schedule,
                             y: np.ndarray | None = None):
    """One-sample equivariance penalty against a frozen EMA target.

    For each batch row a group element k is drawn uniformly and the loss is
    ``mean_i || s_theta(k x_t, [k y], t) - k s_ema(x_t, [y], t) ||^2``.  The
    EMA branch is treated as a constant; gradients flow only through theta.
    """
    x0 = np.atleast_2d(np.asarray(batch, dtype=float))
    if x0.shape[0] == 0:
        raise InvalidParams("batch must be nonempty")
    t, eps = _draw_t_eps(schedule, x0, rng)
    _, x_t = _diffuse(schedule, x0, t, eps)
    ids = rng.integers(len(group), size=x0.shape[0])
    yk = None if y is None else _move_flat(group, ids, np.atleast_2d(y))
    grad = np.empty(net._layout[-1][1])
    loss = _reg_terms(net, net._forward_parameters(net._work), ema_net,
                      ema_net._forward_parameters(ema_net._work), group, ids,
                      ema_net._features(x_t, y, t),
                      net._features(_move_flat(group, ids, x_t), yk, t), grad)
    return loss, MlpGrads(*net._unflatten(grad))


def _ema_step(ema: np.ndarray, theta: np.ndarray, mu: float, tmp: np.ndarray) -> None:
    """``ema <- mu * ema + (1 - mu) * theta`` in place, with the bits of
    that expression; ``tmp`` is a work array shaped like theta."""
    ema *= mu
    ema += np.multiply(theta, 1.0 - mu, out=tmp)


def ema_update(ema_net: Mlp, net: Mlp, mu: float) -> Mlp:
    """Return a new EMA net with parameters mu * ema + (1 - mu) * current."""
    if not (0.0 <= mu < 1.0):
        raise InvalidParams(f"mu must be in [0, 1), got {mu}")
    ema, theta = ema_net.flat_parameters(), net.flat_parameters()
    _ema_step(ema, theta, mu, np.empty_like(theta))
    out = ema_net.clone()
    out.set_flat_parameters(ema)
    return out


def equivariance_gap(score, group: IsometryGroup, xs: np.ndarray, ts) -> float:
    """Mean over probes and elements of ||s(k x, t) - k s(x, t)||^2.

    ``ts`` is one time or one per probe; the score is called twice, on
    all |G| n moved probes and on the n probes.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (xs.shape[0],))
    res = equivariance_residuals(score, group, xs, ts)
    return float(np.mean(np.sum(res.reshape(len(group), len(xs), -1) ** 2, axis=2)))


# ---- optimizer and training loop ----------------------------------------


class Adam:
    """Adam with bias-corrected moments over a flat parameter vector."""

    def __init__(self, size: int, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step_count = 0
        self._work = _WorkArrays()

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Update the moments in place; return the new parameters.

        Each in-place update has the bits of its expression:
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g**2`` and
        ``params - lr mh / (sqrt(vh) + eps)`` with the bias-corrected
        moments mh and vh.
        """
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        tmp = self._work.get("tmp", grad.shape)
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=tmp)
        self.v *= b2
        scaled_sq = np.square(grad, out=tmp)
        scaled_sq *= 1.0 - b2
        self.v += scaled_sq
        mh = np.divide(self.m, 1.0 - b1**self.step_count, out=tmp)
        vh = np.divide(self.v, 1.0 - b2**self.step_count,
                       out=self._work.get("vh", grad.shape))
        np.sqrt(vh, out=vh)
        vh += self.eps
        mh *= self.lr
        mh /= vh
        return params - mh


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters for train(); defaults follow the toolkit ledger."""

    learning_rate: float = 1e-4
    batch_size: int = 128
    steps: int = 1000
    ema_mu: float = 0.999
    reg_weight: float = 0.1
    seed: int = 0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        if not (0.0 <= self.ema_mu < 1.0):
            raise InvalidParams(f"ema_mu must be in [0, 1), got {self.ema_mu}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.steps < 0:
            raise InvalidParams("learning_rate > 0, batch_size >= 1, steps >= 0")
        if self.reg_weight < 0:
            raise InvalidParams("reg_weight must be >= 0")


@dataclass
class TrainResult:
    net: Mlp
    ema_net: Mlp
    losses: np.ndarray
    reg_losses: np.ndarray | None = None
    free_parameters: int = 0
    opt_state: tuple | None = None
    steps_done: int = 0


def _lane_rng(seed: int, lane: int, index: int) -> np.random.Generator:
    """Independent per-step generator; lanes keep draw patterns decoupled."""
    # the stream of default_rng(SeedSequence(...)), built without its checks
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(lane, index))))


# Training rows diffused at once: a block holds the noisy batches of
# max(1, _BLOCK_ROWS // batch_size) steps, which bounds the memory its
# arrays take.
_BLOCK_ROWS = 4096


def train(config: TrainerConfig, data, schedule: Schedule,
          group: IsometryGroup | None = None, mode: str = "plain",
          init_net: Mlp | None = None, init_ema: Mlp | None = None,
          init_opt_state: tuple | None = None, start_step: int = 0) -> TrainResult:
    """Train an MLP score net by denoising score matching.

    Parameters
    ----------
    config : TrainerConfig
    data : ndarray or object with sample(rng, n)
        Training distribution; an (N, d) array is sampled with replacement.
    schedule : Schedule
    group : IsometryGroup, optional
        Required for modes "WT" and "regularized".
    mode : {"plain", "WT", "regularized"}
        "WT" ties the weights so the net is exactly equivariant;
        "regularized" adds reg_weight times the EMA equivariance penalty.
    init_net, init_ema, init_opt_state, start_step : resume state
        Passing the net, EMA net, optimizer state and step count of an
        earlier run continues it exactly: step i draws from per-step
        generator lanes keyed by start_step + i, so a resumed run is
        bit-identical to an uninterrupted one.  Under "WT" the net must be
        tied to ``group`` (the same group name, so the same tag and grid
        shape); under the other modes it must be untied.

    A regularizer weight of 0 skips the penalty entirely, so that case
    matches plain mode bit-exactly.  The parameters, gradients, Adam
    moments and EMA are flat vectors; each step gives the same bits as
    ``dsm_loss``, ``equivariance_regularizer``, ``Adam.step`` and
    ``ema_update`` applied to the nets.
    """
    if mode not in ("plain", "WT", "regularized"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if mode in ("WT", "regularized") and group is None:
        raise InvalidParams(f"mode {mode!r} needs a group")
    if init_net is not None:
        tied = None if init_net.tie_group is None else init_net.tie_group.name
        if tied != (group.name if mode == "WT" else None):
            raise InvalidParams(f"mode {mode!r} cannot resume a net tied to {tied}")

    if hasattr(data, "sample"):
        def draw(rng, n):
            return np.asarray(data.sample(rng, n), dtype=float)
    else:
        arr = np.asarray(data, dtype=float)

        def draw(rng, n):
            return arr[rng.integers(arr.shape[0], size=n)]

    if init_net is not None:
        net = init_net.clone()
        ema = (init_ema if init_ema is not None else init_net).clone()
    else:
        probe = draw(_lane_rng(config.seed, 4, 0), 1)
        x_dim = probe.shape[1]
        net = Mlp(x_dim, hidden=config.hidden, horizon=schedule.T,
                  seed=config.seed, tie_group=group if mode == "WT" else None)
        ema = net.clone()
    opt = Adam(net.flat_parameters().size, lr=config.learning_rate)
    if init_opt_state is not None:
        opt.m, opt.v, opt.step_count = (init_opt_state[0].copy(),
                                        init_opt_state[1].copy(),
                                        int(init_opt_state[2]))
    losses = np.zeros(config.steps)
    reg_losses = np.zeros(config.steps) if mode == "regularized" else None
    use_reg = mode == "regularized" and config.reg_weight > 0
    rows = config.batch_size
    per_block = max(1, _BLOCK_ROWS // rows)
    theta, ema_theta = net.flat_parameters(), ema.flat_parameters()
    # the step runs in the nets' work arrays, and the EMA is updated in place
    work = net._work
    grad, reg_grad, ema_tmp = (work.get(key, theta.shape)
                               for key in ("grad", "reg_grad", "ema_tmp"))

    # an overflow is refused by the finiteness checks below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, config.steps, per_block):
            steps = range(first, min(first + per_block, config.steps))
            # each step draws from its own lanes, in the order dsm_loss and
            # equivariance_regularizer draw; the block then shares one
            # schedule lookup, one x_t and one time embedding per lane
            batches, noise, reg_noise = [], [], []
            for step in steps:
                rng = _lane_rng(config.seed, 2, start_step + step)
                batches.append(draw(rng, rows))
                noise.append(_draw_t_eps(schedule, batches[-1], rng))
                if use_reg:
                    rng = _lane_rng(config.seed, 3, start_step + step)
                    reg_noise.append((*_draw_t_eps(schedule, batches[-1], rng),
                                      rng.integers(len(group), size=rows)))
            x0 = np.concatenate(batches)
            t, eps = (np.concatenate(c) for c in zip(*noise))
            sigma, x_t = _diffuse(schedule, x0, t, eps)
            feats = np.concatenate([x_t, time_embed(t, net.horizon)], axis=1)
            if use_reg:
                t, reg_eps, ids = (np.concatenate(c) for c in zip(*reg_noise))
                _, x_t = _diffuse(schedule, x0, t, reg_eps)
                emb = time_embed(t, net.horizon)
                ema_feats = np.concatenate([x_t, emb], axis=1)
                moved_feats = np.concatenate([_move_flat(group, ids, x_t), emb], axis=1)

            for j, step in enumerate(steps):
                r = slice(j * rows, (j + 1) * rows)
                params = net._unflatten(net._effective(theta, work))
                loss = _dsm_terms(net, params, feats[r], sigma[r], eps[r], grad)
                loss_total = loss
                if use_reg:
                    ema_params = ema._unflatten(ema._effective(ema_theta, ema._work))
                    rloss = _reg_terms(net, params, ema, ema_params, group, ids[r],
                                       ema_feats[r], moved_feats[r], reg_grad)
                    # grad + reg_weight * reg_grad
                    reg_grad *= config.reg_weight
                    grad += reg_grad
                    reg_losses[step] = rloss
                    loss_total = loss + config.reg_weight * rloss
                if not math.isfinite(loss_total):
                    raise DivergedLoss(f"loss became {loss_total} at step {step}")
                losses[step] = loss
                theta = opt.step(theta, grad)
                _ema_step(ema_theta, theta, config.ema_mu, ema_tmp)
            # a finite loss can still give a gradient whose square overflows the
            # second moment, or a step that overflows the parameters
            if not all(np.isfinite(v).all() for v in (theta, ema_theta, opt.m, opt.v)):
                raise DivergedLoss(f"parameters or Adam moments became non-finite "
                                   f"in steps {steps[0]}..{steps[-1]}")

    net.set_flat_parameters(theta)
    ema.set_flat_parameters(ema_theta)
    return TrainResult(net=net, ema_net=ema, losses=losses, reg_losses=reg_losses,
                       free_parameters=net.free_parameter_count(),
                       opt_state=(opt.m.copy(), opt.v.copy(), opt.step_count),
                       steps_done=start_step + config.steps)


# ---- tied convolution kernels --------------------------------------------


@dataclass
class TiedKernel:
    """Convolution kernel constrained to be fixed by a grid group.

    ``orbit_index[i, j]`` names the free parameter used at position (i, j);
    expansion simply gathers ``params[orbit_index]``, so the expanded kernel
    is exactly invariant under ``make_group(tag, (size, size))``.  ``params``
    may be (n,) for a single-channel kernel or (n, C_in, C_out) for a full
    stack.
    """

    tag: str
    size: int
    orbit_index: np.ndarray
    params: np.ndarray

    @property
    def n_free(self) -> int:
        return int(self.orbit_index.max()) + 1

    def expand(self, params: np.ndarray | None = None) -> np.ndarray:
        p = self.params if params is None else np.asarray(params, dtype=float)
        if p.shape[0] != self.n_free:
            raise ShapeMismatch(f"expected {self.n_free} free parameters, got {p.shape[0]}")
        return p[self.orbit_index]


def make_tied_kernel(tag: str, size: int) -> TiedKernel:
    """Build the orbit structure of a k x k kernel tied under a grid group.

    ``tag`` is the ``make_group`` tag of the group on the k x k grid that
    fixes the kernel.  flip_h ties columns j and k-1-j (the row-palindrome
    layout with 6 free parameters at 3x3); C4 ties quarter-turn orbits (7 at
    5x5); D4 ties full dihedral orbits (6 at 5x5).  Free parameters are
    numbered by the row-major order of the first position of each orbit,
    and default to 1..n so patterns are visible without further setup.
    """
    if size < 3 or size % 2 == 0:
        raise UnsupportedSize(f"kernel size must be odd and >= 3, got {size}")
    perms = make_group(tag, (size, size)).stacked
    orbit = -np.ones(size * size, dtype=np.int64)
    n_free = 0
    for pos in range(size * size):
        if orbit[pos] < 0:
            # The group is closed, so one gather is the whole orbit of pos.
            orbit[perms[:, pos]] = n_free
            n_free += 1
    return TiedKernel(tag=tag, size=size, orbit_index=orbit.reshape(size, size),
                      params=np.arange(1.0, n_free + 1.0))


def _correlate_same(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """2-D cross-correlation of one plane with zero fill, cropped to its size.

    The kernel anchor sits at ((kh - 1) // 2, (kw - 1) // 2), the centre of
    an odd kernel.
    """
    kh, kw = k.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    padded = np.pad(img, ((top, kh - 1 - top), (left, kw - 1 - left)))
    return np.einsum("ijab,ab->ij", sliding_window_view(padded, k.shape), k)


def conv2d(kernel, image: np.ndarray) -> np.ndarray:
    """Cross-correlation with same-size zero padding.

    ``kernel`` may be a TiedKernel, a (k, k) array, or a (k, k, C_in, C_out)
    array; ``image`` may be (H, W) or (H, W, C).  A (k, k) kernel applied to
    a multichannel image acts depthwise.
    """
    k = kernel.expand() if isinstance(kernel, TiedKernel) else np.asarray(kernel, dtype=float)
    img = np.asarray(image, dtype=float)
    if k.ndim == 2:
        if img.ndim == 2:
            return _correlate_same(img, k)
        if img.ndim == 3:
            return np.stack(
                [_correlate_same(img[..., c], k) for c in range(img.shape[2])],
                axis=-1)
        raise ShapeMismatch(f"image must be (H, W) or (H, W, C), got {img.shape}")
    if k.ndim == 4:
        if img.ndim != 3 or img.shape[2] != k.shape[2]:
            raise ShapeMismatch(
                f"image {img.shape} does not match kernel channels {k.shape}")
        outs = []
        for co in range(k.shape[3]):
            acc = np.zeros(img.shape[:2])
            for ci in range(k.shape[2]):
                acc += _correlate_same(img[..., ci], k[..., ci, co])
            outs.append(acc)
        return np.stack(outs, axis=-1)
    raise ShapeMismatch(f"kernel must be (k, k) or (k, k, C_in, C_out), got {k.shape}")
