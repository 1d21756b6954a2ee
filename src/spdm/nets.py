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

Tied convolution kernels on grids (flip / C4 / D4) are built by orbit
averaging of kernel positions, which reproduces the free-parameter counts
6 (flip 3x3), 7 (C4 5x5) and 6 (D4 5x5).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DivergedLoss, InvalidParams, ShapeMismatch, UnsupportedSize
from .groups import (IsometryGroup, apply_elements, equivariance_residuals,
                     make_group)
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
        self.tie_group = tie_group
        self._rin = self._rout = None
        if tie_group is not None:
            self._build_representations(tie_group)

    # ---- weight tying ----------------------------------------------------

    def _build_representations(self, group: IsometryGroup) -> None:
        if group.grid_shape is not None:
            raise InvalidParams("weight tying needs a matrix point group")
        d = group.elements[0].matrix.shape[0]
        if self.x_dim != d or (self.y_dim not in (0, d)):
            raise InvalidParams("x (and y, if present) must carry the group action")
        for el in group.elements:
            if not np.all(np.isin(el.matrix, (-1.0, 0.0, 1.0))):
                raise InvalidParams(
                    "weight tying requires signed-permutation matrices so that "
                    "tanh commutes with the action")
        for h in self.hidden:
            if h % d != 0:
                raise InvalidParams(f"hidden width {h} not divisible by {d}")

        def layer_rep(width: int, trivial_tail: int):
            blocks = (width - trivial_tail) // d
            mats = []
            for el in group.elements:
                m = np.zeros((width, width))
                for b in range(blocks):
                    m[b * d:(b + 1) * d, b * d:(b + 1) * d] = el.matrix
                for j in range(width - trivial_tail, width):
                    m[j, j] = 1.0
                mats.append(m)
            return np.stack(mats)

        reps = [layer_rep(self.sizes[0], 3)]
        reps += [layer_rep(h, 0) for h in self.hidden]
        reps.append(layer_rep(self.x_dim, 0))
        self._rin = reps[:-1]
        self._rout = reps[1:]

    def _project_weight(self, layer: int, w: np.ndarray) -> np.ndarray:
        ro, ri = self._rout[layer], self._rin[layer]
        return np.sum(ro.transpose(0, 2, 1) @ w @ ri, axis=0) / len(ro)

    def _project_bias(self, layer: int, b: np.ndarray) -> np.ndarray:
        ro = self._rout[layer]
        return np.sum(ro.transpose(0, 2, 1) @ b, axis=0) / len(ro)

    def effective_parameters(self):
        """Weights and biases actually used in the forward pass."""
        if self.tie_group is None:
            return list(self.weights), list(self.biases)
        ws = [self._project_weight(i, w) for i, w in enumerate(self.weights)]
        bs = [self._project_bias(i, b) for i, b in enumerate(self.biases)]
        return ws, bs

    def free_parameter_count(self) -> int:
        """Dimension of the parameter space after tying.

        For tied nets this is the rank of the averaging projector, computed
        from the character formula rank = mean_g tr R_in(g) tr R_out(g)
        per layer (plus mean_g tr R_out(g) for the bias).
        """
        if self.tie_group is None:
            return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)
        total = 0.0
        for layer in range(len(self.weights)):
            ri = np.trace(self._rin[layer], axis1=1, axis2=2)
            ro = np.trace(self._rout[layer], axis1=1, axis2=2)
            total += float(np.mean(ri * ro)) + float(np.mean(ro))
        return int(round(total))

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
        single = np.asarray(x).ndim == 1
        a = self._features(x, y, t)
        ws, bs = self.effective_parameters()
        inputs = [a]
        for layer, (w, b) in enumerate(zip(ws, bs)):
            z = a @ w.T + b
            a = z if layer == len(ws) - 1 else np.tanh(z)
            inputs.append(a)
        out = a[0] if single else a
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
        inputs, ws = cache["inputs"], cache["eff_weights"]
        gw = [None] * len(ws)
        gb = [None] * len(ws)
        for layer in range(len(ws) - 1, -1, -1):
            gw[layer] = adj.T @ inputs[layer]
            gb[layer] = adj.sum(axis=0)
            if layer > 0:
                adj = (adj @ ws[layer]) * (1.0 - inputs[layer] ** 2)
        if self.tie_group is not None:
            gw = [self._project_weight(i, g) for i, g in enumerate(gw)]
            gb = [self._project_bias(i, g) for i, g in enumerate(gb)]
        return MlpGrads(weights=gw, biases=gb)

    # ---- parameter vector helpers ---------------------------------------

    def flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in (*self.weights, *self.biases)])

    def set_flat_parameters(self, v: np.ndarray) -> None:
        v = np.asarray(v, dtype=float)
        pos = 0
        for group in (self.weights, self.biases):
            for i, p in enumerate(group):
                group[i] = v[pos:pos + p.size].reshape(p.shape)
                pos += p.size
        if pos != v.size:
            raise ShapeMismatch(f"parameter vector has {v.size} entries, expected {pos}")

    def clone(self) -> "Mlp":
        other = copy.copy(self)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other


@dataclass
class MlpGrads:
    """Per-parameter gradients mirroring Mlp.weights / Mlp.biases."""

    weights: list
    biases: list

    def flat(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in (*self.weights, *self.biases)])

    def scaled_add(self, other: "MlpGrads", factor: float) -> "MlpGrads":
        return MlpGrads(
            weights=[a + factor * b for a, b in zip(self.weights, other.weights)],
            biases=[a + factor * b for a, b in zip(self.biases, other.biases)],
        )


# ---- losses --------------------------------------------------------------


def _draw_noisy_batch(schedule: Schedule, x0: np.ndarray, rng: np.random.Generator):
    n = x0.shape[0]
    t = rng.uniform(schedule.t_clip, schedule.T, size=n)
    eps = rng.standard_normal(x0.shape)
    alpha = np.asarray(schedule.alpha(t))[:, None]
    sigma = np.asarray(schedule.sigma(t))[:, None]
    x_t = alpha * x0 + sigma * eps
    return t, eps, sigma[:, 0], x_t


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
    t, eps, sigma, x_t = _draw_noisy_batch(schedule, x0, rng)
    out, cache = net.forward(x_t, y, t, want_cache=True)
    resid = sigma[:, None] * out + eps
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    adj = 2.0 * sigma[:, None] * resid / x0.shape[0]
    return loss, net.backward(cache, adj)


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
    t, _, _, x_t = _draw_noisy_batch(schedule, x0, rng)
    ids = rng.integers(len(group), size=x0.shape[0])
    target = apply_elements(group, ids, np.asarray(ema_net.forward(x_t, y, t)))
    xk = apply_elements(group, ids, x_t)
    yk = None if y is None else apply_elements(group, ids, np.atleast_2d(y))
    out, cache = net.forward(xk, yk, t, want_cache=True)
    resid = out - target
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    adj = 2.0 * resid / x0.shape[0]
    return loss, net.backward(cache, adj)


def ema_update(ema_net: Mlp, net: Mlp, mu: float) -> Mlp:
    """Return a new EMA net with parameters mu * ema + (1 - mu) * current."""
    if not (0.0 <= mu < 1.0):
        raise InvalidParams(f"mu must be in [0, 1), got {mu}")
    out = ema_net.clone()
    out.set_flat_parameters(mu * ema_net.flat_parameters()
                            + (1.0 - mu) * net.flat_parameters())
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

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.step_count += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        mh = self.m / (1.0 - self.beta1**self.step_count)
        vh = self.v / (1.0 - self.beta2**self.step_count)
        return params - self.lr * mh / (np.sqrt(vh) + self.eps)


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
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(lane, index))
    return np.random.default_rng(ss)


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
        bit-identical to an uninterrupted one.

    A regularizer weight of 0 skips the penalty entirely, so that case
    matches plain mode bit-exactly.
    """
    if mode not in ("plain", "WT", "regularized"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if mode in ("WT", "regularized") and group is None:
        raise InvalidParams(f"mode {mode!r} needs a group")

    def draw(rng, n):
        if hasattr(data, "sample"):
            return np.asarray(data.sample(rng, n), dtype=float)
        arr = np.asarray(data, dtype=float)
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

    for step in range(config.steps):
        lane_index = start_step + step
        rng = _lane_rng(config.seed, 2, lane_index)
        batch = draw(rng, config.batch_size)
        loss, grads = dsm_loss(net, schedule, batch, rng)
        if use_reg:
            rloss, rgrads = equivariance_regularizer(
                net, ema, group, batch, _lane_rng(config.seed, 3, lane_index),
                schedule)
            grads = grads.scaled_add(rgrads, config.reg_weight)
            reg_losses[step] = rloss
            loss_total = loss + config.reg_weight * rloss
        else:
            loss_total = loss
        if not np.isfinite(loss_total):
            raise DivergedLoss(f"loss became {loss_total} at step {step}")
        losses[step] = loss
        net.set_flat_parameters(opt.step(net.flat_parameters(), grads.flat()))
        ema = ema_update(ema, net, config.ema_mu)

    return TrainResult(net=net, ema_net=ema, losses=losses, reg_losses=reg_losses,
                       free_parameters=net.free_parameter_count(),
                       opt_state=(opt.m.copy(), opt.v.copy(), opt.step_count),
                       steps_done=start_step + config.steps)


# ---- tied convolution kernels --------------------------------------------


# Kernel tag -> make_group tag of the grid group the kernel is fixed by.
_KERNEL_GROUPS = {"flip": "flip_h", "C4": "C4", "D4": "D4"}


@dataclass
class TiedKernel:
    """Convolution kernel constrained to be fixed by a grid group.

    ``orbit_index[i, j]`` names the free parameter used at position (i, j);
    expansion simply gathers ``params[orbit_index]``, so the expanded kernel
    is exactly invariant under the tag's group.  ``params`` may be (n,) for
    a single-channel kernel or (n, C_in, C_out) for a full stack.
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

    The flip tag ties columns j and k-1-j (the row-palindrome layout with 6
    free parameters at 3x3); C4 ties quarter-turn orbits (7 at 5x5); D4 ties
    full dihedral orbits (6 at 5x5).  Free parameters are numbered by the
    row-major order of the first position of each orbit, and default to
    1..n so patterns are visible without further setup.
    """
    if tag not in _KERNEL_GROUPS:
        raise InvalidParams(
            f"unknown kernel tag {tag!r}; expected one of {tuple(_KERNEL_GROUPS)}")
    if size < 3 or size % 2 == 0:
        raise UnsupportedSize(f"kernel size must be odd and >= 3, got {size}")
    group = make_group(_KERNEL_GROUPS[tag], (size, size))
    perms = np.stack([el.perm for el in group.elements])
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
