"""Stochastic and deterministic integrators for diffusion processes.

The reverse-time family is parameterized by the noise level lambda: drift
``u - ((1 + lambda^2)/2) g^2 s`` with injected noise ``lambda g``; lambda=0
is the probability-flow ODE, lambda=1 the standard reverse SDE.  All SDEs
use Euler-Maruyama with the update

    x_next = x + drift(x, t) (t_next - t) + scale sqrt(|t_next - t|) eps

and the PF-ODE uses Heun's second-order rule.  Bridge sampling follows the
backward family ``u + g^2 h - ((1 + tau^2)/2) g^2 s(x | x_T, t)`` with
noise ``tau g``.  Every integrator, the likelihood flow in ``metrics``
included, supplies only its drift and noise scale to one stepper,
``_integrate``; the schedule coefficients are evaluated once per grid.

Noise is regenerated from a counter-based Philox stream keyed by (seed,
step index): step i of a batch of n chains draws one (n, *event) block,
whose row r does not depend on n; a batch may also name the stream row
each of its rows replays.  Equivariant noise (EN) keeps that one
stream and turns row r of every block by its own group element
kappa_r = c(x_r) o c(eps_{0,r})^-1, where c is a canonicalizer, x_r the
chain's reference state and eps_{0,r} its row of block 0; moving x_r by a
group element g moves the whole noise row by g bit-exactly.  The
canonicalizers live in ``groups``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParams, NonFiniteState, TimeOutOfRange
# canonicalize is unused here; the benchmark's probes still look it up as
# spdm.sampling.canonicalize
from .groups import (Canonicalizer, IsometryGroup, apply_elements, canonical_ids,
                     canonicalize, default_canonicalizer)
from .process import Schedule, _h_denominator, _refuse_terminal


@dataclass(frozen=True)
class TimeGrid:
    """Strictly monotone sequence of times; n_steps = len(times) - 1."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise InvalidParams("times must be a 1-D array with at least one entry")
        d = np.diff(t)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise InvalidParams("times must be strictly monotone")
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def descending(self) -> bool:
        return self.n_steps > 0 and self.times[1] < self.times[0]

    def reversed(self) -> "TimeGrid":
        return TimeGrid(self.times[::-1].copy())


def sampling_grid(s: Schedule, n: int = 400) -> TimeGrid:
    """Uniform reverse-sampling grid from T down to t_clip (n steps)."""
    return TimeGrid(np.linspace(s.T, s.t_clip, n + 1))


def bridge_grid(s: Schedule, n: int = 400) -> TimeGrid:
    """Uniform bridge grid from T - t_clip down to t_clip (n steps)."""
    return TimeGrid(np.linspace(s.T - s.t_clip, s.t_clip, n + 1))


def nll_grid(s: Schedule, n: int = 1000) -> TimeGrid:
    """Uniform forward grid from t_clip up to T (n steps)."""
    return TimeGrid(np.linspace(s.t_clip, s.T, n + 1))


def _step_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, index))
    return np.random.Generator(np.random.Philox(ss))


def _aux_rng(seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1, 0))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoiseSequence:
    """Per-step N(0, I) noise blocks with optional per-row group orientations.

    ``base(i)`` regenerates block i, of ``shape``, from the counter-based
    stream keyed by (seed, offset + i); its leading rows are the same
    whatever the number of rows.  With ``rows``, row r of the block is
    stream row ``rows[r]``: block i draws ``max(rows) + 1`` stream rows and
    gathers them, so several batch rows can replay one stream row.  With
    ``group`` and ``ids``, ``get(i)`` turns row r of the block by
    ``group.elements[ids[r]]``: ``ids`` has the shape of the batch axes, ()
    for a one-chain sequence whose ``shape`` is one state.  Regenerating a
    sequence with the same (seed, rows, ids) reproduces the oriented noises
    bit-exactly.
    """

    seed: int
    n: int
    shape: tuple
    group: IsometryGroup | None = None
    ids: np.ndarray | None = None
    offset: int = 0
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.rows is None:
            return
        rows = np.asarray(self.rows)
        if rows.shape != tuple(self.shape[:1]) or rows.dtype.kind not in "iu" \
                or np.any(rows < 0):
            raise InvalidParams(f"rows must hold one non-negative integer stream row "
                                f"per batch row ({self.shape[:1]})")

    def base(self, i: int) -> np.ndarray:
        if not (0 <= i < self.n):
            raise InvalidParams(f"noise index {i} outside [0, {self.n})")
        rng = _step_rng(self.seed, self.offset + i)
        if self.rows is None:
            return rng.standard_normal(self.shape)
        rows = np.asarray(self.rows)
        return rng.standard_normal((np.max(rows, initial=-1) + 1, *self.shape[1:]))[rows]

    def get(self, i: int) -> np.ndarray:
        eps = self.base(i)
        if self.ids is None:
            return eps
        ids = np.asarray(self.ids)
        rows = eps.reshape(ids.size, *eps.shape[ids.ndim:])
        return apply_elements(self.group, ids.reshape(-1), rows).reshape(eps.shape)

    def shifted(self, by: int) -> "NoiseSequence":
        """View of the same stream starting ``by`` steps later."""
        return replace(self, n=self.n - by, offset=self.offset + by)


@dataclass
class Trajectory:
    """States recorded at every grid time; states[0] is the start.  A
    sampler run with ``record=False`` keeps only the terminal state, as
    ``states`` of leading length 1.

    The samplers' ``metadata`` holds their parameters and two counters:
    ``nfe``, the score evaluations made, and ``chains``, the rows along the
    start's leading axis (1 for a 1-D start).
    """

    grid: TimeGrid
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"state became non-finite at step {step}")


def _resolve_start(x_T, noise_seed: int | None):
    if callable(x_T):
        if noise_seed is None:
            raise InvalidParams("a prior sampler start needs a noise seed")
        return np.asarray(x_T(_aux_rng(noise_seed)), dtype=float)
    return np.asarray(x_T, dtype=float).copy()


def _resolve_noise(noise, shape, n_steps: int):
    if isinstance(noise, NoiseSequence):
        return noise
    if noise is None:
        return None
    return NoiseSequence(seed=int(noise), n=n_steps, shape=tuple(shape))


def _counters(x: np.ndarray, nfe: int) -> dict:
    return {"nfe": nfe, "chains": len(x) if x.ndim > 1 else 1}


def _coefficients(s: Schedule, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(d log alpha/dt, g^2) at every grid time, evaluated once per grid."""
    return s.dlog_alpha_dt(grid.times), s.g2(grid.times)


def _flow_drift(score, s: Schedule, grid: TimeGrid, weight: float):
    """Drift ``u - weight g^2 s`` at grid index i, and the g^2 table.

    ``i`` may also be an array with one grid index per row of x; the
    score then gets one time per row, and each row the bits it would get
    with its own scalar index.
    """
    dla, g2 = _coefficients(s, grid)
    times = grid.times

    def f(x, i):
        col = np.shape(i) + (1,) * (np.ndim(x) - np.ndim(i))
        return dla[i].reshape(col) * x \
            - (weight * g2[i]).reshape(col) * np.asarray(score(x, times[i]))

    return f, g2


def _integrate(f, grid: TimeGrid, x: np.ndarray, scale=None, seq=None,
               heun: bool = False, record: bool = True) -> np.ndarray:
    """The one time-stepping loop behind every integrator.

    ``f(x, i)`` is the drift at grid time ``times[i]``.  Each step is an
    Euler step, or a Heun step with ``heun``; an Euler step then adds
    ``scale[i] sqrt(|dt|) seq.get(i)`` when ``scale`` is given.  Returns the
    states at every grid time, or only the terminal state (leading axis of
    length 1) without ``record``.
    """
    times = grid.times
    states = np.empty((grid.n_steps + 1 if record else 1, *x.shape))
    states[0] = x
    for i in range(grid.n_steps):
        dt = times[i + 1] - times[i]
        k1 = f(x, i)
        if heun:
            k2 = f(x + dt * k1, i + 1)
            x = x + 0.5 * dt * (k1 + k2)
        else:
            x = x + k1 * dt
            if scale is not None:
                x = x + scale[i] * np.sqrt(abs(dt)) * seq.get(i)
        _check_finite(x, i)
        states[i + 1 if record else 0] = x
    return states


def reverse_sde_sample(score, s: Schedule, lam: float, grid: TimeGrid,
                       x_T, noise=None, record: bool = True) -> Trajectory:
    """Integrate the reverse-time SDE family from the terminal state down.

    Parameters
    ----------
    score : callable (x, t) -> array
    s : Schedule
    lam : float
        Noise level lambda >= 0; lambda=0 is the PF-ODE integrated with
        Euler steps and no injected noise.
    grid : TimeGrid
        Descending times, typically sampling_grid(s, n).
    x_T : array or callable(rng) -> array
        Terminal state or a prior sampler.
    noise : NoiseSequence or int seed or None
        Required (as sequence or seed) when lam > 0 or x_T is a sampler.
    record : bool
        Keep every state (default), or only the terminal one; the terminal
        state is the same either way.
    """
    if not (lam >= 0 and np.isfinite(lam * lam)):
        raise InvalidParams(f"lambda must be >= 0 with a finite square, got {lam}")
    if grid.n_steps > 0 and not grid.descending:
        raise InvalidParams("reverse sampling needs a descending time grid")
    seed = noise.seed if isinstance(noise, NoiseSequence) else noise
    x = _resolve_start(x_T, seed)
    seq = _resolve_noise(noise, x.shape, grid.n_steps)
    if lam > 0 and seq is None:
        raise InvalidParams("lambda > 0 needs a noise sequence or seed")
    f, g2 = _flow_drift(score, s, grid, 0.5 * (1.0 + lam**2))
    states = _integrate(f, grid, x, lam * np.sqrt(g2) if lam > 0 else None, seq,
                        record=record)
    return Trajectory(grid=grid, states=states,
                      metadata={"lam": lam, "seed": seed, "kind": "reverse_sde",
                                **_counters(x, grid.n_steps)})


def pf_ode_solve(score, s: Schedule, grid: TimeGrid, x_start) -> Trajectory:
    """Heun integration of the probability-flow ODE dx = [u - g^2 s / 2] dt.

    The grid sets the direction: ascending times run from the data toward
    the prior ("forward" in ``metadata["direction"]``), descending times
    back ("backward").
    """
    f, _ = _flow_drift(score, s, grid, 0.5)
    x = np.asarray(x_start, dtype=float)
    states = _integrate(f, grid, x, heun=True)
    direction = "backward" if grid.descending else "forward"
    return Trajectory(grid=grid, states=states,
                      metadata={"direction": direction, "kind": "pf_ode",
                                **_counters(x, 2 * grid.n_steps)})


def ddbm_reverse_sample(cond_score, s: Schedule, x_T, tau: float,
                        grid: TimeGrid, noise=None, record: bool = True) -> Trajectory:
    """Integrate the backward bridge family conditioned on the endpoint x_T.

    The drift is ``u + g^2 h - ((1 + tau^2)/2) g^2 s(x | x_T, t)`` with
    injected noise ``tau g``; tau=0 is deterministic.  The grid must stay
    within (t_clip, T - t_clip] where h is regular.  ``record=False``
    keeps only the terminal state, as in ``reverse_sde_sample``.
    """
    if not (tau >= 0 and np.isfinite(tau * tau)):
        raise InvalidParams(f"tau must be >= 0 with a finite square, got {tau}")
    if grid.n_steps > 0 and not grid.descending:
        raise InvalidParams("bridge sampling needs a descending time grid")
    eps_t = 1e-12 * s.T
    if np.any(grid.times > s.T - s.t_clip + eps_t) or np.any(grid.times < s.t_clip - eps_t):
        raise TimeOutOfRange("bridge grid must lie within [t_clip, T - t_clip]")
    seed = noise.seed if isinstance(noise, NoiseSequence) else noise
    x_T = np.asarray(x_T, dtype=float)
    seq = _resolve_noise(noise, x_T.shape, grid.n_steps)
    if tau > 0 and seq is None:
        raise InvalidParams("tau > 0 needs a noise sequence or seed")
    times = grid.times
    _refuse_terminal(s, times[:-1])
    dla, g2 = _coefficients(s, grid)
    ratio, denom = _h_denominator(s, times)  # h = (ratio x_T - x) / denom
    weight = 0.5 * (1.0 + tau**2)

    def f(x, i):
        h = (ratio[i] * x_T - x) / denom[i]
        return dla[i] * x + g2[i] * h - weight * g2[i] * np.asarray(
            cond_score(x, x_T, times[i]))

    states = _integrate(f, grid, x_T, tau * np.sqrt(g2) if tau > 0 else None, seq,
                        record=record)
    return Trajectory(grid=grid, states=states,
                      metadata={"tau": tau, "seed": seed, "kind": "ddbm",
                                **_counters(x_T, grid.n_steps)})


def equivariant_noise_batch(xs: np.ndarray, seed: int, G: IsometryGroup,
                            c: Canonicalizer, n: int,
                            rows: np.ndarray | None = None) -> NoiseSequence:
    """One noise stream for a batch of chains, row r oriented by xs[r].

    The blocks come from (seed, index) with the shape of ``xs``, row r
    being stream row ``rows[r]`` when ``rows`` is given (see
    ``NoiseSequence``); row r is turned by
    ``kappa_r = c(xs[r]) o c(eps_{0,r})^{-1}``, where eps_{0,r} is row r of
    block 0.  Replacing xs[r] by g xs[r] turns row r of every block by g
    more, bit-exactly for grid actions and signed permutations.
    """
    if c.group is not G and c.group.name != G.name:
        raise InvalidParams("canonicalizer group must match G")
    xs = np.asarray(xs, dtype=float)
    base = NoiseSequence(seed=seed, n=n, shape=xs.shape, rows=rows)
    kappa = G.compose_table[canonical_ids(c, xs),
                            G.inverse_table[canonical_ids(c, base.base(0))]]
    return replace(base, group=G, ids=kappa)


def equivariant_noise_sequence(x_ref: np.ndarray, seed: int, G: IsometryGroup,
                               c: Canonicalizer, n: int) -> NoiseSequence:
    """Noise sequence whose orientation follows the one reference state.

    The one-chain view of ``equivariant_noise_batch``: every block equals
    row 0 of the batched sequence for ``x_ref[None]``, so the orientation
    is the unique k with phi(x_ref) = k phi(eps_0), i.e.
    k = c(x_ref) o c(eps_0)^{-1}.  Replacing x_ref by r x_ref yields the
    sequence {r k eps_i} bit-exactly for grid actions.
    """
    x_ref = np.asarray(x_ref, dtype=float)
    seq = equivariant_noise_batch(x_ref[None], seed, G, c, n)
    return replace(seq, shape=x_ref.shape, ids=seq.ids[0])


def sdedit_denoise(score, s: Schedule, x0_tilde: np.ndarray, t_start: float,
                   grid: TimeGrid, G: IsometryGroup | None = None,
                   use_en: bool = False, seed: int = 0, lam: float = 1.0) -> np.ndarray:
    """Denoise by diffusing to t_start and reverse-sampling back to t_clip.

    With ``use_en`` the forward injection noise and every reverse-step
    noise share one orientation aligned to x0_tilde, so an equivariant
    score makes the whole map commute with the group.
    """
    t_start = float(t_start)
    if not (s.t_clip <= t_start < s.T):
        raise TimeOutOfRange(f"t_start={t_start} outside [t_clip, T)")
    if grid.n_steps > 0:
        if not grid.descending:
            raise InvalidParams("denoising needs a descending grid")
        if abs(grid.times[0] - t_start) > 1e-9 * s.T:
            raise InvalidParams("grid must start at t_start")
    x0_tilde = np.asarray(x0_tilde, dtype=float)
    n_total = grid.n_steps + 1
    if use_en:
        if G is None:
            raise InvalidParams("use_en needs a group")
        seq = equivariant_noise_sequence(x0_tilde, seed, G,
                                         default_canonicalizer(G), n_total)
    else:
        seq = NoiseSequence(seed=seed, n=n_total, shape=x0_tilde.shape)
    x_t = float(s.alpha(t_start)) * x0_tilde + float(s.sigma(t_start)) * seq.get(0)
    traj = reverse_sde_sample(score, s, lam, grid, x_t, noise=seq.shifted(1))
    return traj.terminal


def simulate_drift_only(drift, x0_sampler, grid: TimeGrid, n_chains: int,
                        seed: int = 0) -> np.ndarray:
    """Euler-integrate dx = f(x, t) dt for a batch of chains; no noise.

    ``x0_sampler`` is either an (N, d) array of start states or a callable
    (rng, n) -> (n, d).  Returns the terminal states.
    """
    if callable(x0_sampler):
        x = np.asarray(x0_sampler(_aux_rng(seed), n_chains), dtype=float)
    else:
        x = np.asarray(x0_sampler, dtype=float).copy()
        if x.shape[0] != n_chains:
            raise InvalidParams(f"expected {n_chains} chains, got {x.shape[0]}")
    times = grid.times
    return _integrate(lambda y, i: np.asarray(drift(y, times[i])), grid, x,
                      record=False)[0]
