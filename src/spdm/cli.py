"""Configuration-driven command-line runner.

Commands: gen-data, train, sample, bridge, nll, metrics, verify.  Each
reads a JSON config validated against the published schema, writes its
outputs under the chosen directory, and records the config hash and the
effective seed in every output (binary tensors are covered by the
manifest written next to them).  Re-running a command with the same
config and seed produces byte-identical data outputs; wall-clock
timestamps only ever appear in the run.log sidecar.

Exit codes: 0 success, 2 configuration or file error, 3 numerical
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import io, metrics, sampling
from .errors import (ConfigError, DegenerateCoupling, DivergedLoss, IoError,
                     NonFiniteState, NonPsd, SingularAtTerminal, SpdmError,
                     TimeOutOfRange)
from .groups import IsometryGroup, _move_blocks, canonical_ids, frame_average, make_group
from .nets import Mlp, TrainerConfig, TrainResult, train
from .oracle import (AnalyticScoreField, BridgeScoreField, GaussianCoupling,
                     GaussianMixture, symmetrize)
from .process import Schedule, ve_schedule, vp_schedule
from .sampling import _aux_rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_NUMERIC_ERRORS = (DivergedLoss, NonFiniteState, NonPsd, SingularAtTerminal,
                   TimeOutOfRange, DegenerateCoupling)


# ---- config -> objects ---------------------------------------------------


# each schedule family's constructor and the keys it takes besides kind and T
_SCHEDULES = {"vp": (vp_schedule, ("beta_min", "beta_max")),
              "ve": (ve_schedule, ("sigma_min", "sigma_max"))}


def build_schedule(cfg: dict) -> Schedule:
    spec = cfg.get("schedule", {"kind": "vp"})
    make, keys = _SCHEDULES[spec["kind"]]
    foreign = [f"schedule.{k}" for k in spec if k not in ("kind", "T", *keys)]
    if foreign:
        raise ConfigError(f"{', '.join(foreign)} do not apply to schedule.kind "
                          f"{spec['kind']!r}, which takes T, {', '.join(keys)}")
    return make(**{k: v for k, v in spec.items() if k != "kind"})


def build_group(cfg: dict) -> IsometryGroup | None:
    spec = cfg.get("group")
    return None if spec is None else make_group(spec["name"], spec.get("shape"))


def build_mixture(cfg: dict, group: IsometryGroup | None) -> GaussianMixture:
    data = cfg.get("data")
    if data is None:
        raise ConfigError("this command needs a data section in the config")
    comps = data["components"]
    if not comps:
        raise ConfigError("data.components must be nonempty")
    weights = np.array([c["weight"] for c in comps], dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ConfigError("component weights must sum to a positive value")
    weights = weights / total
    lengths = [len(c["mean"]) for c in comps]
    for i, n in enumerate(lengths):
        if n != lengths[0]:
            raise ConfigError(f"data.components[{i}].mean has length {n}, "
                              f"component 0's has {lengths[0]}")
    means = np.array([c["mean"] for c in comps], dtype=float)
    variances = np.array([c["variance"] for c in comps], dtype=float)
    if group is not None:
        shape = group.state_shape
        if means.shape[1] != np.prod(shape):
            raise ConfigError(f"data.components means have length {means.shape[1]}; "
                              f"group {group.name} acts on states of shape {shape}")
        means = means.reshape(len(comps), *shape)
    mix = GaussianMixture(weights=weights, means=means, variances=variances)
    if data.get("symmetrize", False):
        if group is None:
            raise ConfigError("data.symmetrize needs a group section")
        mix = symmetrize(mix, group)
    return mix


class FlatField:
    """Adapter running a flat-vector score net on natively shaped states."""

    def __init__(self, net, event_shape: tuple[int, ...]):
        self.net = net
        self.event_shape = tuple(event_shape)
        self.dim = int(np.prod(self.event_shape))

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        ne = len(self.event_shape)
        if ne == 1:
            return np.asarray(self.net(x, t))
        lead = x.shape[:-ne]
        out = np.asarray(self.net(x.reshape(*lead, self.dim), t))
        return out.reshape(x.shape)


def _require_file(path: Path, what: str) -> Path:
    if not path.exists():
        raise IoError(f"missing {what}: {path} (run the producing command first)")
    return path


def _load_states(path: Path, what: str, group: IsometryGroup | None) -> np.ndarray:
    """The states in a tensor file; an IoError unless they are a nonempty
    batch of nonempty states, of the group's state shape under a group."""
    x = io.read_spdt(_require_file(path, what))
    if x.ndim < 2 or x.size == 0 or (group is not None and x.shape[1:] != group.state_shape):
        want = "states" if group is None else f"states of shape {group.state_shape}"
        raise IoError(f"{what} {path} has shape {x.shape}, not a nonempty batch of {want}")
    return x


def _seed(seed_override: int | None, section: dict) -> int:
    return seed_override if seed_override is not None else section.get("seed", 0)


# ---- model loading -------------------------------------------------------


def _checkpoint_path(cfg: dict, out_dir: Path) -> Path:
    explicit = cfg.get("model", {}).get("checkpoint")
    return Path(explicit) if explicit else out_dir / "checkpoint.json"


def load_checkpoint(path: Path) -> TrainResult:
    """Load a checkpoint manifest plus its tensor files: the nets and the
    optimizer state and step count that ``train(resume=...)`` continues.

    An unreadable manifest, or an optimizer state that is not the (2, P)
    moments of the net's P parameters, raises IoError; a missing or
    malformed entry, an unknown ``tie_tag`` included, raises ConfigError.
    """
    _require_file(path, "checkpoint manifest")
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise IoError(f"checkpoint manifest {path} is unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IoError(f"checkpoint manifest {path} is not a JSON object")
    base = path.parent

    def rebuild(file_key):
        net = Mlp(manifest["x_dim"], hidden=tuple(manifest["hidden"]),
                  horizon=manifest["horizon"], seed=manifest["seed"],
                  tie_group=tie_group)
        net.set_flat_parameters(io.read_spdt(
            _require_file(base / manifest[file_key], "checkpoint tensor")))
        return net

    try:
        tie_tag = manifest.get("tie_tag")
        tie_group = None if tie_tag is None else make_group(tie_tag)
        net, ema = rebuild("params_file"), rebuild("ema_file")
        adam_path = _require_file(base / manifest["adam_file"], "optimizer state")
        adam = io.read_spdt(adam_path)
        if adam.shape != (2, net.theta.size):
            raise IoError(f"optimizer state {adam_path} has shape {adam.shape}, "
                          f"expected {(2, net.theta.size)} for the net's parameters")
        return TrainResult(net=net, ema_net=ema,
                           opt_state=(adam[0], adam[1], manifest["adam_step_count"]),
                           steps_done=int(manifest["steps_done"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"checkpoint manifest {path} has a missing or malformed entry: {exc!r}"
        ) from exc


def build_score(cfg: dict, s: Schedule, group: IsometryGroup | None,
                out_dir: Path, event_shape: tuple[int, ...]):
    """Score field (x, t) for the configured model kind."""
    kind = cfg.get("model", {}).get("kind", "oracle")
    if kind.startswith("oracle"):
        mix = build_mixture(cfg, group)
        field = AnalyticScoreField(mix, s)
    else:
        ema = load_checkpoint(_checkpoint_path(cfg, out_dir)).ema_net
        tied = ema.tie_group
        if kind == "mlp+WT" and (tied is None or group is None or tied.name != group.name):
            raise ConfigError("model kind 'mlp+WT' needs a checkpoint whose tie_tag "
                              "names the config's group")
        field = FlatField(ema, event_shape)
    if kind.endswith("+FA"):
        if group is None:
            raise ConfigError(f"model kind {kind!r} needs a group section")
        field = frame_average(field, group)
    return field


def build_bridge_score(cfg: dict, s: Schedule, group: IsometryGroup | None,
                       event_shape: tuple[int, ...]):
    """Conditional score (x, x_T, t) of the configured coupling.

    A matrix coupling multiplies the last state axis, so it must be
    square with the size of that axis (d for d-dimensional points).
    """
    model = cfg.get("model", {})
    spec = model.get("coupling")
    if spec is None:
        raise ConfigError("bridge runs need model.coupling (matrix, noise_var)")
    matrix, m = spec["matrix"], event_shape[-1]
    try:
        matrix = float(matrix) if np.isscalar(matrix) else np.array(matrix, dtype=float)
    except ValueError:  # ragged rows
        matrix = np.empty(0)
    if np.ndim(matrix) and matrix.shape != (m, m):
        raise ConfigError(f"model.coupling.matrix must be a scalar or a ({m}, {m}) "
                          f"matrix for states of shape {event_shape}")
    coupling = GaussianCoupling(matrix=matrix, noise_var=float(spec["noise_var"]))
    field = BridgeScoreField(coupling, s)
    if model.get("kind", "oracle").endswith("+FA"):
        if group is None:
            raise ConfigError("FA bridge score needs a group section")
        field = frame_average(field, group, conditional=True)
    return field


# ---- commands ------------------------------------------------------------


# Each command takes the config, the output directory, the --seed value,
# and the config hash, schedule and group that ``main`` builds for it; it
# returns the (seed, outputs, params) of its manifest.


def cmd_gen_data(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
                 s: Schedule, group: IsometryGroup | None):
    mix = build_mixture(cfg, group)
    data_cfg = cfg.get("data", {})
    seed = _seed(seed_override, data_cfg)
    n = data_cfg.get("n_samples", 1000)
    samples = mix.sample(np.random.default_rng(seed), n)
    io.write_spdt(out_dir / "data.spdt", samples)

    spec_doc = {
        "config_hash": chash,
        "seed": seed,
        "n_samples": n,
        "symmetrized": bool(data_cfg.get("symmetrize", False)),
        "weights": mix.weights.tolist(),
        "means": mix.means.tolist(),
        "variances": mix.variances.tolist(),
    }
    if group is not None:
        spec_doc["group"] = group.name
        ids = canonical_ids(group, samples)
        counts = np.bincount(ids, minlength=len(group))
        spec_doc["orientation_counts"] = {el.name: int(counts[el.gid])
                                          for el in group.elements}
    io.write_json(out_dir / "data_spec.json", spec_doc)
    return seed, ["data.spdt", "data_spec.json"], {"n_samples": n,
                                                   "components": len(mix.weights)}


def cmd_train(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
              s: Schedule, group: IsometryGroup | None):
    tcfg_raw = dict(cfg.get("train", {}))
    mode = tcfg_raw.pop("mode", "plain")
    if cfg.get("model", {}).get("kind") == "mlp+WT" and mode != "WT":
        raise ConfigError(f"model.kind 'mlp+WT' needs train.mode 'WT', "
                          f"got train.mode {mode!r}")
    init_path = tcfg_raw.pop("init_checkpoint", None)
    tcfg_raw["seed"] = _seed(seed_override, tcfg_raw)
    hidden = tcfg_raw.pop("hidden", None)
    tcfg = TrainerConfig(**tcfg_raw) if hidden is None else \
        TrainerConfig(hidden=tuple(hidden), **tcfg_raw)

    data = _load_states(out_dir / "data.spdt", "dataset", group)
    flat = data.reshape(data.shape[0], -1)

    resume = load_checkpoint(Path(init_path)) if init_path else None
    result = train(tcfg, flat, s, group=group, mode=mode, resume=resume)

    io.write_spdt(out_dir / "checkpoint.spdt", result.net.flat_parameters())
    io.write_spdt(out_dir / "checkpoint_ema.spdt",
                  result.ema_net.flat_parameters())
    m, v, step_count = result.opt_state
    io.write_spdt(out_dir / "checkpoint_adam.spdt", np.stack([m, v]))
    manifest = {
        "config_hash": chash,
        "seed": tcfg.seed,
        "mode": mode,
        "x_dim": result.net.x_dim,
        "hidden": list(result.net.hidden),
        "sizes": list(result.net.sizes),
        "horizon": s.T,
        "schedule_kind": s.kind,
        "tie_tag": None if result.net.tie_group is None else result.net.tie_group.tag,
        "free_parameters": result.free_parameters,
        "steps_done": result.steps_done,
        "adam_step_count": step_count,
        "final_loss": float(result.losses[-1]) if result.losses.size else None,
        "params_file": "checkpoint.spdt",
        "ema_file": "checkpoint_ema.spdt",
        "adam_file": "checkpoint_adam.spdt",
    }
    io.write_json(out_dir / "checkpoint.json", manifest)
    rows = []
    for i in range(result.losses.size):
        reg = float(result.reg_losses[i]) if result.reg_losses is not None else 0.0
        rows.append([i, float(result.losses[i]), reg, chash, tcfg.seed])
    io.write_csv(out_dir / "loss.csv",
                 ["step", "dsm_loss", "reg_loss", "config_hash", "seed"], rows)
    return tcfg.seed, ["checkpoint.spdt", "checkpoint_ema.spdt", "checkpoint_adam.spdt",
                       "checkpoint.json", "loss.csv"], \
        {"mode": mode, "steps": tcfg.steps, "free_parameters": result.free_parameters}


def _event_shape(cfg: dict, group: IsometryGroup | None,
                 out_dir: Path) -> tuple[int, ...]:
    """Shape of one state: the shape the group acts on, else the shape of
    the mixture means, or the checkpoint's ``x_dim`` for a net model whose
    config has no data section."""
    if group is not None:
        return group.state_shape
    if "data" in cfg or cfg.get("model", {}).get("kind", "oracle").startswith("oracle"):
        return build_mixture(cfg, None).event_shape
    return (load_checkpoint(_checkpoint_path(cfg, out_dir)).ema_net.x_dim,)


def _prior_draws(s: Schedule, n: int, event_shape: tuple[int, ...],
                 seed: int) -> np.ndarray:
    return float(np.sqrt(s.sigma2(s.T))) * _aux_rng(seed).standard_normal((n, *event_shape))


def _chain_map(integrate, group: IsometryGroup | None, use_en: bool, seed: int,
               n_steps: int):
    """Map from a batch of starts to terminal states: what a command writes.

    ``integrate(starts, noise)`` runs the sampler on the whole batch.  The
    batch shares one noise stream keyed by (``seed``, step); batch row r
    draws stream row ``rows[r]`` (row r without ``rows``), which is the
    same whatever the batch size.  With equivariant noise row r is turned
    by its own kappa_r = c(x_r) o c(eps_{0,r})^{-1}, which follows start
    x_r.  Either way a row's output depends only on its start and its
    stream row, so probe rows that replay stream rows 0..p-1 measure this
    very map (``_run_with_probe``).
    """
    if not use_en:
        return lambda starts, rows=None: integrate(starts, sampling.NoiseSequence(
            seed=seed, n=n_steps, shape=starts.shape, rows=rows))
    if group is None:
        raise ConfigError("equivariant_noise needs a group section")
    return lambda starts, rows=None: integrate(starts, sampling.equivariant_noise_batch(
        starts, seed, group, n_steps, rows))


def _run_with_probe(run, x_T: np.ndarray, group: IsometryGroup | None,
                    n_probe: int, seed: int) -> tuple[np.ndarray, float | None]:
    """The written ends ``run(x_T)`` and the delta_x0 gap of ``run`` on the
    first ``n_probe`` starts, from one call of ``run``.

    The moved starts k_i x_T[i] go after the n written starts and replay
    stream rows 0..n_probe-1, so the gap is ``metrics.delta_x0_gap(run,
    x_T[:n_probe], group, _aux_rng(seed + 1))`` without running the chains
    again.  No probe (gap None) without a group or with ``n_probe`` 0.
    """
    n = len(x_T)
    if group is None or n_probe == 0:
        return run(x_T), None
    moved, ids = metrics.delta_x0_moves(x_T[:n_probe], group, _aux_rng(seed + 1))
    rows = np.concatenate([np.arange(n), np.arange(n_probe)])
    out = run(np.concatenate([x_T, moved]), rows)
    return out[:n], metrics.delta_x0_from_ends(out[:n_probe], out[n:], group, ids)


def cmd_sample(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
               s: Schedule, group: IsometryGroup | None):
    sp = cfg.get("sampler", {})
    seed = _seed(seed_override, sp)
    lam, steps, n = sp.get("lam", 1.0), sp.get("steps", 400), sp.get("n_samples", 512)
    use_en = sp.get("equivariant_noise", False)
    params = {"lam": lam, "steps": steps, "n_samples": n, "equivariant_noise": use_en}

    event_shape = _event_shape(cfg, group, out_dir)
    score = build_score(cfg, s, group, out_dir, event_shape)
    grid = sampling.sampling_grid(s, steps)
    x_T = _prior_draws(s, n, event_shape, seed)
    run = _chain_map(lambda x, noise: sampling.reverse_sde_sample(
        score, s, lam, grid, x, noise=noise, record=False).terminal,
        group, use_en, seed, grid.n_steps)
    samples, gap = _run_with_probe(run, x_T, group, min(4, n) if lam > 0 else 0, seed)
    summary = {"config_hash": chash, "seed": seed, **params,
               "mean_norm": float(np.mean(np.linalg.norm(
                   samples.reshape(n, -1), axis=1)))}
    if gap is not None:
        summary["delta_x0"] = gap
    io.write_spdt(out_dir / "samples.spdt", samples)
    io.write_json(out_dir / "sample_summary.json", summary)
    return seed, ["samples.spdt", "sample_summary.json"], params


def cmd_bridge(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
               s: Schedule, group: IsometryGroup | None):
    sp = cfg.get("sampler", {})
    seed = _seed(seed_override, sp)
    tau, steps, n = sp.get("tau", 1.0), sp.get("steps", 400), sp.get("n_samples", 256)
    use_en = sp.get("equivariant_noise", False)
    params = {"tau": tau, "steps": steps, "n_samples": n, "equivariant_noise": use_en}

    event_shape = _event_shape(cfg, group, out_dir)
    cond_score = build_bridge_score(cfg, s, group, event_shape)
    grid = sampling.bridge_grid(s, steps)
    x_T = _prior_draws(s, n, event_shape, seed)
    run = _chain_map(lambda x, noise: sampling.ddbm_reverse_sample(
        cond_score, s, x, tau, grid, noise=noise, record=False).terminal,
        group, use_en, seed, grid.n_steps)
    samples, gap = _run_with_probe(run, x_T, group, min(8, n), seed)
    summary = {"config_hash": chash, "seed": seed, **params}
    if gap is not None:
        summary["delta_x0"] = gap
    io.write_spdt(out_dir / "bridge_samples.spdt", samples)
    io.write_json(out_dir / "bridge_summary.json", summary)
    return seed, ["bridge_samples.spdt", "bridge_summary.json"], params


def _nll_field(cfg: dict, s: Schedule, group: IsometryGroup | None, out_dir: Path,
               event_shape: tuple[int, ...]):
    """The ``nll`` section's points, steps and div_mode, defaults filled in,
    and the configured score."""
    spec = cfg.get("nll", {})
    return (spec.get("points", 16), spec.get("steps", 200),
            spec.get("div_mode", "exact_fd"),
            build_score(cfg, s, group, out_dir, event_shape))


def cmd_nll(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
            s: Schedule, group: IsometryGroup | None):
    seed = _seed(seed_override, {})
    data = _load_states(out_dir / "data.spdt", "dataset", group)
    n_points, steps, div_mode, score = _nll_field(cfg, s, group, out_dir,
                                                  data.shape[1:])
    report = metrics.pf_ode_nll(score, s, data[:n_points], sampling.nll_grid(s, steps),
                                div_mode=div_mode, seed=seed)
    ll, bpd = report.log_likelihood, report.bits_per_dim
    d = data[0].size
    rows = [[i, float(ll[i]), float(-ll[i] / d), float(bpd[i]), chash, seed]
            for i in range(len(ll))]
    io.write_csv(out_dir / "nll.csv",
                 ["index", "log_likelihood", "nll_nats_per_dim",
                  "bits_per_dim", "config_hash", "seed"], rows)
    params = {"points": len(ll), "steps": steps, "div_mode": div_mode}
    io.write_json(out_dir / "nll_summary.json", {
        "config_hash": chash, "seed": seed, **params,
        "mean_nll_nats_per_dim": float(np.mean(-ll / d)),
        "mean_bits_per_dim": float(np.mean(bpd)),
    })
    return seed, ["nll.csv", "nll_summary.json"], params


def _tweedie_denoiser(score, s: Schedule):
    t_probe = 0.5 * s.T
    alpha, sigma2 = map(float, s.alpha_sigma2(t_probe))

    def model(x):
        return (x + sigma2 * np.asarray(score(x, t_probe))) / alpha

    return model


def _plane(flat: np.ndarray) -> np.ndarray:
    """The first two coordinates of each flat state; a lone one at height 0."""
    return np.pad(flat[:, :2], ((0, 0), (0, 2 - min(2, flat.shape[1]))))


def cmd_metrics(cfg: dict, out_dir: Path, seed_override: int | None, chash: str,
                s: Schedule, group: IsometryGroup | None):
    seed = _seed(seed_override, {})
    wanted = cfg.get("metrics", ["fid", "inv_fid"])

    data = _load_states(out_dir / "data.spdt", "dataset", group)
    samples = _load_states(out_dir / "samples.spdt", "sample set", group)
    event_shape = data.shape[1:]
    for name in wanted:
        if group is None and name in ("inv_fid", "delta_x0", "nll_table"):
            raise ConfigError(f"{name} needs a group section")
    data_flat = data.reshape(data.shape[0], -1)
    samp_flat = samples.reshape(samples.shape[0], -1)
    fspec = metrics.FeatureSpec(dim_in=data_flat.shape[1])

    rows = []

    def emit(name, value):
        if not np.isfinite(value):
            raise NonFiniteState(f"metric {name} is {value}")
        rows.append([name, float(value), chash, seed])

    for name in wanted:
        if name == "fid":
            emit("fid", metrics.frechet_distance(
                metrics.dataset_stats(data_flat, fspec),
                metrics.dataset_stats(samp_flat, fspec)))
        elif name == "inv_fid":
            emit("inv_fid", metrics.inv_fid(samples, group, fspec))
        elif name == "delta_x0":
            score = build_score(cfg, s, group, out_dir, event_shape)
            model = _tweedie_denoiser(score, s)
            emit("delta_x0", metrics.delta_x0_gap(
                model, samples[:16], group, _aux_rng(seed)))
        elif name == "energy":
            cap = 2000
            stat, p = metrics.energy_distance_test(
                data_flat[:cap], samp_flat[:cap], seed=seed)
            emit("energy_stat", stat)
            emit("energy_p", p)
        elif name == "nll_table":
            _nll_table(cfg, s, group, out_dir, data, chash, seed)
            emit("nll_table_rows", len(group))
    io.write_csv(out_dir / "metrics.csv",
                 ["name", "value", "config_hash", "seed"], rows)

    series = [("data", _plane(data_flat), "#999999")]
    if group is not None:
        ids = canonical_ids(group, samples)
        order = np.argsort(ids, kind="stable")  # sample order within a group
        gids, first = np.unique(ids[order], return_index=True)
        for gid, pts in zip(gids.tolist(), np.split(_plane(samp_flat[order]), first[1:])):
            series.append((f"samples[{group.elements[gid].name}]", pts,
                           io.palette_color(gid)))
    else:
        series.append(("samples", _plane(samp_flat), io.palette_color(0)))
    io.svg_scatter(out_dir / "scatter.svg", series,
                   title="data vs samples",
                   comment=f"config {chash} seed {seed}")

    outputs = ["metrics.csv", "scatter.svg"]
    if "nll_table" in wanted:
        outputs.append("nll_table.csv")
    return seed, outputs, {"metrics": list(wanted)}


def _nll_table(cfg, s, group, out_dir: Path, data: np.ndarray, chash: str,
               seed: int) -> None:
    """Mean NLL of the dataset under every orientation of the inputs, all
    orientations stacked into one ``pf_ode_nll`` call."""
    n_points, steps, div_mode, score = _nll_field(cfg, s, group, out_dir,
                                                  data.shape[1:])
    n_points = min(n_points, data.shape[0])
    moved = _move_blocks(group, data[None, :n_points], np.arange(len(group)))
    rep = metrics.pf_ode_nll(score, s, moved.reshape(-1, *data.shape[1:]),
                             sampling.nll_grid(s, steps),
                             div_mode=div_mode, seed=seed)
    nll = (-rep.log_likelihood / data[0].size).reshape(len(group), n_points)
    rows = [[el.name, float(np.mean(nll[el.gid])), chash, seed]
            for el in group.elements]
    io.write_csv(out_dir / "nll_table.csv",
                 ["kappa", "mean_nll_nats_per_dim", "config_hash", "seed"],
                 rows)


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    from .verify import run_all  # here, so no data command compiles the suite
    chash = io.config_hash(cfg)
    results = run_all()
    all_passed = all(r.passed for r in results)
    io.write_json(out_dir / "verify.json", {
        "config_hash": chash,
        "all_passed": all_passed,
        "checks": [r.as_dict() for r in results],
    })
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: "
              f"observed {r.observed:.3e} (tolerance {r.tolerance:g})")
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    return EXIT_OK if all_passed else EXIT_VERIFY


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sample": cmd_sample,
    "bridge": cmd_bridge,
    "nll": cmd_nll,
    "metrics": cmd_metrics,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it keeps no state
    between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="spdm",
        description="Simulation and verification toolkit for "
                    "structure-preserving diffusion processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
        ("gen-data", "draw a dataset from the configured mixture"),
        ("train", "train a score net on the generated dataset"),
        ("sample", "run the reverse-SDE family from the prior"),
        ("bridge", "run the backward bridge from endpoint draws"),
        ("nll", "probability-flow log-likelihood of the dataset"),
        ("metrics", "sample-quality metrics, tables and scatter plots"),
        ("verify", "run the named self-check suite"),
    ]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path,
                       required=(name != "verify"), help="JSON config path")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: config out_dir or ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the command's seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    out_dir = None
    try:
        cfg = io.load_config(args.config) if args.config else {}
        out_dir = Path(args.out) if args.out else Path(cfg.get("out_dir", "out"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc
        if args.command == "verify":
            code = cmd_verify(cfg, out_dir)
        else:
            chash, s, group = io.config_hash(cfg), build_schedule(cfg), build_group(cfg)
            seed, outputs, params = HANDLERS[args.command](cfg, out_dir, args.seed,
                                                           chash, s, group)
            io.write_json(out_dir / f"{args.command}_manifest.json", {
                "command": args.command, "config_hash": chash, "seed": seed,
                "outputs": sorted(outputs), "params": params})
            code = EXIT_OK
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except (ConfigError, IoError, SpdmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if out_dir is not None:
        try:
            io.append_log(out_dir / "run.log",
                          f"command={args.command} exit={code}")
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
