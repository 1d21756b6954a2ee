"""Per-layer spans recorded from outside the program.

The layers are the modules of ``spdm``.  ``Tracer.install`` replaces the
public callables listed in ``PROBES`` (module functions and class methods)
with wrappers that record a span: probe, start, end and parent span.  The
spans stay in memory and are written out after the last round.  A layer's
self time is its spans' time minus the time of their child spans.

A probe whose target no longer exists is reported as absent; the metrics
that need it come out as ``None`` and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

# (layer, module, attribute path, role).  Roles mark the spans the derived
# metrics need: "score" is one score-field evaluation, "fa" a frame
# average, "integrator" one sampler trajectory, "div" one divergence
# evaluation, "noise" one noise draw, "canon" one canonicalization.
PROBES = [
    ("process", "spdm.process", "Schedule.beta", ""),
    ("process", "spdm.process", "Schedule.log_alpha", ""),
    ("process", "spdm.process", "Schedule.dlog_alpha_dt", ""),
    ("process", "spdm.process", "Schedule.alpha", ""),
    ("process", "spdm.process", "Schedule.sigma2", ""),
    ("process", "spdm.process", "Schedule.sigma", ""),
    ("process", "spdm.process", "Schedule.dsigma2_dt", ""),
    ("process", "spdm.process", "Schedule.g2", ""),
    ("process", "spdm.process", "Schedule.g", ""),
    ("process", "spdm.process", "Schedule.drift", ""),
    ("process", "spdm.process", "grad_log_transition_h", ""),
    ("process", "spdm.process", "bridge_kernel", ""),
    ("oracle", "spdm.oracle", "diffused_score", "oracle_score"),
    ("oracle", "spdm.oracle", "log_density", ""),
    ("oracle", "spdm.oracle", "AnalyticScoreField.__call__", "score"),
    ("oracle", "spdm.oracle", "BridgeScoreField.__call__", "score"),
    ("oracle", "spdm.oracle", "bridge_score_oracle", ""),
    ("oracle", "spdm.oracle", "bridge_conditional_params", ""),
    ("oracle", "spdm.oracle", "symmetrize", ""),
    ("oracle", "spdm.oracle", "GaussianMixture.sample", ""),
    ("groups", "spdm.groups", "FrameAveragedField.__call__", "fa"),
    ("groups", "spdm.groups", "GroupElement.apply", ""),
    ("groups", "spdm.groups", "IsometryGroup.compose", ""),
    ("groups", "spdm.groups", "IsometryGroup.inverse", ""),
    ("groups", "spdm.groups", "frame_average", ""),
    ("groups", "spdm.groups", "make_point_group_2d", ""),
    ("groups", "spdm.groups", "make_d4_group", ""),
    ("sampling", "spdm.sampling", "reverse_sde_sample", "integrator"),
    ("sampling", "spdm.sampling", "ddbm_reverse_sample", "integrator"),
    ("sampling", "spdm.sampling", "pf_ode_solve", "integrator"),
    ("sampling", "spdm.sampling", "NoiseSequence.get", "noise"),
    ("sampling", "spdm.sampling", "equivariant_noise_sequence", ""),
    ("sampling", "spdm.sampling", "canonicalize", "canon"),
    ("sampling", "spdm.sampling", "default_canonicalizer", ""),
    ("nets", "spdm.nets", "Mlp.forward", "forward"),
    ("nets", "spdm.nets", "Mlp.backward", ""),
    ("nets", "spdm.nets", "Mlp.__call__", "score"),
    ("nets", "spdm.nets", "Mlp.effective_parameters", ""),
    ("nets", "spdm.nets", "train", "train"),
    ("nets", "spdm.nets", "dsm_loss", ""),
    ("nets", "spdm.nets", "ema_update", ""),
    ("nets", "spdm.nets", "Adam.step", ""),
    ("metrics", "spdm.metrics", "pf_ode_nll", "nll"),
    ("metrics", "spdm.metrics", "_div_eval", "div"),
    ("metrics", "spdm.metrics", "divergence", ""),
    ("metrics", "spdm.metrics", "frechet_distance", ""),
    ("metrics", "spdm.metrics", "dataset_stats", ""),
    ("metrics", "spdm.metrics", "inv_fid", ""),
    ("metrics", "spdm.metrics", "delta_x0_gap", ""),
    ("metrics", "spdm.metrics", "energy_distance_test", ""),
    ("io", "spdm.io", "write_spdt", "write"),
    ("io", "spdm.io", "read_spdt", ""),
    ("io", "spdm.io", "write_json", "write"),
    ("io", "spdm.io", "write_csv", "write"),
    ("io", "spdm.io", "svg_scatter", "write"),
    ("io", "spdm.io", "load_config", ""),
    ("io", "spdm.io", "append_log", ""),
    ("cli", "spdm.cli", "FlatField.__call__", "score"),
    ("cli", "spdm.cli", "build_score", ""),
    ("cli", "spdm.cli", "load_checkpoint", ""),
]

LAYERS = ["process", "oracle", "groups", "sampling", "nets", "metrics", "io",
          "cli"]

# Per-layer metric names and units, in the order they are reported.
METRICS = [(f"{layer}.calls", "count") for layer in LAYERS if layer != "cli"]
METRICS += [(f"{layer}.self_s", "s") for layer in LAYERS]
METRICS += [
    ("process.coeff_us", "us"), ("oracle.score_us", "us"),
    ("groups.fa_us", "us"), ("sampling.step_us", "us"),
    ("sampling.noise_draw_us", "us"), ("sampling.canonicalize_us", "us"),
    ("sampling.nfe", "count"), ("sampling.useful_chain_step_ratio", "ratio"),
    ("nets.forward_us", "us"), ("nets.train_step_ms", "ms"),
    ("metrics.div_us", "us"), ("metrics.score_evals_per_div", "count"),
    ("io.bytes_written", "bytes"), ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
]

# Which metrics each role's probe feeds; they read None when it is absent.
NEEDS = {
    "oracle.score_us": "oracle_score",
    "groups.fa_us": "fa", "sampling.step_us": "integrator",
    "sampling.noise_draw_us": "noise", "sampling.canonicalize_us": "canon",
    "sampling.nfe": "integrator", "sampling.useful_chain_step_ratio": "integrator",
    "nets.forward_us": "forward", "nets.train_step_ms": "train",
    "metrics.div_us": "div", "metrics.score_evals_per_div": "div",
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value) or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    return None if value is None or not callable(value) else (owner, attr, value)


def _units(probe_path: str, fn):
    """Bound-argument reader giving (chains or points, steps) or bytes."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    params = sig.parameters
    if probe_path in ("reverse_sde_sample", "ddbm_reverse_sample", "pf_ode_solve"):
        start = "x_T" if "x_T" in params else "x_start"
        if start not in params or "grid" not in params:
            return None

        def read(bound):
            x = np.asarray(bound.arguments[start])
            return (x.size, bound.arguments["grid"].n_steps)
    elif probe_path == "pf_ode_nll":
        if "x0" not in params or "grid" not in params:
            return None

        def read(bound):
            x = np.atleast_2d(np.asarray(bound.arguments["x0"]))
            return (x.shape[0], bound.arguments["grid"].n_steps)
    elif probe_path == "train":
        if "config" not in params:
            return None

        def read(bound):
            return (1, bound.arguments["config"].steps)
    elif probe_path in ("write_spdt", "write_json", "write_csv", "svg_scatter"):
        if "path" not in params:
            return None

        def read(bound):
            return (os.path.getsize(bound.arguments["path"]), 1)
    else:
        return None
    return sig, read


class Tracer:
    """Span recorder.  Spans are parallel lists indexed by span id."""

    def __init__(self):
        self.probes = []          # (layer, path, role) per probe id
        self.absent = []          # "module:path" of probes whose target is gone
        self._targets = None      # (owner, attr, original, wrapper)
        self.reset()

    def reset(self):
        self.probe = []
        self.start = []
        self.end = []
        self.parent = []
        self.units = {}
        self._stack = []

    def span(self, probe_id: int, fn, units=None):
        """``fn`` wrapped so that each call records one span."""
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.start)
            tracer.probe.append(probe_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                tracer._stack.pop()
            if units is not None:
                sig, read = units
                tracer.units[i] = read(sig.bind(*args, **kwargs))
            return result

        return wrapper

    def add_probe(self, layer: str, path: str, role: str) -> int:
        self.probes.append((layer, path, role))
        return len(self.probes) - 1

    def install(self):
        """Wrap every present probe target in every spdm module using it.

        The wrappers are built on the first call and reused after.
        """
        if self._targets is None:
            self._targets = []
            for layer, module, path, role in PROBES:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append(f"{module}:{path}")
                    continue
                owner, attr, original = found
                wrapped = self.span(self.add_probe(layer, path, role), original,
                                    _units(path, original))
                owners = [owner] if isinstance(owner, type) else [
                    mod for name, mod in list(sys.modules.items())
                    if (name == "spdm" or name.startswith("spdm."))
                    and getattr(mod, attr, None) is original]
                self._targets += [(o, attr, original, wrapped) for o in owners]
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._targets or []:
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as CSV: id, parent, layer, probe, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,probe,start_s,end_s\n")
            for i, pid in enumerate(self.probe):
                layer, name, _ = self.probes[pid]
                fh.write(f"{i},{self.parent[i]},{layer},{name},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def layer_metrics(tr: Tracer, sample_root_probe: int, written_chain_steps: int,
                  event_dim: int) -> dict:
    """Per-layer figures of one traced round (see README for definitions)."""
    n = len(tr.probe)
    probe = np.array(tr.probe, dtype=np.int64)
    parent = np.array(tr.parent, dtype=np.int64)
    dur = np.array(tr.end) - np.array(tr.start)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    layer_of = np.array([LAYERS.index(p[0]) for p in tr.probes])[probe]
    roles = [p[2] for p in tr.probes]
    role_of = np.array(roles, dtype=object)[probe]
    present = set(roles)

    # Flags inherited from ancestors; a parent always precedes its child.
    in_score = np.zeros(n, dtype=bool)
    in_integrator = np.zeros(n, dtype=bool)
    in_div = np.zeros(n, dtype=bool)
    root = np.arange(n)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            in_score[i] = in_score[p] or role_of[p] in ("score", "fa")
            in_integrator[i] = in_integrator[p] or role_of[p] == "integrator"
            in_div[i] = in_div[p] or role_of[p] == "div"
            root[i] = root[p]

    def mean_us(mask):
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    out = {}
    for li, layer in enumerate(LAYERS):
        mask = layer_of == li
        if layer != "cli":
            out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.self_s"] = float(self_t[mask].sum())

    process = LAYERS.index("process")
    outer_process = (layer_of == process) & np.array(
        [p < 0 or layer_of[p] != process for p in parent], dtype=bool)
    out["process.coeff_us"] = mean_us(outer_process)
    out["oracle.score_us"] = mean_us(role_of == "oracle_score")

    fa = np.flatnonzero(role_of == "fa")
    if fa.size:
        base = np.zeros(n)
        is_score_child = has_parent & (role_of == "score")
        np.add.at(base, parent[is_score_child], dur[is_score_child])
        out["groups.fa_us"] = float((dur[fa] - base[fa]).mean() * 1e6)
    else:
        out["groups.fa_us"] = 0.0

    integ = np.flatnonzero(role_of == "integrator")
    steps = sum(tr.units[i][1] for i in integ if i in tr.units)
    out["sampling.step_us"] = float(dur[integ].sum() / steps * 1e6) if steps else 0.0
    out["sampling.noise_draw_us"] = mean_us(role_of == "noise")
    out["sampling.canonicalize_us"] = mean_us(role_of == "canon")
    outer_score = np.isin(role_of, ("score", "fa")) & ~in_score
    out["sampling.nfe"] = int((outer_score & in_integrator).sum())
    in_sample = probe[root] == sample_root_probe
    integrated = sum(tr.units[i][0] // event_dim * tr.units[i][1]
                     for i in integ if i in tr.units and in_sample[i])
    out["sampling.useful_chain_step_ratio"] = \
        written_chain_steps / integrated if integrated else 0.0

    out["nets.forward_us"] = mean_us(role_of == "forward")
    train = np.flatnonzero(role_of == "train")
    train_steps = sum(tr.units[i][1] for i in train if i in tr.units)
    out["nets.train_step_ms"] = \
        float(dur[train].sum() / train_steps * 1e3) if train_steps else 0.0

    div = np.flatnonzero(role_of == "div")
    nll = np.flatnonzero(role_of == "nll")
    point_divs = sum(tr.units[i][0] * (tr.units[i][1] + 1)
                     for i in nll if i in tr.units)
    out["metrics.div_us"] = \
        float(dur[div].sum() / point_divs * 1e6) if point_divs and div.size else 0.0
    out["metrics.score_evals_per_div"] = \
        float((outer_score & in_div).sum() / div.size) if div.size else 0.0

    writes = np.flatnonzero(role_of == "write")
    out["io.bytes_written"] = int(sum(tr.units[i][0] for i in writes
                                      if i in tr.units))
    for name, role in NEEDS.items():
        if role not in present:
            out[name] = None
    return out
