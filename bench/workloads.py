"""The benchmark workloads: configs, command sequences and checks.

A workload is a list of ``spdm`` CLI commands run on JSON configs that
are generated from the benchmark seed.  The seed picks the dataset,
sampler and training streams; the mixture make-up and every size are
fixed, so the work per round does not depend on the seed.  Why each size
was chosen is written in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass
class Workload:
    name: str
    configs: dict            # config file name -> config dict
    commands: list           # (command, config file name), in order
    sample_chain_steps: int  # n_samples x steps the sample command writes
    nll_point_steps: int     # points x steps of the nll command
    event_dim: int           # numbers per sample

    def write_configs(self, out: Path) -> None:
        for fname, cfg in self.configs.items():
            (out / fname).write_text(json.dumps(cfg, indent=2), "utf-8")


def _seeds(seed: int) -> tuple[int, int, int]:
    base = seed % (2**31 - 4)
    return base, base + 1, base + 2


def point_en(seed: int) -> Workload:
    data_seed, sampler_seed, train_seed = _seeds(seed)
    cfg = {
        "schedule": {"kind": "vp"},
        "group": {"name": "C4"},
        "data": {"components": [
            {"weight": 0.6, "mean": [2.4, 0.6], "variance": 0.4},
            {"weight": 0.4, "mean": [0.6, 1.8], "variance": 0.5}],
            "symmetrize": True, "n_samples": 512, "seed": data_seed},
        "model": {"kind": "oracle+FA",
                  "coupling": {"matrix": 0.8, "noise_var": 0.05}},
        "train": {"mode": "WT", "steps": 400, "hidden": [16, 16],
                  "batch_size": 256, "learning_rate": 1e-3, "ema_mu": 0.9,
                  "seed": train_seed},
        "sampler": {"lam": 1.0, "steps": 24, "n_samples": 64,
                    "seed": sampler_seed, "equivariant_noise": True},
        "nll": {"points": 1, "steps": 28, "div_mode": "hutchinson"},
        "metrics": ["fid", "inv_fid", "energy"],
    }
    bridge = json.loads(json.dumps(cfg))
    bridge["sampler"] = {"tau": 1.0, "steps": 20, "n_samples": 32,
                         "seed": sampler_seed, "equivariant_noise": True}
    return Workload(
        name="point_en",
        configs={"config.json": cfg, "bridge.json": bridge},
        commands=[("gen-data", "config.json"), ("train", "config.json"),
                  ("sample", "config.json"), ("bridge", "bridge.json"),
                  ("nll", "config.json"), ("metrics", "config.json")],
        sample_chain_steps=64 * 24, nll_point_steps=1 * 28, event_dim=2)


def grid_means() -> list:
    """Four fixed 8x8 component means (seed 0, scale 0.4), as flat lists."""
    rng = np.random.default_rng(0)
    return (0.4 * rng.standard_normal((4, 64))).tolist()


def grid_batched(seed: int) -> Workload:
    data_seed, sampler_seed, _ = _seeds(seed)
    cfg = {
        "schedule": {"kind": "vp"},
        "group": {"name": "D4", "shape": [8, 8]},
        "data": {"components": [{"weight": 0.25, "mean": m, "variance": 0.5}
                                for m in grid_means()],
                 "symmetrize": True, "n_samples": 512, "seed": data_seed},
        "model": {"kind": "oracle+FA"},
        "sampler": {"lam": 1.0, "steps": 32, "n_samples": 256,
                    "seed": sampler_seed},
        "nll": {"points": 2, "steps": 16, "div_mode": "exact_fd"},
        "metrics": ["fid", "inv_fid", "energy", "delta_x0"],
    }
    return Workload(
        name="grid_batched",
        configs={"config.json": cfg},
        commands=[("gen-data", "config.json"), ("sample", "config.json"),
                  ("nll", "config.json"), ("metrics", "config.json")],
        sample_chain_steps=256 * 32, nll_point_steps=2 * 16, event_dim=64)


WORKLOADS = {"point_en": point_en, "grid_batched": grid_batched}


# ---- checks per workload -------------------------------------------------


def _en_chain_check(cfg: dict, seed: int) -> list:
    """Run EN chains from x and from k x for every k in C4 (library API)."""
    import spdm

    G = spdm.make_point_group_2d(4)
    data = cfg["data"]["components"]
    mix = spdm.symmetrize(spdm.GaussianMixture(
        weights=np.array([c["weight"] for c in data]),
        means=np.array([c["mean"] for c in data]),
        variances=np.array([c["variance"] for c in data])), G)
    s = spdm.vp_schedule()
    score = spdm.frame_average(spdm.AnalyticScoreField(mix, s), G)
    canon = spdm.default_canonicalizer(G)
    grid = spdm.sampling_grid(s, cfg["sampler"]["steps"])
    lam = cfg["sampler"]["lam"]

    def chain(start, chain_seed):
        seq = spdm.equivariant_noise_sequence(start, chain_seed, G, canon,
                                              grid.n_steps)
        return spdm.reverse_sde_sample(score, s, lam, grid, start,
                                       noise=seq).terminal

    mats = checks.point_group("C4")
    rng = np.random.default_rng(seed)
    runs = []
    for j, x in enumerate(rng.standard_normal((2, 2))):
        chain_seed = seed * 2 + j
        runs.append((x, chain(x, chain_seed),
                     [chain(x @ k.T, chain_seed) for k in mats]))
    return checks.check_en_commutation(runs, mats)


def _wt_forward(out: Path, cfg: dict):
    """The EMA net the train command wrote, loaded through the library API."""
    import spdm

    man = json.loads((out / "checkpoint.json").read_text("utf-8"))
    tag = cfg["group"]["name"]
    if man.get("tie_tag") != tag:
        return None
    net = spdm.Mlp(man["x_dim"], hidden=tuple(man["hidden"]),
                   horizon=man["horizon"], seed=man["seed"],
                   tie_group=spdm.make_point_group_2d(
                       4, with_reflection=(tag == "D4")))
    net.set_flat_parameters(checks.read_spdt(out / man["ema_file"]))
    return lambda x, t: np.asarray(net(x, t)), man["horizon"]


def run_checks(w: Workload, out: Path, seed: int) -> list:
    cfg = w.configs["config.json"]
    mix = checks.mixture_from_config(cfg)
    data = checks.read_spdt(out / "data.spdt")
    samples = checks.read_spdt(out / "samples.spdt")
    nll_rows = checks.read_csv(out / "nll.csv")
    result = checks.check_moments("sample", samples, mix, cfg["sampler"]["steps"])
    result += checks.check_nll(nll_rows, data, mix, cfg["nll"]["points"])
    if w.name == "point_en":
        result += _en_chain_check(cfg, seed)
        result += checks.check_bridge_marginal(
            checks.read_spdt(out / "bridge_samples.spdt"), w.configs["bridge.json"])
        loaded = _wt_forward(out, cfg)
        if loaded is None:
            result.append(checks.Check("tying_tag", 1.0, 0.0, False))
        else:
            forward, horizon = loaded
            result += checks.check_tying(forward, checks.point_group(
                cfg["group"]["name"]), horizon, seed, "ema")
        losses = [float(r["dsm_loss"]) for r in checks.read_csv(out / "loss.csv")]
        result += checks.check_loss_drop(np.array(losses))
    else:
        result += checks.check_metric_row(checks.read_csv(out / "metrics.csv"),
                                          "delta_x0", checks.EXACT_TOL)
    return result
