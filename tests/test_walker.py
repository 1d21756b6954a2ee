"""Every command on a corpus of edge configs and damaged files, in process.

The walk holds the command layer to its exit-code contract: a run ends
with 0, 2, 3 or 4, no exception escapes ``main``, and every data file an
exit-0 run writes holds only finite numbers.  Every size is tiny, so the
whole walk takes a few seconds.
"""

import json

import numpy as np
import pytest

from spdm.cli import main
from spdm.io import read_spdt

COMMANDS = ("gen-data", "train", "sample", "bridge", "nll", "metrics")
EXIT_CODES = (0, 2, 3, 4)


def _config(means, group=None, kind="oracle", schedule="vp", mode="plain",
            metrics=("fid", "energy"), en=False):
    cfg = {"schedule": {"kind": schedule},
           "data": {"components": [{"weight": 1.0, "mean": m, "variance": 0.3}
                                   for m in means],
                    "n_samples": 24, "seed": 1},
           "model": {"kind": kind, "coupling": {"matrix": 0.8, "noise_var": 0.05}},
           "train": {"mode": mode, "steps": 3, "hidden": [4], "batch_size": 8,
                     "learning_rate": 1e-3, "seed": 0},
           "sampler": {"lam": 1.0, "tau": 1.0, "steps": 4, "n_samples": 6, "seed": 2,
                       "equivariant_noise": en},
           "nll": {"points": 2, "steps": 4, "div_mode": "hutchinson"},
           "metrics": list(metrics)}
    if group is not None:
        cfg["group"] = group
        cfg["data"]["symmetrize"] = True
    return cfg


def _grid_means(h, w):
    return [np.linspace(-1.0, 1.0, h * w).tolist()]


def _unsymmetrized(cfg):
    """The config with raw data, whose averaged oracle keeps all |G| blocks."""
    cfg["data"]["symmetrize"] = False
    return cfg


GROUP_METRICS = ("fid", "inv_fid", "energy", "delta_x0", "nll_table")

CORPUS = {
    "points_d1": _config([[0.5]]),
    "points_d3": _config([[1.0, -0.5, 0.3], [-1.0, 0.5, 0.0]]),
    "c4_points": _config([[1.2, 0.3]], {"name": "C4"}, "oracle+FA",
                         metrics=GROUP_METRICS, en=True),
    "d4_points": _config([[1.2, 0.3]], {"name": "D4"}, metrics=GROUP_METRICS, en=True),
    "c4_points_3d_means": _config([[1.2, 0.3, 0.1]], {"name": "C4"}),
    "flip_h_grid": _config(_grid_means(2, 3), {"name": "flip_h", "shape": [2, 3]},
                           "oracle+FA", metrics=GROUP_METRICS, en=True),
    "c4_grid": _config(_grid_means(2, 2), {"name": "C4", "shape": [2, 2]},
                       metrics=GROUP_METRICS, en=True),
    "d4_grid": _config(_grid_means(3, 3), {"name": "D4", "shape": [3, 3]},
                       "oracle+FA", metrics=GROUP_METRICS, en=True),
    "ve": _config([[1.2, 0.3]], {"name": "C4"}, schedule="ve", metrics=GROUP_METRICS),
    "mlp": _config([[1.2, 0.3]], kind="mlp"),
    "mlp_fa": _config([[1.2, 0.3]], {"name": "C4"}, "mlp+FA", mode="regularized",
                      metrics=GROUP_METRICS, en=True),
    "mlp_wt": _config([[1.2, 0.3]], {"name": "D4"}, "mlp+WT", mode="WT",
                      metrics=GROUP_METRICS, en=True),
    "c4_points_raw_fa": _unsymmetrized(_config([[1.2, 0.3]], {"name": "C4"}, "oracle+FA",
                                              metrics=GROUP_METRICS)),
    "d4_grid_raw_fa": _unsymmetrized(_config(_grid_means(3, 3), {"name": "D4", "shape": [3, 3]},
                                             "oracle+FA", metrics=GROUP_METRICS, en=True)),
    "mlp_fa_grid": _config(_grid_means(3, 3), {"name": "D4", "shape": [3, 3]}, "mlp+FA",
                           mode="regularized", metrics=GROUP_METRICS, en=True),
}


def _finite(path) -> bool:
    """Whether a data file holds only finite numbers."""
    if path.suffix == ".spdt":
        return bool(np.all(np.isfinite(read_spdt(path))))
    text = path.read_text("utf-8")
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)   # NaN and +-Infinity
        return not found
    values = []
    for field in text.replace("\n", ",").split(","):
        try:
            values.append(float(field))
        except ValueError:   # a header, a name or a config hash
            pass
    return bool(np.all(np.isfinite(values)))


def _run(cmd, config_path, out) -> int:
    """Exit code of one command; an exception escaping ``main`` fails the walk."""
    try:
        code = main([cmd, "--config", str(config_path), "--out", str(out)])
    except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
        pytest.fail(f"{cmd} on {config_path} raised {exc!r}")
    assert code in EXIT_CODES, f"{cmd} on {config_path} exited {code}"
    if code == 0:
        manifest = json.loads((out / f"{cmd}_manifest.json").read_text("utf-8"))
        for name in [*manifest["outputs"], f"{cmd}_manifest.json"]:
            if (out / name).suffix in (".spdt", ".json", ".csv"):
                assert _finite(out / name), f"{cmd} on {config_path} wrote non-finite {name}"
    return code


def _walk(cfg, out, commands=COMMANDS) -> list:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(cfg), "utf-8")
    return [_run(cmd, path, out) for cmd in commands]


def test_edge_configs_keep_the_exit_contract(tmp_path):
    codes = {name: _walk(cfg, tmp_path / name) for name, cfg in CORPUS.items()}
    # every command runs through on every valid config
    assert {name: c for name, c in codes.items() if any(c)} == \
        {"c4_points_3d_means": [2, 2, 2, 0, 2, 2]}


@pytest.mark.parametrize("damage", ["not_utf8", "truncated_json", "config_is_a_dir"])
def test_damaged_config_exits_2_everywhere_naming_it(tmp_path, capsys, damage):
    path = tmp_path / "config.json"
    if damage == "not_utf8":
        path.write_bytes(b"\xff\xfe{")
    elif damage == "truncated_json":
        path.write_text(json.dumps(CORPUS["c4_points"])[:40], "utf-8")
    else:
        path.mkdir()
    for cmd in COMMANDS:
        assert _run(cmd, path, tmp_path / "run") == 2
        assert f"config {path}" in capsys.readouterr().err


@pytest.mark.parametrize("damage,codes", [
    ("data_is_a_dir", [2, 2, 2, 0, 2, 2]),   # the bridge reads no dataset
    ("truncated_data", [0, 2, 2, 0, 2, 2]),
    ("checkpoint_is_a_dir", [0, 2, 2, 0, 2, 2])])
def test_damaged_run_files_exit_2(tmp_path, damage, codes):
    out = tmp_path / "run"
    out.mkdir()
    path = out / "config.json"
    path.write_text(json.dumps(CORPUS["mlp_wt"]), "utf-8")
    if damage == "data_is_a_dir":
        (out / "data.spdt").mkdir()
    seen = [_run("gen-data", path, out)]
    if damage == "truncated_data":
        raw = (out / "data.spdt").read_bytes()
        (out / "data.spdt").write_bytes(raw[:-5])
    elif damage == "checkpoint_is_a_dir":
        (out / "checkpoint.json").mkdir()
    seen += [_run(cmd, path, out) for cmd in COMMANDS[1:]]
    assert seen == codes
