"""End-to-end tests of the command-line runner.

Commands run in process through main(argv); every run writes into a
pytest tmp_path, so the tests double as determinism checks on the
on-disk outputs.
"""

import json
import sys
import warnings

import numpy as np
import pytest

from spdm import cli, io, metrics, sampling
from spdm.cli import main
from spdm.io import read_spdt, write_spdt

from fresh_process import ROOT, needs_resource, usage


def run(cmd, cfg, out_dir, extra=()):
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = [cmd, "--out", str(out_dir)]
    if cfg is not None:
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg), "utf-8")
        argv += ["--config", str(cfg_path)]
    return main(argv + list(extra))


def base_config():
    return {
        "schedule": {"kind": "vp"},
        "group": {"name": "C4"},
        "data": {
            "components": [
                {"weight": 1.0, "mean": [1.2, 0.0], "variance": 0.05}
            ],
            "symmetrize": True,
            "n_samples": 200,
            "seed": 7,
        },
        "model": {"kind": "oracle+FA"},
    }


def read_rows(path):
    lines = path.read_text("utf-8").strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---- gen-data ------------------------------------------------------------


def test_gen_data_outputs(tmp_path):
    out = tmp_path / "run"
    assert run("gen-data", base_config(), out) == 0
    data = read_spdt(out / "data.spdt")
    assert data.shape == (200, 2)
    spec = json.loads((out / "data_spec.json").read_text("utf-8"))
    assert spec["seed"] == 7 and spec["n_samples"] == 200
    assert len(spec["config_hash"]) == 16
    assert spec["symmetrized"] is True
    counts = spec["orientation_counts"]
    assert sorted(counts) == ["e", "r1", "r2", "r3"]
    assert sum(counts.values()) == 200
    # symmetrized source spreads mass across all four orientations
    assert min(counts.values()) > 20
    manifest = json.loads((out / "gen-data_manifest.json").read_text("utf-8"))
    assert manifest["outputs"] == ["data.spdt", "data_spec.json"]
    assert manifest["seed"] == 7
    assert (out / "run.log").exists()


def test_gen_data_concentrated_without_symmetrize(tmp_path):
    cfg = base_config()
    cfg["data"]["symmetrize"] = False
    # keep the component away from the sector boundary at angle 0
    cfg["data"]["components"][0]["mean"] = [1.0, 0.45]
    assert run("gen-data", cfg, tmp_path / "run") == 0
    spec = json.loads((tmp_path / "run" / "data_spec.json").read_text("utf-8"))
    assert max(spec["orientation_counts"].values()) > 150


def test_gen_data_byte_identical_across_dirs(tmp_path):
    for name in ("a", "b"):
        assert run("gen-data", base_config(), tmp_path / name) == 0
    for fname in ("data.spdt", "data_spec.json", "gen-data_manifest.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_gen_data_seed_override(tmp_path):
    assert run("gen-data", base_config(), tmp_path / "a") == 0
    assert run("gen-data", base_config(), tmp_path / "b", ["--seed", "99"]) == 0
    spec = json.loads((tmp_path / "b" / "data_spec.json").read_text("utf-8"))
    assert spec["seed"] == 99
    assert (tmp_path / "a" / "data.spdt").read_bytes() != \
        (tmp_path / "b" / "data.spdt").read_bytes()


# ---- error paths ---------------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path):
    cfg = base_config()
    cfg["misspelled"] = 1
    assert run("gen-data", cfg, tmp_path / "run") == 2


def test_empty_components_exits_2(tmp_path):
    cfg = base_config()
    cfg["data"]["components"] = []
    assert run("gen-data", cfg, tmp_path / "run") == 2


def test_ragged_component_means_exit_2(tmp_path, capsys):
    cfg = base_config()
    cfg["data"]["symmetrize"] = False
    cfg["data"]["components"].append(
        {"weight": 1.0, "mean": [0.0, 1.0, 2.0], "variance": 0.1})
    assert run("gen-data", cfg, tmp_path / "run") == 2
    assert "data.components[1].mean has length 3" in capsys.readouterr().err


def test_broken_json_exits_2(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "config.json").write_text("{oops", "utf-8")
    assert main(["gen-data", "--config", str(out / "config.json"),
                 "--out", str(out)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e309"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, literal):
    out = tmp_path / "run"
    out.mkdir()
    text = json.dumps(base_config()).replace('"variance": 0.05',
                                             f'"variance": {literal}')
    (out / "config.json").write_text(text, "utf-8")
    assert main(["gen-data", "--config", str(out / "config.json"),
                 "--out", str(out)]) == 2
    assert literal in capsys.readouterr().err
    assert not (out / "data.spdt").exists()


@pytest.mark.parametrize("where", ["is_a_file", "under_a_file"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep", "utf-8")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()), "utf-8")
    out = blocker if where == "is_a_file" else blocker / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text("utf-8") == "keep"


def test_blocked_output_file_exits_2_naming_it(tmp_path, capsys):
    # a directory where data.spdt goes: the failed write is a typed exit
    # that names the file, and its temporary file is gone
    out = tmp_path / "run"
    (out / "data.spdt").mkdir(parents=True)
    assert run("gen-data", base_config(), out) == 2
    assert "data.spdt" in capsys.readouterr().err
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_missing_dataset_exits_2(tmp_path):
    cfg = base_config()
    cfg["train"] = {"steps": 5, "hidden": [8], "seed": 0}
    assert run("train", cfg, tmp_path / "run") == 2


def test_missing_checkpoint_exits_2(tmp_path):
    cfg = base_config()
    cfg["model"] = {"kind": "mlp"}
    cfg["sampler"] = {"steps": 5, "n_samples": 2, "seed": 0}
    assert run("sample", cfg, tmp_path / "run") == 2


def test_nan_dataset_exits_3(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    write_spdt(out / "data.spdt", np.full((32, 2), np.nan))
    cfg = base_config()
    cfg["train"] = {"steps": 5, "hidden": [8], "seed": 0,
                    "batch_size": 16, "learning_rate": 1e-3}
    assert run("train", cfg, out) == 3


@pytest.mark.parametrize("cmd", ["train", "nll", "metrics"])
@pytest.mark.parametrize("shape", [(0, 2), (3, 0), (3,), (3, 3)])
def test_malformed_dataset_exits_2_naming_the_file(tmp_path, capsys, cmd, shape):
    # not a nonempty batch of nonempty C4 point states
    out = tmp_path / "run"
    out.mkdir()
    write_spdt(out / "data.spdt", np.ones(shape))
    write_spdt(out / "samples.spdt", np.ones((4, 2)))
    cfg = train_config()
    cfg["nll"] = {"points": 2, "steps": 5}
    assert run(cmd, cfg, out) == 2
    assert "data.spdt" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(0, 2), (4, 3), (4,)])
def test_malformed_sample_set_exits_2_naming_the_file(tmp_path, capsys, shape):
    out = tmp_path / "run"
    assert run("gen-data", base_config(), out) == 0
    write_spdt(out / "samples.spdt", np.ones(shape))
    capsys.readouterr()
    assert run("metrics", base_config(), out) == 2
    assert "samples.spdt" in capsys.readouterr().err


# ---- manifests -----------------------------------------------------------


def _written(out):
    return {f.name: (f.stat().st_ino, f.stat().st_mtime_ns) for f in out.iterdir()}


def test_every_manifest_lists_the_files_its_command_wrote(tmp_path):
    out = tmp_path / "run"
    cfg = train_config(steps=5, hidden=[8])
    cfg["model"]["coupling"] = {"matrix": 0.5, "noise_var": 0.04}
    cfg["train"]["seed"] = 3
    cfg["sampler"] = {"lam": 1.0, "tau": 1.0, "steps": 5, "n_samples": 4, "seed": 5}
    cfg["nll"] = {"points": 2, "steps": 5}
    table = json.loads(json.dumps(cfg))
    table["metrics"] = ["fid", "nll_table"]
    out.mkdir()
    paths = {}
    for name, doc in (("config.json", cfg), ("table.json", table)):
        paths[name] = out / name
        paths[name].write_text(json.dumps(doc), "utf-8")
    runs = [("gen-data", "config.json", 7), ("train", "config.json", 3),
            ("sample", "config.json", 5), ("bridge", "config.json", 5),
            ("nll", "config.json", 0), ("metrics", "config.json", 0),
            ("metrics", "table.json", 0)]
    for cmd, cfg_name, seed in runs:
        before = _written(out)
        assert main([cmd, "--config", str(paths[cfg_name]), "--out", str(out)]) == 0
        after = _written(out)
        wrote = {f for f in after if before.get(f) != after[f]} - {"run.log"}
        manifest = json.loads((out / f"{cmd}_manifest.json").read_text("utf-8"))
        assert manifest["outputs"] == sorted(wrote - {f"{cmd}_manifest.json"}), cmd
        assert manifest["command"] == cmd
        assert manifest["seed"] == seed, cmd
        assert manifest["config_hash"] == io.config_hash(io.load_config(paths[cfg_name]))
    assert "nll_table.csv" in manifest["outputs"]
    # a --seed override reaches the manifest
    assert main(["sample", "--config", str(paths["config.json"]), "--out", str(out),
                 "--seed", "11"]) == 0
    assert json.loads((out / "sample_manifest.json").read_text("utf-8"))["seed"] == 11


def test_consecutive_mains_keep_their_own_arguments(tmp_path):
    # the parser is built once per process; each call parses only its argv
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(base_config()), "utf-8")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(first),
                 "--seed", "11"]) == 0
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(second)]) == 0
    seeds = [json.loads((out / "gen-data_manifest.json").read_text("utf-8"))["seed"]
             for out in (first, second)]
    assert seeds == [11, 7]
    assert sorted(p.name for p in second.iterdir()) == sorted(p.name for p in first.iterdir())
    assert cli._parser() is cli._parser()


# ---- train ---------------------------------------------------------------


def train_config(**extra):
    cfg = base_config()
    cfg["train"] = {"steps": 40, "hidden": [16], "seed": 0,
                    "batch_size": 32, "learning_rate": 1e-3, **extra}
    return cfg


def test_train_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = train_config()
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    manifest = json.loads((out / "checkpoint.json").read_text("utf-8"))
    assert manifest["steps_done"] == 40
    assert manifest["mode"] == "plain"
    assert manifest["x_dim"] == 2 and manifest["hidden"] == [16]
    assert manifest["free_parameters"] > 0
    params = read_spdt(out / "checkpoint.spdt")
    ema = read_spdt(out / "checkpoint_ema.spdt")
    adam = read_spdt(out / "checkpoint_adam.spdt")
    assert params.shape == ema.shape
    assert adam.shape == (2, params.size)
    header, rows = read_rows(out / "loss.csv")
    assert header == ["step", "dsm_loss", "reg_loss", "config_hash", "seed"]
    assert len(rows) == 40
    assert all(np.isfinite(float(r[1])) for r in rows)


def test_train_reg_weight_zero_matches_plain(tmp_path):
    plain = train_config()
    reg0 = train_config(mode="regularized", reg_weight=0.0)
    for name, cfg in (("plain", plain), ("reg0", reg0)):
        out = tmp_path / name
        assert run("gen-data", cfg, out) == 0
        assert run("train", cfg, out) == 0
    assert (tmp_path / "plain" / "checkpoint.spdt").read_bytes() == \
        (tmp_path / "reg0" / "checkpoint.spdt").read_bytes()
    assert (tmp_path / "plain" / "checkpoint_ema.spdt").read_bytes() == \
        (tmp_path / "reg0" / "checkpoint_ema.spdt").read_bytes()


def test_train_resume_matches_straight_run(tmp_path):
    straight = tmp_path / "straight"
    cfg40 = train_config()
    assert run("gen-data", cfg40, straight) == 0
    assert run("train", cfg40, straight) == 0

    part = tmp_path / "part"
    cfg20 = train_config(steps=20)
    assert run("gen-data", cfg20, part) == 0
    assert run("train", cfg20, part) == 0
    resume = train_config(steps=20,
                          init_checkpoint=str(part / "checkpoint.json"))
    assert run("train", resume, part) == 0

    manifest = json.loads((part / "checkpoint.json").read_text("utf-8"))
    assert manifest["steps_done"] == 40
    for fname in ("checkpoint.spdt", "checkpoint_ema.spdt",
                  "checkpoint_adam.spdt"):
        assert (straight / fname).read_bytes() == (part / fname).read_bytes()


def test_train_wt_writes_group_tag_and_reloads(tmp_path):
    out = tmp_path / "run"
    cfg = train_config(mode="WT", steps=5, hidden=[8])
    cfg["group"] = {"name": "D4"}
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    manifest = json.loads((out / "checkpoint.json").read_text("utf-8"))
    assert manifest["tie_tag"] == "D4"
    cfg["model"] = {"kind": "mlp+WT"}
    cfg["sampler"] = {"lam": 1.0, "steps": 5, "n_samples": 4, "seed": 0,
                      "equivariant_noise": True}
    assert run("sample", cfg, out) == 0
    summary = json.loads((out / "sample_summary.json").read_text("utf-8"))
    assert summary["delta_x0"] <= 1e-12


CHECKPOINT_FILES = ("checkpoint.json", "checkpoint.spdt", "checkpoint_ema.spdt",
                    "checkpoint_adam.spdt", "loss.csv", "train_manifest.json")


@pytest.mark.parametrize("first,then", [("plain", "WT"), ("WT", "plain")])
def test_train_resume_under_another_tying_exits_2(tmp_path, capsys, first, then):
    # A resumed run keeps the tying of its checkpoint, so a mode that ties
    # differently must be refused before anything is written.
    out = tmp_path / "run"
    cfg = train_config(mode=first, steps=5, hidden=[8])
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    before = {f: (out / f).read_bytes() for f in CHECKPOINT_FILES}
    resume = train_config(mode=then, steps=5, hidden=[8],
                          init_checkpoint=str(out / "checkpoint.json"))
    assert run("train", resume, out) == 2
    assert "cannot resume" in capsys.readouterr().err
    assert {f: (out / f).read_bytes() for f in CHECKPOINT_FILES} == before


@pytest.mark.parametrize("mode,group,data_shape", [
    ("WT", None, (32, 2)),
    ("WT", {"name": "C4", "shape": [2, 2]}, (32, 2, 2)),
    ("regularized", None, (32, 2)),
])
def test_train_mode_without_a_usable_group_exits_2(tmp_path, mode, group, data_shape):
    out = tmp_path / "run"
    out.mkdir()
    write_spdt(out / "data.spdt", np.ones(data_shape))
    cfg = train_config(mode=mode, steps=5, hidden=[8])
    del cfg["group"]
    if group is not None:
        cfg["group"] = group
    assert run("train", cfg, out) == 2
    assert not any((out / f).exists() for f in CHECKPOINT_FILES)


def test_mlp_wt_kind_refuses_an_untied_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = train_config(steps=5, hidden=[8])
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    cfg["model"] = {"kind": "mlp+WT"}
    cfg["sampler"] = {"lam": 1.0, "steps": 5, "n_samples": 4, "seed": 0,
                      "equivariant_noise": True}
    assert run("sample", cfg, out) == 2
    assert "mlp+WT" in capsys.readouterr().err
    assert not (out / "samples.spdt").exists()


def test_mlp_wt_kind_refuses_to_train_untied(tmp_path, capsys):
    # a tying the model cannot sample from is refused before training;
    # oracle kinds sample from no checkpoint, so they train in any mode
    out = tmp_path / "run"
    cfg = train_config(mode="plain", steps=5, hidden=[8])
    assert run("gen-data", cfg, out) == 0
    cfg["model"] = {"kind": "mlp+WT"}
    assert run("train", cfg, out) == 2
    err = capsys.readouterr().err
    assert "model.kind" in err and "train.mode" in err
    assert not any((out / f).exists() for f in CHECKPOINT_FILES)
    cfg["model"] = {"kind": "oracle+FA"}
    assert run("train", cfg, out) == 0


def _non_finite_outputs(out):
    """Names of the data files under out that hold a NaN or an infinity."""
    def numbers(path):
        if path.suffix == ".spdt":
            return read_spdt(path).ravel()
        if path.suffix == ".json":
            found = []
            json.loads(path.read_text("utf-8"), parse_constant=found.append)
            return [float("nan")] * len(found)   # NaN, Infinity or -Infinity
        values = []
        for field in path.read_text("utf-8").replace("\n", ",").split(","):
            try:
                values.append(float(field))
            except ValueError:   # a header, a name or a config hash
                pass
        return values

    return [p.name for p in sorted(out.iterdir())
            if p.suffix in (".spdt", ".json", ".csv") and p.name != "config.json"
            and not np.all(np.isfinite(numbers(p)))]


TRAIN_EDGES = {"batch_1": {"batch_size": 1}, "steps_0": {"steps": 0},
               "hidden_2": {"hidden": [2]}, "lr_1e6": {"learning_rate": 1e6},
               "ema_0": {"ema_mu": 0.0}, "ema_0.999999": {"ema_mu": 0.999999},
               "reg_0": {"mode": "regularized", "reg_weight": 0.0},
               "reg_1e300": {"mode": "regularized", "reg_weight": 1e300}}


@pytest.mark.parametrize("kind", ["mlp", "mlp+WT"])
def test_train_edge_values_end_in_typed_exits(tmp_path, capsys, kind):
    # every command a trained net feeds, on each edge value of the train
    # section: a typed exit code, and only finite numbers after exit 0
    for name, edge in TRAIN_EDGES.items():
        out = tmp_path / name
        cfg = train_config(**{"mode": "plain" if kind == "mlp" else "WT",
                              "steps": 3, "hidden": [4], "batch_size": 8,
                              "learning_rate": 1e-2, "ema_mu": 0.5, **edge})
        cfg["data"]["n_samples"] = 16
        cfg["model"] = {"kind": kind}
        cfg["sampler"] = {"lam": 1.0, "steps": 3, "n_samples": 4, "seed": 1}
        cfg["nll"] = {"points": 2, "steps": 3}
        for cmd in ("gen-data", "train", "sample", "nll"):
            code = run(cmd, cfg, out)
            assert code in (0, 2, 3, 4), (name, cmd, code)
            if code == 0:
                assert _non_finite_outputs(out) == [], (name, cmd)
            else:
                assert "error:" in capsys.readouterr().err, (name, cmd)


@pytest.mark.parametrize("damage", ["truncated", "missing_hidden", "missing_steps_done",
                                    "tie_tag_C8", "not_an_object"])
def test_damaged_checkpoint_exits_2(tmp_path, capsys, damage):
    out = tmp_path / "run"
    cfg = train_config(steps=5, hidden=[8])
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    path = out / "checkpoint.json"
    text = path.read_text("utf-8")
    manifest = json.loads(text)
    if damage == "truncated":
        path.write_text(text[:len(text) // 2], "utf-8")
    elif damage.startswith("missing_"):
        del manifest[damage[len("missing_"):]]
        path.write_text(json.dumps(manifest), "utf-8")
    elif damage == "tie_tag_C8":
        manifest["tie_tag"] = "C8"
        path.write_text(json.dumps(manifest), "utf-8")
    else:
        path.write_text("[]", "utf-8")
    cfg["model"] = {"kind": "mlp"}
    cfg["sampler"] = {"steps": 5, "n_samples": 2, "seed": 0}
    assert run("sample", cfg, out) == 2
    assert "checkpoint manifest" in capsys.readouterr().err


# ---- sample --------------------------------------------------------------


def sample_config(**sampler):
    cfg = base_config()
    cfg["sampler"] = {"lam": 1.0, "steps": 30, "n_samples": 8, "seed": 3,
                      **sampler}
    return cfg


def test_sample_equivariant_noise_outputs(tmp_path):
    cfg = sample_config(equivariant_noise=True)
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("gen-data", cfg, out) == 0
        assert run("sample", cfg, out) == 0
    samples = read_spdt(tmp_path / "a" / "samples.spdt")
    assert samples.shape == (8, 2)
    assert np.all(np.isfinite(samples))
    summary = json.loads(
        (tmp_path / "a" / "sample_summary.json").read_text("utf-8"))
    assert summary["equivariant_noise"] is True
    assert summary["delta_x0"] <= 1e-8
    for fname in ("samples.spdt", "sample_summary.json",
                  "sample_manifest.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_sample_plain_noise_breaks_chain_equivariance(tmp_path):
    out = tmp_path / "run"
    cfg = sample_config(equivariant_noise=False)
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    summary = json.loads((out / "sample_summary.json").read_text("utf-8"))
    assert summary["delta_x0"] > 1e-3


def test_sample_plain_noise_rows_do_not_depend_on_batch_size(tmp_path):
    # With plain noise, row r of a batch draws stream row r, so the first
    # rows of a run are the same whatever its size: the delta_x0 probe rows,
    # which replay stream rows 0..p-1 after the written rows, see the map
    # that wrote the samples.  The bridge runs at tau > 0 and at tau = 0.
    cases = [("sample", "samples.spdt", {})]
    cases += [("bridge", "bridge_samples.spdt", {"tau": tau}) for tau in (1.0, 0.0)]
    for cmd, fname, extra in cases:
        rows = {}
        for n in (4, 16):
            out = tmp_path / f"{cmd}{extra.get('tau', '')}-{n}"
            cfg = sample_config(equivariant_noise=False, n_samples=n, **extra)
            cfg["model"]["coupling"] = {"matrix": [[0.5, 0.1], [-0.1, 0.5]],
                                        "noise_var": 0.04}
            assert run("gen-data", cfg, out) == 0
            assert run(cmd, cfg, out) == 0
            rows[n] = read_spdt(out / fname)
        np.testing.assert_array_equal(rows[4], rows[16][:4])


def test_sample_en_rows_do_not_depend_on_batch_size(tmp_path):
    # All EN chains share one stream keyed by (seed, step), each row turned
    # by its own orientation, so the first rows of a run are the same
    # whatever its size: on 2-D C4 points and on a D4 4x4 grid.
    point = sample_config(equivariant_noise=True)
    point["model"]["coupling"] = {"matrix": [[0.5, 0.1], [-0.1, 0.5]],
                                  "noise_var": 0.04}
    grid = {"schedule": {"kind": "vp"}, "group": {"name": "D4", "shape": [4, 4]},
            "data": {"components": [{"weight": 1.0, "mean": [0.1 * i for i in range(16)],
                                     "variance": 0.3}],
                     "symmetrize": True, "n_samples": 20, "seed": 1},
            "model": {"kind": "oracle+FA",
                      "coupling": {"matrix": 0.5, "noise_var": 0.04}},
            "sampler": {"lam": 1.0, "tau": 1.0, "steps": 10, "seed": 5,
                        "equivariant_noise": True}}
    for label, base in (("point", point), ("grid", grid)):
        for cmd, fname in (("sample", "samples.spdt"), ("bridge", "bridge_samples.spdt")):
            rows = {}
            for n in (4, 16):
                cfg = json.loads(json.dumps(base))
                cfg["sampler"]["n_samples"] = n
                out = tmp_path / f"{label}-{cmd}-{n}"
                assert run("gen-data", cfg, out) == 0
                assert run(cmd, cfg, out) == 0
                rows[n] = read_spdt(out / fname)
            np.testing.assert_array_equal(rows[4], rows[16][:4], err_msg=f"{label} {cmd}")


def _probe_configs():
    """Oracle+FA configs for sample and bridge: C4 points, D4 4x4 and 8x8 grids."""
    coupling = {"matrix": 0.5, "noise_var": 0.04}
    point = sample_config(n_samples=10, steps=8)
    point["model"]["coupling"] = coupling
    for shape, n in (([4, 4], 6), ([8, 8], 6)):
        d = shape[0] * shape[1]
        grid = {"schedule": {"kind": "vp"}, "group": {"name": "D4", "shape": shape},
                "data": {"components": [{"weight": 1.0, "variance": 0.3,
                                         "mean": [0.1 * (i % 7) for i in range(d)]}],
                         "symmetrize": True},
                "model": {"kind": "oracle+FA", "coupling": coupling},
                "sampler": {"lam": 1.0, "steps": 6, "n_samples": n, "seed": 5}}
        yield f"D4-{shape[0]}", grid
    yield "C4-points", point


def _two_call_reference(cmd, cfg, out):
    """The written ends and delta_x0 with the probe run apart from the
    written batch: the chain map on x_T, then ``delta_x0_gap`` calling it on
    x_T[:p] and on the moved x_T[:p]."""
    s, group, sp = cli.build_schedule(cfg), cli.build_group(cfg), cfg["sampler"]
    seed, n, shape = sp["seed"], sp["n_samples"], group.state_shape
    x_T = cli._prior_draws(s, n, shape, seed)
    if cmd == "sample":
        score = cli.build_score(cfg, s, group, out, shape)
        grid, p = sampling.sampling_grid(s, sp["steps"]), min(4, n)

        def integrate(x, noise):
            return sampling.reverse_sde_sample(score, s, sp["lam"], grid, x,
                                               noise=noise).terminal
    else:
        cond = cli.build_bridge_score(cfg, s, group, shape)
        grid, p = sampling.bridge_grid(s, sp["steps"]), min(8, n)

        def integrate(x, noise):
            return sampling.ddbm_reverse_sample(cond, s, x, sp["tau"], grid,
                                                noise=noise).terminal
    if sp["equivariant_noise"]:
        canon = sampling.default_canonicalizer(group)

        def chain(x):
            return integrate(x, sampling.equivariant_noise_batch(
                x, seed, group, canon, grid.n_steps))
    else:
        def chain(x):
            return integrate(x, seed)
    gap = metrics.delta_x0_gap(chain, x_T[:p], group, sampling._aux_rng(seed + 1))
    return chain(x_T), gap, n + p


def test_sample_and_bridge_probe_rides_in_the_written_batch(tmp_path, monkeypatch):
    # One integrator call of n + p chains per command writes what the
    # two-call path writes, delta_x0 included, bit for bit.
    runs = [("sample", "samples.spdt", "sample_summary.json", {})]
    runs += [("bridge", "bridge_samples.spdt", "bridge_summary.json", {"tau": tau})
             for tau in (1.0, 0.0)]
    integrate, trajectories = sampling._integrate, []

    def counted(*args, **kwargs):
        trajectories.append(None)
        return integrate(*args, **kwargs)

    def recorded(sampler):
        def call(*args, **kwargs):
            traj = sampler(*args, **kwargs)
            trajectories[-1] = traj.metadata
            return traj
        return call

    for label, base in _probe_configs():
        for use_en in (False, True):
            for cmd, fname, summary_name, extra in runs:
                cfg = json.loads(json.dumps(base))
                cfg["sampler"].update(equivariant_noise=use_en, **extra)
                out = tmp_path / f"{label}-{use_en}-{cmd}{extra.get('tau', '')}"
                out.mkdir()
                want, want_gap, chains = _two_call_reference(cmd, cfg, out)
                trajectories.clear()
                with monkeypatch.context() as m:
                    m.setattr(sampling, "_integrate", counted)
                    for name in ("reverse_sde_sample", "ddbm_reverse_sample"):
                        m.setattr(sampling, name, recorded(getattr(sampling, name)))
                    assert run(cmd, cfg, out) == 0
                where = (label, use_en, cmd, extra)
                assert len(trajectories) == 1, where
                assert trajectories[0]["chains"] == chains, where
                assert trajectories[0]["nfe"] == cfg["sampler"]["steps"], where
                np.testing.assert_array_equal(read_spdt(out / fname), want,
                                              err_msg=str(where))
                summary = json.loads((out / summary_name).read_text("utf-8"))
                assert summary["delta_x0"] == want_gap, where


def test_sample_ode_has_no_delta_probe(tmp_path):
    out = tmp_path / "run"
    cfg = sample_config(lam=0.0)
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    summary = json.loads((out / "sample_summary.json").read_text("utf-8"))
    assert "delta_x0" not in summary
    assert summary["lam"] == 0.0


# ---- bridge --------------------------------------------------------------


def test_bridge_outputs(tmp_path):
    cfg = base_config()
    del cfg["data"]
    cfg["model"] = {"kind": "oracle+FA",
                    "coupling": {"matrix": 0.5, "noise_var": 0.04}}
    cfg["sampler"] = {"tau": 1.0, "steps": 30, "n_samples": 6, "seed": 4,
                      "equivariant_noise": True}
    for name in ("a", "b"):
        assert run("bridge", cfg, tmp_path / name) == 0
    samples = read_spdt(tmp_path / "a" / "bridge_samples.spdt")
    assert samples.shape == (6, 2)
    assert np.all(np.isfinite(samples))
    summary = json.loads(
        (tmp_path / "a" / "bridge_summary.json").read_text("utf-8"))
    assert summary["delta_x0"] <= 1e-12
    for fname in ("bridge_samples.spdt", "bridge_summary.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


@pytest.mark.parametrize("use_en", [True, False])
def test_bridge_on_grid_group(tmp_path, use_en):
    # D4 on a 4x4 grid has peak cells on the diagonals that a reflection
    # fixes; EN must stay exact there too.
    for name in ("C4", "D4"):
        cfg = {"schedule": {"kind": "vp"}, "group": {"name": name, "shape": [4, 4]},
               "model": {"kind": "oracle+FA",
                         "coupling": {"matrix": 0.5, "noise_var": 0.04}},
               "sampler": {"tau": 1.0, "steps": 20, "n_samples": 4, "seed": 4,
                           "equivariant_noise": use_en}}
        out = tmp_path / name
        assert run("bridge", cfg, out) == 0
        assert read_spdt(out / "bridge_samples.spdt").shape == (4, 4, 4)
        summary = json.loads((out / "bridge_summary.json").read_text("utf-8"))
        if use_en:
            assert summary["delta_x0"] == 0.0, name
        else:
            assert summary["delta_x0"] > 0.0, name


def test_bridge_en_exact_on_points_and_odd_and_large_grids(tmp_path):
    # The batched EN map commutes with the group bit for bit: on 2-D points
    # and on 5x5 (centre and middle-row peaks) and 8x8 grids.
    for name in ("C4", "D4"):
        for shape in (None, [5, 5], [8, 8]):
            group = {"name": name} if shape is None else {"name": name, "shape": shape}
            cfg = {"schedule": {"kind": "vp"}, "group": group,
                   "model": {"kind": "oracle+FA",
                             "coupling": {"matrix": 0.5, "noise_var": 0.04}},
                   "sampler": {"tau": 1.0, "steps": 8, "n_samples": 8, "seed": 2,
                               "equivariant_noise": True}}
            out = tmp_path / f"{name}-{shape}"
            assert run("bridge", cfg, out) == 0
            summary = json.loads((out / "bridge_summary.json").read_text("utf-8"))
            assert summary["delta_x0"] == 0.0, (name, shape)


def test_bridge_coupling_matrix_shape_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["sampler"] = {"tau": 1.0, "steps": 5, "n_samples": 2}
    for matrix in (np.eye(3).tolist(), [[1.0, 0.0], [0.0]], [[1.0, 0.0]]):
        cfg["model"] = {"kind": "oracle",
                        "coupling": {"matrix": matrix, "noise_var": 0.04}}
        assert run("bridge", cfg, tmp_path / "run") == 2
        assert "(2, 2) matrix" in capsys.readouterr().err
    cfg["model"]["coupling"]["matrix"] = [[0.5, 0.0], [0.0, 0.5]]
    assert run("bridge", cfg, tmp_path / "run") == 0


def test_bridge_without_coupling_exits_2(tmp_path):
    cfg = base_config()
    del cfg["data"]
    cfg["sampler"] = {"steps": 5, "n_samples": 2}
    assert run("bridge", cfg, tmp_path / "run") == 2


# ---- nll -----------------------------------------------------------------


def test_nll_outputs_byte_identical_across_dirs(tmp_path):
    cfg = base_config()
    cfg["data"]["n_samples"] = 64
    cfg["nll"] = {"points": 4, "steps": 50}
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("gen-data", cfg, out) == 0
        assert run("nll", cfg, out) == 0
    header, rows = read_rows(tmp_path / "a" / "nll.csv")
    assert header == ["index", "log_likelihood", "nll_nats_per_dim",
                      "bits_per_dim", "config_hash", "seed"]
    assert len(rows) == 4
    vals = np.array([[float(r[1]), float(r[2]), float(r[3])] for r in rows])
    assert np.all(np.isfinite(vals))
    summary = json.loads((tmp_path / "a" / "nll_summary.json").read_text("utf-8"))
    assert summary["points"] == 4
    assert summary["mean_nll_nats_per_dim"] == pytest.approx(
        np.mean(vals[:, 1]), abs=1e-12)
    assert (tmp_path / "a" / "nll.csv").read_bytes() == \
        (tmp_path / "b" / "nll.csv").read_bytes()


def test_nll_point_row_does_not_depend_on_points(tmp_path):
    # Every perturbed state of a step goes to the score in one batch; the
    # row of point 0 must not feel the other points in that batch: on 2-D
    # C4 points, and on a frame-averaged D4 8x8 grid, whose group actions
    # must hand the oracle contiguous rows.
    grid = {"schedule": {"kind": "vp"}, "group": {"name": "D4", "shape": [8, 8]},
            "data": {"components": [
                {"weight": 0.5, "mean": [0.05 * i for i in range(64)], "variance": 0.5},
                {"weight": 0.5, "mean": [0.3 * (i % 5) for i in range(64)], "variance": 0.4}],
                "symmetrize": True, "n_samples": 16, "seed": 1},
            "model": {"kind": "oracle+FA"}}
    point = base_config()
    point["data"]["n_samples"] = 16
    for label, base, mode, counts, steps in (
            ("point", point, "exact_fd", (1, 4), 12),
            ("point", point, "hutchinson", (1, 4), 12),
            ("grid", grid, "exact_fd", (1, 3), 4)):
        rows = []
        for points in counts:
            cfg = json.loads(json.dumps(base))
            cfg["nll"] = {"points": points, "steps": steps, "div_mode": mode}
            out = tmp_path / f"{label}_{mode}_{points}"
            assert run("gen-data", cfg, out) == 0
            assert run("nll", cfg, out) == 0
            _, got = read_rows(out / "nll.csv")
            assert len(got) == points
            rows.append(got[0][:4])  # without the config hash
        assert rows[0] == rows[1], (label, mode)


def test_three_dim_points_pipeline(tmp_path, capsys):
    # No group: the state shape comes from the mixture means.
    out = tmp_path / "run"
    cfg = {"schedule": {"kind": "vp"},
           "data": {"components": [
               {"weight": 0.5, "mean": [1.0, -0.5, 0.3], "variance": 0.2},
               {"weight": 0.5, "mean": [-1.0, 0.5, 0.0], "variance": 0.3}],
               "n_samples": 32, "seed": 1},
           "model": {"kind": "oracle"},
           "sampler": {"lam": 1.0, "steps": 10, "n_samples": 6, "seed": 2},
           "nll": {"points": 3, "steps": 10, "div_mode": "hutchinson"}}
    for command in ("gen-data", "sample", "nll"):
        assert run(command, cfg, out) == 0, capsys.readouterr().err
    assert read_spdt(out / "data.spdt").shape == (32, 3)
    samples = read_spdt(out / "samples.spdt")
    assert samples.shape == (6, 3) and np.all(np.isfinite(samples))
    _, rows = read_rows(out / "nll.csv")
    assert len(rows) == 3
    assert all(np.isfinite(float(r[1])) for r in rows)
    # A net model without a data section takes it from the checkpoint.
    cfg["train"] = {"steps": 10, "hidden": [8], "seed": 0, "batch_size": 16}
    assert run("train", cfg, out) == 0
    del cfg["data"]
    cfg["model"] = {"kind": "mlp"}
    assert run("sample", cfg, out) == 0, capsys.readouterr().err
    assert read_spdt(out / "samples.spdt").shape == (6, 3)


# ---- metrics -------------------------------------------------------------


def metrics_config():
    cfg = base_config()
    cfg["data"]["n_samples"] = 400
    cfg["sampler"] = {"lam": 0.0, "steps": 30, "n_samples": 200, "seed": 5}
    cfg["metrics"] = ["fid", "inv_fid", "energy"]
    return cfg


def test_metrics_outputs(tmp_path):
    cfg = metrics_config()
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("gen-data", cfg, out) == 0
        assert run("sample", cfg, out) == 0
        assert run("metrics", cfg, out) == 0
    header, rows = read_rows(tmp_path / "a" / "metrics.csv")
    assert header == ["name", "value", "config_hash", "seed"]
    names = [r[0] for r in rows]
    assert names == ["fid", "inv_fid", "energy_stat", "energy_p"]
    values = {r[0]: float(r[1]) for r in rows}
    assert all(np.isfinite(v) for v in values.values())
    assert values["fid"] >= 0 and values["inv_fid"] >= 0
    assert 0 < values["energy_p"] <= 1
    svg = (tmp_path / "a" / "scatter.svg").read_text("utf-8")
    assert "config" in svg and "seed" in svg
    for fname in ("metrics.csv", "scatter.svg"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_metrics_nll_table_invariance(tmp_path):
    out = tmp_path / "run"
    cfg = base_config()
    cfg["data"]["n_samples"] = 32
    cfg["sampler"] = {"lam": 0.0, "steps": 10, "n_samples": 8, "seed": 5}
    cfg["metrics"] = ["nll_table"]
    cfg["nll"] = {"points": 2, "steps": 30}
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    assert run("metrics", cfg, out) == 0
    header, rows = read_rows(out / "nll_table.csv")
    assert header == ["kappa", "mean_nll_nats_per_dim", "config_hash", "seed"]
    assert [r[0] for r in rows] == ["e", "r1", "r2", "r3"]
    vals = [float(r[1]) for r in rows]
    # symmetrized oracle: likelihood does not depend on orientation
    assert max(vals) - min(vals) < 1e-6


def test_metrics_nll_table_uses_div_mode(tmp_path):
    # Row e of the table is the nll command's mean under the same div_mode.
    out = tmp_path / "run"
    cfg = base_config()
    cfg["data"]["n_samples"] = 32
    cfg["sampler"] = {"lam": 0.0, "steps": 10, "n_samples": 8, "seed": 5}
    cfg["metrics"] = ["nll_table"]
    cfg["nll"] = {"points": 2, "steps": 10, "div_mode": "hutchinson"}
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    assert run("nll", cfg, out) == 0
    assert run("metrics", cfg, out) == 0
    _, rows = read_rows(out / "nll_table.csv")
    summary = json.loads((out / "nll_summary.json").read_text("utf-8"))
    assert rows[0][0] == "e"
    assert float(rows[0][1]) == summary["mean_nll_nats_per_dim"]


def test_metrics_inv_fid_without_group_exits_2(tmp_path):
    out = tmp_path / "run"
    cfg = metrics_config()
    del cfg["group"]
    cfg["data"]["symmetrize"] = False
    cfg["model"] = {"kind": "oracle"}
    cfg["metrics"] = ["inv_fid"]
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    assert run("metrics", cfg, out) == 2


def test_metrics_never_writes_a_non_finite_value(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg = metrics_config()
    cfg["metrics"] = ["fid", "inv_fid"]
    assert run("gen-data", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    monkeypatch.setattr(metrics, "inv_fid", lambda *args: float("nan"))
    capsys.readouterr()
    assert run("metrics", cfg, out) == 3
    assert "inv_fid" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


# ---- out-of-range numbers ------------------------------------------------


def test_underflowing_schedule_exits_2_in_every_command(tmp_path, capsys):
    # alpha_T^2 underflows to 0; bridge weights and the Tweedie denoiser divide by it
    cfg = train_config()
    cfg["schedule"]["beta_max"] = 1e6
    cfg["model"]["coupling"] = {"matrix": 0.5, "noise_var": 0.04}
    cfg["sampler"] = {"lam": 1.0, "tau": 1.0, "steps": 10, "n_samples": 4,
                      "seed": 1}
    cfg["nll"] = {"points": 1, "steps": 10}
    cfg["metrics"] = ["fid", "delta_x0"]
    for cmd in ("gen-data", "train", "sample", "bridge", "nll", "metrics"):
        capsys.readouterr()
        assert run(cmd, cfg, tmp_path / "run") == 2
        assert "beta_max" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,key", [("sample", "lam"), ("bridge", "tau")])
def test_noise_level_with_an_overflowing_square_exits_2(tmp_path, capsys, cmd, key):
    # the samplers weigh the score by (1 + lam^2) / 2 or (1 + tau^2) / 2
    cfg = base_config()
    cfg["model"]["coupling"] = {"matrix": 0.5, "noise_var": 0.04}
    cfg["sampler"] = {key: 1e300, "steps": 10, "n_samples": 4, "seed": 1}
    assert run(cmd, cfg, tmp_path / "run") == 2
    assert "finite square" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", [{"kind": "ve", "sigma_max": 1e200},
                                      {"kind": "vp", "T": 1e300}])
def test_overflowing_schedule_exits_2_in_every_command_without_a_warning(
        tmp_path, capsys, schedule):
    cfg = train_config()
    cfg["schedule"] = schedule
    cfg["model"]["coupling"] = {"matrix": 0.5, "noise_var": 0.04}
    cfg["sampler"] = {"steps": 10, "n_samples": 4, "seed": 1}
    key = "sigma_max" if schedule["kind"] == "ve" else "beta_max"
    for cmd in ("gen-data", "train", "sample", "bridge", "nll", "metrics"):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(cmd, cfg, tmp_path / "run") == 2, cmd
        assert not caught, (cmd, [str(w.message) for w in caught])
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["vp", "ve"])
def test_bridge_runs_at_a_long_horizon(tmp_path, kind):
    # bridge_grid's first time T - t_clip is no longer refused as within
    # t_clip of T when T - (T - t_clip) rounds below t_clip
    cfg = base_config()
    cfg["schedule"] = {"kind": kind, "T": 5.0}
    cfg["model"]["coupling"] = {"matrix": 0.5, "noise_var": 0.04}
    cfg["sampler"] = {"tau": 1.0, "steps": 10, "n_samples": 4, "seed": 1}
    assert run("bridge", cfg, tmp_path / "run") == 0
    assert np.all(np.isfinite(read_spdt(tmp_path / "run" / "bridge_samples.spdt")))


# ---- mlp pipeline --------------------------------------------------------


def test_mlp_sample_and_nll_pipeline(tmp_path):
    out = tmp_path / "run"
    cfg = train_config(steps=60, hidden=[16, 16])
    cfg["model"] = {"kind": "mlp+FA"}
    cfg["sampler"] = {"lam": 1.0, "steps": 20, "n_samples": 4, "seed": 1}
    cfg["nll"] = {"points": 2, "steps": 40}
    assert run("gen-data", cfg, out) == 0
    assert run("train", cfg, out) == 0
    assert run("sample", cfg, out) == 0
    samples = read_spdt(out / "samples.spdt")
    assert samples.shape == (4, 2) and np.all(np.isfinite(samples))
    assert run("nll", cfg, out) == 0
    _, rows = read_rows(out / "nll.csv")
    assert len(rows) == 2
    assert all(np.isfinite(float(r[1])) for r in rows)


# ---- verify --------------------------------------------------------------


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    assert main(["verify", "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text("utf-8"))
    assert doc["all_passed"] is True
    assert len(doc["checks"]) >= 30
    printed = capsys.readouterr().out
    assert printed.count("PASS") >= len(doc["checks"])
    assert "FAIL" not in printed


def test_verify_command_reports_a_failed_check(tmp_path, capsys, monkeypatch):
    from spdm import verify

    # a tensor reader that moves every value breaks the spdt round trip
    monkeypatch.setattr(verify, "read_spdt", lambda path: read_spdt(path) + 1.0)
    out = tmp_path / "run"
    assert main(["verify", "--out", str(out)]) == 4
    doc = json.loads((out / "verify.json").read_text("utf-8"))
    assert doc["all_passed"] is False
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["spdt_roundtrip"]
    printed = capsys.readouterr().out
    assert "FAIL spdt_roundtrip" in printed
    n = len(doc["checks"])
    assert f"CHECKS FAILED ({n - 1}/{n})" in printed


@needs_resource
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are read on Linux")
def test_fresh_process_grid_sample_takes_few_page_faults(tmp_path):
    # the benchmark's grid_batched sample, as a CLI user runs it: the
    # frame-averaged oracle reuses its work arrays and the sampler keeps
    # only the terminal states, so the run faults in about 1k pages; fresh
    # multi-MB temporaries on every score call took about 25k
    setup = f"""
    import sys
    from pathlib import Path
    sys.path.insert(0, {str(ROOT / "bench")!r})
    import workloads
    from spdm import cli
    out = Path({str(tmp_path)!r})
    workloads.grid_batched(1).write_configs(out)
    """
    call = """
    if cli.main(["sample", "--config", str(out / "config.json"), "--out", str(out)]):
        raise SystemExit("sample failed")
    """
    assert usage(setup, call).minflt < 5000
