"""Tests for the tensor format, config validation and deterministic writers."""

import builtins
import json

import numpy as np
import pytest

from spdm import ConfigError, IoError
from spdm import io as spdm_io
from spdm.io import (
    _load_schema,
    append_log,
    config_hash,
    load_config,
    palette_color,
    read_spdt,
    svg_scatter,
    validate_config,
    write_csv,
    write_json,
    write_spdt,
)


def test_spdt_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    cases = [
        np.float64(3.5),
        rng.standard_normal(7),
        rng.standard_normal((4, 5)),
        rng.standard_normal((2, 3, 4)),
        np.array([0.0, -0.0, 1e-310, np.pi, 1e300]),
    ]
    for i, arr in enumerate(cases):
        p = tmp_path / f"case{i}.spdt"
        write_spdt(p, arr)
        back = read_spdt(p)
        assert back.shape == np.asarray(arr).shape
        assert np.asarray(arr, dtype=np.float64).tobytes() == back.tobytes()


def test_spdt_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(1).standard_normal((6, 6))
    write_spdt(tmp_path / "a.spdt", arr)
    write_spdt(tmp_path / "b.spdt", arr)
    assert (tmp_path / "a.spdt").read_bytes() == (tmp_path / "b.spdt").read_bytes()


def test_spdt_header_layout(tmp_path):
    p = tmp_path / "t.spdt"
    write_spdt(p, np.zeros((2, 3)))
    raw = p.read_bytes()
    assert raw[:4] == b"SPDT"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # float64 tag
    assert int.from_bytes(raw[12:16], "little") == 2  # rank
    assert int.from_bytes(raw[16:24], "little") == 2
    assert int.from_bytes(raw[24:32], "little") == 3
    assert len(raw) == 32 + 6 * 8


def test_spdt_read_errors(tmp_path):
    p = tmp_path / "bad.spdt"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(IoError):
        read_spdt(p)
    write_spdt(p, np.zeros(4))
    raw = bytearray(p.read_bytes())
    raw[4] = 9  # unsupported version
    p.write_bytes(bytes(raw))
    with pytest.raises(IoError):
        read_spdt(p)
    write_spdt(p, np.zeros(4))
    p.write_bytes(p.read_bytes()[:-8])  # truncated payload
    with pytest.raises(IoError):
        read_spdt(p)
    with pytest.raises(IoError):
        read_spdt(tmp_path / "missing.spdt")


def minimal_config():
    return {
        "schedule": {"kind": "vp"},
        "data": {
            "components": [
                {"weight": 1.0, "mean": [1.0, 0.0], "variance": 0.1}
            ]
        },
    }


def test_validate_config_accepts_minimal():
    cfg = minimal_config()
    assert validate_config(cfg) is cfg


def test_validate_config_rejects_unknown_keys():
    cfg = minimal_config()
    cfg["typo_section"] = {}
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_config()
    cfg["schedule"]["betamax"] = 20.0
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_config_rejects_bad_values():
    cfg = minimal_config()
    cfg["schedule"]["kind"] = "cosine"
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = minimal_config()
    cfg["data"]["components"][0]["variance"] = 0.0
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_packaged_schema_passes_its_meta_schema():
    from jsonschema.validators import validator_for

    schema = _load_schema()
    validator_for(schema).check_schema(schema)


def test_config_errors_match_jsonschema_validate():
    # validate_config builds its validator once; the error it reports must
    # stay the one jsonschema.validate picks, the best match of all errors
    import jsonschema

    bad = [minimal_config() for _ in range(5)]
    bad[0]["typo_section"] = {}
    bad[1]["schedule"]["betamax"] = 20.0
    bad[2]["schedule"]["kind"] = "cosine"
    bad[3]["data"]["components"][0]["variance"] = 0.0
    bad[4]["schedule"]["kind"] = "cosine"
    bad[4]["data"]["components"][0]["weight"] = "heavy"
    for cfg in bad:
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(cfg, _load_schema())
        loc = "/".join(str(p) for p in ref.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value) == f"config invalid at {loc}: {ref.value.message}"
    with pytest.raises(ConfigError, match="^config invalid at schedule/kind: 'cosine' is not one of"):
        validate_config(bad[2])


def test_load_config_errors(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{broken", "utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[1, 2]", "utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
    with pytest.raises(IoError):
        load_config(tmp_path / "missing.json")
    p.write_text(json.dumps(minimal_config()), "utf-8")
    assert load_config(p)["schedule"]["kind"] == "vp"


def test_config_hash_canonical():
    a = {"b": 1, "a": {"y": 2.0, "x": [1, 2]}}
    b = {"a": {"x": [1, 2], "y": 2.0}, "b": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    assert all(c in "0123456789abcdef" for c in config_hash(a))
    assert config_hash(a) != config_hash({"b": 2, "a": {"y": 2.0, "x": [1, 2]}})


def test_write_json_deterministic(tmp_path):
    obj = {"z": 1, "a": [1.5, 2.25], "m": {"k": None}}
    write_json(tmp_path / "a.json", obj)
    write_json(tmp_path / "b.json", {"a": [1.5, 2.25], "m": {"k": None}, "z": 1})
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert a.endswith(b"\n")
    assert json.loads(a) == obj


def test_write_csv_repr_floats(tmp_path):
    values = [0.1, 1.0 / 3.0, 1e-17, 123456.789]
    write_csv(tmp_path / "t.csv", ["idx", "val"],
              [[i, v] for i, v in enumerate(values)])
    lines = (tmp_path / "t.csv").read_text("utf-8").strip().split("\n")
    assert lines[0] == "idx,val"
    for line, want in zip(lines[1:], values):
        assert float(line.split(",")[1]) == want


def test_append_log_timestamps(tmp_path):
    p = tmp_path / "run.log"
    append_log(p, "first")
    append_log(p, "second")
    lines = p.read_text("utf-8").strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        stamp, _, msg = line.partition(" ")
        assert stamp.endswith("Z") and "T" in stamp
    assert lines[0].endswith("first") and lines[1].endswith("second")


def test_svg_scatter_deterministic(tmp_path):
    pts = np.random.default_rng(2).standard_normal((30, 2))
    series = [("cloud", pts, palette_color(0)), ("other", pts + 2.0, palette_color(1))]
    svg_scatter(tmp_path / "a.svg", series, title="demo", comment="hash abc")
    svg_scatter(tmp_path / "b.svg", series, title="demo", comment="hash abc")
    a = (tmp_path / "a.svg").read_text("utf-8")
    assert a == (tmp_path / "b.svg").read_text("utf-8")
    assert "<!-- hash abc -->" in a
    assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
    assert a.count("<circle") >= 60


def test_palette_cycles():
    assert palette_color(0) == palette_color(8)
    assert palette_color(1) != palette_color(2)


class _FailingFile:
    """File wrapper whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")


WRITERS = {
    "spdt": lambda p, v: write_spdt(p, np.full((3, 4), v)),
    "json": lambda p, v: write_json(p, {"value": v}),
    "csv": lambda p, v: write_csv(p, ["value"], [[v]]),
    "svg": lambda p, v: svg_scatter(p, [("pts", np.full((2, 2), v), "#000000")]),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch, kind):
    write = WRITERS[kind]
    target = tmp_path / f"out.{kind}"
    write(target, 1.0)
    before = target.read_bytes()

    def failing_open(*args, **kwargs):
        return _FailingFile(builtins.open(*args, **kwargs))

    monkeypatch.setattr(spdm_io, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        write(target, 2.0)
    with pytest.raises(OSError):
        write(tmp_path / "never", 2.0)
    monkeypatch.undo()
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
    write(target, 2.0)
    assert target.read_bytes() != before
