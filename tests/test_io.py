"""Tests for the tensor format, config validation and deterministic writers."""

import builtins
import copy
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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

from schema_reference import reference_error


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
    raw = bytearray(p.read_bytes())
    raw[4], raw[8] = 1, 9  # unknown dtype tag
    p.write_bytes(bytes(raw))
    with pytest.raises(IoError, match="unknown dtype tag 9"):
        read_spdt(p)
    write_spdt(p, np.zeros((2, 3)))
    p.write_bytes(p.read_bytes()[:24])  # rank 2 needs a 32-byte header
    with pytest.raises(IoError, match="truncated SPDT header"):
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


def test_validate_config_rejects_non_finite_numbers():
    # jsonschema accepts both: inf passes exclusiveMinimum 0 and NaN
    # compares false with every bound
    cfg = minimal_config()
    cfg["data"]["components"][0]["variance"] = math.inf
    with pytest.raises(ConfigError, match="data/components/0/variance: "
                                          "non-finite number inf"):
        validate_config(cfg)
    cfg = minimal_config()
    cfg["data"]["components"][0]["mean"][1] = math.nan
    with pytest.raises(ConfigError, match="data/components/0/mean/1: "
                                          "non-finite number nan"):
        validate_config(cfg)


def test_packaged_schema_passes_its_meta_schema():
    from jsonschema.validators import validator_for

    schema = _load_schema()
    validator_for(schema).check_schema(schema)


def test_config_errors_match_jsonschema_validate():
    # validate_config builds its validator once; the error it reports must
    # stay the one jsonschema.validate picks, the best match of all errors
    import jsonschema

    bad = [minimal_config() for _ in range(6)]
    bad[0]["typo_section"] = {}
    bad[1]["schedule"]["betamax"] = 20.0
    bad[2]["schedule"]["kind"] = "cosine"
    bad[3]["data"]["components"][0]["variance"] = 0.0
    bad[4]["schedule"]["kind"] = "cosine"
    bad[4]["data"]["components"][0]["weight"] = "heavy"
    bad[5].update(zeta=1, alpha=2)
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e309", "-2e400"])
@pytest.mark.parametrize("field", ["variance", "weight"])
def test_load_config_rejects_non_finite_numbers(tmp_path, literal, field):
    # json.loads takes NaN, Infinity and overflowing literals as floats;
    # no config value means anything as one, so parsing refuses them
    text = json.dumps(minimal_config()).replace(
        f'"{field}": {minimal_config()["data"]["components"][0][field]}',
        f'"{field}": {literal}')
    assert literal in text
    p = tmp_path / "c.json"
    p.write_text(text, "utf-8")
    with pytest.raises(ConfigError, match=f"{literal}"):
        load_config(p)


# ---- the stdlib checker against jsonschema -------------------------------

CHECKED_KEYWORDS = {"type", "enum", "minimum", "exclusiveMinimum", "maximum",
                    "exclusiveMaximum", "properties", "additionalProperties",
                    "required", "items", "minItems", "maxItems", "oneOf"}
ANNOTATIONS = {"$schema", "title"}


def schema_nodes(schema):
    """Every subschema of ``schema``, itself included, depth first."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from schema_nodes(schema[key])
    for sub in schema.get("oneOf", ()):
        yield from schema_nodes(sub)


def test_schema_uses_only_checked_keywords():
    # the checker knows these keywords alone; any other (a `pattern`, a
    # `$ref`) must fail here rather than be ignored on the accept path
    used = set().union(*(node.keys() for node in schema_nodes(_load_schema())))
    assert used - ANNOTATIONS <= CHECKED_KEYWORDS, used - ANNOTATIONS - CHECKED_KEYWORDS


def example(schema):
    """A value valid under ``schema`` that sets every optional property."""
    if "enum" in schema:
        return schema["enum"][0]
    if "oneOf" in schema:
        return example(schema["oneOf"][0])
    kind = schema["type"]
    if kind == "object":
        return {k: example(sub) for k, sub in schema.get("properties", {}).items()}
    if kind == "array":
        return [example(schema["items"])] * schema.get("minItems", 1)
    low = schema.get("minimum", schema.get("exclusiveMinimum", 0))
    return {"number": low + 0.5, "integer": low + 1, "boolean": True,
            "string": "x"}[kind]


def variants(schema, value):
    """``(new_value, valid)`` pairs: ``value`` with one constraint of
    ``schema`` or of a subschema broken (valid False) or met at its
    boundary (valid True).  ``valid`` is None where only agreement with
    jsonschema is asserted."""
    out = []
    kind = schema.get("type")
    if "minimum" in schema:
        low = schema["minimum"]
        out += [(low, True), (float(low), True),
                (low - 1 if kind == "integer" else math.nextafter(low, -math.inf), False)]
    if "exclusiveMinimum" in schema:
        low = schema["exclusiveMinimum"]
        out += [(math.nextafter(low, math.inf), True), (low, False)]
    if "maximum" in schema:
        high = schema["maximum"]
        out += [(high, True), (float(high), True),
                (high + 1 if kind == "integer" else math.nextafter(high, math.inf), False)]
    if "exclusiveMaximum" in schema:
        high = schema["exclusiveMaximum"]
        out += [(math.nextafter(high, -math.inf), True), (high, False)]
    if kind in ("number", "integer"):
        out += [(True, False), (False, False), (str(value), False),
                (math.inf, None), (-math.inf, None), (math.nan, None)]
    if kind == "integer":
        out += [(float(value), True), (value + 0.5, False),
                (10**30, "maximum" not in schema)]
    if kind == "boolean":
        out += [(not value, True), (1, False), (0, False), (None, False)]
    if kind == "string":
        out += [("", True), (1, False)]
    if kind == "array":
        out += [({}, False), ("ab", False)]
    if kind == "object":
        out += [([], False), ("ab", False)]
    if "enum" in schema:
        out += [(m, True) for m in schema["enum"]]
        out += [("nope", False), (True, False), (None, False)]
    if "minItems" in schema:
        n = schema["minItems"]
        out += [(value[:1] * n, True), (value[:1] * (n - 1), False)]
    if "maxItems" in schema:
        n = schema["maxItems"]
        out += [(value[:1] * n, True), (value[:1] * (n + 1), False)]
    if "items" in schema:
        if "minItems" not in schema:
            out.append(([], True))
        out += [([v] + value[1:], ok) for v, ok in variants(schema["items"], value[0])]
    for key, sub in schema.get("properties", {}).items():
        out += [({**value, key: v}, ok) for v, ok in variants(sub, value[key])]
        without = {k: v for k, v in value.items() if k != key}
        out.append((without, key not in schema.get("required", ())))
    if schema.get("additionalProperties") is False:
        out.append(({**value, "unknown_key": 1}, False))
    for branch in schema.get("oneOf", ()):
        out.append((example(branch), True))
        out += variants(branch, example(branch))
    if "oneOf" in schema:
        out.append((None, False))
    return out


def jsonschema_accepts(config) -> bool:
    from jsonschema import Draft202012Validator

    return Draft202012Validator(_load_schema()).is_valid(config)


def assert_rejected_as_jsonschema_words_it(config):
    with pytest.raises(ConfigError) as got:
        validate_config(config)
    assert str(got.value) == reference_error(config), config


def test_checker_agrees_with_jsonschema_on_schema_mutations():
    schema = _load_schema()
    base = example(schema)
    assert jsonschema_accepts(base)
    corpus = variants(schema, base)
    verdicts = {True: 0, False: 0}
    rejected = {}  # top-level key changed -> finite configs jsonschema rejects
    for config, valid in corpus:
        config = copy.deepcopy(config)
        accepted = jsonschema_accepts(config)
        # the corpus is what it claims: each mutation breaks or keeps validity
        assert valid is None or accepted == valid, config
        assert spdm_io._conforms(schema, config) == accepted, config
        verdicts[accepted] += 1
        finite = spdm_io._non_finite(config) is None
        if accepted and finite:
            assert validate_config(config) is config
        elif finite:
            assert_rejected_as_jsonschema_words_it(config)
            if isinstance(config, dict):
                # by repr, which tells True from 1 and 1.0 from 1
                changed = [k for k in sorted(config.keys() | base.keys())
                           if repr(config.get(k, ())) != repr(base.get(k, ()))]
                rejected.setdefault(changed[0], []).append(config)
        else:  # an inf or NaN the schema lets through
            with pytest.raises(ConfigError, match="non-finite number"):
                validate_config(config)
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts
    # two errors in different sections: best_match picks one of them
    pairs = 0
    for first, second in itertools.combinations(sorted(rejected), 2):
        a, b = rejected[first], rejected[second]
        for i in range(max(len(a), len(b))):
            config = {k: v for k, v in a[i % len(a)].items() if k != second}
            if second in b[i % len(b)]:
                config[second] = b[i % len(b)][second]
            assert_rejected_as_jsonschema_words_it(config)
            pairs += 1
    assert len(rejected) >= 8 and pairs >= 500, (sorted(rejected), pairs)


@pytest.mark.parametrize("schema, values", [
    ({"type": "number"}, [True, False, 0, 1.5, "1", None]),
    ({"type": "integer"}, [True, 1, 1.0, -0.0, 1.5, 10**30, math.inf, math.nan]),
    ({"type": ["integer", "null"]}, [None, 2, 2.5]),
    ({"enum": [1, "a", None]}, [True, False, 1, 1.0, "a", "A", None, 0, [1]]),
    ({"enum": [False]}, [False, 0, 0.0, None]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 1.0, 1.5, "1"]),
    ({"type": "array", "items": False}, [[], [1]]),
    ({"type": "object", "additionalProperties": {"type": "integer"}},
     [{}, {"a": 1}, {"a": 1.5}]),
])
def test_checker_follows_2020_12_rules(schema, values):
    # keyword semantics the packaged schema relies on only partly: a bool
    # is no number, 1.0 is an integer, enum tells True from 1, oneOf
    # rejects a value two branches accept
    from jsonschema import Draft202012Validator

    reference = Draft202012Validator(schema)
    for value in values:
        assert spdm_io._conforms(schema, value) == reference.is_valid(value), value


@pytest.mark.parametrize("schema, values", [
    # off type breaks a tie of branch errors: 'c' fails the typed branch's enum
    ({"oneOf": [{"type": "string", "enum": ["a"]}, {"enum": ["b"]}]}, ["c", 1, "a"]),
    # later matches are listed first
    ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 0}]}, [1, 1.5, -1, "x"]),
    # extras sorted, required in its listed order, oneOf inside oneOf
    ({"type": "object", "additionalProperties": False, "required": ["b", "a"],
      "properties": {"a": {"oneOf": [{"type": "array", "items": {"oneOf": [
          {"type": "integer", "maximum": 3}, {"type": "string"}]}}, {"type": "null"}]}}},
     [{"z": 1, "b": 0, "y": 2}, {"b": 0}, {"a": [1, "x", 9], "b": 0},
      {"a": [1, True], "b": 0}, {"a": 5, "b": 0, "c": 1}]),
    ({"type": "array", "minItems": 1, "maxItems": 0}, [[], [1]]),
    ({"type": "array", "minItems": 2, "maxItems": 1}, [[], [1, 2]]),
    ({"type": ["integer", "null"], "exclusiveMaximum": 2}, [2, 2.5, "2"]),
])
def test_checker_words_errors_as_jsonschema(schema, values):
    # the choices best_match makes that the packaged schema does not reach
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    reference = Draft202012Validator(schema)
    for value in values:
        error = best_match(reference.iter_errors(value))
        want = None if error is None else (tuple(error.absolute_path), error.message)
        assert spdm_io._best_error(schema, value) == want, value


def test_checker_agrees_with_jsonschema_on_bench_workloads(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for make in workloads.WORKLOADS.values():
        for seed in (0, 1, 2**31 - 5, 2**40):
            w = make(seed)
            w.write_configs(tmp_path)
            for name, cfg in w.configs.items():
                assert spdm_io._conforms(_load_schema(), cfg)
                assert jsonschema_accepts(cfg)
                assert load_config(tmp_path / name) == cfg


def run_fresh(script, *args):
    """The last stdout line, as JSON, of ``script`` run with ``args`` in a
    new interpreter that imports spdm from this checkout's ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def good_and_bad_configs(tmp_path):
    good = {"schedule": {"kind": "vp"}, "group": {"name": "C4"},
            "data": {"components": [{"weight": 1, "mean": [1.0, 0.0], "variance": 0.1}],
                     "symmetrize": True, "n_samples": 8, "seed": 0}}
    bad = copy.deepcopy(good)
    bad["schedule"]["kind"] = "cosine"
    bad["data"]["components"][0]["weight"] = "heavy"
    for name, cfg in (("good", good), ("bad", bad)):
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg), "utf-8")
    return tmp_path / "good.json", tmp_path / "bad.json", reference_error(bad)


def test_valid_config_never_imports_jsonschema(tmp_path):
    # nor does a rejected one: the checker words its own errors
    good, bad, expected = good_and_bad_configs(tmp_path)
    got = run_fresh("""
        import json, sys
        import spdm
        from spdm import cli

        def jsonschema_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")

        good, out, bad = sys.argv[1:]
        spdm.load_config(good)
        code = cli.main(["gen-data", "--config", good, "--out", out])
        after_good = jsonschema_modules()
        try:
            spdm.load_config(bad)
            error = None
        except spdm.ConfigError as exc:
            error = str(exc)
        print(json.dumps({"code": code, "after_good": after_good,
                          "after_bad": jsonschema_modules(), "error": error}))
    """, good, tmp_path / "out", bad)
    assert got["code"] == 0 and (tmp_path / "out" / "data.spdt").exists()
    assert got["after_good"] == [] and got["after_bad"] == []
    assert got["error"] == expected


def test_rejected_config_exits_2_without_jsonschema(tmp_path, capsys):
    # with jsonschema unimportable, every command still runs and a
    # rejected config still exits 2 with jsonschema's words for its error
    good, bad, expected = good_and_bad_configs(tmp_path)
    got = run_fresh("""
        import contextlib, io, json, sys
        sys.modules["jsonschema"] = None
        from spdm import cli

        good, bad, out = sys.argv[1:]
        codes, err = [], io.StringIO()
        with contextlib.redirect_stderr(err):
            for config in (good, bad):
                codes.append(cli.main(["gen-data", "--config", config, "--out", out]))
        print(json.dumps({"codes": codes, "stderr": err.getvalue()}))
    """, good, bad, tmp_path / "out")
    assert got["codes"] == [0, 2]
    assert got["stderr"] == f"error: {expected}\n"
    assert expected.startswith("config invalid at schedule/kind: 'cosine' is not one of")


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
