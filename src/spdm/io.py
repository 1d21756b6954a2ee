"""File formats, the config checker and deterministic writers used by the
command layer.

SPDT tensor format (little-endian throughout):

====== ======= =========================================
offset size    field
====== ======= =========================================
0      4       magic bytes ``SPDT``
4      4       format version, u32 (currently 1)
8      4       dtype tag, u32 (1 = float64)
12     4       rank, u32
16     8*rank  dims, u64 each
...    8*prod  payload, row-major float64
====== ======= =========================================

Round trips are bit-exact; byte order is forced on both write and read
so files transfer across platforms.

All text writers here are deterministic: JSON is emitted with sorted
keys, CSV with a fixed header and repr-exact floats, and SVG by direct
string assembly with fixed formatting.  Timestamps never enter these
files; they are confined to the run log sidecar.

Configs are checked against the packaged JSON Schema by a stdlib walker
that words a rejection as ``jsonschema.validate`` would.

Every writer is atomic: it fills a temporary file next to the target and
renames it onto the target, so an interrupted write leaves the previous
file, or none, in place.
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import json
import math
import numbers
import operator
import os
import struct
import uuid
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IoError

SPDT_MAGIC = b"SPDT"
SPDT_VERSION = 1
_DTYPE_TAGS = {1: "<f8"}


def _write_atomic(path, *parts: bytes) -> None:
    """Write ``parts`` to a temporary file beside ``path``, then rename it
    onto ``path``; on any failure the temporary file is removed, and an
    OSError becomes an IoError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def write_spdt(path, array: np.ndarray) -> None:
    """Write an array as an SPDT tensor file (float64, row-major)."""
    # tobytes(order="C") below copies as needed; avoid ascontiguousarray,
    # which would promote rank-0 arrays to shape (1,).
    arr = np.asarray(array, dtype="<f8")
    _write_atomic(path, SPDT_MAGIC,
                  struct.pack("<III", SPDT_VERSION, 1, arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape),
                  arr.tobytes(order="C"))


def read_spdt(path) -> np.ndarray:
    """Read an SPDT tensor file; inverse of write_spdt, bit-exact."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read tensor file {path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != SPDT_MAGIC:
        raise IoError(f"{path} is not an SPDT file (bad magic)")
    version, dtag, rank = struct.unpack_from("<III", raw, 4)
    if version != SPDT_VERSION:
        raise IoError(f"{path}: unsupported SPDT version {version}")
    if dtag not in _DTYPE_TAGS:
        raise IoError(f"{path}: unknown dtype tag {dtag}")
    header_end = 16 + 8 * rank
    if len(raw) < header_end:
        raise IoError(f"{path}: truncated SPDT header")
    dims = struct.unpack_from(f"<{rank}Q", raw, 16)
    count = 1
    for d in dims:
        count *= d
    expected = header_end + 8 * count
    if len(raw) != expected:
        raise IoError(f"{path}: payload length {len(raw) - header_end} bytes, "
                      f"expected {8 * count}")
    flat = np.frombuffer(raw, dtype=_DTYPE_TAGS[dtag], count=count,
                         offset=header_end)
    return flat.reshape(dims).copy()


# ---- configuration -------------------------------------------------------


@functools.cache
def _load_schema() -> dict:
    """The packaged schema, read once per process; callers must not mutate it."""
    text = resources.files("spdm").joinpath("config_schema.json").read_text("utf-8")
    return json.loads(text)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


# each bound's failing comparison and wording, as jsonschema has them
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}


def _enum_match(value, member) -> bool:
    # JSON Schema equality: 1 == 1.0, but a bool equals only a bool.  No
    # enum of the packaged schema has a container member, so a list or
    # dict matches none.
    return (not isinstance(value, (list, dict))
            and isinstance(value, bool) == isinstance(member, bool)
            and value == member)


class _Failure(NamedTuple):
    path: tuple      # location of the failing value, from where the walk began
    message: str
    keyword: str     # the schema keyword that failed; "" for a false schema
    off_type: bool   # the value fails its schema's "type", or there is none
    context: tuple = ()  # a oneOf's branch failures, paths relative to it


def _errors(schema, x, path=()):
    """Every failure of ``x`` under ``schema`` (JSON Schema 2020-12), in
    the order, wording and scope of jsonschema's ``iter_errors``, for the
    keywords of the packaged schema: ``type``, ``enum``, the four numeric
    bounds, ``properties``, ``additionalProperties``, ``required``,
    ``items``, ``minItems``, ``maxItems`` and ``oneOf``.
    """
    if schema is True:
        return
    if schema is False:
        yield _Failure(path, f"False schema does not allow {x!r}", "", True)
        return
    kinds = schema.get("type")
    kinds = [kinds] if isinstance(kinds, str) else kinds
    off_type = kinds is None or not any(_TYPES[k](x) for k in kinds)
    for key, value in schema.items():
        message, context = None, ()
        if key == "type" and off_type:
            message = f"{x!r} is not of type {', '.join(map(repr, kinds))}"
        elif key == "enum" and not any(_enum_match(x, m) for m in value):
            message = f"{x!r} is not one of {value!r}"
        elif key in _BOUNDS and _TYPES["number"](x) and _BOUNDS[key][0](x, value):
            message = f"{x!r} is {_BOUNDS[key][1]} {value!r}"
        elif key == "minItems" and isinstance(x, list) and len(x) < value:
            message = f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(x, list) and len(x) > value:
            message = f"{x!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif key == "items" and isinstance(x, list):
            for i, v in enumerate(x):
                yield from _errors(value, v, (*path, i))
        elif key == "properties" and isinstance(x, dict):
            for k, sub in value.items():
                if k in x:
                    yield from _errors(sub, x[k], (*path, k))
        elif key == "required" and isinstance(x, dict):
            yield from (_Failure(path, f"{k!r} is a required property", key, off_type)
                        for k in value if k not in x)
        elif key == "additionalProperties" and isinstance(x, dict):
            extras = [k for k in x if k not in schema.get("properties", {})]
            for k in extras if value is not False else ():
                yield from _errors(value, x[k], (*path, k))
            if value is False and extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "oneOf":
            branches = [tuple(_errors(sub, x)) for sub in value]
            matches = [sub for sub, errs in zip(value, branches) if not errs]
            if not matches:
                message = f"{x!r} is not valid under any of the given schemas"
                context = sum(branches, ())
            elif len(matches) > 1:
                message = f"{x!r} is valid under each of " + \
                    ", ".join(map(repr, matches[1:] + matches[:1]))
        if message is not None:
            yield _Failure(path, message, key, off_type, context)


def _relevance(error: _Failure):
    # jsonschema.exceptions.relevance: shallower first, then the earlier
    # path, then any keyword over oneOf, then a value off its schema's type
    return (-len(error.path), error.path, error.keyword != "oneOf", error.off_type)


def _best_error(schema, x):
    """(path, message) of the failure ``jsonschema.exceptions.best_match``
    picks, or None: the first most relevant one, and in place of a oneOf
    failure the least relevant of its branch failures, unless two tie."""
    best = max(_errors(schema, x), key=_relevance, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        least = sorted(best.context, key=_relevance)[:2]
        if len(least) == 2 and _relevance(least[0]) == _relevance(least[1]):
            break
        best = least[0]
        path += best.path
    return path, best.message


def _conforms(schema, x) -> bool:
    """Whether ``x`` satisfies ``schema`` under JSON Schema 2020-12."""
    return next(_errors(schema, x), None) is None


def _non_finite(x, path=()):
    """(path, value) of the first inf or NaN float in a JSON document, or None."""
    if isinstance(x, float):
        return None if math.isfinite(x) else (path, x)
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        found = _non_finite(value, (*path, key))
        if found is not None:
            return found
    return None


def validate_config(config: dict) -> dict:
    """Validate a config dict against the published schema.

    Unknown keys anywhere in the document are rejected.  Returns the
    config unchanged on success.  The error reported is the one
    ``jsonschema.validate`` would raise, worded as it words it: the best
    match among all errors.  A non-finite number anywhere (inf or NaN,
    which the schema's bounds let through) is refused first.
    """
    bad = _non_finite(config)
    if bad is not None:
        loc = "/".join(str(p) for p in bad[0]) or "<root>"
        raise ConfigError(f"config invalid at {loc}: non-finite number {bad[1]} "
                          "is not allowed")
    error = _best_error(_load_schema(), config)
    if error is not None:
        loc = "/".join(str(p) for p in error[0]) or "<root>"
        raise ConfigError(f"config invalid at {loc}: {error[1]}")
    return config


def _reject_constant(literal: str):
    raise ValueError(f"non-finite number {literal} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"number {literal} is out of the float64 range")
    return value


def load_config(path) -> dict:
    """Read, parse and validate a JSON config file.

    ``NaN``, ``Infinity`` and float literals beyond the float64 range are
    refused: no config value is meaningful as a non-finite number.
    """
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        config = json.loads(text, parse_constant=_reject_constant,
                            parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return validate_config(config)


def config_hash(config: dict) -> str:
    """Stable 16-hex-digit digest of the canonical JSON form of a config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# ---- deterministic text writers -----------------------------------------


def write_json(path, obj) -> None:
    """Sorted-keys UTF-8 JSON with a trailing newline."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    _write_atomic(path, (text + "\n").encode("utf-8"))


def write_csv(path, header: list[str], rows: list[list]) -> None:
    """CSV with a header row; floats rendered with repr for exactness."""

    def cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def append_log(path, message: str) -> None:
    """Timestamped line in the sidecar log; the only place time appears."""
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


_SVG_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
                "#9467bd", "#8c564b", "#17becf", "#e377c2"]


def palette_color(index: int) -> str:
    return _SVG_PALETTE[index % len(_SVG_PALETTE)]


def svg_scatter(path, series, title: str = "", comment: str = "",
                size: int = 480) -> None:
    """Scatter plot of 2-D point sets as a standalone SVG file.

    Parameters
    ----------
    series : list of (label, points, color)
        points is (N, 2); inputs of higher dimension should be sliced to
        two coordinates by the caller.
    comment : str
        Embedded as an XML comment (config hash and seed live here).

    Output is byte-deterministic: fixed canvas, fixed float formatting,
    no timestamps.
    """
    pts_all = [np.atleast_2d(np.asarray(p, dtype=float)) for _, p, _ in series]
    stacked = np.concatenate([p for p in pts_all if p.size], axis=0) \
        if any(p.size for p in pts_all) else np.zeros((1, 2))
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.08 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    margin, inner = 40, size - 80

    def sx(v):
        return margin + inner * (v - lo[0]) / span[0]

    def sy(v):
        return size - margin - inner * (v - lo[1]) / span[1]

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">']
    if comment:
        out.append(f"<!-- {comment} -->")
    out.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    out.append(f'<rect x="{margin}" y="{margin}" width="{inner}" '
               f'height="{inner}" fill="none" stroke="#444"/>')
    if title:
        out.append(f'<text x="{size // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{title}</text>')
    legend_y = margin + 14
    for label, pts, color in series:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        for row in pts:
            out.append(f'<circle cx="{sx(row[0]):.2f}" cy="{sy(row[1]):.2f}" '
                       f'r="2.5" fill="{color}" fill-opacity="0.6"/>')
        if label:
            out.append(f'<circle cx="{margin + 10}" cy="{legend_y - 4}" r="4" '
                       f'fill="{color}"/>')
            out.append(f'<text x="{margin + 20}" y="{legend_y}" '
                       f'font-family="sans-serif" font-size="12">{label}</text>')
            legend_y += 18
    lo_label = f"({lo[0]:.3g}, {lo[1]:.3g})"
    hi_label = f"({hi[0]:.3g}, {hi[1]:.3g})"
    out.append(f'<text x="{margin}" y="{size - margin + 16}" '
               f'font-family="sans-serif" font-size="10">{lo_label}</text>')
    out.append(f'<text x="{size - margin}" y="{margin - 6}" text-anchor="end" '
               f'font-family="sans-serif" font-size="10">{hi_label}</text>')
    out.append("</svg>")
    _write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))
