"""Code file serialization.

Codes travel as JSON: field tag, dimensions, and an n x d x r array of
[re, im] pairs (pairs even for real codes, whose im entries must be exactly
zero).  Floats are written with 17 significant digits so a written file
parses back to bit-identical doubles, and the writer is fully deterministic:
rerunning a command reproduces the file byte for byte.  The matrices array
never passes through per-entry Python code, in either direction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import Field, StiefelCode
from .errors import InvalidParameter, SchemaError

SCHEMA_VERSION = 1


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise InvalidParameter(f"cannot serialize non-finite value {obj}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise InvalidParameter(f"cannot serialize {type(obj).__name__}")


def _header(code: StiefelCode, metadata: dict | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "field": code.field.value,
        "d": code.d,
        "r": code.r,
        "n": code.n,
        "metadata": dict(sorted((metadata or {}).items())),
    }


def code_to_dict(code: StiefelCode, metadata: dict | None = None) -> dict:
    pairs = code.array.view(np.float64).reshape(*code.array.shape, 2)
    return dict(_header(code, metadata), matrices=pairs.tolist())


def dumps_code(code: StiefelCode, metadata: dict | None = None) -> str:
    flat = code.array.view(np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise InvalidParameter(f"cannot serialize non-finite value {flat[~finite][0]}")
    # a template shaped like the array, filled by one format call
    row = "[" + ", ".join(["[{:.17g}, {:.17g}]"] * code.r) + "]"
    point = "[" + ", ".join([row] * code.d) + "]"
    matrices = "[" + ", ".join([point] * code.n) + "]"
    head = render_json(_header(code, metadata))
    return head[:-1] + ', "matrices": ' + matrices.format(*flat.tolist()) + "}\n"


def write_code_file(path, code: StiefelCode, metadata: dict | None = None) -> None:
    Path(path).write_text(dumps_code(code, metadata), encoding="utf-8")


def code_from_dict(data) -> tuple[StiefelCode, dict]:
    """Validate a parsed code file; its header alone sizes no allocation."""
    if not isinstance(data, dict):
        raise SchemaError("code file must hold a JSON object")
    for key in ("schema_version", "field", "d", "r", "n", "matrices"):
        if key not in data:
            raise SchemaError(f"missing key {key!r}")
    version = data["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}")
    if data["field"] not in ("R", "C"):
        raise SchemaError(f"field must be 'R' or 'C', got {data['field']!r}")
    field = Field(data["field"])
    shape = (data["n"], data["d"], data["r"], 2)
    if any(type(v) is not int or v < 0 for v in shape):
        raise SchemaError(f"n, d and r must be non-negative integers, got {shape[:3]!r}")
    entries = np.array(data["matrices"], dtype=object)
    if entries.shape != shape:
        raise SchemaError(f"matrices array has shape {entries.shape}, expected {shape}")
    if not set(map(type, entries.ravel())) <= {int, float}:
        raise SchemaError("entries must be [re, im] pairs of numbers")
    try:
        pairs = entries.astype(np.float64)
    except OverflowError as exc:
        raise SchemaError(f"entry out of range: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise SchemaError("entries must be finite numbers")
    arr = pairs.view(np.complex128)[..., 0]
    if field is Field.REAL and np.any(arr.imag != 0.0):
        raise SchemaError("field 'R' requires every imaginary part to be zero")
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    try:
        code = StiefelCode(field, arr)
    except InvalidParameter as exc:
        raise SchemaError(str(exc)) from exc
    return code, metadata


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not allowed")


class _IntTokens(dict):
    __missing__ = staticmethod(int)


# "-0" is the writer's spelling of -0.0, which int() would read as +0.  The
# common tokens are dict hits, so they cost no Python-level call.
_parse_int = _IntTokens({"-0": -0.0, "0": 0, "1": 1, "-1": -1}).__getitem__


def loads_code(text: str | bytes) -> tuple[StiefelCode, dict]:
    try:
        data = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:  # also bad encodings, over-long integers
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return code_from_dict(data)


def read_code_file(path) -> tuple[StiefelCode, dict]:
    return loads_code(Path(path).read_bytes())
