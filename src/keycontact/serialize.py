"""JSON serialization for geometric values and records.

All record schemas carry a mandatory "schema" version field. Canonical JSON
(sorted keys, compact separators, plain floats) makes persisted artifacts
byte-stable for content addressing and determinism checks.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import SchemaError
from .geometry import Pose

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "pose_to_json",
    "pose_from_json",
    "vec_to_json",
    "check_fields",
    "check_schema",
]


def _plain(x: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, repr floats.

    NaN and infinities have no JSON form and raise SchemaError.
    """
    try:
        return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise SchemaError(f"not canonical JSON: {e}") from e


def vec_to_json(v) -> list[float]:
    return [float(x) for x in np.asarray(v, dtype=float).ravel()]


def pose_to_json(p: Pose) -> dict:
    """Quaternion scalar-first (w, x, y, z) plus translation in meters."""
    return {"q": vec_to_json(p.q), "t": vec_to_json(p.t)}


def pose_from_json(d: dict) -> Pose:
    """Inverse of pose_to_json, bit for bit (see Pose.from_unit)."""
    try:
        q = np.array(d["q"], dtype=float)
        t = np.array(d["t"], dtype=float)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"malformed pose record: {e}") from e
    if q.shape != (4,) or t.shape != (3,):
        raise SchemaError(f"malformed pose record: q has shape {q.shape}, t has shape {t.shape}")
    try:
        return Pose.from_unit(q, t)
    except ValueError as e:  # a quaternion far from unit norm
        raise SchemaError(f"malformed pose record: {e}") from e


def check_fields(d: dict, fields, kind: str = "record") -> None:
    """SchemaError naming every one of fields that d lacks."""
    missing = [f for f in fields if f not in d]
    if missing:
        raise SchemaError(f"{kind} record missing field(s): {', '.join(missing)}")


def check_schema(d: dict, expected: int = SCHEMA_VERSION, kind: str = "record", fields=()) -> None:
    """SchemaError unless d has the expected schema version and every one of fields."""
    v = d.get("schema")
    if v != expected:
        raise SchemaError(f"{kind} schema version {v!r} unsupported (expected {expected})")
    check_fields(d, fields, kind)
