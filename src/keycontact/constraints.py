"""Geometric skill constraints: bounded grasp regions and trajectory specs.

Grasp constraints are task-space-region style boxes over keypoint frames:
per-axis position bounds in the object frame plus per-axis angular deviation
limits about the group's mean rotation. Manipulation constraints are
parameterized waypoint generators whose parameters are tiny arithmetic
expressions over the master object's bounding box.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import UnresolvedParameterError
from .geometry import Obb, Pose, average_quaternions, quat_from_rotvec, quat_to_rotvec
from .geometry.pose import quat_conjugate, quat_multiply, rotation_angle_between
from .keypoints import KeypointFrame, WaypointPath
from .serialize import SCHEMA_VERSION, check_schema, vec_to_json

__all__ = [
    "GraspRegion",
    "TrajectorySpec",
    "SemanticConstraint",
    "build_grasp_region",
    "group_grasps_fallback",
    "sample_grasp_candidates",
    "generate_waypoints",
    "evaluate_expression",
    "register_generator",
    "DEFAULT_APPROACH_DISTANCE",
]

# pre-grasp approach offset along -z of the sampled frame; the demonstrations
# do not pin this down, so it stays a config knob
DEFAULT_APPROACH_DISTANCE = 0.05


@dataclass(frozen=True)
class GraspRegion:
    """Bounded region of allowable grasp keypoint frames on one object."""

    position_min: np.ndarray
    position_max: np.ndarray
    mean_rotation: np.ndarray  # unit quaternion, w >= 0
    angular_limits: np.ndarray  # per-axis max |rotvec| deviation from the mean
    anchor: Obb
    group_label: str
    owner: str = "object"

    def __post_init__(self):
        lo = np.asarray(self.position_min, dtype=float).reshape(3)
        hi = np.asarray(self.position_max, dtype=float).reshape(3)
        q = np.asarray(self.mean_rotation, dtype=float).reshape(4)
        ang = np.asarray(self.angular_limits, dtype=float).reshape(3)
        if (lo > hi).any():
            raise ValueError("position bounds must satisfy min <= max per axis")
        if (ang < 0).any() or (ang > np.pi).any():
            raise ValueError("angular limits must lie in [0, pi]")
        for name, v in (
            ("position_min", lo), ("position_max", hi),
            ("mean_rotation", q / np.linalg.norm(q)), ("angular_limits", ang),
        ):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def contains(self, frame: KeypointFrame, pos_tol: float = 1e-9, ang_tol: float = 1e-9) -> bool:
        o = frame.origin
        if (o < self.position_min - pos_tol).any() or (o > self.position_max + pos_tol).any():
            return False
        dev = _deviation_rotvec(self.mean_rotation, frame)
        return bool((np.abs(dev) <= self.angular_limits + ang_tol).all())

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "position_min": vec_to_json(self.position_min),
            "position_max": vec_to_json(self.position_max),
            "mean_rotation": vec_to_json(self.mean_rotation),
            "angular_limits": vec_to_json(self.angular_limits),
            "anchor": {
                "center": vec_to_json(self.anchor.center),
                "half_extents": vec_to_json(self.anchor.half_extents),
                "orientation": vec_to_json(self.anchor.orientation),
            },
            "group_label": self.group_label,
            "owner": self.owner,
        }

    @staticmethod
    def from_json(d: dict) -> "GraspRegion":
        check_schema(d, kind="GraspRegion")
        a = d["anchor"]
        return GraspRegion(
            np.array(d["position_min"]), np.array(d["position_max"]),
            np.array(d["mean_rotation"]), np.array(d["angular_limits"]),
            Obb(np.array(a["center"]), np.array(a["half_extents"]), np.array(a["orientation"])),
            d["group_label"], d.get("owner", "object"),
        )


@dataclass(frozen=True)
class SemanticConstraint:
    """Opaque semantic label; produced by an external reasoner or the fallback grouping."""

    label: str
    rationale: str = ""
    source: str = "fallback_grouping"  # or "external_reasoner"

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be non-empty")
        if self.source not in ("external_reasoner", "fallback_grouping"):
            raise ValueError(f"unknown source {self.source!r}")

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "rationale": self.rationale,
            "source": self.source,
        }

    @staticmethod
    def from_json(d: dict) -> "SemanticConstraint":
        check_schema(d, kind="SemanticConstraint")
        return SemanticConstraint(d["label"], d.get("rationale", ""), d["source"])


def _frame_quat(f: KeypointFrame) -> np.ndarray:
    return f.as_pose().q


def _deviation_rotvec(mean_q: np.ndarray, frame: KeypointFrame) -> np.ndarray:
    rel = quat_multiply(quat_conjugate(mean_q), _frame_quat(frame))
    return quat_to_rotvec(rel)


def build_grasp_region(
    group: Sequence[KeypointFrame], anchor: Obb, group_label: str = ""
) -> GraspRegion:
    """Tightest box region containing every frame in the group.

    Position bounds are the componentwise min/max of origins. The mean
    rotation is the eigen-method quaternion average; per-axis angular limits
    are the max observed |rotvec| deviation from that mean.
    """
    if not group:
        raise ValueError("group must be non-empty")
    origins = np.array([f.origin for f in group])
    quats = np.array([_frame_quat(f) for f in group])
    mean_q = average_quaternions(quats)
    devs = np.array([np.abs(_deviation_rotvec(mean_q, f)) for f in group])
    return GraspRegion(
        origins.min(axis=0),
        origins.max(axis=0),
        mean_q,
        devs.max(axis=0),
        anchor,
        group_label,
        owner=group[0].owner,
    )


def group_grasps_fallback(
    frames: Sequence[KeypointFrame], pos_eps: float, ang_eps: float
) -> list[list[KeypointFrame]]:
    """Density-based grouping: connected components of the product metric graph.

    Two frames are neighbors when max(|dc| / pos_eps, dangle / ang_eps) <= 1.
    Deterministic given input order; groups come out ordered by their lowest
    member index. This is the non-semantic stand-in for reasoning-based
    grouping.
    """
    if pos_eps <= 0 or ang_eps <= 0:
        raise ValueError("eps values must be positive")
    n = len(frames)
    if n == 0:
        return []
    origins = np.array([f.origin for f in frames])
    quats = np.array([_frame_quat(f) for f in frames])
    dpos = np.linalg.norm(origins[:, None, :] - origins[None, :, :], axis=2)
    dang = rotation_angle_between(quats[:, None, :], quats[None, :, :])
    adj = np.maximum(dpos / pos_eps, dang / ang_eps) <= 1.0

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[KeypointFrame]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(frames[i])
    return [groups[r] for r in sorted(groups)]


def sample_grasp_candidates(region: GraspRegion, n: int, seed: int) -> list[KeypointFrame]:
    """n frames uniform in the region box; reproducible per seed.

    Origins are uniform in the position box; rotations compose the mean
    rotation with per-axis uniform rotation-vector deviations inside the
    angular limits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = region.position_min, region.position_max
    origins = lo + rng.random((n, 3)) * (hi - lo)
    devs = rng.uniform(-region.angular_limits, region.angular_limits, size=(n, 3))
    out = []
    for i in range(n):
        q = quat_multiply(region.mean_rotation, quat_from_rotvec(devs[i]))
        pose = Pose(q, origins[i])
        out.append(KeypointFrame.from_pose(pose, owner=region.owner, role="master"))
    return out


# ---------------------------------------------------------------------------
# trajectory-spec expression language
#
# expr   := term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := NUMBER | IDENT | ('min' | 'max') '(' expr ',' expr ')'
#           | '(' expr ')' | '-' factor
# IDENT  := [obb.](x_extent | y_extent | z_extent | center_x | center_y | center_z)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?)|([A-Za-z_][\w.]*)|(.))")


def _tokenize(text: str):
    for num, ident, other in _TOKEN_RE.findall(text):
        if num:
            yield ("num", float(num))
        elif ident:
            yield ("ident", ident)
        elif other.strip():
            yield ("op", other)
    yield ("end", None)


def _obb_scope(obb: Obb) -> dict[str, float]:
    e = obb.extents
    c = obb.center
    return {
        "x_extent": float(e[0]), "y_extent": float(e[1]), "z_extent": float(e[2]),
        "center_x": float(c[0]), "center_y": float(c[1]), "center_z": float(c[2]),
    }


def evaluate_expression(text: str, obb: Obb) -> float:
    """Evaluate one binding expression against an object's bounding box."""
    scope = _obb_scope(obb)
    tokens = list(_tokenize(text))
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None, value=None):
        nonlocal pos
        k, v = tokens[pos]
        if (kind and k != kind) or (value is not None and v != value):
            raise UnresolvedParameterError(text, f"unexpected token {v!r} in {text!r}")
        pos += 1
        return v

    def factor() -> float:
        k, v = peek()
        if k == "num":
            take()
            return v
        if k == "ident":
            take()
            name = v[4:] if v.startswith("obb.") else v
            if name in ("min", "max"):
                take("op", "(")
                a = expr()
                take("op", ",")
                b = expr()
                take("op", ")")
                return min(a, b) if name == "min" else max(a, b)
            if name not in scope:
                raise UnresolvedParameterError(name, f"unknown identifier {name!r} in {text!r}")
            return scope[name]
        if k == "op" and v == "(":
            take()
            val = expr()
            take("op", ")")
            return val
        if k == "op" and v == "-":
            take()
            return -factor()
        raise UnresolvedParameterError(text, f"unexpected token {v!r} in {text!r}")

    def term() -> float:
        val = factor()
        while peek() == ("op", "*") or peek() == ("op", "/"):
            op = take()
            rhs = factor()
            val = val * rhs if op == "*" else val / rhs
        return val

    def expr() -> float:
        val = term()
        while peek() == ("op", "+") or peek() == ("op", "-"):
            op = take()
            rhs = term()
            val = val + rhs if op == "+" else val - rhs
        return val

    out = expr()
    if peek()[0] != "end":
        raise UnresolvedParameterError(text, f"trailing tokens in {text!r}")
    return float(out)


@dataclass(frozen=True)
class TrajectorySpec:
    """A parameterized waypoint generator bound to object properties.

    generator_id selects a built-in (line, arc, spiral) or composite, whose
    children concatenate. Parameter values are expressions over the master
    object's bounding box (see evaluate_expression) or numeric literals.
    """

    generator_id: str
    parameters: dict = field(default_factory=dict)  # name -> expression text | float
    resolution: int = 16
    children: tuple = ()  # for composite

    def __post_init__(self):
        if self.generator_id not in _GENERATORS and self.generator_id != "composite":
            raise ValueError(f"unknown generator {self.generator_id!r}")
        if self.generator_id == "composite":
            if not self.children:
                raise ValueError("composite spec needs children")
        elif self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        object.__setattr__(self, "parameters", dict(self.parameters))
        object.__setattr__(self, "children", tuple(self.children))

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "generator_id": self.generator_id,
            "parameters": {k: self.parameters[k] for k in sorted(self.parameters)},
            "resolution": self.resolution,
            "children": [c.to_json() for c in self.children],
        }

    @staticmethod
    def from_json(d: dict) -> "TrajectorySpec":
        check_schema(d, kind="TrajectorySpec")
        return TrajectorySpec(
            d["generator_id"],
            d.get("parameters", {}),
            d.get("resolution", 16),
            tuple(TrajectorySpec.from_json(c) for c in d.get("children", ())),
        )


def _resolve(spec: TrajectorySpec, obb: Obb, required: Sequence[str]) -> dict[str, float]:
    vals = {}
    for name in required:
        if name not in spec.parameters:
            raise UnresolvedParameterError(name, f"missing parameter {name!r} for {spec.generator_id}")
        raw = spec.parameters[name]
        vals[name] = float(raw) if isinstance(raw, (int, float)) else evaluate_expression(raw, obb)
    return vals


def _gen_line(spec: TrajectorySpec, obb: Obb) -> np.ndarray:
    p = _resolve(spec, obb, ["start_x", "start_y", "start_z", "end_x", "end_y", "end_z"])
    a = np.array([p["start_x"], p["start_y"], p["start_z"]])
    b = np.array([p["end_x"], p["end_y"], p["end_z"]])
    u = np.linspace(0.0, 1.0, spec.resolution)
    return a + u[:, None] * (b - a)


def _gen_arc(spec: TrajectorySpec, obb: Obb) -> np.ndarray:
    p = _resolve(
        spec, obb,
        ["center_x", "center_y", "center_z", "radius", "angle_start", "angle_end"],
    )
    c = np.array([p["center_x"], p["center_y"], p["center_z"]])
    th = np.linspace(p["angle_start"], p["angle_end"], spec.resolution)
    return c + p["radius"] * np.column_stack([np.cos(th), np.sin(th), np.zeros_like(th)])


def _gen_spiral(spec: TrajectorySpec, obb: Obb) -> np.ndarray:
    p = _resolve(
        spec, obb,
        ["center_x", "center_y", "center_z", "r_start", "r_end", "turns", "pitch"],
    )
    c = np.array([p["center_x"], p["center_y"], p["center_z"]])
    th = np.linspace(0.0, 2.0 * np.pi * p["turns"], spec.resolution)
    r = np.linspace(p["r_start"], p["r_end"], spec.resolution)
    z = p["pitch"] * th / (2.0 * np.pi)
    return c + np.column_stack([r * np.cos(th), r * np.sin(th), z])


_GENERATORS: dict[str, Callable[[TrajectorySpec, Obb], np.ndarray]] = {
    "line": _gen_line,
    "arc": _gen_arc,
    "spiral": _gen_spiral,
}


def register_generator(name: str, fn: Callable[[TrajectorySpec, Obb], np.ndarray]) -> None:
    """Extension hook for additional deterministic generators."""
    if name in _GENERATORS or name == "composite":
        raise ValueError(f"generator {name!r} already registered")
    _GENERATORS[name] = fn


def generate_waypoints(spec: TrajectorySpec, master_props: Obb) -> WaypointPath:
    """Deterministic waypoint path in the master keypoint frame.

    Positions come from the bound generator; orientations are identity (the
    demonstrations encode approach orientation in the keypoint frames, not in
    the generated path). Timestamps are a unit-interval parameterization.
    """
    if spec.generator_id == "composite":
        chunks = [generate_waypoints(c, master_props).positions() for c in spec.children]
        positions = np.vstack(chunks)
    else:
        positions = _GENERATORS[spec.generator_id](spec, master_props)
    n = len(positions)
    ts = np.linspace(0.0, 1.0, n) if n > 1 else np.array([0.0])
    return WaypointPath(tuple(Pose(t=p) for p in positions), ts)
