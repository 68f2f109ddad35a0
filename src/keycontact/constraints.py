"""Geometric skill constraints: bounded grasp regions.

Grasp constraints are task-space-region style boxes over keypoint frames:
per-axis position bounds in the object frame plus per-axis angular deviation
limits about the group's mean rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .geometry import Obb, average_quaternions, quat_to_rotvec
from .geometry.pose import quat_conjugate, quat_multiply, rotation_angle_between
from .geometry.shape import _component_labels
from .keypoints import KeypointFrame
from .serialize import SCHEMA_VERSION, check_fields, check_schema, vec_to_json

__all__ = [
    "GraspRegion",
    "build_grasp_region",
    "group_grasps_fallback",
]


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
        fails = {}
        if (lo > hi).any():
            fails["position_min"] = "must be <= position_max per axis"
        if (ang < 0).any() or (ang > np.pi).any():
            fails["angular_limits"] = "must lie in [0, pi]"
        if fails:
            raise ConfigError(fails)
        for name, v in (
            ("position_min", lo), ("position_max", hi),
            ("mean_rotation", q / np.linalg.norm(q)), ("angular_limits", ang),
        ):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

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
        check_schema(d, kind="GraspRegion", fields=("position_min", "position_max", "mean_rotation",
                                                    "angular_limits", "anchor", "group_label"))
        a = d["anchor"]
        check_fields(a, ("center", "half_extents", "orientation"), "GraspRegion anchor")
        return GraspRegion(
            np.array(d["position_min"]), np.array(d["position_max"]),
            np.array(d["mean_rotation"]), np.array(d["angular_limits"]),
            Obb(np.array(a["center"]), np.array(a["half_extents"]), np.array(a["orientation"])),
            d["group_label"], d.get("owner", "object"),
        )


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
        raise DegenerateInputError("a grasp region needs at least one frame")
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
    member index, each with its members in input order. This is the
    non-semantic stand-in for reasoning-based grouping.
    """
    fails = {
        name: "must be > 0"
        for name, eps in (("pos_eps", pos_eps), ("ang_eps", ang_eps))
        if eps <= 0
    }
    if fails:
        raise ConfigError(fails)
    n = len(frames)
    if n == 0:
        return []
    origins = np.array([f.origin for f in frames])
    quats = np.array([_frame_quat(f) for f in frames])
    dpos = np.linalg.norm(origins[:, None, :] - origins[None, :, :], axis=2)
    dang = rotation_angle_between(quats[:, None, :], quats[None, :, :])
    adj = np.maximum(dpos / pos_eps, dang / ang_eps) <= 1.0

    labels = _component_labels(n, *np.nonzero(np.triu(adj, 1)))
    groups: list[list[KeypointFrame]] = [[] for _ in range(labels.max() + 1)]
    for frame, label in zip(frames, labels):
        groups[label].append(frame)
    return groups
