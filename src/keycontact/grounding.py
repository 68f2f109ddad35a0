"""Interaction grounding: contact markers, segment filtering, phase labels.

Works over time-series of posed point clouds. Upstream perception (video
decoding, tracking, mask generation) is out of scope; trajectories arrive as
files (see `load_trajectories`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, MisalignedTimebaseError, SchemaError
from .geometry import PointCloud, Pose, cloud_min_distance
from .geometry.meshio import load_featured_cloud
from . import serialize

__all__ = [
    "TrackedEntity",
    "Segment",
    "contact_markers",
    "filter_segments",
    "load_trajectories",
    "label_phase",
]

HAND_ID = "hand"


@dataclass(frozen=True)
class TrackedEntity:
    """Time-indexed clouds and poses of one tracked object (or the hand)."""

    id: str
    clouds: tuple[PointCloud, ...]
    poses: tuple[Pose, ...]
    timestamps: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        if not (len(self.clouds) == len(self.poses) == len(ts)):
            raise DegenerateInputError("clouds, poses and timestamps must be equal length")
        if len(ts) < 2:
            raise DegenerateInputError("a trajectory needs at least 2 samples")
        if not (np.diff(ts) > 0).all():
            raise DegenerateInputError("timestamps must be strictly increasing")
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "clouds", tuple(self.clouds))
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Segment:
    """A contact-delimited subtask: [t_b, t_e] frame indices plus entity roles."""

    t_b: int
    t_e: int
    master_id: str
    slave_id: str
    phase: str  # "grasping" | "manipulation"

    def __post_init__(self):
        if not self.t_b < self.t_e:
            raise DegenerateInputError("segment must satisfy t_b < t_e")
        if self.phase not in ("grasping", "manipulation"):
            raise ConfigError({"phase": f"unknown phase {self.phase!r}"})


def _check_aligned(a: TrackedEntity, b: TrackedEntity) -> None:
    if len(a) != len(b) or not np.allclose(a.timestamps, b.timestamps, atol=1e-9):
        raise MisalignedTimebaseError(
            f"entities {a.id!r} and {b.id!r} are on different time bases"
        )


def contact_markers(
    a: TrackedEntity, b: TrackedEntity, epsilon: float = 0.02
) -> list[tuple[int, int]]:
    """Paired contact onset / release indices from the min cloud distance series.

    Onset t_b: d[t-1] > eps and d[t] < eps. Release t_e: d[t-1] < eps and
    d[t] > eps. Crossings are strict; a sample equal to eps is no crossing.
    A contact still open at the end of the series closes at the last index.
    A series that starts already in contact has no onset crossing and is not
    reported.
    """
    if not epsilon > 0:
        raise ConfigError({"epsilon": f"must be positive, got {epsilon}"})
    _check_aligned(a, b)
    d = np.array(
        [cloud_min_distance(ca, cb) for ca, cb in zip(a.clouds, b.clouds)]
    )
    markers: list[tuple[int, int]] = []
    open_tb: Optional[int] = None
    for t in range(1, len(d)):
        if open_tb is None and d[t - 1] > epsilon and d[t] < epsilon:
            open_tb = t
        elif open_tb is not None and d[t - 1] < epsilon and d[t] > epsilon:
            markers.append((open_tb, t))
            open_tb = None
    if open_tb is not None:
        markers.append((open_tb, len(d) - 1))
    return markers


def hand_path_length(hand: TrackedEntity, t_b: int, t_e: int) -> float:
    """Sum of hand-centroid step norms over [t_b, t_e]."""
    cents = np.array([hand.clouds[t].centroid() for t in range(t_b, t_e + 1)])
    if len(cents) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(cents, axis=0), axis=1).sum())


def filter_segments(
    segments: Sequence[Segment], hand: TrackedEntity, gamma: float = 0.05
) -> list[Segment]:
    """Drop segments whose hand path length over [t_b, t_e] falls below gamma >= 0."""
    if not gamma >= 0:
        raise ConfigError({"gamma": f"must be >= 0, got {gamma}"})
    return [s for s in segments if hand_path_length(hand, s.t_b, s.t_e) >= gamma]


def label_phase(master_id: str, slave_id: str, hand_id: str = HAND_ID) -> str:
    """Deterministic phase rule: a segment is grasping iff the slave is the hand."""
    return "grasping" if slave_id == hand_id else "manipulation"


def load_trajectories(jsonl_path, cloud_root=None) -> dict[str, TrackedEntity]:
    """Read a JSON Lines trajectory file into TrackedEntity values.

    One record per frame: {"t": seconds, "entity_id": str, "pose": {...},
    "cloud_ref": relative PLY path}. Cloud paths resolve against cloud_root
    (defaults to the JSONL's directory). A line that is not JSON or lacks a
    field raises SchemaError naming the file and line.
    """
    jsonl_path = Path(jsonl_path)
    root = Path(cloud_root) if cloud_root is not None else jsonl_path.parent
    frames: dict[str, list[tuple[float, Pose, PointCloud]]] = {}
    cloud_cache: dict[str, PointCloud] = {}
    with open(jsonl_path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{jsonl_path}:{line_no}: not JSON: {e}") from e
            serialize.check_fields(rec, ("t", "entity_id", "pose", "cloud_ref"), f"{jsonl_path}:{line_no}: trajectory")
            ref = rec["cloud_ref"]
            if ref not in cloud_cache:
                cloud_cache[ref] = load_featured_cloud(root / ref)
            frames.setdefault(rec["entity_id"], []).append(
                (float(rec["t"]), serialize.pose_from_json(rec["pose"]), cloud_cache[ref])
            )
    out = {}
    for eid, rows in frames.items():
        rows.sort(key=lambda r: r[0])
        ts = [r[0] for r in rows]
        out[eid] = TrackedEntity(
            id=eid,
            clouds=tuple(r[2] for r in rows),
            poses=tuple(r[1] for r in rows),
            timestamps=np.array(ts),
        )
    return out
