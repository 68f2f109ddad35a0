"""Keypoint frames at contact onset and waypoint paths of relative motion.

A keypoint frame is a 6D frame rigidly attached to an object at the contact-
relevant point. Axis convention for the right-handed triad: y = z x x. The
z axis encodes the pre-contact motion direction; x points toward the most
distant object point in the plane orthogonal to z.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .geometry import PointCloud, Pose
from .geometry.cloud import nearest_neighbors
from .serialize import SCHEMA_VERSION, check_schema, vec_to_json, pose_to_json, pose_from_json

__all__ = [
    "KeypointFrame",
    "WaypointPath",
    "extract_slave_keypoint",
    "extract_master_keypoint",
    "relative_waypoint_path",
    "compress_squishe",
    "DEFAULT_DELTA_T",
    "PERP_BAND",
]

DEFAULT_DELTA_T = 0.2  # seconds of pre-contact motion defining the z axis
PERP_BAND = 0.05  # |cos| band treated as perpendicular to z
PERP_BAND_RELAXED = 0.2


@dataclass(frozen=True)
class KeypointFrame:
    """Object-attached 6D frame: origin plus orthonormal axes, object frame."""

    origin: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray
    owner: str
    role: str  # "master" | "slave"

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        x = np.asarray(self.x_axis, dtype=float).reshape(3)
        y = np.asarray(self.y_axis, dtype=float).reshape(3)
        z = np.asarray(self.z_axis, dtype=float).reshape(3)
        for name, v in (("x_axis", x), ("y_axis", y), ("z_axis", z)):
            n = np.linalg.norm(v)
            if abs(n - 1.0) > 1e-6:
                raise DegenerateInputError(f"{name} must be unit length (|v| = {n})")
        if np.linalg.norm(np.cross(z, x) - y) > 1e-6:
            raise DegenerateInputError("axes must satisfy y = z x x")
        if self.role not in ("master", "slave"):
            raise ConfigError({"role": f"unknown role {self.role!r}"})
        for name, v in (("origin", o), ("x_axis", x), ("y_axis", y), ("z_axis", z)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @staticmethod
    def from_axes(origin, x_axis, z_axis, owner: str, role: str) -> "KeypointFrame":
        """Build from origin, x and z; y follows as z x x."""
        x = np.asarray(x_axis, dtype=float)
        z = np.asarray(z_axis, dtype=float)
        x = x / np.linalg.norm(x)
        z = z / np.linalg.norm(z)
        return KeypointFrame(origin, x, np.cross(z, x), z, owner, role)

    @staticmethod
    def from_pose(pose: Pose, owner: str, role: str) -> "KeypointFrame":
        r = pose.rotation_matrix()
        return KeypointFrame(pose.t, r[:, 0], r[:, 1], r[:, 2], owner, role)

    def as_pose(self) -> Pose:
        """The frame as a Pose mapping frame coordinates into the object frame."""
        rot = np.column_stack([self.x_axis, self.y_axis, self.z_axis])
        return Pose.from_rotation(rot, self.origin)

    def world(self, object_pose: Pose) -> Pose:
        """Frame pose in the world given its owner's object pose."""
        return object_pose.compose(self.as_pose())

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "origin": vec_to_json(self.origin),
            "x_axis": vec_to_json(self.x_axis),
            "y_axis": vec_to_json(self.y_axis),
            "z_axis": vec_to_json(self.z_axis),
            "owner": self.owner,
            "role": self.role,
        }

    @staticmethod
    def from_json(d: dict) -> "KeypointFrame":
        check_schema(d, kind="KeypointFrame", fields=("origin", "x_axis", "y_axis", "z_axis", "owner", "role"))
        return KeypointFrame(
            np.array(d["origin"]), np.array(d["x_axis"]), np.array(d["y_axis"]),
            np.array(d["z_axis"]), d["owner"], d["role"],
        )


@dataclass(frozen=True)
class WaypointPath:
    """Ordered poses of the slave keypoint frame in the master keypoint frame."""

    waypoints: tuple[Pose, ...]
    timestamps: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        if len(self.waypoints) < 2:
            raise DegenerateInputError("a path needs at least 2 waypoints")
        if len(ts) != len(self.waypoints):
            raise DegenerateInputError("timestamps must align with waypoints")
        if not (np.diff(ts) > 0).all():
            raise DegenerateInputError("timestamps must be increasing")
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "waypoints", tuple(self.waypoints))

    def __len__(self) -> int:
        return len(self.waypoints)

    def positions(self) -> np.ndarray:
        return np.array([w.t for w in self.waypoints])

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "waypoints": [pose_to_json(w) for w in self.waypoints],
            "timestamps": vec_to_json(self.timestamps),
        }

    @staticmethod
    def from_json(d: dict) -> "WaypointPath":
        check_schema(d, kind="WaypointPath", fields=("waypoints", "timestamps"))
        return WaypointPath(
            tuple(pose_from_json(w) for w in d["waypoints"]),
            np.array(d["timestamps"], dtype=float),
        )


def extract_slave_keypoint(
    slave_cloud_at_contact: PointCloud,
    master_cloud_at_contact: PointCloud,
    slave_pose_history: Sequence[Pose],
    contact_index: int,
    timestamps: Sequence[float],
    delta_t: float = DEFAULT_DELTA_T,
    owner: str = "slave",
) -> KeypointFrame:
    """Slave keypoint frame at contact onset, in the slave object frame.

    Clouds are world-frame posed clouds at the contact frame. The origin is
    the slave point nearest the master cloud; z is the normalized keypoint
    displacement over the delta_t window before contact (replayed through the
    relative pose history); x points toward the farthest slave point inside a
    perpendicularity band around the plane orthogonal to z (band relaxed once
    before giving up); y = z x x. Argmin/argmax ties break by lowest point
    index.
    """
    if contact_index < 1:
        raise DegenerateInputError("contact_index must be >= 1")
    ts = np.asarray(timestamps, dtype=float)
    if len(ts) != len(slave_pose_history):
        raise DegenerateInputError("timestamps must align with the pose history")
    sp = slave_cloud_at_contact.points
    mp = master_cloud_at_contact.points
    if len(sp) == 0 or len(mp) == 0:
        raise DegenerateInputError("contact clouds must be non-empty")

    # the slave point nearest any master point; argmin breaks ties low
    d, _ = nearest_neighbors(sp, mp)
    ci = int(np.argmin(d))
    c_world = sp[ci]

    pose_tb = slave_pose_history[contact_index]
    t_contact = ts[contact_index]
    earlier = np.nonzero(ts <= t_contact - delta_t)[0]
    ref_idx = int(earlier[-1]) if len(earlier) else 0
    if ref_idx == contact_index:
        raise DegenerateInputError("delta_t window contains no earlier pose sample")

    # replay the contact point through the relative pose history
    local = pose_tb.inverse().apply(c_world)
    c_then = slave_pose_history[ref_idx].apply(local)
    disp = c_world - c_then
    norm = np.linalg.norm(disp)
    if norm < 1e-6:
        raise DegenerateInputError("no pre-contact motion; z axis undefined")
    z_axis = disp / norm

    rel = sp - c_world
    dist = np.linalg.norm(rel, axis=1)
    x_axis = None
    for band in (PERP_BAND, PERP_BAND_RELAXED):
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = np.where(dist > 1e-9, (rel @ z_axis) / np.where(dist > 0, dist, 1.0), 1.0)
        ok = (np.abs(cosang) <= band) & (dist > 1e-9)
        if ok.any():
            masked = np.where(ok, dist, -np.inf)
            best = int(np.argmax(masked))
            v = rel[best] - np.dot(rel[best], z_axis) * z_axis
            nv = np.linalg.norm(v)
            if nv > 1e-9:
                x_axis = v / nv
                break
    if x_axis is None:
        raise DegenerateInputError(
            "no slave point within the perpendicularity band; x axis undefined"
        )

    inv = pose_tb.inverse()
    return KeypointFrame.from_axes(
        inv.apply(c_world),
        inv.apply_direction(x_axis),
        inv.apply_direction(z_axis),
        owner=owner,
        role="slave",
    )


def extract_master_keypoint(
    master_cloud: PointCloud,
    slave_kf: KeypointFrame,
    slave_pose: Pose,
    master_pose: Pose,
    owner: str = "master",
) -> KeypointFrame:
    """Master keypoint: nearest master point to the world slave keypoint,
    axes copied from the slave frame (re-expressed in the master object frame).
    """
    if len(master_cloud) == 0:
        raise DegenerateInputError("master cloud must be non-empty")
    world_kf = slave_kf.world(slave_pose)
    mp = master_cloud.points
    c_m_world = mp[int(np.argmin(np.linalg.norm(mp - world_kf.t, axis=1)))]
    inv = master_pose.inverse()
    r = world_kf.rotation_matrix()
    return KeypointFrame.from_axes(
        inv.apply(c_m_world),
        inv.apply_direction(r[:, 0]),
        inv.apply_direction(r[:, 2]),
        owner=owner,
        role="master",
    )


def relative_waypoint_path(
    slave_kf: KeypointFrame,
    master_kf: KeypointFrame,
    slave_poses: Sequence[Pose],
    master_poses: Sequence[Pose],
    timestamps: Sequence[float],
) -> WaypointPath:
    """Slave keypoint trajectory expressed in the (moving) master keypoint frame."""
    if not (len(slave_poses) == len(master_poses) == len(timestamps)):
        raise DegenerateInputError("pose sequences and timestamps must align")
    s_local = slave_kf.as_pose()
    m_local = master_kf.as_pose()
    wps = [
        mp.compose(m_local).inverse().compose(sp.compose(s_local))
        for sp, mp in zip(slave_poses, master_poses)
    ]
    return WaypointPath(tuple(wps), np.asarray(timestamps, dtype=float))


def _sed(pos: np.ndarray, ts: np.ndarray, i: int, a: int, b: int) -> float:
    """Synchronized Euclidean distance of point i against segment (a, b)."""
    if ts[b] == ts[a]:
        return float(np.linalg.norm(pos[i] - pos[a]))
    u = (ts[i] - ts[a]) / (ts[b] - ts[a])
    proj = pos[a] + u * (pos[b] - pos[a])
    return float(np.linalg.norm(pos[i] - proj))


def compress_squishe(path: WaypointPath, mu: float) -> WaypointPath:
    """SQUISH-E waypoint compression with an error bound mu > 0 (meters).

    The synchronized Euclidean distance (SED) of every removed waypoint
    against the retained subsequence stays <= mu. The SED is computed on
    waypoint translations; both endpoints are always kept.

    Removal uses the SQUISH-E priority queue: each interior point carries
    priority = accumulated error + SED against its current neighbors, the
    minimum-priority point is removed, and its priority propagates to the
    neighbors as an accumulated upper bound.
    """
    if not mu > 0:
        raise ConfigError({"mu": f"must be positive, got {mu}"})

    n = len(path)
    pos = path.positions()
    ts = path.timestamps
    if n == 2:
        return path

    prev = list(range(-1, n - 1))
    nxt = list(range(1, n + 1))
    alive = [True] * n
    acc = [0.0] * n

    def priority(i: int) -> float:
        return acc[i] + _sed(pos, ts, i, prev[i], nxt[i])

    # endpoints are never queued; a popped entry is stale once its point is
    # removed or re-queued with a new priority
    pri = [0.0] + [priority(i) for i in range(1, n - 1)] + [0.0]
    heap = [(pri[i], i) for i in range(1, n - 1)]
    heapq.heapify(heap)
    while heap:
        p, i = heapq.heappop(heap)
        if not alive[i] or p != pri[i]:
            continue
        if p > mu:
            break  # the cheapest removal would exceed the error bound
        alive[i] = False
        a, b = prev[i], nxt[i]
        nxt[a], prev[b] = b, a
        for j in (a, b):
            if 0 < j < n - 1 and alive[j]:
                acc[j] = max(acc[j], p)
                pri[j] = priority(j)
                heapq.heappush(heap, (pri[j], j))

    keep = [i for i in range(n) if alive[i]]
    return WaypointPath(tuple(path.waypoints[i] for i in keep), ts[keep])
