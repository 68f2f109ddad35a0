"""Demo-to-skill pipelines tying grounding, keypoints and constraints together.

These are the library calls behind the CLI commands; the CLI stays a thin
shell over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bank import SkillRecord
from .constraints import build_grasp_region, group_grasps_fallback
from .errors import DegenerateInputError
from .grounding import (
    HAND_ID,
    Segment,
    TrackedEntity,
    contact_markers,
    filter_segments,
    hand_path_length,
    label_phase,
)
from .keypoints import (
    KeypointFrame,
    compress_squishe,
    extract_master_keypoint,
    extract_slave_keypoint,
    relative_waypoint_path,
)

__all__ = ["GroundedSegment", "ground_demo", "learn_records"]

# two grasp frames within both of these are neighbors; connected neighbors
# share one grasp region
GRASP_GROUP_POS_EPS = 0.02  # m
GRASP_GROUP_ANG_EPS = 0.35  # rad


@dataclass(frozen=True)
class GroundedSegment:
    segment: Segment
    slave_kf: Optional[KeypointFrame]
    master_kf: Optional[KeypointFrame]

    def to_json(self) -> dict:
        from .serialize import SCHEMA_VERSION

        return {
            "schema": SCHEMA_VERSION,
            "t_b": self.segment.t_b,
            "t_e": self.segment.t_e,
            "master_id": self.segment.master_id,
            "slave_id": self.segment.slave_id,
            "phase": self.segment.phase,
            "slave_kf": self.slave_kf.to_json() if self.slave_kf else None,
            "master_kf": self.master_kf.to_json() if self.master_kf else None,
        }


def _role_split(a: TrackedEntity, b: TrackedEntity, t_b: int, t_e: int, hand_id: str):
    """(master, slave) assignment: the hand is always the slave of a grasp;
    between two objects the one moving more over the segment is the slave."""
    if a.id == hand_id:
        return b, a
    if b.id == hand_id:
        return a, b
    if hand_path_length(a, t_b, t_e) > hand_path_length(b, t_b, t_e):
        return b, a
    return a, b


def ground_demo(
    entities: dict[str, TrackedEntity],
    hand_id: str = HAND_ID,
    epsilon: float = 0.02,
    gamma: float = 0.05,
) -> list[GroundedSegment]:
    """Contact segmentation plus keypoint extraction over all entity pairs."""
    hand = entities.get(hand_id)
    ids = sorted(entities)
    segments: list[tuple[Segment, TrackedEntity, TrackedEntity]] = []
    for i, ei in enumerate(ids):
        for ej in ids[i + 1 :]:
            a, b = entities[ei], entities[ej]
            for t_b, t_e in contact_markers(a, b, epsilon):
                master, slave = _role_split(a, b, t_b, t_e, hand_id)
                seg = Segment(
                    t_b=t_b,
                    t_e=t_e,
                    master_id=master.id,
                    slave_id=slave.id,
                    phase=label_phase(master.id, slave.id, hand_id),
                )
                segments.append((seg, master, slave))
    if hand is not None:
        kept = filter_segments([s for s, _, _ in segments], hand, gamma)
        segments = [t for t in segments if t[0] in kept]
    segments.sort(key=lambda t: (t[0].t_b, t[0].master_id, t[0].slave_id))

    out: list[GroundedSegment] = []
    for seg, master, slave in segments:
        slave_kf = master_kf = None
        if seg.phase == "manipulation":
            try:
                slave_kf = extract_slave_keypoint(
                    slave.clouds[seg.t_b],
                    master.clouds[seg.t_b],
                    slave.poses,
                    seg.t_b,
                    slave.timestamps,
                    owner=slave.id,
                )
                master_kf = extract_master_keypoint(
                    master.clouds[seg.t_b],
                    slave_kf,
                    slave.poses[seg.t_b],
                    master.poses[seg.t_b],
                    owner=master.id,
                )
            except DegenerateInputError:
                pass  # segment kept, keypoints unavailable
        else:
            # grasp keypoint: the hand (gripper) pose at contact, expressed in
            # the master object frame
            hand_pose = slave.poses[seg.t_b]
            local = master.poses[seg.t_b].inverse().compose(hand_pose)
            master_kf = KeypointFrame.from_pose(local, owner=master.id, role="master")
        out.append(GroundedSegment(seg, slave_kf, master_kf))
    return out


def learn_records(
    entities: dict[str, TrackedEntity],
    hand_id: str = HAND_ID,
    epsilon: float = 0.02,
    gamma: float = 0.05,
    squish_mu: float = 0.002,
    demo_id: str = "",
) -> list[SkillRecord]:
    """Turn one demonstration into skill records.

    Grasp segments yield grasp regions over the grouped hand-pose keypoint
    frames; manipulation segments yield keypoint frames plus the compressed
    relative waypoint path.
    """
    grounded = ground_demo(entities, hand_id, epsilon, gamma)
    records: list[SkillRecord] = []

    grasp_frames: dict[str, list[tuple[GroundedSegment, KeypointFrame]]] = {}
    for g in grounded:
        if g.segment.phase == "grasping" and g.master_kf is not None:
            grasp_frames.setdefault(g.segment.master_id, []).append((g, g.master_kf))

    for master_id, pairs in sorted(grasp_frames.items()):
        frames = [kf for _, kf in pairs]
        groups = group_grasps_fallback(frames, GRASP_GROUP_POS_EPS, GRASP_GROUP_ANG_EPS)
        master = entities[master_id]
        anchor = _cloud_obb(master)
        regions = tuple(
            build_grasp_region(grp, anchor, group_label=f"grasp_{master_id}_{gi}")
            for gi, grp in enumerate(groups)
        )
        g0 = pairs[0][0]
        records.append(
            SkillRecord(
                description=f"grasp the {master_id}",
                phase="grasping",
                master_kf=pairs[0][1],
                grasp_regions=regions,
                demo_id=demo_id,
                t_begin=float(master.timestamps[g0.segment.t_b]),
                t_end=float(master.timestamps[g0.segment.t_e]),
            )
        )

    for g in grounded:
        if g.segment.phase != "manipulation" or g.slave_kf is None or g.master_kf is None:
            continue
        master = entities[g.segment.master_id]
        slave = entities[g.segment.slave_id]
        sl = slice(g.segment.t_b, g.segment.t_e + 1)
        path = relative_waypoint_path(
            g.slave_kf,
            g.master_kf,
            slave.poses[sl],
            master.poses[sl],
            master.timestamps[sl],
        )
        if squish_mu is not None and len(path) > 2:
            path = compress_squishe(path, mu=squish_mu)
        records.append(
            SkillRecord(
                description=f"move the {g.segment.slave_id} onto the {g.segment.master_id}",
                phase="manipulation",
                master_kf=g.master_kf,
                slave_kf=g.slave_kf,
                waypoints=path,
                demo_id=demo_id,
                t_begin=float(master.timestamps[g.segment.t_b]),
                t_end=float(master.timestamps[g.segment.t_e]),
            )
        )
    return records


def _cloud_obb(entity: TrackedEntity):
    from .geometry import Obb

    pts = entity.poses[0].inverse().apply(entity.clouds[0].points)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    half = np.maximum(0.5 * (hi - lo), 1e-6)
    return Obb(0.5 * (lo + hi), half, np.array([1.0, 0.0, 0.0, 0.0]))
