"""Collision-minimal pose refinement for grounded and transferred interactions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NoCollisionFreePoseError
from ..geometry import Pose, ShapeModel, union_aabb_volume
from ..geometry.pose import quat_from_rotvec, quat_multiply, quat_to_matrix, rotation_angle_between
from ..keypoints import KeypointFrame

__all__ = [
    "NeighborhoodSearch",
    "RefinedTrajectory",
    "RefinedKeypoints",
    "refine_grounded_trajectory",
    "refine_transferred_keypoints",
]


@dataclass(frozen=True)
class NeighborhoodSearch:
    """6D neighborhood sampling parameters for collision-minimal search."""

    radius_t: float = 0.01  # m
    radius_r: float = 0.1  # rad
    samples: int = 512
    seed: int = 0
    rounds: int = 6  # shrink-and-restart rounds (keypoint alignment only)
    pen_tol: float = 3e-4  # m; penetration below this counts as collision-free
    rot_weight: float = 0.1  # m per rad in the frame-distance metric
    pen_samples: int = 400  # surface samples per shape when scoring


def _sample_neighborhood(pose: Pose, radius_t: float, radius_r: float, rng, k: int):
    """k pose candidates around pose; index 0 is the unperturbed pose.

    Translation radii are stratified across shells of the ball; rotations use
    a random axis with stratified angle up to radius_r.
    """
    quats = np.empty((k, 4))
    trans = np.empty((k, 3))
    quats[0] = pose.q
    trans[0] = pose.t
    n = k - 1
    if n > 0:
        u = (np.arange(n) + rng.random(n)) / n
        radii = radius_t * np.cbrt(u)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        trans[1:] = pose.t + radii[:, None] * dirs

        ang_u = (np.arange(n) + rng.random(n)) / n
        rng.shuffle(ang_u)
        angles = radius_r * ang_u
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        quats[1:] = quat_multiply(pose.q, quat_from_rotvec(angles[:, None] * axes))
        quats[1:] /= np.linalg.norm(quats[1:], axis=1, keepdims=True)
    return quats, trans


def _batch_penetration(
    quats: np.ndarray,
    trans: np.ndarray,
    master: ShapeModel,
    master_pose: Pose,
    slave: ShapeModel,
    search: NeighborhoodSearch,
) -> np.ndarray:
    """Sampled penetration depth for K candidate slave poses at once."""
    k = len(quats)
    s_pts, _ = slave.surface_samples(search.pen_samples, seed=1)
    m_pts, _ = master.surface_samples(search.pen_samples, seed=1)
    m_world = master_pose.apply(m_pts)
    rot = quat_to_matrix(quats)

    # slave samples into the master SDF
    s_world = np.einsum("kij,nj->kni", rot, s_pts) + trans[:, None, :]
    s_local_m = master_pose.inverse().apply(s_world.reshape(-1, 3))
    d_sm = master.sdf_local(s_local_m).reshape(k, -1)

    # master samples into each candidate slave SDF
    diff = m_world[None, :, :] - trans[:, None, :]
    m_local_s = np.einsum("kji,knj->kni", rot, diff)  # R^T (p - t)
    d_ms = slave.sdf_local(m_local_s.reshape(-1, 3)).reshape(k, -1)

    depth = np.maximum(-d_sm.min(axis=1), -d_ms.min(axis=1))
    return np.maximum(depth, 0.0)


def _pose_distance(quats, trans, ref: Pose, rot_weight: float) -> np.ndarray:
    dt = np.linalg.norm(trans - ref.t, axis=1)
    return dt + rot_weight * rotation_angle_between(quats, ref.q)


@dataclass(frozen=True)
class RefinedTrajectory:
    poses: tuple[Pose, ...]
    contact_index: int
    penetration_before: np.ndarray
    penetration_after: np.ndarray


def refine_grounded_trajectory(
    traj: Sequence[Pose],
    master: ShapeModel,
    master_pose: Pose,
    slave: ShapeModel,
    search: NeighborhoodSearch = NeighborhoodSearch(),
) -> RefinedTrajectory:
    """Replace each slave pose by its collision-minimal 6D neighbor.

    Every pose is scored against sampled neighbors (the original included, so
    penetration can never increase); ties at equal depth break toward the
    candidate closest to the original pose. The contact index is the frame
    minimizing the union AABB volume of the two posed shapes.
    """
    rng = np.random.default_rng(search.seed)
    refined: list[Pose] = []
    pen_before = np.empty(len(traj))
    pen_after = np.empty(len(traj))
    for i, pose in enumerate(traj):
        quats, trans = _sample_neighborhood(pose, search.radius_t, search.radius_r, rng, search.samples)
        depth = _batch_penetration(quats, trans, master, master_pose, slave, search)
        pen_before[i] = depth[0]
        best_depth = depth.min()
        tied = np.nonzero(depth == best_depth)[0]
        if len(tied) == 1:
            j = int(tied[0])
        else:
            dist = _pose_distance(quats[tied], trans[tied], pose, search.rot_weight)
            j = int(tied[np.argmin(dist)])
        pen_after[i] = depth[j]
        refined.append(Pose(quats[j], trans[j]))

    volumes = [union_aabb_volume(master, master_pose, slave, p) for p in refined]
    return RefinedTrajectory(
        poses=tuple(refined),
        contact_index=int(np.argmin(volumes)),
        penetration_before=pen_before,
        penetration_after=pen_after,
    )


@dataclass(frozen=True)
class RefinedKeypoints:
    master_kf: KeypointFrame  # recalibrated, master object frame
    slave_kf: KeypointFrame  # unchanged, slave object frame
    slave_pose: Pose  # collision-free slave pose in the master object frame
    penetration: float
    frame_distance: float


def refine_transferred_keypoints(
    master_kf: KeypointFrame,
    slave_kf: KeypointFrame,
    master: ShapeModel,
    slave: ShapeModel,
    search: NeighborhoodSearch = NeighborhoodSearch(),
) -> RefinedKeypoints:
    """Align transferred keypoint frames at a collision-free configuration.

    Works in the master object frame. Starting from the slave pose that makes
    the two keypoint frames coincide, a shrinking neighborhood search looks
    for the collision-free configuration minimizing the frame distance
    (translation plus weighted rotation geodesic). The master keypoint frame
    is then recalibrated to coincide with the slave keypoint frame at the
    found configuration. Raises NoCollisionFreePoseError (carrying the best
    found) when the budget is exhausted without a feasible sample.
    """
    master_pose = Pose.identity()
    target = master_kf.as_pose()
    start = target.compose(slave_kf.as_pose().inverse())

    rng = np.random.default_rng(search.seed)
    best_feasible: tuple[float, Pose] | None = None
    best_any: tuple[float, Pose] = (np.inf, start)

    center = start
    radius_t, radius_r = search.radius_t, search.radius_r
    for _ in range(search.rounds):
        quats, trans = _sample_neighborhood(center, radius_t, radius_r, rng, search.samples)
        depth = _batch_penetration(quats, trans, master, master_pose, slave, search)
        kf_quats = quat_multiply(quats, slave_kf.as_pose().q)
        rot = quat_to_matrix(quats)
        kf_trans = np.einsum("kij,j->ki", rot, slave_kf.origin) + trans
        fdist = _pose_distance(kf_quats, kf_trans, target, search.rot_weight)

        if depth.min() < best_any[0]:
            j = int(np.argmin(depth))
            best_any = (float(depth[j]), Pose(quats[j], trans[j]))
        feasible = depth <= search.pen_tol
        if feasible.any():
            idx = np.nonzero(feasible)[0]
            j = int(idx[np.argmin(fdist[idx])])
            cand = (float(fdist[j]), Pose(quats[j], trans[j]))
            if best_feasible is None or cand[0] < best_feasible[0]:
                best_feasible = cand
                center = cand[1]
        radius_t *= 0.5
        radius_r *= 0.5

    if best_feasible is None:
        raise NoCollisionFreePoseError(
            "no collision-free configuration within the search budget",
            best=best_any[1],
        )
    slave_pose = best_feasible[1]
    aligned_world = slave_pose.compose(slave_kf.as_pose())
    new_master_kf = KeypointFrame.from_pose(
        aligned_world, owner=master_kf.owner, role="master"
    )
    # penetration at the selected configuration, re-scored for the record
    q = slave_pose.q[None, :]
    t = slave_pose.t[None, :]
    pen = float(_batch_penetration(q, t, master, master_pose, slave, search)[0])
    return RefinedKeypoints(
        master_kf=new_master_kf,
        slave_kf=slave_kf,
        slave_pose=slave_pose,
        penetration=pen,
        frame_distance=best_feasible[0],
    )
