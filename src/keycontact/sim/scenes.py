"""Synthetic peg-in-hole scenes with analytic ground truth.

The master is a block with a prismatic cavity; the slave a matching extruded
peg. Object frames: the master's hole mouth center sits at its origin with
the block top at z = 0 and the cavity extending to z = -depth; the peg's
bottom face center is the slave origin with the shaft along +z. Both keypoint
frames sit at those origins with z pointing down (the insertion approach) so
the ground-truth insertion waypoint is a pure z-offset in the master keypoint
frame.

All perception error is expressed in the in-hand estimate: the composite
filter state absorbs master-side error anyway, so a scene perceives the
master pose exactly (master_perceived is master_true) and perturbs only the
gripper-to-keypoint transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateInputError
from ..geometry import Pose, ShapeModel, TriangleMesh, penetration_depth
from ..geometry.pose import quat_from_rotvec
from ..keypoints import KeypointFrame
from ..refiner.filter import end_effector_target

__all__ = [
    "PROFILES",
    "profile_polygon",
    "offset_polygon",
    "make_peg_hole_scene",
    "Scene",
    "SceneNoise",
]

PROFILES = ("rectangle", "round", "oval", "hexagon", "star", "triangle", "pentagon")

# downward-z keypoint orientation shared by both frames
_KF_ROT = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])

PEG_SIZE = 0.005  # m, nominal circumradius of the peg profile
INSERT_MARGIN = 0.002  # m the insertion waypoint stops short of the cavity floor
BLOCK_MARGIN = 0.025  # m of block wall around the hole
FLOOR = 0.020  # m of block below the cavity
GRIP_EXTRA = 0.012  # m of peg above the hole mouth at full depth
INSERTION_PEN_TOL = 2e-4  # m of sampled interpenetration a successful insertion may show


def _regular_polygon(n: int, radius: float) -> np.ndarray:
    th = 2.0 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(th), np.sin(th)])


def profile_polygon(profile: str, size: float) -> np.ndarray:
    """CCW cross-section polygon; size is the nominal circumradius (m)."""
    if profile == "rectangle":
        w, h = 0.9 * size, 0.65 * size
        return np.array([[w, -h], [w, h], [-w, h], [-w, -h]], dtype=float)
    if profile == "round":
        return _regular_polygon(48, size)
    if profile == "oval":
        th = 2.0 * np.pi * np.arange(48) / 48
        return np.column_stack([size * np.cos(th), 0.65 * size * np.sin(th)])
    if profile == "hexagon":
        return _regular_polygon(6, size)
    if profile == "star":
        th = 2.0 * np.pi * np.arange(10) / 10 + np.pi / 2
        r = np.where(np.arange(10) % 2 == 0, size, 0.5 * size)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])
    if profile == "triangle":
        return _regular_polygon(3, size)
    if profile == "pentagon":
        return _regular_polygon(5, size)
    raise ConfigError({"profile": f"unsupported {profile!r} (choose from {PROFILES})"})


def offset_polygon(poly: np.ndarray, c: float) -> np.ndarray:
    """Miter-offset a CCW polygon outward by c along its edge normals."""
    n = len(poly)
    out = np.empty_like(poly)
    for i in range(n):
        p_prev, p, p_next = poly[i - 1], poly[i], poly[(i + 1) % n]
        e1 = p - p_prev
        e2 = p_next - p
        n1 = np.array([e1[1], -e1[0]]) / np.linalg.norm(e1)
        n2 = np.array([e2[1], -e2[0]]) / np.linalg.norm(e2)
        denom = 1.0 + float(n1 @ n2)
        if abs(denom) < 1e-9:
            raise DegenerateInputError("degenerate polygon corner during offsetting")
        out[i] = p + c * (n1 + n2) / denom
    return out


def _angles(poly: np.ndarray) -> np.ndarray:
    return np.mod(np.arctan2(poly[:, 1], poly[:, 0]), 2.0 * np.pi)


def _annulus_triangles(outer: np.ndarray, inner: np.ndarray, n_outer_offset: int):
    """Triangulate the ring between two origin-star-shaped CCW polygons.

    Vertex index convention of the caller: outer ring vertices first (offset
    n_outer_offset), inner ring after them. Produces CCW triangles viewed
    from +z.
    """
    ao = _angles(outer)
    ai = _angles(inner)
    so = np.argsort(ao, kind="stable")
    si = np.argsort(ai, kind="stable")
    no, ni = len(outer), len(inner)

    def unrolled_o(k):  # angle of the k-th advance position on the outer ring
        return ao[so[k % no]] + 2.0 * np.pi * (k // no)

    def unrolled_i(k):
        return ai[si[k % ni]] + 2.0 * np.pi * (k // ni)

    tris = []
    i = j = 0
    while i + j < no + ni:
        curr_o = n_outer_offset + so[i % no]
        curr_i = no + n_outer_offset + si[j % ni]
        advance_outer = i < no and (j >= ni or unrolled_o(i + 1) <= unrolled_i(j + 1))
        if advance_outer:
            tris.append((curr_o, n_outer_offset + so[(i + 1) % no], curr_i))
            i += 1
        else:
            tris.append((curr_o, no + n_outer_offset + si[(j + 1) % ni], curr_i))
            j += 1
    return tris


def _block_with_cavity(
    outer: np.ndarray, inner: np.ndarray, depth: float, floor: float
) -> TriangleMesh:
    """Watertight block: top at z=0, cavity to -depth, base to -(depth+floor)."""
    no, ni = len(outer), len(inner)
    z_top, z_cav, z_bot = 0.0, -depth, -(depth + floor)
    verts = []
    verts += [[x, y, z_top] for x, y in outer]          # 0 .. no-1
    verts += [[x, y, z_top] for x, y in inner]          # no .. no+ni-1
    verts += [[x, y, z_cav] for x, y in inner]          # cavity bottom ring
    verts += [[x, y, z_bot] for x, y in outer]          # outer bottom ring
    inner_c = inner.mean(axis=0)
    outer_c = outer.mean(axis=0)
    verts.append([inner_c[0], inner_c[1], z_cav])       # cavity floor center
    verts.append([outer_c[0], outer_c[1], z_bot])       # base center
    verts = np.array(verts, dtype=float)
    i_inner_top = no
    i_inner_bot = no + ni
    i_outer_bot = no + 2 * ni
    i_cav_c = no + 2 * ni + no
    i_base_c = i_cav_c + 1

    faces = list(_annulus_triangles(outer, inner, 0))
    for i in range(ni):
        j = (i + 1) % ni
        # cavity wall: solid is outside the inner polygon, normals face the axis
        faces.append((i_inner_top + i, i_inner_bot + j, i_inner_bot + i))
        faces.append((i_inner_top + i, i_inner_top + j, i_inner_bot + j))
        # cavity floor, normal +z
        faces.append((i_cav_c, i_inner_bot + i, i_inner_bot + j))
    for i in range(no):
        j = (i + 1) % no
        # outer walls, outward normals
        faces.append((i, i_outer_bot + i, i_outer_bot + j))
        faces.append((i, i_outer_bot + j, j))
        # base, normal -z
        faces.append((i_base_c, i_outer_bot + j, i_outer_bot + i))
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


@dataclass(frozen=True)
class SceneNoise:
    """In-hand perception-noise scales applied when a scene is generated.

    Each sigma must be >= 0 (not NaN), else ConfigError names it; 0 means no noise.
    """

    in_hand_sigma_t: float = 0.005  # m
    in_hand_sigma_r: float = np.deg2rad(5.0)  # rad

    def __post_init__(self):
        fails = {name: "must be >= 0" for name in ("in_hand_sigma_t", "in_hand_sigma_r")
                 if not getattr(self, name) >= 0}
        if fails:
            raise ConfigError(fails)


@dataclass(frozen=True)
class Scene:
    """Ground truth + perceived state of one insertion setup.

    insertion_verdict is the one judge of an in-hand estimate: the campaign
    and `keycontact refine` both score vision and refined estimates with it.
    """

    clearance: float
    master_shape: ShapeModel
    slave_shape: ShapeModel
    master_true: Pose  # master object pose, world
    z_true: Pose  # gripper -> slave keypoint, true
    master_perceived: Pose
    z_perceived: Pose
    master_kf: KeypointFrame
    slave_kf: KeypointFrame
    insertion_waypoint: Pose  # slave kf in the master kf frame at full depth

    def slave_object_pose(self, gripper: Pose, z: Pose) -> Pose:
        """World slave object pose implied by a gripper pose and in-hand state."""
        return gripper.compose(z).compose(self.slave_kf.as_pose().inverse())

    def insertion_verdict(self, z_estimate: Pose) -> tuple[float, float, float, bool]:
        """(lateral, depth, rotation, success) of the insertion commanded with z_estimate.

        The gripper command is computed once, against the perceived master,
        and executed with the true in-hand pose. The errors compare the slave
        keypoint frame it reaches with the insertion waypoint at the true
        master. Success: the lateral error is within the clearance and, only
        then sampled, the interpenetration at the commanded full-depth pose is
        at most INSERTION_PEN_TOL.
        """
        kf = self.master_kf.as_pose()
        g = end_effector_target(self.master_perceived.compose(kf), self.insertion_waypoint, z_estimate)
        target_kf = self.master_true.compose(kf).compose(self.insertion_waypoint)
        err = target_kf.inverse().compose(g.compose(self.z_true))
        lateral = float(np.hypot(err.t[0], err.t[1]))
        success = lateral <= self.clearance and penetration_depth(
            self.master_shape, self.master_true, self.slave_shape, self.slave_object_pose(g, self.z_true)
        ) <= INSERTION_PEN_TOL
        return lateral, float(abs(err.t[2])), float(err.rotation_angle_to(Pose.identity())), success


def _noise_pose(rng, sigma_t: float, sigma_r: float) -> Pose:
    t = rng.normal(0.0, sigma_t, 3) if sigma_t > 0 else np.zeros(3)
    if sigma_r > 0:
        q = quat_from_rotvec(rng.normal(0.0, sigma_r, 3))
    else:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    return Pose(q, t)


def make_peg_hole_scene(
    profile: str,
    clearance: float,
    depth: float,
    seed: int,
    noise: SceneNoise = SceneNoise(),
) -> Scene:
    """Build a peg + cavity-block scene with in-hand perception noise.

    The master block sits at the world origin. The hole cross-section is the
    peg profile offset outward by the clearance (round profiles scale the
    vertex radius exactly, so hole radius equals peg radius + clearance by
    construction).
    """
    fails = {}
    if profile not in PROFILES:
        fails["profile"] = f"unsupported {profile!r} (choose from {PROFILES})"
    if not clearance >= 0:
        fails["clearance"] = "must be >= 0"
    if not depth > INSERT_MARGIN:
        fails["depth"] = f"must exceed the insertion margin {INSERT_MARGIN} m"
    if fails:
        raise ConfigError(fails)
    peg_length = depth + GRIP_EXTRA
    master_shape, slave_shape = _shapes_cached(profile, clearance, depth)

    master_kf = KeypointFrame(
        np.zeros(3), _KF_ROT[:, 0], _KF_ROT[:, 1], _KF_ROT[:, 2], owner="hole_block", role="master"
    )
    slave_kf = KeypointFrame(
        np.zeros(3), _KF_ROT[:, 0], _KF_ROT[:, 1], _KF_ROT[:, 2], owner="peg", role="slave"
    )

    z_true = Pose.from_rotation(_KF_ROT, (0.0, 0.0, -peg_length))

    master_true = Pose.identity()
    z_noise = _noise_pose(np.random.default_rng(seed), noise.in_hand_sigma_t, noise.in_hand_sigma_r)

    return Scene(
        clearance=float(clearance),
        master_shape=master_shape,
        slave_shape=slave_shape,
        master_true=master_true,
        z_true=z_true,
        master_perceived=master_true,
        z_perceived=z_true.compose(z_noise),
        master_kf=master_kf,
        slave_kf=slave_kf,
        insertion_waypoint=Pose(t=(0.0, 0.0, depth - INSERT_MARGIN)),
    )


# scene geometry is identical across trials that differ only in noise draws,
# so built shape models are memoized per (profile, clearance, depth)
_SHAPE_CACHE: dict[tuple, tuple[ShapeModel, ShapeModel]] = {}


def _shapes_cached(profile, clearance, depth):
    key = (profile, round(clearance, 9), round(depth, 9))
    if key not in _SHAPE_CACHE:
        from ..geometry.primitives import prism_mesh

        peg_poly = profile_polygon(profile, PEG_SIZE)
        if profile == "round":
            hole_poly = _regular_polygon(48, PEG_SIZE + clearance)
        else:
            hole_poly = offset_polygon(peg_poly, clearance)
        peg_mesh = prism_mesh(peg_poly, 0.0, depth + GRIP_EXTRA)
        half = float(np.abs(hole_poly).max()) + BLOCK_MARGIN
        outer = np.array([[half, -half], [half, half], [-half, half], [-half, -half]])
        block_mesh = _block_with_cavity(outer, hole_poly, depth, FLOOR)
        _SHAPE_CACHE[key] = (ShapeModel(block_mesh), ShapeModel(peg_mesh))
    return _SHAPE_CACHE[key]
