import numpy as np
import pytest

from keycontact.errors import DegenerateInputError, NoCollisionFreePoseError
from keycontact.geometry import Pose, penetration_depth, union_aabb_volume
from keycontact.geometry.pose import quat_from_rotvec
from keycontact.keypoints import KeypointFrame
from keycontact.refiner import NeighborhoodSearch, refine_grounded_trajectory, refine_transferred_keypoints
from keycontact.refiner.collision import _pose_distance
from keycontact.sim import make_peg_hole_scene

# small budgets keep each search to a few thousand SDF queries
SEARCH = NeighborhoodSearch(radius_t=0.002, radius_r=0.05, samples=32, rounds=3, pen_samples=100)


@pytest.fixture(scope="module")
def scene():
    # round peg of radius 5 mm, hole of radius 7 mm and depth 6 mm; the master
    # block sits at the world origin with its hole mouth at z = 0
    return make_peg_hole_scene("round", 0.002, 0.006, seed=3)


def test_grounded_trajectory_never_deepens_penetration(scene):
    traj = [
        Pose(t=(0.0, 0.0, 0.01)),  # above the block
        Pose(t=(0.0, 0.0, -0.004)),  # centered in the hole
        Pose(t=(0.003, 0.0, -0.004)),  # 1 mm into the cavity wall
        Pose.from_rotvec((0.0, 0.2, 0.0), (0.0, 0.0, -0.003)),  # tilted into the wall
    ]
    out = refine_grounded_trajectory(traj, scene.master_shape, scene.master_true, scene.slave_shape, SEARCH)
    assert len(out.poses) == len(traj)
    assert (out.penetration_after <= out.penetration_before).all()
    assert out.penetration_before[2] > 5e-4  # the wall case does start in collision
    assert out.penetration_after[2] < out.penetration_before[2]


def test_grounded_trajectory_contact_index_minimizes_union_box(scene):
    traj = [Pose(t=(0.0, 0.0, z)) for z in (0.03, 0.015, 0.0, -0.004, 0.02)]
    out = refine_grounded_trajectory(traj, scene.master_shape, scene.master_true, scene.slave_shape, SEARCH)
    volumes = [union_aabb_volume(scene.master_shape, scene.master_true, scene.slave_shape, p) for p in out.poses]
    assert out.contact_index == int(np.argmin(volumes))
    assert out.contact_index == 3  # the deepest insertion


def test_transferred_keypoints_feasible_start_stays_collision_free(scene):
    # master keypoint 3 mm down the hole: the peg starts inside it with clearance
    master_kf = KeypointFrame.from_pose(
        Pose(scene.master_kf.as_pose().q, (0.0, 0.0, -0.003)), owner="hole_block", role="master"
    )
    out = refine_transferred_keypoints(master_kf, scene.slave_kf, scene.master_shape, scene.slave_shape, SEARCH)
    assert out.penetration <= SEARCH.pen_tol
    assert out.frame_distance < 0.002
    assert out.slave_kf is scene.slave_kf
    # the recalibrated master frame coincides with the slave frame at the found pose
    aligned = out.slave_pose.compose(scene.slave_kf.as_pose())
    assert out.master_kf.as_pose().is_close(aligned, 1e-9, 1e-9)
    moved = penetration_depth(scene.master_shape, Pose.identity(), scene.slave_shape, out.slave_pose)
    assert moved <= SEARCH.pen_tol + scene.master_shape.grid.cell_diagonal


def test_transferred_keypoints_infeasible_start_raises_with_best_pose(scene):
    # peg bottom 10 mm inside the solid block wall, far beyond the search radius
    master_kf = KeypointFrame.from_pose(
        Pose(scene.master_kf.as_pose().q, (0.015, 0.0, -0.01)), owner="hole_block", role="master"
    )
    with pytest.raises(NoCollisionFreePoseError) as info:
        refine_transferred_keypoints(master_kf, scene.slave_kf, scene.master_shape, scene.slave_shape, SEARCH)
    assert isinstance(info.value.best, Pose)


@pytest.mark.parametrize("angle", [1e-9, 1e-6])
def test_pose_distance_resolves_small_rotations(angle):
    # 2 arccos|q . q'| read 1e-9 rad as 0 and 1e-6 rad as 1.0000444e-6
    quats = quat_from_rotvec(np.array([[angle, 0.0, 0.0], [0.0, 0.0, -angle]]))
    got = _pose_distance(quats, np.zeros((2, 3)), Pose.identity(), rot_weight=1.0)
    assert got == pytest.approx([angle, angle], rel=1e-12)


@pytest.mark.parametrize("moved", ["master", "slave"])
def test_penetration_depth_rejects_a_nan_translation(scene, moved):
    # max(0.0, nan) is 0.0, which would read as "no penetration"
    poses = {"master": Pose.identity(), "slave": Pose.identity(), moved: Pose(t=(np.nan, 0.0, 0.0))}
    with pytest.raises(DegenerateInputError, match="finite"):
        penetration_depth(scene.master_shape, poses["master"], scene.slave_shape, poses["slave"])
