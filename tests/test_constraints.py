import numpy as np
import pytest

from keycontact.constraints import GraspRegion, _deviation_rotvec, build_grasp_region, group_grasps_fallback
from keycontact.errors import ConfigError, DegenerateInputError
from keycontact.geometry import Obb, Pose
from keycontact.keypoints import KeypointFrame


def frame_at(rng=None, origin=(0, 0, 0), rotvec=(0, 0, 0)):
    return KeypointFrame.from_pose(
        Pose.from_rotvec(np.asarray(rotvec, float), origin), owner="obj", role="master"
    )


ANCHOR = Obb(np.zeros(3), np.array([0.1, 0.15, 0.025]), np.array([1.0, 0, 0, 0]))


# --- grasp regions -------------------------------------------------------------

def region_contains(region, frame, tol=1e-9):
    """frame's origin within the box, and its rotation within the angular limits, both to tol."""
    o = frame.origin
    inside = (o >= region.position_min - tol).all() and (o <= region.position_max + tol).all()
    dev = _deviation_rotvec(region.mean_rotation, frame)
    return bool(inside and (np.abs(dev) <= region.angular_limits + tol).all())


def test_single_frame_zero_width_region():
    f = frame_at(origin=(0.01, 0.02, 0.03), rotvec=(0.1, 0, 0))
    region = build_grasp_region([f], ANCHOR)
    assert np.allclose(region.position_min, region.position_max)
    assert np.allclose(region.position_min, f.origin)
    assert np.allclose(region.angular_limits, 0, atol=1e-9)
    assert region_contains(region, f)


def test_two_frames_x_bounds():
    f1 = frame_at(origin=(0.01, 0, 0))
    f2 = frame_at(origin=(0.03, 0, 0))
    region = build_grasp_region([f1, f2], ANCHOR)
    assert region.position_min[0] == pytest.approx(0.01)
    assert region.position_max[0] == pytest.approx(0.03)
    assert np.allclose(region.position_min[1:], 0)
    assert np.allclose(region.position_max[1:], 0)


def test_region_contains_every_member():
    rng = np.random.default_rng(0)
    frames = [
        frame_at(origin=rng.uniform(-0.05, 0.05, 3), rotvec=rng.uniform(-0.4, 0.4, 3))
        for _ in range(10)
    ]
    region = build_grasp_region(frames, ANCHOR)
    for f in frames:
        assert region_contains(region, f)


def test_region_json_roundtrip():
    rng = np.random.default_rng(1)
    frames = [frame_at(origin=rng.uniform(-0.02, 0.02, 3)) for _ in range(4)]
    region = build_grasp_region(frames, ANCHOR, group_label="g0")
    back = GraspRegion.from_json(region.to_json())
    assert np.allclose(back.position_min, region.position_min)
    assert np.allclose(back.mean_rotation, region.mean_rotation)
    assert back.group_label == "g0"


# --- fallback grouping ----------------------------------------------------------

def connected_components_oracle(frames, pos_eps, ang_eps):
    n = len(frames)
    quats = [f.as_pose().q for f in frames]
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            dp = np.linalg.norm(frames[i].origin - frames[j].origin)
            da = 2 * np.arccos(min(1.0, abs(float(np.dot(quats[i], quats[j])))))
            adj[i, j] = max(dp / pos_eps, da / ang_eps) <= 1
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], []
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            comp.append(k)
            stack.extend(j for j in range(n) if adj[k, j] and j not in seen)
        comps.append(sorted(comp))
    return sorted(comps)


def test_grouping_identical_frames_one_group():
    frames = [frame_at(origin=(0.01, 0, 0))] * 5
    groups = group_grasps_fallback(frames, 0.02, 0.1)
    assert len(groups) == 1 and len(groups[0]) == 5


def test_grouping_two_position_clusters():
    rng = np.random.default_rng(2)
    a = [frame_at(origin=rng.normal(scale=0.003, size=3)) for _ in range(5)]
    b = [frame_at(origin=np.array([0.1, 0, 0]) + rng.normal(scale=0.003, size=3)) for _ in range(5)]
    frames = a + b
    groups = group_grasps_fallback(frames, 0.02, 0.5)
    assert len(groups) == 2
    want = connected_components_oracle(frames, 0.02, 0.5)
    ident = [id(f) for f in frames]
    got = sorted(sorted(ident.index(id(f)) for f in g) for g in groups)
    assert got == want


def test_grouping_rotation_split():
    f0 = frame_at(origin=(0.01, 0.01, 0.0), rotvec=(0, 0, 0))
    f90 = frame_at(origin=(0.01, 0.01, 0.0), rotvec=(0, 0, np.pi / 2))
    groups = group_grasps_fallback([f0, f90, f0], 0.02, np.deg2rad(10))
    assert len(groups) == 2
    assert len(groups[0]) == 2  # the two aligned frames group together


def test_grouping_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        frames = [
            frame_at(origin=rng.uniform(-0.05, 0.05, 3), rotvec=rng.uniform(-0.5, 0.5, 3))
            for _ in range(rng.integers(2, 12))
        ]
        pos_eps, ang_eps = rng.uniform(0.01, 0.05), rng.uniform(0.1, 0.6)
        groups = group_grasps_fallback(frames, pos_eps, ang_eps)
        ident = [id(f) for f in frames]
        got = sorted(sorted(ident.index(id(f)) for f in g) for g in groups)
        assert got == connected_components_oracle(frames, pos_eps, ang_eps)


def test_grouping_orders_groups_by_lowest_member_with_members_in_input_order():
    # the group order names learn_records' grasp labels and so the record ids
    rng = np.random.default_rng(4)
    for _ in range(20):
        frames = [
            frame_at(origin=rng.uniform(-0.05, 0.05, 3), rotvec=rng.uniform(-0.5, 0.5, 3))
            for _ in range(rng.integers(2, 30))
        ]
        pos_eps, ang_eps = rng.uniform(0.01, 0.05), rng.uniform(0.1, 0.6)
        groups = group_grasps_fallback(frames, pos_eps, ang_eps)
        ident = [id(f) for f in frames]
        got = [[ident.index(id(f)) for f in g] for g in groups]
        assert got == connected_components_oracle(frames, pos_eps, ang_eps)


# --- typed failures -----------------------------------------------------------

def test_region_with_inverted_position_bounds_names_the_field():
    with pytest.raises(ConfigError) as ei:
        GraspRegion(np.array([0.02, 0, 0]), np.zeros(3), np.array([1.0, 0, 0, 0]), np.zeros(3), ANCHOR, "g")
    assert set(ei.value.failures) == {"position_min"}


@pytest.mark.parametrize("limit", [-0.1, np.pi + 0.1], ids=["negative", "above_pi"])
def test_region_with_angular_limit_outside_0_pi_names_the_field(limit):
    with pytest.raises(ConfigError) as ei:
        GraspRegion(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0]), np.array([0.0, limit, 0.0]), ANCHOR, "g")
    assert set(ei.value.failures) == {"angular_limits"}


def test_region_from_empty_group_is_degenerate():
    with pytest.raises(DegenerateInputError):
        build_grasp_region([], ANCHOR)


@pytest.mark.parametrize("pos_eps, ang_eps, bad", [(0.0, 0.1, {"pos_eps"}), (0.02, -1.0, {"ang_eps"}),
                                                   (-0.02, 0.0, {"pos_eps", "ang_eps"})],
                         ids=["pos_eps", "ang_eps", "both"])
def test_grouping_with_non_positive_eps_names_every_field(pos_eps, ang_eps, bad):
    with pytest.raises(ConfigError) as ei:
        group_grasps_fallback([frame_at()], pos_eps, ang_eps)
    assert set(ei.value.failures) == bad
