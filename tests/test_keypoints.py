import numpy as np
import pytest

from keycontact.errors import ConfigError, DegenerateInputError, KeycontactError
from keycontact.geometry import PointCloud, Pose
from keycontact.keypoints import (
    PERP_BAND,
    KeypointFrame,
    WaypointPath,
    compress_squishe,
    extract_master_keypoint,
    extract_slave_keypoint,
    relative_waypoint_path,
)


def random_pose(rng, scale=1.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose.from_rotvec(rng.uniform(0, np.pi) * axis, rng.uniform(-scale, scale, 3))


# --- keypoint frame type ------------------------------------------------------

def test_frame_axis_convention_y_equals_z_cross_x():
    f = KeypointFrame.from_axes(
        np.zeros(3), x_axis=(1, 0, 0), z_axis=(0, 0, -1), owner="o", role="slave"
    )
    assert np.allclose(f.y_axis, np.cross(f.z_axis, f.x_axis), atol=1e-12)
    with pytest.raises(ValueError):
        KeypointFrame(np.zeros(3), (1, 0, 0), (0, 1, 0), (0, 0, -1), "o", "slave")


def test_frame_pose_roundtrip():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    f = KeypointFrame.from_pose(p, "obj", "master")
    assert f.as_pose().translation_distance_to(p) <= 1e-12 and f.as_pose().rotation_angle_to(p) <= 1e-9


def test_frame_json_roundtrip():
    f = KeypointFrame.from_axes(np.array([0.1, 0.2, 0.3]), (0, 1, 0), (0, 0, 1), "peg", "slave")
    back = KeypointFrame.from_json(f.to_json())
    assert np.allclose(back.origin, f.origin)
    assert np.allclose(back.x_axis, f.x_axis)
    assert back.owner == "peg" and back.role == "slave"


# --- slave keypoint extraction -------------------------------------------------

def descending_cube_scene(n_side=6):
    """Unit-ish cube sliding down -z onto a plane; returns world clouds + history."""
    side = np.linspace(-0.05, 0.05, n_side)
    gx, gy, gz = np.meshgrid(side, side, side, indexing="ij")
    cube_local = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    px, py = np.meshgrid(np.linspace(-0.2, 0.2, 12), np.linspace(-0.2, 0.2, 12), indexing="ij")
    plane = np.column_stack([px.ravel(), py.ravel(), np.zeros(px.size)])
    # descend from z=0.2 to z=0.055 (just above contact)
    ts = np.linspace(0.0, 1.0, 11)
    poses = [Pose(t=(0.0, 0.0, 0.2 - 0.145 * u)) for u in ts]
    slave_cloud = PointCloud(poses[-1].apply(cube_local))
    return cube_local, slave_cloud, PointCloud(plane), poses, ts


def test_slave_keypoint_descending_cube():
    cube_local, slave_cloud, plane_cloud, poses, ts = descending_cube_scene()
    kf = extract_slave_keypoint(slave_cloud, plane_cloud, poses, len(ts) - 1, ts, delta_t=0.2)
    # motion is straight down: z axis = (0,0,-1) in world = object frame here
    assert np.allclose(kf.z_axis, [0, 0, -1], atol=1e-9)
    # the contact point lies on the cube's bottom face
    assert kf.origin[2] == pytest.approx(cube_local[:, 2].min(), abs=1e-12)
    # brute-force argmin oracle over all point pairs
    sp, mp = slave_cloud.points, plane_cloud.points
    d = np.linalg.norm(sp[:, None, :] - mp[None, :, :], axis=2).min(axis=1)
    ci = int(np.argmin(d))
    want_origin = poses[-1].inverse().apply(sp[ci])
    assert np.allclose(kf.origin, want_origin, atol=1e-9)


def test_slave_keypoint_pure_translation_direction_exact():
    cube_local, slave_cloud, plane_cloud, poses, ts = descending_cube_scene()
    # replace history with a diagonal translation
    direction = np.array([1.0, 2.0, -2.0])
    direction /= np.linalg.norm(direction)
    poses = [Pose(t=(0.1 * u) * direction) for u in np.linspace(-1, 0, 6)]
    ts = np.linspace(0, 1, 6)
    cloud = PointCloud(poses[-1].apply(cube_local))
    kf = extract_slave_keypoint(cloud, plane_cloud, poses, 5, ts, delta_t=0.3)
    assert np.allclose(kf.z_axis, direction, atol=1e-9)


def brute_force_slave_oracle(slave_pts, master_pts, z_axis, band=PERP_BAND):
    """Exhaustive argmin/argmax reference for c_s and the x-axis seed point."""
    d = np.linalg.norm(slave_pts[:, None, :] - master_pts[None, :, :], axis=2).min(axis=1)
    ci = int(np.argmin(d))
    c = slave_pts[ci]
    rel = slave_pts - c
    dist = np.linalg.norm(rel, axis=1)
    with np.errstate(invalid="ignore"):
        cos = np.where(dist > 1e-9, rel @ z_axis / np.where(dist > 0, dist, 1), 1.0)
    ok = (np.abs(cos) <= band) & (dist > 1e-9)
    cands = np.nonzero(ok)[0]
    xi = None
    if len(cands):
        xi = int(cands[np.argmax(dist[cands])])
    return ci, xi


def test_slave_keypoint_matches_brute_force_on_random_scenes():
    # acceptance-criterion-4 shape at module scale
    rng = np.random.default_rng(21)
    for trial in range(30):
        n_s = rng.integers(20, 500)
        n_m = rng.integers(20, 200)
        slave_local = rng.normal(scale=0.04, size=(n_s, 3))
        master_world = rng.normal(scale=0.04, size=(n_m, 3)) + np.array([0, 0, -0.15])
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        poses = [Pose(t=-0.1 * direction * (1 - u)) for u in np.linspace(0, 1, 5)]
        ts = np.linspace(0, 1, 5)
        slave_world = PointCloud(poses[-1].apply(slave_local))
        try:
            kf = extract_slave_keypoint(
                slave_world, PointCloud(master_world), poses, 4, ts, delta_t=0.3
            )
        except DegenerateInputError:
            # legal only when even the relaxed band holds no candidate point
            _, xi_relaxed = brute_force_slave_oracle(
                slave_world.points, master_world, direction, band=0.2
            )
            assert xi_relaxed is None
            continue
        ci, xi = brute_force_slave_oracle(slave_world.points, master_world, direction)
        want_c = poses[-1].inverse().apply(slave_world.points[ci])
        assert np.allclose(kf.origin, want_c, atol=1e-9)
        assert np.allclose(kf.z_axis, direction, atol=1e-6)
        if xi is not None:
            rel = slave_world.points[xi] - slave_world.points[ci]
            v = rel - (rel @ direction) * direction
            v /= np.linalg.norm(v)
            assert np.allclose(kf.x_axis, v, atol=1e-6)
        # orthogonality within the band-projection tolerance
        assert abs(kf.x_axis @ kf.z_axis) < 1e-6
        assert np.allclose(np.cross(kf.z_axis, kf.x_axis), kf.y_axis, atol=1e-9)


def test_slave_keypoint_tie_break_stable_on_symmetric_cloud():
    # ring of equidistant maximizers: lowest index must win, repeatably
    n = 16
    ang = 2 * np.pi * np.arange(n) / n
    ring = np.column_stack([0.05 * np.cos(ang), 0.05 * np.sin(ang), np.zeros(n)])
    pts = np.vstack([[[0, 0, -0.001]], ring])  # lowest point is the contact
    master = PointCloud(np.array([[0.0, 0.0, -0.1]]))
    poses = [Pose(t=(0, 0, 0.05)), Pose(t=(0, 0, 0.0))]
    ts = np.array([0.0, 1.0])
    runs = [
        extract_slave_keypoint(PointCloud(pts), master, poses, 1, ts, delta_t=0.5)
        for _ in range(3)
    ]
    for r in runs[1:]:
        assert np.allclose(r.x_axis, runs[0].x_axis, atol=0)
    # the returned maximizer is one of the ring points
    d = np.linalg.norm(ring - runs[0].origin, axis=1)
    assert np.isclose(d.max(), d.min(), atol=1e-9)


def test_slave_keypoint_zero_motion_rejected():
    cube_local, slave_cloud, plane_cloud, _, ts = descending_cube_scene()
    static = [Pose(t=(0, 0, 0.055))] * 11
    with pytest.raises(DegenerateInputError):
        extract_slave_keypoint(slave_cloud, plane_cloud, static, 10, np.linspace(0, 1, 11))


# --- master keypoint ----------------------------------------------------------

def test_master_keypoint_exact_contact_point():
    kf_s = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, -1), "peg", "slave")
    slave_pose = Pose(t=(0.0, 0.0, 0.1))
    master_pose = Pose.identity()
    master_cloud = PointCloud(np.array([[0.0, 0.0, 0.1], [1.0, 0.0, 0.0]]))
    kf_m = extract_master_keypoint(master_cloud, kf_s, slave_pose, master_pose)
    assert np.allclose(kf_m.origin, [0, 0, 0.1], atol=1e-12)


def test_master_keypoint_axes_align_in_world():
    rng = np.random.default_rng(3)
    kf_s = KeypointFrame.from_pose(random_pose(rng, 0.05), "peg", "slave")
    slave_pose, master_pose = random_pose(rng), random_pose(rng)
    cloud = PointCloud(rng.normal(scale=0.2, size=(50, 3)))
    kf_m = extract_master_keypoint(cloud, kf_s, slave_pose, master_pose)
    ws = slave_pose.compose(kf_s.as_pose()).rotation_matrix()
    wm = master_pose.compose(kf_m.as_pose()).rotation_matrix()
    assert np.allclose(ws, wm, atol=1e-9)


def test_master_keypoint_matches_exhaustive_scan():
    rng = np.random.default_rng(4)
    kf_s = KeypointFrame.from_pose(random_pose(rng, 0.05), "peg", "slave")
    slave_pose, master_pose = random_pose(rng), random_pose(rng)
    cloud = PointCloud(rng.normal(scale=0.3, size=(200, 3)))
    kf_m = extract_master_keypoint(cloud, kf_s, slave_pose, master_pose)
    target = slave_pose.compose(kf_s.as_pose()).t
    want = cloud.points[int(np.argmin(np.linalg.norm(cloud.points - target, axis=1)))]
    assert np.allclose(master_pose.apply(kf_m.origin), want, atol=1e-9)


# --- relative waypoint paths ----------------------------------------------------

def test_relative_path_static_scene_constant():
    rng = np.random.default_rng(5)
    kf_s = KeypointFrame.from_pose(random_pose(rng, 0.02), "peg", "slave")
    kf_m = KeypointFrame.from_pose(random_pose(rng, 0.02), "hole", "master")
    sp, mp = random_pose(rng), random_pose(rng)
    path = relative_waypoint_path(kf_s, kf_m, [sp] * 4, [mp] * 4, np.arange(4.0))
    for w in path.waypoints[1:]:
        assert w.translation_distance_to(path.waypoints[0]) <= 1e-12
        assert w.rotation_angle_to(path.waypoints[0]) <= 1e-9


def test_relative_path_world_motion_invariance():
    rng = np.random.default_rng(6)
    kf_s = KeypointFrame.from_pose(random_pose(rng, 0.02), "peg", "slave")
    kf_m = KeypointFrame.from_pose(random_pose(rng, 0.02), "hole", "master")
    slave_poses = [random_pose(rng) for _ in range(5)]
    master_poses = [random_pose(rng) for _ in range(5)]
    ts = np.arange(5.0)
    base = relative_waypoint_path(kf_s, kf_m, slave_poses, master_poses, ts)
    world = random_pose(rng)
    moved = relative_waypoint_path(
        kf_s,
        kf_m,
        [world.compose(p) for p in slave_poses],
        [world.compose(p) for p in master_poses],
        ts,
    )
    for a, b in zip(base.waypoints, moved.waypoints):
        assert a.translation_distance_to(b) < 1e-9
        assert a.rotation_angle_to(b) < 1e-9


def test_relative_path_recovers_analytic_helix():
    # slave keypoint travels a helix in the master keypoint frame
    kf_s = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, 1), "peg", "slave")
    kf_m = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, 1), "hole", "master")
    ts = np.linspace(0, 1, 20)
    r, pitch = 0.05, 0.02
    master_pose = Pose.identity()
    slave_poses = [
        Pose(t=(r * np.cos(2 * np.pi * u), r * np.sin(2 * np.pi * u), pitch * u))
        for u in ts
    ]
    path = relative_waypoint_path(kf_s, kf_m, slave_poses, [master_pose] * len(ts), ts)
    for u, w in zip(ts, path.waypoints):
        want = np.array([r * np.cos(2 * np.pi * u), r * np.sin(2 * np.pi * u), pitch * u])
        assert np.allclose(w.t, want, atol=1e-9)


# --- SQUISH-E -------------------------------------------------------------------

def path_from_positions(pos, ts=None):
    pos = np.asarray(pos, dtype=float)
    ts = np.arange(len(pos), dtype=float) if ts is None else np.asarray(ts, float)
    return WaypointPath(tuple(Pose(t=p) for p in pos), ts)


def sed_errors_vs_subsequence(path, kept_idx):
    """Recompute every dropped waypoint's SED against the retained subsequence."""
    pos = path.positions()
    ts = path.timestamps
    kept = sorted(kept_idx)
    out = {}
    for i in range(len(path)):
        if i in kept_idx:
            continue
        a = max(k for k in kept if k < i)
        b = min(k for k in kept if k > i)
        u = (ts[i] - ts[a]) / (ts[b] - ts[a])
        proj = pos[a] + u * (pos[b] - pos[a])
        out[i] = float(np.linalg.norm(pos[i] - proj))
    return out


def test_squishe_straight_line_compresses_to_two():
    pos = np.column_stack([np.linspace(0, 1, 30), np.zeros(30), np.zeros(30)])
    out = compress_squishe(path_from_positions(pos), mu=1e-6)
    assert len(out) == 2
    assert np.allclose(out.positions()[0], pos[0])
    assert np.allclose(out.positions()[-1], pos[-1])


def test_squishe_corner_retained():
    pos = np.array([[0, 0, 0], [0.5, 0, 0], [1, 0, 0], [1, 0.5, 0], [1, 1, 0]], dtype=float)
    out = compress_squishe(path_from_positions(pos), mu=0.01)
    kept = out.positions()
    assert any(np.allclose(k, [1, 0, 0]) for k in kept)  # the corner survives


def test_squishe_output_is_subsequence_with_endpoints():
    rng = np.random.default_rng(9)
    pos = rng.normal(size=(25, 3)).cumsum(axis=0)
    path = path_from_positions(pos)
    out = compress_squishe(path, mu=0.5)
    # endpoints retained
    assert np.allclose(out.positions()[0], pos[0])
    assert np.allclose(out.positions()[-1], pos[-1])
    # subsequence: timestamps strictly from the original set, in order
    orig = list(path.timestamps)
    idx = [orig.index(t) for t in out.timestamps]
    assert idx == sorted(idx)


def test_squishe_sed_bound_on_random_paths():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        pos = rng.normal(scale=0.1, size=(n, 3)).cumsum(axis=0)
        ts = np.sort(rng.uniform(0, 10, size=n))
        while len(np.unique(ts)) != n:
            ts = np.sort(rng.uniform(0, 10, size=n))
        path = path_from_positions(pos, ts)
        mu = float(rng.uniform(0.01, 0.3))
        out = compress_squishe(path, mu=mu)
        kept = {int(np.nonzero(path.timestamps == t)[0][0]) for t in out.timestamps}
        errs = sed_errors_vs_subsequence(path, kept)
        assert all(e <= mu + 1e-12 for e in errs.values())


def test_squishe_mode_validation():
    # the error bound is the one mode; it must be a positive number
    path = path_from_positions(np.zeros((5, 3)))
    for mu in (0.0, -0.1, np.nan, -np.inf):
        with pytest.raises(ValueError):
            compress_squishe(path, mu=mu)


def test_waypoint_path_json_roundtrip():
    rng = np.random.default_rng(11)
    path = path_from_positions(rng.normal(size=(6, 3)))
    back = WaypointPath.from_json(path.to_json())
    assert np.allclose(back.positions(), path.positions())
    assert np.allclose(back.timestamps, path.timestamps)


def test_viewpoint_invariance_of_frames_and_path():
    # rotating the (camera) world frame leaves object-frame keypoints and the
    # relative path unchanged
    rng = np.random.default_rng(12)
    cube_local, _, _, _, _ = descending_cube_scene()
    plane = PointCloud(
        np.column_stack([rng.uniform(-0.2, 0.2, 100), rng.uniform(-0.2, 0.2, 100), np.zeros(100)])
    )
    ts = np.linspace(0, 1, 6)
    poses = [Pose(t=(0, 0, 0.2 - 0.145 * u)) for u in ts]
    cam = random_pose(rng)

    def extract(world):
        ps = [world.compose(p) for p in poses]
        cloud = PointCloud(ps[-1].apply(cube_local))
        mast = PointCloud(world.apply(plane.points))
        kf_s = extract_slave_keypoint(cloud, mast, ps, 5, ts)
        kf_m = extract_master_keypoint(mast, kf_s, ps[-1], world)
        path = relative_waypoint_path(kf_s, kf_m, ps, [world] * 6, ts)
        return kf_s, kf_m, path

    kf_s0, kf_m0, path0 = extract(Pose.identity())
    kf_s1, kf_m1, path1 = extract(cam)
    assert np.allclose(kf_s0.origin, kf_s1.origin, atol=1e-9)
    assert np.allclose(kf_s0.z_axis, kf_s1.z_axis, atol=1e-9)
    assert np.allclose(kf_m0.origin, kf_m1.origin, atol=1e-9)
    for a, b in zip(path0.waypoints, path1.waypoints):
        assert a.translation_distance_to(b) < 1e-9
        assert a.rotation_angle_to(b) < 1e-9


# --- typed errors -------------------------------------------------------------

_x, _y, _z = np.eye(3)
_cloud = PointCloud(np.eye(3))
_empty = PointCloud(np.zeros((0, 3)))
_poses = [Pose.identity()] * 3
_slave_kf = KeypointFrame.from_axes(np.zeros(3), _x, _z, "s", "slave")
_path = WaypointPath(tuple(_poses), np.arange(3.0))

TYPED_FAILURES = {
    "axis_not_unit": (DegenerateInputError, lambda: KeypointFrame(np.zeros(3), 2 * _x, _y, _z, "o", "slave")),
    "axes_not_right_handed": (DegenerateInputError, lambda: KeypointFrame(np.zeros(3), _x, -_y, _z, "o", "slave")),
    "unknown_role": (ConfigError, lambda: KeypointFrame(np.zeros(3), _x, _y, _z, "o", "gripper")),
    "path_of_one_waypoint": (DegenerateInputError, lambda: WaypointPath((Pose.identity(),), np.zeros(1))),
    "path_timestamps_misaligned": (DegenerateInputError, lambda: WaypointPath(tuple(_poses), np.arange(2.0))),
    "path_timestamps_not_increasing": (DegenerateInputError, lambda: WaypointPath(tuple(_poses), np.zeros(3))),
    "slave_contact_at_first_sample": (DegenerateInputError,
                                      lambda: extract_slave_keypoint(_cloud, _cloud, _poses, 0, [0.0, 1.0, 2.0])),
    "slave_timestamps_misaligned": (DegenerateInputError,
                                    lambda: extract_slave_keypoint(_cloud, _cloud, _poses, 1, [0.0, 1.0])),
    "slave_empty_contact_cloud": (DegenerateInputError,
                                  lambda: extract_slave_keypoint(_empty, _cloud, _poses, 1, [0.0, 1.0, 2.0])),
    "master_empty_cloud": (DegenerateInputError,
                           lambda: extract_master_keypoint(_empty, _slave_kf, Pose.identity(), Pose.identity())),
    "relative_path_misaligned": (DegenerateInputError,
                                 lambda: relative_waypoint_path(_slave_kf, _slave_kf, _poses, _poses[:2], [0.0, 1.0, 2.0])),
    "squishe_non_positive_mu": (ConfigError, lambda: compress_squishe(_path, mu=0.0)),
    "squishe_nan_mu": (ConfigError, lambda: compress_squishe(_path, mu=np.nan)),
}


@pytest.mark.parametrize("failure", sorted(TYPED_FAILURES))
def test_keypoint_failure_raises_its_typed_error(failure):
    kind, call = TYPED_FAILURES[failure]
    with pytest.raises(kind) as ei:
        call()
    # typed for the CLI's JSON error line, still a ValueError for older callers
    assert isinstance(ei.value, KeycontactError) and isinstance(ei.value, ValueError)


@pytest.mark.parametrize("mu", [-0.01, 0.0, np.nan], ids=["negative_mu", "zero_mu", "nan_mu"])
def test_squishe_mode_error_names_its_fields(mu):
    with pytest.raises(ConfigError) as err:
        compress_squishe(_path, mu=mu)
    assert set(err.value.failures) == {"mu"}
