import sys
import threading
import tracemalloc

import numpy as np
import pytest

from keycontact.geometry import (
    Pose,
    PointCloud,
    ShapeModel,
    TriangleMesh,
    box_mesh,
    cloud_min_distance,
    icosphere_mesh,
    penetration_depth,
    prism_mesh,
    quat_from_rotvec,
    quat_to_matrix,
    quat_to_rotvec,
    rotation_angle_between,
    sdf_query,
)
from keycontact.errors import ConfigError, DegenerateInputError
from keycontact.geometry.cloud import nearest_neighbors
from keycontact.geometry.pose import matrix_to_quat, quat_multiply, quat_rotate
from keycontact.geometry import shape as shape_module
from keycontact.geometry.shape import (
    DEFAULT_CELL,
    GRID_PADDING,
    Obb,
    SdfGrid,
    _component_labels,
    _cube_blocks,
    _far_edges,
    _point_triangle_distances,
    _winding_numbers,
)


def random_pose(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, np.pi)
    return Pose.from_rotvec(angle * axis, rng.uniform(-1, 1, 3))


# --- pose algebra ---------------------------------------------------------

def test_compose_identity_and_inverse():
    rng = np.random.default_rng(0)
    p = random_pose(rng)
    assert p.compose(Pose.identity()).is_close(p)
    r = p.compose(p.inverse())
    assert r.translation_distance_to(Pose.identity()) < 1e-9
    assert r.rotation_angle_to(Pose.identity()) < 1e-9


def test_compose_matches_hand_computed_matrix_product():
    # Rz(90deg) with t=(1,0,0), then pure translation (1,0,0):
    # R t_b = (0,1,0), so the product carries translation (1,1,0)
    a = Pose.from_rotvec([0, 0, np.pi / 2], (1, 0, 0))
    b = Pose(t=(1, 0, 0))
    c = a.compose(b)
    expected = np.array(
        [[0, -1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float
    )
    assert np.allclose(c.as_matrix(), expected, atol=1e-12)


def test_compose_matches_matrix_product_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_pose(rng), random_pose(rng)
        assert np.allclose(a.compose(b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12)


def test_compose_associative():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.translation_distance_to(right) < 1e-9
        assert left.rotation_angle_to(right) < 1e-9


def test_pose_quaternion_stays_unit():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    for _ in range(200):
        p = p.compose(random_pose(rng))
    assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9


@pytest.mark.parametrize("q, match", [
    ((0.0, 0.0, 0.0, 0.0), "degenerate"),
    ((np.nan, 0.0, 0.0, 0.0), "degenerate"),
    ((2.0, 0.0, 0.0, 0.0), "too far from 1"),
], ids=["zero", "nan", "off_unit"])
def test_pose_rejects_a_quaternion_that_is_not_unit(q, match):
    with pytest.raises(DegenerateInputError, match=match):
        Pose(np.array(q))


def test_prism_needs_three_vertices():
    with pytest.raises(DegenerateInputError, match="at least 3 vertices"):
        prism_mesh(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.0, 1.0)


def test_rotation_matrix_proper():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = random_pose(rng).rotation_matrix()
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) > 0


# --- batched quaternion layer ----------------------------------------------

def _scalar_quat_from_rotvec(rv):
    # the per-vector formula the batched layer must reproduce bit for bit
    angle = np.linalg.norm(rv)
    if angle < 1e-12:
        q = np.array([1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]])
        return q / np.linalg.norm(q)
    return np.concatenate([[np.cos(0.5 * angle)], np.sin(0.5 * angle) * (rv / angle)])


def _scalar_quat_to_rotvec(q):
    if q[0] < 0.0:
        q = -q
    w = min(1.0, max(-1.0, float(q[0])))
    s = np.sqrt(max(0.0, 1.0 - w * w))
    if s < 1e-12:
        return 2.0 * q[1:]
    return (2.0 * np.arccos(w) / s) * q[1:]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rotvecs():
    rng = np.random.default_rng(11)
    return np.vstack([
        rng.normal(size=(200, 3)),
        rng.normal(scale=1e-3, size=(20, 3)),
        rng.normal(scale=1e-13, size=(5, 3)),  # |rv| < 1e-12: first-order branch
        np.zeros((1, 3)),
    ])


def test_quat_from_rotvec_batched_matches_rows(rotvecs):
    batched = quat_from_rotvec(rotvecs)
    assert _same_bits(batched, np.array([quat_from_rotvec(rv) for rv in rotvecs]))
    assert _same_bits(batched, np.array([_scalar_quat_from_rotvec(rv) for rv in rotvecs]))


def test_quat_to_rotvec_batched_matches_rows(rotvecs):
    q = quat_from_rotvec(rotvecs)
    q = np.vstack([q, -q])  # negative scalar part: same rotation
    batched = quat_to_rotvec(q)
    assert _same_bits(batched, np.array([quat_to_rotvec(r) for r in q]))
    assert _same_bits(batched, np.array([_scalar_quat_to_rotvec(r) for r in q]))
    assert _same_bits(batched[: len(rotvecs)], batched[len(rotvecs):])


def test_quat_to_matrix_batched_matches_rows_and_is_contiguous(rotvecs):
    q = quat_from_rotvec(rotvecs)
    batched = quat_to_matrix(q)
    assert batched.flags.c_contiguous and quat_to_matrix(q[0]).flags.c_contiguous
    assert _same_bits(batched, np.array([quat_to_matrix(r) for r in q]))
    assert _same_bits(batched[5], Pose(q[5]).rotation_matrix())


def test_quat_multiply_batched_matches_rows_and_broadcasts(rotvecs):
    a = quat_from_rotvec(rotvecs)
    b = a[::-1]
    assert _same_bits(quat_multiply(a, b), np.array([quat_multiply(x, y) for x, y in zip(a, b)]))
    assert _same_bits(quat_multiply(a[3], b), np.array([quat_multiply(a[3], y) for y in b]))
    assert _same_bits(quat_multiply(a, b[3]), np.array([quat_multiply(x, b[3]) for x in a]))
    assert quat_multiply(a, b).flags.c_contiguous


def _scalar_matrix_to_quat(m):
    # Shepperd's method, one matrix at a time
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    return -q if q[0] < 0.0 else q


def test_matrix_to_quat_batched_matches_rows_on_every_branch(rotvecs):
    mats = quat_to_matrix(quat_from_rotvec(rotvecs))
    # half-turns about each axis and about diagonals reach the x, y and z branches
    half_turns = [np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
    half_turns += [quat_to_matrix(np.array(q) / np.linalg.norm(q)) for q in ([0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1])]
    mats = np.concatenate([mats, np.array(half_turns)])
    batched = matrix_to_quat(mats)
    assert _same_bits(batched, np.array([_scalar_matrix_to_quat(m) for m in mats]))
    assert _same_bits(batched, np.array([matrix_to_quat(m) for m in mats]))
    assert _same_bits(matrix_to_quat(mats.reshape(-1, 2, 3, 3)[:, 1]), batched[1::2])


def test_quat_rotate_broadcasts_quaternions_against_vectors(rotvecs):
    q = quat_from_rotvec(rotvecs)
    v = np.random.default_rng(2).normal(size=(7, 3))
    grid = quat_rotate(q[:, None, :], v)
    assert grid.shape == (len(q), len(v), 3)
    assert _same_bits(grid, np.array([quat_rotate(r, v) for r in q]))
    assert _same_bits(quat_rotate(q, v[0]), np.array([quat_rotate(r, v[0]) for r in q]))


@pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-9, 1e-6, 0.1, np.pi])
def test_rotation_angle_between_resolves_small_angles(angle):
    qa = np.array([1.0, 0.0, 0.0, 0.0])
    qb = np.array([np.cos(0.5 * angle), np.sin(0.5 * angle), 0.0, 0.0])
    assert rotation_angle_between(qa, qb) == pytest.approx(angle, rel=1e-12, abs=1e-300)
    assert rotation_angle_between(qa, -qb) == rotation_angle_between(qa, qb)
    # a common rotation of both leaves the angle; its rounding sits near 1e-16 rad
    base = quat_from_rotvec(np.array([0.3, -1.1, 0.7]))
    got = rotation_angle_between(quat_multiply(base, qa), quat_multiply(base, qb))
    assert got == pytest.approx(angle, rel=1e-6, abs=1e-15)


def test_rotation_angle_between_batched_matches_pairs(rotvecs):
    q = quat_from_rotvec(rotvecs)
    ref = -q[7]  # a sign flip must not change any angle
    want = np.array([rotation_angle_between(x, ref) for x in q])
    assert _same_bits(rotation_angle_between(q, ref), want)
    assert _same_bits(rotation_angle_between(ref, q), np.array([rotation_angle_between(ref, x) for x in q]))
    sub = q[::20]
    grid = rotation_angle_between(sub[:, None, :], sub[None, :, :])
    assert grid.shape == (len(sub), len(sub))
    assert _same_bits(grid, np.array([[rotation_angle_between(a, b) for b in sub] for a in sub]))
    assert (np.diag(grid) == 0.0).all()


@pytest.mark.parametrize("angle", [1e-9, 1e-6])
def test_rotation_angle_between_batched_resolves_small_angles(angle):
    qa = np.array([[1.0, 0.0, 0.0, 0.0]] * 3)
    qb = quat_from_rotvec(np.array([[angle, 0.0, 0.0], [0.0, -angle, 0.0], [0.0, 0.0, angle]]))
    assert rotation_angle_between(qa, qb) == pytest.approx([angle] * 3, rel=1e-12)


# --- point clouds ----------------------------------------------------------

def test_cloud_min_distance_trivial():
    a = PointCloud(np.zeros((1, 3)))
    b = PointCloud(np.array([[0.0, 0.0, 3.0]]))
    assert cloud_min_distance(a, b) == pytest.approx(3.0)
    assert cloud_min_distance(a, a) == 0.0


def test_cloud_min_distance_matches_brute_force():
    rng = np.random.default_rng(5)
    a = PointCloud(rng.normal(size=(50, 3)))
    b = PointCloud(rng.normal(size=(50, 3)) + 2.0)
    brute = np.sqrt(
        ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2).min()
    )
    assert cloud_min_distance(a, b) == pytest.approx(float(brute), abs=1e-12)
    assert cloud_min_distance(a, b) == cloud_min_distance(b, a)


def _brute_nearest(query, target):
    """Per-pair distances as sqrt of the summed squared differences, then the minimum."""
    d = np.array([[np.sqrt(((q - t) ** 2).sum()) for t in target] for q in query])
    return d.min(axis=1), d


def test_nearest_neighbors_match_brute_force_bit_for_bit_on_small_clouds():
    rng = np.random.default_rng(11)
    for n_query in (1, 5, 40):
        for n_target in range(1, 41):
            query, target = rng.normal(size=(n_query, 3)), rng.normal(size=(n_target, 3))
            d, idx = nearest_neighbors(query, target)
            want, pairs = _brute_nearest(query, target)
            assert d.tolist() == want.tolist()
            assert pairs[np.arange(n_query), idx].tolist() == want.tolist()


def test_nearest_neighbors_on_exact_ties_return_a_nearest_point():
    # integer grid points: many targets at exactly the same distance
    grid = np.array(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3)).reshape(3, -1).T
    rng = np.random.default_rng(12)
    for n_target in (1, 2, 7, 32, 33, 40):
        target = grid[rng.choice(len(grid), n_target, replace=False)]
        target = np.vstack([target, target[:3]])  # duplicates tie exactly
        query = np.vstack([grid[rng.choice(len(grid), 10)], 0.5 * grid[:10]])
        d, idx = nearest_neighbors(query, target)
        want, pairs = _brute_nearest(query, target)
        assert d.tolist() == want.tolist()
        assert pairs[np.arange(len(query)), idx].tolist() == want.tolist()


def test_cloud_min_distance_empty_rejected():
    with pytest.raises(ValueError):
        cloud_min_distance(PointCloud(np.zeros((0, 3))), PointCloud(np.zeros((1, 3))))


@pytest.mark.parametrize("points, features, match", [
    (np.zeros((4, 2)), None, r"points must be \(N, 3\)"),
    (np.array([[0.0, 0.0, np.nan]]), None, "non-finite"),
    (np.zeros((4, 3)), np.zeros((3, 2)), "features must be"),
    (np.zeros((4, 3)), np.zeros(4), "features must be"),
], ids=["shape", "non-finite", "feature-rows", "feature-dims"])
def test_point_cloud_rejects_malformed_arrays(points, features, match):
    with pytest.raises(DegenerateInputError, match=match):
        PointCloud(points, features)


def test_empty_cloud_has_no_centroid_or_distance():
    empty, one = PointCloud(np.zeros((0, 3))), PointCloud(np.zeros((1, 3)))
    with pytest.raises(DegenerateInputError, match="no centroid"):
        empty.centroid()
    for a, b in ((empty, one), (one, empty)):
        with pytest.raises(DegenerateInputError, match="non-empty clouds"):
            cloud_min_distance(a, b)


# --- SDF -------------------------------------------------------------------

@pytest.fixture(scope="module")
def unit_cube():
    return ShapeModel(box_mesh((1, 1, 1)), cell=0.05)


def test_sdf_cube_center_and_face(unit_cube):
    tol = unit_cube.grid.cell_diagonal
    assert sdf_query(unit_cube, Pose.identity(), np.array([0.0, 0.0, 0.0])) == pytest.approx(-0.5, abs=tol)
    assert sdf_query(unit_cube, Pose.identity(), np.array([0.0, 0.0, 1.5])) == pytest.approx(1.0, abs=tol)


def _corner_formula_query(grid, points):
    # the 8-corner trilinear interpolation with a clamp-plus-offset exterior
    pts = np.atleast_2d(points)
    shape = np.array(grid.values.shape)
    g = (pts - grid.origin) / grid.cell
    g_cl = np.clip(g, 0.0, (shape - 1) - 1e-9)
    outside = np.linalg.norm((g - g_cl) * grid.cell, axis=1)
    i = np.minimum(np.floor(g_cl).astype(int), shape - 2)
    f = g_cl - i
    v = grid.values
    ix, iy, iz = i[:, 0], i[:, 1], i[:, 2]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    c00 = v[ix, iy, iz] * (1 - fx) + v[ix + 1, iy, iz] * fx
    c10 = v[ix, iy + 1, iz] * (1 - fx) + v[ix + 1, iy + 1, iz] * fx
    c01 = v[ix, iy, iz + 1] * (1 - fx) + v[ix + 1, iy, iz + 1] * fx
    c11 = v[ix, iy + 1, iz + 1] * (1 - fx) + v[ix + 1, iy + 1, iz + 1] * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz + outside


def test_sdf_grid_query_matches_corner_formula_bitwise(unit_cube):
    grid = unit_cube.grid
    rng = np.random.default_rng(5)
    lo = grid.origin
    hi = grid.origin + grid.cell * (np.array(grid.values.shape) - 1)
    inside = rng.uniform(lo, hi, size=(500, 3))
    beyond = rng.uniform(lo - 0.3, hi + 0.3, size=(500, 3))  # many outside the grid
    upper = rng.uniform(lo, hi, size=(60, 3))
    upper[:20, 0], upper[20:40, 1], upper[40:, 2] = hi[0], hi[1], hi[2]  # on the upper faces
    nodes = lo + grid.cell * np.array([[0, 0, 0], [3, 5, 7], [1, 1, 1]])  # exactly on grid nodes
    pts = np.vstack([inside, beyond, upper, [lo], [hi], nodes])
    got = grid.query(pts)
    assert _same_bits(got, _corner_formula_query(grid, pts))
    assert _same_bits(grid.query(pts[3]), _corner_formula_query(grid, pts[3]))
    # a grid whose values are not C-ordered is gathered the same way
    fortran = type(grid)(grid.origin, grid.cell, np.asfortranarray(grid.values))
    assert _same_bits(fortran.query(pts), got)


def _clip_take_query(grid, points):
    # the query as it stood before the shifted-view gather: np.clip, the
    # exterior offset for every point, 8 gathers at index-added flat indices
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shape = np.array(grid.values.shape)
    g = (pts.T - grid.origin[:, None]) / grid.cell
    g_cl = np.clip(g, 0.0, ((shape - 1) - 1e-9)[:, None])
    off = (g - g_cl) * grid.cell
    outside = np.sqrt((off[0] * off[0] + off[1] * off[1]) + off[2] * off[2])
    i = g_cl.astype(np.intp)
    fx, fy, fz = g_cl - i
    gx, gy, gz = 1 - fx, 1 - fy, 1 - fz
    v = grid.values.ravel()
    sx, sy = shape[1] * shape[2], shape[2]
    at = i[0] * sx + i[1] * sy + i[2]
    c00 = v.take(at) * gx + v.take(at + sx) * fx
    c10 = v.take(at + sy) * gx + v.take(at + (sx + sy)) * fx
    at += 1
    c01 = v.take(at) * gx + v.take(at + sx) * fx
    c11 = v.take(at + sy) * gx + v.take(at + (sx + sy)) * fx
    c0 = c00 * gy + c10 * fy
    c1 = c01 * gy + c11 * fy
    return c0 * gz + c1 * fz + outside


def test_sdf_grid_query_matches_clip_take_reference_bitwise(unit_cube):
    grid = unit_cube.grid
    rng = np.random.default_rng(11)
    lo = grid.origin
    hi = grid.origin + grid.cell * (np.array(grid.values.shape) - 1)
    inside = rng.uniform(lo, hi, size=(400, 3))
    beyond = rng.uniform(lo - 0.3, hi + 0.3, size=(400, 3))
    boundary = rng.uniform(lo, hi, size=(60, 3))
    boundary[:10, 0], boundary[10:20, 1], boundary[20:30, 2] = lo[0], lo[1], lo[2]
    boundary[30:40, 0], boundary[40:50, 1], boundary[50:, 2] = hi[0], hi[1], hi[2]
    nodes = lo + grid.cell * rng.integers(0, np.array(grid.values.shape), size=(50, 3))
    for pts in (inside, boundary, nodes, np.vstack([inside, beyond, boundary, nodes]), beyond):
        got = grid.query(pts)
        assert _same_bits(got, _clip_take_query(grid, pts))
    for p in (inside[0], beyond[0], nodes[0], hi):  # a single (3,) point
        assert _same_bits(grid.query(p), _clip_take_query(grid, p))
        assert grid.query(p).shape == (1,)
    assert not grid.values.flags.writeable and all(not c.flags.writeable for c in grid._corners)


def test_sdf_grid_query_turns_negative_zero_into_positive_zero():
    # zero values, some of them -0.0, at an origin of +0.0: inside points
    # interpolate to -0.0, and -0.0 coordinates are clamped differently by
    # np.clip (to -0.0) than by np.maximum (to +0.0)
    values = np.zeros((3, 4, 5))
    values[:, :2] = -0.0
    grid = SdfGrid(np.zeros(3), 0.5, values)
    pts = np.array([
        [0.25, 0.25, 0.25],  # every corner -0.0
        [0.0, 0.0, 0.0],
        [-0.0, -0.0, -0.0],
        [-0.0, 0.75, 1.0],
        [0.6, 0.1, 1.3],
    ])
    beyond = np.array([[1.0, 1.5, 2.0], [-1.0, 0.2, 0.2]])  # the top node lies 1e-9 cells past the clamp
    assert np.signbit(_corner_formula_query(grid, pts[:1])).tolist() == [False]
    for batch in (pts, np.vstack([pts, beyond])):  # all inside, and some outside
        got = grid.query(batch)
        assert _same_bits(got, _clip_take_query(grid, batch))
        assert not np.signbit(got).any()


def _points_across_the_grid(grid, n, seed):
    # half inside the grid domain, half beyond it, interleaved
    rng = np.random.default_rng(seed)
    lo = grid.origin
    hi = grid.origin + grid.cell * (np.array(grid.values.shape) - 1)
    pts = rng.uniform(lo, hi, size=(n, 3))
    pts[1::2] = rng.uniform(lo - 0.3, hi + 0.3, size=(n // 2, 3))
    return pts


@pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (3, 5)], ids=["R-1", "R", "R+1", "3R+5"])
def test_sdf_grid_query_matches_corner_formula_around_the_sub_block_size(unit_cube, offset):
    grid = unit_cube.grid
    n = offset[0] * shape_module._QUERY_BLOCK + offset[1]
    pts = _points_across_the_grid(grid, n, seed=n)
    assert _same_bits(grid.query(pts), _corner_formula_query(grid, pts))
    # the (3, N) row layout the refinement kernels pass
    assert _same_bits(grid.query(np.ascontiguousarray(pts.T).T), _corner_formula_query(grid, pts))


def test_sdf_grid_query_matches_when_inside_and_outside_points_fill_different_sub_blocks():
    # -0.0 values interpolate to -0.0 inside; a sub-block of inside points
    # only and one with outside points must both give +0.0 there
    values = np.zeros((3, 4, 5))
    values[:, :2] = -0.0
    grid = SdfGrid(np.zeros(3), 0.5, values)
    r = shape_module._QUERY_BLOCK
    rng = np.random.default_rng(3)
    inside = rng.uniform(0.0, 0.5, size=(r, 3))  # every corner -0.0
    beyond = rng.uniform(-1.0, 3.0, size=(r + 7, 3))
    for pts in (np.vstack([inside, beyond]), np.vstack([beyond[: r], inside, beyond[r:]])):
        got = grid.query(pts)
        assert _same_bits(got, _corner_formula_query(grid, pts))
        assert not np.signbit(got).any()


def test_sdf_grid_query_result_is_not_overwritten_by_a_later_query(unit_cube):
    grid = unit_cube.grid
    first = grid.query(_points_across_the_grid(grid, 300, seed=1))
    kept = first.copy()
    second = grid.query(_points_across_the_grid(grid, 300, seed=2))
    assert _same_bits(first, kept) and not np.shares_memory(first, second)
    assert first.flags.owndata and first.flags.writeable


def test_threads_querying_two_grids_at_once_get_the_serial_results(unit_cube):
    # four threads on two cores, two per grid, switching often: each thread
    # must write its temporaries into scratch of its own
    other = ShapeModel(icosphere_mesh(0.015, 2), DEFAULT_CELL).grid
    grids = (unit_cube.grid, other)
    batches = [[_points_across_the_grid(g, n, seed=n) for n in (7, 2 * shape_module._QUERY_BLOCK + 3, 500)]
               for g in grids]
    want = [[g.query(b) for b in bs] for g, bs in zip(grids, batches)]
    got = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def worker(k):
        start.wait()
        for _ in range(10):
            got[k].append([grids[k % 2].query(b) for b in batches[k % 2]])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(4):
        assert len(got[k]) == 10
        assert all(_same_bits(g, w) for rep in got[k] for g, w in zip(rep, want[k % 2]))


def _point_triangle_distance_reference(p, a, b, c):
    """Scalar closest-distance oracle (projection + edge/vertex clamping)."""
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return np.linalg.norm(p - a)
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return np.linalg.norm(p - b)
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return np.linalg.norm(p - c)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        t = d1 / (d1 - d3)
        return np.linalg.norm(p - (a + t * ab))
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        t = d2 / (d2 - d6)
        return np.linalg.norm(p - (a + t * ac))
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return np.linalg.norm(p - (b + t * (c - b)))
    n = np.cross(ab, ac)
    return abs((ap @ n) / np.linalg.norm(n))


def test_unsigned_distance_matches_point_triangle_oracle():
    # two-triangle open sheet: compare the raw distance kernel to the oracle
    from keycontact.geometry.shape import _point_triangle_distances

    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1.2, 1.1, 0.4]], dtype=float)
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = TriangleMesh(verts, faces)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1, 2, size=(200, 3))
    got = _point_triangle_distances(pts, mesh)
    tri = [verts[f] for f in faces]
    want = [
        min(_point_triangle_distance_reference(p, *t) for t in tri) for p in pts
    ]
    assert np.allclose(got, want, atol=1e-9)


def dense_point_triangle_distances(points, mesh):
    """The all-triangle distance kernel in 4096-row chunks, as reference."""
    a, b, c = mesh.triangles
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    n2 = (n * n).sum(axis=1)
    n2 = np.where(n2 < 1e-30, 1.0, n2)
    len_ab2 = np.maximum((ab * ab).sum(axis=1), 1e-30)
    len_ac2 = np.maximum((ac * ac).sum(axis=1), 1e-30)
    bc = c - b
    len_bc2 = np.maximum((bc * bc).sum(axis=1), 1e-30)

    a_ab = (a * ab).sum(axis=1)
    a_ac = (a * ac).sum(axis=1)
    b_ab = (b * ab).sum(axis=1)
    b_ac = (b * ac).sum(axis=1)
    c_ab = (c * ab).sum(axis=1)
    c_ac = (c * ac).sum(axis=1)
    a_n = (a * n).sum(axis=1)
    a2 = (a * a).sum(axis=1)
    b2 = (b * b).sum(axis=1)
    c2 = (c * c).sum(axis=1)

    out = np.empty(len(points))
    for lo in range(0, len(points), 4096):
        p = points[lo : lo + 4096]
        p2 = (p * p).sum(axis=1)[:, None]
        p_ab = p @ ab.T
        p_ac = p @ ac.T
        d1 = p_ab - a_ab[None, :]
        d2 = p_ac - a_ac[None, :]
        d3 = p_ab - b_ab[None, :]
        d4 = p_ac - b_ac[None, :]
        d5 = p_ab - c_ab[None, :]
        d6 = p_ac - c_ac[None, :]
        ap2 = p2 - 2.0 * (p @ a.T) + a2[None, :]
        bp2 = p2 - 2.0 * (p @ b.T) + b2[None, :]
        cp2 = p2 - 2.0 * (p @ c.T) + c2[None, :]

        va = d3 * d6 - d5 * d4
        vb = d5 * d2 - d1 * d6
        vc = d1 * d4 - d3 * d2

        plane = (p @ n.T - a_n[None, :]) ** 2 / n2[None, :]  # interior fallback

        d_sq = plane
        on_bc = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
        d_sq = np.where(on_bc, bp2 - (d4 - d3) ** 2 / len_bc2[None, :], d_sq)
        on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
        d_sq = np.where(on_ac, ap2 - d2**2 / len_ac2[None, :], d_sq)
        on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
        d_sq = np.where(on_ab, ap2 - d1**2 / len_ab2[None, :], d_sq)
        d_sq = np.where((d6 >= 0) & (d5 <= d6), cp2, d_sq)
        d_sq = np.where((d3 >= 0) & (d4 <= d3), bp2, d_sq)
        d_sq = np.where((d1 <= 0) & (d2 <= 0), ap2, d_sq)

        out[lo : lo + 4096] = np.sqrt(np.maximum(d_sq.min(axis=1), 0.0))
    return out


def _grid_nodes(mesh, cell):
    """The node positions ShapeModel samples its grid at."""
    lo, hi = mesh.aabb()
    origin = lo - GRID_PADDING * cell
    shape = np.ceil((hi + GRID_PADDING * cell - origin) / cell).astype(int) + 1
    axes = [origin[k] + cell * np.arange(shape[k]) for k in range(3)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def _open_sheet():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1.2, 1.1, 0.4]], dtype=float)
    return TriangleMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))


@pytest.fixture(scope="module")
def scene_meshes():
    from keycontact.sim import make_peg_hole_scene

    out = {}
    for profile in ("round", "hexagon"):
        scene = make_peg_hole_scene(profile, 0.002, 0.006, seed=0)
        out[f"{profile}_master"] = scene.master_shape.mesh
        out[f"{profile}_slave"] = scene.slave_shape.mesh
    return out


@pytest.mark.parametrize("name", ["round_master", "round_slave", "hexagon_master", "hexagon_slave"])
def test_culled_distances_equal_the_dense_kernel_on_scene_grid_nodes(scene_meshes, name):
    mesh = scene_meshes[name]
    pts = _grid_nodes(mesh, DEFAULT_CELL)
    got = _point_triangle_distances(pts, mesh)
    assert got.tobytes() == dense_point_triangle_distances(pts, mesh).tobytes()


@pytest.mark.parametrize("mesh, cell", [(box_mesh((1, 1, 1)), 0.05), (icosphere_mesh(0.015, 2), DEFAULT_CELL)])
def test_culled_distances_equal_the_dense_kernel_on_closed_meshes(mesh, cell):
    pts = _grid_nodes(mesh, cell)
    assert _point_triangle_distances(pts, mesh).tobytes() == dense_point_triangle_distances(pts, mesh).tobytes()


@pytest.mark.parametrize("zero_area", [False, True])
def test_culled_distances_equal_the_dense_kernel_on_an_open_sheet(zero_area):
    mesh = _open_sheet()
    if zero_area:  # a face with a repeated vertex is never culled
        mesh = TriangleMesh(mesh.vertices, np.vstack([mesh.faces, [[3, 3, 0]]]))
    pts = np.random.default_rng(11).uniform(-1, 2, size=(5000, 3))
    pts = pts[np.random.default_rng(12).permutation(len(pts))]
    assert _point_triangle_distances(pts, mesh).tobytes() == dense_point_triangle_distances(pts, mesh).tobytes()


def test_culled_distances_equal_the_dense_kernel_on_awkward_point_sets(scene_meshes):
    mesh = scene_meshes["round_master"]
    rng = np.random.default_rng(13)
    near = rng.uniform(-0.03, 0.03, size=(700, 3))
    far = rng.uniform(-1.0, 1.0, size=(300, 3)) + np.array([5.0, -3.0, 2.0])
    # 193 copies of one point form one cube, split into blocks of 64 with a
    # 1-point tail, which must join its neighbour
    dup = np.repeat(near[:1], 193, axis=0)
    _, cuts = _cube_blocks(dup, 64)
    assert np.diff(cuts).tolist() == [64, 64, 65]
    for pts in (near, np.vstack([near, far]), dup, np.vstack([near, dup]), near[:1], near[:2], far[:65]):
        want = dense_point_triangle_distances(pts, mesh)
        assert _point_triangle_distances(pts, mesh).tobytes() == want.tobytes()
    assert _point_triangle_distances(np.zeros((0, 3)), mesh).shape == (0,)


def test_culled_blocks_never_hold_one_row():
    rng = np.random.default_rng(14)
    for n in (65, 129, 200, 1000, 4097):
        pts = rng.uniform(-1, 1, size=(n, 3))
        pts[-1] = 40.0  # an isolated point alone in its cube
        order, cuts = _cube_blocks(pts, 64)
        assert np.diff(cuts).min() >= 2
        assert np.array_equal(np.sort(order), np.arange(n))


@pytest.mark.parametrize("profile", ["round", "hexagon"])
def test_shape_model_grids_equal_a_dense_build(profile, monkeypatch):
    from keycontact.geometry import shape as shape_module
    from keycontact.sim import make_peg_hole_scene

    scene = make_peg_hole_scene(profile, 0.002, 0.006, seed=0)
    monkeypatch.setattr(shape_module, "_point_triangle_distances", dense_point_triangle_distances)
    for built in (scene.master_shape, scene.slave_shape):
        dense = ShapeModel(built.mesh, built.cell)
        assert dense.grid.values.tobytes() == built.grid.values.tobytes()
        assert dense.grid.origin.tobytes() == built.grid.origin.tobytes()


def all_node_sign_values(mesh, cell):
    """Grid values with the winding number evaluated at every node, as reference."""
    pts = _grid_nodes(mesh, cell)
    wn = _winding_numbers(pts, mesh)
    return np.where(np.abs(wn) > 0.5, -1.0, 1.0) * _point_triangle_distances(pts, mesh)


@pytest.mark.parametrize("profile", ["round", "hexagon"])
def test_flood_filled_signs_equal_the_all_node_pass_on_scene_meshes(profile):
    from keycontact.sim import make_peg_hole_scene

    scene = make_peg_hole_scene(profile, 0.002, 0.006, seed=0)
    for built in (scene.master_shape, scene.slave_shape):
        assert built.grid.values.tobytes() == all_node_sign_values(built.mesh, built.cell).tobytes()


@pytest.mark.parametrize("mesh, cell", [(box_mesh((1, 1, 1)), 0.05), (icosphere_mesh(0.015, 2), DEFAULT_CELL)],
                         ids=["box", "icosphere"])
def test_flood_filled_signs_equal_the_all_node_pass_on_closed_meshes(mesh, cell):
    assert ShapeModel(mesh, cell).grid.values.tobytes() == all_node_sign_values(mesh, cell).tobytes()


def _winding_numbers_in_4096_row_chunks(points, mesh):
    """_winding_numbers as it chunked before its chunks were cut to cache size."""
    va, vb, vc = mesh.triangles
    bxc = np.cross(vb, vc)
    det_const = (va * bxc).sum(axis=1)
    det_lin = bxc + np.cross(vc, va) + np.cross(va, vb)
    ab, bc, ca = (va * vb).sum(axis=1), (vb * vc).sum(axis=1), (vc * va).sum(axis=1)
    a2, b2, c2 = (va * va).sum(axis=1), (vb * vb).sum(axis=1), (vc * vc).sum(axis=1)
    out = np.empty(len(points))
    for lo in range(0, len(points), 4096):
        p = points[lo : lo + 4096]
        p2 = (p * p).sum(axis=1)[:, None]
        pa, pb, pc = p @ va.T, p @ vb.T, p @ vc.T
        la = np.sqrt(np.maximum(a2[None, :] - 2.0 * pa + p2, 0.0))
        lb = np.sqrt(np.maximum(b2[None, :] - 2.0 * pb + p2, 0.0))
        lc = np.sqrt(np.maximum(c2[None, :] - 2.0 * pc + p2, 0.0))
        dot_ab = ab[None, :] - pa - pb + p2
        dot_bc = bc[None, :] - pb - pc + p2
        dot_ca = ca[None, :] - pc - pa + p2
        num = det_const[None, :] - p @ det_lin.T
        den = la * lb * lc + dot_ab * lc + dot_bc * la + dot_ca * lb
        out[lo : lo + 4096] = (2.0 * np.arctan2(num, den)).sum(axis=1) / (4.0 * np.pi)
    return out


@pytest.mark.parametrize("profile", ["round", "hexagon"])
def test_winding_numbers_equal_the_4096_row_chunking_on_scene_grid_nodes(profile):
    from keycontact.sim import make_peg_hole_scene

    scene = make_peg_hole_scene(profile, 0.002, 0.006, seed=0)
    for built in (scene.master_shape, scene.slave_shape):
        pts = _grid_nodes(built.mesh, built.cell)
        rows = max(2, shape_module._WINDING_PAIRS // len(built.mesh.faces))
        assert rows < len(pts)
        assert _winding_numbers(pts, built.mesh).tobytes() == _winding_numbers_in_4096_row_chunks(
            pts, built.mesh).tobytes()
        # a last chunk of one row joins the chunk before it
        tail = pts[: 2 * rows + 1]
        assert _winding_numbers(tail, built.mesh).tobytes() == _winding_numbers_in_4096_row_chunks(
            tail, built.mesh).tobytes()


def test_building_the_round_scene_stays_below_12_mb(monkeypatch):
    from keycontact.sim import make_peg_hole_scene, scenes

    monkeypatch.setattr(scenes, "_SHAPE_CACHE", {})
    tracemalloc.start()
    try:
        scene = make_peg_hole_scene("round", 0.002, 0.006, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scene.master_shape.grid.values.size > 30_000
    assert peak < 12 * 2**20


@pytest.mark.parametrize("name, cell", [("round_master", DEFAULT_CELL), ("round_slave", DEFAULT_CELL),
                                        ("hexagon_master", DEFAULT_CELL), ("hexagon_slave", DEFAULT_CELL),
                                        ("round_master", 0.001)],
                         ids=["round_master", "round_slave", "hexagon_master", "hexagon_slave", "round_master_1mm"])
def test_component_labels_split_far_edge_graphs_as_csgraph_does(scene_meshes, name, cell):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import coo_matrix

    mesh = scene_meshes[name]
    pts = _grid_nodes(mesh, cell)
    lo, hi = mesh.aabb()
    origin = lo - GRID_PADDING * cell
    shape = np.ceil((hi + GRID_PADDING * cell - origin) / cell).astype(int) + 1
    heads, tails = _far_edges(_point_triangle_distances(pts, mesh).reshape(shape), cell)
    labels = _component_labels(len(pts), heads, tails)
    graph = coo_matrix((np.ones(len(heads), dtype=np.int8), (heads, tails)), shape=(len(pts), len(pts)))
    _, reference = csgraph.connected_components(graph, directed=False)
    # the same partition: each label of one side meets exactly one of the other
    pairs = np.unique(np.stack([labels, reference]), axis=1)
    assert len(pairs[0]) == len(np.unique(labels)) == len(np.unique(reference))


@pytest.mark.parametrize("n, edges, expected", [
    (4, [], [0, 1, 2, 3]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0, 0, 0, 0, 0]),
    (5, [(4, 3), (3, 2), (2, 1), (1, 0)], [0, 0, 0, 0, 0]),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 0, 0]),
    (4, [(2, 3), (3, 2), (2, 3), (1, 1), (2, 3)], [0, 1, 2, 2]),
    (7, [(0, 2), (2, 0), (4, 6)], [0, 1, 0, 2, 3, 4, 3]),
], ids=["no-edges", "chain", "reversed-chain", "cycle", "repeated-edges", "isolated-between"])
def test_component_labels_on_small_graphs(n, edges, expected):
    heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    assert _component_labels(n, heads, tails).tolist() == expected


def test_flood_filled_signs_keep_nodes_on_the_surface_apart_at_1mm(scene_meshes):
    # the round peg at 1 mm has nodes within 1e-12 m of its surface; a
    # smaller slack lets them inherit a neighbour's sign
    mesh = scene_meshes["round_slave"]
    assert ShapeModel(mesh, 0.001).grid.values.tobytes() == all_node_sign_values(mesh, 0.001).tobytes()


def _box_without_a_face():
    box = box_mesh((1, 1, 1))
    return TriangleMesh(box.vertices, box.faces[1:])


@pytest.mark.parametrize("mesh", [_open_sheet(), _box_without_a_face()], ids=["sheet", "box_without_a_face"])
def test_shape_model_rejects_an_open_mesh(mesh):
    with pytest.raises(DegenerateInputError, match="mesh is not closed"):
        ShapeModel(mesh, 0.05)


_TRIANGLE = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)


@pytest.mark.parametrize("make, message", [
    (lambda: TriangleMesh(_TRIANGLE[:, :2], np.array([[0, 1, 2]])), "vertices must be"),
    (lambda: TriangleMesh(_TRIANGLE, np.array([[0, 1, 2, 0]])), "faces must be"),
    (lambda: TriangleMesh(_TRIANGLE, np.array([[0, 1, 3]])), "face index out of range"),
    (lambda: TriangleMesh(_TRIANGLE * [1, 0, 0], np.array([[0, 1, 2]])).sample_surface(10, 0), "zero surface area"),
], ids=["vertices", "faces", "face_index", "zero_area"])
def test_malformed_meshes_raise_degenerate_input_errors(make, message):
    with pytest.raises(DegenerateInputError, match=message):
        make()


@pytest.mark.parametrize("cell", [0.0, -0.002])
def test_shape_model_rejects_a_non_positive_cell(cell):
    with pytest.raises(ConfigError) as ei:
        ShapeModel(box_mesh((1, 1, 1)), cell)
    assert set(ei.value.failures) == {"cell"}
    assert isinstance(ei.value, ValueError)


@pytest.mark.parametrize("half, quat, field", [
    ([0.1, 0.0, 0.1], [1.0, 0, 0, 0], "half_extents"),
    ([0.1, 0.1, 0.1], [1.0, 0, 0, 0.1], "orientation"),
])
def test_obb_names_its_failing_field(half, quat, field):
    with pytest.raises(ConfigError) as ei:
        Obb(np.zeros(3), np.array(half), np.array(quat))
    assert set(ei.value.failures) == {field}


def test_mesh_caches_read_only_triangles_normals_and_areas():
    mesh = icosphere_mesh(0.02, 1)
    a, b, c = mesh.triangles
    assert mesh.triangles is mesh.triangles
    assert mesh.face_normals() is mesh.face_normals() and mesh.face_areas() is mesh.face_areas()
    for arr in (a, b, c, mesh.face_normals(), mesh.face_areas()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    v, f = mesh.vertices, mesh.faces
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    norms = np.linalg.norm(n, axis=1, keepdims=True)
    norms[norms < 1e-30] = 1.0
    assert mesh.face_normals().tobytes() == (n / norms).tobytes()


def _sample_surface_reference(mesh, n, seed):
    """Area-weighted surface samples with the areas recomputed per call."""
    rng = np.random.default_rng(seed)
    v, f = mesh.vertices, mesh.faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    face_idx = rng.choice(len(areas), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a, b, c = a[face_idx], b[face_idx], c[face_idx]
    pts = (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c
    return pts, face_idx


@pytest.mark.parametrize("seed", [3, 8])
def test_sample_surface_matches_the_per_call_area_formula(scene_meshes, seed):
    mesh = scene_meshes["round_master"]
    for _ in range(2):  # the cached areas serve every call alike
        pts, faces = mesh.sample_surface(500, seed)
        want_pts, want_faces = _sample_surface_reference(mesh, 500, seed)
        assert pts.tobytes() == want_pts.tobytes() and np.array_equal(faces, want_faces)


def test_sdf_agrees_with_exact_on_random_points(unit_cube):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(100, 3))

    def exact_cube_sdf(p):
        q = np.abs(p) - 0.5
        outside = np.linalg.norm(np.maximum(q, 0.0))
        inside = min(max(q[0], max(q[1], q[2])), 0.0)
        return outside + inside

    got = sdf_query(unit_cube, Pose.identity(), pts)
    want = np.array([exact_cube_sdf(p) for p in pts])
    assert np.abs(got - want).max() <= unit_cube.grid.cell_diagonal


def test_sdf_sign_changes_once_along_entering_ray(unit_cube):
    # ray from outside through the cube: one - -> + crossing pattern
    ts = np.linspace(-1.2, 1.2, 241)
    pts = np.column_stack([ts, np.full_like(ts, 0.1), np.full_like(ts, -0.05)])
    vals = sdf_query(unit_cube, Pose.identity(), pts)
    signs = np.sign(vals)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) == 2  # enter and exit exactly once each


def test_sdf_exterior_clamp_monotone(unit_cube):
    # beyond the grid domain the extension keeps growing along the ray
    ds = [sdf_query(unit_cube, Pose.identity(), np.array([0.0, 0.0, z])) for z in (1.0, 2.0, 5.0, 9.0)]
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_sdf_respects_pose(unit_cube):
    pose = Pose.from_rotvec([0, 0, np.pi / 4], (1, 2, 0.5))
    probe_local = np.array([0.0, 0.0, 0.0])
    probe_world = pose.apply(probe_local)
    assert sdf_query(unit_cube, pose, probe_world) == pytest.approx(
        sdf_query(unit_cube, Pose.identity(), probe_local), abs=1e-9
    )


# --- penetration depth -------------------------------------------------------

def test_penetration_zero_when_apart(unit_cube):
    assert penetration_depth(unit_cube, Pose.identity(), unit_cube, Pose(t=(2, 0, 0))) == 0.0


def test_penetration_overlap_known(unit_cube):
    # 0.1 m overlap along x: sampled max(-sdf) equals the overlap depth
    got = penetration_depth(unit_cube, Pose.identity(), unit_cube, Pose(t=(0.9, 0, 0)))
    assert got == pytest.approx(0.1, abs=0.02)


def dense_penetration_oracle(a, pose_a, b, pose_b, n=20000):
    pa, _ = a.mesh.sample_surface(n, seed=123)
    pb, _ = b.mesh.sample_surface(n, seed=321)
    d_ab = b.sdf_local(pose_b.inverse().apply(pose_a.apply(pa)))
    d_ba = a.sdf_local(pose_a.inverse().apply(pose_b.apply(pb)))
    return max(0.0, max(-d_ab.min(), -d_ba.min()))


def test_penetration_matches_dense_oracle(unit_cube):
    # the max statistic over 2k samples trails the 20k oracle by at most the
    # sampling tolerance, tightest where the deep region is a broad plateau
    for offset, tol in (((0.5, 0, 0), 0.05), ((0.9, 0.2, 0), 0.02), ((0.2, 0.2, 0.2), 0.02)):
        pose_b = Pose(t=offset)
        got = penetration_depth(unit_cube, Pose.identity(), unit_cube, pose_b)
        want = dense_penetration_oracle(unit_cube, Pose.identity(), unit_cube, pose_b)
        assert got == pytest.approx(want, abs=tol)


def test_penetration_coincident_cubes_equals_oracle(unit_cube):
    # exactly coincident surfaces: every sample lies on the other surface, so
    # the sampled max(-sdf) oracle reports ~0 (grid tolerance), not the
    # classical minimum-translation depth
    got = penetration_depth(unit_cube, Pose.identity(), unit_cube, Pose.identity())
    want = dense_penetration_oracle(unit_cube, Pose.identity(), unit_cube, Pose.identity())
    assert got == pytest.approx(want, abs=unit_cube.grid.cell_diagonal)


def test_penetration_iff_surface_distance_positive(unit_cube):
    # separated cubes: depth 0 and surface distance > 0
    pose_b = Pose(t=(1.2, 0, 0))
    assert penetration_depth(unit_cube, Pose.identity(), unit_cube, pose_b) == 0.0
    pa, _ = unit_cube.mesh.sample_surface(2000, seed=9)
    pb, _ = unit_cube.mesh.sample_surface(2000, seed=10)
    d = cloud_min_distance(PointCloud(pa), PointCloud(pose_b.apply(pb)))
    assert d > 0


def test_obb_validation():
    from keycontact.geometry import Obb

    with pytest.raises(ValueError):
        Obb(np.zeros(3), np.array([0.1, 0.0, 0.1]), np.array([1.0, 0, 0, 0]))
    box = Obb(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.array([1.0, 0, 0, 0]))
    assert box.half_extents.tolist() == [1.0, 2.0, 3.0]
