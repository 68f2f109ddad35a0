import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance

from keycontact.errors import ConfigError, DegenerateInputError, KeycontactError, TransferStageError
from keycontact.geometry import PointCloud, Pose
from keycontact.keypoints import KeypointFrame
from keycontact.serialize import canonical_json
from keycontact.transfer import (
    CorrespondenceSet,
    FeatureGrid,
    TransferConfig,
    kabsch_fit,
    nonrigid_register,
    otsu_region,
    ransac_rigid_align,
    region_similarity,
    relaxed_best_buddies,
    solve_keypoint_frame,
    transfer_keypoint,
    voxelize_cloud,
)
from keycontact.transfer import matching, nonrigid, pipeline
from keycontact.transfer.matching import (
    _SCORE_BLOCK_FLOATS,
    _batched_minimal_fits,
    _draw_triples,
    _hypotheses_needed,
    _score_hypotheses,
)
from keycontact.transfer.nonrigid import (
    _EIGEN_CUTOFF,
    _EXP_FLOOR,
    _TRUNCATION_EPS,
    _cutoff_radius2,
    _exp_above_floor,
    _initial_sigma2,
    _truncated_responsibilities,
)


def random_pose(rng, scale=0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose.from_rotvec(rng.uniform(0, np.pi) * axis, rng.uniform(-scale, scale, 3))


# --- feature grids and similarity ---------------------------------------------

def test_voxelize_merges_and_orders():
    pts = np.array([[0.001, 0.001, 0.001], [0.002, 0.002, 0.002], [0.02, 0.0, 0.0]])
    feats = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0]])
    grid = voxelize_cloud(PointCloud(pts, feats), cell=0.005)
    assert len(grid) == 2
    # first two points share a voxel; feature is their mean
    assert np.allclose(sorted(grid.features[:, 0]), [0.0, 2.0])


def test_voxelize_centroid_on_cell_upper_edge_stays_in_its_cell():
    cell = 0.005
    edge = np.nextafter(17 * cell, 0.0)  # one ulp below the top of cell 16
    assert np.floor(edge / cell) == 16
    # the mean of three such members rounds up onto the edge of cell 17,
    # which another point occupies
    pts = np.array([[edge, 0.001, 0.001]] * 3 + [[0.086, 0.001, 0.001]])
    feats = np.array([[1.0], [2.0], [3.0], [5.0]])
    grid = voxelize_cloud(PointCloud(pts, feats), cell=cell)
    assert len(grid) == 2
    assert np.floor(grid.centers[:, 0] / cell).tolist() == [16, 17]
    assert np.allclose(grid.centers[0], pts[0], rtol=0, atol=1e-15)
    assert np.allclose(grid.features[:, 0], [2.0, 5.0])


def test_voxelize_order_invariant():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.05, 0.05, (100, 3))
    feats = rng.normal(size=(100, 4))
    g1 = voxelize_cloud(PointCloud(pts, feats), cell=0.01)
    perm = rng.permutation(100)
    g2 = voxelize_cloud(PointCloud(pts[perm], feats[perm]), cell=0.01)
    assert np.allclose(g1.centers, g2.centers)
    assert np.allclose(g1.features, g2.features)


def test_similarity_identical_and_orthogonal():
    grid = FeatureGrid(
        centers=np.array([[0.0, 0, 0], [0.01, 0, 0], [0.02, 0, 0]]),
        features=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        cell=0.005,
    )
    sim = region_similarity(grid, np.array([1.0, 0.0]))
    assert sim[0] == pytest.approx(1.0)
    assert sim[1] == pytest.approx(0.0)
    assert sim[2] == 0.0  # zero-norm feature defined as 0


def test_similarity_matches_formula():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(50, 8))
    grid = FeatureGrid(rng.uniform(-1, 1, (50, 3)), feats, cell=0.01)
    q = rng.normal(size=8)
    got = region_similarity(grid, q)
    want = feats @ q / (np.linalg.norm(feats, axis=1) * np.linalg.norm(q))
    assert np.allclose(got, want, atol=1e-12)


# --- Otsu -----------------------------------------------------------------------

def exhaustive_otsu_oracle(vals, bins=256):
    """Scan every histogram split; return the best between-class variance."""
    lo, hi = vals.min(), vals.max()
    hist, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    p = hist / hist.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    best = -1.0
    for k in range(bins - 1):
        w0 = p[: k + 1].sum()
        w1 = 1 - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = (p[: k + 1] * centers[: k + 1]).sum() / w0
        mu1 = (p[k + 1 :] * centers[k + 1 :]).sum() / w1
        var = w0 * w1 * (mu0 - mu1) ** 2
        best = max(best, var)
    return best


def between_class_variance(vals, threshold):
    lo = vals[vals <= threshold]
    hi = vals[vals > threshold]
    if len(lo) == 0 or len(hi) == 0:
        return -1.0
    w0, w1 = len(lo) / len(vals), len(hi) / len(vals)
    return w0 * w1 * (lo.mean() - hi.mean()) ** 2


def test_otsu_separated_bimodal():
    vals = np.array([0.1] * 50 + [0.9] * 50)
    mask, thr = otsu_region(vals)
    assert 0.1 < thr < 0.9
    assert mask.sum() == 50
    assert (vals[mask] == 0.9).all()


def test_otsu_gaussian_mixture_threshold_in_valley():
    rng = np.random.default_rng(2)
    vals = np.concatenate([rng.normal(0.2, 0.05, 300), rng.normal(0.8, 0.05, 300)])
    _, thr = otsu_region(vals)
    assert 0.4 <= thr <= 0.6
    # within numerical slack of the exhaustive best split
    assert between_class_variance(vals, thr) >= 0.95 * exhaustive_otsu_oracle(vals)


def test_otsu_permutation_invariant():
    rng = np.random.default_rng(3)
    vals = np.concatenate([rng.normal(0.3, 0.1, 100), rng.normal(0.7, 0.1, 100)])
    _, t1 = otsu_region(vals)
    _, t2 = otsu_region(rng.permutation(vals))
    assert t1 == t2


def test_otsu_constant_rejected():
    with pytest.raises(DegenerateInputError):
        otsu_region(np.full(10, 0.5))


# --- relaxed best buddies ----------------------------------------------------------

def make_grid(centers, feats, cell=0.001):
    return FeatureGrid(np.asarray(centers, float), np.asarray(feats, float), cell)


def mutual_nn_oracle(ref_f, tgt_f):
    cross = np.linalg.norm(ref_f[:, None, :] - tgt_f[None, :, :], axis=2)
    nn_t = cross.argmin(axis=1)
    nn_r = cross.argmin(axis=0)
    return {(i, int(nn_t[i])) for i in range(len(ref_f)) if nn_r[nn_t[i]] == i}


def relaxed_oracle(ref_f, tgt_f, d_t):
    cross = np.linalg.norm(ref_f[:, None, :] - tgt_f[None, :, :], axis=2)
    nn_t = cross.argmin(axis=1)
    nn_r = cross.argmin(axis=0)
    t2t = np.linalg.norm(tgt_f[:, None, :] - tgt_f[None, :, :], axis=2)
    r2r = np.linalg.norm(ref_f[:, None, :] - ref_f[None, :, :], axis=2)
    out = set()
    for i in range(len(ref_f)):
        for j in range(len(tgt_f)):
            if t2t[nn_t[i], j] <= d_t and r2r[nn_r[j], i] <= d_t:
                out.add((i, j))
    return out


def pair_index_set(corr, ref_centers, tgt_centers):
    out = set()
    for rp, tp in zip(corr.ref_points, corr.tgt_points):
        i = int(np.argmin(np.linalg.norm(ref_centers - rp, axis=1)))
        j = int(np.argmin(np.linalg.norm(tgt_centers - tp, axis=1)))
        out.add((i, j))
    return out


def test_best_buddies_identity_at_zero_radius():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(20, 6))
    centers = rng.uniform(-0.1, 0.1, (20, 3))
    ref = make_grid(centers, feats)
    tgt = make_grid(centers + 0.05, feats)  # same features, shifted geometry
    corr = relaxed_best_buddies(ref, tgt, d_t=0.0)
    assert len(corr) == 20
    got = pair_index_set(corr, ref.centers, tgt.centers)
    assert got == {(i, i) for i in range(20)}


def test_best_buddies_matches_mutual_nn_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n_r, n_t = rng.integers(5, 40), rng.integers(5, 40)
        ref = make_grid(rng.uniform(-1, 1, (n_r, 3)), rng.normal(size=(n_r, 5)))
        tgt = make_grid(rng.uniform(-1, 1, (n_t, 3)), rng.normal(size=(n_t, 5)))
        corr = relaxed_best_buddies(ref, tgt, d_t=0.0)
        got = pair_index_set(corr, ref.centers, tgt.centers)
        assert got == mutual_nn_oracle(ref.features, tgt.features)


def test_best_buddies_monotone_in_radius():
    rng = np.random.default_rng(6)
    ref = make_grid(rng.uniform(-1, 1, (30, 3)), rng.normal(size=(30, 5)))
    tgt = make_grid(rng.uniform(-1, 1, (25, 3)), rng.normal(size=(25, 5)))
    small = pair_index_set(relaxed_best_buddies(ref, tgt, 0.0), ref.centers, tgt.centers)
    large = pair_index_set(relaxed_best_buddies(ref, tgt, 0.5), ref.centers, tgt.centers)
    assert small <= large
    assert large == relaxed_oracle(ref.features, tgt.features, 0.5)


# --- RANSAC ---------------------------------------------------------------------

def test_ransac_exact_recovery():
    rng = np.random.default_rng(7)
    ref = rng.uniform(-0.1, 0.1, (40, 3))
    truth = random_pose(rng)
    corr = CorrespondenceSet(ref, truth.apply(ref))
    pose, inliers = ransac_rigid_align(corr, seed=0)
    assert inliers.all()
    assert pose.translation_distance_to(truth) < 1e-9
    assert pose.rotation_angle_to(truth) < 1e-9


def test_ransac_with_outliers_many_seeds():
    rng = np.random.default_rng(8)
    fails = 0
    for seed in range(100):
        ref = rng.uniform(-0.1, 0.1, (60, 3))
        truth = random_pose(rng)
        tgt = truth.apply(ref)
        outliers = rng.choice(60, size=18, replace=False)  # 30%
        tgt[outliers] += rng.uniform(0.05, 0.3, (18, 3)) * rng.choice([-1, 1], (18, 3))
        corr = CorrespondenceSet(ref, tgt)
        pose, inliers = ransac_rigid_align(corr, seed=seed)
        ok = (
            pose.translation_distance_to(truth) < 1e-3
            and pose.rotation_angle_to(truth) < 1e-3
            and not inliers[outliers].any()
        )
        fails += not ok
        # reported inliers always satisfy the residual bound
        resid = np.linalg.norm(pose.apply(ref) - tgt, axis=1)
        assert (resid[inliers] <= 0.005 + 1e-12).all()
    assert fails <= 1  # >= 99% success


def test_ransac_rotation_always_proper(monkeypatch):
    # a radius as wide as the clouds gives the garbage pairs of every seed a
    # consensus to fit; at the default 5 mm only 1 seed of 20 reaches one
    monkeypatch.setattr(matching, "RANSAC_INLIER_EPS", 0.2)
    rng = np.random.default_rng(9)
    for seed in range(20):
        ref = rng.uniform(-0.1, 0.1, (10, 3))
        tgt = rng.uniform(-0.1, 0.1, (10, 3))  # garbage pairs
        pose, _ = ransac_rigid_align(CorrespondenceSet(ref, tgt), seed=seed)
        assert np.linalg.det(pose.rotation_matrix()) > 0


def test_ransac_degenerate_rejected():
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    with pytest.raises(DegenerateInputError):
        ransac_rigid_align(CorrespondenceSet(line, line), seed=0)
    with pytest.raises(DegenerateInputError):
        ransac_rigid_align(CorrespondenceSet(line[:2], line[:2]), seed=0)


def einsum_ransac_reference(c, seed, inlier_eps=0.005, iterations=2000):
    """ransac_rigid_align with the residual tensor built by einsum.

    Scores every drawn hypothesis, then keeps those that ransac_rigid_align
    scores before its stop rule ends the walk over blocks.
    """
    idx = _draw_triples(np.random.default_rng(seed), len(c), iterations)
    r_all, t_all, ok = _batched_minimal_fits(c.ref_points[idx], c.tgt_points[idx])
    mapped = np.einsum("kij,nj->kni", r_all, c.ref_points) + t_all[:, None, :]
    res = np.linalg.norm(mapped - c.tgt_points[None, :, :], axis=2)
    counts = np.where(ok, (res <= inlier_eps).sum(axis=1), -1)
    block = max(1, _SCORE_BLOCK_FLOATS // (3 * len(c)))
    scored = next(hi for hi in [*range(block, iterations, block), iterations]
                  if hi >= _hypotheses_needed(counts[:hi].max() / len(c)))
    inliers = res[int(np.argmax(counts[:scored]))] <= inlier_eps
    for _ in range(8):
        pose = kabsch_fit(c.ref_points[inliers], c.tgt_points[inliers])
        new = np.linalg.norm(pose.apply(c.ref_points) - c.tgt_points, axis=1) <= inlier_eps
        if new.sum() < 3:
            break
        stable = (new == inliers).all()
        inliers = new
        if stable:
            break
    pose = kabsch_fit(c.ref_points[inliers], c.tgt_points[inliers])
    return pose, np.linalg.norm(pose.apply(c.ref_points) - c.tgt_points, axis=1) <= inlier_eps


def test_ransac_matches_einsum_reference():
    rng = np.random.default_rng(24)
    for seed in range(20):
        ref = rng.uniform(-0.1, 0.1, (120, 3))
        tgt = random_pose(rng).apply(ref) + rng.normal(0, 0.002, ref.shape)
        outliers = rng.choice(120, size=40, replace=False)
        tgt[outliers] += rng.uniform(-0.05, 0.05, (40, 3))
        corr = CorrespondenceSet(ref, tgt)
        pose, inliers = ransac_rigid_align(corr, seed=seed)
        want_pose, want_inliers = einsum_ransac_reference(corr, seed)
        assert np.array_equal(inliers, want_inliers)
        assert pose.translation_distance_to(want_pose) < 1e-12
        assert pose.rotation_angle_to(want_pose) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 50, 1000])
def test_triples_are_distinct_and_in_range(n):
    idx = _draw_triples(np.random.default_rng(n), n, 24000)
    assert idx.shape == (24000, 3)
    assert idx.min() >= 0 and idx.max() < n
    assert (idx[:, 0] != idx[:, 1]).all() and (idx[:, 0] != idx[:, 2]).all() and (idx[:, 1] != idx[:, 2]).all()
    if n == 3:
        assert (np.sort(idx, axis=1) == [0, 1, 2]).all()
    if n == 4:
        # 24 ordered triples, each drawn about 1000 times (sd about 31)
        triples, counts = np.unique(idx, axis=0, return_counts=True)
        assert len(triples) == 24
        assert counts.min() > 850 and counts.max() < 1150


def test_triples_depend_only_on_the_seed():
    a = _draw_triples(np.random.default_rng(5), 80, 2000)
    assert a.tobytes() == _draw_triples(np.random.default_rng(5), 80, 2000).tobytes()
    assert a.tobytes() != _draw_triples(np.random.default_rng(6), 80, 2000).tobytes()


def test_stop_rule_hypothesis_counts(monkeypatch):
    assert matching.RANSAC_ITERATIONS == 2000
    assert _hypotheses_needed(1.0) == 1
    assert _hypotheses_needed(0.78) == 11
    assert _hypotheses_needed(0.16) == math.ceil(math.log(0.001) / math.log(1 - 0.16**3))
    assert 1650 <= _hypotheses_needed(0.16) <= 1750
    assert _hypotheses_needed(0.05) == 2000  # the uncapped rule asks for about 55,000
    # no consensus, all hypotheses degenerate (-1 / n), N about 7e21, w^3 = 0.0
    for w in (0.0, -1 / 40, 1e-7, 1e-120):
        assert _hypotheses_needed(w) == 2000
    monkeypatch.setattr(matching, "RANSAC_ITERATIONS", 5)
    assert _hypotheses_needed(0.78) == 5


def count_scored(monkeypatch):
    """Wrap _score_hypotheses; returns the list of block sizes it was called with."""
    blocks = []

    def counted(r_all, *args):
        blocks.append(len(r_all))
        return _score_hypotheses(r_all, *args)

    monkeypatch.setattr(matching, "_score_hypotheses", counted)
    return blocks


def test_ransac_stops_after_one_block_on_an_exact_copy(monkeypatch):
    blocks = count_scored(monkeypatch)
    rng = np.random.default_rng(28)
    ref = rng.uniform(-0.1, 0.1, (40, 3))
    pose, inliers = ransac_rigid_align(CorrespondenceSet(ref, random_pose(rng).apply(ref)), seed=0)
    assert blocks == [_SCORE_BLOCK_FLOATS // 120]
    assert inliers.all()


def test_ransac_scores_every_hypothesis_on_weak_consensus(monkeypatch):
    # 10 of 200 pairs agree (w = 0.05): the stop rule never ends the walk early
    blocks = count_scored(monkeypatch)
    rng = np.random.default_rng(29)
    ref = rng.uniform(-0.1, 0.1, (200, 3))
    tgt = rng.uniform(-0.1, 0.1, (200, 3))
    tgt[:10] = random_pose(rng).apply(ref[:10])
    try:
        ransac_rigid_align(CorrespondenceSet(ref, tgt), seed=0)
    except DegenerateInputError:
        pass
    assert sum(blocks) == 2000
    assert len(blocks) > 1


def unblocked_scores(r_all, t_all, ok, c, inlier_eps=0.005):
    """Hypothesis scoring as one (K, 3, N) buffer: (counts, best index, its residual row)."""
    diff = r_all @ c.ref_points.T
    diff += t_all[:, :, None]
    diff -= c.tgt_points.T
    diff *= diff
    res = diff[:, 0] + diff[:, 1]
    res += diff[:, 2]
    np.sqrt(res, out=res)
    counts = np.where(ok, (res <= inlier_eps).sum(axis=1), -1)
    best = int(np.argmax(counts))
    return counts, best, res[best]


def noisy_correspondences(rng, n):
    ref = rng.uniform(-0.1, 0.1, (n, 3))
    tgt = random_pose(rng).apply(ref) + rng.normal(0, 0.002, ref.shape)
    outliers = rng.choice(n, size=n // 3, replace=False)
    tgt[outliers] += rng.uniform(-0.05, 0.05, (len(outliers), 3))
    return CorrespondenceSet(ref, tgt)


def assert_scores_equal(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1] == want[1]
    assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("n, hypotheses, block",
                         [(3, 2000, 3640), (10, 2000, 1092), (435, 2000, 25), (10923, 40, 1)])
def test_blocked_scoring_matches_unblocked(n, hypotheses, block):
    assert max(1, _SCORE_BLOCK_FLOATS // (3 * n)) == block
    rng = np.random.default_rng(n)
    c = noisy_correspondences(rng, n)
    idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(hypotheses)])
    fits = _batched_minimal_fits(c.ref_points[idx], c.tgt_points[idx])
    want = unblocked_scores(*fits, c)
    assert_scores_equal(_score_hypotheses(*fits, c, 0.005), want)
    if n > 3:
        assert len(np.unique(want[0])) > 2


def test_blocked_scoring_tie_goes_to_the_earlier_block():
    rng = np.random.default_rng(25)
    ref = rng.uniform(-0.1, 0.1, (10, 3))
    c = CorrespondenceSet(ref, ref)
    block = _SCORE_BLOCK_FLOATS // 30
    early, late = 5, block + 7
    r_all = np.tile(np.eye(3), (2000, 1, 1))
    t_all = np.full((2000, 3), 1.0)  # no inliers
    t_all[early] = [0.001, 0.0, 0.0]
    t_all[late] = [0.002, 0.0, 0.0]  # as many inliers, other residuals
    ok = np.ones(2000, dtype=bool)
    counts, best, res = _score_hypotheses(r_all, t_all, ok, c, 0.005)
    assert counts[early] == counts[late] == 10
    assert best == early
    assert_scores_equal((counts, best, res), unblocked_scores(r_all, t_all, ok, c))


def test_blocked_scoring_of_all_degenerate_hypotheses():
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    c = CorrespondenceSet(line, line)
    rng = np.random.default_rng(26)
    idx = np.array([rng.choice(10, size=3, replace=False) for _ in range(2000)])
    fits = _batched_minimal_fits(c.ref_points[idx], c.tgt_points[idx])
    assert not fits[2].any()
    got = _score_hypotheses(*fits, c, 0.005)
    assert (got[0] == -1).all()
    assert_scores_equal(got, unblocked_scores(*fits, c))
    with pytest.raises(DegenerateInputError, match="no consensus set"):
        ransac_rigid_align(c, seed=0)


def test_ransac_memory_stays_bounded():
    c = noisy_correspondences(np.random.default_rng(27), 900)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ransac_rigid_align(c, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one (K, 3, N) residual buffer would be 43 MB at 900 pairs
    assert peak < 8e6


# --- non-rigid registration --------------------------------------------------------

def grid_cloud(n=12, scale=0.05):
    side = np.linspace(-scale, scale, n)
    gx, gy = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel(), 0.02 * np.sin(gx.ravel() / scale * np.pi)])


def test_cpd_identical_clouds_near_zero_displacement():
    pts = grid_cloud()
    dmap = nonrigid_register(pts, pts.copy())
    nu = dmap.displacement(pts)
    assert np.linalg.norm(nu, axis=1).max() < 1e-6


def test_cpd_recovers_planted_smooth_warp():
    pts = grid_cloud()
    warp = 0.005 * np.column_stack(
        [
            np.sin(pts[:, 1] / 0.05 * np.pi),
            np.cos(pts[:, 0] / 0.05 * np.pi),
            np.zeros(len(pts)),
        ]
    )
    target = pts + warp
    dmap = nonrigid_register(pts, target)
    moved = dmap.apply(pts)
    resid = np.linalg.norm(moved - target, axis=1)
    assert resid.mean() < 0.001


def test_cpd_heavy_regularization_stays_rigid(monkeypatch):
    rng = np.random.default_rng(11)
    pts = grid_cloud()
    target = pts + 0.004 * rng.normal(size=pts.shape)  # incoherent noise
    monkeypatch.setattr(nonrigid, "CPD_LAMBDA", 1e6)
    dmap = nonrigid_register(pts, target)
    moved = dmap.apply(pts)
    # with infinite coherence weight the best fit collapses toward no motion;
    # deviation from the best rigid fit of (pts -> moved) stays tiny
    fit = kabsch_fit(pts, moved)
    assert np.linalg.norm(fit.apply(pts) - moved, axis=1).max() < 1e-3


def test_cpd_requires_enough_points():
    with pytest.raises(ValueError):
        nonrigid_register(np.zeros((5, 3)), np.zeros((20, 3)))


@pytest.mark.parametrize("n_ref, n_tgt", [(949, 942), (419, 420), (300, 240)])
def test_cpd_sigma2_start_matches_broadcast_square(n_ref, n_tgt):
    rng = np.random.default_rng(n_ref)
    y, x = rng.normal(size=(n_ref, 3)), rng.normal(size=(n_tgt, 3))
    want = ((x[None, :, :] - y[:, None, :]) ** 2).sum() / (3.0 * n_ref * n_tgt)
    assert float(_initial_sigma2(y, x)).hex() == float(want).hex()


def dense_cpd_reference(ref_points, tgt_points):
    """The CPD loop with every distance built as an (N, M, 3) broadcast and
    the full (N, N) M-step solve of the kernel G.

    Returns (weights, final sigma^2, converged, completed iterations, phi)
    for comparison with nonrigid_register.
    """
    y0, x = np.asarray(ref_points, float), np.asarray(tgt_points, float)
    n_ref, n_tgt = len(y0), len(x)
    mu = y0.mean(axis=0)
    scale = float(np.sqrt(((y0 - mu) ** 2).sum(axis=1).mean()))
    y, xz = (y0 - mu) / scale, (x - mu) / scale
    beta, lam, w = nonrigid.CPD_BETA, nonrigid.CPD_LAMBDA, nonrigid.CPD_OUTLIER_W
    g = np.exp(-((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2) / (2.0 * beta**2))
    sigma2 = ((xz[None, :, :] - y[:, None, :]) ** 2).sum() / (3.0 * n_ref * n_tgt)
    warped, weights = y.copy(), np.zeros_like(y)
    converged, iterations = False, 0
    const_uniform = w / (1.0 - w) * n_ref / n_tgt
    for _ in range(nonrigid.CPD_MAX_ITERATIONS):
        d2 = ((xz[None, :, :] - warped[:, None, :]) ** 2).sum(axis=2)
        p = np.exp(-d2 / (2.0 * sigma2))
        denom = np.maximum(p.sum(axis=0) + const_uniform * (2.0 * np.pi * sigma2) ** 1.5, 1e-300)
        p = p / denom[None, :]
        p1, pt1 = p.sum(axis=1), p.sum(axis=0)
        n_p = p1.sum()
        px = p @ xz
        a = g * p1[:, None] + lam * sigma2 * np.eye(n_ref)
        weights = np.linalg.solve(a, px - p1[:, None] * y)
        warped = y + g @ weights
        iterations += 1
        sigma2_new = max(
            ((pt1 * (xz * xz).sum(axis=1)).sum() - 2.0 * (px * warped).sum()
             + (p1 * (warped * warped).sum(axis=1)).sum()) / (3.0 * n_p),
            1e-14,
        )
        done = abs(sigma2_new - sigma2) < nonrigid.CPD_TOLERANCE
        sigma2 = sigma2_new
        if done:
            converged = True
            break

    def phi(q):
        d2 = ((((q - mu) / scale)[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        return q + (np.exp(-d2 / (2.0 * beta**2)) @ weights) * scale

    return weights, sigma2, converged, iterations, phi


def broadcast_cpd_reference(ref_points, tgt_points):
    """The CPD loop with every distance built as an (N, M, 3) broadcast and
    the M-step solved in the kernel's eigenbasis, as nonrigid_register does.

    Returns (weights, final sigma^2, converged, completed iterations, phi)
    for comparison with nonrigid_register.
    """
    y0, x = np.asarray(ref_points, float), np.asarray(tgt_points, float)
    n_ref, n_tgt = len(y0), len(x)
    mu = y0.mean(axis=0)
    scale = float(np.sqrt(((y0 - mu) ** 2).sum(axis=1).mean()))
    y, xz = (y0 - mu) / scale, (x - mu) / scale
    beta, lam, w = nonrigid.CPD_BETA, nonrigid.CPD_LAMBDA, nonrigid.CPD_OUTLIER_W
    g = np.exp(-((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2) / (2.0 * beta**2))
    eigvals, q = scipy.linalg.eigh(g, subset_by_value=(_EIGEN_CUTOFF * n_ref, np.inf), driver="evr")
    # the weakest modes amplify the rounding of Q^T diag(P1) Q to about 1e-14 m
    # of phi, so it is formed as nonrigid_register forms it: (P1 Q)^T Q, Q C-ordered
    q = np.ascontiguousarray(q)
    sigma2 = ((xz[None, :, :] - y[:, None, :]) ** 2).sum() / (3.0 * n_ref * n_tgt)
    warped, alpha = y.copy(), np.zeros((len(eigvals), 3))
    converged, iterations = False, 0
    const_uniform = w / (1.0 - w) * n_ref / n_tgt
    for _ in range(nonrigid.CPD_MAX_ITERATIONS):
        d2 = ((xz[None, :, :] - warped[:, None, :]) ** 2).sum(axis=2)
        p = np.exp(-d2 / (2.0 * sigma2))
        denom = np.maximum(p.sum(axis=0) + const_uniform * (2.0 * np.pi * sigma2) ** 1.5, 1e-300)
        p = p / denom[None, :]
        p1, pt1 = p.sum(axis=1), p.sum(axis=0)
        n_p = p1.sum()
        px = p @ xz
        a = (p1[:, None] * q).T @ q + np.diag(lam * sigma2 / eigvals)
        alpha = np.linalg.solve(a, q.T @ (px - p1[:, None] * y))
        warped = y + q @ alpha
        iterations += 1
        sigma2_new = max(
            ((pt1 * (xz * xz).sum(axis=1)).sum() - 2.0 * (px * warped).sum()
             + (p1 * (warped * warped).sum(axis=1)).sum()) / (3.0 * n_p),
            1e-14,
        )
        done = abs(sigma2_new - sigma2) < nonrigid.CPD_TOLERANCE
        sigma2 = sigma2_new
        if done:
            converged = True
            break
    weights = q @ (alpha / eigvals[:, None])

    def phi(query):
        d2 = ((((query - mu) / scale)[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        return query + (np.exp(-d2 / (2.0 * beta**2)) @ weights) * scale

    return weights, sigma2, converged, iterations, phi


def cpd_case(case):
    """(reference, target, rng) of a named registration case."""
    rng = np.random.default_rng({"random": 21, "warped": 22, "subset": 23, "large_warped": 949}[case])
    if case == "large_warped":
        # a tight fit: sigma^2 ends near 2e-8, where the weakest kernel modes still move phi
        ref = rng.uniform(-0.05, 0.05, (949, 3))
        return ref, random_pose(rng, 0.02).apply(ref[:942] + 0.003 * np.sin(ref[:942, [1, 2, 0]] * 60)), rng
    ref = rng.uniform(-0.05, 0.05, (300, 3))
    if case == "random":
        tgt = rng.uniform(-0.05, 0.05, (280, 3))
    elif case == "warped":
        tgt = random_pose(rng, 0.02).apply(ref + 0.004 * np.sin(ref[:, [1, 2, 0]] * 60))
    else:
        tgt = ref[rng.permutation(300)[:240]] + rng.normal(0, 0.001, (240, 3))
    return ref, tgt, rng


@pytest.mark.parametrize("case", ["random", "warped", "subset"])
def test_cpd_matches_broadcast_reference(case):
    ref, tgt, rng = cpd_case(case)
    weights, sigma2, converged, iterations, phi = broadcast_cpd_reference(ref, tgt)
    dmap = nonrigid_register(ref, tgt)
    # Q (alpha / L) leaves about 1e-14 of the largest weight in the near-zero entries
    np.testing.assert_allclose(dmap.weights, weights, rtol=1e-12, atol=1e-12 * np.abs(weights).max())
    np.testing.assert_allclose(dmap.final_objective, sigma2, rtol=1e-12)
    assert dmap.converged == converged
    assert dmap.iterations == iterations
    query = np.vstack([ref, tgt, rng.uniform(-0.08, 0.08, (50, 3))])
    np.testing.assert_allclose(dmap.apply(query), phi(query), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("case", ["random", "warped", "subset", "large_warped"])
def test_cpd_low_rank_fit_matches_dense_solve(case):
    ref, tgt, rng = cpd_case(case)
    _, sigma2, converged, iterations, phi = dense_cpd_reference(ref, tgt)
    dmap = nonrigid_register(ref, tgt)
    assert dmap.iterations == iterations
    assert dmap.converged == converged
    query = np.vstack([ref, tgt, rng.uniform(-0.08, 0.08, (50, 3))])
    assert np.abs(dmap.apply(query) - phi(query)).max() < 1e-6  # meters
    np.testing.assert_allclose(dmap.final_objective, sigma2, rtol=1e-6)


def test_cpd_is_deterministic_low_rank_and_bounded_in_memory():
    ref, tgt, _ = cpd_case("large_warped")
    first = nonrigid_register(ref, tgt)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        second = nonrigid_register(ref, tgt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert first.weights.tobytes() == second.weights.tobytes()
    assert 1 <= first.rank < len(ref) // 4
    # the one-time (N_ref, N_tgt, 3) sigma^2 start is 21.5 MB and each
    # (N_ref, N_ref) array 7.2 MB; the dense M-step peaked at 47.7 MB
    assert peak < 30e6


def test_cpd_cold_call_is_bounded_in_memory():
    ref, tgt, _ = cpd_case("large_warped")
    nonrigid._kernel_basis.cache_clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        nonrigid_register(ref, tgt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert nonrigid._kernel_basis.cache_info().misses == 1
    assert peak < 30e6


# --- the reference's kernel eigenbasis, reused across targets ---------------------------

def test_cpd_warm_fit_is_byte_identical_to_a_cold_fit():
    ref, tgt, _ = cpd_case("warped")
    nonrigid._kernel_basis.cache_clear()
    cold = nonrigid_register(ref, tgt)
    warm = nonrigid_register(ref, tgt)
    info = nonrigid._kernel_basis.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold.weights.tobytes() == warm.weights.tobytes()
    assert cold.final_objective.hex() == warm.final_objective.hex()
    assert (cold.iterations, cold.rank) == (warm.iterations, warm.rank)


def test_cpd_basis_cache_misses_on_another_reference(monkeypatch):
    monkeypatch.setattr(nonrigid, "CPD_MAX_ITERATIONS", 1)
    ref, tgt, _ = cpd_case("subset")
    nonrigid._kernel_basis.cache_clear()
    nonrigid_register(ref, tgt)
    nudged = ref.copy()
    nudged[7, 1] = np.nextafter(nudged[7, 1], np.inf)  # one ulp
    nonrigid_register(nudged, tgt)
    nonrigid_register(ref, tgt * 1.1)  # the first reference again
    info = nonrigid._kernel_basis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_cpd_cached_basis_is_read_only(monkeypatch):
    monkeypatch.setattr(nonrigid, "CPD_MAX_ITERATIONS", 1)
    ref, tgt, _ = cpd_case("subset")
    nonrigid._kernel_basis.cache_clear()
    dmap = nonrigid_register(ref, tgt)
    eigvals, q = nonrigid._kernel_basis(dmap.control_points.tobytes(), len(ref))
    assert nonrigid._kernel_basis.cache_info().hits == 1
    assert q.shape == (len(ref), dmap.rank) and eigvals.shape == (dmap.rank,)
    assert not eigvals.flags.writeable and not q.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0] = 0.0


def test_cpd_basis_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(nonrigid, "CPD_MAX_ITERATIONS", 1)
    ref, tgt, _ = cpd_case("subset")
    nonrigid._kernel_basis.cache_clear()
    maxsize = nonrigid._kernel_basis.cache_info().maxsize
    assert maxsize == nonrigid._BASIS_CACHE_SIZE
    for k in range(maxsize + 3):
        distinct = ref.copy()
        distinct[k, 0] += 1e-3  # another reference each time
        nonrigid_register(distinct, tgt)
        assert nonrigid._kernel_basis.cache_info().currsize == min(k + 1, maxsize)
    assert nonrigid._kernel_basis.cache_info().misses == maxsize + 3


def test_cpd_frame_is_the_reference_s_own():
    ref, tgt, _ = cpd_case("warped")
    mu = ref.mean(axis=0)
    scale = float(np.sqrt(((ref - mu) ** 2).sum(axis=1).mean()))
    fits = [nonrigid_register(ref, tgt), nonrigid_register(ref, 1.2 * tgt)]
    for dmap in fits:
        assert dmap.mu.tobytes() == mu.tobytes() and dmap.scale == scale
        assert dmap.control_points.tobytes() == ((ref - mu) / scale).tobytes()
    assert fits[0].rank == fits[1].rank


def test_transfer_frames_do_not_depend_on_the_order_of_targets(ref_object):
    cloud, kf = ref_object
    rng = np.random.default_rng(29)
    targets = [
        PointCloud(random_pose(rng, 0.05).apply(cloud.points), cloud.features),
        PointCloud(random_pose(rng, 0.05).apply(1.2 * cloud.points), cloud.features),
    ]

    def frames(order):
        nonrigid._kernel_basis.cache_clear()
        out = {i: transfer_keypoint(cloud, kf, targets[i], TransferConfig(seed=7))[0] for i in order}
        return [np.concatenate([out[i].origin, out[i].x_axis, out[i].z_axis]).tobytes() for i in (0, 1)]

    assert frames((0, 1)) == frames((1, 0))
    assert nonrigid._kernel_basis.cache_info().hits == 1


@pytest.mark.parametrize("cloud", ["ref", "tgt"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_cpd_rejects_non_finite_points(cloud, value):
    ref, tgt, _ = cpd_case("subset")
    (ref if cloud == "ref" else tgt)[7, 1] = value
    with pytest.raises(DegenerateInputError, match="finite"):
        nonrigid_register(ref, tgt)


def test_cpd_rejects_clouds_of_one_coincident_point():
    with pytest.raises(DegenerateInputError, match="sigma"):
        nonrigid_register(np.zeros((20, 3)), np.zeros((20, 3)))


def test_exp_above_floor_matches_np_exp_bitwise():
    # the subnormal band and the floor's neighbours are where a wrong floor would show
    x = np.concatenate([
        np.linspace(-3000.0, 0.0, 300_001),
        np.linspace(-745.2, -708.0, 100_001),
        [-746.0, np.nextafter(-746.0, -np.inf), np.nextafter(-746.0, 0.0), -745.13, -745.14, -np.inf, np.nan],
    ])
    for shape in ((len(x),), (7, len(x) // 7)):
        p = x[: int(np.prod(shape))].reshape(shape)
        got = _exp_above_floor(p.copy(), np.empty(shape, dtype=bool))
        assert got.tobytes() == np.exp(p).tobytes()


def test_np_exp_is_positive_zero_below_the_floor():
    below = np.concatenate([
        np.linspace(-3000.0, np.nextafter(_EXP_FLOOR, -np.inf), 100_001), [-1e300, -np.finfo(float).max],
    ])
    e = np.exp(below)
    assert (e == 0.0).all() and not np.signbit(e).any()


@pytest.mark.parametrize("case", ["subset", "large_warped"])
def test_cpd_skips_exponents_below_the_floor_with_unchanged_bits(monkeypatch, case):
    ref, tgt, _ = cpd_case(case)
    skipped = []

    def counted(p, live):
        skipped.append(int((p < _EXP_FLOOR).sum()))
        return _exp_above_floor(p, live)

    def plain(p, live):
        return np.exp(p, out=p)

    monkeypatch.setattr(nonrigid, "_exp_above_floor", counted)
    masked = nonrigid_register(ref, tgt)
    monkeypatch.setattr(nonrigid, "_exp_above_floor", plain)
    dense = nonrigid_register(ref, tgt)
    assert max(skipped) > 0
    assert masked.weights.tobytes() == dense.weights.tobytes()
    assert masked.final_objective == dense.final_objective
    assert masked.iterations == dense.iterations and masked.converged == dense.converged


# --- the truncated E-step --------------------------------------------------------------

def normalized_pair(ref, tgt):
    """Both clouds in the reference's normalized frame, as nonrigid_register puts them."""
    mu = ref.mean(axis=0)
    scale = float(np.sqrt(((ref - mu) ** 2).sum(axis=1).mean()))
    return (ref - mu) / scale, (tgt - mu) / scale


def uniform_term(sigma2, n_ref, n_tgt):
    w = nonrigid.CPD_OUTLIER_W
    return w / (1.0 - w) * n_ref / n_tgt * (2.0 * np.pi * sigma2) ** 1.5


@pytest.mark.parametrize("n_ref", [10, 419, 949])
def test_cutoff_radius_bounds_every_dropped_kernel(n_ref):
    for sigma2 in np.logspace(-14, 3, 69):
        u = uniform_term(sigma2, n_ref, 420)
        r2 = _cutoff_radius2(sigma2, u, n_ref)
        assert r2 >= 0.0
        # a kernel beyond r is below eps u / N_ref, so a column drops less than eps u
        assert np.exp(-r2 / (2.0 * sigma2)) * n_ref <= _TRUNCATION_EPS * u * (1.0 + 1e-12)


@pytest.mark.parametrize("sigma2", [3e-2, 2e-3, 1e-4])
def test_truncated_responsibilities_drop_only_negligible_pairs(sigma2):
    ref, tgt, _ = cpd_case("large_warped")
    y, x = normalized_pair(ref, tgt)
    x = np.vstack([x, x[:5] + [10.0, 0.0, 0.0]])  # five columns 10 radii from every reference point
    u = uniform_term(sigma2, len(y), len(x))
    k = np.exp(scipy.spatial.distance.cdist(y, x, "sqeuclidean") / (-2.0 * sigma2))
    dense = k / (k.sum(axis=0) + u)
    p = np.full_like(dense, np.nan)
    _truncated_responsibilities(p, y, x, sigma2, u, np.sqrt(_cutoff_radius2(sigma2, u, len(y))))
    kept = p > 0.0
    assert np.isfinite(p).all() and not kept[:, -5:].any()
    assert 0 < kept.sum() < kept.size
    assert (dense[~kept] < _TRUNCATION_EPS / len(y)).all()
    np.testing.assert_allclose(p[kept], dense[kept], rtol=4 * _TRUNCATION_EPS, atol=0.0)


def small_object_cpd_pair(ref_object, monkeypatch):
    """The region pair that CPD fits when the small object moves rigidly (419 points)."""
    cloud, kf = ref_object
    target = PointCloud(random_pose(np.random.default_rng(16), 0.05).apply(cloud.points), cloud.features)
    seen = []

    def capture(ref_points, tgt_points):
        seen.append((ref_points, tgt_points))
        return nonrigid_register(ref_points, tgt_points)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "nonrigid_register", capture)
        transfer_keypoint(cloud, kf, target, TransferConfig(seed=1))
    (pair,) = seen
    return pair


@pytest.mark.parametrize("case", ["subset", "large_warped", "small_object", "outliers"])
def test_cpd_truncated_fit_matches_the_dense_fit(monkeypatch, request, case):
    if case == "small_object":
        ref, tgt = small_object_cpd_pair(request.getfixturevalue("ref_object"), monkeypatch)
    else:
        ref, tgt, _ = cpd_case("subset" if case == "outliers" else case)
    if case == "outliers":
        # 40 targets 10 reference radii away: their columns keep no pair once sigma is small
        radius = np.sqrt(((ref - ref.mean(axis=0)) ** 2).sum(axis=1).mean())
        tgt = np.vstack([tgt, tgt[:40] + [10.0 * radius, 0.0, 0.0]])
    truncated = nonrigid_register(ref, tgt)
    monkeypatch.setattr(nonrigid, "_TRUNCATE_BELOW_R2", 0.0)  # never truncate
    dense = nonrigid_register(ref, tgt)
    assert truncated.truncated_steps >= 1 and dense.truncated_steps == 0
    assert truncated.iterations == dense.iterations and truncated.converged == dense.converged
    assert np.isfinite(truncated.weights).all()
    query = np.vstack([ref, tgt])
    assert np.abs(truncated.apply(query) - dense.apply(query)).max() < 1e-9  # meters
    np.testing.assert_allclose(truncated.final_objective, dense.final_objective, rtol=1e-9)


def test_cpd_counts_truncated_esteps():
    assert nonrigid_register(*cpd_case("random")[:2]).truncated_steps == 0
    assert nonrigid_register(*cpd_case("large_warped")[:2]).truncated_steps >= 1


def test_cpd_reports_iterations_within_budget(monkeypatch):
    pts = grid_cloud()
    dmap = nonrigid_register(pts, pts + 0.002)
    assert dmap.converged and 1 <= dmap.iterations < nonrigid.CPD_MAX_ITERATIONS
    monkeypatch.setattr(nonrigid, "CPD_MAX_ITERATIONS", 5)
    monkeypatch.setattr(nonrigid, "CPD_TOLERANCE", 0.0)
    dmap = nonrigid_register(pts, pts + 0.002)
    assert dmap.iterations == 5 and not dmap.converged


# --- keypoint frame solve ------------------------------------------------------------

def test_frame_solve_identity_roundtrip():
    rng = np.random.default_rng(12)
    kf = KeypointFrame.from_pose(random_pose(rng, 0.05), "obj", "slave")
    pts = rng.uniform(-0.05, 0.05, (30, 3))
    out = solve_keypoint_frame(kf, pts, pts)
    assert out.as_pose().translation_distance_to(kf.as_pose()) <= 1e-9
    assert out.as_pose().rotation_angle_to(kf.as_pose()) <= 1e-9


def test_frame_solve_rigid_equivariance():
    rng = np.random.default_rng(13)
    kf = KeypointFrame.from_pose(random_pose(rng, 0.05), "obj", "slave")
    pts = rng.uniform(-0.05, 0.05, (30, 3))
    g = random_pose(rng)
    out = solve_keypoint_frame(kf, pts, g.apply(pts))
    want = g.compose(kf.as_pose())
    assert out.as_pose().translation_distance_to(want) <= 1e-9
    assert out.as_pose().rotation_angle_to(want) <= 1e-9


def test_frame_solve_beats_random_restarts():
    rng = np.random.default_rng(14)
    kf = KeypointFrame.from_pose(random_pose(rng, 0.05), "obj", "slave")
    pts = rng.uniform(-0.05, 0.05, (40, 3))
    warped = pts + 0.003 * rng.normal(size=pts.shape)
    out = solve_keypoint_frame(kf, pts, warped)

    local = kf.as_pose().inverse().apply(pts)

    def objective(pose):
        return ((pose.inverse().apply(warped) - local) ** 2).sum()

    best = objective(out.as_pose())
    for _ in range(2000):
        jitter = Pose.from_rotvec(rng.normal(scale=0.05, size=3), rng.normal(scale=0.003, size=3))
        assert best <= objective(out.as_pose().compose(jitter)) + 1e-12


def test_frame_solve_collinear_rejected():
    kf = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, 1), "obj", "slave")
    line = np.column_stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)])
    with pytest.raises(DegenerateInputError):
        solve_keypoint_frame(kf, line, line)


# --- full pipeline --------------------------------------------------------------------

def harmonic_features(points, d=8):
    """Synthetic smooth position-derived descriptors."""
    p = points / 0.05
    cols = [
        np.sin(p[:, 0]), np.cos(p[:, 0]),
        np.sin(p[:, 1]), np.cos(p[:, 1]),
        np.sin(p[:, 2]), np.cos(p[:, 2]),
        np.sin(2 * p[:, 0] + p[:, 1]), np.cos(2 * p[:, 1] - p[:, 2]),
    ]
    return np.column_stack(cols[:d])


def make_reference_object(rng, n=800):
    # box-ish blob, 10 cm scale
    pts = rng.uniform(-0.05, 0.05, (n, 3))
    return pts, harmonic_features(pts)


@pytest.fixture(scope="module")
def ref_object():
    rng = np.random.default_rng(15)
    pts, feats = make_reference_object(rng)
    kf = KeypointFrame.from_axes(
        np.array([0.03, 0.01, -0.02]), (1, 0, 0), (0, 0, -1), "ref", "slave"
    )
    return PointCloud(pts, feats), kf


def test_pipeline_rigid_copy_roundtrip(ref_object):
    cloud, kf = ref_object
    rng = np.random.default_rng(16)
    t = random_pose(rng, 0.05)
    target = PointCloud(t.apply(cloud.points), cloud.features)
    out, diag = transfer_keypoint(cloud, kf, target, TransferConfig(seed=1))
    want = t.compose(kf.as_pose())
    assert out.as_pose().translation_distance_to(want) < 1e-6
    assert out.as_pose().rotation_angle_to(want) < 1e-6
    assert diag.ransac_inliers >= 3


def test_pipeline_rigid_equivariance(ref_object):
    cloud, kf = ref_object
    rng = np.random.default_rng(17)
    g = random_pose(rng, 0.05)
    t1, _ = transfer_keypoint(cloud, kf, cloud, TransferConfig(seed=2))
    moved = PointCloud(g.apply(cloud.points), cloud.features)
    t2, _ = transfer_keypoint(cloud, kf, moved, TransferConfig(seed=2))
    want = g.compose(t1.as_pose())
    assert t2.as_pose().translation_distance_to(want) < 1e-6
    assert t2.as_pose().rotation_angle_to(want) < 1e-6


def test_pipeline_scaled_target_lands_on_corresponding_point(ref_object):
    cloud, kf = ref_object
    scaled = PointCloud(1.2 * cloud.points, cloud.features)  # features ride along
    out, diag = transfer_keypoint(cloud, kf, scaled, TransferConfig(seed=3))
    assert np.linalg.norm(out.origin - 1.2 * kf.origin) < 0.002


def test_pipeline_feature_noise_degrades_gracefully(ref_object):
    cloud, kf = ref_object
    rng = np.random.default_rng(18)
    t = random_pose(rng, 0.03)
    errs = []
    for sigma_frac in (0.0, 0.05):
        scale = sigma_frac * np.linalg.norm(cloud.features, axis=1, keepdims=True)
        noisy = cloud.features + rng.normal(size=cloud.features.shape) * scale
        target = PointCloud(t.apply(cloud.points), noisy)
        out, _ = transfer_keypoint(cloud, kf, target, TransferConfig(seed=4))
        want = t.compose(kf.as_pose())
        errs.append(out.as_pose().translation_distance_to(want))
    assert errs[0] < 1e-6
    assert errs[1] < 0.005


def test_pipeline_diagnostics_report_cpd_iterations_and_sigma2(ref_object):
    cloud, kf = ref_object
    rng = np.random.default_rng(19)
    target = PointCloud(random_pose(rng, 0.05).apply(cloud.points), cloud.features)
    _, diag = transfer_keypoint(cloud, kf, target, TransferConfig(seed=6))
    payload = json.loads(canonical_json(diag.to_json()))
    assert isinstance(payload["registration_iterations"], int)
    assert 1 <= payload["registration_iterations"] <= nonrigid.CPD_MAX_ITERATIONS
    assert payload["registration_sigma2"] > 0.0
    assert payload["registration_converged"] is True
    assert isinstance(payload["registration_rank"], int)
    assert 1 <= payload["registration_rank"] <= payload["ref_region_size"]
    assert isinstance(payload["registration_truncated_steps"], int)
    assert 1 <= payload["registration_truncated_steps"] <= payload["registration_iterations"]


def test_pipeline_stage_error_is_typed(ref_object):
    cloud, kf = ref_object
    flat = PointCloud(cloud.points, np.ones_like(cloud.features))  # constant features
    with pytest.raises(TransferStageError) as ei:
        transfer_keypoint(cloud, kf, flat, TransferConfig(seed=5))
    assert ei.value.stage in ("otsu", "similarity", "best_buddies")


# --- typed errors -----------------------------------------------------------------------

def _grid(n=12, d=2):
    return make_grid(np.column_stack([0.01 * np.arange(n), np.zeros(n), np.zeros(n)]), np.ones((n, d)))


_kf = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, 1), "obj", "slave")
_pts = np.random.default_rng(28).uniform(-0.05, 0.05, (20, 3))
_cloud = PointCloud(_pts, np.ones((20, 2)))
_bad = DegenerateInputError

TYPED_FAILURES = {
    "grid_centers_not_n_by_3": (_bad, lambda: FeatureGrid(np.zeros((4, 2)), np.zeros((4, 1)), 0.01)),
    "grid_features_misaligned": (_bad, lambda: FeatureGrid(np.zeros((1, 3)), np.zeros((2, 1)), 0.01)),
    "grid_duplicate_voxels": (_bad, lambda: FeatureGrid(np.zeros((2, 3)), np.zeros((2, 1)), 0.01)),
    "voxelize_without_features": (_bad, lambda: voxelize_cloud(PointCloud(_pts))),
    "voxelize_empty_cloud": (_bad, lambda: voxelize_cloud(PointCloud(_pts[:0], np.zeros((0, 2))))),
    "voxelize_zero_cell": (_bad, lambda: voxelize_cloud(_cloud, 0.0)),
    "voxelize_negative_cell": (_bad, lambda: voxelize_cloud(_cloud, -0.005)),
    "voxelize_nan_cell": (_bad, lambda: voxelize_cloud(_cloud, np.nan)),
    "voxelize_infinite_cell": (_bad, lambda: voxelize_cloud(_cloud, np.inf)),
    "transfer_config_nan_voxel": (ConfigError, lambda: TransferConfig(voxel_cell=np.nan)),
    "transfer_config_zero_voxel": (ConfigError, lambda: TransferConfig(voxel_cell=0.0)),
    "similarity_dimension_mismatch": (_bad, lambda: region_similarity(_grid(), np.ones(3))),
    "pairs_misaligned": (_bad, lambda: CorrespondenceSet(_pts[:3], _pts[:4])),
    "pairs_not_finite": (_bad, lambda: CorrespondenceSet(np.full((3, 3), np.nan), _pts[:3])),
    "best_buddies_empty_region": (_bad,
                                  lambda: relaxed_best_buddies(_grid(), _grid().select(_pts[:12, 0] > 1), 0.1)),
    "best_buddies_negative_radius": (ConfigError, lambda: relaxed_best_buddies(_grid(), _grid(), -0.1)),
    "best_buddies_nan_radius": (ConfigError, lambda: relaxed_best_buddies(_grid(), _grid(), np.nan)),
    "cpd_too_few_points": (_bad, lambda: nonrigid_register(_pts[:5], _pts)),
    "cpd_non_finite_points": (_bad, lambda: nonrigid_register(_pts, np.vstack([_pts[:-1], [[np.nan, 0.0, 0.0]]]))),
    "cpd_coincident_points": (_bad, lambda: nonrigid_register(np.zeros((20, 3)), np.zeros((20, 3)))),
    "deformation_not_finite": (_bad, lambda: nonrigid_register(_pts, _pts).apply([[np.inf, 0.0, 0.0]])),
    "frame_solve_misaligned": (_bad, lambda: solve_keypoint_frame(_kf, _pts[:4], _pts[:3])),
    "transfer_without_features": (_bad, lambda: transfer_keypoint(_cloud, _kf, PointCloud(_pts))),
    "transfer_dimension_mismatch": (_bad, lambda: transfer_keypoint(_cloud, _kf, PointCloud(_pts, _pts))),
}


@pytest.mark.parametrize("failure", sorted(TYPED_FAILURES))
def test_transfer_failure_raises_its_typed_error(failure):
    kind, call = TYPED_FAILURES[failure]
    with pytest.raises(kind) as ei:
        call()
    # a KeycontactError reaches the CLI's JSON error line; a ValueError still
    # reaches the callers that catch one
    assert isinstance(ei.value, KeycontactError) and isinstance(ei.value, ValueError)
