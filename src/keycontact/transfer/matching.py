"""Relaxed best-buddies feature matching and RANSAC rigid alignment.

scipy's cdist is imported inside the functions that call it. Neighbours in
feature space come from its dense distance matrices; nearest points in 3-D
space come from geometry.cloud.nearest_neighbors, the one kd-tree query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateInputError
from ..geometry import Pose
from .grids import FeatureGrid

__all__ = [
    "CorrespondenceSet",
    "relaxed_best_buddies",
    "kabsch_fit",
    "ransac_rigid_align",
    "median_nn_feature_distance",
]

RANSAC_ITERATIONS = 2000  # Fischler & Bolles' sample cap
RANSAC_INLIER_EPS = 0.005  # inlier radius (m)
RANSAC_CONFIDENCE = 0.999  # p of the adaptive stop rule
_SCORE_BLOCK_FLOATS = 2**15  # 256 KB of float64 per scoring block


@dataclass(frozen=True)
class CorrespondenceSet:
    """Putative point pairs (reference -> target)."""

    ref_points: np.ndarray
    tgt_points: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.ref_points, dtype=float).reshape(-1, 3)
        t = np.asarray(self.tgt_points, dtype=float).reshape(-1, 3)
        if len(r) != len(t):
            raise DegenerateInputError(f"pair arrays must align: {len(r)} reference, {len(t)} target points")
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise DegenerateInputError("correspondence points must be finite")
        for name, v in (("ref_points", r), ("tgt_points", t)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.ref_points)


def median_nn_feature_distance(grid: FeatureGrid) -> float:
    """Median nearest-neighbor distance in feature space (self-matches excluded)."""
    from scipy.spatial.distance import cdist

    d = cdist(grid.features, grid.features)
    np.fill_diagonal(d, np.inf)
    return float(np.median(d.min(axis=1)))


def relaxed_best_buddies(ref: FeatureGrid, tgt: FeatureGrid, d_t: float) -> CorrespondenceSet:
    """Mutual-neighborhood correspondences between two feature grids.

    Pair (i, j) qualifies when the target feature j lies within d_t of the
    nearest target neighbor of reference feature i, and symmetrically the
    reference feature i lies within d_t of the nearest reference neighbor of
    target feature j. d_t = 0 recovers strict mutual nearest neighbors.
    """
    if not d_t >= 0:
        raise ConfigError({"d_t": f"must be >= 0, got {d_t}"})
    if len(ref) == 0 or len(tgt) == 0:
        raise DegenerateInputError("both regions must be non-empty")
    from scipy.spatial.distance import cdist

    # exact differences: identical features must be at distance exactly 0,
    # or d_t = 0 drops true mutual pairs
    cross = cdist(ref.features, tgt.features)
    nn_tgt_of_ref = np.argmin(cross, axis=1)  # per ref voxel
    nn_ref_of_tgt = np.argmin(cross, axis=0)  # per tgt voxel
    # compared before the gather, so only booleans are gathered
    near_t = cdist(tgt.features, tgt.features) <= d_t
    near_r = cdist(ref.features, ref.features) <= d_t
    # cond_a[i, j]: d(F_t[nn_t(i)], F_t[j]) <= d_t; cond_b: symmetric in ref
    cond_a = near_t[nn_tgt_of_ref, :]
    cond_b = near_r[:, nn_ref_of_tgt]
    ii, jj = np.nonzero(cond_a & cond_b)
    return CorrespondenceSet(ref.centers[ii], tgt.centers[jj])


def kabsch_fit(ref: np.ndarray, tgt: np.ndarray) -> Pose:
    """Least-squares rigid transform mapping ref points onto tgt points.

    SVD solution with det(R) = +1 enforced (no reflections), every pair
    weighted equally. Raises on degenerate (collinear / coincident) support.
    """
    ref = np.asarray(ref, dtype=float)
    tgt = np.asarray(tgt, dtype=float)
    if len(ref) < 3:
        raise DegenerateInputError("rigid fit needs at least 3 pairs")
    w = np.full(len(ref), 1.0 / len(ref))
    rc = (w[:, None] * ref).sum(axis=0)
    tc = (w[:, None] * tgt).sum(axis=0)
    h = (w[:, None] * (ref - rc)).T @ (tgt - tc)
    u, s, vt = np.linalg.svd(h)
    if s[1] < 1e-12 * max(1.0, s[0]):
        raise DegenerateInputError("correspondences are collinear; rotation underdetermined")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose.from_rotation(r, tc - r @ rc)


def _batched_minimal_fits(ref3: np.ndarray, tgt3: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized 3-point Kabsch over K minimal samples.

    ref3, tgt3: (K, 3, 3). Returns rotations (K, 3, 3), translations (K, 3)
    and a validity mask (degenerate samples flagged False).
    """
    rc = ref3.mean(axis=1, keepdims=True)
    tc = tgt3.mean(axis=1, keepdims=True)
    h = np.einsum("kij,kil->kjl", ref3 - rc, tgt3 - tc)
    u, s, vt = np.linalg.svd(h)
    ok = s[:, 1] > 1e-12 * np.maximum(1.0, s[:, 0])
    det = np.linalg.det(np.einsum("kij,kjl->kil", vt.transpose(0, 2, 1), u.transpose(0, 2, 1)))
    flip = np.where(det < 0, -1.0, 1.0)
    diag = np.zeros((len(ref3), 3, 3))
    diag[:, 0, 0] = 1.0
    diag[:, 1, 1] = 1.0
    diag[:, 2, 2] = flip
    r = np.einsum("kij,kjl,klm->kim", vt.transpose(0, 2, 1), diag, u.transpose(0, 2, 1))
    t = tc[:, 0, :] - np.einsum("kij,kj->ki", r, rc[:, 0, :])
    return r, t, ok


def _score_hypotheses(
    r_all: np.ndarray, t_all: np.ndarray, ok: np.ndarray, c: CorrespondenceSet, inlier_eps: float
) -> tuple[np.ndarray, int, np.ndarray]:
    """Inlier count of every given hypothesis, the first best one and its residuals.

    Builds one (K, 3, N) residual buffer whose coordinate rows are
    contiguous; the squares add as np.linalg.norm adds them, (x + y) + z.
    ransac_rigid_align hands it one block of max(1, 2**15 // (3 N))
    hypotheses at a time, so the buffer stays near 256 KB. Degenerate
    samples count -1 and ties go to the earliest hypothesis. Returns
    (counts (K,), best index, its (N,) residuals).
    """
    diff = r_all @ c.ref_points.T
    diff += t_all[:, :, None]
    diff -= c.tgt_points.T
    diff *= diff
    res = diff[:, 0]
    res += diff[:, 1]
    res += diff[:, 2]
    np.sqrt(res, out=res)
    counts = np.where(ok, (res <= inlier_eps).sum(axis=1), -1)
    best = int(np.argmax(counts))
    return counts, best, res[best].copy()


def _draw_triples(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k uniform ordered triples of distinct indices in [0, n), in one draw.

    Column j is drawn from n - j values and shifted past the indices
    already taken, smaller one first, which maps it one-to-one onto the
    values left. Returns (k, 3) int64.
    """
    idx = rng.integers(0, [n, n - 1, n - 2], size=(k, 3))
    a, b, c = idx.T
    b += b >= a
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    c += c >= lo
    c += c >= hi
    return idx


def _hypotheses_needed(inlier_frac: float) -> int:
    """Fischler & Bolles' stop rule N = ceil(log(1 - p) / log(1 - w^3)).

    N minimal samples hold at least one all-inlier triple with probability
    RANSAC_CONFIDENCE when a fraction w of the pairs are inliers. Capped at
    RANSAC_ITERATIONS, which is also the count when w <= 0 or w^3
    underflows to 0.
    """
    if inlier_frac >= 1.0:
        return 1
    miss = math.log1p(-inlier_frac**3) if inlier_frac > 0.0 else 0.0
    if miss == 0.0:
        return RANSAC_ITERATIONS
    return min(RANSAC_ITERATIONS, math.ceil(math.log1p(-RANSAC_CONFIDENCE) / miss))


def ransac_rigid_align(c: CorrespondenceSet, seed: int = 0) -> tuple[Pose, np.ndarray]:
    """Adaptive RANSAC rigid fit over putative correspondences.

    Draws RANSAC_ITERATIONS minimal samples of 3 pairs in one call, then
    fits and scores them one block of max(1, 2**15 // (3 N)) at a time (see
    _score_hypotheses), so the working set is one buffer of about 256 KB
    whatever the number of pairs. After each block it stops once the
    hypotheses scored reach the stop rule's count for the best inlier
    fraction so far (_hypotheses_needed), which RANSAC_ITERATIONS caps. The
    largest consensus set, earliest on ties, is refit by unweighted Kabsch,
    at most 9 times, until the inlier set stabilizes; the inliers are
    always those of the returned transform, so every reported inlier has
    residual <= RANSAC_INLIER_EPS under it. Deterministic per seed.
    Returns (transform ref->tgt, inlier mask).
    """
    iterations, inlier_eps = RANSAC_ITERATIONS, RANSAC_INLIER_EPS
    n = len(c)
    if n < 3:
        raise DegenerateInputError("RANSAC needs at least 3 correspondences")
    idx = _draw_triples(np.random.default_rng(seed), n, iterations)
    block = max(1, _SCORE_BLOCK_FLOATS // (3 * n))
    best_count, best_res = -1, None
    for lo in range(0, iterations, block):
        hi = min(lo + block, iterations)
        fits = _batched_minimal_fits(c.ref_points[idx[lo:hi]], c.tgt_points[idx[lo:hi]])
        counts, j, res = _score_hypotheses(*fits, c, inlier_eps)
        if counts[j] > best_count:
            best_count, best_res = int(counts[j]), res
        if hi >= _hypotheses_needed(best_count / n):
            break
    if best_count < 3:
        raise DegenerateInputError("no consensus set of size >= 3 found")
    inliers = best_res <= inlier_eps
    for _ in range(9):
        pose = kabsch_fit(c.ref_points[inliers], c.tgt_points[inliers])
        new_inliers = np.linalg.norm(pose.apply(c.ref_points) - c.tgt_points, axis=1) <= inlier_eps
        if new_inliers.sum() < 3:
            raise DegenerateInputError("consensus collapsed during refinement")
        stable = (new_inliers == inliers).all()
        inliers = new_inliers
        if stable:
            break
    return pose, inliers
