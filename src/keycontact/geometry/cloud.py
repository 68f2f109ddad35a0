"""Point clouds with optional per-point feature vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DegenerateInputError

__all__ = ["PointCloud", "cloud_min_distance", "nearest_neighbors", "pairs_within"]


@dataclass(frozen=True)
class PointCloud:
    """Points in meters, shape (N, 3); features optional, shape (N, D)."""

    points: np.ndarray
    features: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DegenerateInputError(f"points must be (N, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise DegenerateInputError("points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.features is not None:
            f = np.asarray(self.features, dtype=float)
            if f.ndim != 2 or f.shape[0] != pts.shape[0]:
                raise DegenerateInputError(
                    f"features must be (N, D) aligned with points, got {f.shape}"
                )
            f.setflags(write=False)
            object.__setattr__(self, "features", f)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def feature_dim(self) -> Optional[int]:
        return None if self.features is None else self.features.shape[1]

    def centroid(self) -> np.ndarray:
        if len(self) == 0:
            raise DegenerateInputError("empty cloud has no centroid")
        return self.points.mean(axis=0)


def nearest_neighbors(query: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to and index of the nearest target point, per query point.

    This and pairs_within are the package's kd-tree queries. Each imports
    scipy inside it, so code that never asks for a neighbour runs without
    scipy.
    """
    from scipy.spatial import cKDTree

    return cKDTree(target).query(query, k=1)


def pairs_within(a: np.ndarray, b: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of every pair with |a_i - b_j| <= radius.

    The pairs are sorted by i, then by j. Both trees are built per call.
    """
    from scipy.spatial import cKDTree

    found = cKDTree(a).sparse_distance_matrix(cKDTree(b), radius, output_type="ndarray")
    key = np.sort(found["i"].astype(np.int64) * len(b) + found["j"])
    return np.divmod(key, len(b))


def cloud_min_distance(a: PointCloud, b: PointCloud) -> float:
    """Minimum Euclidean distance over all point pairs of the two clouds.

    Symmetric by construction. Raises on an empty operand.
    """
    if len(a) == 0 or len(b) == 0:
        raise DegenerateInputError("cloud_min_distance requires non-empty clouds")
    # KD-tree on the larger cloud, query with the smaller one
    small, big = (a, b) if len(a) < len(b) else (b, a)
    d, _ = nearest_neighbors(small.points, big.points)
    return float(np.min(d))
