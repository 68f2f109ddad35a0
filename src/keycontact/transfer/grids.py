"""Voxel feature grids, cosine similarity fields, Otsu region extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError
from ..geometry import PointCloud

__all__ = ["FeatureGrid", "voxelize_cloud", "region_similarity", "otsu_region"]

DEFAULT_VOXEL = 0.005  # 5 mm
OTSU_BINS = 256  # histogram bins of otsu_region


@dataclass(frozen=True)
class FeatureGrid:
    """Sparse voxel grid: one position (m) per occupied cell, D-dim features.

    Each position lies in its own cell: floor(center / cell) is unique per
    voxel. voxelize_cloud places it at the centroid of the cell's members.
    """

    centers: np.ndarray
    features: np.ndarray
    cell: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        f = np.asarray(self.features, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3:
            raise DegenerateInputError(f"centers must be (N, 3), got shape {c.shape}")
        if f.ndim != 2 or f.shape[0] != c.shape[0]:
            raise DegenerateInputError(
                f"features must be (N, D) aligned with {len(c)} centers, got shape {f.shape}"
            )
        # two positions in one cell would mean the grid was not reduced
        key = np.floor(c / self.cell).astype(np.int64)
        if len(np.unique(key, axis=0)) != len(key):
            raise DegenerateInputError("duplicate voxel coordinates")
        c.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "features", f)

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def select(self, mask: np.ndarray) -> "FeatureGrid":
        return FeatureGrid(self.centers[mask], self.features[mask], self.cell)

    def feature_at(self, point: np.ndarray) -> np.ndarray:
        """Feature of the voxel nearest to a query point."""
        d = np.linalg.norm(self.centers - np.asarray(point, dtype=float), axis=1)
        return self.features[int(np.argmin(d))]


def voxelize_cloud(cloud: PointCloud, cell: float = DEFAULT_VOXEL) -> FeatureGrid:
    """Reduce a featured cloud to a voxel grid of member means.

    A voxel sits at the centroid of its member points and carries the mean
    of their features, so a rigidly moved copy of a cloud whose voxel
    membership is unchanged yields the rigidly moved voxels. Output is
    sorted by voxel index, so the result is independent of input point
    order. The cell must be finite and positive.
    """
    if not (np.isfinite(cell) and cell > 0):
        raise DegenerateInputError(f"voxel cell must be finite and > 0, got {cell}")
    if cloud.features is None:
        raise DegenerateInputError("voxelize_cloud needs per-point features")
    if len(cloud) == 0:
        raise DegenerateInputError("empty cloud")
    idx = np.floor(cloud.points / cell).astype(np.int64)
    uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3 + cloud.features.shape[1]))
    counts = np.zeros(len(uniq))
    np.add.at(sums, inverse, np.hstack([cloud.points, cloud.features]))
    np.add.at(counts, inverse, 1.0)
    means = sums / counts[:, None]
    centers = _keep_in_cell(means[:, :3], uniq, cell)
    return FeatureGrid(centers, means[:, 3:], cell)


def _keep_in_cell(centers: np.ndarray, idx: np.ndarray, cell: float) -> np.ndarray:
    """Move centroids that rounded out of their voxel back in, an ulp at a time.

    The mean of members just below a cell edge can round onto the edge, and
    floor(center / cell) then names the next cell. FeatureGrid keys voxels
    by that floor, so each centroid must re-derive its members' cell.
    """
    inside = (idx + 0.5) * cell
    while True:
        out = np.floor(centers / cell) != idx
        if not out.any():
            return centers
        centers[out] = np.nextafter(centers[out], inside[out])


def region_similarity(grid: FeatureGrid, reference_feature: np.ndarray) -> np.ndarray:
    """Cosine similarity of every voxel feature against a reference feature.

    Zero-norm features (either side) yield similarity 0 rather than NaN.
    """
    ref = np.asarray(reference_feature, dtype=float).ravel()
    if ref.shape[0] != grid.feature_dim:
        raise DegenerateInputError(
            f"reference feature has {ref.shape[0]} dimensions, the grid {grid.feature_dim}"
        )
    rn = np.linalg.norm(ref)
    norms = np.linalg.norm(grid.features, axis=1)
    denom = norms * rn
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(denom > 0, grid.features @ ref / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(sim, -1.0, 1.0)


def otsu_region(similarities: np.ndarray) -> tuple[np.ndarray, float]:
    """Otsu threshold over an OTSU_BINS histogram of the similarity values.

    Returns (boolean mask of values above the threshold, threshold). The
    threshold maximizes the between-class variance; when several bin edges
    tie (empty valley between modes), the middle of the maximizing range is
    used so the cut lands mid-valley. Constant input has no bimodal structure
    and raises.
    """
    vals = np.asarray(similarities, dtype=float).ravel()
    if len(vals) < 2 or np.ptp(vals) == 0.0:
        raise DegenerateInputError("needs at least two distinct values")
    lo, hi = float(vals.min()), float(vals.max())
    hist, edges = np.histogram(vals, bins=OTSU_BINS, range=(lo, hi))
    p = hist.astype(float) / hist.sum()
    omega0 = np.cumsum(p)[:-1]  # class probability below edge k+1
    centers = 0.5 * (edges[:-1] + edges[1:])
    mu_cum = np.cumsum(p * centers)
    mu_total = mu_cum[-1]
    mu0 = mu_cum[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma_b = (mu_total * omega0 - mu0) ** 2 / (omega0 * (1.0 - omega0))
    sigma_b = np.where((omega0 > 0) & (omega0 < 1), sigma_b, -np.inf)
    best = sigma_b.max()
    ties = np.nonzero(sigma_b >= best - 1e-15 * max(1.0, abs(best)))[0]
    k = int(round(0.5 * (ties[0] + ties[-1])))
    threshold = float(edges[k + 1])
    return vals > threshold, threshold
