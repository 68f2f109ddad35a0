"""Region-to-keypoint transfer: similarity, matching, registration, frame solve.

Each module imports scipy inside the functions that call it, so importing
this package loads no scipy module; the first transfer pays for it.
"""

from .grids import DEFAULT_VOXEL, FeatureGrid, otsu_region, region_similarity, voxelize_cloud
from .matching import (
    CorrespondenceSet,
    kabsch_fit,
    median_nn_feature_distance,
    ransac_rigid_align,
    relaxed_best_buddies,
)
from .nonrigid import DeformationMap, nonrigid_register
from .pipeline import TransferConfig, TransferDiagnostics, solve_keypoint_frame, transfer_keypoint

__all__ = [
    "FeatureGrid",
    "DEFAULT_VOXEL",
    "voxelize_cloud",
    "region_similarity",
    "otsu_region",
    "CorrespondenceSet",
    "relaxed_best_buddies",
    "ransac_rigid_align",
    "kabsch_fit",
    "median_nn_feature_distance",
    "DeformationMap",
    "nonrigid_register",
    "TransferConfig",
    "TransferDiagnostics",
    "solve_keypoint_frame",
    "transfer_keypoint",
]
