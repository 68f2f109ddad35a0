"""Core spatial types and queries shared by every other module."""

from .cloud import PointCloud, cloud_min_distance
from .meshio import load_featured_cloud
from .pose import (
    Pose,
    average_quaternions,
    quat_from_rotvec,
    quat_to_matrix,
    quat_to_rotvec,
    rotation_angle_between,
)
from .primitives import box_mesh, icosphere_mesh, prism_mesh
from .shape import (
    DEFAULT_CELL,
    Obb,
    SdfGrid,
    ShapeModel,
    TriangleMesh,
    penetration_depth,
    sdf_query,
)

__all__ = [
    "Pose",
    "average_quaternions",
    "quat_from_rotvec",
    "quat_to_rotvec",
    "quat_to_matrix",
    "rotation_angle_between",
    "PointCloud",
    "cloud_min_distance",
    "TriangleMesh",
    "SdfGrid",
    "ShapeModel",
    "Obb",
    "DEFAULT_CELL",
    "sdf_query",
    "penetration_depth",
    "box_mesh",
    "prism_mesh",
    "icosphere_mesh",
    "load_featured_cloud",
]
