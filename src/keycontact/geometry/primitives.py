"""Procedural watertight meshes: boxes, extruded prisms, icospheres."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInputError
from .shape import TriangleMesh

__all__ = ["box_mesh", "prism_mesh", "icosphere_mesh"]


def box_mesh(extents, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Axis-aligned box with given full extents, outward-facing triangles."""
    e = np.asarray(extents, dtype=float) * 0.5
    c = np.asarray(center, dtype=float)
    signs = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=float,
    )
    verts = c + signs * e
    # index layout: bit 2 = x, bit 1 = y, bit 0 = z
    faces = np.array(
        [
            [0, 1, 3], [0, 3, 2],  # -x
            [4, 6, 7], [4, 7, 5],  # +x
            [0, 4, 5], [0, 5, 1],  # -y
            [2, 3, 7], [2, 7, 6],  # +y
            [0, 2, 6], [0, 6, 4],  # -z
            [1, 5, 7], [1, 7, 3],  # +z
        ],
        dtype=np.int64,
    )
    return TriangleMesh(verts, faces)


def prism_mesh(polygon_xy: np.ndarray, z_min: float, z_max: float) -> TriangleMesh:
    """Extrude a CCW simple polygon (star-shaped about its origin) along z.

    Caps are triangulated as fans from the polygon centroid, which is valid
    for the radially-defined profiles used here.
    """
    poly = np.asarray(polygon_xy, dtype=float)
    n = len(poly)
    if n < 3:
        raise DegenerateInputError("polygon needs at least 3 vertices")
    centroid = poly.mean(axis=0)
    bot = np.column_stack([poly[:, 0], poly[:, 1], np.full(n, z_min)])
    top = np.column_stack([poly[:, 0], poly[:, 1], np.full(n, z_max)])
    cb = np.array([[centroid[0], centroid[1], z_min]])
    ct = np.array([[centroid[0], centroid[1], z_max]])
    verts = np.vstack([bot, top, cb, ct])
    i_cb, i_ct = 2 * n, 2 * n + 1
    faces = []
    for i in range(n):
        j = (i + 1) % n
        # side quad, outward for CCW polygon
        faces.append([i, j, n + j])
        faces.append([i, n + j, n + i])
        # bottom fan (normal -z) and top fan (normal +z)
        faces.append([i_cb, j, i])
        faces.append([i_ct, n + i, n + j])
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def icosphere_mesh(radius: float = 1.0, subdivisions: int = 2) -> TriangleMesh:
    """Unit icosahedron subdivided and projected onto a sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        new_faces = []
        verts_list = [v for v in verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                verts_list.append(0.5 * (verts_list[i] + verts_list[j]))
                edge_mid[key] = len(verts_list) - 1
            return edge_mid[key]

        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True) * radius
    return TriangleMesh(verts, faces)
