"""Triangle meshes, signed-distance grids and bounding-volume queries.

A ShapeModel couples a closed triangle mesh with a precomputed uniform
signed-distance grid (negative strictly inside, positive outside). Grids are
read-only after construction, so shapes can be shared freely across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DegenerateInputError
from .pose import Pose

__all__ = [
    "TriangleMesh",
    "SdfGrid",
    "ShapeModel",
    "Obb",
    "sdf_query",
    "penetration_depth",
]

DEFAULT_CELL = 0.002  # 2 mm grid resolution, enough for mm-scale clearances
GRID_PADDING = 4  # grid cells beyond the mesh bounding box on each side
PENETRATION_SAMPLES = 2000  # surface samples per shape in penetration_depth
_QUERY_BLOCK = 8192  # points per SdfGrid.query sub-block; its scratch is about 1.3 MiB
_BLOCK_PAIRS = 12_000  # point-triangle pairs a distance block aims at
_MIN_BLOCK = 64  # fewest points in a distance block
_MAX_BLOCK = 2047  # most points a distance block aims at
# point-triangle pairs per winding-number chunk: each of its (rows, triangles)
# temporaries is about 256 KB, so they stay in cache and a build's peak stays small
_WINDING_PAIRS = 2**15
_CULL_SLACK = 1e-6  # m of culling slack per m of the largest coordinate
_SIGN_SLACK = 1e-6  # m a grid edge must clear the surface by to pass on a sign


@dataclass(frozen=True)
class TriangleMesh:
    """Vertices (V, 3) in meters and triangle faces (F, 3) as vertex indices.

    The corner arrays, face normals and face areas are computed once, as
    read-only arrays.
    """

    vertices: np.ndarray
    faces: np.ndarray
    _triangles: tuple = field(init=False, repr=False, compare=False)
    _normals: np.ndarray = field(init=False, repr=False, compare=False)
    _areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DegenerateInputError(f"vertices must be (V, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise DegenerateInputError(f"faces must be (F, 3) triangles, got {f.shape}")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise DegenerateInputError("face index out of range")
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        n = np.cross(b - a, c - a)
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        areas = 0.5 * norms[:, 0]
        norms[norms < 1e-30] = 1.0
        normals = n / norms
        for arr in (v, f, a, b, c, normals, areas):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        object.__setattr__(self, "_triangles", (a, b, c))
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_areas", areas)

    @property
    def triangles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._triangles

    def face_normals(self) -> np.ndarray:
        return self._normals

    def face_areas(self) -> np.ndarray:
        return self._areas

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def sample_surface(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Area-weighted uniform surface samples; returns (points, face indices).

        Faces are drawn proportionally to area, positions uniformly inside
        each drawn face via the sqrt barycentric trick. Deterministic per
        seed.
        """
        rng = np.random.default_rng(seed)
        areas = self.face_areas()
        total = areas.sum()
        if total <= 0:
            raise DegenerateInputError("mesh has zero surface area")
        face_idx = rng.choice(len(areas), size=n, p=areas / total)
        r1 = np.sqrt(rng.random(n))
        r2 = rng.random(n)
        a, b, c = self.triangles
        a, b, c = a[face_idx], b[face_idx], c[face_idx]
        pts = (1 - r1)[:, None] * a + (r1 * (1 - r2))[:, None] * b + (r1 * r2)[:, None] * c
        return pts, face_idx


class _TriangleTerms:
    """Point-independent per-triangle constants of the distance kernel."""

    def __init__(self, mesh: TriangleMesh):
        a, b, c = mesh.triangles
        ab = b - a
        ac = c - a
        n = np.cross(ab, ac)
        n2 = (n * n).sum(axis=1)
        # a zero-area triangle's plane term bounds no distance, so culling
        # never drops one
        self.degenerate = n2 < 1e-30
        bc = c - b
        # one row per constant, so a block gathers them in one take
        self.consts = np.stack([
            (a * ab).sum(axis=1),
            (b * ab).sum(axis=1),
            (c * ab).sum(axis=1),
            (a * ac).sum(axis=1),
            (b * ac).sum(axis=1),
            (c * ac).sum(axis=1),
            (a * a).sum(axis=1),
            (b * b).sum(axis=1),
            (c * c).sum(axis=1),
            (a * n).sum(axis=1),
            np.where(self.degenerate, 1.0, n2),
            np.maximum((ab * ab).sum(axis=1), 1e-30),
            np.maximum((ac * ac).sum(axis=1), 1e-30),
            np.maximum((bc * bc).sum(axis=1), 1e-30),
        ])
        self.vectors = (ab, ac, a, b, c, n)
        self.box_lo = np.minimum(np.minimum(a, b), c)
        self.box_hi = np.maximum(np.maximum(a, b), c)

    def min_sq_distances(self, p: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Min squared distance from each row of p to the triangles cols (default all).

        The products are full-width matmuls gathered to cols, so each value
        is bit-identical to the all-triangle pass; the classification runs in
        place on (len(p), len(cols)) arrays.
        """
        if cols is None:
            consts = self.consts
            p_ab, p_ac, p_a, p_b, p_c, p_n = (p @ v.T for v in self.vectors)
        else:
            consts = self.consts.take(cols, axis=1)
            p_ab, p_ac, p_a, p_b, p_c, p_n = ((p @ v.T).take(cols, axis=1) for v in self.vectors)
        a_ab, b_ab, c_ab, a_ac, b_ac, c_ac, a2, b2, c2, a_n, n2, len_ab2, len_ac2, len_bc2 = consts
        p2 = (p * p).sum(axis=1)[:, None]

        d1 = p_ab - a_ab
        d3 = p_ab - b_ab
        d5 = np.subtract(p_ab, c_ab, out=p_ab)
        d2 = p_ac - a_ac
        d4 = p_ac - b_ac
        d6 = np.subtract(p_ac, c_ac, out=p_ac)
        for v2, k2 in ((p_a, a2), (p_b, b2), (p_c, c2)):  # squared vertex distances
            v2 *= 2.0
            np.subtract(p2, v2, out=v2)
            v2 += k2
        ap2, bp2, cp2 = p_a, p_b, p_c

        d_sq = p_n  # interior fallback: squared distance to the plane
        d_sq -= a_n
        np.square(d_sq, out=d_sq)
        d_sq /= n2
        # later regions override earlier ones: edges bc, ac, ab, then
        # vertices c, b, a (Ericson's order, read backwards)
        s = d4 - d3
        t = d5 - d6
        mask = (s >= 0) & (t >= 0)
        np.multiply(d3, d6, out=t)
        t -= d5 * d4  # va
        mask &= t <= 0
        np.square(s, out=s)
        s /= len_bc2
        np.subtract(bp2, s, out=s)
        np.copyto(d_sq, s, where=mask)
        # edge ac: vb = d5 d2 - d1 d6; edge ab: vc = d1 d4 - d3 d2
        for lead, u, w, tail, len2 in ((d2, d5, d1, d6, len_ac2), (d1, d4, d2, d3, len_ab2)):
            np.multiply(lead, u, out=t)
            t -= w * tail
            mask = t <= 0
            mask &= lead >= 0
            mask &= tail <= 0
            np.square(lead, out=s)
            s /= len2
            np.subtract(ap2, s, out=s)
            np.copyto(d_sq, s, where=mask)
        np.copyto(d_sq, cp2, where=(d6 >= 0) & (d5 <= d6))
        np.copyto(d_sq, bp2, where=(d3 >= 0) & (d4 <= d3))
        np.copyto(d_sq, ap2, where=(d1 <= 0) & (d2 <= 0))
        return d_sq.min(axis=1)


def _point_triangle_distances(points: np.ndarray, mesh: TriangleMesh) -> np.ndarray:
    """Unsigned min distance from each point to the mesh surface.

    Region classification (vertex / edge / face) in the Ericson style, but
    expressed through point-independent precomputation plus matmuls so no
    (N, M, 3) temporaries are materialized.

    Culling: the points are sorted into compact cubes of about
    _BLOCK_PAIRS / M points each (at least _MIN_BLOCK), the cube side set
    by the points' extent and count. Every point of a block lies within h,
    half the block's box diagonal, of the box centre c, so its nearest
    distance is at most D(c) + h, where D(c) is one exact query at c. A
    triangle whose bounding box lies farther than D(c) + h + slack from
    the block's box is nearer to none of its points than that, and is not
    classified. The slack, _CULL_SLACK times the largest coordinate (at
    least 1 m), lies far above the kernel's rounding, about sqrt(eps) |p|
    near the surface. Zero-area triangles are always classified.

    Bit-identity: every classified pair takes its products from full-width
    matmuls over the block's rows, gathered to the kept triangles, and the
    same element-wise arithmetic as the all-triangle pass; the min is exact.
    So each distance equals the all-triangle pass's bit for bit. A 1-row
    matmul goes through gemv, whose rounding differs from the GEMM rows,
    so blocks have 2 to 4095 rows; only a 1-point input is one row.
    """
    points = np.asarray(points, dtype=float)
    terms = _TriangleTerms(mesh)
    n_tri = len(terms.degenerate)
    rows = min(max(_MIN_BLOCK, _BLOCK_PAIRS // max(n_tri, 1)), _MAX_BLOCK)
    order, cuts = _cube_blocks(points, rows)
    pts = points[order]
    starts, stops = cuts[:-1], cuts[1:]
    reach = None
    if len(starts) > 1 and not terms.degenerate.all():
        box_lo = np.minimum.reduceat(pts, starts, axis=0)
        box_hi = np.maximum.reduceat(pts, starts, axis=0)
        centres = 0.5 * (box_lo + box_hi)
        live = np.flatnonzero(~terms.degenerate) if terms.degenerate.any() else None
        reach = np.concatenate([
            terms.min_sq_distances(centres[lo : lo + rows], live) for lo in range(0, len(centres), rows)])
        np.maximum(reach, 0.0, out=reach)
        np.sqrt(reach, out=reach)
        reach += 0.5 * np.sqrt(((box_hi - box_lo) ** 2).sum(axis=1))
        reach += _CULL_SLACK * max(1.0, float(np.abs(points).max()), float(np.abs(mesh.vertices).max()))
        reach *= reach
    d_sq = np.empty(len(points))
    for k, (lo, hi) in enumerate(zip(starts, stops)):
        cols = None
        if reach is not None:
            gap = np.maximum(terms.box_lo - box_hi[k], box_lo[k] - terms.box_hi)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            near = gap.sum(axis=1) <= reach[k]
            near |= terms.degenerate
            cols = np.flatnonzero(near)
        d_sq[lo:hi] = terms.min_sq_distances(pts[lo:hi], cols)
    out = np.empty(len(points))
    out[order] = d_sq
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    return out


def _cube_blocks(points: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort points into cubes of about rows points each.

    Returns the sorting permutation and the block cuts into it: block k is
    order[cuts[k]:cuts[k + 1]]. A cube of more than 2 rows points is split
    into pieces of rows, consecutive pieces merge while they fit in rows
    points, and a 1-point block joins its neighbour.
    """
    n = len(points)
    if n <= rows:
        return np.arange(n), np.array([0, n])
    origin = points.min(axis=0)
    ext = points.max(axis=0) - origin
    live = ext > 0
    if live.any():
        side = (float(np.prod(ext[live])) * rows / n) ** (1.0 / live.sum())
        side = max(side, float(ext.max()) / 2**20)  # keeps the cube keys in int64
        cell = ((points - origin) / side).astype(np.int64)
        dims = cell.max(axis=0) + 1
        keys = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
        order = np.argsort(keys, kind="stable")
        bounds = (np.flatnonzero(np.diff(keys[order])) + 1).tolist()
    else:
        order = np.arange(n)
        bounds = []
    ends: list[int] = []
    for lo, hi in zip([0, *bounds], [*bounds, n]):
        if hi - lo > 2 * rows:
            ends.extend(range(lo + rows, hi, rows))
        ends.append(hi)
    cuts = [0]
    for prev, end in zip([0, *ends[:-1]], ends):
        if end - cuts[-1] > rows and prev > cuts[-1]:
            cuts.append(prev)
    cuts.append(n)
    cuts_arr = np.array(cuts)
    single = np.flatnonzero(np.diff(cuts_arr) == 1)
    # a 1-point block drops its start cut (joins the block before it), or
    # its end cut when it comes first
    return order, np.delete(cuts_arr, np.where(single > 0, single, 1))


def _winding_numbers(points: np.ndarray, mesh: TriangleMesh) -> np.ndarray:
    """Generalized winding number per query point (1 inside, 0 outside).

    Uses the solid-angle atan2 form with triple products expanded into
    point-independent per-triangle constants plus matmuls.

    The points go in chunks of max(2, _WINDING_PAIRS // triangles) rows, so
    every (rows, triangles) temporary stays near 256 KB. A 1-row matmul goes
    through gemv, whose rounding differs from the GEMM rows, so a last
    chunk of one row joins the chunk before it; only a 1-point input is one
    row. Each value is the same whatever the chunking.
    """
    va, vb, vc = mesh.triangles
    bxc = np.cross(vb, vc)
    det_const = (va * bxc).sum(axis=1)
    det_lin = bxc + np.cross(vc, va) + np.cross(va, vb)
    ab = (va * vb).sum(axis=1)
    bc = (vb * vc).sum(axis=1)
    ca = (vc * va).sum(axis=1)
    a2 = (va * va).sum(axis=1)
    b2 = (vb * vb).sum(axis=1)
    c2 = (vc * vc).sum(axis=1)

    rows = max(2, _WINDING_PAIRS // max(len(va), 1))
    cuts = [*range(0, len(points), rows), len(points)]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    out = np.empty(len(points))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        p = points[lo:hi]
        p2 = (p * p).sum(axis=1)[:, None]
        pa = p @ va.T
        pb = p @ vb.T
        pc = p @ vc.T
        la = np.sqrt(np.maximum(a2[None, :] - 2.0 * pa + p2, 0.0))
        lb = np.sqrt(np.maximum(b2[None, :] - 2.0 * pb + p2, 0.0))
        lc = np.sqrt(np.maximum(c2[None, :] - 2.0 * pc + p2, 0.0))
        dot_ab = ab[None, :] - pa - pb + p2
        dot_bc = bc[None, :] - pb - pc + p2
        dot_ca = ca[None, :] - pc - pa + p2
        num = det_const[None, :] - p @ det_lin.T
        den = la * lb * lc + dot_ab * lc + dot_bc * la + dot_ca * lb
        omega = 2.0 * np.arctan2(num, den)
        out[lo:hi] = omega.sum(axis=1) / (4.0 * np.pi)
    return out


def _far_edges(d: np.ndarray, cell: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis edges (a, b) of the node grid with d[a] + d[b] > cell + _SIGN_SLACK,
    as flat node indices into d; such an edge cannot meet the surface."""
    node = np.arange(d.size).reshape(d.shape)
    heads, tails = [], []
    for k in range(3):
        lead = (slice(None),) * k + (slice(None, -1),)
        trail = (slice(None),) * k + (slice(1, None),)
        far = d[lead] + d[trail] > cell + _SIGN_SLACK
        heads.append(node[lead][far])
        tails.append(node[trail][far])
    return np.concatenate(heads), np.concatenate(tails)


def _component_labels(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Connected-component labels 0..C-1 of the undirected graph on n nodes
    with edges (heads[i], tails[i]).

    Union-find in whole-array passes. Each pass hooks the larger root of
    every edge that still joins two trees under the smaller one; where a
    root is hooked by several edges, any one write may win and each is a
    valid hook. Then it pointer-jumps until every node points at its root.
    A parent is always smaller than its node, so no cycle can form, and a
    component's root ends as its smallest node. Labels count the roots in
    node order, as a sort-free np.unique(parent, return_inverse=True).
    """
    parent = np.arange(n)
    while len(heads):
        ra, rb = parent[heads], parent[tails]
        open_ = ra != rb
        heads, tails, ra, rb = heads[open_], tails[open_], ra[open_], rb[open_]
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1)[parent]


@dataclass(frozen=True)
class SdfGrid:
    """Uniform signed-distance grid; trilinear interpolation on query."""

    origin: np.ndarray  # world position of grid node (0,0,0)
    cell: float
    values: np.ndarray  # (nx, ny, nz)
    # the raveled values shifted to each cell corner (dx, dy, dz), dz fastest:
    # corner k of the cell at flat index a is _corners[k][a]
    _corners: tuple = field(init=False, repr=False, compare=False)
    _top: np.ndarray = field(init=False, repr=False, compare=False)  # (3, 1) clamp bound in cells

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        v = np.ascontiguousarray(self.values, dtype=float)
        o.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "values", v)
        flat = v.ravel()
        sx, sy = v.shape[1] * v.shape[2], v.shape[2]
        shifts = [dx * sx + dy * sy + dz for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
        object.__setattr__(self, "_corners", tuple(flat[s:] for s in shifts))
        object.__setattr__(self, "_top", (np.array(v.shape) - 1 - 1e-9)[:, None])

    @property
    def cell_diagonal(self) -> float:
        return float(self.cell * np.sqrt(3.0))

    def query(self, points: np.ndarray) -> np.ndarray:
        """Trilinearly interpolated signed distance at local-frame points.

        Points outside the grid domain are clamped to the boundary; the
        Euclidean offset from the clamp position is added on top, which keeps
        the exterior extension positive and monotone along outward rays. The
        8 cell corners are read by flat index from shifted views of the
        raveled values. Each output is bit-identical to the 8-corner formula
        with np.clip and np.linalg.norm, whatever the batch it is queried in.

        The points are taken in sub-blocks of _QUERY_BLOCK, and every
        temporary is written into scratch kept per thread and sized for one
        sub-block, so a call allocates only the array it returns; that array
        is new, and no later query writes to it. When every point of a
        sub-block lies inside, a scalar 0.0 stands in for its offsets; like
        the +0.0 offset an inside point gets otherwise, it turns a -0.0
        interpolation into +0.0.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(len(pts))
        rows = pts.T  # grid coordinates are computed as rows (3, N)
        for lo in range(0, len(pts), _QUERY_BLOCK):
            self._query_block(rows[:, lo : lo + _QUERY_BLOCK], out[lo : lo + _QUERY_BLOCK])
        return out

    def _query_block(self, rows: np.ndarray, out: np.ndarray) -> None:
        """query() of at most _QUERY_BLOCK points given as rows (3, n), into out (n,)."""
        n = len(out)
        tmp = _SCRATCH.floats[: 18 * n].reshape(18, n)  # contiguous rows, however small n is
        g, g_cl, f1 = tmp[0:3], tmp[3:6], tmp[6:9]
        shape = self.values.shape
        np.subtract(rows, self.origin[:, None], out=g)
        g /= self.cell
        np.maximum(g, 0.0, out=g_cl)
        np.minimum(g_cl, self._top, out=g_cl)
        off = np.subtract(g, g_cl, out=g)
        if off.any():
            off *= self.cell
            off *= off
            outside = np.add(off[0], off[1], out=tmp[9])  # np.linalg.norm's sum order
            outside += off[2]
            np.sqrt(outside, out=outside)
        else:
            outside = 0.0
        # 0 <= g_cl < shape - 1, so truncation floors to a cell index <= shape - 2
        i = _SCRATCH.ints[: 3 * n].reshape(3, n)
        np.copyto(i, g_cl, casting="unsafe")
        f = g_cl  # the fractional part, in place
        f -= i
        np.subtract(1.0, f, out=f1)
        fx, fy, fz = f
        gx, gy, gz = f1
        at = i[0]  # flat index of corner (0, 0, 0)
        at *= shape[1] * shape[2]
        i[1] *= shape[2]
        at += i[1]
        at += i[2]
        # in range by construction (a NaN point reads some corner, but its
        # fractions make it NaN), so mode="clip" reads the same values
        # without the copy that take(out=) makes under mode="raise"
        v000, v001, v010, v011, v100, v101, v110, v111 = (
            c.take(at, out=v, mode="clip") for c, v in zip(self._corners, tmp[10:]))
        c0 = _lerp(_lerp(v000, v100, gx, fx), _lerp(v010, v110, gx, fx), gy, fy)
        c1 = _lerp(_lerp(v001, v101, gx, fx), _lerp(v011, v111, gx, fx), gy, fy)
        np.multiply(c0, gz, out=out)
        c1 *= fz
        out += c1
        out += outside


class _QueryScratch(threading.local):
    """Per-thread temporaries of SdfGrid._query_block, sized for one sub-block:
    18 float rows (coordinates, clamped coordinates, complements, offset and
    8 corner values) and 3 index rows."""

    def __init__(self):
        self.floats = np.empty(18 * _QUERY_BLOCK)
        self.ints = np.empty(3 * _QUERY_BLOCK, dtype=np.intp)


_SCRATCH = _QueryScratch()


def _lerp(a: np.ndarray, b: np.ndarray, ga: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """a * ga + b * fb, in place in a and b."""
    a *= ga
    b *= fb
    a += b
    return a


class ShapeModel:
    """Mesh + signed-distance grid (object frame).

    The mesh must be closed: every edge shared by exactly two faces, else
    DegenerateInputError. Only then is the winding number constant off the
    surface, which the grid's sign rule relies on (see _build_grid).

    Construction is the only mutating phase; afterwards instances are
    read-only and safe to share. Surface-sample sets are memoized per
    (count, seed).
    """

    def __init__(self, mesh: TriangleMesh, cell: float = DEFAULT_CELL):
        if cell <= 0:
            raise ConfigError({"cell": f"must be positive, got {cell}"})
        f = mesh.faces
        edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
        _, shared = np.unique(edges[:, 0] * len(mesh.vertices) + edges[:, 1], return_counts=True)
        open_edges = int((shared != 2).sum())
        if open_edges or not len(shared):
            raise DegenerateInputError(
                f"mesh is not closed: {open_edges} of {len(shared)} edges not shared by exactly two faces")
        self.mesh = mesh
        self.cell = float(cell)
        self.grid = self._build_grid(mesh, self.cell)
        self._sample_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _build_grid(mesh: TriangleMesh, cell: float) -> SdfGrid:
        """Signed distances at the grid nodes: the exact unsigned distance,
        negated where the generalized winding number has |w| > 0.5.

        The sign is found by flood fill. The unsigned distance is 1-Lipschitz
        and an axis edge (a, b) is one cell long, so no edge with
        dist[a] + dist[b] > cell + _SIGN_SLACK meets the surface; on a closed
        mesh the winding number is the same at both ends. The components of
        the graph of such edges (_far_edges, labelled by _component_labels)
        share one sign, which _winding_numbers evaluates at each component's
        farthest node only. Only the partition matters: whatever the labels,
        the same node stands for each component. A node within the slack of
        the surface has no such edge and gets its own winding number. The
        slack (1e-6 m) lies far above the rounding of the distances and the
        node positions; the tests pin the grids bit-identical to evaluating
        the winding number at every node.
        """
        lo, hi = mesh.aabb()
        origin = lo - GRID_PADDING * cell
        top = hi + GRID_PADDING * cell
        shape = np.ceil((top - origin) / cell).astype(int) + 1
        xs = origin[0] + cell * np.arange(shape[0])
        ys = origin[1] + cell * np.arange(shape[1])
        zs = origin[2] + cell * np.arange(shape[2])
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        dist = _point_triangle_distances(pts, mesh)
        heads, tails = _far_edges(dist.reshape(shape), cell)
        labels = _component_labels(len(pts), heads, tails)
        # the farthest node of each component stands for it
        order = np.argsort(-dist, kind="stable")
        _, first = np.unique(labels[order], return_index=True)
        wn = _winding_numbers(pts[order[first]], mesh)
        sign = np.where(np.abs(wn) > 0.5, -1.0, 1.0)[labels]
        return SdfGrid(origin, cell, (sign * dist).reshape(shape))

    def surface_samples(self, n: int = 2000, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        key = (n, seed)
        if key not in self._sample_cache:
            self._sample_cache[key] = self.mesh.sample_surface(n, seed)
        return self._sample_cache[key]

    def sdf_local(self, points: np.ndarray) -> np.ndarray:
        return self.grid.query(points)


@dataclass(frozen=True)
class Obb:
    """Oriented bounding box: center (m), half-extents (m), unit quaternion."""

    center: np.ndarray
    half_extents: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        h = np.asarray(self.half_extents, dtype=float).reshape(3)
        q = np.asarray(self.orientation, dtype=float).reshape(4)
        if (h <= 0).any():
            raise ConfigError({"half_extents": "must be strictly positive"})
        n = np.linalg.norm(q)
        if abs(n - 1.0) > 1e-6:
            raise ConfigError({"orientation": "quaternion must be unit norm"})
        q = q / n
        for name, val in (("center", c), ("half_extents", h), ("orientation", q)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)


def sdf_query(shape: ShapeModel, pose: Pose, points: np.ndarray) -> np.ndarray:
    """Signed distance (m) from world-frame point(s) to the posed shape.

    Negative inside. Scalar in, scalar out; (N, 3) in, (N,) out.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    local = pose.inverse().apply(np.atleast_2d(pts))
    vals = shape.sdf_local(local)
    return float(vals[0]) if single else vals


def penetration_depth(a: ShapeModel, pose_a: Pose, b: ShapeModel, pose_b: Pose) -> float:
    """Sampled interpenetration depth (m), >= 0.

    Maximum over PENETRATION_SAMPLES surface samples (seed 0) of either
    shape of the negated signed distance to the other, clamped at zero.
    Resolution limited by the sample count and the SDF cell diagonal.
    Raises DegenerateInputError for a pose with a non-finite translation,
    whose depth is undefined rather than 0.
    """
    if not (np.isfinite(pose_a.t).all() and np.isfinite(pose_b.t).all()):
        raise DegenerateInputError("penetration depth needs finite poses")
    pa, _ = a.surface_samples(PENETRATION_SAMPLES, 0)
    pb, _ = b.surface_samples(PENETRATION_SAMPLES, 0)
    a_in_b = b.sdf_local(pose_b.inverse().apply(pose_a.apply(pa)))
    b_in_a = a.sdf_local(pose_a.inverse().apply(pose_b.apply(pb)))
    depth = max(float(-a_in_b.min()), float(-b_in_a.min()))
    return max(0.0, depth)

