"""PLY point-cloud reader for featured clouds.

Covers ascii and binary_little_endian, vertex properties x, y, z plus
optional float feature channels f_0..f_{D-1}. Other elements, such as a
face list, are read past. A file that is not PLY, whose header or element
layout this reader does not support, that has no vertex element, whose
vertex element lacks x, y or z, whose body ends early, or whose ascii rows
do not hold one number per declared property raises SchemaError.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.recfunctions import structured_to_unstructured

from ..errors import SchemaError
from .cloud import PointCloud

__all__ = ["load_featured_cloud"]


def _parse_ply_header(fh):
    magic = fh.readline().strip()
    if magic != b"ply":
        raise SchemaError(f"not a PLY file: {fh.name}")
    fmt = None
    elements = []  # list of (name, count, [(type, prop_name), ...])
    while True:
        line = fh.readline()
        if not line:
            raise SchemaError(f"unterminated PLY header: {fh.name}")
        tokens = line.decode("ascii").split()
        if not tokens:
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "comment":
            continue
        elif tokens[0] == "element":
            elements.append((tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if tokens[1] == "list":
                elements[-1][2].append(("list", tokens[2], tokens[3], tokens[4]))
            else:
                elements[-1][2].append((tokens[1], tokens[2]))
        elif tokens[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise SchemaError(f"unsupported PLY format {fmt}: {fh.name}")
    return fmt, elements


_PLY_SCALARS = {
    "float": ("f", 4), "float32": ("f", 4),
    "double": ("d", 8), "float64": ("d", 8),
    "int": ("i", 4), "int32": ("i", 4),
    "uint": ("I", 4), "uint32": ("I", 4),
    "short": ("h", 2), "ushort": ("H", 2),
    "char": ("b", 1), "uchar": ("B", 1), "int8": ("b", 1), "uint8": ("B", 1),
}


def _read_exact(fh, size, element, path):
    raw = fh.read(size)
    if len(raw) < size:
        raise SchemaError(f"truncated PLY element {element!r}: {path}")
    return raw


def _read_ply(path):
    with open(path, "rb") as fh:
        fmt, elements = _parse_ply_header(fh)
        data = {}
        for name, count, props in elements:
            if any(p[0] == "list" for p in props):
                # face-style element with one list property
                if len(props) != 1:
                    raise SchemaError(f"mixed list/scalar PLY element {name!r}: {path}")
                _, count_t, idx_t, _ = props[0]
                rows = []
                if fmt == "ascii":
                    for _ in range(count):
                        vals = fh.readline().split()
                        if not vals or len(vals) < 1 + int(vals[0]):
                            raise SchemaError(f"truncated PLY element {name!r}: {path}")
                        rows.append([int(v) for v in vals[1 : 1 + int(vals[0])]])
                else:
                    cfmt, csz = _PLY_SCALARS[count_t]
                    ifmt, isz = _PLY_SCALARS[idx_t]
                    for _ in range(count):
                        (k,) = struct.unpack("<" + cfmt, _read_exact(fh, csz, name, path))
                        rows.append(list(struct.unpack(f"<{k}{ifmt}", _read_exact(fh, k * isz, name, path))))
                data[name] = rows
            else:
                names = [p[1] for p in props]
                if fmt == "ascii":
                    lines = [fh.readline() for _ in range(count)]
                    try:
                        vals = np.loadtxt(lines, ndmin=2, dtype=float) if count else np.empty((0, len(names)))
                    except ValueError as e:  # rows of unequal length, or a non-number
                        raise SchemaError(f"malformed PLY element {name!r}: {path}: {e}") from e
                    if len(vals) < count:
                        raise SchemaError(f"truncated PLY element {name!r}: {path}")
                    if vals.shape[1] != len(names):
                        raise SchemaError(
                            f"PLY element {name!r} rows hold {vals.shape[1]} values, the header"
                            f" declares {len(names)} properties: {path}"
                        )
                else:
                    row = np.dtype([("", "<" + _PLY_SCALARS[p[0]][0]) for p in props])
                    raw = _read_exact(fh, row.itemsize * count, name, path)
                    vals = structured_to_unstructured(np.frombuffer(raw, dtype=row), dtype=float)
                data[name] = (names, vals)
    return data


def load_featured_cloud(path) -> PointCloud:
    """Load a PLY point cloud; extra float properties f_0..f_{D-1} become features."""
    data = _read_ply(path)
    if "vertex" not in data:
        raise SchemaError(f"PLY file has no vertex element: {path}")
    names, vals = data["vertex"]
    missing = [c for c in ("x", "y", "z") if c not in names]
    if missing:
        raise SchemaError(f"PLY vertex element has no {', '.join(missing)} property: {path}")
    cols = [names.index(c) for c in ("x", "y", "z")]
    pts = vals[:, cols]
    fcols = sorted(
        (n for n in names if n.startswith("f_") and n[2:].isdigit()),
        key=lambda n: int(n[2:]),
    )
    feats = vals[:, [names.index(n) for n in fcols]] if fcols else None
    return PointCloud(pts, feats)
