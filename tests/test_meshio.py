import json
import struct

import numpy as np
import pytest

from keycontact.bank import SkillRecord
from keycontact.cli import main
from keycontact.errors import SchemaError
from keycontact.geometry import Pose, load_featured_cloud
from keycontact.geometry.meshio import _read_ply
from keycontact.keypoints import KeypointFrame
from keycontact.serialize import canonical_json
from keycontact.transfer import nonrigid


def write_ply(path, names, rows, fmt="ascii", scalar="float", faces=()):
    """A vertex element with one scalar property per name, then an optional triangle face element."""
    rows = np.asarray(rows, dtype=float)
    header = ["ply", f"format {fmt} 1.0", "comment written by the test", f"element vertex {len(rows)}"]
    header += [f"property {scalar} {n}" for n in names]
    if len(faces):
        header += [f"element face {len(faces)}", "property list uchar int vertex_indices"]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if fmt == "ascii":
            for r in rows:
                fh.write((" ".join(repr(float(v)) for v in r) + "\n").encode("ascii"))
            for f in faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n".encode("ascii"))
        else:
            fh.write(rows.astype("<f4" if scalar == "float" else "<f8").tobytes())
            for f in faces:
                fh.write(struct.pack("<B3i", 3, *f))


def _points(n=6):
    return np.random.default_rng(0).uniform(-0.05, 0.05, (n, 3))


@pytest.mark.parametrize("fmt, scalar", [("ascii", "float"), ("binary_little_endian", "float"),
                                         ("binary_little_endian", "double")])
def test_feature_columns_load_in_numeric_order(tmp_path, fmt, scalar):
    pts = _points()
    feats = pts[:, :1] + np.arange(12)  # column i holds i + x
    # exporters that sort property names put f_10 and f_11 before f_2
    names = sorted(f"f_{i}" for i in range(12))
    cols = [feats[:, int(n[2:])] for n in names]
    path = tmp_path / "cloud.ply"
    write_ply(path, ["x", "y", "z", *names], np.column_stack([pts, *cols]), fmt, scalar)
    cloud = load_featured_cloud(path)
    tol = 1e-6 if scalar == "float" else 0.0
    assert np.allclose(cloud.points, pts, rtol=0, atol=tol)
    assert cloud.feature_dim == 12
    assert np.allclose(cloud.features, feats, rtol=0, atol=tol * 20)


def test_cloud_without_feature_columns_has_no_features(tmp_path):
    path = tmp_path / "plain.ply"
    write_ply(path, ["x", "y", "z", "nx"], np.column_stack([_points(), np.ones(6)]))
    cloud = load_featured_cloud(path)
    assert cloud.features is None
    assert np.allclose(cloud.points, _points(), rtol=0, atol=1e-15)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_element_with_no_vertices_loads_as_an_empty_cloud(tmp_path, fmt):
    path = tmp_path / "empty.ply"
    write_ply(path, ["x", "y", "z", "f_0"], np.zeros((0, 4)), fmt)
    cloud = load_featured_cloud(path)
    assert cloud.points.shape == (0, 3) and cloud.features.shape == (0, 1)


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_face_element_after_the_vertices_is_read_past(tmp_path, fmt):
    pts = _points()
    path = tmp_path / "mesh.ply"
    write_ply(path, ["x", "y", "z", "f_0"], np.column_stack([pts, pts[:, 2]]), fmt,
              faces=[(0, 1, 2), (3, 4, 5)])
    cloud = load_featured_cloud(path)
    assert np.allclose(cloud.points, pts, rtol=0, atol=1e-6)
    assert np.allclose(cloud.features[:, 0], pts[:, 2], rtol=0, atol=1e-6)


# --- malformed files -------------------------------------------------------------

def _header_only(path, *lines):
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return path


def test_not_a_ply_file_is_a_schema_error(tmp_path):
    path = _header_only(tmp_path / "cloud.ply", "v 0 0 0", "v 1 0 0")
    with pytest.raises(SchemaError, match="not a PLY file"):
        load_featured_cloud(path)


def test_unterminated_header_is_a_schema_error(tmp_path):
    path = _header_only(tmp_path / "cloud.ply", "ply", "format ascii 1.0", "element vertex 1",
                        "property float x")
    with pytest.raises(SchemaError, match="unterminated PLY header"):
        load_featured_cloud(path)


def test_unsupported_format_is_a_schema_error(tmp_path):
    path = tmp_path / "cloud.ply"
    write_ply(path, ["x", "y", "z"], _points(), "binary_big_endian")
    with pytest.raises(SchemaError, match="unsupported PLY format binary_big_endian"):
        load_featured_cloud(path)


def test_mixed_list_and_scalar_element_is_a_schema_error(tmp_path):
    path = _header_only(tmp_path / "cloud.ply", "ply", "format ascii 1.0", "element vertex 1",
                        "property float x", "property float y", "property float z",
                        "element face 1", "property uchar flags", "property list uchar int vertex_indices",
                        "end_header", "0 0 0", "1 3 0 0 0")
    with pytest.raises(SchemaError, match="mixed list/scalar PLY element 'face'"):
        load_featured_cloud(path)


def test_file_without_a_vertex_element_is_a_schema_error(tmp_path):
    path = _header_only(tmp_path / "cloud.ply", "ply", "format ascii 1.0", "element face 0",
                        "property list uchar int vertex_indices", "end_header")
    with pytest.raises(SchemaError, match="no vertex element"):
        load_featured_cloud(path)


@pytest.mark.parametrize("coordinate", ["x", "y", "z"])
def test_vertex_element_without_a_coordinate_is_a_schema_error(tmp_path, coordinate):
    path = tmp_path / "cloud.ply"
    write_ply(path, [c for c in ("x", "y", "z", "f_0") if c != coordinate], _points()[:, :3])
    with pytest.raises(SchemaError, match=f"vertex element has no {coordinate} property"):
        load_featured_cloud(path)


def _truncated_ascii(path, element):
    """An ascii file whose header declares one more vertex or face than its body holds."""
    write_ply(path, ["x", "y", "z"], _points(3), faces=[(0, 1, 2), (2, 1, 0)] if element == "face" else ())
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))  # the last vertex, or the last face
    return path


@pytest.mark.parametrize("element", ["vertex", "face"])
def test_truncated_ascii_body_is_a_schema_error(tmp_path, element):
    path = _truncated_ascii(tmp_path / "cloud.ply", element)
    with pytest.raises(SchemaError, match=f"truncated PLY element '{element}'"):
        load_featured_cloud(path)


def _ascii_rows(path, rows):
    """An ascii file whose header declares x, y and z over three hand-written vertex rows."""
    return _header_only(path, "ply", "format ascii 1.0", "element vertex 3", "property float x",
                        "property float y", "property float z", "end_header", *rows)


@pytest.mark.parametrize("rows", [("0 0 0", "1 0", "2 2 2"), ("0 0", "1 0", "2 2")], ids=["one_row", "every_row"])
def test_ascii_row_with_too_few_values_is_a_schema_error(tmp_path, rows):
    with pytest.raises(SchemaError, match="PLY element 'vertex'"):
        load_featured_cloud(_ascii_rows(tmp_path / "cloud.ply", rows))


@pytest.mark.parametrize("rows", [("0 0 0", "1 0 0 7", "2 2 2"), ("0 0 0 1", "1 0 0 1", "2 2 2 1")],
                         ids=["one_row", "every_row"])
def test_ascii_row_with_too_many_values_is_a_schema_error(tmp_path, rows):
    with pytest.raises(SchemaError, match="PLY element 'vertex'"):
        load_featured_cloud(_ascii_rows(tmp_path / "cloud.ply", rows))


def _truncated(path, faces=()):
    write_ply(path, ["x", "y", "z"], _points(), "binary_little_endian", faces=faces)
    path.write_bytes(path.read_bytes()[:-5])
    return path


@pytest.mark.parametrize("element, faces", [("vertex", ()), ("face", [(0, 1, 2), (3, 4, 5)])], ids=["vertex", "face"])
def test_truncated_binary_body_is_a_schema_error(tmp_path, element, faces):
    with pytest.raises(SchemaError, match=f"truncated PLY element '{element}'"):
        load_featured_cloud(_truncated(tmp_path / "cloud.ply", faces))


def test_binary_vertices_decode_as_the_per_row_struct_reference(tmp_path):
    types = ["float", "double", "int", "uint", "short", "ushort", "char", "uchar", "float32", "uint8"]
    codes = "fdiIhHbBfB"
    rng = np.random.default_rng(16)
    rows = [(float(np.float32(rng.normal())), rng.normal(), -(2**31) + i, 2**32 - 1 - i, -7 - i, 60000 + i,
             -128 + i, 255 - i, float(np.float32(rng.uniform(-1e-3, 1e-3))), i) for i in range(50)]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(rows)}"]
    header += [f"property {t} p{i}" for i, t in enumerate(types)]
    body = b"".join(struct.pack("<" + codes, *r) for r in rows)
    path = tmp_path / "mixed.ply"
    path.write_bytes(("\n".join([*header, "end_header"]) + "\n").encode("ascii") + body)
    size = struct.calcsize("<" + codes)
    want = np.array([struct.unpack_from("<" + codes, body, i * size) for i in range(len(rows))], dtype=float)
    names, got = _read_ply(path)["vertex"]
    assert names == [f"p{i}" for i in range(len(types))]
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# --- through the transfer command ------------------------------------------------

def _record(tmp_path):
    kf = KeypointFrame.from_axes(np.array([0.03, 0.01, -0.02]), (1, 0, 0), (0, 0, -1), "ref", "master")
    record = tmp_path / "record.json"
    record.write_text(canonical_json(SkillRecord("insert the peg", "manipulation", master_kf=kf).to_json()))
    return kf, record


def _transfer(tmp_path, reference, target):
    kf, record = _record(tmp_path)
    out = tmp_path / "kf.json"
    code = main(["transfer", "--record", str(record), "--reference", str(reference), "--target", str(target),
                 "--seed", "1", "--out", str(out)])
    return code, kf, out


FEATURED_NAMES = ["x", "y", "z", *(f"f_{i}" for i in range(8))]


def _featured_rows(pose=None):
    """800 points with 8 smooth features, moved by pose (features move with them)."""
    pts = np.random.default_rng(15).uniform(-0.05, 0.05, (800, 3))
    p = pts / 0.05
    feats = np.column_stack([np.sin(p), np.cos(p), np.sin(2 * p[:, 0] + p[:, 1]), np.cos(2 * p[:, 1] - p[:, 2])])
    return np.column_stack([pts if pose is None else pose.apply(pts), feats])


def test_transfer_command_moves_the_keypoint_with_the_object(tmp_path):
    moved = Pose.from_rotvec(np.array([0.3, -0.2, 0.5]), np.array([0.04, -0.02, 0.01]))
    write_ply(tmp_path / "ref.ply", FEATURED_NAMES, _featured_rows(), "binary_little_endian", "double")
    write_ply(tmp_path / "tgt.ply", FEATURED_NAMES, _featured_rows(moved), "ascii")
    code, kf, out = _transfer(tmp_path, tmp_path / "ref.ply", tmp_path / "tgt.ply")
    assert code == 0
    got = KeypointFrame.from_json(json.loads(out.read_text())).as_pose()
    want = moved.compose(kf.as_pose())
    assert got.translation_distance_to(want) < 1e-6
    assert got.rotation_angle_to(want) < 1e-6


def _transfer_to_targets(tmp_path, targets, outs, diagnostics=()):
    _, record = _record(tmp_path)
    args = ["transfer", "--record", str(record), "--reference", str(tmp_path / "ref.ply"),
            "--target", *map(str, targets), "--seed", "1", "--out", *map(str, outs)]
    if diagnostics:
        args += ["--diagnostics", *map(str, diagnostics)]
    return main(args)


def test_transfer_command_takes_many_targets_from_one_reference_eigensolve(tmp_path):
    poses = [Pose.from_rotvec(np.array([0.3, -0.2, 0.5]), np.array([0.04, -0.02, 0.01])),
             Pose.from_rotvec(np.array([-0.4, 0.1, 0.2]), np.array([-0.01, 0.03, 0.02]))]
    write_ply(tmp_path / "ref.ply", FEATURED_NAMES, _featured_rows())
    targets = [tmp_path / f"tgt{i}.ply" for i in range(2)]
    for path, pose in zip(targets, poses):
        write_ply(path, FEATURED_NAMES, _featured_rows(pose))
    singles = []
    for i, path in enumerate(targets):
        assert _transfer_to_targets(tmp_path, [path], [tmp_path / f"single{i}.json"]) == 0
        singles.append((tmp_path / f"single{i}.json").read_text())

    nonrigid._kernel_basis.cache_clear()
    outs = [tmp_path / f"kf{i}.json" for i in range(2)]
    diags = [tmp_path / f"diag{i}.json" for i in range(2)]
    assert _transfer_to_targets(tmp_path, targets, outs, diags) == 0
    assert [o.read_text() for o in outs] == singles
    payloads = [json.loads(d.read_text()) for d in diags]
    assert all(d["registration_rank"] > 0 for d in payloads)
    assert all(0 <= d["registration_truncated_steps"] <= d["registration_iterations"] for d in payloads)
    info = nonrigid._kernel_basis.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("flag", ["--out", "--diagnostics"])
def test_transfer_command_needs_one_output_per_target_and_writes_none_otherwise(tmp_path, capsys, flag):
    write_ply(tmp_path / "ref.ply", FEATURED_NAMES, _featured_rows())
    outs, diags = [tmp_path / "a.json", tmp_path / "b.json"], [tmp_path / "da.json", tmp_path / "db.json"]
    if flag == "--out":
        outs = outs[:1]
    else:
        diags = diags[:1]
    assert _transfer_to_targets(tmp_path, [tmp_path / "ref.ply"] * 2, outs, diags) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and list(err["fields"]) == [flag]
    assert not any(p.exists() for p in [*outs, *diags])


def test_transfer_command_writes_nothing_when_one_target_fails(tmp_path, capsys):
    write_ply(tmp_path / "ref.ply", FEATURED_NAMES, _featured_rows())
    bad = _header_only(tmp_path / "bad.ply", "ply", "format ascii 1.0", "end_header")
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    assert _transfer_to_targets(tmp_path, [tmp_path / "ref.ply", bad], outs) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SchemaError" and str(bad) in err["message"]
    assert not any(p.exists() for p in outs)


def test_transfer_command_reports_a_malformed_ply_as_json(tmp_path, capsys):
    bad = _header_only(tmp_path / "bad.ply", "ply", "format binary_big_endian 1.0", "end_header")
    code, _, out = _transfer(tmp_path, bad, bad)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SchemaError" and "binary_big_endian" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("malformed", ["no_vertex", "truncated", "no_z", "short_row", "long_row"])
def test_transfer_command_reports_a_malformed_vertex_element_as_json(tmp_path, capsys, malformed):
    if malformed == "truncated":
        bad = _truncated(tmp_path / "bad.ply")
    elif malformed == "no_z":
        bad = tmp_path / "bad.ply"
        write_ply(bad, ["x", "y"], _points()[:, :2])
    elif malformed in ("short_row", "long_row"):
        row = "1 0" if malformed == "short_row" else "1 0 0 7"
        bad = _ascii_rows(tmp_path / "bad.ply", ("0 0 0", row, "2 2 2"))
    else:
        bad = _header_only(tmp_path / "bad.ply", "ply", "format ascii 1.0", "end_header")
    code, _, out = _transfer(tmp_path, bad, bad)
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SchemaError" and str(bad) in err["message"]
    assert not out.exists()
