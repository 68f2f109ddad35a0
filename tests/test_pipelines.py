import hashlib
import json

import numpy as np

from keycontact.bank import Bank
from keycontact.cli import main
from keycontact.constraints import _deviation_rotvec
from keycontact.geometry import PointCloud, Pose
from keycontact.grounding import TrackedEntity
from keycontact.pipelines import ground_demo, learn_records
from keycontact.serialize import SCHEMA_VERSION, canonical_json, pose_to_json

DT = 0.1  # s between frames
GRIP_OFFSET = np.array([0.0, 0.0, 0.07])  # hand centre above the peg origin while it holds the peg


def _box_points(lo, hi, step):
    axes = [np.arange(a, b + step / 2, step) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _entity(eid, local_points, positions):
    """A rigid entity translated along positions; its clouds are posed in the world frame."""
    return TrackedEntity(
        id=eid,
        clouds=tuple(PointCloud(local_points + p) for p in positions),
        poses=tuple(Pose(t=p) for p in positions),
        timestamps=DT * np.arange(len(positions)),
    )


def _lerp(a, b, n):
    return np.linspace(a, b, n)[1:]


def peg_onto_block_demo() -> dict[str, TrackedEntity]:
    """The hand comes down onto a peg, carries it over a block, sets it down and leaves.

    Peg: 2 x 2 x 6 cm with its origin at the bottom face. Block: 10 x 10 x 4 cm
    with its top face at z = 0. The hand is a 1 cm cube of points.
    """
    start, lifted, over, down = (np.array(p, float) for p in
                                 ([0.2, 0, 0], [0.2, 0, 0.05], [0, 0, 0.05], [0, 0, 0.001]))
    peg = np.vstack([[start]] * 10 + [_lerp(start, lifted, 6), _lerp(lifted, over, 6),
                                      _lerp(over, down, 6), [down] * 15])
    hand = peg + GRIP_OFFSET
    hand[:10] = _lerp(start + [0, 0, 0.27], start + GRIP_OFFSET, 11)  # approach
    hand[30:] = _lerp(down + GRIP_OFFSET, down + [0, 0, 0.25], 11)  # release and withdraw
    return {
        "hand": _entity("hand", _box_points([-0.005] * 3, [0.005] * 3, 0.005), hand),
        "peg": _entity("peg", _box_points([-0.01, -0.01, 0], [0.01, 0.01, 0.06], 0.005), peg),
        "block": _entity("block", _box_points([-0.05, -0.05, -0.04], [0.05, 0.05, 0], 0.01),
                         np.zeros((len(peg), 3))),
    }


def test_learn_records_yields_one_grasp_and_one_placement():
    records = learn_records(peg_onto_block_demo(), demo_id="peg_demo")
    assert [(r.phase, r.description) for r in records] == [
        ("grasping", "grasp the peg"),
        ("manipulation", "move the peg onto the block"),
    ]
    grasp, place = records

    (region,) = grasp.grasp_regions
    assert region.owner == "peg" and grasp.master_kf.owner == "peg"
    o = grasp.master_kf.origin
    assert (o >= region.position_min - 1e-9).all() and (o <= region.position_max + 1e-9).all()
    assert (np.abs(_deviation_rotvec(region.mean_rotation, grasp.master_kf)) <= region.angular_limits + 1e-9).all()
    # the hand held the peg at GRIP_OFFSET in the peg frame, without rotation
    assert np.allclose(grasp.master_kf.origin, GRIP_OFFSET, atol=1e-12)
    assert grasp.t_begin == DT * 9

    assert (place.master_kf.owner, place.master_kf.role) == ("block", "master")
    assert (place.slave_kf.owner, place.slave_kf.role) == ("peg", "slave")
    assert abs(place.master_kf.origin[2]) < 1e-12  # on the block's top face
    # the peg came down, so its keypoint z axis points along world -z
    assert np.allclose(place.slave_kf.as_pose().rotation_matrix()[:, 2], [0, 0, -1], atol=1e-9)
    assert len(place.waypoints) >= 2
    assert place.demo_id == grasp.demo_id == "peg_demo"


def test_learn_records_is_byte_deterministic_and_writes_no_retired_key():
    runs = [[canonical_json(r.to_json()) for r in learn_records(peg_onto_block_demo())] for _ in range(2)]
    assert runs[0] == runs[1]
    for text in runs[0]:
        for key in ("trajectory_spec", "semantic_constraints", "master_mesh", "slave_mesh"):
            assert f'"{key}"' not in text


def _write_demo(root, entities) -> str:
    """The demo as one binary double PLY per entity and frame plus a JSON Lines index."""
    lines = []
    for eid, ent in entities.items():
        for k, (cloud, pose, t) in enumerate(zip(ent.clouds, ent.poses, ent.timestamps)):
            ref = f"{eid}_{k:03d}.ply"
            header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}",
                      "property double x", "property double y", "property double z", "end_header"]
            pts = np.ascontiguousarray(cloud.points, dtype="<f8")
            (root / ref).write_bytes(("\n".join(header) + "\n").encode() + pts.tobytes())
            lines.append(json.dumps({"t": float(t), "entity_id": eid, "pose": pose_to_json(pose), "cloud_ref": ref}))
    path = root / "trajectories.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_ground_and_learn_commands_read_the_demo_files_back_exactly(tmp_path):
    demo = peg_onto_block_demo()
    traj = _write_demo(tmp_path, demo)

    segments = tmp_path / "segments.json"
    assert main(["ground", "--trajectories", traj, "--out", str(segments)]) == 0
    want = {"schema": SCHEMA_VERSION, "segments": [g.to_json() for g in ground_demo(demo)]}
    assert want["segments"]
    assert segments.read_text() == canonical_json(want) + "\n"

    out, bank = tmp_path / "records", tmp_path / "bank"
    assert main(["learn", "--trajectories", traj, "--out-dir", str(out), "--bank", str(bank)]) == 0
    texts = [canonical_json(r.to_json()) for r in learn_records(demo, demo_id="demo")]
    assert len(texts) == 2
    assert [f.read_text() for f in sorted(out.glob("record_*.json"))] == [t + "\n" for t in texts]
    assert Bank(bank).ids() == [hashlib.sha256(t.encode()).hexdigest() for t in texts]
