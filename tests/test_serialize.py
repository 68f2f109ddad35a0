import json

import numpy as np
import pytest

from keycontact.errors import SchemaError
from keycontact.geometry import Pose, quat_from_rotvec
from keycontact.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    check_fields,
    check_schema,
    pose_from_json,
    pose_to_json,
)


def test_pose_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    poses = [Pose(quat_from_rotvec(rv), t) for rv, t in zip(rng.normal(0, 1.5, (500, 3)), rng.normal(0, 1, (500, 3)))]
    poses += [Pose.identity(), Pose(t=[-0.0, 1e-300, 5e-324])]
    for pose in poses:
        back = pose_from_json(json.loads(canonical_json(pose_to_json(pose))))
        assert back.q.tobytes() == pose.q.tobytes() and back.t.tobytes() == pose.t.tobytes()
        assert not back.q.flags.writeable and not back.t.flags.writeable


def test_pose_from_json_still_normalizes_a_quaternion_off_unit_norm():
    pose = pose_from_json({"q": [1.0 + 1e-8, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]})
    assert pose.q.tobytes() == np.array([1.0, 0.0, 0.0, 0.0]).tobytes()
    flipped = pose_from_json({"q": [-1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]})
    assert flipped.q.tobytes() == np.array([1.0, -0.0, -0.0, -0.0]).tobytes()


@pytest.mark.parametrize("record", [
    {"q": [1.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
    {"q": [1.0, 0.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
    {"q": [[1.0, 0.0], [0.0, 0.0]], "t": [0.0, 0.0, 0.0]},
    {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0]},
    {"q": [2.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
    {"q": ["w", 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]},
    {"q": [1.0, 0.0, 0.0, 0.0]},
])
def test_pose_from_json_rejects_malformed_records(record):
    with pytest.raises(SchemaError):
        pose_from_json(record)


def test_canonical_json_orders_keys_and_flattens_numpy_values():
    value = {
        "b": np.float64(0.1),
        "a": np.arange(3, dtype=np.int32),
        "c": {"z": np.array([[1.5, -0.0], [2.0, 1e-17]]), "y": (np.int64(7), np.float32(0.5))},
    }
    plain = {"b": 0.1, "a": [0, 1, 2], "c": {"z": [[1.5, -0.0], [2.0, 1e-17]], "y": [7, 0.5]}}
    text = canonical_json(value)
    assert text == '{"a":[0,1,2],"b":0.1,"c":{"y":[7,0.5],"z":[[1.5,-0.0],[2.0,1e-17]]}}'
    assert text == canonical_json(plain) == canonical_json(dict(reversed(list(value.items()))))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.array([1.0, np.nan])])
def test_canonical_json_rejects_non_finite_numbers(bad):
    with pytest.raises(SchemaError):
        canonical_json({"x": bad})


def test_check_schema_rejects_other_versions():
    check_schema({"schema": SCHEMA_VERSION})
    for d in ({"schema": SCHEMA_VERSION + 1}, {"schema": str(SCHEMA_VERSION)}, {}):
        with pytest.raises(SchemaError, match="unsupported"):
            check_schema(d, kind="test record")


def test_check_schema_names_every_missing_field():
    check_schema({"schema": SCHEMA_VERSION, "a": 1, "b": None}, fields=("a", "b"))
    with pytest.raises(SchemaError, match=r"missing field\(s\): a, c$"):
        check_schema({"schema": SCHEMA_VERSION, "b": 2}, kind="test", fields=("a", "b", "c"))


@pytest.mark.parametrize("parsed", [[], 5, "schema", None])
def test_check_fields_and_schema_reject_json_that_is_not_an_object(parsed):
    for check in (check_fields, check_schema):
        with pytest.raises(SchemaError, match="JSON object"):
            check(parsed, fields=("schema",), kind="test")
