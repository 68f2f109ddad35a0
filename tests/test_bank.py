import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import keycontact
from keycontact import bank as bank_module
from keycontact.bank import Bank, PlanRecord, SkillRecord
from keycontact.errors import BankError, DegenerateInputError, SchemaError
from keycontact.geometry import Pose
from keycontact.keypoints import KeypointFrame, WaypointPath
from keycontact.serialize import canonical_json


def _skill(description: str) -> SkillRecord:
    master = KeypointFrame.from_axes(np.array([0.0, 0.0, 0.0]), (1, 0, 0), (0, 0, -1), "block", "master")
    slave = KeypointFrame.from_axes(np.array([0.0, 0.0, 0.01]), (0, 1, 0), (0, 0, -1), "peg", "slave")
    path = WaypointPath((Pose(t=[0.0, 0.0, -0.02]), Pose(t=[0.0, 0.0, 0.004])), np.array([0.0, 1.5]))
    return SkillRecord(description, "manipulation", master_kf=master, slave_kf=slave, waypoints=path,
                       demo_id="demo", t_begin=0.5, t_end=2.0)


def _same_content(a, b) -> bool:
    return canonical_json(a.to_json()) == canonical_json(b.to_json())


def test_put_get_query_round_trip(tmp_path):
    bank = Bank(tmp_path / "bank")
    peg = _skill("insert the peg into the hole")
    cup = _skill("pour water into the cup")
    plan = PlanRecord("peg assembly", ("pick the peg", "insert the peg into the hole"))
    ids = [bank.put(r) for r in (peg, cup, plan)]
    assert bank.ids() == ids
    for rid, record in zip(ids, (peg, cup, plan)):
        assert _same_content(bank.get(rid), record)
    ranked = bank.query_text("peg hole", n_top=2)
    assert [rid for rid, _ in ranked] == [ids[0], ids[2]]
    assert ranked[0][1] > ranked[1][1] > 0.0
    # a second handle on the same directory reads what the first wrote
    assert Bank(tmp_path / "bank").ids() == ids
    assert sorted(p.name for p in (tmp_path / "bank").rglob("*.tmp")) == []


RETIRED_KEYS = ("trajectory_spec", "semantic_constraints", "master_mesh", "slave_mesh")


def test_record_with_the_retired_keys_empty_still_loads():
    record = _skill("insert the peg into the hole")
    # older writers emitted these four keys, always null or empty
    older = {**record.to_json(), "trajectory_spec": None, "semantic_constraints": [],
             "master_mesh": None, "slave_mesh": None}
    back = SkillRecord.from_json(older)
    assert _same_content(back, record)
    assert not set(RETIRED_KEYS) & set(back.to_json())


FILLED_RETIRED_KEYS = {
    "trajectory_spec": {"schema": 1, "generator_id": "line", "parameters": {}, "resolution": 16, "children": []},
    "semantic_constraints": [{"schema": 1, "label": "keep upright", "rationale": "", "source": "external_reasoner"}],
    "master_mesh": {"path": "block.obj", "sha256": "0" * 64},
    "slave_mesh": {"path": "peg.obj", "sha256": "1" * 64},
}


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_record_with_a_retired_key_filled_in_is_refused_naming_it(key):
    with pytest.raises(SchemaError, match=key):
        SkillRecord.from_json({**_skill("insert the peg").to_json(), key: FILLED_RETIRED_KEYS[key]})


def test_put_is_idempotent_per_content(tmp_path):
    bank = Bank(tmp_path / "bank")
    first = bank.put(_skill("insert the peg"))
    assert bank.put(_skill("insert the peg")) == first
    assert bank.ids() == [first]
    assert len(list((tmp_path / "bank" / "records").iterdir())) == 1


def test_put_indexes_a_record_a_crashed_writer_left_unindexed(tmp_path):
    bank = Bank(tmp_path / "bank")
    kept = bank.put(_skill("pour water into the cup"))
    orphan = _skill("insert the peg into the hole")
    # a writer that died after the record file but before the index
    payload = canonical_json(orphan.to_json())
    rid = bank.put(orphan)
    index = json.loads(bank.index_path.read_text())
    index["order"].remove(rid)
    bank.index_path.write_text(canonical_json(index))
    assert (bank.records_dir / f"{rid}.json").read_text() == payload
    assert bank.ids() == [kept]

    assert bank.put(orphan) == rid
    assert bank.ids() == [kept, rid]
    assert _same_content(bank.get(rid), orphan)
    assert bank.put(orphan) == rid and bank.ids() == [kept, rid]


_SRC = str(Path(keycontact.__file__).resolve().parents[1])

# holds the bank's write lock until killed, as a writer that dies mid-put would
_HOLDER = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
time.sleep(60)
"""

# says it is ready, waits for the go file, then puts its records one at a time
_WRITER = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from keycontact.bank import Bank, PlanRecord
bank = Bank(sys.argv[2])
print("ready", flush=True)
while not Path(sys.argv[3]).exists():
    time.sleep(0.001)
for k in range(int(sys.argv[5])):
    bank.put(PlanRecord(f"writer {sys.argv[4]} task {k}", ("step",)))
"""


def test_put_waits_for_a_live_writer_and_not_for_a_killed_one(tmp_path, monkeypatch):
    bank = Bank(tmp_path / "bank")
    holder = subprocess.Popen([sys.executable, "-c", _HOLDER, str(tmp_path / "bank" / ".lock")],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        monkeypatch.setattr(bank_module, "LOCK_TIMEOUT_S", 0.2)
        with pytest.raises(BankError, match="locked"):
            bank.put(_skill("insert the peg"))
        assert bank.ids() == []
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    start = time.monotonic()
    rid = bank.put(_skill("insert the peg"))
    assert time.monotonic() - start < 1.0
    assert bank.ids() == [rid]


def test_concurrent_writers_lose_no_index_entry(tmp_path):
    root, go, n_writers, n_puts = tmp_path / "bank", tmp_path / "go", 3, 20
    Bank(root)
    writers = [subprocess.Popen([sys.executable, "-c", _WRITER, _SRC, str(root), str(go), str(w), str(n_puts)],
                                stdout=subprocess.PIPE, text=True) for w in range(n_writers)]
    try:
        assert [w.stdout.readline() for w in writers] == ["ready\n"] * n_writers
        go.touch()
        assert [w.wait(timeout=60) for w in writers] == [0] * n_writers
    finally:
        for w in writers:
            w.kill()
            w.wait()
            w.stdout.close()
    bank = Bank(root)
    tasks = sorted(bank.get(rid).task for rid in bank.ids())
    assert tasks == sorted(f"writer {w} task {k}" for w in range(n_writers) for k in range(n_puts))
    for w in range(n_writers):  # each writer's records in its own order
        mine = [bank.get(rid).task for rid in bank.ids() if bank.get(rid).task.startswith(f"writer {w} ")]
        assert mine == [f"writer {w} task {k}" for k in range(n_puts)]


def test_query_text_reads_the_index_once(tmp_path, monkeypatch):
    bank = Bank(tmp_path / "bank")
    ids = [bank.put(_skill(text)) for text in ("insert the peg", "pour water")]
    reads = []
    read_index = bank._read_index
    monkeypatch.setattr(bank, "_read_index", lambda: reads.append(1) or read_index())
    assert [rid for rid, _ in bank.query_text("peg", n_top=2)] == ids
    assert len(reads) == 1


def test_query_text_reads_each_record_once(tmp_path, monkeypatch):
    bank = Bank(tmp_path / "bank")
    for text in ("insert the peg", "pour water", "insert the peg into the hole"):
        bank.put(_skill(text))
    bank.put(PlanRecord("peg assembly", ("pick the peg",)))
    first = bank.query_text("insert peg", n_top=4)
    reads = []
    get_raw = bank.get_raw
    monkeypatch.setattr(bank, "get_raw", lambda rid: reads.append(rid) or get_raw(rid))
    assert bank.query_text("insert peg", n_top=4) == first
    assert reads == []


def test_a_plan_needs_a_subtask():
    with pytest.raises(DegenerateInputError, match="at least one subtask"):
        PlanRecord("assemble", ())
