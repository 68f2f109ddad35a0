import json

import numpy as np

from keycontact.bank import Bank, PlanRecord, SkillRecord
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
