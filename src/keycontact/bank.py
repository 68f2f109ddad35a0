"""Knowledge bank: content-addressed skill-record storage with text retrieval.

Records persist as canonical JSON in a plain directory; ids are SHA-256
digests of the canonical bytes, so identical content maps to the same id and
round-trips are byte-lossless. Writes hold an exclusive flock on a lock file
that is never removed, so the lock ends with its holder's process; reads are
lock-free. Every file is written to a temporary name and renamed into place,
so a reader or a crashed writer never leaves a half-written record or index.
The default bank path comes from $KEYCONTACT_BANK.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .constraints import GraspRegion
from .errors import BankError, DegenerateInputError, RecordNotFoundError, SchemaError
from .keypoints import KeypointFrame, WaypointPath
from .serialize import SCHEMA_VERSION, canonical_json, check_schema

__all__ = [
    "SkillRecord",
    "PlanRecord",
    "Bank",
    "tokenize",
    "overlap_score",
    "default_bank_path",
]

ENV_BANK = "KEYCONTACT_BANK"
LOCK_TIMEOUT_S = 10.0  # how long put waits for a live writer's lock
# skill-record keys that older writers emitted as null or []; a record that
# fills one in is refused rather than loaded without it
_RETIRED_SKILL_KEYS = ("trajectory_spec", "semantic_constraints", "master_mesh", "slave_mesh")


def default_bank_path() -> Path:
    return Path(os.environ.get(ENV_BANK, "./keycontact_bank"))


def _write_atomic(path: Path, text: str) -> None:
    """Replace path's content in one rename; the old or the new file is seen, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class SkillRecord:
    """One learned subtask: keypoints, waypoints, constraints, provenance."""

    description: str
    phase: str  # "grasping" | "manipulation"
    master_kf: Optional[KeypointFrame] = None
    slave_kf: Optional[KeypointFrame] = None
    waypoints: Optional[WaypointPath] = None
    grasp_regions: tuple[GraspRegion, ...] = ()
    demo_id: str = ""
    t_begin: float = 0.0
    t_end: float = 0.0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "skill",
            "description": self.description,
            "phase": self.phase,
            "master_kf": self.master_kf.to_json() if self.master_kf else None,
            "slave_kf": self.slave_kf.to_json() if self.slave_kf else None,
            "waypoints": self.waypoints.to_json() if self.waypoints else None,
            "grasp_regions": [g.to_json() for g in self.grasp_regions],
            "provenance": {
                "demo_id": self.demo_id,
                "t_begin": self.t_begin,
                "t_end": self.t_end,
            },
        }

    @staticmethod
    def from_json(d: dict) -> "SkillRecord":
        check_schema(d, kind="SkillRecord", fields=("description", "phase"))
        if d.get("kind") != "skill":
            raise SchemaError(f"not a skill record: kind={d.get('kind')!r}")
        for key in _RETIRED_SKILL_KEYS:
            if d.get(key):
                raise SchemaError(f"skill record field {key!r} is no longer supported")
        prov = d.get("provenance", {})
        return SkillRecord(
            description=d["description"],
            phase=d["phase"],
            master_kf=KeypointFrame.from_json(d["master_kf"]) if d.get("master_kf") else None,
            slave_kf=KeypointFrame.from_json(d["slave_kf"]) if d.get("slave_kf") else None,
            waypoints=WaypointPath.from_json(d["waypoints"]) if d.get("waypoints") else None,
            grasp_regions=tuple(GraspRegion.from_json(g) for g in d.get("grasp_regions", [])),
            demo_id=prov.get("demo_id", ""),
            t_begin=prov.get("t_begin", 0.0),
            t_end=prov.get("t_end", 0.0),
        )


@dataclass(frozen=True)
class PlanRecord:
    """Task-level plan: description key and ordered subtask descriptions."""

    task: str
    subtasks: tuple[str, ...]

    def __post_init__(self):
        if not self.subtasks:
            raise DegenerateInputError("a plan needs at least one subtask")
        object.__setattr__(self, "subtasks", tuple(self.subtasks))

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "plan",
            "task": self.task,
            "subtasks": list(self.subtasks),
        }

    @staticmethod
    def from_json(d: dict) -> "PlanRecord":
        check_schema(d, kind="PlanRecord", fields=("task", "subtasks"))
        if d.get("kind") != "plan":
            raise SchemaError(f"not a plan record: kind={d.get('kind')!r}")
        return PlanRecord(d["task"], tuple(d["subtasks"]))


_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> frozenset[str]:
    return frozenset(_TOKEN.findall(text.lower()))


def overlap_score(query_tokens: frozenset[str], doc_tokens: frozenset[str]) -> float:
    """Normalized token overlap (Jaccard index); 0 when either side is empty."""
    if not query_tokens or not doc_tokens:
        return 0.0
    inter = len(query_tokens & doc_tokens)
    union = len(query_tokens | doc_tokens)
    return inter / union


class Bank:
    """Directory-backed record store. One writer at a time, via an advisory flock."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_bank_path()
        self.records_dir = self.root / "records"
        self.index_path = self.root / "index.json"
        self.records_dir.mkdir(parents=True, exist_ok=True)
        if not self.index_path.exists():
            self._write_index([])
        # description tokens per content id; an id is the hash of the record's
        # bytes, so an entry cannot go stale
        self._tokens: dict[str, frozenset[str]] = {}

    # -- locking ------------------------------------------------------------
    @contextmanager
    def _lock(self):
        """Hold an exclusive flock on .lock; the kernel releases it when its holder exits or dies."""
        lock = self.root / ".lock"
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            deadline = time.monotonic() + LOCK_TIMEOUT_S
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        raise BankError(f"bank locked: another writer holds {lock}")
                    time.sleep(0.02)
            yield
        finally:
            os.close(fd)  # releases the lock

    def _write_index(self, ids: list[str]) -> None:
        _write_atomic(self.index_path, canonical_json({"schema": SCHEMA_VERSION, "order": ids}))

    def _read_index(self) -> list[str]:
        d = json.loads(self.index_path.read_text())
        check_schema(d, kind="bank index")
        return list(d["order"])

    # -- core ops -----------------------------------------------------------
    def put(self, record) -> str:
        """Store a record; returns its content id. Idempotent per content.

        The record file is written before the index. A writer that crashed
        between the two left a record the index does not list; putting the
        same content again indexes it.
        """
        if not hasattr(record, "to_json"):
            raise BankError(f"cannot store {type(record).__name__}")
        payload = canonical_json(record.to_json())
        rid = hashlib.sha256(payload.encode()).hexdigest()
        with self._lock():
            path = self.records_dir / f"{rid}.json"
            if not path.exists():
                _write_atomic(path, payload)
            order = self._read_index()
            if rid not in order:
                order.append(rid)
                self._write_index(order)
        return rid

    def get_raw(self, rid: str) -> dict:
        path = self.records_dir / f"{rid}.json"
        if not path.exists():
            raise RecordNotFoundError(rid)
        return json.loads(path.read_text())

    def get(self, rid: str):
        d = self.get_raw(rid)
        kind = d.get("kind")
        if kind == "skill":
            return SkillRecord.from_json(d)
        if kind == "plan":
            return PlanRecord.from_json(d)
        raise SchemaError(f"unknown record kind {kind!r}")

    def ids(self) -> list[str]:
        return self._read_index()

    def query_text(self, query: str, n_top: int = 5) -> list[tuple[str, float]]:
        """Rank records by normalized token overlap with their description.

        Ties keep insertion order.
        """
        order = self.ids()
        if not order:
            raise BankError("bank is empty")
        q = tokenize(query)
        scored = [(-overlap_score(q, self._description_tokens(rid)), pos, rid) for pos, rid in enumerate(order)]
        scored.sort()
        return [(rid, -neg) for neg, _, rid in scored[:n_top]]

    def _description_tokens(self, rid: str) -> frozenset[str]:
        """Tokens of a skill's description or a plan's task, read from disk once per id."""
        tokens = self._tokens.get(rid)
        if tokens is None:
            d = self.get_raw(rid)
            text = d.get("description") if d.get("kind") == "skill" else d.get("task", "")
            tokens = self._tokens[rid] = tokenize(text or "")
        return tokens
