"""Command-line interface: ground, learn, transfer, refine, campaign, bank.

Every command is a thin wrapper over a library call. Failures print a
machine-readable JSON object on stderr and exit nonzero; config validation
reports every failing field at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .bank import Bank, PlanRecord, SkillRecord, default_bank_path
from .errors import ConfigError, KeycontactError, RefinementDivergence, SchemaError
from .grounding import HAND_ID, load_trajectories
from .pipelines import ground_demo, learn_records
from .serialize import canonical_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="keycontact",
        description="Keypoint-centric skill geometry with contact-aided refinement",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("ground", help="trajectories -> contact segments + keypoints")
    g.add_argument("--trajectories", required=True, help="JSONL trajectory file")
    g.add_argument("--hand-id", default=HAND_ID)
    g.add_argument("--epsilon", type=float, default=0.02, help="contact threshold (m)")
    g.add_argument("--gamma", type=float, default=0.05, help="min hand path length (m)")
    g.add_argument("--out", required=True)

    l = sub.add_parser("learn", help="trajectories -> skill records")
    l.add_argument("--trajectories", required=True)
    l.add_argument("--hand-id", default=HAND_ID)
    l.add_argument("--epsilon", type=float, default=0.02)
    l.add_argument("--gamma", type=float, default=0.05)
    l.add_argument("--squish-mu", type=float, default=0.002, help="SED bound (m)")
    l.add_argument("--demo-id", default="demo")
    l.add_argument("--out-dir", required=True)
    l.add_argument("--bank", default=None, help="also store records in this bank")

    t = sub.add_parser("transfer", help="record + target objects -> one keypoint per target")
    t.add_argument("--record", required=True, help="skill record JSON")
    t.add_argument("--reference", required=True, help="featured PLY of the reference object")
    t.add_argument("--target", required=True, nargs="+", help="featured PLY of each target object")
    t.add_argument("--which", choices=("master", "slave"), default="master")
    t.add_argument("--voxel", type=float, default=0.005)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, nargs="+", help="keypoint JSON per target, in --target order")
    t.add_argument("--diagnostics", default=None, nargs="+", help="diagnostics JSON per target")

    r = sub.add_parser("refine", help="synthetic scene -> contact-refined estimate")
    r.add_argument("--profile", default="round")
    r.add_argument("--clearance", type=float, default=0.002)
    r.add_argument("--depth", type=float, default=0.006)
    r.add_argument("--sigma-t", type=float, default=0.005)
    r.add_argument("--sigma-r-deg", type=float, default=5.0)
    r.add_argument("--contacts", type=int, default=6)
    r.add_argument("--selection", choices=("ig", "random"), default="ig")
    r.add_argument("--particles", type=int, default=500)
    r.add_argument("--d-th", type=float, default=0.002)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("--diagnostics", default=None,
                   help="JSON Lines per contact step, also up to a divergence")

    c = sub.add_parser("campaign", help="config JSON -> metrics CSV + summary")
    c.add_argument("--config", required=True)
    c.add_argument("--seed-file", default=None, help="one seed per line")
    c.add_argument("--out-csv", required=True)
    c.add_argument("--out-summary", required=True)

    b = sub.add_parser("bank", help="knowledge bank operations")
    b.add_argument("--bank", default=None, help=f"bank path (default ${'{'}KEYCONTACT_BANK{'}'})")
    bsub = b.add_subparsers(dest="bank_command", required=True)
    bp = bsub.add_parser("put")
    bp.add_argument("record", help="record JSON file")
    bg = bsub.add_parser("get")
    bg.add_argument("id")
    bg.add_argument("--out", default=None, help="write canonical JSON here (default stdout)")
    bq = bsub.add_parser("query")
    bq.add_argument("text")
    bq.add_argument("--top", type=int, default=5)

    return p


def _read_json(path) -> dict:
    """The JSON object in a file; SchemaError if it is not JSON or not an object."""
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not JSON: {e}") from e
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: not a JSON object but {type(d).__name__}")
    return d


def _cmd_ground(args) -> int:
    entities = load_trajectories(args.trajectories)
    grounded = ground_demo(entities, args.hand_id, args.epsilon, args.gamma)
    payload = {
        "schema": serialize.SCHEMA_VERSION,
        "segments": [g.to_json() for g in grounded],
    }
    Path(args.out).write_text(canonical_json(payload) + "\n")
    return 0


def _cmd_learn(args) -> int:
    entities = load_trajectories(args.trajectories)
    records = learn_records(
        entities,
        hand_id=args.hand_id,
        epsilon=args.epsilon,
        gamma=args.gamma,
        squish_mu=args.squish_mu,
        demo_id=args.demo_id,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bank = Bank(args.bank) if args.bank else None
    for i, rec in enumerate(records):
        (out / f"record_{i:03d}.json").write_text(canonical_json(rec.to_json()) + "\n")
        if bank is not None:
            bank.put(rec)
    print(f"wrote {len(records)} records to {out}")
    return 0


def _cmd_transfer(args) -> int:
    from .geometry.meshio import load_featured_cloud
    from .transfer import TransferConfig, transfer_keypoint

    cfg = TransferConfig(voxel_cell=args.voxel, seed=args.seed)
    rec = SkillRecord.from_json(_read_json(args.record))
    kf = rec.master_kf if args.which == "master" else rec.slave_kf
    if kf is None:
        raise ConfigError({"--which": f"record has no {args.which} keypoint frame"})
    n = len(args.target)
    failures = {flag: f"needs one path per --target ({n}), got {len(paths)}"
                for flag, paths in (("--out", args.out), ("--diagnostics", args.diagnostics))
                if paths is not None and len(paths) != n}
    if failures:
        raise ConfigError(failures)
    ref = load_featured_cloud(args.reference)
    # every target goes from the one reference in this process, so CPD
    # eigensolves the reference's kernel once; a failing target leaves no file
    results = [transfer_keypoint(ref, kf, load_featured_cloud(path), cfg) for path in args.target]
    for i, (out_kf, diag) in enumerate(results):
        Path(args.out[i]).write_text(canonical_json(out_kf.to_json()) + "\n")
        if args.diagnostics:
            Path(args.diagnostics[i]).write_text(canonical_json(diag.to_json()) + "\n")
    return 0


def _cmd_refine(args) -> int:
    from .refiner import run_refinement
    from .sim.campaign import CampaignConfig, trial_setup

    # not validated here: the scene and refinement configs name a bad flag's field
    cfg = CampaignConfig(clearance=args.clearance, depth=args.depth, selection=args.selection,
                         particles=args.particles, d_th=args.d_th)
    scene, rcfg = trial_setup(cfg, args.profile, args.sigma_t, np.deg2rad(args.sigma_r_deg), args.seed)
    try:
        res = run_refinement(scene, args.contacts, rcfg)
    except RefinementDivergence as e:
        # the steps up to the divergence say where the filter lost contact
        if args.diagnostics:
            Path(args.diagnostics).write_text(_step_lines(e.diagnostics or ()))
        raise
    z = res.estimate.value
    lat, dep, rot, success = scene.insertion_verdict(z)
    payload = {
        "schema": serialize.SCHEMA_VERSION,
        "estimate": serialize.pose_to_json(z),
        "vision_estimate": serialize.pose_to_json(scene.z_perceived),
        "lateral_error": lat,
        "depth_error": dep,
        "rotation_error": rot,
        "success": success,
        "contacts": args.contacts,
    }
    text = canonical_json(payload) + "\n"
    lines = _step_lines(res.steps)  # a SchemaError here leaves both files unwritten
    Path(args.out).write_text(text)
    if args.diagnostics:
        Path(args.diagnostics).write_text(lines)
    return 0


def _step_lines(steps) -> str:
    """One canonical JSON line per step diagnostic, all built before any file opens."""
    return "".join(canonical_json(s.to_json()) + "\n" for s in steps)


def _cmd_campaign(args) -> int:
    from .sim import CampaignConfig, run_campaign, write_campaign_outputs

    cfg = CampaignConfig.from_json(_read_json(args.config))
    seeds = None
    if args.seed_file:
        try:
            seeds = [int(word) for word in Path(args.seed_file).read_text().split()]
        except ValueError as e:
            raise ConfigError({"--seed-file": f"seeds must be integers ({e})"}) from e
        if any(seed < 0 for seed in seeds):
            raise ConfigError({"--seed-file": "seeds must be >= 0"})
    rows, summary = run_campaign(cfg, seeds=seeds)
    write_campaign_outputs(rows, summary, args.out_csv, args.out_summary)
    return 0


def _cmd_bank(args) -> int:
    bank = Bank(args.bank if args.bank else default_bank_path())
    if args.bank_command == "put":
        d = _read_json(args.record)
        rec = SkillRecord.from_json(d) if d.get("kind") == "skill" else PlanRecord.from_json(d)
        print(bank.put(rec))
        return 0
    if args.bank_command == "get":
        payload = canonical_json(bank.get_raw(args.id)) + "\n"
        if args.out:
            Path(args.out).write_text(payload)
        else:
            sys.stdout.write(payload)
        return 0
    if args.bank_command == "query":
        for rid, score in bank.query_text(args.text, args.top):
            print(f"{rid} {score:.6f}")
        return 0
    raise ConfigError({"bank_command": f"unknown {args.bank_command!r}"})


_COMMANDS = {
    "ground": _cmd_ground,
    "learn": _cmd_learn,
    "transfer": _cmd_transfer,
    "refine": _cmd_refine,
    "campaign": _cmd_campaign,
    "bank": _cmd_bank,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(
            json.dumps({"error": "ConfigError", "message": str(e), "fields": e.failures}),
            file=sys.stderr,
        )
        return 2
    except KeycontactError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(json.dumps({"error": "FileNotFoundError", "message": str(e)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
