import json

import numpy as np
import pytest
from test_pipelines import _write_demo, peg_onto_block_demo

from keycontact.bank import SkillRecord
from keycontact.cli import main
from keycontact.keypoints import KeypointFrame
from keycontact.serialize import SCHEMA_VERSION, canonical_json

TINY_CAMPAIGN = {"profiles": ["round"], "trials": 1, "n_contacts": 1, "selection": "random", "particles": 20}


def _error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _campaign(tmp_path, config: dict) -> int:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return main(["campaign", "--config", str(cfg), "--out-csv", str(tmp_path / "rows.csv"),
                 "--out-summary", str(tmp_path / "summary.json")])


@pytest.mark.parametrize("bad_key", ["flat_margin", "trails"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, bad_key):
    assert _campaign(tmp_path, {**TINY_CAMPAIGN, bad_key: 1}) == 2
    err = _error(capsys)
    assert err["error"] == "ConfigError"
    assert set(err["fields"]) == {bad_key}
    assert not (tmp_path / "rows.csv").exists()


def test_invalid_config_value_exits_2_naming_every_field(tmp_path, capsys):
    assert _campaign(tmp_path, {**TINY_CAMPAIGN, "trials": 0, "selection": "best"}) == 2
    err = _error(capsys)
    assert err["error"] == "ConfigError"
    assert set(err["fields"]) == {"trials", "selection"}


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["campaign", "--config", str(tmp_path / "absent.json"), "--out-csv", str(tmp_path / "rows.csv"),
                 "--out-summary", str(tmp_path / "summary.json")])
    assert code == 1
    err = _error(capsys)
    assert err["error"] == "FileNotFoundError"
    assert "absent.json" in err["message"]


@pytest.mark.parametrize("flag, value", [("--clearance", "-0.001"), ("--depth", "0.001"), ("--profile", "bogus")])
def test_refine_with_an_invalid_scene_flag_exits_2_naming_it(tmp_path, capsys, flag, value):
    out = tmp_path / "refined.json"
    assert main(["refine", flag, value, "--contacts", "1", "--particles", "20", "--out", str(out)]) == 2
    err = _error(capsys)
    assert err["error"] == "ConfigError"
    assert set(err["fields"]) == {flag[2:]}
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [("--sigma-t", "-0.005", "in_hand_sigma_t"),
                                                 ("--sigma-r-deg", "-5", "in_hand_sigma_r")])
def test_refine_with_a_negative_noise_sigma_exits_2_naming_it(tmp_path, capsys, flag, value, field):
    out = tmp_path / "refined.json"
    assert main(["refine", flag, value, "--contacts", "1", "--particles", "50", "--out", str(out)]) == 2
    err = _error(capsys)
    assert err["error"] == "ConfigError"
    assert set(err["fields"]) == {field}
    assert not out.exists()


def test_bank_put_of_a_plan_without_subtasks_exits_1_with_the_json_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": SCHEMA_VERSION, "kind": "plan", "task": "assemble", "subtasks": []}))
    assert main(["bank", "--bank", str(tmp_path / "bank"), "put", str(plan)]) == 1
    err = _error(capsys)
    assert err["error"] == "DegenerateInputError" and "subtask" in err["message"]


def test_refine_writes_the_documented_payload(tmp_path):
    out = tmp_path / "refined.json"
    code = main(["refine", "--contacts", "1", "--particles", "20", "--selection", "random", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema", "estimate", "vision_estimate", "lateral_error", "depth_error",
                            "rotation_error", "success", "contacts"}
    assert payload["contacts"] == 1
    assert isinstance(payload["success"], bool)


def test_refine_sets_up_and_judges_a_trial_as_the_campaign_does(tmp_path):
    out = tmp_path / "refined.json"
    assert main(["refine", "--contacts", "1", "--particles", "20", "--selection", "random", "--seed", "3",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert _campaign(tmp_path, {**TINY_CAMPAIGN, "base_seed": 3}) == 0
    header, row = (tmp_path / "rows.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["seed"] == "3"
    assert row["refined_success"] == str(int(payload["success"]))
    assert row["refined_lateral"] == f"{payload['lateral_error']:.10g}"
    assert row["refined_rotation"] == f"{payload['rotation_error']:.10g}"


def test_campaign_writes_header_and_one_row_per_trial(tmp_path):
    assert _campaign(tmp_path, TINY_CAMPAIGN) == 0
    header, *rows = (tmp_path / "rows.csv").read_text().splitlines()
    assert header.startswith("profile,sigma_t,sigma_r,seed,")
    assert len(rows) == 1 and rows[0].startswith("round,")
    (cell,) = json.loads((tmp_path / "summary.json").read_text())["cells"]
    assert cell["trials"] == 1


def test_refine_random_diagnostics_write_null_expected_ig(tmp_path):
    diag = tmp_path / "steps.jsonl"
    code = main(["refine", "--contacts", "1", "--particles", "20", "--selection", "random", "--seed", "3",
                 "--out", str(tmp_path / "refined.json"), "--diagnostics", str(diag)])
    assert code == 0
    (step,) = [json.loads(line) for line in diag.read_text().splitlines()]
    assert step["step"] == 1
    assert step["expected_ig"] is None


def test_refine_diagnostics_report_ess_and_resampling_deterministically(tmp_path):
    particles = 40
    runs = []
    for run in range(2):
        diag = tmp_path / f"steps{run}.jsonl"
        code = main(["refine", "--contacts", "3", "--particles", str(particles), "--selection", "ig", "--seed", "3",
                     "--out", str(tmp_path / f"refined{run}.json"), "--diagnostics", str(diag)])
        assert code == 0
        runs.append(diag.read_bytes())
    assert runs[0] == runs[1]  # no timing field enters the diagnostics
    steps = [json.loads(line) for line in runs[0].decode().splitlines()]
    assert [s["step"] for s in steps] == [1, 2, 3]
    for s in steps:
        assert isinstance(s["resampled"], bool)
        assert 1.0 <= s["ess"] <= particles * (1 + 1e-12)
        # resampling fires exactly when an accepted update leaves ESS below M/2
        updated = s["contact"] and not s["diverged"]
        assert s["resampled"] == (updated and s["ess"] < particles / 2)
    assert any(s["resampled"] for s in steps)


def _always_diverge(monkeypatch):
    from keycontact.refiner import loop

    monkeypatch.setattr(loop, "filter_update", lambda ps, *args, **kwargs: (ps, True))
    return loop.DIVERGENCE_LIMIT


def _refine_8_contacts(tmp_path, diag) -> int:
    return main(["refine", "--contacts", "8", "--particles", "20", "--selection", "random", "--seed", "3",
                 "--out", str(tmp_path / "refined.json"), "--diagnostics", str(diag)])


def test_refine_divergence_writes_its_steps_and_the_json_error(tmp_path, capsys, monkeypatch):
    limit = _always_diverge(monkeypatch)
    diag = tmp_path / "steps.jsonl"
    assert _refine_8_contacts(tmp_path, diag) == 1
    err = _error(capsys)
    assert err["error"] == "RefinementDivergence" and "consecutive" in err["message"]
    assert not (tmp_path / "refined.json").exists()
    steps = [json.loads(line) for line in diag.read_text().splitlines()]
    assert [s["step"] for s in steps] == list(range(1, len(steps) + 1))
    # every contact diverged, and the run stopped at the limit-th of them
    assert all(s["diverged"] == s["contact"] for s in steps)
    assert sum(s["diverged"] for s in steps) == limit and steps[-1]["diverged"]


@pytest.mark.parametrize("diverge", [False, True])
def test_refine_diagnostics_that_fail_to_serialize_leave_no_file(tmp_path, capsys, monkeypatch, diverge):
    from keycontact.refiner import loop

    if diverge:
        _always_diverge(monkeypatch)
    calls = iter(range(100))
    # the second step carries a NaN, which canonical JSON rejects
    monkeypatch.setattr(loop, "state_entropy", lambda ps: float("nan") if next(calls) == 1 else 0.0)
    diag = tmp_path / "steps.jsonl"
    assert _refine_8_contacts(tmp_path, diag) == 1
    assert _error(capsys)["error"] == "SchemaError"
    assert not diag.exists() and not (tmp_path / "refined.json").exists()


def _skill_without_description(tmp_path) -> str:
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"schema": SCHEMA_VERSION, "kind": "skill", "phase": "manipulation"}))
    return str(path)


def _text_file(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


_POSE = {"q": [1.0, 0.0, 0.0, 0.0], "t": [0.0, 0.0, 0.0]}


def _transfer_argv(tmp_path, voxel: str) -> list[str]:
    """A transfer of a valid record between two valid featured clouds, with --voxel set."""
    kf = KeypointFrame.from_axes(np.zeros(3), (1, 0, 0), (0, 0, 1), "ref", "master")
    record = _text_file(tmp_path, "record.json",
                        canonical_json(SkillRecord("insert", "manipulation", master_kf=kf).to_json()))
    rows = np.random.default_rng(0).uniform(-0.05, 0.05, (40, 5))
    header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
              *(f"property double {n}" for n in ("x", "y", "z", "f_0", "f_1")), "end_header"]
    cloud = _text_file(tmp_path, "cloud.ply", "\n".join(header + [" ".join(map(repr, r)) for r in rows]) + "\n")
    return ["transfer", "--record", record, "--reference", cloud, "--target", cloud, "--voxel", voxel,
            "--out", str(tmp_path / "kf.json")]


def _learn_argv(tmp_path, flag: str) -> list[str]:
    """Learning from the peg demo, with one flag set to NaN."""
    traj = _write_demo(tmp_path, peg_onto_block_demo())
    return ["learn", "--trajectories", traj, flag, "nan", "--out-dir", str(tmp_path / "records")]


def _refine_argv(tmp_path, flag: str, value: str = "nan") -> list[str]:
    return ["refine", flag, value, "--contacts", "1", "--particles", "20", "--out", str(tmp_path / "refined.json")]


def _campaign_argv(tmp_path, config: str, *extra: str) -> list[str]:
    return ["campaign", "--config", _text_file(tmp_path, "config.json", config), *extra,
            "--out-csv", str(tmp_path / "rows.csv"), "--out-summary", str(tmp_path / "summary.json")]


# each builds (argv, expected exit code, expected error type, the field a
# ConfigError names) for one malformed input
MALFORMED_INPUTS = {
    "bank_put_record_without_description": lambda tmp: (
        ["bank", "--bank", str(tmp / "bank"), "put", _skill_without_description(tmp)], 1, "SchemaError", None),
    "bank_put_record_not_json": lambda tmp: (
        ["bank", "--bank", str(tmp / "bank"), "put", _text_file(tmp, "record.json", "{kind: skill")], 1,
        "SchemaError", None),
    "bank_put_record_not_an_object": lambda tmp: (
        ["bank", "--bank", str(tmp / "bank"), "put", _text_file(tmp, "record.json", "[]")], 1, "SchemaError", None),
    "transfer_record_without_description": lambda tmp: (
        ["transfer", "--record", _skill_without_description(tmp), "--reference", str(tmp / "ref.ply"),
         "--target", str(tmp / "tgt.ply"), "--out", str(tmp / "kf.json")], 1, "SchemaError", None),
    "transfer_voxel_zero": lambda tmp: (_transfer_argv(tmp, "0"), 2, "ConfigError", "voxel_cell"),
    "transfer_voxel_nan": lambda tmp: (_transfer_argv(tmp, "nan"), 2, "ConfigError", "voxel_cell"),
    "transfer_voxel_negative": lambda tmp: (_transfer_argv(tmp, "-0.005"), 2, "ConfigError", "voxel_cell"),
    "ground_frame_without_cloud_ref": lambda tmp: (
        ["ground", "--trajectories",
         _text_file(tmp, "traj.jsonl", json.dumps({"t": 0.0, "entity_id": "hand", "pose": _POSE}) + "\n"),
         "--out", str(tmp / "segments.json")], 1, "SchemaError", None),
    "ground_frame_not_json": lambda tmp: (
        ["ground", "--trajectories", _text_file(tmp, "traj.jsonl", "{\"t\": 0.0,\n"),
         "--out", str(tmp / "segments.json")], 1, "SchemaError", None),
    "ground_frame_not_an_object": lambda tmp: (
        ["ground", "--trajectories", _text_file(tmp, "traj.jsonl", "5\n"), "--out", str(tmp / "segments.json")],
        1, "SchemaError", None),
    "learn_squish_mu_nan": lambda tmp: (_learn_argv(tmp, "--squish-mu"), 2, "ConfigError", "mu"),
    "learn_epsilon_nan": lambda tmp: (_learn_argv(tmp, "--epsilon"), 2, "ConfigError", "epsilon"),
    "learn_gamma_nan": lambda tmp: (_learn_argv(tmp, "--gamma"), 2, "ConfigError", "gamma"),
    "refine_d_th_nan": lambda tmp: (_refine_argv(tmp, "--d-th"), 2, "ConfigError", "d_th"),
    "refine_sigma_t_nan": lambda tmp: (_refine_argv(tmp, "--sigma-t"), 2, "ConfigError", "in_hand_sigma_t"),
    "refine_sigma_r_deg_nan": lambda tmp: (_refine_argv(tmp, "--sigma-r-deg"), 2, "ConfigError", "in_hand_sigma_r"),
    "refine_depth_nan": lambda tmp: (_refine_argv(tmp, "--depth"), 2, "ConfigError", "depth"),
    "refine_clearance_nan": lambda tmp: (_refine_argv(tmp, "--clearance"), 2, "ConfigError", "clearance"),
    "refine_d_th_inf": lambda tmp: (_refine_argv(tmp, "--d-th", "inf"), 2, "ConfigError", "d_th"),
    "refine_sigma_t_inf": lambda tmp: (_refine_argv(tmp, "--sigma-t", "inf"), 2, "ConfigError", "in_hand_sigma_t"),
    "refine_depth_inf": lambda tmp: (_refine_argv(tmp, "--depth", "inf"), 2, "ConfigError", "depth"),
    "refine_clearance_inf": lambda tmp: (_refine_argv(tmp, "--clearance", "inf"), 2, "ConfigError", "clearance"),
    "campaign_seed_not_an_integer": lambda tmp: (
        _campaign_argv(tmp, json.dumps(TINY_CAMPAIGN), "--seed-file", _text_file(tmp, "seeds.txt", "3\nfour\n")),
        2, "ConfigError", "--seed-file"),
    "campaign_config_not_an_object": lambda tmp: (_campaign_argv(tmp, "[]"), 1, "SchemaError", None),
    "campaign_trials_not_an_integer": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "trials": 1.5})), 2, "ConfigError", "trials"),
    "campaign_n_contacts_a_bool": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "n_contacts": True})), 2, "ConfigError", "n_contacts"),
    "campaign_base_seed_negative": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "base_seed": -1})), 2, "ConfigError", "base_seed"),
    "campaign_seed_negative": lambda tmp: (
        _campaign_argv(tmp, json.dumps(TINY_CAMPAIGN), "--seed-file", _text_file(tmp, "seeds.txt", "3\n-1\n")),
        2, "ConfigError", "--seed-file"),
    "campaign_profiles_a_string": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "profiles": "round"})), 2, "ConfigError", "profiles"),
    "campaign_clearance_a_string": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "clearance": "0.002"})), 2, "ConfigError", "clearance"),
    "campaign_d_th_a_string": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "d_th": "0.002"})), 2, "ConfigError", "d_th"),
    "campaign_depth_a_bool": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "depth": True})), 2, "ConfigError", "depth"),
    "campaign_noise_grid_cell_not_a_pair": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "noise_grid": [[0.001]]})), 2, "ConfigError", "noise_grid"),
    "campaign_noise_grid_a_number": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "noise_grid": 5})), 2, "ConfigError", "noise_grid"),
    "campaign_noise_grid_sigma_a_string": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "noise_grid": [["a", 0.1]]})), 2, "ConfigError",
        "noise_grid"),
    "campaign_noise_grid_sigma_infinite": lambda tmp: (
        _campaign_argv(tmp, json.dumps({**TINY_CAMPAIGN, "noise_grid": [[float("inf"), 0.1]]})), 2, "ConfigError",
        "noise_grid"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_one_json_error_line(tmp_path, capsys, case):
    argv, code, error, field = MALFORMED_INPUTS[case](tmp_path)
    assert main(argv) == code
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == error
    if error == "ConfigError":
        assert set(err["fields"]) == {field}
    written = ("kf.json", "segments.json", "rows.csv", "records", "refined.json")
    assert not any(p.name in written for p in tmp_path.iterdir())
