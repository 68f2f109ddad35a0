"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The CLI tests start the benchmark as a subprocess with --seconds 0, so each
runs only its workload's quality set (under a minute).
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402  (pins the BLAS threads before numpy loads)
from perfbench import spans, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 7


def first_jobs(wl, n):
    # the large transfer job takes ~10 s; the small ones cover the same code
    jobs = wl.jobs[1:] if wl.name == "transfer" else wl.jobs
    return jobs[:n]


def quality_and_digest(name, seed, n):
    wl = workloads.make_workload(name, seed)
    jobs = first_jobs(wl, n)
    outs = []
    with wl.session():
        for job in jobs:
            out = wl.run(job)
            assert wl.check(job, out) is None
            outs.append(wl.retain(out))
    return wl.quality(jobs, outs), workloads.digest([wl.fingerprint(o) for o in outs])


@pytest.mark.parametrize("name,n", [("transfer", 3), ("refine_ig", 2)])
def test_same_seed_same_quality_and_digest(name, n):
    q1, d1 = quality_and_digest(name, 3, n)
    q2, d2 = quality_and_digest(name, 3, n)
    assert q1 == q2
    assert d1 == d2
    _, d_other = quality_and_digest(name, 4, n)
    assert d_other != d1  # the seed reaches the inputs


def owner_of(module, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def test_spans_nest_and_wrappers_are_removed():
    wl_t = workloads.make_workload("transfer", 1)
    wl_r = workloads.make_workload("refine_ig", 1)
    wl_r.prepare()
    before = {(m, c, a): getattr(owner_of(m, c), a) for m, c, a, _, _ in spans.TARGETS}
    tracer = spans.Tracer()
    with wl_r.session(), spans.instrument(tracer):
        tracer.job = 0
        wl_t.run(wl_t.jobs[1])
        tracer.job = 1
        wl_r.run(wl_r.jobs[0])
    after = {(m, c, a): getattr(owner_of(m, c), a) for m, c, a, _, _ in spans.TARGETS}
    assert before == after

    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    roots = [s for s in tracer.spans if s[1] < 0]
    assert sorted(s[3] for s in roots) == ["sim.campaign.run_campaign", "transfer.pipeline.transfer_keypoint"]
    for sid, parent, job, name, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = by_id[parent]
            assert p[4] <= start and end <= p[5], (name, p[3])
            assert p[2] == job
    times = tracer.layer_times()
    assert all(row["self_s"] >= 0 for row in times.values())
    assert times["geometry.shape.SdfGrid.query"]["calls"] > 0
    total = sum((s[5] - s[4]) * 1e-9 for s in roots)
    assert sum(row["self_s"] for row in times.values()) == pytest.approx(total)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], float)


def test_untraced_run_on_held_out_seed_prints_end_to_end_metrics():
    result, report = run_cli("--workload", "refine_ig", "--seed", str(HELD_OUT_SEED),
                             "--seconds", "0", "--trace", "0")
    check_result(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["openblas_threads"] == {"numpy": 1, "scipy": 1}


def test_traced_run_prints_per_layer_metrics():
    result, report = run_cli("--workload", "transfer", "--seed", "1", "--seconds", "0", "--trace", "1")
    check_result(result, BENCH["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["transfer.nonrigid.nonrigid_register.s"] > 0
    assert m["transfer.matching.ransac_hypotheses"] == 2000 * workloads.TransferWorkload.trace_jobs
    assert m["refiner.filter.filter_update.s"] == 0  # not on this workload's path
    rec = report["reconcile"]
    assert rec["layer_self_sum_s"] <= rec["traced_job_s"]
    assert rec["layer_self_sum_s"] == pytest.approx(rec["traced_job_s"], rel=0.01)


def test_names_follow_the_contract():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in names
    assert set(spans.SELF_SECONDS) <= set(names)
    assert set(workloads.QUALITY_METRICS) <= set(names)
