import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

from keycontact.geometry import Pose, sdf_query
from keycontact.refiner import (
    NoiseConfig,
    ParticleSet,
    effective_sample_size,
    filter_init,
    filter_update,
    resample,
    sample_contact_candidates,
)
from keycontact.sim import CampaignConfig, ProbeSimulator, make_peg_hole_scene, run_campaign, write_campaign_outputs
from keycontact.sim.probe import CONTACT_TOL, MAX_TRAVEL, PROBE_SAMPLES

NO_CONTACT_NOISE = NoiseConfig(contact_sigma=0.0)


@pytest.fixture(scope="module")
def scene():
    return make_peg_hole_scene("round", 0.002, 0.006, seed=3)


@pytest.fixture(scope="module")
def candidates(scene):
    return sample_contact_candidates(scene.master_shape, 6, 2, seed=3, flat_margin=0.009)


def _min_slave_sdf(scene, gripper, z_actual):
    """Min master SDF over the probe's slave samples at a gripper pose."""
    pts, _ = scene.slave_shape.surface_samples(PROBE_SAMPLES, seed=7)
    samples = np.vstack([scene.slave_kf.origin[None, :], pts])
    world = scene.slave_object_pose(gripper, z_actual).apply(samples)
    return float(sdf_query(scene.master_shape, scene.master_true, world).min())


# --- probe ------------------------------------------------------------------

def test_probe_hit_lands_on_the_surface(scene, candidates):
    sim = ProbeSimulator(scene)
    moved = 0
    for cand in candidates:
        res = sim.probe(cand, scene.z_perceived, scene.z_true, NO_CONTACT_NOISE)
        assert res.contact and 0.0 <= res.travel < MAX_TRAVEL
        d = _min_slave_sdf(scene, res.end_effector_pose, scene.z_true)
        if res.travel > 0.0:
            moved += 1
            assert abs(d) <= CONTACT_TOL + 1e-12
        else:  # already touching at the standoff point
            assert d <= CONTACT_TOL
    assert moved >= len(candidates) // 2


def test_probe_miss_reports_full_travel(scene, candidates):
    sim = ProbeSimulator(scene)
    # a slave held a meter off to the side never reaches the block
    far = Pose(scene.z_true.q, scene.z_true.t + np.array([1.0, 0.0, 0.0]))
    res = sim.probe(candidates[0], scene.z_perceived, far, NoiseConfig())
    assert not res.contact
    assert res.travel == MAX_TRAVEL
    assert sim.probe_batch(candidates[0], scene.z_perceived, [far]) == [None]


def test_probe_equals_probe_batch_without_master_noise(scene, candidates):
    exact = replace(scene, master_perceived=scene.master_true)
    sim = ProbeSimulator(exact)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 20, seed=4)
    for cand in candidates:
        for j in range(0, 20, 5):
            z_actual = ps.particle(j)
            res = sim.probe(cand, scene.z_perceived, z_actual, NO_CONTACT_NOISE)
            (batch,) = sim.probe_batch(cand, scene.z_perceived, [z_actual])
            if not res.contact:
                assert batch is None
                continue
            assert batch.q.tobytes() == res.end_effector_pose.q.tobytes()
            assert batch.t.tobytes() == res.end_effector_pose.t.tobytes()


def test_probe_noise_moves_only_the_reported_translation(scene, candidates):
    sim = ProbeSimulator(scene)
    clean = sim.probe(candidates[0], scene.z_perceived, scene.z_true, NO_CONTACT_NOISE)
    noisy = sim.probe(candidates[0], scene.z_perceived, scene.z_true, NoiseConfig(contact_sigma=3e-4), seed=5)
    assert clean.contact and noisy.contact and clean.travel == noisy.travel
    assert np.array_equal(clean.end_effector_pose.q, noisy.end_effector_pose.q)
    assert 0.0 < np.linalg.norm(noisy.end_effector_pose.t - clean.end_effector_pose.t) < 5e-3


# --- filter -----------------------------------------------------------------

def test_weights_normalized_after_update_and_resample(scene, candidates):
    noise = NoiseConfig(d_th=0.002)
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, noise, 300, seed=2)
    updated = 0
    for k, cand in enumerate(candidates):
        res = sim.probe(cand, scene.z_perceived, scene.z_true, noise, seed=k)
        if not res.contact:
            continue
        new, diverged = filter_update(
            ps, sim.measurement(res), scene.master_shape, scene.slave_shape, noise, slave_kf=scene.slave_kf
        )
        if diverged:
            continue
        updated += 1
        assert (new.weights >= 0).all()
        assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)
        ps = resample(new, seed=k)
        assert ps.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert updated >= 1


def test_systematic_resample_is_uniform_and_unbiased():
    m = 40
    rng = np.random.default_rng(0)
    w = rng.random(m) ** 6
    w /= w.sum()
    q = np.tile([1.0, 0.0, 0.0, 0.0], (m, 1))
    t = np.column_stack([np.arange(m), np.zeros(m), np.zeros(m)]).astype(float)
    ps = ParticleSet(q, t, w)
    assert effective_sample_size(ps) < m / 2  # so resample does trigger
    out = resample(ps, seed=9)
    assert np.array_equal(out.weights, np.full(m, 1.0 / m))
    counts = np.bincount(out.translations[:, 0].astype(int), minlength=m)
    # systematic resampling keeps each particle floor(M w) or ceil(M w) times
    assert (np.abs(counts - m * w) < 1.0).all()


# --- campaign ---------------------------------------------------------------

def test_campaign_outputs_byte_identical_across_reruns(tmp_path):
    cfg = CampaignConfig(profiles=("round",), trials=2, n_contacts=2, selection="random", particles=40)
    paths = []
    for run in range(2):
        rows, summary = run_campaign(cfg, log=None)
        csv, js = tmp_path / f"rows{run}.csv", tmp_path / f"summary{run}.json"
        write_campaign_outputs(rows, summary, csv, js)
        paths.append((csv, js))
    (csv_a, js_a), (csv_b, js_b) = paths
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert js_a.read_bytes() == js_b.read_bytes()
    assert len(csv_a.read_text().splitlines()) == 1 + cfg.trials


def test_campaign_logs_to_the_stderr_current_at_the_call():
    cfg = CampaignConfig(profiles=("round",), trials=1, n_contacts=1, selection="random", particles=20)
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        run_campaign(cfg)
    assert captured.getvalue().startswith("campaign: 1 trials in ")
    silent = io.StringIO()
    with contextlib.redirect_stderr(silent):
        run_campaign(cfg, log=None)
    assert silent.getvalue() == ""
