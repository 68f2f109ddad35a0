import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

from keycontact.geometry import Pose, quat_from_rotvec, sdf_query
from keycontact.geometry.pose import quat_multiply
from keycontact.refiner import (
    NoiseConfig,
    ParticleSet,
    effective_sample_size,
    filter_estimate,
    filter_init,
    filter_update,
    resample,
    sample_contact_candidates,
    select_contact_strategy,
)
from keycontact.refiner import filter as filter_module
from keycontact.refiner.filter import contact_distances, contact_likelihood, slave_contact_points_in_keypoint_frame
from keycontact.refiner.strategy import DOWNSAMPLE, SCENARIOS, strategy_frames
from keycontact.sim import CampaignConfig, ProbeSimulator, make_peg_hole_scene, run_campaign, write_campaign_outputs
from keycontact.sim.campaign import Z95, wilson_interval
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


def _same_pose(a, b):
    return a.q.tobytes() == b.q.tobytes() and a.t.tobytes() == b.t.tobytes()


def test_probe_batch_of_mixed_strategies_matches_one_call_per_hypothesis(scene, candidates):
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 30, seed=6)
    far = Pose(scene.z_true.q, scene.z_true.t + np.array([1.0, 0.0, 0.0]))  # never touches
    strategies = [candidates[k % len(candidates)] for k in range(len(candidates) * 3)]
    z_actuals = [ps.particle(3 * h % 30) for h in range(len(strategies))]
    z_actuals[4] = far
    batch = sim.probe_batch(strategies, scene.z_perceived, z_actuals)
    assert len(batch) == len(strategies) and batch[4] is None
    for strategy, z_actual, got in zip(strategies, z_actuals, batch):
        (alone,) = sim.probe_batch([strategy], scene.z_perceived, [z_actual])
        assert (got is None) == (alone is None)
        if got is not None:
            assert _same_pose(got, alone)
    assert sim.probe_batch([], scene.z_perceived, []) == []
    with pytest.raises(ValueError):
        sim.probe_batch(strategies[:2], scene.z_perceived, z_actuals[:3])


def _scalar_approach(s, master_pose):
    # the frame formulas of one strategy at a time, as ContactStrategy's
    # approach_direction and keypoint_rotation computed them
    y_local = np.cross(s.z_local, s.x_local)
    d_local = -(np.cos(s.elevation) * s.z_local
                + np.sin(s.elevation) * (np.cos(s.azimuth) * s.x_local + np.sin(s.azimuth) * y_local))
    return master_pose.apply_direction(d_local / np.linalg.norm(d_local))


def _scalar_keypoint_rotation(s, master_pose):
    z = _scalar_approach(s, master_pose)
    ref = master_pose.apply_direction(s.x_local)
    u = ref - np.dot(ref, z) * z
    if np.linalg.norm(u) < 1e-9:
        ref = master_pose.apply_direction(np.cross(s.z_local, s.x_local))
        u = ref - np.dot(ref, z) * z
    u = u / np.linalg.norm(u)
    x = np.cos(s.roll) * u + np.sin(s.roll) * np.cross(z, u)
    return np.column_stack([x, np.cross(z, x), z])


def test_strategy_frames_match_per_strategy_frames_bitwise(scene, candidates):
    # elevation 90 deg at azimuth 0 points the approach along x_local: the
    # projected reference vanishes and the frame falls back to y_local
    edge_on = [replace(c, elevation=float(np.pi / 2), azimuth=0.0) for c in candidates[:3]]
    strategies = list(candidates) + edge_on
    master = scene.master_perceived
    rot, approach, target = strategy_frames(strategies, master)
    assert rot.shape == (len(strategies), 3, 3)
    for k, s in enumerate(strategies):
        (alone_rot,), (alone_approach,), (alone_target,) = strategy_frames([s], master)
        for got, want in ((rot[k], _scalar_keypoint_rotation(s, master)), (rot[k], alone_rot),
                          (approach[k], _scalar_approach(s, master)), (approach[k], alone_approach),
                          (target[k], master.apply(s.contact_point)), (target[k], alone_target)):
            assert got.tobytes() == want.tobytes()
    for k in range(len(candidates), len(strategies)):  # the fallback frames stay proper rotations
        assert np.allclose(rot[k].T @ rot[k], np.eye(3), atol=1e-12) and np.linalg.det(rot[k]) > 0


def test_contact_distances_of_many_grippers_match_one_call_each(scene, candidates):
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 12, seed=8)
    grippers = [sim.probe(c, scene.z_perceived, scene.z_true, NO_CONTACT_NOISE).end_effector_pose for c in candidates]
    pts = slave_contact_points_in_keypoint_frame(scene.slave_shape, scene.slave_kf)
    args = (scene.master_shape, scene.master_perceived, pts)
    d = contact_distances(ps.quats, ps.translations, grippers, *args)
    assert d.shape == (len(grippers), len(ps))
    for g, gripper in enumerate(grippers):
        alone = contact_distances(ps.quats, ps.translations, gripper, *args)
        assert alone.shape == (len(ps),) and alone.tobytes() == d[g].tobytes()


def _jittered_grippers(scene, candidates, n, seed):
    """n gripper poses scattered by about 1 mm and 1 degree around real probe contacts."""
    sim = ProbeSimulator(scene)
    hits = [sim.probe(c, scene.z_perceived, scene.z_true, NO_CONTACT_NOISE).end_effector_pose for c in candidates]
    rng = np.random.default_rng(seed)
    base = [hits[k % len(hits)] for k in range(n)]
    turns = quat_from_rotvec(rng.normal(0.0, 0.02, (n, 3)))
    return [Pose(quat_multiply(g.q, r), g.t + rng.normal(0.0, 0.001, 3)) for g, r in zip(base, turns)]


@pytest.mark.parametrize("n_grippers, n_particles", [(192, 10), (1, 500)])
def test_contact_distances_do_not_depend_on_the_block_size(scene, candidates, monkeypatch, n_grippers,
                                                           n_particles):
    ps = filter_init(scene.z_perceived, NoiseConfig(), n_particles, seed=4)
    grippers = _jittered_grippers(scene, candidates, n_grippers, seed=n_grippers)
    gripper = grippers if n_grippers > 1 else grippers[0]
    pts = slave_contact_points_in_keypoint_frame(scene.slave_shape, scene.slave_kf)
    rows = []
    min_sdf, default_block = filter_module._min_sdf, filter_module.BLOCK_POINTS

    def recording(g_q, g_t, quats, *args):
        rows.append(len(g_q) if n_grippers > 1 else len(quats))
        return min_sdf(g_q, g_t, quats, *args)

    monkeypatch.setattr(filter_module, "_min_sdf", recording)

    def distances(block_points):
        rows.clear()
        monkeypatch.setattr(filter_module, "BLOCK_POINTS", block_points)
        return contact_distances(ps.quats, ps.translations, gripper, scene.master_shape, scene.master_perceived,
                                 pts)

    one_pass = distances(10**9)
    assert rows == [max(n_grippers, n_particles)]
    assert one_pass.shape == ((n_grippers, n_particles) if n_grippers > 1 else (n_particles,))
    assert (np.abs(one_pass) < NoiseConfig().d_th).any() and len(np.unique(one_pass)) > n_particles // 2
    for block_points in (default_block, 1000, 1):
        assert distances(block_points).tobytes() == one_pass.tobytes()
        assert len(rows) > 1 and sum(rows) == max(n_grippers, n_particles)
    assert rows == [1] * max(n_grippers, n_particles)  # one row per block at the smallest size


def _per_candidate_selection(ps, candidates, scene, vprobe, noise, seed):
    """The candidate-at-a-time scoring loop, for comparison with the batched one."""
    m = len(ps)
    d_idx = np.unique(np.linspace(0, m - 1, min(DOWNSAMPLE, m)).round().astype(int))
    n_d = len(d_idx)
    pts = slave_contact_points_in_keypoint_frame(scene.slave_shape, scene.slave_kf)
    scen_idx = np.random.default_rng(seed).choice(m, size=(len(candidates), SCENARIOS), p=ps.weights)
    z_plan = filter_estimate(ps)
    mean_entropy = np.full(len(candidates), np.nan)
    for k, cand in enumerate(candidates):
        grippers = vprobe(cand, z_plan, [ps.particle(int(j)) for j in scen_idx[k]])
        entropies = []
        for gripper in grippers:
            if gripper is None:
                entropies.append(float(np.log(n_d)))
                continue
            d = contact_distances(ps.quats[d_idx], ps.translations[d_idx], gripper, scene.master_shape,
                                  scene.master_perceived, pts)
            lik = contact_likelihood(d, noise.d_th)
            if lik.sum() <= 0.0:
                entropies.append(float(np.log(n_d)))
                continue
            w = lik / lik.sum()
            w = w[w > 0]
            entropies.append(float(-(w * np.log(w)).sum()))
        if any(g is not None for g in grippers):
            mean_entropy[k] = float(np.mean(entropies))
    return int(np.nanargmin(mean_entropy)), mean_entropy


@pytest.mark.parametrize("profile", ["round", "hexagon"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_selection_matches_the_per_candidate_loop(profile, seed):
    scene = make_peg_hole_scene(profile, 0.002, 0.006, seed=seed)
    noise = NoiseConfig(d_th=0.002)
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, noise, 60, seed=seed)
    if seed > 0:  # scenarios drawn from non-uniform weights
        res = sim.probe(sample_contact_candidates(scene.master_shape, seed=seed + 10)[0], scene.z_perceived,
                        scene.z_true, noise, seed=seed)
        ps, _ = filter_update(ps, sim.measurement(res), scene.master_shape, scene.slave_shape, noise, scene.slave_kf)
    candidates = sample_contact_candidates(scene.master_shape, seed=seed)
    vprobe = sim.virtual_probe()
    sel = select_contact_strategy(ps, candidates, scene.master_shape, scene.master_perceived, vprobe, noise,
                                  scene.slave_shape, scene.slave_kf, seed=seed)
    best, want = _per_candidate_selection(ps, candidates, scene, vprobe, noise, seed)
    assert sel.candidate_index == best and sel.strategy is candidates[best]
    assert np.array_equal(np.isnan(sel.mean_entropies), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(sel.mean_entropies[ok] - want[ok]).max() <= 1e-12


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


def _wilson_closed_form(k, n):
    # (k + z^2/2 -+ z sqrt(k (n - k) / n + z^2 / 4)) / (n + z^2)
    z = Z95
    mid, half = k + z * z / 2, z * np.sqrt(k * (n - k) / n + z * z / 4)
    return (mid - half) / (n + z * z), (mid + half) / (n + z * z)


@pytest.mark.parametrize("k", [0, 11, 12])
def test_wilson_interval_matches_the_closed_form(k):
    lo, hi = wilson_interval(k, 12)
    want_lo, want_hi = _wilson_closed_form(k, 12)
    assert lo == pytest.approx(want_lo, abs=1e-12) and hi == pytest.approx(want_hi, abs=1e-12)
    assert 0.0 <= lo <= k / 12 <= hi <= 1.0


def test_wilson_interval_known_values():
    z2 = Z95 * Z95
    assert wilson_interval(0, 12) == (0.0, pytest.approx(z2 / (12 + z2), abs=1e-12))  # 0.2425
    assert wilson_interval(12, 12) == (pytest.approx(12 / (12 + z2), abs=1e-12), 1.0)  # 0.7575
    assert wilson_interval(11, 12) == (pytest.approx(0.6461, abs=5e-5), pytest.approx(0.9851, abs=5e-5))
    with pytest.raises(ValueError):
        wilson_interval(3, 0)


def test_campaign_summary_carries_wilson_intervals():
    cfg = CampaignConfig(profiles=("round",), trials=2, n_contacts=1, selection="random", particles=20)
    rows, summary = run_campaign(cfg, log=None)
    (cell,) = summary["cells"]
    for key in ("vision_success", "refined_success"):
        k = sum(getattr(r, key) for r in rows)
        assert cell[f"{key}_ci95"] == wilson_interval(k, len(rows))
        assert cell[f"{key}_ci95"][0] <= cell[f"{key}_rate"] <= cell[f"{key}_ci95"][1]
