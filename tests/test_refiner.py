import contextlib
import functools
import io
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from keycontact.errors import ConfigError, DegenerateInputError
from keycontact.geometry import Pose, penetration_depth, quat_from_rotvec, sdf_query
from keycontact.geometry.pose import _norm, quat_multiply, quat_rotate, quat_to_matrix
from keycontact.geometry.shape import SdfGrid
from keycontact.refiner import (
    ContactMeasurement,
    NoiseConfig,
    ParticleSet,
    RefinementConfig,
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
from keycontact.refiner import strategy as strategy_module
from keycontact.refiner.strategy import (
    DOWNSAMPLE,
    ELEVATION_MAX,
    FLAT_TOL,
    SCENARIOS,
    StrategySet,
    _flat_patch_mask,
    _tangent_basis,
    strategy_frames,
)
from keycontact.sim import (CampaignConfig, ProbeSimulator, SceneNoise, make_peg_hole_scene, run_campaign,
                            write_campaign_outputs)
from keycontact.sim.campaign import Z95, wilson_interval
from keycontact.sim.probe import CONTACT_TOL, MAX_TRAVEL, PROBE_SAMPLES, STANDOFF
from keycontact.sim.scenes import INSERT_MARGIN, offset_polygon, profile_polygon

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


@pytest.mark.parametrize("moved", ["master", "slave"])
def test_penetration_depth_rejects_a_nan_translation(scene, moved):
    # max(0.0, nan) is 0.0, which would read as "no penetration"
    poses = {"master": Pose.identity(), "slave": Pose.identity(), moved: Pose(t=(np.nan, 0.0, 0.0))}
    with pytest.raises(DegenerateInputError, match="finite"):
        penetration_depth(scene.master_shape, poses["master"], scene.slave_shape, poses["slave"])


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
    assert sim.probe_batch(candidates[0], scene.z_perceived, far.q[None], far.t[None]) == [None]


def test_probe_equals_probe_batch_without_master_noise(scene, candidates):
    exact = replace(scene, master_perceived=scene.master_true)
    sim = ProbeSimulator(exact)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 20, seed=4)
    for cand in candidates:
        for j in range(0, 20, 5):
            z_actual = Pose(ps.quats[j], ps.translations[j])
            res = sim.probe(cand, scene.z_perceived, z_actual, NO_CONTACT_NOISE)
            (batch,) = sim.probe_batch(cand, scene.z_perceived, ps.quats[j:j + 1], ps.translations[j:j + 1])
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


STRATEGY_FIELDS = ("points", "normals", "tangents", "azimuth", "elevation", "roll")


def _same_set(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in STRATEGY_FIELDS)


def test_probe_batch_of_mixed_strategies_matches_one_call_per_hypothesis(scene, candidates):
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 30, seed=6)
    far = Pose(scene.z_true.q, scene.z_true.t + np.array([1.0, 0.0, 0.0]))  # never touches
    strategies = candidates[np.arange(len(candidates) * 3) % len(candidates)]
    scen = 3 * np.arange(len(strategies)) % 30
    q_actuals, t_actuals = ps.quats[scen], ps.translations[scen].copy()
    t_actuals[4] = far.t
    batch = sim.probe_batch(strategies, scene.z_perceived, q_actuals, t_actuals)
    assert len(batch) == len(strategies) and batch[4] is None
    for h, (strategy, got) in enumerate(zip(strategies, batch)):
        (alone,) = sim.probe_batch(strategy, scene.z_perceived, q_actuals[h:h + 1], t_actuals[h:h + 1])
        assert (got is None) == (alone is None)
        if got is not None:
            assert _same_pose(got, alone)
    assert sim.probe_batch(candidates[np.arange(0)], scene.z_perceived, np.empty((0, 4)), np.empty((0, 3))) == []
    with pytest.raises(ValueError):
        sim.probe_batch(strategies[:2], scene.z_perceived, q_actuals[:3], t_actuals[:3])


def test_probe_batch_normalizes_quaternions_as_pose_does(scene, candidates):
    sim = ProbeSimulator(replace(scene, master_perceived=scene.master_true))
    ps = filter_init(scene.z_perceived, NoiseConfig(), 12, seed=3)
    strategies = candidates[np.arange(12) % len(candidates)]
    # -q is the same rotation, and a scaled q is renormalized as Pose renormalizes it
    for q in (-ps.quats, ps.quats * (1.0 + 1e-7)):
        got = sim.probe_batch(strategies, scene.z_perceived, q, ps.translations)
        assert any(g is not None for g in got)
        for strategy, g, q_h, t_h in zip(strategies, got, q, ps.translations):
            res = sim.probe(strategy, scene.z_perceived, Pose(q_h, t_h), NO_CONTACT_NOISE)
            assert (g is None) == (not res.contact)
            if g is not None:
                assert _same_pose(g, res.end_effector_pose)


def _scalar_approach(s, master_pose):
    # the frame formulas of one strategy at a time, as the per-strategy
    # approach_direction and keypoint_rotation computed them
    (z_local,), (x_local,), (elevation,), (azimuth,) = s.normals, s.tangents, s.elevation, s.azimuth
    y_local = np.cross(z_local, x_local)
    d_local = -(np.cos(elevation) * z_local
                + np.sin(elevation) * (np.cos(azimuth) * x_local + np.sin(azimuth) * y_local))
    return master_pose.apply_direction(d_local / np.linalg.norm(d_local))


def _scalar_keypoint_rotation(s, master_pose):
    (z_local,), (x_local,), (roll,) = s.normals, s.tangents, s.roll
    z = _scalar_approach(s, master_pose)
    ref = master_pose.apply_direction(x_local)
    u = ref - np.dot(ref, z) * z
    if np.linalg.norm(u) < 1e-9:
        ref = master_pose.apply_direction(np.cross(z_local, x_local))
        u = ref - np.dot(ref, z) * z
    u = u / np.linalg.norm(u)
    x = np.cos(roll) * u + np.sin(roll) * np.cross(z, u)
    return np.column_stack([x, np.cross(z, x), z])


def _concatenate(*sets):
    return StrategySet(*(np.concatenate([getattr(s, name) for s in sets]) for name in STRATEGY_FIELDS))


def test_strategy_frames_match_per_strategy_frames_bitwise(scene, candidates):
    # elevation 90 deg at azimuth 0 points the approach along x_local: the
    # projected reference vanishes and the frame falls back to y_local
    edge_on = replace(candidates[:3], elevation=np.full(3, np.pi / 2), azimuth=np.zeros(3))
    strategies = _concatenate(candidates, edge_on)
    master = scene.master_perceived
    rot, approach, target = strategy_frames(strategies, master)
    assert rot.shape == (len(strategies), 3, 3)
    for k, s in enumerate(strategies):
        (alone_rot,), (alone_approach,), (alone_target,) = strategy_frames(s, master)
        for got, want in ((rot[k], _scalar_keypoint_rotation(s, master)), (rot[k], alone_rot),
                          (approach[k], _scalar_approach(s, master)), (approach[k], alone_approach),
                          (target[k], master.apply(s.points[0])), (target[k], alone_target)):
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


# a master pose off the identity, for the kernels that fold its inverse in
MOVED_MASTER = Pose.from_rotvec([0.03, -0.02, 0.05], [0.004, -0.003, 0.002])


def _world_min_sdf(g_q, g_t, quats, trans, master, master_pose, slave_contact_points):
    """Scoring as it was before the master-pose fold: world points, then sdf_query."""
    kp_world = quat_rotate(g_q[:, None, :], trans) + g_t[:, None, :]
    r_g = quat_to_matrix(g_q)[:, None, :, :, None]
    r_z = quat_to_matrix(quats)[None, :, None, :, :]
    rot = (r_g[..., 0, :] * r_z[..., 0, :] + r_g[..., 1, :] * r_z[..., 1, :]) + r_g[..., 2, :] * r_z[..., 2, :]
    rot = rot[:, :, None]
    p = slave_contact_points[:, None, :]
    pts = (rot[..., 0] * p[..., 0] + rot[..., 2] * p[..., 2]) + rot[..., 1] * p[..., 1]
    pts += kp_world[:, :, None, :]
    d = sdf_query(master, master_pose, pts.reshape(-1, 3))
    return d.reshape(len(g_q), len(quats), -1).min(axis=2)


@pytest.mark.parametrize("n_grippers, n_particles", [(192, 10), (1, 500)])
@pytest.mark.parametrize("moved", [False, True])
def test_contact_distances_match_scoring_in_world_coordinates(scene, candidates, n_grippers, n_particles, moved):
    master_pose = MOVED_MASTER if moved else scene.master_perceived
    ps = filter_init(scene.z_perceived, NoiseConfig(), n_particles, seed=5)
    # grippers near contact, carried along with the master
    grippers = [master_pose.compose(g) for g in _jittered_grippers(scene, candidates, n_grippers, seed=7)]
    pts = slave_contact_points_in_keypoint_frame(scene.slave_shape, scene.slave_kf)
    d = contact_distances(ps.quats, ps.translations, grippers if n_grippers > 1 else grippers[0],
                          scene.master_shape, master_pose, pts)
    want = _world_min_sdf(np.array([g.q for g in grippers]), np.array([g.t for g in grippers]), ps.quats,
                          ps.translations, scene.master_shape, master_pose, pts)
    want = want if n_grippers > 1 else want[0]
    assert d.shape == want.shape and (np.abs(d) < NoiseConfig().d_th).any()
    if moved:
        assert np.abs(d - want).max() <= 1e-15
    else:
        assert d.tobytes() == want.tobytes()


def _world_sdf_along(sim, kp_rot, approach, start, q_actual, t_actual, z_plan, contact_master):
    """The march's SDF as it was before the master-pose fold: world points, then the inverse pose."""
    m_inv = contact_master.inverse()
    m_inv_rot, m_inv_t = m_inv.rotation_matrix(), m_inv.t
    inv_plan = z_plan.inverse()
    off_q = quat_multiply(inv_plan.q, q_actual)
    off_q = off_q / _norm(off_q)[:, None]
    off_q = off_q / _norm(off_q)[:, None]
    off_t = quat_rotate(inv_plan.q, t_actual) + inv_plan.t
    akp_rot = kp_rot @ quat_to_matrix(off_q)
    rotated = sim._slave_samples @ (akp_rot @ sim._kf_inv.rotation_matrix()).transpose(0, 2, 1)
    const_t = (kp_rot @ off_t[:, :, None])[:, :, 0] + akp_rot @ sim._kf_inv.t
    n = len(sim._slave_samples)

    def sdf_at(travels, active):
        pos = start[active] + travels[active, None] * approach[active] + const_t[active]
        world = rotated[active] + pos[:, None, :]
        local = world.reshape(-1, 3) @ m_inv_rot.T + m_inv_t
        return sim.scene.master_shape.sdf_local(local).reshape(-1, n).min(axis=1)

    return sdf_at


@pytest.mark.parametrize("moved", [False, True])
def test_march_sdf_matches_world_coordinates(scene, candidates, moved):
    sim = ProbeSimulator(scene)
    contact_master = MOVED_MASTER if moved else scene.master_perceived
    ps = filter_init(scene.z_perceived, NoiseConfig(), 40, seed=9)
    strategies = candidates[np.arange(40) % len(candidates)]
    kp_rot, approach, target = strategy_frames(strategies, scene.master_perceived)
    args = (kp_rot, approach, target - STANDOFF * approach, ps.quats, ps.translations, scene.z_perceived,
            contact_master)
    got, want = sim._sdf_along(*args), _world_sdf_along(sim, *args)
    travels = np.linspace(0.0, MAX_TRAVEL, 40)
    for active in (np.ones(40, dtype=bool), np.arange(40) % 3 == 1):
        d, d_want = got(travels, active), want(travels, active)
        assert len(d) == active.sum() and (np.abs(d) < 1e-3).any()
        if moved:
            assert np.abs(d - d_want).max() <= 1e-15
        else:
            assert d.tobytes() == d_want.tobytes()


def test_probe_batch_is_bit_identical_to_marching_in_world_coordinates(scene, candidates, monkeypatch):
    sim = ProbeSimulator(scene)
    ps = filter_init(scene.z_perceived, NoiseConfig(), 30, seed=6)
    strategies = candidates[np.arange(30) % len(candidates)]
    got = sim.probe_batch(strategies, scene.z_perceived, ps.quats, ps.translations)
    monkeypatch.setattr(ProbeSimulator, "_sdf_along", _world_sdf_along)
    want = sim.probe_batch(strategies, scene.z_perceived, ps.quats, ps.translations)
    assert sum(g is not None for g in got) >= len(got) // 2
    assert [g is None for g in got] == [w is None for w in want]
    assert all(_same_pose(g, w) for g, w in zip(got, want) if g is not None)


def test_every_sdf_point_of_a_selection_step_goes_through_the_grid_query(scene, monkeypatch):
    sim = ProbeSimulator(scene)
    vprobe = sim.virtual_probe()
    noise = NoiseConfig(d_th=0.002)
    ps = filter_init(scene.z_perceived, noise, 60, seed=2)
    candidates = sample_contact_candidates(scene.master_shape, seed=2)
    queried, marched, scored = [], [], []
    query, along, distances = SdfGrid.query, ProbeSimulator._sdf_along, strategy_module.contact_distances

    def counting_query(self, points):
        queried.append(len(points))
        return query(self, points)

    def counting_along(self, *args):
        sdf_at = along(self, *args)
        return lambda travels, active: marched.append(int(active.sum()) * len(self._slave_samples)) or sdf_at(
            travels, active)

    def counting_distances(quats, trans, grippers, master, master_pose, pts):
        scored.append(len(quats) * len(grippers) * len(pts))
        return distances(quats, trans, grippers, master, master_pose, pts)

    monkeypatch.setattr(SdfGrid, "query", counting_query)
    monkeypatch.setattr(ProbeSimulator, "_sdf_along", counting_along)
    monkeypatch.setattr(strategy_module, "contact_distances", counting_distances)
    select_contact_strategy(ps, candidates, scene.master_shape, scene.master_perceived, vprobe, noise,
                            scene.slave_shape, scene.slave_kf, seed=2)
    assert marched and scored
    assert sum(queried) == sum(marched) + sum(scored)


def _per_position_flat_mask(master, points, normals, margin):
    """The flat-patch test one position at a time, one SDF query each."""
    th = 2.0 * np.pi * np.arange(8) / 8
    ring = np.column_stack([np.cos(th), np.sin(th)])
    ok, tangents = [], []
    for p, n in zip(points, normals):
        e = np.zeros(3)
        e[int(np.argmin(np.abs(n)))] = 1.0
        u = e - np.dot(e, n) * n
        u = u / np.linalg.norm(u)
        v = np.cross(n, u)
        q = p[None, :] + margin * (ring[:, :1] * u[None, :] + ring[:, 1:] * v[None, :])
        ok.append(bool((np.abs(master.sdf_local(q)) <= FLAT_TOL).all()))
        tangents.append((u, v))
    return np.array(ok), tangents


@pytest.mark.parametrize("profile", ["round", "hexagon"])
@pytest.mark.parametrize("margin", [0.003, 0.009])
def test_flat_patch_mask_matches_the_per_position_loop(profile, margin):
    master = make_peg_hole_scene(profile, 0.002, 0.006, seed=0).master_shape
    points, faces = master.mesh.sample_surface(300, seed=4)
    normals = master.mesh.face_normals()[faces]
    want, tangents = _per_position_flat_mask(master, points, normals, margin)
    got = _flat_patch_mask(master, points, normals, margin)
    assert got.dtype == bool and np.array_equal(got, want)
    assert want.any() and not want.all()
    u, v = _tangent_basis(normals)
    for k, (u_want, v_want) in enumerate(tangents):
        assert u[k].tobytes() == u_want.tobytes() and v[k].tobytes() == v_want.tobytes()


def _per_strategy_candidates(master, n_positions, n_orientations, seed):
    """Candidates built one strategy at a time, with one scalar draw per phase and roll.

    The sampling loop as it was before strategies became one set of arrays;
    returns the six fields, stacked.
    """
    rng = np.random.default_rng(seed)
    points, faces = master.mesh.sample_surface(n_positions, seed=seed)
    normals = master.mesh.face_normals()[faces]
    collected_p, collected_n = [], []
    for _ in range(40):
        mask = _flat_patch_mask(master, points, normals, strategy_module.FLAT_MARGIN)
        collected_p.extend(points[mask])
        collected_n.extend(normals[mask])
        if len(collected_p) >= n_positions:
            break
        points, faces = master.mesh.sample_surface(max(n_positions * 2, 8), seed=int(rng.integers(2**62)))
        normals = master.mesh.face_normals()[faces]
    points, normals = np.array(collected_p[:n_positions]), np.array(collected_n[:n_positions])
    rows = []
    x_locs, _ = _tangent_basis(normals)
    for p, n, x_loc in zip(points, normals, x_locs):
        angles = [(0.0, 0.0)]
        remaining = n_orientations - 1
        if remaining > 0:
            n_rings = int(np.ceil(remaining / 6))
            base = remaining // n_rings
            extra = remaining - base * n_rings
            counts = [base + (1 if r < extra else 0) for r in range(n_rings)]
            for r, cnt in enumerate(counts, start=1):
                elev = ELEVATION_MAX * r / n_rings
                phase = rng.uniform(0.0, 2.0 * np.pi)
                for a in range(cnt):
                    angles.append((phase + 2.0 * np.pi * a / cnt, elev))
        for az, elev in angles[:n_orientations]:
            rows.append((p, n, x_loc, float(az % (2.0 * np.pi)), float(elev), float(rng.uniform(0.0, 2.0 * np.pi))))
    return {name: np.array(column) for name, column in zip(STRATEGY_FIELDS, zip(*rows))}


@functools.lru_cache(maxsize=None)
def _master(profile):
    return make_peg_hole_scene(profile, 0.002, 0.006, seed=0).master_shape


@pytest.mark.parametrize("profile", ["round", "hexagon"])
@pytest.mark.parametrize("n_orientations", [1, 2, 7, 12, 13])
def test_candidate_set_equals_the_per_strategy_loop(profile, n_orientations):
    for seed in (0, 7):
        got = sample_contact_candidates(_master(profile), 4, n_orientations, seed=seed)
        want = _per_strategy_candidates(_master(profile), 4, n_orientations, seed)
        assert len(got) == 4 * n_orientations
        for name in STRATEGY_FIELDS:
            assert getattr(got, name).tobytes() == want[name].tobytes(), name


def test_strategy_set_indexing_returns_the_parent_rows(candidates):
    n = len(candidates)
    cases = [(3, [3]), (np.int64(-1), [n - 1]), (slice(2, 9, 3), [2, 5, 8]), (slice(None), list(range(n))),
             (np.array([4, 0, 4, -2]), [4, 0, 4, n - 2]), ([1] * SCENARIOS, [1] * SCENARIOS), (np.arange(0), [])]
    for index, rows in cases:
        got = candidates[index]
        assert isinstance(got, StrategySet) and len(got) == len(rows)
        for name in STRATEGY_FIELDS:
            want = getattr(candidates, name)[np.array(rows, dtype=int)]
            assert getattr(got, name).shape == want.shape and getattr(got, name).tobytes() == want.tobytes()
    with pytest.raises(IndexError):
        candidates[n]
    assert sum(1 for _ in candidates) == n


def test_strategy_set_is_read_only_and_validated(candidates):
    for name in STRATEGY_FIELDS:
        arr = getattr(candidates, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    source = candidates.points.copy()
    copied = replace(candidates, points=source)
    source[0] = 1.0  # the set keeps its own copy
    assert copied.points.tobytes() == candidates.points.tobytes()
    with pytest.raises(ConfigError) as err:
        replace(candidates, normals=candidates.normals * 1.01)
    assert "normals" in err.value.failures
    with pytest.raises(ConfigError) as err:
        replace(candidates, roll=candidates.roll[:-1])
    assert "rows" in err.value.failures


def _per_candidate_selection(ps, candidates, scene, vprobe, noise, seed):
    """The candidate-at-a-time scoring loop, for comparison with the batched one."""
    m = len(ps)
    d_idx = np.unique(np.linspace(0, m - 1, min(DOWNSAMPLE, m)).round().astype(int))
    n_d = len(d_idx)
    pts = slave_contact_points_in_keypoint_frame(scene.slave_shape, scene.slave_kf)
    scen_idx = np.random.default_rng(seed).choice(m, size=(len(candidates), SCENARIOS), p=ps.weights)
    z_plan = filter_estimate(ps)
    mean_entropy = np.full(len(candidates), np.nan)
    for k in range(len(candidates)):
        grippers = vprobe(candidates[[k] * SCENARIOS], z_plan, ps.quats[scen_idx[k]], ps.translations[scen_idx[k]])
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
    assert sel.candidate_index == best
    assert np.array_equal(np.isnan(sel.mean_entropies), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.abs(sel.mean_entropies[ok] - want[ok]).max() <= 1e-12


def test_ig_probe_plans_with_the_selection_z_plan(monkeypatch):
    from keycontact.refiner import loop
    from keycontact.refiner.loop import RefinementConfig, run_refinement

    scene = make_peg_hole_scene("round", 0.002, 0.006, seed=1)
    plans, probed, chosen, probed_sets = [], [], [], []
    select, probe = loop.select_contact_strategy, ProbeSimulator.probe

    def recording_select(ps, candidates, *args, **kwargs):
        sel = select(ps, candidates, *args, **kwargs)
        plans.append((sel.z_plan, filter_estimate(ps)))
        chosen.append(candidates[sel.candidate_index])
        return sel

    def recording_probe(self, strategy, z_plan, *args, **kwargs):
        probed.append(z_plan)
        probed_sets.append(strategy)
        return probe(self, strategy, z_plan, *args, **kwargs)

    monkeypatch.setattr(loop, "select_contact_strategy", recording_select)
    monkeypatch.setattr(ProbeSimulator, "probe", recording_probe)
    run_refinement(scene, 3, RefinementConfig(particles=60, noise=NoiseConfig(d_th=0.002), seed=4))
    assert len(plans) == len(probed) == 3
    for (z_sel, z_fresh), z_probe in zip(plans, probed):
        assert z_probe is z_sel
        assert z_probe.q.tobytes() == z_fresh.q.tobytes() and z_probe.t.tobytes() == z_fresh.t.tobytes()
    for want, got in zip(chosen, probed_sets):  # the probe touches where the selection chose
        assert len(got) == 1 and _same_set(got, want)


@pytest.mark.parametrize("kwargs, field", [({"n_positions": 0}, "n_positions"),
                                           ({"n_orientations": 0}, "n_orientations"),
                                           ({"flat_margin": 0.0}, "flat_margin")])
def test_candidate_sampling_config_errors_name_the_field(scene, kwargs, field):
    with pytest.raises(ConfigError) as err:
        sample_contact_candidates(scene.master_shape, **kwargs)
    assert list(err.value.failures) == [field]


def test_candidate_sampling_without_flat_positions_is_degenerate(scene):
    # a 1 m ring leaves every surface of the block
    with pytest.raises(DegenerateInputError, match="flat contact positions"):
        sample_contact_candidates(scene.master_shape, flat_margin=1.0)


def _select(scene, candidates, vprobe):
    ps = filter_init(scene.z_perceived, NoiseConfig(), 20, seed=1)
    return select_contact_strategy(ps, candidates, scene.master_shape, scene.master_perceived, vprobe,
                                   NoiseConfig(), scene.slave_shape, scene.slave_kf, seed=1)


def test_selection_over_an_empty_set_is_degenerate(scene, candidates):
    with pytest.raises(DegenerateInputError, match="empty"):
        _select(scene, candidates[np.arange(0)], ProbeSimulator(scene).virtual_probe())


def test_selection_without_any_contact_is_degenerate(scene, candidates):
    def never_touches(strategies, z_plan, q_actuals, t_actuals):
        return [None] * len(strategies)

    with pytest.raises(DegenerateInputError, match="valid contact scenario"):
        _select(scene, candidates, never_touches)


def test_probe_batch_with_mismatched_lengths_is_degenerate(scene, candidates):
    ps = filter_init(scene.z_perceived, NoiseConfig(), 3, seed=1)
    with pytest.raises(DegenerateInputError, match="2 strategies for 3 in-hand quaternions"):
        ProbeSimulator(scene).probe_batch(candidates[:2], scene.z_perceived, ps.quats, ps.translations)


def test_negative_contact_count_is_a_config_error(scene):
    from keycontact.refiner.loop import RefinementConfig, run_refinement

    with pytest.raises(ConfigError) as err:
        run_refinement(scene, -1, RefinementConfig(particles=20))
    assert list(err.value.failures) == ["n_contacts"]


# --- filter -----------------------------------------------------------------

@pytest.mark.parametrize("m, weights, match", [
    (3, np.full(2, 0.5), "must align"),
    (1, np.ones(1), "M >= 2"),
    (2, np.array([1.5, -0.5]), "non-negative"),
    (2, np.zeros(2), "sum to a positive value"),
], ids=["misaligned", "too-few", "negative", "zero-sum"])
def test_particle_set_rejects_malformed_arrays(m, weights, match):
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (m, 1))
    with pytest.raises(DegenerateInputError, match=match):
        ParticleSet(quats, np.zeros((m, 3)), weights)


def test_filter_init_rejects_fewer_than_two_particles(scene):
    with pytest.raises(ConfigError) as ei:
        filter_init(scene.z_perceived, NoiseConfig(), 1)
    assert set(ei.value.failures) == {"m"}


def test_filter_update_rejects_an_unconfirmed_contact(scene):
    ps = filter_init(scene.z_perceived, NoiseConfig(), 4)
    meas = ContactMeasurement(Pose.identity(), scene.master_perceived, confirmed=False)
    with pytest.raises(DegenerateInputError, match="only confirmed contacts"):
        filter_update(ps, meas, scene.master_shape, scene.slave_shape, NoiseConfig(), scene.slave_kf)


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


# --- scenes -----------------------------------------------------------------

@pytest.mark.parametrize("profile, clearance, depth, fields", [
    ("round", -0.001, 0.006, {"clearance"}),
    ("round", 0.002, INSERT_MARGIN, {"depth"}),
    ("bogus", -0.001, 0.0, {"profile", "clearance", "depth"}),
], ids=["clearance", "depth", "all"])
def test_scene_config_errors_name_every_failing_field(profile, clearance, depth, fields):
    with pytest.raises(ConfigError) as err:
        make_peg_hole_scene(profile, clearance, depth, seed=0)
    assert set(err.value.failures) == fields


def test_unknown_profile_is_a_config_error_naming_it():
    with pytest.raises(ConfigError) as err:
        profile_polygon("bogus", 0.005)
    assert set(err.value.failures) == {"profile"}


def test_offsetting_a_polygon_that_doubles_back_is_degenerate():
    spike = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateInputError, match="degenerate polygon corner"):
        offset_polygon(spike, 0.001)


# --- campaign ---------------------------------------------------------------

def test_campaign_depth_at_the_insertion_margin_fails_validation():
    with pytest.raises(ConfigError) as err:
        CampaignConfig(depth=INSERT_MARGIN).validate()
    assert set(err.value.failures) == {"depth"}


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


def test_campaign_summarises_a_repeated_cell_from_its_own_trials():
    cfg = CampaignConfig(profiles=("round", "round"), trials=1, n_contacts=1, selection="random", particles=20)
    rows, summary = run_campaign(cfg, log=None)
    assert len(rows) == 2
    assert [cell["trials"] for cell in summary["cells"]] == [1, 1]


def test_a_bare_refinement_config_scores_contacts_with_the_campaign_kernel():
    assert RefinementConfig().noise.d_th == CampaignConfig().d_th


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


@pytest.mark.parametrize("k, n", [(3, 0), (-1, 5), (6, 5)])
def test_wilson_interval_of_impossible_counts_is_degenerate(k, n):
    with pytest.raises(DegenerateInputError):
        wilson_interval(k, n)


def test_campaign_summary_carries_wilson_intervals():
    cfg = CampaignConfig(profiles=("round",), trials=2, n_contacts=1, selection="random", particles=20)
    rows, summary = run_campaign(cfg, log=None)
    (cell,) = summary["cells"]
    for key in ("vision_success", "refined_success"):
        k = sum(getattr(r, key) for r in rows)
        assert cell[f"{key}_ci95"] == wilson_interval(k, len(rows))
        assert cell[f"{key}_ci95"][0] <= cell[f"{key}_rate"] <= cell[f"{key}_ci95"][1]


def test_scene_noise_refuses_negative_sigmas_naming_each():
    with pytest.raises(ConfigError) as err:
        SceneNoise(in_hand_sigma_t=-0.005, in_hand_sigma_r=-0.1)
    assert set(err.value.failures) == {"in_hand_sigma_t", "in_hand_sigma_r"}
    with pytest.raises(ConfigError) as err:
        SceneNoise(in_hand_sigma_r=-1e-9)
    assert set(err.value.failures) == {"in_hand_sigma_r"}
    scene = make_peg_hole_scene("round", 0.002, 0.006, seed=3, noise=SceneNoise(0.0, 0.0))  # zero: no noise
    assert scene.z_perceived.q.tobytes() == scene.z_true.q.tobytes()
    assert scene.z_perceived.t.tobytes() == scene.z_true.t.tobytes()


# two IG trials after the scenes are built, minor page faults per trial
_TRIAL_FAULTS = """
import json, resource
from keycontact.sim import CampaignConfig, make_peg_hole_scene, run_campaign
cfg = CampaignConfig(profiles=("round",), trials=1, selection="ig")
make_peg_hole_scene("round", cfg.clearance, cfg.depth, seed=0)
faults = []
for seed in (11, 12):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_campaign(cfg, seeds=[seed], log=None)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc malloc tunables")
def test_ig_trials_fault_in_few_pages_under_low_allocator_thresholds():
    # with both thresholds at 128 KiB, every large temporary is a fresh
    # mmap that faults its pages in; a trial that reuses its buffers does not
    # depend on what set-up freed before it
    import keycontact

    src = str(Path(keycontact.__file__).resolve().parents[1])
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072",
           "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _TRIAL_FAULTS], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(faults) == 2 and max(faults) < 20_000, faults
