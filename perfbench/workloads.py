"""The benchmark's workloads: inputs, jobs, output checks and quality numbers.

Every workload is a fixed list of jobs generated from the run seed. A job is
one call into the public API: `transfer_keypoint` for `transfer`, and
`run_campaign` with one seed for `refine_ig`. The first
`quality_jobs` jobs of the list form the quality set: the run always finishes
them, so the quality numbers and the output digest are deterministic per
seed, whatever the speed of the code. See README.md for why each workload
exists.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import keycontact.sim as sim
import keycontact.sim.campaign as campaign
import keycontact.transfer as transfer
from keycontact.errors import RefinementDivergence
from keycontact.geometry import PointCloud, Pose, icosphere_mesh
from keycontact.keypoints import KeypointFrame

# -- transfer inputs ----------------------------------------------------------

SMALL_POINTS = 800  # the volumetric test object of tests/test_transfer.py
SMALL_OBJECT_SEED = 15
LARGE_POINTS = 5000  # surface cloud, about 950-voxel regions
SPHERE_RADIUS = 0.06
SPHERE_SAMPLE_SEED = 0
# How soon CPD converges on the large pair depends on the target pose (5-12 s
# per call over poses). That one job is a third of a run, so its pose is
# fixed rather than drawn from the run seed, or it would set the spread of
# jobs_per_s across seeds. The small jobs take their poses from the run seed.
LARGE_POSE_SEED = 0
SCALE = 1.2
NOISE_FRAC = 0.05
VARIANTS = ("rigid", "scaled", "noise")
SMALL_JOBS_PER_VARIANT = 15  # per pass of the job list; one large job per pass
# a transferred frame counts as a success within these of the analytic frame
ORIGIN_TOL_MM = 4.0
AXIS_TOL_DEG = 5.0

# -- refine inputs ------------------------------------------------------------

PROFILES = ("round", "hexagon")
DIVERGED = "filter diverged"
REFINE_LIST_LEN = 400
N_CONTACTS = campaign.CampaignConfig().n_contacts


def harmonic_features(points: np.ndarray) -> np.ndarray:
    """Smooth position-derived 8-D descriptors (as in tests/test_transfer.py)."""
    p = points / 0.05
    return np.column_stack([
        np.sin(p[:, 0]), np.cos(p[:, 0]),
        np.sin(p[:, 1]), np.cos(p[:, 1]),
        np.sin(p[:, 2]), np.cos(p[:, 2]),
        np.sin(2 * p[:, 0] + p[:, 1]), np.cos(2 * p[:, 1] - p[:, 2]),
    ])


def small_object() -> tuple[PointCloud, KeypointFrame]:
    pts = np.random.default_rng(SMALL_OBJECT_SEED).uniform(-0.05, 0.05, (SMALL_POINTS, 3))
    kf = KeypointFrame.from_axes(np.array([0.03, 0.01, -0.02]), (1, 0, 0), (0, 0, -1), "ref", "slave")
    return PointCloud(pts, harmonic_features(pts)), kf


def large_object() -> tuple[PointCloud, KeypointFrame]:
    pts, _ = icosphere_mesh(SPHERE_RADIUS, subdivisions=3).sample_surface(LARGE_POINTS, seed=SPHERE_SAMPLE_SEED)
    direction = np.array([-0.05, -0.98, -0.19])
    origin = SPHERE_RADIUS * direction / np.linalg.norm(direction)
    kf = KeypointFrame.from_axes(origin, (0, 1, 0), (0, 0, -1), "ref", "slave")
    return PointCloud(pts, harmonic_features(pts)), kf


def random_pose(rng: np.random.Generator) -> Pose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Pose.from_rotvec(rng.uniform(0, np.pi) * axis, rng.uniform(-0.05, 0.05, 3))


@dataclass(frozen=True)
class TransferJob:
    kind: str  # "<small|large>_<variant>"
    ref: PointCloud
    ref_kf: KeypointFrame
    target: PointCloud
    config: transfer.TransferConfig
    expected: Pose  # analytic target frame


def make_transfer_job(kind: str, ref: PointCloud, kf: KeypointFrame, rng: np.random.Generator) -> TransferJob:
    variant = kind.split("_", 1)[1]
    g = random_pose(rng)
    frame = kf.as_pose()
    if variant == "scaled":
        target = PointCloud(g.apply(SCALE * ref.points), ref.features)
        expected = g.compose(Pose(frame.q, SCALE * frame.t))
    else:
        features = ref.features
        if variant == "noise":
            scale = NOISE_FRAC * np.linalg.norm(features, axis=1, keepdims=True)
            features = features + rng.normal(size=features.shape) * scale
        target = PointCloud(g.apply(ref.points), features)
        expected = g.compose(frame)
    config = transfer.TransferConfig(seed=int(rng.integers(2**31)))
    return TransferJob(kind, ref, kf, target, config, expected)


def frame_errors(frame: KeypointFrame, expected: Pose) -> tuple[float, float]:
    """(origin error in mm, rotation error in degrees) against the analytic frame."""
    got = frame.as_pose()
    return 1e3 * got.translation_distance_to(expected), math.degrees(got.rotation_angle_to(expected))


class TransferWorkload:
    """Featured cloud pairs through `transfer_keypoint`; mostly small regions."""

    name = "transfer"
    quality_jobs = 1 + len(VARIANTS) * 7
    trace_jobs = 1 + len(VARIANTS)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        small, small_kf = small_object()
        large, large_kf = large_object()
        self.jobs = [make_transfer_job("large_rigid", large, large_kf, np.random.default_rng(LARGE_POSE_SEED))]
        for _ in range(SMALL_JOBS_PER_VARIANT):
            for v in VARIANTS:
                self.jobs.append(make_transfer_job(f"small_{v}", small, small_kf, rng))
        self._warmup = make_transfer_job("small_rigid", small, small_kf, np.random.default_rng([seed, 1]))

    def prepare(self) -> None:
        """First-call effects (allocator, BLAS buffers, lazy imports) land here."""
        self.run(self._warmup)

    @contextmanager
    def session(self):
        yield

    def run(self, job: TransferJob):
        return transfer.transfer_keypoint(job.ref, job.ref_kf, job.target, job.config)

    def check(self, job: TransferJob, out) -> str | None:
        frame, _ = out
        axes = np.column_stack([frame.x_axis, frame.y_axis, frame.z_axis])
        if not (np.isfinite(frame.origin).all() and np.isfinite(axes).all()):
            return "non-finite frame"
        if np.abs(axes.T @ axes - np.eye(3)).max() > 1e-6 or np.linalg.det(axes) <= 0:
            return "frame axes not orthonormal and right-handed"
        return None

    def retain(self, out):
        return out

    def fingerprint(self, out) -> bytes:
        frame, _ = out
        arr = np.concatenate([frame.origin, frame.x_axis, frame.y_axis, frame.z_axis])
        return ",".join(float(v).hex() for v in arr).encode() + b"\n"

    def quality(self, jobs: list[TransferJob], outs: list) -> dict:
        done = [(job, frame_errors(out[0], job.expected)) for job, out in zip(jobs, outs) if out is not None]
        if not done:
            return {"success_rate": 0.0}
        origin = np.array([e[0] for _, e in done])
        axis = np.array([e[1] for _, e in done])
        by_kind = {}
        for kind in sorted({job.kind for job, _ in done}):
            sel = [i for i, (job, _) in enumerate(done) if job.kind == kind]
            by_kind[kind] = {"origin_err_mm_mean": float(origin[sel].mean()),
                             "axis_err_deg_mean": float(axis[sel].mean()), "jobs": len(sel)}
        successes = int(((origin <= ORIGIN_TOL_MM) & (axis <= AXIS_TOL_DEG)).sum())
        return {
            "success_rate": successes / len(jobs),
            "origin_err_mm_mean": float(origin.mean()),
            "axis_err_deg_mean": float(axis.mean()),
            "by_kind": by_kind,
        }


@dataclass(frozen=True)
class RefineJob:
    seed: int
    config: campaign.CampaignConfig


@dataclass(frozen=True)
class RefineOutput:
    rows: list
    summary: dict
    refinement: object  # RefinementResult, or None when the filter diverged


class RefineWorkload:
    """Single-seed campaign trials with IG selection on the round and hexagon profiles."""

    name = "refine_ig"
    quality_jobs = 24
    trace_jobs = 10

    def __init__(self, seed: int):
        trial_seeds = np.random.default_rng([seed, 2]).choice(10**6, size=REFINE_LIST_LEN, replace=False)
        self.jobs = [
            RefineJob(int(s), campaign.CampaignConfig(profiles=(PROFILES[i % len(PROFILES)],), trials=1,
                                                      selection="ig"))
            for i, s in enumerate(trial_seeds)
        ]
        self._captured: list = []

    def prepare(self) -> None:
        """Builds the profiles' shape models (SDF grids); the library memoizes them."""
        cfg = campaign.CampaignConfig()
        for profile in PROFILES:
            sim.make_peg_hole_scene(profile, cfg.clearance, cfg.depth, seed=0)

    @contextmanager
    def session(self):
        """Captures each trial's RefinementResult, which `run_campaign` does not return."""
        orig = campaign.run_refinement
        sink = self._captured

        def run_refinement(*args, **kwargs):
            try:
                res = orig(*args, **kwargs)
            except RefinementDivergence:
                sink.append(None)
                raise
            sink.append(res)
            return res

        campaign.run_refinement = run_refinement
        try:
            yield
        finally:
            campaign.run_refinement = orig

    def run(self, job: RefineJob) -> RefineOutput:
        self._captured.clear()
        rows, summary = sim.run_campaign(job.config, seeds=[job.seed], log=None)
        return RefineOutput(rows, summary, self._captured[-1] if self._captured else None)

    def check(self, job: RefineJob, out: RefineOutput) -> str | None:
        if len(out.rows) != 1:
            return f"expected one trial row, got {len(out.rows)}"
        row = out.rows[0]
        if row.diverged or out.refinement is None:
            return DIVERGED
        w = out.refinement.final_particles.weights
        if not (np.isfinite(w).all() and (w >= 0).all() and abs(w.sum() - 1.0) <= 1e-9):
            return "final particle weights do not sum to 1"
        est = out.refinement.estimate.value
        floats = [row.refined_lateral, row.refined_rotation, row.final_translation_error]
        if not (np.isfinite(est.q).all() and np.isfinite(est.t).all() and np.isfinite(floats).all()):
            return "non-finite refined estimate"
        return None

    def retain(self, out: RefineOutput) -> RefineOutput:
        """Drops the particle set, so memory does not grow with the job count."""
        return replace(out, refinement=None)

    def fingerprint(self, out: RefineOutput) -> bytes:
        return campaign_csv(out.rows, out.summary)

    def quality(self, jobs: list[RefineJob], outs: list) -> dict:
        rows = [out.rows[0] for out in outs if out is not None and len(out.rows) == 1]
        if not rows:
            return {"success_rate": 0.0}
        reach = [r.contacts_to_1p5mm if r.contacts_to_1p5mm > 0 else N_CONTACTS + 1 for r in rows]
        return {
            "success_rate": sum(r.refined_success for r in rows) / len(jobs),
            "lateral_err_mm_mean": 1e3 * float(np.mean([r.refined_lateral for r in rows])),
            "rotation_err_deg_mean": math.degrees(float(np.mean([r.refined_rotation for r in rows]))),
            "contacts_to_1p5mm_mean": float(np.mean(reach)),
        }


OUT_DIR = Path(__file__).resolve().parent / "out"  # reports, spans and scratch CSVs


def campaign_csv(rows: list, summary: dict) -> bytes:
    """The CSV bytes `write_campaign_outputs` writes for these rows."""
    OUT_DIR.mkdir(exist_ok=True)
    csv_path, summary_path = OUT_DIR / "trial.csv", OUT_DIR / "trial_summary.json"
    sim.write_campaign_outputs(rows, summary, csv_path, summary_path)
    return csv_path.read_bytes()


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def make_workload(name: str, seed: int):
    if name == "transfer":
        return TransferWorkload(seed)
    if name == "refine_ig":
        return RefineWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("transfer", "refine_ig")
# quality numbers reported as per-layer metrics; each applies to one workload family
QUALITY_METRICS = ("origin_err_mm_mean", "axis_err_deg_mean", "lateral_err_mm_mean",
                   "rotation_err_deg_mean", "contacts_to_1p5mm_mean")
