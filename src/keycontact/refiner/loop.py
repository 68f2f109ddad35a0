"""The iterative contact-refinement loop: predict, select, probe, update."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from ..errors import ConfigError, RefinementDivergence
from .filter import (
    DEFAULT_PARTICLES,
    ContactMeasurement,
    NoiseConfig,
    ParticleSet,
    RelativePoseError,
    effective_sample_size,
    filter_estimate,
    filter_init,
    filter_predict,
    filter_update,
    resample,
    state_entropy,
    weight_entropy,
)
from .strategy import sample_contact_candidates, select_contact_strategy

__all__ = ["RefinementConfig", "StepDiagnostics", "RefinementResult", "run_refinement"]

DIVERGENCE_LIMIT = 3  # consecutive all-zero-likelihood updates before aborting


@dataclass(frozen=True)
class RefinementConfig:
    particles: int = DEFAULT_PARTICLES
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    selection: str = "ig"  # "ig" | "random"
    seed: int = 0

    def __post_init__(self):
        fails = {}
        if self.particles < 2:
            fails["particles"] = "must be >= 2"
        if self.selection not in ("ig", "random"):
            fails["selection"] = "must be 'ig' or 'random'"
        if fails:
            raise ConfigError(fails)


@dataclass(frozen=True)
class StepDiagnostics:
    step: int
    contact: bool
    entropy: float  # posterior weight entropy after the update
    state_entropy: float  # log-det spread of the particle cloud
    ess: float  # 1 / sum(w^2) of the weights `entropy` is taken from, before any resample
    resampled: bool  # the update's ESS fell below M/2, so the set was resampled
    expected_ig: float | None  # None under random selection, which computes no IG
    candidate_index: int
    travel: float
    translation_error: float  # vs ground truth (simulation only)
    rotation_error: float
    diverged: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RefinementResult:
    estimate: RelativePoseError
    steps: tuple[StepDiagnostics, ...]
    final_particles: ParticleSet


def run_refinement(scene, n_contacts: int, config: RefinementConfig) -> RefinementResult:
    """Iteratively refine the in-hand estimate through simulated contacts.

    Runs n_contacts rounds of predict -> strategy selection -> probe ->
    update -> resample on the given scene. Each round samples a fresh set of
    DEFAULT_POSITIONS x DEFAULT_ORIENTATIONS contact candidates. n_contacts
    = 0 returns the vision-only estimate untouched. Aborts with
    RefinementDivergence after DIVERGENCE_LIMIT consecutive
    all-zero-likelihood updates.
    """
    from ..sim.probe import ProbeSimulator

    if n_contacts < 0:
        raise ConfigError({"n_contacts": "must be >= 0"})
    if n_contacts == 0:
        ps0 = filter_init(scene.z_perceived, config.noise, config.particles, config.seed)
        return RefinementResult(RelativePoseError(scene.z_perceived), (), ps0)

    seeder = np.random.default_rng(config.seed)
    step_seeds = seeder.integers(0, 2**62, size=(n_contacts, 4))

    sim = ProbeSimulator(scene)
    vprobe = ProbeSimulator(scene, virtual=True).probe_batch
    ps = filter_init(scene.z_perceived, config.noise, config.particles, config.seed)
    rng_random_sel = np.random.default_rng(config.seed + 1)

    steps: list[StepDiagnostics] = []
    consecutive_zero = 0
    for n in range(1, n_contacts + 1):
        s_pred, s_sel, s_probe, s_res = (int(s) for s in step_seeds[n - 1])
        ps = filter_predict(ps, config.noise, seed=s_pred)
        # fresh candidate set per contact iteration
        candidates = sample_contact_candidates(scene.master_shape, seed=s_sel)

        if config.selection == "ig":
            sel = select_contact_strategy(ps, candidates, scene.master_shape, scene.master_perceived, vprobe,
                                          config.noise, scene.slave_shape, scene.slave_kf, seed=s_sel)
            cand_idx, expected_ig, z_plan = sel.candidate_index, float(sel.expected_ig), sel.z_plan
        else:
            cand_idx = int(rng_random_sel.integers(len(candidates)))
            expected_ig, z_plan = None, filter_estimate(ps)

        res = sim.probe(candidates[cand_idx], z_plan, scene.z_true, config.noise, seed=s_probe)
        diverged = resampled = False
        entropy = weight_entropy(ps)
        ess = effective_sample_size(ps)
        if res.contact:
            ps_new, diverged = filter_update(
                ps,
                ContactMeasurement(res.end_effector_pose, scene.master_perceived),
                scene.master_shape,
                scene.slave_shape,
                config.noise,
                slave_kf=scene.slave_kf,
            )
            if diverged:
                consecutive_zero += 1
            else:
                consecutive_zero = 0
                entropy = weight_entropy(ps_new)
                ess = effective_sample_size(ps_new)
                ps = resample(ps_new, seed=s_res)
                resampled = ps is not ps_new
        est = filter_estimate(ps)
        t_err = float(np.linalg.norm(est.t - scene.z_true.t))
        r_err = float(est.rotation_angle_to(scene.z_true))
        steps.append(
            StepDiagnostics(
                step=n,
                contact=bool(res.contact),
                entropy=entropy,
                state_entropy=state_entropy(ps),
                ess=ess,
                resampled=resampled,
                expected_ig=expected_ig,
                candidate_index=cand_idx,
                travel=float(res.travel),
                translation_error=t_err,
                rotation_error=r_err,
                diverged=diverged,
            )
        )
        if consecutive_zero >= DIVERGENCE_LIMIT:
            raise RefinementDivergence(
                f"{consecutive_zero} consecutive all-zero likelihood updates",
                diagnostics=tuple(steps),
            )

    return RefinementResult(
        estimate=RelativePoseError(filter_estimate(ps)),
        steps=tuple(steps),
        final_particles=ps,
    )
