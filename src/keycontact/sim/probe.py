"""Contact-probe simulation: advance the held slave until it touches the master.

The robot plans the approach against the perceived master pose using its
current in-hand estimate. Detection uses the minimum master-SDF over slave
surface samples; the contact travel is refined by bisection to the contact
tolerance. One lock-step march serves both kinds of probe: a real probe
marches one hypothesis, the true in-hand state, against the true master
pose and reports a noisy gripper pose; a virtual rollout marches a batch of
hypothesized in-hand states against the perceived master pose, noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..geometry import Pose
from ..refiner.filter import ContactMeasurement, NoiseConfig
from ..refiner.strategy import ContactStrategy
from .scenes import Scene

__all__ = ["ProbeResult", "ProbeSimulator"]

STANDOFF = 0.02  # m before the target point along the approach
STEP = 0.0005  # m, smallest sphere-march advance
MAX_TRAVEL = 0.05  # m
CONTACT_TOL = 1e-5  # 0.01 mm
PROBE_SAMPLES = 96
# strategy ranking is insensitive to sub-d_th imprecision, so virtual
# rollouts use a reduced sample set and a coarser bisection
VIRTUAL_CONTACT_TOL = 1e-4
VIRTUAL_SAMPLES = 64


@dataclass(frozen=True)
class ProbeResult:
    contact: bool
    end_effector_pose: Pose  # reported (possibly noisy) gripper pose
    travel: float


class ProbeSimulator:
    """Probe rollouts bound to one scene."""

    def __init__(self, scene: Scene, contact_tol: float = CONTACT_TOL, n_samples: int = PROBE_SAMPLES):
        self.scene = scene
        self.contact_tol = float(contact_tol)
        pts, _ = scene.slave_shape.surface_samples(n_samples, seed=7)
        # the keypoint itself always belongs to the contact sample set
        self._slave_samples = np.vstack([scene.slave_kf.origin[None, :], pts])
        self._kf_inv = scene.slave_kf.as_pose().inverse()

    def _march(
        self, strategy: ContactStrategy, z_plan: Pose, z_actuals: list[Pose], contact_master: Pose
    ) -> tuple[np.ndarray, np.ndarray, Callable[[float], Pose]]:
        """Lock-step sphere-march plus bisection of one strategy under several in-hand states.

        Every hypothesis advances by its own safe step (one SDF batch per
        iteration): the min sample SDF bounds the safe advance, since the
        SDF is 1-Lipschitz along the straight path. Returns the travels, the
        contact flags (a miss ends at MAX_TRAVEL) and the map from a travel
        to the planned gripper pose there.
        """
        master = self.scene.master_perceived
        kp_rot = strategy.keypoint_rotation(master)
        approach = strategy.approach_direction(master)
        start = strategy.target_point_world(master) - STANDOFF * approach
        m_inv = contact_master.inverse()
        m_inv_rot, m_inv_t = m_inv.rotation_matrix(), m_inv.t
        inv_plan = z_plan.inverse()

        # actual keypoint = planned keypoint o (z_plan^-1 o z_actual)
        s_count = len(z_actuals)
        n = len(self._slave_samples)
        rotated = np.empty((s_count, n, 3))
        const_t = np.empty((s_count, 3))
        for i, z_a in enumerate(z_actuals):
            off = inv_plan.compose(z_a)
            akp_rot = kp_rot @ off.rotation_matrix()
            slave_rot = akp_rot @ self._kf_inv.rotation_matrix()
            rotated[i] = self._slave_samples @ slave_rot.T
            const_t[i] = kp_rot @ off.t + akp_rot @ self._kf_inv.t

        def sdf_at(travels: np.ndarray, active: np.ndarray) -> np.ndarray:
            """Min sample SDF per active hypothesis at its own travel."""
            pos = start[None, :] + travels[active, None] * approach[None, :] + const_t[active]
            world = rotated[active] + pos[:, None, :]
            local = world.reshape(-1, 3) @ m_inv_rot.T + m_inv_t
            d = self.scene.master_shape.sdf_local(local).reshape(-1, n)
            return d.min(axis=1)

        tol = self.contact_tol
        travels = np.zeros(s_count)
        lo = np.zeros(s_count)
        hi = np.full(s_count, np.nan)  # NaN: not yet bracketed
        d = sdf_at(travels, np.ones(s_count, dtype=bool))
        hit = d <= tol
        done = hit.copy()

        while (~done).any():
            active = ~done
            idx = np.nonzero(active)[0]
            trial = travels.copy()
            trial[idx] = np.minimum(travels[idx] + np.maximum(d[idx], STEP), MAX_TRAVEL)
            d_next = sdf_at(trial, active)
            crossed = d_next <= 0.0
            touched = (~crossed) & (d_next <= tol)
            exhausted = (~crossed) & (~touched) & (trial[idx] >= MAX_TRAVEL)
            lo[idx[crossed]] = travels[idx[crossed]]
            hi[idx[crossed]] = trial[idx[crossed]]
            travels[idx] = trial[idx]
            d[idx] = d_next
            hit[idx[crossed | touched]] = True
            done[idx[crossed | touched | exhausted]] = True

        # batched bisection of the bracketed hypotheses
        bracketed = hit & ~np.isnan(hi)
        while bracketed.any() and (hi[bracketed] - lo[bracketed] > tol).any():
            open_b = bracketed & (hi - lo > tol)
            mids = 0.5 * (lo + hi)
            dm = sdf_at(mids, open_b)
            idx = np.nonzero(open_b)[0]
            below = dm <= 0.0
            hi[idx[below]] = mids[idx[below]]
            lo[idx[~below]] = mids[idx[~below]]
        travels = np.where(bracketed, hi, travels)

        def gripper_at(travel: float) -> Pose:
            return Pose.from_rotation(kp_rot, start + travel * approach).compose(inv_plan)

        return travels, hit, gripper_at

    def probe(
        self,
        strategy: ContactStrategy,
        z_plan: Pose,
        z_actual: Pose,
        noise: NoiseConfig,
        seed: int = 0,
    ) -> ProbeResult:
        """Advance along the strategy approach until contact or budget end.

        Contact is checked against the true master pose with the true
        in-hand state z_actual; at contact the reported gripper pose carries
        N(0, contact_sigma) noise per axis (contact_sigma = 0: none).
        """
        (travel,), (hit,), gripper_at = self._march(strategy, z_plan, [z_actual], self.scene.master_true)
        gripper = gripper_at(travel)
        if hit and noise.contact_sigma > 0:
            rng = np.random.default_rng(seed)
            gripper = Pose(gripper.q, gripper.t + rng.normal(0.0, noise.contact_sigma, 3))
        return ProbeResult(bool(hit), gripper, float(travel))

    def measurement(self, result: ProbeResult) -> ContactMeasurement:
        """Contact measurement for the filter (perceived master pose)."""
        return ContactMeasurement(
            end_effector_pose=result.end_effector_pose,
            master_pose=self.scene.master_perceived,
            confirmed=result.contact,
        )

    def probe_batch(self, strategy: ContactStrategy, z_plan: Pose, z_actuals: list[Pose]) -> list[Optional[Pose]]:
        """Noise-free rollouts of one strategy under several in-hand hypotheses.

        Contact is checked against the perceived master pose, the frame the
        filter scores particles in. Returns the gripper pose at contact per
        hypothesis, or None where the approach never contacts.
        """
        travels, hit, gripper_at = self._march(strategy, z_plan, z_actuals, self.scene.master_perceived)
        return [gripper_at(t) if h else None for t, h in zip(travels, hit)]

    def virtual_probe(self):
        """Batched rollout callable for strategy selection: the bound
        probe_batch of a simulator with VIRTUAL_SAMPLES samples and
        VIRTUAL_CONTACT_TOL tolerance."""
        return ProbeSimulator(self.scene, VIRTUAL_CONTACT_TOL, VIRTUAL_SAMPLES).probe_batch
