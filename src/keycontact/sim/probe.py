"""Contact-probe simulation: advance the held slave until it touches the master.

The robot plans the approach against the perceived master pose using its
current in-hand estimate. Detection uses the minimum master-SDF over slave
contact samples; the contact travel is refined by bisection to the contact
tolerance. One lock-step march serves both kinds of probe: a real probe
marches one hypothesis, the true in-hand state, against the true master
pose and reports a noisy gripper pose; a virtual rollout marches a batch of
hypotheses against the perceived master pose, noise-free. Strategies come
as a StrategySet with one row per hypothesis: a real probe takes a set of
length 1, and a batch that shares one strategy indexes its row once per
hypothesis. Strategy selection rolls out every candidate-scenario pair of a
refinement step in one such march.

The march scores with the filter's contact kernel: its row writer and its
minimum-SDF reduction. The inverse master pose is folded into the
hypotheses once, so the samples never pass through world coordinates. At an
identity master pose, which every scene with noise-free master perception
has, the fold changes no bit; under any other an SDF value can differ in
its last bits from mapping world points through the inverse pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import DegenerateInputError
from ..geometry import Pose
from ..geometry.pose import _norm, matrix_to_quat, quat_multiply, quat_rotate, quat_to_matrix
from ..refiner.filter import (FILTER_SAMPLES, PROBE_SAMPLES, NoiseConfig, _min_over_rows, _write_rows,
                              slave_contact_points_in_keypoint_frame)
from ..refiner.strategy import StrategySet, strategy_frames
from .scenes import Scene

__all__ = ["ProbeResult", "ProbeSimulator"]

STANDOFF = 0.02  # m before the target point along the approach
STEP = 0.0005  # m, smallest sphere-march advance
MAX_TRAVEL = 0.05  # m
CONTACT_TOL = 1e-5  # 0.01 mm
# strategy ranking is insensitive to sub-d_th imprecision, so virtual
# rollouts use the filter's reduced sample set and a coarser bisection
VIRTUAL_CONTACT_TOL = 1e-4


@dataclass(frozen=True)
class ProbeResult:
    contact: bool
    end_effector_pose: Pose  # reported (possibly noisy) gripper pose
    travel: float


class ProbeSimulator:
    """Probe rollouts bound to one scene: real probes detect contact on PROBE_SAMPLES samples to CONTACT_TOL,
    virtual ones (strategy selection's) on the filter's FILTER_SAMPLES samples to VIRTUAL_CONTACT_TOL."""

    def __init__(self, scene: Scene, virtual: bool = False):
        self.scene = scene
        self.contact_tol = VIRTUAL_CONTACT_TOL if virtual else CONTACT_TOL
        self._slave_samples = slave_contact_points_in_keypoint_frame(
            scene.slave_shape, scene.slave_kf, FILTER_SAMPLES if virtual else PROBE_SAMPLES)

    def _sdf_along(
        self,
        kp_rot: np.ndarray,
        approach: np.ndarray,
        start: np.ndarray,
        q_actual: np.ndarray,
        t_actual: np.ndarray,
        z_plan: Pose,
        contact_master: Pose,
    ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """sdf_at(travels, active): min sample SDF of each active hypothesis at its own travel.

        Hypothesis h approaches along approach[h] from start[h] with planned
        keypoint rotation kp_rot[h] (from strategy_frames), while the slave
        actually sits at the in-hand state (q_actual[h], t_actual[h]). The
        inverse of contact_master is folded once into the keypoint
        rotations, start points, approaches and keypoint offsets, and the
        contact kernel's rows are written once per rollout; each call
        gathers those of the active hypotheses into one buffer kept for the
        rollout and adds the travelled offset to them in place.
        """
        inv_plan = z_plan.inverse()
        # actual keypoint = planned keypoint o (z_plan^-1 o z_actual); the
        # offset quaternion is normalized twice, as Pose.compose leaves it
        off_q = quat_multiply(inv_plan.q, q_actual)
        off_q = off_q / _norm(off_q)[:, None]
        off_q = off_q / _norm(off_q)[:, None]
        off_t = quat_rotate(inv_plan.q, t_actual) + inv_plan.t
        m_inv = contact_master.inverse()
        local_rot = m_inv.rotation_matrix() @ (kp_rot @ quat_to_matrix(off_q))
        n = len(self._slave_samples)
        rows = _write_rows(local_rot, self._slave_samples, np.empty(3 * len(kp_rot) * n), np.empty(len(kp_rot) * n))
        const_t = m_inv.apply_direction((kp_rot @ off_t[:, :, None])[:, :, 0])
        start, approach = m_inv.apply(start), m_inv.apply_direction(approach)
        master = self.scene.master_shape
        gathered = np.empty(rows.size)

        def sdf_at(travels: np.ndarray, active: np.ndarray) -> np.ndarray:
            idx = np.flatnonzero(active)
            pos = start[idx] + travels[idx, None] * approach[idx] + const_t[idx]
            # a C-contiguous out and mode="clip" (idx is in range) let take
            # write straight into the buffer, without a copy
            local = rows.take(idx, axis=1, out=gathered[: 3 * len(idx) * n].reshape(3, -1, n), mode="clip")
            local += pos.T[:, :, None]
            return _min_over_rows(master, local)

        return sdf_at

    def _march(
        self, sdf_at: Callable[[np.ndarray, np.ndarray], np.ndarray], s_count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lock-step sphere-march plus bisection of s_count hypotheses.

        Every hypothesis advances by its own safe step (one sdf_at batch per
        iteration): the min sample SDF bounds the safe advance, since the
        SDF is 1-Lipschitz along the straight path. Returns the travels and
        the contact flags (a miss, also one whose distance is not finite,
        ends at MAX_TRAVEL); each hypothesis' result is the same whatever
        else is in the batch.
        """
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
            # fmin: a NaN distance (a NaN pose) steps straight to MAX_TRAVEL and
            # ends there as a miss, as an infinite one does
            trial[idx] = np.fmin(travels[idx] + np.maximum(d[idx], STEP), MAX_TRAVEL)
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
        return np.where(bracketed, hi, travels), hit

    def _rollout(
        self,
        strategies: StrategySet,
        z_plan: Pose,
        q_actual: np.ndarray,
        t_actual: np.ndarray,
        contact_master: Pose,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """March hypothesis h along row h of strategies with the slave at (q_actual[h], t_actual[h]).

        The robot plans against the perceived master pose; contact is
        checked against contact_master. Returns the travels, the contact
        flags, and the planned gripper pose at each travel as quaternions
        (H, 4) and translations (H, 3). The gripper pose is keypoint pose o
        z_plan^-1 with its quaternion normalized as Pose.from_rotation and
        Pose.compose leave it, so Pose(q[h], t[h]) is bit-identical to
        composing the Poses.
        """
        if not len(strategies) == len(q_actual) == len(t_actual):
            raise DegenerateInputError(f"{len(strategies)} strategies for {len(q_actual)} in-hand "
                                       f"quaternions and {len(t_actual)} translations")
        kp_rot, approach, target = strategy_frames(strategies, self.scene.master_perceived)
        start = target - STANDOFF * approach
        sdf_at = self._sdf_along(kp_rot, approach, start, q_actual, t_actual, z_plan, contact_master)
        travels, hit = self._march(sdf_at, len(kp_rot))
        inv_plan = z_plan.inverse()
        kp_q = matrix_to_quat(kp_rot)
        kp_q = kp_q / _norm(kp_q)[:, None]
        g_q = quat_multiply(kp_q, inv_plan.q)
        g_q = g_q / _norm(g_q)[:, None]
        g_t = quat_rotate(kp_q, inv_plan.t) + (start + travels[:, None] * approach)
        return travels, hit, g_q, g_t

    def probe(
        self,
        strategy: StrategySet,
        z_plan: Pose,
        z_actual: Pose,
        noise: NoiseConfig,
        seed: int = 0,
    ) -> ProbeResult:
        """Advance along the approach of a set of one strategy until contact or budget end.

        Contact is checked against the true master pose with the true
        in-hand state z_actual: a march of one hypothesis. At contact the
        reported gripper pose carries N(0, contact_sigma) noise per axis
        (contact_sigma = 0: none).
        """
        (travel,), (hit,), (g_q,), (g_t,) = self._rollout(
            strategy, z_plan, z_actual.q[None], z_actual.t[None], self.scene.master_true
        )
        gripper = Pose(g_q, g_t)
        if hit and noise.contact_sigma > 0:
            rng = np.random.default_rng(seed)
            gripper = Pose(gripper.q, gripper.t + rng.normal(0.0, noise.contact_sigma, 3))
        return ProbeResult(bool(hit), gripper, float(travel))

    def probe_batch(
        self,
        strategies: StrategySet,
        z_plan: Pose,
        q_actuals: np.ndarray,
        t_actuals: np.ndarray,
    ) -> list[Optional[Pose]]:
        """Noise-free rollouts of H hypotheses in one lock-step march.

        Hypothesis h follows row h of strategies with the slave at the
        in-hand state (q_actuals[h], t_actuals[h]), as a ParticleSet holds
        them: (H, 4) and (H, 3) arrays. Each quaternion is normalized as Pose
        normalizes it, so hypothesis h rolls out as Pose(q_actuals[h],
        t_actuals[h]) would. Contact is checked against the perceived master
        pose, the frame the filter scores particles in. Returns the gripper
        pose at contact per hypothesis, or None where the approach never
        contacts; each entry is bit-identical to rolling its hypothesis out
        alone.
        """
        q_actual = np.asarray(q_actuals, dtype=float).reshape(-1, 4)
        t_actual = np.asarray(t_actuals, dtype=float).reshape(-1, 3)
        q_actual = q_actual / _norm(q_actual)[:, None]
        q_actual[q_actual[:, 0] < 0.0] *= -1.0
        _, hit, g_q, g_t = self._rollout(strategies, z_plan, q_actual, t_actual, self.scene.master_perceived)
        return [Pose(q, t) if contact else None for q, t, contact in zip(g_q, g_t, hit)]
