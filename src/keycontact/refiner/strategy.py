"""Contact strategy sampling and information-gain-based selection.

A contact strategy is a point on the master surface with a local frame whose
Z axis is the surface normal, plus an approach orientation for the slave
keypoint (azimuth/elevation of its z axis around the inward direction, and a
roll of its x axis). A StrategySet holds K of them as arrays, one row per
strategy; a single strategy is a set of length 1. Selection scores each
candidate by the expected entropy of the posterior weight distribution over
hypothetical contact scenarios and keeps the minimizer; the information gain
follows as log(N_d) minus that entropy under a uniform prior over the
downsampled subset.

A selection step is batched end to end: strategy_frames gives the world
frames of a whole set at once, one virtual-probe call rolls out every
candidate-scenario pair (the candidate set indexed with each row repeated
SCENARIOS times) in a single lock-step march, and one contact_distances call
(one SDF query) scores all resulting contacts against the downsampled
particles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError, DegenerateInputError
from ..geometry import Pose, ShapeModel
from ..geometry.pose import _dot, _norm
from .filter import (
    NoiseConfig,
    ParticleSet,
    contact_distances,
    contact_likelihood,
    filter_estimate,
    slave_contact_points_in_keypoint_frame,
)

__all__ = [
    "StrategySet",
    "StrategySelection",
    "sample_contact_candidates",
    "select_contact_strategy",
    "strategy_frames",
    "DEFAULT_POSITIONS",
    "DEFAULT_ORIENTATIONS",
]

DEFAULT_POSITIONS = 4
DEFAULT_ORIENTATIONS = 12
ELEVATION_MAX = np.deg2rad(60.0)  # steepest approach tilt off the anti-normal
# reject contact positions without this much flat tangent room (m), where a
# ring of that radius stays within FLAT_TOL of the surface
FLAT_MARGIN = 0.009
FLAT_TOL = 3e-4
SCENARIOS = 4  # hypothetical ground truths scored per candidate
DOWNSAMPLE = 10  # particles whose posterior entropy scores a scenario


def _tangent_basis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent pairs (P, 3) for unit normals (P, 3).

    Row p projects the axis least aligned with normal p off it; it is
    bit-identical to doing so for that normal alone with np.dot and
    np.linalg.norm.
    """
    e = np.zeros_like(normals)
    e[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    x = e - _dot(e, normals)[:, None] * normals
    x = x / _norm(x)[:, None]
    return x, np.cross(normals, x)


_FIELDS = {"points": (-1, 3), "normals": (-1, 3), "tangents": (-1, 3), "azimuth": -1, "elevation": -1, "roll": -1}


@dataclass(frozen=True, eq=False)
class StrategySet:
    """K contact strategies: where and how to touch the master (master-frame arrays).

    Row k touches the master surface at points[k], whose unit normals[k] is
    the local Z and tangents[k] the local X reference, and approaches at
    (azimuth[k], elevation[k]) with roll[k]. Every array is a read-only
    copy. Indexing with an int, a slice or an integer index array returns
    the selected rows as a new set.
    """

    points: np.ndarray  # (K, 3) on the master surface
    normals: np.ndarray  # (K, 3) surface normals at the points
    tangents: np.ndarray  # (K, 3) tangent references
    azimuth: np.ndarray  # (K,)
    elevation: np.ndarray  # (K,)
    roll: np.ndarray  # (K,)

    def __post_init__(self):
        for name, shape in _FIELDS.items():
            v = np.array(getattr(self, name), dtype=float).reshape(shape)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if len({len(getattr(self, name)) for name in _FIELDS}) > 1:
            raise ConfigError({"rows": "every field needs one row per strategy"})
        if (np.abs(_norm(self.normals) - 1.0) > 1e-6).any():
            raise ConfigError({"normals": "must be unit norm"})

    def __len__(self) -> int:
        return len(self.roll)

    def __getitem__(self, index) -> "StrategySet":
        rows = [index] if isinstance(index, (int, np.integer)) else index
        return StrategySet(*(getattr(self, name)[rows] for name in _FIELDS))


def strategy_frames(strategies: StrategySet, master_pose: Pose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World frames of a set of S strategies against a master pose, batched.

    Returns the slave keypoint rotations (S, 3, 3), whose z column is the
    approach and whose x column is the master tangent reference projected
    off the approach and rolled about it; the approach directions (S, 3),
    unit vectors pointing into the surface; and the contact points in world
    (S, 3). Where the tangent reference is parallel to the approach
    (|u| < 1e-9) the row falls back to the other tangent axis. Each row is
    bit-identical to computing its strategy alone.
    """
    z_loc, x_loc = strategies.normals, strategies.tangents
    az, el, roll = strategies.azimuth[:, None], strategies.elevation[:, None], strategies.roll[:, None]
    y_loc = np.cross(z_loc, x_loc)
    d_local = -(np.cos(el) * z_loc + np.sin(el) * (np.cos(az) * x_loc + np.sin(az) * y_loc))
    z = master_pose.apply_direction(d_local / _norm(d_local)[:, None])

    ref = master_pose.apply_direction(x_loc)
    u = ref - _dot(ref, z)[:, None] * z
    flat = _norm(u) < 1e-9
    if flat.any():
        ref = master_pose.apply_direction(y_loc[flat])
        u[flat] = ref - _dot(ref, z[flat])[:, None] * z[flat]
    u = u / _norm(u)[:, None]
    x = np.cos(roll) * u + np.sin(roll) * np.cross(z, u)
    y = np.cross(z, x)
    return np.stack([x, y, z], axis=2), z, master_pose.apply(strategies.points)


def _flat_patch_mask(master: ShapeModel, points: np.ndarray, normals: np.ndarray,
                     margin: float) -> np.ndarray:
    """True where a tangent ring of the given radius still hugs the surface.

    Rejects positions near edges, corners and cavity rims, where flush
    contact with a finite-footprint slave is impossible and the contact
    manifold turns ambiguous. The 8-point rings of all positions go through
    one SDF query.
    """
    k = 8
    th = 2.0 * np.pi * np.arange(k) / k
    ring = np.column_stack([np.cos(th), np.sin(th)])[None, :, :, None]  # -, k, 2, -
    u, v = _tangent_basis(normals)
    q = points[:, None, :] + margin * (ring[:, :, 0] * u[:, None, :] + ring[:, :, 1] * v[:, None, :])
    d = master.sdf_local(q.reshape(-1, 3)).reshape(len(points), k)
    return (np.abs(d) <= FLAT_TOL).all(axis=1)


def sample_contact_candidates(
    master: ShapeModel,
    n_positions: int = DEFAULT_POSITIONS,
    n_orientations: int = DEFAULT_ORIENTATIONS,
    seed: int = 0,
    flat_margin: float = FLAT_MARGIN,
) -> StrategySet:
    """n_positions x n_orientations strategies, position-major, deterministic per seed.

    Positions are area-weighted uniform on the master surface with the face
    normal as the local Z. Positions whose tangent neighborhood of radius
    flat_margin leaves the surface (edges, rims) are rejection-resampled, so
    flush contact stays geometrically possible. Orientations stratify the
    approach over rings of elevation up to ELEVATION_MAX: the first is the
    straight (anti-normal) approach, the rest spread over azimuth rings;
    each orientation carries a sampled roll. Per position, the draws are
    one phase per ring, then one roll per orientation.
    """
    sizes = {"n_positions": n_positions, "n_orientations": n_orientations}
    fails = {name: "must be >= 1" for name, n in sizes.items() if n < 1}
    if not flat_margin > 0:
        fails["flat_margin"] = "must be positive"
    if fails:
        raise ConfigError(fails)
    rng = np.random.default_rng(seed)
    points, faces = master.mesh.sample_surface(n_positions, seed=seed)
    normals = master.mesh.face_normals()[faces]
    collected_p, collected_n = [], []
    need = n_positions
    for attempt in range(40):
        mask = _flat_patch_mask(master, points, normals, flat_margin)
        collected_p.extend(points[mask])
        collected_n.extend(normals[mask])
        if len(collected_p) >= need:
            break
        pts, fcs = master.mesh.sample_surface(
            max(need * 2, 8), seed=int(rng.integers(2**62))
        )
        points, normals = pts, master.mesh.face_normals()[fcs]
    if len(collected_p) < need:
        raise DegenerateInputError(f"could not find {need} flat contact positions; lower flat_margin")
    points = np.array(collected_p[:need])
    normals = np.array(collected_n[:need])

    # orientation o is azimuth slot[o] of size[o] on ring[o]; ring 0 is the
    # straight approach, and rings 1..n_rings split the rest evenly
    n_rings = -(-(n_orientations - 1) // 6)
    base, extra = divmod(n_orientations - 1, max(n_rings, 1))
    counts = np.array([1] + [base + (r < extra) for r in range(n_rings)])
    ring, size = np.repeat(np.arange(n_rings + 1), counts), np.repeat(counts, counts)
    slot = np.arange(n_orientations) - np.repeat(np.cumsum(counts) - counts, counts)
    draws = rng.uniform(0.0, 2.0 * np.pi, size=(need, n_rings + n_orientations))
    phase = np.column_stack([np.zeros(need), draws[:, :n_rings]])  # ring 0 has no phase
    azimuth = (phase[:, ring] + 2.0 * np.pi * slot / size) % (2.0 * np.pi)
    elevation = np.broadcast_to(ELEVATION_MAX * ring / max(n_rings, 1), azimuth.shape)
    tangents, _ = _tangent_basis(normals)
    return StrategySet(
        points=np.repeat(points, n_orientations, axis=0),
        normals=np.repeat(normals, n_orientations, axis=0),
        tangents=np.repeat(tangents, n_orientations, axis=0),
        azimuth=azimuth,
        elevation=elevation,
        roll=draws[:, n_rings:],
    )


@dataclass(frozen=True)
class StrategySelection:
    candidate_index: int
    expected_ig: float
    mean_entropies: np.ndarray  # per candidate; NaN marks excluded candidates
    z_plan: Pose  # the filter estimate the rollouts planned with


# a virtual probe rolls out H hypotheses in one batch while the robot plans
# with z_plan: hypothesis h follows row h of the set with the true in-hand
# state given by row h of the quaternion (H, 4) and translation (H, 3) arrays.
# It returns the gripper pose at contact per hypothesis, None where the
# approach never contacts (the signature of ProbeSimulator.probe_batch).
VirtualProbe = Callable[[StrategySet, Pose, np.ndarray, np.ndarray], list[Optional[Pose]]]


def select_contact_strategy(
    ps: ParticleSet,
    candidates: StrategySet,
    master: ShapeModel,
    master_pose: Pose,
    virtual_probe: VirtualProbe,
    noise: NoiseConfig,
    slave: ShapeModel,
    slave_kf,
    seed: int = 0,
) -> StrategySelection:
    """Pick the candidate minimizing the mean posterior weight entropy.

    For each candidate, SCENARIOS particles drawn from the current set act
    as hypothetical ground truths; the virtual probe (noise-free) produces
    the contact each would cause, and the entropy of the posterior over a
    DOWNSAMPLE-particle subset under that measurement is averaged. A
    particle's distance is the minimum master SDF over its implied slave
    surface samples. A scenario without contact leaves the posterior at the
    prior; candidates with no contact in any scenario are excluded. Ties
    break toward the lowest candidate index. All candidate-scenario pairs
    are rolled out in one virtual-probe call and scored in one
    contact_distances call.
    """
    k = len(candidates)
    if k == 0:
        raise DegenerateInputError("candidate set is empty")
    m = len(ps)
    n_d = min(DOWNSAMPLE, m)
    # uniform stride downsampling of the particle set
    d_idx = np.unique(np.linspace(0, m - 1, n_d).round().astype(int))
    n_d = len(d_idx)
    pts = slave_contact_points_in_keypoint_frame(slave, slave_kf)

    rng = np.random.default_rng(seed)
    scen_idx = rng.choice(m, size=(k, SCENARIOS), p=ps.weights)
    z_plan = filter_estimate(ps)

    # one rollout of every (candidate, scenario) pair, candidate-major
    scen = scen_idx.ravel()
    grippers = virtual_probe(
        candidates[np.repeat(np.arange(k), SCENARIOS)], z_plan, ps.quats[scen], ps.translations[scen]
    )
    hit = np.array([g is not None for g in grippers])
    # a miss, or a contact no subset particle explains, leaves the posterior
    # at the (uniform) prior
    entropy = np.full(hit.shape, np.log(n_d))
    if hit.any():
        d = contact_distances(
            ps.quats[d_idx], ps.translations[d_idx], [g for g in grippers if g is not None],
            master, master_pose, pts,
        )
        lik = contact_likelihood(d, noise.d_th)
        total = lik.sum(axis=1, keepdims=True)
        w = np.divide(lik, total, out=np.zeros_like(lik), where=total > 0.0)
        h = -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=1)  # 0 log 0 = 0
        entropy[hit] = np.where(total[:, 0] > 0.0, h, np.log(n_d))
    entropy = entropy.reshape(k, SCENARIOS)
    any_contact = hit.reshape(k, SCENARIOS).any(axis=1)
    mean_entropy = np.where(any_contact, entropy.mean(axis=1), np.nan)

    if np.isnan(mean_entropy).all():
        raise DegenerateInputError(f"none of {k} candidates produced a valid contact scenario")
    best = int(np.nanargmin(mean_entropy))
    return StrategySelection(
        candidate_index=best,
        expected_ig=float(np.log(n_d) - mean_entropy[best]),
        mean_entropies=mean_entropy,
        z_plan=z_plan,
    )
