"""Particle filter over the in-hand relative-pose error.

The filter state z is the composite gripper-to-slave-keypoint transform. It
absorbs all in-hand error, but a master-pose error E only if every contact
implies the same z = g^-1 M E M^-1 g z_true, that is, if E is a pure
translation and every contact is made at one gripper rotation g. The state is
constant up to process noise; contact measurements score particles by the
signed surface distance of the hypothesized slave surface to the master shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DegenerateInputError, is_finite_real
from ..geometry import Pose, ShapeModel, average_quaternions, quat_from_rotvec, quat_to_rotvec
from ..geometry.pose import quat_multiply, quat_rotate, quat_to_matrix

__all__ = [
    "NoiseConfig",
    "RelativePoseError",
    "ParticleSet",
    "ContactMeasurement",
    "contact_likelihood",
    "filter_init",
    "filter_predict",
    "filter_update",
    "filter_estimate",
    "resample",
    "effective_sample_size",
    "weight_entropy",
    "end_effector_target",
    "DEFAULT_PARTICLES",
]

DEFAULT_PARTICLES = 500
# contact sample sets (slave_contact_points_in_keypoint_frame) of FILTER_SAMPLES where the filter and the
# virtual probe score contacts, of PROBE_SAMPLES where the real probe detects one
CONTACT_SAMPLE_SEED = 7
FILTER_SAMPLES = 64
PROBE_SAMPLES = 96
# slave points per array pass of contact_distances: the passes reuse one set
# of coordinate rows sized for the largest, which stays in cache, where larger
# passes spilled it and took longer than the arithmetic
BLOCK_POINTS = 16384


@dataclass(frozen=True)
class NoiseConfig:
    """Noise scales for the filter and probe simulation.

    Process noise uses the per-axis convention: translation components are
    i.i.d. N(0, process_sigma_t) and the rotation perturbation is a rotation
    vector with i.i.d. N(0, process_sigma_r) components, composed on the
    right (local frame). Sigmas of exactly zero are accepted to express the
    noise-free limit; NaN is rejected like a negative sigma.
    """

    process_sigma_t: float = 0.001  # m
    process_sigma_r: float = 0.01  # rad
    prior_sigma_t: float = 0.005  # m, initial spread around the vision estimate
    prior_sigma_r: float = 0.0873  # rad (~5 deg)
    d_th: float = 0.002  # m, contact distance cutoff of the likelihood
    contact_sigma: float = 0.0003  # m, reported-pose noise e^C of the probe

    def __post_init__(self):
        fails = {}
        for name in ("process_sigma_t", "process_sigma_r", "prior_sigma_t",
                     "prior_sigma_r", "contact_sigma"):
            if not getattr(self, name) >= 0:
                fails[name] = "must be >= 0"
        if not (is_finite_real(self.d_th) and self.d_th > 0):
            fails["d_th"] = "must be a finite number > 0"
        if fails:
            raise ConfigError(fails)


@dataclass(frozen=True)
class RelativePoseError:
    """The filter's latent state: composite in-hand relative-pose error."""

    value: Pose


@dataclass(frozen=True)
class ContactMeasurement:
    """End-effector and master poses recorded when force detection fires."""

    end_effector_pose: Pose  # x_W^G at contact
    master_pose: Pose  # x_W^M (perceived)
    confirmed: bool = True


@dataclass(frozen=True)
class ParticleSet:
    """M pose hypotheses with normalized weights and a step counter."""

    quats: np.ndarray  # (M, 4) scalar-first
    translations: np.ndarray  # (M, 3)
    weights: np.ndarray  # (M,)
    step: int = 0

    def __post_init__(self):
        q = np.asarray(self.quats, dtype=float).reshape(-1, 4)
        t = np.asarray(self.translations, dtype=float).reshape(-1, 3)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if not (len(q) == len(t) == len(w)):
            raise DegenerateInputError(
                f"particle arrays must align: {len(q)} quats, {len(t)} translations, {len(w)} weights")
        if len(q) < 2:
            raise DegenerateInputError(f"a particle set needs M >= 2, got {len(q)}")
        if (w < 0).any():
            raise DegenerateInputError("weights must be non-negative")
        s = w.sum()
        if abs(s - 1.0) > 1e-12:
            if s <= 0:
                raise DegenerateInputError("weights must sum to a positive value")
            w = w / s
        for name, v in (("quats", q), ("translations", t), ("weights", w)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.weights)


def contact_likelihood(d, d_th: float):
    """Piecewise-linear contact likelihood: 1 at d = 0, 0 at |d| >= d_th."""
    d = np.asarray(d, dtype=float)
    out = np.where(np.abs(d) <= d_th, 1.0 - np.abs(d) / d_th, 0.0)
    return float(out) if out.ndim == 0 else out


def _perturb(quats, trans, sigma_t, sigma_r, rng):
    n = len(quats)
    new_t = trans + rng.normal(0.0, sigma_t, size=(n, 3)) if sigma_t > 0 else trans.copy()
    if sigma_r > 0:
        rvs = rng.normal(0.0, sigma_r, size=(n, 3))
        new_q = quat_multiply(quats, quat_from_rotvec(rvs))
        new_q /= np.linalg.norm(new_q, axis=1, keepdims=True)
    else:
        new_q = quats.copy()
    return new_q, new_t


def filter_init(initial_in_hand: Pose, noise: NoiseConfig, m: int = DEFAULT_PARTICLES, seed: int = 0) -> ParticleSet:
    """M particles around the vision estimate, uniform weights 1/M."""
    if m < 2:
        raise ConfigError({"m": f"must be >= 2, got {m}"})
    rng = np.random.default_rng(seed)
    quats = np.tile(initial_in_hand.q, (m, 1))
    trans = np.tile(initial_in_hand.t, (m, 1))
    q, t = _perturb(quats, trans, noise.prior_sigma_t, noise.prior_sigma_r, rng)
    return ParticleSet(q, t, np.full(m, 1.0 / m), step=0)


def filter_predict(ps: ParticleSet, noise: NoiseConfig, seed: int = 0) -> ParticleSet:
    """Process model z_n = z_{n-1} (+) noise; weights unchanged."""
    rng = np.random.default_rng(seed)
    q, t = _perturb(ps.quats, ps.translations, noise.process_sigma_t, noise.process_sigma_r, rng)
    return ParticleSet(q, t, ps.weights, step=ps.step + 1)


def contact_distances(
    quats: np.ndarray,
    trans: np.ndarray,
    gripper: Pose | Sequence[Pose],
    master: ShapeModel,
    master_pose: Pose,
    slave_contact_points: np.ndarray,
) -> np.ndarray:
    """Signed contact distance per particle hypothesis at one or G gripper poses.

    slave_contact_points are slave surface samples expressed in the slave
    keypoint frame (the keypoint itself is the origin and is always
    included). The distance of a hypothesis is the minimum master SDF over
    its implied slave surface, the same quantity the probe drives to zero at
    contact. One gripper pose gives (M,); a sequence of G poses gives
    (G, M), row g bit-identical to scoring pose g alone.

    The inverse of master_pose is folded into each gripper rotation and each
    pair's keypoint, so every slave point is written once, straight into
    master-frame coordinate rows, and never passes through world
    coordinates. At an identity master_pose the fold is exact; at any other
    pose a distance can differ in its last bits (about 1e-17 m) from
    mapping world points through the inverse pose.

    Rows are independent, so they are scored in blocks of about
    BLOCK_POINTS slave points, over the gripper poses when G > 1 and over
    the particles when G = 1, and the blocks are joined in order. The
    blocks write their slave points into one set of buffers, sized for the
    largest block.
    """
    single = isinstance(gripper, Pose)
    grippers = [gripper] if single else gripper
    g_q = np.array([g.q for g in grippers])
    g_t = np.array([g.t for g in grippers])
    args = (master, master_pose.inverse(), slave_contact_points)
    by_pose = len(g_q) > 1
    rows = len(g_q) if by_pose else len(quats)
    points = len(g_q) * len(quats) * len(slave_contact_points)
    n_blocks = max(1, min(rows, round(points / BLOCK_POINTS)))
    largest = -(-rows // n_blocks) * (len(quats) if by_pose else len(g_q)) * len(slave_contact_points)
    args += (np.empty(3 * largest), np.empty(largest))
    blocks = []
    for b in range(n_blocks):
        lo, hi = rows * b // n_blocks, rows * (b + 1) // n_blocks
        if by_pose:
            blocks.append(_min_sdf(g_q[lo:hi], g_t[lo:hi], quats, trans, *args))
        else:
            blocks.append(_min_sdf(g_q, g_t, quats[lo:hi], trans[lo:hi], *args))
    d = np.concatenate(blocks, axis=0 if by_pose else 1)
    return d[0] if single else d


def _min_sdf(g_q, g_t, quats, trans, master, master_inv, slave_contact_points, rows_buf, term_buf) -> np.ndarray:
    """(G, M) minimum master SDF over the slave points of every gripper-particle pair, with master_inv (world to
    master) folded into the keypoints and gripper rotations first. The slave points are written into the front of
    rows_buf and term_buf, which the caller keeps across blocks."""
    kp = master_inv.apply(quat_rotate(g_q[:, None, :], trans) + g_t[:, None, :])  # (G, M, 3)
    # per-pair keypoint rotation in the master frame, rot[g, m] = R_g' @ R_zm
    # with R_g' = R_inv @ R_g, from elementwise products: faster than
    # einsum's generic loops, and summed in the order einsum summed them on
    # x86-64 ((0 + 1) + 2, then (0 + 2) + 1), so filter outputs kept their bits
    r_g = quat_to_matrix(quat_multiply(master_inv.q, g_q))[:, None, :, :, None]  # g, -, i, j, -
    r_z = quat_to_matrix(quats)[None, :, None, :, :]  # -, m, -, j, k
    rot = (r_g[..., 0, :] * r_z[..., 0, :] + r_g[..., 1, :] * r_z[..., 1, :]) + r_g[..., 2, :] * r_z[..., 2, :]
    size = len(g_q) * len(quats) * len(slave_contact_points)
    rows = _write_rows(rot, slave_contact_points, rows_buf[: 3 * size], term_buf[:size])
    rows += kp.transpose(2, 0, 1)[..., None]
    return _min_over_rows(master, rows)


def _write_rows(rot: np.ndarray, points: np.ndarray, rows_buf: np.ndarray, term_buf: np.ndarray) -> np.ndarray:
    """R @ p for every rotation of rot (..., 3, 3) and point of points (n, 3), summed (0 + 2) + 1, as coordinate
    rows (3, ..., n) written into rows_buf, with term_buf (one row's size) for the products."""
    p0, p1, p2 = points.T
    rows = rows_buf.reshape(3, *rot.shape[:-2], len(points))
    term = term_buf.reshape(rows.shape[1:])
    for i, row in enumerate(rows):
        r = rot[..., i, :, None]  # ..., k, -
        np.multiply(r[..., 0, :], p0, out=row)
        row += np.multiply(r[..., 2, :], p2, out=term)
        row += np.multiply(r[..., 1, :], p1, out=term)
    return rows


def _min_over_rows(master: ShapeModel, rows: np.ndarray) -> np.ndarray:
    """Minimum master SDF over the points of coordinate rows (3, ..., n) in the master frame: shape (...)."""
    return master.sdf_local(rows.reshape(3, -1).T).reshape(rows.shape[1:]).min(axis=-1)


def slave_contact_points_in_keypoint_frame(slave: ShapeModel, slave_kf, n: int) -> np.ndarray:
    """A contact sample set: the keypoint itself (the origin), then n slave
    surface samples drawn with CONTACT_SAMPLE_SEED, in the keypoint frame."""
    pts, _ = slave.surface_samples(n, seed=CONTACT_SAMPLE_SEED)
    return np.vstack([np.zeros(3), slave_kf.as_pose().inverse().apply(pts)])


def filter_update(
    ps: ParticleSet,
    meas: ContactMeasurement,
    master: ShapeModel,
    slave: ShapeModel,
    noise: NoiseConfig,
    slave_kf,
) -> tuple[ParticleSet, bool]:
    """Measurement update; returns (updated set, diverged flag).

    Each particle's distance is the signed surface distance of its
    hypothesized slave placement to the master shape at the measured
    configuration: the minimum master SDF over slave surface samples.
    New weights are the normalized likelihoods; carried prior weights fold
    in multiplicatively, which reduces to plain normalized likelihoods
    whenever the prior is uniform, i.e. right after a resample. If every
    weighted likelihood is 0 the update is skipped and the diverged flag
    raised instead of renormalizing zeros.
    """
    if not meas.confirmed:
        raise DegenerateInputError("only confirmed contacts may enter the update")
    pts = slave_contact_points_in_keypoint_frame(slave, slave_kf, FILTER_SAMPLES)
    d = contact_distances(
        ps.quats, ps.translations, meas.end_effector_pose, master, meas.master_pose, pts
    )
    lik = contact_likelihood(d, noise.d_th) * ps.weights
    total = lik.sum()
    if total <= 0.0:
        return ps, True
    return ParticleSet(ps.quats, ps.translations, lik / total, step=ps.step), False


def filter_estimate(ps: ParticleSet) -> Pose:
    """Weighted mean: translation sum, eigen-method quaternion average."""
    t = (ps.weights[:, None] * ps.translations).sum(axis=0)
    q = average_quaternions(ps.quats, ps.weights)
    return Pose(q, t)


def effective_sample_size(ps: ParticleSet) -> float:
    return float(1.0 / (ps.weights**2).sum())


def weight_entropy(ps: ParticleSet) -> float:
    """Shannon entropy of the weight distribution (nats); 0 log 0 = 0."""
    w = ps.weights[ps.weights > 0]
    return float(-(w * np.log(w)).sum())


def state_entropy(ps: ParticleSet) -> float:
    """Differential entropy proxy of the particle cloud: 0.5 log det of the
    weighted 6D covariance (translation + rotation vector), jittered for
    rank safety. Unlike the weight entropy this is unaffected by resampling
    resets, so it tracks how concentrated the posterior actually is.
    """
    x = np.hstack([ps.translations, quat_to_rotvec(ps.quats)])
    mean = (ps.weights[:, None] * x).sum(axis=0)
    xc = x - mean
    cov = (ps.weights[:, None, None] * np.einsum("ni,nj->nij", xc, xc)).sum(axis=0)
    cov += 1e-18 * np.eye(6)
    sign, logdet = np.linalg.slogdet(cov)
    return float(0.5 * logdet)


def resample(ps: ParticleSet, seed: int = 0) -> ParticleSet:
    """Systematic resampling, triggered when ESS < M/2; otherwise identity.

    Survivors are drawn proportionally to the weights; the resampled set has
    uniform weights.
    """
    m = len(ps)
    if effective_sample_size(ps) >= m / 2.0:
        return ps
    rng = np.random.default_rng(seed)
    positions = (rng.random() + np.arange(m)) / m
    cum = np.cumsum(ps.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, positions, side="left")
    return ParticleSet(
        ps.quats[idx], ps.translations[idx], np.full(m, 1.0 / m), step=ps.step
    )


def end_effector_target(master_pose: Pose, waypoint: Pose, estimate: Pose) -> Pose:
    """Commanded end-effector pose for a waypoint: x_W^M x_M^P z^-1."""
    return master_pose.compose(waypoint).compose(estimate.inverse())
