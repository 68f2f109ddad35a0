"""Rigid SE(3) transforms backed by unit quaternions.

Quaternions use scalar-first (w, x, y, z) ordering throughout. A Pose maps
points from its local frame into the parent frame:

    p_world = R(q) @ p_local + t

Composition follows the usual convention: ``compose(a, b)`` applies ``b``
first, then ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pose",
    "compose",
    "quat_multiply",
    "quat_conjugate",
    "quat_rotate",
    "quat_to_matrix",
    "matrix_to_quat",
    "quat_from_rotvec",
    "quat_to_rotvec",
    "rotation_angle_between",
    "average_quaternions",
]

_UNIT_TOL = 1e-9


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    return a


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis; (..., n) -> (...).

    Each norm is one BLAS dot per vector, as ``np.linalg.norm`` computes a
    1-D norm, so a batched call matches per-row calls bit for bit (an
    elementwise square-and-sum does not).
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _stack_last(*cols) -> np.ndarray:
    """C-contiguous array with cols along a new last axis; scalars give (k,)."""
    return np.ascontiguousarray(np.array(cols).T)


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b, scalar-first; (4,) or (N, 4), broadcasting."""
    aw, ax, ay, az = np.asarray(a).T
    bw, bx, by, bz = np.asarray(b).T
    return _stack_last(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product with u (3,) against v (..., 3); avoids np.cross overhead."""
    out = np.empty_like(v)
    out[..., 0] = u[1] * v[..., 2] - u[2] * v[..., 1]
    out[..., 1] = u[2] * v[..., 0] - u[0] * v[..., 2]
    out[..., 2] = u[0] * v[..., 1] - u[1] * v[..., 0]
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by unit quaternion q. v may be (3,) or (N, 3)."""
    w = q[0]
    u = q[1:]
    v = np.asarray(v, dtype=float)
    # Rodrigues-style expansion: v' = v + 2w (u x v) + 2 u x (u x v)
    uv = _cross3(u, v)
    return v + 2.0 * w * uv + 2.0 * _cross3(u, uv)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of unit quaternion(s): (4,) -> (3, 3), (N, 4) -> (N, 3, 3)."""
    q = np.asarray(q)
    w, x, y, z = q.T
    m = _stack_last(
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )
    return m.reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Rotation matrix to scalar-first unit quaternion (Shepperd's method)."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ]
        )
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            ]
        )
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            ]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [
                (m[1, 0] - m[0, 1]) / s,
                (m[0, 2] + m[2, 0]) / s,
                (m[1, 2] + m[2, 1]) / s,
                0.25 * s,
            ]
        )
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Unit quaternion(s) of rotation vector(s): (3,) -> (4,), (N, 3) -> (N, 4)."""
    rv = np.asarray(rv, dtype=float)
    angle = _norm(rv)[..., None]
    small = angle < 1e-12
    half = 0.5 * angle
    q = np.concatenate([np.cos(half), np.sin(half) * (rv / np.where(small, 1.0, angle))], axis=-1)
    if small.any():
        # first-order expansion keeps the map smooth through zero
        q_small = np.concatenate([np.ones_like(angle), 0.5 * rv], axis=-1)
        q_small /= _norm(q_small)[..., None]
        q = np.where(small, q_small, q)
    return q


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector(s) of unit quaternion(s): (4,) -> (3,), (N, 4) -> (N, 3)."""
    q = np.asarray(q, dtype=float)
    q = np.where(q[..., :1] < 0.0, -q, q)
    w = np.minimum(1.0, np.maximum(-1.0, q[..., :1]))
    s = np.sqrt(np.maximum(0.0, 1.0 - w * w))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(s < 1e-12, 2.0, 2.0 * np.arccos(w) / s)
    return scale * q[..., 1:]


def rotation_angle_between(qa: np.ndarray, qb: np.ndarray):
    """Geodesic angle (rad) between unit quaternions.

    With qb sign-aligned to qa, |qa - qb| / |qa + qb| = tan(angle / 4).
    Unlike 2 arccos|qa . qb|, this resolves angles down to 0: the dot
    product rounds to 1 for every angle below about 3e-8 rad. Two (4,)
    inputs give a float; broadcastable (..., 4) inputs give an array of
    angles, each bit-identical to the float of its pair.
    """
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    if qa.ndim == qb.ndim == 1:
        if np.dot(qa, qb) < 0.0:
            qb = -qb
        return float(4.0 * np.arctan2(np.linalg.norm(qa - qb), np.linalg.norm(qa + qb)))
    dots = (qa[..., None, :] @ qb[..., :, None])[..., 0]
    qb = np.where(dots < 0.0, -qb, qb)
    return 4.0 * np.arctan2(_norm(qa - qb), _norm(qa + qb))


def average_quaternions(quats: np.ndarray, weights=None) -> np.ndarray:
    """Weighted quaternion mean via the largest eigenvector of sum w q q^T.

    Sign-invariant in the inputs; the output is fixed to a non-negative
    scalar part so the result is deterministic.
    """
    quats = np.asarray(quats, dtype=float).reshape(-1, 4)
    if weights is None:
        weights = np.full(len(quats), 1.0 / len(quats))
    weights = np.asarray(weights, dtype=float)
    acc = np.einsum("i,ij,ik->jk", weights, quats, quats)
    vals, vecs = np.linalg.eigh(acc)
    q = vecs[:, -1]
    q = q / np.linalg.norm(q)
    if q[0] < 0.0 or (q[0] == 0.0 and (q[1] < 0.0 or (q[1] == 0.0 and (q[2] < 0.0 or (q[2] == 0.0 and q[3] < 0.0))))):
        q = -q
    return q


@dataclass(frozen=True)
class Pose:
    """Rigid transform: unit quaternion rotation plus translation in meters."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(4)
        t = _as_vec3(self.t)
        n = np.linalg.norm(q)
        if not np.isfinite(n) or n < 1e-12:
            raise ValueError("quaternion norm is degenerate")
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        q = q / n
        if q[0] < 0.0:
            q = -q
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_rotation(m: np.ndarray, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(matrix_to_quat(np.asarray(m, dtype=float)), t)

    @staticmethod
    def from_rotvec(rv, t=(0.0, 0.0, 0.0)) -> "Pose":
        return Pose(quat_from_rotvec(np.asarray(rv, dtype=float)), t)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = quat_to_matrix(self.q)
        m[:3, 3] = self.t
        return m

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform point(s): (3,) or (N, 3)."""
        return quat_rotate(self.q, points) + self.t

    def apply_direction(self, vectors: np.ndarray) -> np.ndarray:
        return quat_rotate(self.q, vectors)

    def inverse(self) -> "Pose":
        qc = quat_conjugate(self.q)
        return Pose(qc, -quat_rotate(qc, self.t))

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other (self @ other as homogeneous matrices)."""
        q = quat_multiply(self.q, other.q)
        q = q / np.linalg.norm(q)
        return Pose(q, quat_rotate(self.q, other.t) + self.t)

    def rotvec(self) -> np.ndarray:
        return quat_to_rotvec(self.q)

    def rotation_angle_to(self, other: "Pose") -> float:
        return rotation_angle_between(self.q, other.q)

    def translation_distance_to(self, other: "Pose") -> float:
        return float(np.linalg.norm(self.t - other.t))

    def is_close(self, other: "Pose", t_tol: float = 1e-9, r_tol: float = 1e-9) -> bool:
        return (
            self.translation_distance_to(other) <= t_tol
            and self.rotation_angle_to(other) <= r_tol
        )

    def __repr__(self):
        q = ", ".join(f"{v:.6g}" for v in self.q)
        t = ", ".join(f"{v:.6g}" for v in self.t)
        return f"Pose(q=[{q}], t=[{t}])"


def compose(a: Pose, b: Pose) -> Pose:
    """Pose product: apply b, then a."""
    return a.compose(b)


def invert(p: Pose) -> Pose:
    return p.inverse()
