"""Rigid SE(3) transforms backed by unit quaternions.

Quaternions use scalar-first (w, x, y, z) ordering throughout. A Pose maps
points from its local frame into the parent frame:

    p_world = R(q) @ p_local + t

Composition follows the usual convention: ``a.compose(b)`` applies ``b``
first, then ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInputError

__all__ = [
    "Pose",
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


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    return a


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis; (..., n) -> (...).

    Each product is one BLAS dot per pair of vectors, as ``np.dot`` computes
    a 1-D dot, so a batched call matches per-row calls bit for bit (an
    elementwise multiply-and-sum does not).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bit-identical per row to ``np.linalg.norm`` of a 1-D vector."""
    return np.sqrt(_dot(v, v))


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
    """Cross product over the last axis, u and v broadcasting; avoids np.cross overhead."""
    out = np.empty(np.broadcast(u, v).shape)
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by unit quaternion(s) q.

    q (..., 4) and v (..., 3) broadcast over their leading axes: one (4,)
    quaternion rotates a (3,) or (N, 3) v, and (G, 1, 4) quaternions rotate
    an (N, 3) v into (G, N, 3). Each row is bit-identical to rotating it by
    its own quaternion alone.
    """
    w = q[..., :1]
    u = q[..., 1:]
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
    """Rotation matrix to scalar-first unit quaternion (Shepperd's method).

    (3, 3) gives (4,); (..., 3, 3) gives (..., 4), each row bit-identical to
    converting its matrix alone. The scalar part is made non-negative.
    """
    m = np.asarray(m, dtype=float)
    r = m.reshape(-1, 3, 3)
    rows = np.arange(len(r))
    m00, m11, m22 = r[:, 0, 0], r[:, 1, 1], r[:, 2, 2]
    tr = m00 + m11 + m22
    # each row is built from its largest component: 0 w, 1 x, 2 y, 3 z
    big = np.where(tr > 0.0, 0, np.where((m00 > m11) & (m00 > m22), 1, np.where(m11 > m22, 2, 3)))
    s = np.sqrt(np.stack([tr + 1.0, 1.0 + m00 - m11 - m22, 1.0 + m11 - m00 - m22, 1.0 + m22 - m00 - m11])[big, rows])
    s = s * 2.0
    # numerator of component c when component b is the largest, symmetric in b and c
    d21, d02, d10 = r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]
    s01, s02, s12 = r[:, 0, 1] + r[:, 1, 0], r[:, 0, 2] + r[:, 2, 0], r[:, 1, 2] + r[:, 2, 1]
    pair = np.stack([[s, d21, d02, d10], [d21, s, s01, s02], [d02, s01, s, s12], [d10, s02, s12, s]])
    q = pair[big, :, rows] / s[:, None]
    q[rows, big] = 0.25 * s
    q = q / _norm(q)[:, None]
    q = np.where(q[:, :1] < 0.0, -q, q)
    return q.reshape(m.shape[:-2] + (4,))


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
    product rounds to 1 for every angle below about 3e-8 rad. Broadcastable
    (..., 4) inputs give (...) angles, each bit-identical to that of its
    pair alone; two (4,) inputs give one numpy float.
    """
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
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
            raise DegenerateInputError("quaternion norm is degenerate")
        if abs(n - 1.0) > 1e-6:
            raise DegenerateInputError(f"quaternion norm {n} too far from 1")
        q = q / n
        if q[0] < 0.0:
            q = -q
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @classmethod
    def from_unit(cls, q, t=(0.0, 0.0, 0.0)) -> "Pose":
        """Pose whose q is kept as given when it already is a Pose quaternion.

        q is kept bit for bit when normalizing it moves no component by more
        than one ulp of 1, as with a q read back from a stored Pose: a second
        normalization moves about 2% of those in the last bit. Any other q is
        normalized as in Pose(q, t).
        """
        pose = cls(q, t)
        q = np.array(q, dtype=float).reshape(4)
        if np.abs(pose.q - q).max() <= np.finfo(float).eps:
            q.setflags(write=False)
            object.__setattr__(pose, "q", q)
        return pose

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

    def rotation_angle_to(self, other: "Pose") -> float:
        return float(rotation_angle_between(self.q, other.q))

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
