"""Coherent-point-drift non-rigid registration.

EM over a Gaussian mixture: the E-step soft-assigns fixed points to moving
points, the M-step solves for a smooth displacement field regularized by a
Gaussian-kernel motion-coherence prior. The result is a DeformationMap that
can be evaluated anywhere via kernel interpolation of the control weights.

Both clouds are normalized by the reference's own centroid and RMS radius,
as Myronenko & Song normalize the moving set ("Point Set Registration:
Coherent Point Drift", TPAMI 2010). The kernel G = G(y, y) then belongs to
the reference alone: it is the same for every target registered to it.

G is numerically low-rank. Its K eigenpairs G ~ Q diag(L) Q^T whose
eigenvalues exceed _EIGEN_CUTOFF * N_ref come from _kernel_basis, an LRU
cache of _BASIS_CACHE_SIZE entries keyed on the normalized reference's
bytes (beta is the constant CPD_BETA), so registering many targets to one
reference eigensolves once; the cached arrays are read-only, and a warm
call is bit-identical to a cold one. Every M-step solves the (K, K) system

    (Q^T diag(P1) Q + lam sigma^2 diag(L)^-1) alpha = Q^T (P X - diag(P1) Y)

for the displacement Q alpha of the control points; the weights
Q (alpha / L) reproduce it through G, so apply() interpolates with the same
kernel. Since every kernel entry is at most 1, max(L) <= N_ref and the
cutoff is at least 1e-14 of the largest eigenvalue.

The EM loop's one large buffer is the (N_ref, N_tgt) responsibilities,
allocated once: cdist writes the squared distances into it, which are then
scaled, exponentiated and normalized in place, beside one reused bool
buffer of the same shape. np.exp leaves its SIMD path below about -708 and
is exactly +0.0 below about -745.13, so only exponents >= _EXP_FLOOR are
exponentiated and the rest are set to 0.0 (_exp_above_floor): once sigma^2
is small most entries are skipped, and every output stays bit-identical.
The only (N_ref, N_tgt, 3) temporary is the one-time sigma^2 start,
squared in place: summing the cdist matrix instead adds in another order
and moves the fit in its last bits.

scipy's cdist and eigh are imported inside the functions that call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import DegenerateInputError

__all__ = ["DeformationMap", "nonrigid_register"]

# Myronenko & Song's parameters, read when nonrigid_register runs; the basis
# cache is keyed on the reference alone, so CPD_BETA must stay fixed
CPD_BETA = 2.0  # kernel bandwidth (normalized coordinates)
CPD_LAMBDA = 3.0  # motion-coherence regularization weight
CPD_OUTLIER_W = 0.1  # uniform-component mixing weight
CPD_MAX_ITERATIONS = 150
CPD_TOLERANCE = 1e-8  # on the change of sigma^2

# kernel eigenvalues kept, relative to N_ref (an upper bound on the largest).
# A dropped mode still moves phi by about L_k / (lam sigma^2) of its share, so
# tight fits need weak modes: at 1e-12 a warped 949-point fit ending at
# sigma^2 ~ 2e-8 moved 16 um from the dense solve, at 1e-14 it moves 0.014 um.
_EIGEN_CUTOFF = 1e-14
# kernel eigenbases kept by _kernel_basis, one per reference, for the
# life of the process. An entry holds its (N_ref, K) basis and a 24 N_ref-byte
# key. At beta = 2 the unit-RMS reference keeps K <= ~190 however many points
# it has (183 for 1,000 to 3,000 points filling a ball), so an entry costs
# about 1.5 KB per reference point. Sized for the regions of the default
# 5 mm voxel, 400 to 1,000 points: at most 1.5 MB an entry, 6 MB in all; a
# finer voxel_cell grows every entry in proportion to N_ref.
_BASIS_CACHE_SIZE = 4
# exp(x) rounds to exactly +0.0 for every double below about -745.13
_EXP_FLOOR = -746.0


@dataclass(frozen=True)
class DeformationMap:
    """phi(p) = p + nu(p), nu interpolated from control-point weights.

    Control points and weights live in the reference's normalized
    coordinates: mu is the reference centroid and scale its RMS distance
    from mu. The kernel and its eigenbasis belong to the reference and are
    reused across targets; apply() handles the round trip.
    """

    control_points: np.ndarray  # normalized (N, 3)
    weights: np.ndarray  # (N, 3)
    bandwidth: float  # normalized beta
    mu: np.ndarray
    scale: float
    converged: bool
    final_objective: float  # final sigma^2
    iterations: int  # completed EM iterations
    rank: int  # kernel eigenpairs kept by the M-step

    def _kernel(self, query_norm: np.ndarray) -> np.ndarray:
        return _gaussian_kernel(query_norm, self.control_points, self.bandwidth)

    def displacement(self, points: np.ndarray) -> np.ndarray:
        """nu at world-frame query points (meters)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self._kernel((pts - self.mu) / self.scale)
        return (g @ self.weights) * self.scale

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts + self.displacement(pts)
        if not np.isfinite(out).all():
            raise DegenerateInputError("deformation produced non-finite values")
        return out


def _gaussian_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-|a_i - b_j|^2 / (2 bandwidth^2)), built in one (len(a), len(b)) buffer."""
    from scipy.spatial.distance import cdist

    k = cdist(a, b, "sqeuclidean")
    np.divide(k, -2.0 * bandwidth**2, out=k)
    return np.exp(k, out=k)


def _exp_above_floor(p: np.ndarray, live: np.ndarray) -> np.ndarray:
    """p = np.exp(p) in place, bit for bit, without exponentiating below _EXP_FLOOR.

    live is a bool buffer of p's shape, overwritten. NaN entries are
    exponentiated, so they stay NaN.
    """
    np.less(p, _EXP_FLOOR, out=live)
    np.logical_not(live, out=live)
    np.exp(p, out=p, where=live)
    np.logical_not(live, out=live)
    np.copyto(p, 0.0, where=live)
    return p


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _kernel_basis(y_bytes: bytes, n_ref: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q): the eigenpairs of G(y, y) whose eigenvalues exceed _EIGEN_CUTOFF * n_ref.

    y is the (n_ref, 3) normalized reference, passed as its bytes so that
    the call can be cached; equal bytes give the same eigensolve. Both
    arrays are read-only, since every caller of one reference shares them.
    """
    from scipy.linalg import eigh

    y = np.frombuffer(y_bytes).reshape(n_ref, 3)
    # G is symmetric, so its transpose is the Fortran-ordered G that LAPACK
    # overwrites in place
    eigvals, q = eigh(
        _gaussian_kernel(y, y, CPD_BETA).T,
        subset_by_value=(_EIGEN_CUTOFF * n_ref, np.inf),
        driver="evr",
        overwrite_a=True,
        check_finite=False,
    )
    q = np.ascontiguousarray(q)  # the returned columns view an (N_ref, N_ref) buffer
    eigvals.flags.writeable = False
    q.flags.writeable = False
    return eigvals, q


def _initial_sigma2(y: np.ndarray, x: np.ndarray) -> float:
    """Mean squared coordinate difference over all (y_i, x_j) pairs.

    Squares the broadcast difference in place, which sums to the same bits
    as ((x[None] - y[:, None]) ** 2).sum() with one temporary instead of two.
    """
    d = x[None, :, :] - y[:, None, :]
    d *= d
    return d.sum() / (3.0 * len(y) * len(x))


def nonrigid_register(ref_points: np.ndarray, tgt_points: np.ndarray) -> DeformationMap:
    """Fit phi moving ref_points (the GMM centroids) toward tgt_points.

    Stops when the sigma^2 objective change drops below CPD_TOLERANCE or
    CPD_MAX_ITERATIONS run out; a non-converged fit is still returned, flagged
    via DeformationMap.converged.
    """
    y0 = np.asarray(ref_points, dtype=float).reshape(-1, 3)
    x = np.asarray(tgt_points, dtype=float).reshape(-1, 3)
    n_ref, n_tgt = len(y0), len(x)
    if n_ref < 10 or n_tgt < 10:
        raise DegenerateInputError(
            f"non-rigid registration needs >= 10 points per cloud, got {n_ref} and {n_tgt}"
        )
    if not (np.isfinite(y0).all() and np.isfinite(x).all()):
        raise DegenerateInputError("non-rigid registration needs finite points")
    from scipy.spatial.distance import cdist

    # the reference's own frame, so that y and its kernel do not depend on the target
    mu = y0.mean(axis=0)
    scale = float(np.sqrt(((y0 - mu) ** 2).sum(axis=1).mean()))
    if scale < 1e-12:
        scale = 1.0
    y = (y0 - mu) / scale
    xz = (x - mu) / scale

    sigma2 = _initial_sigma2(y, xz)
    if sigma2 == 0.0:
        raise DegenerateInputError("both clouds are one coincident point (sigma^2 = 0)")

    eigvals, q = _kernel_basis(y.tobytes(), n_ref)
    rank = len(eigvals)
    warped = y.copy()
    alpha = np.zeros((rank, 3))
    converged = False
    iterations = 0
    const_uniform = CPD_OUTLIER_W / max(1e-12, (1.0 - CPD_OUTLIER_W)) * n_ref / n_tgt
    xz_sq = (xz * xz).sum(axis=1)
    p = np.empty((n_ref, n_tgt))  # responsibilities, rewritten every E-step
    live = np.empty((n_ref, n_tgt), dtype=bool)  # exponents above _EXP_FLOOR
    p1q = np.empty_like(q)  # diag(P1) Q

    for _ in range(CPD_MAX_ITERATIONS):
        # E-step: responsibilities p (N_ref, N_tgt), in the distance buffer
        cdist(warped, xz, "sqeuclidean", out=p)
        np.divide(p, -2.0 * sigma2, out=p)
        _exp_above_floor(p, live)
        denom = p.sum(axis=0) + const_uniform * (2.0 * np.pi * sigma2) ** 1.5
        denom = np.where(denom < 1e-300, 1e-300, denom)
        p /= denom

        p1 = p.sum(axis=1)
        pt1 = p.sum(axis=0)
        n_p = p1.sum()
        if n_p < 1e-12:
            break
        px = p @ xz

        np.multiply(q, p1[:, None], out=p1q)
        a = p1q.T @ q
        a.flat[:: rank + 1] += CPD_LAMBDA * sigma2 / eigvals
        alpha = np.linalg.solve(a, q.T @ (px - p1[:, None] * y))
        warped = y + q @ alpha
        iterations += 1

        xpx = (pt1 * xz_sq).sum()
        trpxw = (px * warped).sum()
        wtw = (p1 * (warped * warped).sum(axis=1)).sum()
        sigma2_new = (xpx - 2.0 * trpxw + wtw) / (3.0 * n_p)
        sigma2_new = max(sigma2_new, 1e-14)
        if abs(sigma2_new - sigma2) < CPD_TOLERANCE:
            sigma2 = sigma2_new
            converged = True
            break
        sigma2 = sigma2_new

    return DeformationMap(
        control_points=y,
        weights=q @ (alpha / eigvals[:, None]),
        bandwidth=CPD_BETA,
        mu=mu,
        scale=scale,
        converged=converged,
        final_objective=float(sigma2),
        iterations=iterations,
        rank=rank,
    )
