"""Coherent-point-drift non-rigid registration.

EM over a Gaussian mixture: the E-step soft-assigns fixed points to moving
points, the M-step solves for a smooth displacement field regularized by a
Gaussian-kernel motion-coherence prior. The result is a DeformationMap that
can be evaluated anywhere via kernel interpolation of the control weights.

Each call allocates its two large buffers once and reuses them in every EM
iteration: the (N_ref, N_tgt) responsibilities, into which cdist writes the
squared distances that are then scaled, exponentiated and normalized in
place, and the (N_ref, N_ref) system matrix of the M-step. The kernels are
built the same way. The only (N_ref, N_tgt, 3) temporary left is the
one-time sigma^2 start, squared in place: summing the cdist matrix instead
adds in another order and moves the fit in its last bits.

scipy's cdist is imported inside the functions that call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateInputError

__all__ = ["CpdConfig", "DeformationMap", "nonrigid_register"]


@dataclass(frozen=True)
class CpdConfig:
    beta: float = 2.0  # kernel bandwidth (normalized coordinates)
    lam: float = 3.0  # motion-coherence regularization weight
    outlier_w: float = 0.1  # uniform-component mixing weight
    max_iterations: int = 150
    tolerance: float = 1e-8


@dataclass(frozen=True)
class DeformationMap:
    """phi(p) = p + nu(p), nu interpolated from control-point weights.

    Control points and weights live in normalized coordinates (shift mu,
    scale s); apply() handles the round trip.
    """

    control_points: np.ndarray  # normalized (N, 3)
    weights: np.ndarray  # (N, 3)
    bandwidth: float  # normalized beta
    mu: np.ndarray
    scale: float
    converged: bool
    final_objective: float  # final sigma^2
    iterations: int  # completed EM iterations

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


def _initial_sigma2(y: np.ndarray, x: np.ndarray) -> float:
    """Mean squared coordinate difference over all (y_i, x_j) pairs.

    Squares the broadcast difference in place, which sums to the same bits
    as ((x[None] - y[:, None]) ** 2).sum() with one temporary instead of two.
    """
    d = x[None, :, :] - y[:, None, :]
    d *= d
    return d.sum() / (3.0 * len(y) * len(x))


def nonrigid_register(
    ref_points: np.ndarray,
    tgt_points: np.ndarray,
    config: CpdConfig = CpdConfig(),
) -> DeformationMap:
    """Fit phi moving ref_points (the GMM centroids) toward tgt_points.

    Stops when the sigma^2 objective change drops below the tolerance or the
    iteration budget runs out; a non-converged fit is still returned, flagged
    via DeformationMap.converged.
    """
    y0 = np.asarray(ref_points, dtype=float).reshape(-1, 3)
    x = np.asarray(tgt_points, dtype=float).reshape(-1, 3)
    n_ref, n_tgt = len(y0), len(x)
    if n_ref < 10 or n_tgt < 10:
        raise DegenerateInputError(
            f"non-rigid registration needs >= 10 points per cloud, got {n_ref} and {n_tgt}"
        )
    from scipy.spatial.distance import cdist

    # common normalization keeps the kernel bandwidth scale-free
    mu = np.vstack([y0, x]).mean(axis=0)
    scale = float(np.sqrt(((np.vstack([y0, x]) - mu) ** 2).sum(axis=1).mean()))
    if scale < 1e-12:
        scale = 1.0
    y = (y0 - mu) / scale
    xz = (x - mu) / scale

    beta, lam, w = config.beta, config.lam, config.outlier_w
    g = _gaussian_kernel(y, y, beta)

    sigma2 = _initial_sigma2(y, xz)
    warped = y.copy()
    weights = np.zeros_like(y)
    converged = False
    iterations = 0
    const_uniform = w / max(1e-12, (1.0 - w)) * n_ref / n_tgt
    xz_sq = (xz * xz).sum(axis=1)
    p = np.empty((n_ref, n_tgt))  # responsibilities, rewritten every E-step
    a = np.empty((n_ref, n_ref))  # M-step system matrix

    for _ in range(config.max_iterations):
        # E-step: responsibilities p (N_ref, N_tgt), in the distance buffer
        cdist(warped, xz, "sqeuclidean", out=p)
        np.divide(p, -2.0 * sigma2, out=p)
        np.exp(p, out=p)
        denom = p.sum(axis=0) + const_uniform * (2.0 * np.pi * sigma2) ** 1.5
        denom = np.where(denom < 1e-300, 1e-300, denom)
        p /= denom

        p1 = p.sum(axis=1)
        pt1 = p.sum(axis=0)
        n_p = p1.sum()
        if n_p < 1e-12:
            break
        px = p @ xz

        np.multiply(g, p1[:, None], out=a)
        a.flat[:: n_ref + 1] += lam * sigma2
        weights = np.linalg.solve(a, px - p1[:, None] * y)
        warped = y + g @ weights
        iterations += 1

        xpx = (pt1 * xz_sq).sum()
        trpxw = (px * warped).sum()
        wtw = (p1 * (warped * warped).sum(axis=1)).sum()
        sigma2_new = (xpx - 2.0 * trpxw + wtw) / (3.0 * n_p)
        sigma2_new = max(sigma2_new, 1e-14)
        if abs(sigma2_new - sigma2) < config.tolerance:
            sigma2 = sigma2_new
            converged = True
            break
        sigma2 = sigma2_new

    return DeformationMap(
        control_points=y,
        weights=weights,
        bandwidth=beta,
        mu=mu,
        scale=scale,
        converged=converged,
        final_objective=float(sigma2),
        iterations=iterations,
    )
