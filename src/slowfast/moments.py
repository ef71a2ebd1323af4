"""Exact first and second moments for the linear-in-y coupling.

When F(x, y) = c*y the modes decouple and every scheme in the catalog has
Gaussian iterates whose per-mode moments obey constant-coefficient affine
recursions.  This module propagates those recursions exactly, which turns
weak-error measurement into a noise-free computation: repeated runs give bit
identical errors.

The continuous-time counterparts serve as the truth side: the mean comes
from the variation-of-constants formula, the second moments from the 3x3
covariance ODE

    d var_x / dt = -2 lam var_x + 2 c cov
    d cov   / dt = -(lam + lam/eps) cov + c var_y
    d var_y / dt = -(2 lam / eps) var_y + 2 / eps

solved exactly by matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import expm

from .integrators import SchemeKind, Transition

__all__ = [
    "ModeMoments",
    "continuous_mean",
    "second_moment_recursion",
    "continuous_second_moment",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ModeMoments:
    """Per-mode Gaussian moments; fields are scalars or arrays over modes."""

    mean_x: ArrayLike = 0.0
    mean_y: ArrayLike = 0.0
    var_x: ArrayLike = 0.0
    var_y: ArrayLike = 0.0
    cov_xy: ArrayLike = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.var_x) < 0) or np.any(np.asarray(self.var_y) < 0):
            raise ValueError("variances must be nonnegative")
        c2 = np.asarray(self.cov_xy) ** 2
        bound = np.asarray(self.var_x) * np.asarray(self.var_y)
        if np.any(c2 > bound * (1 + 1e-12) + 1e-300):
            raise ValueError("cov_xy^2 may not exceed var_x*var_y")


def _phi1(u: np.ndarray) -> np.ndarray:
    """(e^u - 1)/u with the removable singularity filled in."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-6
    safe = np.where(small, 1.0, u)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = np.expm1(safe) / safe
    return np.where(small, 1.0 + u / 2.0 + u * u / 6.0, exact)


def continuous_mean(
    lam: ArrayLike, c: float, eps: float, T: float, x0: ArrayLike, y0: ArrayLike
) -> np.ndarray:
    """E X(T) per mode for the exact dynamics with F = c*y.

    Equals e^(-lam T) x0 + c y0 (e^(-lam T/eps) - e^(-lam T)) / (lam (1 - 1/eps))
    for eps != 1; the eps = 1 limit c y0 T e^(-lam T) is obtained from the same
    stable form, so no separate branch is visible to the caller.
    """
    lam = np.asarray(lam, dtype=float)
    if eps <= 0 or T < 0:
        raise ValueError("need eps > 0 and T >= 0")
    u = lam * T * (1.0 - 1.0 / eps)
    with np.errstate(under="ignore"):
        return np.exp(-lam * T) * (np.asarray(x0, float) + c * np.asarray(y0, float) * T * _phi1(u))


def _mean_matrices(tr, c):
    a, dt = tr.a, tr.dt
    r = 1.0 / tr.one_plus
    M = np.zeros((a.size, 2, 2))
    M[:, 0, 0] = a
    M[:, 1, 0] = r * dt * c * a
    M[:, 1, 1] = r
    return M


def _second_matrices(tr, c):
    # homogeneous affine map on (var_y, cov_xy, var_x, 1)
    a, s2, dt = tr.a, tr.s2, tr.dt
    r = 1.0 / tr.one_plus
    M = np.zeros((a.size, 4, 4))
    M[:, 0, 0] = a * a
    M[:, 0, 3] = s2
    M[:, 1, 0] = r * dt * c * a * a
    M[:, 1, 1] = r * a
    M[:, 1, 3] = r * dt * c * s2
    M[:, 2, 0] = r * r * dt * dt * c * c * a * a
    M[:, 2, 1] = 2.0 * r * r * dt * c * a
    M[:, 2, 2] = r * r
    M[:, 2, 3] = r * r * dt * dt * c * c * s2
    M[:, 3, 3] = 1.0
    return M


def second_moment_recursion(
    kind: SchemeKind,
    lam: ArrayLike,
    c: float,
    eps: float,
    dt: float,
    N: int,
    start: ModeMoments,
) -> ModeMoments:
    """Exact Gaussian moments of the scheme after N steps, F = c*y.

    With y' = a y + xi (xi centered, variance s2, independent of the state),
    x' = (x + dt c y')/(1 + dt lam), the means and centered second moments
    obey

        m_y'   = a m_y
        m_x'   = (m_x + dt c m_y') / (1 + dt lam)
        var_y' = a^2 var_y + s2
        cov'   = (a cov + dt c var_y') / (1 + dt lam)
        var_x' = (var_x + 2 dt c a cov + dt^2 c^2 var_y') / (1 + dt lam)^2

    (the nonlinearity sees the updated fast iterate).  For the LIMITING
    scheme the fresh draw leaves no cross correlation, which is the a = 0,
    s2 = 1/lam case of the same map.  Small step counts iterate the map
    literally; large ones use an exact matrix power of the same map.
    """
    lam = np.asarray(lam, dtype=float)
    if N < 0:
        raise ValueError("N must be nonnegative")
    ones = np.ones_like(lam)
    mx, my, vx, vy, cv = (np.asarray(v, float) * ones for v in
                          (start.mean_x, start.mean_y, start.var_x, start.var_y, start.cov_xy))
    if N == 0:
        return ModeMoments(mean_x=mx, mean_y=my, var_x=vx, var_y=vy, cov_xy=cv)
    tr = Transition(kind, lam, dt, eps)
    a, s2, one_plus = tr.a, tr.s2, tr.one_plus
    if N <= 4096:
        for _ in range(N):
            my = a * my
            mx = (mx + dt * c * my) / one_plus
            vy_new = a * a * vy + s2
            cv_new = (a * cv + dt * c * vy_new) / one_plus
            vx = (vx + 2.0 * dt * c * a * cv + dt * dt * c * c * vy_new) / (one_plus * one_plus)
            vy, cv = vy_new, cv_new
    else:
        mpow = np.linalg.matrix_power(_mean_matrices(tr, c), N)
        m = np.einsum("nij,nj->ni", mpow, np.stack([my, mx], axis=1))
        my, mx = m[:, 0], m[:, 1]
        spow = np.linalg.matrix_power(_second_matrices(tr, c), N)
        v = np.einsum("nij,nj->ni", spow, np.stack([vy, cv, vx, ones], axis=1))
        vy, cv, vx = v[:, 0], v[:, 1], v[:, 2]
    vx = np.maximum(vx, 0.0)
    vy = np.maximum(vy, 0.0)
    return ModeMoments(mean_x=mx, mean_y=my, var_x=vx, var_y=vy, cov_xy=cv)


def continuous_second_moment(
    lam: ArrayLike,
    c: float,
    eps: float,
    T: float,
    start: ModeMoments,
) -> ModeMoments:
    """Second moments of the exact dynamics at time T, per mode.

    The covariance generator is upper triangular; its matrix exponential is
    evaluated exactly, one mode at a time.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if eps <= 0 or T < 0:
        raise ValueError("need eps > 0 and T >= 0")
    ones = np.ones_like(lam)
    mx = continuous_mean(lam, c, eps, T, start.mean_x, start.mean_y)
    with np.errstate(under="ignore"):
        my = np.exp(-lam * T / eps) * (np.asarray(start.mean_y, float) * ones)
    vx0 = np.asarray(start.var_x, float) * ones
    cv0 = np.asarray(start.cov_xy, float) * ones
    vy0 = np.asarray(start.var_y, float) * ones
    vx = np.empty_like(lam)
    cv = np.empty_like(lam)
    vy = np.empty_like(lam)
    for i, L in enumerate(lam):
        gen = np.array([[-2.0 * L, 2.0 * c, 0.0, 0.0],
                        [0.0, -(L + L / eps), c, 0.0],
                        [0.0, 0.0, -2.0 * L / eps, 2.0 / eps],
                        [0.0, 0.0, 0.0, 0.0]])
        out = expm(gen * T) @ np.array([vx0[i], cv0[i], vy0[i], 1.0])
        vx[i], cv[i], vy[i] = out[:3]
    vx = np.maximum(vx, 0.0)
    vy = np.maximum(vy, 0.0)
    return ModeMoments(mean_x=mx, mean_y=my, var_x=vx, var_y=vy, cov_xy=cv)
