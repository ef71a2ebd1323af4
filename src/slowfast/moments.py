"""Exact first and second moments for the linear-in-y coupling.

When F(x, y) = c*y the modes decouple and every scheme in the catalog has
Gaussian iterates whose per-mode moments obey one constant-coefficient
affine map on (m_y, m_x, var_y, cov_xy, var_x).  This module applies that
map N times as one matrix power per mode, which turns weak-error
measurement into a noise-free computation: repeated runs give bit
identical errors.

The continuous-time counterparts serve as the truth side: the mean comes
from the variation-of-constants formula, the second moments from the 3x3
covariance ODE

    d var_x / dt = -2 lam var_x + 2 c cov
    d cov   / dt = -(lam + lam/eps) cov + c var_y
    d var_y / dt = -(2 lam / eps) var_y + 2 / eps

solved exactly by one matrix exponential of the stacked per-mode generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import expm
from scipy.special import exprel

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


def continuous_mean(
    lam: ArrayLike, c: float, eps: float, T: float, x0: ArrayLike, y0: ArrayLike
) -> np.ndarray:
    """E X(T) per mode for the exact dynamics with F = c*y.

    Equals e^(-lam T) x0 + c y0 (e^(-lam T/eps) - e^(-lam T)) / (lam (1 - 1/eps))
    for eps != 1.  The forcing term is evaluated as
    c y0 T e^(-min(lam, lam/eps) T) exprel(-|lam - lam/eps| T), with
    exprel(u) = (e^u - 1)/u: the slower rate carries the exponential and
    exprel sees a nonpositive argument, so it neither overflows for eps > 1
    nor loses the eps = 1 limit c y0 T e^(-lam T).
    """
    lam = np.asarray(lam, dtype=float)
    if eps <= 0 or T < 0:
        raise ValueError("need eps > 0 and T >= 0")
    with np.errstate(over="ignore", under="ignore"):
        fast = lam / eps
        forcing = T * np.exp(-np.minimum(lam, fast) * T) * exprel(-np.abs(lam - fast) * T)
        return np.exp(-lam * T) * np.asarray(x0, float) + c * np.asarray(y0, float) * forcing


def _step_matrix(tr: Transition, c: float) -> np.ndarray:
    """(J, 6, 6) affine step of the scheme on (m_y, m_x, var_y, cov_xy, var_x, 1)."""
    a, s2, dt = tr.a, tr.s2, tr.dt
    r = 1.0 / tr.one_plus
    g = r * dt * c  # weight of the updated fast iterate in x'
    M = np.zeros((a.size, 6, 6))
    M[:, 0, 0] = a
    M[:, 1, 0] = g * a
    M[:, 1, 1] = r
    M[:, 2, 2] = a * a
    M[:, 2, 5] = s2
    M[:, 3, 2] = g * a * a
    M[:, 3, 3] = r * a
    M[:, 3, 5] = g * s2
    M[:, 4, 2] = g * g * a * a
    M[:, 4, 3] = 2.0 * r * g * a
    M[:, 4, 4] = r * r
    M[:, 4, 5] = g * g * s2
    M[:, 5, 5] = 1.0
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
    s2 = 1/lam case of the same map.  The map is affine, so N steps are the
    N-th matrix power of `_step_matrix`, taken by repeated squaring.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if N < 0:
        raise ValueError("N must be nonnegative")
    ones = np.ones_like(lam)
    state = np.stack([np.asarray(v, float) * ones for v in
                      (start.mean_y, start.mean_x, start.var_y, start.cov_xy, start.var_x, 1.0)],
                     axis=1)
    if N > 0:
        power = np.linalg.matrix_power(_step_matrix(Transition(kind, lam, dt, eps), c), N)
        state = np.einsum("nij,nj->ni", power, state)
    my, mx, vy, cv, vx = state[:, :5].T
    return ModeMoments(mean_x=mx, mean_y=my, var_x=np.maximum(vx, 0.0),
                       var_y=np.maximum(vy, 0.0), cov_xy=cv)


def continuous_second_moment(
    lam: ArrayLike,
    c: float,
    eps: float,
    T: float,
    start: ModeMoments,
) -> ModeMoments:
    """Second moments of the exact dynamics at time T, per mode.

    The covariance generator is upper triangular; its matrix exponential is
    evaluated exactly, in one call on the (J, 4, 4) stack of per-mode
    generators acting on (var_x, cov_xy, var_y, 1).
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if eps <= 0 or T < 0:
        raise ValueError("need eps > 0 and T >= 0")
    with np.errstate(over="ignore"):
        fast = lam / eps
    if not np.all(np.isfinite(fast)):
        raise ValueError(f"argument 'eps' = {eps!r} is too small: lam/eps is not finite")
    ones = np.ones_like(lam)
    mx = continuous_mean(lam, c, eps, T, start.mean_x, start.mean_y)
    with np.errstate(under="ignore"):
        my = np.exp(-lam * T / eps) * (np.asarray(start.mean_y, float) * ones)
    gen = np.zeros((lam.size, 4, 4))
    gen[:, 0, 0] = -2.0 * lam
    gen[:, 0, 1] = 2.0 * c
    gen[:, 1, 1] = -(lam + fast)
    gen[:, 1, 2] = c
    gen[:, 2, 2] = -2.0 * lam / eps
    gen[:, 2, 3] = 2.0 / eps
    start_vec = np.stack([np.asarray(v, float) * ones for v in
                          (start.var_x, start.cov_xy, start.var_y, 1.0)], axis=1)
    vx, cv, vy = np.einsum("nij,nj->ni", expm(gen * T), start_vec)[:, :3].T
    return ModeMoments(mean_x=mx, mean_y=my, var_x=np.maximum(vx, 0.0),
                       var_y=np.maximum(vy, 0.0), cov_xy=cv)
