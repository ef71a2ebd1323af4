"""Exact first and second moments for the linear-in-y coupling.

When F(x, y) = c*y the modes decouple and every scheme in the catalog has
Gaussian iterates whose per-mode moments obey one constant-coefficient
affine map on (m_y, m_x, var_y, cov_xy, var_x).  This module applies that
map N times as one matrix power per mode, stacked over all the schemes that
share N, which turns weak-error measurement into a noise-free computation:
repeated runs give bit identical errors.

The continuous-time counterparts serve as the truth side: the mean comes
from the variation-of-constants formula, the second moments from the 3x3
covariance ODE

    d var_x / dt = -2 lam var_x + 2 c cov
    d cov   / dt = -(lam + lam/eps) cov + c var_y
    d var_y / dt = -(2 lam / eps) var_y + 2 / eps

solved exactly in closed form: the generator is upper bidiagonal, so the
entries of its exponential are divided differences of exp over the decay
rates, evaluated elementwise per mode (no matrix exponential).

``moments.expm`` still names SciPy's matrix exponential, which nothing here
calls; `perfbench/tracer.py` counts calls through that name.  It is imported
on first lookup, by the module ``__getattr__``, so that importing the package
does not load ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import exprel

from .integrators import SchemeKind, Transition
from .spectral import ArgumentError, check_positive

__all__ = [
    "ModeMoments",
    "continuous_mean",
    "second_moment_recursion",
    "second_moment_recursions",
    "continuous_second_moment",
]

ArrayLike = Union[float, np.ndarray]


def __getattr__(name):
    if name == "expm":
        from scipy.linalg import expm

        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ModeMoments:
    """Per-mode Gaussian moments; fields are scalars or arrays over modes."""

    mean_x: ArrayLike = 0.0
    mean_y: ArrayLike = 0.0
    var_x: ArrayLike = 0.0
    var_y: ArrayLike = 0.0
    cov_xy: ArrayLike = 0.0

    def __post_init__(self):
        if not (np.all(np.asarray(self.var_x) >= 0) and np.all(np.asarray(self.var_y) >= 0)):
            raise ValueError("variances must be nonnegative, not NaN")
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
    check_positive("eps", eps)
    check_positive("T", T, allow_zero=True)
    with np.errstate(over="ignore", under="ignore"):
        fast = lam / eps
        forcing = T * np.exp(-np.minimum(lam, fast) * T) * exprel(-np.abs(lam - fast) * T)
        return np.exp(-lam * T) * np.asarray(x0, float) + c * np.asarray(y0, float) * forcing


def _step_matrix(transitions: Sequence[Transition], c: float) -> np.ndarray:
    """(K*J, 6, 6) affine steps on (m_y, m_x, var_y, cov_xy, var_x, 1), transition by transition.

    Each entry is an elementwise product of the transitions' concatenated
    coefficients, so a transition's matrices do not depend on the others.
    """
    a, s2, one_plus = (np.concatenate([getattr(tr, name) for tr in transitions])
                       for name in ("a", "s2", "one_plus"))
    dt = np.repeat([tr.dt for tr in transitions], [tr.a.size for tr in transitions])
    r = 1.0 / one_plus
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
    N-th matrix power of `_step_matrix`, taken by repeated squaring.  This is
    the one-transition case of `second_moment_recursions`.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return _moments(_propagate([Transition(kind, lam, dt, eps)], c, N, start)[0])


def second_moment_recursions(
    transitions: Sequence[Transition],
    c: float,
    N: int,
    start: ModeMoments,
) -> ModeMoments:
    """`second_moment_recursion` after N steps of each of K transitions over the same J modes.

    start's fields broadcast to (K, J), one row per transition, and so do the
    result's.  The transitions' step matrices are stacked and raised to the
    N-th power in one call; schemes, step sizes and eps may differ.  A
    stacked matrix power treats every matrix on its own, so each row is
    bit-identical to the transition's own `second_moment_recursion`.
    """
    return _moments(_propagate(transitions, c, N, start))


def _propagate(transitions, c, N, start) -> np.ndarray:
    """(K, J, 6) state (m_y, m_x, var_y, cov_xy, var_x, 1) after N steps of each transition."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    ones = np.ones((len(transitions), transitions[0].one_plus.size))
    state = np.stack([np.asarray(v, float) * ones for v in
                      (start.mean_y, start.mean_x, start.var_y, start.cov_xy, start.var_x, 1.0)],
                     axis=-1)
    if N > 0:
        power = np.linalg.matrix_power(_step_matrix(transitions, c), N)
        state = np.einsum("nij,nj->ni", power, state.reshape(-1, 6)).reshape(state.shape)
    return state


def _moments(state: np.ndarray) -> ModeMoments:
    my, mx, vy, cv, vx = np.moveaxis(state[..., :5], -1, 0)
    return ModeMoments(mean_x=mx, mean_y=my, var_x=np.maximum(vx, 0.0),
                       var_y=np.maximum(vy, 0.0), cov_xy=cv)


def _exp_divided_differences(nodes):
    """f[z_0], f[z_0, z_1], ..., f[z_0, ..., z_k] of f = exp, nodes in [-2, 0].

    Taylor series about -1: with y_i = z_i + 1 in [-1, 1],
    f[z_0..z_k] = e^(-1) sum_m h_m(y_0..y_k) / (m + k)!, where the complete
    homogeneous polynomials obey h_m(y_0..y_i) = h_m(y_0..y_(i-1)) + y_i h_(m-1)(y_0..y_i).
    The m-th term is at most 1/(m! k!), so 20 terms reach rounding, and
    coincident nodes need no special case.
    """
    ys = [z + 1.0 for z in nodes]
    h = [np.ones_like(ys[0]) for _ in ys]
    sums = [h[i] / math.factorial(i) for i in range(len(ys))]
    for m in range(1, 20):
        prev = 0.0
        for i, y in enumerate(ys):
            h[i] = prev + y * h[i]
            prev = h[i]
            sums[i] = sums[i] + h[i] / math.factorial(m + i)
    return [math.exp(-1.0) * s for s in sums]


def continuous_second_moment(
    lam: ArrayLike,
    c: float,
    eps: float,
    T: float,
    start: ModeMoments,
) -> ModeMoments:
    """Second moments of the exact dynamics at time T, per mode, in closed form.

    The generator on (var_x, cov_xy, var_y, 1) is upper bidiagonal, with
    diagonal -2 lam, -(lam + lam/eps), -2 lam/eps, 0 and superdiagonal 2c, c,
    2/eps, so its exponential's (i, j) entry is the product of the
    superdiagonal entries i..j-1, times T^(j-i), times the divided difference
    f[z_i, ..., z_j] of f = exp over the nodes z = T * diagonal.

    The three decay nodes are equally spaced: with hi the largest of them and
    d = |lam - lam/eps| T, they are hi, hi - d, hi - 2d, and
    f[hi, hi - d] = e^hi exprel(-d), f[hi, hi - d, hi - 2d] = e^hi exprel(-d)^2 / 2
    do not cancel, not even at eps = 1.  The forcing entries (the node 0) come
    from Newton's recurrence on f[0, z] = exprel(z), which adds hi - d and
    then hi - 2d and divides by their distances from 0.  Those are at least
    1/2 unless hi > -1 and d < 1/2; there all four nodes lie in (-2, 0], the
    recurrence would cancel, and the series of `_exp_divided_differences`
    takes over.  Every operation is elementwise, so a mode's moments do not
    depend on the other modes in the call.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mx = continuous_mean(lam, c, eps, T, start.mean_x, start.mean_y)  # checks eps and T
    with np.errstate(over="ignore"):
        fast = lam / eps
    if not np.all(np.isfinite(fast)):
        raise ArgumentError("eps", f"argument 'eps' = {eps!r} is too small: lam/eps is not finite")
    ones = np.ones_like(lam)
    vx0, cv0, vy0 = (np.asarray(v, float) * ones for v in (start.var_x, start.cov_xy, start.var_y))
    with np.errstate(under="ignore"):
        my = np.exp(-lam * T / eps) * (np.asarray(start.mean_y, float) * ones)
        a = lam * T
        d = a * (abs(1.0 - eps) / eps)  # 1 - eps is exact near eps = 1
        hi = -2.0 * np.minimum(a, fast * T)
        mid, lo = hi - d, hi - 2.0 * d
        e_hi, e_mid, r = np.exp(hi), np.exp(mid), exprel(-d)
        f_trio = e_hi * (r * r / 2.0)  # f[z0, z1, z2]
        if eps <= 1.0:  # z0 = -2 lam T is the largest decay node, z2 = -2 lam T/eps the smallest
            z0, z2, f01, f12 = hi, lo, e_hi * r, e_mid * r
        else:
            z0, z2, f01, f12 = lo, hi, e_mid * r, e_hi * r
        f0_z2 = exprel(z2)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where the series serves
            f0_z2_z1 = (f0_z2 - f12) / -mid
            f0_trio = ((exprel(hi) - e_hi * r) / -mid - f_trio) / -lo
        near = (hi > -1.0) & (d < 0.5)
        if np.any(near):
            series = _exp_divided_differences([np.zeros(np.count_nonzero(near)), z2[near],
                                               mid[near], z0[near]])
            f0_z2_z1[near], f0_trio[near] = series[2], series[3]
        q = 2.0 * T / eps
        vy = np.exp(z2) * vy0 + q * f0_z2
        cv = e_mid * cv0 + c * T * (f12 * vy0 + q * f0_z2_z1)
        vx = np.exp(z0) * vx0 + 2.0 * c * T * (f01 * cv0 + c * T * (f_trio * vy0 + q * f0_trio))
    return _moments(np.stack(np.broadcast_arrays(my, mx, vy, cv, vx), axis=-1))
