"""Reference for the discrete moment map: the per-mode recursion iterated literally.

`slowfast.moments.second_moment_recursion` raises the same affine map to
the N-th power; the tests check it against this step-by-step loop, and the
zero-draw sampler against the loop's means bit for bit.
"""

import numpy as np

from slowfast import ModeMoments, Transition


def loop_moments(kind, lam, c, eps, dt, N, start):
    """ModeMoments of the scheme after N literal steps of the moment map, F = c*y."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    tr = Transition(kind, lam, dt, eps)
    a, s2, one_plus = tr.a, tr.s2, tr.one_plus
    ones = np.ones_like(lam)
    mx, my, vx, vy, cv = (np.asarray(v, float) * ones for v in
                          (start.mean_x, start.mean_y, start.var_x, start.var_y, start.cov_xy))
    for _ in range(N):
        my = a * my
        mx = (mx + dt * c * my) / one_plus
        vy_new = a * a * vy + s2
        cv_new = (a * cv + dt * c * vy_new) / one_plus
        vx = (vx + 2.0 * dt * c * a * cv + dt * dt * c * c * vy_new) / (one_plus * one_plus)
        vy, cv = vy_new, cv_new
    return ModeMoments(mean_x=mx, mean_y=my, var_x=np.maximum(vx, 0.0), var_y=np.maximum(vy, 0.0),
                       cov_xy=cv)
