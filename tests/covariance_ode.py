"""Brute-force oracle for the continuous moments: the moment ODEs, integrated by Radau.

For F = c*y each mode's means and second moments obey

    d m_x / dt = -lam m_x + c m_y
    d m_y / dt = -(lam / eps) m_y
    d var_x / dt = -2 lam var_x + 2 c cov
    d cov   / dt = -(lam + lam/eps) cov + c var_y
    d var_y / dt = -(2 lam / eps) var_y + 2 / eps

An implicit step-control solver at rtol 1e-10 shares no code with the
closed forms of `slowfast.moments`, which the tests check against it.
"""

import numpy as np
from scipy.integrate import solve_ivp

from slowfast import ModeMoments


def ode_moments(lam, c, eps, T, start):
    """ModeMoments of the exact dynamics at time T, one Radau solve per mode."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    ones = np.ones_like(lam)
    y0 = np.stack([np.asarray(getattr(start, f), float) * ones
                   for f in ("mean_x", "mean_y", "var_x", "cov_xy", "var_y")], axis=1)
    out = np.empty_like(y0)
    for i, L in enumerate(lam):
        def rhs(t, v, L=L):
            return [-L * v[0] + c * v[1],
                    -L * v[1] / eps,
                    -2.0 * L * v[2] + 2.0 * c * v[3],
                    -(L + L / eps) * v[3] + c * v[4],
                    -2.0 * L * v[4] / eps + 2.0 / eps]

        sol = solve_ivp(rhs, (0.0, T), y0[i], method="Radau", rtol=1e-10, atol=1e-13)
        assert sol.success, sol.message
        out[i] = sol.y[:, -1]
    mx, my, vx, cv, vy = out.T
    return ModeMoments(mean_x=mx, mean_y=my, var_x=np.maximum(vx, 0.0), var_y=np.maximum(vy, 0.0),
                       cov_xy=cv)
