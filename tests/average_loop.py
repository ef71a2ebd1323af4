"""Reference for the Gauss-Hermite average: one f call per node, accumulated in order.

`slowfast.averaged_force` evaluates a `PointwiseGeneral` coupling on all
nodes in one call and sums the weighted rows over the node axis; the tests
check it against this per-node loop bit for bit.
"""

import numpy as np

from slowfast import PointwiseGeneral, pointwise_variance

ORDER = 12  # Gauss-Hermite nodes of PointwiseGeneral's average


def rational_square(c):
    """The saturating square c*v^2/(1 + v^2) as a general coupling: averaged by Gauss-Hermite."""

    def f(u, v):
        v2 = v * v
        return c * v2 / (1.0 + v2)

    return PointwiseGeneral(f=f)


def loop_average(nl, gt, spec):
    """x -> Fbar(x) as coefficients, the nodes walked one at a time."""
    t, w = np.polynomial.hermite.hermgauss(ORDER)
    sig = np.sqrt(pointwise_variance(spec, gt))

    def average(gx):
        # E f(u, V) for V ~ N(0, sig^2): Gauss-Hermite with v = sqrt(2)*sig*t
        acc = np.zeros_like(gx)
        for tk, wk in zip(t, w):
            acc += wk * nl.f(gx, np.sqrt(2.0) * sig * tk)
        return acc / np.sqrt(np.pi)

    return lambda x: gt.pointwise(average, x)
