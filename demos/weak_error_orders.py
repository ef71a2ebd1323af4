"""Noise-free weak-error curves from the moment oracle.

With the linear-in-y coupling every scheme has Gaussian iterates whose
moments obey exact recursions, so weak errors against the continuous law
come out with no Monte Carlo noise at all.  The script measures the
fixed-eps order of the coupled scheme for a quadratic functional and the
first-order mean error of the exact-transition variant, then shows the
(dt/eps)^(1/2) envelope: at fixed dt the error grows as eps shrinks.
"""

import numpy as np

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    LinearInY,
    RunConfig,
    SchemeKind,
    dirichlet_spectrum,
    fit_rate,
    weak_error_curve,
)

spec = dirichlet_spectrum(16)
nl = LinearInY(c=1.0)
phi = FunctionalSpec(kind=FunctionalKind.NORM_SQUARED)
x0 = 1.0 / spec.lambdas
y0 = 1.0 / spec.lambdas
dts = [2.0**-k for k in range(4, 13)]

print("fixed-eps error of the coupled modified scheme, |x|^2 functional, eps = 1")
cfg = RunConfig(T=0.5, N=8, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED, x0=x0, y0=y0)
points = weak_error_curve(cfg, dts, phi, spec, nl)
for p in points:
    print(f"  dt = 2^{np.log2(p.dt):+.0f}   error = {p.error:.6e}")
fit = fit_rate(points)
print(f"  fitted order {fit.slope:.3f} (r^2 = {fit.r_squared:.5f})\n")

print("same ladder for the exact-transition variant")
cfg_expo = RunConfig(T=0.5, N=8, eps=1.0, scheme=SchemeKind.COUPLED_EXPO, x0=x0, y0=y0)
fit_expo = fit_rate(weak_error_curve(cfg_expo, dts, phi, spec, nl))
print(f"  fitted order {fit_expo.slope:.3f} (r^2 = {fit_expo.r_squared:.5f})\n")

print("error growth in eps at fixed dt = 2^-6 (rough fast initial data)")
rough = RunConfig(T=0.5, N=32, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                  x0=np.zeros(16), y0=np.ones(16))
eps_ladder = [1.0, 2.0**-2, 2.0**-4, 2.0**-6]
errs = []
for eps in eps_ladder:
    cfg_eps = RunConfig(T=0.5, N=32, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED,
                        x0=rough.x0, y0=rough.y0)
    pts = weak_error_curve(cfg_eps, [2.0**-6], phi, spec, nl)
    errs.append(pts[0].error)
    print(f"  eps = 2^{np.log2(eps):+.0f}   error = {pts[0].error:.6e}")
env = fit_rate(list(zip(eps_ladder, errs)))
print(f"  slope in eps = {env.slope:.3f}  (about -1/2: the (dt/eps)^(1/2) envelope)")
