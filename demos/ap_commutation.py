"""The commutation diagram, measured.

At a fixed step size the coupled scheme should land on the limiting scheme
as eps -> 0 (asymptotic preserving), and the limiting scheme should land on
the averaged equation as dt -> 0.  Both legs are measured here without any
sampling noise through the moment recursions.
"""

from dataclasses import replace

import numpy as np

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    LinearInY,
    RunConfig,
    SchemeKind,
    ap_diagram,
    dirichlet_spectrum,
    fit_rate,
    weak_error_curve,
)

spec = dirichlet_spectrum(16)
nl = LinearInY(c=1.0)
phi = FunctionalSpec(kind=FunctionalKind.NORM_SQUARED)
x0 = 1.0 / spec.lambdas
y0 = np.ones(16)

print("leg 1: coupled(eps) -> limiting at fixed dt = 2^-6")
cfg = RunConfig(T=1.0, N=64, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED, x0=x0, y0=y0)
for eps, gap, _ in ap_diagram(cfg, [4.0**-k for k in range(0, 7)], phi, spec, nl):
    print(f"  eps = {eps:9.2e}   |E phi(coupled) - E phi(limiting)| = {gap:.3e}")

print("\nleg 2: limiting(dt) -> averaged equation (linear coupling: Fbar = 0)")
lim = replace(cfg, scheme=SchemeKind.LIMITING)
pts = weak_error_curve(lim, [2.0**-k for k in range(3, 10)], phi, spec, nl)
for p in pts:
    print(f"  dt = 2^{np.log2(p.dt):.0f}   |E phi(limiting) - phi(averaged)| = {p.error:.3e}")
fit = fit_rate(pts)
print(f"  fitted order {fit.slope:.3f} (first order, as it should be)")
