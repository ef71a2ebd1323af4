"""Uniform accuracy: one scheme, one step size, every regime.

The headline property of the coupled scheme is a weak-error bound that does
not blow up as the time-scale separation vanishes.  This sweep measures the
error on a full (eps, dt) grid against the exact-transition scheme on a
512-fold refined grid, reports the exactly-known bias of that reference, and
fits the max-over-eps curve.  Everything is noise-free (moment recursions),
so the sweep takes seconds.
"""

import numpy as np

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    LinearInY,
    RunConfig,
    SchemeKind,
    dirichlet_spectrum,
    uniform_sweep,
)

spec = dirichlet_spectrum(16)
nl = LinearInY(c=1.0)
phi = FunctionalSpec(kind=FunctionalKind.NORM_SQUARED)
cfg = RunConfig(T=1.0, N=16, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                x0=1.0 / spec.lambdas, y0=np.ones(16))

eps_list = [4.0**-k for k in range(0, 7)]
dt_list = [2.0**-k for k in range(4, 11)]
res = uniform_sweep(cfg, eps_list, dt_list, phi, spec, nl)

header = "dt \\ eps " + " ".join(f"2^{int(np.log2(e)):+4d}" for e in eps_list)
print("weak error |E phi(scheme) - E phi(reference)| on the grid")
print(header)
for i, dt in enumerate(dt_list):
    row = " ".join(f"{res.errors[i, k]:.1e}" for k in range(len(eps_list)))
    print(f"2^{int(np.log2(dt)):+4d}  {row}   max {res.max_errors[i]:.2e}")

print(f"\nmax-over-eps slope: {res.fit.slope:.3f} (r^2 = {res.fit.r_squared:.4f})")
print(f"largest reference bias anywhere on the grid: {res.reference_bias.max():.2e}")
arg = np.argmax(res.errors, axis=1)
bias_at = res.reference_bias[np.arange(len(dt_list)), arg]
print(f"reference bias at the curve points / smallest curve error: "
      f"{bias_at.max() / res.max_errors.min():.3f}")
