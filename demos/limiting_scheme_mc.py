"""Monte Carlo pipeline on a genuinely nonlinear coupling.

The pointwise-square coupling has a closed-form averaged solution, which
makes it the natural target for an end-to-end Monte Carlo check of the
limiting scheme: `weak_error_curve` samples 20000 trajectories per step size
and compares the estimated functional to the variation-of-constants
solution, and `fit_rate` fits the rate.  This is a quick (seconds) version of
the heavier acceptance run, which uses 200000 samples.
"""

import numpy as np

from slowfast import (
    FunctionalKind,
    FunctionalSpec,
    GridTransform,
    PointwiseSquare,
    RunConfig,
    SchemeKind,
    evaluate_functional,
    fit_rate,
    quadratic_spectrum,
    solve_averaged_reference,
    weak_error_curve,
)

spec = quadratic_spectrum(16)  # lambda_j = j^2: mild spectrum, clean rates at T = 1
gt = GridTransform(16)
nl = PointwiseSquare(c=1.0)
x0 = np.zeros(16)
x0[0] = 10.0
h = np.zeros(16)
h[0] = 1.0
phi = FunctionalSpec(kind=FunctionalKind.LINEAR, h=h)

target = float(evaluate_functional(phi, solve_averaged_reference(spec, nl, x0, 1.0, gt)))
print(f"averaged-equation value of the functional at T = 1: {target:.6f}\n")

cfg = RunConfig(T=1.0, N=1, eps=1.0, scheme=SchemeKind.LIMITING, x0=x0, y0=np.zeros(16))
pts = weak_error_curve(cfg, [2.0**-k for k in range(4, 9)], phi, spec, nl, gt,
                       n_samples=20_000, master_seed=99, n_threads=4)
for p in pts:
    print(f"dt = 2^{np.log2(p.dt):.0f}:  error {p.error:.3e} +- {p.stderr:.1e}"
          f"   ({p.error / p.stderr:.0f} stderr)")

fit = fit_rate(pts)
print(f"\nfitted weak order: {fit.slope:.3f} (r^2 = {fit.r_squared:.4f})")
