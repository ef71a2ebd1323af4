"""Why the modified fast update is worth the trouble.

The fast component is an Ornstein-Uhlenbeck process whose equilibrium law
has variance 1/lambda_j per mode.  The modified update keeps that variance
as an exact fixed point of its one-step variance map for EVERY step size;
the plain semi-implicit Euler update does not.  This script prints the
fixed-point residuals for both maps across nine orders of magnitude of tau,
then backs the algebra with the sampler: n modified steps from y0 = 0 have
variance (1 - a^(2n))/lambda, a = 1/(1 + tau*lambda), which tends to
1/lambda and never overshoots it.
"""

import numpy as np

from slowfast import (
    LinearInY, RunConfig, SchemeKind, SpectrumSpec, dirichlet_spectrum, invariant_measure_check,
    trajectory,
)

spec = dirichlet_spectrum(16)
taus = [1e-4, 1e-2, 1.0, 1e2, 1e4]

report = invariant_measure_check(spec, taus)

print("relative residual of the equilibrium variance under one step")
print(f"{'tau':>10} {'modified (worst mode)':>22} {'standard (worst mode)':>22}")
for i, tau in enumerate(taus):
    print(f"{tau:10.0e} {report.residual_modified[i].max():22.3e} "
          f"{report.residual_standard[i].max():22.3e}")

print("\nstandard map residual with tau*lambda = 1 per mode "
      f"(should be exactly 1/4): {report.standard_at_unit[0]:.6f}")

lam1 = float(spec.lambdas[0])
mode1 = SpectrumSpec(1, spec.lambdas[:1])
S, n = 20_000, 64
band = np.sqrt(2.0 / S)  # relative standard deviation of a chi^2_S / S variance estimate
print(f"\nsampled variance of mode 1 after n = {n} modified steps from y0 = 0, {S} samples")
print(f"{'tau':>10} {'sampled var':>12} {'(1-a^2n)/lam':>13} {'1/lambda':>10} {'dev/sigma':>10}")
for tau in taus:
    config = RunConfig(T=n * tau, N=n, eps=1.0, scheme=SchemeKind.COUPLED_MODIFIED,
                       x0=np.zeros(1), y0=np.zeros(1))
    for _, y in trajectory(config, mode1, LinearInY(0.0), None, 1, 0, S):
        pass
    a = 1.0 / (1.0 + tau * lam1)
    exact = (1.0 - a ** (2 * n)) / lam1
    sampled = float(np.mean(y * y))
    print(f"{tau:10.0e} {sampled:12.6e} {exact:13.6e} {1.0 / lam1:10.6e} "
          f"{(sampled / exact - 1.0) / band:10.2f}")
print(f"chi^2 band: |sampled/exact - 1| <= 4*sqrt(2/S) = {4.0 * band:.3f}")
