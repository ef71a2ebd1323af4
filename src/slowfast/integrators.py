"""Time-stepping schemes for the two-time-scale system.

All steps act per mode on coefficient arrays; batched states of shape
(n_samples, J) advance all Monte Carlo samples at once.  The slow component
is always advanced by the semi-implicit update

    x' = (x + dt * F(x, y')) / (1 + dt * lambda)

with the nonlinearity explicit in the slow variable and implicit in the fast
one (the freshly updated y' enters F).  The schemes differ only in how y' is
produced:

* COUPLED_MODIFIED  y' = a_tau y + sqrt(2 dt/eps) (B1 Gamma1 + B2 Gamma2), the
  modified update whose one-step variance map has the equilibrium variance
  1/lambda as an exact fixed point for every step size.  Its increment is one
  centred Gaussian of variance s2, so one normal field g drawn as sqrt(s2) g
  has its law, which is all a weak error reads.
* COUPLED_EXPO      exact Ornstein-Uhlenbeck transition, y' ~ N(e^(-dt lam/eps) y,
  (1 - e^(-2 dt lam/eps))/lam).
* LIMITING          y' is a fresh equilibrium draw Lambda^(-1/2) Gamma; the
  eps -> 0 limit of the coupled scheme at fixed dt.
* AVERAGED          deterministic: F is replaced by its Gaussian average.

`Transition` is the only place each scheme's algebra lives.  The sampler
(`trajectory`, drained by `run_trajectory_batch`), the `simulate` command and
the moment recursions of `slowfast.moments` all read it.  The module also
solves the averaged equation itself (`solve_averaged_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .noise import sample_cylindrical_batch
from .nonlinearity import (
    GridTransform, LinearInY, Nonlinearity, PointwiseSquare, SaturatingSquare, averaged_force,
    eval_F,
)
from .spectral import ArgumentError, SpectrumSpec, check_field, check_positive

__all__ = [
    "SchemeKind",
    "RunConfig",
    "Transition",
    "trajectory",
    "run_trajectory_batch",
    "solve_averaged_reference",
]


class SchemeKind(Enum):
    COUPLED_MODIFIED = "COUPLED_MODIFIED"
    COUPLED_EXPO = "COUPLED_EXPO"
    LIMITING = "LIMITING"
    AVERAGED = "AVERAGED"

    @property
    def coupled(self) -> bool:
        """True for the schemes that carry a fast state y from step to step."""
        return self in (SchemeKind.COUPLED_MODIFIED, SchemeKind.COUPLED_EXPO)


@dataclass(frozen=True)
class RunConfig:
    """One time-integration setup: T and eps positive and finite whatever the scheme
    (only the coupled ones read eps), N an integer >= 1 (2.0 is not one); dt is derived
    as T/N, never stored."""

    T: float
    N: int
    eps: float
    scheme: SchemeKind
    x0: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        check_positive("T", self.T)
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ArgumentError("N", f"argument 'N' = {self.N!r} must be an integer >= 1")
        check_positive("eps", self.eps)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))

    @property
    def dt(self) -> float:
        return self.T / self.N


class Transition:
    """One step of a scheme at fixed (dt, eps), mode by mode.

    The fast update is y' = a*y + xi, where xi is centered with variance s2,
    independent of the state, and built from one standard normal array g, the
    field every scheme that draws takes.  The slow update is
    x' = (x + dt*F(x, y'))/one_plus with one_plus = 1 + dt*lam.  The moment
    recursions read (a, s2, one_plus); the sampler calls `step`.  Both coupled
    schemes draw xi = sd*g, sd = sqrt(s2).  For the algebra dt may be an array that
    broadcasts against lam; the sampler and the moment map take a scalar dt.

    COUPLED_MODIFIED  a = 1/(1 + tau*lam), tau = dt/eps; the paper's increment
                      sqrt(2 tau) (B1 Gamma1 + B2 Gamma2), B1 = a/sqrt(2) and
                      B2 = sqrt(a/2), is one centred Gaussian of variance
                      s2 = 2 tau (B1^2 + B2^2) = tau a (1 + a), finite for any
                      finite tau*lam
    COUPLED_EXPO      a = exp(-dt*lam/eps), s2 = (1 - a^2)/lam
    LIMITING          y' = g/sqrt(lam), a fresh equilibrium draw: a = 0, s2 = 1/lam
    AVERAGED          no fast variable, a = s2 = 0; F is replaced by Fbar
    """

    def __init__(self, scheme: SchemeKind, lam, dt, eps: float):
        lam = np.asarray(lam, dtype=float)
        check_positive("dt", dt)
        if scheme.coupled:
            check_positive("eps", eps)
        self.scheme = scheme
        self.dt = dt
        self.one_plus = 1.0 + dt * lam
        if scheme == SchemeKind.COUPLED_MODIFIED:
            tau = dt / eps
            with np.errstate(over="ignore"):
                z = tau * lam
            if not np.all(np.isfinite(z)):
                raise ArgumentError("eps", f"argument 'eps' = {eps!r} is too small: "
                                    "tau*lam = dt*lam/eps is not finite")
            self.a = 1.0 / (1.0 + z)
            self.s2 = tau * self.a * (1.0 + self.a)
        elif scheme == SchemeKind.COUPLED_EXPO:
            with np.errstate(over="ignore", under="ignore"):  # z = inf: the stiff limit a = 0
                z = dt * lam / eps
                self.a = np.exp(-z)
                self.s2 = -np.expm1(-2.0 * z) / lam
        elif scheme == SchemeKind.LIMITING:
            self.a = np.zeros_like(lam)
            self.s2 = 1.0 / lam
            self.sqrt_lam = np.sqrt(lam)
        else:  # AVERAGED
            self.a = np.zeros_like(lam)
            self.s2 = np.zeros_like(lam)
        self.sd = np.sqrt(self.s2)

    def step(self, x, y, g, force):
        """(x', y') from (x, y) and the normal field g; force(x, y') is F(x, y') (Fbar(x) for
        AVERAGED).  y and y' are None without a fast state, g for AVERAGED, which draws none.

        The step works in place: x' is x and y' is y, and g is scratch (LIMITING's y' is g).
        force must return an array the step may overwrite.  Each operation is the one of
        a*y + sd*g and (x + dt*F)/one_plus on the same operands, so the bits are theirs.
        """
        if self.scheme.coupled:
            y *= self.a
            g *= self.sd
            y += g
        elif self.scheme == SchemeKind.LIMITING:
            y = np.divide(g, self.sqrt_lam, out=g)
        f = force(x, y)
        f *= self.dt
        x += f
        x /= self.one_plus
        return x, (y if self.scheme.coupled else None)


def trajectory(
    config: RunConfig,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform],
    master_seed: int,
    first_sample: int,
    count: int,
):
    """Yield (x, y) at steps 0..N for samples first_sample..first_sample+count-1.

    x and y are (count, J) arrays; y is None for LIMITING/AVERAGED.  Every
    scheme but AVERAGED draws one normal field per step, and the draw of
    sample i at step n depends only on (master_seed, i, n), whatever the
    scheme and the batch partition.

    The generator yields its own two buffers, x and y, at every step, and
    the next step overwrites them in place: a caller that keeps a state past
    the next step must copy it.
    """
    tr = Transition(config.scheme, spec.lambdas, config.dt, config.eps)
    if config.scheme == SchemeKind.AVERAGED:
        fbar = averaged_force(nl, gt, spec)

        def force(x, y):
            return fbar(x)
    else:
        def force(x, y):
            return eval_F(nl, gt, x, y)

    ones = np.ones((count, 1))
    x = ones * check_field(spec, config.x0)[None, :]
    y = ones * check_field(spec, config.y0)[None, :] if config.scheme.coupled else None
    yield x, y
    for n in range(config.N):
        g = (None if config.scheme == SchemeKind.AVERAGED
             else sample_cylindrical_batch(spec, master_seed, n, first_sample, count))
        x, y = tr.step(x, y, g, force)
        yield x, y


def run_trajectory_batch(
    config: RunConfig,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform],
    master_seed: int,
    first_sample: int,
    count: int,
):
    """Slow states x_N of samples first_sample..first_sample+count-1, a (count, J) array.

    `trajectory` yields the fast states as well.
    """
    for x, _ in trajectory(config, spec, nl, gt, master_seed, first_sample, count):
        pass
    return x


def solve_averaged_reference(
    spec: SpectrumSpec,
    nl: Nonlinearity,
    x0: np.ndarray,
    T: float,
    gt: Optional[GridTransform] = None,
) -> np.ndarray:
    """Solution of the averaged evolution equation dx/dt = -Lambda x + Fbar(x) at time T.

    When Fbar is a constant field g, which holds for the linear-in-y coupling
    (g = 0) and the two squares, variation of constants gives
    x_j(T) = e^(-lam T) x0_j + (1 - e^(-lam T)) g_j / lam_j, with 1 - e^(-lam T)
    taken as -expm1(-lam T): the difference would cancel at small lam T.  A `PointwiseGeneral`
    is integrated by a stiff step-control solver (LSODA) at relative tolerance
    1e-12, with the constants of Fbar computed once.
    """
    x0 = check_field(spec, x0)
    check_positive("T", T, allow_zero=True)
    fbar = averaged_force(nl, gt, spec)
    if isinstance(nl, (LinearInY, PointwiseSquare, SaturatingSquare)):
        with np.errstate(under="ignore"):
            decay = np.exp(-T * spec.lambdas)
        return x0 * decay - np.expm1(-T * spec.lambdas) * fbar(np.zeros_like(x0)) / spec.lambdas
    from scipy.integrate import solve_ivp  # imported here: only this branch needs it

    sol = solve_ivp(lambda t, x: fbar(x) - spec.lambdas * x, (0.0, T), x0,
                    method="LSODA", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"averaged equation solve failed: {sol.message}")
    return sol.y[:, -1]
