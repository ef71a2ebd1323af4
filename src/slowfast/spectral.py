"""Diagonal operator algebra in the eigenbasis of the linear operator.

Everything in this module acts mode-by-mode on coefficient vectors.  A
"field" is a plain 1d numpy array of length ``spec.J`` holding the
coefficients of an H-valued object in the eigenbasis; batched variants
accept arrays of shape ``(..., J)`` and act along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectrumSpec",
    "dirichlet_spectrum",
    "quadratic_spectrum",
    "field_norm",
    "check_field",
    "apply_resolvent",
    "apply_semigroup",
    "apply_fractional_power",
    "ModifiedOperators",
    "modified_operators",
    "EigenvalueBoundReport",
    "eigenvalue_error_bounds",
    "log_ratio_constant",
]

@dataclass(frozen=True)
class SpectrumSpec:
    """Galerkin truncation level and the eigenvalues of the linear operator.

    The eigenvalues must be strictly positive and non-decreasing.
    """

    J: int
    lambdas: np.ndarray

    def __post_init__(self):
        if self.J < 1:
            raise ValueError(f"truncation level must be >= 1, got J={self.J}")
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.J,):
            raise ValueError(f"expected {self.J} eigenvalues, got shape {lam.shape}")
        if not np.all(lam > 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


def dirichlet_spectrum(J: int) -> SpectrumSpec:
    """Spectrum of the negative second derivative on (0,1), Dirichlet b.c.

    lambda_j = (j*pi)**2 for j = 1..J.
    """
    if J < 1:
        raise ValueError(f"truncation level must be >= 1, got J={J}")
    j = np.arange(1, J + 1, dtype=float)
    return SpectrumSpec(J=J, lambdas=(j * np.pi) ** 2)


def quadratic_spectrum(J: int, scale: float = 1.0) -> SpectrumSpec:
    """Generic quadratic-growth spectrum lambda_j = scale * j**2.

    A milder admissible alternative to the Dirichlet default (same growth
    exponent, smaller leading eigenvalue when scale < pi**2).
    """
    if J < 1:
        raise ValueError(f"truncation level must be >= 1, got J={J}")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    j = np.arange(1, J + 1, dtype=float)
    return SpectrumSpec(J=J, lambdas=scale * j**2)


def check_field(spec: SpectrumSpec, x: np.ndarray) -> np.ndarray:
    """Validate that x is a coefficient array on spec, return it as float64."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.J:
        raise ValueError(f"field has {x.shape[-1]} modes, spectrum has J={spec.J}")
    return x


def field_norm(spec: SpectrumSpec, x: np.ndarray, alpha: float = 0.0) -> float:
    """Sobolev-type norm |x|_alpha = (sum_j lambda_j^(2 alpha) x_j^2)^(1/2)."""
    if abs(alpha) > 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    x = check_field(spec, x)
    w = spec.lambdas ** (2.0 * alpha) if alpha != 0.0 else 1.0
    return float(np.sqrt(np.sum(w * x * x, axis=-1)))


def apply_resolvent(spec: SpectrumSpec, dt: float, x: np.ndarray) -> np.ndarray:
    """Apply (I + dt*Lambda)^(-1): divide mode j by (1 + dt*lambda_j)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = check_field(spec, x)
    return x / (1.0 + dt * spec.lambdas)


def apply_semigroup(spec: SpectrumSpec, t: float, x: np.ndarray) -> np.ndarray:
    """Apply e^(-t*Lambda): multiply mode j by exp(-t*lambda_j)."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    x = check_field(spec, x)
    with np.errstate(under="ignore"):
        return x * np.exp(-t * spec.lambdas)


def apply_fractional_power(spec: SpectrumSpec, alpha: float, x: np.ndarray) -> np.ndarray:
    """Apply Lambda^alpha for alpha in [-1, 1]; wider exponents are rejected."""
    if abs(alpha) > 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    x = check_field(spec, x)
    if alpha == 0.0:
        return x.copy()
    return x * spec.lambdas**alpha


@dataclass(frozen=True)
class ModifiedOperators:
    """Per-mode scalars of the modified-scheme operators at tau = dt/eps.

    a_tau[j]      = 1/(1 + tau*lambda_j)          (resolvent decay factor)
    b1[j]         = (1/sqrt(2)) / (1 + tau*lambda_j)
    b2[j]         = sqrt(1/2 / (1 + tau*lambda_j))  (diagonal square root)
    b_combined[j] = sqrt(2 + tau*lambda_j) / (sqrt(2)*(1 + tau*lambda_j))
    lambda_tau[j] = log(1 + tau*lambda_j) / tau
    q_tau[j]      = log(1 + tau*lambda_j) / (tau*lambda_j)

    b1^2 + b2^2 = b_combined^2 = (a_tau^2 + a_tau)/2 holds per mode, which is
    what makes the two-noise and combined-noise forms of the fast update agree
    in distribution.
    """

    tau: float
    a_tau: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b_combined: np.ndarray
    lambda_tau: np.ndarray
    q_tau: np.ndarray


def modified_operators(spec: SpectrumSpec, tau: float) -> ModifiedOperators:
    """Build all per-mode modified-scheme scalars at a given tau > 0."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = tau * spec.lambdas
    one_plus = 1.0 + z
    a = 1.0 / one_plus
    b1 = a / np.sqrt(2.0)
    b2 = np.sqrt(0.5 * a)
    b_comb = np.sqrt(2.0 + z) / (np.sqrt(2.0) * one_plus)
    log1p = np.log1p(z)
    return ModifiedOperators(
        tau=tau,
        a_tau=a,
        b1=b1,
        b2=b2,
        b_combined=b_comb,
        lambda_tau=log1p / tau,
        q_tau=log1p / z,
    )


def _log_ratio_defect(z: np.ndarray) -> np.ndarray:
    """eta(z) = 1 - log(1+z)/z for z > 0, with a series branch near 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1e-4
    zs = np.where(small, 1.0, z)
    exact = 1.0 - np.log1p(zs) / zs
    series = z / 2.0 - z * z / 3.0 + z**3 / 4.0
    return np.where(small, series, exact)


def log_ratio_constant(alpha, z_hi: float = 1e19) -> np.ndarray:
    """sup_{z>0} z^(-alpha) * (1 - log(1+z)/z), maximized numerically.

    Vectorized over alpha in [0, 1].  For alpha = 0 the supremum is 1,
    approached as z -> infinity; it is returned exactly.  For alpha > 0 the
    maximizer is located on a dense log grid and refined by golden-section
    search.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("alpha must lie in [0, 1]")

    def f(logz, a):
        return np.exp(-a * logz) * _log_ratio_defect(np.exp(logz))

    lo, hi = np.log(1e-12), np.log(z_hi)
    grid = np.linspace(lo, hi, 1025)
    # the defect factor is alpha-independent: evaluate the grid once
    log_defect_grid = np.log(_log_ratio_defect(np.exp(grid)))
    vals = np.exp(-np.outer(alpha, grid) + log_defect_grid[None, :])
    k = np.argmax(vals, axis=1)
    a_brak = grid[np.maximum(k - 1, 0)]
    b_brak = grid[np.minimum(k + 1, len(grid) - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        left = b_brak - invphi * (b_brak - a_brak)
        right = a_brak + invphi * (b_brak - a_brak)
        take = f(left, alpha) > f(right, alpha)
        b_brak = np.where(take, right, b_brak)
        a_brak = np.where(take, a_brak, left)
    refined = f(0.5 * (a_brak + b_brak), alpha)
    best = np.maximum(vals[np.arange(len(alpha)), k], refined)
    return np.where(alpha < 1e-12, 1.0, best)


@dataclass(frozen=True)
class EigenvalueBoundReport:
    """Per-mode gaps of the modified eigenvalues and their claimed bounds."""

    tau: float
    alpha: float
    c_alpha: float
    lambda_gap: np.ndarray    # lambda_j - lambda_tau_j
    q_gap: np.ndarray         # 1 - q_tau_j
    lambda_bound: np.ndarray  # c_alpha * tau^alpha * lambda_j^(1+alpha)
    q_bound: np.ndarray       # c_alpha * tau^alpha * lambda_j^alpha
    holds: bool = field(default=True)


def eigenvalue_error_bounds(spec: SpectrumSpec, tau: float, alpha: float) -> EigenvalueBoundReport:
    """Gaps 0 <= lambda_j - lambda_tau_j and 0 <= 1 - q_tau_j with their bounds.

    Raises AssertionError if a gap is negative or exceeds its bound (with a
    1e-9 relative slack on the numerically maximized constant).
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    ops = modified_operators(spec, tau)
    lam = spec.lambdas
    z = tau * lam
    eta = _log_ratio_defect(z)
    lam_gap = lam * eta
    q_gap = eta
    c_alpha = float(log_ratio_constant(alpha)[0])
    slack = 1.0 + 1e-9
    lam_bound = c_alpha * tau**alpha * lam ** (1.0 + alpha)
    q_bound = c_alpha * tau**alpha * lam**alpha
    ok = bool(
        np.all(lam_gap >= 0.0)
        and np.all(q_gap >= 0.0)
        and np.all(lam_gap <= lam_bound * slack)
        and np.all(q_gap <= q_bound * slack)
        and np.all(ops.lambda_tau < lam)
        and np.all((0.0 < ops.q_tau) & (ops.q_tau < 1.0))
    )
    assert ok, f"eigenvalue gap bounds violated at tau={tau}, alpha={alpha}"
    return EigenvalueBoundReport(
        tau=tau,
        alpha=alpha,
        c_alpha=c_alpha,
        lambda_gap=lam_gap,
        q_gap=q_gap,
        lambda_bound=lam_bound,
        q_bound=q_bound,
        holds=ok,
    )
