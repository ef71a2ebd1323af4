"""Spectrum of the linear operator and the modified-eigenvalue gap bounds.

A "field" is a plain 1d numpy array of length ``spec.J`` holding the
coefficients of an H-valued object in the eigenbasis; batched fields have
shape ``(..., J)``.  The per-step operators of each scheme live in
`slowfast.integrators.Transition`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumSpec",
    "dirichlet_spectrum",
    "quadratic_spectrum",
    "check_field",
    "ArgumentError",
    "check_positive",
    "EigenvalueBoundReport",
    "eigenvalue_error_bounds",
    "log_ratio_constant",
]

@dataclass(frozen=True)
class SpectrumSpec:
    """Galerkin truncation level and the eigenvalues of the linear operator.

    The eigenvalues must be strictly positive and non-decreasing, with finite
    reciprocals (so none below about 5.6e-309).
    """

    J: int
    lambdas: np.ndarray

    def __post_init__(self):
        if self.J < 1:
            raise ValueError(f"truncation level must be >= 1, got J={self.J}")
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.J,):
            raise ArgumentError("lambdas", f"expected {self.J} eigenvalues, got shape {lam.shape}")
        check_positive("lambdas", lam)
        with np.errstate(over="ignore"):
            if not np.all(1.0 / lam < np.inf):
                raise ArgumentError("lambdas", f"eigenvalues must have a finite reciprocal, "
                                    f"got {float(lam.min())!r}")
        if np.any(np.diff(lam) < 0.0):
            raise ArgumentError("lambdas", "eigenvalues must be non-decreasing")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)


def dirichlet_spectrum(J: int) -> SpectrumSpec:
    """Spectrum of the negative second derivative on (0,1), Dirichlet b.c.

    lambda_j = (j*pi)**2 for j = 1..J.
    """
    j = np.arange(1, J + 1, dtype=float)
    return SpectrumSpec(J=J, lambdas=(j * np.pi) ** 2)


def quadratic_spectrum(J: int) -> SpectrumSpec:
    """Quadratic-growth spectrum lambda_j = j**2.

    A milder admissible alternative to the Dirichlet default (same growth
    exponent, leading eigenvalue 1 instead of pi**2).
    """
    j = np.arange(1, J + 1, dtype=float)
    return SpectrumSpec(J=J, lambdas=j**2)


def check_field(spec: SpectrumSpec, x: np.ndarray) -> np.ndarray:
    """Validate that x is a coefficient array on spec, return it as float64."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.J:
        raise ValueError(f"field has {x.shape[-1]} modes, spectrum has J={spec.J}")
    return x


class ArgumentError(ValueError):
    """A ValueError about the argument `name`, for a caller to map to its own input."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def check_positive(name: str, value, allow_zero: bool = False):
    """value, if it holds at least one number and each is finite and positive
    (nonnegative with allow_zero), else an ArgumentError naming the argument; NaN fails.
    A scalar is compared as it is, with no array: configs and steps check theirs
    on every construction."""
    if isinstance(value, (int, float)):
        ok = (0.0 <= value if allow_zero else 0.0 < value) and value < np.inf
    else:
        x = np.asarray(value, dtype=float)
        ok = x.size > 0 and bool(np.all(((x >= 0.0) if allow_zero else (x > 0.0)) & (x < np.inf)))
    if not ok:
        raise ArgumentError(name, f"argument {name!r} = {value!r} must be "
                         f"{'nonnegative' if allow_zero else 'positive'} and finite")
    return value


def _log_ratio_defect(z: np.ndarray) -> np.ndarray:
    """eta(z) = 1 - log(1+z)/z for z > 0, with a series branch near 0."""
    z = np.asarray(z, dtype=float)
    small = z < 1e-4
    zs = np.where(small, 1.0, z)
    exact = 1.0 - np.log1p(zs) / zs
    series = z / 2.0 - z * z / 3.0 + z**3 / 4.0
    return np.where(small, series, exact)


def _neg_log_ratio(logz: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """-log(z^(-alpha) * eta(z)) as a function of log z."""
    return alpha * logz - np.log(_log_ratio_defect(np.exp(logz)))


def log_ratio_constant(alpha) -> np.ndarray:
    """sup_{z>0} z^(-alpha) * (1 - log(1+z)/z), maximized numerically.

    Vectorized over alpha in [0, 1].  For alpha = 0 the supremum is 1,
    approached as z -> infinity; it is returned exactly.  For alpha > 0 the
    maximizer over log z in [log 1e-12, log 1e19] is bracketed and refined by
    SciPy's elementwise minimizer; RuntimeError if it does not converge.
    """
    # imported here: scipy.optimize also loads scipy.linalg, which no other path needs
    from scipy.optimize.elementwise import bracket_minimum, find_minimum

    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all((alpha >= 0.0) & (alpha <= 1.0)):  # NaN fails
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    exact = alpha < 1e-12
    a = np.where(exact, 0.5, alpha)  # a stand-in where the maximizer runs off to infinity
    bracket = bracket_minimum(_neg_log_ratio, 0.0, xmin=np.log(1e-12), xmax=np.log(1e19),
                              args=(a,))
    best = find_minimum(_neg_log_ratio, bracket.bracket, args=(a,))
    converged = bracket.success & best.success
    if not np.all(converged):
        raise RuntimeError(f"the maximizer did not converge at alpha = {alpha[~converged]}")
    return np.where(exact, 1.0, np.exp(-best.f_x))


@dataclass(frozen=True)
class EigenvalueBoundReport:
    """Per-mode gaps of the modified eigenvalues and their claimed bounds."""

    c_alpha: float            # log_ratio_constant(alpha)
    lambda_gap: np.ndarray    # lambda_j - lambda_tau_j
    q_gap: np.ndarray         # 1 - q_tau_j
    lambda_bound: np.ndarray  # c_alpha * tau^alpha * lambda_j^(1+alpha)
    q_bound: np.ndarray       # c_alpha * tau^alpha * lambda_j^alpha


def eigenvalue_error_bounds(spec: SpectrumSpec, tau: float, alpha: float) -> EigenvalueBoundReport:
    """Gaps 0 < lambda_j - lambda_tau_j and 0 < 1 - q_tau_j with their bounds.

    lambda_tau = log(1 + tau*lambda)/tau is the modified eigenvalue of the
    modified Euler scheme and q_tau = lambda_tau/lambda.  Raises
    AssertionError if a gap is not positive, q_tau is not positive, or a gap
    exceeds its bound (with a 1e-9 relative slack on the numerically
    maximized constant).
    """
    check_positive("tau", tau)
    c_alpha = float(log_ratio_constant(alpha)[0])  # which checks alpha, before any work
    lam = spec.lambdas
    z = tau * lam
    eta = _log_ratio_defect(z)
    lam_gap = lam * eta
    q_gap = eta
    slack = 1.0 + 1e-9
    lam_bound = c_alpha * tau**alpha * lam ** (1.0 + alpha)
    q_bound = c_alpha * tau**alpha * lam**alpha
    # lambda_tau = lam*(1 - eta) < lam and q_tau = 1 - eta < 1 both read eta > 0;
    # q_tau > 0 is checked on log(1+z)/z itself, because eta rounds to 1 at huge z
    if not (
        np.all(eta > 0.0)
        and np.all(np.log1p(z) / z > 0.0)
        and np.all(lam_gap <= lam_bound * slack)
        and np.all(q_gap <= q_bound * slack)
    ):
        raise AssertionError(f"eigenvalue gap bounds violated at tau={tau}, alpha={alpha}")
    return EigenvalueBoundReport(c_alpha=c_alpha, lambda_gap=lam_gap, q_gap=q_gap,
                                 lambda_bound=lam_bound, q_bound=q_bound)
