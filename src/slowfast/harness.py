"""Experiment driver: Monte Carlo estimation, weak-error curves, rate fits,
asymptotic-preserving and invariant-measure diagnostics.

Two truth modes are available for weak-error measurement:

* MOMENT_ORACLE     linear-in-y coupling only; scheme expectations come from
  the exact moment recursions and the truth from the continuous moments, so
  curves are noise-free and bit-reproducible.
* REFINED_REFERENCE Monte Carlo against the exact-transition scheme on a
  refined grid; works for any catalog nonlinearity, with the reference bias
  reported (exactly when the oracle applies, otherwise by refinement
  doubling).  With n_samples = 0 both sides are moment-oracle values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .integrators import (
    RunConfig, SchemeKind, Transition, run_trajectory_batch, solve_averaged_reference, trajectory,
)
from .moments import ModeMoments, continuous_second_moment, second_moment_recursion
from .nonlinearity import GridTransform, LinearInY, Nonlinearity
from .spectral import SpectrumSpec, check_field

__all__ = [
    "FunctionalKind",
    "FunctionalSpec",
    "McEstimate",
    "RateFit",
    "OracleMode",
    "WeakErrorPoint",
    "evaluate_functional",
    "gaussian_expectation",
    "mc_estimate",
    "oracle_weak_value",
    "continuous_weak_value",
    "weak_error_curve",
    "fit_rate",
    "ap_diagram",
    "averaging_curve",
    "invariant_measure_check",
    "uniform_sweep",
]


class FunctionalKind(Enum):
    LINEAR = "LINEAR"
    NORM_SQUARED = "NORM_SQUARED"
    BOUNDED_EXP = "BOUNDED_EXP"


@dataclass(frozen=True)
class FunctionalSpec:
    """Test functional phi acting on the slow state.

    LINEAR:       phi(x) = <h, x>
    NORM_SQUARED: phi(x) = |x|^2   (unbounded; exact under the Gaussian
                  oracle, flagged as an oracle functional in outputs)
    BOUNDED_EXP:  phi(x) = exp(-|x|^2), smooth with bounded derivatives
    """

    kind: FunctionalKind
    h: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == FunctionalKind.LINEAR:
            if self.h is None:
                raise ValueError("LINEAR functional needs a weight field h")
            object.__setattr__(self, "h", np.asarray(self.h, dtype=float))

    @property
    def oracle_only(self) -> bool:
        return self.kind == FunctionalKind.NORM_SQUARED


def evaluate_functional(phi: FunctionalSpec, x: np.ndarray) -> np.ndarray:
    """Apply phi to states of shape (..., J); returns shape (...)."""
    x = np.asarray(x, dtype=float)
    if phi.kind == FunctionalKind.LINEAR:
        # not x @ h: a matrix-vector product rounds a row differently
        # depending on how many rows it is computed with
        return np.sum(x * phi.h, axis=-1)
    s = np.sum(x * x, axis=-1)
    if phi.kind == FunctionalKind.NORM_SQUARED:
        return s
    return np.exp(-s)


def gaussian_expectation(phi: FunctionalSpec, mean: np.ndarray, var: np.ndarray) -> float:
    """E[phi(X)] for X with independent Gaussian modes N(mean_j, var_j).

    LINEAR and NORM_SQUARED are the usual moment identities; BOUNDED_EXP uses
    E exp(-Z^2) = exp(-m^2/(1+2v)) / sqrt(1+2v) per mode.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if phi.kind == FunctionalKind.LINEAR:
        return float(np.sum(phi.h * mean))
    if phi.kind == FunctionalKind.NORM_SQUARED:
        return float(np.sum(var + mean * mean))
    s = 1.0 + 2.0 * var
    return float(np.prod(np.exp(-mean * mean / s) / np.sqrt(s)))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    points: tuple


class OracleMode(Enum):
    MOMENT_ORACLE = "MOMENT_ORACLE"
    REFINED_REFERENCE = "REFINED_REFERENCE"


@dataclass(frozen=True)
class WeakErrorPoint:
    dt: float
    error: float
    stderr: float
    oracle_bias: float


def mc_estimate(
    config: RunConfig,
    phi: FunctionalSpec,
    n_samples: int,
    master_seed: int,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
    n_threads: int = 1,
    batch: int = 2048,
) -> McEstimate:
    """Sample mean and standard error of phi over independent trajectories.

    The samples are run in spans of `batch` samples (default 2048, small
    enough that a span's working arrays stay in cache and that the spans
    spread evenly over the workers), on n_threads worker threads.  Sample i
    always uses the stream addressed by (master_seed, i, step), so the
    result is identical for any n_threads and any batch size; for the
    pointwise couplings, any batch size above one collocation block
    (`GridTransform.rows_per_block`).  Per-sample values are aggregated in
    sample order.

    A non-finite phi value raises ValueError naming the first such sample's
    address (master_seed, sample) and the first step at which its replayed
    trajectory is not finite.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    vals = np.empty(n_samples)
    spans = [(a, min(a + batch, n_samples)) for a in range(0, n_samples, batch)]

    def work(span):
        a, b = span
        x = run_trajectory_batch(config, spec, nl, gt, master_seed, a, b - a)
        vals[a:b] = evaluate_functional(phi, x)

    if n_threads <= 1 or len(spans) == 1:
        for span in spans:
            work(span)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, spans))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        sample = int(bad[0])
        step = _first_nonfinite_step(config, spec, nl, gt, master_seed, sample)
        where = (f"its trajectory is first non-finite at step {step} of {config.N}"
                 if step is not None else "its trajectory is finite, phi of its final state is not")
        raise ValueError(f"{bad.size} of {n_samples} samples gave a non-finite phi; the first is "
                         f"(master_seed, sample) = ({master_seed}, {sample}): {where}")
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples)


def _first_nonfinite_step(config, spec, nl, gt, master_seed, sample) -> Optional[int]:
    """First step at which one sample's replayed (x, y) is not finite; None if none is."""
    with np.errstate(all="ignore"):
        for n, (x, y) in enumerate(trajectory(config, spec, nl, gt, master_seed, sample, 1)):
            if not np.isfinite(x).all() or (y is not None and not np.isfinite(y).all()):
                return n
    return None


def _require_linear_in_y(nl: Nonlinearity, what: str):
    if not isinstance(nl, LinearInY):
        raise ValueError(f"{what} needs the linear-in-y coupling, got {type(nl).__name__}")


def _start_moments(config: RunConfig, spec: SpectrumSpec) -> ModeMoments:
    return ModeMoments(
        mean_x=check_field(spec, config.x0),
        mean_y=check_field(spec, config.y0),
        var_x=np.zeros(spec.J),
        var_y=np.zeros(spec.J),
        cov_xy=np.zeros(spec.J),
    )


def oracle_weak_value(
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
) -> float:
    """Exact E[phi(X_N)] of the scheme via the moment recursions (no sampling)."""
    _require_linear_in_y(nl, "the moment oracle")
    mom = second_moment_recursion(
        config.scheme, spec.lambdas, nl.c, config.eps, config.dt, config.N,
        _start_moments(config, spec),
    )
    return gaussian_expectation(phi, mom.mean_x, mom.var_x)


def _expectation(config, phi, spec, nl, gt, n_samples, master_seed, n_threads) -> McEstimate:
    """E[phi(X_N)]: the moment oracle (stderr 0) when n_samples == 0, else Monte Carlo."""
    if n_samples == 0:
        return McEstimate(mean=oracle_weak_value(config, phi, spec, nl), stderr=0.0, n_samples=0)
    return mc_estimate(config, phi, n_samples, master_seed, spec, nl, gt, n_threads=n_threads)


def continuous_weak_value(
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
) -> float:
    """Exact E[phi(X(T))] of the continuous dynamics (linear-in-y coupling)."""
    _require_linear_in_y(nl, "the continuous oracle")
    mom = continuous_second_moment(spec.lambdas, nl.c, config.eps, config.T,
                                   _start_moments(config, spec))
    return gaussian_expectation(phi, mom.mean_x, mom.var_x)


def weak_error_curve(
    config: RunConfig,
    dt_list: Sequence[float],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
    oracle: OracleMode = OracleMode.MOMENT_ORACLE,
    n_samples: int = 100000,
    master_seed: int = 0,
    refinement: int = 64,
    n_threads: int = 1,
):
    """|E phi(scheme at dt) - truth| for each dt on a decreasing ladder.

    dt_list must be strictly decreasing with T/dt an integer.  In
    MOMENT_ORACLE mode the truth is the continuous law and both sides are
    exact (stderr 0); the oracle_bias column is exactly 0.  In
    REFINED_REFERENCE mode both sides are Monte Carlo estimates, or moment
    oracle values when n_samples == 0; the bias column holds the exact
    reference bias when the coupling is linear-in-y and a
    refinement-doubling estimate otherwise.
    """
    dts = list(dt_list)
    if any(d2 >= d1 for d1, d2 in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")
    truth = continuous_weak_value(config, phi, spec, nl) if isinstance(nl, LinearInY) else None
    points = []
    for dt in dts:
        cfg = _config_at_dt(config, dt)
        if oracle == OracleMode.MOMENT_ORACLE:
            val = oracle_weak_value(cfg, phi, spec, nl)
            points.append(WeakErrorPoint(dt=dt, error=abs(val - truth), stderr=0.0, oracle_bias=0.0))
        elif oracle == OracleMode.REFINED_REFERENCE:
            ref_cfg = _reference_config(cfg, refinement)
            est = _expectation(cfg, phi, spec, nl, gt, n_samples, master_seed, n_threads)
            ref = _expectation(ref_cfg, phi, spec, nl, gt, n_samples, master_seed, n_threads)
            if truth is None:
                ref2 = _expectation(replace(ref_cfg, N=2 * ref_cfg.N), phi, spec, nl, gt,
                                    n_samples, master_seed, n_threads)
                bias = abs(ref2.mean - ref.mean)
            elif n_samples == 0:
                bias = abs(ref.mean - truth)  # ref is already the oracle value
            else:
                bias = abs(oracle_weak_value(ref_cfg, phi, spec, nl) - truth)
            err = abs(est.mean - ref.mean)
            se = math.hypot(est.stderr, ref.stderr)
            points.append(WeakErrorPoint(dt=dt, error=err, stderr=se, oracle_bias=bias))
        else:
            raise ValueError(f"unknown oracle mode {oracle!r}")
    return points


def _config_at_dt(config: RunConfig, dt: float) -> RunConfig:
    """config with N = T/dt; dt must divide T into an integer step count."""
    n_float = config.T / dt
    N = int(round(n_float))
    if abs(n_float - N) > 1e-9 * max(1.0, n_float):
        raise ValueError(f"dt={dt} does not divide T={config.T} into an integer step count")
    return replace(config, N=N)


def _reference_config(config: RunConfig, refinement: int) -> RunConfig:
    """The exact-transition scheme on config's grid refined `refinement` times."""
    return replace(config, scheme=SchemeKind.COUPLED_EXPO, N=config.N * refinement)


def fit_rate(points, drop_coarsest: bool = False) -> RateFit:
    """Least-squares slope of log(error) against log(dt).

    points: iterable of (dt, error) pairs or WeakErrorPoint.  Zero or
    negative errors are rejected: they signal a measurement at or below the
    noise floor, which a log fit cannot represent.
    """
    pts = [(p.dt, p.error) if isinstance(p, WeakErrorPoint) else (float(p[0]), float(p[1]))
           for p in points]
    if drop_coarsest:
        pts = pts[1:]
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit a rate")
    dts = np.array([p[0] for p in pts])
    errs = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(errs)):
        raise ValueError(f"errors must be finite for a log-log fit, got {errs.tolist()}")
    if np.any(errs <= 0.0):
        raise ValueError("errors must be positive for a log-log fit (below noise floor?)")
    x = np.log(dts)
    y = np.log(errs)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([slope, intercept])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2,
                   points=tuple((float(d), float(e)) for d, e in pts))


def ap_diagram(
    config: RunConfig,
    eps_list: Sequence[float],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
    n_samples: int = 0,
    master_seed: int = 0,
    n_threads: int = 1,
):
    """Gap |E phi(coupled at eps) - E phi(limiting)| for each eps at fixed dt.

    n_samples = 0 requests the noise-free moment-oracle path (linear-in-y
    only); otherwise both values are Monte Carlo estimates with the same
    seed.  Returns a list of (eps, gap, stderr) rows.
    """
    lim = _expectation(replace(config, eps=1.0, scheme=SchemeKind.LIMITING), phi, spec, nl, gt,
                       n_samples, master_seed, n_threads)
    rows = []
    for eps in eps_list:
        cfg = replace(config, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED)
        est = _expectation(cfg, phi, spec, nl, gt, n_samples, master_seed, n_threads)
        rows.append((float(eps), abs(est.mean - lim.mean), math.hypot(est.stderr, lim.stderr)))
    return rows


def averaging_curve(
    eps_list: Sequence[float],
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
):
    """|E phi(X^eps(T)) - phi(averaged solution at T)| over an eps ladder.

    E phi(X^eps(T)) is approximated by the exact-transition scheme at the
    (fine) resolution carried by config.N, evaluated through the moment
    recursions, so the curve is noise-free.  Returns (eps, gap) rows.
    """
    _require_linear_in_y(nl, "the averaging curve")
    xbar = solve_averaged_reference(spec, nl, config.x0, config.T)
    target = evaluate_functional(phi, xbar)
    rows = []
    for eps in eps_list:
        cfg = replace(config, eps=eps, scheme=SchemeKind.COUPLED_EXPO)
        rows.append((float(eps), abs(oracle_weak_value(cfg, phi, spec, nl) - float(target))))
    return rows


@dataclass(frozen=True)
class InvariantCheckReport:
    """Fixed-point residuals of the one-step variance maps, per (tau, mode).

    residual_modified[i, j]: relative residual |map(1/lam_j)*lam_j - 1| of the
    modified update at tau_list[i]; must vanish to rounding for every tau.
    residual_standard[i, j]: same for the plain semi-implicit update, which
    does not preserve the equilibrium (at tau*lam = 1 the relative residual
    is exactly 1/4).
    standard_at_unit[j]: the standard map's residual at tau = 1/lam_j.
    """

    tau_list: tuple
    residual_modified: np.ndarray
    residual_standard: np.ndarray
    standard_at_unit: np.ndarray


def _variance_map_residual(a: np.ndarray, s2: np.ndarray, lam: np.ndarray) -> np.ndarray:
    v = 1.0 / lam
    return np.abs((a * a * v + s2) * lam - 1.0)


def invariant_measure_check(spec: SpectrumSpec, tau_list: Sequence[float]) -> InvariantCheckReport:
    """Check that the equilibrium variance 1/lam is a fixed point per mode.

    The modified update has noise variance s2 = tau*(2+tau*lam)/(1+tau*lam)^2
    per step and satisfies the fixed point identically; the standard
    semi-implicit update (s2 = 2*tau/(1+tau*lam)^2) does not, which the
    standard_* fields document.  The sampler runs the same modified update
    (`Transition`), so its fast variance n steps from y0 = 0 is
    (1 - a^(2n))/lam.
    """
    lam = spec.lambdas
    taus = [float(t) for t in tau_list]
    if any(t <= 0 for t in taus):
        raise ValueError("tau values must be positive")
    res_mod = np.empty((len(taus), spec.J))
    res_std = np.empty((len(taus), spec.J))
    for i, tau in enumerate(taus):
        tr = Transition(SchemeKind.COUPLED_MODIFIED, lam, tau, 1.0)
        res_mod[i] = _variance_map_residual(tr.a, tr.s2, lam)
        res_std[i] = _variance_map_residual(tr.a, 2.0 * tau * tr.a * tr.a, lam)
    a1 = np.full(spec.J, 0.5)  # a at tau*lam = 1
    std_unit = _variance_map_residual(a1, (2.0 / lam) * a1 * a1, lam)
    return InvariantCheckReport(
        tau_list=tuple(taus),
        residual_modified=res_mod,
        residual_standard=res_std,
        standard_at_unit=std_unit,
    )


@dataclass(frozen=True)
class UniformSweepResult:
    eps_list: tuple
    dt_list: tuple
    errors: np.ndarray         # (n_dt, n_eps) measured |scheme - reference|
    reference_bias: np.ndarray  # (n_dt, n_eps) |reference - continuous truth|
    max_errors: np.ndarray      # per dt, max over eps
    fit: RateFit
    refinement: int


def uniform_sweep(
    config: RunConfig,
    eps_list: Sequence[float],
    dt_list: Sequence[float],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    refinement: int = 512,
) -> UniformSweepResult:
    """Weak error of the coupled modified scheme over an (eps, dt) grid.

    One REFINED_REFERENCE weak-error curve per eps, evaluated through the
    moment recursions (n_samples = 0: noise-free, linear-in-y coupling
    required), so each error is measured against the exact-transition scheme
    on a grid refined by `refinement` and the reference bias against the
    continuous law is exact.  The fit is over the max-over-eps error per dt.
    """
    _require_linear_in_y(nl, "the uniform sweep")
    epss = [float(e) for e in eps_list]
    dts = list(dt_list)
    curves = [weak_error_curve(replace(config, eps=eps), dts, phi, spec, nl,
                               oracle=OracleMode.REFINED_REFERENCE, n_samples=0,
                               refinement=refinement) for eps in epss]
    errors = np.array([[p.error for p in curve] for curve in curves]).T
    bias = np.array([[p.oracle_bias for p in curve] for curve in curves]).T
    max_errors = errors.max(axis=1)
    fit = fit_rate(list(zip(dts, max_errors)))
    return UniformSweepResult(
        eps_list=tuple(epss),
        dt_list=tuple(float(d) for d in dts),
        errors=errors,
        reference_bias=bias,
        max_errors=max_errors,
        fit=fit,
        refinement=refinement,
    )
