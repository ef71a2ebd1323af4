"""Experiment driver: Monte Carlo estimation, weak-error curves, rate fits,
asymptotic-preserving and invariant-measure diagnostics.

One switch, n_samples, picks how a scheme's expectation is measured:

* n_samples = 0     exact, from the `EXACT_TRUTHS` row of the coupling and
  scheme, so curves are noise-free and bit-reproducible.
* n_samples >= 2    Monte Carlo for any catalog nonlinearity; noise-free AVERAGED stays exact.

A weak-error curve has one truth for its whole ladder, computed before the
ladder: phi of the averaged solution at T for the schemes without a fast
state (LIMITING, AVERAGED), else the continuous law of the scheme's row.
Only Monte Carlo where the row has no such law samples one: the
exact-transition scheme at the finest step refined `REFERENCE_REFINEMENT`
times, with that reference's bias estimated by refinement halving.  The
uniform sweep measures the coupled modified scheme in every cell against the
exact-transition scheme refined `SWEEP_REFINEMENT` times, and the averaging
curve stands in for the continuous law with the exact-transition scheme at
`AVERAGING_STEPS` steps.  These resolutions belong to the measurement, not to
the experiment, so they are constants here rather than config fields, and no
sweep reads a config field that it sets itself.
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
from .moments import ModeMoments, continuous_second_moment, second_moment_recursions
from .nonlinearity import GridTransform, LinearInY, Nonlinearity
from .spectral import ArgumentError, SpectrumSpec, check_field, check_positive

__all__ = [
    "FunctionalKind",
    "FunctionalSpec",
    "McEstimate",
    "RateFit",
    "WeakErrorPoint",
    "evaluate_functional",
    "gaussian_expectation",
    "mc_estimate",
    "oracle_weak_value",
    "oracle_weak_values",
    "continuous_weak_value",
    "weak_error_curve",
    "fit_rate",
    "ap_diagram",
    "averaging_curve",
    "invariant_measure_check",
    "uniform_sweep",
]

# samples per Monte Carlo span, the unit of work of the worker threads: many
# spans spread evenly over the threads, and a span of more than one collocation
# block (at most 512 rows) keeps every sample's value the same for any span size.
# At J = 64 a (2048, 64) array is 1 MB and leaves the cache; spans of 2^15/J rows
# ran faster on one thread but scaled worse on two, and at J > 16 a partial last
# span shorter than one collocation block could round differently
MC_SPAN = 2048

# the uniform sweep's reference: the exact-transition scheme on each cell's
# grid refined this many times; the moment oracle's cost grows with log2 of it
SWEEP_REFINEMENT = 512

# a sampled weak-error reference: the exact-transition scheme at the finest dt
# refined this many times (and half as many for its bias); every sample pays
# for its steps, so it is refined less than the sweep's noise-free reference
REFERENCE_REFINEMENT = 64

# the averaging curve's stand-in for the continuous law: the exact-transition
# scheme over [0, T] in this many steps, one matrix power for the whole eps ladder
AVERAGING_STEPS = 2**12

# the fewest step sizes a rate fit takes; the CLI checks its dt ladders against it
FIT_MIN_POINTS = 3


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
        if not isinstance(self.kind, FunctionalKind):  # a "LINEAR" string would read as BOUNDED_EXP
            raise ArgumentError("kind", f"argument 'kind' = {self.kind!r} is not a FunctionalKind")
        if self.kind == FunctionalKind.LINEAR:
            if self.h is None:
                raise ValueError("LINEAR functional needs a weight field h")
            h = np.asarray(self.h, dtype=float)
            if h.ndim != 1:
                raise ValueError(f"LINEAR functional needs a 1-D weight field h, got shape {h.shape}")
            object.__setattr__(self, "h", h)

    @property
    def oracle_only(self) -> bool:
        return self.kind == FunctionalKind.NORM_SQUARED


def evaluate_functional(phi: FunctionalSpec, x: np.ndarray) -> np.ndarray:
    """Apply phi to states of shape (..., J); returns shape (...)."""
    x = np.asarray(x, dtype=float)
    if phi.kind == FunctionalKind.LINEAR:
        _check_weights(phi, x.shape[-1])
        # not x @ h: a matrix-vector product rounds a row differently
        # depending on how many rows it is computed with
        return np.sum(x * phi.h, axis=-1)
    s = np.sum(x * x, axis=-1)
    if phi.kind == FunctionalKind.NORM_SQUARED:
        return s
    return np.exp(-s)


def _check_weights(phi: FunctionalSpec, J: int):
    """A LINEAR phi's h must have one weight per mode: numpy would broadcast any other length."""
    if len(phi.h) != J:
        raise ValueError(f"LINEAR functional's weight field h has {len(phi.h)} entries, "
                         f"the state has {J} modes")


def gaussian_expectation(phi: FunctionalSpec, mean: np.ndarray, var: np.ndarray) -> float:
    """E[phi(X)] for X with independent Gaussian modes N(mean_j, var_j).

    LINEAR and NORM_SQUARED are the usual moment identities; BOUNDED_EXP uses
    E exp(-Z^2) = exp(-m^2/(1+2v)) / sqrt(1+2v) per mode.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if phi.kind == FunctionalKind.LINEAR:
        _check_weights(phi, mean.shape[-1])
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
    batch: int = MC_SPAN,
) -> McEstimate:
    """Sample mean and standard error of phi over independent trajectories.

    The samples are run in spans of `batch` samples (default `MC_SPAN`), on
    n_threads worker threads.  Sample i always uses the stream addressed by
    (master_seed, i, step), so the result is identical for any n_threads and
    any batch size; for the pointwise couplings, any batch size above one
    collocation block (`GridTransform.rows_per_block`).  Per-sample values
    are aggregated in sample order.

    A non-finite phi value raises ValueError naming the first such sample's
    address (master_seed, sample) and the first step at which its trajectory,
    replayed within its own span, is not finite.
    """
    vals = _phi_samples(config, phi, n_samples, master_seed, spec, nl, gt, n_threads, batch)
    return McEstimate(mean=float(np.mean(vals)), stderr=_stderr(vals), n_samples=n_samples)


def _phi_samples(config, phi, n_samples, master_seed, spec, nl, gt, n_threads, batch=MC_SPAN):
    """phi of every sample's final state, in sample order; see `mc_estimate`."""
    if n_samples < 2 or batch < 1:
        raise ValueError(f"need n_samples >= 2 and batch >= 1, got {n_samples} and {batch}")
    vals = np.empty(n_samples)
    spans = [(a, min(a + batch, n_samples)) for a in range(0, n_samples, batch)]

    def work(span):
        a, b = span
        x = run_trajectory_batch(config, spec, nl, gt, master_seed, a, b - a)
        vals[a:b] = evaluate_functional(phi, x)

    # no pool here: perfbench's trace.coverage counts only tasks that start no thread
    if n_threads <= 1 or len(spans) == 1:
        for span in spans:
            work(span)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, spans))
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        sample = int(bad[0])
        step = _first_nonfinite_step(_replay(config, spec, nl, gt, master_seed, sample,
                                             n_samples, batch))
        where = (f"its trajectory is first non-finite at step {step} of {config.N}"
                 if step is not None else "its trajectory is finite, phi of its final state is not")
        raise ValueError(f"{bad.size} of {n_samples} samples gave a non-finite phi; the first is "
                         f"(master_seed, sample) = ({master_seed}, {sample}): {where}")
    return vals


def _replay(config, spec, nl, gt, master_seed, sample, n_samples, batch):
    """(x, y) of one sample at steps 0..N, computed exactly as `_phi_samples` computed it.

    The pointwise couplings round a row differently depending on how many
    rows its collocation product has, so the sample's whole span is rerun and
    its row read off.
    """
    first = sample // batch * batch
    row = sample - first
    for x, y in trajectory(config, spec, nl, gt, master_seed, first,
                           min(batch, n_samples - first)):
        yield x[row], (None if y is None else y[row])


def _first_nonfinite_step(states) -> Optional[int]:
    """First step at which a replayed (x, y) is not finite; None if none is."""
    with np.errstate(all="ignore"):
        for n, (x, y) in enumerate(states):
            if not np.isfinite(x).all() or (y is not None and not np.isfinite(y).all()):
                return n
    return None


def _moment_values(configs, phi, spec, nl, gt) -> list:
    """E phi(x_N) of configs that share N: one stacked `second_moment_recursions` power."""
    start = ModeMoments(mean_x=np.array([check_field(spec, cfg.x0) for cfg in configs]),
                        mean_y=np.array([check_field(spec, cfg.y0) for cfg in configs]))
    steps = [Transition(cfg.scheme, spec.lambdas, cfg.dt, cfg.eps) for cfg in configs]
    mom = second_moment_recursions(steps, nl.c, configs[0].N, start)
    return [gaussian_expectation(phi, mean, var) for mean, var in zip(mom.mean_x, mom.var_x)]


def _averaged_values(configs, phi, spec, nl, gt) -> list:
    """phi of one run's x_N per config: the AVERAGED scheme draws no noise."""
    return [float(evaluate_functional(phi, run_trajectory_batch(cfg, spec, nl, gt, 0, 0, 1))[0])
            for cfg in configs]


def _continuous_law(config, phi, spec, nl) -> float:
    start = ModeMoments(mean_x=check_field(spec, config.x0), mean_y=check_field(spec, config.y0))
    mom = continuous_second_moment(spec.lambdas, nl.c, config.eps, config.T, start)
    return gaussian_expectation(phi, mom.mean_x, mom.var_x)


# Exact truths, first matching row wins: (coupling type, schemes, E phi(x_N) of
# configs that share N, E phi(X(T)) of the continuous law or None)
EXACT_TRUTHS = (
    (LinearInY, tuple(SchemeKind), _moment_values, _continuous_law),
    (Nonlinearity, (SchemeKind.AVERAGED,), _averaged_values, None),
)


def exact_truth(nl: Nonlinearity, scheme: SchemeKind) -> tuple:
    """(values, law) of the first `EXACT_TRUTHS` row covering nl and scheme, else (None, None)."""
    return next(((values, law) for coupling, schemes, values, law in EXACT_TRUTHS
                 if isinstance(nl, coupling) and scheme in schemes), (None, None))


def oracle_weak_value(
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
) -> float:
    """Exact E[phi(X_N)] of the scheme: the one-config case of `oracle_weak_values`."""
    return oracle_weak_values([config], phi, spec, nl, gt)[0]


def oracle_weak_values(
    configs: Sequence[RunConfig],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
) -> list:
    """`oracle_weak_value` of each config, from its `EXACT_TRUTHS` row.

    The configs are grouped by row and N, and each group is one call of its
    row: one stacked matrix power under the linear-in-y coupling, whatever the
    schemes, and one run per config for AVERAGED (on the grid gt).  Each value
    is bit-identical to the config's own `oracle_weak_value`.
    """
    groups = {}
    for i, cfg in enumerate(configs):
        row_values = exact_truth(nl, cfg.scheme)[0]
        if row_values is None:
            raise ArgumentError("nl", f"the moment oracle needs the linear-in-y coupling under "
                                      f"{cfg.scheme.value}, got {type(nl).__name__}")
        groups.setdefault((row_values, cfg.N), []).append(i)
    values = {}
    for (row_values, _), members in groups.items():
        values.update(zip(members, row_values([configs[i] for i in members], phi, spec, nl, gt)))
    return [values[i] for i in range(len(configs))]


def _phi_values(configs, phi, spec, nl, gt, n_samples, master_seed, n_threads):
    """An iterator over the configs' phi values: the exact E[phi(X_N)] as one value each
    when n_samples == 0 or no config draws noise (all AVERAGED), all from one
    `oracle_weak_values` call; else every sample's phi, each config sampled when drawn."""
    if n_samples < 0 or n_samples == 1:
        raise ArgumentError("n_samples", f"argument 'n_samples' = {n_samples!r} must be 0 "
                                         "(exact) or at least 2 (Monte Carlo)")
    if n_samples == 0 or all(cfg.scheme == SchemeKind.AVERAGED for cfg in configs):
        return (np.array([v]) for v in oracle_weak_values(configs, phi, spec, nl, gt))
    return (_phi_samples(cfg, phi, n_samples, master_seed, spec, nl, gt, n_threads)
            for cfg in configs)


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of per-sample values; 0 for one oracle value."""
    if values.size == 1:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _gap(values: np.ndarray, truth) -> tuple:
    """(|mean(values) - mean(truth)|, stderr): the plain stderr against an exact (float)
    truth, and that of the per-sample differences against sampled truth values, which
    share their draws with values sample by sample, whatever the two legs' schemes."""
    diff = values if np.ndim(truth) == 0 else values - truth
    return abs(float(np.mean(values)) - float(np.mean(truth))), _stderr(diff)


def continuous_weak_value(
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
) -> float:
    """Exact E[phi(X(T))] of the continuous dynamics: the law of config's `EXACT_TRUTHS` row."""
    law = exact_truth(nl, config.scheme)[1]
    if law is None:
        raise ArgumentError("nl", f"no continuous law covers the {type(nl).__name__} coupling")
    return law(config, phi, spec, nl)


def weak_error_curve(
    config: RunConfig,
    dt_list: Sequence[float],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
    gt: Optional[GridTransform] = None,
    n_samples: int = 0,
    master_seed: int = 0,
    n_threads: int = 1,
):
    """|E phi(scheme at dt) - truth| for each dt on a decreasing ladder.

    dt_list must be strictly decreasing with T/dt an integer.  The scheme's
    side is exact when n_samples = 0 or the scheme is AVERAGED (`oracle_weak_values`,
    its ladder first, so a case no row covers fails before any truth is) and a
    Monte Carlo estimate otherwise (each point sampled after the truth).  One
    truth serves every point (`_gap`).  Where an exact one exists, the stderr is
    the plain one (0 for an exact side) and oracle_bias is 0: for LIMITING and
    AVERAGED, which have no fast state and approximate the averaged equation,
    phi of its solution at T, and else the continuous law at config.eps of its row.

    Monte Carlo where no row has that law (a pointwise coupling in a coupled
    scheme) samples its truth, from the same seed: the exact-transition scheme
    at the finest dt refined `REFERENCE_REFINEMENT` (R) times, and each stderr
    is that of the per-sample differences.  Every oracle_bias is the one
    refinement-halving estimate of that reference's bias, |ref(R) - ref(R/2)|,
    which for a first-order reference is about bias(R).
    """
    ladder = _ladder(config, dt_list)
    estimates = _phi_values([cfg for _, cfg in ladder], phi, spec, nl, gt, n_samples,
                            master_seed, n_threads)
    bias = 0.0
    if not config.scheme.coupled:
        xbar = solve_averaged_reference(spec, nl, config.x0, config.T, gt)
        truth = float(evaluate_functional(phi, xbar))
    elif (law := exact_truth(nl, config.scheme)[1]) is not None:
        truth = law(config, phi, spec, nl)
    else:
        ref_cfg = _reference_config(ladder[-1][1], REFERENCE_REFINEMENT)
        truth, half = _phi_values([ref_cfg, replace(ref_cfg, N=ref_cfg.N // 2)], phi, spec, nl,
                                  gt, n_samples, master_seed, n_threads)
        bias = abs(float(np.mean(half)) - float(np.mean(truth)))
    return [WeakErrorPoint(dt, *_gap(est, truth), oracle_bias=bias)
            for (dt, _), est in zip(ladder, estimates)]


def _ladder(config: RunConfig, dt_list: Sequence[float]) -> list:
    """(dt, config at dt) for each dt of a strictly decreasing ladder."""
    dts = list(dt_list)
    if any(d2 >= d1 for d1, d2 in zip(dts, dts[1:])):
        raise ArgumentError("dt_list", "dt_list must be strictly decreasing")
    return [(dt, _config_at_dt(config, dt)) for dt in dts]


def _config_at_dt(config: RunConfig, dt: float) -> RunConfig:
    """config with N = T/dt; dt must be positive, finite and divide T into whole steps."""
    n_float = config.T / check_positive("dt", dt)
    N = int(round(n_float))
    if N < 1 or abs(n_float - N) > 1e-9 * max(1.0, n_float):
        raise ArgumentError("dt", f"argument 'dt' = {dt!r} does not divide T = {config.T!r} "
                                  "into whole steps")
    return replace(config, N=N)


def _reference_config(config: RunConfig, refinement: int) -> RunConfig:
    """The exact-transition scheme on config's grid refined `refinement` times."""
    return replace(config, scheme=SchemeKind.COUPLED_EXPO, N=config.N * refinement)


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(error) against log(dt).

    points: iterable of at least `FIT_MIN_POINTS` (dt, error) pairs or
    WeakErrorPoint, whose dt are positive, finite and not all equal.  Zero or
    negative errors are rejected: a log fit cannot represent them, and unless
    each is an exact point's (stderr 0) they signal the noise floor.  So is a
    Monte Carlo point whose error is below twice its stderr.
    """
    points = list(points)
    pts = [(p.dt, p.error) if isinstance(p, WeakErrorPoint) else (float(p[0]), float(p[1]))
           for p in points]
    dts = check_positive("dt", [p[0] for p in pts])
    if len(pts) < FIT_MIN_POINTS or min(dts) == max(dts):
        raise ValueError(f"need at least {FIT_MIN_POINTS} points at more than one dt to fit "
                         f"a rate, got dt = {dts}")
    errs = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(errs)):
        raise ValueError(f"errors must be finite for a log-log fit, got {errs.tolist()}")
    noisy = [p.dt for p in points if isinstance(p, WeakErrorPoint) and p.error < 2.0 * p.stderr]
    if noisy:
        raise ValueError(f"errors below 2 stderr (the Monte Carlo noise floor) at dt = {noisy}; "
                         "take more samples or drop those step sizes")
    bad = [p for p, err in zip(points, errs) if err <= 0.0]
    if bad and all(isinstance(p, WeakErrorPoint) and p.stderr == 0.0 for p in bad):
        raise ValueError(f"the exact error is 0 at dt = {[p.dt for p in bad]}; a log fit needs > 0")
    if bad:
        raise ValueError("errors must be positive for a log-log fit (below noise floor?)")
    x = np.log(dts)
    y = np.log(errs)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([slope, intercept])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


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

    n_samples = 0 requests the noise-free exact path (both schemes need an
    `EXACT_TRUTHS` row; stderr 0); otherwise both legs are Monte Carlo
    estimates sharing their draw step by step, and the stderr is that of the
    per-sample differences, which tend to 0 with eps.
    Returns a list of (eps, gap, stderr) rows, each the `_gap` of the coupled
    values against the limiting ones.
    """
    configs = [replace(config, scheme=SchemeKind.LIMITING)]
    configs += [replace(config, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED) for eps in eps_list]
    for cfg in configs:  # every leg's step, so that a bad eps fails before any leg is sampled
        Transition(cfg.scheme, spec.lambdas, cfg.dt, cfg.eps)
    values = _phi_values(configs, phi, spec, nl, gt, n_samples, master_seed, n_threads)
    lim = next(values)
    return [(float(eps), *_gap(vals, lim)) for eps, vals in zip(eps_list, values)]


def averaging_curve(
    eps_list: Sequence[float],
    config: RunConfig,
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
):
    """|E phi(X^eps(T)) - phi(averaged solution at T)| over an eps ladder.

    E phi(X^eps(T)) is approximated by the exact-transition scheme in
    `AVERAGING_STEPS` steps, evaluated through the moment recursions (one
    matrix power for the whole ladder), so the curve is noise-free.
    config's scheme, N and eps are not read.  Returns (eps, gap) rows.
    """
    values = oracle_weak_values([replace(config, N=AVERAGING_STEPS, eps=eps,
                                         scheme=SchemeKind.COUPLED_EXPO)
                                 for eps in eps_list], phi, spec, nl)
    xbar = solve_averaged_reference(spec, nl, config.x0, config.T)
    target = float(evaluate_functional(phi, xbar))
    return [(float(eps), abs(value - target)) for eps, value in zip(eps_list, values)]


@dataclass(frozen=True)
class InvariantCheckReport:
    """Fixed-point residuals of the one-step variance maps, per (tau, mode).

    residual_modified[i, j]: relative residual |map(1/lam_j)*lam_j - 1| of the
    modified update at the i-th tau; must vanish to rounding for every tau.
    residual_standard[i, j]: same for the plain semi-implicit update, which
    does not preserve the equilibrium (at tau*lam = 1 the relative residual
    is exactly 1/4).
    standard_at_unit[j]: the standard map's residual at tau = 1/lam_j.
    """

    residual_modified: np.ndarray
    residual_standard: np.ndarray
    standard_at_unit: np.ndarray


def _variance_map_residuals(tau, lam: np.ndarray) -> tuple:
    """|map(1/lam)*lam - 1| of the variance map v -> a^2 v + s2 of the modified `Transition`
    at tau (broadcast against lam), then of the plain semi-implicit update: the same a, and
    one undamped sqrt(2 tau) increment through the same resolvent, s2 = 2 tau a^2."""
    tr = Transition(SchemeKind.COUPLED_MODIFIED, lam, tau, 1.0)
    return tuple(np.abs((tr.a * tr.a * (1.0 / lam) + s2) * lam - 1.0)
                 for s2 in (tr.s2, 2.0 * tau * tr.a * tr.a))


def invariant_measure_check(spec: SpectrumSpec, tau_list: Sequence[float]) -> InvariantCheckReport:
    """Check that the equilibrium variance 1/lam is a fixed point per mode.

    The modified update has noise variance s2 = tau*(2+tau*lam)/(1+tau*lam)^2
    per step and satisfies the fixed point identically; the standard
    semi-implicit update (s2 = 2*tau/(1+tau*lam)^2) does not, which the
    standard_* fields document.  Both are read off one `Transition` for the
    ladder, tau a (K, 1) column, and standard_at_unit off one at tau_j = 1/lam_j.
    The sampler runs the same modified update, so its fast variance n steps
    from y0 = 0 is (1 - a^(2n))/lam.
    """
    lam = spec.lambdas
    taus = check_positive("tau_list", [float(t) for t in tau_list])
    if not math.isfinite(max(taus) * float(np.max(lam))):
        raise ArgumentError("tau_list", f"tau*lam = {max(taus)!r} * {float(np.max(lam))!r} "
                                        "is not finite")
    res_mod, res_std = _variance_map_residuals(np.array(taus)[:, None], lam)
    return InvariantCheckReport(residual_modified=res_mod, residual_standard=res_std,
                                standard_at_unit=_variance_map_residuals(1.0 / lam, lam)[1])


@dataclass(frozen=True)
class UniformSweepResult:
    errors: np.ndarray         # (n_dt, n_eps) measured |scheme - reference|
    reference_bias: np.ndarray  # (n_dt, n_eps) |reference - continuous truth|
    max_errors: np.ndarray      # per dt, max over eps
    fit: RateFit


def uniform_sweep(
    config: RunConfig,
    eps_list: Sequence[float],
    dt_list: Sequence[float],
    phi: FunctionalSpec,
    spec: SpectrumSpec,
    nl: Nonlinearity,
) -> UniformSweepResult:
    """Weak error of the coupled modified scheme over an (eps, dt) grid.

    config's scheme, N and eps are not read.  Every expectation is exact (its
    `EXACT_TRUTHS` row, the coupled schemes' law included): each error
    is measured against the exact-transition scheme on a grid refined
    `SWEEP_REFINEMENT` (512) times, and the reference bias against the
    continuous law is exact.  All cells and references go through one
    `oracle_weak_values` call, so the grid costs one matrix power per step
    count (at most 2 per dt), not one per cell.  Rows follow dt_list and
    columns eps_list; the fit is over the max-over-eps error per dt.
    """
    epss = check_positive("eps_list", [float(e) for e in eps_list])
    dts = list(dt_list)
    cells = [replace(cfg, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED)
             for _, cfg in _ladder(config, dts) for eps in epss]
    truth = np.array([continuous_weak_value(replace(config, eps=eps), phi, spec, nl)
                      for eps in epss])  # first: a bad eps or coupling fails before any cell
    values = oracle_weak_values(
        cells + [_reference_config(cfg, SWEEP_REFINEMENT) for cfg in cells], phi, spec, nl)
    est, ref = np.reshape(values, (2, len(dts), len(epss)))
    errors = np.abs(est - ref)
    max_errors = errors.max(axis=1)
    return UniformSweepResult(errors=errors, reference_bias=np.abs(ref - truth),
                              max_errors=max_errors, fit=fit_rate(list(zip(dts, max_errors))))
