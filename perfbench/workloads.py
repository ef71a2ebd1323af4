"""The benchmark's workloads: a fixed amount of checked work per round.

A round runs a workload's work once with one thread and once with ``nproc``
threads.  Every call into the package is timed on its own (``Clock``), so the
benchmark's checks stay outside the measured time, and is followed by a
correctness check whose outcome goes to the ``Tally``.

Package functions are looked up on their modules at call time
(``harness.mc_estimate``, not a name bound at import) so that the tracer's
patches apply when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
from scipy.special import erfcx

import slowfast
from slowfast import cli, harness, integrators

HERE = Path(__file__).resolve().parent
EXPECTED_ORACLE = HERE / "oracle_expected.json"

MC_SIGMAS = 4.0
# |value - recorded| <= REL * |recorded| + ABS: relative agreement, with an
# absolute floor for entries that are rounding residue (the invariant-test
# residuals of the modified map are ~1e-16 and carry no digits to compare).
ORACLE_REL = 1e-9
ORACLE_ABS = 1e-14
# Max-norm distance of the averaged scheme's X_N from the benchmark's closed
# form.  Measured: 1.2e-6 at 2^11 steps (1.5e-6 at 2^10, 0.96e-6 at 2^14),
# mostly from the package's 12-point Gauss-Hermite average of f.
AVERAGED_TOL = 1e-5


@dataclass(frozen=True)
class Sizes:
    """How much work one round does; ``None`` keeps the package default."""

    # two spans of mc_estimate's default batch of 20000: with one span it
    # runs serially whatever the thread count
    mc_samples: int = 40_000
    mc_batch: Optional[int] = None
    limiting_steps: tuple = (16, 32)
    coupled_steps: int = 8
    averaged_steps: int = 2**11


# For the benchmark's self-test: every code path, a fraction of a second each.
TINY = Sizes(mc_samples=96, mc_batch=32, limiting_steps=(2, 4), coupled_steps=2,
             averaged_steps=2**10)


class Tally:
    """Tasks attempted and failed; a task is one package call and its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, task: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{task}: {detail}")
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Clock:
    """Times package calls; a call that raises is a failed task."""

    def __init__(self, tally: Tally, tracer=None):
        self.tally = tally
        self.tracer = tracer
        self.busy = 0.0

    def call(self, task: str, fn, *args, **kwargs):
        """Returns (True, result), or (False, None) after recording the failure."""
        traced = self.tracer.begin_task(task) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.busy += perf_counter() - t0
            if traced:
                self.tracer.end_task(traced)
            self.tally.check(task, False, "".join(traceback.format_exception_only(exc)).strip())
            return False, None
        self.busy += perf_counter() - t0
        if traced:
            self.tracer.end_task(traced)
        return True, result


# Interpreter-bound work (Python calls on 16-element arrays) runs up to 2x
# slower or faster on a shared machine from one minute to the next; the
# interquartile spread of its wall time over ten runs was 20-35%.  Workloads
# marked `calibrated` therefore time a fixed kernel of the same kind around
# each phase and report times scaled to the speed at which that kernel takes
# CALIBRATION_REF_S; scaled, the spread was about 4%.  The MC workloads are
# memory-bound: the kernel does not track their swings, so they report raw time.
CALIBRATION_REF_S = 0.1


def calibration_kernel() -> float:
    """Seconds for a fixed loop of Python arithmetic and small numpy calls; no package code."""
    x = np.arange(16.0)
    s = 0
    t0 = perf_counter()
    for i in range(24_000):
        x = (x + 0.001 * np.sin(x)) / 1.001
        s += i % 7
    return perf_counter() - t0


class Workload:
    name = ""
    calibrated = False

    def warm_up(self, clock: Clock):
        """One untimed call that loads what the first timed call would."""
        raise NotImplementedError

    def run(self, clock: Clock, threads: int) -> int:
        """The workload's fixed work at a thread count; returns sample·steps done."""
        raise NotImplementedError


class _McWorkload(Workload):
    """mc_estimate on fixed configs; the same estimate at every thread count."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.n = sizes.mc_samples
        self.kwargs = {} if sizes.mc_batch is None else {"batch": sizes.mc_batch}
        self.first = {}

    def warm_up(self, clock):
        cfg, _ = self.cases[0]
        small = integrators.RunConfig(T=cfg.T, N=1, eps=cfg.eps, scheme=cfg.scheme,
                                      x0=cfg.x0, y0=cfg.y0)
        clock.call("warm_up", harness.mc_estimate, small, self.phi, 64, self.seed,
                   self.spec, self.nl, self.gt, n_threads=1)

    def run(self, clock, threads):
        done = 0
        for cfg, exact in self.cases:
            task = f"mc_estimate.{cfg.scheme.value}.N{cfg.N}.t{threads}"
            ok, est = clock.call(task, harness.mc_estimate, cfg, self.phi, self.n, self.seed,
                                 self.spec, self.nl, self.gt, n_threads=threads, **self.kwargs)
            done += self.n * cfg.N
            if ok:
                self.check(clock.tally, task, (cfg.scheme, cfg.N), est, exact)
        return done

    def check(self, tally, task, key, est, exact):
        """|MC - exact| <= 4 stderr, and bit-identical to the first estimate of the config."""
        first = self.first.setdefault(key, est)
        same = (est.mean, est.stderr) == (first.mean, first.stderr)
        near = abs(est.mean - exact) <= MC_SIGMAS * est.stderr
        return tally.check(task, same and near,
                           f"mean {est.mean!r} exact {exact!r} stderr {est.stderr!r} "
                           f"identical to first estimate: {same}")


class McLimitingSquare(_McWorkload):
    """test_03's problem: LIMITING scheme, pointwise square, collocation on 64 nodes."""

    name = "mc_limiting_square"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        J = 16
        self.spec = slowfast.quadratic_spectrum(J)
        self.gt = slowfast.GridTransform(J)
        self.nl = slowfast.PointwiseSquare(c=1.0)
        x0 = np.zeros(J)
        x0[0] = 10.0
        h = np.zeros(J)
        h[0] = 1.0
        self.phi = slowfast.FunctionalSpec(kind=slowfast.FunctionalKind.LINEAR, h=h)
        self.cases = []
        for N in sizes.limiting_steps:
            cfg = slowfast.RunConfig(T=1.0, N=N, eps=1.0, scheme=slowfast.SchemeKind.LIMITING,
                                     x0=x0, y0=np.zeros(J))
            self.cases.append((cfg, float(h @ limiting_mean(self.spec, self.gt.M, 1.0, x0, 1.0, N))))


def limiting_mean(spec, M: int, c: float, x0: np.ndarray, T: float, N: int) -> np.ndarray:
    """E X_N of the LIMITING scheme with f(u, v) = c v^2 on M sine-collocation nodes.

    The step x' = (x + dt F(x, y))/(1 + dt lam) is affine in F and y is a fresh
    N(0, Lambda^-1) draw, so E X_N follows the same recursion with F replaced
    by E F = P_J(c sigma^2), sigma^2(xi) = sum_j 2 sin(j pi xi)^2 / lam_j: the
    AVERAGED scheme at the same step, computed here without the package.
    """
    lam = spec.lambdas
    nodes = np.arange(1, M + 1) / (M + 1)
    basis = math.sqrt(2.0) * np.sin(np.pi * np.outer(nodes, np.arange(1, spec.J + 1)))
    sigma2 = (basis * basis / lam).sum(axis=1)
    g = (c * sigma2) @ basis / (M + 1)
    dt = T / N
    x = np.asarray(x0, dtype=float)
    for _ in range(N):
        x = (x + dt * g) / (1.0 + dt * lam)
    return x


class McCoupledLinear(_McWorkload):
    """COUPLED_MODIFIED and COUPLED_EXPO, linear-in-y coupling, J=64, small eps."""

    name = "mc_coupled_linear"

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        J = 64
        self.spec = slowfast.dirichlet_spectrum(J)
        self.gt = None
        self.nl = slowfast.LinearInY(c=1.0)
        self.phi = slowfast.FunctionalSpec(kind=slowfast.FunctionalKind.BOUNDED_EXP)
        j = np.arange(1, J + 1, dtype=float)
        x0, y0 = 1.0 / j, np.ones(J)
        self.cases = []
        for scheme in (slowfast.SchemeKind.COUPLED_MODIFIED, slowfast.SchemeKind.COUPLED_EXPO):
            cfg = slowfast.RunConfig(T=0.25, N=sizes.coupled_steps, eps=2.0**-8, scheme=scheme,
                                     x0=x0, y0=y0)
            self.cases.append((cfg, harness.oracle_weak_value(cfg, self.phi, self.spec, self.nl)))


# Default-config CLI runs.  simulate samples noise, so only its repeatability
# is checked; the others are noise-free and compared with recorded values.
CLI_SUBCOMMANDS = ("simulate", "invariant-test", "weak-error", "ap-test", "uniform-sweep")

# Scheme steps the default configs stand for (one state per deterministic
# call): simulate N=64; weak-error sum_{k=4..9} 2^k; ap-test 8 configs x 64;
# uniform-sweep 7 eps x sum_{k=4..10} 2^k x (1 + refinement 512);
# averaging_curve 9 eps x 2^12.
ORACLE_SAMPLE_STEPS = 64 + 1008 + 8 * 64 + 7 * 2032 * 513 + 9 * 4096


class OracleLadders(Workload):
    """The five CLI subcommands at default configs, and test_07's averaging curve."""

    name = "oracle_ladders"
    calibrated = True

    def __init__(self, seed, sizes, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected = json.loads(EXPECTED_ORACLE.read_text())
        self.first_bytes = {}
        self.curve_args = averaging_curve_args()

    def warm_up(self, clock):
        run_subcommand(clock, "weak-error", self.workdir / "warm_up", 1, self.seed)

    def run(self, clock, threads):
        for sub in CLI_SUBCOMMANDS:
            out = self.workdir / f"{sub}.t{threads}"
            ok, files = run_subcommand(clock, f"cli.{sub}", out, threads, self.seed)
            if ok:
                self.check_files(clock.tally, sub, threads, files)
        ok, rows = clock.call("averaging_curve", harness.averaging_curve, *self.curve_args)
        if ok:
            bad = compare(rows, self.expected["averaging_curve"])
            clock.tally.check("averaging_curve", not bad, "; ".join(bad))
        return ORACLE_SAMPLE_STEPS

    def check_files(self, tally, sub, threads, files):
        """Same bytes every round; same CSVs at any thread count; recorded values."""
        bad = []
        for name, data in files.items():
            first = self.first_bytes.setdefault((sub, threads, name), data)
            if data != first:
                bad.append(f"{name} differs from the first round")
            if name.endswith(".csv"):
                other = self.first_bytes.setdefault((sub, name), data)
                if data != other:
                    bad.append(f"{name} differs between thread counts")
        if sub != "simulate":
            bad += compare(parse_outputs(files), self.expected[sub])
        return tally.check(f"cli.{sub}", not bad, "; ".join(bad))


def averaging_curve_args():
    """test_07's averaging curve: eps ladder 2^-2..2^-10 at N = 2^12."""
    return (
        [2.0**-k for k in range(2, 11)],
        slowfast.RunConfig(T=0.5, N=2**12, eps=1.0, scheme=slowfast.SchemeKind.COUPLED_EXPO,
                           x0=np.zeros(16), y0=np.ones(16)),
        slowfast.FunctionalSpec(kind=slowfast.FunctionalKind.NORM_SQUARED),
        slowfast.dirichlet_spectrum(16),
        slowfast.LinearInY(c=1.0),
    )


def run_subcommand(clock, task, out: Path, threads: int, seed: int):
    """run_cli in-process with its stdout swallowed; returns (ok, {file: bytes})."""
    argv = [task.split(".")[-1], "--output-dir", str(out), "--threads", str(threads)]
    if argv[0] == "simulate":
        argv += ["--master-seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        ok, rc = clock.call(task, cli.run_cli, argv)
    if not ok:
        return False, None
    if rc != 0:
        clock.tally.check(task, False, f"exit code {rc}")
        return False, None
    return True, {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def parse_outputs(files: dict) -> dict:
    """CSV rows as floats; summary.json without its config echo."""
    parsed = {}
    for name, data in files.items():
        text = data.decode()
        if name.endswith(".csv"):
            parsed[name] = [[float(cell) for cell in line.split(",")]
                            for line in text.splitlines()[1:]]
        else:
            summary = json.loads(text)
            summary.pop("config")
            parsed[name] = summary
    return parsed


def compare(value, expected, where="") -> list:
    """Mismatches between a parsed output and its recorded value."""
    if isinstance(expected, dict):
        if not isinstance(value, dict) or set(value) != set(expected):
            return [f"{where}: keys differ"]
        return [e for k in expected for e in compare(value[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, (list, tuple)):
        if not isinstance(value, (list, tuple)) or len(value) != len(expected):
            return [f"{where}: length differs"]
        return [e for i, (v, x) in enumerate(zip(value, expected))
                for e in compare(v, x, f"{where}[{i}]")]
    if isinstance(expected, bool) or isinstance(value, bool):
        return [] if value is expected else [f"{where}: {value!r} != {expected!r}"]
    if abs(float(value) - expected) <= ORACLE_REL * abs(expected) + ORACLE_ABS:
        return []
    return [f"{where}: {value!r} != recorded {expected!r}"]


class AveragedGeneral(Workload):
    """The AVERAGED scheme for the saturating square at batch 1: per-call overhead and eval_Fbar.

    Each step recomputes pointwise_variance and the Gauss-Hermite nodes
    inside eval_Fbar.  solve_averaged_reference's fallback is this same step
    loop, but as one 2^14-step call of 7-9 s it is too long for the
    calibration kernel to track, so the loop is driven through
    run_trajectory_batch in calls of `averaged_steps` steps.
    """

    name = "averaged_general"
    calibrated = True

    def __init__(self, seed, sizes):
        J = 16
        self.spec = slowfast.dirichlet_spectrum(J)
        self.gt = slowfast.GridTransform(J)
        self.nl = slowfast.saturating_square(1.0)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0, J) / np.arange(1, J + 1)
        self.config = slowfast.RunConfig(T=1.0, N=sizes.averaged_steps, eps=1.0,
                                         scheme=slowfast.SchemeKind.AVERAGED, x0=x0, y0=np.zeros(J))
        self.reference = saturating_square_solution(self.spec, self.gt.M, 1.0, x0, self.config.T)
        self.first = None

    def warm_up(self, clock):
        cfg = self.config
        short = slowfast.RunConfig(T=cfg.T, N=8, eps=cfg.eps, scheme=cfg.scheme, x0=cfg.x0,
                                   y0=cfg.y0)
        clock.call("warm_up", integrators.run_trajectory_batch, short, self.spec, self.nl,
                   self.gt, 0, 0, 1)

    def run(self, clock, threads):
        # a deterministic batch-1 trajectory has no thread setting: both
        # thread counts run the same single-threaded call
        task = f"run_trajectory_batch.AVERAGED.t{threads}"
        ok, x = clock.call(task, integrators.run_trajectory_batch, self.config, self.spec,
                           self.nl, self.gt, 0, 0, 1)
        if ok:
            self.check(clock.tally, task, x[0])
        return self.config.N

    def check(self, tally, task, x):
        """Within AVERAGED_TOL of the closed form, and the same array every call."""
        if self.first is None:
            self.first = x
        err = float(np.max(np.abs(x - self.reference)))
        same = bool(np.array_equal(x, self.first))
        return tally.check(task, err <= AVERAGED_TOL and same,
                           f"max error {err!r} > {AVERAGED_TOL} or not identical to first call")


def saturating_square_solution(spec, M: int, c: float, x0: np.ndarray, T: float) -> np.ndarray:
    """Exact solution of the averaged equation for f(u, v) = c v^2 / (1 + v^2).

    f does not depend on u, so Fbar is the constant field P_J E f(V) with
    V ~ N(0, sigma^2(xi)) and E[1/(1 + V^2)] = sqrt(pi/2)/s erfcx(1/(s sqrt 2)),
    and x(T) = e^(-lam T) x0 + (1 - e^(-lam T)) Fbar / lam mode by mode.
    """
    lam = spec.lambdas
    nodes = np.arange(1, M + 1) / (M + 1)
    basis = math.sqrt(2.0) * np.sin(np.pi * np.outer(nodes, np.arange(1, spec.J + 1)))
    s = np.sqrt((basis * basis / lam).sum(axis=1))
    mean_f = c * (1.0 - math.sqrt(math.pi / 2.0) / s * erfcx(1.0 / (s * math.sqrt(2.0))))
    fbar = mean_f @ basis / (M + 1)
    decay = np.exp(-lam * T)
    return decay * x0 + (1.0 - decay) * fbar / lam


WORKLOADS = ("mc_limiting_square", "mc_coupled_linear", "oracle_ladders", "averaged_general")


def build(name: str, seed: int, sizes: Optional[Sizes], workdir: Path) -> Workload:
    sizes = sizes or Sizes()
    if name == "mc_limiting_square":
        return McLimitingSquare(seed, sizes)
    if name == "mc_coupled_linear":
        return McCoupledLinear(seed, sizes)
    if name == "oracle_ladders":
        return OracleLadders(seed, sizes, workdir)
    if name == "averaged_general":
        return AveragedGeneral(seed, sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
