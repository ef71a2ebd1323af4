"""Command-line driver: JSON config in, CSV + JSON summary out.

Subcommands:
    simulate        one trajectory, dumped step by step
    weak-error      weak-error curve over a dt ladder plus log-log rate fit
    ap-test         coupled-vs-limiting gap over an eps ladder at fixed dt
    invariant-test  one-step variance fixed-point residuals per (tau, mode)
    uniform-sweep   max-over-eps weak error on an (eps, dt) grid

All floating-point output is written with 17 significant digits, '.' decimal
separator, fixed column order, so repeated runs with the same config and
seed produce byte-identical files, whatever `--threads` and `--output-dir`
say: the config holds only values that can change a result, and those two
flags are not config keys.  `summary.json` is the config plus the
subcommand's result fields, and the stdout line is the subcommand's name plus
the same fields.  Output files are only written after a run completes, so a
failing run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .harness import (
    FIT_MIN_POINTS,
    SWEEP_REFINEMENT,
    FunctionalKind,
    FunctionalSpec,
    ap_diagram,
    fit_rate,
    invariant_measure_check,
    uniform_sweep,
    weak_error_curve,
)
from .integrators import RunConfig, SchemeKind, trajectory
from .nonlinearity import (
    GridTransform,
    LinearInY,
    PointwiseSquare,
    SaturatingSquare,
)
from .spectral import ArgumentError, SpectrumSpec, dirichlet_spectrum, quadratic_spectrum

__all__ = ["run_cli", "main", "load_config"]


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _numbers(value) -> list:
    if not isinstance(value, list) or not value:
        raise TypeError("expected a non-empty list of numbers")
    return [_real(v) for v in value]


def _real(value) -> float:
    """A JSON number; true and "0.5" are not (`_leaves` turns NaN and Infinity away)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _integer(value) -> int:
    """A JSON integer; an integral float such as 4.0 counts, 2.5, true and "4" do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _at_least(low: int, bits: int = 63):
    """An integer from `low` up to, not including, 2^bits: 2^63 for a count or size,
    2^64 for a noise address's seed and sample index."""
    def cast(value) -> int:
        n = _integer(value)
        if not low <= n < 2**bits:
            raise ValueError(f"expected an integer in [{low}, 2**{bits})")
        return n
    return cast


def _one_of(*names: str):
    def cast(value) -> str:
        if not isinstance(value, str) or value not in names:
            raise ValueError("expected one of " + ", ".join(names))
        return value
    return cast


_RUNS = ("simulate", "weak-error", "ap-test", "uniform-sweep")
_ALL = _RUNS + ("invariant-test",)
_PHI = ("weak-error", "ap-test", "uniform-sweep")


def _field_keys(name: str, preset: str, commands: tuple) -> list:
    """A field of J numbers: the list `name`, or the preset keys under it."""
    return [(name, _numbers, None, commands),
            (name + ".preset", _one_of("zero", "ones", "mode", "decay"), preset, commands),
            (name + ".amplitude", _real, 1.0, commands),
            (name + ".k", _integer, 1, commands),
            (name + ".p", _real, 1.0, commands)]


# Every config key as (dotted key, cast, default, the subcommands that read
# it); defaults are already cast, and a key with a default per subcommand has
# a row per default.  A subcommand casts each of its keys that the config
# gives, used by this run or not (spectrum.lambdas of a dirichlet spectrum); a
# key only other subcommands read is ignored; any other key exits 2.  T, eps,
# the ladders, spectrum.lambdas and collocation_points are cast to JSON types
# only, n_samples to a count: the library judges the rest (see _ARGUMENT_KEYS).
SCHEMA = (
    ("spectrum.kind", _one_of("dirichlet", "quadratic", "explicit"), "dirichlet", _ALL),
    ("spectrum.J", _at_least(1), 16, _ALL),
    ("spectrum.lambdas", _numbers, None, _ALL),
    ("nonlinearity.variant", _one_of("LINEAR_IN_Y", "POINTWISE_SQUARE", "SATURATING_SQUARE"),
     "LINEAR_IN_Y", _RUNS),
    ("nonlinearity.params.c", _real, 1.0, _RUNS),
    ("collocation_points", _integer, None, ("simulate", "weak-error", "ap-test")),
    ("scheme", SchemeKind, SchemeKind.COUPLED_MODIFIED, ("simulate", "weak-error")),
    ("T", _real, 1.0, _RUNS),
    ("N", _at_least(1), 64, ("simulate", "ap-test")),
    ("eps", _real, 1.0, ("simulate", "weak-error")),
    *_field_keys("x0", "zero", _RUNS),
    *_field_keys("y0", "zero", _RUNS),
    ("phi.kind", FunctionalKind, FunctionalKind.NORM_SQUARED, _PHI),
    *_field_keys("phi.h", "mode", _PHI),
    ("dt_list", _numbers, tuple(2.0**-k for k in range(4, 10)), ("weak-error",)),
    ("dt_list", _numbers, tuple(2.0**-k for k in range(4, 11)), ("uniform-sweep",)),
    ("eps_list", _numbers, tuple(4.0**-k for k in range(0, 7)), ("ap-test", "uniform-sweep")),
    ("tau_list", _numbers, (1e-4, 1e-2, 1.0, 1e2, 1e4), ("invariant-test",)),
    ("n_samples", _at_least(0), 0, ("weak-error", "ap-test")),
    ("master_seed", _at_least(0, 64), 0, ("simulate", "weak-error", "ap-test")),
    ("sample_index", _at_least(0, 64), 0, ("simulate",)),
)

# key paths as tuples, so that a literal "spectrum.J" key names no row
_PATHS = {tuple(row[0].split(".")) for row in SCHEMA}
_SECTIONS = {path[:i] for path in _PATHS for i in range(1, len(path))}


def _non_finite(value) -> bool:
    """True if a NaN or an infinity sits anywhere in the JSON value."""
    if isinstance(value, (list, dict)):
        return any(map(_non_finite, value.values() if isinstance(value, dict) else value))
    return isinstance(value, float) and not math.isfinite(value)


def _leaves(section: dict, where: tuple = ()):
    """(dotted key, value) of every leaf; an unknown key or a non-finite number is a ConfigError."""
    for name, value in section.items():
        path = where + (name,)
        dotted = ".".join(path)
        if isinstance(value, dict) and path in _SECTIONS:
            yield from _leaves(value, path)
        elif path in _PATHS:
            if _non_finite(value):
                raise ConfigError(f"config key {dotted!r}: expected finite numbers (got {value!r})")
            yield dotted, value
        elif path in _SECTIONS:
            raise ConfigError(f"config key {dotted!r}: expected a JSON object (got {value!r})")
        else:
            raise ConfigError(f"unknown config key {dotted!r}")


def _config_values(cfg: dict, command: str) -> dict:
    """The value of every key `command` reads, by dotted name: given ones cast, the rest default."""
    given = dict(_leaves(cfg))
    values = {}
    for name, cast, default, commands in SCHEMA:
        if command in commands:
            try:
                values[name] = cast(given[name]) if name in given else default
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key {name!r}: {exc} (got {given[name]!r})") from None
    return values


# The library names the argument of a value it rejects in an `ArgumentError`.
# Its config key is the name's key in this table, else the key of that name,
# else, where the command reads no such key, an entry of the ladder
# `<name>_list` (eps in ap-test and uniform-sweep, and dt everywhere).
_ARGUMENT_KEYS = {"lambdas": "spectrum.lambdas", "M": "collocation_points",
                  "nl": "nonlinearity.variant"}


def _spectrum(v: dict) -> SpectrumSpec:
    J, kind = v["spectrum.J"], v["spectrum.kind"]
    if kind == "quadratic":
        return quadratic_spectrum(J)
    if kind == "explicit":
        if v["spectrum.lambdas"] is None:
            raise ConfigError("config key 'spectrum.lambdas': the explicit spectrum needs it")
        return SpectrumSpec(J=J, lambdas=np.asarray(v["spectrum.lambdas"]))
    return dirichlet_spectrum(J)


def _field(v: dict, name: str, J: int) -> np.ndarray:
    """The field `name` from its list, else from its preset keys."""
    if v[name] is not None:
        if len(v[name]) != J:
            raise ConfigError(f"config key {name!r}: expected {J} numbers, got {len(v[name])}")
        return np.asarray(v[name])
    preset, amplitude = v[name + ".preset"], v[name + ".amplitude"]
    if preset == "mode":
        k = v[name + ".k"]
        if not 1 <= k <= J:
            raise ConfigError(f"config key {name + '.k'!r}: mode {k} outside 1..{J}")
        out = np.zeros(J)
        out[k - 1] = amplitude
        return out
    if preset == "decay":
        return amplitude * np.arange(1, J + 1, dtype=float) ** (-v[name + ".p"])
    if preset == "ones":
        return amplitude * np.ones(J)
    return np.zeros(J)


def _setup(v: dict):
    """(spectrum, nonlinearity, collocation grid or None, run config, phi or None).

    A run field the subcommand does not read keeps a stand-in that its harness
    call replaces: N = T/dt per dt, eps from eps_list; ap-test and
    uniform-sweep measure the coupled modified scheme.  Only the objects are
    built here: whether the harness can run them is the harness's to say.
    """
    spec = _spectrum(v)
    nl = {"LINEAR_IN_Y": LinearInY, "POINTWISE_SQUARE": PointwiseSquare,
          "SATURATING_SQUARE": SaturatingSquare}[v["nonlinearity.variant"]](
              c=v["nonlinearity.params.c"])
    run = {"N": 1, "eps": 1.0, "scheme": SchemeKind.COUPLED_MODIFIED}
    run.update((name, v[name]) for name in ("N", "eps", "scheme") if name in v)
    gt = None if isinstance(nl, LinearInY) else GridTransform(spec.J, M=v.get("collocation_points"))
    config = RunConfig(T=v["T"], x0=_field(v, "x0", spec.J), y0=_field(v, "y0", spec.J), **run)
    if len(v.get("dt_list", range(FIT_MIN_POINTS))) < FIT_MIN_POINTS:
        raise ArgumentError("dt_list", f"a rate fit needs at least {FIT_MIN_POINTS} step sizes")
    kind = v.get("phi.kind")
    h = _field(v, "phi.h", spec.J) if kind == FunctionalKind.LINEAR else None
    phi = FunctionalSpec(kind=kind, h=h) if kind else None
    return spec, nl, gt, config, phi


def _write_outputs(output_dir: str, files: dict):
    """Write all output files, or none: stage in a temp dir, check every target, then move."""
    os.makedirs(output_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=output_dir) as staging:
        for name, content in files.items():
            with open(os.path.join(staging, name), "w", newline="") as f:
                f.write(content)
        for name in files:  # a file cannot replace a directory
            target = os.path.join(output_dir, name)
            if os.path.isdir(target) and not os.path.islink(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in files:
            os.replace(os.path.join(staging, name), os.path.join(output_dir, name))


def _csv(header, rows) -> str:
    """header, then each row of numbers at 17 significant digits."""
    line = ",".join(["%.17g"] * len(header))
    return "\n".join([",".join(header), *(line % tuple(row) for row in rows)]) + "\n"


# a rate fit with r2 below this is reported with a warning on stderr: its
# ladder is likely not yet in the asymptotic regime
WARN_R_SQUARED = 0.9


def _fit_fields(fit) -> dict:
    """The rate fit's result fields slope, intercept and r2, after a warning on
    stderr if r2 is below WARN_R_SQUARED."""
    if fit.r_squared < WARN_R_SQUARED:
        print(f"warning: the log-log fit has r2 {fit.r_squared:.3g} < {WARN_R_SQUARED} "
              f"(slope {fit.slope:.3g}); the dt ladder may not be asymptotic", file=sys.stderr)
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r_squared}


# Each command takes its config values, plus "n_threads" from --threads, and
# returns (files, results): its CSV texts by file name, and its result fields,
# which both summary.json and the stdout line hold.

def _cmd_simulate(v: dict):
    spec, nl, gt, config, _ = _setup(v)
    steps = trajectory(config, spec, nl, gt, v["master_seed"], v["sample_index"], 1)
    state_rows = []
    for n, (x, y) in enumerate(steps):
        for j in range(spec.J):
            state_rows.append((n, j + 1, x[0, j], 0.0 if y is None else y[0, j]))
    files = {"trajectory.csv": _csv(("step", "mode", "x", "y"), state_rows)}
    return files, {"final_norm_x": float(np.sqrt(np.sum(x * x)))}


def _cmd_weak_error(v: dict):
    spec, nl, gt, config, phi = _setup(v)
    points = weak_error_curve(config, v["dt_list"], phi, spec, nl, gt, n_samples=v["n_samples"],
                              master_seed=v["master_seed"], n_threads=v["n_threads"])
    fit = _fit_fields(fit_rate(points))
    files = {"curve.csv": _csv(("dt", "error", "stderr", "oracle_bias"),
                               [(p.dt, p.error, p.stderr, p.oracle_bias) for p in points])}
    return files, {**fit, "oracle_functional": phi.oracle_only}


def _cmd_ap_test(v: dict):
    spec, nl, gt, config, phi = _setup(v)
    rows = ap_diagram(config, v["eps_list"], phi, spec, nl, gt, n_samples=v["n_samples"],
                      master_seed=v["master_seed"], n_threads=v["n_threads"])
    # null when the last gap is 0: JSON has no Infinity
    ratio = rows[0][1] / rows[-1][1] if rows[-1][1] > 0 else None
    files = {"ap_gaps.csv": _csv(("eps", "gap", "stderr"), rows)}
    return files, {"first_to_last_gap_ratio": ratio}


def _cmd_invariant_test(v: dict):
    spec = _spectrum(v)
    report = invariant_measure_check(spec, v["tau_list"])
    rows = []
    for i, tau in enumerate(v["tau_list"]):
        for j in range(spec.J):
            rows.append((tau, j + 1, report.residual_modified[i, j], report.residual_standard[i, j]))
    header = ("tau", "mode", "residual_modified", "residual_standard")
    files = {"residuals.csv": _csv(header, rows)}
    return files, {
        "worst_modified_residual": float(report.residual_modified.max()),
        "standard_residual_at_unit_taulambda": float(report.standard_at_unit.min()),
    }


def _cmd_uniform_sweep(v: dict):
    spec, nl, _, config, phi = _setup(v)
    result = uniform_sweep(config, v["eps_list"], v["dt_list"], phi, spec, nl)
    fit = _fit_fields(result.fit)
    grid_rows = []
    for i, dt in enumerate(v["dt_list"]):
        for k, eps in enumerate(v["eps_list"]):
            grid_rows.append((dt, eps, result.errors[i, k], result.reference_bias[i, k]))
    files = {
        "sweep.csv": _csv(("dt", "eps", "error", "oracle_bias"), grid_rows),
        "max_curve.csv": _csv(("dt", "max_error"), list(zip(v["dt_list"], result.max_errors))),
    }
    return files, {
        **fit,
        "refinement": SWEEP_REFINEMENT,
        "max_reference_bias": float(result.reference_bias.max()),
        "oracle_functional": phi.oracle_only,
    }


_COMMANDS = {
    "simulate": _cmd_simulate,
    "weak-error": _cmd_weak_error,
    "ap-test": _cmd_ap_test,
    "invariant-test": _cmd_invariant_test,
    "uniform-sweep": _cmd_uniform_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use rather than at import, then reused:
    `parse_args` returns a fresh namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="slowfast",
        description="Spectral simulation lab for two-time-scale stochastic evolution systems",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, default=None,
                       help="JSON experiment config (defaults used when omitted)")
        p.add_argument("--output-dir", default=None,
                       help="where to write CSV/JSON outputs (default: the current directory)")
        p.add_argument("--master-seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="Monte Carlo worker threads (default 1); no output depends on it")
    return parser


def run_cli(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        n_threads = _at_least(1)(args.threads)
    except ValueError as exc:
        print(f"error: flag '--threads': {exc} (got {args.threads})", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config) if args.config else {}
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if args.master_seed is not None:
            cfg["master_seed"] = args.master_seed
        v = dict(_config_values(cfg, args.command), n_threads=n_threads)
        try:
            files, results = _COMMANDS[args.command](v)
        except ArgumentError as exc:
            keys = [k for k in (_ARGUMENT_KEYS.get(exc.name, exc.name), exc.name + "_list") if k in v]
            if not keys:  # the command reads no key of that name
                raise
            raise ConfigError(f"config key {keys[0]!r}: {exc}") from None
        # strict JSON: a non-finite value exits 2 instead of writing NaN or Infinity
        files["summary.json"] = json.dumps({"config": cfg, **results}, indent=2,
                                           sort_keys=True, allow_nan=False) + "\n"
        line = json.dumps({"command": args.command, **results}, allow_nan=False)
    except (ValueError, MemoryError) as exc:  # a size that passed its cast but cannot be held
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output_dir = args.output_dir or "."
    try:
        _write_outputs(output_dir, files)
    except OSError as exc:
        print(f"error: cannot write outputs to {output_dir!r}: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
