"""Command-line driver: JSON config in, CSV + JSON summary out.

Subcommands:
    simulate        one trajectory, dumped step by step
    weak-error      weak-error curve over a dt ladder plus log-log rate fit
    ap-test         coupled-vs-limiting gap over an eps ladder at fixed dt
    invariant-test  one-step variance fixed-point residuals per (tau, mode)
    uniform-sweep   max-over-eps weak error on an (eps, dt) grid

All floating-point output is written with 17 significant digits, '.' decimal
separator, fixed column order, so repeated runs with the same config and
seed produce byte-identical files.  Output files are only written after a
run completes, so a failing run leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .harness import (
    FunctionalKind,
    FunctionalSpec,
    OracleMode,
    ap_diagram,
    fit_rate,
    invariant_measure_check,
    uniform_sweep,
    weak_error_curve,
)
from .integrators import RunConfig, SchemeKind, trajectory
from .nonlinearity import (
    Affine,
    GridTransform,
    LinearInY,
    Nonlinearity,
    PointwiseGeneral,
    PointwiseSquare,
    saturating_square,
)
from .spectral import SpectrumSpec, dirichlet_spectrum, quadratic_spectrum

__all__ = ["run_cli", "main", "load_config"]


def _fmt(v) -> str:
    return format(float(v), ".17g")


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _read(section: dict, key: str, cast, default, where: str = ""):
    """cast(section[key]), default when the key is absent; a value cast rejects is a ConfigError."""
    value = section.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {where + key!r}: {exc} (got {value!r})") from None


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _numbers(value) -> list:
    if not isinstance(value, list) or not value:
        raise TypeError("expected a non-empty list of numbers")
    return [_real(v) for v in value]


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value or "."


def _real(value) -> float:
    """A finite JSON number; true, "0.5", NaN and Infinity are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _integer(value) -> int:
    """A JSON integer; an integral float such as 4.0 counts, 2.5, true and "4" do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _step_count(value) -> int:
    n = _integer(value)
    if n < 1:
        raise ValueError("expected a positive integer")
    return n


def _seed(value) -> int:
    seed = _integer(value)
    if not 0 <= seed < 2**64:
        raise ValueError("expected an integer in [0, 2**64)")
    return seed


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _spectrum_from_config(cfg: dict) -> SpectrumSpec:
    sc = _read(cfg, "spectrum", _object, {})
    J = _read(sc, "J", _integer, 16, "spectrum.")
    kind = sc.get("kind", "dirichlet")
    if kind == "dirichlet":
        return dirichlet_spectrum(J)
    if kind == "quadratic":
        return quadratic_spectrum(J, scale=_read(sc, "scale", _real, 1.0, "spectrum."))
    if kind == "explicit":
        lambdas = _read(sc, "lambdas", _numbers, None, "spectrum.")
        return SpectrumSpec(J=J, lambdas=np.asarray(lambdas))
    raise ConfigError(f"unknown spectrum kind {kind!r}")


def _field_from_config(section: dict, key: str, J: int, default=None,
                       where: str = "") -> np.ndarray:
    value = section.get(key, default)
    if value is None:
        return np.zeros(J)
    if isinstance(value, list):
        arr = np.asarray(_read(section, key, _numbers, None, where))
        if arr.shape != (J,):
            raise ConfigError(f"field list must have length {J}")
        return arr
    if isinstance(value, dict):
        where += key + "."
        preset = value.get("preset", "zero")
        if preset == "zero":
            return np.zeros(J)
        amplitude = _read(value, "amplitude", _real, 1.0, where)
        if preset == "mode":
            k = _read(value, "k", _integer, 1, where)
            if not 1 <= k <= J:
                raise ConfigError(f"mode index {k} outside 1..{J}")
            out = np.zeros(J)
            out[k - 1] = amplitude
            return out
        if preset == "decay":
            p = _read(value, "p", _real, 1.0, where)
            return amplitude * np.arange(1, J + 1, dtype=float) ** (-p)
        if preset == "ones":
            return amplitude * np.ones(J)
        raise ConfigError(f"unknown field preset {preset!r}")
    raise ConfigError(f"cannot build a field from {value!r}")


def _phi_from_config(cfg: dict, J: int) -> FunctionalSpec:
    pc = _read(cfg, "phi", _object, {"kind": "NORM_SQUARED"})
    kind = _read(pc, "kind", FunctionalKind, "NORM_SQUARED", "phi.")
    if kind == FunctionalKind.LINEAR:
        h = _field_from_config(pc, "h", J, {"preset": "mode"}, "phi.")
        return FunctionalSpec(kind=kind, h=h)
    return FunctionalSpec(kind=kind)


def _nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    """A catalog member from the config's {variant, params} mapping."""
    nc = _read(cfg, "nonlinearity", _object, {"variant": "LINEAR_IN_Y"})
    params = _read(nc, "params", _object, {}, "nonlinearity.")

    def coefficient(key, default=1.0):
        return _read(params, key, _real, default, "nonlinearity.params.")

    variant = nc.get("variant", "LINEAR_IN_Y")
    if variant == "LINEAR_IN_Y":
        return LinearInY(c=coefficient("c"))
    if variant == "AFFINE":
        return Affine(c_x=coefficient("c_x", 0.0), c_y=coefficient("c_y", 0.0))
    if variant == "POINTWISE_SQUARE":
        return PointwiseSquare(c=coefficient("c"))
    if variant == "SATURATING_SQUARE":
        return saturating_square(c=coefficient("c"))
    raise ConfigError(f"unknown nonlinearity variant {variant!r}")


def _run_config(cfg: dict, spec: SpectrumSpec, scheme: Optional[SchemeKind] = None) -> RunConfig:
    return RunConfig(
        T=_read(cfg, "T", _real, 1.0),
        N=_read(cfg, "N", _step_count, 64),
        eps=_read(cfg, "eps", _real, 1.0),
        scheme=scheme or _read(cfg, "scheme", SchemeKind, "COUPLED_MODIFIED"),
        x0=_field_from_config(cfg, "x0", spec.J),
        y0=_field_from_config(cfg, "y0", spec.J),
    )


def _setup(cfg: dict, scheme: Optional[SchemeKind] = None):
    """(spectrum, nonlinearity, collocation grid or None, run config) of an experiment config."""
    spec = _spectrum_from_config(cfg)
    nl = _nonlinearity_from_config(cfg)
    gt = None
    if isinstance(nl, (PointwiseSquare, PointwiseGeneral)):
        gt = GridTransform(spec.J, M=_read(cfg, "collocation_points", _integer, 4 * spec.J))
    return spec, nl, gt, _run_config(cfg, spec, scheme)


def _write_outputs(output_dir: str, files: dict):
    """Write all output files, or none: stage in a temp dir, then move."""
    os.makedirs(output_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=output_dir) as staging:
        staged = []
        for name, content in files.items():
            p = os.path.join(staging, name)
            with open(p, "w", newline="") as f:
                f.write(content)
            staged.append(name)
        for name in staged:
            os.replace(os.path.join(staging, name), os.path.join(output_dir, name))


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _summary(cfg: dict, extra: dict) -> str:
    return json.dumps({"config": cfg, **extra}, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(cfg: dict, output_dir: str) -> dict:
    spec, nl, gt, config = _setup(cfg)
    steps = trajectory(config, spec, nl, gt, _read(cfg, "master_seed", _seed, 0),
                       _read(cfg, "sample_index", _integer, 0), 1)
    state_rows = []
    for n, (x, y) in enumerate(steps):
        for j in range(spec.J):
            state_rows.append((n, j + 1, x[0, j], 0.0 if y is None else y[0, j]))
    files = {
        "trajectory.csv": _csv(("step", "mode", "x", "y"), state_rows),
        "summary.json": _summary(cfg, {"final_norm_x": float(np.sqrt(np.sum(x * x)))}),
    }
    _write_outputs(output_dir, files)
    return {"steps": config.N}


def _cmd_weak_error(cfg: dict, output_dir: str) -> dict:
    spec, nl, gt, config = _setup(cfg)
    phi = _phi_from_config(cfg, spec.J)
    dt_list = _read(cfg, "dt_list", _numbers, [2.0**-k for k in range(4, 10)])
    points = weak_error_curve(
        config, dt_list, phi, spec, nl, gt,
        oracle=_read(cfg, "oracle", OracleMode, "MOMENT_ORACLE"),
        n_samples=_read(cfg, "n_samples", _integer, 100000),
        master_seed=_read(cfg, "master_seed", _seed, 0),
        refinement=_read(cfg, "refinement", _integer, 64),
        n_threads=_read(cfg, "n_threads", _integer, 1),
    )
    fit = fit_rate(points, drop_coarsest=_read(cfg, "drop_coarsest", _flag, False))
    files = {
        "curve.csv": _csv(("dt", "error", "stderr", "oracle_bias"),
                          [(p.dt, p.error, p.stderr, p.oracle_bias) for p in points]),
        "summary.json": _summary(cfg, {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r2": fit.r_squared,
            "oracle_functional": phi.oracle_only,
        }),
    }
    _write_outputs(output_dir, files)
    return {"slope": fit.slope, "r2": fit.r_squared}


def _cmd_ap_test(cfg: dict, output_dir: str) -> dict:
    spec, nl, gt, config = _setup(cfg, SchemeKind.COUPLED_MODIFIED)
    phi = _phi_from_config(cfg, spec.J)
    eps_list = _read(cfg, "eps_list", _numbers, [4.0**-k for k in range(0, 7)])
    rows = ap_diagram(
        config, eps_list, phi, spec, nl, gt,
        n_samples=_read(cfg, "n_samples", _integer, 0),
        master_seed=_read(cfg, "master_seed", _seed, 0),
        n_threads=_read(cfg, "n_threads", _integer, 1),
    )
    monotone_gap = rows[0][1] / rows[-1][1] if rows[-1][1] > 0 else float("inf")
    files = {
        "ap_gaps.csv": _csv(("eps", "gap", "stderr"), rows),
        "summary.json": _summary(cfg, {"first_to_last_gap_ratio": monotone_gap}),
    }
    _write_outputs(output_dir, files)
    return {"gap_ratio": monotone_gap}


def _cmd_invariant_test(cfg: dict, output_dir: str) -> dict:
    spec = _spectrum_from_config(cfg)
    tau_list = _read(cfg, "tau_list", _numbers, [1e-4, 1e-2, 1.0, 1e2, 1e4])
    report = invariant_measure_check(spec, tau_list)
    rows = []
    for i, tau in enumerate(report.tau_list):
        for j in range(spec.J):
            rows.append((tau, j + 1, report.residual_modified[i, j], report.residual_standard[i, j]))
    worst = float(report.residual_modified.max())
    files = {
        "residuals.csv": _csv(("tau", "mode", "residual_modified", "residual_standard"), rows),
        "summary.json": _summary(cfg, {
            "worst_modified_residual": worst,
            "standard_residual_at_unit_taulambda": float(report.standard_at_unit.min()),
        }),
    }
    _write_outputs(output_dir, files)
    return {"worst_modified_residual": worst}


def _cmd_uniform_sweep(cfg: dict, output_dir: str) -> dict:
    spec, nl, _, config = _setup(cfg, SchemeKind.COUPLED_MODIFIED)
    phi = _phi_from_config(cfg, spec.J)
    eps_list = _read(cfg, "eps_list", _numbers, [4.0**-k for k in range(0, 7)])
    dt_list = _read(cfg, "dt_list", _numbers, [2.0**-k for k in range(4, 11)])
    result = uniform_sweep(config, eps_list, dt_list, phi, spec, nl,
                           refinement=_read(cfg, "refinement", _integer, 512))
    grid_rows = []
    for i, dt in enumerate(result.dt_list):
        for k, eps in enumerate(result.eps_list):
            grid_rows.append((dt, eps, result.errors[i, k], result.reference_bias[i, k]))
    files = {
        "sweep.csv": _csv(("dt", "eps", "error", "oracle_bias"), grid_rows),
        "max_curve.csv": _csv(("dt", "max_error"),
                              list(zip(result.dt_list, result.max_errors))),
        "summary.json": _summary(cfg, {
            "slope": result.fit.slope,
            "intercept": result.fit.intercept,
            "r2": result.fit.r_squared,
            "refinement": result.refinement,
            "max_reference_bias": float(result.reference_bias.max()),
            "oracle_functional": phi.oracle_only,
        }),
    }
    _write_outputs(output_dir, files)
    return {"slope": result.fit.slope}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "weak-error": _cmd_weak_error,
    "ap-test": _cmd_ap_test,
    "invariant-test": _cmd_invariant_test,
    "uniform-sweep": _cmd_uniform_sweep,
}


def run_cli(argv=None) -> int:
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
                       help="where to write CSV/JSON outputs (overrides config)")
        p.add_argument("--master-seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override the config thread count")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config) if args.config else {}
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if args.master_seed is not None:
            cfg["master_seed"] = args.master_seed
        if args.threads is not None:
            cfg["n_threads"] = args.threads
        output_dir = args.output_dir or _read(cfg, "output_dir", _path, ".")
        info = _COMMANDS[args.command](cfg, output_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": args.command, **info}))
    return 0


def main() -> None:
    sys.exit(run_cli())
