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
from .nonlinearity import GridTransform, nonlinearity_from_config
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


def _spectrum_from_config(cfg: dict) -> SpectrumSpec:
    sc = cfg.get("spectrum", {})
    J = int(sc.get("J", 16))
    kind = sc.get("kind", "dirichlet")
    if kind == "dirichlet":
        return dirichlet_spectrum(J)
    if kind == "quadratic":
        return quadratic_spectrum(J, scale=float(sc.get("scale", 1.0)))
    if kind == "explicit":
        if "lambdas" not in sc:
            raise ConfigError("an explicit spectrum needs a 'lambdas' list")
        return SpectrumSpec(J=J, lambdas=np.asarray(sc["lambdas"], dtype=float))
    raise ConfigError(f"unknown spectrum kind {kind!r}")


def _field_from_config(value, J: int) -> np.ndarray:
    if value is None:
        return np.zeros(J)
    if isinstance(value, list):
        arr = np.asarray(value, dtype=float)
        if arr.shape != (J,):
            raise ConfigError(f"field list must have length {J}")
        return arr
    if isinstance(value, dict):
        preset = value.get("preset", "zero")
        if preset == "zero":
            return np.zeros(J)
        if preset == "mode":
            k = int(value.get("k", 1))
            if not 1 <= k <= J:
                raise ConfigError(f"mode index {k} outside 1..{J}")
            out = np.zeros(J)
            out[k - 1] = float(value.get("amplitude", 1.0))
            return out
        if preset == "decay":
            p = float(value.get("p", 1.0))
            return float(value.get("amplitude", 1.0)) * np.arange(1, J + 1, dtype=float) ** (-p)
        if preset == "ones":
            return float(value.get("amplitude", 1.0)) * np.ones(J)
        raise ConfigError(f"unknown field preset {preset!r}")
    raise ConfigError(f"cannot build a field from {value!r}")


def _phi_from_config(cfg: dict, J: int) -> FunctionalSpec:
    pc = cfg.get("phi", {"kind": "NORM_SQUARED"})
    kind = pc.get("kind", "NORM_SQUARED")
    try:
        fk = FunctionalKind(kind)
    except ValueError:
        raise ConfigError(f"unknown functional kind {kind!r}") from None
    if fk == FunctionalKind.LINEAR:
        return FunctionalSpec(kind=fk, h=_field_from_config(pc.get("h", {"preset": "mode"}), J))
    return FunctionalSpec(kind=fk)


def _run_config(cfg: dict, spec: SpectrumSpec, scheme: Optional[SchemeKind] = None) -> RunConfig:
    if scheme is None:
        try:
            scheme = SchemeKind(cfg.get("scheme", "COUPLED_MODIFIED"))
        except ValueError:
            raise ConfigError(f"unknown scheme {cfg.get('scheme')!r}") from None
    T = float(cfg.get("T", 1.0))
    N = cfg.get("N", 64)
    if not isinstance(N, (int, float, str)) or not float(N).is_integer() or int(N) < 1:
        raise ConfigError(f"N must be a positive integer, got {N!r}")
    return RunConfig(
        T=T,
        N=int(N),
        eps=float(cfg.get("eps", 1.0)),
        scheme=scheme,
        x0=_field_from_config(cfg.get("x0"), spec.J),
        y0=_field_from_config(cfg.get("y0"), spec.J),
    )


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


def _grid_transform_if_needed(cfg: dict, spec: SpectrumSpec, nl) -> Optional[GridTransform]:
    from .nonlinearity import PointwiseGeneral, PointwiseSquare

    if isinstance(nl, (PointwiseSquare, PointwiseGeneral)):
        return GridTransform(spec.J, M=int(cfg.get("collocation_points", 4 * spec.J)))
    return None


def _cmd_simulate(cfg: dict, output_dir: str) -> dict:
    spec = _spectrum_from_config(cfg)
    nl = nonlinearity_from_config(cfg.get("nonlinearity", {"variant": "LINEAR_IN_Y"}))
    gt = _grid_transform_if_needed(cfg, spec, nl)
    config = _run_config(cfg, spec)
    steps = trajectory(config, spec, nl, gt, int(cfg.get("master_seed", 0)),
                       int(cfg.get("sample_index", 0)), 1)
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
    spec = _spectrum_from_config(cfg)
    nl = nonlinearity_from_config(cfg.get("nonlinearity", {"variant": "LINEAR_IN_Y"}))
    gt = _grid_transform_if_needed(cfg, spec, nl)
    config = _run_config(cfg, spec)
    phi = _phi_from_config(cfg, spec.J)
    oracle = OracleMode(cfg.get("oracle", "MOMENT_ORACLE"))
    dt_list = [float(d) for d in cfg.get("dt_list", [2.0**-k for k in range(4, 10)])]
    points = weak_error_curve(
        config, dt_list, phi, spec, nl, gt,
        oracle=oracle,
        n_samples=int(cfg.get("n_samples", 100000)),
        master_seed=int(cfg.get("master_seed", 0)),
        refinement=int(cfg.get("refinement", 64)),
        n_threads=int(cfg.get("n_threads", 1)),
    )
    fit = fit_rate(points, drop_coarsest=bool(cfg.get("drop_coarsest", False)))
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
    spec = _spectrum_from_config(cfg)
    nl = nonlinearity_from_config(cfg.get("nonlinearity", {"variant": "LINEAR_IN_Y"}))
    gt = _grid_transform_if_needed(cfg, spec, nl)
    config = _run_config(cfg, spec, scheme=SchemeKind.COUPLED_MODIFIED)
    phi = _phi_from_config(cfg, spec.J)
    eps_list = [float(e) for e in cfg.get("eps_list", [4.0**-k for k in range(0, 7)])]
    rows = ap_diagram(
        config, eps_list, phi, spec, nl, gt,
        n_samples=int(cfg.get("n_samples", 0)),
        master_seed=int(cfg.get("master_seed", 0)),
        n_threads=int(cfg.get("n_threads", 1)),
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
    tau_list = [float(t) for t in cfg.get("tau_list", [1e-4, 1e-2, 1.0, 1e2, 1e4])]
    report = invariant_measure_check(
        spec, tau_list,
        empirical_steps=int(cfg.get("empirical_steps", 0)),
        master_seed=int(cfg.get("master_seed", 0)),
    )
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
    spec = _spectrum_from_config(cfg)
    nl = nonlinearity_from_config(cfg.get("nonlinearity", {"variant": "LINEAR_IN_Y"}))
    config = _run_config(cfg, spec, scheme=SchemeKind.COUPLED_MODIFIED)
    phi = _phi_from_config(cfg, spec.J)
    eps_list = [float(e) for e in cfg.get("eps_list", [4.0**-k for k in range(0, 7)])]
    dt_list = [float(d) for d in cfg.get("dt_list", [2.0**-k for k in range(4, 11)])]
    result = uniform_sweep(config, eps_list, dt_list, phi, spec, nl,
                           refinement=int(cfg.get("refinement", 512)))
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
        output_dir = args.output_dir or cfg.get("output_dir") or "."
        info = _COMMANDS[args.command](cfg, output_dir)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": args.command, **info}))
    return 0


def main() -> None:
    sys.exit(run_cli())
