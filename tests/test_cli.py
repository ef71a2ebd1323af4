import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import (
    GridTransform,
    LinearInY,
    RunConfig,
    SchemeKind,
    dirichlet_spectrum,
    run_cli,
    run_trajectory_batch,
    saturating_square,
    trajectory,
)
from slowfast import cli, continuous_second_moment, harness
from slowfast.cli import SCHEMA

COMMANDS = ("simulate", "weak-error", "ap-test", "invariant-test", "uniform-sweep")


def write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read(path):
    with open(path, "rb") as f:
        return f.read()


# noise-free outputs at default configs, recorded by perfbench/record_oracle.py
ORACLE_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "oracle_expected.json"


def parse_output(path):
    """CSV rows as floats; summary.json without its config echo."""
    if path.suffix == ".csv":
        return [[float(cell) for cell in line.split(",")]
                for line in path.read_text().splitlines()[1:]]
    summary = json.loads(path.read_text())
    summary.pop("config")
    return summary


def assert_matches_recorded(value, expected, where):
    """Every number within the benchmark's tolerance (rel 1e-9, abs 1e-14) of its record."""
    if isinstance(expected, dict):
        assert set(value) == set(expected), f"{where}: keys differ"
        for key in expected:
            assert_matches_recorded(value[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert len(value) == len(expected), f"{where}: length differs"
        for i, (v, x) in enumerate(zip(value, expected)):
            assert_matches_recorded(v, x, f"{where}[{i}]")
    elif isinstance(expected, bool):
        assert value is expected, f"{where}: {value!r} != recorded {expected!r}"
    else:
        assert abs(value - expected) <= 1e-9 * abs(expected) + 1e-14, \
            f"{where}: {value!r} != recorded {expected!r}"


def run_python(*args):
    """`python *args` in a fresh process, against the package in src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


def run_module(module, argv):
    """`python -m module *argv` in a fresh process, against the package in src/."""
    return run_python("-m", module, *argv)


def output_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestStartUp:
    def test_import_leaves_heavy_scipy_subpackages_unloaded(self):
        # scipy.optimize, scipy.integrate and scipy.linalg load on first use only;
        # moments.expm still resolves, and only its lookup loads scipy.linalg
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
        proc = run_python("-c", f"""
import sys
import slowfast
print([m for m in {heavy!r} if m in sys.modules])
from scipy.linalg import expm
print(slowfast.moments.expm is expm)
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "True"]


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # run_cli builds its parser once per process; a flag given to one call must
        # not reach the next, so each call writes the bytes of a fresh process
        cfg = write_config(tmp_path, "c.json", {"tau_list": [0.5, 2.0], "spectrum": {"J": 3}})
        runs = [["simulate", "--master-seed", "7", "--threads", "2"], ["simulate"],
                ["invariant-test", "--config", cfg]]
        for i, argv in enumerate(runs):
            out = tmp_path / f"in{i}"
            assert run_cli(argv + ["--output-dir", str(out)]) == 0
            in_process = (capsys.readouterr().out, output_files(out))
            fresh = tmp_path / f"fresh{i}"
            proc = run_module("slowfast", argv + ["--output-dir", str(fresh)])
            assert proc.returncode == 0, proc.stderr
            assert (proc.stdout, output_files(fresh)) == in_process, argv


class TestExecutionFlags:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_threads_and_output_dir_change_no_byte(self, tmp_path, capsys, command):
        # the thread count and the output directory are flags, not config keys,
        # so neither reaches summary.json or the stdout line
        runs = []
        for i, flags in enumerate([[], ["--threads", "1"], ["--threads", "2"]]):
            out = tmp_path / f"o{i}"
            assert run_cli([command, "--output-dir", str(out), *flags]) == 0
            runs.append((capsys.readouterr().out, output_files(out)))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_summary_config_replays_the_run(self, tmp_path, capsys):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(["simulate", "--master-seed", "7", "--output-dir", str(first)]) == 0
        cfg = json.loads((first / "summary.json").read_text())["config"]
        assert cfg == {"master_seed": 7}
        assert run_cli(["simulate", "--config", write_config(tmp_path, "c.json", cfg),
                        "--output-dir", str(again)]) == 0
        assert output_files(again) == output_files(first)
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == lines[0]

    def test_empty_output_dir_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        cwd, named = tmp_path / "cwd", tmp_path / "named"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_cli(["invariant-test", "--output-dir", ""]) == 0
        assert run_cli(["invariant-test", "--output-dir", str(named)]) == 0
        assert sorted(output_files(cwd)) == ["residuals.csv", "summary.json"]
        assert output_files(cwd) == output_files(named)


class TestInvariantTest:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["invariant-test", "--output-dir", str(out)]) == 0
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "tau,mode,residual_modified,residual_standard"
        assert len(lines) == 1 + 5 * 16  # default tau ladder x J
        summary = json.loads((out / "summary.json").read_text())
        assert summary["worst_modified_residual"] < 1e-12
        assert json.loads(capsys.readouterr().out)["command"] == "invariant-test"

    def test_custom_tau_list(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"tau_list": [0.5], "spectrum": {"J": 4}})
        out = tmp_path / "o"
        assert run_cli(["invariant-test", "--config", cfg, "--output-dir", str(out)]) == 0
        assert len((out / "residuals.csv").read_text().splitlines()) == 1 + 4

    @pytest.mark.filterwarnings("error")
    def test_huge_tau_stays_finite(self, tmp_path, capsys):
        # tau*lam = 2.5e303: the modified noise variance tends to 1/lam, so the
        # fixed point still holds to rounding, without an overflow warning
        cfg = write_config(tmp_path, "c.json", {"tau_list": [1e300]})
        out = tmp_path / "o"
        assert run_cli(["invariant-test", "--config", cfg, "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "summary.json").read_text())["worst_modified_residual"] < 1e-15

    @pytest.mark.filterwarnings("error")
    def test_infinite_tau_lambda_names_tau_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"tau_list": [1e308]})
        out = tmp_path / "o"
        assert run_cli(["invariant-test", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'tau_list': ") and err.count("\n") == 1
        assert not out.exists()

    def test_runs_as_a_module(self, tmp_path):
        # python -m slowfast.cli runs the subcommand, not only the installed script
        out = tmp_path / "out"
        proc = run_module("slowfast.cli", ["invariant-test", "--output-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert (out / "residuals.csv").stat().st_size > 0

    def test_runs_as_the_package_without_warnings(self, tmp_path):
        # python -m slowfast loads the CLI module once, so runpy has nothing to warn about
        out = tmp_path / "out"
        proc = run_module("slowfast", ["invariant-test", "--output-dir", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (out / "residuals.csv").stat().st_size > 0


class TestWeakError:
    def test_moment_oracle_curve(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"kind": "dirichlet", "J": 8},
            "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 1.0}},
            "scheme": "COUPLED_MODIFIED",
            "T": 0.5, "N": 8, "eps": 0.5,
            "x0": {"preset": "decay", "p": 2.0},
            "y0": {"preset": "ones"},
            "phi": {"kind": "NORM_SQUARED"},
            "dt_list": [2**-3, 2**-4, 2**-5, 2**-6],
        })
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "dt,error,stderr,oracle_bias"
        assert len(lines) == 5
        for row in lines[1:]:
            dt, err, se, bias = map(float, row.split(","))
            assert err > 0 and se == 0.0 and bias == 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert "slope" in summary and summary["oracle_functional"] is True

    def test_slow_fast_variable_gives_finite_curve(self, tmp_path):
        # eps > 1: the continuous mean's exponential rates swap order
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 32}, "eps": 2.0, "x0": {"preset": "ones"}, "y0": {"preset": "ones"},
        })
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 0
        errors = [row[1] for row in parse_output(out / "curve.csv")]
        assert np.all(np.isfinite(errors))
        assert np.isfinite(json.loads((out / "summary.json").read_text())["slope"])

    @pytest.mark.parametrize("variant, J, scheme", [
        ("LINEAR_IN_Y", 8, "COUPLED_MODIFIED"),
        ("SATURATING_SQUARE", 8, "COUPLED_MODIFIED"),
        ("LINEAR_IN_Y", 6, "COUPLED_MODIFIED"),
        ("LINEAR_IN_Y", 64, "COUPLED_MODIFIED"),
        ("SATURATING_SQUARE", 8, "LIMITING"),
    ], ids=["LINEAR_IN_Y", "SATURATING_SQUARE", "LINEAR_IN_Y_J6", "LINEAR_IN_Y_J64",
            "SATURATING_SQUARE_LIMITING"])
    def test_byte_identical_reruns_and_threads(self, tmp_path, capsys, variant, J, scheme):
        # 4500 samples run in three spans of MC_SPAN, so 8 threads split them.
        # The linear-in-y curves are measured against the continuous law, at
        # J = 6 with padded Philox words and at J = 64 with 1 MB states stepped
        # in place; the coupled saturating square samples the refined
        # reference, and the limiting one is measured against the averaged
        # equation solved by LSODA
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"kind": "dirichlet", "J": J},
            "nonlinearity": {"variant": variant, "params": {"c": 1.0}},
            "scheme": scheme, "T": 0.25, "N": 4, "eps": 0.5,
            "x0": {"preset": "ones"}, "y0": {"preset": "ones"},
            "phi": {"kind": "BOUNDED_EXP"},
            "n_samples": 4500, "master_seed": 42,
            "dt_list": [2**-2, 2**-3, 2**-4],
        })
        runs = []
        for i, threads in enumerate(("1", "8", "1")):
            out = tmp_path / f"o{i}"
            rc = run_cli(["weak-error", "--config", cfg, "--output-dir", str(out),
                          "--threads", threads])
            assert rc == 0
            runs.append((capsys.readouterr().out, output_files(out)))
        assert sorted(runs[0][1]) == ["curve.csv", "summary.json"]
        assert runs[0] == runs[1] == runs[2]

    def test_poor_fit_warns_on_stderr(self, tmp_path, capsys):
        # eps = 2 from ones: the signed errors are not monotone in dt, so the
        # fit has r2 0.015; the run still succeeds and writes its outputs
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 32}, "eps": 2.0, "x0": {"preset": "ones"}, "y0": {"preset": "ones"},
        })
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: ")
        assert f"r2 {summary['r2']:.3g}" in err and f"slope {summary['slope']:.3g}" in err

    def test_point_below_noise_floor_exits_2(self, tmp_path, capsys):
        # 50 samples against the continuous law: the finest point's error is
        # 1.4 of its stderr, the others at least 6.3 stderr
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 8}, "T": 0.25, "eps": 0.5,
            "x0": {"preset": "ones"}, "y0": {"preset": "ones"}, "phi": {"kind": "BOUNDED_EXP"},
            "n_samples": 50, "master_seed": 0,
            "dt_list": [2.0**-k for k in (2, 3, 4, 5, 6, 8)],
        })
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noise floor" in err
        assert f"dt = [{2.0**-8!r}]" in err
        assert not out.exists()

    def test_exact_zero_error_is_not_blamed_on_a_noise_floor(self, tmp_path, capsys):
        # at eps = dt = 1e-300 the noise-free scheme meets the continuous law to
        # the last bit: the error is exactly 0 there, and no sampling is involved
        cfg = write_config(tmp_path, "c.json", {"eps": 1e-300, "dt_list": [0.5, 0.25, 1e-300]})
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dt = [1e-300]" in err
        assert "noise floor" not in err
        assert not out.exists()

    def test_limiting_scheme_is_first_order_against_the_averaged_limit(self, tmp_path):
        # the limiting scheme has no fast state; its truth is the averaged
        # equation, not the slow-fast law at the config's eps
        cfg = write_config(tmp_path, "c.json", {"scheme": "LIMITING"})
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["slope"] >= 0.85

    def test_averaged_scheme_is_exact_at_any_sample_count(self, tmp_path, capsys):
        # AVERAGED draws no noise, so n_samples 2000 takes the exact path that
        # n_samples 0 takes, instead of 2000 identical runs
        files = []
        for n_samples in (0, 2000):
            cfg = write_config(tmp_path, f"c{n_samples}.json", {
                "scheme": "AVERAGED", "nonlinearity": {"variant": "SATURATING_SQUARE"},
                "n_samples": n_samples})
            out = tmp_path / f"o{n_samples}"
            assert run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)]) == 0
            files.append(read(out / "curve.csv"))
        assert files[0] == files[1]


class TestSimulate:
    def test_trajectory_dump(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 4}, "scheme": "COUPLED_MODIFIED",
            "T": 0.25, "N": 5, "eps": 0.5,
            "x0": {"preset": "mode", "k": 1}, "y0": {"preset": "zero"},
            "master_seed": 9,
        })
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,mode,x,y"
        assert len(lines) == 1 + 6 * 4  # steps 0..N inclusive, J modes each
        out2 = tmp_path / "o2"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out2)]) == 0
        assert read(out / "trajectory.csv") == read(out2 / "trajectory.csv")

    def test_integral_floats_read_as_integers(self, tmp_path):
        base = {"spectrum": {"J": 4}, "T": 0.25, "N": 5, "eps": 0.5,
                "x0": {"preset": "mode", "k": 2}, "master_seed": 9, "sample_index": 3}
        floats = {**base, "spectrum": {"J": 4.0}, "N": 5.0,
                  "x0": {"preset": "mode", "k": 2.0}, "master_seed": 9.0, "sample_index": 3.0}
        outs = []
        for name, cfg in (("int", base), ("float", floats)):
            out = tmp_path / name
            assert run_cli(["simulate", "--config", write_config(tmp_path, f"{name}.json", cfg),
                            "--output-dir", str(out)]) == 0
            outs.append(read(out / "trajectory.csv"))
        assert outs[0] == outs[1]

    @pytest.mark.filterwarnings("error")
    def test_large_sample_index_has_its_own_path(self, tmp_path, capsys):
        # at J = 16 sample 2^62 - 1 starts at counter block 2^64 - 4
        outs = []
        for index in (2**62 - 1, 0):
            out = tmp_path / str(index)
            cfg = write_config(tmp_path, f"{index}.json", {"sample_index": index})
            assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
            outs.append(read(out / "trajectory.csv"))
        assert outs[0] != outs[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_huge_horizon_without_warning(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"T": 1e300, "N": 1})
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.isfinite(json.loads((out / "summary.json").read_text())["final_norm_x"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_expo_rate_without_warning(self, tmp_path, capsys):
        # dt*lam/eps overflows: the exact transition is its stiff limit, a fresh equilibrium draw
        cfg = write_config(tmp_path, "c.json", {"eps": 1e-320, "scheme": "COUPLED_EXPO", "N": 4,
                                                "spectrum": {"J": 2}})
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_averaged_scheme_runs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 4}, "scheme": "AVERAGED",
            "nonlinearity": {"variant": "POINTWISE_SQUARE", "params": {"c": 1.0}},
            "T": 0.25, "N": 3,
            "x0": {"preset": "zero"},
        })
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0

    @pytest.mark.parametrize("scheme", [s.value for s in SchemeKind])
    def test_last_step_is_run_trajectory_batch(self, tmp_path, scheme):
        # simulate is the one-sample batch of the sampler: its last row of
        # each mode is run_trajectory_batch's final state, bit for bit
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 4}, "scheme": scheme,
            "nonlinearity": {"variant": "SATURATING_SQUARE", "params": {"c": 1.0}},
            "T": 0.25, "N": 5, "eps": 0.1,
            "x0": {"preset": "decay", "p": 2.0}, "y0": {"preset": "ones"},
            "master_seed": 9, "sample_index": 3,
        })
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
        last = np.array([[float(x), float(y)] for step, _, x, y in rows if step == "5"])
        config = RunConfig(T=0.25, N=5, eps=0.1, scheme=SchemeKind(scheme),
                           x0=np.arange(1, 5, dtype=float) ** -2.0, y0=np.ones(4))
        args = (config, dirichlet_spectrum(4), saturating_square(1.0), GridTransform(4), 9, 3, 1)
        *_, (x, y) = trajectory(*args)
        assert np.array_equal(last[:, 0], run_trajectory_batch(*args)[0])
        assert np.array_equal(last[:, 0], x[0])
        if config.scheme.coupled:
            assert np.array_equal(last[:, 1], y[0])
        else:
            assert y is None and np.all(last[:, 1] == 0.0)


class TestApAndSweep:
    def test_ap_test_oracle_mode(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 8},
            "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 1.0}},
            "T": 0.5, "N": 32,
            "x0": {"preset": "decay", "p": 2.0}, "y0": {"preset": "ones"},
            "phi": {"kind": "NORM_SQUARED"},
            "eps_list": [1.0, 0.01, 0.0001],
        })
        out = tmp_path / "o"
        assert run_cli(["ap-test", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "ap_gaps.csv").read_text().splitlines()
        assert lines[0] == "eps,gap,stderr"
        gaps = [float(r.split(",")[1]) for r in lines[1:]]
        assert gaps[0] > gaps[-1]

    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"kind": "quadratic", "J": 8},
            "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 1.0}},
            "T": 0.5, "N": 8,
            "x0": {"preset": "decay", "p": 2.0}, "y0": {"preset": "ones"},
            "phi": {"kind": "NORM_SQUARED"},
            "eps_list": [1.0, 0.0625],
            "dt_list": [2**-3, 2**-4, 2**-5],
        })
        out = tmp_path / "o"
        assert run_cli(["uniform-sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "max_curve.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "slope" in summary and summary["refinement"] == 512

    def test_default_sweep_computes_each_continuous_law_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return continuous_second_moment(*args)

        monkeypatch.setattr(harness, "continuous_second_moment", counted)
        assert run_cli(["uniform-sweep", "--output-dir", str(tmp_path / "o")]) == 0
        assert len(calls) == 7  # one per entry of the default eps_list

    def test_bad_eps_fails_before_any_trajectory(self, tmp_path, capsys, monkeypatch):
        def sampled(*args):
            raise AssertionError("a trajectory was sampled")

        monkeypatch.setattr(harness, "run_trajectory_batch", sampled)
        cfg = write_config(tmp_path, "c.json", {"eps_list": [1.0, 1e-320], "n_samples": 200})
        out = tmp_path / "o"
        assert run_cli(["ap-test", "--config", cfg, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'eps_list': ")
        assert not out.exists()


VARIANTS = ("LINEAR_IN_Y", "POINTWISE_SQUARE", "SATURATING_SQUARE")

# the noise-free runs that a row of harness.EXACT_TRUTHS covers, as (subcommand,
# nonlinearity.variant, scheme); ap-test and uniform-sweep fix their own schemes
EXACT_RUNS = {
    ("weak-error", "LINEAR_IN_Y", "COUPLED_MODIFIED"),
    ("weak-error", "LINEAR_IN_Y", "COUPLED_EXPO"),
    ("weak-error", "LINEAR_IN_Y", "LIMITING"),
    ("weak-error", "LINEAR_IN_Y", "AVERAGED"),
    ("weak-error", "POINTWISE_SQUARE", "AVERAGED"),
    ("weak-error", "SATURATING_SQUARE", "AVERAGED"),
    ("ap-test", "LINEAR_IN_Y", None),
    ("uniform-sweep", "LINEAR_IN_Y", None),
}


class TestExactTruthTable:
    @pytest.mark.parametrize("command, variant, scheme", [
        *[("weak-error", variant, scheme.value) for variant in VARIANTS for scheme in SchemeKind],
        *[(command, variant, None) for command in ("ap-test", "uniform-sweep")
          for variant in VARIANTS],
    ])
    def test_noise_free_run_exits_0_or_names_the_coupling(self, tmp_path, capsys, command,
                                                           variant, scheme):
        cfg = {"spectrum": {"J": 4}, "nonlinearity": {"variant": variant}, "n_samples": 0,
               "x0": {"preset": "ones"}, "dt_list": [2**-2, 2**-3, 2**-4],
               "eps_list": [1.0, 0.25]}
        if scheme is not None:
            cfg["scheme"] = scheme
        out = tmp_path / "o"
        code = run_cli([command, "--config", write_config(tmp_path, "c.json", cfg),
                        "--output-dir", str(out)])
        if (command, variant, scheme) in EXACT_RUNS:
            assert code == 0
            assert (out / "summary.json").exists()
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert "'nonlinearity.variant'" in err
            assert not out.exists() or os.listdir(out) == []


class TestFailureModes:
    def test_malformed_json_leaves_no_outputs(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "o"
        rc = run_cli(["weak-error", "--config", str(bad), "--output-dir", str(out)])
        assert rc == 2
        assert not out.exists() or os.listdir(out) == []

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_missing_subcommand(self):
        assert run_cli([]) == 2

    def test_non_integer_step_count(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 4},
            "nonlinearity": {"variant": "LINEAR_IN_Y"},
            "T": 1.0, "dt_list": [0.3, 0.1],
        })
        out = tmp_path / "o"
        rc = run_cli(["weak-error", "--config", cfg, "--output-dir", str(out)])
        assert rc == 2
        assert not out.exists() or os.listdir(out) == []

    def test_bad_scheme_name(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"scheme": "LEAPFROG", "spectrum": {"J": 2}})
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2

    def test_bad_field_preset(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 2}, "x0": {"preset": "sawtooth"}})
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, bad, key", [
        ("simulate", {"spectrum": {"kind": "explicit", "J": 2}}, "spectrum.lambdas"),
        ("simulate", {"N": None}, "N"),
        ("simulate", {"T": None}, "T"),
        ("simulate", {"eps": None}, "eps"),
        ("simulate", {"master_seed": None}, "master_seed"),
        ("weak-error", {"n_samples": None}, "n_samples"),
        ("simulate", {"spectrum": {"J": None}}, "spectrum.J"),
        ("simulate", {"x0": {"preset": "mode", "k": None}}, "x0.k"),
        ("simulate", {"nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": None}}},
         "nonlinearity.params.c"),
        ("weak-error", {"dt_list": 0.5}, "dt_list"),
        ("invariant-test", {"tau_list": [None]}, "tau_list"),
        ("simulate", {"spectrum": 5}, "spectrum"),
        ("weak-error", {"phi": "x"}, "phi"),
        ("ap-test", {"eps_list": []}, "eps_list"),
        ("simulate", {"master_seed": 2.5}, "master_seed"),
        ("simulate", {"spectrum": {"J": 4.5}}, "spectrum.J"),
        ("weak-error", {"n_samples": 1000.5}, "n_samples"),
        ("simulate", {"sample_index": True}, "sample_index"),
        ("weak-error", {"drop_coarsest": "false"}, "drop_coarsest"),
        ("weak-error", {"drop_coarsest": 0}, "drop_coarsest"),
        ("weak-error", {"drop_coarsest": True}, "drop_coarsest"),
        ("weak-error", {"oracle": "MOMENT_ORACLE"}, "oracle"),
        ("simulate", {"master_seed": -1}, "master_seed"),
        ("simulate", {"master_seed": 2**64}, "master_seed"),
        ("simulate", {"T": float("nan")}, "T"),
        ("simulate", {"nonlinearity": {"params": {"c": float("nan")}}}, "nonlinearity.params.c"),
        ("simulate", {"eps": float("inf")}, "eps"),
        ("simulate", {"T": True}, "T"),
        ("simulate", {"eps": "0.5"}, "eps"),
        ("invariant-test", {"tau_list": [True]}, "tau_list"),
        ("simulate", {"eps": 1e-320, "N": 4}, "eps"),
        ("weak-error", {"eps": 1e-320, "N": 4}, "eps"),
        ("simulate", {"sample_index": -1}, "sample_index"),
        ("simulate", {"sample_index": 2**64}, "sample_index"),
        ("weak-error", {"n_samples": 1}, "n_samples"),
        ("ap-test", {"n_samples": -3}, "n_samples"),
        ("simulate", {"x0": {"preset": "mode", "k": 5}, "spectrum": {"J": 4}}, "x0.k"),
        ("simulate", {"y0": [1.0, 2.0], "spectrum": {"J": 4}}, "y0"),
        ("simulate", {"x0": None}, "x0"),
        ("simulate", {"spectrum": {"kind": "cubic"}}, "spectrum.kind"),
        ("simulate", {"nonlinearity": {"variant": "CUBIC"}}, "nonlinearity.variant"),
        ("simulate", {"nonlinearity": {"params": 1.0}}, "nonlinearity.params"),
        # --threads sets the thread count and n_threads is no config key: any value exits 2
        ("ap-test", {"n_threads": 0}, "n_threads"),
        ("weak-error", {"n_threads": -3}, "n_threads"),
        ("invariant-test", {"eps": float("nan")}, "eps"),
        ("invariant-test", {"dt_list": [float("inf")]}, "dt_list"),
        ("invariant-test", {"x0": {"amplitude": float("-inf")}}, "x0.amplitude"),
        ("simulate", {"nonlinearity": {"variant": "POINTWISE_SQUARE"}, "collocation_points": 8},
         "collocation_points"),
        ("invariant-test", {"spectrum": {"kind": "explicit", "J": 2, "lambdas": [3.0, 1.0]}},
         "spectrum.lambdas"),
        ("invariant-test", {"spectrum": {"kind": "explicit", "J": 2, "lambdas": [-1.0, 1.0]}},
         "spectrum.lambdas"),
        ("invariant-test", {"spectrum": {"kind": "explicit", "J": 2, "lambdas": [1e-310, 1.0]}},
         "spectrum.lambdas"),
        ("simulate", {"spectrum": {"kind": "quadratic", "scale": -1.0}}, "spectrum.scale"),
        ("simulate", {"spectrum": {"kind": "quadratic", "scale": 2.0}}, "spectrum.scale"),
        ("simulate", {"nonlinearity": {"params": {"c_x": 1.0}}}, "nonlinearity.params.c_x"),
        ("simulate", {"nonlinearity": {"variant": "AFFINE"}}, "nonlinearity.variant"),
        ("simulate", {"T": -1.0}, "T"),
        ("simulate", {"eps": -1.0}, "eps"),
        ("simulate", {"eps": 0.0, "scheme": "LIMITING"}, "eps"),
        ("ap-test", {"eps_list": [0.0]}, "eps_list"),
        ("ap-test", {"eps_list": [1e-320]}, "eps_list"),
        ("uniform-sweep", {"eps_list": [1.0, 0.5, 1e-320]}, "eps_list"),
        ("uniform-sweep", {"eps_list": [1.0, 5e-306]}, "eps_list"),
        ("invariant-test", {"tau_list": [-1.0]}, "tau_list"),
        ("weak-error", {"dt_list": [-0.5, 0.25]}, "dt_list"),
        ("weak-error", {"dt_list": [0.25, 0.5, 0.125]}, "dt_list"),
        ("weak-error", {"dt_list": [0.3]}, "dt_list"),
        ("weak-error", {"dt_list": [0.3, 0.2, 0.1]}, "dt_list"),
        ("uniform-sweep", {"dt_list": [0.25, 0.125]}, "dt_list"),
        ("uniform-sweep", {"nonlinearity": {"variant": "POINTWISE_SQUARE"}},
         "nonlinearity.variant"),
        ("weak-error", {"n_samples": 0, "scheme": "LIMITING",
                        "nonlinearity": {"variant": "SATURATING_SQUARE"}}, "nonlinearity.variant"),
        ("ap-test", {"n_samples": 0, "nonlinearity": {"variant": "POINTWISE_SQUARE"}},
         "nonlinearity.variant"),
        ("simulate", {"N": 10**399}, "N"),
        ("ap-test", {"N": 10**399}, "N"),
        ("simulate", {"N": 2**63}, "N"),
        ("simulate", {"spectrum": {"J": 10**399}}, "spectrum.J"),
        ("weak-error", {"n_samples": 10**399}, "n_samples"),
        ("ap-test", {"n_samples": 10**399}, "n_samples"),
        ("weak-error", {"n_threads": 10**399}, "n_threads"),  # no config key, as above
    ], ids=["explicit_spectrum_without_lambdas", "null_step_count", "null_T", "null_eps",
            "null_master_seed", "null_n_samples", "null_J", "null_mode_index", "null_coefficient",
            "scalar_dt_list", "null_in_tau_list", "scalar_spectrum", "string_phi",
            "empty_eps_list", "fractional_master_seed", "fractional_J", "fractional_n_samples",
            "boolean_sample_index", "removed_drop_coarsest_string",
            "removed_drop_coarsest_numeric", "removed_drop_coarsest", "removed_oracle",
            "negative_master_seed",
            "master_seed_past_64_bits", "nan_T", "nan_coefficient", "infinite_eps", "boolean_T",
            "string_eps", "boolean_in_tau_list", "subnormal_eps_simulate",
            "subnormal_eps_weak_error",
            "negative_sample_index", "sample_index_past_64_bits", "one_sample",
            "negative_n_samples", "mode_index_past_J", "short_field_list", "null_field",
            "unknown_spectrum_kind", "unknown_variant", "scalar_params", "zero_threads",
            "negative_threads", "nan_in_ignored_key", "infinity_in_ignored_list",
            "infinity_in_ignored_field", "too_few_collocation_points", "decreasing_lambdas",
            "negative_lambda", "lambda_with_infinite_reciprocal", "removed_scale_negative", "removed_scale",
            "removed_affine_params", "removed_affine_variant", "negative_T", "negative_eps",
            "zero_eps_limiting", "zero_in_eps_list", "subnormal_in_eps_list_ap_test",
            "subnormal_in_eps_list_sweep", "infinite_lam_over_eps_in_sweep", "negative_in_tau_list",
            "negative_in_dt_list", "unordered_dt_list", "one_entry_dt_list",
            "non_dividing_dt_list", "two_point_sweep", "pointwise_sweep",
            "pointwise_moment_oracle_curve", "pointwise_moment_oracle_ap_test",
            "400_digit_N_simulate", "400_digit_N_ap_test", "N_at_2_63", "400_digit_J",
            "400_digit_n_samples_weak_error", "400_digit_n_samples_ap_test",
            "400_digit_threads"])
    def test_config_error_exits_2_without_traceback(self, tmp_path, capsys, command, bad, key):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", bad)
        assert run_cli([command, "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"'{key}'" in err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("command, bad", [
        ("simulate", {"spectrum": {"J": 2**40}}),
        ("weak-error", {"n_samples": 2**40}),
        ("ap-test", {"n_samples": 2**40}),
    ], ids=["J_simulate", "n_samples_weak_error", "n_samples_ap_test"])
    def test_unallocatable_size_exits_2_without_traceback(self, tmp_path, capsys, command, bad):
        # 2^40 float64 values are 8 TiB: the first array of that size fails to allocate at once
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", bad)
        assert run_cli([command, "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() or os.listdir(out) == []

    def test_threads_flag_below_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["weak-error", "--threads", "-3", "--output-dir", str(out)]) == 2
        assert "'--threads'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_root_must_be_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", [1, 2])
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config root must be a JSON object\n"
        assert not out.exists()

    def test_non_string_output_dir(self, tmp_path, capsys, monkeypatch):
        # --output-dir sets the output directory and output_dir is no config key:
        # a string exits 2 as a number does, and nothing lands in the working directory
        monkeypatch.chdir(tmp_path)
        for value in (5, "o"):
            cfg = write_config(tmp_path, "c.json", {"output_dir": value})
            assert run_cli(["simulate", "--config", cfg]) == 2
            assert "'output_dir'" in capsys.readouterr().err
            assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        out = blocker / below if below else blocker
        assert run_cli(["invariant-test", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {str(out)!r}")
        assert "Traceback" not in err
        assert blocker.read_text() == "a regular file\n"

    def test_unreplaceable_target_leaves_no_outputs(self, tmp_path, capsys):
        # a file cannot replace a directory named summary.json: the run exits 2
        # before it moves residuals.csv in
        out = tmp_path / "o"
        (out / "summary.json").mkdir(parents=True)
        assert run_cli(["invariant-test", "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {str(out)!r}")
        assert os.listdir(out) == ["summary.json"]
        assert os.listdir(out / "summary.json") == []

    def test_non_finite_summary_exits_2(self, tmp_path):
        # eps is weak-error's key, so invariant-test ignores it, but its
        # summary echoes the config, and JSON has no NaN
        cfg = write_config(tmp_path, "c.json", {"eps": float("nan"), "spectrum": {"J": 2}})
        out = tmp_path / "o"
        assert run_cli(["invariant-test", "--config", cfg, "--output-dir", str(out)]) == 2
        assert not out.exists()


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_zero_coupling_gap_ratio_is_null(self, tmp_path, capsys):
        # with c = 0 the coupled and limiting legs agree, so every gap is 0
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"J": 4}, "nonlinearity": {"params": {"c": 0.0}},
            "x0": {"preset": "ones"}})
        out = tmp_path / "o"
        assert run_cli(["ap-test", "--config", cfg, "--output-dir", str(out)]) == 0
        gaps = [row[1] for row in parse_output(out / "ap_gaps.csv")]
        assert gaps == [0.0] * len(gaps)
        assert strict_json((out / "summary.json").read_text())["first_to_last_gap_ratio"] is None
        assert strict_json(capsys.readouterr().out)["first_to_last_gap_ratio"] is None


def nested(dotted, value):
    """The config {"a": {"b": value}} of the key "a.b"."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def leaves(cfg, where=""):
    """(dotted key, value) of every leaf of a config."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaves(value, where + key + ".")
        else:
            yield where + key, value


def merge(a, b):
    """The config holding the keys of both a and b (no leaf in both)."""
    out = dict(a)
    for key, value in b.items():
        out[key] = merge(out[key], value) if key in out else value
    return out


# the subcommands that read each key
READERS = {row[0]: {c for other in SCHEMA if other[0] == row[0] for c in other[3]} for row in SCHEMA}
# keys that are also sections: an object there is read as its sub-keys
SECTION_KEYS = {a for a in READERS for b in READERS if b.startswith(a + ".")}
BAD_VALUES = {"null": None, "true": True, "string": "x", "object": {}, "list": [1.0, 2.0],
              "nan": float("nan"), "fraction": 2.5, "past_float": 10**400}


def shared_config(x0, y0, h):
    """A config that holds every key any subcommand reads, with the given fields."""
    return {
        "spectrum": {"kind": "explicit", "J": 3, "lambdas": [1.0, 4.0, 9.0]},
        "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 0.5}},
        "collocation_points": 12, "scheme": "COUPLED_EXPO", "T": 0.5, "N": 8, "eps": 0.5,
        "x0": x0, "y0": y0, "phi": {"kind": "LINEAR", "h": h},
        "dt_list": [0.125, 0.0625, 0.03125], "eps_list": [1.0, 0.1], "tau_list": [1.0],
        "n_samples": 0, "master_seed": 3, "sample_index": 2,
    }


# a field is a list or a preset, so one config of each form holds every key
PRESET = {"preset": "mode", "amplitude": 0.5, "k": 2, "p": 1.0}
SHARED_CONFIGS = {
    "x0_preset": shared_config(PRESET, [1.0, 0.5, 0.25], [1.0, 1.0, 0.0]),
    "x0_list": shared_config([1.0, 0.5, 0.25], PRESET, PRESET),
}


class TestSchema:
    @pytest.mark.parametrize("name, cast, command", [
        pytest.param(name, cast, command, id=f"{name}-{command}")
        for name, cast, _, commands in SCHEMA for command in commands
    ])
    def test_value_the_cast_rejects_exits_2(self, tmp_path, capsys, name, cast, command):
        rejected = []
        for label, value in BAD_VALUES.items():
            if isinstance(value, dict) and name in SECTION_KEYS:
                continue
            try:
                cast(value)
                continue
            except (TypeError, ValueError, OverflowError):
                rejected.append(label)
            out = tmp_path / label
            cfg = write_config(tmp_path, f"{label}.json", nested(name, value))
            assert run_cli([command, "--config", cfg, "--output-dir", str(out)]) == 2, label
            err = capsys.readouterr().err
            assert err.startswith(f"error: config key '{name}': "), (label, err)
            assert "Traceback" not in err
            assert not out.exists(), label
        assert "null" in rejected

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("cfg, key", [
        ({"n_sample": 2000}, "n_sample"),
        ({"spectrum": {"scal": 2.0}}, "spectrum.scal"),
        ({"spectrum.J": 3}, "spectrum.J"),
        ({"nonlinearity": {"params": {"cc": 1.0}}}, "nonlinearity.params.cc"),
        ({"phi": {"kind": "LINEAR", "hh": [1.0]}}, "phi.hh"),
        ({"x0": {"preset": "mode", "kk": 2}}, "x0.kk"),
        ({"phi": {"h": {"amplitude": 2.0, "pp": 1.0}}}, "phi.h.pp"),
        ({"n_threads": 2}, "n_threads"),
        ({"output_dir": "o"}, "output_dir"),
        # the sampled reference's refinement is harness.REFERENCE_REFINEMENT
        ({"refinement": 16}, "refinement"),
    ], ids=["top_level", "spectrum", "dotted_literal", "params", "phi", "field_preset",
            "phi_field_preset", "n_threads", "output_dir", "refinement"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, command, cfg, key):
        out = tmp_path / "o"
        path = write_config(tmp_path, "c.json", cfg)
        assert run_cli([command, "--config", path, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key '{key}'"), err
        assert not out.exists()

    @pytest.mark.parametrize("form", sorted(SHARED_CONFIGS))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_shared_config_runs_every_subcommand(self, tmp_path, command, form):
        out = tmp_path / "o"
        path = write_config(tmp_path, "c.json", SHARED_CONFIGS[form])
        assert run_cli([command, "--config", path, "--output-dir", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_shared_configs_hold_every_key(self):
        held = {key for cfg in SHARED_CONFIGS.values() for key, _ in leaves(cfg)}
        assert held == set(READERS)

    @pytest.mark.parametrize("form", sorted(SHARED_CONFIGS))
    @pytest.mark.parametrize("command", COMMANDS)
    def test_keys_a_subcommand_does_not_read_change_nothing(self, tmp_path, command, form):
        # every shared key the subcommand does not read, most of them off their defaults
        unread = {}
        for key, value in leaves(SHARED_CONFIGS[form]):
            if command not in READERS[key]:
                unread = merge(unread, nested(key, value))
        assert unread
        path = write_config(tmp_path, "c.json", unread)
        assert run_cli([command, "--config", path, "--output-dir", str(tmp_path / "unread")]) == 0
        assert run_cli([command, "--output-dir", str(tmp_path / "default")]) == 0
        files = output_files(tmp_path / "default")
        assert sorted(output_files(tmp_path / "unread")) == sorted(files)
        for name, content in files.items():
            if name.endswith(".csv"):
                assert read(tmp_path / "unread" / name) == content, name
        assert (parse_output(tmp_path / "unread" / "summary.json")
                == parse_output(tmp_path / "default" / "summary.json"))

    def test_argument_keys_are_config_keys(self):
        assert set(cli._ARGUMENT_KEYS.values()) <= {row[0] for row in SCHEMA}

    def test_readme_table_matches_schema(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| key | default | used by |") + 2
        documented = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            keys, _, used_by = re.split(r"(?<!\\)\|", line.strip()[1:-1])
            commands = set(COMMANDS) if used_by.strip() == "all" else \
                set(re.findall(r"`([^`]+)`", used_by))
            for key in re.findall(r"`([^`]+)`", keys):
                assert key not in documented, f"{key} has two README rows"
                documented[key] = commands
        assert documented == READERS


class TestRecordedOracleValues:
    @pytest.mark.parametrize("command", ["invariant-test", "weak-error", "ap-test", "uniform-sweep"])
    def test_default_config_matches_recorded(self, tmp_path, command):
        expected = json.loads(ORACLE_EXPECTED.read_text())[command]
        out = tmp_path / "o"
        assert run_cli([command, "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, recorded in expected.items():
            assert_matches_recorded(parse_output(out / name), recorded, f"{command}/{name}")


class TestPoorFitWarning:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_configs_leave_stderr_empty(self, tmp_path, capsys, command):
        assert run_cli([command, "--output-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_uniform_sweep_warns_below_the_threshold(self, tmp_path, capsys, monkeypatch):
        # the default sweep fits with r2 0.9989; a threshold above it must warn
        monkeypatch.setattr(cli, "WARN_R_SQUARED", 1.0)
        out = tmp_path / "o"
        assert run_cli(["uniform-sweep", "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err.startswith("warning: the log-log fit has r2 0.999 < 1.0")
        assert (out / "sweep.csv").exists()


class TestFloatFormat:
    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["invariant-test", "--output-dir", str(out),
                 "--config", write_config(tmp_path, "c.json", {"tau_list": [1.0 / 3.0],
                                                               "spectrum": {"J": 1}})])
        row = (out / "residuals.csv").read_text().splitlines()[1]
        tau_str = row.split(",")[0]
        assert tau_str == format(1.0 / 3.0, ".17g")
        assert float(tau_str) == 1.0 / 3.0  # round trips exactly


def run_quietly(argv):
    """(exit code, stderr, files written) of one run_cli call in a fresh output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run_cli([*argv, "--output-dir", str(out)])
        return code, err.getvalue(), sorted(os.listdir(out)) if out.exists() else []


def library_rejects(call) -> bool:
    try:
        call()
    except ValueError:
        return True
    return False


# a valid value or one of each kind of invalid one: zero, negative, subnormal-small
def argument(valid):
    return st.one_of(st.just(valid), st.sampled_from([0.5, 0.0, -1.0, 1e-300]))


def edit_ladder(how, i, step):
    """[0.5, 0.25, 0.125] with step i replaced, swapped with its predecessor, or dropped."""
    dts = [0.5, 0.25, 0.125]
    if how == "replace":
        dts[i] = step
    elif how == "swap":
        dts[i - 1], dts[i] = dts[i], dts[i - 1]
    elif how == "drop":
        del dts[i]
    return dts


# a ladder's steps out of order, too few, or not dividing T (0.3 divides no T drawn, 0.2 only
# T = 1)
LADDERS = st.builds(edit_ladder, st.sampled_from(["keep", "replace", "swap", "drop"]),
                    st.integers(0, 2), st.sampled_from([0.3, 0.2, 0.0625, 0.0, -0.25, 1e-300]))
TAU_LISTS = st.lists(st.one_of(st.just(1.0), st.sampled_from([1e4, 0.0, -1.0, 1e-300])),
                     max_size=3)


class TestArgumentRule:
    @settings(max_examples=200, deadline=None, database=None)
    @given(T=argument(1.0), eps=argument(1.0), dts=LADDERS, taus=TAU_LISTS)
    def test_the_cli_has_no_range_rule_of_its_own(self, T, eps, dts, taus):
        # each run exits 2 naming one of its keys exactly when the library
        # rejects that key's value (a ladder judged at T where T passes), and
        # else ends as the library's own run ends: the CLI only casts these
        # keys' JSON types.  A run in range can still fail, as the rate fit
        # over the zero error at eps = dt = 1e-300 does
        x0, spec = np.zeros(2), dirichlet_spectrum(2)

        def config(T=1.0, eps=1.0):
            return RunConfig(T=T, N=1, eps=eps, scheme=SchemeKind.COUPLED_MODIFIED, x0=x0, y0=x0)

        def ladder():
            at = config(T=1.0 if library_rejects(lambda: config(T=T)) else T)
            if len(harness._ladder(at, dts)) < harness.FIT_MIN_POINTS:
                raise ValueError("too few steps for a rate fit")

        def weak_error():
            phi = harness.FunctionalSpec(kind=harness.FunctionalKind.NORM_SQUARED)
            harness.fit_rate(harness.weak_error_curve(config(T, eps), dts, phi, spec,
                                                      LinearInY(1.0)))

        runs = [("weak-error", {"T": T, "eps": eps, "dt_list": dts},
                 {"T": lambda: config(T=T), "eps": lambda: config(eps=eps), "dt_list": ladder},
                 weak_error),
                ("invariant-test", {"tau_list": taus},
                 {"tau_list": lambda: harness.invariant_measure_check(spec, taus)}, lambda: None)]
        with tempfile.TemporaryDirectory() as tmp:
            for command, cfg, checks, run in runs:
                bad = [key for key, check in checks.items() if library_rejects(check)]
                path = write_config(Path(tmp), "c.json", {"spectrum": {"J": 2}, **cfg})
                code, err, files = run_quietly([command, "--config", path])
                if bad:
                    assert code == 2 and files == [], (command, cfg)
                    assert err.startswith("error: ") and "Traceback" not in err
                    assert any(f"'{key}'" in err for key in bad), (command, cfg, err)
                    continue
                try:
                    run()
                except ValueError as exc:
                    assert (code, err, files) == (2, f"error: {exc}\n", []), (command, cfg)
                else:
                    assert code == 0 and "summary.json" in files, (command, cfg, err)
