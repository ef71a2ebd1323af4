import json
import os
from pathlib import Path

import numpy as np
import pytest

from slowfast import (
    GridTransform,
    RunConfig,
    SchemeKind,
    dirichlet_spectrum,
    run_cli,
    run_trajectory_batch,
    saturating_square,
    trajectory,
)


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
            "oracle": "MOMENT_ORACLE",
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

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "spectrum": {"kind": "dirichlet", "J": 8},
            "nonlinearity": {"variant": "LINEAR_IN_Y", "params": {"c": 1.0}},
            "T": 0.25, "N": 4, "eps": 0.5,
            "x0": {"preset": "ones"}, "y0": {"preset": "ones"},
            "phi": {"kind": "BOUNDED_EXP"},
            "oracle": "REFINED_REFERENCE",
            "n_samples": 2000, "refinement": 16, "master_seed": 42,
            "dt_list": [2**-2, 2**-3, 2**-4],
        })
        outs = []
        for i, threads in enumerate(("1", "8", "1")):
            out = tmp_path / f"o{i}"
            rc = run_cli(["weak-error", "--config", cfg, "--output-dir", str(out),
                          "--threads", threads])
            assert rc == 0
            outs.append(read(out / "curve.csv"))
        assert outs[0] == outs[1] == outs[2]


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
            "refinement": 64,
        })
        out = tmp_path / "o"
        assert run_cli(["uniform-sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "max_curve.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "slope" in summary and summary["refinement"] == 64


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
        ("weak-error", {"refinement": "64"}, "refinement"),
        ("weak-error", {"drop_coarsest": "false"}, "drop_coarsest"),
        ("weak-error", {"drop_coarsest": 0}, "drop_coarsest"),
        ("simulate", {"master_seed": -1}, "master_seed"),
        ("simulate", {"master_seed": 2**64}, "master_seed"),
        ("simulate", {"T": float("nan")}, "T"),
        ("simulate", {"nonlinearity": {"params": {"c": float("nan")}}}, "nonlinearity.params.c"),
        ("simulate", {"eps": float("inf")}, "eps"),
        ("simulate", {"T": True}, "T"),
        ("simulate", {"eps": "0.5"}, "eps"),
        ("invariant-test", {"tau_list": [True]}, "tau_list"),
    ], ids=["explicit_spectrum_without_lambdas", "null_step_count", "null_T", "null_eps",
            "null_master_seed", "null_n_samples", "null_J", "null_mode_index", "null_coefficient",
            "scalar_dt_list", "null_in_tau_list", "scalar_spectrum", "string_phi",
            "empty_eps_list", "fractional_master_seed", "fractional_J", "fractional_n_samples",
            "boolean_sample_index", "string_refinement", "string_drop_coarsest",
            "numeric_drop_coarsest", "negative_master_seed", "master_seed_past_64_bits",
            "nan_T", "nan_coefficient", "infinite_eps", "boolean_T", "string_eps",
            "boolean_in_tau_list"])
    def test_config_error_exits_2_without_traceback(self, tmp_path, capsys, command, bad, key):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", bad)
        assert run_cli([command, "--config", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"'{key}'" in err
        assert not out.exists() or os.listdir(out) == []


    def test_non_string_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"output_dir": 5})
        assert run_cli(["simulate", "--config", cfg]) == 2
        assert "'output_dir'" in capsys.readouterr().err


class TestRecordedOracleValues:
    @pytest.mark.parametrize("command", ["invariant-test", "weak-error", "ap-test", "uniform-sweep"])
    def test_default_config_matches_recorded(self, tmp_path, command):
        expected = json.loads(ORACLE_EXPECTED.read_text())[command]
        out = tmp_path / "o"
        assert run_cli([command, "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        for name, recorded in expected.items():
            assert_matches_recorded(parse_output(out / name), recorded, f"{command}/{name}")


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
