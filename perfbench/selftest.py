"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, in this process,
and checks that each result line carries exactly the metrics BENCHMARK.json
names, with their units, and that every layer the workload exercises shows
up in the trace.  Then it feeds deliberately wrong values through each
correctness check and through one whole run, and checks that they are
counted as failures.  Exits 0 when all of this holds.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import run

run.import_package()
import tracer  # noqa: E402  (needs the package on the path)
import workloads  # noqa: E402

# layers each workload exercises: their self time must be positive when traced
EXERCISED = {
    "mc_limiting_square": ("noise", "nonlinearity", "integrators", "harness"),
    "mc_coupled_linear": ("noise", "integrators", "harness"),
    "oracle_ladders": ("moments", "harness", "cli"),
    "averaged_general": ("nonlinearity", "integrators"),
}


def run_tiny(name, trace, workdir):
    """One in-process run at tiny size: (exit code, info line, result line)."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = run.parse_args(["--workload", name, "--seed", "5", "--trace", str(trace)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.run(args, spec, 0.0, workdir, sizes=workloads.TINY, setup_children=0)
    info, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return rc, info, result


def check_result(name, trace, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (name, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], (name, trace, sorted(metrics))
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"]), (name, m, value)
    if trace:
        for layer in EXERCISED[name]:
            assert metrics[f"{layer}.self_s"]["value"] > 0, (name, layer)
        assert metrics["trace.coverage"]["value"] > 0.9, (name, metrics["trace.coverage"])
    else:
        for m in declared:
            assert metrics[m["name"]]["value"] > 0, (name, m["name"])


def check_failures_are_counted(workdir):
    tally = workloads.Tally()
    mc = workloads.build("mc_coupled_linear", 5, workloads.TINY, workdir)
    cfg, exact = mc.cases[0]
    wrong = workloads.slowfast.McEstimate(mean=exact + 1.0, stderr=0.01, n_samples=96)
    assert not mc.check(tally, "wrong_estimate", "probe", wrong, exact)
    assert (tally.attempted, tally.failed, tally.failed_frac) == (1, 1, 1.0)

    averaged = workloads.build("averaged_general", 5, workloads.TINY, workdir)
    assert not averaged.check(tally, "wrong_solution", averaged.reference + 1e-3)
    assert workloads.compare([[1.0, 2.0]], [[1.0, 2.0 * (1 + 1e-8)]])
    assert not workloads.compare([[1.0, 2.0]], [[1.0, 2.0 * (1 + 1e-12)]])
    assert tally.failed == 2

    # a whole run whose exact value is off: the run reports the failures
    original = workloads.limiting_mean
    workloads.limiting_mean = lambda *a: original(*a) + 1.0
    try:
        with contextlib.redirect_stderr(io.StringIO()):  # the run lists its failures there
            rc, info, result = run_tiny("mc_limiting_square", 0, workdir)
    finally:
        workloads.limiting_mean = original
    assert rc == 0 and result["correct"] is False, result
    assert result["failed"] == result["attempted"] > 0, result
    assert info["failed_frac"] == 1.0, info


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    summary = tracer.Tracer(workloads.CLI_SUBCOMMANDS).summary([], [], [])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(summary) | {"trace.overhead_frac"} == per_layer, "per-layer names differ"
    metrics_doc = (Path(__file__).parent / "METRICS.md").read_text()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert f"`{m['name']}`" in metrics_doc, f"{m['name']} is not described in METRICS.md"
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    try:
        for name in workloads.WORKLOADS:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                rc, info, result = run_tiny(name, trace, workdir)
                assert rc == 0
                check_result(name, trace, result, declared)
                print(f"ok {name} trace={trace} attempted={result['attempted']}")
        check_failures_are_counted(workdir)
        print("ok deliberately wrong values are counted as failures")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
