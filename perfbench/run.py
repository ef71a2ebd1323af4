"""slowfast benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process, closed loop: after set-up the workload's fixed work is run in rounds
until ``--seconds`` have been measured, each round once with one thread and
once with ``nproc`` threads, and medians over rounds are reported.  Every
package call is checked; a call that raises or fails its check counts in
``failed``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
named in BENCHMARK.json.  With ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics, from spans recorded around
each package function (see tracer.py).  The line before it records the
machine, the failures and the round count.  Spans of the last traced round
are written to ``.perfbench-out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 4  # extra fresh-process set-ups, for a median of five


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up once, print it and exit (used for the set-up median)")
    return p.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path and import slowfast from it."""
    if not (SRC / "slowfast" / "__init__.py").is_file():
        raise SystemExit(f"error: no slowfast package under {SRC}")
    sys.path.insert(0, str(SRC))
    import slowfast

    if Path(slowfast.__file__).resolve().parent != SRC / "slowfast":
        raise SystemExit(f"error: imported slowfast from {slowfast.__file__}, not {SRC}")
    return slowfast


def setup(name, seed, sizes, workdir):
    """Import, build the workload, one untimed warm-up call.

    Returns (slowfast, workloads module, workload, set-up seconds), the
    seconds scaled to the reference speed for calibrated workloads.
    """
    t0 = perf_counter()
    slowfast = import_package()
    import workloads

    workload = workloads.build(name, seed, sizes, workdir)
    workload.warm_up(workloads.Clock(workloads.Tally()))
    seconds = perf_counter() - t0
    if workload.calibrated:
        seconds *= workloads.CALIBRATION_REF_S / workloads.calibration_kernel()
    return slowfast, workloads, workload, seconds


def child_setup_seconds(name, seed):
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(workload, clock, nproc):
    """The work once at one thread and once at nproc threads.

    For calibrated workloads the kernel runs before, between and after the
    two phases, and each phase's speed factor is CALIBRATION_REF_S over the
    mean of the kernel times on either side of it.
    """
    from workloads import CALIBRATION_REF_S, calibration_kernel as kernel

    r = {}
    k_before = kernel() if workload.calibrated else None
    for label, threads in (("1t", 1), ("nt", nproc)):
        before = clock.busy
        r[f"steps_{label}"] = workload.run(clock, threads)
        r[f"raw_{label}"] = clock.busy - before
        speed = 1.0
        if workload.calibrated:
            k_after = kernel()
            speed = CALIBRATION_REF_S / ((k_before + k_after) / 2.0)
            k_before = k_after
        r[f"wall_{label}"] = r[f"raw_{label}"] * speed
    r["wall"] = r["wall_1t"] + r["wall_nt"]
    return r


def round_metrics(r):
    rate_1t, rate_nt = r["steps_1t"] / r["wall_1t"], r["steps_nt"] / r["wall_nt"]
    return {"wall_s": r["wall"], "sample_steps_per_s.1t": rate_1t,
            "sample_steps_per_s.nt": rate_nt, "thread_scaling": rate_nt / rate_1t}


def machine_facts(slowfast):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": openblas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "slowfast": slowfast.__version__,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def openblas_threads():
    """Threads numpy's OpenBLAS uses, as found (nothing is pinned); None if unknown."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and ".so" in line and "numpy" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over src/'s Python files, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload, clock, nproc, seconds, tracer=None):
    """Rounds until `seconds` are measured.

    Untraced when `tracer` is None.  Otherwise rounds alternate untraced and
    traced, at least one of each, and traced rounds' summaries are kept.
    """
    untraced, traced, summaries = [], [], []
    last = None
    t_end = perf_counter() + seconds
    while True:
        tracing = tracer is not None and len(untraced) > len(traced)
        if tracing:
            tracer.install()
            clock.tracer = tracer
        try:
            r = run_round(workload, clock, nproc)
        finally:
            if tracing:
                tracer.uninstall()
                clock.tracer = None
        if tracing:
            traced.append(r)
            last = tracer.reset()
            summaries.append(tracer.summary(*last))
        else:
            untraced.append(r)
        if perf_counter() >= t_end and (tracer is None or traced):
            return untraced, traced, summaries, last


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if args.setup_only:
            print(repr(setup(args.workload, args.seed, None, workdir)[3]))
            return 0
        return run(args, spec, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, seconds, workdir, sizes=None, setup_children=SETUP_CHILDREN):
    """Measure one workload; prints the info line and the result line, returns the exit code."""
    slowfast, workloads, workload, setup_main = setup(args.workload, args.seed, sizes, workdir)
    setups = [setup_main] + [child_setup_seconds(args.workload, args.seed)
                             for _ in range(setup_children)]

    nproc = len(os.sched_getaffinity(0))
    tally = workloads.Tally()
    clock = workloads.Clock(tally)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(workloads.CLI_SUBCOMMANDS)
    untraced, traced, summaries, last = measure(workload, clock, nproc, seconds, tracer)

    if args.trace:
        metrics = per_layer_metrics(untraced, traced, summaries)
        declared = spec["per_layer"]
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz", last[0], last[1])
    else:
        rows = [round_metrics(r) for r in untraced]
        metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        declared = spec["end_to_end"]

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": {"untraced": untraced, "traced": traced},
        "setup_samples_s": setups, "failed_frac": tally.failed_frac,
        "failures": tally.failures[:10], "machine": machine_facts(slowfast),
    }
    print(json.dumps(info))
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def per_layer_metrics(untraced, traced, summaries):
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["trace.overhead_frac"] = (statistics.median(r["wall"] for r in traced)
                                      / statistics.median(r["wall"] for r in untraced) - 1.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
