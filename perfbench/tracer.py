"""Outside-in tracer for the slowfast package.

The tracer times calls into each module's public functions without touching
the package source.  Modules bind names at import time (``from .noise import
sample_cylindrical_batch`` in ``slowfast.integrators``), so a function is
replaced at every module attribute that refers to it, not only where it is
defined.  Each call becomes a span: name, layer, start, end, the span that
caused it and the benchmark task it belongs to.  Span stacks are kept per
thread; the thread pool that ``mc_estimate`` creates is swapped for a
subclass that hands the submitting task and span to its worker threads and
times how long the main thread waits for them.

Spans stay in memory; ``summary`` reduces them to per-layer metrics and
``dump`` writes them out once the measurement is over.  Nothing is patched
until ``install`` and everything is restored by ``uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "noise", "nonlinearity", "integrators", "moments", "harness", "cli")
STEP_FUNCTIONS = ("step_coupled_modified", "step_coupled_expo", "step_limiting", "step_averaged")


def _result_size(args, kwargs, result):
    return result.size


def _state_size(args, kwargs, result):
    # coupled steps return a CoupledState, the others a slow-state array
    return getattr(result, "x", result).size


def _to_grid_flops(args, kwargs, result):
    # (n, J) @ (J, M): one multiply and one add per entry of the product sum
    return 2 * result.size * args[0].J


def _to_coeffs_flops(args, kwargs, result):
    return 2 * result.size * args[0].M


def _bytes_written(args, kwargs, result):
    files = args[1] if len(args) > 1 else kwargs["files"]
    return sum(len(content.encode()) for content in files.values())


def _counters():
    """Work counted at the boundary of the function that does it."""
    moments = importlib.import_module("slowfast.moments")
    signature = inspect.signature(moments.second_moment_recursion)

    def mode_steps(args, kwargs, result):
        # binding is slow, but the recursion is called a few hundred times a round
        bound = signature.bind(*args, **kwargs).arguments
        return int(bound["N"]) * int(np.size(bound["lam"]))

    return {
        "noise.sample_cylindrical_batch": _result_size,
        "nonlinearity.eval_F": _result_size,
        "nonlinearity.GridTransform.to_grid": _to_grid_flops,
        "nonlinearity.GridTransform.to_coeffs": _to_coeffs_flops,
        "moments.second_moment_recursion": mode_steps,
        "cli._write_outputs": _bytes_written,
        **{f"integrators.{name}": _state_size for name in STEP_FUNCTIONS},
    }


class Span:
    __slots__ = ("name", "layer", "span_id", "parent_id", "task_id", "thread", "t0", "t1",
                 "child", "count")

    def __init__(self, name, layer, span_id, parent_id, task_id, thread):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.parent_id = parent_id
        self.task_id = task_id
        self.thread = thread
        self.child = 0.0
        self.count = 0


class Task:
    """One call the benchmark makes into the package, timed by the benchmark."""

    __slots__ = ("task_id", "name", "t0", "t1", "threaded")

    def __init__(self, task_id, name):
        self.task_id = task_id
        self.name = name
        self.threaded = False


class _PoolRecord:
    __slots__ = ("workers", "t0", "t1", "busy", "wait")

    def __init__(self, workers):
        self.workers = workers
        self.t0 = perf_counter()
        self.t1 = self.t0
        self.busy = 0.0
        self.wait = 0.0


def _traced_targets():
    """(layer, qualified name, owner, attribute) of every function to trace."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"slowfast.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets.append((layer, f"{layer}.{name}", mod, name))
    nl = importlib.import_module("slowfast.nonlinearity")
    for method in ("to_grid", "to_coeffs"):
        targets.append(("nonlinearity", f"nonlinearity.GridTransform.{method}",
                        nl.GridTransform, method))
    # scipy's expm as bound in slowfast.moments, and the CLI's atomic writer
    targets.append(("moments", "moments.expm", importlib.import_module("slowfast.moments"), "expm"))
    targets.append(("cli", "cli._write_outputs", importlib.import_module("slowfast.cli"),
                    "_write_outputs"))
    return targets


class Tracer:
    def __init__(self, cli_subcommands):
        """cli_subcommands: the `cli.<name>` tasks whose median time is reported."""
        self.cli_subcommands = cli_subcommands
        self.spans = []
        self.tasks = []
        self.pools = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- tasks -----------------------------------------------------------

    def begin_task(self, name):
        task = Task(next(self._ids), name)
        self._local.task = task.task_id
        self._local.current_task = task
        task.t0 = perf_counter()
        return task

    def end_task(self, task):
        task.t1 = perf_counter()
        self.tasks.append(task)
        self._local.task = 0
        self._local.current_task = None

    def reset(self):
        """Forget recorded spans, tasks and pools; returns the old ones."""
        old = (self.spans, self.tasks, self.pools)
        self.spans, self.tasks, self.pools = [], [], []
        return old

    # -- patching --------------------------------------------------------

    def install(self):
        import slowfast

        modules = [slowfast] + [importlib.import_module(f"slowfast.{layer}") for layer in LAYERS]
        counters = _counters()
        for layer, qualname, owner, attr in _traced_targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, qualname, original, counters.get(qualname))
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        harness = importlib.import_module("slowfast.harness")
        self._patch(harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor, self._pool_class())

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, layer, qualname, fn, counter):
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
            parent = stack[-1].span_id if stack else getattr(local, "parent", 0)
            span = Span(qualname, layer, next(ids), parent, getattr(local, "task", 0),
                        threading.get_ident())
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.t1 - span.t0
                self.spans.append(span)
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return traced

    def _pool_class(self):
        tracer = self
        local = self._local

        class TracedThreadPool(ThreadPoolExecutor):
            """Hands the caller's task and span to workers; times the caller's waits."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                stack = local.__dict__.get("stack") or []
                self._trace_parent = stack[-1].span_id if stack else 0
                self._trace_task = getattr(local, "task", 0)
                task = getattr(local, "current_task", None)
                if task is not None:
                    task.threaded = True
                self._trace_record = _PoolRecord(self._max_workers)
                tracer.pools.append(self._trace_record)

            def submit(self, fn, /, *args, **kwargs):
                task, parent, record = self._trace_task, self._trace_parent, self._trace_record

                def run(*a, **k):
                    local.task, local.parent = task, parent
                    t0 = perf_counter()
                    try:
                        return fn(*a, **k)
                    finally:
                        busy = perf_counter() - t0
                        with tracer._lock:
                            record.busy += busy
                        local.task, local.parent = 0, 0

                return super().submit(run, *args, **kwargs)

            def map(self, fn, *iterables, timeout=None, chunksize=1):
                results = super().map(fn, *iterables, timeout=timeout, chunksize=chunksize)
                return tracer._timed_waits(results, self._trace_record)

            def __exit__(self, *exc):
                t0 = perf_counter()
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._add_wait(self._trace_record, perf_counter() - t0)
                    self._trace_record.t1 = perf_counter()

        return TracedThreadPool

    def _timed_waits(self, results, record):
        while True:
            t0 = perf_counter()
            try:
                value = next(results)
            except StopIteration:
                self._add_wait(record, perf_counter() - t0)
                return
            self._add_wait(record, perf_counter() - t0)
            yield value

    def _add_wait(self, record, seconds):
        # waiting is not work: it is taken out of the caller's self time
        record.wait += seconds
        stack = self._local.__dict__.get("stack")
        if stack:
            stack[-1].child += seconds

    # -- reduction -------------------------------------------------------

    def summary(self, spans, tasks, pools):
        """Per-layer metrics of one traced round."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        counts = defaultdict(int)
        layer_self = defaultdict(float)
        roots = defaultdict(float)
        for s in spans:
            own = (s.t1 - s.t0) - s.child
            calls[s.name] += 1
            self_s[s.name] += own
            counts[s.name] += s.count
            layer_self[s.layer] += own
            if s.parent_id == 0:
                roots[s.task_id] += s.t1 - s.t0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]

        noise = "noise.sample_cylindrical_batch"
        m["noise.calls"] = calls[noise]
        m["noise.normals"] = counts[noise]
        m["noise.ns_per_normal"] = _ratio(layer_self["noise"] * 1e9, counts[noise])

        m["nonlinearity.eval_F.self_s"] = self_s["nonlinearity.eval_F"]
        m["nonlinearity.eval_F.ns_per_sample_mode"] = _ratio(
            self_s["nonlinearity.eval_F"] * 1e9, counts["nonlinearity.eval_F"])
        for method in ("to_grid", "to_coeffs"):
            m[f"nonlinearity.{method}.self_s"] = self_s[f"nonlinearity.GridTransform.{method}"]
        flops = (counts["nonlinearity.GridTransform.to_grid"]
                 + counts["nonlinearity.GridTransform.to_coeffs"])
        m["nonlinearity.collocation.flops_computed"] = flops
        m["nonlinearity.collocation.gflops"] = _ratio(
            flops / 1e9, m["nonlinearity.to_grid.self_s"] + m["nonlinearity.to_coeffs.self_s"])
        m["nonlinearity.eval_Fbar.calls"] = calls["nonlinearity.eval_Fbar"]
        m["nonlinearity.eval_Fbar.self_s"] = self_s["nonlinearity.eval_Fbar"]
        m["nonlinearity.pointwise_variance.calls"] = calls["nonlinearity.pointwise_variance"]

        m["integrators.run_trajectory_batch.self_s"] = self_s["integrators.run_trajectory_batch"]
        step_self = step_work = 0
        for name in STEP_FUNCTIONS:
            key = f"integrators.{name}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.self_s"] = self_s[key]
            step_self += self_s[key]
            step_work += counts[key]
        m["integrators.step.ns_per_sample_step_mode"] = _ratio(step_self * 1e9, step_work)
        m["integrators.solve_averaged_reference.self_s"] = self_s[
            "integrators.solve_averaged_reference"]

        m["spectral.check_field.calls"] = calls["spectral.check_field"]
        m["spectral.modified_operators.calls"] = calls["spectral.modified_operators"]

        for name in ("second_moment_recursion", "continuous_second_moment"):
            m[f"moments.{name}.calls"] = calls[f"moments.{name}"]
            m[f"moments.{name}.self_s"] = self_s[f"moments.{name}"]
        m["moments.recursion.mode_steps"] = counts["moments.second_moment_recursion"]
        m["moments.expm.calls"] = calls["moments.expm"]

        m["harness.mc_estimate.self_s"] = self_s["harness.mc_estimate"]
        m["harness.pool_wait_s"] = sum(p.wait for p in pools)
        m["harness.parallel_efficiency"] = _ratio(
            sum(p.busy for p in pools), sum((p.t1 - p.t0) * p.workers for p in pools))
        m["harness.evaluate_functional.self_s"] = self_s["harness.evaluate_functional"]
        m["harness.oracle_weak_value.calls"] = calls["harness.oracle_weak_value"]

        m["cli.bytes_written"] = counts["cli._write_outputs"]
        for sub in self.cli_subcommands:
            durations = [t.t1 - t.t0 for t in tasks if t.name == f"cli.{sub}"]
            m[f"cli.{sub}_s"] = statistics.median(durations) if durations else 0.0

        # On single-threaded tasks the self times of all layers add up to the
        # root spans' time; the rest of the task is benchmark-side overhead.
        single = [t for t in tasks if not t.threaded]
        task_time = sum(t.t1 - t.t0 for t in single)
        m["trace.coverage"] = _ratio(sum(roots[t.task_id] for t in single), task_time)
        return m

    def dump(self, path, spans, tasks):
        """Write spans and tasks as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for t in tasks:
                f.write(json.dumps({"task": t.task_id, "name": t.name, "t0": t.t0, "t1": t.t1,
                                    "threaded": t.threaded}) + "\n")
            for s in spans:
                f.write(json.dumps({"span": s.span_id, "parent": s.parent_id, "task": s.task_id,
                                    "name": s.name, "thread": s.thread, "t0": s.t0, "t1": s.t1,
                                    "self": (s.t1 - s.t0) - s.child, "count": s.count}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
