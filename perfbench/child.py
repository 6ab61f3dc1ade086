"""One measuring process of the benchmark; ``run.py`` starts it.

Both modes time the import of ``reset_sde.cli`` from the moment the
parent started this interpreter.  Plain mode then runs one cold and one
warm pass of the workload, checking each pass's output outside the timed
region.
Trace mode runs a cold and a warm untraced pass, one traced pass and a
last untraced pass, then derives the per-layer metrics, replays the
traced pass's walk-kernel inputs on each kernel backend and times its
first ensemble at one and two threads.  Both modes print one JSON
object as its last line of output.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "trace"], required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: where to write spans")
    parser.add_argument("--compiled-kernel",
                        help="trace mode: a built compiled walk kernel")
    args = parser.parse_args(argv)

    import reset_sde.cli  # noqa: F401  (the set-up being timed)
    setup_s = time.time() - args.spawned

    import numpy
    import scipy
    from reset_sde import _kernels
    import workloads

    runner = Runner(workloads.WORKLOADS[args.workload](args.seed, args.workdir))
    try:
        if args.mode == "plain":
            result = runner.plain()
        else:
            result = runner.traced(args)
    finally:
        runner.workload.cleanup()
    result.update(setup_s=setup_s, attempted=runner.attempted,
                  failed=runner.failed, failures=runner.failures,
                  versions={"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "scipy": scipy.__version__},
                  kernel_backend=_kernels.BACKEND)
    print(json.dumps(result))
    return 0


class Runner:
    """Runs passes of one workload and tallies its operations."""

    MAX_REPORTED_FAILURES = 5

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def one_pass(self):
        self.workload.prepare()
        gc.collect()
        start = time.perf_counter()
        results = self.workload.run_pass()
        return time.perf_counter() - start, results

    def judge(self, results):
        failures = self.workload.check_pass(results)
        for name, _ in self.workload.ops:
            self.record(name, failures.get(name))

    def record(self, name, problems):
        """Count one operation; it failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < self.MAX_REPORTED_FAILURES:
                self.failures.append({"op": name, "problems": problems})

    def plain(self):
        cold, results = self.one_pass()
        # Peak memory of import plus one pass, before any check runs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.judge(results)
        warm, results = self.one_pass()
        self.judge(results)
        return {"cold_s": cold, "wall_s": warm, "peak_rss_mb": peak_rss_mb}

    def traced(self, args):
        import tracing

        untraced = []
        for _ in range(2):  # a cold pass, then a warm one
            elapsed, results = self.one_pass()
            untraced.append(elapsed)
            self.judge(results)

        tracer = tracing.Tracer()
        installation = tracing.Installation(tracer, REPLAY_STEPS)
        try:
            self.workload.prepare()
            with tracer.root(pass_id=len(untraced)):
                results = self.workload.run_pass()
        finally:
            installation.uninstall()
        root = tracer.spans[0]
        traced_s = root[tracing.END] - root[tracing.START]
        metrics = tracing.layer_metrics(tracer.spans, installation.layers,
                                        installation.integrate.quad_calls,
                                        traced_s)
        self.judge(results)
        drift = abs(metrics["trace.self_sum_over_wall"] - 1.0)
        self.record("trace-self-times", drift > SELF_SUM_TOL and [
            f"self times differ from the traced wall by {drift:.2e}"])

        # Another warm untraced pass after the traced one, so the overhead
        # compares the traced pass with its neighbours.
        elapsed, results = self.one_pass()
        untraced.append(elapsed)
        self.judge(results)
        metrics["trace.wall_s"] = traced_s
        metrics["trace.untraced_wall_s"] = min(untraced[1:])
        metrics["trace.overhead_frac"] = traced_s / min(untraced[1:]) - 1.0

        replay = replay_kernels(tracing.kernel_inputs(tracer.spans),
                                args.compiled_kernel)
        metrics.update(replay["metrics"])
        self.record("kernel-crosscheck", replay["mismatch"] and [replay["mismatch"]])
        metrics["simulate.threads2_speedup"] = threads2_speedup(
            tracing.first_ensemble_call(tracer.spans))
        tracer.write(args.spans, self.workload.name, self.workload.seed)
        metrics["failed_frac"] = self.failed / self.attempted
        return {"metrics": metrics, "compiled_kernel": replay["compiled"]}


# Self times of a pass must add up to its traced wall time to this share.
SELF_SUM_TOL = 1e-6
# Kernel steps whose inputs the traced pass keeps for the replay.
REPLAY_STEPS = 4_000_000
REPLAY_REPEATS = 3


def _load_compiled(path):
    """The compiled walk module: built in-tree, else the one at ``path``."""
    try:
        from reset_sde._kernels import _walk
        return _walk, "in-tree"
    except ImportError:
        pass
    if not path or not os.path.exists(path):
        return None, "unavailable"
    import importlib.util
    spec = importlib.util.spec_from_file_location("reset_sde._kernels._walk", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, "built by the benchmark"


def _time_backend(impl, calls):
    """Best-of-repeats time of ``calls`` on one backend, and its outputs."""
    import numpy as np

    prepared = []
    for batched, (x0, x_reset, increments, flags) in calls:
        increments = np.ascontiguousarray(increments, dtype=np.float64)
        flags = np.ascontiguousarray(flags, dtype=np.uint8)
        out = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
        fn = impl.resetting_walk_batch if batched else impl.resetting_walk
        prepared.append((fn, float(x0), float(x_reset), increments, flags, out))
    best = float("inf")
    for _ in range(REPLAY_REPEATS):
        start = time.perf_counter()
        for fn, x0, x_reset, increments, flags, out in prepared:
            fn(x0, x_reset, increments, flags, out)
        best = min(best, time.perf_counter() - start)
    return best, [p[-1] for p in prepared]


def replay_kernels(calls, compiled_path):
    """Time the pass's own kernel inputs on both backends and require
    bit-identical output, as ``benchmarks/bench_kernels.py`` does."""
    import numpy as np
    from reset_sde._kernels import _walk_py

    steps = sum(int(np.size(args[2])) for _, args in calls)
    metrics = {"kernels.replay_steps": steps,
               "kernels.replay_python_ns_per_step": 0.0,
               "kernels.replay_compiled_ns_per_step": 0.0}
    compiled, origin = _load_compiled(compiled_path)
    mismatch = None
    if steps:
        py_s, py_out = _time_backend(_walk_py, calls)
        metrics["kernels.replay_python_ns_per_step"] = py_s / steps * 1e9
        if compiled is not None:
            c_s, c_out = _time_backend(compiled, calls)
            metrics["kernels.replay_compiled_ns_per_step"] = c_s / steps * 1e9
            if not all(np.array_equal(a, b) for a, b in zip(py_out, c_out)):
                mismatch = "compiled and numpy kernels differ"
    return {"metrics": metrics, "mismatch": mismatch, "compiled": origin}


def threads2_speedup(call):
    """The pass's first ensemble at threads=1 over threads=2 (best of two
    each); 0 when the pass runs no ensemble or ``threads`` is gone."""
    import inspect
    from reset_sde.simulate import run_ensemble

    if call is None or "threads" not in inspect.signature(run_ensemble).parameters:
        return 0.0
    args, kwargs = call
    kwargs = dict(kwargs)
    if len(args) > 5:
        kwargs["keep"] = args[5]
    args = args[:4]
    best = {}
    for threads in (1, 2, 1, 2):
        kwargs["threads"] = threads
        start = time.perf_counter()
        run_ensemble(*args, **kwargs)
        elapsed = time.perf_counter() - start
        best[threads] = min(best.get(threads, elapsed), elapsed)
    return best[1] / best[2]


if __name__ == "__main__":
    sys.exit(main())
