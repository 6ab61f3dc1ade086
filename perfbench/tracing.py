"""Span recording around the public functions of each reset_sde module.

The wrappers live here, not in the program: ``Installation`` replaces
every binding of a target function in the loaded ``reset_sde`` modules
(modules import each other's functions by name) and ``uninstall`` puts
the originals back.  Each call records one span ``[name, start, end,
parent, pass_id, extra]`` in memory; ``extra`` holds the counts a
per-layer metric needs, taken from the call's arguments and result (None
when the call raised).  Spans are written once, at the end of the traced
run.

The layer of a span is its module, except that the CSV and manifest
writers form the ``write`` layer and the root span of a pass is ``bench``
(benchmark glue plus program code no wrapper covers).  A span's self time
is its duration minus the time its children cover, so the self times of
one pass add up to the pass's traced wall time.
"""

import functools
import json
import math
import sys
import time

import numpy as np

from reset_sde import analytic, cli, clocks, core, fpe, simulate, stats
from reset_sde import _kernels
from reset_sde.core import NonhomogeneousPoissonClock, PoissonClock

NAME, START, END, PARENT, PASS, EXTRA = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = 0

    def wrap(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extract is not None:
                span[EXTRA] = extract(args, kwargs, out)
            return out

        return traced

    def root(self, pass_id):
        """Context manager for the root span of one pass."""
        self.pass_id = pass_id
        return _Root(self)

    def write(self, path, workload, seed):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "workload": workload, "seed": seed,
                    "pass": s[PASS]}) + "\n")


class _Root:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(["bench.pass", time.perf_counter(), 0.0, -1,
                        t.pass_id, None])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][END] = time.perf_counter()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Counts taken from arguments and results
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, key, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(key, default)


def _expected_resets(clock, horizon):
    if isinstance(clock, PoissonClock):
        return clock.rate * horizon
    if isinstance(clock, NonhomogeneousPoissonClock):
        f = clocks.IntensityFunction(clock.rate, clock.exponent)
        return clocks.cumulative_intensity(f, horizon)
    return None


def _x_sampler(a, k, out):
    return {"resets": len(out),
            "expected": _expected_resets(a[0], _arg(a, k, 1, "horizon"))}


def _kernel_extractor(replay_steps):
    """Counts kernel steps and keeps the inputs of the first calls, up to
    ``replay_steps`` steps, for the backend cross-check."""
    left = [replay_steps]

    def extract(a, k, out):
        steps = int(np.size(a[2]))
        keep = steps <= left[0]
        left[0] -= steps if keep else 0
        return {"steps": steps, "inputs": a if keep else None}

    return extract


def _x_run_ensemble(a, k, out):
    n = _arg(a, k, 2, "n")
    keep = _arg(a, k, 4, "keep", "full")
    kept = n * len(out.grid) if keep == "grid" else sum(
        len(tr.times) for tr in out.trajectories)
    return {"n": n, "kept": kept, "call": (a, dict(k))}


def _x_euler_marginal(a, k, out):
    ts = np.atleast_1d(np.asarray(_arg(a, k, 1, "ts"), dtype=float))
    dt, n = _arg(a, k, 2, "dt"), _arg(a, k, 3, "n")
    return {"steps": n * int(round(ts.max() / dt)), "kept": n * len(ts)}


def _x_size(i, key):
    return lambda a, k, out: {"points": int(np.size(_arg(a, k, i, key)))}


def _x_marginal(a, k, out):
    return {"draws": int(_arg(a, k, 2, "n"))}


def _x_fpe(a, k, out):
    grid, t_final = a[1], a[2]
    return {"nodes": len(out.xs), "steps": max(1, int(round(t_final / grid.dt)))}


def _x_ks(a, k, out):
    return {"samples": len(a[0])}


def _x_path(i):
    """A writer's output path: its argument ``i``, or its return value."""
    return lambda a, k, out: {"path": out if i is None else a[i]}


KERNEL = "kernel"  # extract placeholder, see Installation

# (module, attribute, layer, extract).  Class methods use the class as the
# namespace.  Inner helpers called per quadrature point are left unwrapped,
# because a span per call would cost more than the work it measures.
TARGETS = [
    (cli, "main", "cli", None),
    (cli, "_write_manifest", "write", _x_path(None)),
    (cli, "_curve_csv", "write", _x_path(None)),
    (simulate, "ensemble_to_csv", "write", _x_path(1)),
    (simulate, "resets_to_csv", "write", _x_path(1)),
    (analytic.DensityCurve, "to_csv", "write", _x_path(1)),
    (analytic.MomentTable, "to_csv", "write", _x_path(1)),
    (simulate, "run_ensemble", "simulate", _x_run_ensemble),
    (simulate, "simulate_exact", "simulate", None),
    (simulate, "simulate_euler", "simulate", None),
    (simulate, "marginal_samples", "simulate", _x_marginal),
    (simulate, "euler_marginal_samples", "simulate", _x_euler_marginal),
    (clocks, "sample_reset_times", "clocks", _x_sampler),
    (_kernels, "walk", "kernels", KERNEL),
    (_kernels, "walk_batch", "kernels", KERNEL),
    (analytic, "npp_pdf", "analytic", _x_size(1, "x")),
    (analytic, "npp_char_fn", "analytic", None),
    (analytic, "npp_msd", "analytic", None),
    (analytic, "pdf", "analytic", None),
    (analytic, "char_fn", "analytic", None),
    (analytic, "mgf", "analytic", None),
    (analytic, "nth_moment", "analytic", None),
    (analytic, "moment_from_mgf", "analytic", None),
    (analytic, "stationary_pdf", "analytic", None),
    (fpe, "solve_fpe_evans", "fpe", _x_fpe),
    (fpe, "solve_fpe_delta_fl", "fpe", _x_fpe),
    (fpe, "stationary_fpe", "fpe", None),
    (fpe, "apply_generator", "fpe", None),
    (fpe, "apply_adjoint", "fpe", None),
    (stats, "ks_distance", "stats", _x_ks),
    (stats, "analytic_cdf", "stats", None),
    (stats, "empirical_msd", "stats", None),
    (stats, "fit_power_law_exponent", "stats", None),
    (core, "validate_spec", "core", None),
    (core.Ensemble, "positions_at", "core", None),
]

CLOSED_FORMS = ("pdf", "char_fn", "mgf", "nth_moment", "moment_from_mgf")


class _CountingIntegrate:
    """Stands in for the ``integrate`` module that ``analytic`` looks up,
    counting ``quad`` calls."""

    def __init__(self, real):
        self._real = real
        self.quad_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        return self._real.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def span_name(namespace, attr):
    if isinstance(namespace, type):
        return f"{namespace.__module__.rsplit('.', 1)[-1]}.{namespace.__name__}.{attr}"
    return f"{namespace.__name__.rsplit('.', 1)[-1]}.{attr}"


class Installation:
    """Wrappers installed into the loaded reset_sde modules."""

    def __init__(self, tracer, replay_steps=0):
        self.layers = {"bench.pass": "bench"}
        kernel_extract = _kernel_extractor(replay_steps)
        self._restore = []
        self.integrate = _CountingIntegrate(analytic.integrate)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "reset_sde" or name.startswith("reset_sde.")]
        for namespace, attr, layer, extract in TARGETS:
            original = getattr(namespace, attr)
            name = span_name(namespace, attr)
            self.layers[name] = layer
            if extract is KERNEL:
                extract = kernel_extract
            wrapper = tracer.wrap(name, original, extract)
            homes = [namespace] if isinstance(namespace, type) else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        self._restore.append((home, key, value))
                        setattr(home, key, wrapper)
        self._restore.append((analytic, "integrate", analytic.integrate))
        analytic.integrate = self.integrate

    def uninstall(self):
        for home, key, value in reversed(self._restore):
            setattr(home, key, value)
        self._restore = []


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Duration of each span minus the time its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c][START], s[START]), min(spans[c][END], s[END]))
            for c in children[i])
        out.append(s[END] - s[START] - covered)
    return out


def busy_time(spans, names):
    """Time covered by spans with the given names (nested ones once)."""
    return _union_length((s[START], s[END]) for s in spans if s[NAME] in names)


def layer_metrics(spans, layers, quad_calls, wall_s):
    """Per-layer metrics of one traced pass; see ``metrics.PER_LAYER``."""
    selfs = self_times(spans)
    by_name = {}
    self_by_name = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s[NAME], []).append(s)
        self_by_name[s[NAME]] = self_by_name.get(s[NAME], 0.0) + st

    def calls(name):
        return len(by_name.get(name, ()))

    def extras(name, key):
        return [s[EXTRA][key] for s in by_name.get(name, ())
                if s[EXTRA] is not None and s[EXTRA][key] is not None]

    def busy(*names):
        return busy_time(spans, set(names))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    layer_self = {}
    for name, st in self_by_name.items():
        layer = layers[name]
        layer_self[layer] = layer_self.get(layer, 0.0) + st

    m = {}
    writers = [n for n, layer in layers.items() if layer == "write"]
    rows = nbytes = 0
    for name in writers:
        for path in extras(name, "path"):
            with open(path, "rb") as fh:
                data = fh.read()
            nbytes += len(data)
            if path.endswith(".csv"):
                rows += data.count(b"\n") - 1
    write_s = layer_self.get("write", 0.0)
    m["cli.calls"] = calls("cli.main")
    m["cli.self_s"] = layer_self.get("cli", 0.0)
    m["cli.write_s"] = write_s
    m["cli.write_rows"] = rows
    m["cli.write_bytes"] = nbytes
    m["cli.write_us_per_row"] = ratio(write_s, rows, 1e6)

    trajectories = sum(extras("simulate.run_ensemble", "n"))
    ensemble_s = busy("simulate.run_ensemble")
    m["simulate.self_s"] = layer_self.get("simulate", 0.0)
    m["simulate.run_ensemble_self_s"] = self_by_name.get("simulate.run_ensemble", 0.0)
    m["simulate.trajectories"] = trajectories
    m["simulate.simulate_exact_calls"] = calls("simulate.simulate_exact")
    m["simulate.simulate_exact_self_s"] = self_by_name.get("simulate.simulate_exact", 0.0)
    m["simulate.us_per_trajectory"] = ratio(ensemble_s, trajectories, 1e6)
    m["simulate.marginal_samples_s"] = busy("simulate.marginal_samples")
    m["simulate.marginal_draws"] = sum(extras("simulate.marginal_samples", "draws"))
    m["simulate.euler_marginal_s"] = busy("simulate.euler_marginal_samples")
    m["simulate.euler_steps"] = sum(extras("simulate.euler_marginal_samples", "steps"))

    sampler_calls = calls("clocks.sample_reset_times")
    sampler_s = busy("clocks.sample_reset_times")
    m["clocks.self_s"] = layer_self.get("clocks", 0.0)
    m["clocks.sample_reset_times_calls"] = sampler_calls
    m["clocks.sample_reset_times_s"] = sampler_s
    m["clocks.resets_drawn"] = sum(extras("clocks.sample_reset_times", "resets"))
    m["clocks.resets_expected"] = sum(extras("clocks.sample_reset_times", "expected"))
    m["clocks.us_per_call"] = ratio(sampler_s, sampler_calls, 1e6)

    steps = sum(extras("_kernels.walk", "steps")) + sum(
        extras("_kernels.walk_batch", "steps"))
    kernel_s = busy("_kernels.walk", "_kernels.walk_batch")
    kept = (sum(extras("simulate.run_ensemble", "kept"))
            + sum(extras("simulate.euler_marginal_samples", "kept")))
    m["kernels.self_s"] = layer_self.get("kernels", 0.0)
    m["kernels.walk_calls"] = calls("_kernels.walk")
    m["kernels.walk_batch_calls"] = calls("_kernels.walk_batch")
    m["kernels.steps"] = steps
    m["kernels.s"] = kernel_s
    m["kernels.ns_per_step"] = ratio(kernel_s, steps, 1e9)
    m["kernels.bytes_computed"] = 25 * steps
    m["kernels.kept_over_walked"] = ratio(kept, steps)
    m["kernels.share_of_wall"] = ratio(kernel_s, wall_s)

    pdf_s, pdf_points = busy("analytic.npp_pdf"), sum(extras("analytic.npp_pdf", "points"))
    m["analytic.self_s"] = layer_self.get("analytic", 0.0)
    m["analytic.npp_pdf_s"] = pdf_s
    m["analytic.npp_pdf_points"] = pdf_points
    m["analytic.us_per_point"] = ratio(pdf_s, pdf_points, 1e6)
    m["analytic.quad_calls"] = quad_calls
    m["analytic.closed_form_s"] = busy(*(f"analytic.{n}" for n in CLOSED_FORMS))

    solves = ("fpe.solve_fpe_evans", "fpe.solve_fpe_delta_fl")
    node_steps = sum(s[EXTRA]["nodes"] * s[EXTRA]["steps"]
                     for n in solves for s in by_name.get(n, ())
                     if s[EXTRA] is not None)
    solve_s = busy(*solves)
    m["fpe.self_s"] = layer_self.get("fpe", 0.0)
    m["fpe.solves"] = sum(calls(n) for n in solves)
    m["fpe.solve_s"] = solve_s
    m["fpe.steps"] = sum(sum(extras(n, "steps")) for n in solves)
    m["fpe.nodes"] = sum(sum(extras(n, "nodes")) for n in solves)
    m["fpe.ns_per_node_step"] = ratio(solve_s, node_steps, 1e9)
    m["fpe.stationary_s"] = busy("fpe.stationary_fpe")

    m["stats.self_s"] = layer_self.get("stats", 0.0)
    m["stats.ks_calls"] = calls("stats.ks_distance")
    m["stats.ks_samples"] = sum(extras("stats.ks_distance", "samples"))
    m["stats.ks_s"] = busy("stats.ks_distance")
    m["stats.analytic_cdf_s"] = busy("stats.analytic_cdf")

    validations = calls("core.validate_spec")
    m["core.self_s"] = layer_self.get("core", 0.0)
    m["core.validate_spec_calls"] = validations
    m["core.validate_spec_per_trajectory"] = ratio(validations, trajectories)

    m["bench.self_s"] = layer_self.get("bench", 0.0)
    m["trace.spans"] = len(spans)
    m["trace.self_sum_over_wall"] = ratio(sum(selfs), wall_s)
    return m


def kernel_inputs(spans):
    """(batched, arguments) of the kernel calls whose inputs were kept."""
    return [(s[NAME] == "_kernels.walk_batch", s[EXTRA]["inputs"])
            for s in spans
            if s[NAME] in ("_kernels.walk", "_kernels.walk_batch")
            and s[EXTRA] is not None and s[EXTRA]["inputs"] is not None]


def first_ensemble_call(spans):
    for s in spans:
        if s[NAME] == "simulate.run_ensemble" and s[EXTRA] is not None:
            return s[EXTRA]["call"]
    return None
