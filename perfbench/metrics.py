"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` repeats the name, unit and direction of each entry (a
test keeps the two in step).  The ``moves`` field of a per-layer metric
is the prediction written down before measuring: the end-to-end metric
and workloads it should move.  On a workload it does not name, the
prediction is no change.  Group ``kernels`` is the ``reset_sde._kernels``
package; metric names must start with a letter or digit.
"""

import re

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

_CLI = "wall_s and cold_s on simulate"
_SIM = "wall_s on simulate and validate; peak_rss_mb on simulate"
_CLOCKS = "wall_s on simulate and validate"
_KERNELS = "wall_s a little on simulate and validate"
_ANALYTIC = "wall_s on validate"
_FPE = "wall_s a little on validate"
_STATS = "wall_s on validate"
_CORE = "wall_s on simulate and validate"
_IMPORT = "setup_s on all workloads"
_TRACE = "none: describes the traced run itself"

# name, unit, better, moves
PER_LAYER = [
    ("cli.calls", "count", "lower", _CLI),
    ("cli.self_s", "s", "lower", _CLI),
    ("cli.write_s", "s", "lower", _CLI),
    ("cli.write_rows", "count", "higher", _CLI),
    ("cli.write_bytes", "B", "lower", _CLI),
    ("cli.write_us_per_row", "us", "lower", _CLI),
    ("simulate.self_s", "s", "lower", _SIM),
    ("simulate.run_ensemble_self_s", "s", "lower", _SIM),
    ("simulate.trajectories", "count", "higher", _SIM),
    ("simulate.simulate_exact_calls", "count", "lower", _SIM),
    ("simulate.simulate_exact_self_s", "s", "lower", _SIM),
    ("simulate.us_per_trajectory", "us", "lower", _SIM),
    ("simulate.marginal_samples_s", "s", "lower", _SIM),
    ("simulate.marginal_draws", "count", "higher", _SIM),
    ("simulate.euler_marginal_s", "s", "lower", _SIM),
    ("simulate.euler_steps", "count", "lower", _SIM),
    ("simulate.threads2_speedup", "ratio", "higher", _SIM),
    ("clocks.self_s", "s", "lower", _CLOCKS),
    ("clocks.sample_reset_times_calls", "count", "lower", _CLOCKS),
    ("clocks.sample_reset_times_s", "s", "lower", _CLOCKS),
    ("clocks.resets_drawn", "count", "lower", _CLOCKS),
    ("clocks.resets_expected", "count", "lower", _CLOCKS),
    ("clocks.us_per_call", "us", "lower", _CLOCKS),
    ("kernels.self_s", "s", "lower", _KERNELS),
    ("kernels.walk_calls", "count", "lower", _KERNELS),
    ("kernels.walk_batch_calls", "count", "lower", _KERNELS),
    ("kernels.steps", "count", "lower", _KERNELS),
    ("kernels.s", "s", "lower", _KERNELS),
    ("kernels.ns_per_step", "ns", "lower", _KERNELS),
    ("kernels.bytes_computed", "B", "lower", _KERNELS),
    ("kernels.kept_over_walked", "ratio", "higher", _KERNELS),
    ("kernels.share_of_wall", "ratio", "lower", _KERNELS),
    ("kernels.replay_steps", "count", "higher", _KERNELS),
    ("kernels.replay_python_ns_per_step", "ns", "lower", _KERNELS),
    ("kernels.replay_compiled_ns_per_step", "ns", "lower", _KERNELS),
    ("analytic.self_s", "s", "lower", _ANALYTIC),
    ("analytic.npp_pdf_s", "s", "lower", _ANALYTIC),
    ("analytic.npp_pdf_points", "count", "higher", _ANALYTIC),
    ("analytic.us_per_point", "us", "lower", _ANALYTIC),
    ("analytic.quad_calls", "count", "lower", _ANALYTIC),
    ("analytic.closed_form_s", "s", "lower", _ANALYTIC),
    ("fpe.self_s", "s", "lower", _FPE),
    ("fpe.solves", "count", "higher", _FPE),
    ("fpe.solve_s", "s", "lower", _FPE),
    ("fpe.steps", "count", "lower", _FPE),
    ("fpe.nodes", "count", "lower", _FPE),
    ("fpe.ns_per_node_step", "ns", "lower", _FPE),
    ("fpe.stationary_s", "s", "lower", _FPE),
    ("stats.self_s", "s", "lower", _STATS),
    ("stats.ks_calls", "count", "higher", _STATS),
    ("stats.ks_samples", "count", "higher", _STATS),
    ("stats.ks_s", "s", "lower", _STATS),
    ("stats.analytic_cdf_s", "s", "lower", _STATS),
    ("core.self_s", "s", "lower", _CORE),
    ("core.validate_spec_calls", "count", "lower", _CORE),
    ("core.validate_spec_per_trajectory", "ratio", "lower", _CORE),
    ("import.reset_sde_s", "s", "lower", _IMPORT),
    ("import.numpy_s", "s", "lower", _IMPORT),
    ("import.scipy_s", "s", "lower", _IMPORT),
    ("bench.self_s", "s", "lower", _TRACE),
    ("failed_frac", "ratio", "lower", "the failed/attempted share of the traced run"),
    ("trace.wall_s", "s", "lower", _TRACE),
    ("trace.untraced_wall_s", "s", "lower", _TRACE),
    ("trace.overhead_frac", "ratio", "lower", _TRACE),
    ("trace.spans", "count", "lower", _TRACE),
    ("trace.self_sum_over_wall", "ratio", "higher", _TRACE),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
