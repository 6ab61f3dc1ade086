"""Tests of the benchmark itself: workloads, output checks, span arithmetic,
metric names and the command's refusals.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reset_sde import simulate  # noqa: E402
from reset_sde.core import NonhomogeneousPoissonClock, ProcessSpec  # noqa: E402


# ---------------------------------------------------------------------------
# Smoke-size passes
# ---------------------------------------------------------------------------

def _one_pass(cls, tmp_path, seed=3):
    wl = cls(seed, str(tmp_path / cls.name))
    wl.prepare()
    results = wl.run_pass()
    assert not [r for r in results.values() if isinstance(r, Exception)]
    return wl, results, wl.check_pass(results)


def test_simulate_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Simulate, "N", 40)
    _, _, failures = _one_pass(workloads.Simulate, tmp_path)
    assert failures == {}


def test_validate_smoke(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Validate, "SUITES", ("fpe-agreement", "dynkin"))
    _, _, failures = _one_pass(workloads.Validate, tmp_path)
    assert failures == {}


def test_inputs_follow_the_seed():
    assert workloads._program_seeds(5, 4) == workloads._program_seeds(5, 4)
    assert workloads._program_seeds(5, 4) != workloads._program_seeds(6, 4)


def test_a_raising_operation_counts_as_failed(tmp_path):
    wl = workloads.Validate(1, str(tmp_path))
    wl.ops = [("boom", lambda: 1 / 0)]
    failures = wl.check_pass(wl.run_pass())
    assert list(failures) == ["boom"]
    assert "ZeroDivisionError" in failures["boom"][0]


# ---------------------------------------------------------------------------
# Each output check rejects a corrupted output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def simulate_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    wl = workloads.Simulate(4, str(out))
    wl.ops = [wl._cli("simulate", ["simulate", "--r", "1", "--x0", "0",
                                   "--xr", "2", "--scheme", "exact",
                                   "--horizon", "10", "--n", "300",
                                   "--seed", "9"])]
    wl.prepare()
    assert wl.run_pass() == {"simulate": 0}
    rows = workloads._read_table(wl._out("simulate", "trajectories.csv"), 3)
    resets = workloads._read_table(wl._out("simulate", "resets.csv"), 2)
    return rows, resets


def _check_sim(rows, resets, n=300):
    return workloads.check_simulate_output(
        rows, resets, workloads.Simulate.SPEC, n, 10.0,
        simulate.DEFAULT_EXACT_POINTS)


def test_simulate_check_accepts_and_rejects(simulate_tables):
    rows, resets = simulate_tables
    assert _check_sim(rows, resets) == []
    rng = np.random.default_rng(0)
    permuted = rows.copy()
    permuted[:, 2] = rng.permutation(permuted[:, 2])
    assert _check_sim(permuted, resets)
    assert _check_sim(rows[1:], resets)                  # a row dropped
    assert _check_sim(rows, resets[1:])                  # a reset dropped
    assert _check_sim(rows, resets, n=301)               # a trajectory missing
    shifted = rows.copy()
    shifted[:, 2] += 0.5 * (shifted[:, 1] == 10.0)       # wrong final law
    assert any("KS" in p for p in _check_sim(shifted, resets))


def test_validate_check_rejects_a_failed_report(tmp_path):
    wl = workloads.Validate(1, str(tmp_path))
    os.makedirs(os.path.dirname(wl._out("validate", "report.json")))
    report = {"pass": False, "suites": {"s": [{"name": "c", "pass": False}]}}
    with open(wl._out("validate", "report.json"), "w") as fh:
        json.dump(report, fh)
    assert wl.check("validate", 0)
    report["pass"] = True
    with open(wl._out("validate", "report.json"), "w") as fh:
        json.dump(report, fh)
    assert wl.check("validate", 0) == []


def test_ks_critical_value_matches_the_kolmogorov_tail():
    from scipy.special import kolmogorov
    c = workloads.ks_critical(1)
    assert kolmogorov(c) == pytest.approx(workloads.KS_LEVEL, rel=1e-3)


# ---------------------------------------------------------------------------
# Spans and self times
# ---------------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.0, 1),
        _span("a.y", 2.5, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.z", 5.0, 9.0, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    assert tracing.busy_time(spans, {"a", "a.x", "b.z"}) == pytest.approx(7.0)


def test_overlapping_children_are_covered_once():
    spans = [_span("p", 0.0, 10.0, -1), _span("c", 1.0, 5.0, 0),
             _span("c", 3.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_installation_traces_nested_calls_and_uninstalls():
    original = simulate.run_ensemble
    tracer = tracing.Tracer()
    inst = tracing.Installation(tracer, replay_steps=10_000)
    try:
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        cfg = simulate.SchemeConfig(simulate.ExactScheme(), horizon=2.0)
        with tracer.root(pass_id=0):
            simulate.run_ensemble(spec, cfg, 5, seed=1)
    finally:
        inst.uninstall()
    assert simulate.run_ensemble is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("simulate.simulate_exact") == 5
    assert names.count("_kernels.walk") == 5
    m = tracing.layer_metrics(tracer.spans, inst.layers,
                              inst.integrate.quad_calls,
                              tracer.spans[0][tracing.END] - tracer.spans[0][tracing.START])
    assert m["simulate.trajectories"] == 5
    assert m["trace.self_sum_over_wall"] == pytest.approx(1.0, abs=1e-9)
    assert set(m) | {"trace.wall_s", "trace.untraced_wall_s",
                     "trace.overhead_frac", "failed_frac",
                     "simulate.threads2_speedup", "kernels.replay_steps",
                     "kernels.replay_python_ns_per_step",
                     "kernels.replay_compiled_ns_per_step",
                     *run.IMPORT_GROUPS} == {n for n, *_ in metrics.PER_LAYER}
    assert len(tracing.kernel_inputs(tracer.spans)) == 5


def test_kernel_replay_is_bit_identical_on_the_numpy_backend():
    import child
    rng = np.random.default_rng(0)
    inc = rng.standard_normal(100)
    flags = rng.random(100) < 0.1
    out = child.replay_kernels([(False, (0.0, 1.0, inc, flags))], None)
    assert out["metrics"]["kernels.replay_steps"] == 100
    assert out["mismatch"] is None


# ---------------------------------------------------------------------------
# Metric names, BENCHMARK.json and the command
# ---------------------------------------------------------------------------

def test_metric_names_are_valid_and_unique():
    names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_PATTERN.fullmatch(name), name


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m[:3]) for m in metrics.PER_LAYER]


def test_parse_importtime_counts_outermost_imports_per_group():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:        40 |         70 | reset_sde",
        "import time:         5 |          5 |   scipy.special",
        "import time:         1 |          6 | reset_sde.cli",
        "import time:         7 |          7 | scipy",
    ])
    got = run.parse_importtime(text)
    assert got["import.reset_sde_s"] == pytest.approx(76e-6)
    assert got["import.numpy_s"] == pytest.approx(30e-6)
    assert got["import.scipy_s"] == pytest.approx(12e-6)


def _run_bench(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_outside_a_source_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_an_ambient_thread_or_kernel_setting():
    for var in run.GUARDED_ENV:
        proc = _run_bench(ROOT, dict(os.environ, **{var: "1"}))
        assert proc.returncode != 0 and proc.stdout == ""
        assert var in proc.stderr
