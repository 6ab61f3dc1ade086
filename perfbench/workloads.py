"""The benchmark workloads and the checks on their outputs.

A workload is a list of operations, each a CLI invocation run
in-process.  ``run_pass`` runs every operation once (this is the
timed region); ``check_pass`` then verifies each operation's output by a
route independent of the code that produced it and returns, per failed
operation, what went wrong.  An operation fails when it raises, exits
non-zero or fails a check.

Tolerances are either the ones the ``validate`` suites set or a
Kolmogorov-Smirnov critical value at level ``KS_LEVEL`` for the sample
size at hand.  Inputs are a function of the benchmark seed only
(``validate`` takes none from it).
"""

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

from reset_sde import cli, simulate, stats
from reset_sde.core import PoissonClock, ProcessSpec

# Level of every KS check: a correct program fails one by chance once in
# 10^6 checks.
KS_LEVEL = 1e-6


def ks_statistic(samples, cdf):
    """One-sample Kolmogorov-Smirnov distance of ``samples`` from ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_critical(n, level=KS_LEVEL):
    """Asymptotic KS critical value at ``level`` for ``n`` samples."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def _ks_problem(label, samples, cdf):
    tol = ks_critical(len(samples))
    d = ks_statistic(samples, cdf)
    return [] if d < tol else [f"{label}: KS {d:.4g} >= {tol:.4g}"]


def _read_table(path, columns):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=range(columns))


def _program_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    """Base class: ``ops`` is a list of (name, callable) set by subclasses."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ops = []

    def prepare(self):
        """Give every operation a fresh output directory (untimed)."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def run_pass(self):
        """Run every operation once; map its name to its result or error."""
        results = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, op in self.ops:
                try:
                    results[name] = op()
                except Exception as exc:  # counted as a failed operation
                    results[name] = exc
        return results

    def check_pass(self, results):
        """Map each failed operation to its problems; empty when all pass."""
        failures = {}
        for name, _ in self.ops:
            result = results[name]
            if isinstance(result, Exception):
                problems = [f"raised {type(result).__name__}: {result}"]
            elif type(result) is int and result != 0:  # a CLI exit code
                problems = [f"exit code {result}"]
            else:
                try:
                    problems = self.check(name, result)
                except Exception as exc:  # unreadable output fails the op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failures[name] = problems
        return failures

    def check(self, name, result):
        raise NotImplementedError

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _cli(self, name, argv):
        out = os.path.join(self.workdir, name)
        return name, lambda: cli.main(list(argv) + ["--out", out])

    def _out(self, name, filename):
        return os.path.join(self.workdir, name, filename)


class Simulate(Workload):
    """The headline user run: an exact-scheme ensemble written to CSV."""

    name = "simulate"
    N = 2000
    HORIZON = 10.0
    SPEC = ProcessSpec(0.5, 0.0, 2.0, PoissonClock(1.0))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        (program_seed,) = _program_seeds(seed, 1)
        self.ops = [self._cli("simulate", [
            "simulate", "--r", "1", "--x0", "0", "--xr", "2",
            "--scheme", "exact", "--horizon", "10", "--n", str(self.N),
            "--seed", str(program_seed)])]

    def check(self, name, result):
        return check_simulate_output(
            _read_table(self._out(name, "trajectories.csv"), 3),
            _read_table(self._out(name, "resets.csv"), 2),
            self.SPEC, self.N, self.HORIZON, simulate.DEFAULT_EXACT_POINTS)


def check_simulate_output(rows, resets, spec, n, horizon, grid_points):
    """Problems with a written ensemble of ``n`` exact trajectories.

    Rows are grouped by trajectory with increasing times; each trajectory
    has the grid points plus one row per reset, starts at (0, x0), ends at
    the horizon, and sits at the reset point at each reset time.  The
    positions at the horizon must pass a KS test against the closed form.
    """
    traj = rows[:, 0].astype(int)
    ts, xs = rows[:, 1], rows[:, 2]
    reset_traj = resets[:, 0].astype(int)
    problems = []
    if np.any(np.diff(traj) < 0) or np.any(np.diff(reset_traj) < 0):
        problems.append("rows are not grouped by trajectory")
    counts = np.bincount(traj, minlength=n)
    reset_counts = np.bincount(reset_traj, minlength=n)
    if len(counts) != n or len(reset_counts) != n or traj.min() != 0:
        return problems + ["trajectory ids are not 0..n-1"]
    if np.any(counts != grid_points + reset_counts):
        bad = int(np.sum(counts != grid_points + reset_counts))
        problems.append(f"{bad} trajectories have row count != grid + resets")
        return problems
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ends = starts + counts - 1
    if np.any(ts[starts] != 0.0) or np.any(xs[starts] != spec.x0):
        problems.append("a trajectory does not start at (0, x0)")
    if np.any(ts[ends] != horizon):
        problems.append("a trajectory does not end at the horizon")
    step_ok = np.diff(ts) > 0
    step_ok[ends[:-1]] = True  # boundaries between trajectories
    if not np.all(step_ok):
        problems.append("times are not strictly increasing")
    reset_starts = np.concatenate(([0], np.cumsum(reset_counts)[:-1]))
    missing = 0
    for i in np.flatnonzero(reset_counts):
        seg_t = ts[starts[i]:ends[i] + 1]
        taus = resets[reset_starts[i]:reset_starts[i] + reset_counts[i], 1]
        idx = np.searchsorted(seg_t, taus)
        idx = np.minimum(idx, len(seg_t) - 1)
        hit = (seg_t[idx] == taus) & (xs[starts[i] + idx] == spec.x_reset)
        missing += int(np.sum(~hit))
    if missing:
        problems.append(f"{missing} reset times lack a row at the reset point")
    problems += _ks_problem(
        "positions at the horizon", xs[ends],
        lambda x: stats.analytic_cdf(spec, x, horizon))
    return problems


class Validate(Workload):
    """The consistency suites that CI and users run to trust a build.

    They run at the program's default seed, as ``reset-sde validate`` does,
    not at the benchmark seed: the suites' own statistical tolerances make
    a correct build fail at some seeds (``--seed 22`` fails the p=0.5 MSD
    check, whose tolerance is about two standard errors).

    The msd-exponents suite is left out.  It doubles the pass to 4.5 s and
    adds a first-pass cost that varies by +-0.6 s, so a run of a minute
    holds too few passes for a steady median; ``simulate`` measures the
    ensemble code it would exercise.
    """

    name = "validate"
    SUITES = ("pdf-ks", "moments", "fpe-agreement", "dynkin")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        suites = [arg for suite in self.SUITES for arg in ("--suite", suite)]
        self.ops = [self._cli("validate", ["validate"] + suites)]

    def check(self, name, result):
        with open(self._out(name, "report.json")) as fh:
            report = json.load(fh)
        if report.get("pass") is not True:
            failed = [c["name"] for checks in report["suites"].values()
                      for c in checks if not c["pass"]]
            return [f"report.json pass is not true: {failed}"]
        return []


WORKLOADS = {cls.name: cls for cls in (Simulate, Validate)}
