"""Command-line front end.

Subcommands: ``simulate`` (ensembles to CSV), ``analytic`` (closed-form
curves and values to CSV/JSON), ``fpe`` (finite-difference density
solves), and ``validate`` (reduced-scale consistency suites for CI).

Every command writes a ``manifest.json`` with the fully resolved
configuration, seed, tool version and wall time, sufficient to reproduce
its outputs exactly, and the kernel backend and library versions it ran
on (``validate`` records these in ``report.json``).  Exit codes: 0
success, 1 validation failure, 2 configuration error (a size past
``core.check_size``'s budget, or one that ran out of memory past it),
3 I/O error, 4 numerical failure.

``simulate --workers k`` forks k - 1 children from the calling process,
one per extra shard, with no process pool.  Child i starts on the i-th
CPU the caller may run on, the caller's own counted 0th, so not on the
caller's while CPUs are left, then gets the whole set back
(``simulate.ensemble_csv``); where the platform cannot fork, the shards
run in turn in the calling process, with the same bytes.

``analytic``, ``fpe`` and ``stats`` load ``scipy.special``, so only the
commands that use them import it; ``simulate`` runs on numpy alone.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__, _kernels
from .clocks import clock_from_json, likely_resets
from .errors import as_number
from .core import (
    DomainError,
    NonhomogeneousPoissonClock,
    NumericalError,
    PoissonClock,
    ProcessSpec,
    SpecError,
    check_count,
    check_size,
    spec_to_json,
    validate_spec,
    write_table,
)
from .simulate import (
    RESETS_CSV,
    TRAJECTORIES_CSV,
    EulerScheme,
    ExactScheme,
    SchemeConfig,
    ensemble_csv,
    marginal_samples,
    run_metadata,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# A density curve whose trapezoid mass is further than this from 1 gets a
# warning on stderr: its grid cannot hold the law.
COARSE_MASS = 1e-2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reset-sde",
        description="Simulation and analytics for diffusion with stochastic resetting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a trajectory ensemble")
    sim.add_argument("--config", help="JSON file with defaults; flags override")
    _add_spec_flags(sim)
    sim.add_argument("--scheme", choices=["euler", "exact"])
    sim.add_argument("--dt", type=float)
    sim.add_argument("--horizon", type=float)
    sim.add_argument("--n", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--grid-points", type=int,
                     help="output grid resolution for the exact scheme")
    sim.add_argument("--workers", type=int,
                     help="worker processes (default: one per usable CPU, "
                          "one for small runs; never more than --n)")
    sim.add_argument("--out", help="output directory")

    ana = sub.add_parser("analytic", help="closed-form curves and values")
    ana.add_argument("what", choices=["pdf", "cf", "mgf", "mean", "moments",
                                      "msd", "stationary", "regime"])
    _add_spec_flags(ana)
    ana.add_argument("--t", type=float, default=1.0)
    ana.add_argument("--x-lo", type=float)
    ana.add_argument("--x-hi", type=float)
    ana.add_argument("--s-lo", type=float)
    ana.add_argument("--s-hi", type=float)
    ana.add_argument("--t-lo", type=float, default=0.0)
    ana.add_argument("--t-hi", type=float, default=5.0)
    ana.add_argument("--points", type=int, default=401)
    ana.add_argument("--n-max", type=int, default=6)
    ana.add_argument("--out", help="output directory")

    fp = sub.add_parser("fpe", help="finite-difference density solves")
    fp.add_argument("--config", help="JSON file with defaults; flags override")
    fp.add_argument("--form", choices=["evans", "delta-fl", "stationary"],
                    default="evans")
    _add_spec_flags(fp)
    fp.add_argument("--t", type=float, default=1.0)
    fp.add_argument("--x-lo", type=float)
    fp.add_argument("--x-hi", type=float)
    fp.add_argument("--h", type=float, default=1e-2)
    fp.add_argument("--dt", type=float)
    fp.add_argument("--boundary", choices=["reflecting", "absorbing"],
                    default="reflecting")
    fp.add_argument("--out", help="output directory")

    val = sub.add_parser("validate", help="run consistency suites")
    val.add_argument("--suite", action="append",
                     choices=sorted(_SUITES),
                     help="suite to run (repeatable; default: all)")
    val.add_argument("--seed", type=int, default=20240915)
    val.add_argument("--out", help="output directory for report.json")
    return parser


def _add_spec_flags(parser):
    parser.add_argument("--r", type=float, help="resetting rate")
    parser.add_argument("--p", type=float,
                        help="power-law intensity exponent (selects the "
                             "nonhomogeneous clock)")
    parser.add_argument("--x0", type=float, help="initial position")
    parser.add_argument("--xr", type=float, help="reset position")
    parser.add_argument("--d", type=float, help="diffusivity")
    parser.add_argument("--clock", choices=["poisson", "npp", "renewal"])
    parser.add_argument("--renewal-law",
                        help='JSON, e.g. {"name":"pareto","alpha":1.5,"xm":0.2}')


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, DomainError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a size past what this machine holds, caught late
        print(f"error: config: out of memory{': ' if str(exc) else ''}{exc}; "
              "lower the sizes of the run", file=sys.stderr)
        return EXIT_CONFIG


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

# The config keys of the process, which every command with --config reads
_SPEC_KEYS = ("clock", "d", "diffusivity", "x0", "xR", "xr")


def _load_config(path, keys):
    """The JSON object in the file ``path`` ({} for none), refusing a key
    outside ``keys``: a misspelt key would leave its value at the default."""
    if not path:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SpecError("config file must contain a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise SpecError(f"unknown key(s) {', '.join(map(repr, unknown))}; "
                        f"this command reads {', '.join(keys)}")
    return doc


def _merged(args, config, key, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    return config.get(key, default)


def _number(args, config, key, default=None, kind=float):
    """``_merged`` as a number of type ``kind``, or None when absent."""
    value = _merged(args, config, key, default)
    return None if value is None else as_number(value, key, kind)


def _build_clock(args, config):
    doc = config.get("clock", {})
    if not isinstance(doc, dict):
        return clock_from_json(doc)  # refuses it: not an object
    doc = dict(doc)
    for key, flag in (("type", "clock"), ("r", "r"), ("p", "p")):
        if getattr(args, flag, None) is not None:
            doc[key] = getattr(args, flag)
    law_text = getattr(args, "renewal_law", None)
    if law_text:
        doc["renewal_law"] = json.loads(law_text)
    doc.setdefault("type", "npp" if "p" in doc else "poisson")
    if doc["type"] in ("poisson", "npp"):
        doc.setdefault("r", 1.0)
    return clock_from_json(doc)


def _build_spec(args, config) -> ProcessSpec:
    spec = ProcessSpec(
        diffusivity=_number(args, config, "d", config.get("diffusivity", 0.5)),
        x0=_number(args, config, "x0", 0.0),
        x_reset=_number(args, config, "xr", config.get("xR", 0.0)),
        clock=_build_clock(args, config),
    )
    return validate_spec(spec)


def _out_dir(args):
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _run_record():
    """The walk kernel's backend and the library versions of this run;
    scipy only when the run has loaded it, so recording imports nothing."""
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    if "scipy" in sys.modules:
        versions["scipy"] = sys.modules["scipy"].__version__
    return {"backend": _kernels.BACKEND, "versions": versions}


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _write_manifest(out_dir, command, config, seed, outputs, started, **extra):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "outputs": sorted(outputs),
        **_run_record(),
        **extra,
    }
    return _write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    started = time.time()
    config = _load_config(args.config, _SPEC_KEYS + (
        "dt", "grid-points", "grid_points", "horizon", "n", "scheme", "seed", "workers"))
    spec = _build_spec(args, config)
    scheme_name = _merged(args, config, "scheme", "exact")
    horizon = _number(args, config, "horizon", 10.0)
    n = _number(args, config, "n", 1, int)
    seed = _number(args, config, "seed", 0, int)
    workers = _number(args, config, "workers", None, int)
    grid_points = _number(args, config, "grid-points", config.get("grid_points"), int)
    grid = None
    if scheme_name == "euler":
        dt = _number(args, config, "dt")
        if dt is None:
            raise SpecError("the Euler scheme requires --dt")
        if grid_points is not None:
            raise SpecError("--grid-points applies to the exact scheme only; "
                            "the Euler scheme writes its dt lattice")
        scheme = EulerScheme(dt=dt)
    else:
        scheme = ExactScheme()
        if grid_points is not None:
            check_count(grid_points, "grid-points", 1)
            check_size(n * grid_points, f"--grid-points {grid_points} with --n {n}",
                       "lower --grid-points or --n")
            grid = np.linspace(0.0, horizon, grid_points)
    cfg = SchemeConfig(scheme=scheme, horizon=horizon, grid=grid)

    out = _out_dir(args)
    counts = ensemble_csv(spec, cfg, n, seed, out, workers)
    counters = {
        "trajectories": n,
        "rows": counts["rows"],
        "resets_drawn": counts["resets_drawn"],
        "resets_expected": (None if spec.clock.base_rate is None
                            else n * likely_resets(spec.clock, horizon)),
    }
    resolved = dict(run_metadata(spec, cfg, n, seed), workers=counts["workers"], out=out)
    _write_manifest(out, "simulate", resolved, seed,
                    [TRAJECTORIES_CSV, RESETS_CSV], started,
                    stages={key: round(counts[key], 3) for key in
                            ("ensemble_s", "write_s", "cpu_s", "shards_wall_s")},
                    counters=counters,
                    shards=[{"start_s": round(shard["start_s"], 4),
                             "cpu_s": round(shard["cpu_s"], 3),
                             "wall_s": round(shard["wall_s"], 3)}
                            for shard in counts["shards"]])
    print(f"wrote {os.path.join(out, TRAJECTORIES_CSV)} ({n} trajectories)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def _curve_csv(out, name, header, columns):
    path = os.path.join(out, name)
    write_table(path, header, [tuple(np.asarray(c, dtype=float) for c in columns)])
    return path


def _cmd_analytic(args) -> int:
    from . import analytic
    started = time.time()
    spec = _build_spec(args, {})
    out = _out_dir(args)
    what = args.what
    resolved = {"spec": spec_to_json(spec), "what": what, "t": args.t, "out": out}
    outputs, extra = [], {}
    if what not in ("regime", "moments"):
        check_count(args.points, "--points", 2)

    if what == "regime":
        if args.p is None:
            raise SpecError("regime requires --p")
        info = analytic.classify_regime(args.p).as_json()
        _write_json(os.path.join(out, "regime.json"), info)
        print(json.dumps(info, sort_keys=True))
        outputs.append("regime.json")
    elif what in ("pdf", "stationary"):
        t = None if what == "stationary" else args.t
        xs, windows = _x_grid(args, spec, t)
        curve = analytic.density_curve(spec, t, xs)
        curve.to_csv(os.path.join(out, "curve.csv"))
        outputs.append("curve.csv")
        mass = curve.mass()
        extra["counters"] = {"points": len(xs), "windows": windows, "mass": mass}
        print(f"mass = {mass:.6f}")
        if abs(mass - 1.0) > COARSE_MASS:
            print(f"warning: the trapezoid mass is {mass:.6f} on {len(xs)} points: "
                  "the grid is too coarse or too narrow for this law; raise --points",
                  file=sys.stderr)
    elif what in ("cf", "mgf"):
        outputs.append(_transform_curve(args, spec, out, what))
    elif what == "mean":
        ts = _grid("t", args.t_lo, args.t_hi, args.points)
        values = analytic.mean(spec, ts)
        outputs.append(os.path.basename(
            _curve_csv(out, "curve.csv", ["t", "value"], (ts, values))))
    elif what == "moments":
        table = analytic.moment_table(spec, args.t, args.n_max)
        table.to_csv(os.path.join(out, "moments.csv"))
        outputs.append("moments.csv")
    elif what == "msd":
        if not isinstance(spec.clock, NonhomogeneousPoissonClock):
            raise SpecError("msd requires the nonhomogeneous clock; pass --p "
                            "(use --p 0 for constant rate)")
        ts = _grid("t", max(args.t_lo, 1e-3), args.t_hi, args.points, np.geomspace)
        values = np.fromiter((analytic.npp_msd(spec, float(t)) for t in ts), float, len(ts))
        outputs.append(os.path.basename(
            _curve_csv(out, "curve.csv", ["t", "msd"], (ts, values))))
    _write_manifest(out, f"analytic {what}", resolved, None, outputs, started, **extra)
    return EXIT_OK


def _grid(flag, lo, hi, points, spacing=np.linspace):
    """``points`` values from lo to hi by ``spacing``, refusing a range
    that is not finite and increasing, and points past the size budget."""
    if not -math.inf < lo < hi < math.inf:
        raise SpecError(f"the --{flag}-lo/--{flag}-hi range [{lo:g}, {hi:g}] "
                        "must be finite and increasing")
    check_size(points, f"--points {points}", "lower --points")
    return spacing(lo, hi, points)


def _x_grid(args, spec, t):
    """The x values of a density curve, and the number of the law's
    windows that got points (None for an ``--x-lo``/``--x-hi`` range)."""
    from . import analytic
    if args.x_lo is not None and args.x_hi is not None:
        return _grid("x", args.x_lo, args.x_hi, args.points), None
    return analytic._support(spec, t, args.points)


def _transform_curve(args, spec, out, what):
    from . import analytic
    s_lo, s_hi = args.s_lo, args.s_hi
    if s_lo is None or s_hi is None:
        edge = 5.0
        if what == "mgf" and spec.clock.base_rate:
            edge = 0.98 * math.sqrt(spec.clock.base_rate / spec.diffusivity)
        s_lo, s_hi = -edge, edge
    ss = _grid("s", s_lo, s_hi, args.points)
    if what == "mgf":  # analytic.mgf refuses all but the homogeneous clock
        values = analytic.mgf(spec, ss, args.t)
        _curve_csv(out, "curve.csv", ["s", "value"], (ss, values))
    else:
        cf = (analytic.npp_char_fn if isinstance(spec.clock, NonhomogeneousPoissonClock)
              else analytic.char_fn)
        values = cf(spec, ss, args.t)
        _curve_csv(out, "curve.csv", ["s", "re", "im"], (ss, values.real, values.imag))
    return "curve.csv"


# ---------------------------------------------------------------------------
# fpe
# ---------------------------------------------------------------------------

def _cmd_fpe(args) -> int:
    from . import fpe
    started = time.time()
    config = _load_config(args.config, _SPEC_KEYS + (
        "boundary", "dt", "form", "h", "t", "x-hi", "x-lo", "x_hi", "x_lo"))
    spec = _build_spec(args, config)
    h = _number(args, config, "h", 1e-2)
    dt = _number(args, config, "dt")
    t_final = _number(args, config, "t", 1.0)
    boundary = _merged(args, config, "boundary", "reflecting")
    form = _merged(args, config, "form", "evans")
    x_lo = _number(args, config, "x-lo", config.get("x_lo"))
    x_hi = _number(args, config, "x-hi", config.get("x_hi"))
    if x_lo is not None and x_hi is not None:
        grid = fpe.FpeGrid(x_lo=x_lo, x_hi=x_hi, h=h, dt=dt, boundary=boundary)
    else:
        grid = fpe.default_grid(spec, None if form == "stationary" else t_final,
                                h=h, dt=dt, boundary=boundary)
    if form == "evans":
        curve = fpe.solve_fpe_evans(spec, grid, t_final)
    elif form == "delta-fl":
        curve = fpe.solve_fpe_delta_fl(spec, grid, t_final)
    else:
        curve = fpe.stationary_fpe(spec, grid)
    out = _out_dir(args)
    curve.to_csv(os.path.join(out, "density.csv"))
    mass = curve.mass()
    resolved = {
        "spec": spec_to_json(spec), "form": form, "t": t_final,
        "grid": {"x_lo": grid.x_lo, "x_hi": grid.x_hi, "h": grid.h,
                 "dt": grid.dt, "boundary": grid.boundary},
        "mass": mass, "out": out,
    }
    _write_manifest(out, "fpe", resolved, None, ["density.csv"], started)
    print(f"mass = {mass:.8f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check(name, value, tolerance):
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(value < tolerance)}


def _suite_pdf_ks(seed):
    from . import checks
    spec = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    npp = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
    return [
        _check("exact marginals vs closed-form cdf (t=0.1)",
               checks.marginal_ks(spec, 0.1, 30000, seed), 0.012),
        _check("euler marginals vs closed-form cdf (dt=1e-3)",
               checks.marginal_ks(spec, 0.1, 30000, seed + 1, dt=1e-3), 0.015),
        _check("nonhomogeneous marginals vs quadrature density (p=-0.5, t=5)",
               checks.npp_marginal_ks(npp, 5.0, 20000, seed + 2,
                                      np.linspace(-10.0, 10.0, 1601)), 0.025),
    ]


def _suite_moments(seed):
    from . import checks
    spec = ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0))
    quad, fd = zip(*checks.moment_errors(spec, 0.7, range(1, 7)))
    z = checks.moment_z_scores(spec, 0.7, 200000, seed, range(1, 5))
    return [
        _check("closed-form vs quadrature moments (n=1..6)", max(quad), 1e-6),
        _check("closed-form vs mgf-derivative moments (n=1..6)", max(fd), 1e-4),
        _check("monte carlo moments within 3 se (n=1..4)", max(map(abs, z)), 3.0),
    ]


def _suite_msd_exponents(seed):
    from statistics import NormalDist
    from . import analytic, checks, stats
    # Each check fails a correct program with probability about false_alarm.
    # From n samples an MSD has relative standard error sqrt(5 / n) for a
    # Laplace law (kurtosis 6), less for the others: 5.8% at n = 1500, where
    # 0.12 was ~2 SE.  n makes it z SE, z the two-sided normal quantile.
    tolerance, false_alarm = 0.12, 1e-6
    z = NormalDist().inv_cdf(1.0 - false_alarm / 2.0)
    n = math.ceil((z * math.sqrt(5.0) / tolerance) ** 2)
    grid = np.geomspace(0.1, 100.0, 48)

    def msd_series(spec, seed):
        # x0 = xR = 0, so the displacement is measured from 0
        xs = marginal_samples(spec, grid, n, seed)
        return stats.MsdSeries(ts=grid, msd=np.mean(xs ** 2, axis=0), n_samples=n)

    results = []
    for i, p in enumerate((-0.5, -1.0, -1.5, 0.0)):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, p))
        series = msd_series(spec, seed + i)
        mu = stats.fit_power_law_exponent(series)
        mu_alt = stats.fit_power_law_exponent(series, window=(25.0, 100.0))
        target = analytic.classify_regime(p).exponent
        results.append(_check(
            f"msd exponent p={p:g} (fit {mu:+.3f} / alt window {mu_alt:+.3f})",
            abs(mu - target), tolerance))
    spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, 0.5))
    rel, change = checks.msd_tail(spec, msd_series(spec, seed + 9))
    results.append(_check("msd p=0.5 at horizon vs quadrature", rel, tolerance))
    results.append(_check("msd p=0.5 decreasing over last decade", change, 0.0))
    return results


def _suite_fpe_agreement(seed):
    from . import checks
    ends, plain = checks.fpe_l1_distances(
        ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0)), 0.5, h=2e-2, dt=2e-3)
    return [
        # each end moves the law's mass beyond it, 1e-9 a side: 10x that
        _check("reflecting vs absorbing ends on the default grid, L1", ends, 1e-8),
        _check("transient solve vs closed form, L1", plain, 1e-2),
        _check("stationary solve vs laplace density, Linf",
               checks.stationary_linf(ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0)),
                                      h=1e-2), 1e-3),
    ]


def _suite_dynkin(seed):
    from . import checks, fpe
    spec = ProcessSpec(0.5, 0.0, 2.0, PoissonClock(1.0))
    spec3 = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    xs = np.arange(-8.0, 10.0 + 1e-9, 1e-2)
    return [
        _check("generator/adjoint duality residual",
               checks.duality_residual(spec, xs, np.random.default_rng(seed)), 1e-8),
        _check("observable-average drift (x^2) within 3 se",
               max(abs(checks.dynkin_z(spec, t, 30000, seed)) for t in (0.3, 0.8)),
               3.0),
        _check("time derivative of closed-form density vs adjoint action, L1",
               checks.adjoint_l1(spec3, fpe.default_grid(spec3, 1.0, h=1e-2).xs, 0.5),
               1e-2),
    ]


_SUITES = {
    "pdf-ks": _suite_pdf_ks,
    "moments": _suite_moments,
    "msd-exponents": _suite_msd_exponents,
    "fpe-agreement": _suite_fpe_agreement,
    "dynkin": _suite_dynkin,
}


def _cmd_validate(args) -> int:
    started = time.time()
    from . import analytic  # for the quadrature record of each suite
    names = args.suite or sorted(_SUITES)
    report = {"suites": {}, "suite_seconds": {}, "quadrature": {}, "seed": args.seed,
              "version": __version__}
    all_pass = True
    for name in names:
        suite_started = time.perf_counter()
        with analytic.quadrature_record() as record:
            checks = _SUITES[name](args.seed)
        report["suite_seconds"][name] = round(time.perf_counter() - suite_started, 3)
        report["quadrature"][name] = record
        report["suites"][name] = checks
        for check in checks:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {name}: {check['name']}: "
                  f"{check['value']:.6g} (tolerance {check['tolerance']:g})")
            all_pass &= check["pass"]
    report["pass"] = all_pass
    report["elapsed_s"] = round(time.time() - started, 3)
    report.update(_run_record())
    _write_json(os.path.join(_out_dir(args), "report.json"), report)
    return EXIT_OK if all_pass else EXIT_VALIDATION


_COMMANDS = {"simulate": _cmd_simulate, "analytic": _cmd_analytic, "fpe": _cmd_fpe,
             "validate": _cmd_validate}


if __name__ == "__main__":
    sys.exit(main())
