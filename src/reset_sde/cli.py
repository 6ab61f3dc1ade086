"""Command-line front end.

Subcommands: ``simulate`` (ensembles to CSV), ``analytic`` (closed-form
curves and values to CSV/JSON), ``fpe`` (finite-difference density
solves), and ``validate`` (reduced-scale consistency suites for CI).

Every command writes a ``manifest.json`` with the fully resolved
configuration, seed, tool version and wall time, sufficient to reproduce
its outputs exactly.  Exit codes: 0 success, 1 validation failure,
2 configuration error, 3 I/O error, 4 numerical failure.

``analytic``, ``fpe`` and ``stats`` load scipy, so only the commands that
use them import them; ``simulate`` runs on numpy alone.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .clocks import clock_from_json, expected_resets
from .errors import as_number
from .core import (
    DomainError,
    NonhomogeneousPoissonClock,
    NumericalError,
    PoissonClock,
    ProcessSpec,
    SpecError,
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
    euler_marginal_samples,
    marginal_samples,
    run_metadata,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


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
        return _dispatch(args)
    except (SpecError, DomainError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


def _dispatch(args) -> int:
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "analytic":
        return _cmd_analytic(args)
    if args.command == "fpe":
        return _cmd_fpe(args)
    if args.command == "validate":
        return _cmd_validate(args)
    raise SpecError(f"unknown command {args.command!r}")


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SpecError("config file must contain a JSON object")
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
    doc = dict(config["clock"]) if isinstance(config.get("clock"), dict) else {}
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


def _write_manifest(out_dir, command, config, seed, outputs, started, **extra):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "outputs": sorted(outputs),
        **extra,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    spec = _build_spec(args, config)
    scheme_name = _merged(args, config, "scheme", "exact")
    horizon = _number(args, config, "horizon", 10.0)
    n = _number(args, config, "n", 1, int)
    seed = _number(args, config, "seed", 0, int)
    workers = _merged(args, config, "workers")
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
            grid = np.linspace(0.0, horizon, grid_points)
    cfg = SchemeConfig(scheme=scheme, horizon=horizon, grid=grid)

    out = _out_dir(args)
    counts = ensemble_csv(spec, cfg, n, seed, out, workers)
    expected = expected_resets(spec.clock, horizon)
    counters = {
        "trajectories": n,
        "rows": counts["rows"],
        "resets_drawn": counts["resets_drawn"],
        "resets_expected": None if expected is None else n * expected,
    }
    resolved = dict(run_metadata(spec, cfg, n, seed), workers=counts["workers"], out=out)
    _write_manifest(out, "simulate", resolved, seed,
                    [TRAJECTORIES_CSV, RESETS_CSV], started,
                    stages={"ensemble_s": round(counts["ensemble_s"], 3),
                            "write_s": round(counts["write_s"], 3)},
                    counters=counters)
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
    outputs = []
    if what not in ("regime", "moments") and args.points < 2:
        raise SpecError("--points must be at least 2")

    if what == "regime":
        if args.p is None:
            raise SpecError("regime requires --p")
        info = analytic.classify_regime(args.p).as_json()
        path = os.path.join(out, "regime.json")
        with open(path, "w") as fh:
            json.dump(info, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(json.dumps(info, sort_keys=True))
        outputs.append("regime.json")
    elif what in ("pdf", "stationary"):
        xs = _x_grid(args, spec)
        if what == "stationary":
            curve = analytic.stationary_curve(spec, xs)
        elif isinstance(spec.clock, NonhomogeneousPoissonClock):
            curve = analytic.npp_density_curve(spec, args.t, xs)
        else:
            curve = analytic.density_curve(spec, args.t, xs)
        curve.to_csv(os.path.join(out, "curve.csv"))
        outputs.append("curve.csv")
        print(f"mass = {curve.mass():.6f}")
    elif what in ("cf", "mgf"):
        outputs.append(_transform_curve(args, spec, out, what))
    elif what == "mean":
        ts = np.linspace(args.t_lo, _t_hi(args, args.t_lo), args.points)
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
        lo = max(args.t_lo, 1e-3)
        ts = np.geomspace(lo, _t_hi(args, lo), args.points)
        values = [analytic.npp_msd(spec, float(t)) for t in ts]
        outputs.append(os.path.basename(
            _curve_csv(out, "curve.csv", ["t", "msd"], (ts, values))))
    _write_manifest(out, f"analytic {what}", resolved, None, outputs, started)
    return EXIT_OK


def _t_hi(args, lo):
    """``--t-hi``, checked to lie above the first time of the grid."""
    if not args.t_hi > lo:
        raise SpecError(f"--t-hi must exceed {lo:g}, the first time of the grid")
    return args.t_hi


def _x_grid(args, spec):
    from . import analytic
    if args.x_lo is not None and args.x_hi is not None:
        return np.linspace(args.x_lo, args.x_hi, args.points)
    return analytic.default_support(spec, max(args.t, 0.0), points=args.points)


def _transform_curve(args, spec, out, what):
    from . import analytic
    if what == "mgf":  # analytic.mgf refuses all but the homogeneous clock
        evaluate = lambda s: analytic.mgf(spec, s, args.t)
    elif isinstance(spec.clock, NonhomogeneousPoissonClock):
        evaluate = lambda s: analytic.npp_char_fn(spec, s, args.t)
    else:
        evaluate = lambda s: analytic.char_fn(spec, s, args.t)
    if args.s_lo is None or args.s_hi is None:
        if what == "mgf" and spec.clock.base_rate:
            edge = 0.98 * math.sqrt(spec.clock.base_rate / spec.diffusivity)
            s_lo, s_hi = -edge, edge
        else:
            s_lo, s_hi = -5.0, 5.0
    else:
        s_lo, s_hi = args.s_lo, args.s_hi
    ss = np.linspace(s_lo, s_hi, args.points)
    if what == "mgf":
        values = [float(evaluate(s)) for s in ss]
        _curve_csv(out, "curve.csv", ["s", "value"], (ss, values))
    else:
        values = np.array([complex(evaluate(s)) for s in ss])
        _curve_csv(out, "curve.csv", ["s", "re", "im"], (ss, values.real, values.imag))
    return "curve.csv"


# ---------------------------------------------------------------------------
# fpe
# ---------------------------------------------------------------------------

def _cmd_fpe(args) -> int:
    from . import fpe
    started = time.time()
    config = _load_config(args.config)
    spec = _build_spec(args, config)
    h = _number(args, config, "h", 1e-2)
    dt = _number(args, config, "dt")
    t_final = _number(args, config, "t", 1.0)
    boundary = _merged(args, config, "boundary", "reflecting")
    form = _merged(args, config, "form", "evans")
    x_lo = _number(args, config, "x-lo", config.get("x_lo"))
    x_hi = _number(args, config, "x-hi", config.get("x_hi"))
    if x_lo is not None and x_hi is not None:
        grid = fpe.FpeGrid(x_lo=x_lo, x_hi=x_hi, h=h,
                           dt=dt if dt is not None else h / 10.0,
                           boundary=boundary)
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

def _check(name, value, tolerance, ok=None):
    if ok is None:
        ok = bool(value < tolerance)
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(ok)}


def _suite_pdf_ks(seed):
    from . import analytic, stats
    spec = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    checks = []
    xs = marginal_samples(spec, 0.1, 30000, seed=seed)
    checks.append(_check(
        "exact marginals vs closed-form cdf (t=0.1)",
        stats.ks_distance(xs, lambda v: stats.analytic_cdf(spec, v, 0.1)), 0.012))
    eu = euler_marginal_samples(spec, 0.1, 1e-3, 30000, seed=seed + 1)
    checks.append(_check(
        "euler marginals vs closed-form cdf (dt=1e-3)",
        stats.ks_distance(eu, lambda v: stats.analytic_cdf(spec, v, 0.1)), 0.015))
    npp = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
    samples = marginal_samples(npp, 5.0, 20000, seed=seed + 2)
    curve = analytic.npp_density_curve(npp, 5.0,
                                       np.linspace(-10.0, 10.0, 1601))
    checks.append(_check(
        "nonhomogeneous marginals vs quadrature density (p=-0.5, t=5)",
        stats.ks_distance(samples, stats.cdf_from_density_curve(curve)), 0.025))
    return checks


def _suite_moments(seed):
    from . import analytic
    spec = ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0))
    t = 0.7
    checks = []
    worst_quad = worst_fd = 0.0
    for n in range(1, 7):
        closed = analytic.nth_moment(spec, n, t)
        # scipy's default quad tolerances; the check's bound is 1e-6
        quad = analytic.quadrature(lambda x, n=n: x ** n * analytic.pdf(spec, x, t),
                                   -np.inf, np.inf, epsabs=1.49e-8, epsrel=1.49e-8,
                                   limit=300)
        worst_quad = max(worst_quad, abs(closed - quad) / abs(quad))
        fd = analytic.moment_from_mgf(spec, n, t)
        worst_fd = max(worst_fd, abs(closed - fd) / abs(closed))
    checks.append(_check("closed-form vs quadrature moments (n=1..6)",
                         worst_quad, 1e-6))
    checks.append(_check("closed-form vs mgf-derivative moments (n=1..6)",
                         worst_fd, 1e-4))
    samples = marginal_samples(spec, t, 200000, seed=seed)
    worst_z = 0.0
    for n in range(1, 5):
        vals = samples ** n
        se = vals.std() / math.sqrt(len(vals))
        worst_z = max(worst_z,
                      abs(vals.mean() - analytic.nth_moment(spec, n, t)) / se)
    checks.append(_check("monte carlo moments within 3 se (n=1..4)",
                         worst_z, 3.0))
    return checks


def _suite_msd_exponents(seed):
    from statistics import NormalDist
    from . import analytic, stats
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

    checks = []
    for i, p in enumerate((-0.5, -1.0, -1.5, 0.0)):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, p))
        series = msd_series(spec, seed + i)
        mu = stats.fit_power_law_exponent(series)
        mu_alt = stats.fit_power_law_exponent(series, window=(25.0, 100.0))
        target = analytic.classify_regime(p).exponent
        checks.append(_check(
            f"msd exponent p={p:g} (fit {mu:+.3f} / alt window {mu_alt:+.3f})",
            abs(mu - target), tolerance))
    spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, 0.5))
    series = msd_series(spec, seed + 9)
    tail = series.msd[-1]
    target = analytic.npp_msd(spec, 100.0)
    checks.append(_check("msd p=0.5 at horizon vs quadrature",
                         abs(tail - target) / target, tolerance))
    checks.append(_check("msd p=0.5 decreasing over last decade",
                         series.msd[-1] - np.interp(10.0, series.ts, series.msd),
                         0.0))
    return checks


def _suite_fpe_agreement(seed):
    from . import analytic, fpe
    checks = []
    spec = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    grid = fpe.default_grid(spec, 0.5, h=2e-2, dt=2e-3)
    ev = fpe.solve_fpe_evans(spec, grid, 0.5)
    fl = fpe.solve_fpe_delta_fl(spec, grid, 0.5)
    checks.append(_check(
        "plain vs stationary-weighted source, L1",
        np.trapezoid(np.abs(ev.values - fl.values), ev.xs), 1e-3))
    ref = analytic.pdf(spec, ev.xs, 0.5)
    checks.append(_check(
        "transient solve vs closed form, L1",
        np.trapezoid(np.abs(ev.values - ref), ev.xs), 1e-2))
    spec0 = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
    sgrid = fpe.default_grid(spec0, None, h=1e-2)
    st_curve = fpe.stationary_fpe(spec0, sgrid)
    checks.append(_check(
        "stationary solve vs laplace density, Linf",
        np.max(np.abs(st_curve.values - analytic.stationary_pdf(spec0, st_curve.xs))),
        1e-3))
    return checks


def _suite_dynkin(seed):
    from . import analytic, fpe
    checks = []
    spec = ProcessSpec(0.5, 0.0, 2.0, PoissonClock(1.0))
    xs = np.arange(-8.0, 10.0 + 1e-9, 1e-2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(len(xs))
    f = rng.standard_normal(len(xs))
    h = xs[1] - xs[0]
    lhs = h * np.dot(fpe.apply_generator(g, xs, spec), f)
    rhs = h * np.dot(g, fpe.apply_adjoint(f, xs, spec))
    checks.append(_check("generator/adjoint duality residual",
                         abs(lhs - rhs), 1e-8))
    worst_z = 0.0
    for t in (0.3, 0.8):
        z = _dynkin_z(spec, t, 30000, seed)
        worst_z = max(worst_z, abs(z))
    checks.append(_check("observable-average drift (x^2) within 3 se",
                         worst_z, 3.0))
    spec3 = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    grid = fpe.default_grid(spec3, 1.0, h=1e-2)
    d = 1e-5
    p_mid = analytic.pdf(spec3, grid.xs, 0.5)
    dpdt = (analytic.pdf(spec3, grid.xs, 0.5 + d)
            - analytic.pdf(spec3, grid.xs, 0.5 - d)) / (2 * d)
    checks.append(_check(
        "time derivative of closed-form density vs adjoint action, L1",
        np.trapezoid(np.abs(dpdt - fpe.apply_adjoint(p_mid, grid.xs, spec3)),
                     grid.xs), 1e-2))
    return checks


def _dynkin_z(spec, t, n, seed, delta=1e-3):
    """z-score of d/dt E[x^2] against the generator prediction, using
    common random numbers across the three time points."""
    lo = marginal_samples(spec, t - delta, n, seed=seed)
    mid = marginal_samples(spec, t, n, seed=seed)
    hi = marginal_samples(spec, t + delta, n, seed=seed)
    drift = (hi ** 2 - lo ** 2) / (2 * delta)
    generator = (2.0 * spec.diffusivity
                 + spec.clock.rate * (spec.x_reset ** 2 - mid ** 2))
    residual = drift - generator
    return residual.mean() / (residual.std() / math.sqrt(n))


_SUITES = {
    "pdf-ks": _suite_pdf_ks,
    "moments": _suite_moments,
    "msd-exponents": _suite_msd_exponents,
    "fpe-agreement": _suite_fpe_agreement,
    "dynkin": _suite_dynkin,
}


def _cmd_validate(args) -> int:
    started = time.time()
    names = args.suite or sorted(_SUITES)
    report = {"suites": {}, "suite_seconds": {}, "seed": args.seed,
              "version": __version__}
    all_pass = True
    for name in names:
        suite_started = time.perf_counter()
        checks = _SUITES[name](args.seed)
        report["suite_seconds"][name] = round(time.perf_counter() - suite_started, 3)
        report["suites"][name] = checks
        for check in checks:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {name}: {check['name']}: "
                  f"{check['value']:.6g} (tolerance {check['tolerance']:g})")
            all_pass &= check["pass"]
    report["pass"] = all_pass
    report["elapsed_s"] = round(time.time() - started, 3)
    out = _out_dir(args)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return EXIT_OK if all_pass else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
