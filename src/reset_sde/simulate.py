"""Trajectory and marginal-sample generation.

Two schemes are provided.  The grid Euler scheme applies, at each step of
size dt, a reset with probability r(t)*dt and otherwise a Gaussian
increment of variance 2*D*dt.  The exact event-driven scheme first draws
the reset epochs from the clock, inserts them into the output grid and
fills the gaps with exact Brownian increments, so the jump to the reset
point is represented without discretisation error.

Ensembles derive one RNG substream per trajectory from (seed, index),
which makes results bit-identical no matter how many worker threads run.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math
import os
from typing import Callable, Optional, Union

import numpy as np

from . import _kernels
from .core import (
    DomainError,
    Ensemble,
    NonhomogeneousPoissonClock,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    SpecError,
    Trajectory,
    spec_to_json,
    time_atol,
    validate_spec,
    write_table,
)
from .clocks import (
    IntensityFunction,
    cumulative_intensity,
    inverse_cumulative_intensity,
    sample_reset_times,
)

# Per-step reset probability must stay a small probability; the boundary
# value 0.1 is admitted so dt = 0.1 at unit rate is a valid step.
MAX_EULER_RESET_PROB = 0.1

DEFAULT_EXACT_POINTS = 257

THREADS_ENV_VAR = "RESET_SDE_THREADS"


@dataclass(frozen=True)
class EulerScheme:
    dt: float


@dataclass(frozen=True)
class ExactScheme:
    pass


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme choice, time horizon, and optional output grid."""
    scheme: Union[EulerScheme, ExactScheme]
    horizon: float
    grid: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _Prepared(SchemeConfig):
    """A config that ``run_ensemble`` validated for its spec, with the
    per-trajectory sampler built from it, so that ``simulate_exact`` and
    ``simulate_euler`` skip validation and set-up on every trajectory."""
    sample: Optional[Callable] = None


def _base_rate(clock):
    if isinstance(clock, (PoissonClock, NonhomogeneousPoissonClock)):
        return clock.rate
    return None


def validate_scheme(spec: ProcessSpec, cfg: SchemeConfig) -> SchemeConfig:
    validate_spec(spec)
    if not cfg.horizon > 0:
        raise SpecError("horizon must be positive")
    grid = None
    if cfg.grid is not None:
        grid = np.asarray(cfg.grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
            raise SpecError("grid must be strictly increasing")
        if grid[0] < 0 or grid[-1] > cfg.horizon * (1 + 1e-12):
            raise SpecError("grid must lie within [0, horizon]")
    if isinstance(cfg.scheme, EulerScheme):
        dt = cfg.scheme.dt
        if not dt > 0:
            raise SpecError("dt must be positive")
        rate = _base_rate(spec.clock)
        if rate is None:
            raise SpecError("the Euler scheme supports Poisson clocks only; "
                            "use the exact scheme for renewal clocks")
        if rate * dt > MAX_EULER_RESET_PROB * (1 + 1e-12):
            raise SpecError(
                f"r*dt = {rate * dt:g} exceeds {MAX_EULER_RESET_PROB}; reduce dt")
        if grid is not None and np.any(
                np.abs(np.rint(grid / dt) * dt - grid) > time_atol(cfg.horizon)):
            raise SpecError("requested times must be multiples of dt")
    elif not isinstance(cfg.scheme, ExactScheme):
        raise SpecError(f"unknown scheme: {type(cfg.scheme).__name__}")
    return cfg


def _euler_reset_probs(clock, times_left, dt):
    """Per-step reset probabilities, left-endpoint intensity."""
    if isinstance(clock, PoissonClock):
        p = np.full(len(times_left), clock.rate * dt)
    else:
        p = IntensityFunction(clock.rate, clock.exponent)(times_left) * dt
    if np.any(p >= 1.0):
        raise DomainError("time step too coarse: r(t)*dt >= 1 inside the horizon")
    return p


def simulate_euler(spec: ProcessSpec, cfg: SchemeConfig, rng, drift: float = 0.0) -> Trajectory:
    """One grid-Euler trajectory tabulated on the dt lattice.

    ``drift`` adds a constant drift*dt to the diffusive branch; it exists
    for checking the generalised chain rule and has no analytic support.
    """
    if isinstance(cfg, _Prepared) and drift == 0.0:
        return cfg.sample(rng)
    validate_scheme(spec, cfg)
    if not isinstance(cfg.scheme, EulerScheme):
        raise SpecError("simulate_euler requires an Euler scheme config")
    return _euler_sampler(spec, cfg, drift)[1](rng)


def _euler_sampler(spec, cfg, drift=0.0):
    """(lattice, rng -> one Euler trajectory) of a validated config; the
    lattice and the reset probabilities are computed once and shared."""
    dt = cfg.scheme.dt
    n_steps = int(math.ceil(cfg.horizon / dt - 1e-12))
    times = np.arange(n_steps + 1) * dt
    p = _euler_reset_probs(spec.clock, times[:-1], dt)
    scale = math.sqrt(2.0 * spec.diffusivity * dt)

    def sample(rng):
        u = rng.random(n_steps)
        z = rng.standard_normal(n_steps)
        increments = drift * dt + scale * z
        flags = u < p
        positions = _kernels.walk(spec.x0, spec.x_reset, increments, flags)
        return Trajectory(times=times, positions=positions,
                          reset_times=times[1:][flags])

    return times, sample


def _resolve_exact_grid(cfg: SchemeConfig) -> np.ndarray:
    if cfg.grid is not None:
        grid = np.asarray(cfg.grid, dtype=float)
        if grid[0] != 0.0:
            grid = np.concatenate(([0.0], grid))
        return grid
    return np.linspace(0.0, cfg.horizon, DEFAULT_EXACT_POINTS)


def simulate_exact(spec: ProcessSpec, cfg: SchemeConfig, rng) -> Trajectory:
    """One event-driven trajectory; reset epochs are inserted into the grid."""
    if isinstance(cfg, _Prepared):
        return cfg.sample(rng)
    validate_scheme(spec, cfg)
    return _exact_sampler(spec, cfg)[1](rng)


def _exact_sampler(spec, cfg):
    """(output grid, rng -> one exact trajectory) of a validated config;
    the grid is resolved once and shared."""
    grid = _resolve_exact_grid(cfg)
    two_d = 2.0 * spec.diffusivity

    def sample(rng):
        resets = sample_reset_times(spec.clock, cfg.horizon, rng)
        slots = np.searchsorted(grid, resets)
        if (grid[slots.clip(max=len(grid) - 1)] == resets).any():
            # a reset on a grid time shares its row
            merged = np.union1d(grid, resets)
            flags = np.isin(merged[1:], resets)
        else:
            at = slots + np.arange(len(resets))
            is_reset = np.zeros(len(grid) + len(resets), dtype=bool)
            is_reset[at] = True
            merged = np.empty(len(is_reset))
            merged[at] = resets
            merged[~is_reset] = grid
            flags = is_reset[1:]
        z = rng.standard_normal(len(merged) - 1)
        increments = np.sqrt(two_d * (merged[1:] - merged[:-1])) * z
        positions = _kernels.walk(spec.x0, spec.x_reset, increments, flags)
        return Trajectory(times=merged, positions=positions, reset_times=resets)

    return grid, sample


# ---------------------------------------------------------------------------
# Marginal samplers
# ---------------------------------------------------------------------------

def _last_reset_ages(clock, t, u):
    """Age t - tau of the most recent reset before t, or nan when none.

    Uses P(no event in (a, t]) = exp(R(a) - R(t)): a uniform draw u lands
    in the no-event atom when u <= exp(-R(t)), else the last event time is
    R^{-1}(R(t) + log u).
    """
    if isinstance(clock, PoissonClock):
        if clock.rate == 0.0:
            return np.full(len(u), np.nan)
        f = IntensityFunction(clock.rate, 0.0)
    else:
        f = IntensityFunction(clock.rate, clock.exponent)
    total = cumulative_intensity(f, t)
    none = np.log(u) <= -total
    shifted = np.maximum(total + np.log(u), 0.0)
    tau = inverse_cumulative_intensity(f, shifted)
    return np.where(none, np.nan, t - tau)


def marginal_samples(spec: ProcessSpec, t: float, n: int, seed) -> np.ndarray:
    """n i.i.d. draws of the process position at time t, no path storage.

    Conditioned on the last reset age a, the position is
    Normal(x_reset, 2*D*a); with no reset it is Normal(x0, 2*D*t).
    Distributionally identical to exact-scheme marginals.
    """
    validate_spec(spec)
    if not t > 0:
        raise DomainError("t must be positive")
    if not n >= 1:
        raise SpecError("n must be at least 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    z = rng.standard_normal(n)
    if isinstance(spec.clock, RenewalClock):
        ages = np.empty(n)
        for i in range(n):
            events = sample_reset_times(spec.clock, t, rng)
            ages[i] = t - events[-1] if len(events) else np.nan
    else:
        ages = _last_reset_ages(spec.clock, t, u)
    none = np.isnan(ages)
    scale = np.sqrt(2.0 * spec.diffusivity * np.where(none, t, ages))
    center = np.where(none, spec.x0, spec.x_reset)
    return center + scale * z


def euler_marginal_samples(spec: ProcessSpec, ts, dt: float, n: int, seed,
                           drift: float = 0.0) -> np.ndarray:
    """n Euler-scheme positions at each time in ts, without simulating paths.

    All requested times must sit on the dt lattice.  Returns shape
    (n, len(ts)), or (n,) when ts is a scalar.  The Euler chain's marginal
    is sampled exactly: the chain survives steps i..k-1 without a reset
    with probability prod (1 - p_j), so the last reset step is an inverse-
    CDF draw on the log survival, and the diffusive steps after it sum to
    one Normal.  Times are visited in increasing order, each conditioned
    on the position at the previous one (Markov property), with one
    uniform and one normal per sample and time.
    """
    scalar = np.ndim(ts) == 0
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    lattice = np.unique(ts)
    cfg = SchemeConfig(scheme=EulerScheme(dt=dt), horizon=float(ts.max()), grid=lattice)
    validate_scheme(spec, cfg)
    ks = np.rint(lattice / dt).astype(int)
    p = _euler_reset_probs(spec.clock, np.arange(ks[-1]) * dt, dt)
    # hazard[k] = -log P(no reset in steps 0..k-1), non-decreasing
    hazard = np.concatenate(([0.0], -np.cumsum(np.log1p(-p))))
    rng = np.random.default_rng(seed)
    cols = np.empty((n, len(ks)))
    x = np.full(n, float(spec.x0))
    k_prev = 0
    for col, k in enumerate(ks):
        log_u = np.log(rng.random(n))
        z = rng.standard_normal(n)
        survived = log_u <= hazard[k_prev] - hazard[k]
        # lattice index just after the last reset: the smallest m with
        # P(no reset in steps m..k-1) >= u, and after the previous time
        m = np.maximum(np.searchsorted(hazard, hazard[k] + log_u), k_prev + 1)
        age = np.where(survived, k - k_prev, k - m)
        center = np.where(survived, x, spec.x_reset)
        x = center + drift * dt * age + np.sqrt(2.0 * spec.diffusivity * dt * age) * z
        cols[:, col] = x
        k_prev = k
    out = cols[:, np.searchsorted(lattice, ts)]
    return out[:, 0] if scalar else out


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def resolve_threads(threads=None) -> int:
    if threads is None:
        threads = os.environ.get(THREADS_ENV_VAR, "1")
    threads = int(threads)
    if threads < 1:
        raise SpecError("threads must be at least 1")
    return threads


def run_ensemble(spec: ProcessSpec, cfg: SchemeConfig, n: int, seed,
                 threads=None, keep: str = "full") -> Ensemble:
    """n trajectories with per-trajectory RNG substreams.

    Substream i derives from SeedSequence(seed).spawn at index i, so two
    runs with the same arguments agree bit for bit, independent of the
    thread count and of execution order, and trajectory i equals
    ``simulate_exact`` or ``simulate_euler`` on ``default_rng(child i)``.
    The ensemble records the root entropy as its seed, so a run with
    ``seed=None`` can be repeated.  ``keep="grid"`` stores positions only
    at the common output grid (resets still recorded), which keeps large
    exact-scheme ensembles small.
    """
    validate_scheme(spec, cfg)
    if not n >= 1:
        raise SpecError("ensemble size must be at least 1")
    if keep not in ("full", "grid"):
        raise SpecError("keep must be 'full' or 'grid'")
    if isinstance(cfg.scheme, EulerScheme):
        simulate = simulate_euler
        lattice, sample = _euler_sampler(spec, cfg)
        grid = lattice if cfg.grid is None else np.asarray(cfg.grid, dtype=float)
    else:
        simulate = simulate_exact
        grid, sample = _exact_sampler(spec, cfg)
    prepared = _Prepared(cfg.scheme, cfg.horizon, cfg.grid, sample)

    root = np.random.SeedSequence(seed)
    children = root.spawn(n)

    def one(i):
        tr = simulate(spec, prepared, np.random.default_rng(children[i]))
        if keep == "grid":
            tr = Trajectory(times=grid, positions=tr.at(grid),
                            reset_times=tr.reset_times)
        return tr

    workers = resolve_threads(threads)
    if workers == 1:
        trajectories = [one(i) for i in range(n)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(pool.map(one, range(n)))
    return Ensemble(spec=spec, scheme=cfg, seed=root.entropy,
                    trajectories=trajectories, grid=grid)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _time_cells(grid):
    """times -> their CSV cells, with each shared grid time formatted once.

    Times that hold every grid time reuse the grid's cells and format only
    their other times (the resets); any other times pass through as they
    are.  Grid times are matched by their bits, not their values, so a
    grid -0.0 never stands in for a 0.0.
    """
    if grid is None:
        return lambda times: times
    grid = np.asarray(grid, dtype=np.float64)
    bits = grid.view(np.int64)
    cells = np.array(list(map(repr, grid.tolist())), dtype=object)

    def format_times(times):
        if times.dtype != np.float64 or not len(times):
            return times
        slots = np.searchsorted(times, grid).clip(max=len(times) - 1)
        if (times[slots].view(np.int64) != bits).any():
            return times
        out = np.empty(len(times), dtype=object)
        out[slots] = cells
        other = np.ones(len(times), dtype=bool)
        other[slots] = False
        out[other] = list(map(repr, times[other].tolist()))
        return out.tolist()

    return format_times


def ensemble_to_csv(ensemble: Ensemble, path) -> None:
    """Every trajectory's (t, x) rows, grouped by trajectory in index order."""
    format_times = _time_cells(ensemble.grid)
    write_table(path, ("traj", "t", "x"),
                ((i, format_times(tr.times), tr.positions)
                 for i, tr in enumerate(ensemble.trajectories)))


def resets_to_csv(ensemble: Ensemble, path) -> None:
    """Every trajectory's reset epochs, grouped by trajectory in index order."""
    write_table(path, ("traj", "reset_time"),
                ((i, tr.reset_times) for i, tr in enumerate(ensemble.trajectories)))


def scheme_to_json(cfg: SchemeConfig) -> dict:
    doc = {"horizon": cfg.horizon}
    if isinstance(cfg.scheme, EulerScheme):
        doc["scheme"] = "euler"
        doc["dt"] = cfg.scheme.dt
    else:
        doc["scheme"] = "exact"
    if cfg.grid is not None:
        doc["grid"] = [float(g) for g in np.asarray(cfg.grid)]
    return doc


def ensemble_metadata(ensemble: Ensemble) -> dict:
    """JSON document sufficient to regenerate the ensemble."""
    return {
        "spec": spec_to_json(ensemble.spec),
        "run": dict(scheme_to_json(ensemble.scheme),
                    n=len(ensemble), seed=ensemble.seed),
    }
