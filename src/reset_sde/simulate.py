"""Trajectory and marginal-sample generation.

Two schemes are provided.  The grid Euler scheme applies, at each step of
size dt, a reset with probability r(t)*dt and otherwise a Gaussian
increment of variance 2*D*dt.  The exact event-driven scheme first draws
the reset epochs from the clock, inserts them into the output grid and
fills the gaps with exact Brownian increments, so the jump to the reset
point is represented without discretisation error.

Ensembles derive one RNG substream per trajectory from (seed, index), so
any process can simulate any range of indices: ``ensemble_csv`` splits an
ensemble over forked worker processes and writes the same bytes for any
worker count.  Trajectories are simulated in blocks, with each
trajectory's bits those of a run of its own: the block's generators are
seeded in one array evaluation of numpy's ``SeedSequence`` hash over
their spawn keys, its clocks sampled in one call, row by row, and then
come one merge of the resets into the grid, one walk and one CSV write
per block.
"""

from dataclasses import dataclass, replace
import math
import numbers
import os
import pickle
import shutil
import time
from typing import Optional, Union

import numpy as np

from . import _kernels
from .core import (
    DomainError,
    Ensemble,
    ProcessSpec,
    SpecError,
    Trajectory,
    _CHUNK,
    _cells,
    _chunks,
    _float_cells,
    open_table,
    spec_to_json,
    time_atol,
    validate_spec,
    write_table,
)
from .clocks import DeterministicGaps, _draw_gaps, likely_resets

# Per-step reset probability must stay a small probability; the boundary
# value 0.1 is admitted so dt = 0.1 at unit rate is a valid step.
MAX_EULER_RESET_PROB = 0.1

DEFAULT_EXACT_POINTS = 257

# A run expected to walk more rows than this, over all its trajectories
# (grid or lattice points plus resets), is refused before any work: a row
# costs 8 bytes of each array a trajectory walks, and about 25 of CSV.
# The marginal samplers refuse an output of more values than this, and as
# they work in fixed chunks that bounds their real memory too: 8 bytes a
# value, a byte or two of flags a sample, and a few chunks.
MAX_RUN_ROWS = 10 ** 8

TRAJECTORIES_CSV = "trajectories.csv"
RESETS_CSV = "resets.csv"

# Below this many expected CSV rows ``ensemble_csv`` runs in one process by
# default: forking a shard's child and reaping it costs about 4 ms (a process
# pool cost 12-14 ms).  Two forked workers beat one in 14 of 36 alternating
# pairs at 64 trajectories of 257 rows and in 23 of 24 at 112 (2-vCPU VM),
# so the break-even lies between; the bound stays at 128.
_MIN_SHARDED_ROWS = 128 * DEFAULT_EXACT_POINTS

# Trajectories are simulated and written in blocks of this many: one
# merge, one walk and one CSV write per block.  Memory grows with the
# block, not the shard; blocks of 250 raised the benchmark's peak RSS
# from 86 to 98 MiB.
_BLOCK = 32


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
class _Plan:
    """A run as ``validate_scheme`` resolves it.  ``times`` are the rows
    each trajectory has besides its own reset epochs: the grid with 0
    prepended (257 points by default), or for Euler the dt lattice, with
    ``probs`` its per-step reset probabilities (None for exact).  ``grid``
    holds the times of ``keep="grid"``, and ``rows`` the rows a trajectory
    is expected to walk.  ``simulate_exact`` and ``simulate_euler`` take a
    plan in place of the config."""
    spec: ProcessSpec
    cfg: SchemeConfig
    times: np.ndarray
    probs: Optional[np.ndarray]
    grid: np.ndarray
    rows: float


def _check_n(n):
    """Refuse a size n that is not an integer of at least 1."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not n >= 1:
        raise SpecError(f"n must be at least 1, an integer; got {n!r}")


def validate_scheme(spec: ProcessSpec, cfg: SchemeConfig, n: int = 1) -> _Plan:
    """Check ``cfg`` for ``spec`` and n trajectories and return the run's
    ``_Plan``.  n must be an integer of at least 1, and a run expected to
    walk more than ``MAX_RUN_ROWS`` rows is refused before any lattice is
    made."""
    validate_spec(spec)
    _check_n(n)
    if not 0 < cfg.horizon < math.inf:
        raise SpecError("horizon must be positive and finite")
    grid = None
    if cfg.grid is not None:
        grid = np.asarray(cfg.grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 1 or not np.all(np.diff(grid) > 0):
            raise SpecError("grid must be strictly increasing")
        if not 0 <= grid[0] or not grid[-1] <= cfg.horizon * (1 + 1e-12):
            raise SpecError("grid must lie within [0, horizon]")
    if isinstance(cfg.scheme, EulerScheme):
        dt = cfg.scheme.dt
        if not 0 < dt < math.inf:
            raise SpecError("dt must be positive and finite")
        rate = spec.clock.base_rate
        if rate is None:
            raise SpecError("the Euler scheme supports Poisson clocks only; "
                            "use the exact scheme for renewal clocks")
        if rate * dt > MAX_EULER_RESET_PROB * (1 + 1e-12):
            raise SpecError(
                f"r*dt = {rate * dt:g} exceeds {MAX_EULER_RESET_PROB}; reduce dt")
        if grid is not None and np.any(
                np.abs(np.rint(grid / dt) * dt - grid) > time_atol(cfg.horizon)):
            raise SpecError("requested times must be multiples of dt")
        times, points = None, cfg.horizon / dt + 1.0
    elif isinstance(cfg.scheme, ExactScheme):
        if grid is None:
            times = np.linspace(0.0, cfg.horizon, DEFAULT_EXACT_POINTS)
        else:
            times = grid if grid[0] == 0.0 else np.concatenate(([0.0], grid))
        points = len(times)
    else:
        raise SpecError(f"unknown scheme: {type(cfg.scheme).__name__}")
    rows = points + likely_resets(spec.clock, cfg.horizon)
    if not n * rows <= MAX_RUN_ROWS:
        raise SpecError(f"the run would walk about {n * rows:.3g} rows, above the budget "
                        f"of {MAX_RUN_ROWS:.0e}; lower n, the horizon or the reset rate")
    if times is not None:
        return _Plan(spec, cfg, times, None, times, rows)
    lattice = np.arange(int(math.ceil(cfg.horizon / dt - 1e-12)) + 1) * dt
    probs = spec.clock.intensity(lattice[:-1]) * dt  # left-endpoint intensity
    if np.any(probs >= 1.0):
        raise DomainError("time step too coarse: r(t)*dt >= 1 inside the horizon")
    return _Plan(spec, cfg, lattice, probs, lattice if grid is None else grid, rows)


def simulate_euler(spec: ProcessSpec, cfg: SchemeConfig, rng) -> Trajectory:
    """One grid-Euler trajectory tabulated on the dt lattice."""
    plan = cfg if isinstance(cfg, _Plan) else validate_scheme(spec, cfg)
    if plan.probs is None:
        raise SpecError("simulate_euler requires an Euler scheme config")
    return _only(_block(plan, [rng]))


def simulate_exact(spec: ProcessSpec, cfg: SchemeConfig, rng) -> Trajectory:
    """One event-driven trajectory; reset epochs are inserted into the
    grid.  Any config runs the exact scheme, on its horizon and grid."""
    if not isinstance(cfg, _Plan):
        cfg = validate_scheme(spec, replace(cfg, scheme=ExactScheme()))
    return _only(_block(cfg, [rng]))


# ---------------------------------------------------------------------------
# Blocks of trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    """Consecutive trajectories, one per row of (rows, longest) arrays.

    Row k holds ``lengths[k]`` times and positions, where ``valid`` is
    set, then repeats its last time and position.  ``resets`` holds every
    row's epochs in turn, ``counts[k]`` of them for row k; ``own_rows``
    marks the entries that are an epoch off the shared times, and
    ``own_epochs`` the epochs they hold, in the same order.
    """
    times: np.ndarray
    positions: np.ndarray
    lengths: np.ndarray
    valid: np.ndarray
    resets: np.ndarray
    counts: np.ndarray
    own_rows: np.ndarray
    own_epochs: np.ndarray


def _entropy(seed):
    """The root entropy of a run: ``seed``, or entropy from the OS for None."""
    try:
        return np.random.SeedSequence(seed).entropy
    except (TypeError, ValueError):
        raise SpecError(f"seed must be a non-negative integer or None; got {seed!r}") from None


def _walk(spec, increments, flags):
    """Row-wise walk positions.  A block of one, as ``simulate_exact`` and
    ``simulate_euler`` give, goes to the 1-D ``_kernels.walk``: the same
    bits, and one kernel call per trajectory."""
    if len(increments) == 1:
        return _kernels.walk(spec.x0, spec.x_reset, increments[0], flags[0])[None]
    return _kernels.walk_batch(spec.x0, spec.x_reset, increments, flags)


def _block(plan, rngs):
    """One trajectory per generator, each drawing in the order of a
    single run: resets then normals (exact), uniforms then normals
    (Euler).  Padding adds zero increments, and the walk's row-wise
    cumulative sums keep every bit of an unpadded row."""
    spec = plan.spec
    if plan.probs is not None:
        lattice, dt = plan.times, plan.cfg.scheme.dt
        u = np.empty((len(rngs), len(plan.probs)))
        z = np.empty_like(u)
        for k, rng in enumerate(rngs):
            rng.random(out=u[k])
            rng.standard_normal(out=z[k])
        flags = u < plan.probs
        positions = _walk(spec, math.sqrt(2.0 * spec.diffusivity * dt) * z, flags)
        times = np.broadcast_to(lattice, positions.shape)
        return _Block(times, positions, np.full(len(rngs), len(lattice)),
                      np.ones(times.shape, dtype=bool), times[:, 1:][flags],
                      flags.sum(axis=1), np.zeros(times.shape, dtype=bool),
                      np.zeros(int(flags.sum()), dtype=bool))
    grid = plan.times
    resets, counts = spec.clock.sample_events(plan.cfg.horizon, rngs)
    row = np.arange(len(rngs)).repeat(counts)
    slot = np.searchsorted(grid, resets)
    hit = grid[np.minimum(slot, len(grid) - 1)] == resets
    own = ~hit
    if hit.any():
        # As np.union1d merges them, a reset on a grid time shares its
        # row, and in a row with such a reset so do equal epochs; each
        # other epoch has a row of its own, as an insertion gives it.
        shared = np.zeros(len(rngs), dtype=bool)
        shared[row[hit]] = True
        own[1:] &= ~((resets[1:] == resets[:-1]) & (row[1:] == row[:-1]) & shared[row[1:]])
    # an epoch's row: its grid slot plus the earlier own rows of its
    # trajectory (the inclusive count, less one off the grid), so a
    # dropped repeat shares the row before
    own_row = row[own]
    own_count = np.bincount(own_row, minlength=len(rngs))
    at = slot + own.cumsum() - (own_count.cumsum() - own_count)[row] - ~hit
    lengths = len(grid) + own_count
    shape = (len(rngs), lengths.max())
    own_rows = np.zeros(shape, dtype=bool)
    own_rows[own_row, at[own]] = True
    flags = np.zeros(shape, dtype=bool)
    flags[row, at] = True
    valid = np.arange(shape[1]) < lengths[:, None]
    times = np.empty(shape)
    times[own_rows] = resets[own]
    times[valid ^ own_rows] = grid[None].repeat(len(rngs), axis=0).ravel()
    if lengths.min() < shape[1]:
        times[~valid] = times[np.arange(len(rngs)), lengths - 1].repeat(shape[1] - lengths)
    z = np.zeros((shape[0], shape[1] - 1))
    for k, rng in enumerate(rngs):
        rng.standard_normal(out=z[k, :lengths[k] - 1])
    increments = np.sqrt(2.0 * spec.diffusivity * (times[:, 1:] - times[:, :-1])) * z
    positions = _walk(spec, increments, flags[:, 1:])
    return _Block(times, positions, lengths, valid, resets, counts, own_rows, own)


def _only(block):
    """The trajectory of a block of one, which has no padding."""
    return Trajectory(block.times[0], block.positions[0], block.resets)


# ---------------------------------------------------------------------------
# Marginal samplers
# ---------------------------------------------------------------------------

def _chain(spec, times, ages, n, seed, unit=1.0):
    """(n, len(times)) positions at the increasing ``times``, without
    paths, in a column-major array.

    Each time is drawn given the previous one (Markov property).
    ``ages(j, row, out, rng)`` writes into ``row``, a contiguous vector of
    n, how long each sample has diffused since the previous time or since
    its last reset, and returns the flags of the samples that saw no
    reset since the previous time; the columns of ``out`` from j on are
    free until their own time, and with one time ``row`` is that column.
    Then one normal z per sample, drawn ``_CHUNK`` at a time, gives a
    centred Normal step of variance 2*D*unit*age, times being in units of
    ``unit``.  The arithmetic runs a chunk at a time, so peak memory is
    about the output plus one chunk (and ``row`` with several times).
    An output of more than ``MAX_RUN_ROWS`` values is refused before any
    array is made.
    """
    _check_n(n)
    if not n * len(times) <= MAX_RUN_ROWS:
        raise SpecError(f"{n} samples at {len(times)} times exceed the budget of "
                        f"{MAX_RUN_ROWS:.0e} values; lower n or the number of times")
    rng = np.random.default_rng(seed)
    var = 2.0 * spec.diffusivity * unit
    # column-major, the layout of its reordered copies: a sum over samples
    # adds in one order whether or not the caller's times were sorted
    out = np.empty((n, len(times)), order="F")
    row = out[:, 0] if len(times) == 1 else np.empty(n)
    x0, x_reset = float(spec.x0), float(spec.x_reset)
    for j in range(len(times)):
        survived = ages(j, row, out, rng)
        for s in _chunks(n):
            # center + sqrt(var age) z, in place in the row; no temporary
            # is named, so none outlives its chunk
            step = row[s]
            np.multiply(var, step, out=step)
            np.sqrt(step, out=step)
            np.multiply(step, rng.standard_normal(len(step)), out=step)
            np.add(np.where(survived[s], out[s, j - 1] if j else x0, x_reset), step,
                   out=out[s, j])
    return out


def _columns_at(chain, times, t):
    """The columns of ``chain``, one per time of the sorted, distinct
    ``times``, in the order of ``t``: a column view for a scalar t, the
    chain itself when t is ``times``, else a reordered copy."""
    index = np.searchsorted(times, t)
    if np.array_equal(index, np.arange(len(times))):  # false for a scalar t: shape ()
        return chain
    return chain[:, index]


def _hazard_ages(times, hazards, inverse, tick=0.0):
    """``ages`` of a Markov clock whose hazard H(t) = -log P(no reset in
    [0, t]) is ``hazards[j]`` at ``times[j]``, ``inverse(v)`` being the
    earliest time whose hazard reaches v.  A sample survives since t_prev
    when log u <= H(t_prev) - H(t), u uniform; else its last reset is at
    H^-1(H(t) + log u), at least ``tick`` after t_prev.  The n uniforms
    are drawn into ``row`` in one call and turned into ages in place."""
    def ages(j, row, out, rng):
        rng.random(out=row)
        t, h = times[j], hazards[j]
        t_prev, h_prev = (times[j - 1], hazards[j - 1]) if j else (0.0, 0.0)
        survived = np.empty(len(row), dtype=bool)
        for s in _chunks(len(row)):
            log_u = np.log(row[s], out=row[s])
            np.less_equal(log_u, h_prev - h, out=survived[s])
            # the age t - last, its temporaries unnamed so none outlives the chunk
            np.subtract(t, np.maximum(inverse(np.maximum(h + log_u, h_prev)), t_prev + tick),
                        out=log_u)
            np.copyto(log_u, t - t_prev, where=survived[s])
        return survived

    return ages


def _renewal_ages(times, law):
    """``ages`` of a renewal clock.  Each sample carries its next epoch,
    already drawn, in the last column of the output until that column's
    time, so a gap in progress at one time runs on to the next.  Samples
    whose next epoch is not past a time draw rows of gaps, running sums
    from that epoch, doubling in width (at most 2**20 draws a round)
    until it is; the rest of a row is independent of the samples and
    dropped.  A round draws its rows in order, a chunk's worth at a time.
    Deterministic gaps draw nothing: the last epoch by t is k * gap, as
    in their sampler."""
    if isinstance(law, DeterministicGaps):
        def lattice_ages(j, row, out, rng):
            t, t_prev = times[j], (times[j - 1] if j else 0.0)
            k = law.count(t)
            survived = k == law.count(t_prev)
            row.fill(t - (t_prev if survived else k * law.gap))
            return np.full(len(row), survived)

        return lattice_ages

    def ages(j, row, out, rng):
        # at the last time nxt may be row itself: a sample's slot holds its
        # next epoch until its age is known
        nxt, n = out[:, -1], len(row)
        if j == 0:
            for s in _chunks(n):
                nxt[s] = _draw_gaps(law, rng, s.stop - s.start)
        t, t_prev = times[j], (times[j - 1] if j else 0.0)
        survived = nxt > t
        stale, width = ~survived, 16
        while count := np.count_nonzero(stale):
            width = max(1, min(width, 2 ** 20 // count))
            group = max(1, _CHUNK // (width + 1))
            for s in _chunks(n):
                batch = np.flatnonzero(stale[s])
                batch += s.start
                for lo in range(0, len(batch), group):
                    _run_gaps(law, rng, batch[lo:lo + group], width, t, nxt, row, stale)
            width *= 2
        np.copyto(row, t - t_prev, where=survived)
        return survived

    return ages


def _run_gaps(law, rng, rows, width, t, nxt, row, stale):
    """Draw ``width`` gaps for each sample of ``rows`` and sum them on
    from its next epoch.  A sample whose sums pass t gets its age at t in
    ``row``, its first sum past t as next epoch and its ``stale`` flag
    off; the others take their last sum, still at or below t, as next
    epoch."""
    epochs = np.hstack([nxt[rows, None], _draw_gaps(law, rng, (len(rows), width))]
                       ).cumsum(axis=1)
    k, at = (epochs <= t).sum(axis=1), np.arange(len(rows))
    last = epochs[at, k - 1]
    nxt[rows] = epochs[at, np.minimum(k, width)]
    done = k <= width
    row[rows[done]] = t - last[done]
    stale[rows[done]] = False


def marginal_samples(spec: ProcessSpec, t, n: int, seed) -> np.ndarray:
    """n draws of the process position at time t, without path storage;
    for an array of times, shape (n, len(t)) with row i one path's
    positions at those times.

    Conditioned on the last reset age a, the position is
    Normal(x_reset, 2*D*a); with no reset it is Normal(x0, 2*D*t).  The
    last reset is drawn by inverting the clock's R(t), refused where R(t)
    overflows a double, or from a renewal clock's gaps, unless n samples
    likely draw over ``MAX_RUN_ROWS``.  Distributionally identical to
    exact-scheme marginals.  The work runs in fixed chunks of samples:
    at one time peak memory is about the output plus one chunk; several
    times add an n-vector, and times that are not sorted and distinct
    the copy that puts the columns in the requested order.
    """
    validate_spec(spec)
    _check_n(n)
    times = np.unique(np.asarray(t, dtype=float))
    if not np.all((times > 0) & (times < math.inf)):
        raise DomainError("t must be positive and finite")
    clock, t_max = spec.clock, float(times.max(initial=0.0))
    if clock.base_rate is not None:
        if not likely_resets(clock, t_max) < math.inf:
            raise SpecError(f"R(t) overflows a double at t = {t_max:g}")
        ages = _hazard_ages(times, [clock.cumulative(s) for s in times],
                            clock.inverse_cumulative)
    else:
        gaps = n * likely_resets(clock, t_max)
        if not gaps <= MAX_RUN_ROWS:
            raise SpecError(f"{n} samples would draw about {gaps:.3g} gaps, above the "
                            f"budget of {MAX_RUN_ROWS:.0e}; lower n or the last time")
        ages = _renewal_ages(times, clock.law)
    return _columns_at(_chain(spec, times, ages, n, seed), times, t)


def euler_marginal_samples(spec: ProcessSpec, ts, dt: float, n: int, seed) -> np.ndarray:
    """n Euler-scheme positions at each time in ts, without simulating paths.

    All requested times must sit on the dt lattice.  Returns shape
    (n, len(ts)), or (n,) when ts is a scalar.  The Euler chain survives
    steps i..k-1 without a reset with probability prod (1 - p_j), so
    ``_chain`` samples its marginals exactly on the lattice, with the
    tabulated log survival as its hazard; peak memory is as for
    ``marginal_samples``, about the output plus one chunk.
    """
    lattice = np.unique(np.asarray(ts, dtype=float))
    if not len(lattice):
        raise DomainError("ts must hold at least one time")
    plan = validate_scheme(spec, SchemeConfig(EulerScheme(dt), float(lattice[-1]), lattice))
    ks = np.rint(lattice / dt).astype(int)
    # hazard[k] = -log P(no reset in steps 0..k-1), non-decreasing; a reset
    # in step m-1 puts the chain at the reset point at lattice index m
    hazard = np.concatenate(([0.0], -np.cumsum(np.log1p(-plan.probs[:ks[-1]]))))
    ages = _hazard_ages(ks, hazard[ks], lambda v: np.searchsorted(hazard, v), tick=1)
    return _columns_at(_chain(spec, ks, ages, n, seed, unit=dt), lattice, ts)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def run_ensemble(spec: ProcessSpec, cfg: SchemeConfig, n: int, seed,
                 keep: str = "full") -> Ensemble:
    """n trajectories with per-trajectory RNG substreams.

    Substream i derives from SeedSequence(seed).spawn at index i, so two
    runs with the same arguments agree bit for bit, and trajectory i
    equals ``simulate_exact`` or ``simulate_euler`` on
    ``default_rng(child i)``.  The ensemble records the root entropy as its
    seed, so a run with ``seed=None`` can be repeated.  ``keep="grid"``
    stores positions only at the common output grid (resets still
    recorded), which keeps large exact-scheme ensembles small.
    """
    plan = validate_scheme(spec, cfg, n)
    if keep not in ("full", "grid"):
        raise SpecError("keep must be 'full' or 'grid'")
    entropy = _entropy(seed)
    from ._seeding import generators  # loads numpy.random, as a first run does
    one = simulate_exact if plan.probs is None else simulate_euler
    trajectories = []
    for lo in range(0, n, _BLOCK):
        for rng in generators(entropy, lo, min(lo + _BLOCK, n)):
            tr = one(spec, plan, rng)
            if keep == "grid":
                tr = Trajectory(plan.grid, tr.at(plan.grid), tr.reset_times)
            trajectories.append(tr)
    return Ensemble(spec=spec, scheme=cfg, seed=entropy,
                    trajectories=trajectories, grid=plan.grid)


def resolve_workers(n: int, workers=None, rows=DEFAULT_EXACT_POINTS) -> int:
    """Worker processes for an n-trajectory ``ensemble_csv`` whose
    trajectories write about ``rows`` CSV rows each.

    ``workers`` when given, else one per CPU this process may run on, or
    one for a run of too few rows to gain from more; never more than n.
    """
    if workers is None:
        workers = 1 if n * rows < _MIN_SHARDED_ROWS else _usable_cpus()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise SpecError("workers must be a positive integer")
    return max(1, min(workers, n))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ensemble_csv(spec: ProcessSpec, cfg: SchemeConfig, n: int, seed, out,
                 workers=None) -> dict:
    """Simulate n trajectories straight into ``trajectories.csv`` and
    ``resets.csv`` in the directory ``out``.

    The files hold the bytes that ``ensemble_to_csv`` and ``resets_to_csv``
    write for ``run_ensemble(spec, cfg, n, seed)``, for any worker count
    (see ``resolve_workers``).  The indices are split into contiguous
    shards, one per worker.  Each shard but the first runs in a child
    forked from the calling process, which already holds the run's one
    ``_Plan``, and writes its own part files; the calling process forks
    them all, then runs shard 0, then appends the parts, without their
    headers, to shard 0's files and deletes them.  Where ``os.fork`` is
    missing the calling process runs the shards in turn, with the same
    bytes.  Each shard simulates and writes its trajectories a block at
    a time, so memory is bounded by the block, not the shard.  An error
    in any shard is raised here once every child has exited, and no part
    file is left behind; a child that dies raises ``ChildProcessError``.
    A fork copies only the calling thread, so a program that runs threads
    holding locks while it calls this should pass ``workers=1``.

    Returns ``rows``, ``resets_drawn``, ``ensemble_s``, ``write_s`` and
    ``cpu_s``, each summed over the shards (so the times may exceed the
    wall time), ``shards_wall_s``, the wall time of the longest shard,
    ``workers``, the number of shards, and ``shards``, one dict per shard
    in index order: ``start_s``, its start in seconds after the first
    fork, and ``cpu``, the CPU it last ran on (None where
    ``/proc/self/stat`` cannot be read).  Shards that ran side by side
    on CPUs of their own have ``cpu_s`` near ``workers`` times
    ``shards_wall_s``; shards that shared a CPU, near once it.
    """
    plan = validate_scheme(spec, cfg, n)
    k = resolve_workers(n, workers, plan.rows)
    entropy = _entropy(seed)
    bounds = [i * n // k for i in range(k + 1)]
    paths = [os.path.join(out, name) for name in (TRAJECTORIES_CSV, RESETS_CSV)]
    parts = [[f"{path}.part{i}" for path in paths] for i in range(1, k)]
    shards = [(plan, entropy, lo, hi, its_paths)
              for lo, hi, its_paths in zip(bounds, bounds[1:], [paths] + parts)]
    if hasattr(os, "fork"):
        local, forked = shards[:1], shards[1:]
    else:
        local, forked = shards, []
    children = []
    started = time.perf_counter()
    try:
        try:
            for shard in forked:
                children.append(_fork_shard(started, *shard))
            counts = [_write_shard(started, *shard) for shard in local]
        finally:
            replies = [_reap(*child) for child in children]
        for ok, value in replies:
            if not ok:
                raise value
            counts.append(value)
        clock = time.perf_counter()
        for path, its_parts in zip(paths, zip(*parts)):
            _append_parts(path, its_parts)
        join_s = time.perf_counter() - clock
    finally:
        for shard in parts:
            for part in shard:
                if os.path.exists(part):
                    os.remove(part)
    totals = {key: sum(c[key] for c in counts)
              for key in ("rows", "resets_drawn", "ensemble_s", "write_s", "cpu_s")}
    totals["shards_wall_s"] = max(c["shards_wall_s"] for c in counts)
    totals["write_s"] += join_s
    totals["workers"] = k
    totals["shards"] = [{"start_s": c["start_s"], "cpu": c["cpu"]} for c in counts]
    return totals


def _fork_shard(started, *shard):
    """Fork a child that runs ``_write_shard(started, *shard)`` and sends
    ``(True, counts)`` or ``(False, exception)`` up a pipe, pickled; return
    its pid and the pipe's read end.  The child leaves by ``os._exit`` on
    every path, so it never runs the caller's code after the fork, nor
    flushes the caller's buffers; an exception that does not pickle is
    sent as a ``ChildProcessError`` holding its repr."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            reply = (True, _write_shard(started, *shard))
        except BaseException as exc:  # sent to the caller, which raises it
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
            pickle.loads(data)
        except Exception:
            error = ChildProcessError(f"a worker process raised {reply[1]!r}")
            data = pickle.dumps((False, error))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _reap(pid, read):
    """The reply of the child ``pid``: its pipe is read to the end before
    the wait, as a child blocked on a full pipe would never exit.  A child
    that sent nothing or exited other than 0 gives ``(False,
    ChildProcessError)``."""
    with open(read, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if data and code == 0:
        return pickle.loads(data)
    how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    return False, ChildProcessError(f"a worker process died: {how}")


def _write_shard(started, plan, entropy, start, stop, paths):
    """Simulate trajectories start..stop-1 of ``plan`` and write both CSVs
    of them to ``paths``, a block at a time; return the shard's counts,
    stage times (seeding and simulating in ``ensemble_s``, formatting and
    writing in ``write_s``), CPU seconds and wall seconds, its start in
    seconds after the ``perf_counter`` reading ``started`` and the CPU it
    last ran on."""
    start_s = time.perf_counter() - started
    from ._seeding import generators  # loads numpy.random, as a first run does
    clock, cpu = time.perf_counter(), time.process_time()
    time_cells = _float_cells(plan.times)
    rows = resets = 0
    ensemble_s = 0.0
    with open_table(paths[0], ("traj", "t", "x")) as write_rows, \
            open_table(paths[1], ("traj", "reset_time")) as write_resets:
        for lo in range(start, stop, _BLOCK):
            tick = time.perf_counter()
            block = _block(plan, generators(entropy, lo, min(lo + _BLOCK, stop)))
            ensemble_s += time.perf_counter() - tick
            ids = _cells(np.arange(lo, lo + len(block.lengths)))
            # each epoch is formatted once, for resets.csv and for its own row
            reset_cells = _float_cells(block.resets)
            write_resets((np.repeat(ids, block.counts), reset_cells))
            own = block.own_rows[block.valid]
            cells = np.empty(len(own), dtype=time_cells.dtype)
            cells[~own] = np.tile(time_cells, len(ids))
            cells[own] = reset_cells[block.own_epochs]
            write_rows((np.repeat(ids, block.lengths), cells, block.positions[block.valid]))
            rows += len(cells)
            resets += len(block.resets)
    wall_s = time.perf_counter() - clock
    return {"rows": rows, "resets_drawn": resets, "ensemble_s": ensemble_s,
            "write_s": wall_s - ensemble_s, "cpu_s": time.process_time() - cpu,
            "shards_wall_s": wall_s, "start_s": start_s, "cpu": _last_cpu()}


def _last_cpu():
    """The CPU this process last ran on, field 39 of ``/proc/self/stat``,
    or None where that file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    # fields 3 on follow the command name, which ends at the last ")"
    return int(stat.rsplit(b")", 1)[1].split()[36])


def _append_parts(path, parts):
    """Append each part file, less its header line, to ``path``."""
    with open(path, "ab") as out:
        for part in parts:
            with open(part, "rb") as fh:
                fh.readline()
                shutil.copyfileobj(fh, out)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def ensemble_to_csv(ensemble: Ensemble, path) -> None:
    """Every trajectory's (t, x) rows, grouped by trajectory in index
    order; each time is written from its own bits, so a -0.0 stays -0.0."""
    write_table(path, ("traj", "t", "x"),
                _trajectory_blocks(ensemble, lambda tr: (tr.times, tr.positions)))


def resets_to_csv(ensemble: Ensemble, path) -> None:
    """Every trajectory's reset epochs, grouped by trajectory in index order."""
    write_table(path, ("traj", "reset_time"),
                _trajectory_blocks(ensemble, lambda tr: (tr.reset_times,)))


def _trajectory_blocks(ensemble, columns):
    """The table blocks of ``columns(tr)`` after each trajectory's index,
    ``_BLOCK`` trajectories a block, each index formatted once: memory is
    bounded by the block, not the ensemble."""
    trajectories = ensemble.trajectories
    for lo in range(0, len(trajectories), _BLOCK):
        parts = [columns(tr) for tr in trajectories[lo:lo + _BLOCK]]
        ids = np.repeat(_cells(np.arange(lo, lo + len(parts))), [len(p[0]) for p in parts])
        yield (ids, *map(np.concatenate, zip(*parts)))


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


def run_metadata(spec: ProcessSpec, cfg: SchemeConfig, n: int, seed) -> dict:
    """JSON document sufficient to regenerate an n-trajectory run."""
    return {"spec": spec_to_json(spec),
            "run": dict(scheme_to_json(cfg), n=n, seed=seed)}
