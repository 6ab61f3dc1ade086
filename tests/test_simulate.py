import hashlib
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from reset_sde import (
    DeterministicGaps,
    DomainError,
    Ensemble,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    SpecError,
)
from reset_sde.simulate import (
    EulerScheme,
    ExactScheme,
    SchemeConfig,
    ensemble_csv,
    ensemble_to_csv,
    euler_marginal_samples,
    marginal_samples,
    resets_to_csv,
    resolve_workers,
    run_ensemble,
    run_metadata,
    simulate_euler,
    simulate_exact,
    validate_scheme,
)
from reset_sde import _kernels, analytic, stats
from reset_sde import core as core_module, simulate as simulate_module
from reset_sde._seeding import generators
from reset_sde.clocks import sample_reset_times


def poisson_spec(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def union_reference(grid, resets, rng, spec):
    """(times, positions) of one exact trajectory, built on its own: grid
    and resets merged by np.union1d when a reset sits on a grid time,
    else by insertion, which keeps equal epochs apart."""
    slots = np.searchsorted(grid, resets)
    if (grid[slots.clip(max=len(grid) - 1)] == resets).any():
        times = np.union1d(grid, resets)
        flags = np.isin(times[1:], resets)
    else:
        times = np.sort(np.concatenate((grid, resets)), kind="stable")
        flags = np.zeros(len(times), dtype=bool)
        flags[slots + np.arange(len(resets))] = True
        flags = flags[1:]
    z = rng.standard_normal(len(times) - 1)
    increments = np.sqrt(2.0 * spec.diffusivity * np.diff(times)) * z
    return times, _kernels.walk(spec.x0, spec.x_reset, increments, flags)


# trajectories a block on the default grid
BLOCK = simulate_module._block_size(simulate_module.DEFAULT_EXACT_POINTS)

# (spec, cfg, n) at the edges of the blocks a run is simulated in: block
# boundaries, a block without resets, rows of very different lengths,
# resets on grid times (trajectory BLOCK - 1 ends the first block), and
# Euler with and without a grid
BLOCK_CASES = [
    *[(poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0), n)
      for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)],
    (poisson_spec(0.0, 0.3, 2.0), SchemeConfig(ExactScheme(), horizon=3.0), BLOCK + 1),
    (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(ParetoGaps(0.5, 1e-4))),
     SchemeConfig(ExactScheme(), horizon=1.0, grid=np.linspace(0.0, 1.0, 21)), BLOCK + 1),
    (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.5))),
     SchemeConfig(ExactScheme(), horizon=5.0, grid=np.linspace(0.0, 5.0, 11)), BLOCK + 1),
    (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(EulerScheme(0.05), horizon=1.0), BLOCK + 1),
    (poisson_spec(1.0, 0.0, 2.0),
     SchemeConfig(EulerScheme(0.05), horizon=1.0, grid=[0.0, 0.5, 1.0]), BLOCK + 1),
]
BLOCK_IDS = [f"block-n={n}" for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)] + [
    "block-rate-0", "block-pareto", "block-resets-on-grid", "block-euler", "block-euler-grid"]

# Forked shards can be placed on a CPU: the platform sets affinities and
# this process may run on two CPUs or more
PLACEABLE = hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


def fake_stat(path, cpu):
    """A proc(5) stat line whose field 39, the CPU last run on, is ``cpu``,
    behind a command name that holds ") (" and spaces; every other field
    reads 99999, which names no CPU."""
    path.write_text("4242 (a) (b c) S " + "99999 " * 35 + f"{cpu} " + "99999 " * 13 + "\n")
    return str(path)


# The marginal samplers work chunks of this many samples; the pins below
# sit at its edges.
CHUNK = 2 ** 14
CHUNK_CLOCKS = {"poisson": PoissonClock(1.5),
                "power-law-0.5": NonhomogeneousPoissonClock(1.2, -0.5),
                "pareto": RenewalClock(ParetoGaps(1.5, 0.2)),
                "deterministic": RenewalClock(DeterministicGaps(0.4))}



class TestSchemeValidation:
    def test_step_probability_bound(self):
        cfg = SchemeConfig(EulerScheme(dt=0.2), horizon=1.0)
        with pytest.raises(SpecError, match="r\\*dt"):
            validate_scheme(poisson_spec(1.0), cfg)
        # boundary value itself is admitted
        validate_scheme(poisson_spec(1.0), SchemeConfig(EulerScheme(0.1), 1.0))

    def test_renewal_requires_exact_scheme(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, RenewalClock(ParetoGaps(1.5, 0.1)))
        with pytest.raises(SpecError, match="exact"):
            validate_scheme(spec, SchemeConfig(EulerScheme(1e-3), 1.0))
        validate_scheme(spec, SchemeConfig(ExactScheme(), 1.0))

    def test_growing_intensity_step_guard(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, 2.0))
        cfg = SchemeConfig(EulerScheme(dt=0.01), horizon=10.0)
        with pytest.raises(DomainError, match="too coarse"):
            simulate_euler(spec, cfg, np.random.default_rng(0))

    def test_euler_grid_within_lattice_tolerance_is_read_after_the_run(self):
        # 1e-10 off the lattice: inside the shared time tolerance, so the
        # check admits it and the positions are read at lattice time 0.3
        cfg = SchemeConfig(EulerScheme(0.1), horizon=0.5, grid=[0, 0.3 + 1e-10, 0.5])
        slim = run_ensemble(poisson_spec(1.0), cfg, 500, 1, keep="grid")
        full = run_ensemble(poisson_spec(1.0), cfg, 500, 1)
        for a, b in zip(full.trajectories, slim.trajectories):
            assert same_bits(b.positions, a.positions[[0, 3, 5]])

    @pytest.mark.parametrize("spec, cfg, n, match", [
        (poisson_spec(1e9), SchemeConfig(ExactScheme(), 0.5), 1, "budget"),
        (poisson_spec(1.0), SchemeConfig(ExactScheme(), 1e9), 1, "budget"),
        (poisson_spec(1.0), SchemeConfig(EulerScheme(1e-2), 1e9), 1, "budget"),
        (ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, 1e9)),
         SchemeConfig(ExactScheme(), 1.0), 1, "budget"),
        (ProcessSpec(0.5, 0.0, 0.0, RenewalClock(ParetoGaps(0.5, 1e-12))),
         SchemeConfig(ExactScheme(), 10.0), 10 ** 3, "budget"),
        (poisson_spec(1.0), SchemeConfig(ExactScheme(), 10.0), 10 ** 6, "budget"),
        # Euler grid times off the dt lattice, and 1e-8 off it: beyond the
        # shared time tolerance
        (poisson_spec(1.0), SchemeConfig(EulerScheme(0.1), 0.5, grid=[0.0, 0.25, 0.5]), 5,
         "multiples of dt"),
        (poisson_spec(1.0), SchemeConfig(EulerScheme(0.1), 0.5, grid=[0, 0.3 + 1e-8, 0.5]), 5,
         "multiples of dt"),
    ], ids=["rate", "horizon", "euler-lattice", "npp-overflow", "pareto-infinite-mean",
            "many-trajectories", "euler-grid-off-lattice", "euler-grid-beyond-lattice-tolerance"])
    def test_runs_above_the_row_budget_are_refused_before_any_draw(self, monkeypatch,
                                                                   spec, cfg, n, match):
        calls = []
        monkeypatch.setattr(simulate_module, "_block", lambda *a, **k: calls.append(a))
        with pytest.raises(SpecError, match=match):
            run_ensemble(spec, cfg, n, seed=1)
        with pytest.raises(SpecError, match=match):
            ensemble_csv(spec, cfg, n, 1, "unused-directory")
        assert calls == []

    def test_row_budget_admits_the_runs_it_bounds(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, RenewalClock(ParetoGaps(0.5, 1e-4)))
        validate_scheme(spec, SchemeConfig(ExactScheme(), 10.0), 10 ** 5)
        budget = core_module.MAX_VALUES
        cfg = SchemeConfig(ExactScheme(), 10.0)
        per_path = simulate_module.DEFAULT_EXACT_POINTS + 10.0
        validate_scheme(poisson_spec(1.0), cfg, int(budget // per_path))
        with pytest.raises(SpecError, match="budget"):
            validate_scheme(poisson_spec(1.0), cfg, int(budget // per_path) + 1)

    def test_npp_events_refuse_an_overflowing_mean_count(self):
        clock = NonhomogeneousPoissonClock(1.0, 1e9)
        with np.errstate(over="ignore"), pytest.raises(SpecError, match="overflows"):
            sample_reset_times(clock, 1.0, np.random.default_rng(0))

    def test_grid_must_be_increasing_and_inside(self):
        for grid, message in (([0.5, 0.2], "increasing"), ([0.5, math.nan], "increasing"),
                              ([0.5, 2.0], "within"), ([math.nan], "within")):
            with pytest.raises(SpecError, match=message):
                validate_scheme(poisson_spec(),
                                SchemeConfig(ExactScheme(), 1.0, grid=np.array(grid)))


class TestEuler:
    def test_no_resetting_reduces_to_brownian(self):
        d = 0.7
        samples = euler_marginal_samples(poisson_spec(0.0, d=d), 1.0, 1e-3,
                                         20000, seed=5)
        se = samples.var() * math.sqrt(5.0 / len(samples))
        assert abs(samples.var() - 2 * d) < 3 * se
        assert abs(samples.mean()) < 3 * samples.std() / math.sqrt(len(samples))

    def test_reset_lands_exactly_on_target(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(EulerScheme(1e-3), horizon=5.0)
        tr = simulate_euler(spec, cfg, np.random.default_rng(8))
        assert len(tr.reset_times) > 0
        idx = np.searchsorted(tr.times, tr.reset_times)
        assert np.all(tr.positions[idx] == 2.0)

    def test_marginal_matches_closed_form_density(self):
        # start 0, reset 3, rate 1, t = 0.1, fine step
        spec = poisson_spec(1.0, 0.0, 3.0)
        samples = euler_marginal_samples(spec, 0.1, 1e-4, 100000, seed=77)
        ks = stats.ks_distance(samples, lambda v: stats.analytic_cdf(spec, v, 0.1))
        assert ks < 0.01

    def test_path_free_sampler_matches_simulated_paths(self):
        # two lattice times and the increment between them, which the
        # sampler draws by chaining the times through the Markov property
        spec = ProcessSpec(0.7, 1.0, -1.0, NonhomogeneousPoissonClock(1.0, 1.5))
        dt, n = 0.02, 4000
        cfg = SchemeConfig(EulerScheme(dt), horizon=1.0, grid=np.array([0.4, 1.0]))
        paths = run_ensemble(spec, cfg, n, seed=3, keep="grid").positions_at()
        cols = euler_marginal_samples(spec, [0.4, 1.0], dt, n, seed=4)
        assert ks_2samp(paths[:, 0], cols[:, 0]).pvalue > 0.01
        assert ks_2samp(paths[:, 1], cols[:, 1]).pvalue > 0.01
        assert ks_2samp(paths[:, 1] - paths[:, 0],
                        cols[:, 1] - cols[:, 0]).pvalue > 0.01

    def test_dynkin_identity_on_the_euler_lattice(self):
        # d/dt E x^2 = 2 D + r (b^2 - E x^2), three lattice times of one chain
        spec = poisson_spec(1.0, 0.0, 1.0)
        dt, t, n = 1e-3, 0.5, 60000
        delta = 5 * dt
        cols = euler_marginal_samples(spec, [t - delta, t, t + delta], dt, n, seed=99)
        drift_est = (cols[:, 2] ** 2 - cols[:, 0] ** 2) / (2 * delta)
        generator = 2 * spec.diffusivity \
            + spec.clock.rate * (spec.x_reset ** 2 - cols[:, 1] ** 2)
        resid = drift_est - generator
        assert abs(resid.mean()) < 3 * resid.std() / math.sqrt(n)


class TestExact:
    def test_no_events_gives_pure_brownian_path(self):
        spec = poisson_spec(1e-12, x0=0.4)
        cfg = SchemeConfig(ExactScheme(), horizon=1.0)
        tr = simulate_exact(spec, cfg, np.random.default_rng(1))
        assert len(tr.reset_times) == 0
        increments = np.diff(tr.positions)
        z = increments / np.sqrt(2 * spec.diffusivity * np.diff(tr.times))
        assert abs(z.mean()) < 3 / math.sqrt(len(z))
        assert abs(z.var() - 1.0) < 3 * math.sqrt(2.0 / len(z))

    def test_conditional_law_given_last_reset(self):
        # normalising each endpoint by its own reset age must give N(0,1)
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=1.0, grid=np.array([0.0, 1.0]))
        ens = run_ensemble(spec, cfg, 20000, seed=71)
        zs = []
        for tr in ens.trajectories:
            x_end = tr.positions[-1]
            if len(tr.reset_times):
                age = 1.0 - tr.reset_times[-1]
                zs.append((x_end - spec.x_reset) / math.sqrt(2 * spec.diffusivity * age))
            else:
                zs.append((x_end - spec.x0) / math.sqrt(2 * spec.diffusivity * 1.0))
        from scipy.stats import norm
        ks = stats.ks_distance(np.array(zs), norm.cdf)
        assert ks < 1.63 / math.sqrt(len(zs))

    def test_zero_reset_fraction(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=1.5, grid=np.array([0.0, 1.5]))
        ens = run_ensemble(spec, cfg, 10000, seed=303)
        frac = np.mean([len(tr.reset_times) == 0 for tr in ens.trajectories])
        target = math.exp(-1.5)
        se = math.sqrt(target * (1 - target) / len(ens))
        assert abs(frac - target) < 3 * se

    def test_euler_converges_to_exact_marginal(self):
        spec = poisson_spec(1.0)
        exact = marginal_samples(spec, 1.0, 30000, seed=321)
        ks_coarse = ks_2samp(
            euler_marginal_samples(spec, 1.0, 0.1, 30000, seed=123), exact).statistic
        ks_fine = ks_2samp(
            euler_marginal_samples(spec, 1.0, 0.01, 30000, seed=123), exact).statistic
        assert ks_fine < ks_coarse


class TestMarginalSampler:
    def test_no_resetting_is_gaussian(self):
        d = 0.5
        xs = marginal_samples(poisson_spec(0.0, x0=1.0, d=d), 2.0, 50000, seed=4)
        assert abs(xs.mean() - 1.0) < 3 * xs.std() / math.sqrt(len(xs))
        se = xs.var() * math.sqrt(5.0 / len(xs))
        assert abs(xs.var() - 2 * d * 2.0) < 3 * se

    def test_long_time_variance_is_stationary(self):
        xs = marginal_samples(poisson_spec(1.0), 25.0, 200000, seed=6)
        se = xs.var() * math.sqrt(5.0 / len(xs))
        assert abs(xs.var() - 1.0) < 3 * se

    def test_mean_matches_exponential_relaxation(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        xs = marginal_samples(spec, 1.0, 100000, seed=9)
        target = 2.0 - 2.0 * math.exp(-1.0)
        assert abs(xs.mean() - target) < 3 * xs.std() / math.sqrt(len(xs))

    def test_agrees_with_exact_scheme_marginals(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        cfg = SchemeConfig(ExactScheme(), horizon=3.0, grid=np.array([0.0, 3.0]))
        ens = run_ensemble(spec, cfg, 8000, seed=17)
        ends = np.array([tr.positions[-1] for tr in ens.trajectories])
        fast = marginal_samples(spec, 3.0, 8000, seed=18)
        assert ks_2samp(ends, fast).pvalue > 0.01

    def test_renewal_clock_supported(self):
        spec = ProcessSpec(0.5, 0.0, 1.0, RenewalClock(ParetoGaps(1.5, 0.3)))
        xs = marginal_samples(spec, 2.0, 500, seed=2)
        assert len(xs) == 500 and np.all(np.isfinite(xs))

    def test_dynkin_identity_for_square_observable(self):
        # d/dt E x^2 = 2 D + r (b^2 - E x^2), common random numbers
        spec = poisson_spec(1.0, 0.0, 2.0)
        n, delta = 100000, 1e-3
        for t in (0.3, 0.8):
            lo = marginal_samples(spec, t - delta, n, seed=1234)
            mid = marginal_samples(spec, t, n, seed=1234)
            hi = marginal_samples(spec, t + delta, n, seed=1234)
            resid = (hi ** 2 - lo ** 2) / (2 * delta) \
                - (2 * spec.diffusivity + spec.clock.rate * (spec.x_reset ** 2 - mid ** 2))
            assert abs(resid.mean()) < 3 * resid.std() / math.sqrt(n)


    def test_streams_match_pinned_digests(self):
        # The sampler streams are part of the output contract: the sha256 of
        # the float64 bytes of each fixed-seed draw.
        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)
                                  .tobytes()).hexdigest()

        def spec(clock):
            return ProcessSpec(0.7, 0.3, -1.0, clock)

        got = {name: digest(marginal_samples(spec(clock), 2.5, 400, seed=17))
               for name, clock in [
                   ("poisson", PoissonClock(1.5)),
                   ("rate-0", PoissonClock(0.0)),
                   ("power-law-0.5", NonhomogeneousPoissonClock(1.2, -0.5)),
                   ("power-law+0.5", NonhomogeneousPoissonClock(1.2, 0.5)),
                   ("pareto", RenewalClock(ParetoGaps(1.5, 0.2)))]}
        # several times, unsorted and repeated
        for name, clock in [("euler-poisson", PoissonClock(1.5)),
                            ("euler-power-law", NonhomogeneousPoissonClock(1.2, 0.5))]:
            got[name] = digest(euler_marginal_samples(
                spec(clock), [0.5, 0.1, 1.2, 0.5], 0.01, 400, seed=19))
        assert got == {
            "poisson": "7fae1c24afedd23d4df24b4b9e87e181b5a206852e1a6c53eafc9d75a16e44d3",
            "rate-0": "cbc3b0ef44b58076dcba7a0050ece60a0c2005da264fbdfee186f6be24a34084",
            "power-law-0.5":
                "580014245f50cbb7140538b2ee4c584c6576107b418ae2203b25fcca3d331fea",
            "power-law+0.5":
                "70a678fecfacf767dbf7af50d304d2bec0f454567074648b27ab856d35591b89",
            # the renewal chain's stream; test_several_times_match_exact_paths
            # [pareto] checks its law against exact paths
            "pareto": "db830a33f6e6fb4535e0e0cd7f22ab68a347dad2acdaeb148a71d46c5e305938",
            "euler-poisson":
                "7094b4f3c394505d8fd0395e4626ba62fe3ff90c30853e25db4bbce835af75f8",
            "euler-power-law":
                "fc80e12490a22a0a7122fba27d9b9074d01db806d7114a055a8d87dcb5675310",
        }

    @pytest.mark.parametrize("name,expected", [
        ("poisson", "010f5ab37cd0df502e51b3ac58af9b67ab12d2f3bb55541e8988add5124d0104"),
        ("power-law-0.5", "5451b45498e5a4914a3c0cb9b65b28210c739428d0d03e4eedcdd155fc9cec22"),
        ("pareto", "68112a60cf88ce0887948a7408ba1d42900a3c844aecf11a186a5dab7bf717e0"),
        ("deterministic", "7fcd0a5e96902dbb77147f2b088830478b53a7ef795fd5ce3edf8560e7038178"),
    ])
    def test_streams_hold_at_the_chunk_edges(self, name, expected):
        # one sha256 over the float64 bytes of draws of CHUNK - 1, CHUNK and
        # CHUNK + 1 samples, each at one time and at three unsorted ones; at
        # t = 12 most Pareto samples draw a second round of gaps
        assert simulate_module._CHUNK == CHUNK
        spec = ProcessSpec(0.7, 0.3, -1.0, CHUNK_CLOCKS[name])
        digest = hashlib.sha256()
        for n in (CHUNK - 1, CHUNK, CHUNK + 1):
            for t in (2.5, [0.3, 12.0, 2.5]):
                digest.update(np.ascontiguousarray(marginal_samples(spec, t, n, seed=29))
                              .tobytes())
        assert digest.hexdigest() == expected

    def test_euler_stream_holds_past_a_chunk(self):
        assert simulate_module._CHUNK == CHUNK
        xs = euler_marginal_samples(ProcessSpec(0.7, 0.3, -1.0, PoissonClock(1.5)),
                                    [0.5, 0.1, 1.2], 0.01, CHUNK + 1, seed=31)
        assert hashlib.sha256(np.ascontiguousarray(xs).tobytes()).hexdigest() == (
            "1bad24c97c5e5a7e6a7c2d4265fea1c9d2ca24db168a28246de6679d4a45e1a4")

    @pytest.mark.parametrize("name", CHUNK_CLOCKS)
    def test_peak_memory_is_the_output_and_a_few_chunks(self, name):
        # tracemalloc sees numpy's buffers; the temporaries of each chunk
        # (about three chunks' worth) and the n flags come on top of the
        # output, so 2.5x holds at three chunks and tightens as n grows
        spec = ProcessSpec(0.7, 0.3, -1.0, CHUNK_CLOCKS[name])
        marginal_samples(spec, 2.5, 10, seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            xs = marginal_samples(spec, 2.5, 3 * CHUNK + 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * xs.nbytes

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM in /proc/self/status")
    @pytest.mark.parametrize("call, bound", [
        ("marginal_samples(spec, 0.7, n, seed=1)", 2.5),
        ("checks.moment_z_scores(spec, 0.7, n, 1, range(1, 5))", 1.5),
    ], ids=["marginal", "moment-z-scores"])
    def test_peak_resident_memory_of_4e6_samples(self, child_python, call, bound):
        # what the process holds at its peak, beyond numpy's buffers that
        # tracemalloc sees: a marginal draw at one time may raise it by at
        # most 2.5x its output, the moment z-scores by at most 1.5x their
        # samples, as both run in fixed chunks.  The peak is VmHWM, that of
        # the child's own memory: Linux starts a child's ru_maxrss at the
        # peak of the process that started it, here pytest's
        n = 4_000_000
        proc = child_python(
            "from reset_sde import PoissonClock, ProcessSpec, checks, marginal_samples\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return int(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
            "spec = ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0))\n"
            f"def run(n): {call}\n"
            "run(10)\n"
            "before = peak()\n"
            f"run({n})\n"
            "print(peak() - before)\n")
        assert proc.returncode == 0, proc.stderr
        assert 1024 * int(proc.stdout) <= bound * 8 * n

    @pytest.mark.parametrize("name", ["poisson", "pareto"])
    def test_sorted_times_return_the_chain_without_a_copy(self, name):
        # the output, an n-vector (1/8 of it) and a few chunks; a copy of
        # the columns into the requested order would double the output
        spec = ProcessSpec(0.7, 0.3, -1.0, CHUNK_CLOCKS[name])
        ts = np.linspace(0.3, 2.5, 8)
        marginal_samples(spec, ts, 10, seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            xs = marginal_samples(spec, ts, 3 * CHUNK + 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.shape == (3 * CHUNK + 1, 8)
        assert peak <= 1.5 * xs.nbytes

    def test_sums_over_samples_do_not_depend_on_the_order_of_the_times(self):
        # sorted times return the chain, others a reordered copy; both
        # column-major, so a mean over samples adds in the same order
        spec = poisson_spec(1.5)
        ts = [0.3, 1.0, 2.5]
        sorted_xs = marginal_samples(spec, ts, 1000, seed=3)
        reversed_xs = marginal_samples(spec, ts[::-1], 1000, seed=3)
        assert np.array_equal(sorted_xs[:, ::-1], reversed_xs)
        assert np.array_equal(sorted_xs.mean(axis=0)[::-1], reversed_xs.mean(axis=0))

    def test_typed_errors_for_bad_time_and_size(self):
        with pytest.raises(DomainError, match="t must be positive"):
            marginal_samples(poisson_spec(1.0), 0.0, 10, seed=1)
        with pytest.raises(SpecError, match="n must be at least 1"):
            marginal_samples(poisson_spec(1.0), 1.0, 0, seed=1)
        renewal = ProcessSpec(0.5, 0.0, 1.0, RenewalClock(ParetoGaps(1.5, 0.3)))
        # sizes that are not integers: one typed error on every route
        cfg = SchemeConfig(ExactScheme(), 1.0)
        for n in (2.5, "3", None, True):
            for draw in (lambda: run_ensemble(poisson_spec(1.0), cfg, n, seed=1),
                         lambda: ensemble_csv(poisson_spec(1.0), cfg, n, 1, "unused-directory"),
                         lambda: marginal_samples(poisson_spec(1.0), 1.0, n, seed=1),
                         lambda: marginal_samples(renewal, 1.0, n, seed=1),
                         lambda: euler_marginal_samples(poisson_spec(1.0), 0.5, 0.1, n, seed=1)):
                with pytest.raises(SpecError, match="n must be at least 1"):
                    draw()
        assert len(run_ensemble(poisson_spec(1.0), cfg, np.int64(2), seed=1)) == 2
        assert marginal_samples(renewal, 1.0, np.int32(3), seed=1).shape == (3,)
        with pytest.raises(DomainError, match="at least one time"):
            euler_marginal_samples(poisson_spec(1.0), [], 0.1, 10, seed=1)
        for spec in (poisson_spec(1.0), renewal,
                     ProcessSpec(0.5, 0.0, 1.0, NonhomogeneousPoissonClock(1.0, 0.5))):
            for t in (math.inf, math.nan, [1.0, math.inf]):
                with pytest.raises(DomainError, match="t must be positive and finite"):
                    marginal_samples(spec, t, 10, seed=1)
        with pytest.raises(SpecError, match="budget"):
            marginal_samples(renewal, 1e300, 10, seed=1)
        # R(1e300) of a power-law clock overflows: refused, not NaN samples
        with pytest.raises(SpecError, match="overflows"):
            marginal_samples(ProcessSpec(0.5, 0.0, 1.0, NonhomogeneousPoissonClock(1.0, 0.5)),
                             [1.0, 1e300], 10, seed=1)

    @pytest.mark.parametrize("draw", [
        lambda n: marginal_samples(poisson_spec(1.0), [1.0, 2.0], n, seed=1),
        lambda n: euler_marginal_samples(poisson_spec(1.0), [0.5, 1.0], 0.1, n, seed=1),
    ], ids=["exact", "euler"])
    def test_outputs_above_the_budget_are_refused_before_any_array(self, draw):
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="budget"):
                draw(core_module.MAX_VALUES // 2 + 1)  # an output of 1.6 GB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_output_budget_admits_its_edge(self, monkeypatch):
        monkeypatch.setattr(core_module, "MAX_VALUES", 100)
        assert euler_marginal_samples(poisson_spec(1.0), [0.5, 1.0], 0.1, 50, seed=1).shape \
            == (50, 2)
        with pytest.raises(SpecError, match="budget"):
            marginal_samples(poisson_spec(1.0), [1.0, 2.0], 51, seed=1)
        # a renewal run also counts its likely gaps, n * t / mean gap
        spec = ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(1.0)))
        assert marginal_samples(spec, 4.0, 25, seed=1).shape == (25,)
        with pytest.raises(SpecError, match="budget"):
            marginal_samples(spec, 4.0, 26, seed=1)

    def test_euler_marginals_reject_off_lattice_times(self):
        with pytest.raises(SpecError, match="multiples of dt"):
            euler_marginal_samples(poisson_spec(1.0), [0.1, 0.15], 0.1, 10, seed=1)

    @pytest.mark.parametrize("clock", [PoissonClock(1.0), PoissonClock(0.0),
                                       NonhomogeneousPoissonClock(1.0, -0.5),
                                       RenewalClock(ParetoGaps(1.5, 0.2)),
                                       RenewalClock(DeterministicGaps(0.4))],
                             ids=["poisson", "rate-0", "power-law", "pareto",
                                  "deterministic"])
    def test_one_time_of_many_is_the_scalar_draw(self, clock):
        spec = ProcessSpec(0.5, 0.3, -1.0, clock)
        cols = marginal_samples(spec, [1.5], 300, seed=5)
        assert cols.shape == (300, 1)
        assert same_bits(cols[:, 0], marginal_samples(spec, 1.5, 300, seed=5))

    def test_several_times_follow_the_requested_order(self):
        spec = ProcessSpec(0.5, 0.3, -1.0, NonhomogeneousPoissonClock(1.0, 0.5))
        cols = marginal_samples(spec, [2.0, 0.5, 2.0, 1.0], 200, seed=8)
        sorted_cols = marginal_samples(spec, [0.5, 1.0, 2.0], 200, seed=8)
        assert cols.shape == (200, 4)
        assert same_bits(cols, sorted_cols[:, [2, 0, 2, 1]])

    @pytest.mark.parametrize("clock", [NonhomogeneousPoissonClock(1.0, -0.5),
                                       NonhomogeneousPoissonClock(1.0, 0.5),
                                       RenewalClock(ParetoGaps(1.5, 0.2)),
                                       RenewalClock(DeterministicGaps(0.5))],
                             ids=["-0.5", "0.5", "pareto", "deterministic"])
    def test_several_times_match_exact_paths(self, clock):
        # the chain draws each time given the previous one (Markov
        # property, for a renewal clock with each gap in progress carried
        # on), so the marginals and the increments must match paths
        spec = ProcessSpec(0.7, 1.0, -1.0, clock)
        times = np.array([0.3, 1.0, 4.0])
        cfg = SchemeConfig(ExactScheme(), horizon=4.0, grid=times)
        paths = run_ensemble(spec, cfg, 4000, seed=12, keep="grid").positions_at(times)
        cols = marginal_samples(spec, times, 4000, seed=13)
        for j in range(3):
            assert ks_2samp(paths[:, j], cols[:, j]).pvalue > 0.01
        assert ks_2samp(paths[:, 2] - paths[:, 1],
                        cols[:, 2] - cols[:, 1]).pvalue > 0.01

    def test_renewal_clock_gives_several_times_per_call(self):
        spec = ProcessSpec(0.5, 0.0, 1.0, RenewalClock(ParetoGaps(1.5, 0.3)))
        assert marginal_samples(spec, [2.0], 50, seed=2).shape == (50, 1)
        assert marginal_samples(spec, [1.0, 2.0], 50, seed=2).shape == (50, 2)
        with pytest.raises(DomainError, match="t must be positive"):
            marginal_samples(spec, [1.0, 0.0], 10, seed=1)

    def test_deterministic_clock_msd_is_a_sawtooth(self):
        # x0 = x_R = 0: at t the age is t mod gap, so E x^2 = 2 D (t mod gap),
        # exactly 0 at a gap multiple
        gap, d, n = 0.5, 0.7, 20000
        spec = ProcessSpec(d, 0.0, 0.0, RenewalClock(DeterministicGaps(gap)))
        times = np.array([0.2, 0.5, 0.9, 1.0, 1.35, 2.0, 3.45])
        squares = marginal_samples(spec, times, n, seed=23) ** 2
        target = 2 * d * np.mod(times, gap)
        se = squares.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(squares.mean(axis=0) - target) <= 3 * se)
        assert np.all(squares[:, [1, 3, 5]] == 0.0)

    def test_deterministic_epochs_do_not_drift(self):
        # the 5000th gap of 1e-3 ends at t = 5 exactly, as in the sampler,
        # so every sample sits at the reset point there
        spec = ProcessSpec(0.5, 1.0, 0.0, RenewalClock(DeterministicGaps(1e-3)))
        cols = marginal_samples(spec, [4.9995, 5.0], 1000, seed=3)
        assert cols[:, 0].var() > 0.0
        assert np.all(cols[:, 1] == 0.0)
        assert marginal_samples(spec, 5.0, 1000, seed=3).var() == 0.0


class TestEnsemble:
    def test_bit_identical_reruns(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=2.0)
        runs = [run_ensemble(spec, cfg, 40, seed=5) for _ in range(2)]
        for a, b in zip(runs[0].trajectories, runs[1].trajectories):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.reset_times, b.reset_times)

    def test_euler_ensembles_are_deterministic_too(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(EulerScheme(1e-2), horizon=1.0)
        a = run_ensemble(spec, cfg, 16, seed=9)
        b = run_ensemble(spec, cfg, 16, seed=9)
        for x, y in zip(a.trajectories, b.trajectories):
            assert np.array_equal(x.positions, y.positions)

    def test_grid_storage_mode(self):
        spec = poisson_spec(1.0)
        grid = np.linspace(0.0, 2.0, 9)
        cfg = SchemeConfig(ExactScheme(), horizon=2.0, grid=grid)
        full = run_ensemble(spec, cfg, 10, seed=3, keep="full")
        slim = run_ensemble(spec, cfg, 10, seed=3, keep="grid")
        for a, b in zip(full.trajectories, slim.trajectories):
            assert np.array_equal(b.times, grid)
            assert np.array_equal(a.at(grid), b.positions)
            assert np.array_equal(a.reset_times, b.reset_times)

    @pytest.mark.parametrize("spec, cfg, n", [
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0), 12),
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.5))),
         SchemeConfig(ExactScheme(), horizon=5.0, grid=np.linspace(0.0, 5.0, 11)), 12),
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(EulerScheme(0.01), horizon=1.0), 12),
        *BLOCK_CASES,
    ], ids=["exact", "resets-on-grid", "euler", *BLOCK_IDS])
    def test_trajectory_i_is_a_single_run_on_child_i(self, spec, cfg, n):
        ens = run_ensemble(spec, cfg, n, seed=21)
        slim = run_ensemble(spec, cfg, n, seed=21, keep="grid")
        one = simulate_euler if isinstance(cfg.scheme, EulerScheme) else simulate_exact
        children = np.random.SeedSequence(21).spawn(n)
        for child, tr, kept in zip(children, ens.trajectories, slim.trajectories):
            ref = one(spec, cfg, np.random.default_rng(child))
            assert same_bits(tr.times, ref.times)
            assert same_bits(tr.positions, ref.positions)
            assert same_bits(tr.reset_times, ref.reset_times)
            assert same_bits(kept.positions, ref.at(slim.grid))
            assert same_bits(kept.reset_times, ref.reset_times)

    @pytest.mark.parametrize("spec, horizon, grid", [
        (poisson_spec(1.3, 0.2, -1.0, 0.7), 4.0, None),
        (ProcessSpec(0.5, 0.0, 1.0, NonhomogeneousPoissonClock(1.5, 0.5)), 3.0,
         np.linspace(0.0, 3.0, 31)),
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.25))), 2.0,
         np.linspace(0.0, 2.0, 9)),
        # resets past the last grid time are appended
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(ParetoGaps(1.5, 0.2))), 3.0,
         np.array([0.0, 0.5, 1.0])),
    ], ids=["poisson", "power-law", "deterministic-on-grid", "short-grid"])
    def test_exact_path_matches_union_reference(self, spec, horizon, grid):
        cfg = SchemeConfig(ExactScheme(), horizon=horizon, grid=grid)
        resolved = validate_scheme(spec, cfg).times
        for seed in range(20):
            tr = simulate_exact(spec, cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            resets = sample_reset_times(spec.clock, horizon, rng)
            merged, positions = union_reference(resolved, resets, rng, spec)
            assert same_bits(tr.times, merged)
            assert same_bits(tr.positions, positions)
            assert same_bits(tr.reset_times, resets)

    def test_simulate_exact_runs_the_exact_scheme_for_any_config(self):
        spec = poisson_spec(1.0, 0.0, 1.0)
        euler = simulate_exact(spec, SchemeConfig(EulerScheme(0.1), horizon=1.0),
                               np.random.default_rng(0))
        exact = simulate_exact(spec, SchemeConfig(ExactScheme(), horizon=1.0),
                               np.random.default_rng(0))
        assert same_bits(euler.times, exact.times)
        assert same_bits(euler.positions, exact.positions)

    def test_seed_none_records_entropy_that_reproduces_the_run(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=2.0)
        first = run_ensemble(spec, cfg, 6, seed=None)
        assert isinstance(first.seed, int)
        doc = json.loads(json.dumps(
            run_metadata(first.spec, first.scheme, len(first), first.seed)))
        assert doc["run"]["seed"] == first.seed
        again = run_ensemble(spec, cfg, 6, seed=doc["run"]["seed"])
        for a, b in zip(first.trajectories, again.trajectories):
            assert same_bits(a.times, b.times)
            assert same_bits(a.positions, b.positions)

    def test_positions_matrix_shape(self):
        spec = poisson_spec(1.0)
        cfg = SchemeConfig(ExactScheme(), horizon=1.0, grid=np.linspace(0, 1, 5))
        ens = run_ensemble(spec, cfg, 7, seed=1, keep="grid")
        assert ens.positions_at().shape == (7, 5)


class TestExport:
    def test_csv_columns_and_reproducibility(self, tmp_path):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=1.0)
        ens = run_ensemble(spec, cfg, 3, seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ensemble_to_csv(ens, p1)
        ensemble_to_csv(ens, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "traj,t,x"
        rp = tmp_path / "r.csv"
        resets_to_csv(ens, rp)
        assert rp.read_text().splitlines()[0] == "traj,reset_time"

    def test_grid_ensemble_csv_matches_pinned_digests(self, tmp_path):
        spec = ProcessSpec(0.5, 0.0, 1.0, PoissonClock(1.0))
        cfg = SchemeConfig(ExactScheme(), horizon=2.0, grid=np.linspace(0.0, 2.0, 9))
        ens = run_ensemble(spec, cfg, 25, 13, keep="grid")
        ensemble_to_csv(ens, tmp_path / "t.csv")
        resets_to_csv(ens, tmp_path / "r.csv")
        assert sha256(tmp_path / "t.csv") == (
            "b28c72051e83d9d2659ce438c1c22063f61fc2dcc00a1a21a6d968dc056f6b08")
        assert sha256(tmp_path / "r.csv") == (
            "9aa075d3f6ac3fdc83d90d1611bcd620110dfa3be6495a2503e932e03d7571b2")

    def test_tables_without_rows_are_the_header_alone(self, tmp_path):
        spec = poisson_spec(0.0)
        cfg = SchemeConfig(ExactScheme(), horizon=1.0, grid=np.linspace(0.0, 1.0, 3))
        no_resets = run_ensemble(spec, cfg, 3, seed=4)
        resets_to_csv(no_resets, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == b"traj,reset_time\r\n"
        ensemble_to_csv(no_resets, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes().count(b"\r\n") == 1 + 3 * 3
        empty = Ensemble(spec, cfg.scheme, 4, [])
        ensemble_to_csv(empty, tmp_path / "t.csv")
        resets_to_csv(empty, tmp_path / "r.csv")
        assert (tmp_path / "t.csv").read_bytes() == b"traj,t,x\r\n"
        assert (tmp_path / "r.csv").read_bytes() == b"traj,reset_time\r\n"

    def test_signed_zero_grid_time_keeps_each_trajectory_bytes(self, tmp_path):
        # -0.0 == 0.0, but the two are written differently: the full Euler
        # paths start at lattice time 0.0, the grid-only ones at the grid's
        # own -0.0
        spec = ProcessSpec(0.5, 0.0, 1.0, PoissonClock(1.0))
        cfg = SchemeConfig(EulerScheme(0.1), horizon=1.0, grid=[-0.0, 0.5, 1.0])
        full, slim = tmp_path / "full.csv", tmp_path / "slim.csv"
        ensemble_to_csv(run_ensemble(spec, cfg, 3, 2), full)
        ensemble_to_csv(run_ensemble(spec, cfg, 3, 2, keep="grid"), slim)
        assert full.read_bytes().startswith(b"traj,t,x\r\n0,0.0,0.0\r\n0,0.1,")
        assert b",-0.0," not in full.read_bytes()
        assert slim.read_bytes().startswith(b"traj,t,x\r\n0,-0.0,0.0\r\n0,0.5,")
        assert sha256(full) == (
            "e8b4fc0cc3980bf1eb36418f3b5627c0f9025ed7c9ba8de27218cb0bae00c6de")
        assert sha256(slim) == (
            "7618eaf075799fe963513d5c9eefa5632635f7fd439ddd05f2d4fe3609710bf3")

    @pytest.mark.parametrize("spec, cfg, n", [
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0), 7),
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.5))),
         SchemeConfig(ExactScheme(), horizon=5.0, grid=np.linspace(0.0, 5.0, 11)), 7),
        (poisson_spec(1.0, 0.0, 2.0),
         SchemeConfig(EulerScheme(0.1), horizon=1.0, grid=[-0.0, 0.5, 1.0]), 7),
        *BLOCK_CASES,
    ], ids=["exact", "resets-on-grid", "euler-signed-zero-grid", *BLOCK_IDS])
    def test_sharded_csv_equals_the_ensemble_writers(self, tmp_path, spec, cfg, n):
        ens = run_ensemble(spec, cfg, n, seed=3)
        ensemble_to_csv(ens, tmp_path / "t.csv")
        resets_to_csv(ens, tmp_path / "r.csv")
        for workers in (1, 2, 3):
            out = tmp_path / str(workers)
            out.mkdir()
            counts = ensemble_csv(spec, cfg, n, 3, out, workers=workers)
            assert (out / "trajectories.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
            assert (out / "resets.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
            assert sorted(os.listdir(out)) == ["resets.csv", "trajectories.csv"]
            assert counts["rows"] == sum(len(tr.times) for tr in ens.trajectories)
            assert counts["resets_drawn"] == sum(len(tr.reset_times)
                                                 for tr in ens.trajectories)
            assert counts["ensemble_s"] >= 0 and counts["write_s"] >= 0
            assert counts["cpu_s"] >= 0
            # the longest shard is one of the shards the stages sum over
            assert 0 <= counts["shards_wall_s"] <= counts["ensemble_s"] + counts["write_s"] + 1e-9
            assert len(counts["shards"]) == workers
            for shard in counts["shards"]:
                assert shard["start_s"] >= 0 and shard["cpu_s"] >= 0
                assert 0 <= shard["wall_s"] <= counts["shards_wall_s"]
                assert isinstance(shard["minflt"], int) and shard["minflt"] >= 0
            assert max(s["wall_s"] for s in counts["shards"]) == counts["shards_wall_s"]
            assert sum(s["cpu_s"] for s in counts["shards"]) == pytest.approx(counts["cpu_s"])

    @pytest.mark.parametrize("spec, cfg", [
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)),
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(EulerScheme(0.05), horizon=1.0)),
    ], ids=["exact", "euler"])
    def test_a_block_formats_its_floats_in_one_call(self, tmp_path, monkeypatch, spec, cfg):
        # one call for the grid's time cells, then one a block for its reset
        # epochs and positions together; the table writer formats nothing
        calls = []
        float_cells = core_module._float_cells

        def counted(col):
            calls.append(len(col))
            return float_cells(col)

        monkeypatch.setattr(simulate_module, "_float_cells", counted)
        monkeypatch.setattr(core_module, "_float_cells", counted)
        block = simulate_module._block_size(len(validate_scheme(spec, cfg).times))
        n = 2 * block + 3
        counts = ensemble_csv(spec, cfg, n, 3, tmp_path, workers=1)
        assert len(calls) == 1 + -(-n // block)
        assert sum(calls[1:]) == counts["rows"] + counts["resets_drawn"]

    @pytest.mark.parametrize("cfg", [
        SchemeConfig(ExactScheme(), horizon=3.0),
        SchemeConfig(EulerScheme(0.01), horizon=1.0, grid=[0.0, 0.5, 1.0]),
    ], ids=["exact", "euler"])
    def test_without_fork_the_shards_run_in_turn(self, tmp_path, monkeypatch, cfg):
        # where os.fork is missing the calling process runs every shard
        monkeypatch.delattr(os, "fork")
        spec = poisson_spec(1.0, 0.0, 2.0)
        outputs = []
        for workers in (1, 2):
            out = tmp_path / str(workers)
            out.mkdir()
            counts = ensemble_csv(spec, cfg, 40, 5, out, workers=workers)
            assert counts["workers"] == len(counts["shards"]) == workers
            assert sorted(os.listdir(out)) == ["resets.csv", "trajectories.csv"]
            outputs.append(((out / "trajectories.csv").read_bytes(),
                            (out / "resets.csv").read_bytes()))
        assert outputs[1] == outputs[0]
        # the shards ran one after the other
        assert counts["shards"][1]["start_s"] >= counts["shards"][0]["start_s"]

    def test_minor_faults_are_none_without_the_resource_module(self, tmp_path, monkeypatch):
        # the resource module is missing on Windows
        monkeypatch.setattr(simulate_module, "resource", None)
        counts = ensemble_csv(poisson_spec(1.0, 0.0, 2.0),
                              SchemeConfig(ExactScheme(), horizon=1.0), 4, 5, tmp_path,
                              workers=1)
        assert [shard["minflt"] for shard in counts["shards"]] == [None]

    @pytest.mark.skipif(not PLACEABLE, reason="needs sched_setaffinity and two usable CPUs")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_forked_shard_starts_on_a_cpu_other_than_the_callers(
            self, tmp_path, monkeypatch, workers):
        # the caller reads that it runs on its highest allowed CPU; child i
        # sets the i-th CPU of the allowed set, the caller's counted 0th,
        # then the whole set, and its patched shard returns the calls
        allowed = os.sched_getaffinity(0)
        assert sorted(simulate_module._cpu_order()) == sorted(allowed)
        own = max(allowed)
        order = [own, *sorted(allowed - {own})]
        monkeypatch.setattr(simulate_module, "_STAT", fake_stat(tmp_path / "stat", own))
        calls = []
        set_affinity = os.sched_setaffinity

        def recorded(pid, mask):
            calls.append((pid, set(mask)))
            set_affinity(pid, mask)

        write_shard, reap, replies = simulate_module._write_shard, simulate_module._reap, []

        def shard(*args):
            return dict(write_shard(*args), affinity=calls)

        def reaped(*child):
            replies.append(reap(*child))
            return replies[-1]

        monkeypatch.setattr(os, "sched_setaffinity", recorded)
        monkeypatch.setattr(simulate_module, "_write_shard", shard)
        monkeypatch.setattr(simulate_module, "_reap", reaped)
        spec, cfg = poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)
        ensemble_csv(spec, cfg, 40, 5, tmp_path, workers=workers)
        assert [ok for ok, _ in replies] == [True] * (workers - 1)
        # child 1 names order[1], a CPU other than the caller's
        for i, (_, counts) in enumerate(replies, 1):
            assert counts["affinity"] == [(0, {order[i % len(order)]}), (0, allowed)]
        # the caller's affinity is never touched
        assert calls == [] and os.sched_getaffinity(0) == allowed

    @pytest.mark.parametrize("case", ["setaffinity-raises", "stat-unreadable",
                                      "no-getaffinity"])
    def test_placement_that_cannot_happen_keeps_the_bytes(self, tmp_path, monkeypatch, case):
        spec, cfg = poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)

        def run(workers):
            out = tmp_path / str(workers)
            out.mkdir()
            counts = ensemble_csv(spec, cfg, 40, 5, out, workers=workers)
            assert counts["workers"] == workers
            assert sorted(os.listdir(out)) == ["resets.csv", "trajectories.csv"]
            return ((out / "trajectories.csv").read_bytes(), (out / "resets.csv").read_bytes(),
                    counts["rows"], counts["resets_drawn"])

        alone = run(1)
        if case == "setaffinity-raises":
            def refused(pid, mask):
                raise OSError("affinity refused")
            monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
        elif case == "stat-unreadable":
            monkeypatch.setattr(simulate_module, "_STAT", str(tmp_path / "missing"))
            assert simulate_module._cpu_order() is None
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            assert simulate_module._cpu_order() is None
        assert run(2) == alone

    def test_numpy_integer_worker_counts_pass(self, tmp_path):
        # workers follows n's rule: any integer but a bool, numpy's too
        assert resolve_workers(10, np.int64(2)) == 2
        assert type(resolve_workers(np.int64(3), np.int64(8))) is int
        spec, cfg = poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)
        counts = ensemble_csv(spec, cfg, 40, 5, tmp_path, workers=np.int64(2))
        assert counts["workers"] == 2 and type(counts["workers"]) is int

    def test_worker_count_is_capped_by_n_and_checked(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 64)
        assert resolve_workers(3, 8) == 3
        assert resolve_workers(10**6) == 64
        assert resolve_workers(5) == 1  # a small run stays in one process
        assert resolve_workers(10**6, 2) == 2
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(SpecError, match="workers"):
                resolve_workers(10, bad)

    def test_default_workers_follow_expected_rows(self, monkeypatch):
        # 50 trajectories on a 20001-point grid: one process took
        # 1.6-1.9 s and two 0.9-1.4 s (2-vCPU VM)
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 2)
        assert resolve_workers(50) == 1
        assert resolve_workers(127) == 1 and resolve_workers(128) == 2
        assert resolve_workers(50, rows=20001) == 2
        spec = poisson_spec(1.0)
        fine = SchemeConfig(ExactScheme(), horizon=10.0, grid=np.linspace(0.0, 10.0, 20001))
        assert resolve_workers(50, rows=validate_scheme(spec, fine).rows) == 2
        # the clock's expected resets count too: R(10) = 2000 at rate 200
        busy = poisson_spec(200.0)
        cfg = SchemeConfig(ExactScheme(), horizon=10.0)
        assert validate_scheme(busy, cfg).rows == pytest.approx(2257.0)
        assert resolve_workers(50, rows=validate_scheme(busy, cfg).rows) == 2

    def test_metadata_round_trips_through_json(self):
        spec = poisson_spec(2.0, 1.0, -1.0)
        cfg = SchemeConfig(EulerScheme(1e-2), horizon=3.0)
        ens = run_ensemble(spec, cfg, 2, seed=11)
        doc = json.loads(json.dumps(run_metadata(ens.spec, ens.scheme, len(ens), ens.seed)))
        assert doc["run"] == {"horizon": 3.0, "scheme": "euler", "dt": 1e-2,
                              "n": 2, "seed": 11}
        assert doc["spec"]["clock"]["r"] == 2.0


SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127 + 99, 2 ** 200 + 3,
         [3, 2 ** 40, 7], None]
SEED_IDS = ["0", "1", "2**32-1", "2**32", "2**64+5", "2**127+99", "2**200+3", "sequence",
            "os-entropy"]


class TestBlockSeeding:
    """``generators`` hashes a block's spawn keys as uint32 columns; each
    generator must be the one numpy's ``SeedSequence`` spawns."""

    @pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
    def test_each_generator_is_the_spawned_child(self, seed):
        entropy = simulate_module._entropy(seed)
        for i in (0, 1, 31, 32, 999, 2 ** 32 - 1):
            (rng,) = generators(entropy, i, i + 1)
            child = np.random.SeedSequence(entropy, spawn_key=(i,))
            words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
            assert words.dtype == np.uint64
            assert np.array_equal(words, child.generate_state(4, np.uint64))
            ref = np.random.default_rng(child)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert same_bits(rng.standard_normal(3), ref.standard_normal(3))
            assert same_bits(rng.random(3), ref.random(3))

    @pytest.mark.parametrize("seed", SEEDS[::4], ids=SEED_IDS[::4])
    def test_a_block_is_its_children_in_order(self, seed):
        entropy = simulate_module._entropy(seed)
        for start, stop in ((0, 1000), (2 ** 32 - 40, 2 ** 32)):
            block = generators(entropy, start, stop)
            assert len(block) == stop - start
            for i in (start, start + 1, start + 31, start + 32, stop - 1):
                ref = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
                assert same_bits(block[i - start].random(4), ref.random(4))


class TestBlocks:
    def test_mixed_rows_merge_as_union_or_insertion(self, monkeypatch, tmp_path):
        # rows with and without a reset on the grid share blocks; equal
        # epochs share one row only where a reset sits on the grid
        choices = [np.array([0.3, 0.7]), np.array([0.5, 0.5, 0.7, 0.7, 1.0]),
                   np.array([0.2, 0.2, 1.1]), np.empty(0), np.array([0.0, 0.25])]

        def sample_events(clock, horizon, rngs):
            rows = [choices[rng.integers(len(choices))] for rng in rngs]
            return np.concatenate(rows), np.array([len(row) for row in rows])

        monkeypatch.setattr(PoissonClock, "sample_events", sample_events)
        spec = poisson_spec(1.0, 0.5, -1.0)
        grid = np.linspace(0.0, 1.0, 5)
        cfg = SchemeConfig(ExactScheme(), horizon=1.2, grid=grid)
        n = 2 * BLOCK + 3
        ens = run_ensemble(spec, cfg, n, seed=8)
        for i, child in enumerate(np.random.SeedSequence(8).spawn(n)):
            rng = np.random.default_rng(child)
            resets = choices[rng.integers(len(choices))]
            times, positions = union_reference(grid, resets, rng, spec)
            assert same_bits(ens.trajectories[i].times, times)
            assert same_bits(ens.trajectories[i].positions, positions)
            assert same_bits(ens.trajectories[i].reset_times, resets)
        ensemble_to_csv(ens, tmp_path / "t.csv")
        ensemble_csv(spec, cfg, n, 8, tmp_path, workers=1)
        assert (tmp_path / "trajectories.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()

    def test_memory_is_bounded_by_the_block_not_the_shard(self, tmp_path):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=10.0)

        def peak(n):
            tracemalloc.start()
            try:
                ensemble_csv(spec, cfg, n, 1, tmp_path, workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(BLOCK)  # first-call allocations
        assert peak(32 * BLOCK) <= 1.5 * peak(4 * BLOCK)

    def test_blocks_are_sized_by_rows_not_trajectories(self, tmp_path):
        # 16 trajectories of a 20001-point grid go one a block: 20002 rows,
        # 2.4 times a default-grid block's peak; as one block of 16 they
        # peaked 18 times higher
        spec = poisson_spec(1.0, 0.0, 2.0)
        fine = np.linspace(0.0, 10.0, 20001)

        def peak(n, grid=None):
            tracemalloc.start()
            try:
                ensemble_csv(spec, SchemeConfig(ExactScheme(), 10.0, grid), n, 1, tmp_path,
                             workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(BLOCK)  # first-call allocations
        assert peak(16, fine) <= 4 * peak(4 * BLOCK)
