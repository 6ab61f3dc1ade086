import hashlib
import json
import math
import os

import numpy as np
import pytest
from scipy.stats import ks_2samp

from reset_sde import (
    DeterministicGaps,
    DomainError,
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
    ensemble_metadata,
    ensemble_to_csv,
    euler_marginal_samples,
    marginal_samples,
    resets_to_csv,
    resolve_workers,
    run_ensemble,
    simulate_euler,
    simulate_exact,
    validate_scheme,
)
from reset_sde import _kernels, analytic, stats
from reset_sde import simulate as simulate_module
from reset_sde.clocks import sample_reset_times


def poisson_spec(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_euler_grid_off_lattice_refused_before_simulating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate_module, "simulate_euler",
                            lambda *a, **k: calls.append(a))
        cfg = SchemeConfig(EulerScheme(0.1), horizon=0.5,
                           grid=np.array([0.0, 0.25, 0.5]))
        with pytest.raises(SpecError, match="multiples of dt"):
            run_ensemble(poisson_spec(1.0), cfg, 5, seed=1)
        assert calls == []

    def test_euler_grid_within_lattice_tolerance_is_read_after_the_run(self):
        # 1e-10 off the lattice: inside the shared time tolerance, so the
        # check admits it and the positions are read at lattice time 0.3
        cfg = SchemeConfig(EulerScheme(0.1), horizon=0.5, grid=[0, 0.3 + 1e-10, 0.5])
        slim = run_ensemble(poisson_spec(1.0), cfg, 500, 1, keep="grid")
        full = run_ensemble(poisson_spec(1.0), cfg, 500, 1)
        for a, b in zip(full.trajectories, slim.trajectories):
            assert same_bits(b.positions, a.positions[[0, 3, 5]])

    def test_euler_grid_beyond_lattice_tolerance_refused_before_walking(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_kernels, "walk", lambda *a, **k: calls.append(a))
        cfg = SchemeConfig(EulerScheme(0.1), horizon=0.5, grid=[0, 0.3 + 1e-8, 0.5])
        with pytest.raises(SpecError, match="multiples of dt"):
            run_ensemble(poisson_spec(1.0), cfg, 5, seed=1, keep="grid")
        assert calls == []

    def test_grid_must_be_increasing_and_inside(self):
        with pytest.raises(SpecError, match="increasing"):
            validate_scheme(poisson_spec(),
                            SchemeConfig(ExactScheme(), 1.0, grid=np.array([0.5, 0.2])))
        with pytest.raises(SpecError, match="within"):
            validate_scheme(poisson_spec(),
                            SchemeConfig(ExactScheme(), 1.0, grid=np.array([0.5, 2.0])))


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

    def test_constant_drift_enters_observable_averages(self):
        # generalised chain rule: d/dt E x^2 = E[2 mu x + 2 D] + r(b^2 - E x^2)
        spec = poisson_spec(1.0, 0.0, 1.0)
        mu, dt, t, n = 0.4, 1e-3, 0.5, 60000
        delta = 5 * dt
        cols = euler_marginal_samples(spec, [t - delta, t, t + delta], dt, n,
                                      seed=99, drift=mu)
        drift_est = (cols[:, 2] ** 2 - cols[:, 0] ** 2) / (2 * delta)
        generator = 2 * mu * cols[:, 1] + 2 * spec.diffusivity \
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


    def test_typed_errors_for_bad_time_and_size(self):
        with pytest.raises(DomainError, match="t must be positive"):
            marginal_samples(poisson_spec(1.0), 0.0, 10, seed=1)
        with pytest.raises(SpecError, match="n must be at least 1"):
            marginal_samples(poisson_spec(1.0), 1.0, 0, seed=1)

    def test_euler_marginals_reject_off_lattice_times(self):
        with pytest.raises(SpecError, match="multiples of dt"):
            euler_marginal_samples(poisson_spec(1.0), [0.1, 0.15], 0.1, 10, seed=1)


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

    @pytest.mark.parametrize("spec, cfg", [
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)),
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.5))),
         SchemeConfig(ExactScheme(), horizon=5.0, grid=np.linspace(0.0, 5.0, 11))),
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(EulerScheme(0.01), horizon=1.0)),
    ], ids=["exact", "resets-on-grid", "euler"])
    def test_trajectory_i_is_a_single_run_on_child_i(self, spec, cfg):
        ens = run_ensemble(spec, cfg, 12, seed=21)
        one = simulate_euler if isinstance(cfg.scheme, EulerScheme) else simulate_exact
        children = np.random.SeedSequence(21).spawn(12)
        for child, tr in zip(children, ens.trajectories):
            ref = one(spec, cfg, np.random.default_rng(child))
            assert same_bits(tr.times, ref.times)
            assert same_bits(tr.positions, ref.positions)
            assert same_bits(tr.reset_times, ref.reset_times)

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
        # reference: the union of grid and resets, reset rows by membership
        cfg = SchemeConfig(ExactScheme(), horizon=horizon, grid=grid)
        resolved = simulate_module._resolve_exact_grid(cfg)
        for seed in range(20):
            tr = simulate_exact(spec, cfg, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            resets = sample_reset_times(spec.clock, horizon, rng)
            merged = np.union1d(resolved, resets)
            flags = np.isin(merged[1:], resets)
            z = rng.standard_normal(len(merged) - 1)
            increments = np.sqrt(2.0 * spec.diffusivity * np.diff(merged)) * z
            positions = _kernels.walk(spec.x0, spec.x_reset, increments, flags)
            assert same_bits(tr.times, merged)
            assert same_bits(tr.positions, positions)
            assert same_bits(tr.reset_times, resets)

    def test_seed_none_records_entropy_that_reproduces_the_run(self):
        spec = poisson_spec(1.0, 0.0, 2.0)
        cfg = SchemeConfig(ExactScheme(), horizon=2.0)
        first = run_ensemble(spec, cfg, 6, seed=None)
        assert isinstance(first.seed, int)
        doc = json.loads(json.dumps(ensemble_metadata(first)))
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

    @pytest.mark.parametrize("spec, cfg", [
        (poisson_spec(1.0, 0.0, 2.0), SchemeConfig(ExactScheme(), horizon=3.0)),
        (ProcessSpec(0.5, 0.0, 1.0, RenewalClock(DeterministicGaps(0.5))),
         SchemeConfig(ExactScheme(), horizon=5.0, grid=np.linspace(0.0, 5.0, 11))),
        (poisson_spec(1.0, 0.0, 2.0),
         SchemeConfig(EulerScheme(0.1), horizon=1.0, grid=[-0.0, 0.5, 1.0])),
    ], ids=["exact", "resets-on-grid", "euler-signed-zero-grid"])
    def test_sharded_csv_equals_the_ensemble_writers(self, tmp_path, spec, cfg):
        ens = run_ensemble(spec, cfg, 7, seed=3)
        ensemble_to_csv(ens, tmp_path / "t.csv")
        resets_to_csv(ens, tmp_path / "r.csv")
        for workers in (1, 2, 3):
            out = tmp_path / str(workers)
            out.mkdir()
            counts = ensemble_csv(spec, cfg, 7, 3, out, workers=workers)
            assert (out / "trajectories.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
            assert (out / "resets.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
            assert sorted(os.listdir(out)) == ["resets.csv", "trajectories.csv"]
            assert counts["rows"] == sum(len(tr.times) for tr in ens.trajectories)
            assert counts["resets_drawn"] == sum(len(tr.reset_times)
                                                 for tr in ens.trajectories)
            assert counts["ensemble_s"] >= 0 and counts["write_s"] >= 0

    def test_worker_count_is_capped_by_n_and_checked(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 64)
        assert resolve_workers(3, 8) == 3
        assert resolve_workers(10**6) == 64
        assert resolve_workers(5) == 1  # a small run stays in one process
        assert resolve_workers(10**6, 2) == 2
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(SpecError, match="workers"):
                resolve_workers(10, bad)

    def test_metadata_round_trips_through_json(self):
        spec = poisson_spec(2.0, 1.0, -1.0)
        cfg = SchemeConfig(EulerScheme(1e-2), horizon=3.0)
        ens = run_ensemble(spec, cfg, 2, seed=11)
        doc = json.loads(json.dumps(ensemble_metadata(ens)))
        assert doc["run"] == {"horizon": 3.0, "scheme": "euler", "dt": 1e-2,
                              "n": 2, "seed": 11}
        assert doc["spec"]["clock"]["r"] == 2.0
