import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import integrate
from scipy.stats import norm

from reset_sde import (
    DeterministicGaps,
    DomainError,
    NonhomogeneousPoissonClock,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    SpecError,
    marginal_samples,
    run_ensemble,
)
from reset_sde.simulate import ExactScheme, SchemeConfig
from reset_sde import analytic
from reset_sde.core import _CHUNK as CHUNK
from reset_sde.stats import (
    MsdSeries,
    _means_and_stds,
    _pairwise_sum,
    analytic_cdf,
    cdf_from_density_curve,
    empirical_char_fn,
    empirical_msd,
    fit_power_law_exponent,
    histogram_density,
    ks_distance,
)


def spec_poisson(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


class TestHistogram:
    def test_constant_samples_make_unit_spike(self):
        curve = histogram_density(np.full(500, 2.5))
        assert len(curve.xs) == 1
        assert curve.xs[0] == 2.5
        assert curve.values[0] == 1.0

    def test_gaussian_samples_reproduce_gaussian_cdf(self):
        samples = np.random.default_rng(5).standard_normal(100000)
        curve = histogram_density(samples)
        assert curve.mass() == pytest.approx(1.0, abs=1e-9)
        ks = ks_distance(samples, cdf_from_density_curve(curve))
        assert ks < 0.01

    def test_figure_scenario_agreement(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        samples = marginal_samples(spec, 0.1, 100000, seed=404)
        curve = histogram_density(samples, t=0.1)
        ref = analytic.pdf(spec, curve.xs, 0.1)
        assert np.trapezoid(np.abs(curve.values - ref), curve.xs) < 0.05

    def test_explicit_bins(self):
        samples = np.random.default_rng(0).standard_normal(5000)
        curve = histogram_density(samples, bin_spec=20)
        assert len(curve.xs) == 20

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            histogram_density(np.empty(0))


class TestEmpiricalMsd:
    def test_brownian_baseline_slope_one(self):
        spec = spec_poisson(0.0, d=0.5)
        grid = np.geomspace(0.05, 10.0, 40)
        cfg = SchemeConfig(ExactScheme(), horizon=10.0, grid=grid)
        ens = run_ensemble(spec, cfg, 2000, seed=60, keep="grid")
        series = empirical_msd(ens)
        assert fit_power_law_exponent(series) == pytest.approx(1.0, abs=0.05)
        # diffusive level: msd(t) = 2 D t
        assert series.msd[-1] == pytest.approx(10.0, rel=0.1)

    def test_resetting_saturates_at_stationary_variance(self):
        spec = spec_poisson(1.0)
        grid = np.geomspace(0.1, 30.0, 40)
        cfg = SchemeConfig(ExactScheme(), horizon=30.0, grid=grid)
        ens = run_ensemble(spec, cfg, 3000, seed=61, keep="grid")
        series = empirical_msd(ens)
        assert abs(fit_power_law_exponent(series)) < 0.05
        assert series.msd[-1] == pytest.approx(1.0, rel=0.1)

    def test_subdiffusive_regime_exponent(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        grid = np.geomspace(0.1, 100.0, 48)
        cfg = SchemeConfig(ExactScheme(), horizon=100.0, grid=grid)
        ens = run_ensemble(spec, cfg, 4000, seed=62, keep="grid")
        mu = fit_power_law_exponent(empirical_msd(ens))
        assert mu == pytest.approx(0.5, abs=0.1)

    def test_displacement_is_about_the_mean_when_off_center(self):
        # x0 != xR: displacement about the relaxing mean, so msd(0) ~ 0
        spec = spec_poisson(1.0, 0.0, 4.0)
        grid = np.geomspace(0.01, 5.0, 30)
        cfg = SchemeConfig(ExactScheme(), horizon=5.0, grid=grid)
        ens = run_ensemble(spec, cfg, 3000, seed=63, keep="grid")
        series = empirical_msd(ens)
        assert series.msd[0] < 0.05
        assert series.msd[-1] == pytest.approx(1.0, rel=0.15)

    def test_renewal_clock_off_center_uses_the_empirical_mean(self):
        # no closed-form mean: the centre is the ensemble mean.  Resets at
        # t = 1, 2 from x0 = 3 to 0, so the variance is 2 D (t - last reset)
        spec = ProcessSpec(0.5, 3.0, 0.0, RenewalClock(DeterministicGaps(1.0)))
        grid = np.array([0.5, 1.5, 2.25])
        cfg = SchemeConfig(ExactScheme(), horizon=2.5, grid=grid)
        ens = run_ensemble(spec, cfg, 4000, seed=64, keep="grid")
        series = empirical_msd(ens)
        positions = ens.positions_at(series.ts)
        assert np.allclose(series.msd, positions.var(axis=0), rtol=1e-12, atol=0.0)
        assert np.allclose(series.msd, [0.0, 0.5, 0.5, 0.25], rtol=0.1, atol=0.0)


class TestExponentFit:
    def test_exact_power_law(self):
        ts = np.geomspace(0.1, 100.0, 60)
        series = MsdSeries(ts=ts, msd=ts ** 0.7, n_samples=1)
        assert fit_power_law_exponent(series) == pytest.approx(0.7, abs=1e-12)

    def test_constant_series(self):
        ts = np.geomspace(0.1, 100.0, 60)
        series = MsdSeries(ts=ts, msd=np.full(60, 3.3), n_samples=1)
        assert fit_power_law_exponent(series) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_msd_curve_log_intensity(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -1.0))
        ts = np.geomspace(1.0, 100.0, 90)
        msd = np.array([analytic.npp_msd(spec, t) for t in ts])
        series = MsdSeries(ts=ts, msd=msd, n_samples=1)
        mu = fit_power_law_exponent(series, window=(50.0, 100.0))
        assert mu == pytest.approx(1.0, abs=0.02)

    @given(scale=hs.floats(1e-6, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_positive_rescaling(self, scale):
        ts = np.geomspace(0.5, 50.0, 30)
        msd = ts ** 0.4 + 0.1 * np.sin(ts)
        base = fit_power_law_exponent(MsdSeries(ts, msd, 1), window=(5.0, 50.0))
        scaled = fit_power_law_exponent(MsdSeries(ts, scale * msd, 1),
                                        window=(5.0, 50.0))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_window_preconditions(self):
        ts = np.geomspace(0.1, 10.0, 30)
        with pytest.raises(ValueError, match="at least 10"):
            fit_power_law_exponent(MsdSeries(ts, ts, 1), window=(9.0, 10.0))
        bad = MsdSeries(ts, np.concatenate((ts[:-1], [-1.0])), 1)
        with pytest.raises(ValueError, match="positive"):
            fit_power_law_exponent(bad, window=(0.1, 10.0))


class TestKsDistance:
    def test_null_calibration(self):
        rng = np.random.default_rng(8)
        samples = rng.standard_normal(10000)
        assert ks_distance(samples, norm.cdf) < 1.63 / math.sqrt(10000)

    def test_disjoint_bulk(self):
        rng = np.random.default_rng(9)
        samples = rng.standard_normal(10000)
        assert ks_distance(samples, lambda x: norm.cdf(x, loc=5.0)) > 0.9

    def test_rejects_nonmonotone_cdf(self):
        with pytest.raises(ValueError, match="monotone"):
            ks_distance(np.linspace(0, 1, 100), lambda x: np.cos(10 * x))

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_slices_give_the_one_call_statistic(self, n):
        samples = np.random.default_rng(n).standard_normal(n)

        def cdf(x):
            return norm.cdf(x, loc=0.01)

        x = np.sort(samples)
        f = cdf(x)
        steps = np.arange(1, n + 1) / n
        one_call = float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))
        assert ks_distance(samples, cdf) == one_call

    def test_evaluator_sees_consecutive_slices_of_at_most_one_chunk(self):
        samples = np.random.default_rng(4).standard_normal(2 * CHUNK + 1)
        seen = []

        def cdf(x):
            seen.append(x.copy())
            return norm.cdf(x)

        ks_distance(samples, cdf)
        assert [len(x) for x in seen] == [CHUNK, CHUNK, 1]
        assert np.array_equal(np.concatenate(seen), np.sort(samples))

    def test_a_decrease_across_a_slice_edge_is_refused(self):
        # increasing within each slice, down by almost 1 from the last
        # value of the first slice to the first of the second
        with pytest.raises(SpecError, match="monotone"):
            ks_distance(np.arange(CHUNK + 10.0), lambda x: (x % CHUNK) / CHUNK)


class TestPairwiseSum:
    @pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 7, 200_000, 1_000_003])
    def test_matches_numpy_bit_for_bit(self, n):
        # numpy sums a contiguous float64 array along a pairwise tree; the
        # chunked sums must follow the same tree, so with heavy tails any
        # other order of additions shows in the last bits
        x = np.random.default_rng(n).standard_cauchy(n)
        assert _pairwise_sum(lambda lo, hi: np.add.reduce(x[lo:hi]), 0, n) == np.add.reduce(x)
        (mean,), (std,) = _means_and_stds(lambda lo, hi: (x[lo:hi],), n)
        assert mean == x.mean()
        assert std == x.std()


class TestAnalyticCdf:
    def test_limits_and_monotonicity(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        xs = np.linspace(-25.0, 30.0, 4001)
        vals = analytic_cdf(spec, xs, 0.5)
        assert vals[0] < 1e-9 and vals[-1] > 1 - 1e-9
        assert np.all(np.diff(vals) >= -1e-12)

    def test_no_resetting_is_gaussian_cdf(self):
        spec = spec_poisson(0.0, x0=1.0)
        xs = np.linspace(-4, 6, 41)
        assert np.allclose(analytic_cdf(spec, xs, 2.0),
                           norm.cdf(xs, loc=1.0, scale=math.sqrt(2.0)),
                           atol=1e-12)

    def test_derivative_recovers_density(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        d = 1e-5
        for x in np.linspace(-2.0, 8.0, 23):
            fd = (analytic_cdf(spec, x + d, 0.1)
                  - analytic_cdf(spec, x - d, 0.1)) / (2 * d)
            assert fd == pytest.approx(analytic.pdf(spec, x, 0.1), abs=1e-5)

    def test_matches_quadrature_of_density(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        for x in (-2.0, 0.0, 2.9, 3.0, 3.1, 6.0):
            direct, _ = integrate.quad(lambda u: analytic.pdf(spec, u, 0.1),
                                       -np.inf, x, limit=300)
            assert analytic_cdf(spec, x, 0.1) == pytest.approx(direct, abs=1e-8)

    def test_typed_errors(self):
        npp = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        with pytest.raises(SpecError, match="homogeneous Poisson"):
            analytic_cdf(npp, 0.0, 1.0)
        with pytest.raises(DomainError, match="t must be positive"):
            analytic_cdf(spec_poisson(1.0), 0.0, 0.0)


class TestEmpiricalCf:
    def test_exact_at_zero(self):
        rng = np.random.default_rng(3)
        est = empirical_char_fn(rng.standard_normal(1000), 0.0)
        assert est.value == 1.0 + 0.0j

    def test_constant_samples(self):
        est = empirical_char_fn(np.full(200, 1.3), 2.0)
        assert est.value == pytest.approx(np.exp(1j * 2.0 * 1.3), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    @given(s=hs.floats(-8.0, 8.0), seed=hs.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_modulus_never_exceeds_one(self, s, seed):
        samples = np.random.default_rng(seed).exponential(1.0, 250)
        assert abs(empirical_char_fn(samples, s).value) <= 1.0 + 1e-12

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            empirical_char_fn(np.zeros(50), 1.0)


class TestTypedErrors:
    @pytest.mark.parametrize("call, error", [
        (lambda: histogram_density(np.empty(0)), DomainError),
        (lambda: fit_power_law_exponent(
            MsdSeries(np.geomspace(0.1, 10.0, 30), np.geomspace(0.1, 10.0, 30), 1),
            window=(9.0, 10.0)), DomainError),
        (lambda: fit_power_law_exponent(
            MsdSeries(np.geomspace(0.1, 10.0, 30), -np.ones(30), 1),
            window=(0.1, 10.0)), DomainError),
        (lambda: ks_distance(np.zeros(5), norm.cdf), DomainError),
        (lambda: ks_distance(np.linspace(0, 1, 20), lambda x: np.zeros(3)), SpecError),
        (lambda: ks_distance(np.linspace(0, 1, 100), lambda x: np.cos(10 * x)),
         SpecError),
        (lambda: cdf_from_density_curve(analytic.DensityCurve(
            np.linspace(0.0, 1.0, 5), np.zeros(5), 0.0)), DomainError),
        (lambda: empirical_char_fn(np.zeros(50), 1.0), DomainError),
        (lambda: ks_distance(np.append(np.linspace(0, 1, 20), np.nan),
                             cdf_from_density_curve(analytic.DensityCurve(
                                 np.linspace(0.0, 1.0, 5), np.ones(5), 0.0))), DomainError),
        (lambda: ks_distance(np.linspace(0, 1, 20), lambda x: np.full(len(x), np.nan)),
         SpecError),
        (lambda: histogram_density(np.array([0.0, 1.0, np.nan])), DomainError),
        (lambda: histogram_density(np.array([0.0, 1.0, np.inf])), DomainError),
        (lambda: empirical_char_fn(np.append(np.zeros(199), np.nan), 1.0), DomainError),
        (lambda: empirical_char_fn(np.append(np.zeros(199), -np.inf), 1.0), DomainError),
    ], ids=["no-samples", "short-window", "nonpositive-msd", "few-ks-samples",
            "cdf-shape", "cdf-monotone", "no-mass", "few-cf-samples", "ks-nan-sample",
            "cdf-nan", "histogram-nan", "histogram-inf", "cf-nan", "cf-inf"])
    def test_bad_inputs_raise_typed_errors(self, call, error):
        with pytest.raises(error):
            call()
