import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import integrate
from scipy.stats import ks_2samp

from reset_sde import (
    DeterministicGaps,
    ExponentialGaps,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    DomainError,
    RenewalClock,
    SpecError,
)
from reset_sde.clocks import (
    IntensityFunction,
    _accumulate_gaps,
    cumulative_intensity,
    inverse_cumulative_intensity,
    sample_reset_times,
)


class TestCumulativeIntensity:
    def test_constant_rate(self):
        assert cumulative_intensity(IntensityFunction(1.0, 0.0), 3.0) == pytest.approx(3.0)

    def test_log_form_at_exponent_minus_one(self):
        f = IntensityFunction(1.0, -1.0)
        assert cumulative_intensity(f, math.e - 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_linear_intensity_against_quadrature(self):
        f = IntensityFunction(2.0, 1.0)
        expected, _ = integrate.quad(lambda w: 2.0 * (w + 1.0), 0.0, 1.0)
        assert cumulative_intensity(f, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            cumulative_intensity(IntensityFunction(1.0, 0.0), -0.1)

    def test_negative_time_is_a_domain_error(self):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            cumulative_intensity(IntensityFunction(1.0, -0.5), np.array([1.0, -0.1]))


class TestInverseCumulativeIntensity:
    def test_identity_for_constant_rate(self):
        assert inverse_cumulative_intensity(IntensityFunction(1.0, 0.0), 5.0) == pytest.approx(5.0)

    def test_exponential_form_at_minus_one(self):
        f = IntensityFunction(1.0, -1.0)
        assert inverse_cumulative_intensity(f, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_negative_budget_is_a_domain_error(self):
        with pytest.raises(DomainError, match="u must be nonnegative"):
            inverse_cumulative_intensity(IntensityFunction(1.0, 0.5), -1.0)

    @given(rate=hs.floats(0.1, 10.0), p=hs.floats(-3.0, 3.0),
           t=hs.floats(0.0, 100.0))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, rate, p, t):
        f = IntensityFunction(rate, p)
        back = inverse_cumulative_intensity(f, cumulative_intensity(f, t))
        assert back == pytest.approx(t, rel=1e-12, abs=1e-9)


class TestSampling:
    def test_event_rate_law_of_large_numbers(self):
        events = sample_reset_times(PoissonClock(1.0), 1e4,
                                    np.random.default_rng(11))
        assert abs(len(events) / 1e4 - 1.0) < 0.03

    def test_events_strictly_increasing_and_in_window(self):
        for clock in (PoissonClock(2.0),
                      NonhomogeneousPoissonClock(1.0, 0.7),
                      RenewalClock(ParetoGaps(1.2, 0.05))):
            events = sample_reset_times(clock, 50.0, np.random.default_rng(5))
            assert np.all(np.diff(events) > 0)
            assert events[0] > 0 and events[-1] <= 50.0

    def test_determinism_same_stream_state(self):
        a = sample_reset_times(PoissonClock(1.0), 100.0, np.random.default_rng(42))
        b = sample_reset_times(PoissonClock(1.0), 100.0, np.random.default_rng(42))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_horizon_is_a_spec_error(self, horizon):
        with pytest.raises(SpecError, match="horizon must be positive"):
            sample_reset_times(PoissonClock(1.0), horizon, np.random.default_rng(0))

    def test_rate_zero_yields_no_events(self):
        assert len(sample_reset_times(PoissonClock(0.0), 10.0,
                                      np.random.default_rng(0))) == 0

    def test_clock_equivalence_constant_exponent_vs_poisson(self):
        # inter-event laws agree: matched seeds drawn independently
        horizon = 1.1e5
        hom = sample_reset_times(PoissonClock(1.0), horizon,
                                 np.random.default_rng(101))
        npp = sample_reset_times(NonhomogeneousPoissonClock(1.0, 0.0), horizon,
                                 np.random.default_rng(202))
        gaps_hom = np.diff(hom)[:100000]
        gaps_npp = np.diff(npp)[:100000]
        assert len(gaps_hom) == len(gaps_npp) == 100000
        se = math.sqrt(gaps_hom.var() / len(gaps_hom)
                       + gaps_npp.var() / len(gaps_npp))
        assert abs(gaps_hom.mean() - gaps_npp.mean()) < 3 * se
        assert ks_2samp(gaps_hom, gaps_npp).pvalue > 0.01

    def test_count_mean_matches_cumulative_intensity(self):
        clock = NonhomogeneousPoissonClock(1.0, 1.0)
        f = IntensityFunction(1.0, 1.0)
        rng = np.random.default_rng(7)
        t = 3.0
        counts = np.array([len(sample_reset_times(clock, t, rng))
                           for _ in range(3000)])
        target = cumulative_intensity(f, t)
        se = counts.std() / math.sqrt(len(counts))
        assert abs(counts.mean() - target) < 3 * se

    def test_window_counts_scale_with_cumulative_intensity(self):
        # growing intensity: early vs late window counts ratio
        clock = NonhomogeneousPoissonClock(1.0, 1.0)
        f = IntensityFunction(1.0, 1.0)
        rng = np.random.default_rng(13)
        early = late = 0
        n = 100000
        for _ in range(n):
            events = sample_reset_times(clock, 10.0, rng)
            early += np.count_nonzero(events <= 1.0)
            late += np.count_nonzero(events > 9.0)
        expected = ((cumulative_intensity(f, 10.0) - cumulative_intensity(f, 9.0))
                    / cumulative_intensity(f, 1.0))
        ratio = late / early
        se = ratio * math.sqrt(1.0 / early + 1.0 / late)
        assert abs(ratio - expected) < 3 * se


class TestRenewalLaws:
    def test_deterministic_gaps(self):
        clock = RenewalClock(DeterministicGaps(0.3))
        events = sample_reset_times(clock, 1.0, np.random.default_rng(0))
        assert np.allclose(events, [0.3, 0.6, 0.9], rtol=1e-12)

    def test_exponential_law_matches_poisson_clock(self):
        renewal = sample_reset_times(RenewalClock(ExponentialGaps(2.0)), 5e4,
                                     np.random.default_rng(21))
        poisson = sample_reset_times(PoissonClock(0.5), 5e4,
                                     np.random.default_rng(34))
        assert ks_2samp(np.diff(renewal), np.diff(poisson)).pvalue > 0.01

    def test_pareto_gaps_respect_floor(self):
        clock = RenewalClock(ParetoGaps(0.8, 0.2))  # infinite-mean gaps
        events = sample_reset_times(clock, 100.0, np.random.default_rng(3))
        gaps = np.diff(np.concatenate(([0.0], events)))
        assert np.all(gaps >= 0.2)

    def test_nonpositive_gap_draw_is_rejected(self):
        with pytest.raises(SpecError, match="non-positive gap"):
            _accumulate_gaps(lambda rng, size: np.zeros(size), 1.0,
                             np.random.default_rng(0), 1.0)
