import math
from types import SimpleNamespace

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
    ProcessSpec,
    RenewalClock,
    SpecError,
    marginal_samples,
)
from reset_sde._seeding import generators
from reset_sde.clocks import _accumulate_gaps, likely_resets, sample_reset_times


class TestCumulativeIntensity:
    def test_constant_rate(self):
        assert NonhomogeneousPoissonClock(1.0, 0.0).cumulative(3.0) == pytest.approx(3.0)

    def test_log_form_at_exponent_minus_one(self):
        clock = NonhomogeneousPoissonClock(1.0, -1.0)
        assert clock.cumulative(math.e - 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_linear_intensity_against_quadrature(self):
        clock = NonhomogeneousPoissonClock(2.0, 1.0)
        expected, _ = integrate.quad(lambda w: 2.0 * (w + 1.0), 0.0, 1.0)
        assert clock.cumulative(1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            NonhomogeneousPoissonClock(1.0, 0.0).cumulative(-0.1)

    def test_negative_time_is_a_domain_error(self):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            NonhomogeneousPoissonClock(1.0, -0.5).cumulative(np.array([1.0, -0.1]))


class TestInverseCumulativeIntensity:
    def test_identity_for_constant_rate(self):
        assert NonhomogeneousPoissonClock(1.0, 0.0).inverse_cumulative(5.0) == pytest.approx(5.0)

    def test_exponential_form_at_minus_one(self):
        clock = NonhomogeneousPoissonClock(1.0, -1.0)
        assert clock.inverse_cumulative(1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_negative_budget_is_a_domain_error(self):
        with pytest.raises(DomainError, match="u must be nonnegative"):
            NonhomogeneousPoissonClock(1.0, 0.5).inverse_cumulative(-1.0)

    @given(rate=hs.floats(0.1, 10.0), p=hs.floats(-3.0, 3.0),
           t=hs.floats(0.0, 100.0))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, rate, p, t):
        clock = NonhomogeneousPoissonClock(rate, p)
        back = clock.inverse_cumulative(clock.cumulative(t))
        assert back == pytest.approx(t, rel=1e-12, abs=1e-9)


def block_events(clock, horizon, n, seed, size=10_000):
    """``clock.sample_events`` for n trajectories, the children of
    ``SeedSequence(seed)``, ``size`` generators at a time."""
    for lo in range(0, n, size):
        yield clock.sample_events(horizon, generators(seed, lo, min(lo + size, n)))


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

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_horizon_is_a_spec_error(self, horizon):
        with pytest.raises(SpecError, match="horizon must be positive and finite"):
            sample_reset_times(PoissonClock(1.0), horizon, np.random.default_rng(0))

    def test_pareto_gaps_of_tiny_alpha_are_infinite_without_a_warning(self):
        # (1/u)**1e300 overflows: the gap is past every horizon, its limit
        clock = RenewalClock(ParetoGaps(1e-300, 1.0))
        assert np.all(clock.law.draw(np.random.default_rng(0), 8) == math.inf)
        assert len(sample_reset_times(clock, 10.0, np.random.default_rng(0))) == 0

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
        t = 3.0
        counts = np.concatenate([c for _, c in block_events(clock, t, 3000, 7)])
        target = clock.cumulative(t)
        se = counts.std() / math.sqrt(len(counts))
        assert abs(counts.mean() - target) < 3 * se

    def test_window_counts_scale_with_cumulative_intensity(self):
        # growing intensity: early vs late window counts ratio
        clock = NonhomogeneousPoissonClock(1.0, 1.0)
        early = late = 0
        for events, _ in block_events(clock, 10.0, 100000, 13):
            early += np.count_nonzero(events <= 1.0)
            late += np.count_nonzero(events > 9.0)
        expected = ((clock.cumulative(10.0) - clock.cumulative(9.0))
                    / clock.cumulative(1.0))
        ratio = late / early
        se = ratio * math.sqrt(1.0 / early + 1.0 / late)
        assert abs(ratio - expected) < 3 * se


def single_run_reference(clock, horizon, rng):
    """The epochs a trajectory drew when each sampled its own: chunks of
    gaps straight from numpy, the first sized by the mean gap, each
    continuation int(1.5 * block) + 16 long and offset by the total."""
    if isinstance(clock, RenewalClock) and isinstance(clock.law, DeterministicGaps):
        return clock.law.gap * np.arange(1, clock.law.count(horizon) + 1)
    if isinstance(clock, NonhomogeneousPoissonClock):
        unit = single_run_reference(PoissonClock(1.0), clock.cumulative(horizon), rng)
        return clock.inverse_cumulative(unit)
    if isinstance(clock, PoissonClock):
        if clock.rate == 0.0:
            return np.empty(0)
        law = ExponentialGaps(1.0 / clock.rate)
    else:
        law = clock.law
    if isinstance(law, ExponentialGaps):
        draw = lambda size: rng.exponential(law.mean, size)
    else:
        draw = lambda size: law.xm * rng.random(size) ** (-1.0 / law.alpha)
    mean_gap = law.mean_gap
    block = max(16, int(1.2 * horizon / mean_gap) + 8) if math.isfinite(mean_gap) else 16
    total, chunks = 0.0, []
    while True:
        times = draw(block).cumsum()
        if total:
            times += total
        chunks.append(times)
        total = times[-1]
        if total > horizon:
            break
        block = int(1.5 * block) + 16
    events = np.concatenate(chunks)
    return events[:events.searchsorted(horizon, "right")]


def block_rngs(n, seed=5):
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


def split(events, counts):
    return np.split(events, np.cumsum(counts)[:-1])


class TestBlocks:
    """A block of generators samples in one call what each samples alone."""

    @pytest.mark.parametrize("clock, horizon", [
        (PoissonClock(1.0), 40.0),
        (PoissonClock(0.0), 10.0),
        (NonhomogeneousPoissonClock(1.5, 0.5), 20.0),
        (NonhomogeneousPoissonClock(1.5, -0.5), 20.0),
        (RenewalClock(DeterministicGaps(0.25)), 2.0),
        (RenewalClock(ExponentialGaps(0.5)), 20.0),
        (RenewalClock(ParetoGaps(0.8, 0.2)), 10.0),
    ], ids=["poisson", "rate-0", "power-law-p=0.5", "power-law-p=-0.5", "deterministic",
            "exponential", "pareto-infinite-mean"])
    def test_block_equals_each_generator_alone(self, clock, horizon):
        n = 400
        rngs, alone, ref = block_rngs(n), block_rngs(n), block_rngs(n)
        events, counts = clock.sample_events(horizon, rngs)
        assert len(counts) == n and counts.sum() == len(events)
        for k, row in enumerate(split(events, counts)):
            assert np.array_equal(row, sample_reset_times(clock, horizon, alone[k]))
            assert np.array_equal(row, single_run_reference(clock, horizon, ref[k]))
            # and each generator is left where a run of its own leaves it
            assert rngs[k].random() == alone[k].random() == ref[k].random()

    def test_only_some_rows_draw_continuation_chunks(self):
        # infinite-mean gaps start at chunks of 16, then 40 and 76 more: a
        # row's count says how many chunks it drew
        clock, horizon = RenewalClock(ParetoGaps(0.8, 0.05)), 10.0
        events, counts = clock.sample_events(horizon, block_rngs(64, seed=9))
        chunks = np.searchsorted([16, 56, 132], counts, side="right") + 1
        assert set(chunks) >= {1, 2, 3}
        for row, rng in zip(split(events, counts), block_rngs(64, seed=9)):
            assert np.array_equal(row, single_run_reference(clock, horizon, rng))

    def test_nonpositive_gap_in_a_continuation_chunk_is_rejected(self):
        law = SimpleNamespace(
            draw=lambda rng, size: rng.exponential(1.0, size) if size == 16 else np.zeros(size),
            mean_gap=100.0)
        with pytest.raises(SpecError, match="non-positive gap"):
            _accumulate_gaps(law, 20.0, block_rngs(8))


class TestRenewalLaws:
    def test_deterministic_gaps(self):
        clock = RenewalClock(DeterministicGaps(0.3))
        events = sample_reset_times(clock, 1.0, np.random.default_rng(0))
        assert np.allclose(events, [0.3, 0.6, 0.9], rtol=1e-12)

    def test_deterministic_epochs_are_multiples_of_the_gap(self):
        # running sums of 1e-3 drift: the 4999th came out 4.999000000000004
        # and the 5000th past 5
        events = sample_reset_times(RenewalClock(DeterministicGaps(1e-3)), 5.0,
                                    np.random.default_rng(0))
        assert len(events) == 5000
        assert np.array_equal(events, 1e-3 * np.arange(1, 5001))
        assert events[-1] == 5.0

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
            _accumulate_gaps(SimpleNamespace(draw=lambda rng, size: np.zeros(size),
                                             mean_gap=1.0),
                             1.0, [np.random.default_rng(0)])

        class ZeroGaps(ExponentialGaps):
            def draw(self, rng, size):
                return np.zeros(size)

        # the marginal chain would never pass t on zero gaps
        spec = ProcessSpec(0.5, 0.0, 0.0, RenewalClock(ZeroGaps(1.0)))
        with pytest.raises(SpecError, match="non-positive gap"):
            marginal_samples(spec, [1.0, 2.0], 10, seed=1)


class TestClockInterface:
    def test_poisson_is_the_power_law_at_exponent_zero(self):
        t = np.array([0.0, 0.3, 2.0, 17.5])
        poisson, power_law = PoissonClock(1.5), NonhomogeneousPoissonClock(1.5, 0.0)
        for method in ("intensity", "cumulative", "inverse_cumulative"):
            for x in (t, 2.0):
                a, b = getattr(poisson, method)(x), getattr(power_law, method)(x)
                assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert np.array_equal(poisson.intensity(t), np.full(4, 1.5))

    @pytest.mark.parametrize("t", [3.0, 1e300, np.array([0.0, 2.5, 1e300])],
                             ids=["scalar", "1e300", "array"])
    def test_rate_zero_has_no_hazard(self, t):
        clock = PoissonClock(0.0)
        assert clock.base_rate == 0.0
        for method in (clock.intensity, clock.cumulative, clock.inverse_cumulative):
            out = method(t)
            assert np.shape(out) == np.shape(t) and np.array_equal(out, np.zeros(np.shape(t)))
        assert likely_resets(clock, 5.0) == 0.0

    def test_power_law_clock_inverts_its_cumulative_intensity(self):
        clock = NonhomogeneousPoissonClock(2.0, -1.5)
        t = np.array([0.5, 4.0, 50.0])
        assert np.allclose(clock.inverse_cumulative(clock.cumulative(t)), t,
                           rtol=1e-12)
        assert likely_resets(clock, 4.0) == clock.cumulative(4.0)

    def test_renewal_clocks_have_no_base_rate(self):
        clock = RenewalClock(DeterministicGaps(0.5))
        assert clock.base_rate is None
        assert likely_resets(clock, 5.0) == 10.0

    @pytest.mark.parametrize("clock, horizon, count", [
        (PoissonClock(2.0), 5.0, 10.0),
        (NonhomogeneousPoissonClock(1.0, 1e9), 1.0, math.inf),
        (RenewalClock(DeterministicGaps(0.5)), 5.0, 10.0),
        (RenewalClock(ParetoGaps(0.5, 1e-4)), 1.0, 100.0),
    ], ids=["poisson", "npp-overflow", "deterministic", "pareto-infinite-mean"])
    def test_likely_resets_sizes_every_clock(self, clock, horizon, count):
        with np.errstate(over="raise"):
            assert likely_resets(clock, horizon) == pytest.approx(count)

    @pytest.mark.parametrize("law, mean_gap", [
        (ExponentialGaps(2.0), 2.0), (DeterministicGaps(0.3), 0.3),
        (ParetoGaps(1.5, 0.2), 0.6), (ParetoGaps(0.8, 0.2), math.inf)])
    def test_gap_law_mean_gap(self, law, mean_gap):
        assert law.mean_gap == pytest.approx(mean_gap)
        assert np.all(law.draw(np.random.default_rng(1), 1000) > 0)

    def test_unknown_clock_is_a_spec_error(self):
        with pytest.raises(SpecError, match="unsupported clock type"):
            sample_reset_times("poisson", 1.0, np.random.default_rng(0))
