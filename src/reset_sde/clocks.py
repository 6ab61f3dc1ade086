"""Reset-event generation.

Homogeneous Poisson clocks accumulate exponential gaps.  Power-law
nonhomogeneous Poisson clocks are sampled exactly by mapping a
unit-rate event stream through the inverse cumulative intensity (no
thinning, which has no a.s. bound on proposals for growing intensity).
Renewal clocks accumulate i.i.d. gaps from a pluggable law.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import (
    DeterministicGaps,
    DomainError,
    ExponentialGaps,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    RenewalClock,
    SpecError,
    _validate_renewal_law,
)


@dataclass(frozen=True)
class IntensityFunction:
    """Power-law event intensity rate*(t+1)**exponent for t >= 0."""
    rate: float
    exponent: float

    def __post_init__(self):
        if not self.rate > 0:
            raise SpecError("intensity rate must be positive")

    def __call__(self, t):
        return self.rate * np.power(np.asarray(t, dtype=float) + 1.0, self.exponent)


def cumulative_intensity(f: IntensityFunction, t):
    """Mean number of events in [0, t].

    Closed form: rate/(p+1) * ((t+1)**(p+1) - 1) for p != -1 and
    rate * log(t+1) for p = -1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("t must be nonnegative")
    p = f.exponent
    if p == -1.0:
        out = f.rate * np.log1p(t)
    else:
        out = (f.rate / (p + 1.0)) * (np.power(t + 1.0, p + 1.0) - 1.0)
    return float(out) if out.ndim == 0 else out


def inverse_cumulative_intensity(f: IntensityFunction, u):
    """Time t at which the cumulative intensity reaches u."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("u must be nonnegative")
    p = f.exponent
    if p == -1.0:
        out = np.expm1(u / f.rate)
    else:
        out = np.power((p + 1.0) * u / f.rate + 1.0, 1.0 / (p + 1.0)) - 1.0
    return float(out) if out.ndim == 0 else out


def expected_resets(clock, horizon):
    """Mean number of resets in [0, horizon], R(horizon), for Poisson and
    power-law clocks; None for renewal clocks, which have no closed form."""
    if isinstance(clock, PoissonClock):
        return clock.rate * horizon
    if isinstance(clock, NonhomogeneousPoissonClock):
        return cumulative_intensity(IntensityFunction(clock.rate, clock.exponent), horizon)
    return None


def _gap_sampler(law):
    _validate_renewal_law(law)
    if isinstance(law, ExponentialGaps):
        return lambda rng, size: rng.exponential(law.mean, size)
    if isinstance(law, DeterministicGaps):
        return lambda rng, size: np.full(size, law.gap)
    if isinstance(law, ParetoGaps):
        return lambda rng, size: law.xm * rng.random(size) ** (-1.0 / law.alpha)
    raise SpecError(f"unsupported renewal law: {type(law).__name__}")


def _accumulate_gaps(draw, horizon, rng, mean_gap):
    """Cumulative sums of positive gaps, truncated at ``horizon``."""
    block = max(16, int(1.2 * horizon / mean_gap) + 8) if math.isfinite(mean_gap) else 16
    total = 0.0
    chunks = []
    while True:
        gaps = draw(rng, block)
        if np.any(gaps <= 0):
            raise SpecError("renewal law produced a non-positive gap")
        times = total + np.cumsum(gaps)
        chunks.append(times)
        total = times[-1]
        if total > horizon:
            break
        block = int(1.5 * block) + 16
    events = np.concatenate(chunks)
    return events[events <= horizon]


def sample_reset_times(clock, horizon, rng) -> np.ndarray:
    """Event times of ``clock`` in (0, horizon], strictly increasing.

    Parameters
    ----------
    clock : PoissonClock | NonhomogeneousPoissonClock | RenewalClock
    horizon : float
        Positive end of the sampling window.
    rng : numpy.random.Generator
        Private stream; the same state always yields the same events.
    """
    if not horizon > 0:
        raise SpecError("horizon must be positive")
    if isinstance(clock, PoissonClock):
        if clock.rate == 0.0:
            return np.empty(0)
        draw = lambda rng, size: rng.exponential(1.0 / clock.rate, size)
        return _accumulate_gaps(draw, horizon, rng, 1.0 / clock.rate)
    if isinstance(clock, NonhomogeneousPoissonClock):
        f = IntensityFunction(clock.rate, clock.exponent)
        budget = cumulative_intensity(f, horizon)
        draw = lambda rng, size: rng.exponential(1.0, size)
        unit_events = _accumulate_gaps(draw, budget, rng, 1.0) if budget > 0 else np.empty(0)
        return inverse_cumulative_intensity(f, unit_events) if len(unit_events) else np.empty(0)
    if isinstance(clock, RenewalClock):
        draw = _gap_sampler(clock.law)
        mean_gap = _renewal_mean_gap(clock.law)
        return _accumulate_gaps(draw, horizon, rng, mean_gap)
    raise SpecError(f"unsupported clock type: {type(clock).__name__}")


def _renewal_mean_gap(law):
    if isinstance(law, ExponentialGaps):
        return law.mean
    if isinstance(law, DeterministicGaps):
        return law.gap
    if isinstance(law, ParetoGaps):
        if law.alpha > 1.0:
            return law.xm * law.alpha / (law.alpha - 1.0)
        return math.inf
    return math.inf
