"""Resetting clocks: everything that depends on the clock kind, defined once.

The clock enters the dynamics only through its counting process N_t, in
the jump term -(X_{t-} - x_R) dN_t, so every clock answers the same
questions: ``validate()``, ``to_json()``, ``base_rate`` (None for renewal
clocks) and ``sample_events(horizon, rngs)``, each generator's epochs in
(0, horizon], flat in generator order, with their counts.
The two Poisson clocks are one power-law family, intensity
rate*(t+1)**exponent (homogeneous: exponent 0, the one admitting rate 0),
and also give ``intensity`` r(t), ``cumulative`` R(t) and
``inverse_cumulative`` R^-1(u): the one place these closed forms are
written, for the samplers and the power-law closed forms of ``analytic``.
Renewal clocks accumulate i.i.d. gaps from a law with ``draw(rng, size)``
and ``mean_gap``."""

from dataclasses import dataclass, fields
import math
from typing import Union

import numpy as np

from .errors import DomainError, SpecError, as_number, check_positive


# ---------------------------------------------------------------------------
# Renewal gap laws
# ---------------------------------------------------------------------------

class _GapLaw:
    """A law of i.i.d. inter-reset times, every parameter positive."""

    def validate(self) -> None:
        for f in fields(self):
            check_positive(getattr(self, f.name), f"renewal_law.{f.name}")

    def to_json(self) -> dict:
        return {"name": self.name, **{f.name: getattr(self, f.name) for f in fields(self)}}


@dataclass(frozen=True)
class ExponentialGaps(_GapLaw):
    """Exponential inter-reset times with the given mean."""
    mean: float
    name = "exponential"
    mean_gap = property(lambda self: self.mean)

    def draw(self, rng, size):
        return rng.exponential(self.mean, size)


@dataclass(frozen=True)
class DeterministicGaps(_GapLaw):
    """Fixed inter-reset time: the epochs are k * gap, k = 1, 2, ..."""
    gap: float
    name = "deterministic"
    mean_gap = property(lambda self: self.gap)

    def draw(self, rng, size):
        return np.full(size, self.gap)

    def count(self, t) -> int:
        """The number of epochs k * gap in (0, t]."""
        k = math.floor(t / self.gap)
        return k + ((k + 1) * self.gap <= t) - (k * self.gap > t)


@dataclass(frozen=True)
class ParetoGaps(_GapLaw):
    """Pareto inter-reset times: survival (xm/x)**alpha for x >= xm."""
    alpha: float
    xm: float
    name = "pareto"

    def draw(self, rng, size):
        # a tiny alpha overflows to inf, the gap's limit: past any horizon
        with np.errstate(over="ignore"):
            return self.xm * rng.random(size) ** (-1.0 / self.alpha)

    @property
    def mean_gap(self):
        return self.xm * self.alpha / (self.alpha - 1.0) if self.alpha > 1.0 else math.inf


RenewalLaw = Union[ExponentialGaps, DeterministicGaps, ParetoGaps]
_GAP_LAWS = {law.name: law for law in (ExponentialGaps, DeterministicGaps, ParetoGaps)}


def _positive(gaps):
    """``gaps``, refused unless every one is positive."""
    if (gaps <= 0).any():
        raise SpecError("renewal law produced a non-positive gap")
    return gaps


def _draw_gaps(law, rng, size):
    """``law.draw(rng, size)``, refused unless every gap is positive."""
    return _positive(law.draw(rng, size))


def _accumulate_gaps(law, horizon, rngs):
    """Cumulative sums of positive gaps drawn from ``law``, truncated at
    ``horizon``: one row per generator, returned flat in generator order
    with each row's count.

    Each generator draws the chunks a row of its own would: a first one
    sized by the mean gap, then, while the row's total is at or below
    ``horizon``, one of int(1.5 * width) + 16 gaps after a chunk of
    ``width``, its cumulative sums offset by that total.  A chunk's rows
    are drawn one generator at a time and summed together."""
    mean_gap = law.mean_gap
    width = max(16, int(1.2 * horizon / mean_gap) + 8) if math.isfinite(mean_gap) else 16
    rows = np.arange(len(rngs))
    rounds = []
    while True:
        gaps = np.empty((len(rows), width))
        for k, row in enumerate(rows.tolist()):
            gaps[k] = law.draw(rngs[row], width)
        times = _positive(gaps).cumsum(axis=1)
        if rounds:
            times += total[:, None]
        kept = times <= horizon
        counts = kept.sum(axis=1)
        rounds.append((rows, times[kept], counts))
        more = (counts == width).nonzero()[0]  # rows still at or below horizon
        if not len(more):
            break
        rows, total = rows[more], times[more, -1]
        width = int(1.5 * width) + 16
    if len(rounds) == 1:
        return rounds[0][1:]
    # round by round, then row by row: a stable sort by row groups the rows
    rows, events, counts = map(np.concatenate, zip(*rounds))
    owner = rows.repeat(counts)
    return events[np.argsort(owner, kind="stable")], np.bincount(owner, minlength=len(rngs))


def _none(rngs):
    """No epochs for any of ``rngs``."""
    return np.empty(0), np.zeros(len(rngs), dtype=int)


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

class _PowerLawClock:
    """Poisson resetting with intensity r(t) = rate*(t+1)**exponent, its
    integral R(t) and R's inverse, in closed form.  Without resetting r
    and R are 0, and so is R^-1 on R's range {0}."""

    base_rate = property(lambda self: self.rate)

    def intensity(self, t):
        """r(t), the reset rate at time t."""
        return _scalar(self.rate * np.power(np.asarray(t, dtype=float) + 1.0, self.exponent))

    def cumulative(self, t):
        """R(t), the mean number of resets in [0, t]:
        rate/(p+1) * ((t+1)**(p+1) - 1), and rate * log(t+1) at p = -1."""
        t = _nonnegative(t, "t")
        p = self.exponent
        if not self.rate:
            out = np.zeros(t.shape)
        elif p == -1.0:
            out = self.rate * np.log1p(t)
        else:
            out = (self.rate / (p + 1.0)) * (np.power(t + 1.0, p + 1.0) - 1.0)
        return _scalar(out)

    def inverse_cumulative(self, u):
        """R^-1(u), the time at which R reaches u."""
        u = _nonnegative(u, "u")
        p = self.exponent
        if not self.rate:
            out = np.zeros(u.shape)
        elif p == -1.0:
            out = np.expm1(u / self.rate)
        else:
            out = np.power((p + 1.0) * u / self.rate + 1.0, 1.0 / (p + 1.0)) - 1.0
        return _scalar(out)


def _nonnegative(x, name):
    """``x`` as a float array, refused with DomainError if any value is negative."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError(f"{name} must be nonnegative")
    return x


def _scalar(out):
    """``out``, a Python float when 0-d."""
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PoissonClock(_PowerLawClock):
    """Resets arrive as a Poisson process with constant rate.

    ``rate = 0`` is the degenerate no-resetting clock.
    """
    rate: float
    exponent = 0.0

    def validate(self) -> None:
        check_positive(self.rate, "clock.rate", zero=True)

    def to_json(self) -> dict:
        return {"type": "poisson", "r": self.rate}

    def sample_events(self, horizon, rngs):
        if self.rate == 0.0:
            return _none(rngs)
        return _accumulate_gaps(ExponentialGaps(1.0 / self.rate), horizon, rngs)


@dataclass(frozen=True)
class NonhomogeneousPoissonClock(_PowerLawClock):
    """Resets arrive with power-law intensity rate*(t+1)**exponent."""
    rate: float
    exponent: float

    def validate(self) -> None:
        check_positive(self.rate, "clock.rate")
        if not math.isfinite(self.exponent):
            raise SpecError("clock.exponent must be finite")

    def to_json(self) -> dict:
        return {"type": "npp", "r": self.rate, "p": self.exponent}

    def sample_events(self, horizon, rngs):
        """Unit-rate event streams up to R(horizon), mapped through R^-1:
        exact, unlike thinning, which has no a.s. bound on proposals."""
        budget = self.cumulative(horizon)
        if not budget > 0:
            return _none(rngs)
        if budget == math.inf:
            raise SpecError(f"R(horizon) overflows a double at horizon {horizon:g}")
        events, counts = _accumulate_gaps(ExponentialGaps(1.0), budget, rngs)
        return self.inverse_cumulative(events), counts


# The two names perfbench/tracing.py reads for its count of expected
# resets; they leave with that tracer (ROADMAP item 1).
IntensityFunction = NonhomogeneousPoissonClock
cumulative_intensity = _PowerLawClock.cumulative


@dataclass(frozen=True)
class RenewalClock:
    """Resets separated by i.i.d. draws from a pluggable gap law."""
    law: RenewalLaw
    base_rate = None

    def validate(self) -> None:
        if not isinstance(self.law, _GapLaw):
            raise SpecError(f"unsupported renewal_law: {type(self.law).__name__}")
        self.law.validate()

    def to_json(self) -> dict:
        return {"type": "renewal", "renewal_law": self.law.to_json()}

    def sample_events(self, horizon, rngs):
        if isinstance(self.law, DeterministicGaps):  # products, so none drifts
            count = self.law.count(horizon)
            epochs = self.law.gap * np.arange(1, count + 1)
            return np.tile(epochs, len(rngs)), np.full(len(rngs), count)
        return _accumulate_gaps(self.law, horizon, rngs)


ResetClock = Union[PoissonClock, NonhomogeneousPoissonClock, RenewalClock]


def validate_clock(clock) -> None:
    """Raise SpecError unless ``clock`` is a clock whose invariants hold."""
    if not isinstance(clock, (_PowerLawClock, RenewalClock)):
        raise SpecError(f"unsupported clock type: {type(clock).__name__}")
    clock.validate()


def clock_from_json(doc: dict) -> ResetClock:
    """Parse a clock document; a field its type does not have is an error."""
    if not isinstance(doc, dict):
        raise SpecError("clock must be an object")
    kind = doc.get("type")
    try:
        if kind == "poisson":
            _only(doc, ["type", "r"], "a poisson clock")
            return PoissonClock(rate=as_number(doc["r"], "clock.r"))
        if kind == "npp":
            _only(doc, ["type", "r", "p"], "an npp clock")
            return NonhomogeneousPoissonClock(
                rate=as_number(doc["r"], "clock.r"),
                exponent=as_number(doc.get("p", 0.0), "clock.p"))
        if kind == "renewal":
            _only(doc, ["type", "renewal_law"], "a renewal clock")
            return RenewalClock(_law_from_json(doc.get("renewal_law")))
    except KeyError as exc:
        raise SpecError(f"clock is missing field {exc}") from None
    raise SpecError(f"unknown clock.type: {kind!r}")


def _law_from_json(doc) -> RenewalLaw:
    if not isinstance(doc, dict):
        raise SpecError("clock.renewal_law must be an object")
    name = doc.get("name")
    law = _GAP_LAWS.get(name)
    if law is None:
        raise SpecError(f"unknown clock.renewal_law.name: {name!r}")
    keys = [f.name for f in fields(law)]
    _only(doc, ["name", *keys], f"a {name} renewal_law")
    try:
        return law(*(as_number(doc[key], f"clock.renewal_law.{key}") for key in keys))
    except KeyError as exc:
        raise SpecError(f"clock.renewal_law is missing field {exc}") from None


def _only(doc, keys, what):
    other = sorted(set(doc) - set(keys))
    if other:
        raise SpecError(f"{what} has no field {', '.join(map(repr, other))}")


def likely_resets(clock, horizon) -> float:
    """About how many resets ``clock`` makes in [0, horizon], for sizing a
    run: R(horizon) for Poisson and power-law clocks (inf where it
    overflows), horizon over the mean gap for renewal clocks, and
    (horizon / xm)**alpha for Pareto gaps of infinite mean, whose count
    grows as that power."""
    if clock.base_rate is not None:
        with np.errstate(over="ignore"):
            return clock.cumulative(horizon)
    law = clock.law
    if math.isfinite(law.mean_gap):
        return horizon / law.mean_gap
    return (horizon / law.xm) ** law.alpha


def sample_reset_times(clock, horizon, rng) -> np.ndarray:
    """Event times of ``clock`` in (0, horizon], strictly increasing.

    The block of one of ``clock.sample_events``: an ensemble block samples
    every trajectory's epochs in one call, and each generator draws there
    what it draws here.

    Parameters
    ----------
    clock : PoissonClock | NonhomogeneousPoissonClock | RenewalClock
    horizon : float
        Positive, finite end of the sampling window.
    rng : numpy.random.Generator
        Private stream; the same state always yields the same events.
    """
    check_positive(horizon, "horizon")
    validate_clock(clock)
    return clock.sample_events(horizon, [rng])[0]
