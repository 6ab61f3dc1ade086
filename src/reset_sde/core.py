"""Domain types shared by every module: process description, resetting
clocks, trajectories and ensembles, plus validation, unit-diffusivity
rescaling and the wire formats (JSON documents and CSV tables)."""

from dataclasses import dataclass, field
from typing import Union
import math

import numpy as np


class SpecError(ValueError):
    """A process description violates one of its invariants."""


class DomainError(ValueError):
    """An operation was evaluated outside its domain of validity."""


class NumericalError(RuntimeError):
    """A numerical routine left its guaranteed-accuracy regime."""


# ---------------------------------------------------------------------------
# Resetting clocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialGaps:
    """Exponential inter-reset times with the given mean."""
    mean: float


@dataclass(frozen=True)
class DeterministicGaps:
    """Fixed inter-reset time."""
    gap: float


@dataclass(frozen=True)
class ParetoGaps:
    """Pareto inter-reset times: survival (xm/x)**alpha for x >= xm."""
    alpha: float
    xm: float


RenewalLaw = Union[ExponentialGaps, DeterministicGaps, ParetoGaps]


@dataclass(frozen=True)
class PoissonClock:
    """Resets arrive as a Poisson process with constant rate.

    ``rate = 0`` is the degenerate no-resetting clock.
    """
    rate: float


@dataclass(frozen=True)
class NonhomogeneousPoissonClock:
    """Resets arrive with power-law intensity rate*(t+1)**exponent."""
    rate: float
    exponent: float


@dataclass(frozen=True)
class RenewalClock:
    """Resets separated by i.i.d. draws from a pluggable gap law."""
    law: RenewalLaw


ResetClock = Union[PoissonClock, NonhomogeneousPoissonClock, RenewalClock]


# ---------------------------------------------------------------------------
# Process description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """Diffusion with resetting: diffusivity, start point, reset target
    and the clock that triggers resets.  Immutable."""
    diffusivity: float
    x0: float
    x_reset: float
    clock: ResetClock


# Real scalars, Python or numpy; bool is an int subclass and is excluded
# separately.
_REAL_TYPES = (float, int, np.floating, np.integer)


def validate_spec(spec: ProcessSpec) -> ProcessSpec:
    """Return ``spec`` unchanged if all invariants hold, else raise SpecError."""
    d = spec.diffusivity
    if isinstance(d, bool) or not (isinstance(d, _REAL_TYPES) and d > 0):
        raise SpecError("diffusivity must be positive")
    for name in ("x0", "x_reset"):
        value = getattr(spec, name)
        if (isinstance(value, bool) or not isinstance(value, _REAL_TYPES)
                or not math.isfinite(value)):
            raise SpecError(f"{name} must be a finite constant")
    _validate_clock(spec.clock)
    return spec


def _validate_clock(clock: ResetClock) -> None:
    if isinstance(clock, PoissonClock):
        if not (clock.rate >= 0 and math.isfinite(clock.rate)):
            raise SpecError("clock.rate must be nonnegative")
    elif isinstance(clock, NonhomogeneousPoissonClock):
        if not (clock.rate > 0 and math.isfinite(clock.rate)):
            raise SpecError("clock.rate must be positive")
        if not math.isfinite(clock.exponent):
            raise SpecError("clock.exponent must be finite")
    elif isinstance(clock, RenewalClock):
        _validate_renewal_law(clock.law)
    else:
        raise SpecError(f"unsupported clock type: {type(clock).__name__}")


def _validate_renewal_law(law: RenewalLaw) -> None:
    if isinstance(law, ExponentialGaps):
        if not law.mean > 0:
            raise SpecError("renewal_law.mean must be positive")
    elif isinstance(law, DeterministicGaps):
        if not law.gap > 0:
            raise SpecError("renewal_law.gap must be positive")
    elif isinstance(law, ParetoGaps):
        if not law.alpha > 0:
            raise SpecError("renewal_law.alpha must be positive")
        if not law.xm > 0:
            raise SpecError("renewal_law.xm must be positive")
    else:
        raise SpecError(f"unsupported renewal_law: {type(law).__name__}")


# ---------------------------------------------------------------------------
# Unit-diffusivity rescaling
# ---------------------------------------------------------------------------

UNIT_DIFFUSIVITY = 0.5


@dataclass(frozen=True)
class SpaceScaling:
    """Affine map between user coordinates and the unit-diffusivity frame.

    With c = sqrt(2 D), a path at diffusivity D equals c times the unit
    path started at x0/c, so rescaled results map back exactly.
    """
    factor: float

    def to_user(self, x):
        return self.factor * np.asarray(x) if np.ndim(x) else self.factor * x

    def to_unit(self, x):
        return np.asarray(x) / self.factor if np.ndim(x) else x / self.factor


def rescale_to_unit(spec: ProcessSpec):
    """Return ``(spec at D = 1/2, SpaceScaling back to user coordinates)``."""
    validate_spec(spec)
    c = math.sqrt(2.0 * spec.diffusivity)
    scaled = ProcessSpec(
        diffusivity=UNIT_DIFFUSIVITY,
        x0=spec.x0 / c,
        x_reset=spec.x_reset / c,
        clock=spec.clock,
    )
    return scaled, SpaceScaling(factor=c)


# ---------------------------------------------------------------------------
# Trajectories and ensembles
# ---------------------------------------------------------------------------

def time_atol(horizon) -> float:
    """Distance within which two times over [0, horizon] count as equal.

    One tolerance serves the Euler lattice check and ``Trajectory.at``, so
    a grid accepted before a run is also readable after it.
    """
    return 1e-9 * max(1.0, horizon)


@dataclass(frozen=True)
class Trajectory:
    """One realisation: time grid, positions, and the reset epochs.

    ``times`` is strictly increasing with ``times[0] == 0`` and
    ``positions[0] == x0``; ``reset_times`` need not lie on the grid.
    """
    times: np.ndarray
    positions: np.ndarray
    reset_times: np.ndarray

    def at(self, grid) -> np.ndarray:
        """Positions at the given times, each within ``time_atol`` of a
        time on the trajectory grid; the nearest such time is used."""
        grid = np.asarray(grid, dtype=float)
        times = self.times
        right = np.minimum(np.searchsorted(times, grid), len(times) - 1)
        left = np.maximum(right - 1, 0)
        idx = np.where(np.abs(times[left] - grid) < np.abs(times[right] - grid),
                       left, right)
        if not np.all(np.abs(times[idx] - grid) <= time_atol(times[-1])):
            raise DomainError("requested times are not on the trajectory grid")
        return self.positions[idx]


@dataclass(frozen=True)
class Ensemble:
    """A reproducible collection of trajectories.

    Rerunning with the same (spec, scheme, seed, n) gives bit-identical
    trajectories regardless of thread count.  ``seed`` is the entropy of
    the root ``SeedSequence``, also when the run drew it from the OS.
    """
    spec: ProcessSpec
    scheme: object
    seed: int
    trajectories: list
    grid: np.ndarray = field(default=None)

    def __len__(self):
        return len(self.trajectories)

    def positions_at(self, grid=None) -> np.ndarray:
        """(n_trajectories, n_times) matrix sampled on a common grid."""
        if grid is None:
            grid = self.grid
        if grid is None:
            raise ValueError("ensemble has no common grid; pass one explicitly")
        return np.stack([tr.at(grid) for tr in self.trajectories])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

_RENEWAL_LAW_NAMES = {
    ExponentialGaps: "exponential",
    DeterministicGaps: "deterministic",
    ParetoGaps: "pareto",
}


def clock_to_json(clock: ResetClock) -> dict:
    if isinstance(clock, PoissonClock):
        return {"type": "poisson", "r": clock.rate}
    if isinstance(clock, NonhomogeneousPoissonClock):
        return {"type": "npp", "r": clock.rate, "p": clock.exponent}
    if isinstance(clock, RenewalClock):
        law = clock.law
        doc = {"name": _RENEWAL_LAW_NAMES[type(law)]}
        doc.update({k: getattr(law, k) for k in law.__dataclass_fields__})
        return {"type": "renewal", "renewal_law": doc}
    raise SpecError(f"unsupported clock type: {type(clock).__name__}")


def clock_from_json(doc: dict) -> ResetClock:
    kind = doc.get("type")
    if kind == "poisson":
        return PoissonClock(rate=float(doc["r"]))
    if kind == "npp":
        return NonhomogeneousPoissonClock(rate=float(doc["r"]),
                                          exponent=float(doc.get("p", 0.0)))
    if kind == "renewal":
        law_doc = doc.get("renewal_law")
        if not isinstance(law_doc, dict):
            raise SpecError("clock.renewal_law must be an object")
        name = law_doc.get("name")
        try:
            if name == "exponential":
                return RenewalClock(ExponentialGaps(mean=float(law_doc["mean"])))
            if name == "deterministic":
                return RenewalClock(DeterministicGaps(gap=float(law_doc["gap"])))
            if name == "pareto":
                return RenewalClock(ParetoGaps(alpha=float(law_doc["alpha"]),
                                               xm=float(law_doc["xm"])))
        except KeyError as exc:
            raise SpecError(f"clock.renewal_law is missing field {exc}") from None
        raise SpecError(f"unknown clock.renewal_law.name: {name!r}")
    raise SpecError(f"unknown clock.type: {kind!r}")


def spec_to_json(spec: ProcessSpec) -> dict:
    """ProcessSpec as a plain JSON document (CLI wire format)."""
    return {
        "diffusivity": spec.diffusivity,
        "x0": spec.x0,
        "xR": spec.x_reset,
        "clock": clock_to_json(spec.clock),
    }


def spec_from_json(doc: dict) -> ProcessSpec:
    """Parse and validate the CLI wire format."""
    try:
        spec = ProcessSpec(
            diffusivity=float(doc["diffusivity"]),
            x0=float(doc["x0"]),
            x_reset=float(doc["xR"]),
            clock=clock_from_json(doc["clock"]),
        )
    except KeyError as exc:
        raise SpecError(f"spec document is missing field {exc}") from None
    return validate_spec(spec)


# ---------------------------------------------------------------------------
# CSV wire format
# ---------------------------------------------------------------------------

def _cells(col):
    """``str`` of integers, ``repr`` of floats, and strings as they are: the
    cells of a column, or the one cell of a scalar."""
    if isinstance(col, list):
        return col
    col = np.asarray(col)
    fmt = str if col.dtype.kind in "iu" else repr
    return fmt(col.item()) if col.ndim == 0 else map(fmt, col.tolist())


def write_table(path, header, blocks) -> None:
    """Write a CSV table: the header row, then the rows of every block.

    A block is a tuple of columns: first any scalars, which repeat on every
    row of the block, then one or more equal-length columns, each a numpy
    array or a list of cells already formatted as strings.  Integers are
    written as ``str(int)`` and floats as ``repr(float)``, the shortest
    string that round-trips; lines end in CRLF, as in the csv module's
    default dialect.  A block's scalars are formatted once, into the row
    separator.  Blocks are formatted one at a time, so memory stays bounded
    by the largest block, not the table.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            lead = 0
            while lead < len(block) and not isinstance(block[lead], (list, np.ndarray)):
                lead += 1
            columns = block[lead:]
            if len({len(col) for col in columns}) != 1:
                raise ValueError("a block needs columns of equal length after its scalars")
            if not len(columns[0]):
                continue
            prefix = "".join(_cells(col) + "," for col in block[:lead])
            cells = [_cells(col) for col in columns]
            rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
            fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n")
