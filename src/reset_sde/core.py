"""Domain types shared by every module: process description (its clocks
re-exported from :mod:`reset_sde.clocks`), trajectories and ensembles,
plus validation, unit-diffusivity rescaling and the wire formats."""

from contextlib import contextmanager
from dataclasses import dataclass, field
import math

import numpy as np

from .clocks import (  # noqa: F401  (re-exported)
    DeterministicGaps,
    ExponentialGaps,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    RenewalClock,
    RenewalLaw,
    ResetClock,
    clock_from_json,
    validate_clock,
)
from .errors import DomainError, NumericalError, SpecError, as_number  # noqa: F401


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
    validate_clock(spec.clock)
    return spec


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
    trajectories, however the indices are split between processes.
    ``seed`` is the entropy of the root ``SeedSequence``, also when the
    run drew it from the OS.
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
            raise SpecError("ensemble has no common grid; pass one explicitly")
        return np.stack([tr.at(grid) for tr in self.trajectories])


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def spec_to_json(spec: ProcessSpec) -> dict:
    """ProcessSpec as a plain JSON document (CLI wire format)."""
    return {
        "diffusivity": spec.diffusivity,
        "x0": spec.x0,
        "xR": spec.x_reset,
        "clock": spec.clock.to_json(),
    }


def spec_from_json(doc: dict) -> ProcessSpec:
    """Parse and validate the CLI wire format."""
    try:
        spec = ProcessSpec(
            diffusivity=as_number(doc["diffusivity"], "diffusivity"),
            x0=as_number(doc["x0"], "x0"),
            x_reset=as_number(doc["xR"], "xR"),
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
    with open_table(path, header) as write:
        for block in blocks:
            write(block)


@contextmanager
def open_table(path, header):
    """Write the header row of a CSV table and give a function that
    writes one block of rows (see ``write_table``), so that several
    tables can be written side by side."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")

        def write(block):
            lead = 0
            while lead < len(block) and not isinstance(block[lead], (list, np.ndarray)):
                lead += 1
            columns = block[lead:]
            if len({len(col) for col in columns}) != 1:
                raise SpecError("a block needs columns of equal length after its scalars")
            if not len(columns[0]):
                return
            prefix = "".join(_cells(col) + "," for col in block[:lead])
            cells = [_cells(col) for col in columns]
            rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
            fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n")

        yield write
