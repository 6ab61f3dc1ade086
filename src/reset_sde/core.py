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
from .errors import (  # noqa: F401  (re-exported)
    _REALS, DomainError, NumericalError, SpecError, as_number, check_count, check_positive)


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


def validate_spec(spec: ProcessSpec) -> ProcessSpec:
    """Return ``spec`` unchanged if all invariants hold, else raise SpecError."""
    check_positive(spec.diffusivity, "diffusivity")
    for name in ("x0", "x_reset"):
        value = getattr(spec, name)
        if (isinstance(value, bool) or not isinstance(value, _REALS)
                or not math.isfinite(value)):
            raise SpecError(f"{name} must be a finite constant")
    validate_clock(spec.clock)
    return spec


# ---------------------------------------------------------------------------
# Unit-diffusivity rescaling
# ---------------------------------------------------------------------------

UNIT_DIFFUSIVITY = 0.5


def rescale_to_unit(spec: ProcessSpec):
    """Return ``(spec at D = 1/2, c)`` with c = sqrt(2 D): a path at
    diffusivity D equals c times the unit path started at x0/c, so
    rescaled results map back exactly."""
    validate_spec(spec)
    c = math.sqrt(2.0 * spec.diffusivity)
    scaled = ProcessSpec(
        diffusivity=UNIT_DIFFUSIVITY,
        x0=spec.x0 / c,
        x_reset=spec.x_reset / c,
        clock=spec.clock,
    )
    return scaled, c


# ---------------------------------------------------------------------------
# Size budget and fixed chunks
# ---------------------------------------------------------------------------

# The most values one call may hold, 8 bytes each: one an element of its
# longest arrays, times the factor stated at the call where one holds more.
MAX_VALUES = 10 ** 8


def check_size(values, what, remedy) -> None:
    """Refuse with a SpecError, before any array is made, a call that would
    hold more than ``MAX_VALUES`` values, naming ``what`` and the ``remedy``."""
    if not values <= MAX_VALUES:
        raise SpecError(f"{what} would hold about {values:.3g} values, above the "
                        f"budget of {MAX_VALUES:.0e}; {remedy}")


# The marginal samplers and the estimators over their samples work this
# many samples at a time, so their temporaries are a few chunks, whatever
# n is.
_CHUNK = 2 ** 14


def _chunks(n):
    """Consecutive slices of range(n), ``_CHUNK`` long but the last."""
    return (slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


def _distinct(values) -> np.ndarray:
    """The sorted distinct values of a float array without NaN: np.unique's
    sort and neighbour mask, without its ``np.ma.is_masked`` call, which
    loads numpy.ma."""
    values = np.sort(values, axis=None)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    """The cells of a column as a fixed-width bytes array: ``%d`` of
    integers, as wide as the widest (its least or its greatest value),
    ``repr`` of floats (``S24``, see ``_float_cells``), bytes cells as they
    are."""
    col = np.asarray(col)
    if col.dtype.kind in "iu":
        ends = (col.min(), col.max()) if col.size else (0,)
        return col.astype(f"S{max(len(str(int(v))) for v in ends)}")
    return col if col.dtype.kind == "S" else _float_cells(col)


def _float_cells(col):
    """``repr(float(v)).encode()`` of every element of a float array,
    byte for byte, as an ``S24`` array; see ``_floatcells``, imported on
    first use so that importing the package does not compile it."""
    from ._floatcells import float_cells
    return float_cells(col)


# Rows formatted and written at a time, which bounds the byte matrix of
# ``_rows``.
_SLICE_ROWS = 4096


def _rows(cells):
    """The CSV lines of equal-length cell columns, as the bytes of a
    ``uint8`` array that a file's ``write`` takes as it is: one matrix, a
    line a row, less the NUL padding of the fixed widths (no cell holds a
    NUL, so dropping it is exact)."""
    m = np.full((len(cells[0]), sum(col.itemsize + 1 for col in cells) + 1), ord(","), np.uint8)
    at = 0
    for col in cells:
        m[:, at:at + col.itemsize] = col.view((np.uint8, col.itemsize))
        at += col.itemsize + 1
    m[:, -2:] = tuple(b"\r\n")
    return m[m != 0]


def write_table(path, header, blocks) -> None:
    """Write a CSV table: the header row, then the rows of every block.

    A block is a tuple of equal-length columns, each a numpy array (or
    anything ``np.asarray`` takes) of integers, floats or bytes cells
    already formatted.  Integers are written as ``str(int)`` and floats as
    ``repr(float)``, the shortest string that round-trips; lines end in
    CRLF, as in the csv module's default dialect.  Each block is formatted
    and written a slice of at most ``_SLICE_ROWS`` rows at a time (see
    ``_rows``), so the cells held at once are one slice's, however long
    the block or the table.
    """
    with open_table(path, header) as write:
        for block in blocks:
            write(block)


@contextmanager
def open_table(path, header):
    """Write the header row of a CSV table and give a function that
    writes one block, a tuple of equal-length columns (see
    ``write_table``), so that several tables can be written side by side."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")

        def write(block):
            n = len(block[0])
            if any(len(col) != n for col in block):
                raise SpecError("a block needs columns of equal length")
            for lo in range(0, n, _SLICE_ROWS):
                fh.write(_rows([_cells(col[lo:lo + _SLICE_ROWS]) for col in block]))

        yield write
