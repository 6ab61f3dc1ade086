"""Finite-difference solvers for the density of resetting diffusion, and
the discrete generator / adjoint pair.

The density obeys a diffusion equation with a sink -r p and a point
source at the reset position.  Two published source forms are provided:
a plain Dirac mass of rate r, and the stationary-density-weighted form
whose coefficient collapses to the same rate once evaluated at the reset
point; the solvers differ only in how that coefficient is computed.

Discretisation: flux-form central differences (reflecting ends carry a
one-sided stencil so the discrete mass h*sum(p) is conserved exactly),
Crank-Nicolson in time with the sink split symmetrically and the source
explicit, which keeps the system tridiagonal and preserves unit mass to
rounding.  The first step is replaced by four backward-Euler half-steps
to damp the oscillations Crank-Nicolson leaves on a point-mass initial
condition.  Dirac deltas are deposited on the two nodes bracketing the
target with linear weights, the same weights used to read a function at
an off-node point, which is what makes the generator and adjoint exact
transposes of one another.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import solve_banded

from .core import (
    DomainError,
    NumericalError,
    ProcessSpec,
    SpecError,
)
from .analytic import DensityCurve, _poisson, spatial_scale

MASS_TOLERANCE = 1e-3
BOUNDARY_MARGIN_SCALES = 5.0
DEFAULT_PAD_SCALES = 8.0
# Grids above this many nodes are refused before any array is allocated:
# each costs a handful of float arrays of its length per step.
MAX_NODES = 10 ** 6


class MassConservationError(NumericalError):
    """Discrete mass drifted beyond tolerance (boundary too close or
    grid too coarse)."""


@dataclass(frozen=True)
class FpeGrid:
    """Uniform solver grid.  dt <= h is required for accuracy (the
    scheme itself is unconditionally stable)."""
    x_lo: float
    x_hi: float
    h: float
    dt: float
    boundary: str = "reflecting"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_lo, self.x_hi, self.h, self.dt))):
            raise SpecError("x_lo, x_hi, h and dt must be finite")
        if not self.h > 0 or not self.dt > 0:
            raise SpecError("h and dt must be positive")
        if self.x_hi <= self.x_lo:
            raise SpecError("x_hi must exceed x_lo")
        if self.dt > self.h * (1 + 1e-12):
            raise SpecError("dt must not exceed h")
        if self.boundary not in ("reflecting", "absorbing"):
            raise SpecError("boundary must be 'reflecting' or 'absorbing'")
        n = (self.x_hi - self.x_lo) / self.h
        if not n < MAX_NODES:
            raise SpecError(f"the grid would have {n + 1:.3g} nodes, above the "
                            f"{MAX_NODES} allowed; raise h or narrow the range")
        if abs(n - round(n)) > 1e-8:
            raise SpecError("(x_hi - x_lo) must be a multiple of h")

    @property
    def xs(self) -> np.ndarray:
        n = int(round((self.x_hi - self.x_lo) / self.h))
        return self.x_lo + self.h * np.arange(n + 1)


def default_grid(spec: ProcessSpec, t_final: float, h: float = 1e-2,
                 dt: float = None, boundary: str = "reflecting") -> FpeGrid:
    """Grid padded by 8 standard scales beyond the start and reset
    points; the stationary tails decay fast enough that the truncation
    error is negligible at that range.  ``t_final=None`` sizes the grid
    for the stationary law."""
    if not 0 < h < math.inf:
        raise SpecError("h must be positive and finite")
    pad = DEFAULT_PAD_SCALES * max(spatial_scale(spec, t_final or 0.0), 10 * h)
    lo = min(spec.x0, spec.x_reset) - pad
    hi = max(spec.x0, spec.x_reset) + pad
    lo = math.floor(lo / h) * h
    hi = math.ceil(hi / h) * h
    return FpeGrid(x_lo=lo, x_hi=hi, h=h, dt=dt if dt is not None else h / 10.0,
                   boundary=boundary)


def _check_margins(spec, grid, t_final):
    margin = BOUNDARY_MARGIN_SCALES * spatial_scale(spec, t_final or 0.0)
    for name in ("x0", "x_reset"):
        x = getattr(spec, name)
        if not (grid.x_lo < x < grid.x_hi):
            raise SpecError(f"{name} = {x:g} is outside the grid")
        if grid.boundary == "reflecting" and (
                x - grid.x_lo < margin or grid.x_hi - x < margin):
            raise SpecError(
                f"{name} = {x:g} is within {BOUNDARY_MARGIN_SCALES:g} standard "
                "scales of the boundary at the final time; widen the grid")


def _delta_weights(xs, h, x_star):
    """Unit point mass split linearly over the two bracketing nodes."""
    w = np.zeros(len(xs))
    pos = (x_star - xs[0]) / h
    i = min(int(math.floor(pos)), len(xs) - 2)
    frac = pos - i
    w[i] = 1.0 - frac
    w[i + 1] = frac
    return w

def _second_difference_bands(n, h, boundary):
    """Tridiagonal bands of the discrete second derivative.

    Reflecting: flux form with zero end flux (rows sum to zero, matrix
    symmetric).  Absorbing: value held at zero beyond the ends.
    """
    inv_h2 = 1.0 / (h * h)
    lower = np.full(n, inv_h2)
    upper = np.full(n, inv_h2)
    main = np.full(n, -2.0 * inv_h2)
    if boundary == "reflecting":
        main[0] = -inv_h2
        main[-1] = -inv_h2
    return lower, main, upper


def _apply_tridiag(lower, main, upper, p):
    out = main * p
    out[1:] += lower[1:] * p[:-1]
    out[:-1] += upper[:-1] * p[1:]
    return out


def _solve_transient(spec, grid, t_final, weighted):
    rate, *_ = _poisson(spec, t_final)
    source_coeff = rate
    if weighted and rate > 0:
        lam = math.sqrt(rate / spec.diffusivity)
        density_at_reset = lam / 2.0
        source_coeff = 2.0 * spec.diffusivity * lam * density_at_reset
    _check_margins(spec, grid, t_final)
    xs = grid.xs
    n = len(xs)
    h, dt = grid.h, grid.dt
    diff = spec.diffusivity
    lower, main, upper = _second_difference_bands(n, h, grid.boundary)
    source = source_coeff * _delta_weights(xs, h, spec.x_reset) / h
    p = _delta_weights(xs, h, spec.x0) / h

    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps

    def banded_lhs(theta, step):
        ab = np.zeros((3, n))
        ab[0, 1:] = -theta * step * diff * upper[:-1]
        ab[1] = 1.0 + theta * step * rate - theta * step * diff * main
        ab[2, :-1] = -theta * step * diff * lower[1:]
        return ab

    ab_cn = banded_lhs(0.5, dt)
    ab_be = banded_lhs(1.0, dt / 2.0)

    def check_mass(p):
        mass = h * p.sum()
        if abs(mass - 1.0) > MASS_TOLERANCE:
            raise MassConservationError(
                f"mass drifted to {mass:.6f}; boundary too close or grid too coarse")
        return p

    # Rannacher start-up: implicit half-steps damp the point-mass modes.
    # Four halves cover the first two dt steps (two halves when only one
    # step exists).
    half_steps = 4 if n_steps >= 2 else 2
    for _ in range(half_steps):
        rhs = p + (dt / 2.0) * source
        p = check_mass(solve_banded((1, 1), ab_be, rhs))
    for _ in range(n_steps - half_steps // 2):
        rhs = (1.0 - 0.5 * dt * rate) * p \
            + 0.5 * dt * diff * _apply_tridiag(lower, main, upper, p) \
            + dt * source
        p = check_mass(solve_banded((1, 1), ab_cn, rhs))
    return DensityCurve(xs=xs, values=p, t=t_final)


def solve_fpe_evans(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the plain point source of rate r."""
    return _solve_transient(spec, grid, t_final, weighted=False)


def solve_fpe_delta_fl(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the stationary-density-weighted
    source; its coefficient, evaluated at the reset point, equals r."""
    return _solve_transient(spec, grid, t_final, weighted=True)


def stationary_fpe(spec: ProcessSpec, grid: FpeGrid) -> DensityCurve:
    """Solve the zero-time-derivative linear system, normalised to unit
    mass; independent of the start point."""
    rate, *_ = _poisson(spec)
    if rate <= 0:
        raise DomainError("no stationary density without resetting (rate 0)")
    _check_margins(spec, grid, None)
    xs = grid.xs
    n = len(xs)
    h = grid.h
    lower, main, upper = _second_difference_bands(n, h, grid.boundary)
    diff = spec.diffusivity
    ab = np.zeros((3, n))
    ab[0, 1:] = -diff * upper[:-1]
    ab[1] = rate - diff * main
    ab[2, :-1] = -diff * lower[1:]
    rhs = rate * _delta_weights(xs, h, spec.x_reset) / h
    try:
        p = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary system is singular: {exc}") from exc
    mass = h * p.sum()
    if not mass > 0:
        raise NumericalError("stationary solve produced nonpositive mass")
    return DensityCurve(xs=xs, values=p / mass, t=math.inf)


# ---------------------------------------------------------------------------
# Discrete generator and adjoint
# ---------------------------------------------------------------------------

def _operator_parts(values, xs, spec):
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 3 or values.shape != xs.shape:
        raise SpecError("need a grid function on at least 3 points")
    steps = np.diff(xs)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-9 * h):
        raise SpecError("grid must be uniform")
    rate, *_ = _poisson(spec)
    if not xs[0] < spec.x_reset < xs[-1]:
        raise SpecError("reset position must lie inside the grid")
    bands = _second_difference_bands(len(xs), h, "reflecting")
    w = _delta_weights(xs, h, spec.x_reset)
    return values, bands, w, rate, spec.diffusivity


def apply_generator(g, xs, spec: ProcessSpec) -> np.ndarray:
    """Drift of observable averages: D g'' + r (g(reset) - g), with the
    reset-point value read by linear interpolation."""
    g, bands, w, rate, diff = _operator_parts(g, xs, spec)
    return diff * _apply_tridiag(*bands, g) + rate * (w @ g - g)


def apply_adjoint(f, xs, spec: ProcessSpec) -> np.ndarray:
    """Transpose of :func:`apply_generator` in the h-weighted inner
    product: D f'' + r (delta_at_reset * integral(f) - f)."""
    f, bands, w, rate, diff = _operator_parts(f, xs, spec)
    return diff * _apply_tridiag(*bands, f) + rate * (w * f.sum() - f)
