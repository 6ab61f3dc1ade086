"""Finite-difference solvers for the density of resetting diffusion, and
the discrete generator / adjoint pair.

The density obeys a diffusion equation with a sink -r p and a point
source at the reset position.  Two published source forms are provided:
a plain Dirac mass of rate r, and the stationary-density-weighted form
whose coefficient collapses to the same rate once evaluated at the reset
point; the solvers differ only in how that coefficient is computed.

The default grid is the step-h lattice over the law's windows at the
final time (:func:`reset_sde.analytic.law_windows`), so it stops
widening once the law is the Laplace law of length sqrt(D/r); a
reflecting grid that cuts a window is refused.

Discretisation: flux-form central differences (reflecting ends carry a
one-sided stencil so the discrete mass h*sum(p) is conserved exactly),
Crank-Nicolson in time with the sink split symmetrically and the source
explicit, which keeps the system tridiagonal and preserves unit mass to
rounding.  The first step is replaced by four backward-Euler half-steps
to damp the oscillations Crank-Nicolson leaves on a point-mass initial
condition; both kinds of step solve one matrix, factored once per solve
(LAPACK ``gttrf``, then ``gttrs`` per step).  Dirac deltas are deposited
on the two nodes bracketing the target with linear weights, the same
weights used to read a function at an off-node point, which is what makes
the generator and adjoint exact transposes of one another.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .core import (
    DomainError,
    NumericalError,
    ProcessSpec,
    SpecError,
)
from .analytic import DensityCurve, _finite, _poisson, law_windows

MASS_TOLERANCE = 1e-3
# Grids above this many nodes are refused before any array is allocated:
# each costs a handful of float arrays of its length per step.
MAX_NODES = 10 ** 6
# The least grid step: below it 1/h^2 overflows.
MIN_STEP = 1e-154


class MassConservationError(NumericalError):
    """Discrete mass drifted beyond tolerance (boundary too close or
    grid too coarse)."""


@dataclass(frozen=True)
class FpeGrid:
    """Uniform solver grid.  dt <= h is required for accuracy (the
    scheme itself is unconditionally stable); dt defaults to h / 10."""
    x_lo: float
    x_hi: float
    h: float
    dt: float = None
    boundary: str = "reflecting"

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", self.h / 10.0)
        if not all(map(math.isfinite, (self.x_lo, self.x_hi, self.h, self.dt))):
            raise SpecError("x_lo, x_hi, h and dt must be finite")
        if not self.h >= MIN_STEP or not self.dt > 0:
            raise SpecError(f"h must be at least {MIN_STEP:g} and dt positive")
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
    """The h lattice over the hull of the law's windows at ``t_final``
    (:func:`reset_sde.analytic.law_windows`; the stationary law's for
    ``t_final=None``), widened to hold x0 and xR at least 10 h inside.
    Beyond it the law leaves out at most ``analytic.TAIL_MASS`` on each
    side, so a reflecting end there moves no more than that."""
    if not 0 < h < math.inf:
        raise SpecError("h must be positive and finite")
    windows = law_windows(spec, t_final)
    pad = 10.0 * h
    lo = min(windows[0].lo, spec.x0 - pad, spec.x_reset - pad)
    hi = max(max(w.hi for w in windows), spec.x0 + pad, spec.x_reset + pad)
    # one node further out, so no rounding of lo / h leaves a window cut
    lo = h * (math.floor(lo / h) - 1)
    hi = h * (math.ceil(hi / h) + 1)
    return FpeGrid(x_lo=lo, x_hi=hi, h=h, dt=dt, boundary=boundary)


def _check_margins(spec, grid, t_final):
    """Refuse a grid without x0 or xR inside it, and a reflecting grid that
    cuts a window of the law at ``t_final``, whose mass its ends would
    reflect."""
    for name in ("x0", "x_reset"):
        x = getattr(spec, name)
        if not (grid.x_lo < x < grid.x_hi):
            raise SpecError(f"{name} = {x:g} is outside the grid")
    if grid.boundary == "reflecting":
        for w in law_windows(spec, t_final):
            if w.lo < grid.x_lo or grid.x_hi < w.hi:
                raise SpecError(
                    f"the reflecting grid [{grid.x_lo:g}, {grid.x_hi:g}] cuts the "
                    f"law's window [{w.lo:g}, {w.hi:g}] at the final time; widen the grid")


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
    """``(off, main)``, the discrete second derivative in LAPACK's gt layout.

    Reflecting: flux form with zero end flux (rows sum to zero, matrix
    symmetric).  Absorbing: value held at zero beyond the ends.
    """
    inv_h2 = 1.0 / (h * h)
    off = np.full(n - 1, inv_h2)
    main = np.full(n, -2.0 * inv_h2)
    if boundary == "reflecting":
        main[0] = -inv_h2
        main[-1] = -inv_h2
    return off, main


def _apply_tridiag(off, main, p):
    out = main * p
    out[1:] += off * p[:-1]
    out[:-1] += off * p[1:]
    return out


def _factor(shift, c, rate, diff, off, main):
    """Factor shift + c*(r - D*L) once; return a solve for one right-hand side."""
    upper = -c * diff * off
    diag = shift + c * rate - c * diff * main
    if not (np.isfinite(upper).all() and np.isfinite(diag).all()):
        raise NumericalError("the FPE system is not finite: D/h^2 or r*dt overflows")
    *lu, info = dgttrf(upper, diag, upper)
    if info != 0:
        raise NumericalError(f"the FPE system is singular (LAPACK gttrf info {info})")
    return lambda rhs: dgttrs(*lu, rhs)[0]


# an overflow leaves a non-finite system or density, refused as NumericalError
@np.errstate(over="ignore", invalid="ignore")
def _solve_transient(spec, grid, t_final, weighted):
    rate, *_ = _poisson(spec, t_final)
    source_coeff = rate
    if weighted and rate > 0:
        lam = math.sqrt(rate / spec.diffusivity)
        density_at_reset = lam / 2.0
        source_coeff = 2.0 * spec.diffusivity * lam * density_at_reset
    _check_margins(spec, grid, t_final)
    xs, h, dt = grid.xs, grid.h, grid.dt
    diff = spec.diffusivity
    off, main = _second_difference_bands(len(xs), h, grid.boundary)
    source = source_coeff * _delta_weights(xs, h, spec.x_reset) / h
    p = _delta_weights(xs, h, spec.x0) / h

    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    # a backward-Euler half-step and a Crank-Nicolson step share one matrix
    solve = _factor(1.0, dt / 2.0, rate, diff, off, main)

    def check_mass(p):
        mass = h * p.sum()
        if not math.isfinite(mass):
            raise NumericalError("the FPE density is not finite: r, D or 1/h overflows")
        if not abs(mass - 1.0) <= MASS_TOLERANCE:
            raise MassConservationError(
                f"mass drifted to {mass:.6f}; boundary too close or grid too coarse")
        return p

    # Rannacher start-up: implicit half-steps damp the point-mass modes.
    # Four halves cover the first two dt steps (two halves when only one
    # step exists).
    half_steps = 4 if n_steps >= 2 else 2
    for _ in range(half_steps):
        p = check_mass(solve(p + (dt / 2.0) * source))
    for _ in range(n_steps - half_steps // 2):
        rhs = (1.0 - 0.5 * dt * rate) * p \
            + 0.5 * dt * diff * _apply_tridiag(off, main, p) \
            + dt * source
        p = check_mass(solve(rhs))
    return DensityCurve(xs=xs, values=p, t=t_final)


def solve_fpe_evans(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the plain point source of rate r."""
    return _solve_transient(spec, grid, t_final, weighted=False)


def solve_fpe_delta_fl(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the stationary-density-weighted
    source; its coefficient, evaluated at the reset point, equals r."""
    return _solve_transient(spec, grid, t_final, weighted=True)


@np.errstate(over="ignore", invalid="ignore")
def stationary_fpe(spec: ProcessSpec, grid: FpeGrid) -> DensityCurve:
    """Solve the zero-time-derivative linear system, normalised to unit
    mass; independent of the start point."""
    rate, *_ = _poisson(spec)
    if rate <= 0:
        raise DomainError("no stationary density without resetting (rate 0)")
    _check_margins(spec, grid, None)
    xs, h = grid.xs, grid.h
    solve = _factor(0.0, 1.0, rate, spec.diffusivity,
                    *_second_difference_bands(len(xs), h, grid.boundary))
    p = solve(rate * _delta_weights(xs, h, spec.x_reset) / h)
    mass = h * p.sum()
    if not 0 < mass < math.inf:
        raise NumericalError(f"stationary solve produced mass {mass:g}")
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
    if not h >= MIN_STEP:
        raise SpecError(f"grid step must be at least {MIN_STEP:g}")
    rate, *_ = _poisson(spec)
    if not xs[0] < spec.x_reset < xs[-1]:
        raise SpecError("reset position must lie inside the grid")
    bands = _second_difference_bands(len(xs), h, "reflecting")
    if not np.isfinite(bands[1]).all():  # -2/h^2, the largest entry
        raise NumericalError(f"the second difference overflows: 2/h^2 is not "
                             f"finite at grid step {h:g}")
    w = _delta_weights(xs, h, spec.x_reset)
    return values, bands, w, rate, spec.diffusivity


# an overflow leaves a non-finite band or result, refused as NumericalError
@np.errstate(over="ignore", invalid="ignore")
def apply_generator(g, xs, spec: ProcessSpec) -> np.ndarray:
    """Drift of observable averages: D g'' + r (g(reset) - g), with the
    reset-point value read by linear interpolation."""
    g, bands, w, rate, diff = _operator_parts(g, xs, spec)
    return _finite(diff * _apply_tridiag(*bands, g) + rate * (w @ g - g),
                   "the generator's action")


@np.errstate(over="ignore", invalid="ignore")
def apply_adjoint(f, xs, spec: ProcessSpec) -> np.ndarray:
    """Transpose of :func:`apply_generator` in the h-weighted inner
    product: D f'' + r (delta_at_reset * integral(f) - f)."""
    f, bands, w, rate, diff = _operator_parts(f, xs, spec)
    return _finite(diff * _apply_tridiag(*bands, f) + rate * (w * f.sum() - f),
                   "the adjoint's action")
