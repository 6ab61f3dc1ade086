"""Finite-difference solvers for the density of resetting diffusion, and
the discrete generator / adjoint pair.

The density obeys a diffusion equation with a sink -r p and a point
source at the reset position.  Two published source forms name it: a
plain Dirac mass of rate r, and the stationary-density-weighted form,
whose coefficient 2 D lam p*(xR), with lam = sqrt(r / D) and the Laplace
density p*(xR) = lam / 2 at the reset point, is D lam^2 = r.  Both are
the same source, so both forms are one solve.

The default grid is the step-h lattice over the law's windows at the
final time (:func:`reset_sde.analytic.law_windows`), so it stops
widening once the law is the Laplace law of length sqrt(D/r); a
reflecting grid that cuts a window is refused.

Discretisation: flux-form central differences (reflecting ends carry a
one-sided stencil so the discrete mass h*sum(p) is conserved exactly),
Crank-Nicolson in time with the sink split symmetrically and the source
explicit, which preserves unit mass to rounding.  The first step is
replaced by four backward-Euler half-steps to damp the oscillations
Crank-Nicolson leaves on a point-mass initial condition.  Dirac deltas
are deposited on the two nodes bracketing the target with linear
weights, the same weights used to read a function at an off-node point,
which is what makes the generator and adjoint exact transposes of one
another.

Solution: on the uniform grid the second difference is diagonal in a
known basis, cosines (DCT-II) between reflecting ends and sines (DST-I)
between absorbing ones.  With mu = r - D lam for its eigenvalue lam,
a = 1 / (1 + dt mu / 2) and g = (1 - dt mu / 2) a, a half-step scales a
coefficient's distance from the stationary one, q = s / mu for the
source s, by a, and a Crank-Nicolson step scales it by g.  So H
half-steps and M steps give

    p = q + a^H g^M (p0 - q)

in each mode: the march of the scheme, summed in closed form.  A solve
costs one FFT back to the grid, however many steps t / dt asks for, and
the stationary solve is q itself.  The mass after each step is the same
sum of geometric sequences, checked at every step in blocks of steps
until its bound shows that no later step can drift.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import (
    DomainError,
    NumericalError,
    ProcessSpec,
    SpecError,
    check_positive,
    check_size,
)
from .analytic import DensityCurve, _finite, _poisson, law_windows

MASS_TOLERANCE = 1e-3
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
        # a node counts as 100 values, the solve's arrays of the grid's length
        check_size(100 * (n + 1), f"a grid of {n + 1:.3g} nodes", "raise h or narrow the range")
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
    check_positive(h, "h")
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
    """``(off, main)``, the off and main diagonals of the discrete second
    derivative.

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


def _eigenbasis(n, h, boundary):
    """The second difference of :func:`_second_difference_bands` in its
    eigenbasis: ``(lam, forward, inverse, sums)``, its eigenvalues, the map
    from a grid function to its coefficients and back, and the grid sum of
    each eigenvector as ``inverse`` scales it.

    Reflecting: cos(pi k (j + 1/2) / n), a DCT-II, whose inverse is one FFT
    of length 2n; only k = 0 has a non-zero sum.  Absorbing:
    sin(pi (k + 1)(j + 1) / (n + 1)), a DST-I, its own inverse up to
    2 / (n + 1) and one FFT of the odd extension of length 2(n + 1); mode
    k sums to cot(pi (k + 1) / 2(n + 1)) for even k and to 0 for odd k.
    ``forward`` sums over the non-zero nodes alone: the solvers give it
    point masses, two nodes each.
    """
    if boundary == "reflecting":
        theta, offset, wave = np.pi * np.arange(n) / n, 0.5, np.cos
        sums = np.zeros(n)
        sums[0] = 1.0

        def inverse(c):
            return 2.0 * np.fft.irfft(np.append(c * np.exp(0.5j * theta), 0.0), 2 * n)[:n]
    else:
        theta, offset, wave = np.pi * np.arange(1, n + 1) / (n + 1), 1.0, np.sin
        sums = np.where(np.arange(n) % 2, 0.0, 2.0 / (n + 1) / np.tan(theta / 2.0))

        def inverse(c):
            odd = np.zeros(2 * (n + 1))
            odd[1:n + 1] = c
            odd[n + 2:] = -c[::-1]
            return -np.fft.rfft(odd)[1:n + 1].imag / (n + 1)

    def forward(p):
        nodes = np.flatnonzero(p)
        return wave(np.multiply.outer(theta, nodes + offset)) @ p[nodes]

    lam = -np.square(2.0 / h * np.sin(theta / 2.0))
    return lam, forward, inverse, sums


def _decay_rates(spec, grid, rate, scale):
    """``(mu, point, inverse, sums)`` in the grid's eigenbasis: mu = r - D lam
    for each eigenvalue lam, refused unless ``scale * mu`` is finite, and
    ``point(x)`` the coefficients of a unit point mass at x; the rest as
    :func:`_eigenbasis` gives them."""
    xs, h = grid.xs, grid.h
    lam, forward, inverse, sums = _eigenbasis(len(xs), h, grid.boundary)
    mu = rate - spec.diffusivity * lam
    if not np.isfinite(scale * mu).all():
        raise NumericalError("the FPE system is not finite: D/h^2 or r*dt overflows")
    return mu, lambda x: forward(_delta_weights(xs, h, x) / h), inverse, sums


# The mass check's block of step factors, modes x steps, and the summed
# bound of the modes it leaves out, below which they cannot move the mass.
_MASS_BLOCK = 1 << 16
_MASS_NEGLIGIBLE = 1e-15


def _check_mass(base, c, a, g, half_steps, steps):
    """Raise at the first step whose mass drifts beyond MASS_TOLERANCE.

    After half-step i the mass is base + sum_k c_k a_k^i, and after the
    Crank-Nicolson step m that follows them base + sum_k c_k a_k^H g_k^m.
    The steps go in blocks that double from 16 steps.  A mode leaves once
    its bound |c_k g_k^m| is below ``_MASS_NEGLIGIBLE`` over the number of
    modes, and the check stops once the bounds show that no later step
    can drift.
    """
    def check(masses):
        drifted = ~(np.abs(masses - 1.0) <= MASS_TOLERANCE)
        if drifted.any():
            mass = float(masses[np.argmax(drifted)])
            if not math.isfinite(mass):
                raise NumericalError("the FPE density is not finite: r, D or 1/h overflows")
            raise MassConservationError(
                f"mass drifted to {mass:.6f}; boundary too close or grid too coarse")

    negligible = _MASS_NEGLIGIBLE / len(c)
    frozen = g == 1.0  # mu = 0: the mode keeps its share at every step
    base += c[frozen].sum()
    live = np.flatnonzero(c * ~frozen)
    c, a, g = c[live], a[live], g[live]
    for _ in range(half_steps):
        c = c * a
        check(np.array([base + c.sum()]))
    done, width = 0, 16
    while done < steps:
        bound = np.abs(c)
        if abs(base - 1.0) + bound.sum() + _MASS_NEGLIGIBLE <= MASS_TOLERANCE:
            return
        keep = bound > negligible
        c, g = c[keep], g[keep]
        if not len(c):
            check(np.array([base]))
            return
        block = int(min(steps - done, width, max(1, _MASS_BLOCK // len(c))))
        width *= 2
        powers = np.cumprod(np.broadcast_to(g[:, None], (len(g), block)), axis=1)
        check(base + c @ powers)
        c = c * powers[:, -1]
        done += block


def _stationary_modes(source, mu):
    """The stationary solve in the eigenbasis, source / mu per mode; 0 in
    the mode of mu = 0, which only a source of rate 0 leaves."""
    return np.divide(source, mu, out=np.zeros_like(source), where=mu != 0.0)


# an overflow leaves a non-finite system or density, refused as NumericalError
@np.errstate(over="ignore", invalid="ignore")
def _solve_transient(spec, grid, t_final):
    rate, *_ = _poisson(spec, t_final)
    _check_margins(spec, grid, t_final)
    xs, h = grid.xs, grid.h
    if not t_final / grid.dt < math.inf:
        raise SpecError(f"t / dt = {t_final:g} / {grid.dt:g} steps overflow a double")
    n_steps = max(1, int(round(t_final / grid.dt)))
    dt = t_final / n_steps
    # Rannacher start-up: implicit half-steps damp the point-mass modes.
    # Four halves cover the first two dt steps (two halves when only one
    # step exists); Crank-Nicolson steps march the rest.
    half_steps = 4 if n_steps >= 2 else 2
    cn_steps = n_steps - half_steps // 2
    mu, point, inverse, sums = _decay_rates(spec, grid, rate, dt)
    a = 1.0 / (1.0 + 0.5 * dt * mu)
    g = (1.0 - 0.5 * dt * mu) * a
    stationary = _stationary_modes(rate * point(spec.x_reset), mu)
    start = point(spec.x0) - stationary
    _check_mass(h * (sums @ stationary), h * sums * start, a, g, half_steps, cn_steps)
    p = inverse(stationary + a ** half_steps * g ** float(cn_steps) * start)
    if not np.isfinite(p).all():
        raise NumericalError("the FPE density is not finite: r, D or 1/h overflows")
    return DensityCurve(xs=xs, values=p, t=t_final)


def solve_fpe_evans(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the plain point source of rate r."""
    return _solve_transient(spec, grid, t_final)


def solve_fpe_delta_fl(spec: ProcessSpec, grid: FpeGrid, t_final: float) -> DensityCurve:
    """March the density equation with the stationary-density-weighted
    source.  Its coefficient 2 D lam p*(xR), lam = sqrt(r / D) and
    p*(xR) = lam / 2, is r, so this is :func:`solve_fpe_evans`'s solve,
    bit for bit."""
    return _solve_transient(spec, grid, t_final)


@np.errstate(over="ignore", invalid="ignore")
def stationary_fpe(spec: ProcessSpec, grid: FpeGrid) -> DensityCurve:
    """Solve the zero-time-derivative linear system, normalised to unit
    mass; independent of the start point."""
    rate, *_ = _poisson(spec)
    if rate <= 0:
        raise DomainError("no stationary density without resetting (rate 0)")
    _check_margins(spec, grid, None)
    mu, point, inverse, _ = _decay_rates(spec, grid, rate, 1.0)
    p = inverse(_stationary_modes(rate * point(spec.x_reset), mu))
    mass = grid.h * p.sum()
    if not 0 < mass < math.inf:
        raise NumericalError(f"stationary solve produced mass {mass:g}")
    return DensityCurve(xs=grid.xs, values=p / mass, t=math.inf)


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
