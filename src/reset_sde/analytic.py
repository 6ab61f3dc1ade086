"""Closed-form distributional results for diffusion with resetting.

Everything is derived at unit diffusivity (D = 1/2, standard Brownian
noise) and mapped to general D through the exact spatial scaling
x -> sqrt(2D) x provided by :func:`reset_sde.core.rescale_to_unit`.

Homogeneous Poisson resetting at rate r admits fully explicit formulas:
the moment generating function

    M_t(s) = r e^{s b} / (r - s^2/2)
             + (e^{s a} - r e^{s b} / (r - s^2/2)) e^{-(r - s^2/2) t}

(a = start, b = reset point, valid for |s| < sqrt(2r)), the
characteristic function M_t(i s), a density that combines a Laplace
density, a Gaussian density, and their convolution, and moments built
from Laplace moments, Gaussian moments (a finite binomial sum; the
paper's Kummer-function form is the cross-check) and a binomial cross
term.

Power-law nonhomogeneous resetting (intensity r (t+1)^p, start = reset
point = 0) gets its characteristic function, density and mean squared
displacement by adaptive quadrature over the last reset time, with
substitutions that keep every integrand bounded by e^{-u} so nothing
overflows.  A whole curve (every x of a density, every s of a
characteristic function) is one vectorised quadrature, accurate to a
fraction of the curve's largest value; every quadrature checks its own
error estimate and raises ConvergenceError beyond tolerance (see
:func:`quadrature`).
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy import integrate, special

from .core import (
    DomainError,
    NonhomogeneousPoissonClock,
    NumericalError,
    PoissonClock,
    ProcessSpec,
    SpecError,
    rescale_to_unit,
    write_table,
)
from .clocks import IntensityFunction, cumulative_intensity, inverse_cumulative_intensity


class ConvergenceError(NumericalError):
    """A series or quadrature failed to reach its tolerance."""


_NEGATIVE_DENSITY_FLOOR = -1e-12


# ---------------------------------------------------------------------------
# Tabulated results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityCurve:
    """A density tabulated on an ascending grid."""
    xs: np.ndarray
    values: np.ndarray
    t: float

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.xs))

    def to_csv(self, path) -> None:
        write_table(path, ("x", "value"), [(np.asarray(self.xs, dtype=float),
                                             np.asarray(self.values, dtype=float))])


@dataclass(frozen=True)
class MomentTable:
    """Moments of orders 0..n_max at one time point."""
    orders: np.ndarray
    values: np.ndarray
    t: float

    def to_csv(self, path) -> None:
        write_table(path, ("order", "value"), [(np.asarray(self.orders, dtype=int),
                                                 np.asarray(self.values, dtype=float))])


# ---------------------------------------------------------------------------
# Argument gates: each validates the spec once and returns the unit frame
# ---------------------------------------------------------------------------

def _check_time(t, positive=True) -> None:
    """Refuse a time, or any time of an array, that is not finite and
    positive (nonnegative when ``positive`` is false)."""
    if isinstance(t, (int, float)):  # one float comparison in the hot path
        ok = (0 < t if positive else 0 <= t) and t < math.inf
    else:
        t = np.asarray(t, dtype=float)
        ok = np.all(((0 < t) if positive else (0 <= t)) & (t < math.inf))
    if not ok:
        raise DomainError(f"t must be {'positive' if positive else 'nonnegative'} "
                          "and finite")


def _poisson(spec: ProcessSpec, t=None, positive=True):
    """``(rate, x0/c, xR/c, c)`` of a homogeneous Poisson spec, c = sqrt(2D),
    with t checked by :func:`_check_time` unless it is None."""
    scaled, c = rescale_to_unit(spec)
    if not isinstance(spec.clock, PoissonClock):
        raise SpecError(f"this operation requires a homogeneous Poisson clock; "
                        f"got {type(spec.clock).__name__}")
    if t is not None:
        _check_time(t, positive)
    return spec.clock.rate, scaled.x0, scaled.x_reset, c


def _npp(spec: ProcessSpec, t, positive=True):
    """``(rate, exponent, c)`` of a power-law spec started and reset at 0,
    c = sqrt(2D), with t checked by :func:`_check_time`."""
    _, c = rescale_to_unit(spec)
    if not isinstance(spec.clock, NonhomogeneousPoissonClock):
        raise SpecError(f"this operation requires a nonhomogeneous Poisson "
                        f"clock; got {type(spec.clock).__name__}")
    if spec.x0 != 0.0 or spec.x_reset != 0.0:
        raise DomainError("nonhomogeneous results are derived for "
                          "x0 = xR = 0 only")
    _check_time(t, positive)
    return spec.clock.rate, spec.clock.exponent, c


def _finite(out, what: str):
    """``out``, a Python scalar when 0-d, refused with NumericalError
    unless every value is finite."""
    out = np.asarray(out)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"{what} is not finite")
    return out.item() if out.ndim == 0 else out


def _norm_pdf(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


# ---------------------------------------------------------------------------
# MGF and characteristic function
# ---------------------------------------------------------------------------

def mgf(spec: ProcessSpec, s: float, t: float) -> float:
    """Moment generating function E exp(s X_t); Poisson clock only.

    Defined for |s| < sqrt(2r) in the unit frame (sqrt(r/D) in general).
    """
    rate, a, b, c = _poisson(spec, t, positive=False)
    try:  # in Python floats, which overflow to inf or raise, never warn
        value = _mgf_unit(a, b, rate, c * float(s), t)
    except OverflowError:
        value = math.inf
    return _finite(value, f"the moment generating function at s = {s:g}, t = {t:g}")


def _mgf_unit(x0, xr, rate, s, t):
    if rate == 0.0:
        return math.exp(s * x0 + 0.5 * t * s * s)
    if abs(s) >= math.sqrt(2.0 * rate):
        raise DomainError(
            "the moment generating function diverges for |s| >= sqrt(2r); "
            f"|{s:g}| is outside the domain for rate {rate:g}")
    denom = rate - 0.5 * s * s
    stationary = rate * math.exp(s * xr) / denom
    return stationary + (math.exp(s * x0) - stationary) * math.exp(-denom * t)


def char_fn(spec: ProcessSpec, s, t: float) -> complex:
    """Characteristic function E exp(i s X_t); Poisson clock only."""
    rate, a, b, c = _poisson(spec, t, positive=False)
    with np.errstate(over="ignore", invalid="ignore"):  # as in pdf, at large |s|
        s = np.asarray(s, dtype=float) * c
        if rate == 0.0:
            out = np.exp(1j * s * a - 0.5 * t * s * s)
        else:
            denom = rate + 0.5 * s * s
            stationary = rate * np.exp(1j * s * b) / denom
            out = stationary + (np.exp(1j * s * a) - stationary) * np.exp(-denom * t)
    return _finite(out, "the characteristic function")


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def _laplace_pdf_arr(x, rate, center):
    return math.sqrt(rate / 2.0) * np.exp(-math.sqrt(2.0 * rate) * np.abs(x - center))


def laplace_pdf(x, rate: float, center: float):
    """Laplace density with scale (2 rate)^(-1/2): the unit-frame
    stationary law of resetting diffusion."""
    if not rate > 0:
        raise DomainError("rate must be positive")
    out = _laplace_pdf_arr(np.asarray(x, dtype=float), rate, center)
    return float(out) if out.ndim == 0 else out


def _exp_times_erfcx(gauss_exp, arg, tail_exp):
    """exp(gauss_exp) * erfcx(arg), stable for arg of either sign.

    ``tail_exp`` must equal gauss_exp + arg**2, supplied in closed form by
    the caller so no catastrophic cancellation occurs.  For arg < 0 the
    reflection erfcx(-z) = 2 e^{z^2} - erfcx(z) is used; tail_exp is then
    always negative, so nothing overflows.
    """
    gauss_exp, arg, tail_exp = np.broadcast_arrays(
        np.asarray(gauss_exp, dtype=float), np.asarray(arg, dtype=float),
        np.asarray(tail_exp, dtype=float))
    out = np.empty(arg.shape)
    neg = arg < 0
    pos = ~neg
    out[pos] = np.exp(gauss_exp[pos]) * special.erfcx(arg[pos])
    out[neg] = (2.0 * np.exp(tail_exp[neg])
                - np.exp(gauss_exp[neg]) * special.erfcx(-arg[neg]))
    return out


def _conv_terms(y, t, lam):
    """The two erfcx terms of Normal(0, t) plus a centred Laplace of scale
    1/lam at y: their sum is 4/lam times its density, their difference 4
    times Phi(y / sqrt(t)) less its distribution function."""
    root, gauss_exp = math.sqrt(2.0 * t), -(y * y) / (2.0 * t)
    return (_exp_times_erfcx(gauss_exp, (lam * t - y) / root, 0.5 * lam * lam * t - lam * y),
            _exp_times_erfcx(gauss_exp, (lam * t + y) / root, 0.5 * lam * lam * t + lam * y))


def normal_laplace_conv(x, t: float, rate: float, center: float):
    """Density of the sum of a Normal(0, t) and an independent Laplace
    (center, scale (2 rate)^(-1/2)) random variable, in closed form.

    Written with scaled complementary error functions so large rate*t
    never overflows.
    """
    _check_time(t)
    if not rate > 0:
        raise DomainError("rate must be positive")
    lam = math.sqrt(2.0 * rate)
    left, right = _conv_terms(np.asarray(x, dtype=float) - center, t, lam)
    out = 0.25 * lam * (left + right)
    return float(out) if out.ndim == 0 else out


def pdf(spec: ProcessSpec, x, t: float):
    """Density of the resetting process at time t; Poisson clock only.

    Laplace part plus an exponentially damped correction: the Gaussian
    started at x0 minus the Gaussian-Laplace convolution.
    """
    rate, a, b, c = _poisson(spec, t)
    # far from x0 and xR the squares overflow to inf and the terms to 0;
    # _finite refuses what extreme arguments leave undefined
    with np.errstate(over="ignore", invalid="ignore"):
        out = _pdf_unit(np.asarray(x, dtype=float) / c, t, a, b, rate) / c
    return _finite(out, "the density")


def _pdf_unit(x, t, x0, xr, rate):
    if rate == 0.0:
        return _norm_pdf(x, x0, t)
    out = _laplace_pdf_arr(x, rate, xr) + math.exp(-rate * t) * (
        _norm_pdf(x, x0, t) - normal_laplace_conv(x, t, rate, xr))
    low = np.min(out)
    if low < _NEGATIVE_DENSITY_FLOOR:
        raise NumericalError(
            f"density evaluated to {low:g}, beyond the rounding floor")
    return np.clip(out, 0.0, None)


def stationary_pdf(spec: ProcessSpec, x):
    """Long-time density: Laplace centred at the reset point."""
    rate, _, b, c = _poisson(spec)
    if rate <= 0:
        raise DomainError("no stationary law without resetting (rate 0)")
    with np.errstate(over="ignore", invalid="ignore"):  # as in pdf
        out = _laplace_pdf_arr(np.asarray(x, dtype=float) / c, rate, b) / c
    return _finite(out, "the stationary density")


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def mean(spec: ProcessSpec, t) -> float:
    """E X_t = xR + exp(-r t) (x0 - xR); exact for any diffusivity."""
    rate, *_ = _poisson(spec, t, positive=False)
    with np.errstate(over="ignore", invalid="ignore"):  # r t overflows to inf
        decay = np.exp(-rate * np.asarray(t, dtype=float))
        out = spec.x_reset + decay * (spec.x0 - spec.x_reset)
    return _finite(out, "the mean")


def laplace_moment(n: int, rate: float) -> float:
    """n-th moment of the centred Laplace law with scale (2 rate)^(-1/2):
    (2 rate)^(-n/2) n! for even n, zero for odd n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if not rate > 0:
        raise DomainError("rate must be positive")
    if n % 2:
        return 0.0
    return (2.0 * rate) ** (-n / 2.0) * math.factorial(n)


_KUMMER_REL_TOL = 1e-12  # stop after two terms this small against the sum
_KUMMER_MAX_TERMS = 500


def kummer_phi(a: float, b: float, c: float) -> float:
    """Kummer's confluent hypergeometric series sum_k (a)_k/(b)_k c^k/k!.

    Negative arguments are routed through the transformation
    phi(a, b; c) = e^c phi(b - a, b; -c), whose series has no sign
    cancellation.  Raises ConvergenceError when the term budget runs out.
    """
    if b <= 0 and b == int(b):
        raise DomainError(f"b = {b:g} is a non-positive integer (series pole)")
    if c < 0:
        return math.exp(c) * kummer_phi(b - a, b, -c)
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(_KUMMER_MAX_TERMS):
        term *= (a + k) / (b + k) * c / (k + 1)
        total += term
        if not math.isfinite(total):
            raise ConvergenceError(
                f"Kummer series overflowed after {k + 1} terms "
                f"(a={a:g}, b={b:g}, c={c:g})")
        if abs(term) <= _KUMMER_REL_TOL * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"Kummer series did not converge within {_KUMMER_MAX_TERMS} terms "
        f"(a={a:g}, b={b:g}, c={c:g}, last term {term:g})")


def _double_factorial(n: int) -> int:
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def gaussian_moment(n: int, x0: float, t: float) -> float:
    """n-th raw moment of a Normal(x0, t) random variable.

    E (x0 + sqrt(t) Z)^n = sum_k C(n, 2k) x0^(n-2k) t^k (2k-1)!!, a finite
    sum whose terms all share the sign of x0^n, so nothing cancels.  The
    paper's Kummer-function form (see :func:`kummer_phi`) turns this
    terminating series into an infinite one that overflows for large
    x0^2/t; it is kept as an independent cross-check in the tests.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    _check_time(t)
    try:
        total = sum(math.comb(n, 2 * k) * _double_factorial(2 * k - 1)
                    * x0 ** (n - 2 * k) * t ** k for k in range(n // 2 + 1))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericalError(
            f"Gaussian moment of order {n} overflows (x0={x0:g}, t={t:g})")
    return total


def sum_moment(n: int, t: float, rate: float) -> float:
    """n-th moment of W + L for independent W ~ Normal(0, t) and centred
    Laplace L: a binomial sum over even orders; zero for odd n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n % 2:
        return 0.0
    total = 0.0
    for k in range(0, n + 1, 2):
        total += (math.comb(n, k) * gaussian_moment(k, 0.0, t)
                  * laplace_moment(n - k, rate))
    return total


def nth_moment(spec: ProcessSpec, n: int, t: float) -> float:
    """n-th raw moment E X_t^n for reset point 0.

    Combines the Laplace, Gaussian and sum moments:
    E L^n + exp(-r t)(E W^n - E (W+L)^n).  For a nonzero reset point no
    closed form is implemented; integrate x^n against :func:`pdf` instead.
    """
    rate, a, _, c = _poisson(spec, t)
    if spec.x_reset != 0.0:
        raise DomainError(
            "closed-form moments require reset point 0; integrate the "
            "density by quadrature for other reset points")
    try:
        scale = c ** n
    except OverflowError:
        raise NumericalError(f"moment {n} overflows a double") from None
    if rate == 0.0:
        return scale * gaussian_moment(n, a, t)
    unit = (laplace_moment(n, rate)
            + math.exp(-rate * t) * (gaussian_moment(n, a, t) - sum_moment(n, t, rate)))
    return scale * unit


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order at 0
    (Fornberg's recursion)."""
    n = len(offsets)
    if order >= n:
        raise SpecError("need more stencil points than the derivative order")
    weights = np.zeros((n, order + 1))
    weights[0, 0] = 1.0
    c1 = 1.0
    c4 = offsets[0]
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    weights[i, k] = c1 * (k * weights[i - 1, k - 1]
                                          - c5 * weights[i - 1, k]) / c2
                weights[i, 0] = -c1 * c5 * weights[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                weights[j, k] = (c4 * weights[j, k] - k * weights[j, k - 1]) / c3
            weights[j, 0] = c4 * weights[j, 0] / c3
        c1 = c2
    return weights[:, order]


def moment_from_mgf(spec: ProcessSpec, n: int, t: float) -> float:
    """n-th moment as the n-th derivative of the MGF at s = 0, by a
    13-point central finite-difference stencil of step 0.05 in the unit
    frame's s sqrt(2D), at any length scale, narrowed to stay within
    0.4 sqrt(r / D) of 0, inside the MGF's domain.

    This is the independent cross-check route for :func:`nth_moment`.
    """
    rate, _, _, c = _poisson(spec, t, positive=False)
    points = 13
    step = 0.05
    if rate > 0:
        step = min(step, 0.8 * math.sqrt(2.0 * rate) / (points - 1))
    offsets = (np.arange(points) - (points - 1) / 2.0) * step / c
    values = np.array([mgf(spec, s, t) for s in offsets])
    return float(_fd_weights(offsets, n) @ values)


# ---------------------------------------------------------------------------
# Nonhomogeneous Poisson resetting
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-8, limit=200)
_EXP_CUTOFF = 700.0  # e^{-700} is below double precision


def quadrature(integrand, lo, hi, points=None, vector=False, **opts):
    """Integral of ``integrand`` over [lo, hi], with its error estimate checked.

    A scalar integrand goes to ``scipy.integrate.quad``.  With
    ``vector=True`` the integrand returns an array and one
    ``scipy.integrate.quad_vec`` call integrates every component at once;
    its error estimate is a single max-norm over the components.  Either
    way the tolerance is max(epsabs, epsrel * size), where size is |value|
    for a scalar and max|value| for an array, and ConvergenceError is
    raised when the estimate exceeds it.  ``opts`` override the module
    defaults (epsabs, epsrel, limit).
    """
    opts = {**_QUAD_OPTS, **opts}
    if vector:
        value, error = integrate.quad_vec(integrand, lo, hi, points=points,
                                          norm="max", **opts)
        size = float(np.max(np.abs(value), initial=0.0))
    else:
        value, error = integrate.quad(integrand, lo, hi, points=points, **opts)
        size = abs(value)
    tolerance = max(opts["epsabs"], opts["epsrel"] * size)
    if not error <= tolerance:
        raise ConvergenceError(
            f"quadrature over [{lo:g}, {hi:g}] did not reach its tolerance: "
            f"error estimate {error:g} > {tolerance:g}")
    return value


def _intensity_at(f: IntensityFunction, t: float):
    """f(t) and R(t), which the quadratures below need finite: their
    breakpoints are geometric from 1/f(t), and a finite R(t) keeps the
    power (t+1)^(p+1) of :func:`_intensity_since` finite."""
    with np.errstate(over="ignore"):
        rate_t, total = float(f(t)), cumulative_intensity(f, t)
    if not (rate_t < math.inf and total < math.inf):
        raise DomainError(f"the reset intensity or its integral overflows a "
                          f"double at t = {t:g}")
    return rate_t, total


def _intensity_since(f: IntensityFunction, t: float, age: float) -> float:
    """R(t) - R(t - age), the mean number of events in (t - age, t].

    For exponent > -1 it is written through log1p and expm1 of age/(t+1),
    so it stays accurate to rounding when age is small and R(t) is large,
    where the difference of two cumulative intensities would cancel.  For
    exponent < -1, R is bounded by rate/|exponent + 1| and the difference
    of the two powers, each in (0, 1], is taken directly: there expm1
    would overflow once |exponent + 1| log(t + 1) exceeds ~709.
    """
    q = f.exponent + 1.0
    if q < 0.0:
        return f.rate / -q * ((t + 1.0 - age) ** q - (t + 1.0) ** q)
    shrink = math.log1p(-age / (t + 1.0))
    if q == 0.0:
        return -f.rate * shrink
    return -f.rate / q * (t + 1.0) ** q * math.expm1(q * shrink)


def npp_char_fn(spec: ProcessSpec, s, t: float) -> complex:
    """Characteristic function under power-law resetting intensity.

    The defining integral is taken in the exhausted-intensity variable
    u = R(t) - R(w), which bounds the integrand by e^{-u} uniformly in
    (rate, exponent, s, t).  Requires x0 = xR = 0; the result is real.

    All points of ``s`` share one vectorised quadrature, whose tolerance
    is max(1e-12, 1e-8 * max|value|) at every point: values far below the
    largest one (large |s|) carry that absolute accuracy, not a relative one.
    """
    rate, p, c = _npp(spec, t, positive=False)
    # as in char_fn; a NaN fails the quadrature's own error check
    with np.errstate(over="ignore", invalid="ignore"):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float)) * c
        out = _npp_cf_unit(rate, p, s_arr, t).astype(complex)
    return complex(out[0]) if np.ndim(s) == 0 else out


def _npp_cf_unit(rate, p, s, t) -> np.ndarray:
    if t == 0.0:
        return np.ones(len(s))
    f = IntensityFunction(rate, p)
    _, total = _intensity_at(f, t)
    half_s2 = 0.5 * s * s

    def integrand(u):
        w = inverse_cumulative_intensity(f, total - u)
        return np.exp(-u + (w - t) * half_s2)

    upper = min(total, _EXP_CUTOFF)
    tail = quadrature(integrand, 0.0, upper, vector=True)
    head = -total - t * half_s2
    head = np.where(head > -_EXP_CUTOFF, np.exp(head), 0.0)
    return head + tail


def npp_pdf(spec: ProcessSpec, x, t: float):
    """Density under power-law resetting intensity, x0 = xR = 0.

    The time integral is regularised by the substitution w = t - v^2,
    which removes the square-root singularity where the Gaussian kernel
    collapses at the upper endpoint.

    All points of ``x`` share one vectorised quadrature, whose tolerance
    is max(1e-12, 1e-8 * peak) at every point, the peak being the largest
    density value among them: far-tail values carry that absolute
    accuracy, not a relative one.
    """
    rate, p, c = _npp(spec, t)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float)) / c
    out = _npp_pdf_unit(rate, p, x_arr, t) / c
    return float(out[0]) if np.ndim(x) == 0 else out


def _npp_pdf_unit(rate, p, x, t) -> np.ndarray:
    f = IntensityFunction(rate, p)
    rate_t, total = _intensity_at(f, t)
    half_x2 = 0.5 * x * x
    front = 2.0 / math.sqrt(2.0 * math.pi)

    def integrand(v):
        if v == 0.0:
            return np.where(x == 0.0, front * rate_t, 0.0)
        w = t - v * v
        expo = -_intensity_since(f, t, v * v) - half_x2 / (v * v)
        return np.where(expo < -_EXP_CUTOFF, 0.0, front * float(f(w)) * np.exp(expo))

    top = math.sqrt(t)
    # f is monotone, so at v the survival factor is below
    # exp(-v^2 min(f(0), f(t))): nothing is left past e^-700.
    slowest = min(rate, rate_t)
    if slowest > 0.0:
        top = min(top, math.sqrt(_EXP_CUTOFF / slowest))
    # The integrand lives in a layer of width ~ layer next to v = 0 (last
    # reset just before t).  Geometric breakpoints layer * 4^k up to top
    # keep that layer sampled however much wider [0, top] is.
    layer = 1.0 / math.sqrt(rate_t + 1.0)
    breaks = {top / 2.0}
    while layer < top:
        breaks.add(layer)
        layer *= 4.0
    tail = quadrature(integrand, 0.0, top, points=sorted(breaks), vector=True)
    head_exp = -total - half_x2 / t
    head = np.where(head_exp > -_EXP_CUTOFF,
                    np.exp(head_exp) / math.sqrt(2.0 * math.pi * t), 0.0)
    return head + tail


def npp_msd(spec: ProcessSpec, t: float) -> float:
    """Mean squared displacement under power-law resetting, x0 = xR = 0.

    In the unit frame this is the mean age min(t - last reset, t), the
    integral over ages a in [0, t] of P(no reset in (t - a, t]) =
    exp(-(R(t) - R(t - a))), whose integrand is bounded by 1.  At
    exponent -1 the closed form (t+1)/(r+1) - (t+1)^(-r)/(r+1) is used
    directly.  Scales as 2 D times the unit-frame value.
    """
    rate, p, _ = _npp(spec, t, positive=False)
    return _finite(2.0 * spec.diffusivity * _npp_msd_unit(rate, p, t),
                   f"the mean squared displacement at t = {t:g}")


def _npp_msd_unit(rate, p, t) -> float:
    if t == 0.0:
        return 0.0
    if p == -1.0:
        return (t + 1.0) / (rate + 1.0) - (t + 1.0) ** (-rate) / (rate + 1.0)
    f = IntensityFunction(rate, p)

    def integrand(age):
        return math.exp(-_intensity_since(f, t, age))

    # When resets near t are frequent (f(t) t > 1) the survival decays
    # within ~1/f(t) of age 0; geometric breakpoints from there up to t
    # keep that layer sampled.  At most half the quadrature's subintervals
    # go to them: beyond 4^100 / f(t) the survival is below exp(-4^99).
    rate_t, _ = _intensity_at(f, t)
    breaks = []
    age = 1.0 / rate_t if rate_t * t > 1.0 else t
    while age < t and len(breaks) < _QUAD_OPTS["limit"] // 2:
        breaks.append(age)
        age *= 4.0
    return quadrature(integrand, 0.0, t, points=breaks or None)


# ---------------------------------------------------------------------------
# Long-time regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeInfo:
    """Large-time behaviour for a power-law intensity exponent."""
    exponent: float      # MSD ~ t^exponent as t grows
    law: str             # limiting distribution family

    def as_json(self) -> dict:
        return {"exponent": self.exponent, "law": self.law}


def classify_regime(p: float) -> RegimeInfo:
    """Map the intensity exponent to (MSD power, limiting law).

    Increasing intensity collapses the law onto the reset point; constant
    intensity gives the stationary Laplace law; gently decaying intensity
    gives a spreading Laplace law; intensity decaying faster than 1/t
    leaves a diffusive Gaussian-Laplace mixture.
    """
    if p > 0:
        return RegimeInfo(exponent=-p, law="degenerate")
    if p == 0:
        return RegimeInfo(exponent=0.0, law="laplace-stationary")
    if p > -1:
        return RegimeInfo(exponent=-p, law="laplace-nonstationary")
    if p == -1:
        return RegimeInfo(exponent=1.0, law="laplace-nonstationary")
    return RegimeInfo(exponent=1.0, law="gaussian-laplace")


# ---------------------------------------------------------------------------
# Curve builders (CLI plumbing)
# ---------------------------------------------------------------------------

def spatial_scale(spec: ProcessSpec, t: float) -> float:
    """Max of the diffusive scale and, at base rate r > 0, sqrt(D / r)."""
    _check_time(t, positive=False)
    scale = math.sqrt(2.0 * spec.diffusivity * t)
    rate = spec.clock.base_rate
    if rate:
        scale = max(scale, math.sqrt(spec.diffusivity / rate))
    return _finite(scale, f"the spatial scale at t = {t:g}")


_NPP_SUPPORT_RMS = 12.0  # half-width of the power-law grid, in rms displacements


def default_support(spec: ProcessSpec, t: float, points: int = 1001) -> np.ndarray:
    """Even grid that holds the law at time t.

    The half-width beyond the start and reset points is 8 times
    :func:`spatial_scale`.  Under power-law resetting it is instead 12
    root mean squared displacements (:func:`npp_msd`), since a growing
    intensity confines the law far inside the base-rate scale.
    """
    if isinstance(spec.clock, NonhomogeneousPoissonClock):
        half = _NPP_SUPPORT_RMS * math.sqrt(npp_msd(spec, t))
    else:
        half = 8.0 * spatial_scale(spec, t)
    lo = min(spec.x0, spec.x_reset) - half
    hi = max(spec.x0, spec.x_reset) + half
    return np.linspace(lo, hi, points)


def density_curve(spec: ProcessSpec, t: float, xs=None) -> DensityCurve:
    if xs is None:
        xs = default_support(spec, t)
    return DensityCurve(xs=np.asarray(xs, dtype=float),
                        values=np.asarray(pdf(spec, xs, t)), t=t)


def stationary_curve(spec: ProcessSpec, xs=None) -> DensityCurve:
    if xs is None:
        xs = default_support(spec, 0.0)
    return DensityCurve(xs=np.asarray(xs, dtype=float),
                        values=np.asarray(stationary_pdf(spec, xs)), t=math.inf)


def npp_density_curve(spec: ProcessSpec, t: float, xs=None) -> DensityCurve:
    if xs is None:
        xs = default_support(spec, t)
    return DensityCurve(xs=np.asarray(xs, dtype=float),
                        values=np.asarray(npp_pdf(spec, xs, t)), t=t)


def moment_table(spec: ProcessSpec, t: float, n_max: int) -> MomentTable:
    orders = np.arange(n_max + 1)
    values = np.array([nth_moment(spec, int(n), t) for n in orders])
    return MomentTable(orders=orders, values=values, t=t)
