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
density, a Gaussian density, and their convolution, and moments of all
orders for any reset point, conditioned on the last reset: one binomial
sum of same-sign terms over a Gaussian of age t and one over the ages
since a reset (the paper's cancelling route is the tests' reference).

Power-law nonhomogeneous resetting (intensity r (t+1)^p, start = reset
point = 0) gets its characteristic function, density and mean squared
displacement by adaptive quadrature over the last reset time, with
substitutions that keep every integrand bounded by e^{-u} so nothing
overflows.  A whole curve (every x of a density, every s of a
characteristic function) is one vectorised quadrature, accurate to a
fraction of the curve's largest value: an adaptive Gauss-Kronrod rule
with quad_vec's nodes, error estimate and stopping rule that evaluates
the integrand once per refinement round on every new node, in chunks of
bounded size.  Every quadrature checks its own error estimate and
raises ConvergenceError beyond tolerance (see :func:`quadrature`).
"""

import contextlib
import contextvars
from dataclasses import dataclass
import decimal
from decimal import Decimal
import math
import sys
from typing import NamedTuple

import numpy as np

from . import _special
from .core import (
    DomainError,
    NonhomogeneousPoissonClock,
    NumericalError,
    PoissonClock,
    ProcessSpec,
    SpecError,
    _distinct,
    check_count,
    check_positive,
    check_size,
    rescale_to_unit,
    write_table,
)


def __getattr__(name):
    # Nothing here integrates with scipy; ``integrate`` is loaded on first
    # access for perfbench's tracer, which swaps it for a counting stand-in.
    # ROADMAP item 1, the benchmark reading the run record, removes this.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

def _poisson(spec: ProcessSpec, t=None, positive=True):
    """``(rate, x0/c, xR/c, c)`` of a homogeneous Poisson spec, c = sqrt(2D),
    with t, unless None, finite and positive (or nonnegative, unless ``positive``)."""
    scaled, c = rescale_to_unit(spec)
    if not isinstance(spec.clock, PoissonClock):
        raise SpecError(f"this operation requires a homogeneous Poisson clock; "
                        f"got {type(spec.clock).__name__}")
    if t is not None:
        check_positive(t, "t", DomainError, zero=not positive)
    return spec.clock.rate, scaled.x0, scaled.x_reset, c


def _npp(spec: ProcessSpec, t, positive=True, points=1):
    """``(clock, c)`` of a power-law spec started and reset at 0,
    c = sqrt(2D), with t checked as by :func:`_poisson` and ``points`` budgeted."""
    _, c = rescale_to_unit(spec)
    if not isinstance(spec.clock, NonhomogeneousPoissonClock):
        raise SpecError(f"this operation requires a nonhomogeneous Poisson "
                        f"clock; got {type(spec.clock).__name__}")
    if spec.x0 != 0.0 or spec.x_reset != 0.0:
        raise DomainError("nonhomogeneous results are derived for "
                          "x0 = xR = 0 only")
    check_positive(t, "t", DomainError, zero=not positive)
    # its quadrature keeps a value a point per interval, up to its limit
    check_size(_QUAD_OPTS["limit"] * points, f"a power-law curve of {points} points",
               "lower the number of points")
    return spec.clock, c


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

def mgf(spec: ProcessSpec, s, t: float) -> float:
    """Moment generating function E exp(s X_t) at each s; Poisson clock only.

    Defined for |s| < sqrt(2r) in the unit frame (sqrt(r/D) in general).
    """
    rate, a, b, c = _poisson(spec, t, positive=False)
    s = np.asarray(s, dtype=float)
    u = s * c
    if rate > 0.0:
        outside = s[np.abs(u) >= math.sqrt(2.0 * rate)]
        if outside.size:
            raise DomainError("the moment generating function diverges for |s| >= "
                              f"sqrt(r/D); s = {outside[0]:g} is outside the domain")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses what overflows
        if rate == 0.0:
            out = np.exp(u * a + 0.5 * t * u * u)
        else:
            denom = rate - 0.5 * u * u
            stationary = rate * np.exp(u * b) / denom
            out = stationary + (np.exp(u * a) - stationary) * np.exp(-denom * t)
    return _finite(out, f"the moment generating function at t = {t:g}")


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
    check_positive(rate, "rate", DomainError)
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
    out = _special.erfcx(np.abs(arg))
    out *= np.exp(gauss_exp)
    neg = arg < 0
    out[neg] = 2.0 * np.exp(tail_exp[neg]) - out[neg]
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
    check_positive(t, "t", DomainError)
    check_positive(rate, "rate", DomainError)
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


# Moments are summed in Decimal, whose exponent range holds every
# coefficient and power that a moment within a double needs.
_DECIMAL = decimal.Context(prec=30, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[])


def _double(value: Decimal, what: str) -> float:
    """``value`` as a float, refused with NumericalError beyond a double."""
    out = float(value)
    if not math.isfinite(out):
        raise NumericalError(f"{what} overflows a double")
    return out


def _powers(x, n: int) -> list:
    """x^m in Decimal for m = 0..n, with 0^0 = 1."""
    x = Decimal(float(x))
    return [x ** m if m else Decimal(1) for m in range(n + 1)]


def _normal_mixture(n: int, x_powers, variance_moments) -> Decimal:
    """E (x + sqrt(V) Z)^n = sum_k C(n, 2k) (2k-1)!! x^(n-2k) E V^k, for Z
    standard normal, an independent variance V with E V^k =
    ``variance_moments[k]`` for k = 0..n//2, and x^m = ``x_powers[m]``:
    terms that all share the sign of x^n."""
    total, coef = Decimal(0), Decimal(1)
    for k, moment in enumerate(variance_moments[:n // 2 + 1]):
        m = n - 2 * k
        total += coef * moment * x_powers[m]
        coef = coef * (m * (m - 1)) / (2 * k + 2)  # C(n, 2k + 2) (2k + 1)!!
    return total


def _age_moments(variance: Decimal, rate, t, n: int) -> list:
    """E[(variance A)^k; A < t] = k! (variance / rate)^k P(k + 1, rate t)
    for k = 0..n//2, A exponential of rate ``rate`` and P the regularised
    lower incomplete gamma function, in Decimal.  With x = rate t and
    w_j = x^j e^{-x} / j!, the shares come down by P(a) = P(a + 1) + w_a,
    each step adding a positive term, from the top share P(m),
    m = n//2 + 1: 1 - sum_{j<m} w_j when m <= x, where it is at least
    about 1/2, and the series sum_{j>=m} w_j otherwise.  The factors
    k! (variance / rate)^k are one running product, a rounding a step."""
    count, x = n // 2 + 1, Decimal(rate) * Decimal(float(t))
    shares = [Decimal(1)] * count  # t = inf
    if x.is_finite():
        weights = [(-x).exp()]
        for j in range(1, count):
            weights.append(weights[-1] * x / j)
        if count <= x:
            top = 1 - sum(weights)
        else:
            top, term, j = Decimal(0), weights[-1] * x / count, count
            while top + term != top:
                top += term
                j += 1
                term = term * x / j
        shares[-1] = top
        for a in range(count - 2, -1, -1):
            shares[a] = shares[a + 1] + weights[a + 1]
    scale, factor, moments = variance / Decimal(rate), Decimal(1), []
    for k, p in enumerate(shares, 1):
        moments.append(factor * p)
        factor *= k * scale
    return moments


def laplace_moment(n: int, rate: float) -> float:
    """n-th moment of the centred Laplace law with scale (2 rate)^(-1/2):
    (2 rate)^(-n/2) n! for even n, zero for odd n.  It is the reset half
    of :func:`nth_moment` as t -> inf with xR = 0: a Normal(0, A) with A
    exponential of rate ``rate``."""
    n = check_count(n, "n", 0, DomainError)
    check_positive(rate, "rate", DomainError)
    with decimal.localcontext(_DECIMAL):
        value = _normal_mixture(n, _powers(0.0, n), _age_moments(Decimal(1), rate, math.inf, n))
    return _double(value, f"Laplace moment {n} at rate {rate:g}")


def gaussian_moment(n: int, x0: float, t: float) -> float:
    """n-th raw moment of a Normal(x0, t) random variable.

    E (x0 + sqrt(t) Z)^n = sum_k C(n, 2k) x0^(n-2k) t^k (2k-1)!!, a finite
    sum whose terms all share the sign of x0^n, so nothing cancels.  The
    paper's form through Kummer's confluent hypergeometric function
    turns this terminating series into an infinite one that overflows
    for large x0^2/t; the tests keep it, on scipy's ``hyp1f1``, as an
    independent cross-check.
    """
    n = check_count(n, "n", 0, DomainError)
    check_positive(t, "t", DomainError)
    with decimal.localcontext(_DECIMAL):
        value = _normal_mixture(n, _powers(x0, n), _powers(t, n // 2))
    return _double(value, f"Gaussian moment of order {n} (x0={x0:g}, t={t:g})")


def nth_moment(spec: ProcessSpec, n: int, t: float) -> float:
    """n-th raw moment E X_t^n, for any start and reset point.

    Conditioned on the last reset, X_t is Normal(x0, 2Dt) with no reset by
    t, of probability e^{-rt}, and else Normal(xR, 2DA), A the age of the
    last reset, of density r e^{-ra} on [0, t).  So

        E X_t^n = e^{-rt} E (x0 + W_t)^n
                  + sum_k C(n, 2k) (2k-1)!! xR^(n-2k) k! (2D/r)^k P(k+1, rt),

    W_t ~ Normal(0, 2Dt) and P the regularised lower incomplete gamma
    function: the unit-frame form, with c^n (c = sqrt(2D)) folded into the
    variances.  Each half sums terms of one sign, in Decimal, so a moment
    within a double comes out finite and accurate, and a larger one
    raises NumericalError.  The paper's route at xR = 0,
    E L^n + e^{-rt}(E W^n - E (W+L)^n), subtracts terms that outgrow the
    moment; the tests keep it, in exact arithmetic, as the reference.
    """
    (value,) = _moments(spec, t, [check_count(n, "n", 0, DomainError)])
    return value


def _moments(spec: ProcessSpec, t: float, orders) -> list:
    """:func:`nth_moment` of each of ``orders``, ascending, from variance
    powers and age moments built in rounds for twice the orders of the
    last (64 at first), so a table stops near its first overflowing order."""
    rate, *_ = _poisson(spec, t)
    with decimal.localcontext(_DECIMAL):
        variance, age = 2 * Decimal(spec.diffusivity), Decimal(float(t))
        survival = (-Decimal(rate) * age).exp()
        values, top = [], -1
        for n in orders:
            if n > top:
                top = min(orders[-1], max(2 * n, 64))
                gauss = [(variance * age) ** k for k in range(top // 2 + 1)]
                reset = _age_moments(variance, rate, t, top) if rate else []
                starts, resets = _powers(spec.x0, top), _powers(spec.x_reset, top)
            value = survival * _normal_mixture(n, starts, gauss)
            if rate:
                value += _normal_mixture(n, resets, reset)
            values.append(_double(value, f"moment {n} at t = {t:g}"))
    return values


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights at 0 for every derivative order up to
    ``order``, one column per order (Fornberg's recursion, whose column k
    does not depend on the higher ones)."""
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
    return weights


def _mgf_derivatives(spec: ProcessSpec, orders, t: float) -> list:
    """The derivatives of the MGF at s = 0 of each order in ``orders``, by
    one 13-point central finite-difference stencil of step 0.05 in the
    unit frame's s sqrt(2D), at any length scale, narrowed to stay within
    0.4 sqrt(r / D) of 0, inside the MGF's domain.  The stencil's MGF
    values and weights are computed once for all orders."""
    orders = [check_count(n, "n", 0, DomainError) for n in orders]
    rate, _, _, c = _poisson(spec, t, positive=False)
    points = 13
    step = 0.05
    if rate > 0:
        step = min(step, 0.8 * math.sqrt(2.0 * rate) / (points - 1))
    offsets = (np.arange(points) - (points - 1) / 2.0) * step / c
    weights = _fd_weights(offsets, max(orders, default=0))
    values = mgf(spec, offsets, t)
    return [float(weights[:, n] @ values) for n in orders]


def moment_from_mgf(spec: ProcessSpec, n: int, t: float) -> float:
    """n-th moment as the n-th derivative of the MGF at s = 0, by the
    stencil of :func:`_mgf_derivatives`.

    This is the independent cross-check route for :func:`nth_moment`.
    """
    return _mgf_derivatives(spec, [n], t)[0]


# ---------------------------------------------------------------------------
# Nonhomogeneous Poisson resetting
# ---------------------------------------------------------------------------

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-8, limit=200)
_EXP_CUTOFF = 700.0  # e^{-700} is below double precision

# The Gauss-Kronrod 21-point rule on [-1, 1], as QUADPACK and quad_vec
# tabulate it: the positive nodes from the outermost in, their Kronrod
# weights, the Kronrod weight at 0, and the 10-point Gauss weights of the
# nodes of odd index, from the outermost in up to 0.
_GK_NODES = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
             0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
             0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
             0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
             0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_GK_KRONROD = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
               0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
               0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
               0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
               0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_GK_KRONROD_0 = 0.149445554002916905664936468389821
_GK_GAUSS = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
_GK_X = np.array(_GK_NODES + (0.0,) + tuple(-x for x in _GK_NODES[::-1]))
_GK_K = np.array(_GK_KRONROD + (_GK_KRONROD_0,) + _GK_KRONROD[::-1])
_GK_G = np.zeros(21)  # 0 on the nodes of even index
_GK_G[1::2] = _GK_GAUSS + _GK_GAUSS[::-1]

_QUAD_BUDGET = 1 << 16  # integrand values (nodes x components) per call
_QUAD_SPLITS = 128      # intervals split at most per refinement round
_TINY_T = math.sqrt(sys.float_info.min)  # below it 1/t^2 overflows

_RECORD = contextvars.ContextVar("quadrature record", default=None)


@contextlib.contextmanager
def quadrature_record():
    """A dict that counts the quadratures run inside the ``with`` block:
    ``quadratures``, ``integrand_calls``, ``evaluations`` (nodes) and the
    ``worst_error_share``, the largest error estimate as a share of its
    tolerance.  An inner block counts its quadratures alone."""
    record = dict(quadratures=0, integrand_calls=0, evaluations=0, worst_error_share=0.0)
    token = _RECORD.set(record)
    try:
        yield record
    finally:
        _RECORD.reset(token)


def quadrature(integrand, lo, hi, points=None, **opts):
    """Integral of ``integrand`` over [lo, hi], with its error estimate checked.

    [lo, hi] is a finite range or (-inf, inf); any other infinite range
    raises DomainError.  The integrand maps an array of n nodes to values
    of shape ``(..., n)``, and :func:`_gauss_kronrod` integrates every
    component at once with one integrand call per refinement round; its
    error estimate is a single max-norm over the components.  The
    tolerance is max(epsabs, epsrel * max|value|), and ConvergenceError
    is raised when the estimate exceeds it.  ``opts`` override the module
    defaults (epsabs, epsrel, limit).
    """
    opts = {**_QUAD_OPTS, **opts}
    value, error, calls, evaluations = _gauss_kronrod(integrand, lo, hi, points, **opts)
    size = float(np.max(np.abs(value), initial=0.0))
    tolerance = max(opts["epsabs"], opts["epsrel"] * size)
    record = _RECORD.get()
    if record is not None:
        record["quadratures"] += 1
        record["integrand_calls"] += calls
        record["evaluations"] += evaluations
        record["worst_error_share"] = max(record["worst_error_share"],
                                          error / max(tolerance, sys.float_info.min))
    if not error <= tolerance:
        raise ConvergenceError(
            f"quadrature over [{lo:g}, {hi:g}] did not reach its tolerance: "
            f"error estimate {error:g} > {tolerance:g}")
    return value


def _finite_range(f, lo, hi, points):
    """``(g, a, b, points)`` with the integral of f over [lo, hi], finite
    or the whole line, equal to that of g over the finite [a, b].  The
    whole line goes to (-1, 1) through quad_vec's map x = (1 - |t|)/t,
    split at t = 0; dx = dt / t^2, and g is 0 where 1/t^2 would overflow.
    """
    points = () if points is None else tuple(points)
    if math.isfinite(lo) and math.isfinite(hi):
        return f, lo, hi, points
    if not (lo == -math.inf and hi == math.inf):
        raise DomainError(f"quadrature takes a finite range or (-inf, inf); "
                          f"got [{lo:g}, {hi:g}]")
    points = (0.0,) + tuple((-1.0 if x < 0 else 1.0) / (abs(x) + 1.0) for x in points)

    def g(t):
        small = np.abs(t) < _TINY_T
        t = np.where(small, 1.0, t)
        return f((1.0 - np.abs(t)) / t) * np.where(small, 0.0, 1.0 / (t * t))

    return g, -1.0, 1.0, points


def _gk21(values, half):
    """GK21 integrals, error estimates and rounding terms of intervals of
    half-width ``half`` from their node values, shape (components,
    intervals, 21).  Error and rounding are max-norms over the
    components, estimated as QUADPACK and quad_vec do.  The integrals
    come back one array of components per interval."""
    shape = values.shape[:2]
    # 2-d, so each sum is one matrix-vector product (a matrix-matrix one
    # would make BLAS allocate its work buffers)
    flat = values.reshape(-1, 21)
    s_k, s_g = flat @ _GK_K, flat @ _GK_G
    s_abs, s_dev = np.empty(len(flat)), np.empty(len(flat))
    rows = _QUAD_BUDGET // 21  # temporaries in blocks within the budget
    for i in range(0, len(flat), rows):
        block = flat[i:i + rows]
        spread = np.abs(block)
        s_abs[i:i + rows] = spread @ _GK_K
        np.subtract(block, 0.5 * s_k[i:i + rows, None], out=spread)
        s_dev[i:i + rows] = np.abs(spread, out=spread) @ _GK_K
    s_k, s_g, s_abs, s_dev = (a.reshape(shape) for a in (s_k, s_g, s_abs, s_dev))
    h = np.abs(half)
    error = np.max(np.abs(np.subtract(s_k, s_g, out=s_g), out=s_g), axis=0) * h
    dev = np.max(s_dev, axis=0) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = dev * np.minimum(1.0, (200.0 * error / dev) ** 1.5)
    error = np.where((dev != 0) & (error != 0), scaled, error)
    rounding = 50.0 * sys.float_info.epsilon * h * np.max(s_abs, axis=0)
    error = np.where(rounding > sys.float_info.min, np.maximum(error, rounding), error)
    s_k *= half
    return list(s_k.T), error, rounding


class _Integrand:
    """An integrand of node arrays, called on at most ``_QUAD_BUDGET``
    values (nodes x components) at a time, or on one node when its
    components alone exceed that; the first call, before the number of
    components is known, gets one node."""

    def __init__(self, f):
        self.f, self.shape, self.width, self.calls, self.evaluations = f, None, None, 0, 0

    def values(self, x):
        """The integrand on the nodes x, shape (components, nodes)."""
        out, i = None, 0
        while i < len(x):
            step = 1 if self.width is None else max(1, _QUAD_BUDGET // self.width)
            part = np.asarray(self.f(x[i:i + step]))
            self.shape, self.width = part.shape[:-1], part.size // part.shape[-1]
            self.calls += 1
            self.evaluations += part.shape[-1]
            part = part.reshape(self.width, -1)
            if part.shape[1] == len(x):
                return part
            if out is None:  # node-major, so each part fills whole rows
                out = np.empty((len(x), self.width), dtype=part.dtype).T
            out[:, i:i + step] = part
            i += step
        return out

    def rule(self, lo, hi):
        """:func:`_gk21` on each [lo_i, hi_i], in groups of intervals whose
        nodes fit the budget."""
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
        ints, errs, rounding, i = [], [], [], 0
        while i < len(lo):
            group = 1 if self.width is None else max(1, _QUAD_BUDGET // (21 * self.width))
            values = self.values(nodes[i:i + group].ravel()).reshape(self.width, -1, 21)
            group_ints, group_errs, group_rounding = _gk21(values, half[i:i + group])
            del values  # before the next group's values are made
            ints += group_ints
            errs.append(group_errs)
            rounding.append(group_rounding)
            i += group
        return ints, np.concatenate(errs), np.concatenate(rounding)


def _gauss_kronrod(integrand, lo, hi, points, epsabs, epsrel, limit):
    """``(value, error estimate, integrand calls, nodes)`` of the integral
    of ``integrand`` over [lo, hi] by globally adaptive GK21, as
    ``scipy.integrate.quad_vec(..., norm="max", quadrature="gk21")``
    computes it.

    The range starts split at ``points``.  Each round halves the
    intervals of largest error, at most ``_QUAD_SPLITS`` and no more than
    it takes to bring the summed error of the rest below tol/8, with
    tol = max(epsabs, epsrel * max|value|), and evaluates every new node
    in one integrand call, or in as few as the budget allows.  Rounds
    stop once the summed error is below tol/8 or below the rounding term,
    which sums over every interval evaluated; when ``limit`` intervals
    are reached; or at a NaN or inf.  The error estimate is the summed
    error plus the rounding term.  Only the intervals' integrals are
    kept, one array of components each, as quad_vec keeps them.
    """
    g, a, b, points = _finite_range(integrand, float(lo), float(hi), points)
    edges = [a]
    for p in sorted(map(float, points)):
        if a < p < b and p != edges[-1]:
            edges.append(p)
    edges.append(b)
    f = _Integrand(g)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    ints, errs, rounding = f.rule(lo, hi)
    value, error, rounding = sum(ints), errs.sum(), rounding.sum()
    tolerance = lambda: max(epsabs, epsrel * float(np.max(np.abs(value))))
    while len(lo) < limit and math.isfinite(error + rounding):
        order = np.lexsort((lo, -errs))
        taken = np.cumsum(errs[order])[:min(len(lo), _QUAD_SPLITS) - 1]
        split = order[:1 + np.count_nonzero(taken <= error - tolerance() / 8.0)]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_ints, new_errs, new_rounding = f.rule(new_lo, new_hi)
        value = value + sum(new_ints) - sum(ints[i] for i in split)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        ints = [ints[i] for i in np.flatnonzero(keep)] + new_ints
        errs = np.concatenate((errs[keep], new_errs))
        error, rounding = errs.sum(), rounding + new_rounding.sum()
        if error < tolerance() / 8.0 or error < rounding:
            break
    return value.reshape(f.shape), float(error + rounding), f.calls, f.evaluations


def _exp_above_cutoff(out):
    """e^out in place, and 0 where out < -700.  The argument is floored
    at -700 first: an exp whose value would be subnormal or 0 costs ~100
    times one above that."""
    keep = out >= -_EXP_CUTOFF
    np.exp(np.maximum(out, -_EXP_CUTOFF, out=out), out=out)
    out *= keep
    return out


def _intensity_at(clock: NonhomogeneousPoissonClock, t: float):
    """The clock's r(t) and R(t), which the quadratures below need finite:
    their breakpoints are geometric from 1/r(t), and a finite R(t) keeps
    the power (t+1)^(p+1) of :func:`_intensity_since` finite."""
    with np.errstate(over="ignore"):
        rate_t, total = float(clock.intensity(t)), clock.cumulative(t)
    if not (rate_t < math.inf and total < math.inf):
        raise DomainError(f"the reset intensity or its integral overflows a "
                          f"double at t = {t:g}")
    return rate_t, total


def _intensity_since(clock: NonhomogeneousPoissonClock, t: float, age):
    """R(t) - R(t - age), the clock's mean number of events in (t - age, t].

    For exponent > -1 it is written through log1p and expm1 of age/(t+1),
    so it stays accurate to rounding when age is small and R(t) is large,
    where the difference of two cumulative intensities would cancel.  For
    exponent < -1, R is bounded by rate/|exponent + 1| and the difference
    of the two powers, each in (0, 1], is taken directly: there expm1
    would overflow once |exponent + 1| log(t + 1) exceeds ~709.
    """
    rate, q = clock.rate, clock.exponent + 1.0
    if q < 0.0:
        return rate / -q * ((t + 1.0 - age) ** q - (t + 1.0) ** q)
    shrink = np.log1p(-age / (t + 1.0))
    if q == 0.0:
        return -rate * shrink
    return -rate / q * (t + 1.0) ** q * np.expm1(q * shrink)


def npp_char_fn(spec: ProcessSpec, s, t: float) -> complex:
    """Characteristic function under power-law resetting intensity.

    The defining integral is taken in the exhausted-intensity variable
    u = R(t) - R(w), which bounds the integrand by e^{-u} uniformly in
    (rate, exponent, s, t).  Requires x0 = xR = 0; the result is real.

    All points of ``s`` share one vectorised quadrature, whose tolerance
    is max(1e-12, 1e-8 * max|value|) at every point: values far below the
    largest one (large |s|) carry that absolute accuracy, not a relative one.
    """
    clock, c = _npp(spec, t, positive=False, points=np.size(s))
    # as in char_fn; a NaN fails the quadrature's own error check
    with np.errstate(over="ignore", invalid="ignore"):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float)) * c
        out = _npp_cf_unit(clock, s_arr, t).astype(complex)
    return complex(out[0]) if np.ndim(s) == 0 else out


def _npp_cf_unit(clock, s, t) -> np.ndarray:
    if t == 0.0:
        return np.ones(len(s))
    _, total = _intensity_at(clock, t)
    half_s2 = 0.5 * s * s

    def integrand(u):  # e^{(w - t) s^2/2 - u}
        out = np.multiply.outer(half_s2, clock.inverse_cumulative(total - u) - t)
        out -= u
        return _exp_above_cutoff(out)

    upper = min(total, _EXP_CUTOFF)
    tail = quadrature(integrand, 0.0, upper)
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
    clock, c = _npp(spec, t, points=np.size(x))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float)) / c
    out = _npp_pdf_unit(clock, x_arr, t) / c
    return float(out[0]) if np.ndim(x) == 0 else out


def _npp_pdf_unit(clock, x, t) -> np.ndarray:
    rate, p = clock.rate, clock.exponent
    rate_t, total = _intensity_at(clock, t)
    half_x2 = 0.5 * x * x
    minus_half_x2 = -half_x2
    log_front = math.log(2.0 / math.sqrt(2.0 * math.pi)) + math.log(rate)

    def integrand(v):  # every node lies inside (0, top), so v > 0
        # 2 r(w) e^{-(R(t) - R(w)) - x^2 / 2v^2} / sqrt(2 pi), w = t - v^2
        v2 = v * v
        out = np.divide.outer(minus_half_x2, v2)
        out += log_front + p * np.log1p(t - v2) - _intensity_since(clock, t, v2)
        return _exp_above_cutoff(out)

    top = math.sqrt(t)
    # r is monotone, so at v the survival factor is below
    # exp(-v^2 min(r(0), r(t))): nothing is left past e^-700.
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
    tail = quadrature(integrand, 0.0, top, points=sorted(breaks))
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
    clock, _ = _npp(spec, t, positive=False)
    return _finite(2.0 * spec.diffusivity * _npp_msd_unit(clock, t),
                   f"the mean squared displacement at t = {t:g}")


def _npp_msd_unit(clock, t) -> float:
    if t == 0.0:
        return 0.0
    if clock.exponent == -1.0:
        rate = clock.rate
        return (t + 1.0) / (rate + 1.0) - (t + 1.0) ** (-rate) / (rate + 1.0)

    def integrand(age):
        return np.exp(-_intensity_since(clock, t, age))

    # When resets near t are frequent (r(t) t > 1) the survival decays
    # within ~1/r(t) of age 0; geometric breakpoints from there up to t
    # keep that layer sampled.  At most half the quadrature's subintervals
    # go to them: beyond 4^100 / r(t) the survival is below exp(-4^99).
    rate_t, _ = _intensity_at(clock, t)
    breaks = []
    age = 1.0 / rate_t if rate_t * t > 1.0 else t
    while age < t and len(breaks) < _QUAD_OPTS["limit"] // 2:
        breaks.append(age)
        age *= 4.0
    return float(quadrature(integrand, 0.0, t, points=breaks))


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
# Where the law lives, and the curve builder
# ---------------------------------------------------------------------------

TAIL_MASS = 1e-9  # the law's mass a window may leave out on each side
_NPP_SUPPORT_RMS = 12.0  # half-width of the power-law window, in rms displacements


class Window(NamedTuple):
    """An interval that holds one part of the law, and that part's mass."""
    lo: float
    hi: float
    weight: float


def law_windows(spec: ProcessSpec, t) -> list:
    """The :class:`Window` of each part of the law at time t (of the
    stationary law for t None), sorted by ``lo``; each leaves out at most
    :data:`TAIL_MASS` of the law's mass on either side.

    Under Poisson resetting at rate r the law is the no-reset Gaussian
    about x0, of standard deviation sqrt(2Dt) and weight e^{-rt}, plus the
    reset part about xR, of weight 1 - e^{-rt}: a mixture of Gaussians of
    ages below t whose density lies under the Laplace law of length
    sqrt(D/r), the stationary law.  A part of weight w gets the window
    where w times its Gaussian tail is TAIL_MASS, and none once w is at
    most twice TAIL_MASS; the reset part's window is also never wider
    than the Laplace law's.  The stationary law's window is the Laplace
    law's.  Under power-law resetting (x0 = xR = 0) the window is 12 root
    mean squared displacements (:func:`npp_msd`) about 0, since a growing
    intensity confines the law far inside the base-rate scale.
    """
    if isinstance(spec.clock, NonhomogeneousPoissonClock):
        if t is None:
            raise DomainError("no stationary law under a power-law clock")
        check_positive(t, "t", DomainError)
        half = _NPP_SUPPORT_RMS * math.sqrt(npp_msd(spec, t))
        return [Window(-half, half, 1.0)]
    rate, _, _, c = _poisson(spec, t)
    if t is None and rate == 0.0:
        raise DomainError("no stationary law without resetting (rate 0)")
    laplace = c / math.sqrt(2.0 * rate) * math.log(0.5 / TAIL_MASS) if rate else math.inf
    parts = [(spec.x_reset, 1.0, laplace)] if t is None else [
        (spec.x0, math.exp(-rate * t), math.inf),
        (spec.x_reset, -math.expm1(-rate * t), laplace)]
    windows = []
    for center, weight, cap in parts:
        if weight > 2.0 * TAIL_MASS:
            half = cap if t is None else min(
                cap, c * math.sqrt(t) * -_special.ndtri(TAIL_MASS / weight))
            windows.append(Window(center - half, center + half, weight))
    _finite([w[:2] for w in windows], "the law's windows")
    return sorted(windows)


def default_support(spec: ProcessSpec, t, points: int = 1001) -> np.ndarray:
    """About ``points`` ascending x values that hold the law at time t (the
    stationary law for t None): one even grid per :func:`law_windows`
    window, and cells across each gap between windows.

    The windows share the points in proportion to the square root of the
    mass each holds: the light no-reset Gaussian stays resolved, and where
    the windows overlap the cusp at xR keeps the reset part's step, which
    must be about a tenth of sqrt(D/r) for the trapezoid to hold its mass
    to 1e-3.  A window whose share rounds below two points is left out,
    but the heaviest gets two.  Gap cells double in width from each
    window's step until the two sides meet mid-gap, so each long cell ends
    where the density is about 0 and the curve's trapezoid
    (:meth:`DensityCurve.mass`) holds the law's mass.  Raises DomainError
    when the points cannot resolve a window in double precision.
    """
    return _support(spec, t, points)[0]


def _support(spec, t, points):
    """:func:`default_support`'s x values, and the number of windows
    that got points."""
    check_size(points, f"a curve of {points} points", "lower points")
    windows = law_windows(spec, t)
    shares = np.cumsum([0.0] + [math.sqrt(w.weight) for w in windows])
    counts = np.diff(np.round(points * shares / shares[-1])).astype(int)
    heaviest = np.argmax([w.weight for w in windows])
    counts[heaviest] = max(counts[heaviest], 2)
    grids, last = [], None  # the previous window's hi and step
    for w, n in zip(windows, counts):
        if n < 2:
            continue
        xs = np.linspace(w.lo, w.hi, n)
        if not np.all(np.diff(xs) > 0):
            raise DomainError(
                f"{points} points cannot resolve the law's window [{w.lo:g}, {w.hi:g}] "
                "in double precision; tabulate the law on x values of your own")
        if last and last[0] < w.lo:
            grids.append(_gap_cells(*last, w.lo, xs[1] - xs[0]))
        grids.append(xs)
        last = (w.hi, xs[1] - xs[0])
    return _distinct(np.concatenate(grids)), int(np.count_nonzero(counts >= 2))


def _gap_cells(lo, lo_step, hi, hi_step) -> np.ndarray:
    """Points strictly between lo and hi: from each end, cells of twice,
    four times, ... that end's step, and the gap's midpoint where the two
    sides meet."""
    mid = 0.5 * lo + 0.5 * hi
    xs = [mid]
    for x, width, sign in ((lo, lo_step, 1.0), (hi, hi_step, -1.0)):
        while sign * (mid - x) > 2.0 * width:
            width *= 2.0
            x += sign * width
            xs.append(x)
    return np.array(xs)


def density_curve(spec: ProcessSpec, t, xs=None) -> DensityCurve:
    """The law at time t (the stationary law, with ``t`` inf, for t None)
    on xs, by default :func:`default_support`."""
    if xs is None:
        xs = default_support(spec, t)
    xs = np.asarray(xs, dtype=float)
    if t is None:
        values, t = stationary_pdf(spec, xs), math.inf
    elif isinstance(spec.clock, NonhomogeneousPoissonClock):
        values = npp_pdf(spec, xs, t)
    else:
        values = pdf(spec, xs, t)
    return DensityCurve(xs=xs, values=np.asarray(values), t=t)


def moment_table(spec: ProcessSpec, t: float, n_max: int) -> MomentTable:
    # an order holds about four Decimals of ~100 bytes: 50 values
    n_max = check_count(n_max, "n_max", 0, DomainError)
    check_size(50 * (n_max + 1), f"{n_max + 1} moment orders", "lower n_max")
    values = np.array(_moments(spec, t, range(n_max + 1)))
    return MomentTable(orders=np.arange(n_max + 1), values=values, t=t)
