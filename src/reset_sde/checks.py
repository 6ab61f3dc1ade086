"""Cross-checks between the routes that describe one resetting process:
Monte Carlo marginals, closed forms, quadrature, the Fokker-Planck
solvers and the generator/adjoint pair.

``reset-sde validate`` and the acceptance tests both call these.  Each
function returns only its statistic; the caller chooses the sizes, seeds
and tolerance and labels the result.  The checks that use ``fpe`` import
it, so that a suite without them leaves it unloaded: loaded before the
moments suite's 200,000 samples, it raises that suite's peak memory by
about 0.5 MiB.
"""

import math

import numpy as np

from . import analytic, stats
from .core import DomainError
from .simulate import euler_marginal_samples, marginal_samples


def marginal_ks(spec, t, n, seed, dt=None):
    """KS distance of n exact marginals at time t (Euler marginals on the
    dt lattice when dt is given) from the closed-form distribution."""
    if dt is None:
        xs = marginal_samples(spec, t, n, seed=seed)
    else:
        xs = euler_marginal_samples(spec, t, dt, n, seed=seed)
    return stats.ks_distance(xs, lambda v: stats.analytic_cdf(spec, v, t))


def npp_marginal_ks(spec, t, n, seed, xs):
    """KS distance of n power-law-clock marginals at time t from the
    quadrature density tabulated on xs."""
    samples = marginal_samples(spec, t, n, seed=seed)
    curve = analytic.npp_density_curve(spec, t, xs)
    return stats.ks_distance(samples, stats.cdf_from_density_curve(curve))


def moment_errors(spec, t, orders):
    """Per order n, the relative errors of ``nth_moment`` against the
    quadrature of x^n p(x, t) and against the MGF's derivatives
    (``_mgf_derivatives``, the stencil of ``moment_from_mgf``).

    One vectorised quadrature integrates every order, over u = x / sqrt(2D),
    so the density's width does not depend on D.  Its error norm is a max
    over the components, so order n is divided by w_n = sqrt(E X^2n) >=
    |E X^n| (Cauchy-Schwarz), positive for D, t > 0: each order is then
    held to the tolerance at its own scale, not at that of the largest.
    Order 0, the density's mass, rides along with w_0 = 1: a mass further
    from 1 than the tolerance means the quadrature missed part of the
    density, and raises ConvergenceError.  A moment of 0 has no relative
    error and raises DomainError.
    """
    orders = list(orders)
    closed = [analytic.nth_moment(spec, n, t) for n in orders]
    if 0.0 in closed:
        raise DomainError(f"moment {orders[closed.index(0.0)]} is 0, so its relative "
                          "error is undefined")
    powers = np.array([0] + orders)[:, None]
    w = np.sqrt([1.0] + [analytic.nth_moment(spec, 2 * n, t) for n in orders])
    scale = math.sqrt(2.0 * spec.diffusivity)
    eps = 1.49e-8  # scipy's default quad tolerances; dx = scale du

    def integrand(u):
        x = scale * u
        return x ** powers * (analytic.pdf(spec, x, t) * scale) / w[:, None]

    quad = analytic.quadrature(integrand, -np.inf, np.inf, epsabs=eps, epsrel=eps, limit=300)
    tolerance = max(eps, eps * np.max(np.abs(quad)))
    if not abs(quad[0] - 1.0) <= tolerance:
        raise analytic.ConvergenceError(
            f"the quadrature of the density has mass {quad[0]:.10g}, not 1 within "
            f"{tolerance:g}: it missed part of the density at t = {t:g}")
    quad = (w * quad)[1:].tolist()
    fd = analytic._mgf_derivatives(spec, orders, t)
    return [(abs(c - q) / abs(q), abs(c - f) / abs(c)) for c, q, f in zip(closed, quad, fd)]


def moment_z_scores(spec, t, n, seed, orders):
    """Per order, the z-score of the n-sample mean of x^order at time t
    against ``nth_moment``; the powers are built by repeated products,
    from the samples themselves up."""
    samples = marginal_samples(spec, t, n, seed=seed)
    scores = []
    power, k = np.ones_like(samples), 0
    for order in orders:
        if order < k:  # the ladder only climbs
            power, k = np.ones_like(samples), 0
        while k < order:
            power *= samples
            k += 1
        scores.append((power.mean() - analytic.nth_moment(spec, order, t))
                      / (power.std() / math.sqrt(len(power))))
    return scores


def fpe_l1_distances(spec, t, h, dt):
    """L1 distances at time t on the default grid of step h: plain-source
    solve vs weighted-source solve, and each solve vs the closed form."""
    from . import fpe
    grid = fpe.default_grid(spec, t, h=h, dt=dt)
    ev = fpe.solve_fpe_evans(spec, grid, t)
    fl = fpe.solve_fpe_delta_fl(spec, grid, t)
    ref = analytic.pdf(spec, ev.xs, t)
    return (np.trapezoid(np.abs(ev.values - fl.values), ev.xs),
            np.trapezoid(np.abs(ev.values - ref), ev.xs),
            np.trapezoid(np.abs(fl.values - ref), fl.xs))


def stationary_linf(spec, h):
    """Max-norm distance of the stationary solve (grid step h) from the
    Laplace density."""
    from . import fpe
    curve = fpe.stationary_fpe(spec, fpe.default_grid(spec, None, h=h))
    return np.max(np.abs(curve.values - analytic.stationary_pdf(spec, curve.xs)))


def duality_residual(spec, xs, rng, draws=1):
    """Worst |<L g, f> - <g, L* f>| on the uniform grid xs over ``draws``
    pairs of standard normal vectors g, f from rng."""
    from . import fpe
    h = xs[1] - xs[0]
    worst = 0.0
    for _ in range(draws):
        g = rng.standard_normal(len(xs))
        f = rng.standard_normal(len(xs))
        lhs = h * np.dot(fpe.apply_generator(g, xs, spec), f)
        rhs = h * np.dot(g, fpe.apply_adjoint(f, xs, spec))
        worst = max(worst, abs(lhs - rhs))
    return worst


def dynkin_z(spec, t, n, seed):
    """z-score of d/dt E[x^2], a central difference of step 1e-3, against
    the generator prediction, using common random numbers across the
    three time points."""
    delta = 1e-3
    lo = marginal_samples(spec, t - delta, n, seed=seed)
    mid = marginal_samples(spec, t, n, seed=seed)
    hi = marginal_samples(spec, t + delta, n, seed=seed)
    drift = (hi ** 2 - lo ** 2) / (2 * delta)
    generator = (2.0 * spec.diffusivity
                 + spec.clock.rate * (spec.x_reset ** 2 - mid ** 2))
    residual = drift - generator
    return residual.mean() / (residual.std() / math.sqrt(n))


def adjoint_l1(spec, xs, t):
    """L1 distance on xs between the central difference (step 1e-5) in
    time of the closed-form density and the adjoint applied to it at
    time t."""
    from . import fpe
    d = 1e-5
    p_mid = analytic.pdf(spec, xs, t)
    dpdt = (analytic.pdf(spec, xs, t + d) - analytic.pdf(spec, xs, t - d)) / (2 * d)
    return np.trapezoid(np.abs(dpdt - fpe.apply_adjoint(p_mid, xs, spec)), xs)


def msd_tail(spec, series):
    """The MSD series' relative error at its last time T against
    ``npp_msd``, and its change over the last decade, msd(T) - msd(T/10)."""
    horizon = float(series.ts[-1])
    target = analytic.npp_msd(spec, horizon)
    tail = series.msd[-1]
    return (abs(tail - target) / target,
            tail - np.interp(horizon / 10.0, series.ts, series.msd))
