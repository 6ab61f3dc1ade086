"""Estimators that turn ensembles and sample sets into comparable
artifacts: normalised histograms, empirical MSD curves with power-law
exponent fits, Kolmogorov-Smirnov distances, and empirical
characteristic functions.  The KS distance and the sample means and
standard deviations of ``checks`` work in fixed chunks, so their
temporaries do not grow with the number of samples."""

from dataclasses import dataclass
from typing import NamedTuple
import math

import numpy as np
from scipy import special

from .core import (
    DomainError,
    Ensemble,
    PoissonClock,
    ProcessSpec,
    SpecError,
    _CHUNK,
    _chunks,
)
from . import analytic
from .analytic import DensityCurve


@dataclass(frozen=True)
class MsdSeries:
    """Mean squared displacement on a time grid."""
    ts: np.ndarray
    msd: np.ndarray
    n_samples: int


def histogram_density(samples, bin_spec=None, t: float = math.nan) -> DensityCurve:
    """Normalised histogram as a DensityCurve on bin centres.

    Default binning is Freedman-Diaconis, which tolerates the heavy
    Laplace tails better than fixed-width rules.  ``bin_spec`` may be an
    int (bin count) or an array of edges.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise DomainError("no samples")
    lo, hi = samples.min(), samples.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("samples must be finite")
    if hi == lo:
        v = float(samples[0])
        return DensityCurve(xs=np.array([v]), values=np.array([1.0]), t=t)
    if bin_spec is None:
        edges = np.histogram_bin_edges(samples, bins="fd")
    elif np.ndim(bin_spec) == 0:
        edges = np.histogram_bin_edges(samples, bins=int(bin_spec))
    else:
        edges = np.asarray(bin_spec, dtype=float)
    density, edges = np.histogram(samples, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass = np.trapezoid(density, centers)
    if mass > 0:
        density = density / mass
    return DensityCurve(xs=centers, values=density, t=t)


def _msd_center(spec: ProcessSpec, ts: np.ndarray, positions: np.ndarray):
    """Reference path the displacement is measured against.

    With start == reset point the mean is that constant; a homogeneous
    Poisson clock has the exact mean formula; anything else falls back to
    the empirical mean.
    """
    if spec.x0 == spec.x_reset:
        return np.full(len(ts), spec.x_reset)
    if isinstance(spec.clock, PoissonClock):
        return analytic.mean(spec, ts)
    return positions.mean(axis=0)


def empirical_msd(ensemble: Ensemble, grid=None) -> MsdSeries:
    """Pointwise mean squared displacement about the process mean."""
    grid = np.asarray(ensemble.grid if grid is None else grid, dtype=float)
    positions = ensemble.positions_at(grid)
    center = _msd_center(ensemble.spec, grid, positions)
    msd = np.mean((positions - center) ** 2, axis=0)
    return MsdSeries(ts=grid, msd=msd, n_samples=len(ensemble))


def fit_power_law_exponent(series: MsdSeries, window=None) -> float:
    """Least-squares slope of log(msd) against log(t) over the window.

    Default window is the last decade of the series, where transients
    from the initial condition have died out.
    """
    ts = np.asarray(series.ts, dtype=float)
    msd = np.asarray(series.msd, dtype=float)
    if window is None:
        window = (ts.max() / 10.0, ts.max())
    lo, hi = window
    mask = (ts >= lo) & (ts <= hi) & (ts > 0)
    if mask.sum() < 10:
        raise DomainError("fit window must contain at least 10 points")
    if np.any(msd[mask] <= 0):
        raise DomainError("msd must be positive inside the fit window")
    slope = np.polyfit(np.log(ts[mask]), np.log(msd[mask]), 1)[0]
    return float(slope)


def ks_distance(samples, cdf_evaluator) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a supplied CDF.

    ``cdf_evaluator`` is called on consecutive slices of the sorted
    samples, each at most ``_CHUNK`` long, so it must work elementwise;
    its temporaries are then those of one slice.  The statistic is the
    running maximum over the slices, and the monotonicity check includes
    the step across each slice edge.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    if n < 10:
        raise DomainError("need at least 10 samples")
    if np.isnan(samples[-1]):  # np.sort puts NaN last
        raise DomainError("samples must not be NaN")
    above = below = previous = -math.inf
    for s in _chunks(n):
        part = samples[s]
        cdf = np.asarray(cdf_evaluator(part), dtype=float)
        if cdf.shape != part.shape:
            raise SpecError("cdf evaluator must return one value per sample")
        if np.isnan(cdf).any():
            raise SpecError("cdf evaluator returned NaN")
        if np.any(np.diff(cdf, prepend=previous) < -1e-12):
            raise SpecError("cdf evaluator is not monotone")
        steps = np.arange(s.start + 1, s.stop + 1) / n
        above = max(above, np.max(steps - cdf))
        below = max(below, np.max(cdf - (steps - 1.0 / n)))
        previous = cdf[-1]
    return float(max(above, below))


def _pairwise_sum(leaf, lo, hi):
    """``leaf(lo, hi)`` summed over the leaves of numpy's pairwise tree on
    range(lo, hi), leaves of at most ``_CHUNK``.

    numpy adds a contiguous float64 array pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993): it splits n > 128 values at n2 = n//2 - (n//2) % 8
    and adds the sums of the two halves.  Splitting the same way down to
    one chunk, where ``leaf`` returns ``np.add.reduce`` of its slice (or an
    array of such sums), gives ``np.add.reduce`` of the whole array bit for
    bit, with one slice's values alive at a time.
    """
    n = hi - lo
    if n <= _CHUNK:
        return leaf(lo, hi)
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(leaf, lo, lo + half) + _pairwise_sum(leaf, lo + half, hi)


def _means_and_stds(arrays, n):
    """``a.mean()`` and ``a.std()`` for each of some n-arrays a, bit for
    bit, as two float arrays, with no n-array held.

    ``arrays(lo, hi)`` yields slice [lo:hi] of each array in turn; it is
    called once per leaf in each of two passes, and each slice is reduced
    before the next is asked for, so it may reuse one buffer.  As numpy's ``_methods`` does,
    the mean is sum / n and the std sqrt(sum((a - mean)^2) / n), each sum
    taken by ``_pairwise_sum``.
    """
    def sums(lo, hi):
        return np.array([np.add.reduce(a) for a in arrays(lo, hi)])

    means = _pairwise_sum(sums, 0, n) / n

    def squares(lo, hi):
        out = []
        for a, mean in zip(arrays(lo, hi), means):
            d = a - mean
            out.append(np.add.reduce(np.multiply(d, d, out=d)))
        return np.array(out)

    return means, np.sqrt(_pairwise_sum(squares, 0, n) / n)


def _norm_cdf(z):
    return 0.5 * special.erfc(-z / math.sqrt(2.0))


def _laplace_cdf(x, rate, center):
    lam = math.sqrt(2.0 * rate)
    y = np.asarray(x, dtype=float) - center
    return np.where(y < 0, 0.5 * np.exp(lam * y), 1.0 - 0.5 * np.exp(-lam * y))


def analytic_cdf(spec: ProcessSpec, x, t: float):
    """Distribution function of the resetting process at time t.

    The Laplace and Gaussian pieces are exact; the convolution piece uses
    the closed form checked against quadrature in the test suite.
    """
    rate, a, b, c = analytic._poisson(spec, t)
    # as in analytic.pdf, and in the branches that np.where discards
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.asarray(x, dtype=float) / c
        if rate == 0.0:
            out = _norm_cdf((y - a) / math.sqrt(t))
        else:
            z = y - b
            left, right = analytic._conv_terms(z, t, math.sqrt(2.0 * rate))
            out = (_laplace_cdf(y, rate, b)
                   + math.exp(-rate * t)
                   * (_norm_cdf((y - a) / math.sqrt(t))
                      - (_norm_cdf(z / math.sqrt(t)) - 0.25 * (left - right))))
    return analytic._finite(np.clip(out, 0.0, 1.0), "the distribution function")


def cdf_from_density_curve(curve: DensityCurve):
    """Monotone CDF evaluator from a tabulated density (for KS tests
    against densities that lack a closed-form distribution function)."""
    xs, ys = np.asarray(curve.xs, dtype=float), np.asarray(curve.values, dtype=float)
    # the running trapezoid, in scipy's cumulative_trapezoid's order of operations
    cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)))
    if cum[-1] <= 0:
        raise DomainError("density curve has no mass")
    cum = cum / cum[-1]

    def evaluator(x):
        return np.interp(np.asarray(x, dtype=float), xs, cum, left=0.0, right=1.0)

    return evaluator


class EmpiricalCf(NamedTuple):
    value: complex
    stderr: float


def empirical_char_fn(samples, s: float) -> EmpiricalCf:
    """Sample average of exp(i s x) with a standard-error estimate."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 100:
        raise DomainError("need at least 100 samples")
    if not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise DomainError("samples must be finite")
    phases = np.exp(1j * s * samples)
    value = complex(phases.mean())
    stderr = math.sqrt((phases.real.var() + phases.imag.var()) / n)
    return EmpiricalCf(value=value, stderr=stderr)
