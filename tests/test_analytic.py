from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import integrate, special

from reset_sde import (
    DomainError,
    NonhomogeneousPoissonClock,
    PoissonClock,
    ProcessSpec,
    SpecError,
    marginal_samples,
)
from reset_sde import analytic
from reset_sde.core import NumericalError
from reset_sde.analytic import (
    ConvergenceError,
    char_fn,
    classify_regime,
    density_curve,
    gaussian_moment,
    kummer_phi,
    laplace_moment,
    laplace_pdf,
    mean,
    mgf,
    moment_table,
    normal_laplace_conv,
    npp_char_fn,
    npp_msd,
    npp_pdf,
    nth_moment,
    pdf,
    stationary_pdf,
    sum_moment,
)
from reset_sde import stats


def spec_poisson(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


def spec_npp(rate=1.0, p=0.0, d=0.5):
    return ProcessSpec(d, 0.0, 0.0, NonhomogeneousPoissonClock(rate, p))


class TestMgf:
    def test_normalised_at_zero(self):
        for t in (0.0, 0.3, 5.0):
            assert mgf(spec_poisson(2.0, 0.0, 1.0), 0.0, t) == pytest.approx(1.0)

    def test_no_resetting_reduces_to_brownian_mgf(self):
        spec = spec_poisson(0.0, x0=0.3)
        assert mgf(spec, 0.7, 1.3) == pytest.approx(
            math.exp(0.7 * 0.3 + 1.3 * 0.7 ** 2 / 2), rel=1e-14)

    def test_long_time_limit_is_laplace_mgf(self):
        spec = spec_poisson(2.0, 0.0, 1.0)
        limit = math.exp(1.0) / (1.0 - 1.0 / 4.0)
        assert mgf(spec, 1.0, 80.0) == pytest.approx(limit, rel=1e-12)

    def test_domain_error_at_and_beyond_edge(self):
        spec = spec_poisson(2.0)
        edge = math.sqrt(2 * 2.0)
        for s in (edge, edge + 0.5, -edge):
            with pytest.raises(DomainError, match="sqrt"):
                mgf(spec, s, 1.0)

    @given(s=hs.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_domain_property(self, s):
        spec = spec_poisson(1.0)
        if abs(s) >= math.sqrt(2.0):
            with pytest.raises(DomainError):
                mgf(spec, s, 0.5)
        else:
            assert mgf(spec, s, 0.5) > 0

    def test_general_diffusivity_rescales_domain(self):
        # D=2: domain |s| < sqrt(r/D) = sqrt(1/2)
        spec = ProcessSpec(2.0, 0.0, 0.0, PoissonClock(1.0))
        assert mgf(spec, 0.7, 1.0) > 0
        with pytest.raises(DomainError):
            mgf(spec, 0.71, 1.0)


class TestCharFn:
    def test_normalised_at_zero(self):
        assert char_fn(spec_poisson(1.0, 0.0, 2.0), 0.0, 0.5) == 1.0 + 0.0j

    def test_bounded_by_one_on_grid(self):
        spec = spec_poisson(1.0, 0.0, 2.0)
        ss = np.linspace(-25, 25, 401)
        assert np.all(np.abs(char_fn(spec, ss, 0.4)) <= 1.0 + 1e-12)

    @given(s=hs.floats(-20, 20), t=hs.floats(0.01, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_modulus_bound_property(self, s, t):
        assert abs(char_fn(spec_poisson(1.5, 0.3, -1.0), s, t)) <= 1.0 + 1e-12

    def test_equals_mgf_at_imaginary_argument(self):
        # phi(s) and M(i s) coincide where the MGF exists: check via the
        # analytic continuation identity M(s) evaluated on the real axis
        spec = spec_poisson(2.0, 0.5, 1.0)
        for s in (0.3, 1.0, 1.7):
            m_here = mgf(spec, s, 0.7)
            # reconstruct M(s) from the characteristic-function formula at -i s
            rate, t = 2.0, 0.7
            denom = rate - s * s / 2
            expected = rate * math.exp(s * 1.0) / denom \
                + (math.exp(s * 0.5) - rate * math.exp(s * 1.0) / denom) \
                * math.exp(-denom * t)
            assert m_here == pytest.approx(expected, rel=1e-12)

    def test_matches_empirical_cf(self):
        spec = spec_poisson(1.0, 0.0, 1.0)
        samples = marginal_samples(spec, 0.5, 100000, seed=50)
        for s in (-2.0, -1.0, 1.0, 2.0):
            est = stats.empirical_char_fn(samples, s)
            assert abs(est.value - char_fn(spec, s, 0.5)) < 3 * est.stderr

    def test_fourier_inversion_recovers_density(self):
        spec = spec_poisson(1.0, 0.0, 1.0)
        t = 0.7
        ss = np.arange(-2500.0, 2500.0, 0.01)
        phi = char_fn(spec, ss, t)
        for x in (-2.0, -0.5, 0.0, 0.8, 1.0, 2.5, 4.0):
            inv = float(np.real(np.trapezoid(np.exp(-1j * ss * x) * phi, ss))) / (2 * math.pi)
            assert inv == pytest.approx(pdf(spec, x, t), abs=1e-3)


class TestLaplacePdf:
    def test_value_at_center(self):
        assert laplace_pdf(1.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_normalisation(self):
        val, _ = integrate.quad(lambda x: laplace_pdf(x, 2.0, 1.0),
                                -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_variance_is_inverse_rate(self):
        var, _ = integrate.quad(lambda x: (x - 1.0) ** 2 * laplace_pdf(x, 2.0, 1.0),
                                -np.inf, np.inf)
        assert var == pytest.approx(1.0 / 2.0, rel=1e-9)


class TestNormalLaplaceConv:
    @pytest.mark.parametrize("t", [0.1, 1.0])
    @pytest.mark.parametrize("rate", [0.5, 2.0])
    def test_matches_direct_quadrature(self, t, rate):
        # the closed form is only trusted because of this oracle
        center = 0.5
        for x in (-3.0, 0.0, 0.5, 2.0, 8.0):
            direct, _ = integrate.quad(
                lambda u: math.exp(-(x - u) ** 2 / (2 * t))
                / math.sqrt(2 * math.pi * t) * laplace_pdf(u, rate, center),
                -np.inf, np.inf, limit=200)
            assert normal_laplace_conv(x, t, rate, center) == pytest.approx(
                direct, abs=1e-8)

    def test_normalisation(self):
        val, _ = integrate.quad(lambda x: normal_laplace_conv(x, 0.3, 1.0, 0.0),
                                -np.inf, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_short_time_collapses_to_laplace(self):
        for x in (-1.0, 0.2, 0.8):
            assert normal_laplace_conv(x, 1e-12, 2.0, 0.0) == pytest.approx(
                laplace_pdf(x, 2.0, 0.0), rel=1e-5)

    def test_far_tail_stays_finite_and_positive(self):
        # large rate*t once overflowed naive erfc formulations
        val = normal_laplace_conv(50.0, 30.0, 5.0, 0.0)
        assert 0 < val < 1e-15


class TestPdf:
    def test_no_resetting_is_gaussian(self):
        spec = spec_poisson(0.0, x0=0.5)
        xs = np.linspace(-4, 5, 101)
        gauss = np.exp(-(xs - 0.5) ** 2 / (2 * 0.7)) / math.sqrt(2 * math.pi * 0.7)
        assert np.allclose(pdf(spec, xs, 0.7), gauss, rtol=1e-12)

    def test_long_time_limit_is_stationary(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        xs = np.linspace(-5, 11, 801)
        sup = np.max(np.abs(pdf(spec, xs, 50.0) - stationary_pdf(spec, xs)))
        assert sup < 1e-6

    def test_mass_and_positivity(self):
        spec = spec_poisson(1.0, 0.0, 3.0)
        for t in (0.05, 0.5, 3.0):
            mass, _ = integrate.quad(lambda x: pdf(spec, x, t), -np.inf, np.inf,
                                     limit=300)
            assert mass == pytest.approx(1.0, abs=1e-8)
        xs = np.linspace(-30, 30, 4001)
        assert np.all(pdf(spec, xs, 0.1) >= 0.0)

    def test_exponential_approach_to_stationarity(self):
        # sup-norm gap decays like exp(-r t): log-slope within 10% of -r
        spec = spec_poisson(1.0, 0.0, 1.0)
        xs = np.linspace(-7, 9, 1201)
        ts = np.linspace(10.0, 20.0, 6)
        gaps = [np.max(np.abs(pdf(spec, xs, t) - stationary_pdf(spec, xs)))
                for t in ts]
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_general_diffusivity_follows_scaling(self):
        spec_d = ProcessSpec(2.0, 0.0, 1.0, PoissonClock(1.0))
        samples = marginal_samples(spec_d, 0.6, 100000, seed=31)
        ks = stats.ks_distance(samples, lambda v: stats.analytic_cdf(spec_d, v, 0.6))
        assert ks < 0.01


class TestMean:
    def test_boundary_values(self):
        spec = spec_poisson(1.0, x0=1.5, xr=5.0)
        assert mean(spec, 0.0) == pytest.approx(1.5)
        assert mean(spec, 200.0) == pytest.approx(5.0)

    def test_matches_monte_carlo_at_figure_settings(self):
        spec = spec_poisson(1.0, 0.0, 5.0)
        for t in (0.1, 0.5, 1.5):
            xs = marginal_samples(spec, t, 100000, seed=int(1000 * t))
            assert abs(xs.mean() - mean(spec, t)) \
                < 3 * xs.std() / math.sqrt(len(xs))


class TestMomentPieces:
    def test_laplace_moments(self):
        assert laplace_moment(2, 0.5) == pytest.approx(2.0)
        assert laplace_moment(3, 1.0) == 0.0
        quad, _ = integrate.quad(lambda x: x ** 4 * laplace_pdf(x, 1.0, 0.0),
                                 -np.inf, np.inf)
        assert laplace_moment(4, 1.0) == pytest.approx(quad, rel=1e-9)
        assert laplace_moment(4, 1.0) == pytest.approx(6.0)

    def test_kummer_basics(self):
        assert kummer_phi(0.3, 1.7, 0.0) == 1.0
        for c in (2.5, -1.5, 7.0):
            assert kummer_phi(1.0, 1.0, c) == pytest.approx(math.exp(c), rel=1e-11)
        z = 0.7
        assert kummer_phi(-1.0, 0.5, -z) == pytest.approx(1 + 2 * z, rel=1e-12)

    def test_kummer_against_scipy(self):
        rng = np.random.default_rng(14)
        for _ in range(150):
            a = rng.uniform(-3, 3)
            b = rng.uniform(0.3, 4.0)
            c = rng.uniform(-8, 8)
            ref = special.hyp1f1(a, b, c)
            assert kummer_phi(a, b, c) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_kummer_pole_and_budget(self):
        with pytest.raises(DomainError):
            kummer_phi(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            kummer_phi(1.0, -2.0, 0.5)
        with pytest.raises(ConvergenceError):
            kummer_phi(0.5, 1.5, 800.0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            kummer_phi(0.5, 1.5, 400.0)

    def test_gaussian_moments(self):
        assert gaussian_moment(2, 0.0, 3.0) == pytest.approx(3.0)
        assert gaussian_moment(1, 2.0, 1.0) == pytest.approx(2.0)
        assert gaussian_moment(3, 0.0, 1.0) == 0.0
        for n, x0, t in ((4, 1.0, 0.5), (6, 1.3, 0.8), (5, -0.7, 2.0)):
            quad, _ = integrate.quad(
                lambda x: x ** n * math.exp(-(x - x0) ** 2 / (2 * t))
                / math.sqrt(2 * math.pi * t), -np.inf, np.inf)
            assert gaussian_moment(n, x0, t) == pytest.approx(quad, rel=1e-10)

    def test_gaussian_moment_large_order_and_offset(self):
        # The Kummer route overflows here; the finite sum is checked
        # against the same sum in exact rational arithmetic.
        n, x0, t = 60, 50.0, 0.7
        x0_q, t_q = Fraction(x0), Fraction(t)
        exact = sum(math.comb(n, 2 * k) * math.prod(range(2 * k - 1, 0, -2))
                    * x0_q ** (n - 2 * k) * t_q ** k for k in range(n // 2 + 1))
        assert gaussian_moment(n, x0, t) == pytest.approx(float(exact), rel=1e-12)
        spec = spec_poisson(1.0, x0, 0.0)
        assert math.isfinite(nth_moment(spec, n, t))
        with pytest.raises(NumericalError, match="overflows"):
            gaussian_moment(400, x0, t)

    def test_gaussian_moment_matches_kummer_form(self):
        def kummer_form(n, x0, t):
            z = -x0 * x0 / (2.0 * t)
            if n % 2 == 0:
                return (math.sqrt(2.0 * t) ** n * math.gamma((n + 1) / 2.0)
                        / math.sqrt(math.pi) * kummer_phi(-n / 2.0, 0.5, z))
            return (x0 * math.sqrt(t) ** (n - 1) * 2.0 ** ((n + 1) / 2.0)
                    * math.gamma(n / 2.0 + 1.0) / math.sqrt(math.pi)
                    * kummer_phi((1.0 - n) / 2.0, 1.5, z))

        for x0, t in ((1.0, 0.5), (1.3, 0.8), (-0.7, 2.0), (3.0, 0.2)):
            for n in range(13):
                assert gaussian_moment(n, x0, t) == pytest.approx(
                    kummer_form(n, x0, t), rel=1e-10, abs=1e-12)

    def test_sum_moments(self):
        assert sum_moment(2, 1.0, 0.5) == pytest.approx(3.0)
        assert sum_moment(3, 1.0, 1.0) == 0.0
        direct, _ = integrate.dblquad(
            lambda l, w: (w + l) ** 4
            * math.exp(-w ** 2 / 2) / math.sqrt(2 * math.pi)
            * laplace_pdf(l, 1.0, 0.0),
            -np.inf, np.inf, -np.inf, np.inf)
        assert sum_moment(4, 1.0, 1.0) == pytest.approx(direct, rel=1e-6)


class TestNthMoment:
    def test_first_moment_consistency_with_mean(self):
        assert nth_moment(spec_poisson(1.0, 0.0, 0.0), 1, 1.0) == 0.0
        spec = spec_poisson(1.0, 2.0, 0.0)
        assert nth_moment(spec, 1, 1.0) == pytest.approx(2 * math.exp(-1.0), rel=1e-12)
        assert nth_moment(spec, 1, 1.0) == pytest.approx(mean(spec, 1.0), rel=1e-12)

    def test_long_time_second_moment_is_stationary_variance(self):
        assert nth_moment(spec_poisson(1.0), 2, 60.0) == pytest.approx(1.0, rel=1e-12)

    def test_nonzero_reset_point_is_rejected_towards_quadrature(self):
        with pytest.raises(DomainError, match="quadrature"):
            nth_moment(spec_poisson(1.0, 0.0, 2.0), 2, 1.0)

    def test_moment_table_invariants(self):
        table = moment_table(spec_poisson(1.0, 0.0, 0.0), 1.0, 6)
        assert table.values[0] == 1.0
        assert np.all(table.values[1::2] == 0.0)


class TestNppTransforms:
    def test_normalised_at_zero(self):
        for p in (-0.5, 0.7):
            assert npp_char_fn(spec_npp(1.0, p), 0.0, 2.3) == pytest.approx(1.0 + 0j)

    def test_constant_exponent_reduces_to_homogeneous(self):
        hom = spec_poisson(1.0)
        npp = spec_npp(1.0, 0.0)
        for s in (0.3, 1.0, 2.5):
            for t in (0.2, 1.0, 5.0):
                assert abs(npp_char_fn(npp, s, t) - char_fn(hom, s, t)) < 1e-8

    def test_large_time_laplace_asymptote(self):
        spec = spec_npp(1.0, -0.5)
        t = 400.0
        for s in (0.5, 1.0, 2.0):
            asym = 1.0 / (1.0 + s * s / (2.0 * (t + 1.0) ** -0.5))
            assert npp_char_fn(spec, s, t).real == pytest.approx(asym, rel=0.02)

    def test_requires_centered_process(self):
        bad = ProcessSpec(0.5, 1.0, 0.0, NonhomogeneousPoissonClock(1.0, 0.5))
        with pytest.raises(DomainError, match="x0"):
            npp_char_fn(bad, 1.0, 1.0)
        with pytest.raises(SpecError):
            npp_char_fn(spec_poisson(1.0), 1.0, 1.0)


class TestNppPdf:
    def test_constant_exponent_matches_homogeneous_density(self):
        xs = np.linspace(-6, 6, 41)
        diff = np.abs(npp_pdf(spec_npp(1.0, 0.0), xs, 1.0)
                      - pdf(spec_poisson(1.0), xs, 1.0))
        assert np.max(diff) < 1e-6

    @pytest.mark.parametrize("p", [-0.5, 0.5])
    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_normalisation(self, p, t):
        spec = spec_npp(1.0, p)
        xs = np.linspace(-12.0, 12.0, 4001)
        assert np.trapezoid(npp_pdf(spec, xs, t), xs) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("p, t", [(4.0, 100.0), (2.0, 1000.0)])
    def test_normalisation_under_strongly_growing_intensity(self, p, t):
        # the density sits in a thin boundary layer of last-reset times
        spec = spec_npp(1.0, p)
        half = 20.0 * math.sqrt(npp_msd(spec, t))
        xs = np.linspace(-half, half, 8001)
        assert np.trapezoid(npp_pdf(spec, xs, t), xs) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("rate, p, t", [(1e300, 0.0, 1.0), (1e300, -0.5, 1.0),
                                            (1e200, 0.5, 2.0)])
    def test_huge_intensity_is_the_laplace_law_at_r_t(self, rate, p, t):
        # the last reset is within ~1/r(t) of t, so the law is Laplace at
        # rate r(t); the quadrature stops where the survival passes e^-700
        rate_t = rate * (t + 1.0) ** p
        xs = np.linspace(-10.0, 10.0, 41) / math.sqrt(2.0 * rate_t)
        ref = laplace_pdf(xs, rate_t, 0.0)
        assert np.max(np.abs(npp_pdf(spec_npp(rate, p), xs, t) / ref - 1.0)) < 1e-10



def _oracle_cumulative(rate, p, t):
    if p == -1.0:
        return rate * math.log1p(t)
    return rate / (p + 1.0) * ((t + 1.0) ** (p + 1.0) - 1.0)


_ORACLE_OPTS = dict(epsabs=1e-14, epsrel=1e-12, limit=400)


def oracle_npp_pdf(rate, p, x, t):
    """Unit-frame density at one point by its own quad call, in the
    variable v = sqrt(t - w) of the last reset time w."""
    total = _oracle_cumulative(rate, p, t)

    def integrand(v):
        if v == 0.0:
            return 0.0
        w = t - v * v
        expo = _oracle_cumulative(rate, p, w) - total - x * x / (2.0 * v * v)
        return 2.0 / math.sqrt(2.0 * math.pi) * rate * (w + 1.0) ** p * math.exp(expo)

    top = math.sqrt(t)
    layer = 1.0 / math.sqrt(rate * (t + 1.0) ** p + 1.0)
    breaks = sorted(b for b in {layer, top / 2.0} if 0.0 < b < top)
    tail, _ = integrate.quad(integrand, 0.0, top, points=breaks, **_ORACLE_OPTS)
    head = math.exp(-total - x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return head + tail


def oracle_npp_char_fn(rate, p, s, t):
    """Unit-frame characteristic function at one point by its own quad
    call, directly in the last reset time w."""
    total = _oracle_cumulative(rate, p, t)

    def integrand(w):
        return rate * (w + 1.0) ** p * math.exp(
            _oracle_cumulative(rate, p, w) - total - 0.5 * (t - w) * s * s)

    near = t - 1.0 / (rate * (t + 1.0) ** p)
    tail, _ = integrate.quad(integrand, 0.0, t, points=[near] if 0.0 < near < t else None,
                             **_ORACLE_OPTS)
    return math.exp(-total - 0.5 * t * s * s) + tail


class TestNppVectorisedQuadrature:
    """One quad_vec call per curve must reproduce per-point quad to 1e-10
    of the curve's peak."""

    @pytest.mark.parametrize("p", [-1.5, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("t", [0.1, 5.0])
    def test_pdf_matches_per_point_oracle(self, p, t):
        spec = spec_npp(1.0, p)
        xs = analytic.default_support(spec, t, points=81)
        values = npp_pdf(spec, xs, t)
        oracle = np.array([oracle_npp_pdf(1.0, p, x, t) for x in xs])
        assert np.max(np.abs(values - oracle)) <= 1e-10 * oracle.max()

    @pytest.mark.parametrize("p", [-1.5, -0.5, 0.5, 2.0])
    @pytest.mark.parametrize("t", [0.1, 5.0])
    def test_char_fn_matches_per_point_oracle(self, p, t):
        spec = spec_npp(1.0, p)
        ss = np.linspace(0.0, 8.0 / math.sqrt(npp_msd(spec, t)), 41)
        values = npp_char_fn(spec, ss, t)
        oracle = np.array([oracle_npp_char_fn(1.0, p, s, t) for s in ss])
        assert np.all(values.imag == 0.0)
        assert np.max(np.abs(values.real - oracle)) <= 1e-10 * oracle.max()

    def test_scalar_and_array_evaluations_agree(self):
        spec = spec_npp(1.0, -0.5)
        xs = np.array([-1.0, 0.0, 0.7])
        curve = npp_pdf(spec, xs, 2.0)
        for x, v in zip(xs, curve):
            assert isinstance(npp_pdf(spec, x, 2.0), float)
            assert npp_pdf(spec, x, 2.0) == pytest.approx(v, rel=1e-8, abs=1e-12)
        assert isinstance(npp_char_fn(spec, 1.0, 2.0), complex)

    def test_general_diffusivity_rescales(self):
        unit, wide = spec_npp(1.0, 0.5), spec_npp(1.0, 0.5, d=2.0)
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(npp_pdf(wide, 2.0 * xs, 1.5), npp_pdf(unit, xs, 1.5) / 2.0,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(npp_char_fn(wide, xs / 2.0, 1.5), npp_char_fn(unit, xs, 1.5),
                           rtol=1e-12, atol=0.0)


class TestQuadrature:
    def test_scalar_and_vector_paths_integrate(self):
        assert analytic.quadrature(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0,
                                                                        rel=1e-12)
        ks = np.array([1.0, 2.0, 3.0])
        out = analytic.quadrature(lambda x: np.exp(ks * x), 0.0, 1.0, vector=True)
        assert np.allclose(out, np.expm1(ks) / ks, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("vector", [False, True])
    def test_error_estimate_beyond_tolerance_raises(self, vector):
        spike = lambda x: np.full(2, 1.0 / (x * x + 1e-8)) if vector else 1.0 / (x * x + 1e-8)
        with pytest.raises(ConvergenceError, match="error estimate"):
            analytic.quadrature(spike, -1.0, 1.0, vector=vector, limit=2)

    def test_npp_pdf_reports_unconverged_quadrature(self, monkeypatch):
        # A tolerance below the rounding floor cannot be met.
        monkeypatch.setitem(analytic._QUAD_OPTS, "epsrel", 1e-15)
        monkeypatch.setitem(analytic._QUAD_OPTS, "limit", 1)
        with pytest.raises(ConvergenceError):
            npp_pdf(spec_npp(1.0, -0.5), np.linspace(-3.0, 3.0, 7), 5.0)


class TestNppMsd:
    def test_constant_exponent_closed_form(self):
        spec = spec_npp(1.0, 0.0)
        for t in (0.5, 2.0, 10.0):
            assert npp_msd(spec, t) == pytest.approx(1 - math.exp(-t), rel=1e-10)

    def test_log_intensity_closed_form(self):
        assert npp_msd(spec_npp(1.0, -1.0), 9.0) == pytest.approx(4.95, rel=1e-12)
        # quadrature cross-check of the closed form
        direct, _ = integrate.quad(
            lambda w: math.exp(math.log1p(w) - math.log1p(9.0)), 0.0, 9.0)
        assert direct == pytest.approx(4.95, rel=1e-10)

    @pytest.mark.parametrize("rate, p, t, about", [(10.0, -3.0, 1000.0, 997.0),
                                                    (1.0, -400.0, 10.0, 10.0)])
    def test_fast_decaying_intensity(self, rate, p, t, about):
        # nearly all resets happen early, so the mean age is close to t;
        # cross-checked by quad directly in the last reset time w
        total = _oracle_cumulative(rate, p, t)
        direct, _ = integrate.quad(
            lambda w: math.exp(_oracle_cumulative(rate, p, w) - total), 0.0, t,
            limit=200)
        assert direct == pytest.approx(about, abs=0.1)
        assert npp_msd(spec_npp(rate, p), t) == pytest.approx(direct, rel=1e-8)

    def test_huge_rate_keeps_breakpoints_inside_the_quadrature_limit(self):
        # f(t) t = 1e300 once asked for 498 geometric breakpoints from 1/f(t)
        rate = 1e300
        assert npp_msd(spec_npp(rate, 0.0), 1.0) == pytest.approx(
            -math.expm1(-rate) / rate, rel=1e-10)

    def test_growing_intensity_scaling_limit(self):
        spec = spec_npp(1.0, 0.5)
        t = 200.0
        assert npp_msd(spec, t) * (t + 1.0) ** 0.5 == pytest.approx(1.0, rel=0.05)

    def test_diffusivity_scaling(self):
        unit = spec_npp(1.0, -0.5)
        doubled = ProcessSpec(1.0, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        assert npp_msd(doubled, 3.0) == pytest.approx(2.0 * npp_msd(unit, 3.0),
                                                      rel=1e-12)


class TestRegimes:
    @pytest.mark.parametrize("p,exponent,law", [
        (0.5, -0.5, "degenerate"),
        (0.0, 0.0, "laplace-stationary"),
        (-0.5, 0.5, "laplace-nonstationary"),
        (-1.0, 1.0, "laplace-nonstationary"),
        (-2.0, 1.0, "gaussian-laplace"),
    ])
    def test_regime_table(self, p, exponent, law):
        info = classify_regime(p)
        assert info.exponent == pytest.approx(exponent)
        assert info.law == law
        assert info.as_json() == {"exponent": info.exponent, "law": law}


class TestCurves:
    def test_density_curve_mass_invariant(self):
        curve = density_curve(spec_poisson(1.0, 0.0, 3.0), 0.5)
        assert abs(curve.mass() - 1.0) < 1e-3

    def test_stationary_curve_matches_laplace(self):
        spec = spec_poisson(2.0, 0.0, 1.0)
        curve = analytic.stationary_curve(spec)
        assert np.allclose(curve.values, stationary_pdf(spec, curve.xs))

    def test_curve_csv(self, tmp_path):
        curve = density_curve(spec_poisson(1.0), 1.0)
        path = tmp_path / "c.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == len(curve.xs) + 1


class TestTypedErrors:
    @pytest.mark.parametrize("call, error", [
        (lambda: analytic.laplace_moment(-1, 1.0), DomainError),
        (lambda: gaussian_moment(-1, 0.0, 1.0), DomainError),
        (lambda: analytic.sum_moment(-1, 1.0, 1.0), DomainError),
        (lambda: analytic.nth_moment(ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)),
                                     -1, 1.0), DomainError),
        (lambda: analytic._fd_weights(np.array([-1.0, 1.0]), 2), SpecError),
        (lambda: analytic.moment_from_mgf(ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)),
                                          13, 1.0), SpecError),
        (lambda: mgf(spec_poisson(1.0, x0=1e9), 0.5, 1.0), NumericalError),
        (lambda: mgf(spec_poisson(0.0, x0=1e9), 0.5, 1.0), NumericalError),
        (lambda: nth_moment(spec_poisson(1.0, d=1e300), 6, 1.0), NumericalError),
        (lambda: npp_msd(spec_npp(1.0, 1e9), 1.0), DomainError),
        (lambda: npp_pdf(spec_npp(1.0, 1e9), 0.0, 1.0), DomainError),
        (lambda: npp_msd(spec_npp(1.0, 0.0), math.inf), DomainError),
        (lambda: npp_pdf(spec_npp(1.0, 0.0), 0.0, math.inf), DomainError),
        (lambda: npp_char_fn(spec_npp(1.0, 0.0), 1.0, math.inf), DomainError),
        # at the edge of the double range: a value left undefined or too large
        (lambda: mgf(spec_poisson(1e300, x0=1e300), np.float64(1e147), 1.0), NumericalError),
        (lambda: char_fn(spec_poisson(1.0, d=1e300), 1e300, 1.0), NumericalError),
        (lambda: npp_char_fn(spec_npp(1.0, 1e9), 1.0, 1.0), DomainError),
        (lambda: npp_pdf(spec_npp(1.0, 0.5), 0.0, 1e300), DomainError),
        (lambda: npp_msd(spec_npp(1.0, 0.5), 1e300), DomainError),
        (lambda: npp_msd(spec_npp(1.0, -1.0, d=1e300), 1e300), NumericalError),
        (lambda: analytic.spatial_scale(spec_poisson(1.0, d=1e9), 1e300), NumericalError),
    ], ids=["laplace", "gaussian", "sum", "nth", "fd-weights",
            "mgf-stencil", "mgf-overflow", "mgf-overflow-rate-0", "moment-overflow",
            "npp-msd-overflow", "npp-pdf-overflow", "npp-msd-infinite-t",
            "npp-pdf-infinite-t", "npp-cf-infinite-t", "mgf-undefined", "char-fn-undefined",
            "npp-cf-integral-overflow", "npp-pdf-integral-overflow",
            "npp-msd-integral-overflow", "npp-msd-infinite", "spatial-scale-overflow"])
    def test_bad_arguments_raise_typed_errors(self, call, error):
        with pytest.raises(error):
            call()

    # Every time argument of a closed form passes one check: t finite, and
    # positive where the form excludes t = 0, for a scalar and for each
    # element of an array.
    @pytest.mark.parametrize("call, positive", [
        (lambda t: mgf(spec_poisson(1.0), 0.5, t), False),
        (lambda t: char_fn(spec_poisson(1.0), 0.5, t), False),
        (lambda t: pdf(spec_poisson(1.0), 0.5, t), True),
        (lambda t: mean(spec_poisson(1.0), [1.0, t]), False),
        (lambda t: nth_moment(spec_poisson(1.0, x0=1.0), 2, t), True),
        (lambda t: analytic.moment_from_mgf(spec_poisson(1.0, x0=1.0), 2, t), False),
        (lambda t: gaussian_moment(2, 0.0, t), True),
        (lambda t: normal_laplace_conv(0.5, t, 1.0, 0.0), True),
        (lambda t: npp_char_fn(spec_npp(1.0, 0.0), 0.5, t), False),
        (lambda t: npp_pdf(spec_npp(1.0, 0.0), 0.5, t), True),
        (lambda t: npp_msd(spec_npp(1.0, 0.0), t), False),
        (lambda t: analytic.spatial_scale(spec_poisson(1.0), t), False),
        (lambda t: stats.analytic_cdf(spec_poisson(1.0), 0.5, t), True),
    ], ids=["mgf", "char-fn", "pdf", "mean", "nth-moment", "moment-from-mgf",
            "gaussian-moment", "normal-laplace-conv", "npp-char-fn", "npp-pdf", "npp-msd",
            "spatial-scale", "analytic-cdf"])
    def test_time_must_be_finite(self, call, positive):
        word = "positive" if positive else "nonnegative"
        for t in (math.inf, math.nan, -1.0, np.float64(math.inf)) + ((0.0,) if positive else ()):
            with pytest.raises(DomainError, match=f"t must be {word} and finite"):
                call(t)
        call(1.0)
        call(np.float64(1.0))

    # Arguments at the edge of the double range: a term whose overflow only
    # takes it to its limit gives that limit, never NaN or a numpy warning
    # (which the test configuration turns into an error).
    def test_overflowing_terms_reach_their_limit(self):
        assert pdf(spec_poisson(1.0, xr=1e300), [1e300, 2e299], 1.0)[1] == 0.0
        assert pdf(spec_poisson(0.0), 1e200, 1.0) == 0.0
        assert stationary_pdf(spec_poisson(1e300), 1e300) == 0.0
        assert char_fn(spec_poisson(1.0), 1e300, 1.0) == 0.0
        assert mean(spec_poisson(1e9, x0=1.0), np.array([1e300]))[0] == 0.0
        assert mgf(spec_poisson(1e9), np.float64(1.0), 1e300) == pytest.approx(1.0)
        assert np.array_equal(stats.analytic_cdf(spec_poisson(5000.0), [10.0, -10.0], 1.0),
                              [1.0, 0.0])
        assert npp_char_fn(spec_npp(1.0, -0.5), 1e300, 1.0) == 0.0
