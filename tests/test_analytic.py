import decimal
from decimal import Decimal
from fractions import Fraction
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy import integrate, special

from reset_sde import (
    DeterministicGaps,
    DomainError,
    NonhomogeneousPoissonClock,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    SpecError,
    marginal_samples,
)
from reset_sde import analytic
from reset_sde.clocks import sample_reset_times
from reset_sde.core import NumericalError
from reset_sde.analytic import (
    ConvergenceError,
    char_fn,
    classify_regime,
    density_curve,
    gaussian_moment,
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
)
from reset_sde import stats


def spec_poisson(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


def spec_npp(rate=1.0, p=0.0, d=0.5):
    return ProcessSpec(d, 0.0, 0.0, NonhomogeneousPoissonClock(rate, p))


# The paper's route to the moments at reset point 0, in the unit frame:
# E X_t^n = E L^n + e^{-rt} (E (x0 + W)^n - E (W + L)^n), W ~ Normal(0, t)
# and L the centred Laplace law of scale (2r)^(-1/2), independent.  Each
# piece is exact in rational arithmetic, over one denominator; only
# e^{-rt} is rounded, in Decimal at enough digits to survive the
# subtraction (t = 0.1 at order 400 cancels about 600 of 1300).

def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def paper_gaussian(n, x0, t):
    """E (x0 + W)^n = sum_k C(n, 2k) (2k-1)!! x0^(n-2k) t^k."""
    (a, b), (p, q), half = x0.as_integer_ratio(), t.as_integer_ratio(), n // 2
    return Fraction(sum(math.comb(n, 2 * k) * _double_factorial(2 * k - 1) * a ** (n - 2 * k)
                        * b ** (2 * k) * p ** k * q ** (half - k) for k in range(half + 1)),
                    b ** n * q ** half)


def paper_laplace(n, rate):
    """E L^n = n! / (2 rate)^(n/2) for even n, 0 for odd n."""
    if n % 2:
        return Fraction(0)
    p, q = rate.as_integer_ratio()
    return Fraction(math.factorial(n) * q ** (n // 2), (2 * p) ** (n // 2))


def paper_sum(n, t, rate):
    """E (W + L)^n = sum over even j of C(n, j) E W^j E L^(n-j)."""
    if n % 2:
        return Fraction(0)
    (p, q), (rp, rq), half = t.as_integer_ratio(), rate.as_integer_ratio(), n // 2
    return Fraction(sum(math.comb(n, 2 * i) * _double_factorial(2 * i - 1)
                        * math.factorial(n - 2 * i) * p ** i * (q * rq) ** (half - i)
                        * (2 * rp) ** i for i in range(half + 1)),
                    (2 * q * rp) ** half)


_REFERENCE_DIGITS = 1300


def _decimal(q):
    return Decimal(q.numerator) / q.denominator


@functools.lru_cache
def _decay(rate, t):
    """e^{-rt} to the reference's digits (its series is the slow part)."""
    with decimal.localcontext() as ctx:
        ctx.prec = _REFERENCE_DIGITS
        return (-_decimal(Fraction(rate) * Fraction(t))).exp()


def paper_moment(n, x0, t, rate):
    """The paper's E X_t^n at reset point 0, unit frame, as a Decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = _REFERENCE_DIGITS, decimal.MAX_EMAX, decimal.MIN_EMIN
        return (_decimal(paper_laplace(n, rate)) + _decay(rate, t)
                * _decimal(paper_gaussian(n, x0, t) - paper_sum(n, t, rate)))


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

    def test_no_resetting_is_the_gaussian(self):
        # rate 0: exp(i s x0 - D s^2 t), the free diffusion from x0
        spec = ProcessSpec(0.7, 0.4, 2.0, PoissonClock(0.0))
        ss = np.linspace(-5.0, 5.0, 41)
        assert np.allclose(char_fn(spec, ss, 1.3), np.exp(1j * ss * 0.4 - 0.7 * ss * ss * 1.3),
                           rtol=1e-14, atol=1e-15)

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
        # 180! overflows a double; the moment does not
        assert laplace_moment(180, 2.0) == pytest.approx(
            float(paper_laplace(180, 2.0)), rel=1e-14)
        with pytest.raises(NumericalError, match="overflows"):
            laplace_moment(400, 1.0)

    @pytest.mark.parametrize("x", [1e-3, 0.7, 57.3, 200.0, 201.0, 1e4])
    def test_age_shares_match_the_poisson_tail(self, x):
        # k! P(k + 1, x) against k! e^{-x} sum_{j>k} x^j / j! at 80 digits,
        # summed from the far end: both top-share branches (m = 201 above
        # and below x, and next to it), and shares far below the smallest
        # double (x = 1e-3, k = 200)
        deep = decimal.Context(prec=80, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        with decimal.localcontext(analytic._DECIMAL):
            got = analytic._age_moments(Decimal(1), 1.0, x, 400)
        assert len(got) == 201
        with decimal.localcontext(deep):
            x_dec = Decimal(x)
            terms = [(-x_dec).exp()]  # e^{-x} x^j / j!
            while len(terms) <= max(x, 201) or terms[-1] > terms[201] * Decimal("1e-85"):
                terms.append(terms[-1] * x_dec / len(terms))
            tails = [Decimal(0)]
            for term in reversed(terms[1:]):
                tails.append(tails[-1] + term)
            tails = tails[:0:-1]  # tails[k] = the sum over j > k
            for k, share in enumerate(got):
                want = math.factorial(k) * tails[k]
                assert abs(share / want - 1) < Decimal("1e-25"), k

    def test_age_shares_at_infinite_time_are_one(self):
        # t = inf: every P(k + 1, x) is 1, so the k-th age moment is
        # k! (variance / rate)^k exactly, with no weights formed
        with decimal.localcontext(analytic._DECIMAL):
            got = analytic._age_moments(Decimal(3), 0.5, math.inf, 41)
            assert got == [math.factorial(k) * Decimal(6) ** k for k in range(21)]

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
                        / math.sqrt(math.pi) * special.hyp1f1(-n / 2.0, 0.5, z))
            return (x0 * math.sqrt(t) ** (n - 1) * 2.0 ** ((n + 1) / 2.0)
                    * math.gamma(n / 2.0 + 1.0) / math.sqrt(math.pi)
                    * special.hyp1f1((1.0 - n) / 2.0, 1.5, z))

        for x0, t in ((1.0, 0.5), (1.3, 0.8), (-0.7, 2.0), (3.0, 0.2)):
            for n in range(13):
                assert gaussian_moment(n, x0, t) == pytest.approx(
                    kummer_form(n, x0, t), rel=1e-10, abs=1e-12)

    def test_sum_moments(self):
        # the reference's pieces: E (W + L)^n against a double integral,
        # E L^n and E (x0 + W)^n against the library's
        assert paper_sum(2, 1.0, 0.5) == 3
        assert paper_sum(3, 1.0, 1.0) == 0
        direct, _ = integrate.dblquad(
            lambda l, w: (w + l) ** 4
            * math.exp(-w ** 2 / 2) / math.sqrt(2 * math.pi)
            * laplace_pdf(l, 1.0, 0.0),
            -np.inf, np.inf, -np.inf, np.inf)
        assert float(paper_sum(4, 1.0, 1.0)) == pytest.approx(direct, rel=1e-6)
        for n in range(9):
            assert laplace_moment(n, 0.7) == pytest.approx(float(paper_laplace(n, 0.7)),
                                                           rel=1e-15)
            assert gaussian_moment(n, -1.3, 0.4) == pytest.approx(
                float(paper_gaussian(n, -1.3, 0.4)), rel=1e-15)


class TestNthMoment:
    def test_first_moment_consistency_with_mean(self):
        assert nth_moment(spec_poisson(1.0, 0.0, 0.0), 1, 1.0) == 0.0
        spec = spec_poisson(1.0, 2.0, 0.0)
        assert nth_moment(spec, 1, 1.0) == pytest.approx(2 * math.exp(-1.0), rel=1e-12)
        assert nth_moment(spec, 1, 1.0) == pytest.approx(mean(spec, 1.0), rel=1e-12)

    def test_long_time_second_moment_is_stationary_variance(self):
        assert nth_moment(spec_poisson(1.0), 2, 60.0) == pytest.approx(1.0, rel=1e-12)

    def test_nonzero_reset_point_matches_quadrature(self):
        spec, t = ProcessSpec(0.5, 1.0, 2.0, PoissonClock(1.0)), 0.7
        for n in range(1, 7):
            # the density is below e^-50 beyond +-40
            quad, _ = integrate.quad(lambda x: x ** n * pdf(spec, x, t), -40.0, 40.0,
                                     points=[1.0, 2.0], epsabs=0.0, epsrel=1e-13, limit=200)
            assert nth_moment(spec, n, t) == pytest.approx(quad, rel=1e-12)
        # the first moment is the mean, and the law is that of the
        # unit-frame spec scaled by c = sqrt(2D)
        assert nth_moment(spec, 1, t) == pytest.approx(mean(spec, t), rel=1e-15)
        wide = ProcessSpec(2.0, 2.0, 4.0, PoissonClock(1.0))
        for n in range(7):
            assert nth_moment(wide, n, t) == pytest.approx(2.0 ** n * nth_moment(spec, n, t),
                                                           rel=1e-14)

    def test_moment_table_invariants(self):
        table = moment_table(spec_poisson(1.0, 0.0, 0.0), 1.0, 6)
        assert table.values[0] == 1.0
        assert np.all(table.values[1::2] == 0.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_moment_table_is_nth_moment_bit_for_bit(self, t):
        # the table builds its shares once; each order is the one
        # nth_moment gives, up to the last order within a double
        spec = ProcessSpec(0.5, -1.0, 2.0, PoissonClock(1.0))
        want = []
        for n in range(401):
            try:
                want.append(nth_moment(spec, n, t))
            except NumericalError:
                with pytest.raises(NumericalError, match=f"moment {n} "):
                    moment_table(spec, t, n)
                break
        assert len(want) == 401 if t == 0.1 else 100 < len(want) < 401
        table = moment_table(spec, t, len(want) - 1)
        assert table.values.tolist() == want


class TestPaperRoute:
    # orders at which the route's two terms cancel every digit of a double
    # (at t = 0.1, order 20 and up), and orders beyond a double
    ORDERS = list(range(25)) + [40, 80, 160, 300, 400]

    @pytest.mark.parametrize("x0", [0.0, 1.0, -2.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_last_reset_form_matches_the_exact_paper_route(self, t, x0):
        spec = spec_poisson(1.0, x0, 0.0)
        for n in self.ORDERS:
            reference = paper_moment(n, x0, t, 1.0)
            if abs(reference) > sys.float_info.max:
                with pytest.raises(NumericalError, match="overflows"):
                    nth_moment(spec, n, t)
            else:
                # correctly rounded
                assert nth_moment(spec, n, t) == float(reference), n


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

    @pytest.mark.parametrize("rate, t", [(1.0, 5.0), (2.0, 0.7), (0.5, 20.0)])
    def test_log_intensity_second_moment_matches_msd(self, rate, t):
        # p = -1: R(t) - R(t - age) takes its logarithmic branch
        spec = spec_npp(rate, -1.0)
        xs = np.linspace(-40.0, 40.0, 40001)
        second = np.trapezoid(xs * xs * npp_pdf(spec, xs, t), xs)
        assert second == pytest.approx(npp_msd(spec, t), rel=1e-9)

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


def oracle_npp_msd(rate, p, t):
    """Unit-frame mean age by its own quad call over the age a, with
    R(t) - R(t - a) from the closed form in 40-digit decimal, so that R(t)
    cancels against R(t - a) far below a double's rounding."""
    context = decimal.Context(prec=40)
    top, power = context.add(Decimal(t), 1), Decimal(p + 1.0)
    front = context.power(top, power) if p != -1.0 else None

    def since(age):
        low = context.subtract(top, Decimal(age))
        if p == -1.0:
            return rate * float(context.ln(context.divide(top, low)))
        return rate / (p + 1.0) * float(context.subtract(front, context.power(low, power)))

    # the survival decays within ~1/f(t) of age 0: breakpoints from there
    breaks, age = [], 1.0 / (rate * (t + 1.0) ** p)
    while age < t:
        breaks.append(age)
        age *= 4.0
    value, _ = integrate.quad(lambda a: math.exp(-since(a)), 0.0, t, points=breaks or None,
                              epsabs=0.0, epsrel=1e-12, limit=400)
    return value


class TestNppVectorisedQuadrature:
    """One vector quadrature per curve must reproduce per-point quad to 1e-10
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


KS = np.array([1.0, 2.0, 3.0])


def exp_rows(x):
    """The vector integrand exp(k x), k in KS, on an array of nodes."""
    return np.exp(np.multiply.outer(KS, x))


class TestQuadrature:
    """The Gauss-Kronrod rule against scipy.integrate as an independent oracle."""

    def test_one_value_and_rows_integrate(self):
        # an integrand of one value per node comes back a 0-d array
        one = analytic.quadrature(np.exp, 0.0, 1.0)
        assert one.shape == () and one == pytest.approx(math.e - 1.0, rel=1e-12)
        out = analytic.quadrature(exp_rows, 0.0, 1.0)
        oracle = [integrate.quad(lambda x: math.exp(k * x), 0.0, 1.0)[0] for k in KS]
        assert np.allclose(out, oracle, rtol=1e-12, atol=0.0)
        assert np.allclose(out, np.expm1(KS) / KS, rtol=1e-12, atol=0.0)

    def test_whole_line(self):
        gauss = lambda x: np.exp(-np.multiply.outer(KS, x) ** 2)
        out = analytic.quadrature(gauss, -np.inf, np.inf)
        oracle = [integrate.quad(lambda x: math.exp(-(k * x) ** 2), -np.inf, np.inf,
                                 epsabs=1e-13, epsrel=1e-12)[0] for k in KS]
        assert np.allclose(out, oracle, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.5), (np.inf, 0.0),
                                        (np.inf, -np.inf), (np.inf, np.inf)])
    def test_other_infinite_ranges_are_refused(self, lo, hi):
        with pytest.raises(DomainError, match="finite range or"):
            analytic.quadrature(np.exp, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-np.inf, np.inf)])
    def test_breakpoints_match_quad_vec(self, lo, hi):
        # a kink at 0.3: the same nodes, value and error estimate as
        # quad_vec's GK21 rule with the same breakpoint
        kink = lambda x: np.exp(-np.abs(np.multiply.outer(KS, x - 0.3)))
        opts = dict(epsabs=1e-12, epsrel=1e-8, limit=200)
        value, error, _, evaluations = analytic._gauss_kronrod(kink, lo, hi, [0.3], **opts)
        ref, ref_error, info = integrate.quad_vec(
            lambda x: np.exp(-np.abs(KS * (x - 0.3))), lo, hi, points=[0.3], norm="max",
            quadrature="gk21", full_output=True, **opts)
        assert evaluations == info.neval
        assert np.allclose(value, ref, rtol=1e-14, atol=0.0)
        assert error == pytest.approx(ref_error, rel=1e-6)
        assert np.allclose(analytic.quadrature(kink, lo, hi, points=[0.3]),
                           ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows", [(), (2,)], ids=["one-value", "two-rows"])
    def test_error_estimate_beyond_tolerance_raises(self, rows):
        spike = lambda x: 1.0 / (np.multiply.outer(np.ones(rows), x) ** 2 + 1e-8)
        with pytest.raises(ConvergenceError, match="error estimate"):
            analytic.quadrature(spike, -1.0, 1.0, limit=2)

    def test_limit_one_leaves_the_first_estimate(self):
        # one interval, never split: sqrt's kink at 0 keeps its estimate high
        root = lambda x: np.sqrt(np.multiply.outer(KS, x))
        assert analytic.quadrature(root, 0.0, 1.0) == pytest.approx(
            2.0 / 3.0 * np.sqrt(KS), rel=1e-8)
        with pytest.raises(ConvergenceError, match="error estimate"):
            analytic.quadrature(root, 0.0, 1.0, limit=1)

    def test_nan_integrand_raises(self):
        calls = []

        def nan_at_half(x):
            calls.append(len(x))
            return np.where(np.abs(x - 0.5) < 0.1, np.nan, exp_rows(x))

        with pytest.raises(ConvergenceError, match="error estimate nan"):
            analytic.quadrature(nan_at_half, 0.0, 1.0)
        assert len(calls) <= 3  # a NaN ends the refinement at once

    @pytest.mark.parametrize("components", [7, 100, 500])
    def test_calls_stay_within_the_value_budget(self, components, monkeypatch):
        # at most _QUAD_BUDGET values per call, or one node when the
        # components alone exceed it; the first call gets one node
        ks = np.linspace(0.5, 2.0, components)
        sizes = []

        def rows(x):
            sizes.append(x.size)
            return np.exp(np.multiply.outer(ks, x))

        whole = analytic.quadrature(rows, 0.0, 1.0)
        assert len(sizes) <= 3  # 1 node, the rest of 21, then 42 in one call
        monkeypatch.setattr(analytic, "_QUAD_BUDGET", 300)
        sizes.clear()
        budgeted = analytic.quadrature(rows, 0.0, 1.0)
        assert sizes[0] == 1
        assert max(sizes) == max(1, 300 // components)
        assert sum(sizes) == 63
        assert np.allclose(budgeted, whole, rtol=1e-15, atol=0.0)
        assert np.allclose(whole, np.expm1(ks) / ks, rtol=1e-12, atol=0.0)

    def test_record_counts_calls_evaluations_and_error_share(self):
        with analytic.quadrature_record() as record:
            analytic.quadrature(exp_rows, 0.0, 1.0)
            with analytic.quadrature_record() as inner:
                analytic.quadrature(np.exp, 0.0, 1.0)
        # each: one node, the rest of the first 21, then one round of 42
        assert record == dict(quadratures=1, integrand_calls=3, evaluations=63,
                              worst_error_share=record["worst_error_share"])
        assert inner == dict(quadratures=1, integrand_calls=3, evaluations=63,
                             worst_error_share=inner["worst_error_share"])
        assert 0.0 < record["worst_error_share"] < 1.0
        assert 0.0 < inner["worst_error_share"] < 1.0
        analytic.quadrature(np.exp, 0.0, 1.0)  # outside any block: not counted
        assert record["quadratures"] == 1

    def test_npp_pdf_reports_unconverged_quadrature(self, monkeypatch):
        # A tolerance below the rounding floor cannot be met.
        monkeypatch.setitem(analytic._QUAD_OPTS, "epsrel", 1e-15)
        monkeypatch.setitem(analytic._QUAD_OPTS, "limit", 1)
        with pytest.raises(ConvergenceError):
            npp_pdf(spec_npp(1.0, -0.5), np.linspace(-3.0, 3.0, 7), 5.0)


class TestNppMsd:
    @pytest.mark.parametrize("p", [-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 2.0])
    def test_matches_quad_oracle(self, p):
        for rate in (0.1, 1.0, 10.0):
            for t in (1e-3, 0.1, 1.0, 10.0, 1e4):
                assert npp_msd(spec_npp(rate, p), t) == pytest.approx(
                    oracle_npp_msd(rate, p, t), rel=1e-8), (rate, t)

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


class TestLawWindows:
    """One rule sizes every default curve and FPE grid: the window of each
    part of the law, which leaves out at most TAIL_MASS on either side."""

    def test_windows_follow_the_two_parts(self):
        # D = 2, r = 0.5, t = 4: the no-reset Gaussian has standard
        # deviation sqrt(2Dt) = 4 and the Laplace law length sqrt(D/r) = 2
        spec = spec_poisson(0.5, x0=-1.0, xr=3.0, d=2.0)
        w = math.exp(-2.0)
        gauss = -4.0 * special.ndtri(analytic.TAIL_MASS / w)
        reset = min(2.0 * math.log(0.5 / analytic.TAIL_MASS),
                    -4.0 * special.ndtri(analytic.TAIL_MASS / (1.0 - w)))
        got = analytic.law_windows(spec, 4.0)
        want = [(-1.0 - gauss, -1.0 + gauss, w), (3.0 - reset, 3.0 + reset, 1.0 - w)]
        np.testing.assert_allclose(np.array(got), np.array(want), rtol=1e-14)
        # the stationary law: the Laplace window alone
        (stationary,) = analytic.law_windows(spec, None)
        half = 2.0 * math.log(0.5 / analytic.TAIL_MASS)
        assert stationary == pytest.approx((3.0 - half, 3.0 + half, 1.0), rel=1e-15)

    def test_the_law_stops_widening(self):
        # once e^{-rt} is below 2 TAIL_MASS the Gaussian about x0 is dropped
        # and the window is the stationary one, however late t is
        spec = spec_poisson(1.0, x0=0.0, xr=2.0)
        stationary = analytic.law_windows(spec, None)
        assert len(analytic.law_windows(spec, 20.0)) == 2
        for t in (25.0, 100.0, 1e300):
            assert [w[:2] for w in analytic.law_windows(spec, t)] == [w[:2] for w in stationary]
        # without resetting the Gaussian is the law
        ((lo, hi, weight),) = analytic.law_windows(spec_poisson(0.0, x0=1.0), 4.0)
        assert (lo + hi) / 2.0 == pytest.approx(1.0) and weight == 1.0
        assert hi - 1.0 == pytest.approx(-2.0 * special.ndtri(analytic.TAIL_MASS), rel=1e-14)

    @pytest.mark.parametrize("xr", [0.0, 2.0, 100.0])
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 5.0, 10.0, 30.0])
    def test_windows_leave_out_at_most_the_tail_mass(self, xr, t):
        # the closed-form distribution function, an independent route: at
        # most TAIL_MASS of each part lies beyond its window on a side
        spec = spec_poisson(1.0, x0=0.0, xr=xr)
        windows = analytic.law_windows(spec, t)
        cdf = lambda x: float(stats.analytic_cdf(spec, x, t))
        bound = 2.0 * analytic.TAIL_MASS
        assert cdf(windows[0].lo) <= bound
        assert 1.0 - cdf(max(w.hi for w in windows)) <= bound
        if len(windows) == 2 and windows[0].hi < windows[1].lo:
            assert cdf(windows[1].lo) - cdf(windows[0].hi) <= bound
        assert sum(w.weight for w in windows) == pytest.approx(1.0, abs=bound)

    def test_stationary_window_is_tight(self):
        spec = spec_poisson(2.0, xr=1.0, d=0.3)
        ((lo, hi, _),) = analytic.law_windows(spec, None)
        # at t = 1e300 the law is the stationary Laplace law
        assert stats.analytic_cdf(spec, lo, 1e300) == pytest.approx(analytic.TAIL_MASS, rel=1e-6)

    @staticmethod
    def shares(windows, points):
        # the points each window gets, in proportion to the root of its mass
        roots = np.cumsum([0.0] + [math.sqrt(w.weight) for w in windows])
        return np.diff(np.round(points * roots / roots[-1])).astype(int)

    def test_support_is_one_grid_per_overlapping_window(self):
        # the grids interleave, so the light Gaussian's wide window leaves
        # the cusp at xR with the Laplace window's own step
        spec = spec_poisson(1.0, x0=0.0, xr=2.0)
        (a, b) = analytic.law_windows(spec, 1.0)
        assert a.lo < b.lo < a.hi
        na, nb = self.shares((a, b), 401)
        xs = analytic.default_support(spec, 1.0, points=401)
        laplace = np.linspace(b.lo, b.hi, nb)
        assert np.array_equal(xs, np.union1d(np.linspace(a.lo, a.hi, na), laplace))
        near = np.abs(xs - 2.0) < 0.5
        assert np.max(np.diff(xs[near])) <= laplace[1] - laplace[0]

    def test_support_is_one_grid_per_disjoint_window(self):
        # across the gap, cells double in width from each window's step
        # until the two sides meet at the gap's midpoint
        spec = spec_poisson(1.0, x0=0.0, xr=100.0)
        (a, b) = analytic.law_windows(spec, 5.0)
        na, nb = self.shares((a, b), 401)
        assert 350 < nb
        xs = analytic.default_support(spec, 5.0, points=401)
        left, right = np.linspace(a.lo, a.hi, na), np.linspace(b.lo, b.hi, nb)
        assert np.array_equal(xs[:na], left) and np.array_equal(xs[-nb:], right)
        gap = xs[na - 1:len(xs) - nb + 1]
        mid = int(np.flatnonzero(gap == 0.5 * a.hi + 0.5 * b.lo)[0])
        cells = np.diff(gap)
        np.testing.assert_allclose(cells[:mid - 1] / (left[1] - left[0]),
                                   2.0 ** np.arange(1, mid), rtol=1e-9)
        np.testing.assert_allclose(cells[mid + 1:][::-1] / (right[1] - right[0]),
                                   2.0 ** np.arange(1, len(cells) - mid), rtol=1e-9)
        # the last cell on each side is at most twice the one before
        assert cells[mid - 1] <= 2.0 * cells[mid - 2] and cells[mid] <= 2.0 * cells[mid + 1]

    @pytest.mark.parametrize("spec, t", [
        (spec_npp(1.0, -0.5), 5.0),
        (spec_poisson(1.0, xr=2.0), None),
        (spec_poisson(0.0, x0=1.0), 4.0),
        (spec_poisson(1.0, xr=2.0), 100.0),
    ], ids=["npp", "stationary", "rate-0", "late"])
    def test_one_window_support_is_one_linspace(self, spec, t):
        (w,) = analytic.law_windows(spec, t)
        xs = analytic.default_support(spec, t, points=401)
        assert np.array_equal(xs, np.linspace(w.lo, w.hi, 401))

    @pytest.mark.parametrize("points", [2, 3])
    def test_few_points_give_the_heaviest_window_two(self, points):
        # the no-reset Gaussian's share rounds to one point, so it is left
        # out; the reset part's would too at two points, but it is heaviest
        spec = spec_poisson(1.0, x0=0.0, xr=100.0)
        (a, b) = analytic.law_windows(spec, 1.0)
        assert a.weight < b.weight
        assert analytic.default_support(spec, 1.0, points=points).tolist() == [b.lo, b.hi]

    # D = 0.5, x0 = 0, r = 1, 401 points, at 206 times from 1e-3 to 1e300.
    # The reset point sets whether the Laplace cusp lies inside the
    # no-reset Gaussian's window or a gap away from it: a hull grid over
    # overlapping windows left the cusp too coarse (xR = 6..26 near
    # t = 5..15), and one trapezoid cell across a gap counted the gap's
    # width at the windows' edge densities (xR = 1e8: mass 2.3 at t = 0.06).
    @pytest.mark.parametrize("xr", list(range(41)) + [50, 100, 1e3, 1e4, 1e8, 1e12])
    def test_default_curves_hold_unit_mass(self, xr):
        spec = spec_poisson(1.0, x0=0.0, xr=xr)
        times = np.concatenate([np.geomspace(1e-3, 1e2, 200),
                                [1e3, 1e4, 1e8, 1e16, 1e100, 1e300]])
        for t in times.tolist():
            mass = density_curve(spec, t, analytic.default_support(spec, t, 401)).mass()
            assert abs(mass - 1.0) < 1e-3, t


class TestCurves:
    def test_density_curve_mass_invariant(self):
        curve = density_curve(spec_poisson(1.0, 0.0, 3.0), 0.5)
        assert abs(curve.mass() - 1.0) < 1e-3

    def test_stationary_curve_matches_laplace(self):
        spec = spec_poisson(2.0, 0.0, 1.0)
        curve = density_curve(spec, None)
        assert np.allclose(curve.values, stationary_pdf(spec, curve.xs))
        assert curve.t == math.inf

    def test_power_law_curve_is_the_quadrature_density(self):
        spec = spec_npp(1.0, -0.5)
        xs = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(density_curve(spec, 2.0, xs).values, npp_pdf(spec, xs, 2.0))

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
        (lambda: analytic.nth_moment(ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)),
                                     -1, 1.0), DomainError),
        # one order gate: a nonnegative int, and a bool is not one
        (lambda: analytic.moment_from_mgf(spec_poisson(1.0, x0=1.0), -1, 1.0), DomainError),
        (lambda: analytic.moment_from_mgf(spec_poisson(1.0, x0=1.0), True, 1.0), DomainError),
        (lambda: analytic.moment_from_mgf(spec_poisson(1.0, x0=1.0), 2.0, 1.0), DomainError),
        (lambda: nth_moment(spec_poisson(1.0, x0=1.0), True, 1.0), DomainError),
        (lambda: nth_moment(spec_poisson(1.0, x0=1.0), 2.0, 1.0), DomainError),
        (lambda: laplace_moment(2.0, 1.0), DomainError),
        (lambda: moment_table(spec_poisson(1.0, x0=1.0), 1.0, 2.5), DomainError),
        (lambda: moment_table(spec_poisson(1.0, x0=1.0), 1.0, True), DomainError),
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
        (lambda: analytic.law_windows(spec_poisson(0.0, d=5e307), 1e308), NumericalError),
        (lambda: analytic.law_windows(spec_poisson(0.0), None), DomainError),
        (lambda: analytic.law_windows(spec_npp(1.0, 0.0), None), DomainError),
        (lambda: analytic.law_windows(ProcessSpec(0.5, 0.0, 0.0, RenewalClock(
            DeterministicGaps(0.5))), 1.0), SpecError),
        (lambda: analytic.default_support(spec_poisson(1.0, xr=1e300), 100.0), DomainError),
        # an infinite rate or horizon is refused like a negative one
        (lambda: analytic.laplace_pdf(0.0, math.inf, 0.0), DomainError),
        (lambda: analytic.normal_laplace_conv(0.0, 1.0, math.inf, 0.0), DomainError),
        (lambda: laplace_moment(2, math.inf), DomainError),
        (lambda: sample_reset_times(PoissonClock(1.0), math.inf, np.random.default_rng(0)),
         SpecError),
    ], ids=["laplace", "gaussian", "nth", "mgf-order-negative", "mgf-order-bool",
            "mgf-order-float", "nth-order-bool", "nth-order-float", "laplace-order-float",
            "table-n-max-float", "table-n-max-bool", "fd-weights",
            "mgf-stencil", "mgf-overflow", "mgf-overflow-rate-0", "moment-overflow",
            "npp-msd-overflow", "npp-pdf-overflow", "npp-msd-infinite-t",
            "npp-pdf-infinite-t", "npp-cf-infinite-t", "mgf-undefined", "char-fn-undefined",
            "npp-cf-integral-overflow", "npp-pdf-integral-overflow",
            "npp-msd-integral-overflow", "npp-msd-infinite", "windows-overflow",
            "windows-stationary-rate-0", "windows-stationary-npp", "windows-renewal",
            "support-unresolved", "laplace-pdf-infinite-rate", "conv-infinite-rate",
            "laplace-moment-infinite-rate", "reset-times-infinite-horizon"])
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
        (lambda t: analytic.law_windows(spec_poisson(1.0), t), True),
        (lambda t: analytic.law_windows(spec_npp(1.0, 0.0), t), True),
        (lambda t: stats.analytic_cdf(spec_poisson(1.0), 0.5, t), True),
    ], ids=["mgf", "char-fn", "pdf", "mean", "nth-moment", "moment-from-mgf",
            "gaussian-moment", "normal-laplace-conv", "npp-char-fn", "npp-pdf", "npp-msd",
            "law-windows", "law-windows-npp", "analytic-cdf"])
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
