import math

import numpy as np
import pytest

from reset_sde import (
    DomainError,
    PoissonClock,
    ProcessSpec,
    SpecError,
    marginal_samples,
)
from reset_sde import analytic
from reset_sde.fpe import (
    FpeGrid,
    MassConservationError,
    apply_adjoint,
    apply_generator,
    default_grid,
    solve_fpe_delta_fl,
    solve_fpe_evans,
    stationary_fpe,
    _apply_tridiag,
    _delta_weights,
    _second_difference_bands,
)


def spec_poisson(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


FIG3 = spec_poisson(1.0, 0.0, 3.0)


def l1(xs, a, b):
    return float(np.trapezoid(np.abs(a - b), xs))


class TestGridValidation:
    def test_dt_bounded_by_h(self):
        with pytest.raises(SpecError, match="dt"):
            FpeGrid(-1.0, 1.0, h=1e-2, dt=2e-2)

    def test_span_must_be_multiple_of_h(self):
        with pytest.raises(SpecError, match="multiple"):
            FpeGrid(0.0, 1.005, h=1e-2, dt=1e-3)

    def test_boundary_choices(self):
        with pytest.raises(SpecError, match="boundary"):
            FpeGrid(-1.0, 1.0, h=1e-2, dt=1e-3, boundary="open")

    def test_positions_must_sit_well_inside(self):
        grid = FpeGrid(-1.0, 1.0, h=1e-2, dt=1e-3)
        with pytest.raises(SpecError, match="outside"):
            solve_fpe_evans(spec_poisson(1.0, 5.0, 0.0), grid, 0.1)
        with pytest.raises(SpecError, match="standard scales"):
            solve_fpe_evans(spec_poisson(1.0, 0.9, 0.0), grid, 0.1)

    def test_default_grid_contains_padded_positions(self):
        grid = default_grid(FIG3, 1.0)
        scale = max(math.sqrt(2 * 0.5 * 1.0), math.sqrt(0.5))
        assert grid.x_lo <= 0.0 - 8 * scale + 1e-9
        assert grid.x_hi >= 3.0 + 8 * scale - 1e-9


class TestTransientSolvers:
    def test_pure_diffusion_heat_kernel(self):
        grid = FpeGrid(-8.0, 8.0, h=1e-2, dt=1e-3)
        curve = solve_fpe_evans(spec_poisson(0.0), grid, 1.0)
        gauss = np.exp(-curve.xs ** 2 / 2.0) / math.sqrt(2 * math.pi)
        assert l1(curve.xs, curve.values, gauss) < 1e-3
        assert curve.values.min() >= -1e-10

    def test_matches_closed_form_density_short_time(self):
        grid = default_grid(FIG3, 0.1, h=1e-2, dt=1e-3)
        curve = solve_fpe_evans(FIG3, grid, 0.1)
        assert l1(curve.xs, curve.values, analytic.pdf(FIG3, curve.xs, 0.1)) < 1e-2

    def test_source_forms_agree_and_match_closed_form(self):
        spec = spec_poisson(1.0, 0.0, 0.0)
        grid = default_grid(spec, 1.0, h=1e-2, dt=1e-3)
        ev = solve_fpe_evans(spec, grid, 1.0)
        fl = solve_fpe_delta_fl(spec, grid, 1.0)
        assert l1(ev.xs, ev.values, fl.values) < 1e-3
        ref = analytic.pdf(spec, ev.xs, 1.0)
        assert l1(ev.xs, ev.values, ref) < 1e-2
        assert l1(fl.xs, fl.values, ref) < 1e-2

    def test_delta_fl_heat_kernel_reduction(self):
        grid = FpeGrid(-8.0, 8.0, h=1e-2, dt=1e-3)
        curve = solve_fpe_delta_fl(spec_poisson(0.0), grid, 1.0)
        gauss = np.exp(-curve.xs ** 2 / 2.0) / math.sqrt(2 * math.pi)
        assert l1(curve.xs, curve.values, gauss) < 1e-3

    def test_mass_is_conserved_to_rounding(self):
        grid = default_grid(FIG3, 0.5, h=2e-2, dt=2e-3)
        curve = solve_fpe_evans(FIG3, grid, 0.5)
        assert grid.h * curve.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_absorbing_boundary_leaks_and_raises(self):
        grid = FpeGrid(-2.0, 2.0, h=1e-2, dt=1e-3, boundary="absorbing")
        with pytest.raises(MassConservationError, match="mass drifted"):
            solve_fpe_evans(spec_poisson(0.0), grid, 1.0)

    def test_absorbing_boundary_on_wide_domain_is_fine(self):
        grid = FpeGrid(-10.0, 10.0, h=2e-2, dt=2e-3, boundary="absorbing")
        curve = solve_fpe_evans(spec_poisson(0.0), grid, 0.5)
        assert curve.mass() == pytest.approx(1.0, abs=1e-3)

    def test_refining_grid_halves_error_at_least(self):
        coarse = FpeGrid(-8.0, 10.0, h=2e-2, dt=2e-3)
        fine = FpeGrid(-8.0, 10.0, h=1e-2, dt=1e-3)
        e_coarse = l1(coarse.xs, solve_fpe_evans(FIG3, coarse, 0.5).values,
                      analytic.pdf(FIG3, coarse.xs, 0.5))
        e_fine = l1(fine.xs, solve_fpe_evans(FIG3, fine, 0.5).values,
                    analytic.pdf(FIG3, fine.xs, 0.5))
        assert e_coarse / e_fine >= 2.0


class TestStationary:
    def test_matches_laplace_density(self):
        spec = spec_poisson(1.0, 0.0, 0.0)
        grid = default_grid(spec, None, h=1e-2)
        curve = stationary_fpe(spec, grid)
        ref = analytic.stationary_pdf(spec, curve.xs)
        assert np.max(np.abs(curve.values - ref)) < 1e-3

    def test_independent_of_start_point(self):
        grid = FpeGrid(-8.0, 8.0, h=1e-2, dt=1e-3)
        a = stationary_fpe(spec_poisson(1.0, 0.0, 0.0), grid)
        b = stationary_fpe(spec_poisson(1.0, 2.0, 0.0), grid)
        assert np.array_equal(a.values, b.values)

    def test_variance_is_stationary_variance(self):
        spec = spec_poisson(1.0, 0.0, 0.0)
        grid = default_grid(spec, None, h=1e-2)
        curve = stationary_fpe(spec, grid)
        var = np.trapezoid(curve.xs ** 2 * curve.values, curve.xs)
        assert var == pytest.approx(1.0, rel=0.01)

    def test_requires_resetting(self):
        grid = FpeGrid(-8.0, 8.0, h=1e-2, dt=1e-3)
        with pytest.raises(DomainError):
            stationary_fpe(spec_poisson(0.0), grid)


class TestOperators:
    def test_generator_kills_constants(self):
        xs = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        out = apply_generator(np.ones_like(xs), xs, spec_poisson(1.5))
        assert np.max(np.abs(out)) == 0.0

    def test_generator_on_linear_function(self):
        xs = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        out = apply_generator(xs.copy(), xs, spec_poisson(1.5, 0.0, 0.0))
        interior = slice(2, -2)
        assert np.allclose(out[interior], -1.5 * xs[interior], atol=1e-9)

    def test_duality_identity(self):
        spec = spec_poisson(1.0, 0.0, 2.0)
        xs = np.arange(-8.0, 10.0 + 1e-12, 1e-2)
        h = xs[1] - xs[0]
        rng = np.random.default_rng(77)
        for _ in range(5):
            g = rng.standard_normal(len(xs))
            f = rng.standard_normal(len(xs))
            lhs = h * np.dot(apply_generator(g, xs, spec), f)
            rhs = h * np.dot(g, apply_adjoint(f, xs, spec))
            assert abs(lhs - rhs) < 1e-8

    def test_adjoint_drives_the_density(self):
        spec = FIG3
        grid = default_grid(spec, 1.0, h=1e-2)
        d = 1e-5
        p_mid = analytic.pdf(spec, grid.xs, 0.5)
        dpdt = (analytic.pdf(spec, grid.xs, 0.5 + d)
                - analytic.pdf(spec, grid.xs, 0.5 - d)) / (2 * d)
        assert l1(grid.xs, dpdt, apply_adjoint(p_mid, grid.xs, spec)) < 1e-2

    def test_source_term_deposits_mass_r_for_a_density(self):
        spec = spec_poisson(1.7, 0.0, 1.0)
        grid = default_grid(spec, 1.0, h=1e-2)
        xs = grid.xs
        h = grid.h
        f = analytic.pdf(spec, xs, 0.8)
        f = f / (h * f.sum())
        bands = _second_difference_bands(len(xs), h, "reflecting")
        source_part = (apply_adjoint(f, xs, spec)
                       - spec.diffusivity * _apply_tridiag(*bands, f)
                       + spec.clock.rate * f)
        assert h * source_part.sum() == pytest.approx(spec.clock.rate, rel=1e-12)

    def test_delta_weights_interpolate_linearly(self):
        xs = np.arange(0.0, 1.0 + 1e-12, 0.1)
        w = _delta_weights(xs, 0.1, 0.27)
        assert w.sum() == pytest.approx(1.0)
        assert w @ xs == pytest.approx(0.27, rel=1e-12)

    def test_dynkin_via_generator_and_monte_carlo(self):
        # d/dt E g(X_t) equals the sampled average of the generator action
        spec = spec_poisson(1.0, 0.0, 2.0)
        xs = np.arange(-10.0, 12.0 + 1e-12, 1e-2)
        action = apply_generator(xs ** 2, xs, spec)
        n, t, delta = 100000, 0.5, 1e-3
        lo = marginal_samples(spec, t - delta, n, seed=2718)
        mid = marginal_samples(spec, t, n, seed=2718)
        hi = marginal_samples(spec, t + delta, n, seed=2718)
        resid = (hi ** 2 - lo ** 2) / (2 * delta) - np.interp(mid, xs, action)
        assert abs(resid.mean()) < 3 * resid.std() / math.sqrt(n)


class TestTypedErrors:
    def test_bad_grid_functions_raise_spec_error(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        with pytest.raises(SpecError, match="at least 3 points"):
            apply_generator(np.zeros(2), np.arange(2.0), spec)
        with pytest.raises(SpecError, match="uniform"):
            apply_adjoint(np.zeros(4), np.array([0.0, 1.0, 2.0, 4.0]), spec)
