import hashlib
import math

import numpy as np
import pytest

from reset_sde import (
    DomainError,
    PoissonClock,
    ProcessSpec,
    SpecError,
)
from reset_sde import analytic
from reset_sde.core import NumericalError
from reset_sde.fpe import (
    MAX_NODES,
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

    def test_dt_defaults_to_a_tenth_of_h(self):
        assert FpeGrid(-1.0, 1.0, h=2e-2).dt == 2e-2 / 10.0
        assert default_grid(FIG3, 1.0, h=2e-2).dt == 2e-2 / 10.0

    def test_step_must_have_a_finite_inverse_square(self):
        FpeGrid(-1e-150, 1e-150, h=1e-154)
        with pytest.raises(SpecError, match="at least"):
            FpeGrid(-1e-195, 1e-195, h=1e-200)
        # the generator and adjoint read the step off the grid itself
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        for apply in (apply_generator, apply_adjoint):
            assert np.isfinite(apply(np.ones(3), np.array([-1e-150, 0.0, 1e-150]), spec)).all()
            with pytest.raises(SpecError, match="at least"):
                apply(np.ones(3), np.array([-1e-160, 0.0, 1e-160]), spec)

    @pytest.mark.parametrize("h", [1e-154, 1.05e-154])
    def test_step_on_the_floor_whose_bands_overflow_is_refused(self, h):
        # 1/h^2 is finite at these steps but 2/h^2 is not: refused with no
        # overflow warning (the test run turns one into an error)
        FpeGrid(-h, h, h=h)
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        for apply in (apply_generator, apply_adjoint):
            with pytest.raises(NumericalError, match="2/h"):
                apply(np.ones(3), np.array([-h, 0.0, h]), spec)

    def test_overflowing_action_is_refused(self):
        # finite bands, but D times them overflows
        spec = ProcessSpec(1e10, 0.0, 0.0, PoissonClock(1.0))
        for apply in (apply_generator, apply_adjoint):
            with pytest.raises(NumericalError, match="not finite"):
                apply(np.array([0.0, 1.0, 0.0]), np.array([-1e-150, 0.0, 1e-150]), spec)

    def test_span_must_be_multiple_of_h(self):
        with pytest.raises(SpecError, match="multiple"):
            FpeGrid(0.0, 1.005, h=1e-2, dt=1e-3)

    def test_node_count_is_capped_before_any_array(self):
        FpeGrid(0.0, (MAX_NODES - 1) * 1e-2, h=1e-2, dt=1e-3)
        with pytest.raises(SpecError, match="nodes"):
            FpeGrid(0.0, MAX_NODES * 1e-2, h=1e-2, dt=1e-3)
        with pytest.raises(SpecError, match="nodes"):
            FpeGrid(-1e308, 1e308, h=1.0, dt=1.0)
        with pytest.raises(SpecError, match="nodes"):
            default_grid(spec_poisson(1.0, 1e9, 0.0), 1.0)

    def test_boundary_choices(self):
        with pytest.raises(SpecError, match="boundary"):
            FpeGrid(-1.0, 1.0, h=1e-2, dt=1e-3, boundary="open")

    def test_positions_must_sit_well_inside(self):
        grid = FpeGrid(-1.0, 1.0, h=1e-2, dt=1e-3)
        with pytest.raises(SpecError, match="outside"):
            solve_fpe_evans(spec_poisson(1.0, 5.0, 0.0), grid, 0.1)
        with pytest.raises(SpecError, match="cuts the law's window"):
            solve_fpe_evans(spec_poisson(1.0, 0.9, 0.0), grid, 0.1)
        with pytest.raises(SpecError, match="cuts the law's window"):
            stationary_fpe(spec_poisson(1.0, 0.0, 0.0), grid)
        # the windows, not the diffusive scale sqrt(2Dt) = 10, bound a late
        # reflecting grid: the law is the Laplace law of length sqrt(D/r)
        solve_fpe_evans(spec_poisson(1.0), FpeGrid(-15.0, 15.0, h=0.1, dt=0.1), 50.0)

    def test_default_grid_holds_every_window_on_the_h_lattice(self):
        for t in (1.0, 50.0, None):
            grid = default_grid(FIG3, t)
            windows = analytic.law_windows(FIG3, t)
            assert grid.x_lo <= windows[0].lo and max(w.hi for w in windows) <= grid.x_hi
            # one lattice node beyond the hull
            assert grid.x_lo > windows[0].lo - 2 * grid.h
            assert grid.x_hi < max(w.hi for w in windows) + 2 * grid.h
            assert grid.x_lo / grid.h == pytest.approx(round(grid.x_lo / grid.h), abs=1e-9)
        # x0 stays 10 h inside once its Gaussian has gone
        spec = spec_poisson(1.0, 0.0, 30.0)
        (window,) = analytic.law_windows(spec, 50.0)
        grid = default_grid(spec, 50.0, h=0.1)
        assert window.lo > 1.0 and grid.x_lo <= -1.0 and grid.x_hi >= window.hi


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

    def test_default_grid_is_narrower_and_no_less_accurate(self):
        # at t = 20 the law is the Laplace law of length sqrt(D/r) = 0.71;
        # the grid of 8 diffusive scales sqrt(2Dt) it replaced spans 71.6
        spec = spec_poisson(1.0)
        h = 2e-2
        grid = default_grid(spec, 20.0, h=h, dt=h)
        wide = FpeGrid(-35.78, 35.78, h=h, dt=h)
        errors = []
        for g in (grid, wide):
            curve = solve_fpe_evans(spec, g, 20.0)
            errors.append(np.max(np.abs(curve.values - analytic.pdf(spec, curve.xs, 20.0))))
        assert len(grid.xs) < len(wide.xs) / 2
        assert errors[0] <= errors[1] * (1.0 + 1e-9)  # the same error, up to rounding

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


    def test_densities_match_pinned_digests(self):
        # The solvers' output is part of the contract: the sha256 of the
        # float64 bytes of each density, on the default grid and on an
        # absorbing one.
        def digest(curve):
            return hashlib.sha256(np.ascontiguousarray(curve.values, dtype=np.float64)
                                  .tobytes()).hexdigest()

        absorbing = FpeGrid(-6.0, 9.0, h=2e-2, dt=2e-3, boundary="absorbing")
        got = {}
        for name, grid in [("default", default_grid(FIG3, 0.5, h=2e-2, dt=2e-3)),
                           ("absorbing", absorbing)]:
            got["evans-" + name] = digest(solve_fpe_evans(FIG3, grid, 0.5))
            got["delta-fl-" + name] = digest(solve_fpe_delta_fl(FIG3, grid, 0.5))
        got["stationary-default"] = digest(
            stationary_fpe(FIG3, default_grid(FIG3, None, h=2e-2, dt=2e-3)))
        got["stationary-absorbing"] = digest(stationary_fpe(FIG3, absorbing))
        assert got == {
            "evans-default":
                "53c01d29117c8052ffaaed70d119a74d70eb07964ff2431d0f88f3a7dbcca2a8",
            "delta-fl-default":
                "d50e84c468cf17429de1dea512e03f2f79ffa54621e81db6b71cec3f37e4ad30",
            "evans-absorbing":
                "f6db16b3de59c638f58b0b8367e1c473b5db1dec5b7b3114275f739a1796223f",
            "delta-fl-absorbing":
                "b3e9ec70457f7e01f9407f2d07c012b44cfdb3de88902ad293eea15f4b241558",
            "stationary-default":
                "ea0adf7011361b7a44009232755ad2c10f0a134d1e40d4a37d0173805012dc68",
            "stationary-absorbing":
                "8a857b7b4ce6675532c221992324d782291f52ae4ea97d73f4f93e0fa56c316b",
        }


class TestStationary:
    def test_matches_laplace_density(self):
        spec = spec_poisson(1.0, 0.0, 0.0)
        grid = default_grid(spec, None, h=1e-2)
        curve = stationary_fpe(spec, grid)
        ref = analytic.stationary_pdf(spec, curve.xs)
        assert np.max(np.abs(curve.values - ref)) < 1e-3

    def test_independent_of_start_point(self):
        grid = FpeGrid(-15.0, 15.0, h=1e-2, dt=1e-3)
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
        # x^2 maps to 2D + r(xR^2 - x^2): the generator prediction that
        # acceptance criterion 6 checks against sampled drifts
        out = apply_generator(xs ** 2, xs, spec_poisson(1.0, 0.0, 2.0))
        assert np.allclose(out[interior], 1.0 + (4.0 - xs[interior] ** 2), atol=1e-9)

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


class TestTypedErrors:
    def test_bad_grid_functions_raise_spec_error(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        with pytest.raises(SpecError, match="at least 3 points"):
            apply_generator(np.zeros(2), np.arange(2.0), spec)
        with pytest.raises(SpecError, match="uniform"):
            apply_adjoint(np.zeros(4), np.array([0.0, 1.0, 2.0, 4.0]), spec)

    @pytest.mark.parametrize("solve, spec, grid", [
        (lambda spec, grid: solve_fpe_evans(spec, grid, 1e-3),
         ProcessSpec(1e307, 0.0, 0.0, PoissonClock(1.0)), (-1.0, 1.0, 1e-3)),
        (stationary_fpe, ProcessSpec(1e303, 0.0, 0.0, PoissonClock(1.0)),
         (-1.0, 1.0, 1e-3)),
        (lambda spec, grid: solve_fpe_delta_fl(spec, grid, 0.1),
         ProcessSpec(1e-300, 0.0, 0.0, PoissonClock(1e9)), (-1.0, 1.0, 1e-2)),
        (stationary_fpe, ProcessSpec(1e-30, 0.0, 0.0, PoissonClock(1e300)),
         (-1e-6, 1e-6, 1e-9)),
    ], ids=["evans-system", "stationary-system", "delta-fl-source",
            "stationary-source"])
    def test_overflow_raises_numerical_error(self, solve, spec, grid):
        # an overflowing system, source or density, never a NaN curve or a
        # numpy warning
        x_lo, x_hi, h = grid
        with pytest.raises(NumericalError, match="not finite|mass nan"):
            solve(spec, FpeGrid(x_lo, x_hi, h=h, boundary="absorbing"))
