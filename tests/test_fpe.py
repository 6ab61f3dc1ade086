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
from reset_sde import analytic, fpe
from reset_sde.core import MAX_VALUES, NumericalError
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


def dense_generator(spec, grid):
    """r - D L as a dense matrix, L the grid's second difference."""
    off, main = _second_difference_bands(len(grid.xs), grid.h, grid.boundary)
    second = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return spec.clock.rate * np.eye(len(main)) - spec.diffusivity * second


def reference_march(spec, grid, t_final):
    """The scheme the solvers sum in closed form, marched step by step with
    one dense solve per step: Rannacher backward-Euler half-steps, then
    Crank-Nicolson steps, the source explicit."""
    rate, xs, h = spec.clock.rate, grid.xs, grid.h
    source = rate * _delta_weights(xs, h, spec.x_reset) / h
    p = _delta_weights(xs, h, spec.x0) / h
    n_steps = max(1, int(round(t_final / grid.dt)))
    dt = t_final / n_steps
    step = 0.5 * dt * dense_generator(spec, grid)
    implicit, explicit = np.eye(len(xs)) + step, np.eye(len(xs)) - step
    half_steps = 4 if n_steps >= 2 else 2
    for _ in range(half_steps):
        p = np.linalg.solve(implicit, p + 0.5 * dt * source)
    for _ in range(n_steps - half_steps // 2):
        p = np.linalg.solve(implicit, explicit @ p + dt * source)
    return p


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
        # a node counts as 100 values of the budget: at most 1e6 nodes
        nodes = MAX_VALUES // 100
        FpeGrid(0.0, (nodes - 1) * 1e-2, h=1e-2, dt=1e-3)
        with pytest.raises(SpecError, match="nodes"):
            FpeGrid(0.0, nodes * 1e-2, h=1e-2, dt=1e-3)
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
        # the weighted source's coefficient 2 D lam (lam / 2) is r: one solve
        spec = spec_poisson(1.0, 0.0, 0.0)
        grid = default_grid(spec, 1.0, h=1e-2, dt=1e-3)
        ev = solve_fpe_evans(spec, grid, 1.0)
        fl = solve_fpe_delta_fl(spec, grid, 1.0)
        assert np.array_equal(ev.values, fl.values)
        assert l1(ev.xs, ev.values, analytic.pdf(spec, ev.xs, 1.0)) < 1e-2

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
        # absorbing one.  TestClosedForm holds them to the dense march.  The
        # two source forms are one solve, so delta-fl's digests are evans's.
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
                "8a2523867cd2386d8fa181c6aa0b2e5f8e1f5da5a443d8041d8604f7af62aa1d",
            "delta-fl-default":
                "8a2523867cd2386d8fa181c6aa0b2e5f8e1f5da5a443d8041d8604f7af62aa1d",
            "evans-absorbing":
                "24b52261db0a7685900c37fd380364142d246972d0f16ea3d839c0be071bad48",
            "delta-fl-absorbing":
                "24b52261db0a7685900c37fd380364142d246972d0f16ea3d839c0be071bad48",
            "stationary-default":
                "ccfb19bbed786cb3a5659dab8164c1b124ee81e272e396596d7b9ca755cc72bd",
            "stationary-absorbing":
                "c7dc56af67d39d64adedb8316e7ef2b561ca60f94069432fa3e80c149949afb9",
        }


class TestClosedForm:
    """The solvers sum the march in the grid's eigenbasis: the dense march
    is their reference, on grids of at most 80 nodes."""

    SPEC = spec_poisson(8.0, 0.4, -0.3)

    @pytest.mark.parametrize("n_steps", [1, 2, 7])
    @pytest.mark.parametrize("solve", [solve_fpe_evans, solve_fpe_delta_fl],
                             ids=["evans", "delta-fl"])
    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    def test_matches_the_dense_march(self, boundary, solve, n_steps):
        grid = FpeGrid(-7.0, 8.0, h=0.2, dt=0.05, boundary=boundary)
        assert len(grid.xs) <= 80
        got = solve(self.SPEC, grid, n_steps * 0.05).values
        want = reference_march(self.SPEC, grid, n_steps * 0.05)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    def test_stationary_matches_the_dense_solve(self, boundary):
        grid = FpeGrid(-7.0, 8.0, h=0.2, boundary=boundary)
        source = _delta_weights(grid.xs, grid.h, self.SPEC.x_reset) / grid.h
        want = np.linalg.solve(dense_generator(self.SPEC, grid), self.SPEC.clock.rate * source)
        want /= grid.h * want.sum()
        got = stationary_fpe(self.SPEC, grid).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("t", [1e6, 1e300])
    def test_cost_does_not_grow_with_time(self, t):
        # 1e9 and 1e303 steps of dt = 1e-3 reach the stationary solve
        grid = default_grid(FIG3, None)
        stationary = stationary_fpe(FIG3, grid).values
        for solve in (solve_fpe_evans, solve_fpe_delta_fl):
            assert np.max(np.abs(solve(FIG3, grid, t).values - stationary)) <= 1e-14

    def test_a_step_count_beyond_a_double_is_refused(self):
        with pytest.raises(SpecError, match="overflow"):
            solve_fpe_evans(FIG3, default_grid(FIG3, None), 1e308)

    @pytest.mark.parametrize("x0, drifted, final", [(-0.9, "0.998948", 0.999883),
                                                     (-0.7, "0.998745", 0.999888)])
    def test_mass_that_dips_and_recovers_raises_at_the_dip(self, monkeypatch, x0, drifted,
                                                           final):
        # every step is checked: the mass leaks at the near end, then the
        # resets refill it; the first drift is at the first half-step from
        # x0 = -0.9, and at the seventh Crank-Nicolson step from x0 = -0.7
        spec = spec_poisson(5.0, x0, 3.0)
        grid = FpeGrid(-1.0, 6.0, h=1e-2, dt=1e-3, boundary="absorbing")
        with pytest.raises(MassConservationError, match=f"mass drifted to {drifted};"):
            solve_fpe_evans(spec, grid, 2.0)
        # a check on the final mass alone would pass it
        monkeypatch.setattr(fpe, "MASS_TOLERANCE", 1.0)
        assert solve_fpe_evans(spec, grid, 2.0).mass() == pytest.approx(final, abs=1e-6)


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
        (stationary_fpe, ProcessSpec(1e-30, 0.0, 0.0, PoissonClock(1e300)),
         (-1e-6, 1e-6, 1e-9)),
    ], ids=["evans-system", "stationary-system", "stationary-source"])
    def test_overflow_raises_numerical_error(self, solve, spec, grid):
        # an overflowing system, source or density, never a NaN curve or a
        # numpy warning
        x_lo, x_hi, h = grid
        with pytest.raises(NumericalError, match="not finite|mass nan"):
            solve(spec, FpeGrid(x_lo, x_hi, h=h, boundary="absorbing"))
