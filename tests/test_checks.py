"""Unit tests of the cross-check statistics in ``reset_sde.checks``."""

import numpy as np
import pytest

from reset_sde import DomainError, PoissonClock, ProcessSpec
from reset_sde import analytic, checks
from reset_sde.analytic import ConvergenceError

# (spec, t): the validate moments suite's; one whose moments of orders
# 1..6 span four decades, from E X = 1.4e-4 to E X^6 = 0.93; that one on
# a length scale 1e-3 as large, where they span eleven, from 1.4e-7 to
# 9.3e-19, all below an absolute tolerance of 1.49e-8; and on a scale 1e-4
# as large, a density of width ~1e-4 that a quadrature over x misses;
# and three with a reset point other than 0, left and right of the start.
MOMENT_CASES = {
    "suite": (ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)), 0.7),
    "decades": (ProcessSpec(0.5, 3.0, 0.0, PoissonClock(5.0)), 2.0),
    "small-scale": (ProcessSpec(0.5e-6, 3e-3, 0.0, PoissonClock(5.0)), 2.0),
    "tiny-scale": (ProcessSpec(0.5e-8, 3e-4, 0.0, PoissonClock(5.0)), 2.0),
    "reset-right": (ProcessSpec(0.5, 1.0, 2.0, PoissonClock(1.0)), 0.7),
    "reset-left-wide": (ProcessSpec(2.0, 0.0, -1.5, PoissonClock(0.5)), 1.5),
    "reset-across-0": (ProcessSpec(0.5, -2.0, 1.0, PoissonClock(2.0)), 0.3),
}


class TestMomentErrors:
    @pytest.mark.parametrize("case", MOMENT_CASES)
    def test_one_vector_quadrature_holds_each_order_to_its_scale(self, case, monkeypatch):
        spec, t = MOMENT_CASES[case]
        calls = []
        quadrature = analytic.quadrature

        def counted(*args, **opts):
            calls.append(opts)
            return quadrature(*args, **opts)

        monkeypatch.setattr(analytic, "quadrature", counted)
        errors = checks.moment_errors(spec, t, range(1, 7))
        assert len(calls) == 1
        assert len(errors) == 6
        for rel_quad, rel_mgf in errors:
            assert rel_quad < 1e-10
            assert rel_mgf < 1e-4

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_quadrature_raises(self, monkeypatch):
        quadrature = analytic.quadrature
        monkeypatch.setattr(analytic, "quadrature",
                            lambda *args, **opts: quadrature(*args, **{**opts, "limit": 1}))
        with pytest.raises(ConvergenceError, match="error estimate"):
            checks.moment_errors(*MOMENT_CASES["suite"], range(1, 7))

    def test_quadrature_that_misses_the_density_raises(self):
        # at t = 1e-7 the density is a spike of width ~3e-4 at x0 = 1, which
        # the quadrature over (-inf, inf) does not sample: its mass, order
        # 0, comes out near 0, not 1
        with pytest.raises(ConvergenceError, match="mass"):
            checks.moment_errors(ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)), 1e-7,
                                 range(1, 7))

    @pytest.mark.parametrize("t", np.geomspace(1e-12, 1e-3, 28))
    def test_a_narrowing_density_is_resolved_or_refused(self, t):
        # as the spike narrows the quadrature sees all of it, part of it
        # or none: it must either raise or be right
        try:
            errors = checks.moment_errors(ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0)),
                                          float(t), range(1, 7))
        except ConvergenceError:
            return
        assert max(rel_quad for rel_quad, _ in errors) < 1e-6

    def test_one_integrand_call_per_refinement_round(self, monkeypatch):
        pdf_calls = []
        pdf = analytic.pdf
        monkeypatch.setattr(analytic, "pdf", lambda *args: pdf_calls.append(1) or pdf(*args))
        with analytic.quadrature_record() as record:
            checks.moment_errors(*MOMENT_CASES["suite"], range(1, 7))
        assert record["quadratures"] == 1
        assert record["integrand_calls"] == len(pdf_calls) <= 10

    def test_zero_moment_is_refused_before_any_quadrature(self, monkeypatch):
        def quadrature(*args, **opts):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(analytic, "quadrature", quadrature)
        # x0 = x_R: the law is symmetric about 0, so odd moments are 0
        with pytest.raises(DomainError, match="moment 1 is 0"):
            checks.moment_errors(ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0)), 0.7,
                                 range(1, 7))
