"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline).  Seeds are frozen so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ks_2samp

from reset_sde import (
    DomainError,
    NonhomogeneousPoissonClock,
    PoissonClock,
    ProcessSpec,
    euler_marginal_samples,
    marginal_samples,
    run_ensemble,
)
from reset_sde.simulate import ExactScheme, SchemeConfig
from reset_sde import analytic, checks, fpe, stats


def report(number, name, checks):
    """checks: list of (label, ok, detail); prints one line per criterion."""
    ok_all = all(ok for _, ok, _ in checks)
    print(f"[{'PASS' if ok_all else 'FAIL'}] criterion {number}: {name}")
    for label, ok, detail in checks:
        print(f"    {'ok ' if ok else 'BAD'} {label}: {detail}")
    assert ok_all, f"criterion {number} failed: " + "; ".join(
        label for label, ok, _ in checks if not ok)


def spec_poisson(rate=1.0, x0=0.0, xr=0.0, d=0.5):
    return ProcessSpec(d, x0, xr, PoissonClock(rate))


def spec_npp(p, rate=1.0):
    return ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(rate, p))


def test_criterion_01_pdf_agreement():
    started = time.time()
    ks = checks.marginal_ks(spec_poisson(1.0, 0.0, 3.0), 0.1, 100000, 20240101)
    elapsed = time.time() - started
    report(1, "density vs 1e5 exact samples (start 0, reset 3, rate 1, t=0.1)", [
        ("KS distance < 0.01", ks < 0.01, f"KS = {ks:.5f}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s"),
    ])


def test_criterion_02_mean_formula():
    checks = []
    for i, (x0, xr, rate) in enumerate([(0.0, 5.0, 1.0), (2.0, 0.0, 1.0),
                                        (-1.0, 3.0, 0.5)]):
        spec = spec_poisson(rate, x0, xr)
        for j, t in enumerate((0.1, 0.5, 1.5)):
            xs = marginal_samples(spec, t, 100000, seed=7000 + 10 * i + j)
            target = analytic.mean(spec, t)
            z = (xs.mean() - target) / (xs.std() / math.sqrt(len(xs)))
            checks.append((f"(x0={x0:g}, xR={xr:g}, r={rate:g}, t={t:g})",
                           abs(z) < 3.0, f"z = {z:+.2f}"))
    report(2, "relaxing-mean formula vs monte carlo on a 3x3 grid", checks)


def test_criterion_03_stationary_law():
    spec = spec_poisson(1.0, 0.0, 0.0)
    samples = marginal_samples(spec, 20.0, 1000000, seed=33)
    var = samples.var()
    ks = stats.ks_distance(samples, lambda v: stats.analytic_cdf(spec, v, 20.0))
    report(3, "stationary law at t = 20/r (1e6 samples)", [
        ("variance within 3% of 1/r", abs(var - 1.0) < 0.03,
         f"var = {var:.5f}"),
        ("KS vs stationary cdf < 0.005", ks < 0.005, f"KS = {ks:.5f}"),
    ])


def test_criterion_04_moment_triangle():
    spec = spec_poisson(1.0, 1.0, 0.0)
    rows = []
    zs = checks.moment_z_scores(spec, 0.7, 1000000, 42, range(1, 5))
    for n, (rel_quad, rel_fd) in enumerate(checks.moment_errors(spec, 0.7, range(1, 7)), 1):
        rows.append((f"n={n} closed vs quadrature (rel < 1e-6)",
                     rel_quad < 1e-6, f"rel = {rel_quad:.2e}"))
        rows.append((f"n={n} closed vs mgf derivative (rel < 1e-4)",
                     rel_fd < 1e-4, f"rel = {rel_fd:.2e}"))
        if n <= 4:
            z = zs[n - 1]
            rows.append((f"n={n} closed vs monte carlo (|z| < 3)",
                         abs(z) < 3.0, f"z = {z:+.2f}"))
    report(4, "moment triangle at (x0, r, t) = (1, 1, 0.7), reset point 0",
           rows)


def test_criterion_05_fpe_cross_validation():
    spec = spec_poisson(1.0, 0.0, 3.0)
    rows = []
    for t in (0.1, 1.0):
        started = time.time()
        l1_ends, l1_ev = checks.fpe_l1_distances(spec, t, h=1e-2, dt=1e-3)
        elapsed = time.time() - started
        rows.append((f"t={t}: reflecting vs absorbing ends agree (L1 < 1e-8)",
                       l1_ends < 1e-8, f"L1 = {l1_ends:.2e}"))
        rows.append((f"t={t}: solve vs closed form (L1 < 1e-2)",
                       l1_ev < 1e-2, f"L1 = {l1_ev:.2e}"))
        rows.append((f"t={t}: runtime < 60 s per solve",
                       elapsed / 2 < 60.0, f"{elapsed / 2:.2f} s"))
    linf = checks.stationary_linf(spec_poisson(1.0, 0.0, 0.0), h=1e-2)
    rows.append(("stationary solve vs laplace density (Linf < 1e-3)",
                 linf < 1e-3, f"Linf = {linf:.2e}"))
    report(5, "finite-difference solvers vs closed forms", rows)


def test_criterion_06_generator_adjoint():
    spec = spec_poisson(1.0, 0.0, 2.0)
    xs = np.arange(-8.0, 10.0 + 1e-12, 1e-2)
    worst = checks.duality_residual(spec, xs, np.random.default_rng(606), draws=5)
    z = checks.dynkin_z(spec, 0.5, 100000, 2718)
    spec3 = spec_poisson(1.0, 0.0, 3.0)
    l1 = checks.adjoint_l1(spec3, fpe.default_grid(spec3, 1.0, h=1e-2).xs, 0.5)
    report(6, "generator and adjoint consistency", [
        ("discrete duality residual < 1e-8", worst < 1e-8, f"{worst:.2e}"),
        ("drift of E[x^2] matches generator (|z| < 3, 1e5 samples)",
         abs(z) < 3.0, f"z = {z:+.2f}"),
        ("time derivative of density vs adjoint action (L1 < 1e-2)",
         l1 < 1e-2, f"L1 = {l1:.2e}"),
    ])


def test_criterion_07_npp_msd_exponents():
    started = time.time()
    grid = np.geomspace(0.1, 100.0, 48)
    cfg = SchemeConfig(scheme=ExactScheme(), horizon=100.0, grid=grid)
    targets = {-0.5: 0.5, -1.0: 1.0, -1.5: 1.0, 0.0: 0.0}
    rows = []
    for i, p in enumerate((-0.5, -1.0, -1.5, 0.0, 0.5)):
        ens = run_ensemble(spec_npp(p), cfg, 10000, seed=4200 + i, keep="grid")
        series = stats.empirical_msd(ens)
        if p in targets:
            mu = stats.fit_power_law_exponent(series)
            rows.append((f"p={p:g}: exponent within 0.1 of {targets[p]:g}",
                         abs(mu - targets[p]) < 0.1, f"mu = {mu:+.3f}"))
        else:
            rel, change = checks.msd_tail(spec_npp(p), series)
            msd10 = series.msd[-1] - change
            rows.append(("p=0.5: msd at horizon within 10% of quadrature",
                         rel < 0.10, f"rel = {rel:.3f}"))
            rows.append(("p=0.5: msd decreases over the last decade",
                         change < 0.0, f"{series.msd[-1]:.4f} < {msd10:.4f}"))
    elapsed = time.time() - started
    rows.append(("total runtime < 10 min", elapsed < 600.0, f"{elapsed:.0f} s"))
    report(7, "anomalous-diffusion exponents (1e4 paths, horizon 1e2)", rows)


def test_criterion_08_npp_density_consistency():
    ks = checks.npp_marginal_ks(spec_npp(-0.5), 5.0, 100000, 808,
                                np.linspace(-12.0, 12.0, 2401))
    worst = 0.0
    hom = spec_poisson(1.0)
    npp0 = spec_npp(0.0)
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        for t in (0.2, 1.0, 3.0, 8.0):
            worst = max(worst, abs(analytic.npp_char_fn(npp0, s, t)
                                   - analytic.char_fn(hom, s, t)))
    report(8, "time-varying-intensity density and transform", [
        ("sampled marginals vs quadrature density, KS < 0.02 (1e5)",
         ks < 0.02, f"KS = {ks:.5f}"),
        ("constant-intensity transform reduction, max err <= 1e-8",
         worst <= 1e-8, f"max = {worst:.2e}"),
    ])


def test_criterion_09_scheme_convergence():
    spec = spec_poisson(1.0, 0.0, 0.0)
    exact = marginal_samples(spec, 1.0, 100000, seed=321)
    ks = {}
    for dt in (1e-1, 1e-2, 1e-3):
        euler = euler_marginal_samples(spec, 1.0, dt, 100000, seed=123)
        ks[dt] = ks_2samp(euler, exact).statistic
    report(9, "euler marginals approach exact marginals as dt shrinks", [
        ("KS decreases monotonically over dt = 0.1, 0.01, 0.001",
         ks[1e-1] > ks[1e-2] > ks[1e-3],
         " > ".join(f"{ks[dt]:.4f}" for dt in (1e-1, 1e-2, 1e-3))),
    ])


def test_criterion_10_property_suite():
    checks = []
    spec = spec_poisson(1.0, 0.0, 2.0)
    edge = math.sqrt(2.0)
    raised = []
    for s in (edge, -edge, 2.0):
        try:
            analytic.mgf(spec, s, 1.0)
            raised.append(False)
        except DomainError:
            raised.append(True)
    checks.append(("mgf domain error at |s| >= sqrt(2r)", all(raised),
                   f"raised for s in (+edge, -edge, 2.0): {raised}"))

    ss = np.linspace(-40, 40, 1601)
    mods = np.abs(analytic.char_fn(spec, ss, 0.7))
    checks.append(("characteristic function bounded by 1",
                   bool(np.all(mods <= 1 + 1e-12)), f"max = {mods.max():.6f}"))

    worst_mass = 0.0
    for t in (0.1, 1.0):
        mass, _ = integrate.quad(lambda x: analytic.pdf(spec_poisson(1.0, 0.0, 3.0), x, t),
                                 -np.inf, np.inf, limit=300)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    checks.append(("density normalises to 1 within 1e-4",
                   worst_mass < 1e-4, f"worst |mass-1| = {worst_mass:.2e}"))

    centred = spec_poisson(1.0, 0.0, 0.0)
    odd = [analytic.nth_moment(centred, n, 0.9) for n in (1, 3, 5)]
    checks.append(("odd moments vanish for centred process",
                   all(v == 0.0 for v in odd), f"values = {odd}"))

    free = spec_poisson(0.0, x0=0.4)
    m_ok = analytic.mgf(free, 0.8, 1.2) == pytest.approx(
        math.exp(0.8 * 0.4 + 1.2 * 0.8 ** 2 / 2), rel=1e-13)
    xs = np.linspace(-4, 5, 81)
    gauss = np.exp(-(xs - 0.4) ** 2 / (2 * 1.2)) / math.sqrt(2 * math.pi * 1.2)
    p_ok = bool(np.allclose(analytic.pdf(free, xs, 1.2), gauss, rtol=1e-12))
    samples = marginal_samples(free, 1.2, 200000, seed=1010)
    z = (samples.var() - 1.2) / (samples.var() * math.sqrt(5.0 / len(samples)))
    checks.append(("no-resetting reductions (mgf, density, sampler)",
                   m_ok and p_ok and abs(z) < 3, f"sampler z = {z:+.2f}"))
    report(10, "property suite", checks)
