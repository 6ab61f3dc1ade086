"""``reset_sde._special`` against mpmath, against scipy.special, the
package's former source of erfcx, erfc and ndtri, and against the C
library's erfc."""

import importlib.util
import math
import pathlib

import mpmath
import numpy as np
import pytest
from scipy import special

from reset_sde import PoissonClock, ProcessSpec, _erfcx_table, _special, analytic
from reset_sde.fpe import default_grid


def region_edges():
    """Where ``_special`` changes piece or method: the edge between each
    two polynomial pieces of erfcx (u = 400 STEPS / (4 + x) a
    half-integer), the continued fraction's start, the 1 / (sqrt(pi) x)
    tail's start, erfc's cut to 0, and 0 and 26."""
    steps = _erfcx_table.STEPS
    pieces = [400.0 * steps / (j + 0.5) - 4.0 for j in range(_erfcx_table.FIRST, 100 * steps)]
    return np.array([0.0, 26.0, _special._TAIL, _special._HUGE, _special._ERFC_ZERO, *pieces])


def piece_interiors(points):
    """``points`` values of x evenly spaced in s inside every polynomial
    piece of erfcx, s in (-1/2, 1/2) and x in [0, 50]."""
    s = (np.arange(points) + 0.5) / points - 0.5
    j = np.arange(_erfcx_table.FIRST, 100 * _erfcx_table.STEPS + 1)
    x = (400.0 * _erfcx_table.STEPS / np.add.outer(j, s) - 4.0).reshape(-1)
    return x[(x >= 0.0) & (x <= _special._TAIL)]


def sweep_values(scale=100, steps=50, inside=0):
    """Doubles x >= 0: 1000 scale random bit patterns less their NaNs (some
    would signal), 50 scale a decade from 1e-20 to 1e20, 1000 scale
    uniform on [0, 60], ``steps`` steps of nextafter either side of every
    region edge, ``inside`` points inside every erfcx piece, and +-0, the
    least subnormal, 26, 1e300, inf and nan."""
    rng = np.random.default_rng(20261021)
    bits = np.abs(rng.integers(0, 2 ** 64, 1000 * scale, dtype=np.uint64).view(np.float64))
    bits = bits[~np.isnan(bits)]
    decades = [10.0 ** rng.uniform(k, k + 1, 50 * scale) for k in range(-20, 20)]
    edges = region_edges()
    near, up, down = [edges], edges, edges
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    specials = [0.0, -0.0, 5e-324, 26.0, 1e300, np.inf, np.nan]
    return np.concatenate([bits, *decades, rng.uniform(0.0, 60.0, 1000 * scale), *near,
                           piece_interiors(inside), specials])


def exact_erfcx(x):
    """erfcx at 40 digits, rounded to a double: mpmath's up to x = 1e8,
    and past it (1 - 1 / (2 x^2)) / (sqrt(pi) x), whose next term is below
    1e-32 of it."""
    def one(v):
        if not v < math.inf:  # inf or nan
            return 0.0 if v == math.inf else v
        m = mpmath.mpf(v)
        if v <= 1e8:
            return float(mpmath.exp(m * m) * mpmath.erfc(m))
        return float((1 - 1 / (2 * m * m)) / (mpmath.sqrt(mpmath.pi) * m))

    with mpmath.workdps(40):
        return np.array([one(v) for v in x.tolist()])


def ulps(got, want):
    """|got - want| in units of the last place of want; nan against nan
    counts as 0."""
    both = np.isnan(got) & np.isnan(want)
    return np.where(both, 0.0, np.abs(got - want) / np.spacing(np.abs(want)))


def test_erfcx_is_within_3_ulp_of_the_exact_value():
    # about 14,600 values, 3 steps either side of each region edge and 107
    # inside each piece, as mpmath takes 0.1 ms a value.  The largest
    # error, 3 ulp, is in the continued fraction past x = 50; scipy's
    # erfcx, which rounds 4 + x and 400 / (4 + x), is up to 8 ulp off near
    # x = 0
    x = sweep_values(scale=1, steps=3, inside=107)
    assert len(x) >= 14_408
    got = _special.erfcx(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert ulps(got, exact_erfcx(x)).max() <= 3
    assert _special.erfcx(0.0) == 1.0 and _special.erfcx(-0.0) == 1.0
    assert _special.erfcx(np.inf) == 0.0 and np.isnan(_special.erfcx(np.nan))


def test_erfc_is_within_4_ulp_of_scipy_and_of_libm():
    # scipy's erfc (Cephes) rounds x^2: it is off by up to 11 ulp below
    # x = 4 and 111 from 4 to 12, and gives 0 from x = 26.64, where erfc is
    # 1.2e-310; so past x = 0.5 the oracle is the C library's erfc alone
    half = sweep_values()  # about 550,000 values
    x = np.concatenate([half, -half])
    got = _special.erfc(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    libm = np.frompyfunc(math.erfc, 1, 1)(x).astype(float)
    assert ulps(got, libm).max() <= 4
    cephes = ~(x > 0.5)
    assert ulps(got[cephes], special.erfc(x[cephes])).max() <= 4
    assert _special.erfc(0.0) == 1.0 and _special.erfc(np.inf) == 0.0
    assert _special.erfc(-np.inf) == 2.0 and np.isnan(_special.erfc(np.nan))


def test_erfc_keeps_the_shape_of_its_input():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert _special.erfc(x).shape == (3, 4)
    assert _special.erfcx(np.abs(x)).shape == (3, 4)
    assert _special.erfc(np.empty(0)).shape == (0,)


def test_ndtri_is_scipy_s_at_the_windows_of_the_fpe_digests(monkeypatch):
    # the default grids of test_fpe's pinned digests size their windows
    # from these quantiles: the same window needs the same double
    seen, ndtri = [], _special.ndtri

    def recording(p):
        seen.append(p)
        return ndtri(p)

    monkeypatch.setattr(analytic._special, "ndtri", recording)
    spec = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
    default_grid(spec, 0.5, h=2e-2, dt=2e-3)
    default_grid(spec, None, h=2e-2, dt=2e-3)
    monkeypatch.undo()
    assert len(seen) == 2
    for p in seen:
        assert _special.ndtri(p) == special.ndtri(p)


def load_generator():
    """``tools/erfcx_table.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "erfcx_table.py"
    spec = importlib.util.spec_from_file_location("erfcx_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_committed_table_is_what_the_generator_writes():
    # the table only, not the mpmath version its docstring names
    written = {}
    exec(load_generator().module_text()[0], written)
    for name in ("STEPS", "DEGREE", "FIRST", "COEFFICIENTS"):
        assert written[name] == getattr(_erfcx_table, name), name


def test_generator_refuses_an_odd_degree(monkeypatch):
    # an odd degree has no Chebyshev node at s = 0, so erfcx(0) would
    # not be 1 exactly
    tool = load_generator()
    monkeypatch.setattr(tool, "DEGREE", 5)
    with pytest.raises(ValueError, match="s = 0"):
        tool.rows()
