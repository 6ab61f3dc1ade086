import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

from reset_sde import (
    DeterministicGaps,
    Ensemble,
    ExponentialGaps,
    NonhomogeneousPoissonClock,
    ParetoGaps,
    PoissonClock,
    ProcessSpec,
    RenewalClock,
    DomainError,
    SpecError,
    Trajectory,
    rescale_to_unit,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from reset_sde import _floatcells, core
from reset_sde.core import clock_from_json, write_table
from reset_sde.simulate import (
    ExactScheme,
    SchemeConfig,
    euler_marginal_samples,
    simulate_exact,
)


def fig1_spec():
    return ProcessSpec(diffusivity=0.5, x0=0.0, x_reset=2.0,
                       clock=PoissonClock(1.0))


class TestValidateSpec:
    def test_fig1_spec_is_valid(self):
        spec = fig1_spec()
        assert validate_spec(spec) is spec

    def test_npp_with_negative_exponent_is_valid(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(1.0, -0.5))
        assert validate_spec(spec) is spec

    def test_rejects_zero_diffusivity(self):
        with pytest.raises(SpecError, match="diffusivity must be positive"):
            validate_spec(ProcessSpec(0.0, 0.0, 2.0, PoissonClock(1.0)))

    def test_rejects_negative_rate(self):
        with pytest.raises(SpecError, match="clock.rate"):
            validate_spec(ProcessSpec(0.5, 0.0, 0.0, PoissonClock(-1.0)))

    def test_rate_zero_is_degenerate_but_valid(self):
        validate_spec(ProcessSpec(0.5, 0.0, 0.0, PoissonClock(0.0)))

    def test_npp_requires_positive_rate(self):
        with pytest.raises(SpecError, match="clock.rate"):
            validate_spec(ProcessSpec(0.5, 0.0, 0.0,
                                      NonhomogeneousPoissonClock(0.0, -0.5)))

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(SpecError, match="x0"):
            validate_spec(ProcessSpec(0.5, math.nan, 0.0, PoissonClock(1.0)))

    def test_renewal_law_diagnostics_name_the_field(self):
        with pytest.raises(SpecError, match="renewal_law.gap"):
            validate_spec(ProcessSpec(0.5, 0.0, 0.0,
                                      RenewalClock(DeterministicGaps(0.0))))
        with pytest.raises(SpecError, match="renewal_law.alpha"):
            validate_spec(ProcessSpec(0.5, 0.0, 0.0,
                                      RenewalClock(ParetoGaps(-1.0, 1.0))))
        # an infinite parameter too: its mean gap would size the run
        for law, field in ((ExponentialGaps(math.inf), "mean"),
                           (DeterministicGaps(math.inf), "gap"),
                           (ParetoGaps(1.5, math.inf), "xm"), (ParetoGaps(math.inf, 1.0), "alpha")):
            with pytest.raises(SpecError, match=f"renewal_law.{field} must be positive and finite"):
                validate_spec(ProcessSpec(0.5, 0.0, 0.0, RenewalClock(law)))

    def test_rejects_unknown_clock(self):
        with pytest.raises(SpecError, match="clock"):
            validate_spec(ProcessSpec(0.5, 0.0, 0.0, "not a clock"))

    def test_rejects_bool_constants(self):
        with pytest.raises(SpecError, match="diffusivity"):
            validate_spec(ProcessSpec(True, 0.0, 0.0, PoissonClock(1.0)))
        with pytest.raises(SpecError, match="x0"):
            validate_spec(ProcessSpec(0.5, True, 0.0, PoissonClock(1.0)))
        with pytest.raises(SpecError, match="x_reset"):
            validate_spec(ProcessSpec(0.5, 0.0, np.bool_(False), PoissonClock(1.0)))

    @pytest.mark.parametrize("value", [np.float32(1.0), np.float64(1.0),
                                       np.int64(1), np.int8(1), 1, 1.0])
    def test_accepts_real_numpy_and_python_scalars(self, value):
        spec = ProcessSpec(value, value, value, PoissonClock(1.0))
        assert validate_spec(spec) is spec

    def test_rejects_complex_and_nonfinite_numpy_scalars(self):
        with pytest.raises(SpecError, match="x0"):
            validate_spec(ProcessSpec(0.5, np.complex128(1.0), 0.0, PoissonClock(1.0)))
        with pytest.raises(SpecError, match="x0"):
            validate_spec(ProcessSpec(0.5, np.float32("inf"), 0.0, PoissonClock(1.0)))


class TestRescale:
    def test_identity_at_unit_diffusivity(self):
        spec = fig1_spec()
        scaled, c = rescale_to_unit(spec)
        assert scaled == spec
        assert c == 1.0

    def test_example_values(self):
        spec = ProcessSpec(2.0, 4.0, 1.0, PoissonClock(1.0))
        scaled, c = rescale_to_unit(spec)
        assert scaled.diffusivity == 0.5
        assert scaled.x0 == 2.0
        assert c * 1.0 == 2.0
        assert c * scaled.x_reset == pytest.approx(1.0, rel=1e-15)

    @given(d=hs.floats(1e-3, 1e3), x0=hs.floats(-1e3, 1e3),
           xr=hs.floats(-1e3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_is_identity(self, d, x0, xr):
        spec = ProcessSpec(d, x0, xr, PoissonClock(1.0))
        scaled, c = rescale_to_unit(spec)
        assert c * scaled.x0 == pytest.approx(x0, rel=1e-12, abs=1e-12)
        assert c * scaled.x_reset == pytest.approx(xr, rel=1e-12, abs=1e-12)

    def test_rescaled_euler_matches_direct_simulation(self):
        # variance at t=1 for D=1 directly vs rescaled-to-unit and mapped back
        n = 100000
        direct_spec = ProcessSpec(1.0, 0.0, 1.0, PoissonClock(1.0))
        direct = euler_marginal_samples(direct_spec, 1.0, 1e-3, n, seed=101)
        scaled, c = rescale_to_unit(direct_spec)
        mapped = c * euler_marginal_samples(scaled, 1.0, 1e-3, n, seed=202)
        se = math.sqrt(direct.var() ** 2 * 5.0 / n) * math.sqrt(2.0)
        assert abs(direct.var() - mapped.var()) < 3 * se


class TestTrajectory:
    def test_grid_invariants_and_subsampling(self):
        spec = fig1_spec()
        cfg = SchemeConfig(scheme=ExactScheme(), horizon=2.0)
        tr = simulate_exact(spec, cfg, np.random.default_rng(3))
        assert tr.times[0] == 0.0
        assert tr.positions[0] == spec.x0
        assert np.all(np.diff(tr.times) > 0)
        assert np.all((tr.reset_times > 0) & (tr.reset_times <= 2.0))
        sub = tr.at([0.0, 1.0, 2.0])
        assert sub[0] == spec.x0
        with pytest.raises(ValueError):
            tr.at([0.123456789])

    def test_at_reads_the_nearest_time_within_the_shared_tolerance(self):
        tr = Trajectory(times=np.array([0.0, 0.1, 0.30000000000000004, 0.5]),
                        positions=np.array([0.0, 1.0, 2.0, 3.0]),
                        reset_times=np.array([]))
        assert list(tr.at([0.3, 0.3 + 1e-10, 0.3 - 1e-10, 0.5 + 1e-10])) == [2.0, 2.0, 2.0, 3.0]
        with pytest.raises(DomainError, match="not on the trajectory grid"):
            tr.at([0.3 + 1e-8])
        with pytest.raises(DomainError):
            tr.at([np.nan])

    def test_position_is_reset_point_at_reset_times(self):
        spec = fig1_spec()
        cfg = SchemeConfig(scheme=ExactScheme(), horizon=5.0)
        tr = simulate_exact(spec, cfg, np.random.default_rng(12))
        assert len(tr.reset_times) > 0
        idx = np.searchsorted(tr.times, tr.reset_times)
        assert np.all(tr.positions[idx] == spec.x_reset)


class TestJsonWireFormat:
    def test_poisson_roundtrip_and_key_names(self):
        doc = spec_to_json(fig1_spec())
        assert set(doc) == {"diffusivity", "x0", "xR", "clock"}
        assert doc["clock"] == {"type": "poisson", "r": 1.0}
        assert spec_from_json(doc) == fig1_spec()

    def test_npp_roundtrip(self):
        spec = ProcessSpec(0.5, 0.0, 0.0, NonhomogeneousPoissonClock(2.0, -1.0))
        doc = spec_to_json(spec)
        assert doc["clock"] == {"type": "npp", "r": 2.0, "p": -1.0}
        assert spec_from_json(doc) == spec

    def test_renewal_roundtrip(self):
        for law in (ExponentialGaps(2.0), DeterministicGaps(0.25),
                    ParetoGaps(1.5, 0.1)):
            spec = ProcessSpec(0.5, 0.0, 1.0, RenewalClock(law))
            doc = spec_to_json(spec)
            assert doc["clock"]["type"] == "renewal"
            assert spec_from_json(json.loads(json.dumps(doc))) == spec

    def test_missing_fields_are_named(self):
        with pytest.raises(SpecError, match="diffusivity"):
            spec_from_json({"x0": 0.0, "xR": 0.0,
                            "clock": {"type": "poisson", "r": 1.0}})
        with pytest.raises(SpecError, match="clock.type"):
            spec_from_json({"diffusivity": 0.5, "x0": 0.0, "xR": 0.0,
                            "clock": {"type": "weird"}})
        with pytest.raises(SpecError, match="renewal_law"):
            spec_from_json({"diffusivity": 0.5, "x0": 0.0, "xR": 0.0,
                            "clock": {"type": "renewal",
                                      "renewal_law": {"name": "cauchy"}}})

    def test_clock_that_is_not_an_object_is_a_spec_error(self):
        with pytest.raises(SpecError, match="clock must be an object"):
            spec_from_json({"diffusivity": 0.5, "x0": 0.0, "xR": 0.0, "clock": 5})

    @pytest.mark.parametrize("doc, field", [
        ({"diffusivity": "slow", "x0": 0.0, "xR": 0.0}, "diffusivity"),
        ({"diffusivity": 0.5, "x0": 0.0, "xR": 0.0,
          "clock": {"type": "npp", "r": 1.0, "p": "steep"}}, "clock.p"),
        ({"diffusivity": 0.5, "x0": 0.0, "xR": 0.0,
          "clock": {"type": "renewal",
                    "renewal_law": {"name": "pareto", "alpha": [1], "xm": 0.1}}},
         "clock.renewal_law.alpha"),
    ], ids=["diffusivity", "npp-p", "pareto-alpha"])
    def test_value_that_is_not_a_number_is_named(self, doc, field):
        doc.setdefault("clock", {"type": "poisson", "r": 1.0})
        with pytest.raises(SpecError, match=f"{field} must be a number"):
            spec_from_json(doc)


class TestClockJson:
    @pytest.mark.parametrize("doc, field", [
        ({"type": "poisson", "r": 1.0, "p": 0.5}, "'p'"),
        ({"type": "npp", "r": 1.0, "p": 0.5, "renewal_law": {}}, "'renewal_law'"),
        ({"type": "renewal", "r": 1.0,
          "renewal_law": {"name": "exponential", "mean": 1.0}}, "'r'"),
        ({"type": "renewal",
          "renewal_law": {"name": "pareto", "alpha": 1.5, "xm": 0.2, "mean": 1.0}},
         "'mean'"),
    ], ids=["poisson-p", "npp-law", "renewal-r", "pareto-mean"])
    def test_fields_of_another_type_are_refused(self, doc, field):
        with pytest.raises(SpecError, match=field):
            clock_from_json(doc)

    def test_missing_rate_is_a_spec_error(self):
        with pytest.raises(SpecError, match="'r'"):
            clock_from_json({"type": "poisson"})

    def test_npp_exponent_defaults_to_zero(self):
        assert clock_from_json({"type": "npp", "r": 2.0}) == \
            NonhomogeneousPoissonClock(2.0, 0.0)


def csv_reference(path, header, blocks):
    """The table as the csv module writes it, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks:
            for row in zip(*block):
                writer.writerow([str(int(v)) if isinstance(v, np.integer)
                                 else repr(float(v)) for v in row])


class TestCsvWireFormat:
    def assert_matches_reference(self, tmp_path, header, blocks):
        write_table(tmp_path / "new.csv", header, blocks)
        csv_reference(tmp_path / "ref.csv", header, blocks)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_special_floats_and_int64_ids(self, tmp_path):
        # the widest cells fill the fixed widths: 24 bytes for a float, 20
        # for int64's least and uint64's greatest
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16,
                           1e-5, 0.1, -2.5, 1.7976931348623157e308, 1 / 3,
                           -2.2250738585072014e-308, -1.7976931348623157e+308])
        ids = np.array([0, 1, -1, 2 ** 62, -2 ** 63, 7, 8, 9, 10, 11, 12, 13, 14, 15],
                       dtype=np.int64)
        unsigned = np.array([2 ** 64 - 1, 0] * 7, dtype=np.uint64)
        self.assert_matches_reference(
            tmp_path, ("traj", "t", "x", "u"),
            [(ids, floats, floats[::-1].copy(), unsigned)])

    @pytest.mark.parametrize("col", [
        np.array([-2 ** 63, 2 ** 63 - 1], dtype=np.int64),
        np.array([2 ** 64 - 1, 0, 5], dtype=np.uint64),
        np.array([-7, -12345, 3, -1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.arange(9990, 10010, dtype=np.int32),
    ], ids=["int64-least", "uint64-greatest", "negatives", "lone-zero", "empty", "ids"])
    def test_integer_cells_are_as_wide_as_their_widest(self, tmp_path, col):
        cells = core._cells(col)
        assert cells.tolist() == [str(int(v)).encode() for v in col]
        assert cells.itemsize == max([len(str(int(v))) for v in col], default=1)
        self.assert_matches_reference(tmp_path, ("i", "x"), [(col, col.astype(float))])

    def test_several_blocks_and_an_empty_block(self, tmp_path):
        rng = np.random.default_rng(3)
        blocks = [(np.full(n, i), rng.standard_normal(n) * 10.0 ** i)
                  for i, n in enumerate((3, 0, 5, 1))]
        self.assert_matches_reference(tmp_path, ("traj", "reset_time"), blocks)

    def test_float32_column_is_written_as_its_double(self, tmp_path):
        col = np.array([0.1, 1e-8, 3.0], dtype=np.float32)
        self.assert_matches_reference(tmp_path, ("x",), [(col,)])

    def test_table_without_rows_is_the_header_alone(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, ("traj", "reset_time"), [])
        assert path.read_bytes() == b"traj,reset_time\r\n"
        self.assert_matches_reference(
            tmp_path, ("order", "value"),
            [(np.array([], dtype=np.int64), np.array([]))])

    def test_accepts_a_generator_of_blocks(self, tmp_path):
        blocks = ((np.array([i]), np.array([float(i)])) for i in range(3))
        write_table(tmp_path / "lazy.csv", ("i", "v"), blocks)
        assert (tmp_path / "lazy.csv").read_bytes() == (
            b"i,v\r\n0,0.0\r\n1,1.0\r\n2,2.0\r\n")

    def test_leading_scalars_and_formatted_cells(self, tmp_path):
        times = np.array([0.0, 0.5, -0.0])
        xs = np.array([1e16, np.nan, 1 / 3])
        ids = np.array([2 ** 62] * 3, dtype=np.int64)
        write_table(tmp_path / "new.csv", ("traj", "t", "x"),
                    [(ids, [repr(t).encode() for t in times.tolist()], xs),
                     (np.array([7]), np.array([0.25]), np.array([-1.0])),
                     (np.array([], dtype=np.int64), np.array([]), np.array([]))])
        csv_reference(tmp_path / "ref.csv", ("traj", "t", "x"),
                      [(ids, times, xs),
                       (np.array([7]), np.array([0.25]), np.array([-1.0]))])
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_float_scalar_and_single_column(self, tmp_path):
        write_table(tmp_path / "s.csv", ("c",), [(np.array([1, 2]),)])
        assert (tmp_path / "s.csv").read_bytes() == b"c\r\n1\r\n2\r\n"

    def test_ragged_block_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_table(tmp_path / "bad.csv", ("a", "b"),
                        [(np.zeros(2), np.zeros(3))])


def repr_cells(col):
    return [repr(float(v)).encode() for v in np.asarray(col).tolist()]


def sweep_values():
    """About 1.1 million doubles: random bit patterns, 25,000 a decade from
    1e-6 to 1e18 of both signs, 50 steps of nextafter either side of each
    power of 10 and of 2, and short decimals k / 10**d and k * 10**d."""
    rng = np.random.default_rng(20240915)
    bits = rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64)
    decades = [rng.choice([-1.0, 1.0], 25_000) * 10.0 ** rng.uniform(k, k + 1, 25_000)
               for k in range(-6, 18)]
    powers = np.array([10.0 ** k for k in range(-8, 20)] + [2.0 ** k for k in range(-30, 60)])
    near, up, down = [powers], powers, powers
    for _ in range(50):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    near = np.concatenate(near)
    k = rng.integers(1, 10 ** 6, 200_000).astype(float)
    d = rng.integers(0, 17, 200_000).astype(float)
    short = np.concatenate([k / 10.0 ** d, k * 10.0 ** (d - 6)])
    return np.concatenate([bits, *decades, near, -near, short])


class TestFloatCells:
    """``core._float_cells`` (``_floatcells.float_cells``) writes exactly
    what ``repr`` writes."""

    def test_sweep_of_a_million_doubles_matches_repr(self):
        values = sweep_values()
        assert len(values) >= 10 ** 6
        assert core._float_cells(values).tolist() == repr_cells(values)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hs.integers(0, 1200),
                      elements=hs.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True)))
    def test_any_doubles_match_repr(self, values):
        assert core._float_cells(values).tolist() == repr_cells(values)
        # the same values again, as one array above the size threshold
        big = np.resize(values, _floatcells._FAST_MIN + 1) if len(values) else values
        assert core._float_cells(big).tolist() == repr_cells(big)

    def test_specials_float32_and_scalars(self):
        specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                             2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
                             1e16, 9999999999999998.0, 0.1, 0.3, 2.0 / 3.0, 1e15 + 0.5])
        col = np.tile(specials, 40)
        assert core._float_cells(col).tolist() == repr_cells(col)
        assert core._float_cells(col.astype(np.float32)).tolist() == \
            repr_cells(col.astype(np.float32))
        assert core._float_cells(np.float64(0.1)).tolist() == [b"0.1"]
        for values in (specials, col):  # below and above the size threshold
            assert core._float_cells(values).dtype == np.dtype("S24")

    def test_ties_and_edges_go_to_repr(self, monkeypatch):
        # 1 + 2**-17 scales to ...312.5, halfway between two 17-digit
        # candidates: the fast path must not choose between them
        tie = np.array([1 + 2.0 ** -17, 0.5, 1.5])
        sure = _floatcells._shortest(tie)[3]
        assert sure.tolist() == [False, True, True]
        col = np.repeat(tie, _floatcells._FAST_MIN)
        assert core._float_cells(col).tolist() == repr_cells(col)
        # with a margin wider than any interval nothing is sure, and every
        # cell comes from repr
        values = np.random.default_rng(5).standard_normal(3000)
        monkeypatch.setattr(_floatcells, "_MARGIN", 100.0)
        assert not _floatcells._shortest(np.abs(values))[3].any()
        assert core._float_cells(values).tolist() == repr_cells(values)

    def test_chunks_and_short_arrays(self):
        chunk = _floatcells._FAST_CHUNK
        values = np.random.default_rng(6).standard_normal(2 * chunk + 7) * 50
        values[::97] = 0.0
        values[1::101] = -0.0
        for n in (0, 1, _floatcells._FAST_MIN - 1, _floatcells._FAST_MIN, len(values)):
            assert core._float_cells(values[:n]).tolist() == repr_cells(values[:n])


class TestTypedErrors:
    def test_missing_grid_and_ragged_block_raise_spec_error(self, tmp_path):
        tr = Trajectory(np.array([0.0, 1.0]), np.zeros(2), np.empty(0))
        with pytest.raises(SpecError, match="no common grid"):
            Ensemble(fig1_spec(), None, 0, [tr]).positions_at()
        with pytest.raises(SpecError, match="equal length"):
            write_table(tmp_path / "bad.csv", ("a", "b"), [(np.zeros(2), np.zeros(3))])


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hs.integers(0, 300),
                  elements=hs.sampled_from([0.0, -0.0, 0.25, 1.0, 1e-300, 3.5, 1e300, np.inf])
                  | hs.floats(allow_nan=False)))
def test_distinct_is_np_unique_bit_for_bit(values):
    # np.unique's sort and neighbour mask, which the samplers use without
    # its np.ma.is_masked call
    got, want = core._distinct(values), np.unique(values)
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
    assert core._distinct(values.reshape(-1, 1)).shape == want.shape
