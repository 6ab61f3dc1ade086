import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

import reset_sde
from reset_sde import _kernels, analytic, cli, simulate
from reset_sde.core import DomainError, NumericalError, PoissonClock, ProcessSpec


class UnpicklableError(NumericalError):
    """A shard's error that holds a lock, so it cannot be pickled."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSimulateCommand:
    def test_figure_one_scenario(self, tmp_path):
        out = tmp_path / "fig1"
        code = run(["simulate", "--r", 1, "--x0", 0, "--xr", 2, "--d", 0.5,
                    "--scheme", "exact", "--horizon", 10, "--n", 2,
                    "--seed", 7, "--out", out])
        assert code == 0
        header, rows = read_csv(out / "trajectories.csv")
        assert header == ["traj", "t", "x"]
        assert rows[0][1:] == ["0.0", "0.0"]
        header, _ = read_csv(out / "resets.csv")
        assert header == ["traj", "reset_time"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["spec"]["xR"] == 2.0
        assert manifest["outputs"] == ["resets.csv", "trajectories.csv"]

    def test_rate_zero_gives_pure_brownian_run(self, tmp_path):
        out = tmp_path / "bm"
        code = run(["simulate", "--r", 0, "--scheme", "euler", "--dt", 1e-2,
                    "--horizon", 1, "--n", 1, "--seed", 3, "--out", out])
        assert code == 0
        _, rows = read_csv(out / "resets.csv")
        assert rows == []

    def test_rate_zero_resets_file_is_the_header_alone(self, tmp_path):
        out = tmp_path / "r0"
        assert run(["simulate", "--r", 0, "--scheme", "exact", "--horizon", 2,
                    "--n", 4, "--seed", 1, "--out", out]) == 0
        assert (out / "resets.csv").read_bytes() == b"traj,reset_time\r\n"

    def test_outputs_match_pinned_digests(self, tmp_path):
        # The CSV bytes are part of the output contract: a fixed-seed run
        # must reproduce these digests exactly.
        out = tmp_path / "pinned"
        assert run(["simulate", "--r", 1, "--x0", 0, "--xr", 2,
                    "--scheme", "exact", "--horizon", 10, "--n", 20,
                    "--seed", 7, "--out", out]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("trajectories.csv", "resets.csv")}
        assert digests == {
            "trajectories.csv":
                "3977183add217f7048506be155736fceab83929058f515991bac27d91d88524d",
            "resets.csv":
                "2dd957a66ba506adef597ac154ec6b46d852e454f444bf6de2404ab652ff62b0",
        }

    @pytest.mark.parametrize("args, expected", [
        # Euler: every trajectory on the shared dt lattice
        (["--r", 1, "--x0", 0, "--xr", 2, "--scheme", "euler", "--dt", 0.01,
          "--horizon", 2, "--n", 50, "--seed", 3],
         ("7fc569cffeba0272b96821cf71765d18c04e7b2e9f7d09c499f0255ee20578f7",
          "6f00c5fc9d3dbc13405b4d3bf80992fe2fce168c435fbe953062bd33a9e7fabb")),
        # resets every 0.5 land on the 11-point grid and share its rows
        (["--clock", "renewal", "--renewal-law",
          '{"name":"deterministic","gap":0.5}', "--scheme", "exact",
          "--horizon", 5, "--grid-points", 11, "--n", 40, "--seed", 6],
         ("a7739b03d6d701a6bdb9bdfe6e7ea6e398f73ba8224d79e340f8ad0417e25413",
          "f626620a5a29e7fdcce98323e5dd35d61ee2b9b62b8e77fb661bb3279e59c7d4")),
        # power-law clock: unit-rate events mapped through R^-1
        (["--r", 1, "--p", 0.5, "--x0", 0.5, "--xr", -1, "--scheme", "exact",
          "--horizon", 4, "--n", 30, "--seed", 8],
         ("771734f06c8f1b8b07bd2b508f32abd38e9710bc55a26e3c50979b80a4146eee",
          "3a18a507ccc0b6c42639b04d90b727beb6d04ff4e4e14ae4f3886534124713f8")),
        # Euler with a decaying intensity r(t) = (t+1)^-0.5
        (["--r", 1, "--p", -0.5, "--xr", 1, "--scheme", "euler", "--dt", 0.01,
          "--horizon", 2, "--n", 30, "--seed", 9],
         ("507234747ed4991c967595c2a8418d5f0302decded7ee635604974fad9f709a8",
          "ba0ddc2ffa51baabeb8c677a55fdcce1b139e77251ad43568ff277ba1f7b7d24")),
        (["--clock", "renewal", "--renewal-law",
          '{"name":"pareto","alpha":1.5,"xm":0.2}', "--xr", 1, "--scheme", "exact",
          "--horizon", 5, "--n", 30, "--seed", 10],
         ("186e0760f89c193ace42e92940dc5d882d73ae268883f1d8beebd4d27ae08f28",
          "55e961f22e7a07ed0b939816463b3c2d39a5b952e85f2aeb93dfae0a537184d2")),
    ], ids=["euler", "deterministic-on-grid", "power-law-exact", "power-law-euler",
            "pareto"])
    def test_more_outputs_match_pinned_digests(self, tmp_path, args, expected):
        for workers in (1, 3):
            out = tmp_path / f"pinned-{workers}"
            assert run(["simulate", *args, "--workers", workers, "--out", out]) == 0
            digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("trajectories.csv", "resets.csv"))
            assert digests == expected

    def test_manifest_records_stages_and_counters(self, tmp_path):
        out = tmp_path / "m"
        assert run(["simulate", "--r", 2, "--scheme", "exact", "--horizon", 3,
                    "--n", 25, "--seed", 4, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        stages = manifest["stages"]
        assert set(stages) == {"ensemble_s", "write_s", "cpu_s", "shards_wall_s"}
        assert all(v >= 0 for v in stages.values())
        # one shard: its wall time is the two stages' (each rounded to 1 ms)
        assert stages["shards_wall_s"] == pytest.approx(
            stages["ensemble_s"] + stages["write_s"], abs=2e-3)
        counters = manifest["counters"]
        assert set(counters) == {"trajectories", "rows", "resets_drawn",
                                 "resets_expected"}
        _, rows = read_csv(out / "trajectories.csv")
        _, resets = read_csv(out / "resets.csv")
        assert counters["trajectories"] == 25
        assert counters["rows"] == len(rows)
        assert counters["resets_drawn"] == len(resets)
        assert counters["resets_expected"] == pytest.approx(25 * 2 * 3)
        (shard,) = manifest["shards"]
        assert set(shard) == {"start_s", "cpu_s", "wall_s"} and shard["start_s"] >= 0
        assert shard["cpu_s"] >= 0
        assert shard["wall_s"] == stages["shards_wall_s"]

    def test_manifest_expected_resets_by_clock(self, tmp_path):
        assert run(["simulate", "--r", 1.5, "--p", 0.5, "--scheme", "exact",
                    "--horizon", 2, "--n", 10, "--seed", 1,
                    "--out", tmp_path / "npp"]) == 0
        counters = json.loads((tmp_path / "npp" / "manifest.json").read_text())["counters"]
        # n * R(T), R(T) = r/(p+1) * ((T+1)**(p+1) - 1)
        assert counters["resets_expected"] == pytest.approx(
            10 * 1.5 / 1.5 * (3.0 ** 1.5 - 1.0))
        assert run(["simulate", "--clock", "renewal", "--renewal-law",
                    '{"name":"pareto","alpha":1.5,"xm":0.2}', "--horizon", 2,
                    "--n", 10, "--seed", 1, "--out", tmp_path / "ren"]) == 0
        counters = json.loads((tmp_path / "ren" / "manifest.json").read_text())["counters"]
        assert counters["resets_expected"] is None

    @pytest.mark.parametrize("args", [
        ["--r", 1, "--xr", 2, "--scheme", "exact", "--horizon", 3, "--n", 8,
         "--seed", 11],
        ["--r", 1, "--xr", 2, "--scheme", "euler", "--dt", 0.01, "--horizon", 1,
         "--n", 7, "--seed", 3],
        ["--clock", "renewal", "--renewal-law",
         '{"name":"pareto","alpha":1.5,"xm":0.2}', "--horizon", 5, "--n", 9,
         "--seed", 4],
        ["--r", 1, "--horizon", 3, "--n", 2, "--seed", 9],
    ], ids=["exact", "euler", "pareto", "n2"])
    def test_byte_identical_reruns_and_worker_independence(self, tmp_path, args):
        outputs = []
        for name, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 3)):
            out = tmp_path / name
            assert run(["simulate", *args, "--workers", workers, "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["workers"] == min(workers, manifest["config"]["run"]["n"])
            assert len(manifest["shards"]) == manifest["config"]["workers"]
            outputs.append(((out / "trajectories.csv").read_bytes(),
                            (out / "resets.csv").read_bytes(),
                            manifest["counters"], sorted(os.listdir(out))))
        assert all(other == outputs[0] for other in outputs[1:])

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "diffusivity": 0.5, "x0": 0.0, "xR": 4.0,
            "clock": {"type": "poisson", "r": 2.0},
            "scheme": "exact", "horizon": 2.0, "n": 3, "seed": 5}))
        out = tmp_path / "run"
        code = run(["simulate", "--config", config, "--r", 1, "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["spec"]["clock"]["r"] == 1.0
        assert manifest["config"]["spec"]["xR"] == 4.0

    @pytest.mark.parametrize("doc", [
        {"diffusivity": 0.5, "x0": 0.0, "xR": 1.0, "clock": {"type": "poisson", "r": 2.0},
         "scheme": "exact", "dt": 0.1, "horizon": 1.0, "n": 2, "seed": 1, "workers": 1,
         "grid-points": 5},
        {"d": 0.5, "xr": 1.0, "horizon": 1.0, "n": 2, "grid_points": 5},
        {"scheme": "euler", "dt": 0.1, "horizon": 1.0, "n": 2},
    ], ids=["document-keys", "flag-names", "euler"])
    def test_every_key_simulate_reads_is_accepted(self, tmp_path, doc):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert run(["simulate", "--config", config, "--out", tmp_path / "run"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["spec"]["xR"] == doc.get("xR", doc.get("xr", 0.0))

    def test_unknown_config_key_exits_2_before_any_output(self, tmp_path, capsys):
        # "horizn" misspelt, and a top-level "r" that only the clock reads:
        # run, they would leave horizon 10 and r = 1 without a word
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"r": 3, "horizn": 5}))
        assert run(["simulate", "--config", config, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: unknown key(s) 'horizn', 'r';")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc, field", [
        ({"n": "many"}, "n must be an integer"),
        ({"horizon": "long"}, "horizon must be a number"),
        ({"seed": "lucky"}, "seed must be an integer"),
        ({"scheme": "euler", "dt": "fine"}, "dt must be a number"),
        ({"grid-points": "dense"}, "grid-points must be an integer"),
        ({"n": 1e400}, "n must be an integer"),
        ({"clock": {"type": "poisson", "r": "abc"}}, "clock.r must be a number"),
        ({"clock": {"type": "npp", "r": 1.0, "p": None}}, "clock.p must be a number"),
        ({"clock": {"type": "renewal",
                    "renewal_law": {"name": "deterministic", "gap": "soon"}}},
         "clock.renewal_law.gap must be a number"),
        # a config number is a JSON number, a count a JSON integer
        ({"n": 2.7}, "n must be an integer"),
        ({"n": 2.0}, "n must be an integer"),
        ({"n": "3"}, "n must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"horizon": True}, "horizon must be a number"),
        ({"clock": {"type": "poisson", "r": "2"}}, "clock.r must be a number"),
        ({"workers": 2.0}, "workers must be an integer"),
    ], ids=["n", "horizon", "seed", "dt", "grid-points", "n-infinite", "clock-r",
            "clock-p", "law-gap", "n-fraction", "n-float", "n-string", "seed-bool",
            "horizon-bool", "clock-r-string", "workers-float"])
    def test_config_value_that_is_not_a_number_exits_2(self, tmp_path, capsys,
                                                         doc, field):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert run(["simulate", "--config", config, "--out", tmp_path / "v"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {field}; got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_euler_refuses_grid_points(self, tmp_path, capsys):
        # the Euler scheme writes its dt lattice; a grid would be dropped
        assert run(["simulate", "--scheme", "euler", "--dt", 0.1, "--horizon", 1,
                    "--grid-points", 3, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "--grid-points" in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("args, field", [
        (["--clock", "poisson", "--p", 0.5], "'p'"),
        (["--clock", "renewal", "--r", 2, "--renewal-law",
          '{"name":"deterministic","gap":0.5}'], "'r'"),
        (["--clock", "renewal", "--renewal-law",
          '{"name":"deterministic","gap":0.5,"alpha":2}'], "'alpha'"),
    ], ids=["poisson-p", "renewal-r", "law-alpha"])
    def test_fields_of_another_clock_exit_2(self, tmp_path, capsys, args, field):
        assert run(["simulate", *args, "--out", tmp_path / "c"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and field in err

    def test_renewal_clock_gets_no_default_rate(self, tmp_path):
        assert run(["simulate", "--clock", "renewal", "--renewal-law",
                    '{"name":"deterministic","gap":0.5}', "--horizon", 1,
                    "--out", tmp_path / "r"]) == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["spec"]["clock"] == {
            "type": "renewal", "renewal_law": {"name": "deterministic", "gap": 0.5}}

    def test_default_workers_count_the_grid(self, tmp_path, monkeypatch):
        # 3 trajectories of 20002 rows clear the 128 x 257-row threshold;
        # the same 3 on the default grid do not
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        for name, extra, workers in (("fine", ["--grid-points", 20001], 2),
                                     ("default", [], 1)):
            assert run(["simulate", "--r", 1, "--horizon", 1, "--n", 3, *extra,
                        "--out", tmp_path / name]) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["config"]["workers"] == workers

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--n", 4, "--workers", 0,
                    "--out", tmp_path / "w"]) == 2
        assert capsys.readouterr().err.startswith("error: config: workers")

    def test_invalid_spec_exits_2(self, tmp_path):
        assert run(["simulate", "--r", 1, "--d", 0,
                    "--out", tmp_path / "x"]) == 2

    def test_io_failure_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("i am a file")
        assert run(["simulate", "--r", 1, "--horizon", 1, "--n", 1,
                    "--seed", 0, "--out", blocker / "sub"]) == 3

    @pytest.mark.parametrize("error, code, label, suffix", [
        (OSError(28, "No space left on device"), 3, "io:", ".part1"),
        (NumericalError("walk left its accuracy regime"), 4, "numerical:", ".part2"),
        (DomainError("outside the domain"), 2, "config:", ".part1"),
        (OSError(28, "No space left on device"), 3, "io:", ".csv"),
        (lambda: os._exit(1), 3, "io: a worker process died: exit code 1", ".part1"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), 3,
         f"io: a worker process died: killed by signal {int(signal.SIGKILL)}", ".part2"),
        (UnpicklableError("a class of the test's own"), 3,
         "io: a worker process raised UnpicklableError(", ".part1"),
        # far more than a pipe holds: the caller reads it before the wait
        (NumericalError("x" * 2 ** 20), 4, "numerical:", ".part2"),
        (MemoryError("Unable to allocate 745. GiB"), 2, "config: out of memory", ".part1"),
    ], ids=["io", "numerical", "domain", "calling-process", "dead-worker", "killed-worker",
            "unpicklable", "large-error", "memory"])
    def test_shard_failure_exits_with_its_code(self, tmp_path, capfd, monkeypatch,
                                               error, code, label, suffix):
        # Forked workers inherit the patch.  A ".partN" suffix fails the
        # worker that writes shard N; ".csv" fails shard 0, which the
        # calling process runs while the workers finish theirs.
        real = simulate.open_table

        def failing(path, *rest):
            if os.fspath(path).endswith(suffix):
                if isinstance(error, BaseException):
                    raise error
                error()
            return real(path, *rest)

        monkeypatch.setattr(simulate, "open_table", failing)
        out = tmp_path / "fail"
        assert run(["simulate", "--r", 1, "--horizon", 2, "--n", 12,
                    "--seed", 5, "--workers", 3, "--out", out]) == code
        err = capfd.readouterr().err
        assert err.startswith(f"error: {label}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not [name for name in os.listdir(out) if ".part" in name]
        with pytest.raises(ChildProcessError):  # every worker was waited for
            os.waitpid(-1, os.WNOHANG)

    def test_simulate_imports_no_scipy(self, tmp_path):
        # nor, with two workers, any process pool, thread queue or
        # multiprocessing module: the shards start by a bare fork
        src = os.path.dirname(os.path.dirname(reset_sde.__file__))
        code = ("import json, os, sys\n"
                "from reset_sde import cli\n"
                f"assert cli.main(['simulate', '--n', '3', '--horizon', '1', '--workers', '2', "
                f"'--out', {str(tmp_path)!r}]) == 0\n"
                f"manifest = json.load(open(os.path.join({str(tmp_path)!r}, 'manifest.json')))\n"
                "print(manifest['config']['workers'], len(manifest['shards']))\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('multiprocessing', 'concurrent', 'queue')))\n"
                "print(sorted(manifest['versions']))\n"
                "print('reset_sde.checks' in sys.modules)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        # nor does it load the cross-checks that the validate suites share
        assert proc.stdout.splitlines()[-2] == "False"
        # the run record names no scipy version, and loads no scipy for it
        assert proc.stdout.splitlines()[-3] == "['numpy', 'python']"
        assert proc.stdout.splitlines()[-4] == "[]"
        assert proc.stdout.splitlines()[-5] == "2 2"


class TestAnalyticCommand:
    def test_pdf_curve_matches_module(self, tmp_path):
        out = tmp_path / "pdf"
        assert run(["analytic", "pdf", "--r", 1, "--x0", 0, "--xr", 3,
                    "--d", 0.5, "--t", 0.1, "--x-lo", -2, "--x-hi", 8,
                    "--points", 11, "--out", out]) == 0
        _, rows = read_csv(out / "curve.csv")
        spec = ProcessSpec(0.5, 0.0, 3.0, PoissonClock(1.0))
        for x_str, v_str in rows:
            assert float(v_str) == pytest.approx(
                analytic.pdf(spec, float(x_str), 0.1), rel=1e-12)

    def test_mgf_and_cf_curves(self, tmp_path):
        out = tmp_path / "mgf"
        assert run(["analytic", "mgf", "--r", 1, "--x0", 0, "--xr", 5,
                    "--t", 0.5, "--points", 21, "--out", out]) == 0
        header, rows = read_csv(out / "curve.csv")
        assert header == ["s", "value"]
        assert len(rows) == 21
        out2 = tmp_path / "cf"
        assert run(["analytic", "cf", "--r", 1, "--x0", 0, "--xr", 5,
                    "--t", 0.5, "--s-lo", -10, "--s-hi", 10,
                    "--points", 41, "--out", out2]) == 0
        header, rows = read_csv(out2 / "curve.csv")
        assert header == ["s", "re", "im"]
        mods = [math.hypot(float(r[1]), float(r[2])) for r in rows]
        assert max(mods) <= 1.0 + 1e-12

    def test_mgf_outside_domain_exits_2(self, tmp_path):
        assert run(["analytic", "mgf", "--r", 1, "--s-lo", 0, "--s-hi", 3,
                    "--t", 0.5, "--out", tmp_path / "bad"]) == 2

    def test_mean_moments_msd_stationary(self, tmp_path):
        assert run(["analytic", "mean", "--r", 1, "--x0", 0, "--xr", 5,
                    "--t-lo", 0, "--t-hi", 2, "--points", 11,
                    "--out", tmp_path / "mean"]) == 0
        assert run(["analytic", "moments", "--r", 1, "--x0", 1, "--xr", 0,
                    "--t", 0.7, "--n-max", 4,
                    "--out", tmp_path / "mom"]) == 0
        header, rows = read_csv(tmp_path / "mom" / "moments.csv")
        assert header == ["order", "value"]
        assert len(rows) == 5
        assert run(["analytic", "msd", "--r", 1, "--p", -0.5,
                    "--t-lo", 0.1, "--t-hi", 10, "--points", 12,
                    "--out", tmp_path / "msd"]) == 0
        assert run(["analytic", "stationary", "--r", 1, "--xr", 0,
                    "--out", tmp_path / "st"]) == 0

    def test_moments_of_every_order_at_any_reset_point(self, tmp_path, capsys):
        args = ["analytic", "moments", "--r", 1, "--xr", 2, "--n-max", 400]
        assert run(args + ["--t", 0.1, "--out", tmp_path / "fine"]) == 0
        _, rows = read_csv(tmp_path / "fine" / "moments.csv")
        assert len(rows) == 401
        assert float(rows[-1][1]) == pytest.approx(1.1058773257844051e281, rel=1e-12)
        capsys.readouterr()
        # at t = 1 order 400 is 1.9e433, beyond a double
        assert run(args + ["--t", 1, "--out", tmp_path / "over"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numerical:")

    def test_regime_json(self, tmp_path, capsys):
        out = tmp_path / "reg"
        assert run(["analytic", "regime", "--p", -0.5, "--out", out]) == 0
        doc = json.loads((out / "regime.json").read_text())
        assert doc == {"exponent": 0.5, "law": "laplace-nonstationary"}
        assert '"exponent": 0.5' in capsys.readouterr().out

    def test_npp_pdf_dispatch(self, tmp_path):
        out = tmp_path / "npp"
        assert run(["analytic", "pdf", "--r", 1, "--p", -0.5, "--t", 1.0,
                    "--x-lo", -5, "--x-hi", 5, "--points", 9,
                    "--out", out]) == 0
        _, rows = read_csv(out / "curve.csv")
        spec = analytic.ProcessSpec(
            0.5, 0.0, 0.0, analytic.NonhomogeneousPoissonClock(1.0, -0.5))
        x, v = map(float, rows[4])
        assert v == pytest.approx(analytic.npp_pdf(spec, x, 1.0), rel=1e-8)


    def test_npp_pdf_at_huge_intensity(self, tmp_path):
        out = tmp_path / "huge"
        assert run(["analytic", "pdf", "--clock", "npp", "--r", "1e300",
                    "--out", out]) == 0
        _, rows = read_csv(out / "curve.csv")
        xs, values = np.array(rows, dtype=float).T
        ref = analytic.laplace_pdf(xs, 1e300, 0.0)
        assert np.all(ref > 0)
        assert np.max(np.abs(values / ref - 1.0)) < 1e-10

    def test_npp_default_grid_holds_growing_intensity_law(self, tmp_path, capsys):
        # The default grid must follow the law's own spread: under growing
        # intensity it is far narrower than the base-rate scale.
        assert run(["analytic", "pdf", "--p", 2, "--t", 5,
                    "--out", tmp_path / "grow"]) == 0
        mass = float(capsys.readouterr().out.split("mass = ")[1])
        assert abs(mass - 1.0) < 1e-3

    def test_poisson_default_grid_lies_over_each_law_window(self, tmp_path):
        assert run(["analytic", "pdf", "--r", 1, "--t", 1, "--points", 401,
                    "--out", tmp_path / "hom"]) == 0
        _, rows = read_csv(tmp_path / "hom" / "curve.csv")
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        xs = [float(r[0]) for r in rows]
        assert xs == analytic.default_support(spec, 1.0, points=401).tolist()
        # the two windows overlap about 0: each keeps its own grid
        for w in analytic.law_windows(spec, 1.0):
            assert w.lo in xs and w.hi in xs
        # the stationary curve lies over the Laplace law's window
        assert run(["analytic", "stationary", "--r", 1, "--points", 3,
                    "--out", tmp_path / "st"]) == 0
        _, rows = read_csv(tmp_path / "st" / "curve.csv")
        ((lo, hi, _),) = analytic.law_windows(spec, None)
        assert [float(r[0]) for r in rows] == [lo, 0.0, hi]

    @pytest.mark.parametrize("points", [2, 3])
    def test_two_window_default_curve_takes_few_points(self, tmp_path, points):
        assert run(["analytic", "pdf", "--r", 1, "--t", 1, "--points", points,
                    "--out", tmp_path]) == 0
        _, rows = read_csv(tmp_path / "curve.csv")
        assert len(rows) >= 2

    def test_coarse_density_curve_says_so(self, tmp_path, capsys):
        # 5 points over the two windows of t = 1 hold 4.332 of a unit mass;
        # 401 hold it to 1e-3
        for points in (5, 401):
            out = tmp_path / str(points)
            assert run(["analytic", "pdf", "--r", 1, "--t", 1, "--points", points,
                        "--out", out]) == 0
            captured = capsys.readouterr()
            counters = json.loads((out / "manifest.json").read_text())["counters"]
            assert captured.out == f"mass = {counters['mass']:.6f}\n"
            assert counters["windows"] == 2
            assert counters["points"] == len(read_csv(out / "curve.csv")[1])
            if points == 5:
                assert round(counters["mass"], 3) == 4.332
                assert captured.err.count("\n") == 1 and "--points" in captured.err
            else:
                assert abs(counters["mass"] - 1.0) < 1e-3
                assert captured.err == ""
        # an x range of the caller's own spans no law window, and may be too
        # narrow for the law
        assert run(["analytic", "stationary", "--r", 1, "--x-lo", -1, "--x-hi", 1,
                    "--points", 401, "--out", tmp_path / "narrow"]) == 0
        counters = json.loads((tmp_path / "narrow" / "manifest.json").read_text())["counters"]
        assert counters["windows"] is None and counters["points"] == 401
        assert counters["mass"] < 0.99 and "--points" in capsys.readouterr().err
        # at t = 20 the no-reset Gaussian keeps a window of weight 2.1e-9,
        # too light to get any of 401 points: one window is gridded
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        assert len(analytic.law_windows(spec, 20.0)) == 2
        assert run(["analytic", "pdf", "--r", 1, "--t", 20, "--out", tmp_path / "late"]) == 0
        counters = json.loads((tmp_path / "late" / "manifest.json").read_text())["counters"]
        assert counters["windows"] == 1

    @pytest.mark.parametrize("xr", [0, 2, 10, 20, 100, 1e8, 1e12])
    def test_default_pdf_curve_holds_unit_mass_at_every_time(self, tmp_path, capsys, xr):
        # the default 401 points over the law's windows: the curve's
        # trapezoid mass stays within 1e-3 of 1 however late t is, across
        # a gap between disjoint windows (xR = 1e8 at t = 0.06) and at the
        # Laplace cusp inside the no-reset Gaussian's (xR = 20 at t = 6)
        for t in (1e-3, 0.06, 0.1, 1, 3, 5, 6, 8, 10, 13.5, 30, 100, 1e4, 1e300):
            assert run(["analytic", "pdf", "--r", 1, "--xr", xr, "--t", t,
                        "--out", tmp_path / f"t{t:g}"]) == 0
            mass = float(capsys.readouterr().out.split("mass = ")[1])
            assert abs(mass - 1.0) < 1e-3, t

    def test_unresolvable_default_curve_exits_2(self, tmp_path, capsys):
        # a window of width 28 about xR = 1e300 is one double
        assert run(["analytic", "pdf", "--r", 1, "--xr", "1e300", "--t", 100,
                    "--out", tmp_path / "far"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert not list((tmp_path / "far").glob("*.csv"))

    def test_cf_curve_is_one_vectorised_call(self, tmp_path):
        # the whole curve shares one quadrature, whose tolerance is relative
        # to its largest value; every point still matches its own call
        out = tmp_path / "cf"
        assert run(["analytic", "cf", "--p", -0.5, "--t", 5, "--out", out]) == 0
        _, rows = read_csv(out / "curve.csv")
        ss, re, im = np.array(rows, dtype=float).T
        spec = ProcessSpec(0.5, 0.0, 0.0, analytic.NonhomogeneousPoissonClock(1.0, -0.5))
        each = np.array([analytic.npp_char_fn(spec, s, 5.0) for s in ss])
        assert len(ss) == 401
        assert np.max(np.abs(re + 1j * im - each)) <= 1e-12

    def test_unconverged_quadrature_exits_4(self, tmp_path, capsys, monkeypatch):
        # A tolerance below the rounding floor cannot be met.
        monkeypatch.setitem(analytic._QUAD_OPTS, "epsrel", 1e-15)
        monkeypatch.setitem(analytic._QUAD_OPTS, "limit", 1)
        assert run(["analytic", "pdf", "--p", -0.5, "--t", 5, "--points", 11,
                    "--x-lo", -5, "--x-hi", 5, "--out", tmp_path / "nc"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "Traceback" not in err


class TestFpeCommand:
    def test_transient_form_and_mass_report(self, tmp_path, capsys):
        out = tmp_path / "ev"
        assert run(["fpe", "--form", "evans", "--r", 1, "--x0", 0, "--xr", 3,
                    "--t", 0.1, "--h", 0.02, "--out", out]) == 0
        assert "mass = 1.000" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["config"]["mass"] - 1.0) < 1e-3

    def test_source_forms_agree(self, tmp_path):
        outs = {}
        for form in ("evans", "delta-fl"):
            out = tmp_path / form
            assert run(["fpe", "--form", form, "--r", 1, "--t", 0.5,
                        "--h", 0.02, "--out", out]) == 0
            _, rows = read_csv(out / "density.csv")
            outs[form] = np.array([[float(a), float(b)] for a, b in rows])
        xs = outs["evans"][:, 0]
        l1 = np.trapezoid(np.abs(outs["evans"][:, 1] - outs["delta-fl"][:, 1]), xs)
        assert l1 < 1e-3

    def test_stationary_form(self, tmp_path):
        out = tmp_path / "st"
        assert run(["fpe", "--form", "stationary", "--r", 1, "--out", out]) == 0
        _, rows = read_csv(out / "density.csv")
        spec = ProcessSpec(0.5, 0.0, 0.0, PoissonClock(1.0))
        worst = max(abs(float(v) - analytic.stationary_pdf(spec, float(x)))
                    for x, v in rows)
        assert worst < 1e-3

    @pytest.mark.parametrize("doc", [
        {"diffusivity": 0.5, "x0": 0.0, "xR": 0.5, "clock": {"type": "poisson", "r": 1.0},
         "form": "evans", "t": 0.1, "h": 0.1, "dt": 0.005, "boundary": "reflecting",
         "x-lo": -8.0, "x-hi": 8.0},
        {"d": 0.5, "xr": 0.5, "t": 0.1, "h": 0.1, "x_lo": -8.0, "x_hi": 8.0},
    ], ids=["document-keys", "flag-names"])
    def test_every_key_fpe_reads_is_accepted(self, tmp_path, doc):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        assert run(["fpe", "--config", config, "--out", tmp_path / "run"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["grid"]["x_lo"] == -8.0
        assert manifest["config"]["spec"]["xR"] == 0.5

    def test_unknown_config_key_exits_2_before_any_output(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"t": 0.5, "hh": 0.1}))
        assert run(["fpe", "--config", config, "--out", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: unknown key(s) 'hh';")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_late_solve_on_a_grid_that_holds_the_laplace_law(self, tmp_path):
        # at t = 50 the diffusive scale sqrt(2Dt) is 10, but the law is the
        # Laplace law of length sqrt(D/r) = 0.71: +-20 holds it
        assert run(["fpe", "--r", 1, "--t", 50, "--x-lo", -20, "--x-hi", 20,
                    "--h", 0.1, "--dt", 0.1, "--out", tmp_path / "late"]) == 0
        assert run(["fpe", "--r", 1, "--t", 50, "--x-lo", -6, "--x-hi", 6,
                    "--h", 0.1, "--dt", 0.1, "--out", tmp_path / "cut"]) == 2

    def test_any_time_solves_to_unit_mass(self, tmp_path, capsys):
        # 1e303 steps of dt = 1e-3, summed in closed form
        assert run(["fpe", "--r", 1, "--t", "1e300", "--out", tmp_path / "late"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "mass = 1.00000000"

    def test_mass_drift_exits_4(self, tmp_path):
        assert run(["fpe", "--form", "evans", "--r", 0, "--t", 1.0,
                    "--x-lo", -2, "--x-hi", 2, "--boundary", "absorbing",
                    "--out", tmp_path / "leak"]) == 4


class TestValidateCommand:
    def test_quick_suites_pass_and_write_report(self, tmp_path):
        out = tmp_path / "val"
        code = run(["validate", "--suite", "fpe-agreement",
                    "--suite", "dynkin", "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert set(report["suites"]) == {"fpe-agreement", "dynkin"}
        for checks in report["suites"].values():
            for check in checks:
                assert check["pass"] is True
                assert {"name", "value", "tolerance", "pass"} <= set(check)

    def test_analytic_modules_load_only_scipy_special(self, tmp_path):
        src = os.path.dirname(os.path.dirname(reset_sde.__file__))
        code = ("import sys\n"
                "import reset_sde.analytic, reset_sde.fpe, reset_sde.stats, reset_sde.checks\n"
                "from reset_sde import cli\n"
                "assert cli.main(['validate', '--suite', 'fpe-agreement', '--suite', "
                f"'dynkin', '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', "
                "'scipy.linalg', 'scipy.sparse') if m in sys.modules))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_report_records_seconds_per_suite(self, tmp_path):
        out = tmp_path / "val"
        assert run(["validate", "--suite", "dynkin", "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["suite_seconds"]) == {"dynkin"}
        assert 0.0 <= report["suite_seconds"]["dynkin"] <= report["elapsed_s"]

    def test_report_records_quadratures_per_suite(self, tmp_path):
        out = tmp_path / "val"
        assert run(["validate", "--suite", "moments", "--suite", "dynkin",
                    "--out", out]) == 0
        record = json.loads((out / "report.json").read_text())["quadrature"]
        assert set(record) == {"moments", "dynkin"}
        assert record["dynkin"] == dict(quadratures=0, integrand_calls=0, evaluations=0,
                                        worst_error_share=0.0)
        moments = record["moments"]
        assert moments["quadratures"] == 1
        assert 1 <= moments["integrand_calls"] <= 10 < moments["evaluations"]
        assert 0.0 < moments["worst_error_share"] <= 1.0

    def test_failing_check_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "stub",
            lambda seed: [cli._check("always red", 1.0, 0.5)])
        code = run(["validate", "--suite", "stub", "--out", tmp_path / "v"])
        assert code == 1
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["pass"] is False

    def test_msd_suite_passes_at_seed_22(self, tmp_path):
        # with 1500 paths the p=0.5 horizon check read 0.138 against 0.12 at this seed
        assert run(["validate", "--suite", "msd-exponents", "--seed", 22,
                    "--out", tmp_path / "v"]) == 0

    def test_unknown_suite_rejected_by_parser(self, tmp_path):
        assert run(["validate", "--suite", "nonsense"]) == 2


class TestDomainErrors:
    @pytest.mark.parametrize("args", [
        ["analytic", "pdf", "--t", 0],
        ["fpe", "--t", -1],
        ["analytic", "mean", "--t-hi", -1],
        ["analytic", "msd", "--p", 0, "--t-hi", 1e-4],
        ["analytic", "pdf", "--t", "inf"],
        ["analytic", "cf", "--t", "nan"],
        ["analytic", "mgf", "--t", "inf"],
        ["analytic", "moments", "--t", "inf"],
        ["analytic", "pdf", "--x-lo", 2, "--x-hi", -2],
        ["analytic", "moments", "--t", "inf", "--n-max", -1],
        ["analytic", "moments", "--t", 1, "--n-max", -3],
        ["analytic", "pdf", "--points", 1],
        ["analytic", "regime"],
        ["analytic", "msd", "--r", 1],
        ["simulate", "--scheme", "euler"],
        ["simulate", "--config", {"clock": "npp", "n": 2, "horizon": 1}],
        ["fpe", "--config", {"clock": 5}],
        ["simulate", "--config", [1, 2]],
        ["simulate", "--n", 1, "--grid-points", 100000000001],
    ], ids=["pdf-t0", "fpe-negative-t", "mean-negative-t-hi", "msd-reversed-grid",
            "pdf-t-inf", "cf-t-nan", "mgf-t-inf", "moments-t-inf", "pdf-reversed-x",
            "moments-t-inf-no-order", "moments-negative-n-max", "pdf-one-point",
            "regime-without-p", "msd-without-p", "euler-without-dt",
            "config-clock-string", "config-clock-number", "config-list",
            "simulate-grid-points-1e11"])
    def test_exits_2_without_traceback(self, tmp_path, capsys, args):
        # a JSON document in args is written to a file, and its path passed
        config = tmp_path / "cfg.json"
        for i, arg in enumerate(args):
            if isinstance(arg, (dict, list)):
                config.write_text(json.dumps(arg))
                args = args[:i] + [config] + args[i + 1:]
        out = tmp_path / "out"
        assert run(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_grid_points_past_the_budget_are_named(self, tmp_path, capsys):
        # refused before the grid is made, whose 1e11 points would take 800 GB
        assert run(["simulate", "--n", 3, "--grid-points", 10 ** 11,
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "--grid-points 100000000000 with --n 3" in err and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        *[["analytic", what, "--points", 10 ** 11]
          for what in ("pdf", "stationary", "cf", "mgf", "mean")],
        ["analytic", "msd", "--p", -0.5, "--points", 10 ** 11],
        ["analytic", "moments", "--n-max", 10 ** 11],
    ], ids=["pdf", "stationary", "cf", "mgf", "mean", "msd", "moments"])
    def test_sizes_past_the_budget_are_refused_before_any_array(self, tmp_path, capsys,
                                                                 args):
        # 1e11 values would take 800 GB: refused by the size budget
        tracemalloc.start()
        try:
            code = run(args + ["--out", tmp_path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and peak < 2 ** 20
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert "budget" in err and "Traceback" not in err

    def test_a_moment_table_stops_at_its_first_overflowing_order(self, tmp_path, capsys):
        # at t = 1 order 302 overflows a double: the largest n_max the
        # budget admits holds no more than n_max 400 on its way there
        peaks = []
        for n_max in (400, 1_999_999):
            tracemalloc.start()
            try:
                code = run(["analytic", "moments", "--t", 1, "--n-max", n_max,
                            "--out", tmp_path])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert code == 4 and err.startswith("error: numerical: moment 302 at t = 1 ")
        assert peaks[1] < peaks[0] + 2 ** 20

    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("no room for 8 GB")],
                             ids=["bare", "message"])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, error):
        # a size the budget let through, but this machine could not hold
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(analytic, "pdf", exhausted)
        assert run(["analytic", "pdf", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: out of memory") and err.count("\n") == 1
        assert str(error) in err


class TestRunRecord:
    COMMON = {"command", "config", "seed", "version", "wall_time_s", "outputs",
              "backend", "versions"}

    def check_record(self, doc):
        assert doc["backend"] == _kernels.BACKEND
        versions = doc["versions"]
        assert versions["python"] == platform.python_version()
        assert versions["numpy"] == np.__version__
        assert set(versions) == {"python", "numpy"} | (
            {"scipy"} if "scipy" in sys.modules else set())

    @pytest.mark.parametrize("args, extra", [
        (["simulate", "--n", 3, "--horizon", 1], {"stages", "counters", "shards"}),
        (["analytic", "mean", "--points", 5], set()),
        (["analytic", "pdf", "--points", 5], {"counters"}),
        (["fpe", "--h", 0.1, "--t", 0.5], set()),
    ], ids=["simulate", "analytic", "analytic-pdf", "fpe"])
    def test_manifest_keys(self, tmp_path, args, extra):
        assert run(args + ["--out", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == self.COMMON | extra
        self.check_record(manifest)

    def test_report_keys(self, tmp_path):
        assert run(["validate", "--suite", "dynkin", "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"suites", "suite_seconds", "quadrature", "seed", "version",
                               "pass", "elapsed_s", "backend", "versions"}
        self.check_record(report)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("args", [
        ["simulate", "--horizon", "inf"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--grid-points", "-3"],
        ["simulate", "--d", "inf"],
        ["fpe", "--t", "inf"],
        ["fpe", "--h", "0"],
        ["fpe", "--x-lo", "nan", "--x-hi", "2"],
        ["simulate", "--scheme", "euler", "--dt", "inf", "--r", "0"],
        ["fpe", "--h", "1e-200", "--x-lo=-1e-195", "--x-hi", "1e-195", "--d", "1e-300",
         "--boundary", "absorbing"],
    ], ids=["horizon-inf", "seed-negative", "grid-points-negative", "d-inf",
            "fpe-t-inf", "fpe-h-zero", "fpe-x-lo-nan", "euler-dt-inf", "fpe-h-tiny"])
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, args):
        assert run(args + ["--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1


class TestOversizedInputs:
    @pytest.mark.parametrize("args", [
        ["fpe", "--x0", "1e9"],
        ["simulate", "--r", "1e9"],
        ["simulate", "--horizon", "1e9"],
        ["simulate", "--p", "1e9"],
        ["simulate", "--scheme", "euler", "--dt", "1e-9"],
        ["analytic", "msd", "--p", "1e9"],
        ["analytic", "pdf", "--p", "1e9"],
    ], ids=["fpe-x0", "simulate-rate", "simulate-horizon", "simulate-npp-overflow",
            "simulate-euler-lattice", "analytic-npp-msd", "analytic-npp-pdf"])
    def test_refused_with_exit_2_before_the_work(self, tmp_path, capsys, args):
        assert run(args + ["--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_overflowing_mgf_exits_4(self, tmp_path, capsys):
        assert run(["analytic", "mgf", "--x0", "1e9", "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["--form", "evans", "--d", "5e307", "--h", "1e-5", "--t", "1e-5",
         "--x-lo", "-1", "--x-hi", "1", "--boundary", "absorbing"],
        ["--form", "stationary", "--d", "1e300", "--h", "1e-5",
         "--x-lo", "-1", "--x-hi", "1", "--boundary", "absorbing"],
        ["--form", "evans", "--r", "1e300", "--d", "1e-30", "--h", "1e-9", "--t", "1e-9",
         "--x-lo=-1e-6", "--x-hi", "1e-6", "--boundary", "absorbing"],
        ["--form", "stationary", "--r", "1e300", "--d", "1e-30", "--h", "1e-9",
         "--x-lo=-1e-6", "--x-hi", "1e-6", "--boundary", "absorbing"],
    ], ids=["evans-system", "stationary-system", "evans-source", "stationary-source"])
    def test_overflowing_fpe_exits_4(self, tmp_path, capsys, args):
        assert run(["fpe"] + args + ["--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip()


_NUMBER = hs.sampled_from(["0", "-1", "0.5", "1", "2", "1e9", "-1e9", "1e300", "nan", "inf",
                           "-inf", "x", ""])
_SPEC_FLAGS = {
    "--r": _NUMBER, "--p": _NUMBER, "--x0": _NUMBER, "--xr": _NUMBER, "--d": _NUMBER,
    "--clock": hs.sampled_from(["poisson", "npp", "renewal", "other"]),
    "--renewal-law": hs.sampled_from([
        '{"name":"pareto","alpha":1.5,"xm":0.2}', '{"name":"deterministic","gap":0.5}',
        '{"name":"exponential","mean":-1}', '{"name":"other"}', "[]", "{",
        # JSON reads 1e999 as inf; alpha 1e-300 draws infinite gaps
        '{"name":"exponential","mean":1e999}', '{"name":"deterministic","gap":1e999}',
        '{"name":"pareto","alpha":1e-300,"xm":1}']),
}
# tiny sizes and horizons, so that every run the parser accepts is quick,
# and sizes of 1e11 and 1e12, which the size budget refuses
_COMMAND_FLAGS = {
    "simulate": dict(_SPEC_FLAGS, **{
        "--scheme": hs.sampled_from(["exact", "euler", "other"]),
        "--dt": hs.sampled_from(["0.01", "0.1", "0", "-1", "nan", "1"]),
        "--horizon": hs.sampled_from(["0.5", "2", "0", "-1", "nan", "inf"]),
        "--n": hs.sampled_from(["1", "3", "0", "-2", "x", "100000000000", "1000000000000"]),
        "--seed": hs.sampled_from(["0", "-1", "7", "x"]),
        "--grid-points": hs.sampled_from(["1", "2", "11", "0", "-3", "100000000000",
                                          "1000000000000"]),
        "--workers": hs.sampled_from(["1", "2", "0", "-1"]),
    }),
    "analytic": dict(_SPEC_FLAGS, **{
        "--t": _NUMBER, "--x-lo": _NUMBER, "--x-hi": _NUMBER, "--s-lo": _NUMBER,
        "--s-hi": _NUMBER, "--t-lo": _NUMBER, "--t-hi": _NUMBER,
        "--points": hs.sampled_from(["2", "5", "1", "0", "-1", "100000000000",
                                     "1000000000000"]),
        "--n-max": hs.sampled_from(["0", "2", "-1", "100000000000", "1000000000000"]),
    }),
    "fpe": dict(_SPEC_FLAGS, **{
        "--form": hs.sampled_from(["evans", "delta-fl", "stationary", "other"]),
        "--t": hs.sampled_from(["0.1", "0.5", "0", "-1", "nan", "inf"]),
        "--x-lo": hs.sampled_from(["-2", "0", "2", "nan"]),
        "--x-hi": hs.sampled_from(["-2", "0", "2", "inf"]),
        "--h": hs.sampled_from(["0.1", "0.25", "0", "-1", "nan"]),
        "--dt": hs.sampled_from(["0.01", "0.05", "0", "-1", "nan"]),
        "--boundary": hs.sampled_from(["reflecting", "absorbing", "other"]),
    }),
}
_ANALYTIC_WHAT = ["pdf", "cf", "mgf", "mean", "moments", "msd", "stationary", "regime"]


@hs.composite
def _cli_args(draw):
    command = draw(hs.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    args = [command]
    if command == "analytic":
        args.append(draw(hs.sampled_from(_ANALYTIC_WHAT)))
    for flag in draw(hs.lists(hs.sampled_from(sorted(flags)), max_size=6, unique=True)):
        args += [flag, draw(flags[flag])]
    return args


class TestCliFuzz:
    @settings(max_examples=40, deadline=None)
    @given(_cli_args())
    @example(["analytic", "pdf", "--clock", "npp", "--t", "inf"])
    @example(["analytic", "pdf", "--clock", "npp", "--r", "1e300"])
    @example(["analytic", "pdf", "--t", "inf"])
    @example(["analytic", "pdf", "--x-lo", "nan", "--x-hi", "1"])
    @example(["analytic", "cf", "--s-lo", "inf", "--s-hi", "1"])
    @example(["simulate", "--clock", "renewal", "--renewal-law",
              '{"name":"exponential","mean":1e999}'])
    def test_documented_exit_code_and_no_traceback(self, args):
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args + ["--out", out])
            # a run that succeeds writes numbers only: no NaN or infinite curve
            cells = [cell for path in sorted(glob.glob(os.path.join(out, "*.csv")))
                     for row in read_csv(path)[1] for cell in row]
        assert code in (0, 2, 3, 4), (args, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert code != 0 or all(math.isfinite(float(cell)) for cell in cells), args
