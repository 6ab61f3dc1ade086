#!/usr/bin/env python3
"""End-to-end benchmark of reset-sde.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``simulate`` and ``validate``.  Every
measuring process runs the program from ``src/`` single-threaded
(BLAS/OpenMP pinned to one thread, see ``CHILD_ENV``).

``--trace 0`` starts fresh interpreters one after another, each running
one cold and one warm pass, until the next one would overrun
``--seconds`` (at least ``MIN_CHILDREN``), and reports medians over them
of:

* ``setup_s``: interpreter start to ``reset_sde.cli`` imported;
* ``cold_s``: the first pass in a fresh process, after import;
* ``wall_s``: the second pass;
* ``peak_rss_mb``: peak resident memory (MiB) after import and one pass.

``--trace 1`` runs ``python -X importtime`` three times and one traced
process, and reports the per-layer metrics of ``metrics.PER_LAYER``.  The
spans go to ``.perfbench_out/``; the compiled walk kernel used by the
backend cross-check is built from ``src/`` into ``$CARGO_TARGET_DIR``
(default ``.bench_build``).

The last line of output is the JSON result; the line before it holds the
run's metadata, which is also saved under ``.perfbench_out/``.  Exit code
0 on a completed run (whatever the checks found), 2 when the benchmark
cannot run here.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("simulate", "validate")
MIN_CHILDREN = 3
IMPORTTIME_RUNS = 3
RUN_DEADLINE_S = 170  # every process this run starts ends before this
GUARDED_ENV = ("RESET_SDE_THREADS", "RESET_SDE_KERNEL")
# One thread for BLAS and OpenMP, and a fixed hash seed, so that runs
# differ only in what the machine does around them.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
KERNEL_SOURCE = os.path.join(SRC, "reset_sde", "_kernels", "_walk.c")

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory or environment."""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    try:
        preflight()
        os.makedirs(OUT, exist_ok=True)
        if args.trace:
            result, meta = traced_run(args)
        else:
            result, meta = plain_run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta.update(run_metadata(args))
    tag = f"{args.workload}_trace{args.trace}"
    with open(os.path.join(OUT, f"result_{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def preflight():
    for var in GUARDED_ENV:
        if var in os.environ:
            raise BenchmarkError(
                f"{var} is set ({os.environ[var]!r}); unset it so it cannot "
                "change the numbers unnoticed")
    if not os.path.isfile(os.path.join(SRC, "reset_sde", "cli.py")):
        raise BenchmarkError(f"no program source under {SRC}")


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    return env


STARTED = time.monotonic()


def _time_left():
    left = RUN_DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 0:
        raise BenchmarkError(f"the run exceeded {RUN_DEADLINE_S} s")
    return left


def run_child(args, mode, **options):
    """Start one measuring process, wait for it, return its JSON result."""
    workdir = os.path.join(OUT, f"work_{args.workload}_{os.getpid()}")
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--workdir", workdir]
    for key, value in options.items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--spawned", repr(time.time())]
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=_time_left())
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"the run exceeded {RUN_DEADLINE_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def plain_run(args):
    # A shared host can run 30% faster or slower for tens of seconds at a
    # time, so each child gives one sample of every metric and the samples
    # are spread over the whole run.
    deadline = STARTED + args.seconds
    children = []
    last = 0.0  # how long the last child took
    while len(children) < MIN_CHILDREN or deadline - time.monotonic() >= last:
        started = time.monotonic()
        children.append(run_child(args, "plain"))
        last = time.monotonic() - started
    samples = {name: [c[name] for c in children] for name, *_ in END_TO_END}
    result = _result(children, {name: statistics.median(values)
                                for name, values in samples.items()})
    meta = _child_metadata(children)
    meta.update(children=len(children), samples=samples)
    return result, meta


def traced_run(args):
    imports = [import_times() for _ in range(IMPORTTIME_RUNS)]
    kernel = build_compiled_kernel()
    spans_path = os.path.join(OUT, f"spans_{args.workload}.jsonl")
    child = run_child(args, "trace", spans=spans_path, compiled_kernel=kernel)
    values = dict(child["metrics"])
    for key in imports[0]:
        values[key] = statistics.median(i[key] for i in imports)
    result = _result([child], {name: values[name] for name, *_ in PER_LAYER})
    meta = _child_metadata([child])
    meta.update(children=1, passes={"untraced": 3, "traced": 1}, spans=spans_path,
                compiled_kernel=child["compiled_kernel"])
    return result, meta


def _result(children, values):
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in values.items()}}


def _child_metadata(children):
    first = children[0]
    return {"versions": first["versions"], "kernel_backend": first["kernel_backend"],
            "failures": [f for c in children for f in c["failures"]]}


def run_metadata(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "git_commit": git_commit(),
        "env": {var: os.environ.get(var) for var in GUARDED_ENV},
        "child_env": CHILD_ENV,
    }


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


# ---------------------------------------------------------------------------
# Import profile and compiled kernel
# ---------------------------------------------------------------------------

IMPORT_GROUPS = {"import.reset_sde_s": "reset_sde", "import.numpy_s": "numpy",
                 "import.scipy_s": "scipy"}


def import_times():
    """Cumulative import seconds per package group, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import reset_sde.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=_time_left())
    if proc.returncode != 0:
        raise BenchmarkError("importing reset_sde.cli failed")
    return parse_importtime(proc.stderr)


def parse_importtime(text):
    """Sum the cumulative time of each group's outermost imports.

    Lines come children first; a line's depth is its name's indent.  An
    import counts for a group when no enclosing import belongs to it.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(cumulative)))
    totals = {key: 0 for key in IMPORT_GROUPS}
    enclosing = []
    for depth, name, cumulative in reversed(entries):
        del enclosing[depth:]
        enclosing.append(name)
        for key, group in IMPORT_GROUPS.items():
            in_group = [n == group or n.startswith(group + ".") for n in enclosing]
            if in_group[-1] and not any(in_group[:-1]):
                totals[key] += cumulative
    return {key: us * 1e-6 for key, us in totals.items()}


def build_compiled_kernel():
    """Build the committed C walk kernel once per checkout, outside ``src/``.

    Returns the module path, or None when there is no source or no
    compiler; the cross-check then times the numpy backend alone.
    """
    if not os.path.isfile(KERNEL_SOURCE):
        return None
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    target = os.path.join(build, "_walk" + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.exists(target) and os.path.getmtime(target) >= os.path.getmtime(KERNEL_SOURCE):
        return target
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    os.makedirs(build, exist_ok=True)
    partial = target + ".partial"
    try:
        proc = subprocess.run(
            [compiler, "-O3", "-pipe", "-shared", "-fPIC",
             "-I", sysconfig.get_paths()["include"], KERNEL_SOURCE, "-o", partial],
            env=dict(os.environ, TMPDIR=build), capture_output=True,
            timeout=_time_left())
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    os.replace(partial, target)
    return target


if __name__ == "__main__":
    sys.exit(main())
