"""Whether the two shards of a fresh 2-worker ``simulate`` run side by side.

    python .github/shard_placement.py

Runs ``python -m reset_sde.cli simulate --r 1 --xr 2 --horizon 10 --n 2000
--workers 2`` five times, each in a new process, and prints each
manifest's ``cpu_s / shards_wall_s``: near 2 when the shards had a CPU
each, near 1 when they shared one.  A shared CPU now and then is the
host's doing, so the script exits 1 only when every run reads below 1.3,
that is, when every run shared a CPU.  It exits 0 with a message where
fewer than two CPUs are usable.
"""
import json
import os
import subprocess
import sys
import tempfile

RUNS = 5
SHARED_BELOW = 1.3

usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
if (usable or 1) < 2:
    print(f"shard placement: {usable} usable CPU, nothing to check")
    sys.exit(0)
ratios = []
with tempfile.TemporaryDirectory() as tmp:
    for run in range(1, RUNS + 1):
        out = os.path.join(tmp, str(run))
        subprocess.run([sys.executable, "-m", "reset_sde.cli", "simulate", "--r", "1",
                        "--xr", "2", "--horizon", "10", "--n", "2000", "--workers", "2",
                        "--out", out],
                       check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(out, "manifest.json")) as fh:
            stages = json.load(fh)["stages"]
        ratios.append(stages["cpu_s"] / stages["shards_wall_s"])
        print(f"run {run}: cpu_s {stages['cpu_s']} / shards_wall_s "
              f"{stages['shards_wall_s']} = {ratios[-1]:.2f}")
shared = sum(ratio < SHARED_BELOW for ratio in ratios)
print(f"shard placement: {shared} of {RUNS} runs shared a CPU (ratio below {SHARED_BELOW})")
sys.exit(shared == RUNS)
