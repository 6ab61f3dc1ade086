"""Peak resident memory of one 4e6-sample run, against its samples' bytes
(ru_maxrss is in KiB on Linux, and per process: run one measurement per
process).  Exits 1 above the bound.

    python .github/sampler_memory.py marginal   # a marginal draw at one time
    python .github/sampler_memory.py moments    # checks.moment_z_scores

A marginal draw may raise the peak by at most 2.5x its output: its
arithmetic runs in fixed chunks.  ``moment_z_scores`` may raise it by at
most 1.5x its samples: it sums the powers of the samples in fixed chunks.
"""
import resource
import sys

from reset_sde import PoissonClock, ProcessSpec, checks, marginal_samples

N = 4_000_000
spec = ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0))
if sys.argv[1:] == ["marginal"]:
    def run(n):
        marginal_samples(spec, 0.7, n, seed=1)
    bound = 2.5
elif sys.argv[1:] == ["moments"]:
    def run(n):
        checks.moment_z_scores(spec, 0.7, n, 1, range(1, 5))
    bound = 1.5
else:
    sys.exit("usage: sampler_memory.py marginal|moments")
run(10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run(N)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
samples = 8 * N
print(f"{sys.argv[1]}: peak RSS rise {rise / 2**20:.1f} MiB for {samples / 2**20:.1f} MiB "
      f"of samples (bound {bound}x)")
sys.exit(rise > bound * samples)
