"""A marginal draw of 4e6 samples at one time may raise the peak resident
memory by at most 2.5x its output's bytes: its arithmetic runs in fixed
chunks (ru_maxrss is in KiB on Linux).  Exits 1 above the bound.

    python .github/sampler_memory.py
"""
import resource
import sys

from reset_sde import PoissonClock, ProcessSpec, marginal_samples

spec = ProcessSpec(0.5, 1.0, 0.0, PoissonClock(1.0))
marginal_samples(spec, 0.7, 10, seed=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
xs = marginal_samples(spec, 0.7, 4_000_000, seed=1)
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
print(f"peak RSS rise {rise / 2**20:.1f} MiB for {xs.nbytes / 2**20:.1f} MiB of samples")
sys.exit(rise > 2.5 * xs.nbytes)
