"""The walk kernel: positions of a random walk with resets, in numpy.

``walk`` and ``walk_batch`` share one body, and stay two functions so
that a trace counts 1-D and batched calls apart.  ``BACKEND`` names the
implementation for run records; it is always ``"python"``.
"""

import numpy as np

from . import _walk_py

BACKEND = "python"


def walk(x0, x_reset, increments, reset_flags):
    """Positions of a walk that jumps to ``x_reset`` at flagged steps.

    ``increments[j]`` is the step taken into grid point j+1 and is
    discarded when ``reset_flags[j]`` is set.  Returns an array one
    longer than ``increments`` whose first entry is ``x0``.
    """
    return _positions(x0, x_reset, increments, reset_flags)


def walk_batch(x0, x_reset, increments, reset_flags):
    """Row-wise :func:`walk` for a (n_paths, n_steps) batch."""
    return _positions(x0, x_reset, increments, reset_flags)


def _positions(x0, x_reset, increments, reset_flags):
    increments = np.asarray(increments, dtype=np.float64)
    out = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    _walk_py.resetting_walk(x0, x_reset, increments, np.asarray(reset_flags, dtype=bool), out)
    return out
