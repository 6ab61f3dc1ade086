"""The walk kernel: positions of a random walk with resets, in numpy.

``BACKEND`` names the implementation for run records; it is always
``"python"`` (the numpy kernel in ``_walk_py``).
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
    increments = np.ascontiguousarray(increments, dtype=np.float64)
    reset_flags = np.ascontiguousarray(reset_flags, dtype=np.uint8)
    out = np.empty(increments.shape[0] + 1, dtype=np.float64)
    _walk_py.resetting_walk(float(x0), float(x_reset), increments, reset_flags, out)
    return out


def walk_batch(x0, x_reset, increments, reset_flags):
    """Row-wise :func:`walk` for a (n_paths, n_steps) batch."""
    increments = np.ascontiguousarray(increments, dtype=np.float64)
    reset_flags = np.ascontiguousarray(reset_flags, dtype=np.uint8)
    n, m = increments.shape
    out = np.empty((n, m + 1), dtype=np.float64)
    _walk_py.resetting_walk_batch(float(x0), float(x_reset), increments, reset_flags, out)
    return out
