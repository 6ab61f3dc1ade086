"""Numpy walk kernel, vectorised over steps.

Positions are anchored partial sums:

    s[j] = s[j-1] + (0 if reset at j else increment[j])
    x[j] = x_reset                    if reset at j
         = base + (s[j] - s_anchor)   otherwise

where (base, s_anchor) are frozen at the most recent reset, or (x0, 0)
before the first one.  ``np.cumsum`` gives the sequential partial sums.
Do not "simplify" to a plain running position: that changes the
floating-point operation order, and with it the last bits of every path.
"""

import numpy as np

from ..core import SpecError


def resetting_walk(x0, x_reset, increments, reset_flags, out):
    """Fill ``out``, shape (..., m+1), with one walk per row of the
    (..., m) ``increments`` and bool or uint8 ``reset_flags``."""
    *rows, m = increments.shape
    if out.shape != (*rows, m + 1) or reset_flags.shape != increments.shape:
        raise SpecError("resetting_walk: shape mismatch")
    x0, x_reset = float(x0), float(x_reset)
    flags = reset_flags.view(np.bool_)
    s = np.cumsum(np.where(flags, 0.0, increments), axis=-1)
    step_index = np.arange(1, m + 1)
    last_reset = np.maximum.accumulate(np.where(flags, step_index, 0), axis=-1)
    has_reset = last_reset > 0
    anchor_index = np.maximum(last_reset - 1, 0)
    s_anchor = np.where(has_reset, np.take_along_axis(s, anchor_index, axis=-1), 0.0)
    base = np.where(has_reset, x_reset, x0)
    out[..., 0] = x0
    out[..., 1:] = base + (s - s_anchor)
    # at a reset step s == s_anchor, so this is already x_reset; keep explicit
    out[..., 1:][flags] = x_reset


# the replay in perfbench/child.py calls both names
resetting_walk_batch = resetting_walk
