"""Numpy walk kernels, vectorised over steps.

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


def _anchored_positions(x0, x_reset, increments, reset_flags, out):
    m = increments.shape[-1]
    flags = reset_flags.view(np.bool_)
    s = np.cumsum(np.where(flags, 0.0, increments), axis=-1)
    step_index = np.arange(1, m + 1)
    last_reset = np.maximum.accumulate(np.where(flags, step_index, 0), axis=-1)
    has_reset = last_reset > 0
    anchor_index = np.maximum(last_reset - 1, 0)
    s_anchor = np.where(has_reset, np.take_along_axis(s, anchor_index, axis=-1)
                        if s.ndim > 1 else s[anchor_index], 0.0)
    base = np.where(has_reset, x_reset, x0)
    out[..., 0] = x0
    out[..., 1:] = base + (s - s_anchor)
    # at a reset step s == s_anchor, so this is already x_reset; keep explicit
    out[..., 1:][flags] = x_reset
    return None


def resetting_walk(x0, x_reset, increments, reset_flags, out):
    """Fill ``out`` (length m+1) with positions; ``out[0] = x0``."""
    if out.shape[0] != increments.shape[0] + 1 or reset_flags.shape[0] != increments.shape[0]:
        raise SpecError("resetting_walk: shape mismatch")
    return _anchored_positions(float(x0), float(x_reset), increments, reset_flags, out)


def resetting_walk_batch(x0, x_reset, increments, reset_flags, out):
    """Row-wise ``resetting_walk``; ``out`` has shape (n, m+1)."""
    n, m = increments.shape
    if out.shape != (n, m + 1) or reset_flags.shape != (n, m):
        raise SpecError("resetting_walk_batch: shape mismatch")
    return _anchored_positions(float(x0), float(x_reset), increments, reset_flags, out)
