"""Float CSV cells byte-identical to ``repr``, computed for whole arrays
with numpy.  ``core`` imports this module on the first float column it
writes."""

import functools
import sys

import numpy as np


# Float cells.  Where repr writes a double positionally (1e-4 <= |x| < 1e16
# and zeros) its shortest round-trip digits are found for whole arrays at a
# time: y = |x| * 10**p in [1e16, 1e17) is exact as hi + lo (Dekker 1971),
# the doubles next to x bound the decimals that read back as x (Adams 2018,
# Ryu), and the candidates with fewest digits are the multiples of 10**j
# next to y.  An element within _MARGIN of an interval edge or of a tie,
# and every element outside that range, is written by repr itself.
_MARGIN = 1e-6
# Below this many values repr alone is faster: on a 2-vCPU VM the
# vectorised path costs about 0.3 ms a call plus 0.17 us a value, repr
# about 1.2 us a value.  Arrays are formatted in near-equal chunks of at
# most _FAST_CHUNK values, which bounds the temporaries.  A 32-trajectory
# block of the default grid (~8.8k values) takes two chunks: 1.6 ms, with
# 0.9 MiB of temporaries at peak, against 1.8 ms in one chunk or in three.
_FAST_MIN = 256
_FAST_CHUNK = 8192
# Cells are assembled as little-endian 64-bit words.
_FAST = sys.byteorder == "little"

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_P = [float(10 ** k) for k in range(23)]  # exact up to 1e22
_P_HI = [_SPLIT * p - (_SPLIT * p - p) for p in _P]
# 10**p and its two halves from Veltkamp's split, by p (flat lists, as
# nested ones cost numpy code pages at import)
_POW10S = np.array(_P + _P_HI + [p - hi for p, hi in zip(_P, _P_HI)]).reshape(3, 23)
_IPOW10 = np.array([10 ** k for k in range(18)], dtype=np.int64)
# 10**k from k = -4, whose searchsorted gives floor(log10(x)) + 5; and
# small integers as floats, looked up where a cast would load more numpy code
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 17)])
_SMALL = np.array([float(k) for k in range(101)])
# by decpt + 3, with e = 17 - decpt digits of D after the point:
# 10**min(e, 17), 10**max(4 - e, 0), 10**max(e - 4, 0), 10**min(20 - e, 16)
_E = range(20, 0, -1)
_SHIFTS = np.array([10 ** min(e, 17) for e in _E] + [10 ** max(4 - e, 0) for e in _E]
                   + [10 ** max(e - 4, 0) for e in _E] + [10 ** min(20 - e, 16) for e in _E],
                   dtype=np.int64).reshape(4, 20)
# masks keeping the first k bytes of a word, and the first byte of a
# cell cleared and set to its sign, by sign bit
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_SIGN_CLEAR = np.array([2 ** 64 - 1, 2 ** 64 - 1 - 0xFF], dtype=np.uint64)
_SIGN_SET = np.array([0, ord("-")], dtype=np.uint64)
_ZERO_CELLS = np.frombuffer(b"0.0".ljust(24, b"\0") + b"-0.0".ljust(24, b"\0"),
                            dtype=np.uint64).reshape(2, 3)


@functools.cache
def _digit_words():
    """``"%04d" % k`` and ``"%03d." % k`` as 4-byte words, by k; built on
    first use, so that an import runs no numpy code for them."""
    pairs = np.array([int.from_bytes(b"%02d" % k, "little") for k in range(100)],
                     dtype=np.uint64)
    digits4 = (pairs[:, None] | pairs << np.uint64(16)).ravel()
    digits3_point = digits4[:1000] >> np.uint64(8) | np.uint64(ord(".") << 24)
    return tuple(np.ascontiguousarray(w.view(np.uint32)[::2])
                 for w in (digits4, digits3_point))


def float_cells(col):
    """``repr(float(v)).encode()`` of every element of a float array,
    byte for byte, as an ``S24`` array: every double's repr fits in 24
    bytes, the widest being those like ``-2.2250738585072014e-308``."""
    col = np.asarray(col, dtype=np.float64).ravel()
    if len(col) < _FAST_MIN or not _FAST:
        return np.array([repr(v).encode() for v in col.tolist()], dtype="S24")
    return np.concatenate([_fast_cells(chunk) for chunk in
                           np.array_split(col, -(-len(col) // _FAST_CHUNK))])


def _fast_cells(x):
    """``float_cells`` of one chunk of at least ``_FAST_MIN`` values."""
    ax = np.abs(x)
    zero = ax == 0
    odd = ~((ax >= 1e-4) & (ax < 1e16))
    ax[odd] = 1.0  # stand-ins, whose cells are replaced below
    odd ^= zero
    digits, nd, decpt, sure = _shortest(ax)
    words = _layout(digits, nd, decpt, np.signbit(x))
    words[zero] = _ZERO_CELLS[np.signbit(x[zero]).astype(np.intp)]
    cells = words.view("S24").ravel()
    odd |= ~sure
    rest = np.flatnonzero(odd)
    cells[rest] = [repr(v).encode() for v in x[rest].tolist()]
    return cells


def _scaled(ax, p):
    """(hi, lo, 10**p) with hi + lo = ax * 10**p exactly (Dekker's product)."""
    pw, ph, pl = _POW10S.take(p, axis=1)
    hi = ax * pw
    t = ax * _SPLIT
    xl = t - ax
    xh = np.subtract(t, xl, out=t)
    xl = np.subtract(ax, xh, out=xl)
    lo = xh * ph
    lo -= hi
    lo += np.multiply(xh, pl, out=xh)
    lo += np.multiply(xl, ph, out=ph)
    lo += np.multiply(xl, pl, out=pl)
    return hi, lo, pw


def _shortest(ax):
    """Shortest round-trip digits of each ax in [1e-4, 1e16): (D, nd,
    decpt, sure), ax reading back from D * 10**(decpt - 17), D in [1e16,
    1e17) having nd significant digits.  Unless ``sure``, D is not to be
    trusted."""
    p = 21 - _DECADES.searchsorted(ax, "right")
    hi, lo, pw = _scaled(ax, p)
    # a product outside [1e16, 1e17), which no input is known to give, goes to repr
    sure = (hi >= 1e16) & (hi < 1e17) & ~((hi == 1e16) & (lo < 0))
    # half the gaps to the next doubles, the lower one halved at a power
    # of two; scaled, both exceed 0.55
    f, q = np.frexp(ax)
    h_up = np.ldexp(pw, q, out=pw)
    h_up *= 2.0 ** -54
    h_down = h_up.copy()
    h_down[f == 0.5] *= 0.5
    fl = np.floor(lo)
    frac = np.subtract(lo, fl, out=lo)
    F = hi.astype(np.int64)
    F += fl.astype(np.int64)
    # y = F + frac.  17 digits: the nearer of F and F + 1.
    tie = np.abs(frac - 0.5) <= _MARGIN
    best = F + (frac > 0.5)
    # 16: a multiple of 10 in the interval, the nearer if there are two
    r = F % 10
    d, u, in_f, in_c, doubt = _candidates(r, 10, frac, h_down, h_up)
    has = in_f | in_c
    tie = np.where(has, in_f & in_c & (np.abs(u - d) <= _MARGIN), tie)
    best = np.where(has, F - r + 10 * (in_c & (~in_f | (u < d))), best)
    nd = 17 - has
    # fewer: the interval is narrower than 100, so at most one multiple of
    # 100 lies in it, and its trailing zeros are the digits saved
    r = F % 100
    d, u, in_f, in_c, near = _candidates(r, 100, frac, h_down, h_up)
    doubt |= near
    has = np.flatnonzero(in_f | in_c)
    tie[has] = False
    best[has] = F[has] - r[has] + 100 * in_c[has]
    nd[has] = 17 - (best[has, None] % _IPOW10[1:] == 0).sum(axis=1)
    sure &= ~doubt & ~tie & (best < _IPOW10[17])
    unsure = ~sure
    best[unsure], p[unsure] = _IPOW10[16], 16  # stand-ins for the layout
    return best, nd, 17 - p, sure


def _candidates(r, step, frac, h_down, h_up):
    """For y = F + frac and r = F mod step: the distances down and up to
    the multiples of ``step`` around y, whether each lies in the rounding
    interval, and whether either is within the margin of its edge."""
    d = _SMALL.take(r)
    d += frac
    u = _SMALL.take(step - r)
    u -= frac
    near = np.abs(d - h_down) <= _MARGIN
    near |= np.abs(u - h_up) <= _MARGIN
    return d, u, d < h_down, u < h_up, near


def _layout(D, nd, decpt, neg):
    """The cells of (-1)**neg * D * 10**(decpt - 17), with nd significant
    digits, as repr writes them: NUL-padded to 24 bytes, as (m, 3) uint64.
    A cell is the 24 bytes of ``_words`` from its sign or first digit on,
    less those after its last digit."""
    m = len(D)
    sign = neg.astype(np.intp)
    start = 23 - np.maximum(decpt, 1) - sign
    length = 24 + np.maximum(nd - decpt, 1) - start
    src = _words(D, decpt).view(np.uint64).ravel()
    at = start // 8
    right = ((start - 8 * at) * 8).astype(np.uint64)
    at += np.arange(0, 6 * m, 6)
    left = np.uint64(64) - right
    out = np.empty((m, 3), dtype=np.uint64)
    word = src.take(at)
    for k in range(3):
        at += 1
        following = src.take(at)
        word >>= right
        word |= following << left
        word &= _KEEP.take(length - 8 * k, mode="clip")
        out[:, k] = word
        word = following
    out[:, 0] &= _SIGN_CLEAR.take(sign)
    out[:, 0] |= _SIGN_SET.take(sign)
    return out


def _words(D, decpt):
    """Twelve 4-byte words a row: the integer part of D * 10**(decpt - 17)
    right-aligned in words 1-5, the point as the last byte of word 5, and
    20 digits of its fraction in words 6-10."""
    row = decpt + 3
    whole = _SHIFTS[0].take(row)
    I = D // whole
    fr = D - I * whole
    fr *= _SHIFTS[1].take(row)
    a_div = _SHIFTS[2].take(row)
    A = fr // a_div
    fr -= A * a_div
    fr *= _SHIFTS[3].take(row)
    digits4, digits3_point = _digit_words()
    words = np.zeros((len(D), 12), dtype=np.uint32)
    ihi = I // 1000
    words[:, 5] = digits3_point.take(I - ihi * 1000)
    k = 4
    while ihi.any():
        q = ihi // 10000
        words[:, k] = digits4.take(ihi - q * 10000)
        ihi, k = q, k - 1
    words[:, 6] = digits4.take(A)
    for k in range(10, 7, -1):
        q = fr // 10000
        words[:, k] = digits4.take(fr - q * 10000)
        fr = q
    words[:, 7] = digits4.take(fr)
    return words
