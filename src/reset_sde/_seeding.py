"""The generators of an ensemble's trajectories, seeded a block at a time.

Trajectory i of a run draws from ``default_rng(SeedSequence(entropy,
spawn_key=(i,)))``.  ``generators`` gives the same generators for a range
of trajectories, with numpy's ``SeedSequence`` hash evaluated over their
spawn keys as arrays.  ``simulate`` imports this module on first use, as
a run's first ``default_rng`` would load ``numpy.random``."""

import functools
import numbers

import numpy as np


# numpy's SeedSequence hashes words into a pool of 4 uint32 words: its
# hashmix XORs a word with a running constant, steps the constant by a
# multiplier, multiplies the word by it and folds the high half down
# (``_xorshift``); mix(x, y) is _xorshift(_MIX_L * x - _MIX_R * y).  Words
# are hashed into the pool and mixed with the A constants; state words
# are hashed out of it with the B constants.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _xorshift(x):
    return x ^ x >> 16


def _words(value):
    """The uint32 words SeedSequence reads from an int, least significant
    first, or from a sequence of ints, one after another."""
    if isinstance(value, numbers.Integral):
        value = int(value)
        return [value >> s & _MASK for s in range(0, max(value.bit_length(), 1), 32)]
    return [word for item in value for word in _words(item)]


def _constants(run, mult, count):
    """uint32 columns of a hash constant before and after each of
    ``count`` steps from ``run``."""
    values = [run]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK)
    values = np.array(values, dtype=np.uint32)[:, None]
    return values[:-1], values[1:]


@functools.lru_cache(maxsize=8)
def _spawn_hash(words):
    """What the children of the root entropy ``words`` share: the pool
    they mix their key into, times ``_MIX_L``, and the A constant before
    and after each of the four steps that key takes, as uint32 columns.

    A spawned child pads its root words with zeros to the pool size, so
    before its key its pool is that of ``SeedSequence`` of the padded
    words, after 16 hashmix steps, and 4 more for each word beyond 4."""
    words = list(words) + [0] * (4 - len(words))
    steps = 16 + 4 * (len(words) - 4)
    before, after = _constants(_INIT_A, _MULT_A, steps + 4)
    pool = np.random.SeedSequence(words).pool[:, None] * _MIX_L
    return pool, before[steps:], after[steps:]


_STATE_BEFORE, _STATE_AFTER = _constants(_INIT_B, _MULT_B, 8)


class _State(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state words are already computed: the four
    uint64 words ``PCG64`` asks for."""
    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(entropy, start, stop):
    """The generators of trajectories start..stop-1: trajectory i's is
    ``default_rng(SeedSequence(entropy, spawn_key=(i,)))``, child i of the
    root ``SeedSequence(entropy)``, so any range of trajectories needs
    nothing from the others.

    The children's pools are hashed as uint32 arrays, one column per key:
    only the key, the last word a child mixes in, differs between them.
    numpy's array products wrap silently, where its scalar ones warn.
    Each child's four uint64 state words, the words
    ``generate_state(4, np.uint64)`` gives, seed its ``PCG64``.  The keys
    are below 2**32, one word each: the row budget bounds n far below."""
    pool, before, after = _spawn_hash(tuple(_words(entropy)))
    mixed = np.arange(start, stop, dtype=np.uint32) ^ before
    mixed *= after
    mixed = _xorshift(mixed)
    mixed *= _MIX_R
    mixed = _xorshift(pool - mixed)  # mix(pool word, hashed key)
    state = mixed[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_BEFORE
    state *= _STATE_AFTER
    state = _xorshift(state)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in words]
