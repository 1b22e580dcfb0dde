"""Deterministic randomness for the whole package.

One PRNG family is used everywhere: numpy's PCG64 behind
``numpy.random.Generator``, keyed by a 64-bit master seed.  Substreams are
derived with ``SeedSequence(master, spawn_key=indices)``, so any stochastic
operation documents itself as "stream (seed, i, j, ...)" and is reproducible
bit for bit.  Nothing in the package ever reads global RNG state.

A loop over many one-key substreams (seed, t) derives their PCG64 states in
one vectorised pass and reads their first raw words (``stream_words``,
bit-identical to ``rng_from(seed, t)``), then draws from them row by row
with ``randbelow_words``, the word-for-word twin of ``randbelow``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_U64 = 2**64
_M32 = 2**32 - 1
_M128 = 2**128 - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < _U64:
        raise InvalidArgumentError(f"seed must be an integer in [0, 2^64): {seed!r}")
    return int(seed)


def rng_from(seed: int, *indices: int) -> np.random.Generator:
    """Generator for substream ``indices`` of the given master seed.

    ``rng_from(s)`` is the root stream; ``rng_from(s, i)`` and deeper
    tuples are independent substreams.  Draw order within a stream is
    documented at each call site.
    """
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.PCG64(ss))


def stream_words(seed: int, keys, count: int) -> np.ndarray:
    """Row i is ``rng_from(seed, keys[i]).bit_generator.random_raw(count)``.

    ``_block_states`` transcribes numpy's ``SeedSequence``, vectorised over
    the keys: the entropy words [seed low, seed high, 0, 0, t] are hashmixed
    into a 4-word uint32 pool, ``generate_state(4, uint64)`` is drawn from
    it, and PCG64's two-step seeding runs on Python 128-bit ints.  One bit
    generator is re-keyed from each state to read the words.  Keys of 2^32
    and more take a second entropy word and are refused.
    """
    seed = check_seed(seed)
    t = np.asarray(keys)
    if t.ndim != 1 or (t.size and (t.dtype.kind not in "iu" or t.min() < 0 or t.max() > _M32)):
        raise InvalidArgumentError(f"spawn keys must be integers in [0, 2^32): {keys!r}")
    words = np.empty((t.size, count), dtype=np.uint64)
    bit_generator = np.random.PCG64(0)
    for row, state in zip(words, _block_states(seed, t.astype(np.uint32))):
        bit_generator.state = state
        row[:] = bit_generator.random_raw(count)
    return words


def _block_states(seed: int, t: np.ndarray) -> list[dict]:
    zeros = np.zeros(t.size, np.uint32)
    words = [zeros + (seed & _M32), zeros + (seed >> 32), zeros, zeros, t]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(words[4]))
    hash_const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = (value * hash_const).astype(np.uint64)
        out.append(value ^ (value >> 16))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*((out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for 1 <= n < 2^64.

    Rejection sampling: each attempt takes one raw PCG64 word (the one
    ``rng.integers(0, 2**64, dtype=np.uint64)`` returns) and keeps its top
    ``n.bit_length()`` bits if they are below n; n = 1 takes no word.  A
    test pins the sequence.  Other bit generators are refused (MT19937's
    raw words, for one, have 32 bits).
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise InvalidArgumentError(f"randbelow needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    if not 1 <= n < _U64:
        raise InvalidArgumentError(f"randbelow requires 1 <= n < 2^64, got {n}")
    if n == 1:
        return 0
    shift = 64 - n.bit_length()
    raw = rng.bit_generator.random_raw
    while True:
        value = int(raw()) >> shift
        if value < n:
            return value


def randbelow_words(words: np.ndarray, used: np.ndarray, lost: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise ``randbelow``: row i draws below ``n[i]`` from ``words[i]``.

    Row i reads words from ``used[i]`` on, as ``randbelow`` does, and
    advances ``used``; a row that runs out is marked in ``lost`` and, like
    a row lost before, draws 0.  Bounds are int64 below 2^53, where
    ``frexp`` gives their bit lengths exactly.
    """
    value = np.zeros(n.size, dtype=np.int64)
    shift = (64 - np.frexp(n)[1]).astype(np.uint64)
    draw = np.flatnonzero((n > 1) & ~lost)
    while draw.size:
        lost[draw] |= used[draw] == words.shape[1]
        draw = draw[~lost[draw]]
        got = (words[draw, used[draw]] >> shift[draw]).astype(np.int64)
        used[draw] += 1
        kept = got < n[draw]
        value[draw[kept]] = got[kept]
        draw = draw[~kept]
    return value
