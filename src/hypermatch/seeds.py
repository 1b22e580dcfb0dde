"""Deterministic randomness for the whole package.

One PRNG family is used everywhere: numpy's PCG64 behind
``numpy.random.Generator``, keyed by a 64-bit master seed.  Substreams are
derived with ``SeedSequence(master, spawn_key=indices)``, so any stochastic
operation documents itself as "stream (seed, i, j, ...)" and is reproducible
bit for bit.  Nothing in the package ever reads global RNG state.

A loop over many one-key substreams (seed, t) derives their PCG64 states
in vectorised numpy passes, one per block of ``STATE_BLOCK`` keys
(``substream_states``), bit-identical to ``rng_from(seed, t)``, and
re-keys one Generator per trial.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError

_U64 = 2**64
_M32 = 2**32 - 1
_M128 = 2**128 - 1
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# substream_states derives this many keys' states per numpy pass.
STATE_BLOCK = 4096


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


def substream_states(seed: int, keys) -> Iterator[dict]:
    """``bit_generator.state`` of ``rng_from(seed, t)`` for every t in ``keys``.

    A transcription of numpy's ``SeedSequence``, vectorised over blocks of
    ``STATE_BLOCK`` keys so that a long trial loop holds one block of states
    at a time: the entropy words [seed low, seed high, 0, 0, t] are hashmixed
    and mixed into a 4-word uint32 pool, and ``generate_state(4, uint64)`` is
    drawn from it; PCG64's two-step seeding then runs on Python 128-bit ints.
    Keys of 2^32 and more take a second entropy word and are refused here,
    before any state is made.  A test checks the states against numpy's.
    """
    seed = check_seed(seed)
    t = np.asarray(keys)
    if t.ndim != 1 or (t.size and (t.dtype.kind not in "iu" or t.min() < 0 or t.max() > _M32)):
        raise InvalidArgumentError(f"spawn keys must be integers in [0, 2^32): {keys!r}")
    t = t.astype(np.uint32)
    blocks = range(0, t.size, STATE_BLOCK)
    return (state for lo in blocks for state in _block_states(seed, t[lo:lo + STATE_BLOCK]))


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
    """Uniform integer in [0, n) for arbitrary-precision ``n``.

    Rejection sampling on 64-bit words, so the draw stays exactly uniform
    even when ``n`` exceeds the generator's native word size.  Each word is
    one raw PCG64 output, the word ``rng.integers(0, 2**64, dtype=np.uint64)``
    would return; a test pins the resulting sequence.  Other bit generators
    are refused: MT19937's raw outputs, for one, are 32-bit words.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise InvalidArgumentError(f"randbelow needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    if n <= 0:
        raise InvalidArgumentError("randbelow requires n >= 1")
    if n == 1:
        return 0
    bits = n.bit_length()
    words = (bits + 63) // 64
    raw = rng.bit_generator.random_raw
    while True:
        value = 0
        for _ in range(words):
            value = (value << 64) | int(raw())
        value >>= words * 64 - bits
        if value < n:
            return value
