"""Deterministic randomness for the whole package.

One PRNG family is used everywhere: numpy's PCG64 behind
``numpy.random.Generator``, keyed by a 64-bit master seed.  Substreams are
derived with ``SeedSequence(master, spawn_key=indices)``, so any stochastic
operation documents itself as "stream (seed, i, j, ...)" and is reproducible
bit for bit.  Nothing in the package ever reads global RNG state.

A loop over many one-key substreams (seed, t) keeps their generator states
in one ``StreamWords``: it draws the next raw word of any rows in one numpy
pass, bit-identical to ``rng_from(seed, t)``, and ``StreamWords.randbelow``
is the row-wise, word-for-word twin of ``randbelow``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, is_int

_U64 = 2**64
_M32 = 2**32 - 1
# numpy's SeedSequence hash constants and the multiplier M (hi, lo) of PCG's 128-bit LCG.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def check_seed(seed: int) -> int:
    if not is_int(seed) or not 0 <= int(seed) < _U64:
        raise InvalidArgumentError(f"seed must be an integer in [0, 2^64): {seed!r}")
    return int(seed)


def rng_from(seed: int, *indices: int) -> np.random.Generator:
    """Generator for substream ``indices`` of the given master seed.

    ``rng_from(s)`` is the root stream; ``rng_from(s, i)`` and deeper
    tuples are independent substreams; each index is an integer >= 0.
    Draw order within a stream is documented at each call site.
    """
    seed = check_seed(seed)
    if not all(is_int(i) and i >= 0 for i in indices):
        raise InvalidArgumentError(f"stream indices must be integers >= 0: {indices!r}")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.PCG64(ss))


class StreamWords:
    """Row i gives the raw words of ``rng_from(seed, keys[i])``, one per ``next`` that lists it.

    numpy's path on uint64 (hi, lo) arrays, one entry per key, checked
    against numpy by a property test: ``_block_states`` hashes [seed low,
    seed high, 0, 0, t] as ``SeedSequence`` does into initstate and initseq;
    PCG64 seeds inc = 2 initseq + 1, state = (inc + initstate) M + inc, then
    steps state M + inc mod 2^128 and outputs rotr64(hi ^ lo, hi >> 58) per
    word.  Keys take one entropy word, so 2^32 and more are refused.
    """

    def __init__(self, seed: int, keys):
        seed = check_seed(seed)
        t = np.asarray(keys)
        if t.ndim != 1 or (t.size and (t.dtype.kind not in "iu" or t.min() < 0 or t.max() > _M32)):
            raise InvalidArgumentError(f"spawn keys must be integers in [0, 2^32): {keys!r}")
        s_hi, s_lo, i_hi, i_lo = _block_states(seed, t.astype(np.uint32))
        self._inc = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
        self._hi, self._lo = _lcg_step(s_hi, s_lo, _lcg_step(*self._inc, self._inc))

    def next(self, rows: np.ndarray) -> np.ndarray:
        """The next raw word of each of the distinct ``rows``, which advance one step."""
        hi, lo = _lcg_step(self._hi[rows], self._lo[rows], (self._inc[0][rows], self._inc[1][rows]))
        self._hi[rows], self._lo[rows] = hi, lo
        x, r = hi ^ lo, hi >> 58
        return x >> r | x << (-r & 63)

    def randbelow(self, bounds: np.ndarray) -> np.ndarray:
        """Row-wise ``randbelow``: row i draws below ``bounds[i]``, one word per
        attempt and none for a bound of 1.  Bounds are int64 below 2^53, where
        ``frexp`` gives their bit lengths exactly."""
        value = np.zeros(bounds.size, dtype=np.int64)
        shift = (64 - np.frexp(bounds)[1]).astype(np.uint64)
        draw = np.flatnonzero(bounds > 1)
        while draw.size:
            got = (self.next(draw) >> shift[draw]).astype(np.int64)
            kept = got < bounds[draw]
            value[draw[kept]] = got[kept]
            draw = draw[~kept]
        return value


def _lcg_step(hi, lo, inc):
    """(hi, lo) M + inc mod 2^128; the high word of lo M_lo from 32-bit limbs."""
    m_hi, m_lo = _PCG_MULT
    a0, a1, b0, b1 = lo & _M32, lo >> 32, m_lo & _M32, m_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    out_lo = lo * m_lo + inc[1]
    return high + lo * m_hi + hi * m_lo + inc[0] + (out_lo < inc[1]), out_lo


def _block_states(seed: int, t: np.ndarray) -> list[np.ndarray]:
    words = [np.full_like(t, w) for w in (seed & _M32, seed >> 32, 0, 0)] + [t]
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
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(words[4]))
    hash_const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = (value * hash_const).astype(np.uint64)
        out.append(value ^ (value >> 16))
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]


def pcg64_words(rng: np.random.Generator) -> Callable[[], int]:
    """The raw-word source ``rng.bit_generator.random_raw`` of a PCG64 generator.

    Other bit generators are refused (MT19937's raw words, for one, have 32
    bits), so every caller of ``_below`` draws from 64-bit words.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise InvalidArgumentError(f"randbelow needs a PCG64 generator, got {type(rng.bit_generator).__name__}")
    return rng.bit_generator.random_raw


def randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for 1 <= n < 2^64.

    Rejection sampling: each attempt takes one raw PCG64 word (the one
    ``rng.integers(0, 2**64, dtype=np.uint64)`` returns) and keeps its top
    ``n.bit_length()`` bits if they are below n; n = 1 takes no word.  A
    test pins the sequence.  Other bit generators are refused.
    """
    raw = pcg64_words(rng)
    if not 1 <= n < _U64:
        raise InvalidArgumentError(f"randbelow requires 1 <= n < 2^64, got {n}")
    return _below(raw, n)


def _below(raw: Callable[[], int], n: int) -> int:
    """``randbelow``'s rejection loop on the words of ``raw`` (from ``pcg64_words``),
    for n < 2^64 unchecked; n = 1 takes no word and n < 1 is refused."""
    if n < 2:
        if n == 1:
            return 0
        raise InvalidArgumentError(f"randbelow requires 1 <= n < 2^64, got {n}")
    shift = 64 - n.bit_length()
    while True:
        value = int(raw()) >> shift
        if value < n:
            return value
