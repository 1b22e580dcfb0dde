"""Deterministic randomness for the whole package.

One PRNG family is used everywhere: numpy's PCG64 behind
``numpy.random.Generator``, keyed by a 64-bit master seed.  Substreams are
derived with ``SeedSequence(master, spawn_key=indices)``, so any stochastic
operation documents itself as "stream (seed, i, j, ...)" and is reproducible
bit for bit.  Nothing in the package ever reads global RNG state.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_U64 = 2**64


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
