import numpy as np
import pytest

from hypermatch.errors import InvalidArgumentError
from hypermatch.seeds import randbelow, rng_from

# Recorded from rng.integers(0, 2**64, dtype=np.uint64) words; a numpy whose
# raw PCG64 words differ from those breaks every seeded stream.
PINNED = {
    2: [1, 0, 0, 1],
    10**6: [322155, 889819, 458730, 29598],
    2**64 + 13: [
        5942540397832550497, 16126074002236320699, 9953533961392033888, 11206840971073805868,
    ],
    3 * 2**130: [
        389821406224046498165756978678590391314,
        1151315361284255525678959322929074612117,
        2913976071592403079938840188831806742886,
        801573722119846522494127421538209005822,
    ],
}


def test_randbelow_pinned_stream():
    rng = rng_from(20240601, 3)
    for n, expected in PINNED.items():
        assert [randbelow(rng, n) for _ in expected] == expected
    assert rng.random() == 0.3605978800299402


def test_randbelow_rejects_empty_range():
    assert randbelow(rng_from(1), 1) == 0
    with pytest.raises(InvalidArgumentError):
        randbelow(rng_from(1), 0)


def test_randbelow_refuses_32_bit_generator():
    with pytest.raises(InvalidArgumentError):
        randbelow(np.random.Generator(np.random.MT19937(5)), 2**40)
