import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermatch import seeds
from hypermatch.errors import InvalidArgumentError
from hypermatch.seeds import randbelow, rng_from, substream_states

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


def numpy_state(seed, key):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))).state


# substream_states transcribes numpy's SeedSequence mixing and PCG64 seeding;
# these tests are the intended alarm if a numpy upgrade changes either.
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), keys=st.lists(st.integers(0, 2**32 - 1), max_size=8))
def test_substream_states_match_numpy(seed, keys):
    assert list(substream_states(seed, keys)) == [numpy_state(seed, t) for t in keys]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_substream_states_edges_match_numpy(seed):
    keys = [0, 1, 2**31, 2**32 - 1]
    assert list(substream_states(seed, keys)) == [numpy_state(seed, t) for t in keys]


def test_substream_states_across_blocks(monkeypatch):
    # a long trial loop is derived block by block; the blocks join seamlessly
    monkeypatch.setattr(seeds, "STATE_BLOCK", 3)
    expected = [rng_from(2**40 + 3, t).bit_generator.state for t in range(10)]
    assert list(substream_states(2**40 + 3, range(10))) == expected


def test_rekeyed_generator_draws_like_rng_from():
    # re-keying one generator also drops the 32-bit word PCG64 buffers
    rng = rng_from(3)
    for t, state in enumerate(substream_states(3, range(4))):
        rng.bit_generator.state = state
        fresh = rng_from(3, t)
        assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == \
            fresh.integers(0, 2**32, 3, dtype=np.uint32).tolist()
        assert rng.random() == fresh.random()


@pytest.mark.parametrize("keys", [[2**32], [-1], [0, 2**64], [1.5], [[0]]])
def test_substream_states_refuse_keys_outside_one_word(keys):
    # refused when called, before the first state is consumed
    with pytest.raises(InvalidArgumentError, match="spawn keys"):
        substream_states(1, keys)


def test_substream_states_of_no_keys():
    assert list(substream_states(1, [])) == []
