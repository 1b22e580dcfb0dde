import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermatch.errors import InvalidArgumentError
from hypermatch.seeds import StreamWords, _below, randbelow, rng_from

# Recorded from rng.integers(0, 2**64, dtype=np.uint64) words; a numpy whose
# raw PCG64 words differ from those breaks every seeded stream.
PINNED = {
    2: [1, 0, 0, 1],
    10**6: [322155, 889819, 458730, 29598],
}


def test_randbelow_pinned_stream():
    rng = rng_from(20240601, 3)
    for n, expected in PINNED.items():
        assert [randbelow(rng, n) for _ in expected] == expected
    assert rng.random() == 0.7996965462617227


def test_randbelow_rejects_empty_range():
    assert randbelow(rng_from(1), 1) == 0
    with pytest.raises(InvalidArgumentError):
        randbelow(rng_from(1), 0)


@pytest.mark.parametrize("n", [2**64, 2**64 + 13, 3 * 2**130])
def test_randbelow_refuses_bounds_of_two_words(n):
    with pytest.raises(InvalidArgumentError, match="2\\^64"):
        randbelow(rng_from(1), n)


def test_randbelow_refuses_32_bit_generator():
    with pytest.raises(InvalidArgumentError):
        randbelow(np.random.Generator(np.random.MT19937(5)), 2**40)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), bounds=st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=6))
def test_below_draws_like_randbelow(seed, bounds):
    # the loop ``PMOracle.sample`` calls on raw words, one draw per bound
    rng, twin = rng_from(seed), rng_from(seed)
    raw = rng.bit_generator.random_raw
    assert [_below(raw, n) for n in bounds] == [randbelow(twin, n) for n in bounds]
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", [0, -3])
def test_below_refuses_empty_range(n):
    with pytest.raises(InvalidArgumentError, match="1 <= n"):
        _below(rng_from(1).bit_generator.random_raw, n)


# StreamWords transcribes numpy's SeedSequence mixing and PCG64 seeding;
# these tests are the intended alarm if a numpy upgrade changes either.
def numpy_words(seed, keys, count):
    return [rng_from(seed, t).bit_generator.random_raw(count).tolist() for t in keys]


def stream_words(seed, keys, count):
    """The first ``count`` words of every row of ``StreamWords(seed, keys)``."""
    streams = StreamWords(seed, keys)
    rows = np.arange(len(keys))
    return np.array([streams.next(rows) for _ in range(count)], dtype=np.uint64).reshape(count, len(keys)).T


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    keys=st.lists(st.integers(0, 2**32 - 1), max_size=8),
    count=st.integers(0, 40),
)
def test_stream_words_match_numpy(seed, keys, count):
    words = stream_words(seed, keys, count)
    assert words.dtype == np.uint64 and words.shape == (len(keys), count)
    assert words.tolist() == numpy_words(seed, keys, count)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_stream_words_edges_match_numpy(seed):
    keys = [0, 1, 2**31, 2**32 - 1]
    assert stream_words(seed, keys, 5).tolist() == numpy_words(seed, keys, 5)


@pytest.mark.parametrize("keys", [[2**32], [-1], [0, 2**64], [1.5], [[0]]])
def test_stream_words_refuse_keys_outside_one_word(keys):
    with pytest.raises(InvalidArgumentError, match="spawn keys"):
        StreamWords(1, keys)


def test_stream_words_of_no_keys():
    assert stream_words(1, [], 4).shape == (0, 4)
    assert StreamWords(1, []).randbelow(np.zeros(0, dtype=np.int64)).shape == (0,)


# 1 takes no word, 2^j + 1 rejects about half its words and 2^j - 1 almost
# none; the exact oracle's counts stay below 2**44
BOUNDS = [1, 2, 3] + [2**j + s for j in range(2, 44) for s in (-1, 1)] + [2**44]


def words_taken(rng, seed, t):
    """Raw words stream (seed, t) has given since ``rng_from(seed, t)``."""
    fresh, taken = rng_from(seed, t).bit_generator, 0
    while fresh.state != rng.bit_generator.state:
        fresh.random_raw()
        taken += 1
    return taken


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_randbelow_words_draws_like_randbelow(seed, monkeypatch):
    # enough rounds that some rows take more than 32 words
    rows, rounds = 200, 30
    bounds = [[BOUNDS[(7 * t + r) % len(BOUNDS)] for t in range(rows)] for r in range(rounds)]
    streams = StreamWords(seed, range(rows))
    used = np.zeros(rows, dtype=np.int64)
    real = streams.next

    def counted(rows):
        used[rows] += 1
        return real(rows)

    monkeypatch.setattr(streams, "next", counted)
    drawn = [streams.randbelow(np.array(b, dtype=np.int64)) for b in bounds]
    for t in range(rows):
        rng = rng_from(seed, t)
        assert [int(d[t]) for d in drawn] == [randbelow(rng, b[t]) for b in bounds]
        assert used[t] == words_taken(rng, seed, t)
    assert used.max() > 32


def test_stream_words_build_no_bit_generator(monkeypatch):
    keys = [0, 1, 2**31, 2**32 - 1]
    expected = numpy_words(2**64 - 1, keys, 33)

    def refuse(*args, **kwargs):
        raise AssertionError("StreamWords constructed a PCG64")

    monkeypatch.setattr(np.random, "PCG64", refuse)
    assert stream_words(2**64 - 1, keys, 33).tolist() == expected


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 40])
def test_stream_words_wrap_without_warnings(seed, count):
    # uint64 arithmetic wraps silently on arrays but warns on numpy scalars
    keys = [0, 2**32 - 1]
    expected = numpy_words(seed, keys, count)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = stream_words(seed, keys, count)
        drawn = StreamWords(seed, keys).randbelow(np.array([2**40 + 1, 3], dtype=np.int64))
    assert words.tolist() == expected
    assert drawn.tolist() == [randbelow(rng_from(seed, t), b) for t, b in zip(keys, [2**40 + 1, 3])]
