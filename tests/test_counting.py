import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from hypermatch import counting
from hypermatch.counting import (
    DEFAULT_COUNT_CAP,
    SAMPLE_CACHE_EDGES,
    PMOracle,
    count_pm,
    entropy_identities_check,
    phi_complete,
    sample_uniform_pms,
    verify_count_vs_entropy,
)
from hypermatch.entropy import as_verified
from hypermatch.errors import (
    InvalidArgumentError,
    InvariantError,
    ResourceLimitError,
    SamplingError,
)
from hypermatch.hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac
from hypermatch.seeds import StreamWords, randbelow, rng_from

SINGLE_PM = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])


def count_by_edge_subsets(G):
    """Independent oracle: enumerate all (n/k)-subsets of edges and keep the
    disjoint covers."""
    if G.n % G.k:
        return 0
    want = G.n // G.k
    total = 0
    for combo in itertools.combinations(range(G.num_edges), want):
        seen = set()
        for eid in combo:
            seen.update(G.edges[eid])
        total += len(seen) == G.n
    return total


class RecursiveOracle:
    """Reference: the recursive memoised DP the layered oracle replaced.

    One Python call per (state, incident edge); marginals count V(e) from
    cold, and the sampler scans every edge through the lowest free vertex.
    """

    def __init__(self, G):
        self.G = G
        self.full_mask = (1 << G.n) - 1
        self.edge_masks = [sum(1 << v for v in e) for e in G.edges]
        self.by_vertex = [[(i, self.edge_masks[i]) for i in G.incident(v)] for v in range(G.n)]
        self._memo = {}

    def count(self, mask=0):
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if mask == self.full_mask:
            self._memo[mask] = 1
            return 1
        free = ~mask & self.full_mask
        v = (free & -free).bit_length() - 1
        total = 0
        for _, emask in self.by_vertex[v]:
            if emask & mask == 0:
                total += self.count(mask | emask)
        self._memo[mask] = total
        return total

    def count_pm(self):
        return 0 if self.G.n % self.G.k else self.count(0)

    def marginals(self):
        total = self.count_pm()
        if total == 0:
            raise SamplingError("graph has no perfect matching")
        return [Fraction(self.count(emask), total) for emask in self.edge_masks]

    def sample(self, rng):
        if self.count_pm() == 0:
            raise SamplingError("graph has no perfect matching")
        mask = 0
        chosen = []
        while mask != self.full_mask:
            now = self.count(mask)
            free = ~mask & self.full_mask
            v = (free & -free).bit_length() - 1
            feasible = [
                (eid, emask, self.count(mask | emask))
                for eid, emask in self.by_vertex[v]
                if emask & mask == 0
            ]
            r = randbelow(rng, now)
            acc = 0
            for eid, emask, c in feasible:
                acc += c
                if r < acc:
                    chosen.append(eid)
                    mask |= emask
                    break
        return tuple(chosen)


def count_matchings_by_id_order(G):
    """Independent oracle: pairwise disjoint edge sets, built in increasing id
    order, that cover every vertex."""
    full = (1 << G.n) - 1
    masks = [sum(1 << v for v in e) for e in G.edges]

    def extend(covered, start):
        if covered == full:
            return 1
        return sum(extend(covered | masks[i], i + 1)
                   for i in range(start, len(masks)) if not masks[i] & covered)

    return extend(0, 0)


def sparse_graph(k, n, p, seed):
    rng = rng_from(seed)
    combos = list(itertools.combinations(range(n), k))
    return Hypergraph(k, n, [e for e, keep in zip(combos, rng.random(len(combos)) < p) if keep])


# k in {2, 3, 4}, n <= 12: complete and Dirac graphs, sparse graphs with dead
# ends, graphs without a perfect matching and n % k != 0.
REFERENCE_GRAPHS = {
    "K8_2": gen_complete(8, 2),
    "K9_3": gen_complete(9, 3),
    "K12_3": gen_complete(12, 3),
    "K12_4": gen_complete(12, 4),
    "dirac12_3": gen_random_dirac(12, 3, DiracParams(2, 0.1), density=0.8, seed=21),
    "sparse10_2": sparse_graph(2, 10, 0.35, 1),
    "sparse12_3": sparse_graph(3, 12, 0.15, 2),
    "sparse12_4": sparse_graph(4, 12, 0.12, 3),
    "no_pm6_3": Hypergraph(3, 6, [(0, 1, 2), (0, 3, 4)]),
    "no_pm9_3": Hypergraph(3, 9, [(0, 1, 2), (3, 4, 5), (3, 6, 7), (4, 6, 8), (0, 7, 8)]),
    "K7_3": gen_complete(7, 3),
    "K10_4": gen_complete(10, 4),
    "sparse11_2": sparse_graph(2, 11, 0.4, 4),
}


class TestLayeredDPMatchesRecursive:
    """The layered int64 DP against the recursive reference, value for value."""

    @pytest.fixture(params=sorted(REFERENCE_GRAPHS))
    def graph(self, request):
        return REFERENCE_GRAPHS[request.param]

    def test_graph_set_covers_the_cases(self):
        graphs = list(REFERENCE_GRAPHS.values())
        oracles = [PMOracle(G) for G in graphs]
        assert {G.k for G in graphs} == {2, 3, 4}
        assert {G.k for G, o in zip(graphs, oracles) if o.count_pm()} == {2, 3, 4}
        assert any(G.n % G.k for G in graphs)
        assert any(G.n % G.k == 0 and o.count_pm() == 0 for G, o in zip(graphs, oracles))
        # dead ends: reachable states with no completion, next to live ones
        assert any(0 in o._memo.values() and o.count_pm() > 0 for o in oracles)

    def test_counts_and_memo_after_count_pm(self, graph):
        new, ref = PMOracle(graph), RecursiveOracle(graph)
        assert new.count_pm() == ref.count_pm()
        assert new._memo == ref._memo

    def test_marginals_are_identical_fractions(self, graph):
        new, ref = PMOracle(graph), RecursiveOracle(graph)
        if ref.count_pm() == 0:
            with pytest.raises(SamplingError):
                new.marginals()
            return
        new.count_pm()
        states = len(new._memo)
        assert new.marginals() == ref.marginals()
        # the marginals read the fill's through-counts and add no state
        assert len(new._memo) == states

    # 8 lead edges fill the sampler's kept choices within the first draws
    @pytest.mark.parametrize("cache_edges", [SAMPLE_CACHE_EDGES, 8])
    def test_samples_match_the_reference(self, graph, cache_edges, monkeypatch):
        monkeypatch.setattr(counting, "SAMPLE_CACHE_EDGES", cache_edges)
        new, ref = PMOracle(graph), RecursiveOracle(graph)
        if not ref.count_pm():
            with pytest.raises(SamplingError):
                new.sample(rng_from(0))
            return
        largest_group = max(len(pairs) for pairs in new._lead_pairs)
        for seed in range(20):
            assert new.sample(rng_from(seed)) == ref.sample(rng_from(seed))
            kept = sum(len(picks) for _, _, picks in new._choices.values())
            assert kept == new._choice_edges <= cache_edges + largest_group
        # the kept choices were read, and past the tiny bound states were rebuilt
        assert new._choice_edges >= min(cache_edges, 8)


class TestOracleGuards:
    def test_int64_holds_every_count_under_the_cap(self):
        # every number the DP forms is at most the complete graph's count,
        # so int64 suffices for every n the cap admits; over all k | n <= 24
        # the largest count is Phi(K_24^(3)) ~ 9.2e12
        largest = max(
            phi_complete(n, k).value
            for k in range(2, DEFAULT_COUNT_CAP + 1)
            for n in range(0, DEFAULT_COUNT_CAP + 1, k)
        )
        assert largest == phi_complete(24, 3).value < 2**63
        # sample_streams packs (state index << 44 | running sum) into int64
        assert largest < 2**44
        # the fill's slot arrays: C(n - r, (k - 1) r) slots for layer r, at
        # most C(23, 11) (n = 24, k = 12, r = 1) and 24,310 at n = 21, k = 3,
        # so every slot fits the int32 ranks
        slots = {
            (n, k): max(math.comb(n - r, (k - 1) * r) for r in range(1, n // k + 1))
            for k in range(2, DEFAULT_COUNT_CAP + 1)
            for n in range(k, DEFAULT_COUNT_CAP + 1, k)
        }
        assert max(slots.values()) == slots[24, 12] == math.comb(23, 11) == 1_352_078 < 2**21
        assert slots[21, 3] == 24_310
        PMOracle(gen_complete(24, 3))
        PMOracle(gen_complete(24, 2))

    def test_broken_memo_breaks_the_sampler_telescoping(self):
        oracle = PMOracle(gen_complete(6, 3))
        oracle.count_pm()
        oracle._memo[0] += 1
        with pytest.raises(InvariantError, match="telescope"):
            oracle.sample(rng_from(0))

    def test_broken_path_count_raises_typed_error(self, monkeypatch):
        # one wrong forward path count reaches the full mask, where the two
        # passes no longer agree on the number of matchings
        def broken(blocks):
            states, ways = next_layer(blocks)
            ways[0] += 1
            return states, ways

        next_layer = counting._next_layer
        monkeypatch.setattr(counting, "_next_layer", broken)
        with pytest.raises(InvariantError, match="paths reach the full mask"):
            PMOracle(gen_complete(6, 3)).count_pm()


class TestOneFill:
    """The fill walks the transitions twice, and the marginals come out of it."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Counts of ``PMOracle._transitions`` and ``PMOracle._fill`` calls."""
        calls = Counter()

        def counted(name):
            method = getattr(PMOracle, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(PMOracle, name, wrapper)

        counted("_transitions")
        counted("_fill")
        return calls

    def test_marginals_after_count_make_no_transitions(self, calls):
        oracle = PMOracle(gen_complete(9, 3))
        oracle.count_pm()
        # each non-full layer is expanded forward and backward: 3 + 3
        assert calls == {"_fill": 1, "_transitions": 6}
        calls.clear()
        assert oracle.marginals() == [Fraction(1, 28)] * 84
        assert not calls

    def test_cold_marginals_fill_once(self, calls):
        oracle = PMOracle(gen_complete(9, 3))
        oracle.marginals()
        oracle.marginals()
        assert calls["_fill"] == 1


def colex_rank(mask, r):
    """sum_i C(p_i, i + 1) over the set bits p_0 < p_1 < ... of mask >> r."""
    return sum(math.comb(p, i + 1) for i, p in enumerate(v for v in range(mask.bit_length()) if mask >> r >> v & 1))


def layer_candidates(n, k, r, positions):
    """Layer-r masks of a k-graph on n vertices: bits 0..r-1 and, for each
    tuple in ``positions``, those (k - 1) r of the bits r..n-1."""
    return sorted((1 << r) - 1 | sum(1 << p for p in chosen) for chosen in positions)


class TestRankSlots:
    """A layer's rank gives each of its candidate masks its own slot, in mask order."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_exhaustive_small_layers(self, n):
        for k in (k for k in range(1, n + 1) if n % k == 0):
            for r in range(1, n // k + 1):
                masks = layer_candidates(n, k, r, itertools.combinations(range(r, n), (k - 1) * r))
                ranks = counting._layer_rank(k, r)(np.array(masks, dtype=np.int64))
                # sorted masks onto 0, 1, ...: increasing, and onto [0, C(n - r, (k - 1) r)) exactly
                assert ranks.tolist() == list(range(math.comb(n - r, (k - 1) * r)))

    @pytest.mark.parametrize("n", [21, 24])
    def test_sampled_layers_at_the_cap(self, n):
        rng = np.random.default_rng(n)
        for k in (k for k in range(1, n + 1) if n % k == 0):
            for r in range(1, n // k + 1):
                bits, size = (k - 1) * r, math.comb(n - r, (k - 1) * r)
                sampled = [sorted(rng.choice(np.arange(r, n), bits, replace=False).tolist()) for _ in range(200)]
                # the least and the greatest candidate take the first and the last slot
                ends = [range(r, r + bits), range(n - bits, n)]
                masks = layer_candidates(n, k, r, sampled + ends)
                ranks = counting._layer_rank(k, r)(np.array(masks, dtype=np.int64)).tolist()
                assert ranks == [colex_rank(m, r) for m in masks]
                assert np.all(np.diff(ranks) >= 0) and len(set(masks)) == len(set(ranks))
                assert ranks[0] == 0 and ranks[-1] == size - 1

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS) + ["DIRAC_15", "K9"])
    def test_fill_equals_the_unique_reference(self, name):
        G = {"DIRAC_15": DIRAC_15, "K9": gen_complete(9, 3)}.get(name) or REFERENCE_GRAPHS[name]
        oracle = PMOracle(G)
        oracle.count_pm()
        if G.n % G.k:
            assert oracle._layers == []
            return
        layers, through = reference_fill(oracle)
        assert len(oracle._layers) == len(layers)
        for (states, counts), (want_states, want_counts) in zip(oracle._layers, layers):
            assert states.dtype == counts.dtype == np.int64
            assert states.tolist() == want_states.tolist() and counts.tolist() == want_counts.tolist()
        assert oracle._through_counts.tolist() == through.tolist()


class TestCounts:
    def test_examples(self):
        assert count_pm(gen_complete(4, 2)).value == 3
        assert count_pm(gen_complete(6, 3)).value == 10
        assert count_pm(SINGLE_PM).value == 1

    def test_divisibility_note(self):
        result = count_pm(gen_complete(7, 3))
        assert result.value == 0 and "divide" in result.note

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="cap 24"):
            count_pm(gen_complete(26, 2))

    def test_phi_complete_closed_form(self):
        assert phi_complete(6, 3).value == 10
        assert phi_complete(4, 2).value == 3
        assert phi_complete(3, 3).value == 1
        with pytest.raises(InvalidArgumentError):
            phi_complete(7, 3)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (8, 4)])
    def test_phi_complete_matches_dp(self, n, k):
        assert phi_complete(n, k).value == count_pm(gen_complete(n, k)).value

    def test_dp_matches_subset_enumeration_on_random_instances(self):
        rng = rng_from(2024)
        checked = 0
        while checked < 100:
            k = 2 if checked % 2 == 0 else 3
            n = int(rng.integers(k * 2, 10))
            n -= n % k
            all_edges = list(itertools.combinations(range(n), k))
            mask = rng.random(len(all_edges)) < 0.55
            G = Hypergraph(k, n, [e for e, keep in zip(all_edges, mask) if keep])
            if math.comb(G.num_edges, n // k) > 200000:
                continue
            assert count_pm(G).value == count_by_edge_subsets(G)
            checked += 1


    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 3),
        n=st.integers(2, 9),
        keep=st.lists(st.booleans(), min_size=84, max_size=84),
    )
    def test_dp_count_equals_brute_force(self, k, n, keep):
        combos = list(itertools.combinations(range(n), k))
        G = Hypergraph(k, n, [e for e, kept in zip(combos, keep) if kept])
        assert PMOracle(G).count_pm() == count_matchings_by_id_order(G)


DIRAC_15 = gen_random_dirac(15, 3, DiracParams(2, 0.2), density=0.9, seed=15)


class TestSampling:
    @pytest.mark.parametrize("cache_edges", [SAMPLE_CACHE_EDGES, 8])
    def test_pinned_samples_on_dirac_15(self, cache_edges, monkeypatch):
        # recorded from the recursive oracle the layered DP replaced
        monkeypatch.setattr(counting, "SAMPLE_CACHE_EDGES", cache_edges)
        oracle = PMOracle(DIRAC_15)
        assert oracle.count_pm() == 962673 and len(oracle._memo) == 1889
        assert [oracle.sample(rng_from(s)) for s in range(5)] == [
            (57, 107, 157, 323, 418),
            (45, 97, 187, 304, 383),
            (23, 114, 259, 276, 383),
            (7, 172, 256, 338, 342),
            (45, 91, 253, 288, 360),
        ]

    def test_warm_oracle_draws_like_a_fresh_one(self):
        warm = PMOracle(DIRAC_15)
        for s in range(500):
            warm.sample(rng_from(1000 + s))
        assert len(warm._choices) > 100
        for s in range(20):
            assert warm.sample(rng_from(s)) == PMOracle(DIRAC_15).sample(rng_from(s))

    def test_unique_pm_always_returned(self):
        for seed in range(5):
            assert sorted(sample_uniform_pms(SINGLE_PM, seed, 1)[0]) == [0, 1]

    def test_spec_frequency_band_on_k6(self):
        draws = 100000
        samples = sample_uniform_pms(gen_complete(6, 3), seed=11, trials=draws)
        counts = Counter(tuple(sorted(s)) for s in samples)
        assert len(counts) == 10
        assert all(abs(c - 10000) <= 500 for c in counts.values())

    def test_chi_square_uniformity_k6(self):
        G = gen_complete(6, 3)
        draws = 20000
        counts = Counter(tuple(sorted(s)) for s in sample_uniform_pms(G, 101, draws))
        expected = draws / 10
        stat = sum((counts.get(pm, 0) - expected) ** 2 / expected for pm in counts)
        assert stat < chi2.isf(0.001, 9)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_chi_square_uniformity_random_dirac_12(self, seed):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.1), density=0.8, seed=seed)
        phi = count_pm(G).value
        draws = 30000
        counts = Counter(tuple(sorted(s)) for s in sample_uniform_pms(G, seed + 500, draws))
        expected = draws / phi
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        stat += (phi - len(counts)) * expected
        assert stat < chi2.isf(0.001, phi - 1)

    def test_no_pm_raises(self):
        no_pm = Hypergraph(3, 6, [(0, 1, 2), (0, 3, 4)])
        with pytest.raises(SamplingError):
            sample_uniform_pms(no_pm, 1, 1)[0]


def draw_and_words(oracle, seed, t):
    """``oracle.sample`` on stream (seed, t) and the raw words it consumed."""
    rng = rng_from(seed, t)
    matching = oracle.sample(rng)
    fresh = rng_from(seed, t).bit_generator
    used = 0
    while fresh.state != rng.bit_generator.state:
        fresh.random_raw()
        used += 1
    return matching, used


def count_redraws(monkeypatch):
    """Record each ``PMOracle.sample`` call made from here on."""
    calls = []
    real = PMOracle.sample

    def counted(self, rng):
        calls.append(1)
        return real(self, rng)

    monkeypatch.setattr(PMOracle, "sample", counted)
    return calls


def count_words(monkeypatch):
    """Per ``StreamWords`` made from here on, in order, the words each row draws."""
    drawn = {}
    real = StreamWords.next

    def counted(self, rows):
        drawn.setdefault(self, Counter()).update(np.asarray(rows).tolist())
        return real(self, rows)

    monkeypatch.setattr(StreamWords, "next", counted)
    return drawn


def transitions_by_layer(oracle):
    """(states, parent, edge id, child) of each layer reachable from the empty
    mask short of the full one, with every transition out of it in the order
    ``_transitions`` yields them; the next layer is ``np.unique(child)``."""
    states = np.zeros(1, dtype=np.int64)
    empty = (np.zeros(0, dtype=np.int64),) * 3
    while states.size and states[0] != oracle.full_mask:
        # one empty block, so a layer without transitions yields empty arrays
        parent, eid, child = map(np.concatenate, zip(empty, *oracle._transitions(states)))
        yield states, parent, eid, child
        states = np.unique(child)


def reference_fill(oracle):
    """``_layers`` and ``_through_counts`` built from ``transitions_by_layer``:
    each layer is ``np.unique`` of the children, with the ways summed per
    child, and a state's count sums its children's, found by their index."""
    walk = list(transitions_by_layer(oracle))
    layers = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
    for _, parent, _, child in walk:
        nxt, index = np.unique(child, return_inverse=True)
        ways = np.zeros(nxt.size, dtype=np.int64)
        np.add.at(ways, index, layers[-1][1][parent])
        layers.append((nxt, ways))
    counts = [np.ones(layers[-1][0].size, dtype=np.int64)]
    through = np.zeros(oracle.G.num_edges, dtype=np.int64)
    for (states, parent, eid, child), (_, ways) in zip(walk[::-1], layers[-2::-1]):
        below = counts[-1][np.unique(child, return_inverse=True)[1]]
        count = np.zeros(states.size, dtype=np.int64)
        np.add.at(count, parent, below)
        np.add.at(through, eid, ways[parent] * below)
        counts.append(count)
    return [(states, count) for (states, _), count in zip(layers, counts[::-1])], through


class TestLockstepStreams:
    """``sample_streams`` row t against ``sample(rng_from(seed, t))``, draw for draw."""

    @pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**64 - 1])
    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS))
    def test_rows_are_the_sequential_draws(self, name, seed, monkeypatch):
        G = REFERENCE_GRAPHS[name]
        oracle = PMOracle(G)
        if not oracle.count_pm():
            with pytest.raises(SamplingError):
                oracle.sample_streams(seed, 5)
            return
        expected = [PMOracle(G).sample(rng_from(seed, t)) for t in range(60)]
        redraws = count_redraws(monkeypatch)
        assert [tuple(row) for row in oracle.sample_streams(seed, 60).tolist()] == expected
        assert redraws == []

    @pytest.mark.parametrize("seed", [3, 2**64 - 1])
    def test_rows_draw_the_words_of_the_sequential_draws(self, seed, monkeypatch):
        # the lockstep rounds generate exactly the words the sequential draws
        # consume, row by row, and never fall back on ``sample``
        oracle = PMOracle(DIRAC_15)
        sequential = [draw_and_words(oracle, seed, t) for t in range(2000)]
        redraws = count_redraws(monkeypatch)
        drawn = count_words(monkeypatch)
        rows = PMOracle(DIRAC_15).sample_streams(seed, 2000)
        assert [tuple(row) for row in rows.tolist()] == [m for m, _ in sequential]
        (words,) = drawn.values()
        assert [words[t] for t in range(2000)] == [used for _, used in sequential]
        assert sum(words.values()) == sum(used for _, used in sequential)
        assert redraws == []

    def test_block_seams(self, monkeypatch):
        monkeypatch.setattr(counting, "STATE_BLOCK", 3)
        drawn = count_words(monkeypatch)
        rows = PMOracle(DIRAC_15).sample_streams(2**40 + 3, 10)
        assert [tuple(row) for row in rows.tolist()] == [
            PMOracle(DIRAC_15).sample(rng_from(2**40 + 3, t)) for t in range(10)
        ]
        assert len(drawn) == 4

    def test_single_matching_takes_no_word(self, monkeypatch):
        assert all(draw_and_words(PMOracle(SINGLE_PM), 5, t) == ((0, 1), 0) for t in range(5))
        redraws = count_redraws(monkeypatch)
        drawn = count_words(monkeypatch)
        assert PMOracle(SINGLE_PM).sample_streams(5, 5).tolist() == [[0, 1]] * 5
        # every count is 1, so no round draws a word
        assert redraws == [] and drawn == {}

    @pytest.mark.parametrize("trials", [-1, 0, 2.5, "3", True, 2**32 + 1])
    def test_trial_count_outside_the_key_range_refused(self, trials):
        # trial t uses spawn key t, which must fit one 32-bit word
        with pytest.raises(InvalidArgumentError, match=r"trials must be in \[1, 2\^32\]"):
            PMOracle(gen_complete(6, 3)).sample_streams(0, trials)

    def test_numpy_integer_trial_count(self):
        oracle = PMOracle(gen_complete(6, 3))
        assert oracle.sample_streams(0, np.int64(7)).tolist() == oracle.sample_streams(0, 7).tolist()

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAPHS) + ["DIRAC_15"])
    def test_transitions_come_in_edge_id_order_per_parent(self, name):
        # sample_streams orders a round's transitions by a stable sort on
        # the parent alone, which relies on this order
        oracle = PMOracle(DIRAC_15 if name == "DIRAC_15" else REFERENCE_GRAPHS[name])
        pairs = 0
        for _, parent, eid, _ in transitions_by_layer(oracle):
            order = np.argsort(parent, kind="stable")
            parent, eid = parent[order], eid[order]
            same = parent[1:] == parent[:-1]
            assert np.all(eid[1:][same] > eid[:-1][same])
            pairs += int(same.sum())
        assert pairs > 0

    def test_mask_missing_from_its_layer_raises_typed_error(self):
        oracle = PMOracle(gen_complete(6, 3))
        oracle.count_pm()
        # the last state of layer 1 moves above every mask: the round-0 count
        # lookups still find its count, but no round-1 mask equals it
        states = oracle._layers[1][0]
        states[-1] |= 1 << 6
        with pytest.raises(InvariantError, match="not a state of layer 1"):
            oracle.sample_streams(0, 50)

    def test_broken_layer_count_breaks_the_telescoping(self):
        oracle = PMOracle(gen_complete(6, 3))
        oracle.count_pm()
        oracle._layers[0][1][0] += 1
        with pytest.raises(InvariantError, match="telescope"):
            oracle.sample_streams(0, 4)


def pm_marginals(G):
    return entropy_identities_check(G)[0]


class TestMarginals:
    def test_k6_uniform(self):
        x = pm_marginals(gen_complete(6, 3))
        assert np.allclose(x.weights, 0.1, atol=0)

    def test_single_pm_indicator(self):
        x = pm_marginals(SINGLE_PM)
        assert x.weights.tolist() == [1.0, 1.0]

    def test_broken_telescoping_raises_typed_error(self):
        # one wrong stored through-count (of an edge at vertex 0) breaks the
        # per-vertex telescoping; the check is a typed error, so it also
        # runs under python -O
        G = gen_complete(6, 3)
        oracle = PMOracle(G)
        oracle.count_pm()
        oracle._through_counts[G.incident(0)[0]] += 1
        with pytest.raises(InvariantError, match="vertex 0"):
            oracle.marginals()

    def test_exact_unit_vertex_sums(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=2)
        margs = PMOracle(G).marginals()
        for v in range(G.n):
            assert sum(margs[i] for i in G.incident(v)) == 1
        x = pm_marginals(G)
        assert x.verified
        assert as_verified(G, x, tol=1e-12).verified


class TestEntropyIdentities:
    def test_k6_numbers(self):
        G = gen_complete(6, 3)
        x, report = entropy_identities_check(G)
        assert x.weights.tolist() == [float(q) for q in PMOracle(G).marginals()]
        assert x.verified and report["h_marginals"] == x.entropy
        assert report["k_h_marginals"] == pytest.approx(6 * math.log(10), abs=1e-9)
        assert report["ln_phi"] == pytest.approx(math.log(10), abs=1e-12)
        assert report["marginal_inequality_ok"] and report["solver_dominance_ok"]

    def test_single_pm_equality_case(self):
        _, report = entropy_identities_check(SINGLE_PM)
        assert report["k_h_marginals"] == 0.0
        assert report["ln_phi"] == 0.0
        assert report["marginal_inequality_ok"]


class TestVerifyCountVsEntropy:
    def test_k6_numbers(self):
        report = verify_count_vs_entropy(gen_complete(6, 3), DiracParams(2, 0.3))
        assert report["ln_phi"] == pytest.approx(math.log(10), abs=1e-12)
        assert report["residual"] == pytest.approx(4 - math.log(10), abs=1e-9)
        assert report["residual_per_n"] == pytest.approx(0.28290, abs=1e-4)
        assert report["warnings"] == []

    def test_trend_between_6_and_12(self):
        r6 = verify_count_vs_entropy(gen_complete(6, 3), DiracParams(2, 0.3))
        r12 = verify_count_vs_entropy(gen_complete(12, 3), DiracParams(2, 0.3))
        assert abs(r12["residual_per_n"]) < abs(r6["residual_per_n"])

    def test_non_dirac_warning_path(self):
        report = verify_count_vs_entropy(SINGLE_PM, DiracParams(2, 0.3))
        assert report["warnings"]
        assert report["ln_phi"] == 0.0
