import collections
import itertools
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermatch import hypergraph
from hypermatch.entropy import read_weights
from hypermatch.errors import (
    ConfigError,
    GenerationError,
    InvalidArgumentError,
    ParseError,
    ResourceLimitError,
)
from hypermatch.hypergraph import (
    AlphaTable,
    DiracParams,
    Hypergraph,
    degree_ratio_profile,
    encode,
    gen_complete,
    gen_random_dirac,
    is_dirac,
    min_d_degree,
    read_hypergraph,
    write_hypergraph,
)


@st.composite
def random_hypergraphs(draw):
    k = draw(st.integers(2, 3))
    n = draw(st.integers(k, 9))
    all_edges = list(itertools.combinations(range(n), k))
    chosen = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=len(all_edges)))
    return Hypergraph(k, n, chosen)


def same_graph(a, b):
    """Whether two graphs have the same k, n and edge rows in id order."""
    return (a.k, a.n) == (b.k, b.n) and np.array_equal(a.edge_verts, b.edge_verts)


def brute_degree(G, S):
    S = set(S)
    return sum(1 for e in G.edges if S <= set(e))


class TestHypergraph:
    def test_construction_canonicalises(self):
        G = Hypergraph(3, 6, [(2, 1, 0), (5, 3, 4)])
        assert G.edges == ((0, 1, 2), (3, 4, 5))
        assert G.incident(1) == (0,)

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 6, [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 6, [(0, 1, 1)])
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 6, [(0, 1, 6)])
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 6, [(0, 1, 2), (2, 1, 0)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1)], "edge (0, 1) is not a set of 3 distinct vertices"),
            ([(2, 1, 1)], "edge (2, 1, 1) is not a set of 3 distinct vertices"),
            ([(0, 1, 2), (0, 1, 2, 3)], "edge (0, 1, 2, 3) is not a set of 3 distinct vertices"),
            ([(0, 6, 1)], "edge (0, 1, 6) has a vertex outside [0, 6)"),
            ([(0, 1, -1)], "edge (-1, 0, 1) has a vertex outside [0, 6)"),
            ([(0, 1, 2**70)], f"edge (0, 1, {2**70}) has a vertex outside [0, 6)"),
            ([(0, 1, 2), (2, 1, 0)], "duplicate edge (0, 1, 2)"),
            # two bad edges: the earlier one is reported
            ([(0, 1, 2), (0, 1, 9), (2, 1, 0)], "edge (0, 1, 9) has a vertex outside [0, 6)"),
            ([(0, 1, 2), (2, 1, 0), (0, 1, 9)], "duplicate edge (0, 1, 2)"),
            ([(3, 4, 5), (5, 4), (4, 3, 5)], "edge (5, 4) is not a set of 3 distinct vertices"),
            ([(3, 4, 5), (0, 1, 2), (5, 3, 4), (1, 2, 0)], "duplicate edge (3, 4, 5)"),
            # vertices are integers, never truncated floats or parsed strings
            ([(0, 1, 2.7), (3, 4, 5)], "edge (0, 1, 2.7) is not a set of 3 integer vertices"),
            (np.array([[0, 1, 2.9]]), "edge (0.0, 1.0, 2.9) is not a set of 3 integer vertices"),
            (np.array([[0, 1, 2]], dtype=float), "edge (0.0, 1.0, 2.0) is not a set of 3 integer vertices"),
            ([("0", "1", "2")], "edge ('0', '1', '2') is not a set of 3 integer vertices"),
            ([(0, 1, 2), (0, 1, "x")], "edge (0, 1, 'x') is not a set of 3 integer vertices"),
            ([(0, 1, None)], "edge (0, 1, None) is not a set of 3 integer vertices"),
            ([(0, 1, float("nan"))], "edge (0, 1, nan) is not a set of 3 integer vertices"),
            ([(0, 1, 2), 5], "edge 5 is not a set of 3 integer vertices"),
            # a bool is not a vertex, in a list or in an array
            ([(False, 1, 2)], "edge (False, 1, 2) is not a set of 3 integer vertices"),
            ([(0, 1, True)], "edge (0, 1, True) is not a set of 3 integer vertices"),
            (np.array([[False, True, True]]), "edge (False, True, True) is not a set of 3 integer vertices"),
        ],
    )
    def test_first_bad_edge_reported(self, edges, message):
        with pytest.raises(InvalidArgumentError) as err:
            Hypergraph(3, 6, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize("k, n", [(3.0, 9), (3, 9.5), ("3", 9), (3, None), (np.float64(3), 9)])
    def test_non_integer_k_or_n_refused(self, k, n):
        with pytest.raises(InvalidArgumentError) as err:
            Hypergraph(k, n, [])
        assert str(err.value) == f"uniformity k and vertex count n must be integers, got {k!r}, {n!r}"

    def test_accepts_empty_and_unsorted(self):
        assert Hypergraph(3, 6, []).num_edges == 0
        G = Hypergraph(np.int64(3), np.int64(6), [(np.int64(2), 0, np.int64(1))])
        assert (type(G.k), type(G.n), G.edges) == (int, int, ((0, 1, 2),))
        assert Hypergraph(3, 0, []).indptr.tolist() == [0]
        G = Hypergraph(3, 6, [(5, 0, 3), (4, 2, 1)])
        assert G.edges == ((0, 3, 5), (1, 2, 4))
        assert G.edges.index((0, 3, 5)) == 0 and (1, 2, 3) not in G.edges

    def test_codes_must_fit_int64(self):
        assert Hypergraph(7, 511, []).n == 511  # 511^7 < 2^63
        with pytest.raises(ResourceLimitError):
            Hypergraph(7, 512, [])  # 512^7 = 2^63
        with pytest.raises(ResourceLimitError):
            Hypergraph(3, 2_100_000, [(0, 1, 2)])
        assert Hypergraph(10**9, 1, []).k == 10**9  # 1^k fits

    def test_huge_k_header_refused_promptly(self, tmp_path):
        path = tmp_path / "huge.khg"
        path.write_text("1000000000 10\n")
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            read_hypergraph(str(path))
        assert time.perf_counter() - start < 1.0

    def test_subset_codes_work_limit(self, monkeypatch):
        index = gen_complete(10, 3)
        monkeypatch.setattr(hypergraph, "DEFAULT_DEGREE_WORK_LIMIT", 10)
        with pytest.raises(ResourceLimitError, match="work limit"):
            index.subset_codes(2)
        monkeypatch.undo()
        assert index.subset_codes(2)[0].size == 360

    def test_digest_is_k_n_and_edge_order(self):
        a = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        b = Hypergraph(3, 6, [(2, 1, 0), (5, 4, 3)])
        assert same_graph(a, b) and a.digest() == b.digest()
        for other in (Hypergraph(3, 6, [(3, 4, 5), (0, 1, 2)]), Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5)])):
            assert not same_graph(a, other) and a.digest() != other.digest()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_hypergraphs())
    def test_incidence_rebuild_matches(self, G):
        index = G
        assert index.edge_verts.tolist() == [list(e) for e in G.edges]
        for v in range(G.n):
            expected = [i for i, e in enumerate(G.edges) if v in e]
            assert list(G.incident(v)) == expected
            assert index.incidence[index.indptr[v]: index.indptr[v + 1]].tolist() == expected
            assert index.degrees[v] == len(expected)
        assert index.indptr[-1] == G.k * G.num_edges

    def test_edges_are_the_rows_as_tuples(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.95, seed=3)
        assert G.edges == tuple(tuple(row) for row in G.edge_verts.tolist())
        assert all(type(v) is int for e in G.edges for v in e)
        assert Hypergraph(3, 6, []).edges == ()

    def test_edge_tuples_are_built_without_a_list_per_edge(self):
        # the tuples are zipped from the k column lists; a list per edge first
        # peaks at 1.8 to 2.2 times the kept bytes.  The kept bytes are sized
        # directly: tuples taken from the interpreter's free lists are not
        # seen by tracemalloc, so its count depends on the tests run before.
        G = gen_complete(30, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            edges = G.edges
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sys.getsizeof(edges) + sum(map(sys.getsizeof, edges))
        assert len(edges) == comb(30, 3)
        assert peak <= 1.6 * kept

    def test_digest_stable_under_reconstruction(self):
        G1 = gen_complete(6, 3)
        G2 = Hypergraph(3, 6, G1.edges)
        assert G1.digest() == G2.digest()


def decode(code, size, n):
    """The ascending vertices of a size-set from its base-n code."""
    digits = []
    for _ in range(size):
        code, v = divmod(int(code), n)
        digits.append(v)
    return tuple(digits[::-1])


class TestIndexBuilders:
    @pytest.mark.parametrize(
        "size, count, width",
        [(0, 0, 1), (5, 0, 1), (200, 2000, 1), (300, 2000, 2), (70_000, 2000, 4)],
    )
    def test_group_is_a_stable_grouping(self, size, count, width):
        assert np.min_scalar_type(max(size - 1, 0)).itemsize == width
        # every used key repeats; size 5 leaves every key unused, 300 leaves 13, 70,000 most
        keys = np.random.default_rng(size).integers(0, max(size, 1), count)
        keys[:count // 2] = keys[count // 2:]
        indptr, order = hypergraph.group(keys, size)
        expected = sorted(range(count), key=keys.tolist().__getitem__)  # Python's sort is stable
        assert order.tolist() == expected
        counts = collections.Counter(keys.tolist())
        assert indptr.tolist() == list(itertools.accumulate((counts[j] for j in range(size)), initial=0))

    @pytest.mark.parametrize("k", [3, 4])
    def test_split_codes_split_every_edge(self, k):
        edges = list(itertools.combinations(range(7), k))
        np.random.default_rng(k).shuffle(edges)
        G = Hypergraph(k, 7, edges[: len(edges) // 2])
        for d in range(1, k):
            part, rest = G.split_codes(d)
            assert part.shape == rest.shape == (G.num_edges, comb(k, d))
            for e, edge in enumerate(G.edges):
                for j, cols in enumerate(itertools.combinations(range(k), d)):
                    U, W = decode(part[e, j], d, G.n), decode(rest[e, j], k - d, G.n)
                    assert U == tuple(edge[c] for c in cols)
                    assert not set(U) & set(W) and set(U) | set(W) == set(edge)

    def test_each_subset_code_block_is_encoded_once(self, monkeypatch):
        # the README n = 12 graph through every reader of the codes: each d
        # used is encoded once, C(k, d) column blocks of width d
        from hypermatch.bipartite import entropy_lower_bound, lift, matching_count_bound_report

        params = DiracParams(2, 0.2)
        G = Hypergraph(3, 12, gen_random_dirac(12, 3, params, 0.95, seed=7).edge_verts)  # a cold cache
        widths = collections.Counter()

        def counted(rows, n):
            widths[rows.shape[1]] += 1
            return encode(rows, n)

        monkeypatch.setattr(hypergraph, "encode", counted)
        degree_ratio_profile(G)
        is_dirac(G, params)
        entropy_lower_bound(G, 2)
        matching_count_bound_report(G, params)
        lift(G, 2)
        lift(G, 2)
        G.links()
        assert widths == {1: comb(3, 1), 2: comb(3, 2)}

    def test_cached_indices_are_read_only(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.95, seed=7)
        degree_ratio_profile(G)
        returned = [*G.split_codes(1), *G.split_codes(2), *G.subset_codes(2), *G.links(), G.digest()]
        cached = [a for value in G._cache.values() for a in (value if isinstance(value, tuple) else [value])]
        arrays = [a for a in returned + cached if isinstance(a, np.ndarray)]
        assert len(arrays) == 14 and not any(a.flags.writeable for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 0


class TestDegrees:
    def test_degree_examples(self):
        K6 = gen_complete(6, 3)
        index = K6
        assert index.degrees.tolist() == [10] * 6
        codes, _ = index.subset_codes(2)
        key = encode(np.array([[0, 1]]), 6)
        assert (np.searchsorted(codes, key, "right") - np.searchsorted(codes, key)).tolist() == [4]
        assert min_d_degree(K6, 0) == K6.num_edges == 20

    def test_degree_errors(self):
        K6 = gen_complete(6, 3)
        with pytest.raises(InvalidArgumentError, match=r"d=3 outside \[0, 2\]"):
            min_d_degree(K6, 3)
        with pytest.raises(InvalidArgumentError, match=r"d=-1 outside \[0, 2\]"):
            min_d_degree(K6, -1)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(random_hypergraphs())
    def test_min_d_degree_matches_brute_force(self, G):
        for size in range(G.k):
            sets = itertools.combinations(range(G.n), size)
            assert min_d_degree(G, size) == min(brute_degree(G, S) for S in sets)

    def test_min_d_degree_examples(self):
        K6 = gen_complete(6, 3)
        assert min_d_degree(K6, 1) == 10
        minus = Hypergraph(3, 6, [e for e in K6.edges if e != (0, 1, 2)])
        # independent check: exhaustive over all 2-sets
        assert min(brute_degree(minus, S) for S in itertools.combinations(range(6), 2)) == 3
        assert min_d_degree(minus, 2) == 3
        isolated = Hypergraph(3, 7, [(0, 1, 2)])
        assert min_d_degree(isolated, 1) == 0

    def test_min_d_degree_work_limit(self, monkeypatch):
        G = gen_complete(10, 3)
        monkeypatch.setattr(hypergraph, "DEFAULT_DEGREE_WORK_LIMIT", 359)
        with pytest.raises(ResourceLimitError, match="work limit"):
            min_d_degree(G, 2)
        monkeypatch.setattr(hypergraph, "DEFAULT_DEGREE_WORK_LIMIT", 360)
        assert min_d_degree(G, 2) == 8

    def test_profile_complete_and_empty(self):
        assert degree_ratio_profile(gen_complete(6, 3)) == [Fraction(1)] * 3
        assert degree_ratio_profile(Hypergraph(3, 6, [])) == [Fraction(0)] * 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(random_hypergraphs())
    def test_profile_nonincreasing(self, G):
        profile = degree_ratio_profile(G)
        assert all(profile[i] >= profile[i + 1] for i in range(len(profile) - 1))


class TestAlphaTable:
    def test_builtin_entries(self):
        table = AlphaTable()
        assert table.lookup(2, 3) == Fraction(1, 2)  # d = k-1
        assert table.lookup(1, 3) == Fraction(5, 9)  # settled vertex-degree case
        assert table.lookup(2, 4) == Fraction(1, 2)  # d >= 3k/8
        with pytest.raises(ConfigError):
            table.lookup(1, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            AlphaTable({(1, 3): Fraction(1, 3)})
        with pytest.raises(ConfigError):
            AlphaTable({(1, 3): Fraction(11, 10)})

    def test_rejects_increasing_in_d(self):
        # thresholds can only relax as the degree order grows
        with pytest.raises(ConfigError):
            AlphaTable({(1, 4): Fraction(1, 2), (2, 4): Fraction(3, 5)})
        AlphaTable({(1, 4): Fraction(3, 5), (2, 4): Fraction(1, 2)})

    def test_from_file(self, tmp_path):
        path = tmp_path / "alpha.json"
        path.write_text('{"entries": [{"d": 1, "k": 4, "alpha": "3/5"}]}')
        assert AlphaTable.from_file(str(path)).lookup(1, 4) == Fraction(3, 5)


NOT_UTF8 = b"3 6\n0 1 \xff\n"


@pytest.mark.parametrize(
    "name, body, error",
    [
        ("alpha.json", b'{"entries": [', ConfigError),  # not JSON
        ("alpha.json", b"[]", ConfigError),  # top level is a list
        ("alpha.json", b'{"entries": 5}', ConfigError),
        ("alpha.json", b'{"entries": [{"d": 1, "k": 4}]}', ConfigError),  # no alpha
        ("alpha.json", b'{"entries": [{"d": 1, "k": 4, "alpha": "x/y"}]}', ConfigError),
        ("alpha.json", b'{"entries": [{"d": 1, "k": 4, "alpha": "1/0"}]}', ConfigError),
        ("alpha.json", b'{"entries": [{"d": 1.7, "k": 3, "alpha": "1/2"}]}', ConfigError),
        ("alpha.json", b'{"entries": [{"d": true, "k": 4.9, "alpha": "1/2"}]}', ConfigError),
        ("alpha.json", b'{"entries": [{"d": "1", "k": 4, "alpha": "1/2"}]}', ConfigError),
        ("graph.khg", NOT_UTF8, ParseError),
        ("weights.wts", NOT_UTF8, ParseError),
    ],
)
def test_bad_input_files_raise_typed_errors(tmp_path, name, body, error):
    path = tmp_path / name
    path.write_bytes(body)
    read = {
        "alpha.json": AlphaTable.from_file,
        "graph.khg": read_hypergraph,
        "weights.wts": lambda p: read_weights(p, gen_complete(6, 3)),
    }[name]
    with pytest.raises(error) as err:
        read(str(path))
    assert str(path) in str(err.value)


class TestDirac:
    def test_examples(self):
        K6 = gen_complete(6, 3)
        assert is_dirac(K6, DiracParams(1, 0.1))
        assert not is_dirac(Hypergraph(3, 6, []), DiracParams(1, 0.1))
        assert not is_dirac(gen_complete(7, 3), DiracParams(1, 0.1))  # 3 does not divide 7

    def test_threshold(self):
        params = DiracParams(2, 0.2)
        assert params.threshold(12, 3) == (0.5 + 0.2) * comb(10, 1)
        table = AlphaTable({(1, 3): Fraction(2, 3)})
        assert DiracParams(1, 0.1).threshold(9, 3, table) == (float(Fraction(2, 3)) + 0.1) * comb(8, 2)
        assert DiracParams(2, 0.2).threshold(1, 3) == 0.0  # no 2-set of one vertex

    def test_is_dirac_and_gen_meet_the_threshold(self):
        params = DiracParams(2, 0.2)
        G = gen_random_dirac(12, 3, params, 0.95, seed=1)
        assert min_d_degree(G, 2) >= params.threshold(12, 3)
        assert is_dirac(G, params)
        # a threshold just above the minimum degree is not met
        tight = DiracParams(2, min_d_degree(G, 2) / comb(10, 1) - 0.5 + 1e-9)
        assert not is_dirac(G, tight)
        strict = DiracParams(2, 0.45)
        with pytest.raises(GenerationError, match=rf"needed {strict.threshold(12, 3):.2f}\)"):
            gen_random_dirac(12, 3, strict, 0.6, seed=1, max_attempts=2)

    def test_refusal_order(self):
        # d is checked first, then k | n (generator only), then the alpha
        # lookup, then the density
        with pytest.raises(InvalidArgumentError, match="d=3 outside"):
            gen_random_dirac(13, 3, DiracParams(3, 0.1), 2.0, seed=1)
        with pytest.raises(InvalidArgumentError, match="must divide"):
            gen_random_dirac(13, 4, DiracParams(1, 0.1), 2.0, seed=1)
        with pytest.raises(ConfigError, match="alpha_1"):
            gen_random_dirac(12, 4, DiracParams(1, 0.1), 2.0, seed=1)
        with pytest.raises(ConfigError, match="alpha_1"):
            is_dirac(gen_complete(7, 4), DiracParams(1, 0.1))
        with pytest.raises(InvalidArgumentError, match="d=3 outside"):
            is_dirac(gen_complete(6, 3), DiracParams(3, 0.1))

    def test_dirac_implies_half_degree(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), density=0.95, seed=1)
        assert min_d_degree(G, 2) >= 0.5 * comb(10, 1)

    def test_params_validation(self):
        with pytest.raises(InvalidArgumentError):
            DiracParams(0, 0.1)
        with pytest.raises(InvalidArgumentError):
            DiracParams(1, 0.0)
        with pytest.raises(InvalidArgumentError):
            DiracParams(3, 0.1).validate_for(3)


class TestGenerators:
    def test_complete_sizes(self):
        assert gen_complete(4, 2).num_edges == 6
        assert gen_complete(6, 3).num_edges == 20
        assert gen_complete(3, 3).num_edges == 1

    def test_complete_refused_past_work_limit(self):
        # C(100000, 3) = 1.7e14 rows: refused before any is listed
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="work limit"):
            gen_complete(100_000, 3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n,size,rows", [(5, 0, 1), (0, 0, 1), (3, 5, 0), (5, -1, None)])
    def test_all_subsets_edge_sizes(self, n, size, rows):
        # the empty set is the one 0-subset; no size-subset exists past n
        if rows is None:
            with pytest.raises(InvalidArgumentError, match="subset size"):
                hypergraph.all_subsets(n, size)
        else:
            assert hypergraph.all_subsets(n, size).shape == (rows, size)

    def test_density_one_gives_complete(self):
        G = gen_random_dirac(12, 3, DiracParams(1, 0.05), density=1.0, seed=1)
        assert same_graph(G, gen_complete(12, 3))

    def test_deterministic_given_seed(self):
        a = gen_random_dirac(12, 3, DiracParams(1, 0.05), density=0.9, seed=7)
        b = gen_random_dirac(12, 3, DiracParams(1, 0.05), density=0.9, seed=7)
        assert same_graph(a, b) and a.digest() == b.digest()
        c = gen_random_dirac(12, 3, DiracParams(1, 0.05), density=0.9, seed=8)
        assert not same_graph(c, a)

    def test_generation_failure_reports_degree(self):
        # density 0.55 cannot reach delta_2 >= 0.9 C(10,1)
        with pytest.raises(GenerationError) as err:
            gen_random_dirac(12, 3, DiracParams(2, 0.4), density=0.55, seed=5, max_attempts=10)
        assert "delta_2" in str(err.value)

    def test_density_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            gen_random_dirac(12, 3, DiracParams(2, 0.4), density=0.0, seed=5)
        with pytest.raises(InvalidArgumentError):
            gen_random_dirac(12, 3, DiracParams(2, 0.4), density=1.2, seed=5)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        G = gen_complete(4, 2)
        path = str(tmp_path / "g.khg")
        write_hypergraph(G, path, header_comments=["test artifact"])
        assert same_graph(read_hypergraph(path), G)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.khg"
        path.write_text("# header\n\n2 4\n0 1  # inline\n\n2 3\n")
        G = read_hypergraph(str(path))
        assert G.edges == ((0, 1), (2, 3))

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("2 4\n0 1\n0 1\n", 3),       # duplicate edge
            ("3 6\n0 1\n", 2),            # edge of size k-1
            ("2 4\n1 0\n", 2),            # not ascending
            ("2 4\n0 9\n", 2),            # vertex out of range
            ("2\n", 1),                   # bad header
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, body, lineno):
        path = tmp_path / "bad.khg"
        path.write_text(body)
        with pytest.raises(ParseError) as err:
            read_hypergraph(str(path))
        assert err.value.line == lineno

    @pytest.mark.parametrize(
        "body, lineno, message",
        [
            ("2 4\n0 9\n1 0\n", 2, "edge (0, 9) has a vertex outside [0, 4)"),
            ("2 4\n0 1\n1 0\n0 1\n", 3, "edge vertices must be strictly ascending"),
            ("3 6\n0 1 2\n0 1\n3 x 5\n", 3, "edge (0, 1) is not a set of 3 distinct vertices"),
        ],
    )
    def test_first_bad_line_reported(self, tmp_path, body, lineno, message):
        # the edge rule and the format's own rules together name the earliest bad line
        path = tmp_path / "bad.khg"
        path.write_text(body)
        with pytest.raises(ParseError) as err:
            read_hypergraph(str(path))
        assert (err.value.line, str(err.value)) == (lineno, f"{path}:{lineno}: {message}")
