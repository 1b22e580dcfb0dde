"""The code-keyed graph index against the per-edge Python structures it replaced.

``ReferenceGraph`` is the constructor as it was when a hypergraph kept its
edges as sorted tuples, a dict from each edge to its id and per-vertex
incidence tuples; the ``reference_*`` functions are the canonical text,
degree, minimum d-degree, shifting search and partner loop that read those
structures.  Every graph must give the same edges, index, digest, degrees,
subset-code runs, shifting structures and partner lists.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermatch.errors import InvalidArgumentError
from hypermatch.hypergraph import (
    DiracParams,
    Hypergraph,
    encode,
    gen_complete,
    gen_random_dirac,
    min_d_degree,
)
from hypermatch.seeds import rng_from
from hypermatch.shifting import find_shifting_structure, partner_edges


class ReferenceGraph:
    def __init__(self, k, n, edges):
        canon = []
        seen = {}
        for raw in edges:
            e = tuple(sorted(int(v) for v in raw))
            if len(e) != k or len(set(e)) != k:
                raise InvalidArgumentError(f"edge {tuple(raw)} is not a set of {k} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise InvalidArgumentError(f"edge {e} has a vertex outside [0, {n})")
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen[e] = len(canon)
            canon.append(e)
        inc = [[] for _ in range(n)]
        for i, e in enumerate(canon):
            for v in e:
                inc[v].append(i)
        self.k, self.n = k, n
        self.edges = tuple(canon)
        self.incidence = tuple(tuple(ids) for ids in inc)
        self.edge_ids = seen

    def edge_id(self, vertices):
        return self.edge_ids.get(tuple(sorted(int(v) for v in vertices)))

    def canonical_text(self):
        lines = [f"{self.k} {self.n}"]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"


def reference_degree(R, S):
    vs = sorted(set(S))
    if not vs:
        return len(R.edges)
    ids = set(R.incidence[vs[0]])
    for v in vs[1:]:
        ids.intersection_update(R.incidence[v])
    return len(ids)


def reference_min_d_degree(R, d):
    if d == 0:
        return len(R.edges)
    best = len(R.edges)
    for S in itertools.combinations(range(R.n), d):
        best = min(best, reference_degree(R, S))
    return best


def reference_find_shifting_structure(R, e_id, f_id, e_edge_ok=None, f_edge_ok=None):
    """(U_sets, e_ids, f_ids) of the first lexicographic candidates, or None."""
    e = set(R.edges[e_id])
    f = set(R.edges[f_id])
    shared = e & f
    if len(shared) != 1:
        raise InvalidArgumentError(f"edges must intersect in exactly one vertex, got {len(shared)}")
    v1 = next(iter(shared))
    v_rest = tuple(sorted(e - {v1}))
    u_rest = tuple(sorted(f - {v1}))
    outside = [v for v in range(R.n) if v not in e and v not in f]
    used = set()
    U_sets, e_ids, f_ids = [], [e_id], [f_id]
    for i in range(R.k - 1):
        vi, ui = v_rest[i], u_rest[i]
        found = None
        for U in itertools.combinations([v for v in outside if v not in used], R.k - 1):
            eid = R.edge_id(U + (ui,))
            if eid is None or (e_edge_ok is not None and not e_edge_ok(eid)):
                continue
            fid = R.edge_id(U + (vi,))
            if fid is None or (f_edge_ok is not None and not f_edge_ok(fid)):
                continue
            found = (U, eid, fid)
            break
        if found is None:
            return None
        U, eid, fid = found
        used.update(U)
        U_sets.append(U)
        e_ids.append(eid)
        f_ids.append(fid)
    return tuple(U_sets), tuple(e_ids), tuple(f_ids)


def reference_partners(R, e_id):
    """Edges meeting e in exactly one vertex, by shared vertex and then id."""
    e = set(R.edges[e_id])
    return [
        fid for v in sorted(e) for fid in R.incidence[v]
        if fid != e_id and len(e & set(R.edges[fid])) == 1
    ]


@st.composite
def shuffled_graph_inputs(draw):
    """(k, n, edges): a random edge subset in random order, each tuple permuted."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 14))
    density = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    all_sets = list(itertools.combinations(range(n), k))
    keep = [e for e, u in zip(all_sets, rng.random(len(all_sets))) if u < density]
    order = rng.permutation(len(keep))
    return k, n, [tuple(int(v) for v in rng.permutation(keep[i])) for i in order]


class TestIndexMatchesReference:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shuffled_graph_inputs())
    def test_edges_index_digest_degrees_and_ids(self, inputs):
        k, n, edges = inputs
        G, R = Hypergraph(k, n, edges), ReferenceGraph(k, n, edges)
        assert G.edges == R.edges
        assert G.canonical_text() == R.canonical_text()
        assert G.digest() == hashlib.sha256(R.canonical_text().encode()).hexdigest()
        index = G
        assert index.edge_verts.tolist() == [list(e) for e in R.edges]
        assert index.degrees.tolist() == [len(ids) for ids in R.incidence]
        for v in range(n):
            assert G.incident(v) == R.incidence[v]
            assert tuple(index.incidence[index.indptr[v]: index.indptr[v + 1]]) == R.incidence[v]
        codes, ids = index.subset_codes(k)
        assert codes.tolist() == sorted(codes.tolist())
        assert [R.edges[i] for i in ids] == sorted(R.edges)
        for d in range(k):
            assert min_d_degree(G, d) == reference_min_d_degree(R, d)
            if not d:
                continue
            # the run of a d-set's code is as long as the set's degree
            runs = dict(zip(*np.unique(index.subset_codes(d)[0], return_counts=True)))
            for S in itertools.combinations(range(n), d):
                assert runs.get(int(encode(np.array([S]), n)[0]), 0) == reference_degree(R, S)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shuffled_graph_inputs())
    def test_links_match_brute_force(self, inputs):
        k, n, edges = inputs
        G = Hypergraph(k, n, edges)
        want_codes, want_ids = [], []
        for v in range(n):
            link = sorted(
                (int(encode(np.array([[u for u in e if u != v]]), n)[0]), i)
                for i, e in enumerate(G.edges) if v in e
            )
            want_codes.extend(c for c, _ in link)
            want_ids.extend(i for _, i in link)
        codes, ids = G.links()
        assert codes.tolist() == want_codes
        assert ids.tolist() == want_ids


def mixed_width_edges(k, n, seed, count=300):
    """Distinct random k-sets of [n] in random order, each tuple permuted; each
    vertex is drawn among those of a uniformly drawn digit width."""
    rng = rng_from(seed)
    width = rng.integers(0, len(str(n - 1)), size=(count, k))
    lo = np.where(width == 0, 0, 10**width)
    hi = np.minimum(10 ** (width + 1), n)
    rows = (lo + rng.random((count, k)) * (hi - lo)).astype(np.int64).tolist()
    distinct = {}
    for row in rows:
        if len(set(row)) == k:
            distinct.setdefault(tuple(sorted(row)), tuple(row))
    return list(distinct.values())


class TestDigitWidths:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [10, 11, 100, 101, 1000, 1001])
    def test_text_and_digest_match_reference(self, n, k):
        edges = mixed_width_edges(k, n, seed=n * 10 + k)
        G, R = Hypergraph(k, n, edges), ReferenceGraph(k, n, edges)
        assert G.edges == R.edges
        assert G.canonical_text() == R.canonical_text()
        assert G.digest() == hashlib.sha256(R.canonical_text().encode()).hexdigest()
        if n > 100 and k > 2:  # some line holds tokens of three widths
            assert any(len({len(str(v)) for v in e}) >= 3 for e in G.edges)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_ascending_rows_with_a_repeat_are_refused(self, as_array):
        for edges in ([(0, 1, 2), (0, 1, 2)], [(0, 5, 1000), (1, 2, 3), (0, 5, 1000)]):
            rows = np.array(edges) if as_array else edges
            with pytest.raises(InvalidArgumentError, match=rf"duplicate edge \({edges[0][0]}, "):
                Hypergraph(3, 1001, rows)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_unsorted_rows_come_out_sorted(self, as_array):
        edges = [(1000, 0, 5), (3, 2, 1), (7, 999, 20)]
        G = Hypergraph(3, 1001, np.array(edges) if as_array else edges)
        assert G.edge_verts.tolist() == [[0, 5, 1000], [1, 2, 3], [7, 20, 999]]
        assert G.canonical_text() == "3 1001\n0 5 1000\n1 2 3\n7 20 999\n"


def shuffled(G, seed):
    """G with its edges in random order, each tuple reversed."""
    order = rng_from(seed).permutation(G.num_edges)
    return Hypergraph(G.k, G.n, [G.edges[i][::-1] for i in order])


DIRAC_GRAPHS = {
    "n9": lambda: gen_random_dirac(9, 3, DiracParams(2, 0.2), 0.95, seed=3),
    "n9-shuffled": lambda: shuffled(gen_random_dirac(9, 3, DiracParams(2, 0.2), 0.95, seed=3), 6),
    "n12": lambda: gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.9, seed=4),
    "n12k2": lambda: gen_random_dirac(12, 2, DiracParams(1, 0.2), 0.9, seed=5),
}


def outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except InvalidArgumentError as err:
        return str(err)


class TestShiftingMatchesReference:
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("name", sorted(DIRAC_GRAPHS))
    def test_all_intersecting_pairs(self, name, filtered):
        G = DIRAC_GRAPHS[name]()
        R = ReferenceGraph(G.k, G.n, G.edges)
        filters = masks = {}
        if filtered:
            w = rng_from(31).random(G.num_edges)
            filters = {"e_edge_ok": lambda eid: w[eid] >= 0.3, "f_edge_ok": lambda fid: w[fid] <= 0.7}
            masks = {"e_ok": w >= 0.3, "f_ok": w <= 0.7}
        found = 0
        for e_id, e in enumerate(R.edges):
            partners = sorted({f_id for v in e for f_id in R.incidence[v]} - {e_id})
            for f_id in partners:
                ref = outcome(reference_find_shifting_structure, R, e_id, f_id, **filters)
                got = outcome(find_shifting_structure, G, e_id, f_id, **masks)
                if isinstance(got, str) or got is None:
                    assert got == ref
                    continue
                assert (got.U_sets, got.e_ids, got.f_ids) == ref
                found += 1
        assert found > 0


class TestPartnersMatchReference:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_complete(8, 2),
            lambda: gen_complete(9, 3),
            lambda: gen_complete(8, 4),
            lambda: Hypergraph(3, 7, [(0, 1, 2), (2, 3, 4), (0, 5, 6), (1, 2, 5)]),
            *DIRAC_GRAPHS.values(),
        ],
    )
    def test_every_edge(self, make):
        G = make()
        R = ReferenceGraph(G.k, G.n, G.edges)
        for e_id in range(G.num_edges):
            got = partner_edges(G, e_id)
            assert got.dtype == np.intp and got.tolist() == reference_partners(R, e_id)


class TestPinnedDigests:
    """Hex digests recorded from the tuple-based constructor."""

    def test_complete_and_random(self):
        assert gen_complete(120, 3).digest() == (
            "e982296d21b3fa942914a54352a7e65b87a28f9fdf0149fc6b2ef9339c6a92cd"
        )
        assert gen_complete(12, 4).digest() == (
            "ac8eee94558edb81e2c25cdafb8d85e5aae76b84c4eaa45d9b6699f8b7371fbf"
        )
        G = gen_random_dirac(60, 3, DiracParams(2, 0.2), 0.9, seed=1)
        assert (G.num_edges, G.digest()) == (
            30830, "6f84ee2943cfeefffabb3f5b5fc6b5a4b25771e7c2557cae24747c72bfc70708"
        )
