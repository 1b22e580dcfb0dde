"""The CSR scaling path against the list-of-arrays constraint systems it replaced.

``reference_scale_to_unit_sums`` is the scaling core as it was when each
constraint came as its own id array, now with the core's summation rule:
one multiplicity per constraint times the numpy ``.sum()`` of its entries
in each rescale, and end-of-sweep residuals from one ``np.add.reduceat``
over the concatenated rows (a per-row ``.sum()`` can differ from it in the
last bit).  The constraint builders below are the per-vertex
``incident(v)`` lists and the bipartite append loops.  Every caller of the
CSR core must give bit-identical weights, potentials, sweep counts and
convergence flags, including the core's blocked rescale of runs of rows
that share no entry, checked on random two-run systems in every pairwise-sum
regime of row length.  ``reference_lift`` is the bipartite lift as it was
built from subset tuples and subset-to-index dicts; the code-built lift
must give the same subsets, quotient edges, source edges and side degrees.
"""

import itertools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hypermatch
from hypermatch import bipartite, shifting
from hypermatch.counting import PMOracle
from hypermatch.entropy import (
    EdgeWeights,
    as_verified,
    convex_combine,
    max_entropy_fpm,
    scale_vertex_sums,
    well_distributed_factor,
)
from hypermatch.entropy import scale_to_unit_sums
from hypermatch.errors import InfeasibleError, InvariantError
from hypermatch.hypergraph import DiracParams, gen_complete, gen_random_dirac
from hypermatch.seeds import rng_from
from hypermatch.shifting import anneal_and_shift, auto_anneal_params, well_distributed_fpm


def reference_scale_to_unit_sums(con_edges, con_scale, x0, tol, max_iter):
    x = np.array(x0, dtype=float)
    ncon = len(con_edges)
    mu = np.zeros(ncon, dtype=float)
    residual = math.inf
    sweeps = 0
    flat = np.concatenate(con_edges)
    starts = np.cumsum([0] + [len(ids) for ids in con_edges])[:-1]
    for sweeps in range(1, max_iter + 1):
        for j in range(ncon):
            ids = con_edges[j]
            s = con_scale[j] * float(x[ids].sum())
            if s <= 0:
                raise InfeasibleError(f"constraint {j} has no positive incident weight")
            x[ids] /= s
            mu[j] -= math.log(s)
        sums = con_scale * np.add.reduceat(x[flat], starts)
        residual = float(np.abs(sums - 1.0).max()) if ncon else 0.0
        if residual <= tol:
            return x, mu, sweeps, residual, True
        if float(np.abs(mu).max()) > 1e3 * math.log(max(ncon, 3)):
            raise InfeasibleError("diverging potentials")
    return x, mu, sweeps, residual, False


def vertex_constraints(G):
    return [np.array(G.incident(v), dtype=np.intp) for v in range(G.n)], np.ones(G.n)


def bipartite_constraints(lft):
    a_cons = [[] for _ in lft.a_subsets]
    b_cons = [[] for _ in lft.b_subsets]
    for idx, (ai, bi) in enumerate(lft.quotient_edges):
        a_cons[ai].append(idx)
        b_cons[bi].append(idx)
    con_edges = [np.array(ids, dtype=np.intp) for ids in a_cons + b_cons]
    con_scale = np.array([float(lft.mult_b)] * len(a_cons) + [float(lft.mult_a)] * len(b_cons))
    return con_edges, con_scale


def reference_lift(G, d):
    """Subsets, quotient edges, source edges and quotient degrees of each side."""
    a_subsets = tuple(itertools.combinations(range(G.n), d))
    b_subsets = tuple(itertools.combinations(range(G.n), G.k - d))
    a_index = {s: i for i, s in enumerate(a_subsets)}
    b_index = {s: i for i, s in enumerate(b_subsets)}
    quotient, source = [], []
    a_qdeg, b_qdeg = [0] * len(a_subsets), [0] * len(b_subsets)
    for eid, e in enumerate(G.edges):
        for U in itertools.combinations(e, d):
            W = tuple(v for v in e if v not in U)
            ai, bi = a_index[U], b_index[W]
            quotient.append([ai, bi])
            source.append(eid)
            a_qdeg[ai] += 1
            b_qdeg[bi] += 1
    return a_subsets, b_subsets, quotient, source, a_qdeg, b_qdeg


def assert_same(result, ref):
    x, mu, sweeps, residual, converged = ref
    assert result.x.tobytes() == x.tobytes()
    assert result.potentials.tobytes() == mu.tobytes()
    assert (result.iterations, result.max_residual, result.converged) == (sweeps, residual, converged)


def recorder(monkeypatch, module, name):
    """Wrap module.name so that each call's positional arguments, keyword
    arguments and result are kept."""
    real = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        args = [np.array(a) if isinstance(a, np.ndarray) else a for a in args]
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapped)
    return calls


GRAPHS = {
    "K12": lambda: gen_complete(12, 3),
    "K60": lambda: gen_complete(60, 3),
    "dirac15": lambda: gen_random_dirac(15, 3, DiracParams(2, 0.2), 0.9, seed=4),
    "dirac30": lambda: gen_random_dirac(30, 3, DiracParams(2, 0.2), 0.9, seed=5),
}


class TestVertexScaling:
    @pytest.mark.parametrize("start", ["uniform", "random"])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_index_rows_equal_incident_lists(self, name, start):
        G = GRAPHS[name]()
        m = G.num_edges
        if start == "uniform":
            x0 = np.full(m, G.n / (G.k * m))
        else:
            x0 = rng_from(21).random(m) + 0.01
        result = scale_vertex_sums(G, x0, 1e-10, 2000)
        ref = reference_scale_to_unit_sums(*vertex_constraints(G), x0, 1e-10, 2000)
        assert_same(result, ref)
        assert result.converged

    @pytest.mark.parametrize("name", ["K12", "dirac15", "dirac30"])
    def test_solver_equal(self, name):
        G = GRAPHS[name]()
        x, report = max_entropy_fpm(G)
        x0_value = G.n / (G.k * G.num_edges)
        ref = reference_scale_to_unit_sums(
            *vertex_constraints(G), np.full(G.num_edges, x0_value), 1e-8, 20000
        )
        ref_x, ref_mu, sweeps, residual, converged = ref
        assert x.weights.tobytes() == np.minimum(ref_x, 1.0).tobytes()
        lam = ref_mu + (1.0 + math.log(x0_value)) / G.k
        assert report.potentials.tobytes() == lam.tobytes()
        assert (report.iterations, report.max_residual, report.converged) == (
            sweeps, residual, converged,
        )

    def test_wdfpm_projection_equal(self, monkeypatch):
        calls = recorder(monkeypatch, shifting, "scale_vertex_sums")
        G = GRAPHS["dirac15"]()
        x, _ = well_distributed_fpm(G, DiracParams(2, 0.2), seed=7, trials=300)
        [(args, _, result)] = calls
        _, x0, tol, max_iter = args
        ref = reference_scale_to_unit_sums(*vertex_constraints(G), x0, tol, max_iter)
        assert_same(result, ref)
        assert x.weights.tobytes() == np.minimum(ref[0], 1.0).tobytes()

    def test_anneal_renormalisation_equal(self, monkeypatch):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=11)
        x_star, _ = max_entropy_fpm(G)
        pm = np.zeros(G.num_edges)
        pm[list(PMOracle(G).sample(rng_from(11)))] = 1.0
        adv = convex_combine(as_verified(G, EdgeWeights.from_weights(G, pm)), x_star, 0.05)
        x_hat, _ = well_distributed_fpm(G, DiracParams(2, 0.2), seed=12, trials=2000)
        C = max(1.0, well_distributed_factor(G, x_hat))
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, max_steps=30)
        calls = recorder(monkeypatch, shifting, "scale_vertex_sums")
        monkeypatch.setattr(shifting, "RENORMALIZE_EVERY", 1)
        final, log = anneal_and_shift(G, adv, x_hat, params)
        assert len(calls) == len(log.steps) > 0
        for args, _, result in calls:
            _, x0, tol, max_iter = args
            ref = reference_scale_to_unit_sums(*vertex_constraints(G), x0, tol, max_iter)
            assert_same(result, ref)
        assert final.weights.tobytes() == np.minimum(calls[-1][2].x, 1.0).tobytes()


class TestLiftMatchesReference:
    @pytest.mark.parametrize(
        "make,d",
        [
            (lambda: gen_complete(4, 2), 1),
            (lambda: gen_complete(6, 3), 2),
            (lambda: gen_complete(9, 3), 2),
            (lambda: gen_complete(8, 4), 2),
            (lambda: gen_complete(8, 4), 3),
            (lambda: gen_random_dirac(9, 3, DiracParams(2, 0.2), 0.95, seed=44), 2),
            (lambda: gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.9, seed=7), 2),
            (lambda: gen_random_dirac(8, 4, DiracParams(3, 0.1), 0.95, seed=3), 2),
            (lambda: gen_random_dirac(8, 4, DiracParams(3, 0.1), 0.95, seed=3), 3),
            (lambda: gen_random_dirac(12, 2, DiracParams(1, 0.2), 0.9, seed=5), 1),
            (lambda: gen_complete(10, 5), 3),
            (lambda: gen_complete(10, 5), 4),
        ],
    )
    def test_subsets_quotient_edges_sources_and_side_degrees(self, make, d):
        G = make()
        lft = bipartite.lift(G, d)
        a_subsets, b_subsets, quotient, source, a_qdeg, b_qdeg = reference_lift(G, d)

        def code(s):
            return sum(v * G.n ** (len(s) - 1 - i) for i, v in enumerate(s))

        assert lft.a_subsets.tolist() == [code(s) for s in a_subsets]
        assert lft.b_subsets.tolist() == [code(s) for s in b_subsets]
        assert lft.quotient_edges.tolist() == quotient
        assert lft.source_edge.tolist() == source
        min_a, min_b = min(a_qdeg) * lft.mult_b, min(b_qdeg) * lft.mult_a
        assert lft.min_degree == min(min_a, min_b)
        assert lft.min_degree_attained == ("both" if min_a == min_b else "A" if min_a < min_b else "B")


class TestBipartiteScaling:
    @pytest.mark.parametrize(
        "make,d",
        [
            (lambda: gen_complete(6, 3), 2),
            (lambda: gen_random_dirac(9, 3, DiracParams(2, 0.2), 0.95, seed=44), 2),
            (lambda: gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.95, seed=7), 2),
            (lambda: gen_complete(8, 4), 2),
            (lambda: gen_complete(8, 4), 3),
        ],
    )
    def test_argsort_csr_equals_append_loops(self, monkeypatch, make, d):
        calls = recorder(monkeypatch, bipartite, "scale_to_unit_sums")
        lft = bipartite.lift(make(), d)
        bw, _ = bipartite.bipartite_max_entropy(lft)
        [(args, kwargs, result)] = calls
        indptr, ids, scale, y0, tol, max_iter = args
        n_a, n_b = lft.a_subsets.size, lft.b_subsets.size
        assert kwargs == {"runs": [0, n_a, n_a + n_b]}
        con_edges, con_scale = bipartite_constraints(lft)
        assert len(indptr) - 1 == len(con_edges)
        for j, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
            assert ids[lo:hi].tolist() == con_edges[j].tolist()
        assert scale.tobytes() == con_scale.tobytes()
        ref = reference_scale_to_unit_sums(con_edges, con_scale, y0, tol, max_iter)
        assert_same(result, ref)
        assert bw.x.tobytes() == ref[0].tobytes()
        assert (bw.iterations, bw.max_residual, bw.converged) == ref[2:5]


def lengths_summing_to(rng, lo, hi, total):
    """Row lengths drawn from [lo, hi] until they add up to total (the last may be shorter)."""
    lengths = []
    while total > 0:
        lengths.append(min(int(rng.integers(lo, hi + 1)), total))
        total -= lengths[-1]
    return lengths


def two_run_system(seed, lo, hi, total):
    """Rows of two runs, each a random partition of the entries range(total)
    into rows of uneven lengths from [lo, hi], with random multiplicities."""
    rng = rng_from(seed)
    con_edges = []
    for _ in range(2):
        cuts = np.cumsum(lengths_summing_to(rng, lo, hi, total))[:-1]
        con_edges += np.split(rng.permutation(total).astype(np.intp), cuts)
    n_a = len(con_edges) - len(cuts) - 1
    return con_edges, rng.uniform(0.5, 2.0, len(con_edges)), n_a, rng.random(total) + 0.01


def csr(con_edges):
    indptr = np.cumsum([0] + [len(ids) for ids in con_edges])
    return indptr, np.concatenate(con_edges).astype(np.intp)


# Row lengths below 8, from 8 to 128 and above 128 take numpy's three
# pairwise-sum regimes; a 2-D row sum must match each row's own .sum() in all.
REGIMES = {"short": (1, 7, 300), "medium": (8, 128, 2000), "long": (129, 700, 4000), "mixed": (1, 300, 3000)}


class TestDisjointRuns:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_two_runs_equal_row_by_row(self, regime, seed):
        con_edges, con_scale, n_a, x0 = two_run_system(seed, *REGIMES[regime])
        indptr, ids = csr(con_edges)
        runs = [0, n_a, len(con_edges)]
        result = scale_to_unit_sums(indptr, ids, con_scale, x0, 1e-13, 25, runs=runs)
        assert_same(result, reference_scale_to_unit_sums(con_edges, con_scale, x0, 1e-13, 25))

    def test_one_row_runs_between_longer_runs(self):
        con_edges, con_scale, n_a, x0 = two_run_system(3, *REGIMES["mixed"])
        indptr, ids = csr(con_edges)
        runs = [0, 1, 2, n_a, n_a + 1, len(con_edges)]
        result = scale_to_unit_sums(indptr, ids, con_scale, x0, 1e-13, 25, runs=runs)
        assert_same(result, reference_scale_to_unit_sums(con_edges, con_scale, x0, 1e-13, 25))

    @pytest.mark.parametrize(
        "empty,unweighted",
        [([0], []), ([5], []), ([-1], []), ([-1, 4], []), ([], [9, 6]), ([12], [3]), ([], [-2, -9])],
    )
    def test_row_without_weight_named_as_row_by_row(self, empty, unweighted):
        # an empty row, or a row of multiplicity 0, inside a run: the first
        # such row in sweep order is named, whichever length group it is in
        con_edges, con_scale, n_a, x0 = two_run_system(4, *REGIMES["short"])
        for j in empty:
            at = j % len(con_edges)
            con_edges.insert(at, np.zeros(0, dtype=np.intp))
            con_scale = np.insert(con_scale, at, 1.0)
            n_a += at < n_a
        con_scale[unweighted] = 0.0
        indptr, ids = csr(con_edges)
        with pytest.raises(InfeasibleError) as ref:
            reference_scale_to_unit_sums(con_edges, con_scale, x0, 1e-13, 25)
        with pytest.raises(InfeasibleError) as got:
            scale_to_unit_sums(indptr, ids, con_scale, x0, 1e-13, 25, runs=[0, n_a, len(con_edges)])
        assert str(got.value) == str(ref.value)

    def test_run_of_rows_sharing_an_entry_is_refused(self):
        indptr, ids = csr([np.array([0, 1]), np.array([2]), np.array([3, 1])])
        with pytest.raises(InvariantError, match="share an entry"):
            scale_to_unit_sums(indptr, ids, np.ones(3), np.ones(4), 1e-10, 10, runs=[0, 3])
        # the same rows as one-row runs are the vertex solver's case, and pass
        scale_to_unit_sums(indptr, ids, np.ones(3), np.ones(4), 1e-10, 10, runs=[0, 1, 2, 3])

    def test_shared_entry_is_refused_under_python_O(self):
        child = """
import numpy as np
from hypermatch.entropy import scale_to_unit_sums
from hypermatch.errors import InvariantError
try:
    scale_to_unit_sums(np.array([0, 2, 3]), np.array([0, 1, 1]), np.ones(2), np.ones(2), 1e-10, 10, runs=[0, 2])
except InvariantError as err:
    print("InvariantError", err)
"""
        src = str(pathlib.Path(hypermatch.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-O", "-c", f"import sys; sys.path.insert(0, {src!r})\n" + child],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("InvariantError constraints 0 to 1")
