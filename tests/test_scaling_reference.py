"""The CSR scaling path against the list-of-arrays constraint systems it replaced.

``reference_scale_to_unit_sums`` is the scaling core as it was when each
constraint came as its own id array, now with the core's summation rule:
one multiplicity per constraint times the numpy ``.sum()`` of its entries
in each rescale, and end-of-sweep residuals from one ``np.add.reduceat``
over the concatenated rows (a per-row ``.sum()`` can differ from it in the
last bit).  The constraint builders below are the per-vertex
``incident(v)`` lists and the bipartite append loops.  Every caller of the
CSR core must give bit-identical weights, potentials, sweep counts and
convergence flags.  ``reference_lift`` is the bipartite lift as it was
built from subset tuples and subset-to-index dicts; the code-built lift
must give the same subsets, quotient edges, source edges and side degrees.
"""

import itertools
import math

import numpy as np
import pytest

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
from hypermatch.errors import InfeasibleError
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
    """Wrap module.name so that each call's arguments and result are kept."""
    real = getattr(module, name)
    calls = []

    def wrapped(*args):
        args = [np.array(a) if isinstance(a, np.ndarray) else a for a in args]
        result = real(*args)
        calls.append((args, result))
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
        [(args, result)] = calls
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
        for args, result in calls:
            _, x0, tol, max_iter = args
            ref = reference_scale_to_unit_sums(*vertex_constraints(G), x0, tol, max_iter)
            assert_same(result, ref)
        assert final.weights.tobytes() == np.minimum(calls[-1][1].x, 1.0).tobytes()


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
        [(args, result)] = calls
        indptr, ids, scale, y0, tol, max_iter = args
        con_edges, con_scale = bipartite_constraints(lft)
        assert len(indptr) - 1 == len(con_edges)
        for j, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
            assert ids[lo:hi].tolist() == con_edges[j].tolist()
        assert scale.tobytes() == con_scale.tobytes()
        ref = reference_scale_to_unit_sums(con_edges, con_scale, y0, tol, max_iter)
        assert_same(result, ref)
        assert bw.x.tobytes() == ref[0].tobytes()
        assert (bw.iterations, bw.max_residual, bw.converged) == ref[2:5]
