import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypermatch.entropy import (
    EdgeWeights,
    as_verified,
    convex_combine,
    dual_value,
    jensen_bounds,
    max_entropy_fpm,
    read_weights,
    scale_to_unit_sums,
    vertex_sums,
    weight_entropy,
    well_distributed_factor,
    write_weights,
)
from hypermatch.bipartite import entropy_lower_bound
from hypermatch.errors import InfeasibleError, InvalidArgumentError
from hypermatch.hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac
from hypermatch.counting import PMOracle, entropy_identities_check
from hypermatch.seeds import rng_from


def uniform_fpm(G):
    deg = len(G.incident(0))
    return as_verified(G, EdgeWeights.from_weights(G, np.full(G.num_edges, 1.0 / deg)))


def pm_indicator(G, pm):
    w = np.zeros(G.num_edges)
    w[list(pm)] = 1.0
    return as_verified(G, EdgeWeights.from_weights(G, w))


class TestEntropyOf:
    def test_uniform_k4_pairs(self):
        x = uniform_fpm(gen_complete(4, 2))
        assert x.entropy == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_indicator_is_zero(self):
        G = gen_complete(4, 2)
        x = pm_indicator(G, PMOracle(G).sample(rng_from(0)))
        assert x.entropy == 0.0

    def test_uniform_k6_triples(self):
        x = uniform_fpm(gen_complete(6, 3))
        assert x.entropy == pytest.approx(2 * math.log(10), abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            weight_entropy(np.array([0.5, -0.1]))
        with pytest.raises(InvalidArgumentError):
            EdgeWeights.from_weights(gen_complete(4, 2), [-0.1] + [0.0] * 5)

    def test_cached_entropy_matches_recomputation(self):
        G = gen_complete(6, 3)
        rng = rng_from(9)
        w = rng.random(20) * 0.05
        x = EdgeWeights.from_weights(G, w)
        assert abs(x.entropy - weight_entropy(x.weights)) <= 1e-12


class TestConstructionPaths:
    def test_every_path_freezes_and_checks(self, tmp_path):
        G = gen_complete(6, 3)
        x = uniform_fpm(G)
        pm = pm_indicator(G, (0, 19))
        path, raw_path = str(tmp_path / "w.wts"), str(tmp_path / "raw.wts")
        write_weights(path, x)
        write_weights(raw_path, EdgeWeights.from_weights(G, x.weights))
        built = [x, pm, convex_combine(x, pm, 0.5), read_weights(raw_path, G),
                 read_weights(path, G), entropy_identities_check(G)[0]]
        for y in built:
            assert not y.weights.flags.writeable
            assert y.entropy == weight_entropy(y.weights)
        assert [y.status for y in built] == ["verified-fpm"] * 2 + ["raw"] * 2 + ["verified-fpm"] * 2

    def test_file_with_non_finite_weight_rejected(self, tmp_path):
        G = gen_complete(4, 2)
        path = tmp_path / "w.wts"
        path.write_text(f"# graph {G.digest()}\n0.5\nnan\n" + "0.5\n" * 4)
        with pytest.raises(InvalidArgumentError, match="finite"):
            read_weights(str(path), G)


class TestFeasibility:
    def test_uniform_is_fpm(self):
        G = gen_complete(4, 2)
        assert uniform_fpm(G).verified

    def test_zero_weights_fail_everywhere(self):
        G = gen_complete(4, 2)
        with pytest.raises(InvalidArgumentError, match=r"vertex 0 residual 1\.000e\+00 > 1\.0e-08"):
            as_verified(G, EdgeWeights.from_weights(G, np.zeros(6)))

    def test_nan_vertex_sum_is_refused(self):
        G = gen_complete(4, 2)
        w = np.full(6, 1.0 / 3)
        w[5] = np.nan  # edge (2, 3); the constructors refuse it, the check must too
        with pytest.raises(InvalidArgumentError, match="vertex 2 residual nan"):
            as_verified(G, EdgeWeights(w, G.digest(), 0.0))

    def test_indicator_is_fpm(self):
        G = gen_complete(6, 3)
        assert pm_indicator(G, PMOracle(G).sample(rng_from(1))).verified

    def test_length_mismatch(self):
        G = gen_complete(4, 2)
        with pytest.raises(InvalidArgumentError):
            EdgeWeights.from_weights(G, np.zeros(5))


class TestWellDistributed:
    def test_uniform_k6(self):
        G = gen_complete(6, 3)
        assert well_distributed_factor(G, uniform_fpm(G)) == pytest.approx(3.6)

    def test_indicator_is_infinite(self):
        G = gen_complete(6, 3)
        assert well_distributed_factor(G, pm_indicator(G, (0, 19))) == math.inf

    def test_exact_scale_gives_one(self):
        G = gen_complete(6, 3)
        x = EdgeWeights.from_weights(G, np.full(20, 1.0 / 36.0))
        assert well_distributed_factor(G, x) == pytest.approx(1.0)


class TestJensenBounds:
    def test_k6_values(self):
        G = gen_complete(6, 3)
        upper, lower = jensen_bounds(G, 0.1)
        assert upper == pytest.approx(4 * math.log(6))
        assert lower == pytest.approx(2 * math.log(10))

    def test_l_equal_one_formula(self):
        G = gen_complete(6, 3)
        _, lower = jensen_bounds(G, 1.0)
        assert lower == pytest.approx(2 * math.log(6 / (3 * 20)))

    def test_uniform_sits_inside(self):
        for n, k in [(6, 3), (8, 2), (8, 4)]:
            G = gen_complete(n, k)
            x = uniform_fpm(G)
            upper, lower = jensen_bounds(G, float(x.weights.max()))
            assert lower - 1e-9 <= x.entropy <= upper + 1e-9


class TestSolver:
    def test_k6_symmetric_optimum(self):
        G = gen_complete(6, 3)
        x, report = max_entropy_fpm(G)
        assert report.converged and report.max_residual <= 1e-8
        assert x.entropy == pytest.approx(2 * math.log(10), abs=1e-9)
        assert np.allclose(x.weights, 0.1, atol=1e-9)

    def test_entropy_error_quoted_in_the_docstring(self):
        # At tol 1e-8 the entropy lies 5.2e-7 above the optimum, about 50 times the tolerance.
        G = gen_random_dirac(60, 3, DiracParams(2, 0.2), 0.9, seed=1)
        x, _ = max_entropy_fpm(G)
        tight, report = max_entropy_fpm(G, tol=1e-14)
        assert report.converged
        assert x.entropy - tight.entropy == pytest.approx(5.2e-7, abs=0.05e-7)

    def test_disjoint_union_of_k4s(self):
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)]
        G = Hypergraph(2, 8, edges)
        x, report = max_entropy_fpm(G)
        assert report.converged
        assert x.entropy == pytest.approx(4 * math.log(3), abs=1e-9)
        assert np.allclose(x.weights, 1.0 / 3.0, atol=1e-9)

    def test_asymmetric_instance_matches_independent_oracle(self):
        # circulant C8(1,2) plus the chord {0,4}: min degree 4, not edge-transitive.
        # Frozen oracle value from a projected/SQP solve of the same program.
        edges = set()
        for v in range(8):
            for s in (1, 2):
                edges.add(tuple(sorted((v, (v + s) % 8))))
        edges.add((0, 4))
        G = Hypergraph(2, 8, sorted(edges))
        x, report = max_entropy_fpm(G, tol=1e-12)
        assert report.converged
        assert x.entropy == pytest.approx(5.739952514607, abs=1e-6)
        from scipy.optimize import minimize

        m = G.num_edges
        A = np.zeros((8, m))
        for i, e in enumerate(G.edges):
            for v in e:
                A[v, i] = 1.0
        res = minimize(
            lambda w: float(np.sum(np.maximum(w, 1e-300) * np.log(np.maximum(w, 1e-300)))),
            np.full(m, 8 / (2 * m)),
            jac=lambda w: np.log(np.maximum(w, 1e-300)) + 1.0,
            bounds=[(1e-12, 1)] * m,
            constraints=[{"type": "eq", "fun": lambda w: A @ w - 1.0, "jac": lambda w: A}],
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-14},
        )
        assert res.success
        assert x.entropy == pytest.approx(-res.fun, abs=1e-6)

    def test_kkt_exponential_family_form(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), density=0.95, seed=6)
        x, report = max_entropy_fpm(G)
        lam = report.potentials
        reconstructed = np.array(
            [math.exp(sum(lam[v] for v in e) - 1.0) for e in G.edges]
        )
        rel = np.abs(reconstructed - x.weights) / x.weights
        assert float(rel.max()) <= 1e-6

    def test_solver_dominates_handmade_fpms(self):
        G = gen_complete(9, 3)
        x_star, _ = max_entropy_fpm(G)
        oracle = PMOracle(G)
        candidates = [uniform_fpm(G)]
        mix = convex_combine(
            pm_indicator(G, oracle.sample(rng_from(3))),
            pm_indicator(G, oracle.sample(rng_from(4))),
            0.5,
        )
        candidates.append(mix)
        for x in candidates:
            assert x_star.entropy >= x.entropy - 1e-6

    def test_weights_below_one_post_solve(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=8)
        x, _ = max_entropy_fpm(G)
        assert float(x.weights.max()) <= 1.0

    def test_upper_jensen_bound_for_verified_fpms(self):
        for G in (gen_complete(6, 3), gen_complete(8, 2)):
            x, _ = max_entropy_fpm(G)
            assert x.entropy <= (1 - 1 / G.k) * G.n * math.log(G.n)

    def test_isolated_vertex_infeasible(self):
        G = Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(InfeasibleError):
            max_entropy_fpm(G)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_constraint_without_entries_is_named(self, empty):
        # an empty CSR row sums to 0, so the first sweep refuses it by number
        # before the end-of-sweep np.add.reduceat could read past its start
        rows = [[0, 1], [1, 2], [0, 2]]
        rows[empty] = []
        indptr = np.cumsum([0] + [len(r) for r in rows])
        ids = np.array(sum(rows, []), dtype=np.intp)
        with pytest.raises(InfeasibleError, match=f"^constraint {empty} has no positive"):
            scale_to_unit_sums(indptr, ids, np.ones(3), np.ones(3), 1e-10, 10, runs=range(4))

    def test_infeasible_star_diverges(self):
        # a 3-star has no fractional perfect matching; the dual potentials
        # run away and the cap turns that into a diagnosis
        star = Hypergraph(2, 4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InfeasibleError):
            max_entropy_fpm(star)

    def test_boundary_optimum_reports_nonconvergence(self):
        # the path P4 is feasible only with a zero weight on the middle edge;
        # multiplicative scaling approaches it and hands the call back
        P4 = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)])
        x, report = max_entropy_fpm(P4, max_iter=5000)
        assert not report.converged
        assert x.weights[1] < 1e-4

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            max_entropy_fpm(gen_complete(4, 2), tol=-1.0)


DIRAC_SMALL = [
    lambda: gen_random_dirac(9, 3, DiracParams(2, 0.2), 0.95, seed=11),
    lambda: gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.9, seed=3),
    lambda: gen_random_dirac(15, 3, DiracParams(2, 0.2), 0.9, seed=4),
    lambda: gen_random_dirac(12, 4, DiracParams(3, 0.1), 0.95, seed=2),
]


class TestDualCertificate:
    @pytest.mark.parametrize("make", DIRAC_SMALL)
    def test_noisy_potentials_bound_exact_marginals(self, make):
        # the exact marginals are an exactly feasible fpm, so h(marginals) <= h* <= g(lam)
        G = make()
        marginals, _ = entropy_identities_check(G)
        _, report = max_entropy_fpm(G)
        rng = rng_from(G.n, G.k)
        for scale in (1e-6, 1e-3, 1e-1, 1.0):
            for _ in range(25):
                lam = report.potentials + rng.normal(0.0, scale, G.n)
                assert dual_value(G, lam) >= marginals.entropy

    @pytest.mark.parametrize("n,k", [(6, 3), (9, 3), (12, 3), (8, 2), (8, 4)])
    def test_solver_potentials_give_the_closed_form(self, n, k):
        # K_n^(k): the uniform fpm 1/C(n-1, k-1) on every edge is optimal
        G = gen_complete(n, k)
        _, report = max_entropy_fpm(G)
        h = n / k * math.log(comb(n - 1, k - 1))
        assert dual_value(G, report.potentials) == pytest.approx(h, rel=1e-12)

    @pytest.mark.parametrize("make", DIRAC_SMALL + [
        lambda: gen_random_dirac(30, 3, DiracParams(2, 0.2), 0.9, seed=5),
    ])
    def test_gap_within_residual_slack(self, make):
        # x_e = exp(sum lam - 1) gives g(lam) - h(x) = sum_v lam_v (s_v - 1),
        # so the gap is at most residual * sum|lam| plus rounding
        G = make()
        x, report = max_entropy_fpm(G)
        lam = report.potentials
        slack = report.max_residual * float(np.abs(lam).sum()) + 1e-9 * max(1.0, x.entropy)
        assert abs(dual_value(G, lam) - x.entropy) <= slack

    @pytest.mark.parametrize("make", DIRAC_SMALL)
    def test_solver_potentials_bound_the_closed_form_from_above(self, make):
        # g(lam) >= h* >= the degree bound, for any lam
        G = make()
        _, report = max_entropy_fpm(G)
        assert dual_value(G, report.potentials) >= entropy_lower_bound(G, 2)

    def test_refuses_potentials_of_another_size(self):
        with pytest.raises(InvalidArgumentError, match="potentials"):
            dual_value(gen_complete(6, 3), np.zeros(5))


class TestConvexCombine:
    def test_endpoints(self):
        G = gen_complete(4, 2)
        x1 = pm_indicator(G, (0, 5))
        x2 = pm_indicator(G, (1, 4))
        assert convex_combine(x1, x2, 0.0).weights.tolist() == x1.weights.tolist()
        assert convex_combine(x1, x2, 1.0).weights.tolist() == x2.weights.tolist()

    def test_half_mix_of_two_matchings(self):
        G = gen_complete(4, 2)
        mixed = convex_combine(pm_indicator(G, (0, 5)), pm_indicator(G, (1, 4)), 0.5)
        assert sorted(set(np.round(mixed.weights, 12))) == [0.0, 0.5]
        assert mixed.entropy == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_requires_verified_same_graph(self):
        G = gen_complete(4, 2)
        with pytest.raises(InvalidArgumentError):
            convex_combine(uniform_fpm(G), uniform_fpm(gen_complete(6, 2)), 0.5)
        with pytest.raises(InvalidArgumentError):
            convex_combine(uniform_fpm(G), uniform_fpm(G), 1.5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.sampled_from([0.25, 0.5, 0.75]))
    def test_entropy_concavity(self, seed, t):
        G = gen_complete(9, 3)
        oracle = PMOracle(G)
        rng = rng_from(seed)
        x1 = pm_indicator(G, oracle.sample(rng))
        x2 = pm_indicator(G, oracle.sample(rng))
        mixed = convex_combine(x1, x2, t)
        assert mixed.entropy >= (1 - t) * x1.entropy + t * x2.entropy - 1e-9


class TestWeightsFile:
    def test_round_trip_with_digest(self, tmp_path):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        path = str(tmp_path / "w.wts")
        write_weights(path, x)
        back = read_weights(path, G)
        assert back.weights.tolist() == x.weights.tolist()
        assert back.status == x.status

    def test_verified_header_is_checked(self, tmp_path):
        # all-0.9 weights on K_6^(3) give every vertex the sum 9.0
        G = gen_complete(6, 3)
        raw = EdgeWeights.from_weights(G, np.full(G.num_edges, 0.9))
        path = str(tmp_path / "w.wts")
        write_weights(path, EdgeWeights(raw.weights, raw.graph_digest, raw.entropy,
                                        "verified-fpm"))
        with pytest.raises(InvalidArgumentError, match="vertex 0 residual 8.000e"):
            read_weights(path, G)

    def test_loose_tolerance_gives_raw_weights_that_read_back(self, tmp_path):
        # tol 1e-3 stops at a residual the reader's 1e-8 check refuses, so
        # the weights must not claim verified-fpm
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.95, seed=7)
        x, report = max_entropy_fpm(G, tol=1e-3)
        assert report.converged and 1e-8 < report.max_residual <= 1e-3
        assert x.status == "raw"
        path = str(tmp_path / "w.wts")
        write_weights(path, x)
        back = read_weights(path, G)
        assert back.status == "raw"
        assert back.weights.tobytes() == x.weights.tobytes()

    def test_header_comments_follow_the_graph_and_status_lines(self, tmp_path):
        G = gen_complete(6, 3)
        x = EdgeWeights.from_weights(G, np.full(G.num_edges, 0.1))
        path = tmp_path / "w.wts"
        write_weights(str(path), x, header_comments=["config_digest=abc", "input_digest g.khg=def"])
        head = f"# graph {G.digest()}\n# status raw\n# config_digest=abc\n# input_digest g.khg=def\n"
        assert path.read_bytes() == (head + "0.10000000000000001\n" * G.num_edges).encode()
        assert read_weights(str(path), G).weights.tolist() == x.weights.tolist()

    def test_digest_mismatch_rejected(self, tmp_path):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        path = str(tmp_path / "w.wts")
        write_weights(path, x)
        with pytest.raises(InvalidArgumentError):
            read_weights(path, gen_complete(9, 3))


class TestVertexSums:
    def test_bit_identical_to_edge_order_loop(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.9, seed=3)
        w = rng_from(5).random(G.num_edges)
        expected = np.zeros(G.n)
        for i, e in enumerate(G.edges):
            for v in e:
                expected[v] += w[i]
        assert vertex_sums(G, w).tobytes() == expected.tobytes()
