import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypermatch.bipartite import (
    bipartite_max_entropy,
    bound_chain_report,
    certify_entropy_lower_bound,
    entropy_lower_bound,
    lift,
    pull_back,
    matching_count_bound_report,
)
from hypermatch.counting import PMOracle
from hypermatch.entropy import as_verified, max_entropy_fpm
from hypermatch.errors import InvalidArgumentError, ResourceLimitError
from hypermatch.hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac, min_d_degree
from hypermatch.seeds import rng_from


def complete_minus_pm(n, k, seed):
    G = gen_complete(n, k)
    pm = set(PMOracle(G).sample(rng_from(seed)))
    return Hypergraph(k, n, [e for i, e in enumerate(G.edges) if i not in pm])


class TestLift:
    def test_k4_pairs_d1(self):
        l = lift(gen_complete(4, 2), 1)
        assert len(l.a_subsets) == 4 and l.mult_a == 4
        assert l.n_tilde == 16
        assert l.L == pytest.approx(8.0)
        assert l.Q == 32

    def test_k6_triples_d2(self):
        l = lift(gen_complete(6, 3), 2)
        assert l.n_tilde == 90
        assert l.L == pytest.approx(45.0)
        assert l.Q == 270
        assert len(l.quotient_edges) == 60  # each of 20 edges splits 3 ways
        assert l.min_degree == comb(6, 2) * 4 == comb(6, 1) * 10
        assert l.min_degree_attained == "both"

    def test_min_degree_side_recorded(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=44)
        l = lift(G, 2)
        # for d >= k/2 the A side attains the minimum (double counting)
        assert l.min_degree == comb(9, 2) * min_d_degree(G, 2)
        assert l.min_degree_attained in ("A", "both")

    def test_hypothesis_range_enforced(self):
        with pytest.raises(InvalidArgumentError, match="violates"):
            lift(gen_complete(6, 3), 1)  # 2d < k

    def test_cap(self):
        # C(450, 2) = 100,725 d-subsets exceed the lift cap of 10^5
        with pytest.raises(ResourceLimitError, match="lift cap"):
            lift(Hypergraph(3, 450, [(0, 1, 2)]), 2)

    def test_lift_accounting_identities(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=49)
        l = lift(G, 2)
        # both duplicated sides have exactly ntilde vertices
        assert len(l.a_subsets) * l.mult_a == l.n_tilde
        assert len(l.b_subsets) * l.mult_b == l.n_tilde
        # every source edge expands to exactly Q lifted copies
        per_source = {}
        for eid in l.source_edge:
            per_source[eid] = per_source.get(eid, 0) + l.n_tilde
        assert set(per_source) == set(range(G.num_edges))
        assert all(v == l.Q for v in per_source.values())
        assert len(l.quotient_edges) * l.n_tilde == G.num_edges * l.Q

    @pytest.mark.parametrize(
        "k,d,ns",
        [(2, 1, range(4, 9)), (3, 2, range(6, 13)), (4, 2, [8]), (4, 3, [8])],
    )
    def test_pull_back_unit_sum_identity_symbolically(self, k, d, ns):
        # C(n,k-d) C(n-1,d-1) + C(n,d) C(n-1,k-d-1) == (k/n) C(n,d) C(n,k-d)
        for n in ns:
            lhs = comb(n, k - d) * comb(n - 1, d - 1) + comb(n, d) * comb(n - 1, k - d - 1)
            rhs = Fraction(k, n) * comb(n, d) * comb(n, k - d)
            assert Fraction(lhs) == rhs


class TestBipartiteMaxEntropy:
    def test_k6_equality_case(self):
        l = lift(gen_complete(6, 3), 2)
        bw, report = bipartite_max_entropy(l)
        assert report["converged"]
        # complete source graph: uniform per-copy weight 1/60 and entropy
        # exactly ntilde ln(min degree)
        assert np.allclose(bw.x, 1.0 / 60.0, atol=1e-12)
        assert report["entropy"] == pytest.approx(90 * math.log(60), rel=1e-12)

    def test_degree_hypothesis_enforced(self):
        sparse = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(InvalidArgumentError):
            bipartite_max_entropy(lift(sparse, 2))


class TestPullBack:
    def test_k6_uniform(self):
        G = gen_complete(6, 3)
        l = lift(G, 2)
        bw, _ = bipartite_max_entropy(l)
        x = pull_back(G, l, bw)
        assert np.allclose(x.weights, 0.1, atol=1e-12)
        assert x.verified

    def test_feasible_on_random_dirac(self):
        G = gen_random_dirac(12, 3, DiracParams(2, 0.2), density=0.95, seed=45)
        l = lift(G, 2)
        bw, _ = bipartite_max_entropy(l)
        x = pull_back(G, l, bw)
        assert as_verified(G, x, tol=1e-9).verified

    def test_chain_lines_hold(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=46)
        l = lift(G, 2)
        bw, _ = bipartite_max_entropy(l)
        x = pull_back(G, l, bw)
        chain = bound_chain_report(G, l, bw, x, entropy_lower_bound(G, 2))
        assert chain["identity_ok"]
        assert chain["jensen_ok"]
        assert chain["guarantee_ok"]
        assert chain["closed_form_ok"]
        assert chain["total_lifted_weight"] == pytest.approx(l.n_tilde, rel=1e-9)

    def test_wrong_graph_rejected(self):
        G = gen_complete(6, 3)
        l = lift(G, 2)
        bw, _ = bipartite_max_entropy(l)
        with pytest.raises(InvalidArgumentError):
            pull_back(gen_complete(9, 3), l, bw)


class TestEntropyLowerBound:
    def test_hypothesis_range_enforced(self):
        with pytest.raises(InvalidArgumentError, match="violates"):
            entropy_lower_bound(gen_complete(6, 3), 1)  # 2d < k

    def test_k6_tightness(self):
        assert entropy_lower_bound(gen_complete(6, 3), 2) == pytest.approx(
            2 * math.log(10), abs=1e-12
        )

    def test_monotone_in_degree(self):
        full = entropy_lower_bound(gen_complete(12, 3), 2)
        pruned = entropy_lower_bound(complete_minus_pm(12, 3, seed=4), 2)
        assert pruned < full

    def test_solver_clears_bound_on_dirac_instances(self):
        for seed in (47, 48):
            G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=seed)
            x, _ = max_entropy_fpm(G)
            assert x.entropy >= entropy_lower_bound(G, 2) - 1e-6

    def test_certificate_bundle(self):
        G = gen_complete(6, 3)
        cert = certify_entropy_lower_bound(G, 2)
        assert cert["solver_clears_bound"] and cert["pullback_clears_bound"]
        assert abs(cert["h_solver"] - cert["bound"]) <= 1e-9


class TestMatchingCountBoundReport:
    def test_hypothesis_range_enforced(self):
        with pytest.raises(InvalidArgumentError, match="violates"):
            matching_count_bound_report(gen_complete(8, 4), DiracParams(4, 0.3))  # d > k-1

    def test_complete_graph_zero_residual(self):
        report = matching_count_bound_report(gen_complete(6, 3), DiracParams(2, 0.3))
        assert report["p"] == pytest.approx(1.0)
        assert report["target"] == pytest.approx(math.log(10), abs=1e-12)
        assert report["residual"] == pytest.approx(0.0, abs=1e-12)

    def test_sparse_k12_reports_residual(self):
        G = complete_minus_pm(12, 3, seed=4)
        assert min_d_degree(G, 2) == 9  # sparse removal keeps delta_2 >= 0.9 C(10,1)
        report = matching_count_bound_report(G, DiracParams(2, 0.3))
        assert report["ln_phi_exact"] is not None
        assert report["residual_per_n"] is not None
        chain = report["stirling_chain"]
        assert chain["entropy_bound_minus_correction"] == pytest.approx(
            chain["merged_binomial_form"], rel=1e-12
        )

    def test_target_monotone_under_edge_removal(self):
        full = matching_count_bound_report(gen_complete(12, 3), DiracParams(2, 0.3))
        pruned = matching_count_bound_report(complete_minus_pm(12, 3, seed=4), DiracParams(2, 0.3))
        assert pruned["target"] <= full["target"]
