import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from hypermatch.counting import (
    DiscreteDistribution,
    PMOracle,
    conditional_entropy,
    count_pm,
    discrete_entropy,
    entropy_identities_check,
    joint_entropy,
    marginal_entropy_rows,
    phi_complete,
    pm_marginals,
    sample_uniform_pm,
    sample_uniform_pms,
    verify_count_vs_entropy,
)
from hypermatch.entropy import is_fractional_pm
from hypermatch.errors import (
    InvalidArgumentError,
    InvariantError,
    ResourceLimitError,
    SamplingError,
)
from hypermatch.hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac
from hypermatch.seeds import rng_from

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


class TestCounts:
    def test_examples(self):
        assert count_pm(gen_complete(4, 2)).value == 3
        assert count_pm(gen_complete(6, 3)).value == 10
        assert count_pm(SINGLE_PM).value == 1

    def test_divisibility_note(self):
        result = count_pm(gen_complete(7, 3))
        assert result.value == 0 and "divide" in result.note

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            count_pm(gen_complete(26, 2), cap=24)

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


class TestSampling:
    def test_unique_pm_always_returned(self):
        for seed in range(5):
            assert sorted(sample_uniform_pm(SINGLE_PM, seed)) == [0, 1]

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
            sample_uniform_pm(no_pm, 1)

    def test_residual_mask_sampling(self):
        # completing around a fixed first edge stays inside the residual graph
        G = gen_complete(6, 3)
        oracle = PMOracle(G)
        first = oracle.edge_masks[0]
        rest = oracle.sample(rng_from(5), initial_mask=first)
        used = set(G.edges[0])
        for eid in rest:
            assert not used & set(G.edges[eid])
            used.update(G.edges[eid])
        assert len(used) == 6


class TestMarginals:
    def test_k6_uniform(self):
        x = pm_marginals(gen_complete(6, 3))
        assert np.allclose(x.weights, 0.1, atol=0)

    def test_single_pm_indicator(self):
        x = pm_marginals(SINGLE_PM)
        assert x.weights.tolist() == [1.0, 1.0]

    def test_broken_telescoping_raises_typed_error(self, monkeypatch):
        # a count that ignores the state breaks the per-vertex telescoping;
        # the check is a typed error, so it also runs under python -O
        monkeypatch.setattr(PMOracle, "count", lambda self, mask: 1)
        with pytest.raises(InvariantError, match="vertex 0"):
            PMOracle(gen_complete(6, 3)).marginals()

    def test_exact_unit_vertex_sums(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=2)
        margs = PMOracle(G).marginals()
        for v in range(G.n):
            assert sum(margs[i] for i in G.incident(v)) == 1
        x = pm_marginals(G)
        assert x.verified
        assert is_fractional_pm(G, x, tol=1e-12).ok


class TestEntropyIdentities:
    def test_discrete_utilities(self):
        assert discrete_entropy([0.5, 0.5]) == pytest.approx(math.log(2))
        assert DiscreteDistribution.from_probs([1.0]).entropy() == 0.0
        uniform = DiscreteDistribution.from_probs(np.full(7, 1 / 7))
        assert uniform.entropy() == pytest.approx(math.log(7), abs=1e-12)
        with pytest.raises(InvalidArgumentError):
            DiscreteDistribution.from_probs([0.5, 0.4])

    def test_chain_rule_and_conditioning_on_explicit_joint(self):
        joint = np.array([[0.2, 0.1], [0.05, 0.25], [0.15, 0.25]])
        h_joint = joint_entropy(joint)
        h_y = discrete_entropy(joint.sum(axis=0))
        h_x_given_y = conditional_entropy(joint)
        assert h_joint == pytest.approx(h_y + h_x_given_y, abs=1e-12)
        assert h_x_given_y <= marginal_entropy_rows(joint) + 1e-12

    def test_k6_numbers(self):
        report = entropy_identities_check(gen_complete(6, 3))
        assert report["k_h_marginals"] == pytest.approx(6 * math.log(10), abs=1e-9)
        assert report["ln_phi"] == pytest.approx(math.log(10), abs=1e-12)
        assert report["marginal_inequality_ok"] and report["solver_dominance_ok"]

    def test_single_pm_equality_case(self):
        report = entropy_identities_check(SINGLE_PM)
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
