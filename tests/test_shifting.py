import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hypermatch import shifting
from hypermatch.counting import PMOracle
from hypermatch.entropy import (
    EdgeWeights,
    as_verified,
    convex_combine,
    max_entropy_fpm,
    vertex_sums,
    well_distributed_factor,
)
from hypermatch.errors import InvalidArgumentError, ResourceLimitError, SamplingError
from hypermatch.hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac
from hypermatch.seeds import rng_from
from hypermatch.shifting import (
    AnnealParams,
    anneal_and_shift,
    apply_shift,
    auto_anneal_params,
    find_good_configuration,
    find_shifting_structure,
    partner_edges,
    shift_gain_lower_bound,
    well_distributed_fpm,
)
from test_hypergraph_reference import ReferenceGraph, reference_find_shifting_structure


def pm_indicator(G, pm):
    w = np.zeros(G.num_edges)
    w[list(pm)] = 1.0
    return as_verified(G, EdgeWeights.from_weights(G, w))


def assert_reference_structure(G, s, **filters):
    """s is what the per-edge Python search finds on the same (e, f) pair."""
    R = ReferenceGraph(G.k, G.n, G.edges)
    ref = reference_find_shifting_structure(R, s.e_ids[0], s.f_ids[0], **filters)
    assert (s.U_sets, s.e_ids, s.f_ids) == ref


class TestFindStructure:
    def test_k8_pairs_first_candidate(self):
        G = gen_complete(8, 2)
        s = find_shifting_structure(G, G.edges.index((0, 1)), G.edges.index((0, 2)))
        assert s.U_sets == ((3,),)
        assert G.edges[s.e_ids[1]] == (2, 3) and G.edges[s.f_ids[1]] == (1, 3)
        assert_reference_structure(G, s)

    def test_k9_triples_lexicographic(self):
        G = gen_complete(9, 3)
        s = find_shifting_structure(G, G.edges.index((0, 1, 2)), G.edges.index((0, 3, 4)))
        assert s.U_sets == ((5, 6), (7, 8))
        assert_reference_structure(G, s)

    def test_requires_single_shared_vertex(self):
        G = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(InvalidArgumentError):
            find_shifting_structure(G, 0, 1)

    def test_filters_can_exhaust_candidates(self):
        G = gen_complete(8, 2)
        s = find_shifting_structure(G, 0, 1, e_ok=np.zeros(G.num_edges, dtype=bool))
        assert s is None

    def test_e_mask_skips_to_the_next_candidate(self):
        # blocking the first weight-decreasing edge (2, 3) moves U_2 to (4,)
        G = gen_complete(8, 2)
        e_ok = np.ones(G.num_edges, dtype=bool)
        e_ok[G.edges.index((2, 3))] = False
        s = find_shifting_structure(G, G.edges.index((0, 1)), G.edges.index((0, 2)), e_ok=e_ok)
        assert s.U_sets == ((4,),)
        assert G.edges[s.e_ids[1]] == (2, 4) and G.edges[s.f_ids[1]] == (1, 4)
        assert_reference_structure(G, s, e_edge_ok=lambda i: e_ok[i])

    def test_f_mask_skips_to_the_next_candidate(self):
        # blocking the first weight-increasing edge (1, 3) moves U_2 to (4,)
        G = gen_complete(8, 2)
        f_ok = np.ones(G.num_edges, dtype=bool)
        f_ok[G.edges.index((1, 3))] = False
        s = find_shifting_structure(G, G.edges.index((0, 1)), G.edges.index((0, 2)), f_ok=f_ok)
        assert s.U_sets == ((4,),)
        assert G.edges[s.e_ids[1]] == (2, 4) and G.edges[s.f_ids[1]] == (1, 4)
        assert_reference_structure(G, s, f_edge_ok=lambda i: f_ok[i])

    def test_masks_of_the_wrong_length_rejected(self):
        G = gen_complete(8, 2)
        with pytest.raises(InvalidArgumentError, match="edge masks"):
            find_shifting_structure(G, 0, 1, f_ok=np.ones(G.num_edges - 1, dtype=bool))

    @pytest.mark.parametrize("bad", [-1, -20, 20, 99, 1.0, True])
    def test_edge_ids_outside_the_graph_refused(self, bad):
        # numpy would wrap -1 round to the last edge, and raise a bare IndexError past the end
        G = gen_complete(6, 3)
        message = rf"edge id {bad!r} is not an integer in \[0, 20\)"
        for search in (lambda: partner_edges(G, bad), lambda: find_shifting_structure(G, bad, 0),
                       lambda: find_shifting_structure(G, 0, bad)):
            with pytest.raises(InvalidArgumentError, match=message):
                search()
        assert partner_edges(G, 19).tolist() == [1, 4, 10, 2, 5, 11, 3, 6, 12]


def worked_example():
    """k=2 example: e-side edges at 0.5, f-side at 0.1, elsewhere 0."""
    G = gen_complete(8, 2)
    s = find_shifting_structure(G, G.edges.index((0, 1)), G.edges.index((0, 2)))
    w = np.zeros(G.num_edges)
    for eid in s.e_ids:
        w[eid] = 0.5
    for fid in s.f_ids:
        w[fid] = 0.1
    return G, s, EdgeWeights.from_weights(G, w)


class TestApplyShift:
    def test_zero_delta_is_identity(self):
        G, s, x = worked_example()
        assert apply_shift(x, s, 0.0).weights.tolist() == x.weights.tolist()

    def test_worked_example_weights_and_entropy(self):
        G, s, x = worked_example()
        assert x.entropy == pytest.approx(1.153664, abs=1e-5)
        shifted = apply_shift(x, s, 0.2)
        touched = set(s.e_ids) | set(s.f_ids)
        assert all(shifted.weights[i] == pytest.approx(0.3) for i in touched)
        assert shifted.entropy == pytest.approx(1.444767, abs=1e-5)

    def test_vertex_sums_conserved(self):
        G = gen_complete(9, 3)
        x_star, _ = max_entropy_fpm(G)
        x = convex_combine(x_star, pm_indicator(G, PMOracle(G).sample(rng_from(2))), 0.3)
        s = find_shifting_structure(G, G.edges.index((0, 1, 2)), G.edges.index((0, 3, 4)))
        delta = 0.4 * float(min(x.weights[i] for i in s.e_ids))
        before = vertex_sums(G, x.weights)
        after = vertex_sums(G, apply_shift(x, s, delta).weights)
        assert float(np.abs(after - before).max()) <= 1e-12

    def test_precondition_violations_name_the_edge(self):
        G, s, x = worked_example()
        with pytest.raises(InvalidArgumentError) as err:
            apply_shift(x, s, 0.6)
        assert "e_" in str(err.value)
        with pytest.raises(InvalidArgumentError):
            apply_shift(x, s, -0.1)


@functools.lru_cache(maxsize=None)
def dirac_fpm(n, k, seed):
    G = gen_random_dirac(n, k, DiracParams(k - 1, 0.2), density=0.95, seed=seed)
    x, _ = max_entropy_fpm(G)
    return G, x


@st.composite
def shift_cases(draw):
    """(G, x, structure, delta): a random structure on a Dirac graph's max-entropy fpm."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([m for m in range(6, 16) if m % k == 0]))
    G, x = dirac_fpm(n, k, draw(st.integers(0, 3)))
    e_id = draw(st.integers(0, G.num_edges - 1))
    e = set(G.edges[e_id])
    partners = [f for v in sorted(e) for f in G.incident(v) if len(e & set(G.edges[f])) == 1]
    assume(partners)
    s = find_shifting_structure(G, e_id, draw(st.sampled_from(partners)))
    assume(s is not None)
    delta = draw(st.floats(0.0, float(min(x.weights[i] for i in s.e_ids))))
    assume(float(max(x.weights[i] for i in s.f_ids)) + delta <= 1.0)
    return G, x, s, delta


class TestShiftConservation:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(shift_cases())
    def test_vertex_sums_unchanged(self, case):
        G, x, s, delta = case
        assert x.verified
        assert_reference_structure(G, s)
        after = vertex_sums(G, apply_shift(x, s, delta).weights)
        assert float(np.abs(after - vertex_sums(G, x.weights)).max()) <= 1e-12


class TestGainBound:
    def test_worked_example_bound(self):
        G, s, x = worked_example()
        bound = shift_gain_lower_bound(x, s, 0.2, eta=0.3)
        assert bound == pytest.approx(0.2 * math.log(0.5 * 0.2 / (2 * 0.09)), abs=1e-9)
        assert bound == pytest.approx(-0.11756, abs=1e-4)
        gain = apply_shift(x, s, 0.2).entropy - x.entropy
        assert gain == pytest.approx(0.291103, abs=1e-5)
        assert gain >= bound

    def test_zero_at_balance_point(self):
        # x[e1] * delta^{k-1} == 2 eta^k exactly: 0.9 * 0.2 == 2 * 0.3^2
        G = gen_complete(8, 2)
        s = find_shifting_structure(G, 0, 1)
        w = np.zeros(G.num_edges)
        w[s.e_ids[0]] = 0.9
        w[s.e_ids[1]] = 0.5
        x = EdgeWeights.from_weights(G, w)
        assert shift_gain_lower_bound(x, s, 0.2, eta=0.3) == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violation_rejected(self):
        G, s, x = worked_example()
        with pytest.raises(InvalidArgumentError):
            shift_gain_lower_bound(x, s, 0.3, eta=0.35)  # x[e_i] < 2 delta
        with pytest.raises(InvalidArgumentError):
            shift_gain_lower_bound(x, s, 0.2, eta=0.25)  # x[f_i] > eta - delta

    def test_gain_clears_bound_randomised(self):
        G = gen_complete(9, 3)
        x_star, _ = max_entropy_fpm(G)
        oracle = PMOracle(G)
        rng = rng_from(55)
        done = 0
        while done < 100:
            x = convex_combine(x_star, pm_indicator(G, oracle.sample(rng)), 0.5 * float(rng.random()))
            e_id = int(rng.integers(0, G.num_edges))
            partners = [
                fid
                for v in G.edges[e_id]
                for fid in G.incident(v)
                if fid != e_id and len(set(G.edges[e_id]) & set(G.edges[fid])) == 1
            ]
            if not partners:
                continue
            s = find_shifting_structure(G, e_id, partners[int(rng.integers(0, len(partners)))])
            if s is None:
                continue
            min_e = float(min(x.weights[i] for i in s.e_ids))
            max_f = float(max(x.weights[i] for i in s.f_ids))
            if min_e <= 0 or max_f + 0.5 * min_e > 1:
                continue
            delta = 0.45 * min_e
            eta = max_f + delta + 1e-3
            bound = shift_gain_lower_bound(x, s, delta, eta)
            assert apply_shift(x, s, delta).entropy - x.entropy >= bound - 1e-9
            done += 1


class TestGoodConfiguration:
    def k9_params(self, D_target=10.0, gamma=0.5, C=2.0):
        G = gen_complete(9, 3)
        eps = D_target ** (-1.0 / (3 * G.k))
        return G, AnnealParams.for_graph(G, gamma, eps, C)

    def test_uniform_has_no_high_weight_edge(self):
        G, params = self.k9_params()
        x, _ = max_entropy_fpm(G)
        assert find_good_configuration(G, x, params) == ("no-high-weight-edge", None)

    def test_pm_mixture_yields_configuration(self):
        G, params = self.k9_params()
        x_star, _ = max_entropy_fpm(G)
        x = convex_combine(pm_indicator(G, PMOracle(G).sample(rng_from(7))), x_star, 0.1)
        status, s = find_good_configuration(G, x, params)
        assert status == "found"
        w = x.weights
        e_ok, f_ok = w >= 2 * params.delta, w <= params.eta - params.delta
        assert_reference_structure(G, s, e_edge_ok=lambda i: e_ok[i], f_edge_ok=lambda i: f_ok[i])
        assert w[s.e_ids[0]] >= params.high_threshold(G)
        assert min(w[i] for i in s.e_ids) >= 2 * params.delta
        assert max(w[i] for i in s.f_ids) <= params.eta - params.delta

    def test_search_exhausted_when_no_partner_exists(self):
        G = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        x = pm_indicator(G, (0, 1))
        params = AnnealParams.for_graph(G, gamma=0.5, epsilon=0.8, C=2.0)
        assert find_good_configuration(G, x, params) == ("search-exhausted", None)

    def test_heavy_edges_scanned_in_id_order(self):
        # every edge of the mixed-in matching is heavy; the scan starts at the
        # lowest id and hands out plain ints
        G, params = self.k9_params()
        x_star, _ = max_entropy_fpm(G)
        pm = PMOracle(G).sample(rng_from(7))
        x = convex_combine(pm_indicator(G, pm), x_star, 0.1)
        assert [i for i in range(G.num_edges) if x.weights[i] >= params.high_threshold(G)] == sorted(pm)
        e1 = find_good_configuration(G, x, params)[1].e_ids[0]
        assert e1 == min(pm) and type(e1) is int

    def test_deterministic_scan(self):
        G, params = self.k9_params()
        x_star, _ = max_entropy_fpm(G)
        x = convex_combine(pm_indicator(G, PMOracle(G).sample(rng_from(7))), x_star, 0.1)
        a = find_good_configuration(G, x, params)
        b = find_good_configuration(G, x, params)
        assert a[0] == b[0] == "found" and a[1] == b[1]


class TestAnnealParams:
    def test_fields_follow_the_formulas(self):
        G = gen_complete(9, 3)
        p = AnnealParams.for_graph(G, gamma=0.5, epsilon=0.5, C=3.0)
        assert p.eta == pytest.approx((4 / 0.5) / math.comb(8, 2))
        assert p.delta == pytest.approx(0.5 / (2 * 9 * 81))
        assert p.D == pytest.approx(0.5 ** -9)

    def test_degenerate_eta_is_a_hard_violation(self):
        G = gen_complete(6, 3)
        p = AnnealParams.for_graph(G, gamma=0.05, epsilon=0.5, C=2.0)
        assert any(v.startswith("eta = ") for v in p.violations(G))
        x, _ = max_entropy_fpm(G)
        with pytest.raises(InvalidArgumentError, match="invalid anneal parameters: .*eta = "):
            anneal_and_shift(G, x, x, p)

    def test_auto_params_validate(self):
        G = gen_complete(9, 3)
        p = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=3.0)
        assert p.violations(G, termination=True) == []
        strict = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=3.0, require_positive_gain=True)
        assert strict.violations(G, termination=True, positive_gain=True) == []
        assert strict.gain_ratio(G) >= 1.0

    def test_auto_params_keep_the_first_valid_shrink_step(self):
        G = gen_complete(9, 3)
        p = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=3.0)
        eps = 0.9
        for _ in range(shifting.MAX_SHRINKS + 1):
            q = AnnealParams.for_graph(G, 0.5, eps, 3.0, p.max_steps)
            if not q.violations(G, termination=True):
                break
            eps *= shifting.EPSILON_SHRINK
        assert p.epsilon == eps < 0.9

    # On K_9^(3), n^(k-1) = 81.  BASE meets all seven rules (gain ratio 5); each row
    # changes it to break exactly one, which the flags it needs then report alone.
    BASE = dict(epsilon=0.5, C=1.0, eta=0.1, delta=0.01, D=8100.0, max_steps=0)
    ALL = dict(termination=True, positive_gain=True)
    RULES = [
        ("eta-delta", dict(eta=0.01), ALL, "eta - delta = 0.0 must be positive"),
        ("two-delta", dict(eta=0.9, delta=0.6, D=81.0), {},
         "D/n^(k-1) = 1.0 must be >= 2 delta = 1.2"),
        ("eta-one", dict(eta=2.0), {}, "eta = 2.0 must be <= 1 so shifted weights stay below 1"),
        ("epsilon-C", dict(epsilon=2.0), ALL, "epsilon = 2.0 must be <= C = 1.0 for the mixing step"),
        ("no-new-heavy", dict(eta=0.5, D=40.5), dict(termination=True),
         "eta must be <= D/n^(k-1) - delta so no shifted-up edge turns heavy"),
        ("floor", dict(eta=0.02, D=3.0), dict(termination=True), "2 C^2/epsilon must be <= D"),
        ("gain", dict(D=810.0), ALL, "gain ratio D delta^(k-1) / (2 n^(k-1) eta^k) must be >= 1"),
    ]

    @pytest.mark.parametrize("changes, flags, message", [r[1:] for r in RULES], ids=[r[0] for r in RULES])
    def test_each_rule_is_reported_on_its_own(self, changes, flags, message):
        G = gen_complete(9, 3)
        assert AnnealParams(**self.BASE).violations(G, **self.ALL) == []
        p = AnnealParams(**{**self.BASE, **changes})
        (got,) = p.violations(G, **flags)
        assert got.startswith(message)
        if flags != self.ALL:
            # a rule under a flag left off is not checked
            assert p.violations(G) == ([got] if not flags else [])

    def test_auto_params_refusal_names_what_the_last_epsilon_broke(self, monkeypatch):
        monkeypatch.setattr(shifting, "MAX_SHRINKS", 0)
        with pytest.raises(InvalidArgumentError) as err:
            auto_anneal_params(gen_complete(9, 3), gamma=0.5, epsilon=0.9, C=3.0)
        assert str(err.value).startswith(
            "no valid epsilon found below 0.9 after 0 shrink steps; epsilon = 0.9 still broke: eta must be <="
        )


class TestAnneal:
    def adversarial(self, seed=11):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=seed)
        x_star, _ = max_entropy_fpm(G)
        oracle = PMOracle(G)
        adv = convex_combine(pm_indicator(G, oracle.sample(rng_from(seed))), x_star, 0.05)
        x_hat, _ = well_distributed_fpm(G, DiracParams(2, 0.2), seed=seed + 1, trials=2000)
        C = max(1.0, well_distributed_factor(G, x_hat))
        return G, adv, x_hat, C

    def test_well_distributed_start_takes_zero_steps(self):
        G = gen_complete(9, 3)
        x, _ = max_entropy_fpm(G)
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=2.0)
        final, log = anneal_and_shift(G, x, x, params)
        assert log.termination == "no-high-weight-edge" and not log.steps
        mix = convex_combine(x, x, params.epsilon / params.C)
        assert final.weights.tolist() == mix.weights.tolist()

    def test_active_run_contract_on_k9_mixture(self):
        G, adv, x_hat, C = self.adversarial()
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, max_steps=30000)
        final, log = anneal_and_shift(G, adv, x_hat, params)
        assert log.termination in ("no-high-weight-edge", "search-exhausted")
        assert float(final.weights.min()) >= params.delta - 1e-15
        if log.termination == "no-high-weight-edge":
            assert well_distributed_factor(G, final) <= params.D
        assert final.entropy >= log.start_entropy - 1e-12
        for step in log.steps:
            assert step.entropy_after - step.entropy_before >= step.bound - 1e-9

    def test_monotone_in_validated_regime(self):
        G, adv, x_hat, C = self.adversarial(seed=13)
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, require_positive_gain=True)
        _, log = anneal_and_shift(G, adv, x_hat, params)
        # Vacuous at desk scale: the positive-gain parameters put D/n^(k-1)
        # near 3.4e7, above every weight (all <= 1), so the run ends at once
        # with no step and the monotonicity clause holds over nothing.
        assert params.high_threshold(G) == pytest.approx(3.35e7, rel=0.01)
        assert log.termination == "no-high-weight-edge" and log.steps == []
        assert all(s.entropy_after >= s.entropy_before - 1e-12 for s in log.steps)

    def test_step_budget_when_bounds_are_large(self):
        # When every accepted step's bound clears delta ln(D)/2, the entropy
        # budget caps the step count at eps n / (delta ln(D)/2) + 1.  Vacuous
        # at desk scale: a step's bound delta ln(x[e_1] delta^(k-1) / (2 eta^k))
        # on an edge of weight about D/n^(k-1) is positive only under the gain
        # inequality D delta^(k-1) / (2 n^(k-1) eta^k) >= 1.  At k = 3,
        # gamma = 0.5 and C >= 1 that needs D/n^(k-1) >= about 639,100/n^2,
        # above every weight (all <= 1) for n <= 799.  Here the run makes 260
        # shifts, but every step's gain bound is negative (the largest about
        # -2.8e-3) while delta ln(D)/2 is about 4.1e-4, so the premise holds
        # for no step.  The cap is still checked.
        G, adv, x_hat, C = self.adversarial(seed=19)
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, max_steps=30000)
        _, log = anneal_and_shift(G, adv, x_hat, params)
        per_step = params.delta * math.log(params.D) / 2.0
        assert log.termination == "no-high-weight-edge" and len(log.steps) == 260
        assert per_step == pytest.approx(4.085e-4, rel=1e-3)
        assert max(s.bound for s in log.steps) == pytest.approx(-2.777e-3, rel=1e-3)
        assert len(log.steps) <= params.epsilon * G.n / per_step + 1

    # (shifts, sha256 of the trace CSV) of the mixture run at the auto parameters, by seed.
    TRACES = {
        11: (230, "a0d058793c97880e8ef797e88c4f1c90228fb3ba0854e1d85dfc8c7776d5c46a"),
        13: (1037, "c17ca5e58f06d6dc29b6a2645f180ec2d69d862e7c9c0ab2ebbdc90244638701"),
        19: (260, "d2edb5c4f53dfc34f3ae497ca74b8e84d52de8cdf42cf6616f620abdd040e461"),
    }

    @pytest.mark.parametrize("seed", sorted(TRACES))
    def test_mixture_traces_keep_their_bits(self, seed, tmp_path):
        G, adv, x_hat, C = self.adversarial(seed)
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, max_steps=30000)
        _, log = anneal_and_shift(G, adv, x_hat, params)
        path = tmp_path / "trace.csv"
        log.write_csv(str(path))
        assert (len(log.steps), hashlib.sha256(path.read_bytes()).hexdigest()) == self.TRACES[seed]

    def test_trace_csv_round_trip(self, tmp_path):
        G, adv, x_hat, C = self.adversarial()
        params = auto_anneal_params(G, gamma=0.5, epsilon=0.9, C=C, max_steps=500)
        _, log = anneal_and_shift(G, adv, x_hat, params)
        path = tmp_path / "trace.csv"
        log.write_csv(str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:1] == ["step"] and header[-4:] == [
            "delta", "entropy_before", "entropy_after", "bound",
        ]
        assert len(lines) == len(log.steps) + 1


class TestWellDistributedFPM:
    def test_k6_marginals_near_uniform(self):
        G = gen_complete(6, 3)
        x, report = well_distributed_fpm(G, DiracParams(1, 0.1), seed=5, trials=100000)
        assert float(np.abs(x.weights - 0.1).max()) <= 0.02
        assert report["resamples"] == 0

    def test_projection_hits_unit_sums(self):
        G = gen_random_dirac(9, 3, DiracParams(2, 0.2), density=0.95, seed=17)
        x, report = well_distributed_fpm(G, DiracParams(2, 0.2), seed=18, trials=2000)
        assert report["projection_residual"] <= 1e-8
        assert x.verified

    def test_unconverged_projection_is_not_verified(self, monkeypatch):
        real = shifting.scale_vertex_sums

        def unconverged(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), converged=False)

        monkeypatch.setattr(shifting, "scale_vertex_sums", unconverged)
        G = gen_complete(6, 3)
        with pytest.raises(SamplingError, match="did not converge"):
            well_distributed_fpm(G, DiracParams(1, 0.1), seed=5, trials=50)

    def test_greedy_prefix_refused(self):
        # gamma/(10 k^2) * n = 7.5/90 * 12 = 1 prefix round
        with pytest.raises(InvalidArgumentError, match="prefix"):
            well_distributed_fpm(gen_complete(12, 3), DiracParams(2, 7.5), seed=5, trials=10)

    def test_oversized_graph_hits_the_count_cap_first(self):
        # n = 30 also gives a prefix round (3/90 * 30 = 1); the cap is checked first
        with pytest.raises(ResourceLimitError, match="cap"):
            well_distributed_fpm(gen_complete(30, 3), DiracParams(2, 3.0), seed=5, trials=10)

    @pytest.mark.parametrize("n,graph_seed,seed,weights_sha,report_sha", [
        pytest.param(12, 7, 5, "d13f53c72154128fc4e7c70cbade1b35039ab740ffdea84489c79e59398209ee",
                     "c3837dba126b8ab623c76377b72a5f552549297b60d8834bc6e7698be94fe205",
                     id="n12"),
        pytest.param(15, 7, 5, "17ddd5fdb927107914c237080ec68fe79e1206db3fed4c8a47641be8e53cdfd8",
                     "9dc0b6a5501f64daefc1ad46397166f4d6b1c2ea7cfc3e1a8f011c3dfe47365b",
                     id="n15"),
        # master seeds of 2^32 and more take two entropy words in every stream
        pytest.param(12, 8, 2**40 + 3,
                     "56d88407adf99e64391a31cd5cb6ab495fc3163a8c4eb26d20362b2b298ae52b",
                     "e854094578ab43267c61b796300a40127090f57f1c7ca3a2e31285be385e587c",
                     id="n12-two-word-seed"),
        pytest.param(15, 9, 2**64 - 1,
                     "7fffcbb4e15478e77b675d5b321268f91df9acac9057aabce9ca4db7f668d689",
                     "147a60fb29585898ca55107608d94de5288193a3f726fafd2ebeb49dbd7a9a81",
                     id="n15-two-word-seed"),
    ])
    def test_draws_pinned(self, n, graph_seed, seed, weights_sha, report_sha):
        # the draws of streams (seed, t) and the projection, pinned bit for
        # bit (recorded when each trial built its own rng_from(seed, t)); the
        # 2,000 draws revisit states, so they read the sampler's kept choices
        G = gen_random_dirac(n, 3, DiracParams(2, 0.2), 0.95, seed=graph_seed)
        x, report = well_distributed_fpm(G, DiracParams(2, 0.2), seed=seed, trials=2000)
        assert hashlib.sha256(x.weights.tobytes()).hexdigest() == weights_sha
        canonical = json.dumps(report, sort_keys=True, separators=(",", ":")).encode()
        assert hashlib.sha256(canonical).hexdigest() == report_sha

    @pytest.mark.parametrize("trials", [0, 2**32 + 1])
    def test_trial_count_outside_the_key_range_refused(self, trials):
        # trial t uses spawn key t, which must fit one 32-bit word
        with pytest.raises(InvalidArgumentError, match="trials"):
            well_distributed_fpm(gen_complete(6, 3), DiracParams(1, 0.1), seed=5, trials=trials)

    @pytest.mark.parametrize("n,seed", [(9, 31), (12, 32), (15, 33)])
    def test_factor_bounded_on_dirac_instances(self, n, seed):
        G = gen_random_dirac(n, 3, DiracParams(2, 0.2), density=0.95, seed=seed)
        _, report = well_distributed_fpm(G, DiracParams(2, 0.2), seed=seed + 100, trials=4000)
        assert report["well_distributed_factor"] <= 10.0
