import hashlib
import itertools
import math

import numpy as np
import pytest

from hypermatch.counting import PMOracle, count_pm, phi_complete
from hypermatch.entropy import EdgeWeights, as_verified, max_entropy_fpm
from hypermatch.errors import InvalidArgumentError
from hypermatch.greedy import (
    PICK_BLOCK,
    TrajectoryConfig,
    centers,
    resolve_tracked_sets,
    run_greedy,
    trajectory_deviation,
    trajectory_metadata,
    write_trajectory_csv,
)
from hypermatch.hypergraph import DiracParams, gen_complete, gen_random_dirac
from hypermatch.seeds import rng_from


def pm_indicator(G, pm):
    w = np.zeros(G.num_edges)
    w[list(pm)] = 1.0
    return as_verified(G, EdgeWeights.from_weights(G, w))


class TestRunGreedy:
    def test_k6_always_two_steps(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        for seed in range(10):
            traj = run_greedy(G, x, TrajectoryConfig(), seed=seed)
            assert traj.steps == 2
            assert traj.stop_reason == "no-positive-weight-edge"
            # every vertex is gone after the second step
            assert np.isnan(traj.tracked_degrees).all(axis=1).tolist() == [False, False, True]

    def test_indicator_selects_the_matching(self):
        G = gen_complete(9, 3)
        pm = PMOracle(G).sample(rng_from(42))
        x = pm_indicator(G, pm)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=3)
        assert sorted(traj.chosen.tolist()) == sorted(pm)
        assert traj.steps == 3

    def test_seed_determinism_golden(self):
        # frozen chosen-edge sequence for (K_9^{(3)}, solver weights, seed 123)
        G = gen_complete(9, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=123)
        assert traj.chosen.tolist() == [57, 3, 71]
        again = run_greedy(G, x, TrajectoryConfig(), seed=123)
        assert again.chosen.tolist() == traj.chosen.tolist()
        assert again.residual_weight.tolist() == traj.residual_weight.tolist()

    def test_chosen_edges_pairwise_disjoint(self):
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=9)
        seen = set()
        for eid in traj.chosen:
            edge = set(G.edges[int(eid)])
            assert not edge & seen
            seen |= edge

    def test_monotone_and_strictly_decreasing_statistics(self):
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=4)
        w = traj.residual_weight
        e = traj.residual_entropy
        assert all(w[i + 1] < w[i] for i in range(len(w) - 1) if w[i] > 0)
        assert all(e[i + 1] <= e[i] + 1e-12 for i in range(len(e) - 1))

    def test_residual_graph_consistency(self):
        # the recorded residual weight equals a from-scratch sum over the
        # edges disjoint from the chosen prefix, at every step
        G = gen_complete(9, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=6)
        for i in range(traj.steps + 1):
            killed = set()
            for eid in traj.chosen[:i]:
                killed.update(G.edges[int(eid)])
            expected = sum(
                float(x.weights[j])
                for j, e in enumerate(G.edges)
                if not killed & set(e)
            )
            assert traj.residual_weight[i] == pytest.approx(expected, abs=1e-12)

    def test_freeze_leaves_zero_weight(self):
        G = gen_complete(9, 3)
        x = pm_indicator(G, PMOracle(G).sample(rng_from(1)))
        traj = run_greedy(G, x, TrajectoryConfig(), seed=0)
        assert traj.stop_reason == "no-positive-weight-edge"
        assert traj.residual_weight[-1] == pytest.approx(0.0, abs=1e-15)

    def test_stop_fraction_limits_steps(self):
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(stop_fraction=0.5), seed=0)
        assert traj.steps == 2
        assert traj.stop_reason == "step-limit"

    def test_requires_verified_weights(self):
        G = gen_complete(6, 3)
        raw = EdgeWeights.from_weights(G, np.full(20, 0.05))
        with pytest.raises(InvalidArgumentError):
            run_greedy(G, raw, TrajectoryConfig(), seed=0)

    def test_complete_graph_residuals_match_closed_forms(self):
        # on K_n^(k) with uniform weights every step deletes k vertices, so
        # the residuals are exact: C(n-ki,k)/C(n,k) times the initial weight
        # and entropy, and every alive set S keeps C(n-ki-|S|, k-|S|) edges
        n, k = 30, 3
        G = gen_complete(n, k)
        uniform = np.full(G.num_edges, (n / k) / math.comb(n, k))
        x = as_verified(G, EdgeWeights.from_weights(G, uniform))
        cfg = TrajectoryConfig(stop_fraction=0.8, sampled_sets_per_size=20)
        traj = run_greedy(G, x, cfg, seed=0)
        assert traj.steps == int(0.8 * n / k)
        for i in range(traj.steps + 1):
            survival = math.perm(n - k * i, k) / math.perm(n, k)
            assert traj.residual_weight[i] == pytest.approx(survival * n / k, rel=1e-9)
            assert traj.residual_entropy[i] == pytest.approx(survival * x.entropy, rel=1e-9)
            alive = 0
            for s_idx, S in enumerate(traj.tracked_sets):
                deg = traj.tracked_degrees[i, s_idx]
                if np.isnan(deg):
                    continue
                alive += len(S) == 1
                want = math.comb(n - k * i - len(S), k - len(S))
                assert deg == pytest.approx(want, rel=1e-9)
            assert alive == n - k * i

    @pytest.mark.parametrize("quota", [-1, 2.5])
    def test_sampled_sets_per_size_must_be_a_non_negative_int(self, quota):
        with pytest.raises(InvalidArgumentError):
            TrajectoryConfig(sampled_sets_per_size=quota)

    def test_tracked_set_resolution_is_deterministic(self):
        G = gen_complete(12, 3)
        cfg = TrajectoryConfig(sampled_sets_per_size=5)
        assert resolve_tracked_sets(G, cfg) == resolve_tracked_sets(G, cfg)
        sets = resolve_tracked_sets(G, cfg)
        assert sum(len(s) == 1 for s in sets) == 12
        assert sum(len(s) == 2 for s in sets) == 5


def reference_run(G, x, cfg, seed, stream=()):
    """The process as a full cumulative sum over all edges per step, with
    hash-based deletion and per-set Python intersections; run_greedy must
    reproduce its picks and records."""
    n, k, m = G.n, G.k, G.num_edges
    rng = rng_from(seed, *stream)
    tracked = resolve_tracked_sets(G, cfg)
    edge_verts = np.array(G.edges, dtype=np.intp).reshape(m, k)
    w = x.weights.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(w > 0, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    w_alive = w.copy()
    alive_e = np.ones(m, dtype=bool)
    alive_v = np.ones(n, dtype=bool)
    deg_v = np.array([len(G.incident(v)) for v in range(n)], dtype=float)
    big_edges = {}
    for idx, S in enumerate(tracked):
        if len(S) > 1:
            ids = set(G.incident(S[0]))
            for v in S[1:]:
                ids.intersection_update(G.incident(v))
            big_edges[idx] = np.array(sorted(ids), dtype=np.intp)
    max_steps = n // k
    if cfg.stop_fraction is not None:
        max_steps = min(max_steps, int(math.floor(cfg.stop_fraction * n / k + 1e-9)))
    out = {"chosen": [], "logprob": [], "weight": [], "entropy": [], "degrees": []}

    def record():
        out["weight"].append(float(w_alive.sum()))
        out["entropy"].append(float(ent[alive_e].sum()))
        degs = np.full(len(tracked), np.nan)
        for idx, S in enumerate(tracked):
            if len(S) == 1:
                if alive_v[S[0]]:
                    degs[idx] = deg_v[S[0]]
            elif all(alive_v[v] for v in S):
                degs[idx] = float(alive_e[big_edges[idx]].sum())
        out["degrees"].append(degs)

    record()
    out["stop"] = "no-positive-weight-edge"
    while len(out["chosen"]) < max_steps:
        cumulative = np.cumsum(w_alive)
        total = float(cumulative[-1]) if m else 0.0
        if total <= 0.0:
            break
        r = rng.random() * total
        pick = int(np.searchsorted(cumulative, r, side="right"))
        while pick < m and (not alive_e[pick] or w[pick] <= 0.0):
            pick += 1
        if pick >= m:
            pick = int(np.nonzero(alive_e & (w > 0))[0][-1])
        out["logprob"].append(math.log(w[pick] / total))
        out["chosen"].append(pick)
        verts = edge_verts[pick]
        cand = np.concatenate([np.array(G.incident(int(v)), dtype=np.intp) for v in verts])
        newly = np.unique(cand[alive_e[cand]])
        alive_e[newly] = False
        w_alive[newly] = 0.0
        np.add.at(deg_v, edge_verts[newly].ravel(), -1.0)
        alive_v[verts] = False
        record()
    else:
        if int(alive_e.sum()) and float(w_alive.sum()) > 0:
            out["stop"] = "step-limit"
    return out


def assert_matches_reference(G, x, cfg, seed):
    traj = run_greedy(G, x, cfg, seed)
    ref = reference_run(G, x, cfg, seed)
    assert traj.chosen.tolist() == ref["chosen"]
    assert traj.residual_weight.tobytes() == np.array(ref["weight"]).tobytes()
    assert traj.residual_entropy.tobytes() == np.array(ref["entropy"]).tobytes()
    assert np.array_equal(traj.tracked_degrees, np.array(ref["degrees"]), equal_nan=True)
    assert traj.stop_reason == ref["stop"]
    np.testing.assert_allclose(traj.step_logprob, ref["logprob"], rtol=1e-12, atol=0.0)
    return traj


def mixed_matchings(G, count, seed):
    """Average of ``count`` random perfect-matching indicators: most weights are 0."""
    rng = rng_from(seed)
    w = np.zeros(G.num_edges)
    for _ in range(count):
        perm = rng.permutation(G.n)
        for j in range(0, G.n, G.k):
            w[G.edges.index(tuple(sorted(perm[j: j + G.k].tolist())))] += 1.0 / count
    return as_verified(G, EdgeWeights.from_weights(G, w))


class TestBlockedPickMatchesFullCumsum:
    def test_complete_graph_with_pair_tracking(self):
        G = gen_complete(30, 3)
        assert G.num_edges % PICK_BLOCK != 0
        x, _ = max_entropy_fpm(G)
        for seed in range(5):
            traj = assert_matches_reference(G, x, TrajectoryConfig(), seed)
            assert traj.steps == 10

    def test_complete_graph_golden_picks(self):
        # chosen edges of K_30^(3), solver weights, default config, recorded
        # from the full-cumsum implementation
        golden = {
            0: [2586, 1008, 130, 464, 3790, 3890, 2907, 3199, 1916, 1381],
            1: [2077, 3862, 455, 3732, 1119, 1848, 3191, 1552, 2400, 337],
            2: [1062, 1424, 3231, 233, 2389, 2693, 665, 1472, 2148, 2825],
            3: [347, 1208, 3452, 2545, 641, 1929, 2130, 1059, 3674, 1727],
            4: [3828, 1889, 3950, 187, 2154, 1140, 3185, 580, 3589, 901],
        }
        G = gen_complete(30, 3)
        x, _ = max_entropy_fpm(G)
        for seed, chosen in golden.items():
            assert run_greedy(G, x, TrajectoryConfig(), seed=seed).chosen.tolist() == chosen

    def test_dirac_graph_with_pair_tracking(self):
        G = gen_random_dirac(30, 3, DiracParams(2, 0.2), 0.9, seed=1, max_attempts=1)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig(stop_fraction=0.8, sampled_sets_per_size=50)
        for seed in range(5):
            traj = assert_matches_reference(G, x, cfg, seed)
            assert sum(len(S) == 2 for S in traj.tracked_sets) == 50

    def test_zero_weight_edges_run_to_the_freeze(self):
        G = gen_complete(30, 3)
        x = mixed_matchings(G, 3, seed=11)
        assert (x.weights > 0).sum() <= 30
        stops = set()
        for seed in range(8):
            traj = assert_matches_reference(G, x, TrajectoryConfig(), seed)
            stops.add(traj.stop_reason)
        assert "no-positive-weight-edge" in stops

    def test_fewer_edges_than_one_block(self):
        G = gen_complete(9, 3)
        assert G.num_edges < PICK_BLOCK
        x, _ = max_entropy_fpm(G)
        for seed in range(10):
            assert_matches_reference(G, x, TrajectoryConfig(), seed)

    def test_mixed_size_tracked_sets(self):
        # K_12^(4) tracks 12 singletons, all 66 pairs and 100 sampled triples
        G = gen_complete(12, 4)
        x, _ = max_entropy_fpm(G)
        traj = assert_matches_reference(G, x, TrajectoryConfig(), seed=2)
        sizes = [len(S) for S in traj.tracked_sets]
        assert [sizes.count(size) for size in (1, 2, 3)] == [12, 66, 100]
        # the degree deviation as a per-set loop over brute-force degrees in G
        p = (3 - np.arange(traj.steps + 1)) / 3
        devs = []
        for s_idx, S in enumerate(traj.tracked_sets):
            deg = sum(set(S) <= set(e) for e in G.edges)
            assert traj.tracked_degrees[0, s_idx] == deg == math.comb(12 - len(S), 4 - len(S))
            pred = p ** (4 - len(S)) * deg
            obs = traj.tracked_degrees[:, s_idx]
            ok = ~np.isnan(obs) & (pred > 0)
            devs.append(float(np.max(np.abs(obs[ok] - pred[ok]) / pred[ok])))
        report = trajectory_deviation(traj, G, x, horizon_fraction=1.0)
        assert report["max_degree_deviation"] == max(devs) > 0.0


def drawn_sets(n, size, quota):
    """The sampled tracked sets as every run used to draw them: a fresh
    rejection loop on stream (0, size)."""
    rng = rng_from(0, size)
    chosen = set()
    while len(chosen) < quota:
        chosen.add(tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False))))
    return sorted(chosen)


class TestTrackedSetCache:
    def test_pairs_of_fifteen_vertices_equal_a_fresh_draw(self):
        # 100 of the C(15, 2) = 105 pairs, on two graphs with the same n
        K = gen_complete(15, 3)
        D = gen_random_dirac(15, 3, DiracParams(2, 0.2), 0.95, seed=7)
        cfg = TrajectoryConfig()
        want = drawn_sets(15, 2, 100)
        for G in (K, D, K):
            sets = resolve_tracked_sets(G, cfg)
            assert list(sets[:15]) == [(v,) for v in range(15)]
            assert list(sets[15:]) == want
        assert resolve_tracked_sets(K, cfg) == resolve_tracked_sets(D, cfg)

    def test_triples_of_k12_4_equal_a_fresh_draw(self):
        G = gen_complete(12, 4)
        for quota in (100, 7, 0, 100):
            sets = resolve_tracked_sets(G, TrajectoryConfig(sampled_sets_per_size=quota))
            pairs = [S for S in sets if len(S) == 2]
            triples = [S for S in sets if len(S) == 3]
            all_pairs = list(itertools.combinations(range(12), 2))
            assert pairs == (all_pairs if quota >= 66 else drawn_sets(12, 2, quota))
            assert triples == drawn_sets(12, 3, quota)


TRAJECTORY_FIELDS = (
    "chosen", "step_logprob", "residual_weight", "residual_entropy",
    "tracked_degrees",
)


def trajectory_digest(G, x, cfg):
    """sha256 over the raw bytes of every recorded array of seeds 0-2."""
    digest = hashlib.sha256()
    for seed in range(3):
        traj = run_greedy(G, x, cfg, seed)
        for field in TRAJECTORY_FIELDS:
            digest.update(getattr(traj, field).tobytes())
    return digest.hexdigest()


class TestPinnedTrajectoryBytes:
    """Seeds 0-2 of four runs, pinned to the bit; assert_matches_reference
    compares step_logprob only to rtol 1e-12."""

    def test_k60_stop_08_without_sampled_sets(self):
        G = gen_complete(60, 3)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig(stop_fraction=0.8, sampled_sets_per_size=0)
        assert trajectory_digest(G, x, cfg) == (
            "7284b0674482d66aee59dd359e78f3a647248d52023bc150910d15038e188a29"
        )

    def test_dirac_60_with_default_tracking(self):
        G = gen_random_dirac(60, 3, DiracParams(2, 0.2), 0.9, seed=1)
        x, _ = max_entropy_fpm(G)
        assert trajectory_digest(G, x, TrajectoryConfig()) == (
            "3b2bdd7e1f892692c283418ecb41e40d2fe0fb5f74790dd86a57300a0a157ab7"
        )

    def test_k30_matching_mixture_to_the_freeze(self):
        G = gen_complete(30, 3)
        x = mixed_matchings(G, 3, seed=11)
        assert trajectory_digest(G, x, TrajectoryConfig()) == (
            "f83639e909750c01c4d9be221424c25e98781fed47de8219c62107c2afd2f829"
        )

    def test_k12_4(self):
        G = gen_complete(12, 4)
        x, _ = max_entropy_fpm(G)
        assert trajectory_digest(G, x, TrajectoryConfig()) == (
            "ce07f352c16f241ab04542918ada6bcdf55ac0d7a0fca1518a4c0307d555350c"
        )


class TestKnuthEstimator:
    """A run to the freeze that makes n/k steps outputs an ordered perfect
    matching with probability exp(sum step_logprob), and every ordered
    matching is reachable when x > 0 on every edge, so
    E[exp(-sum step_logprob) 1{n/k steps}] = (n/k)! Phi(G) (Knuth, Math.
    Comp. 1975)."""

    @pytest.mark.parametrize("n", [6, 9, 12, 15, 18])
    def test_complete_graph_is_exact(self, n):
        # uniform x: step i picks among C(n - 3i, 3) equal edges
        G = gen_complete(n, 3)
        x, _ = max_entropy_fpm(G)
        want = math.log(math.factorial(n // 3) * phi_complete(n, 3).value)
        for seed in range(3):
            traj = run_greedy(G, x, TrajectoryConfig(sampled_sets_per_size=0), seed)
            assert traj.steps == n // 3
            assert -traj.step_logprob.sum() == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_random_dirac_graph_is_unbiased(self):
        G = gen_random_dirac(15, 3, DiracParams(2, 0.2), 0.95, seed=7)
        x, _ = max_entropy_fpm(G)
        assert (x.weights > 0).all()
        scale = math.factorial(5) * count_pm(G).value
        cfg = TrajectoryConfig(sampled_sets_per_size=0)
        ratios = np.zeros(3000)
        neg_logp = []
        for seed in range(ratios.size):
            traj = run_greedy(G, x, cfg, seed)
            if traj.steps == 5:
                neg_logp.append(-float(traj.step_logprob.sum()))
                ratios[seed] = math.exp(neg_logp[-1]) / scale
        mean, se = ratios.mean(), ratios.std(ddof=1) / math.sqrt(ratios.size)
        print(
            f"Knuth ratio {mean:.4f} +/- {se:.4f} over {len(neg_logp)} completed runs; "
            f"mean -sum step_logprob {np.mean(neg_logp):.4f} against "
            f"h(x) - (1 - 1/k) n + ln (n/k)! = "
            f"{x.entropy - (1 - 1 / 3) * 15 + math.lgamma(6):.4f}"
        )
        assert len(neg_logp) > 2500
        assert abs(mean - 1.0) <= 4 * se


class TestCenters:
    def test_step_zero_matches_initial_values(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        p, weight, entropy = centers(G, x, 0)
        assert p == 1.0
        assert weight == pytest.approx(2.0)
        assert entropy == pytest.approx(x.entropy)

    def test_final_step_is_zero(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        p, weight, entropy = centers(G, x, 2)
        assert p == weight == entropy == 0.0

    def test_k6_weight_center_after_one_step(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        p, weight, _ = centers(G, x, 1)
        assert p == 0.5 and weight == pytest.approx(0.25)

    @pytest.mark.parametrize("steps", [3, -1, np.arange(4)])
    def test_range_check(self, steps):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        with pytest.raises(InvalidArgumentError):
            centers(G, x, steps)

    def test_array_of_steps_equals_one_at_a_time(self):
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        p, weight, entropy = centers(G, x, np.arange(5))
        for i in range(5):
            assert (p[i], weight[i], entropy[i]) == centers(G, x, i)

    def test_module_docstring_finite_size_error(self):
        # k(k-1)(1 - p(i)) / (2 p(i) n) at n = 60, k = 3, i = 0.8 n/3, where p(i) = 0.2
        assert 3 * 2 * (1 - (20 - 16) / 20) / (2 * (20 - 16) / 20 * 60) == pytest.approx(0.20)

    def test_centers_agree_across_reports(self, tmp_path):
        # centers, trajectory_deviation and the trajectory CSV all use
        # p(i)^k (n/k) and p(i)^k h(x)
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=2)
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj, G, x)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        report = trajectory_deviation(traj, G, x, horizon_fraction=0.75)
        assert len(rows) == traj.steps + 1 == 5
        deviations = []
        for i, row in enumerate(rows):
            p = (4 - i) / 4
            _, weight, entropy = centers(G, x, i)
            assert (weight, entropy) == (p**3 * 4, p**3 * x.entropy)
            assert [row[3], row[5]] == [repr(weight), repr(entropy)]
            if i < 4:
                deviations.append(abs(traj.residual_entropy[i] - entropy) / entropy)
        assert report["max_entropy_deviation"] == max(deviations)


class TestTrajectoryDeviation:
    def test_zero_deviation_at_step_zero(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=1)
        report = trajectory_deviation(traj, G, x, horizon_fraction=0.0)
        assert report["max_weight_deviation"] == pytest.approx(0.0, abs=1e-12)
        assert report["max_entropy_deviation"] == pytest.approx(0.0, abs=1e-12)

    def test_indicator_weights_deviate_badly(self):
        # residual weight of an indicator decays linearly, far off the p^k center
        G = gen_complete(9, 3)
        x = pm_indicator(G, PMOracle(G).sample(rng_from(8)))
        traj = run_greedy(G, x, TrajectoryConfig(), seed=5)
        report = trajectory_deviation(traj, G, x, horizon_fraction=0.67)
        assert report["max_weight_deviation"] > 0.5

    def test_graph_mismatch_rejected(self):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(), seed=1)
        H = gen_complete(9, 3)
        y, _ = max_entropy_fpm(H)
        with pytest.raises(InvalidArgumentError):
            trajectory_deviation(traj, H, y)


class TestSamplePM:
    def test_per_step_entropy_formula_variants(self):
        """The per-step choice entropy matches h/(n/k) + ln(n/k) + k ln p(i),
        not the variant with k on the ln(n/k) term."""
        G = gen_complete(12, 3)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig(stop_fraction=0.75, sampled_sets_per_size=0)
        steps = 3
        acc = np.zeros(steps)
        cnt = np.zeros(steps)
        for seed in range(300):
            traj = run_greedy(G, x, cfg, seed=seed)
            for i, lp in enumerate(traj.step_logprob):
                acc[i] += -lp
                cnt[i] += 1
        mc = acc / cnt
        n, k, h = 12, 3, x.entropy
        err_a = err_b = 0.0
        for i in range(steps):
            p = (n / k - i) / (n / k)
            variant_a = h / (n / k) + k * math.log(n / k) + math.log(p)
            variant_b = h / (n / k) + math.log(n / k) + k * math.log(p)
            err_a += abs(mc[i] - variant_a)
            err_b += abs(mc[i] - variant_b)
        assert err_b < err_a
        assert err_b / steps < 0.2


class TestTrajectoryFiles:
    def test_csv_and_metadata_round_trip(self, tmp_path):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig(sampled_sets_per_size=2)
        traj = run_greedy(G, x, cfg, seed=5)
        csv_path = tmp_path / "traj.csv"
        write_trajectory_csv(str(csv_path), traj, G, x, header_comments=["unit test"])
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:6] == [
            "i", "chosen_edge", "residual_weight", "predicted_weight",
            "residual_entropy", "predicted_entropy",
        ]
        assert len(header) == 6 + len(traj.tracked_sets)
        assert len(lines) == traj.steps + 2
        row0 = lines[1].split(",")
        assert row0[1] == ""  # no edge chosen before step 1
        assert float(row0[2]) == pytest.approx(2.0)

        meta = trajectory_metadata(traj)
        assert meta["graph_digest"] == G.digest()
        assert meta["seed"] == 5
        assert meta["stop_reason"] == traj.stop_reason

    def test_metadata_keeps_the_fixed_tracking_keys(self):
        # the tracking policy is fixed; its three keys keep the metadata layout
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        traj = run_greedy(G, x, TrajectoryConfig(sampled_sets_per_size=2), seed=5)
        assert trajectory_metadata(traj)["config"] == {
            "c": 0.05,
            "sampled_sets_per_size": 2,
            "stop_fraction": None,
            "track_singletons": True,
            "tracked_sets": None,
            "tracking_seed": 0,
        }

    def test_csv_bytes_deterministic(self, tmp_path):
        G = gen_complete(6, 3)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig()
        paths = []
        for rep in range(2):
            traj = run_greedy(G, x, cfg, seed=7)
            path = tmp_path / f"t{rep}.csv"
            write_trajectory_csv(str(path), traj, G, x)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
