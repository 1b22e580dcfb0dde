"""Acceptance suite: one callable per criterion, used by tests and the CLI.

Each criterion returns a CriterionResult with a pass/fail verdict at its
pinned tolerance and a details string: its body returns (passed, details)
and the ``_criterion`` decorator times it.  ``run_all`` executes the whole
gate; the ``quick`` flag shrinks trial counts for smoke runs (the gate is
the full run).

Criterion 6 compares mean greedy trajectories on complete 3-graphs with
their exact finite-n centers.  On K_n^(k) every step deletes k vertices, so
after i steps the surviving edges are those inside the n - k i remaining
vertices: residual weight and entropy are C(n-ki, k)/C(n, k) times their
initial values and each alive set S keeps (n-ki-|S|)_{k-|S|}/(n-|S|)_{k-|S|}
of its degree.  The paper's centers p(i)^k (n/k), p(i)^k h(x) and
p(i)^{k-|S|} deg(S) (``greedy.centers``) hold to leading order only,
with a relative finite-size error of about k(k-1)(1-p(i))/(2 p(i) n); the
criterion reports that gap for each n and asserts that it strictly shrinks
as n grows.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from math import comb, perm

import numpy as np

from .bipartite import certify_entropy_lower_bound
from .counting import (
    PMOracle,
    count_pm,
    entropy_identities_check,
    phi_complete,
    sample_uniform_pms,
)
from .entropy import (
    EdgeWeights,
    as_verified,
    convex_combine,
    dual_value,
    jensen_bounds,
    ln_phi_entropy_route,
    max_entropy_fpm,
    vertex_sums,
    well_distributed_factor,
)
from .errors import GenerationError
from .greedy import TrajectoryConfig, centers, run_greedy
from .hypergraph import DiracParams, Hypergraph, gen_complete, gen_random_dirac
from .seeds import rng_from
from .shifting import (
    anneal_and_shift,
    auto_anneal_params,
    find_shifting_structure,
    partner_edges,
    shift_gain_lower_bound,
    apply_shift,
    well_distributed_fpm,
)

COMPLETE_FAMILY = [(4, 2), (6, 2), (8, 2), (10, 2), (6, 3), (9, 3), (12, 3), (8, 4)]


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    elapsed: float

    def summary_line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name} ({self.elapsed:.1f}s): {self.details}"


def _criterion(name: str):
    """Make a function returning (passed, details) return a timed CriterionResult."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> CriterionResult:
            start = time.time()
            passed, details = fn(*args, **kwargs)
            return CriterionResult(name, passed, details, time.time() - start)

        return run

    return wrap


def _random_dirac_instances(
    n_values, k, d, gamma, density, base_seed, quota, max_seeds=400
) -> list[Hypergraph]:
    out: list[Hypergraph] = []
    seed = base_seed
    while len(out) < quota and seed < base_seed + max_seeds:
        n = n_values[len(out) % len(n_values)]
        try:
            out.append(gen_random_dirac(n, k, DiracParams(d, gamma), density, seed))
        except GenerationError:
            pass
        seed += 1
    if len(out) < quota:
        raise GenerationError(f"could only generate {len(out)}/{quota} Dirac instances")
    return out


def _complete_minus_pm(n: int, k: int, seed: int) -> Hypergraph:
    """Complete graph minus one uniform random perfect matching (stays dense)."""
    G = gen_complete(n, k)
    pm = PMOracle(G).sample(rng_from(seed))
    return Hypergraph(k, n, np.delete(G.edge_verts, pm, axis=0))


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------


@_criterion("1 exact-count oracle")
def criterion_1_exact_counts():
    """count_pm on complete graphs equals the closed form; runtime < 10 s."""
    lines = []
    ok = True
    start = time.time()
    for n, k in COMPLETE_FAMILY:
        got = count_pm(gen_complete(n, k)).value
        want = phi_complete(n, k).value
        if got != want:
            ok = False
            lines.append(f"K_{n}^({k}): {got} != {want}")
    elapsed = time.time() - start
    if elapsed >= 10.0:
        ok = False
        lines.append(f"runtime {elapsed:.1f}s >= 10s")
    return ok, "; ".join(lines) if lines else f"8 exact matches in {elapsed:.2f}s"


@_criterion("2 max-entropy solver symmetry")
def criterion_2_solver_on_complete():
    """Solver entropy equals (n/k) ln C(n-1, k-1) within 1e-6, residuals <= 1e-8."""
    worst_h = 0.0
    worst_r = 0.0
    for n, k in COMPLETE_FAMILY:
        x, report = max_entropy_fpm(gen_complete(n, k))
        want = (n / k) * math.log(comb(n - 1, k - 1))
        worst_h = max(worst_h, abs(x.entropy - want))
        worst_r = max(worst_r, report.max_residual)
    ok = worst_h <= 1e-6 and worst_r <= 1e-8
    return ok, f"max |h - closed form| = {worst_h:.2e}, max residual = {worst_r:.2e}"


@_criterion("3 Jensen sandwich")
def criterion_3_jensen_sandwich(quota: int = 100):
    """Jensen bounds sandwich solver entropy on random Dirac instances."""
    instances: list[Hypergraph] = []
    instances += _random_dirac_instances([8, 10, 12, 14], 2, 1, 0.2, 0.9, 3000, quota // 2)
    instances += _random_dirac_instances([9, 12, 15], 3, 2, 0.2, 0.92, 4000, quota - quota // 2)
    violations = 0
    margin_low = math.inf
    margin_high = math.inf
    for G in instances:
        x, report = max_entropy_fpm(G)
        L = float(x.weights.max())
        upper, lower = jensen_bounds(G, L)
        if not (lower <= x.entropy <= upper):
            violations += 1
        margin_low = min(margin_low, x.entropy - lower)
        margin_high = min(margin_high, upper - x.entropy)
    ok = violations == 0 and len(instances) >= quota
    return ok, (
        f"{len(instances)} instances, {violations} violations; "
        f"min slack lower {margin_low:.3g}, upper {margin_high:.3g}"
    )


@_criterion("4 shift correctness")
def criterion_4_shift_correctness(count: int = 1000):
    """Vertex sums conserved to 1e-12 and gains clear the bound - 1e-9."""
    graphs = [gen_complete(9, 3), gen_complete(8, 2), gen_complete(8, 4),
              gen_complete(12, 3)]
    solved = [(G, max_entropy_fpm(G)[0], PMOracle(G)) for G in graphs]
    rng = rng_from(777)
    worst_drift = 0.0
    worst_gap = math.inf
    done = 0
    attempts = 0
    while done < count and attempts < 50 * count:
        attempts += 1
        G, x_base, oracle = solved[attempts % len(solved)]
        t = 0.5 * float(rng.random())
        pm = oracle.sample(rng)
        ind = np.zeros(G.num_edges)
        ind[list(pm)] = 1.0
        x_pm = as_verified(G, EdgeWeights.from_weights(G, ind))
        x = convex_combine(x_base, x_pm, t)
        e_id = int(rng.integers(0, G.num_edges))
        partners = partner_edges(G, e_id)
        if not partners.size:
            continue
        f_id = int(partners[int(rng.integers(0, partners.size))])
        structure = find_shifting_structure(G, e_id, f_id)
        if structure is None:
            continue
        w = x.weights
        min_e = min(float(w[i]) for i in structure.e_ids)
        max_f = max(float(w[i]) for i in structure.f_ids)
        if min_e <= 0:
            continue
        delta = 0.45 * min_e * float(rng.random())
        eta = max_f + delta + 0.01
        if max_f + delta > 1.0:
            continue
        bound = shift_gain_lower_bound(x, structure, delta, eta)
        before = vertex_sums(G, x.weights)
        shifted = apply_shift(x, structure, delta)
        drift = float(np.abs(vertex_sums(G, shifted.weights) - before).max())
        gap = (shifted.entropy - x.entropy) - bound
        worst_drift = max(worst_drift, drift)
        worst_gap = min(worst_gap, gap)
        done += 1
    ok = done == count and worst_drift <= 1e-12 and worst_gap >= -1e-9
    return ok, (
        f"{done} shifts; max vertex-sum drift {worst_drift:.2e}; "
        f"min (gain - bound) = {worst_gap:.3g}"
    )


def _anneal_regime(G, x_adv, x_hat, C, failures, label, **regime):
    """One criterion-5 run; a miss of min weight >= delta or factor <= D (unless
    search-exhausted) goes to ``failures``.  Returns (shifts, decreasing steps,
    net entropy gain, search-exhausted) and the heavy threshold D/n^(k-1)."""
    params = auto_anneal_params(G, 0.5, 0.9, C, max_steps=40000, **regime)
    x_final, log = anneal_and_shift(G, x_adv, x_hat, params)
    flagged = log.termination == "search-exhausted"
    min_w = float(x_final.weights.min())
    factor = well_distributed_factor(G, x_final)
    if not (min_w >= params.delta - 1e-15 and (factor <= params.D or flagged)):
        failures.append(
            f"{label}: min_w={min_w:.3g} factor={factor:.3g} D={params.D:.3g} term={log.termination}"
        )
    decreasing = sum(s.entropy_after < s.entropy_before - 1e-12 for s in log.steps)
    net_gain = x_final.entropy >= log.start_entropy - 1e-12
    return (len(log.steps), decreasing, net_gain, flagged), params.high_threshold(G)


@_criterion("5 anneal monotonicity and output contract")
def criterion_5_anneal_contract(instances: int = 20):
    """Monotone entropy, min weight >= delta, factor <= D or flagged.

    Runs the validated-parameter regime (auto-shrunk epsilon until the
    entropy-gain inequality holds, where every shift provably gains) for the
    asserted clauses, then an active regime (termination-validated only)
    whose guaranteed clauses are asserted and whose per-step monotonicity
    rate is reported: at desk scale active runs can and do take
    negative-gain steps.
    """
    gen_params = DiracParams(2, 0.2)
    graphs = _random_dirac_instances([9, 12, 15], 3, 2, 0.2, 0.95, 5000, instances)
    # per regime: shifts, decreasing steps, runs with net entropy gain, flags
    tally = np.zeros((2, 4), dtype=np.int64)
    failures, thresholds = [], []
    for idx, G in enumerate(graphs):
        pms = sample_uniform_pms(G, 9000 + idx, 3)
        w = np.zeros(G.num_edges)
        for pm in pms:
            w[list(pm)] += 1.0 / len(pms)
        x_adv = as_verified(G, EdgeWeights.from_weights(G, w))
        x_hat, _ = well_distributed_fpm(G, gen_params, seed=9100 + idx, trials=3000)
        C = max(1.0, well_distributed_factor(G, x_hat))
        counts, threshold = _anneal_regime(G, x_adv, x_hat, C, failures, f"instance {idx}",
                                           require_positive_gain=True)
        tally[0] += counts
        thresholds.append(threshold)
        tally[1] += _anneal_regime(G, x_adv, x_hat, C, failures, f"instance {idx} (active)",
                                   require_termination=True)[0]
    (steps, mono_viol, net_gain_ok, flags), active_tally = tally.tolist()
    active_steps, active_mono_viol, active_net_gain_ok, active_flags = active_tally
    # the validated regime asserts monotone entropy on every run
    if mono_viol or net_gain_ok < len(graphs):
        failures.append(
            f"validated regime: {mono_viol} decreasing steps, net gain on {net_gain_ok}/{len(graphs)}"
        )
    ok = not failures
    shifts = [f"{s} shifts" + " (vacuous)" * (s == 0) for s in (steps, active_steps)]
    detail = (
        f"{len(graphs)} instances; validated regime: {shifts[0]}, all clauses hold, "
        f"search-exhausted rate {flags}/{len(graphs)}; active regime: "
        f"{shifts[1]}, {active_mono_viol} decreasing steps (reported), "
        f"net entropy gain on {active_net_gain_ok}/{len(graphs)}, "
        f"flag rate {active_flags}/{len(graphs)}; validated-regime min D/n^(k-1) "
        f"{min(thresholds):.4g} (weights are <= 1)"
    )
    if failures:
        detail += " | FAILURES: " + "; ".join(failures)
    return ok, detail


def _complete_survival(n: int, k: int, i: int, s: int = 0) -> float:
    """Share of the edges through an alive s-set of K_n^(k) left after i steps.

    The survivors are the edges inside the n - k i alive vertices, so the
    share is (n-ki-s)_{k-s} / (n-s)_{k-s}; s = 0 gives C(n-ki, k)/C(n, k).
    """
    return perm(n - k * i - s, k - s) / perm(n - s, k - s)


@_criterion("6 greedy trajectory concentration")
def criterion_6_greedy_concentration(seeds: int = 200):
    """Mean trajectories vs exact finite-n centers at 10% / 10% / 15%.

    Also reports the largest gap |asymptotic - exact| / asymptotic between
    the paper's centers and the exact ones per n, which must strictly shrink
    from n = 60 to 90 to 120 (see module doc), and the largest across-seed
    relative spread of residual weight and entropy (0 up to rounding on K_n).
    """
    start = time.time()
    per_n = []
    gaps = []
    spread = np.zeros(2)
    ok = True
    for n in (60, 90, 120):
        G = gen_complete(n, 3)
        x, _ = max_entropy_fpm(G)
        cfg = TrajectoryConfig(stop_fraction=0.8, sampled_sets_per_size=0)
        i_max = int(0.8 * n / 3)
        deg_sum = np.zeros((i_max + 1, n))
        deg_cnt = np.zeros((i_max + 1, n))
        runs = []
        for s in range(seeds):
            traj = run_greedy(G, x, cfg, seed=s)
            runs.append((traj.residual_weight[: i_max + 1], traj.residual_entropy[: i_max + 1]))
            degs = traj.tracked_degrees[: i_max + 1]
            alive = ~np.isnan(degs)
            deg_sum[alive] += degs[alive]
            deg_cnt += alive
        mean_w, mean_e = np.mean(runs, axis=0)
        spread = np.maximum(spread, (np.ptp(runs, axis=0) / [mean_w, mean_e]).max(axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_d = np.where(deg_cnt > 0, deg_sum / np.maximum(deg_cnt, 1), np.nan)
        steps = range(i_max + 1)
        p, asym_w, asym_e = centers(G, x, np.arange(i_max + 1))
        # every vertex of K_n has the same degree, so vertex 0 stands for all
        asym_d = p ** (G.k - 1) * G.degrees[0]
        survival = np.array([_complete_survival(n, 3, i) for i in steps])
        survival_d = np.array([_complete_survival(n, 3, i, 1) for i in steps])
        exact_w = survival * asym_w[0]
        exact_e = survival * asym_e[0]
        exact_d = survival_d * asym_d[0]
        dev_w = float(np.max(np.abs(mean_w - exact_w) / exact_w))
        dev_e = float(np.max(np.abs(mean_e - exact_e) / exact_e))
        dev_d = float(np.nanmax(np.abs(mean_d - exact_d[:, None]) / exact_d[:, None]))
        gap = max(
            float(np.max(np.abs(a - b) / a))
            for a, b in ((asym_w, exact_w), (asym_e, exact_e), (asym_d, exact_d))
        )
        gaps.append(gap)
        n_ok = dev_w <= 0.10 and dev_e <= 0.10 and dev_d <= 0.15
        ok = ok and n_ok
        per_n.append(
            f"n={n}: exact-center dev weight {dev_w:.1e}, entropy {dev_e:.1e}, "
            f"degree {dev_d:.1e}; asymptotic-center gap {gap:.3f} "
            f"-> {'ok' if n_ok else 'OUT OF BAND'}"
        )
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = ok and shrinking
    per_n.append(
        "asymptotic-center gap "
        + ("strictly shrinking in n" if shrinking else "NOT shrinking in n")
    )
    elapsed = time.time() - start
    if elapsed >= 120.0:
        ok = False
        per_n.append(f"runtime {elapsed:.0f}s >= 120s")
    per_n.append(f"largest across-seed relative spread: weight {spread[0]:.1e}, entropy {spread[1]:.1e}")
    return ok, f"{seeds} seeds; " + "; ".join(per_n)


def _suite_under_12(extra_random: int = 10) -> list[Hypergraph]:
    graphs = [gen_complete(n, k) for n, k in COMPLETE_FAMILY if n <= 12]
    graphs.append(_complete_minus_pm(12, 3, seed=606))
    graphs += _random_dirac_instances([9, 12], 3, 2, 0.2, 0.95, 6000, extra_random)
    return graphs


@_criterion("7 marginal-entropy inequality")
def criterion_7_marginal_inequalities():
    """k h(marginals) >= ln Phi and solver dominance on every n <= 12 instance."""
    reports = [entropy_identities_check(G)[1] for G in _suite_under_12()]
    worst_margin = min(r["k_h_marginals"] - r["ln_phi"] for r in reports)
    worst_dom = min(r["h_solver"] - r["h_marginals"] for r in reports)
    ok = all(r["marginal_inequality_ok"] and r["solver_dominance_ok"] for r in reports)
    return ok, (
        f"{len(reports)} instances; min(k h(marg) - ln Phi) = {worst_margin:.4g}; "
        f"min(h_solver - h(marg)) = {worst_dom:.3g}"
    )


@_criterion("8 entropy lower-bound certificate")
def criterion_8_entropy_bound_certificates(instances: int = 50):
    """Solver and lift pipeline clear the closed-form bound - 1e-6; reports the largest dual gap."""
    graphs = _random_dirac_instances([9, 12], 3, 2, 0.2, 0.95, 7000, instances)
    failures = []
    min_solver_margin = math.inf
    min_pull_margin = math.inf
    max_dual_gap = -math.inf
    for idx, G in enumerate(graphs):
        x, report = solved = max_entropy_fpm(G)
        max_dual_gap = max(max_dual_gap, dual_value(G, report.potentials) - x.entropy)
        cert = certify_entropy_lower_bound(G, 2, solved=solved)
        min_solver_margin = min(min_solver_margin, cert["h_solver"] - cert["bound"])
        min_pull_margin = min(min_pull_margin, cert["h_pullback"] - cert["bound"])
        if not (cert["solver_clears_bound"] and cert["pullback_clears_bound"]):
            failures.append(f"instance {idx}")
    K6 = gen_complete(6, 3)
    cert6 = certify_entropy_lower_bound(K6, 2)
    tight = abs(cert6["h_solver"] - cert6["bound"])
    if tight > 1e-6 or not cert6["pullback_clears_bound"]:
        failures.append(f"K_6 tightness gap {tight:.2e}")
    ok = not failures
    return ok, (
        f"{len(graphs)} instances; min solver margin {min_solver_margin:.4g}, "
        f"min pull-back margin {min_pull_margin:.4g}; K_6 tightness gap {tight:.2e}; "
        f"max dual gap {max_dual_gap:.2e}"
        + ("; FAILURES: " + ", ".join(failures) if failures else "")
    )


def _residual_per_n(G: Hypergraph) -> tuple[float, float]:
    """r(n)/n and r_cert(n)/n: r(n) = ln Phi - ln_phi_entropy_route(h*, n, k), and
    r_cert(n) puts the solver's dual value g(lambda) >= h* in place of h*."""
    x, solve = max_entropy_fpm(G)
    ln_phi = math.log(count_pm(G).value)
    h_values = (x.entropy, dual_value(G, solve.potentials))
    return tuple((ln_phi - ln_phi_entropy_route(h, G.n, G.k)) / G.n for h in h_values)


@_criterion("9 residual trend")
def criterion_9_residual_trend():
    """r(n)/n strictly decreasing on complete 3-graphs, n in {6,...,18};
    prints the dual-certified r_cert(n)/n beside it (not a gate)."""
    pairs = [_residual_per_n(gen_complete(n, 3)) for n in (6, 9, 12, 15, 18)]
    values = [r for r, _ in pairs]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    near = [(n, _residual_per_n(_complete_minus_pm(n, 3, seed=900 + n))[0]) for n in (6, 9, 12)]
    detail = (
        "complete r/n: " + ", ".join(f"{v:.4f}" for v in values)
        + (" (strictly decreasing)" if decreasing else " (NOT decreasing)")
        + "; near-complete r/n: "
        + ", ".join(f"n={n}: {v:.4f}" for n, v in near)
        + "; complete r_cert/n: " + ", ".join(f"{c:.4f}" for _, c in pairs)
        + f"; max |r - r_cert|/n {max(abs(r - c) for r, c in pairs):.2e}"
    )
    return decreasing, detail


def _tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@_criterion("10 determinism")
def criterion_10_determinism():
    """Same config twice -> byte-identical artifacts, digests recompute."""
    from .cli import main as cli_main

    # the inner runs' own lines (with their temp paths) are not the suite's output
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        base = os.path.join(tmp, "g")
        code = cli_main(
            ["gen", "--n", "9", "--k", "3", "--density", "0.95", "--d", "2",
             "--gamma", "0.2", "--seed", "42", "--out", base]
        )
        if code != 0:
            return False, f"gen exited {code}"
        graph = os.path.join(base, "graph.khg")
        runs = [
            ["entropy", "--graph", graph],
            ["count", "--graph", graph],
            ["marginals", "--graph", graph],
            ["greedy", "--graph", graph, "--seed", "5", "--trials", "2"],
            ["anneal", "--graph", graph, "--seed", "6", "--d", "2", "--gamma",
             "0.5", "--epsilon", "0.9", "--trials", "500", "--auto"],
            ["bound", "--graph", graph, "--d", "2", "--gamma", "0.2"],
            ["gen", "--n", "9", "--k", "3", "--density", "0.95", "--d", "2",
             "--gamma", "0.2", "--seed", "42"],
        ]
        mismatches = []
        digest_problems = []
        for ridx, argv in enumerate(runs):
            dirs = []
            for rep in range(2):
                out_dir = os.path.join(tmp, f"run{ridx}_{rep}")
                code = cli_main(argv + ["--out", out_dir])
                if code != 0:
                    mismatches.append(f"{argv[0]} exited {code}")
                    break
                dirs.append(out_dir)
            if len(dirs) == 2:
                t1, t2 = _tree_bytes(dirs[0]), _tree_bytes(dirs[1])
                if t1 != t2:
                    mismatches.append(argv[0])
                for name, blob in t1.items():
                    if name.endswith(".json"):
                        payload = json.loads(blob)
                        prov = payload.get("_provenance")
                        if prov:
                            # recomputed here so the check shares no code with the CLI
                            recomputed = hashlib.sha256(
                                json.dumps(prov["config"], sort_keys=True,
                                           separators=(",", ":")).encode()
                            ).hexdigest()
                            if recomputed != prov["config_digest"]:
                                digest_problems.append(name)
                            for in_path, digest in prov["input_digests"].items():
                                with open(in_path, "rb") as fh:
                                    if hashlib.sha256(fh.read()).hexdigest() != digest:
                                        digest_problems.append(f"{name}:{in_path}")
        ok = not mismatches and not digest_problems
        detail = f"{len(runs)} subcommands run twice, byte-identical"
        if mismatches:
            detail = "mismatched: " + ", ".join(mismatches)
        if digest_problems:
            detail += "; bad digests: " + ", ".join(digest_problems)
        return ok, detail


def run_all(quick: bool = False) -> list[CriterionResult]:
    results = [
        criterion_1_exact_counts(),
        criterion_2_solver_on_complete(),
        criterion_3_jensen_sandwich(quota=20 if quick else 100),
        criterion_4_shift_correctness(count=200 if quick else 1000),
        criterion_5_anneal_contract(instances=6 if quick else 20),
        criterion_6_greedy_concentration(seeds=30 if quick else 200),
        criterion_7_marginal_inequalities(),
        criterion_8_entropy_bound_certificates(instances=10 if quick else 50),
        criterion_9_residual_trend(),
        criterion_10_determinism(),
    ]
    return results
