"""The four benchmark workloads.

Each workload has ``setup(ctx, seed)``, which builds its inputs from the
workload seed, ``round(ctx, state, r)``, one unit of the timed phase, and
``final(ctx, state)``, checks made once after the timed phase.  Every call
into a hypermatch module goes through ``ctx.call`` so that a traced run
records it as a span; every output check goes through ``ctx.check``; every
exact work counter goes through ``ctx.count``.  Counters are a function of
the seed and the round index only, never of timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from hypermatch import cli
from hypermatch.bipartite import bipartite_max_entropy, certify_entropy_lower_bound, lift, pull_back
from hypermatch.counting import PMOracle, phi_complete, sample_uniform_pms
from hypermatch.entropy import (
    EdgeWeights,
    as_verified,
    max_entropy_fpm,
    read_weights,
    well_distributed_factor,
)
from hypermatch.errors import GenerationError
from hypermatch.greedy import TrajectoryConfig, run_greedy, trajectory_deviation
from hypermatch.hypergraph import (
    DiracParams,
    degree_ratio_profile,
    gen_complete,
    gen_random_dirac,
    is_dirac,
    min_d_degree,
    read_hypergraph,
)
from hypermatch.seeds import rng_from
from hypermatch.shifting import anneal_and_shift, auto_anneal_params, well_distributed_fpm

K = 3
DIRAC = DiracParams(2, 0.2)
SOLVER_TOL = 1e-8
GREEDY_STOP = 0.8
GOLDEN_K9_SEED123 = [57, 3, 71]
CLI_TIMEOUT_S = 120


def derive(seed: int, *key: int) -> int:
    """A 32-bit seed for sub-task ``key`` of the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Ctx:
    """Op, failure and counter bookkeeping for one phase of a run."""

    def __init__(self, tracer, pacer):
        self.tracer = tracer
        self.pacer = pacer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters: Counter = Counter()
        self.step_s: Counter = Counter()

    @contextlib.contextmanager
    def step(self, name: str):
        """Wall time of a coarse workload step, probes excluded, in traced and untraced runs."""
        start = time.perf_counter() - self.pacer.probe_total_s
        try:
            yield
        finally:
            self.step_s[name] += time.perf_counter() - self.pacer.probe_total_s - start

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return self.tracer.call(name, fn, *args, **kwargs)
        finally:
            self.pacer.tick()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] += amount


# ---------------------------------------------------------------------------
# Steps shared by several workloads
# ---------------------------------------------------------------------------


def solve(ctx: Ctx, G):
    x, report = ctx.call("entropy.max_entropy_fpm", max_entropy_fpm, G, tol=SOLVER_TOL)
    ctx.count("entropy.solve_sweeps", report.iterations)
    ctx.count("entropy.solve_edge_sweeps", report.iterations * G.num_edges)
    ctx.check(report.converged and report.max_residual <= SOLVER_TOL and x.verified,
              f"solver residual {report.max_residual:.3e} on n={G.n}")
    return x


def construct_complete(ctx: Ctx, n: int):
    G = ctx.call("hypergraph.gen_complete", gen_complete, n, K)
    ctx.count("hypergraph.edges_constructed", G.num_edges)
    return G


def gen_dirac(ctx: Ctx, n: int, density: float, seed: int, keep: int = 1, candidates: int = 1,
              max_tries: int = 500):
    """The first ``keep`` (2, 0.2)-Dirac graphs among candidates derive(seed, 0), (seed, 1), ...

    One generator attempt per candidate, so every rejected attempt is
    counted.  All ``candidates`` are generated and checked even when ``keep``
    pass early (more only if fewer pass), so with enough candidates the work
    hardly depends on the seed.
    """
    found = []
    attempt = 0
    while attempt < candidates or len(found) < keep:
        if attempt == max_tries:
            raise GenerationError(f"{len(found)} Dirac graphs at n={n} in {max_tries} attempts")
        ctx.count("hypergraph.gen_attempts")
        try:
            found.append(ctx.call("hypergraph.gen_random_dirac", gen_random_dirac, n, K, DIRAC,
                                  density, derive(seed, attempt), max_attempts=1))
        except GenerationError:
            ctx.count("hypergraph.gen_failed_attempts")
        attempt += 1
    return found[:keep]


def is_partial_matching(G, edge_ids) -> bool:
    verts = [v for e in edge_ids for v in G.edges[int(e)]]
    return len(verts) == len(set(verts))


def is_perfect_matching(G, edge_ids) -> bool:
    return len(edge_ids) * G.k == G.n and is_partial_matching(G, edge_ids)


def memo_size(oracle) -> int:
    # The DP memo is private to PMOracle; its size is the state count.
    return len(oracle._memo)


# ---------------------------------------------------------------------------
# greedy_walks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedySizes:
    complete_n: int = 120
    dirac_n: int = 60
    complete_runs: int = 4
    dirac_runs: int = 10


class GreedyWalks:
    """Criterion 6's loop: greedy runs to 0.8 n/k, each followed by its deviation report.

    Greedy does almost all the timed work here and none elsewhere.  Set-up
    holds the K_120 construction (280,840 edges), its one-sweep solve and
    min_d_degree on the n=60 graph, so index or solver changes show there.
    """

    def __init__(self, small: bool):
        self.sz = GreedySizes(complete_n=30, dirac_n=30, complete_runs=2, dirac_runs=2) if small \
            else GreedySizes()

    def setup(self, ctx: Ctx, seed: int):
        sz = self.sz
        Kn = construct_complete(ctx, sz.complete_n)
        xK = solve(ctx, Kn)
        G, = gen_dirac(ctx, sz.dirac_n, 0.9, derive(seed, 1))
        delta = ctx.call("hypergraph.min_d_degree", min_d_degree, G, DIRAC.d)
        ctx.count("hypergraph.min_d_degree_subsets", comb(G.n, DIRAC.d))
        ctx.check(delta >= (0.5 + DIRAC.gamma) * comb(G.n - DIRAC.d, K - DIRAC.d),
                  f"generated graph has delta_2 = {delta}")
        xG = solve(ctx, G)
        K9 = construct_complete(ctx, 9)
        x9 = solve(ctx, K9)
        return {
            "walks": [(Kn, xK, TrajectoryConfig(stop_fraction=GREEDY_STOP, sampled_sets_per_size=0),
                       sz.complete_runs),
                      (G, xG, TrajectoryConfig(stop_fraction=GREEDY_STOP), sz.dirac_runs)],
            "golden": (K9, x9),
            "seed": derive(seed, 2),
        }

    def round(self, ctx: Ctx, state, r: int) -> None:
        stream = 0
        for G, x, cfg, runs in state["walks"]:
            for _ in range(runs):
                self._walk(ctx, G, x, cfg, state["seed"], stream)
                stream += 1
        K9, x9 = state["golden"]
        traj = ctx.call("greedy.run_greedy", run_greedy, K9, x9, TrajectoryConfig(), seed=123)
        ctx.check(traj.chosen.tolist() == GOLDEN_K9_SEED123,
                  f"K_9 seed 123 chose {traj.chosen.tolist()}")

    @staticmethod
    def _walk(ctx: Ctx, G, x, cfg, seed: int, stream: int) -> None:
        traj = ctx.call("greedy.run_greedy", run_greedy, G, x, cfg, seed, stream=(stream,))
        dev = ctx.call("greedy.trajectory_deviation", trajectory_deviation, traj, G, x,
                       horizon_fraction=GREEDY_STOP)
        # Singleton degrees in the last row count each surviving edge k times.
        singles = [i for i, S in enumerate(traj.tracked_sets) if len(S) == 1]
        alive = int(round(float(np.nansum(traj.tracked_degrees[-1, singles])))) // K
        ctx.count("greedy.runs")
        ctx.count("greedy.steps", traj.steps)
        ctx.count("greedy.edges_deleted", G.num_edges - alive)
        ctx.count(f"greedy.stop.{traj.stop_reason}")
        expected = math.floor(GREEDY_STOP * G.n / K + 1e-9)
        ctx.check(traj.steps == expected and is_partial_matching(G, traj.chosen)
                  and dev["reached_horizon"] and math.isfinite(dev["max_weight_deviation"]),
                  f"greedy run on n={G.n} stream {stream}: {traj.steps} steps, {traj.stop_reason}")


# ---------------------------------------------------------------------------
# exact_oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSizes:
    n: int = 21
    instances: int = 3
    candidates: int = 48
    samples: int = 2000


class ExactOracle:
    """Cold exact counts, marginals and warm-oracle samples on n=21 Dirac graphs.

    The counting DP does nearly all the work, with a large memo built cold
    in every round; greedy, shifting and bipartite are absent.
    """

    def __init__(self, small: bool):
        self.sz = OracleSizes(n=12, instances=2, candidates=4, samples=50) if small else OracleSizes()

    def setup(self, ctx: Ctx, seed: int):
        sz = self.sz
        graphs = gen_dirac(ctx, sz.n, 0.9, derive(seed, 3), sz.instances, sz.candidates)
        complete = construct_complete(ctx, sz.n)
        phi = ctx.call("counting.phi_complete", phi_complete, sz.n, K).value
        return {"graphs": graphs, "complete": complete, "phi": phi, "seed": derive(seed, 4)}

    def round(self, ctx: Ctx, state, r: int) -> None:
        """Instance r mod #instances: a cold count, marginals, then samples."""
        graphs = state["graphs"]
        G = graphs[r % len(graphs)]
        oracle = ctx.call("counting.PMOracle", PMOracle, G)
        with ctx.step("count"):
            total = ctx.call("counting.PMOracle.count_pm", oracle.count_pm)
        states = memo_size(oracle)
        ctx.count("counting.memo_states", states)
        ctx.check(total > 0, f"instance {r % len(graphs)} has no perfect matching")
        with ctx.step("marginals"):
            margs = ctx.call("counting.PMOracle.marginals", oracle.marginals)
        ctx.count("counting.marginals_new_states", memo_size(oracle) - states)
        worst = max(abs(sum(float(margs[e]) for e in G.incident(v)) - 1.0) for v in range(G.n))
        ctx.check(worst <= 1e-12, f"marginal vertex sum off by {worst:.3e}")
        rng = rng_from(state["seed"], r)
        bad = 0
        with ctx.step("sampling"):
            for _ in range(self.sz.samples):
                pm = ctx.call("counting.PMOracle.sample", oracle.sample, rng)
                ctx.count("counting.samples")
                ctx.count("counting.sample_rounds", len(pm))
                bad += not is_perfect_matching(G, pm)
        ctx.check(bad == 0, f"{bad} samples are not perfect matchings")

    def final(self, ctx: Ctx, state) -> None:
        """A cold count of the complete graph against the closed form."""
        complete_oracle = ctx.call("counting.PMOracle", PMOracle, state["complete"])
        value = ctx.call("counting.PMOracle.count_pm", complete_oracle.count_pm)
        ctx.count("counting.memo_states", memo_size(complete_oracle))
        ctx.check(value == state["phi"], f"K_{self.sz.n} count {value} != phi {state['phi']}")


# ---------------------------------------------------------------------------
# dirac_pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSizes:
    ns: tuple = (12, 15)
    pool: int = 40
    wdfpm_trials: int = 2000


class DiracPipeline:
    """The README flow (degrees, entropy, anneal, bound) on many small Dirac graphs.

    Counting and entropy appear as many tiny oracles and small solves, and
    this is the only workload that runs shifting and bipartite.  Generation
    is the set-up, so each round starts from the degrees step.  Anneal is
    active (at least one shift) on a minority of instances; the median
    round time is therefore an inactive one, and the share is reported.
    """

    def __init__(self, small: bool):
        self.sz = PipelineSizes(ns=(9, 12), pool=2, wdfpm_trials=100) if small else PipelineSizes()

    def setup(self, ctx: Ctx, seed: int):
        """The gen step of the flow: a pool of instance tuples, one per size."""
        sz = self.sz
        pool = [[gen_dirac(ctx, n, 0.95, derive(seed, 5, j, n))[0] for n in sz.ns]
                for j in range(sz.pool)]
        return {"pool": pool, "seed": seed}

    def round(self, ctx: Ctx, state, r: int) -> None:
        """One pool entry, each graph through the flow with streams of (seed, entry, n)."""
        j = r % len(state["pool"])
        for G in state["pool"][j]:
            self._instance(ctx, G, derive(state["seed"], 6, j, G.n))

    def _instance(self, ctx: Ctx, G, seed: int) -> None:
        profile = ctx.call("hypergraph.degree_ratio_profile", degree_ratio_profile, G)
        ctx.count("hypergraph.min_d_degree_subsets", sum(comb(G.n, d) for d in range(K)))
        ctx.check(all(profile[i] >= profile[i + 1] for i in range(len(profile) - 1)),
                  "degree ratio profile increases")
        dirac = ctx.call("hypergraph.is_dirac", is_dirac, G, DIRAC)
        ctx.count("hypergraph.min_d_degree_subsets", comb(G.n, DIRAC.d))
        ctx.check(dirac, f"pool graph n={G.n} is not Dirac")
        solve(ctx, G)

        pms = ctx.call("counting.sample_uniform_pms", sample_uniform_pms, G, derive(seed, 0), 3)
        ctx.count("counting.samples", len(pms))
        ctx.count("counting.sample_rounds", sum(len(pm) for pm in pms))
        ctx.check(all(is_perfect_matching(G, pm) for pm in pms), "adversarial sample is not a PM")
        w = np.zeros(G.num_edges)
        for pm in pms:
            w[list(pm)] += 1.0 / len(pms)
        raw = ctx.call("entropy.EdgeWeights.from_weights", EdgeWeights.from_weights, G, w)
        x_adv = ctx.call("entropy.as_verified", as_verified, G, raw)

        trials = self.sz.wdfpm_trials
        x_hat, report = ctx.call("shifting.well_distributed_fpm", well_distributed_fpm, G, DIRAC,
                                 seed=derive(seed, 1), trials=trials)
        ctx.count("shifting.wdfpm_calls")
        ctx.count("shifting.wdfpm_trials", trials)
        ctx.count("shifting.wdfpm_resamples", report["resamples"])
        ctx.count("shifting.prefix_active", report["prefix_rounds"] > 0)
        ctx.check(report["projection_converged"], "well-distributed projection did not converge")
        C = max(1.0, ctx.call("entropy.well_distributed_factor", well_distributed_factor, G, x_hat))
        params = ctx.call("shifting.auto_anneal_params", auto_anneal_params, G, 0.5, 0.9, C,
                          max_steps=40000, require_termination=True)
        x_fin, log = ctx.call("shifting.anneal_and_shift", anneal_and_shift, G, x_adv, x_hat, params)
        ctx.count("shifting.anneal_runs")
        ctx.count("shifting.anneal_shifts", len(log.steps))
        ctx.count("shifting.anneal_active", len(log.steps) > 0)
        factor = ctx.call("entropy.well_distributed_factor", well_distributed_factor, G, x_fin)
        ctx.check(float(x_fin.weights.min()) >= params.delta - 1e-15
                  and (factor <= params.D or log.termination == "search-exhausted"),
                  f"anneal contract: min {float(x_fin.weights.min()):.3g} delta {params.delta:.3g} "
                  f"factor {factor:.3g} D {params.D:.3g} {log.termination}")

        lifted = ctx.call("bipartite.lift", lift, G, DIRAC.d)
        ctx.count("bipartite.quotient_edges", len(lifted.quotient_edges))
        bw, bip = ctx.call("bipartite.bipartite_max_entropy", bipartite_max_entropy, lifted)
        ctx.count("bipartite.solve_iterations", bip["iterations"])
        ctx.check(bip["converged"], "bipartite solve did not converge")
        ctx.call("bipartite.pull_back", pull_back, G, lifted, bw)
        cert = ctx.call("bipartite.certify_entropy_lower_bound", certify_entropy_lower_bound,
                        G, DIRAC.d)
        false = [name for name, flag in bool_flags(cert) if not flag]
        ctx.check(not false, f"certificate flags false: {false}")


def bool_flags(report: dict, prefix: str = ""):
    for key, value in report.items():
        if isinstance(value, bool):
            yield prefix + key, value
        elif isinstance(value, dict):
            yield from bool_flags(value, prefix + key + ".")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def cli_commands(seed: int, small: bool) -> list[list[str]]:
    """The README subcommands (all but verify) with seeds drawn from the workload seed."""
    jobs = str(min(2, len(os.sched_getaffinity(0))))
    graph = ["--graph", "run/graph.khg", "--out", "run/"]
    return [
        ["gen", "--n", "12", "--k", "3", "--density", "0.95", "--d", "2", "--gamma", "0.2",
         "--seed", str(derive(seed, 7, 0)), "--out", "run/"],
        ["degrees", *graph, "--d", "2", "--gamma", "0.2"],
        ["entropy", *graph],
        ["count", *graph, "--d", "2", "--gamma", "0.2"],
        ["marginals", *graph],
        ["greedy", *graph, "--seed", str(derive(seed, 7, 1)), "--trials", "2" if small else "8",
         "--jobs", jobs],
        ["anneal", *graph, "--seed", str(derive(seed, 7, 2)), "--d", "2", "--gamma", "0.5",
         "--epsilon", "0.9", "--auto"] + (["--trials", "100"] if small else []),
        ["bound", *graph, "--d", "2", "--gamma", "0.2"],
    ]


def run_process(argv: list[str], cwd: str, env: dict) -> int:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode


def tree_digests(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class CliCold:
    """The eight README subcommands as cold processes, one at a time.

    The only workload paying interpreter start-up, imports, provenance
    hashing and artifact I/O, which users pay on every command.  ``verify``
    is left out: it runs the whole acceptance suite (about 70 s).
    """

    def __init__(self, small: bool, workdir: str, src: str):
        self.small = small
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)

    def setup(self, ctx: Ctx, seed: int):
        """Fresh work directory and a primed bytecode cache (one cold import)."""
        fresh_dir(self.workdir)
        self._import(ctx, "process.prime_bytecode")
        return {"commands": cli_commands(seed, self.small), "expected": None}

    def _import(self, ctx: Ctx, span: str) -> None:
        code = ctx.call(span, run_process, [sys.executable, "-c", "import hypermatch.cli"],
                        self.workdir, self.env)
        ctx.check(code == 0, f"import hypermatch.cli exited {code}")

    def round(self, ctx: Ctx, state, r: int) -> None:
        """A cold import, then one pass of the eight commands into a fresh directory."""
        with ctx.step("import"):
            self._import(ctx, "process.import_hypermatch_cli")
        cwd = fresh_dir(os.path.join(self.workdir, "cold"))
        with ctx.step("cold_pass"):
            for argv in state["commands"]:
                code = ctx.call(f"process.{argv[0]}", run_process,
                                [sys.executable, "-m", "hypermatch.cli", *argv], cwd, self.env)
                ctx.count("cli.commands")
                ctx.check(code == 0, f"cold {argv[0]} exited {code}")
        digests = self._check_artifacts(ctx, cwd)
        if state["expected"] is None:
            state["expected"] = digests
        ctx.check(digests == state["expected"], f"round {r} artifacts differ from the first pass")

    def _check_artifacts(self, ctx: Ctx, cwd: str) -> dict[str, str]:
        run = os.path.join(cwd, "run")
        G = ctx.call("hypergraph.read_hypergraph", read_hypergraph, os.path.join(run, "graph.khg"))
        for name in ("weights.wts", "marginals.wts", "anneal.wts"):
            x = ctx.call("entropy.read_weights", read_weights, os.path.join(run, name), G)
            ctx.check(x.weights.shape == (G.num_edges,), f"{name} is not aligned with the graph")
        digests = tree_digests(run)
        ctx.count("cli.artifact_files", len(digests))
        ctx.count("cli.artifact_bytes", sum(os.path.getsize(os.path.join(run, p)) for p in digests))
        return digests

    def final(self, ctx: Ctx, state) -> None:
        """Replay the pass in-process through cli.main; artifacts must match the cold ones."""
        cwd = fresh_dir(os.path.join(self.workdir, "inproc"))
        here = os.getcwd()
        os.chdir(cwd)
        try:
            for argv in state["commands"]:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ctx.call(f"cli.main.{argv[0]}", cli.main, argv)
                ctx.count("cli.commands")
                ctx.check(code == 0, f"in-process {argv[0]} returned {code}")
        finally:
            os.chdir(here)
        ctx.check(tree_digests(os.path.join(cwd, "run")) == state["expected"],
                  "in-process artifacts differ from the cold pass")


def make(name: str, small: bool, workdir: str, src: str):
    if name == "cli_cold":
        return CliCold(small, workdir, src)
    return {"greedy_walks": GreedyWalks, "exact_oracle": ExactOracle,
            "dirac_pipeline": DiracPipeline}[name](small)
