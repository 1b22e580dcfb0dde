#!/usr/bin/env python3
"""Benchmark for the hypermatch package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a single-process closed loop with one caller: every call
waits for the previous one.  A run builds its inputs from ``--seed``
(set-up, done five times when untraced), then repeats rounds of the
workload for about ``--seconds`` seconds, then makes its once-per-run
checks.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics (medians over set-ups and rounds,
  each time scaled to a reference speed of the host, see ``pacing.py``).
* ``--trace 1``: the per-layer metrics.  The run spends half its time
  untraced and half with a span around every call into a hypermatch
  module; per-layer figures come from the traced half, the tracing
  overhead is the median difference between rounds of the same index in
  the two halves, and the exact work counters of the two halves must agree.

A full report (machine and provenance block, workload figures, counters,
per-round times) is written to ``perfbench/out/``, and in traced runs the
spans as JSON lines.  The package is imported from ``src/`` of the
checkout; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from pacing import Pacer
from tracing import NullTracer, Tracer, summarize

# OpenBLAS worker threads spin on a second core after start-up: with two free
# cores they only add CPU time, with one they delay the main thread, so times
# would follow the load of other tenants.  hypermatch calls BLAS only for
# short dot products, so this process and its children use one BLAS thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
UNTRACED_SETUPS = 5
WORKLOADS = ("greedy_walks", "exact_oracle", "dirac_pipeline", "cli_cold")
LIMITS = ("timings use time.perf_counter and memory resource.getrusage, on the benchmark's own "
          "process and its children only; no hardware counters and no system-wide tracing")

LAYERS = ("hypergraph", "entropy", "counting", "greedy", "shifting", "bipartite", "cli",
          "process", "bench")
CLI_SUBCOMMANDS = ("gen", "degrees", "entropy", "count", "marginals", "greedy", "anneal", "bound")

# Per-layer time metrics: the span names whose durations they sum.
SPAN_TIMES = {
    "hypergraph.construct_s": ("hypergraph.gen_complete",),
    "hypergraph.gen_random_dirac_s": ("hypergraph.gen_random_dirac",),
    "hypergraph.min_d_degree_s": ("hypergraph.min_d_degree", "hypergraph.degree_ratio_profile",
                                  "hypergraph.is_dirac"),
    "hypergraph.read_s": ("hypergraph.read_hypergraph",),
    "entropy.solve_s": ("entropy.max_entropy_fpm",),
    "entropy.weights_io_s": ("entropy.read_weights",),
    "counting.count_s": ("counting.PMOracle.count_pm",),
    "counting.marginals_s": ("counting.PMOracle.marginals",),
    "counting.sample_s": ("counting.PMOracle.sample", "counting.sample_uniform_pms"),
    "greedy.run_s": ("greedy.run_greedy",),
    "greedy.deviation_s": ("greedy.trajectory_deviation",),
    "shifting.wdfpm_s": ("shifting.well_distributed_fpm",),
    "shifting.anneal_s": ("shifting.anneal_and_shift",),
    "bipartite.lift_s": ("bipartite.lift",),
    "bipartite.solve_s": ("bipartite.bipartite_max_entropy",),
    "bipartite.pull_back_s": ("bipartite.pull_back",),
    "bipartite.certify_s": ("bipartite.certify_entropy_lower_bound",),
    "cli.import_s": ("process.import_hypermatch_cli",),
    **{f"cli.{sub}_s": (f"cli.main.{sub}",) for sub in CLI_SUBCOMMANDS},
}

# Per-layer exact counters: metric name -> counter key.
COUNTS = {
    "hypergraph.gen_attempts": "hypergraph.gen_attempts",
    "hypergraph.gen_failed_attempts": "hypergraph.gen_failed_attempts",
    "hypergraph.min_d_degree_subsets": "hypergraph.min_d_degree_subsets",
    "entropy.solve_sweeps": "entropy.solve_sweeps",
    "counting.memo_states": "counting.memo_states",
    "counting.marginals_new_states": "counting.marginals_new_states",
    "counting.sample_rounds": "counting.sample_rounds",
    "greedy.steps": "greedy.steps",
    "greedy.edges_deleted": "greedy.edges_deleted",
    "greedy.stop_step_limit": "greedy.stop.step-limit",
    "greedy.stop_frozen": "greedy.stop.no-positive-weight-edge",
    "shifting.wdfpm_trials": "shifting.wdfpm_trials",
    "shifting.wdfpm_resamples": "shifting.wdfpm_resamples",
    "shifting.anneal_shifts": "shifting.anneal_shifts",
    "bipartite.quotient_edges": "bipartite.quotient_edges",
    "bipartite.solve_iterations": "bipartite.solve_iterations",
}

# Per-layer ratios: metric -> (unit, scale, numerator, denominator), where
# numerator and denominator name a span-time metric or a counter key.
RATIOS = {
    "hypergraph.construct_us_per_edge": ("us", 1e6, "hypergraph.construct_s",
                                         "hypergraph.edges_constructed"),
    "entropy.solve_ns_per_edge_sweep": ("ns", 1e9, "entropy.solve_s", "entropy.solve_edge_sweeps"),
    "counting.us_per_state": ("us", 1e6, "counting.count_s", "counting.memo_states"),
    "counting.sample_us": ("us", 1e6, "counting.sample_s", "counting.samples"),
    "greedy.us_per_step": ("us", 1e6, "greedy.run_s", "greedy.steps"),
    "shifting.us_per_shift": ("us", 1e6, "shifting.anneal_s", "shifting.anneal_shifts"),
    "shifting.anneal_active_share": ("share", 1.0, "shifting.anneal_active", "shifting.anneal_runs"),
    "shifting.prefix_active_share": ("share", 1.0, "shifting.prefix_active",
                                     "shifting.wdfpm_calls"),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update({name: spec[0] for name, spec in RATIOS.items()})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"bench.trace_overhead_s": "s", "bench.trace_overhead_share": "share",
                  "bench.spans_per_round": "count"})
    return units


@dataclass
class Phase:
    """What one pass of set-up, timed rounds and final checks produced."""

    # Work time of each set-up and round: raw, scaled to the reference speed,
    # and the probe times it was scaled by (see pacing.py).
    setup_s: list = field(default_factory=list)
    setup_scaled_s: list = field(default_factory=list)
    setup_probe_s: list = field(default_factory=list)
    setup_counters: list = field(default_factory=list)
    round_wall_s: list = field(default_factory=list)
    round_scaled_s: list = field(default_factory=list)
    round_probe_s: list = field(default_factory=list)
    round_cpu_s: list = field(default_factory=list)
    round_counters: list = field(default_factory=list)
    round_steps: list = field(default_factory=list)
    final_counters: dict = field(default_factory=dict)
    # Span index ranges [lo, hi) of the last set-up, each round and the final checks.
    setup_spans: tuple = (0, 0)
    round_spans: list = field(default_factory=list)
    final_spans: tuple = (0, 0)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def guarded(ctx, what: str, fn, *args) -> None:
    """Run a round or the final checks; an exception counts as one failed operation."""
    try:
        fn(*args)
    except Exception as exc:  # the run goes on and reports the failure
        traceback.print_exc(file=sys.stderr)
        ctx.check(False, f"{what}: {exc!r}")


def run_phase(wl, ctx, seed: int, seconds: float, setups: int) -> Phase:
    tracer = ctx.tracer
    pacer = ctx.pacer
    ph = Phase()
    state = None
    for _ in range(setups):
        state = None  # drop the previous inputs before building them again
        lo = len(tracer.spans)
        pacer.begin()
        with tracer.span("bench.setup"):
            state = wl.setup(ctx, seed)
        pacer.end()
        ph.setup_s.append(pacer.raw_s)
        ph.setup_scaled_s.append(pacer.scaled_s)
        ph.setup_probe_s.append(pacer.probes)
        ph.setup_counters.append(dict(ctx.counters))
        ph.setup_spans = (lo, len(tracer.spans))
        ctx.counters = Counter()

    begin = time.perf_counter()
    r = 0
    while True:
        lo = len(tracer.spans)
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        pacer.begin()
        with tracer.span("bench.round"):
            guarded(ctx, f"round {r}", wl.round, ctx, state, r)
        pacer.end()
        wall = time.perf_counter() - start
        ph.round_wall_s.append(pacer.raw_s)
        ph.round_scaled_s.append(pacer.scaled_s)
        ph.round_probe_s.append(pacer.probes)
        ph.round_cpu_s.append(cpu_seconds() - cpu0)
        ph.round_counters.append(dict(ctx.counters))
        ph.round_steps.append(dict(ctx.step_s))
        ph.round_spans.append((lo, len(tracer.spans)))
        ctx.counters = Counter()
        ctx.step_s = Counter()
        r += 1
        if time.perf_counter() - begin + wall > seconds:
            break

    lo = len(tracer.spans)
    if hasattr(wl, "final"):
        with tracer.span("bench.final"):
            guarded(ctx, "final checks", wl.final, ctx, state)
    ph.final_counters = dict(ctx.counters)
    ph.final_spans = (lo, len(tracer.spans))
    ctx.counters = Counter()
    if any(c != ph.setup_counters[0] for c in ph.setup_counters):
        ctx.check(False, "repeated set-ups did different work")
    return ph


def counters_of(ph: Phase) -> dict:
    return {"setup": ph.setup_counters[0], "rounds": ph.round_counters, "final": ph.final_counters}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count as the largest one.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(ph: Phase) -> dict:
    return {
        "setup_s": statistics.median(ph.setup_scaled_s),
        "wall_s": statistics.median(ph.round_scaled_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(traced: Phase, untraced: Phase, spans: list) -> dict:
    """Per-layer figures of the traced phase, for one set-up plus one average round.

    Set-up and final-check spans count once; round spans and counters are
    averaged over the rounds run.
    """
    rounds = len(traced.round_spans)
    times: Counter = Counter()
    selfs: Counter = Counter()
    for (lo, hi), weight in [(traced.setup_spans, 1.0), (traced.final_spans, 1.0)] + [
            (rng, 1.0 / rounds) for rng in traced.round_spans]:
        by_name, by_layer = summarize(spans, lo, hi)
        for name, secs in by_name.items():
            times[name] += weight * secs
        for layer, secs in by_layer.items():
            selfs[layer] += weight * secs
    counts: Counter = Counter(traced.setup_counters[0])
    counts.update(traced.final_counters)
    for rc in traced.round_counters:
        counts.update({k: v / rounds for k, v in rc.items()})

    values = {metric: sum(times[n] for n in names) for metric, names in SPAN_TIMES.items()}
    for metric, key in COUNTS.items():
        values[metric] = counts[key]
    for metric, (_, scale, num, den) in RATIOS.items():
        numerator = values[num] if num in values else counts[num]
        values[metric] = scale * numerator / counts[den] if counts[den] else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs[layer]
    # Rounds with the same index do the same work, so compare them pairwise.
    pairs = list(zip(traced.round_scaled_s, untraced.round_scaled_s))
    overhead = statistics.median(t - u for t, u in pairs)
    base = statistics.median(u for _, u in pairs)
    values["bench.trace_overhead_s"] = overhead
    values["bench.trace_overhead_share"] = overhead / base
    values["bench.spans_per_round"] = sum(hi - lo for lo, hi in traced.round_spans) / rounds
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(units)}


def workload_figures(name: str, ph: Phase) -> dict:
    """The workload's own headline numbers, from untraced rounds."""
    wall = statistics.median(ph.round_wall_s)
    per_round = ph.round_counters[0]

    def step(key):
        return statistics.median(s.get(key, 0.0) for s in ph.round_steps)

    if name == "greedy_walks":
        return {"greedy_runs_per_s": per_round.get("greedy.runs", 0) / wall}
    if name == "exact_oracle":
        sampling = step("sampling")
        return {"count_s": step("count"), "marginals_s": step("marginals"),
                "samples_per_s": per_round.get("counting.samples", 0) / sampling if sampling else 0}
    if name == "dirac_pipeline":
        runs = sum(c.get("shifting.anneal_runs", 0) for c in ph.round_counters)
        active = sum(c.get("shifting.anneal_active", 0) for c in ph.round_counters)
        prefix = sum(c.get("shifting.prefix_active", 0) for c in ph.round_counters)
        return {"instances_per_s": runs / sum(ph.round_wall_s),
                "anneal_active_share": active / runs if runs else 0.0,
                "prefix_active_share": prefix / runs if runs else 0.0}
    return {"cli_pipeline_s": step("cold_pass"), "import_s": step("import")}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "limits": LIMITS,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result object and the full report."""
    import workloads  # imports hypermatch, so only once src/ is on the path
    from workloads import Ctx

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(workload, small, str(OUT / f"work-{workload}-{seed}"), str(SRC))
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-small" if small else "")
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "small": small, "machine": machine(), "sizes": asdict(wl.sz) if hasattr(wl, "sz")
              else {}}
    if not trace:
        ctx = Ctx(NullTracer(), Pacer())
        ph = run_phase(wl, ctx, seed, seconds, UNTRACED_SETUPS)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(ph).items()}
        phases = {"untraced": ph}
    else:
        ctx = Ctx(NullTracer(), Pacer())
        plain = run_phase(wl, ctx, seed, seconds / 2, 1)
        tracer = Tracer()
        ctx.tracer = tracer
        traced = run_phase(wl, ctx, seed, seconds / 2, 1)
        common = min(len(plain.round_counters), len(traced.round_counters))
        a, b = counters_of(plain), counters_of(traced)
        ctx.check(a["setup"] == b["setup"] and a["final"] == b["final"]
                  and a["rounds"][:common] == b["rounds"][:common],
                  "work counters differ between the untraced and traced halves")
        metrics = per_layer(traced, plain, tracer.spans)
        tracer.write(OUT / f"{tag}-spans.jsonl")
        ph = plain
        phases = {"untraced": plain, "traced": traced}

    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": metrics}
    report.update({
        "result": result,
        "figures": workload_figures(workload, ph),
        "failures": ctx.failures,
        "phases": {name: {"setup_s": p.setup_s, "setup_scaled_s": p.setup_scaled_s,
                          "setup_probe_s": p.setup_probe_s, "round_wall_s": p.round_wall_s,
                          "round_scaled_s": p.round_scaled_s, "round_probe_s": p.round_probe_s,
                          "round_cpu_s": p.round_cpu_s, "round_steps": p.round_steps,
                          "counters": counters_of(p)}
                   for name, p in phases.items()},
    })
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or not args.seconds > 0:
        parser.error("need 0 <= seed < 2^64 and seconds > 0")
    if not (SRC / "hypermatch" / "__init__.py").is_file():
        print(f"perfbench: no hypermatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": report["machine"], "figures": report["figures"],
                      "failures": report["failures"][:20]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
