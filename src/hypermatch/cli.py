"""Experiment command line: every module behind reproducible subcommands.

All randomized subcommands require an explicit --seed; there is no
time-based default anywhere, so re-running a command reproduces its
artifacts byte for byte.  Reports are JSON, traces and trajectories are
CSV, graphs are .khg and weight vectors are .wts.  Each JSON report
carries a ``_provenance`` block: the resolved run configuration, its digest
and the digests of the input files.  Graphs, weights, the anneal trace and
trajectory CSVs carry the config and input digests as header comments.
Trajectory .meta.json files carry the graph digest, seed, stream and
trajectory config but no config or input digests, and the acceptance
report carries none.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import acceptance
from .bipartite import certify_entropy_lower_bound, matching_count_bound_report
from .counting import count_pm, entropy_identities_check, verify_count_vs_entropy
from .entropy import (
    as_verified,
    jensen_bounds,
    max_entropy_fpm,
    read_weights,
    well_distributed_factor,
    write_weights,
)
from .errors import HypermatchError, InvalidArgumentError
from .greedy import (
    TrajectoryConfig,
    run_greedy,
    trajectory_deviation,
    trajectory_metadata,
    write_trajectory_csv,
)
from .hypergraph import (
    AlphaTable,
    DiracParams,
    degree_ratio_profile,
    gen_complete,
    gen_random_dirac,
    is_dirac,
    min_d_degree,
    read_hypergraph,
    write_hypergraph,
)
from .shifting import (
    AnnealParams,
    anneal_and_shift,
    auto_anneal_params,
    well_distributed_fpm,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token float() reads (-1e-3, -inf) is a value, as -1 is, never an option
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Options that change how a run executes or where it writes, not what it
# computes; the alpha table enters through its file digest instead.
_EXECUTION_KEYS = frozenset({"out", "handler", "jobs", "alpha_table"})


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dirac_options(args) -> Optional[DiracParams]:
    """The Dirac condition of ``--d``, ``--gamma`` and the ``--alpha-table``, None without
    ``--d``; a lone ``--d`` or ``--gamma``, or a table without both, is refused."""
    if (args.d is None) != (args.gamma is None):
        raise InvalidArgumentError("--d and --gamma must be given together")
    if args.alpha_table and args.d is None:
        raise InvalidArgumentError("--alpha-table needs --d and --gamma")
    if args.d is None:
        return None
    dirac = DiracParams(args.d, args.gamma)  # d and gamma are checked before the table is read
    if args.alpha_table:
        dirac = dataclasses.replace(dirac, alpha=AlphaTable.from_file(args.alpha_table))
    return dirac


def _command(handler):
    """Run an artifact-writing subcommand around ``handler(args, G, comments)``.

    The runner records the provenance: the run's config (its parsed
    options) and the digests of its input files (``--graph``, ``--weights``
    and ``--alpha-table`` when set).  It reads ``--graph`` when the
    subcommand takes one (G is None otherwise) and makes ``--out``, which
    it removes again, if still empty, when the handler raises.  The handler
    writes its graph, weights and CSV files under the digest lines ``comments``, returning
    ``(report name, report, line)``; the runner writes the report with
    ``_provenance`` added and prints the line.
    """

    @functools.wraps(handler)
    def run(args) -> int:
        graph = getattr(args, "graph", None)
        config = {key: value for key, value in vars(args).items() if key not in _EXECUTION_KEYS}
        canon = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=True)
        inputs = [p for p in (graph, getattr(args, "weights", None), getattr(args, "alpha_table", None)) if p]
        prov = {
            "config": config,
            "config_digest": hashlib.sha256(canon.encode()).hexdigest(),
            "input_digests": {path: _digest_file(path) for path in inputs},
        }
        comments = [f"config_digest={prov['config_digest']}"]
        comments += [f"input_digest {p}={d}" for p, d in sorted(prov["input_digests"].items())]
        G = read_hypergraph(graph) if graph else None
        made = not os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
        try:
            name, report, line = handler(args, G, comments)
        except BaseException:
            if made and not os.listdir(args.out):
                os.rmdir(args.out)
            raise
        _write_json(os.path.join(args.out, name), {**report, "_provenance": prov})
        print(line)
        return 0

    return run


@_command
def _cmd_gen(args, _, comments):
    if args.complete:
        unused = [name for name in ("density", "d", "gamma", "seed", "alpha_table") if getattr(args, name) is not None]
        if unused:
            raise InvalidArgumentError("--complete takes no --" + ", --".join(unused).replace("_", "-"))
        G = gen_complete(args.n, args.k)
    else:
        dirac = _dirac_options(args)
        if args.seed is None or dirac is None or args.density is None:
            raise InvalidArgumentError("random generation needs --density, --d, --gamma and --seed")
        G = gen_random_dirac(args.n, args.k, dirac, args.density, args.seed)
    path = os.path.join(args.out, "graph.khg")
    write_hypergraph(G, path, header_comments=comments)
    report = {"graph": "graph.khg", "n": G.n, "k": G.k, "num_edges": G.num_edges,
              "graph_digest": G.digest()}
    return "gen_report.json", report, f"wrote {path} ({G.num_edges} edges)"


@_command
def _cmd_degrees(args, G, comments):
    dirac = _dirac_options(args)
    profile = degree_ratio_profile(G)
    report = {
        "n": G.n,
        "k": G.k,
        "num_edges": G.num_edges,
        "min_degrees": [min_d_degree(G, d) for d in range(G.k)],
        "profile": [str(q) for q in profile],
        "profile_float": [float(q) for q in profile],
        "profile_nonincreasing": all(
            profile[i] >= profile[i + 1] for i in range(len(profile) - 1)
        ),
    }
    if dirac is not None:
        report["dirac"] = bool(is_dirac(G, dirac))
    return "degrees.json", report, f"wrote {os.path.join(args.out, 'degrees.json')}"


@_command
def _cmd_entropy(args, G, comments):
    x, report = max_entropy_fpm(G, tol=args.tol, max_iter=args.max_iter)
    wts_path = os.path.join(args.out, "weights.wts")
    write_weights(wts_path, x, header_comments=comments)
    L = float(x.weights.max()) if x.weights.size else 1.0
    upper, lower = jensen_bounds(G, L)
    line = f"h = {x.entropy:.12g}  converged={report.converged}  wrote {wts_path}"
    return "entropy_report.json", {
        "entropy": x.entropy,
        "converged": report.converged,
        "iterations": report.iterations,
        "max_residual": report.max_residual,
        "potentials": [float(v) for v in report.potentials],
        "max_weight": L,
        "jensen_upper": upper,
        "jensen_lower": lower,
        "well_distributed_factor": well_distributed_factor(G, x),
        "weights_file": "weights.wts",
    }, line if x.verified else f"{line}  status=raw"


@_command
def _cmd_count(args, G, comments):
    dirac = _dirac_options(args)
    result = count_pm(G)
    report = {"value": str(result.value), "note": result.note, "graph_digest": result.graph_digest}
    if dirac is not None:
        report["entropy_comparison"] = verify_count_vs_entropy(G, dirac, count=result)
    return "count.json", report, json.dumps({"value": str(result.value)})


@_command
def _cmd_marginals(args, G, comments):
    x, report = entropy_identities_check(G)
    wts_path = os.path.join(args.out, "marginals.wts")
    write_weights(wts_path, x, header_comments=comments)
    report["weights_file"] = "marginals.wts"
    return "marginals_report.json", report, f"h(marginals) = {x.entropy:.12g}  wrote {wts_path}"


@_command
def _cmd_anneal(args, G, comments):
    dirac = _dirac_options(args)
    x_star, _ = max_entropy_fpm(G)
    x_hat, hat_report = well_distributed_fpm(G, dirac, seed=args.seed, trials=args.trials)
    hat_report["dirac"] = bool(is_dirac(G, dirac))
    C = max(1.0, well_distributed_factor(G, x_hat))
    if args.auto:
        params = auto_anneal_params(G, args.gamma, args.epsilon, C, max_steps=args.max_steps)
    else:
        params = AnnealParams.for_graph(G, args.gamma, args.epsilon, C, max_steps=args.max_steps)
    x_final, log = anneal_and_shift(G, x_star, x_hat, params)
    wts_path = os.path.join(args.out, "anneal.wts")
    write_weights(wts_path, x_final, header_comments=comments)
    log.write_csv(os.path.join(args.out, "anneal_trace.csv"), header_comments=comments)
    return "anneal_report.json", {
        "termination": log.termination,
        "steps": len(log.steps),
        "entropy_solver": x_star.entropy,
        "entropy_start": log.start_entropy,
        "entropy_final": x_final.entropy,
        "proof_inequality_holds": params.proof_inequality_holds(G),
        "gain_ratio": params.gain_ratio(G),
        "well_distributed_factor_final": well_distributed_factor(G, x_final),
        "effective_params": dataclasses.asdict(params),
        "base_matching_report": hat_report,
        "weights_file": "anneal.wts",
        "trace_file": "anneal_trace.csv",
    }, (
        f"anneal: {len(log.steps)} steps, {log.termination}, "
        f"h {log.start_entropy:.6g} -> {x_final.entropy:.6g}, wrote {wts_path}"
    )


def _greedy_single(G, x, cfg, seed, out_dir, comments, trial):
    traj = run_greedy(G, x, cfg, seed, stream=(trial,))
    csv_path = os.path.join(out_dir, f"trajectory_{trial:04d}.csv")
    write_trajectory_csv(csv_path, traj, G, x, header_comments=comments)
    _write_json(os.path.join(out_dir, f"trajectory_{trial:04d}.meta.json"), trajectory_metadata(traj))
    return trajectory_deviation(traj, G, x)


@_command
def _cmd_greedy(args, G, comments):
    if args.trials < 1 or args.jobs < 1:
        raise InvalidArgumentError(f"--trials and --jobs must be >= 1, got {args.trials}, {args.jobs}")
    if args.weights:
        x = as_verified(G, read_weights(args.weights, G))
    else:
        x, _ = max_entropy_fpm(G)
    cfg = TrajectoryConfig(c=args.c, stop_fraction=args.stop_fraction)
    trial = functools.partial(_greedy_single, G, x, cfg, args.seed, args.out, comments)
    # more workers than CPUs only add start-up cost; os.cpu_count() may be None
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(trial, range(args.trials)))
    else:
        summaries = list(map(trial, range(args.trials)))
    return "greedy_report.json", {
        "trials": args.trials,
        "max_weight_deviation": max(s["max_weight_deviation"] for s in summaries),
        "max_entropy_deviation": max(s["max_entropy_deviation"] for s in summaries),
        "max_degree_deviation": max(s["max_degree_deviation"] for s in summaries),
        "reached_horizon_rate": sum(s["reached_horizon"] for s in summaries) / len(summaries),
        "per_trial": summaries,
    }, f"ran {args.trials} trajectories into {args.out}"


@_command
def _cmd_bound(args, G, comments):
    dirac = _dirac_options(args)
    solved = max_entropy_fpm(G)
    cert = certify_entropy_lower_bound(G, args.d, solved)
    report = {
        "certificate": cert,
        "matching_count_bound": matching_count_bound_report(G, dirac, solved=solved),
    }
    return "bound_report.json", report, (
        f"bound {cert['bound']:.6g}  h_solver {cert['h_solver']:.6g}  "
        f"h_pullback {cert['h_pullback']:.6g}  wrote {os.path.join(args.out, 'bound_report.json')}"
    )


def _cmd_verify(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    for r in results:
        print(r.summary_line())
    passed = all(r.passed for r in results)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(
            os.path.join(args.out, "acceptance_report.json"),
            {
                "passed": passed,
                "criteria": [
                    {"name": r.name, "passed": r.passed, "details": r.details,
                     "elapsed_s": r.elapsed}
                    for r in results
                ],
            },
        )
    print("ACCEPTANCE: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="hypermatch", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, graph=True, dirac=None):
        """--graph, --out and, unless dirac is None, --d, --gamma (required
        if dirac) and the --alpha-table that is read only with them."""
        if graph:
            p.add_argument("--graph", required=True, help="input .khg file")
        p.add_argument("--out", default=".", help="output directory")
        if dirac is not None:
            p.add_argument("--d", type=int, required=dirac, help="Dirac parameters, with --gamma")
            p.add_argument("--gamma", type=float, required=dirac)
            p.add_argument("--alpha-table", default=None, help="alpha override JSON")

    p = sub.add_parser("gen", help="generate a hypergraph instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--complete", action="store_true")
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    add_common(p, graph=False, dirac=False)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("degrees", help="degree profile and Dirac check")
    add_common(p, dirac=False)
    p.set_defaults(handler=_cmd_degrees)

    p = sub.add_parser("entropy", help="max-entropy fractional perfect matching")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=20000)
    add_common(p)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("count", help="exact perfect matching count")
    add_common(p, dirac=False)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("marginals", help="exact matching marginals")
    add_common(p)
    p.set_defaults(handler=_cmd_marginals)

    p = sub.add_parser("anneal", help="anneal-and-shift a near-optimal matching")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--auto", action="store_true",
                   help="shrink epsilon until the run parameters validate")
    p.add_argument("--max-steps", type=int, default=100000)
    add_common(p, dirac=True)
    p.set_defaults(handler=_cmd_anneal)

    p = sub.add_parser("greedy", help="guided random greedy trajectories")
    p.add_argument("--weights", default=None, help="input .wts file (default: solve)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--stop-fraction", type=float, default=None)
    p.add_argument("--c", type=float, default=0.05)
    p.add_argument("--jobs", type=int, default=1)
    add_common(p)
    p.set_defaults(handler=_cmd_greedy)

    p = sub.add_parser("bound", help="entropy lower bound certificates")
    add_common(p, dirac=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced trial counts (smoke run, not the gate)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": "missing-file", "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except HypermatchError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
