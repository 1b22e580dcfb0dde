#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--seconds S] [--workload NAME ...] [--out FILE]

For every workload (default: all of BENCHMARK.json) and seed, runs
``perfbench/run.py --trace 0`` once, one run at a time, and prints for each
end-to-end metric the median, the first and third quartiles and the spread
(interquartile range over the median) of its values, next to the metric's
bound.  ``--out`` also writes that summary as JSON.  Exits 1 if a run fails,
is incorrect, or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: failed run\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
            within = spread <= bounds[name] or name == "setup_s"
            ok &= within
            print(f"{workload} {name}: median {med:.4g} spread {spread:.3f} "
                  f"(bound {bounds[name]}){'' if within else '  OVER BOUND'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
