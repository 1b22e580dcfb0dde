#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload, at reduced input sizes and one second per run, checks
that an untraced run emits exactly the end-to-end metrics BENCHMARK.json
names, each with its unit; that a traced run emits exactly the per-layer
metrics, each with its unit; that all runs are correct; and that two
untraced runs of one seed, and the traced run, record identical work
counters.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run


def same_work(a: dict, b: dict) -> bool:
    common = min(len(a["rounds"]), len(b["rounds"]))
    return (a["setup"] == b["setup"] and a["final"] == b["final"]
            and a["rounds"][:common] == b["rounds"][:common])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        print("BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
        return 1
    sys.path.insert(0, str(run.SRC))
    problems = []
    for workload in run.WORKLOADS:
        before = len(problems)
        reports = [run.run(workload, 7, 1.0, trace, small=True) for trace in (False, False, True)]
        for report, key in zip(reports[1:], ("end_to_end", "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in report["result"]["metrics"].items()}
            if got != wanted:
                problems.append(f"{workload}: {key} metrics or units differ: "
                                f"{sorted(set(got.items()) ^ set(wanted.items()))}")
        for report in reports:
            if not report["result"]["correct"]:
                problems.append(f"{workload}: incorrect run: {report['failures'][:5]}")
        counters = [p["counters"] for r in reports for p in r["phases"].values()]
        if not all(same_work(counters[0], c) for c in counters[1:]):
            problems.append(f"{workload}: work counters differ between runs of one seed")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
