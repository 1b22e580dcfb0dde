"""Smoke test of the benchmark's in-process workloads at reduced sizes.

``perfbench/run.py`` reads parts of the package that nothing else in
``src/`` reads (``Hypergraph.incident``, ``Hypergraph.edges``,
``PMOracle._memo``, ``require_termination=``, the ``prefix_rounds`` and
``resamples`` report keys); a run that loses one of them reports failed
operations, so these runs catch that before the benchmark does.  The
``cli_cold`` workload starts processes and is left to ``perfbench/selftest.py``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    return run


@pytest.mark.parametrize("workload", ["greedy_walks", "exact_oracle", "dirac_pipeline"])
def test_small_run_is_correct(bench, workload):
    result = bench.run(workload, 7, 0.3, False, small=True)["result"]
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] > 0
