import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from hypermatch import acceptance, bipartite, cli, counting, entropy
from hypermatch.cli import main
from hypermatch.hypergraph import gen_complete, read_hypergraph, write_hypergraph
from hypermatch.shifting import AnnealParams


@pytest.fixture()
def k6_path(tmp_path):
    path = tmp_path / "k6.khg"
    write_hypergraph(gen_complete(6, 3), str(path))
    return str(path)


@pytest.fixture()
def readme_graph(tmp_path):
    assert main(["gen", "--n", "12", "--k", "3", "--density", "0.95", "--d", "2",
                 "--gamma", "0.2", "--seed", "7", "--out", str(tmp_path / "run")]) == 0
    return str(tmp_path / "run" / "graph.khg")


def run(args):
    return main(args)


@pytest.fixture()
def built_oracles(monkeypatch):
    """The n of every exact oracle built from here on."""
    built = []

    class CountedOracle(counting.PMOracle):
        def __init__(self, G):
            built.append(G.n)
            super().__init__(G)

    monkeypatch.setattr(counting, "PMOracle", CountedOracle)
    return built


class TestSubcommands:
    def test_gen_complete_and_reload(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--n", "6", "--k", "3", "--complete", "--out", str(out)]) == 0
        G = read_hypergraph(str(out / "graph.khg"))
        assert G.num_edges == 20
        report = json.loads((out / "gen_report.json").read_text())
        assert report["graph_digest"] == G.digest()
        assert "config_digest" in report["_provenance"]

    def test_gen_random_requires_seed(self, tmp_path):
        code = run(["gen", "--n", "9", "--k", "3", "--density", "0.9", "--d", "2",
                    "--gamma", "0.2", "--out", str(tmp_path)])
        assert code == 1

    def test_count_k6(self, k6_path, tmp_path, capsys):
        assert run(["count", "--graph", k6_path, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == {"value": "10"}
        payload = json.loads((tmp_path / "count.json").read_text())
        assert payload["value"] == "10"

    def test_count_with_entropy_comparison(self, k6_path, tmp_path):
        assert run(["count", "--graph", k6_path, "--d", "2", "--gamma", "0.3",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "count.json").read_text())["entropy_comparison"]
        for field in ("n", "k", "d", "gamma", "ln_phi", "h_solver", "residual",
                      "residual_per_n", "s_count_check"):
            assert field in report
        assert report["residual_per_n"] == pytest.approx(0.28290, abs=1e-4)

    def test_entropy_k6(self, k6_path, tmp_path):
        assert run(["entropy", "--graph", k6_path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "entropy_report.json").read_text())
        assert report["converged"]
        assert report["entropy"] == pytest.approx(2 * math.log(10), abs=1e-8)
        assert (tmp_path / "weights.wts").exists()

    def test_degrees_profile(self, k6_path, tmp_path):
        assert run(["degrees", "--graph", k6_path, "--out", str(tmp_path),
                    "--d", "1", "--gamma", "0.1"]) == 0
        report = json.loads((tmp_path / "degrees.json").read_text())
        assert report["min_degrees"] == [20, 10, 4]
        assert report["profile_nonincreasing"] and report["dirac"]

    def test_marginals(self, k6_path, tmp_path):
        assert run(["marginals", "--graph", k6_path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "marginals_report.json").read_text())
        assert report["marginal_inequality_ok"] and report["solver_dominance_ok"]

    def test_marginals_fills_the_dp_once(self, k6_path, tmp_path, built_oracles):
        # the weights file and the report read one exact oracle
        assert run(["marginals", "--graph", k6_path, "--out", str(tmp_path)]) == 0
        assert built_oracles == [6]

    def test_count_fills_the_dp_once(self, k6_path, tmp_path, built_oracles):
        # the count and its entropy comparison read one exact oracle
        assert run(["count", "--graph", k6_path, "--d", "2", "--gamma", "0.3",
                    "--out", str(tmp_path)]) == 0
        assert built_oracles == [6]

    def test_bound_solves_once(self, k6_path, tmp_path, monkeypatch):
        # the certificate and the matching-count bound read one solve
        calls = []
        real = entropy.max_entropy_fpm

        def counted(G, *args, **kwargs):
            calls.append(G.n)
            return real(G, *args, **kwargs)

        for module in (cli, bipartite):
            monkeypatch.setattr(module, "max_entropy_fpm", counted)
        assert run(["bound", "--graph", k6_path, "--d", "2", "--gamma", "0.3",
                    "--out", str(tmp_path)]) == 0
        assert calls == [6]

    def test_greedy_writes_trajectories(self, k6_path, tmp_path):
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "2",
                    "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trajectory_0000.csv").exists()
        assert (tmp_path / "trajectory_0001.meta.json").exists()
        report = json.loads((tmp_path / "greedy_report.json").read_text())
        assert report["trials"] == 2

    def test_greedy_jobs_match_serial(self, k6_path, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "3",
                    "--out", str(serial)]) == 0
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "3",
                    "--jobs", "2", "--out", str(parallel)]) == 0
        for name in sorted(os.listdir(serial)):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.fixture()
    def pool_calls(self, monkeypatch):
        """Replace the process pool by an inline stub; records max_workers."""
        import concurrent.futures

        calls = []

        class InlinePool:
            def __init__(self, max_workers=None):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return calls

    @pytest.mark.parametrize("cpus", [1, None])
    def test_greedy_jobs_on_one_cpu_run_serially(self, k6_path, tmp_path, monkeypatch,
                                                 pool_calls, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "3",
                    "--jobs", "8", "--out", str(tmp_path)]) == 0
        assert pool_calls == []
        assert json.loads((tmp_path / "greedy_report.json").read_text())["trials"] == 3

    def test_greedy_jobs_capped_at_cpu_count(self, k6_path, tmp_path, monkeypatch, pool_calls):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = tmp_path / "serial"
        capped = tmp_path / "capped"
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "3",
                    "--out", str(serial)]) == 0
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "3",
                    "--jobs", "64", "--out", str(capped)]) == 0
        assert pool_calls == [2]
        for name in sorted(os.listdir(serial)):
            assert (serial / name).read_bytes() == (capped / name).read_bytes()

    def test_anneal_auto(self, k6_path, tmp_path):
        code = run(["anneal", "--graph", k6_path, "--seed", "4", "--d", "1",
                    "--gamma", "0.5", "--epsilon", "0.9", "--trials", "400",
                    "--auto", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "anneal_report.json").read_text())
        assert report["termination"] in ("no-high-weight-edge", "search-exhausted")
        assert (tmp_path / "anneal_trace.csv").exists()

    def test_bound_k6(self, k6_path, tmp_path):
        assert run(["bound", "--graph", k6_path, "--d", "2", "--gamma", "0.3",
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bound_report.json").read_text())
        cert = report["certificate"]
        assert cert["bound"] == pytest.approx(2 * math.log(10), abs=1e-9)
        assert cert["solver_clears_bound"] and cert["pullback_clears_bound"]
        assert cert["lemma_check"]
        assert report["matching_count_bound"]["p"] == pytest.approx(1.0)


    def test_entropy_at_a_loose_tolerance_says_its_weights_are_raw(self, readme_graph, tmp_path,
                                                                   capsys):
        # converged at tol 1e-3, but the vertex sums miss the 1e-8 of a verified fpm
        assert run(["entropy", "--graph", readme_graph, "--tol", "1e-3", "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "converged=True" in line and line.endswith("weights.wts  status=raw")
        assert (tmp_path / "weights.wts").read_text().splitlines()[1] == "# status raw"

    @pytest.mark.parametrize("status", ["verified-fpm", "raw"])
    def test_greedy_reads_a_weights_file_that_passes_the_check(self, k6_path, tmp_path, status):
        # a raw header is fine once the vertex sums pass: the CLI checks them
        G = read_hypergraph(k6_path)
        x = entropy.EdgeWeights.from_weights(G, np.full(G.num_edges, 0.1))
        if status == "verified-fpm":
            x = entropy.as_verified(G, x)
        path = tmp_path / "in.wts"
        entropy.write_weights(str(path), x)
        assert path.read_text().splitlines()[1] == f"# status {status}"
        assert run(["greedy", "--graph", k6_path, "--weights", str(path), "--seed", "3",
                    "--out", str(tmp_path / "out")]) == 0
        prov = json.loads((tmp_path / "out" / "greedy_report.json").read_text())["_provenance"]
        assert sorted(prov["input_digests"]) == sorted([k6_path, str(path)])

    def test_greedy_refuses_a_weights_file_that_is_not_an_fpm(self, k6_path, tmp_path, capsys):
        G = read_hypergraph(k6_path)
        path = str(tmp_path / "in.wts")
        entropy.write_weights(path, entropy.EdgeWeights.from_weights(G, np.full(G.num_edges, 0.05)))
        assert run(["greedy", "--graph", k6_path, "--weights", path, "--seed", "3",
                    "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidArgumentError" and "not a fractional" in err["message"]

    @pytest.mark.parametrize("max_steps", ["0", "50"])
    def test_anneal_without_auto_runs_the_given_epsilon(self, k6_path, tmp_path, max_steps):
        # --max-steps 0 is a mix-only run: the checked mixture is the result
        assert run(["anneal", "--graph", k6_path, "--seed", "4", "--d", "1", "--gamma", "0.5",
                    "--epsilon", "0.9", "--trials", "400", "--max-steps", max_steps,
                    "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "anneal_report.json").read_text())
        C = max(1.0, report["base_matching_report"]["well_distributed_factor"])
        expected = AnnealParams.for_graph(read_hypergraph(k6_path), 0.5, 0.9, C, int(max_steps))
        assert report["effective_params"] == dataclasses.asdict(expected)
        assert (tmp_path / "anneal.wts").read_text().splitlines()[1] == "# status verified-fpm"
        if max_steps == "0":
            assert (report["steps"], report["termination"]) == (0, "step-limit")
            assert report["entropy_final"] == report["entropy_start"]


class TestVerify:
    @pytest.mark.parametrize("passed", [True, False])
    def test_exit_code_report_and_last_line(self, tmp_path, capsys, monkeypatch, passed):
        results = [acceptance.CriterionResult("1 first", True, "ok", 0.5),
                   acceptance.CriterionResult("2 second", passed, "checked", 0.25)]
        monkeypatch.setattr(acceptance, "run_all", lambda quick: results)
        assert run(["verify", "--out", str(tmp_path)]) == (0 if passed else 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines == [r.summary_line() for r in results] + [
            "ACCEPTANCE: " + ("PASS" if passed else "FAIL")]
        report = json.loads((tmp_path / "acceptance_report.json").read_text())
        assert report == {"passed": passed, "criteria": [
            {"name": r.name, "passed": r.passed, "details": r.details, "elapsed_s": r.elapsed}
            for r in results]}


class TestProvenance:
    def test_alpha_table_is_an_input(self, readme_graph, tmp_path):
        # alpha_1(3) = 9/10 turns the README graph's vertex-degree check from
        # true to false, so the table must show up in the run's provenance
        table = tmp_path / "alpha.json"
        table.write_text(json.dumps({"entries": [{"d": 1, "k": 3, "alpha": "9/10"}]}))
        argv = ["degrees", "--graph", readme_graph, "--d", "1", "--gamma", "0.05"]
        assert run(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert run(argv + ["--alpha-table", str(table), "--out", str(tmp_path / "table")]) == 0
        plain = json.loads((tmp_path / "plain" / "degrees.json").read_text())
        with_table = json.loads((tmp_path / "table" / "degrees.json").read_text())
        assert plain["dirac"] and not with_table["dirac"]
        assert list(plain["_provenance"]["input_digests"]) == [readme_graph]
        assert with_table["_provenance"]["input_digests"] == {
            readme_graph: plain["_provenance"]["input_digests"][readme_graph],
            str(table): hashlib.sha256(table.read_bytes()).hexdigest(),
        }

    def test_anneal_and_degrees_agree_on_dirac_under_a_table(self, readme_graph, tmp_path):
        # alpha_2(3) = 1 makes no graph (2, 0.2)-Dirac; the anneal report reads the table too
        table = tmp_path / "alpha.json"
        table.write_text(json.dumps({"entries": [{"d": 2, "k": 3, "alpha": "1"}]}))
        found = []
        for extra in ([], ["--alpha-table", str(table)]):
            out = str(tmp_path / f"out{len(extra)}")
            assert run(["degrees", "--graph", readme_graph, "--d", "2", "--gamma", "0.2",
                        "--out", out] + extra) == 0
            assert run(["anneal", "--graph", readme_graph, "--seed", "5", "--d", "2",
                        "--gamma", "0.2", "--epsilon", "0.9", "--auto", "--trials", "200",
                        "--out", out] + extra) == 0
            degrees = json.loads(open(os.path.join(out, "degrees.json")).read())
            anneal = json.loads(open(os.path.join(out, "anneal_report.json")).read())
            found.append((degrees["dirac"], anneal["base_matching_report"]["dirac"]))
        assert found == [(True, True), (False, False)]

    @pytest.mark.parametrize("command,name", [("count", "count.json"),
                                              ("bound", "bound_report.json")])
    def test_alpha_table_recorded_by_count_and_bound(self, k6_path, tmp_path, command, name):
        table = tmp_path / "alpha.json"
        table.write_text(json.dumps({"entries": [{"d": 1, "k": 3, "alpha": "9/10"}]}))
        assert run([command, "--graph", k6_path, "--d", "2", "--gamma", "0.3",
                    "--alpha-table", str(table), "--out", str(tmp_path)]) == 0
        prov = json.loads((tmp_path / name).read_text())["_provenance"]
        assert sorted(prov["input_digests"]) == sorted([k6_path, str(table)])

    def test_config_is_the_parsed_options(self, k6_path, tmp_path):
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", "2",
                    "--jobs", "2", "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "greedy_report.json").read_text())["_provenance"]["config"]
        assert config == {"subcommand": "greedy", "graph": k6_path, "weights": None,
                          "seed": 3, "trials": 2, "stop_fraction": None, "c": 0.05}


class TestErrors:
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_greedy_needs_a_trial(self, k6_path, tmp_path, capsys, trials):
        assert run(["greedy", "--graph", k6_path, "--seed", "3", "--trials", trials,
                    "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidArgumentError" and "--trials" in err["message"]

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        bad = tmp_path / "k4.khg"
        write_hypergraph(gen_complete(4, 2), str(bad))
        assert run(["entropy", "--graph", str(bad), "--tol", "-1", "--out",
                    str(tmp_path)]) == 1
