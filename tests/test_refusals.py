"""Every way the CLI refuses a run: one row per (argv, exit code, error name, message fragment).

A refusal prints one JSON object on stderr whose ``error`` names its kind:
``usage`` for a bad command line, ``missing-file`` for an absent input, the
class name of any other ``OSError`` (exit 2), and the class name of a
package error (exit 1).  Its ``message`` holds the row's fragment.  Paths in
braces are made by the ``paths`` fixture; a row without ``--out`` writes to
a new directory, which a refused run must not leave behind.

argparse types the CLI's integer and float options, so the library's integer
and real doors get rows of their own: each refuses a bool and a value of the
wrong kind with InvalidArgumentError rather than truncating it, keeping it or
failing deeper in.
"""

import json
import os

import numpy as np
import pytest

from hypermatch import cli
from hypermatch.cli import main
from hypermatch.counting import sample_uniform_pms
from hypermatch.entropy import max_entropy_fpm
from hypermatch.errors import InvalidArgumentError
from hypermatch.greedy import TrajectoryConfig, run_greedy, trajectory_deviation
from hypermatch.hypergraph import DiracParams, gen_complete, gen_random_dirac, write_hypergraph
from hypermatch.seeds import check_seed, rng_from
from hypermatch.shifting import AnnealParams

ANNEAL = "anneal --graph {k6} --seed 4 --d 1 --gamma 0.5 --trials 400 --epsilon"
GEN = "gen --n 12 --k 3"
NO_SEED = "seed must be an integer in [0, 2^64)"
TRIALS = "trials must be an integer >= 0"
TOGETHER = "--d and --gamma must be given together"
NO_DIRAC = "--alpha-table needs --d and --gamma"
COMPLETE = "gen --n 6 --k 3 --complete"
ATTEMPTS = "max_attempts must be an integer >= 1"
TOL = "need finite tol > 0 and max_iter >= 1"
HORIZON = "horizon_fraction must be a finite real >= 0"

REFUSALS = [
    # argv, exit code, error name, message fragment
    ("count --bogus x", 2, "usage", "--graph"),
    ("entropy --graph {k6} --alpha-table {alpha}", 2, "usage", "--alpha-table"),
    ("marginals --graph {k6} --alpha-table {alpha}", 2, "usage", "--alpha-table"),
    ("greedy --graph {k6} --seed 3 --alpha-table {alpha}", 2, "usage", "--alpha-table"),
    ("count --graph {absent}", 2, "missing-file", "{absent}"),
    ("entropy --graph {k6} --out {file}", 2, "FileExistsError", "{file}"),
    ("count --graph {dir}", 2, "IsADirectoryError", "{dir}"),
    ("count --graph {bad}", 1, "ParseError", ":2:"),
    ("degrees --graph {k6} --d 1 --gamma 0.1 --alpha-table {bad_alpha}", 1, "ConfigError", "{bad_alpha}"),
    ("gen --n 100000 --k 3 --complete", 1, "ResourceLimitError", "work limit"),
    ("verify --suite bogus", 2, "usage", "--suite"),
    (ANNEAL + " 0.9 --max-steps -1", 1, "InvalidArgumentError", "max_steps"),
    (ANNEAL + " 0.9 --max-steps -1 --auto", 1, "InvalidArgumentError", "max_steps"),
    (ANNEAL + " 5", 1, "InvalidArgumentError", "invalid anneal parameters"),  # epsilon above C, no --auto
    ("greedy --graph {k6} --seed 3 --jobs 0", 1, "InvalidArgumentError", "--jobs"),
    ("entropy --graph {uncovered}", 1, "InfeasibleError", "vertex 3"),
    # NaN and inf numbers
    (GEN + " --density nan --d 2 --gamma 0.2 --seed 7", 1, "InvalidArgumentError", "density nan"),
    (GEN + " --density inf --d 2 --gamma 0.2 --seed 7", 1, "InvalidArgumentError", "density inf"),
    (GEN + " --density 0.95 --d 2 --gamma inf --seed 7", 1, "InvalidArgumentError", "positive and finite"),
    ("degrees --graph {k6} --d 1 --gamma nan", 1, "InvalidArgumentError", "gamma must be positive"),
    ("degrees --graph {k6} --d 1 --gamma inf", 1, "InvalidArgumentError", "gamma must be positive"),
    ("count --graph {k6} --d 1 --gamma inf", 1, "InvalidArgumentError", "gamma must be positive"),
    ("bound --graph {k6} --d 2 --gamma inf", 1, "InvalidArgumentError", "gamma must be positive"),
    ("anneal --graph {k6} --seed 4 --d 1 --gamma inf --epsilon 0.9", 1, "InvalidArgumentError", "gamma"),
    (ANNEAL + " nan", 1, "InvalidArgumentError", "invalid anneal parameters"),
    (ANNEAL + " inf --auto", 1, "InvalidArgumentError", "no valid epsilon"),
    ("entropy --graph {k6} --tol nan", 1, "InvalidArgumentError", "need finite tol > 0"),
    ("entropy --graph {k6} --tol inf", 1, "InvalidArgumentError", "need finite tol > 0"),
    ("entropy --graph {k6} --tol=-inf", 1, "InvalidArgumentError", "need finite tol > 0"),
    # a negative number as its own token is a value, however float() spells it
    ("entropy --graph {k6} --tol -inf", 1, "InvalidArgumentError", "need finite tol > 0"),
    ("entropy --graph {k6} --tol -1e-3", 1, "InvalidArgumentError", "need finite tol > 0"),
    (ANNEAL + " -1e-9", 1, "InvalidArgumentError", "need epsilon > 0"),
    ("greedy --graph {k6} --seed 3 --c nan", 1, "InvalidArgumentError", "c=nan"),
    ("greedy --graph {k6} --seed 3 --stop-fraction inf", 1, "InvalidArgumentError", "stop_fraction=inf"),
    # a lone --d or --gamma
    ("degrees --graph {k6} --gamma 0.1", 1, "InvalidArgumentError", TOGETHER),
    ("degrees --graph {k6} --d 1", 1, "InvalidArgumentError", TOGETHER),
    ("count --graph {k6} --d 1", 1, "InvalidArgumentError", TOGETHER),
    ("count --graph {k6} --gamma 0.1", 1, "InvalidArgumentError", TOGETHER),
    (GEN + " --density 0.95 --d 2 --seed 7", 1, "InvalidArgumentError", TOGETHER),
    # options that the run would read and not use
    ("degrees --graph {k6} --alpha-table {alpha}", 1, "InvalidArgumentError", NO_DIRAC),
    ("count --graph {k6} --alpha-table {alpha}", 1, "InvalidArgumentError", NO_DIRAC),
    (COMPLETE + " --density 0.95", 1, "InvalidArgumentError", "--complete takes no --density"),
    (COMPLETE + " --d 1", 1, "InvalidArgumentError", "--complete takes no --d"),
    (COMPLETE + " --gamma 0.5", 1, "InvalidArgumentError", "--complete takes no --gamma"),
    (COMPLETE + " --seed 7", 1, "InvalidArgumentError", "--complete takes no --seed"),
    (COMPLETE + " --alpha-table {alpha}", 1, "InvalidArgumentError", "--complete takes no --alpha-table"),
    # out-of-range d, k and seeds
    (GEN + " --density 0.95 --d 3 --gamma 0.2 --seed 7", 1, "InvalidArgumentError", "d=3 outside [1, 2]"),
    (GEN + " --density 0.95 --d 0 --gamma 0.2 --seed 7", 1, "InvalidArgumentError", "d must be >= 1"),
    ("degrees --graph {k6} --d 5 --gamma 0.1", 1, "InvalidArgumentError", "d=5 outside"),
    ("count --graph {k6} --d 3 --gamma 0.1", 1, "InvalidArgumentError", "d=3 outside"),
    (ANNEAL.replace("--d 1", "--d 3") + " 0.9", 1, "InvalidArgumentError", "d=3 outside"),
    ("bound --graph {k6} --d 1 --gamma 0.5", 1, "InvalidArgumentError", "d=1 violates"),
    ("gen --n 12 --k 1 --complete", 1, "InvalidArgumentError", "k=1"),
    ("gen --n 12 --k 13 --complete", 1, "InvalidArgumentError", "k=13"),
    ("gen --n 12 --k 5 --seed 7 --density 0.95 --d 2 --gamma 0.2", 1, "InvalidArgumentError", "k=5 must divide"),
    (GEN + " --density 0.95 --d 2 --gamma 0.2 --seed -1", 1, "InvalidArgumentError", NO_SEED),
    (GEN + " --density 0.95 --d 2 --gamma 0.2 --seed 18446744073709551616", 1, "InvalidArgumentError", NO_SEED),
    ("greedy --graph {k6} --seed 18446744073709551616", 1, "InvalidArgumentError", NO_SEED),
    (ANNEAL.replace("--seed 4", "--seed -4") + " 0.9", 1, "InvalidArgumentError", NO_SEED),
]


@pytest.fixture()
def paths(tmp_path):
    write_hypergraph(gen_complete(6, 3), str(tmp_path / "k6.khg"))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "bad.khg").write_text("3 6\n0 1\n")
    (tmp_path / "uncovered.khg").write_text("3 6\n0 1 2\n")
    (tmp_path / "alpha.json").write_text('{"entries": [{"d": 1, "k": 3, "alpha": "9/10"}]}')
    (tmp_path / "bad_alpha.json").write_text('{"entries": [{"d": 1, "k": 3, "alpha": "1/0"}]}')
    names = {"k6": "k6.khg", "file": "file", "dir": "dir", "bad": "bad.khg", "absent": "absent.khg",
             "uncovered": "uncovered.khg", "alpha": "alpha.json", "bad_alpha": "bad_alpha.json"}
    return {key: str(tmp_path / name) for key, name in names.items()}


@pytest.mark.parametrize("argv,code,error,fragment", REFUSALS,
                         ids=["-".join(map(str, row[:3])) for row in REFUSALS])
def test_refusal(paths, tmp_path, capsys, monkeypatch, argv, code, error, fragment):
    monkeypatch.chdir(tmp_path)
    args = argv.format(**paths).split()
    if "--out" not in args:
        args += ["--out", str(tmp_path / "new")]
    assert main(args) == code
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and fragment.format(**paths) in err["message"]
    assert not (tmp_path / "new").exists()


INTEGER_REFUSALS = [
    # id, call, message fragment
    ("stream-index-float", lambda: rng_from(1, 2.5), "stream indices must be integers >= 0"),
    ("stream-index-bool", lambda: rng_from(1, True), "stream indices must be integers >= 0"),
    ("stream-index-negative", lambda: rng_from(1, -1), "stream indices must be integers >= 0"),
    ("seed-bool", lambda: check_seed(True), NO_SEED),
    ("dirac-d-float", lambda: DiracParams(1.5, 0.2), "d must be >= 1"),
    ("dirac-d-bool", lambda: DiracParams(True, 0.2), "d must be >= 1"),
    ("dirac-gamma-str", lambda: DiracParams(1, "a"), "gamma must be positive and finite"),
    ("max-steps-float", lambda: AnnealParams.for_graph(gen_complete(6, 3), 0.5, 0.9, 2.0, max_steps=2.5),
     "max_steps"),
    ("sample-trials-negative", lambda: sample_uniform_pms(gen_complete(6, 3), 1, -1), TRIALS),
    ("sample-trials-bool", lambda: sample_uniform_pms(gen_complete(6, 3), 1, True), TRIALS),
    ("sample-trials-float", lambda: sample_uniform_pms(gen_complete(6, 3), 1, 2.5), TRIALS),
    ("sample-trials-str", lambda: sample_uniform_pms(gen_complete(6, 3), 1, "3"), TRIALS),
    ("dirac-max-attempts-float", lambda: dirac(max_attempts=2.5), ATTEMPTS),
    ("dirac-max-attempts-bool", lambda: dirac(max_attempts=True), ATTEMPTS),
    ("dirac-max-attempts-zero", lambda: dirac(max_attempts=0), ATTEMPTS),
    ("entropy-max-iter-float", lambda: max_entropy_fpm(gen_complete(6, 3), max_iter=2.5), TOL),
    ("entropy-max-iter-bool", lambda: max_entropy_fpm(gen_complete(6, 3), max_iter=True), TOL),
]


def dirac(density=0.8, max_attempts=64):
    return gen_random_dirac(12, 3, DiracParams(2, 0.1), density, 21, max_attempts=max_attempts)


@pytest.mark.parametrize("call,fragment", [row[1:] for row in INTEGER_REFUSALS],
                         ids=[row[0] for row in INTEGER_REFUSALS])
def test_integer_argument_refused(call, fragment):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert fragment in str(err.value)


def test_integer_trial_counts_pass():
    assert sample_uniform_pms(gen_complete(6, 3), 1, 0) == []
    assert sample_uniform_pms(gen_complete(6, 3), 1, np.int64(3)) == sample_uniform_pms(gen_complete(6, 3), 1, 3)


def anneal_params(gamma=0.5, epsilon=0.9, C=2.0):
    return AnnealParams.for_graph(gen_complete(6, 3), gamma, epsilon, C, 10)


def deviation(horizon_fraction):
    G = gen_complete(6, 3)
    x = max_entropy_fpm(G)[0]
    return trajectory_deviation(run_greedy(G, x, TrajectoryConfig(), seed=0), G, x, horizon_fraction)


REAL_REFUSALS = [
    # id, call, message fragment; a bool is not a real argument
    ("dirac-gamma-bool", lambda: DiracParams(1, True), "gamma must be positive and finite"),
    ("dirac-gamma-numpy-bool", lambda: DiracParams(1, np.True_), "gamma must be positive and finite"),
    ("anneal-gamma-bool", lambda: anneal_params(gamma=True), "reals, not bools"),
    ("anneal-epsilon-bool", lambda: anneal_params(epsilon=True), "reals, not bools"),
    ("anneal-C-bool", lambda: anneal_params(C=True), "reals, not bools"),
    ("anneal-C-str", lambda: anneal_params(C="2"), "reals, not bools"),
    ("dirac-density-bool", lambda: dirac(density=True), "density True outside (0, 1]"),
    ("entropy-tol-str", lambda: max_entropy_fpm(gen_complete(6, 3), tol="1e-8"), TOL),
    ("entropy-tol-bool", lambda: max_entropy_fpm(gen_complete(6, 3), tol=True), TOL),
    ("trajectory-c-str", lambda: TrajectoryConfig(c="0.5"), "trajectory exponent c='0.5'"),
    ("trajectory-stop-str", lambda: TrajectoryConfig(stop_fraction="0.5"), "stop_fraction='0.5'"),
    ("trajectory-stop-bool", lambda: TrajectoryConfig(stop_fraction=True), "stop_fraction=True"),
    ("deviation-horizon-negative", lambda: deviation(-1.0), HORIZON),
    ("deviation-horizon-nan", lambda: deviation(float("nan")), HORIZON),
    ("deviation-horizon-str", lambda: deviation("0.5"), HORIZON),
]


@pytest.mark.parametrize("call,fragment", [row[1:] for row in REAL_REFUSALS],
                         ids=[row[0] for row in REAL_REFUSALS])
def test_real_argument_refused(call, fragment):
    with pytest.raises(InvalidArgumentError) as err:
        call()
    assert fragment in str(err.value)


def test_real_arguments_of_every_number_type_pass():
    assert DiracParams(1, 1).gamma == 1 and DiracParams(1, np.float32(0.25)).gamma == 0.25
    params = anneal_params(gamma=np.int64(1), epsilon=np.float64(0.5), C=2)
    assert (params.epsilon, params.C) == (0.5, 2)
    assert params == anneal_params(gamma=1.0, epsilon=0.5, C=2.0)
    assert dirac(density=np.float64(0.8), max_attempts=np.int64(64)).digest() == dirac().digest()
    G = gen_complete(6, 3)
    solved = max_entropy_fpm(G, tol=np.float64(1e-9), max_iter=np.int32(100))[0]
    assert solved.weights.tolist() == max_entropy_fpm(G, tol=1e-9, max_iter=100)[0].weights.tolist()
    assert TrajectoryConfig(c=np.float64(0.05), stop_fraction=np.float32(0.5)).stop_fraction == 0.5
    assert deviation(np.float64(0.5)) == deviation(0.5)


def test_a_refusal_keeps_an_out_that_existed(paths, tmp_path):
    out = tmp_path / "dir"
    assert main(f"greedy --graph {paths['k6']} --seed 3 --jobs 0 --out {out}".split()) == 1
    assert out.is_dir()


def test_a_refusal_keeps_an_out_that_holds_a_file(paths, tmp_path, monkeypatch):
    def refuse(*_):
        raise InvalidArgumentError("refused after the first trajectory")

    monkeypatch.setattr(cli, "trajectory_metadata", refuse)
    out = tmp_path / "new"
    assert main(f"greedy --graph {paths['k6']} --seed 3 --out {out}".split()) == 1
    assert os.listdir(out) == ["trajectory_0000.csv"]
