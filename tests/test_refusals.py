"""Every way the CLI refuses a run: one row per (argv, exit code, error name).

A refusal prints one JSON object on stderr whose ``error`` names its kind:
``usage`` for a bad command line, ``missing-file`` for an absent input, the
class name of any other ``OSError`` (exit 2), and the class name of a
package error (exit 1).  Paths in braces are made by the ``paths`` fixture.
"""

import json

import pytest

from hypermatch.cli import main
from hypermatch.hypergraph import gen_complete, write_hypergraph

ANNEAL = "anneal --graph {k6} --seed 4 --d 1 --gamma 0.5 --trials 400 --epsilon"

REFUSALS = [
    # argv, exit code, error name
    ("count --bogus x", 2, "usage"),
    ("entropy --graph {k6} --alpha-table {alpha}", 2, "usage"),
    ("marginals --graph {k6} --alpha-table {alpha}", 2, "usage"),
    ("greedy --graph {k6} --seed 3 --alpha-table {alpha}", 2, "usage"),
    ("count --graph {absent}", 2, "missing-file"),
    ("entropy --graph {k6} --out {file}", 2, "FileExistsError"),
    ("count --graph {dir}", 2, "IsADirectoryError"),
    ("count --graph {bad}", 1, "ParseError"),
    ("degrees --graph {k6} --d 1 --gamma 0.1 --alpha-table {bad_alpha}", 1, "ConfigError"),
    ("gen --n 100000 --k 3 --complete", 1, "ResourceLimitError"),
    ("verify --suite bogus", 1, "InvalidArgumentError"),
    (ANNEAL + " 0.9 --max-steps -1", 1, "InvalidArgumentError"),
    (ANNEAL + " 0.9 --max-steps -1 --auto", 1, "InvalidArgumentError"),
    (ANNEAL + " 5", 1, "InvalidArgumentError"),  # epsilon above C, no --auto to shrink it
    ("greedy --graph {k6} --seed 3 --jobs 0", 1, "InvalidArgumentError"),
    ("entropy --graph {uncovered}", 1, "InfeasibleError"),
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


@pytest.mark.parametrize("argv,code,error", REFUSALS)
def test_refusal(paths, tmp_path, capsys, monkeypatch, argv, code, error):
    monkeypatch.chdir(tmp_path)
    assert main(argv.format(**paths).split()) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
