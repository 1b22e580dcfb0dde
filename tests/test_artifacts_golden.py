"""Byte-identity of the README CLI flow, pinned by sha256 digests.

The eight README subcommands run in-process from a fresh working directory
with relative ``run/`` paths (greedy with ``--jobs 1``), exactly as the
README lists them.  Every artifact they write must hash to the recorded
digest: a change that alters any count, weight, trace, trajectory, report
or provenance byte fails here.  The line each subcommand prints is pinned
as well.
"""

import contextlib
import hashlib
import io

import pytest

from hypermatch.cli import main

FLOW = [
    ["gen", "--n", "12", "--k", "3", "--density", "0.95", "--d", "2", "--gamma", "0.2",
     "--seed", "7", "--out", "run/"],
    ["degrees", "--graph", "run/graph.khg", "--d", "2", "--gamma", "0.2", "--out", "run/"],
    ["entropy", "--graph", "run/graph.khg", "--out", "run/"],
    ["count", "--graph", "run/graph.khg", "--d", "2", "--gamma", "0.2", "--out", "run/"],
    ["marginals", "--graph", "run/graph.khg", "--out", "run/"],
    ["greedy", "--graph", "run/graph.khg", "--seed", "3", "--trials", "8", "--jobs", "1",
     "--out", "run/"],
    ["anneal", "--graph", "run/graph.khg", "--seed", "5", "--d", "2", "--gamma", "0.5",
     "--epsilon", "0.9", "--auto", "--out", "run/"],
    ["bound", "--graph", "run/graph.khg", "--d", "2", "--gamma", "0.2", "--out", "run/"],
]

GOLDEN = {
    "anneal.wts": "697bdf8620286defad44cf1f73ea1f5a277f48a7659c1a494fd56083c19580bf",
    "anneal_report.json": "11ebafd0781355e7b42463237f6eb1cbfe8578d75ee60011d22a13eb073eeb34",
    "anneal_trace.csv": "617d6122b77979fcb9b2ae7d5e81ec8990d8c46ca16802640ad4f2aa6f94e202",
    "bound_report.json": "14c5ace265689132e23c20286a3b9223dee550a8fb8af7e1a481e90b7f3ffb5f",
    "count.json": "5a6f63916354ef411d4c64b9195c83a54a17f39671c144f85dd3222cd0fb2ef5",
    "degrees.json": "7121fcfd3bf79a47cea2ef3cde02a67a0c5f5eaed35a3690cdaa11f608e6d12d",
    "entropy_report.json": "fd905a96c8ebcf4ee8df13ddc12386dc775ff884675003f08cf727c2f1dee4f4",
    "gen_report.json": "3f4754d6ab4d0e6348bc419f187153c653d495080cdaff316b4daa94d526ce68",
    "graph.khg": "0c52fd30711ed4f529c51e4d7eaeace6915d1ece77e8faa0fb4b69886ad3b41e",
    "greedy_report.json": "87792fe84f7a16a3fe8b0d28c6538e17119b755c0a907efe26379b2d3bc11b00",
    "marginals.wts": "e9ab291a8908370b53fc29ccb47dea0691d39203b6d254b3658f75d90a733ceb",
    "marginals_report.json": "2355485a69455358ea64af3485ee1feb2e150fbf29caee62b818582d134c3a04",
    "trajectory_0000.csv": "4daa5e17b53c4d7b5ae1945ca6fb11e48c46a160c0d0474cc5ce5070fdadecd8",
    "trajectory_0000.meta.json": "42a7e8110dce661afc6432a56993dce02f5d349e0dbf4af19c528f98549bc6db",
    "trajectory_0001.csv": "df500cfc8303d8a67bdce5751bd0d79e82a8e50990c9edac22ee78b6df791c2f",
    "trajectory_0001.meta.json": "4a382205afb66965b1112e7871aee1ef1563772fa8da0486fc836062ae0fa080",
    "trajectory_0002.csv": "9946b42a5b5d68a81936f2fc8532d436906c397942a3c70e1877d0c2c4b00f8d",
    "trajectory_0002.meta.json": "5e79e76db354fba483e2688ca4e97f770aed7eb8e5cbf200c12823f0837ad0db",
    "trajectory_0003.csv": "30dc7aa8c316d9537f316aabee2c0ba3f820754a14976278a6f49c323e1a3385",
    "trajectory_0003.meta.json": "bf3869fe3714c35e6f14dc6a74626f3163c1736eaa114e09547e615294013090",
    "trajectory_0004.csv": "8e24d7acfda635573cdd8cc717510b0ea931c480588b85afedfb9875d44fb0c9",
    "trajectory_0004.meta.json": "e2b880a77c0c059d740b889ba84026ba72a1f1408729a981be1fe90dc8c013f1",
    "trajectory_0005.csv": "bac3b5081f176720c751df4786fd50b501f20ba5184884b8b65e2e6db4ce4426",
    "trajectory_0005.meta.json": "769bb0f4c6dc50ec4fb476ac5bfc1a21ed90551b240293ad009847eac7966ea0",
    "trajectory_0006.csv": "92dcf92919be5319b669c7fec7410f8ff33faf5daa2ccbfef24f983ef5aa1ed6",
    "trajectory_0006.meta.json": "4d8ede2c1943a177b714ba84a37b728c04e646324ba3684b738962c62a345801",
    "trajectory_0007.csv": "31c158959f3cd28b20dc92614430de6c08cf8249c4cb907361c5f789a6bce950",
    "trajectory_0007.meta.json": "367571d908c9a940c181de6016746659d46e6c56ccea9387c14d2aace8dec2f1",
    "weights.wts": "9e120a53ce59af02372d62017eda9647006da9e80648d3dc3d472ca0fab5985c",
}

STDOUT = [
    "wrote run/graph.khg (211 edges)\n",
    "wrote run/degrees.json\n",
    "h = 15.8571272424  converged=True  wrote run/weights.wts\n",
    '{"value": "13016"}\n',
    "h(marginals) = 15.8557343369  wrote run/marginals.wts\n",
    "ran 8 trajectories into run/\n",
    "anneal: 0 steps, no-high-weight-edge, h 15.8559 -> 15.8559, wrote run/anneal.wts\n",
    "bound 14.6026  h_solver 15.8571  h_pullback 15.8555  wrote run/bound_report.json\n",
]


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """(sha256 of every file in run/, what each subcommand printed)."""
    cwd = tmp_path_factory.mktemp("flow")
    printed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        for argv in FLOW:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            printed.append(buf.getvalue())
    run = cwd / "run"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()}, printed


@pytest.fixture(scope="module")
def artifacts(flow):
    return flow[0]


def test_the_flow_writes_exactly_the_golden_files(artifacts):
    assert sorted(artifacts) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(artifacts, name):
    assert artifacts.get(name) == GOLDEN[name]


def test_each_subcommand_prints_its_line(flow):
    assert flow[1] == STDOUT
