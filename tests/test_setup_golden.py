"""Byte-identity of graph set-up at benchmark scale, pinned by sha256 digests.

The complete 3-graph K_120 (280,840 edges) and a random (2, 0.2)-Dirac
3-graph on 60 vertices are built, hashed and solved.  Their edge rows,
incidence arrays, pair codes, links, digests and max-entropy solves must
hash to the recorded values: a change to construction, the digest text or
the scaling loop that alters any bit fails here.  So must the bipartite
solve on the d = 2 lift of a random n = 12 Dirac 3-graph, whose sweeps
rescale each side's disjoint rows in 2-D blocks.  The solves must also hash
to the same values in child processes that force another OpenBLAS kernel
and switch numpy's AVX-512 dispatch off: no solver bit may depend on them.
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hypermatch
from hypermatch.bipartite import bipartite_max_entropy, lift
from hypermatch.entropy import max_entropy_fpm
from hypermatch.hypergraph import DiracParams, all_subsets, gen_complete, gen_random_dirac

GRAPHS = {
    "K120": lambda: gen_complete(120, 3),
    "dirac60": lambda: gen_random_dirac(60, 3, DiracParams(2, 0.2), 0.9, seed=1),
}

GOLDEN = {
    "K120": {
        "digest": "e982296d21b3fa942914a54352a7e65b87a28f9fdf0149fc6b2ef9339c6a92cd",
        "edge_verts": "bf6dae16b33601a46c59819889db2c5fd13e8e1bf7e606f9d1bb8418dbafa91b",
        "indptr": "d784c83ae475028f042d29333ea809e3d8142c02be879f850fcc5708e6581785",
        "incidence": "b09a7964fa92a5811107f66434c741c9805395ea998a4d9a0bdfc81b28ce6593",
        "pair_codes": "0d58d55503ad8aacb36b431d58552d6c2196ffbb2fc60b7c189beef461423014",
        "pair_ids": "09de22010fd9aa470dd1d8dec2065670e95c7ec588345f65ce85b31e6c991ad4",
        "link_codes": "ef9bc8ebc12d8e1da017a3b054cd2690664623d687cbae47fd21b9948d67ddb1",
        "link_ids": "b09a7964fa92a5811107f66434c741c9805395ea998a4d9a0bdfc81b28ce6593",
        "weights": "57ba5557b3ae2a91802aaea97c603cb677c7b559fbdbdbe594e40c902ce1fb87",
        "potentials": "12c9bb12781703c970957d9f9a16f0dab834c416a681ab1b88ec8b70a083b443",
        "iterations": 1,
        "max_residual": "0x1.0000000000000p-52",
    },
    "dirac60": {
        "digest": "6f84ee2943cfeefffabb3f5b5fc6b5a4b25771e7c2557cae24747c72bfc70708",
        "edge_verts": "893bd5d31f6a5e4a8ad7032a8118c41b5e7b93177c4734d3fddba70d8a92a697",
        "indptr": "aeb050a5ab9b85ebfcec6fe319a572c37d51b81b66f96986db9e830a7a467f16",
        "incidence": "1625839cd4003c5992d2017ac272503aad79d0da24b119d55f22a54a606cda52",
        "pair_codes": "dfed822db1a85f0227b34a6460259aad402b82791ed32d9e129d37998936f779",
        "pair_ids": "70f9803f56803aa8696c3053c2b4197bea1b9979e77b30a17875c9e908e4db9e",
        "link_codes": "097d9232f0a156aa7b906e7ed29c3308f1944f5444d4da7a546d49f6a7714836",
        "link_ids": "1625839cd4003c5992d2017ac272503aad79d0da24b119d55f22a54a606cda52",
        "weights": "5d21b0801e3ac56fca68775735833e4aa83300396c3e6b9872e2df22aa92a091",
        "potentials": "f396c16512fb1c54dfb92e15c5c2e8b51eb82fad7fa99929b5662c17aa43b8d0",
        "iterations": 13,
        "max_residual": "0x1.3b485a8000000p-27",
    },
}


def lifted_graph():
    return gen_random_dirac(12, 3, DiracParams(2, 0.2), 0.95, seed=3)


# Recorded from the row-by-row sweep, before runs of rows were rescaled together.
LIFTED_GOLDEN = {
    "x": "8eb7dc22cfefd198ab56b11d00ec48cc949864f745b16e70b699d620b2328896",
    "potentials": "42eedc78b6d656051352260c313ccfd37a6c8eb280bb4b0a30b18b8371f7b622",
    "iterations": 8,
    "max_residual": "0x1.ae60000000000p-36",
}


def sha(arr: np.ndarray) -> str:
    assert arr.dtype == np.int64 or arr.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def solver_bits(G) -> dict:
    """The pinned outputs of G's max-entropy solve."""
    x, result = max_entropy_fpm(G)
    return {
        "weights": sha(x.weights),
        "potentials": sha(result.potentials),
        "iterations": result.iterations,
        "max_residual": result.max_residual.hex(),
    }


def bipartite_bits(G) -> dict:
    """The pinned outputs of the max-entropy solve on G's d = 2 lift."""
    result, _ = bipartite_max_entropy(lift(G, 2))
    return {
        "x": sha(result.x),
        "potentials": sha(result.potentials),
        "iterations": result.iterations,
        "max_residual": result.max_residual.hex(),
    }


def test_bipartite_bits():
    assert bipartite_bits(lifted_graph()) == LIFTED_GOLDEN


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def setup(request):
    """(graph name, what its set-up produced)."""
    G = GRAPHS[request.param]()
    pair_codes, pair_ids = G.subset_codes(2)
    link_codes, link_ids = G.links()
    got = {
        "digest": G.digest(),
        "edge_verts": sha(G.edge_verts),
        "indptr": sha(G.indptr),
        "incidence": sha(G.incidence),
        "pair_codes": sha(pair_codes),
        "pair_ids": sha(pair_ids),
        "link_codes": sha(link_codes),
        "link_ids": sha(link_ids),
        **solver_bits(G),
    }
    return request.param, got


@pytest.mark.parametrize("key", sorted(GOLDEN["K120"]))
def test_setup_bits(setup, key):
    name, got = setup
    assert got[key] == GOLDEN[name][key]


# The AVX2 OpenBLAS kernel of Haswell and Zen CPUs; and the SSE3 one with
# numpy's AVX-512 loops off as well.
PLATFORMS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott-no-avx512": {
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
}

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_setup_golden as t
solves = {name: t.solver_bits(make()) for name, make in t.GRAPHS.items()}
print(json.dumps({"solves": solves, "lifted": t.bipartite_bits(t.lifted_graph())}))
"""


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_solver_bits_do_not_depend_on_the_kernel(platform):
    # only the child's environment is set: OpenBLAS and numpy read these at import
    src = str(pathlib.Path(hypermatch.__file__).parents[1])
    env = {**os.environ, **PLATFORMS[platform]}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    here = str(pathlib.Path(__file__).parent)
    child = subprocess.run([sys.executable, "-c", CHILD, here], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout)
    solves = got["solves"]
    assert solves == {name: {key: GOLDEN[name][key] for key in solves[name]} for name in GRAPHS}
    assert got["lifted"] == LIFTED_GOLDEN


@pytest.mark.parametrize("n", range(13))
def test_all_subsets_is_combinations(n):
    for size in range(n + 2):
        expected = list(itertools.combinations(range(n), size))
        got = all_subsets(n, size)
        assert got.dtype == np.int64 and got.shape == (len(expected), size)
        assert [tuple(row) for row in got.tolist()] == expected
