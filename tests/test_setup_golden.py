"""Byte-identity of graph set-up at benchmark scale, pinned by sha256 digests.

The complete 3-graph K_120 (280,840 edges) and a random (2, 0.2)-Dirac
3-graph on 60 vertices are built, hashed and solved.  Their edge rows,
incidence arrays, pair codes, links, digests and max-entropy solves must
hash to the recorded values: a change to construction, the digest text or
the scaling loop that alters any bit fails here.
"""

import hashlib
import itertools

import numpy as np
import pytest

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
        "weights": "ee1e26f7b7817ce46889297d399609dbdb47ce7d038de9d691b94bb199abf447",
        "potentials": "e06741f3de1747b37f5999e5a0414cd6820e2e75336f343cedc6f7681f9d4e59",
        "iterations": 1,
        "max_residual": "0x1.6000000000000p-50",
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
        "weights": "25f856cc94694aec7a0c50e714ad2cff9aa768e7f6bb08e7f257f17360b4ebb4",
        "potentials": "3dad456360c48ec48af1f2e45afe47bb2ee8cd9830f3826c56bae7aace3d2cc8",
        "iterations": 13,
        "max_residual": "0x1.3b485a0000000p-27",
    },
}


def sha(arr: np.ndarray) -> str:
    assert arr.dtype == np.int64 or arr.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def setup(request):
    """(graph name, what its set-up produced)."""
    G = GRAPHS[request.param]()
    x, result = max_entropy_fpm(G)
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
        "weights": sha(x.weights),
        "potentials": sha(result.potentials),
        "iterations": result.iterations,
        "max_residual": result.max_residual.hex(),
    }
    return request.param, got


@pytest.mark.parametrize("key", sorted(GOLDEN["K120"]))
def test_setup_bits(setup, key):
    name, got = setup
    assert got[key] == GOLDEN[name][key]


@pytest.mark.parametrize("n", range(13))
def test_all_subsets_is_combinations(n):
    for size in range(n + 2):
        expected = list(itertools.combinations(range(n), size))
        got = all_subsets(n, size)
        assert got.dtype == np.int64 and got.shape == (len(expected), size)
        assert [tuple(row) for row in got.tolist()] == expected
