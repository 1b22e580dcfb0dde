"""Deterministic work counts: the work each hot layer does, pinned as exact integers.

Each row counts with a wrapper in the test, not with a hook in ``src/``.  An
algorithmic change should move a count; a change that moves one updates its
pin and says why.
"""

import numpy as np
import pytest

from hypermatch.counting import PMOracle
from hypermatch.hypergraph import gen_complete
from test_counting import DIRAC_15

# per graph: transitions yielded per ``_transitions`` call of the forward pass
# (one call per non-full layer, from the empty mask up) and each layer's states
FILL_WORK = {
    "K9": ([28, 280, 35], [1, 28, 35, 1]),
    "DIRAC_15": ([83, 4175, 18605, 8520, 157], [1, 83, 715, 924, 165, 1]),
}


@pytest.fixture()
def transitions(monkeypatch):
    """The number of transitions each ``PMOracle._transitions`` call yields, in call order."""
    yielded = []
    real = PMOracle._transitions

    def counted(self, states):
        yielded.append(0)
        at = len(yielded) - 1
        for block in real(self, states):
            yielded[at] += block[0].size
            yield block

    monkeypatch.setattr(PMOracle, "_transitions", counted)
    return yielded


@pytest.mark.parametrize("name", sorted(FILL_WORK))
def test_fill_work(name, transitions):
    G = {"K9": gen_complete(9, 3), "DIRAC_15": DIRAC_15}[name]
    forward, states = FILL_WORK[name]
    oracle = PMOracle(G)
    oracle.count_pm()
    # one call per non-full layer and pass; the backward pass walks the same
    # transitions as the forward one, from the top layer down
    assert len(transitions) == 2 * len(forward) == 2 * (len(states) - 1)
    assert transitions == forward + forward[::-1]
    assert [layer.size for layer, _ in oracle._layers] == states
    assert len(oracle._memo) == sum(states)
    # the marginals and a draw read the fill and walk no transition again
    oracle.marginals()
    oracle.sample(np.random.default_rng(0))
    assert len(transitions) == 2 * len(forward)
