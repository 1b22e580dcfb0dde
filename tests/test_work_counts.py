"""Deterministic work counts: the work each hot layer does, pinned as exact integers.

Each row counts with a wrapper in the test, not with a hook in ``src/``.  An
algorithmic change should move a count; a change that moves one updates its
pin and says why.
"""

import numpy as np
import pytest

from hypermatch import counting
from hypermatch.counting import SAMPLE_CACHE_EDGES, PMOracle
from hypermatch.hypergraph import gen_complete
from hypermatch.seeds import rng_from
from test_counting import DIRAC_15

# per graph: transitions yielded per ``_transitions`` call of the forward pass
# (one call per non-full layer, from the empty mask up) and each layer's states
FILL_WORK = {
    "K9": ([28, 280, 35], [1, 28, 35, 1]),
    "DIRAC_15": ([83, 4175, 18605, 8520, 157], [1, 83, 715, 924, 165, 1]),
}

# per bound on the kept lead edges: over 200 draws on DIRAC_15 from stream
# (0,), 1,000 rounds, the states ``_choice`` builds and keeps, the visits that
# pass through an unkept state and the visits that find a kept one.  The root
# alone has 83 lead edges, so a bound of 8 keeps it and nothing more.
SAMPLE_WORK = {SAMPLE_CACHE_EDGES: (532, 0, 468), 8: (1, 800, 199)}


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


class CountedHits(dict):
    """A ``_choices`` dict that counts the lookups which find a kept state."""

    hits = 0

    def get(self, key, default=None):
        found = super().get(key, default)
        self.hits += found is not None
        return found


@pytest.mark.parametrize("bound", sorted(SAMPLE_WORK))
def test_sample_work(bound, monkeypatch):
    monkeypatch.setattr(counting, "SAMPLE_CACHE_EDGES", bound)
    oracle = PMOracle(DIRAC_15)
    oracle.count_pm()
    oracle._choices = CountedHits()
    calls = {"_choice": 0, "_pass_through": 0}
    for name in calls:
        def counted(self, *args, real=getattr(PMOracle, name), name=name):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(PMOracle, name, counted)
    rng = rng_from(0)
    draws = [oracle.sample(rng) for _ in range(200)]
    work = calls["_choice"], calls["_pass_through"], oracle._choices.hits
    assert work == SAMPLE_WORK[bound]
    assert sum(work) == sum(map(len, draws)) == 1000
    assert len(oracle._choices) == calls["_choice"]
