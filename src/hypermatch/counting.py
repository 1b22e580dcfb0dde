"""Exact desk-scale oracle for perfect matchings.

Counting is dynamic programming over bitmasks of matched vertices.  The
transition always matches the lowest-indexed unmatched vertex v, so each
perfect matching is generated exactly once (no edge-order overcounting).
Every vertex below v is matched, so the only edges that can be taken at v
are its *lead edges*, the edges whose lowest vertex is v; the oracle keeps
their ids and vertex masks per vertex in id order, read from the graph's
edge rows, and never scans the other edges through v.

One fill from the empty mask serves counting, exact marginals and uniform
sampling, in two passes over the transitions.  Forward, the states of a
layer (all with the same number of matched vertices) are grouped by lowest
free vertex and ANDed against its lead-edge masks in bounded blocks; the
children are merged into the next layer with their ways, the number of
lowest-first paths from the empty mask.  Backward, a state's count sums its
children's counts, and each transition by edge e adds
ways(parent) * count(child) to e's through-count, the matchings through e.
Both passes must find the same number of matchings.  The fill keeps the
layers and their counts, the memo of every reachable state's count and the
through-counts, which the marginals read.  The sampler takes each feasible
lead edge at the current lowest vertex with probability (completions after
taking it) / (completions now), read from the memo, which makes its output
distribution exactly uniform.  It builds a state's choices (its count, the
running sums of completions and the lead edges they belong to) the first
time a draw reaches it and keeps them for later draws, until the kept
choices hold ``SAMPLE_CACHE_EDGES`` lead edges in all; states first reached
after that are rebuilt on every visit.  Many draws on one oracle thus pay
for the distinct states they pass, not for every round, and the draws are
the same either way.  ``sample_streams`` draws streams (seed, t) in
lockstep, ``STATE_BLOCK`` trials per numpy pass a round, each taking the
words of its stream as ``sample`` does, so the draws are again the same.

Counts are exact integers.  Every number the DP forms (counts, ways,
ways * count and their sums) is at most the matching count of the complete
k-graph on n vertices, which stays below 2**63 for every n <= the count cap
of 24 (9.16e12 at most, below 2**44), so the oracle computes in int64.
Marginals are exact rationals converted to floats only at the module
boundary.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .entropy import EdgeWeights, as_verified, ln_phi_entropy_route, max_entropy_fpm
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError, SamplingError, is_int
from .hypergraph import DiracParams, Hypergraph, group, is_dirac
from .seeds import StreamWords, randbelow, rng_from

# The exact oracle refuses graphs on more vertices than this.
DEFAULT_COUNT_CAP = 24
# A state-by-lead-edge block of the expansion has at most this many elements,
# or as many as its layer has states: its temporaries stay small next to the
# memo entries of the layer, on tiny graphs too.
EXPAND_BLOCK = 1 << 14
# The sampler keeps the choices of the states it visits until they hold this
# many lead edges in all (about 1 MB), so a cold n = 21-24 oracle, with about
# 2M transitions, never keeps a copy of all of them.
SAMPLE_CACHE_EDGES = 1 << 16
# sample_streams draws blocks of this many trials, which does not change the
# draws; a round's occupied states, at most this many, fit in 16 bits.
STATE_BLOCK = 4096


@dataclass(frozen=True)
class MatchingCount:
    """Exact number of perfect matchings of a graph."""

    value: int
    graph_digest: str
    note: str = ""


class PMOracle:
    """Shared-memo exact matching oracle for one graph (n <= DEFAULT_COUNT_CAP)."""

    def __init__(self, G: Hypergraph):
        if G.n > DEFAULT_COUNT_CAP:
            raise ResourceLimitError(f"n={G.n} exceeds the exact-count cap {DEFAULT_COUNT_CAP}")
        self.G = G
        self.full_mask = (1 << G.n) - 1
        edge_verts = G.edge_verts
        # Edge ids grouped by lowest vertex (column 0), in id order within a
        # group, and their vertex masks; the sampler reads them as Python pairs.
        bounds, ids = group(edge_verts[:, 0], G.n)
        masks = np.bitwise_or.reduce(np.left_shift(1, edge_verts[ids]), axis=1)
        spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self._lead = [(ids[a:b], masks[a:b]) for a, b in spans]
        pairs = np.stack([ids, masks], axis=1).tolist()
        self._lead_pairs = [pairs[a:b] for a, b in spans]
        # (states, counts) per layer, from the empty mask to the full one, and
        # the perfect matchings through each edge; the fill sets both
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []
        self._through_counts = np.zeros(0, dtype=np.int64)
        self._memo: dict[int, int] = {}
        # state -> (count, running sums of completions, lead pairs), see sample
        self._choices: dict[int, tuple[int, array, list[list[int]]]] = {}
        self._choice_edges = 0

    def _transitions(
        self, states: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every feasible transition out of one layer's ``states`` (none full), in bounded blocks.

        Yields arrays (parent index into ``states``, edge id, child mask);
        each state takes the lead edges of its lowest free vertex that do
        not meet it.
        """
        # a lowest free vertex is at least the states' AND's and at most their matched count
        common = int(np.bitwise_and.reduce(states))
        for v in range((~common & common + 1).bit_length() - 1, min(self.G.n, int(states[0]).bit_count() + 1)):
            # the states whose vertices below v are matched and v is free
            group = np.flatnonzero(states & ((2 << v) - 1) == (1 << v) - 1)
            ids, masks = self._lead[v]
            if not group.size or not ids.size:
                continue
            step = max(1, max(EXPAND_BLOCK, states.size) // ids.size)
            for a in range(0, group.size, step):
                rows = group[a:a + step]
                block = states[rows]
                # Edge-major order: ``states`` is sorted, so the children
                # of one edge come out ascending, which keeps the lookups
                # into the next layer cache-friendly.
                c, r = np.nonzero((masks[:, None] & block) == 0)
                yield rows[r], ids[c], block[r] | masks[c]

    def _fill(self) -> None:
        """Count every state reachable from the empty mask and the matchings
        through every edge, in the two passes of the module docstring."""
        # All states of a layer have the same number of matched vertices, so
        # the full mask is a layer of its own.
        layers = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))]
        while layers[-1][0].size and layers[-1][0][0] != self.full_mask:
            states, ways = layers[-1]
            layers.append(_next_layer((child, ways[parent]) for parent, _, child in self._transitions(states)))
        last, reached = layers[-1]
        counted = [(last, np.ones(last.size, dtype=np.int64))]
        through = np.zeros(self.G.num_edges, dtype=np.int64)
        for states, ways in reversed(layers[:-1]):
            nxt, known = counted[-1]
            counts = np.zeros(states.size, dtype=np.int64)
            for parent, eid, child in self._transitions(states):
                c = known[np.searchsorted(nxt, child)]
                np.add.at(counts, parent, c)
                np.add.at(through, eid, ways[parent] * c)
            counted.append((states, counts))
        # Each perfect matching is one lowest-first path from the empty mask
        # to the full one, so both passes must find the same number of them.
        paths, total = int(reached.sum()), int(counted[-1][1][0])
        if paths != total:
            raise InvariantError(f"{paths} paths reach the full mask, the empty mask counts {total}")
        self._layers = counted[::-1]
        self._through_counts = through
        for states, counts in self._layers:
            self._memo.update(zip(states.tolist(), counts.tolist()))

    def count_pm(self) -> int:
        if self.G.n % self.G.k != 0:
            return 0
        if not self._memo:
            self._fill()
        return self._memo[0]

    def marginals(self) -> list[Fraction]:
        """Pr[e in M] for a uniformly random perfect matching M, exactly."""
        total = self.count_pm()
        if total == 0:
            raise SamplingError("graph has no perfect matching")
        # Each matching covers each vertex exactly once, so the incident
        # counts must telescope back to the total.
        incident = np.zeros(self.G.n, dtype=np.int64)
        np.add.at(incident, self.G.edge_verts, self._through_counts[:, None])
        bad = np.flatnonzero(incident != total)
        if bad.size:
            v = int(bad[0])
            raise InvariantError(
                f"matchings through vertex {v} count {incident[v]}, total is {total}"
            )
        return [Fraction(t, total) for t in self._through_counts.tolist()]

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Uniform perfect matching of the graph.

        One integer draw per matching round; exactly uniform because each
        feasible edge is taken with probability (completions after it) /
        (completions now).  The choices of a state are built and checked on
        its first visit and kept for later draws while the kept choices hold
        fewer than ``SAMPLE_CACHE_EDGES`` lead edges.
        """
        if self.count_pm() == 0:
            raise SamplingError("graph has no perfect matching")
        choices = self._choices
        full = self.full_mask
        mask = 0
        chosen: list[int] = []
        while mask != full:
            now, cumulative, picks = choices.get(mask) or self._choice(mask)
            eid, emask = picks[bisect_right(cumulative, randbelow(rng, now))]
            chosen.append(eid)
            mask |= emask
        return tuple(chosen)

    def sample_streams(self, seed: int, trials: int) -> np.ndarray:
        """Row t is ``sample(rng_from(seed, t))``, for every t < ``trials``.

        A round finds a block's masks in their layer (checked) and groups the
        occupied states' transitions by state, which keeps ``_transitions``'
        edge id order within a state, so each state's running sums are
        ``sample``'s (checked to telescope); ``StreamWords.randbelow`` draws
        as ``randbelow`` does.  Counts are below 2**44, so one ``searchsorted``
        on (state << 44 | running sum) picks the first edge whose sum exceeds
        the draw, never one without completions.  Trial t's stream key t must fit one
        32-bit word, so ``trials`` is an integer (not bool) in [1, 2^32].
        """
        if not (is_int(trials) and 1 <= trials <= 2**32):
            raise InvalidArgumentError(f"trials must be in [1, 2^32]: {trials!r}")
        if self.count_pm() == 0:
            raise SamplingError("graph has no perfect matching")
        out = np.empty((trials, self.G.n // self.G.k), dtype=np.int64)
        for lo in range(0, trials, STATE_BLOCK):
            hi = min(trials, lo + STATE_BLOCK)
            words = StreamWords(seed, np.arange(lo, hi))
            mask, pos = np.zeros((2, hi - lo), dtype=np.int64)
            for r in range(out.shape[1]):
                (layer, counts), (nxt, nxt_counts) = self._layers[r:r + 2]
                if not np.array_equal(layer.take(pos, mode="clip"), mask):
                    raise InvariantError(f"a lockstep mask is not a state of layer {r}")
                seen = np.bincount(pos).astype(bool)
                occ = np.flatnonzero(seen)
                at = np.cumsum(seen)[pos] - 1
                parent, eid, child = map(np.concatenate, zip(*self._transitions(layer[occ])))
                where = np.searchsorted(nxt, child)
                indptr, rows = group(parent, occ.size)
                parent, eid, child, where = parent[rows], eid[rows], child[rows], where[rows]
                sums = np.concatenate([[0], np.cumsum(nxt_counts[where])])
                if np.any(np.diff(sums[indptr]) != counts[occ]):
                    raise InvariantError("conditional counts failed to telescope")
                base = sums[indptr[:-1]]
                value = words.randbelow(counts[pos])
                pick = np.searchsorted(parent << 44 | sums[1:] - base[parent], at << 44 | value, "right")
                out[lo:hi, r] = eid[pick]
                mask, pos = child[pick], where[pick]
        return out

    def _choice(self, mask: int) -> tuple[int, array, list[list[int]]]:
        """The count of ``mask``, the running sums of completions over its
        feasible lead edges (checked to telescope to the count) and those
        edges' (id, mask) pairs; kept while there is room (see sample)."""
        memo = self._memo
        now = memo[mask]
        free = ~mask & self.full_mask
        picks: list[list[int]] = []
        cumulative: list[int] = []
        running = 0
        for pair in self._lead_pairs[(free & -free).bit_length() - 1]:
            if pair[1] & mask == 0:
                c = memo[mask | pair[1]]
                if c:
                    running += c
                    picks.append(pair)
                    cumulative.append(running)
        if running != now:
            raise InvariantError("conditional counts failed to telescope")
        # counts are below 2**63 (module docstring), so int64 holds the sums
        entry = (now, array("q", cumulative), picks)
        if self._choice_edges < SAMPLE_CACHE_EDGES:
            self._choices[mask] = entry
            self._choice_edges += len(picks)
        return entry


def _next_layer(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct masks of a stream of (mask, ways) int64 array pairs, ways summed.

    Pending blocks are merged once they outgrow the distinct masks found so
    far (and ``EXPAND_BLOCK``), so the transitions of a layer are never all
    held at once.
    """
    merged = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    pending, size = [merged], 0
    for block in blocks:
        pending.append(block)
        size += block[0].size
        if size > max(EXPAND_BLOCK, merged[0].size):
            merged = _merge(pending)
            pending, size = [merged], 0
    return _merge(pending)


def _merge(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct masks of (mask, ways) array pairs, ways summed per mask."""
    masks, ways = (np.concatenate(column) for column in zip(*pairs))
    # Masks are below 2**24 (the count cap) and positions below 2**32, so
    # one sort of (mask << 32 | position) orders the masks and keeps where
    # each came from.  Every sort in this module is timsort ("stable"): it
    # maps about half the numpy code of the default sort (128 vs 256 kB on
    # numpy 2.4), a visible share of what a process of small oracles pays.
    keys = masks << 32
    keys |= np.arange(keys.size)
    keys.sort(kind="stable")
    masks = keys >> 32
    starts = np.ones(masks.size, dtype=bool)
    np.not_equal(masks[1:], masks[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    keys &= 0xFFFFFFFF
    return masks[starts], np.add.reduceat(ways[keys], starts)


def count_pm(G: Hypergraph) -> MatchingCount:
    """Exact perfect matching count via the bitmask DP."""
    if G.n % G.k != 0:
        return MatchingCount(0, G.digest(), note=f"k={G.k} does not divide n={G.n}")
    return MatchingCount(PMOracle(G).count_pm(), G.digest())


def phi_complete(n: int, k: int) -> MatchingCount:
    """n! / ((n/k)! (k!)^{n/k}), the matching count of the complete k-graph."""
    if k < 1 or n < 0 or n % k != 0:
        raise InvalidArgumentError(f"k={k} must divide n={n}")
    value = math.factorial(n) // (math.factorial(n // k) * math.factorial(k) ** (n // k))
    return MatchingCount(value, f"complete:{n}:{k}", note="closed form")


def sample_uniform_pms(G: Hypergraph, seed: int, trials: int) -> list[tuple[int, ...]]:
    """``trials`` independent uniform perfect matchings from stream (seed,)."""
    oracle = PMOracle(G)
    rng = rng_from(seed)
    return [oracle.sample(rng) for _ in range(trials)]


def entropy_identities_check(G: Hypergraph) -> tuple[EdgeWeights, dict]:
    """Check k h(marginals) >= ln Phi(G) and solver dominance on one graph.

    Returns the exact edge marginals of the uniform perfect-matching
    distribution with the report; one DP fill serves both.  The marginals
    are a fractional perfect matching with exactly unit vertex sums:
    ``PMOracle.marginals`` checks every vertex's integer through-count
    against the total, and ``as_verified`` checks the float vertex sums.
    """
    oracle = PMOracle(G)
    x = as_verified(G, EdgeWeights.from_weights(G, [float(q) for q in oracle.marginals()]))
    ln_phi = math.log(oracle.count_pm())
    k_h = G.k * x.entropy
    solver_x, report = max_entropy_fpm(G)
    return x, {
        "n": G.n,
        "k": G.k,
        "ln_phi": ln_phi,
        "h_marginals": x.entropy,
        "k_h_marginals": k_h,
        "h_solver": solver_x.entropy,
        "marginal_inequality_ok": bool(k_h >= ln_phi - 1e-9),
        "solver_dominance_ok": bool(solver_x.entropy >= x.entropy - 1e-6),
        "solver_converged": bool(report.converged),
    }


def verify_count_vs_entropy(G: Hypergraph, params: DiracParams, count: Optional[MatchingCount] = None) -> dict:
    """Exact ln Phi against the entropy-route prediction ``ln_phi_entropy_route(h, n, k)``.

    The gap is reported as a residual per vertex; no pass/fail is attached
    because the prediction is asymptotic.  Also reports the ordered-count
    comparison ln((n/k)! Phi) vs h + (n/k) ln(n/k) - n.  ``count`` is
    ``count_pm(G)`` when the caller already has it.
    """
    count = count or count_pm(G)
    warnings = []
    if not is_dirac(G, params):
        warnings.append(f"graph is not ({params.d},{params.gamma})-Dirac")
    solver_x, report = max_entropy_fpm(G)
    h = solver_x.entropy
    n, k = G.n, G.k
    ln_phi = math.log(count.value) if count.value > 0 else None
    residual = None if ln_phi is None else ln_phi - ln_phi_entropy_route(h, n, k)
    s_exact = None if ln_phi is None else math.lgamma(n // k + 1) + ln_phi
    s_target = h + (n / k) * math.log(n / k) - n
    return {
        "n": n,
        "k": k,
        "d": params.d,
        "gamma": params.gamma,
        "count": str(count.value),
        "ln_phi": ln_phi,
        "h_solver": h,
        "solver_converged": bool(report.converged),
        "residual": residual,
        "residual_per_n": None if residual is None else residual / n,
        "s_count_check": {
            "ln_ordered_count": s_exact,
            "target": s_target,
            "gap": None if s_exact is None else s_exact - s_target,
        },
        "warnings": warnings,
    }
