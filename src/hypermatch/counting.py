"""Exact desk-scale oracle for perfect matchings.

Counting uses dynamic programming over bitmasks of matched vertices.  The
transition always matches the lowest-indexed unmatched vertex, so each
perfect matching is generated exactly once (no edge-order overcounting),
and the memo table is shared by counting, exact marginals and uniform
sampling: the marginal of edge e is count(V(e)) / count({}), and the
sampler picks each feasible edge at the current lowest vertex with
probability (completions after taking it) / (completions now), which makes
its output distribution exactly uniform.

Counts are exact integers (arbitrary precision); marginals are exact
rationals converted to floats only at the module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .entropy import (
    EdgeWeights,
    STATUS_VERIFIED,
    max_entropy_fpm,
    weight_entropy,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError, SamplingError
from .hypergraph import AlphaTable, DiracParams, Hypergraph, is_dirac
from .seeds import randbelow, rng_from

DEFAULT_COUNT_CAP = 24


@dataclass(frozen=True)
class MatchingCount:
    """Exact number of perfect matchings of a graph."""

    value: int
    graph_digest: str
    note: str = ""


class PMOracle:
    """Shared-memo exact matching oracle for one graph.

    ``count(mask)`` is the number of perfect matchings of the vertices not
    in ``mask``, for any mask that marks a union of disjoint edges (or any
    set you want to exclude).
    """

    def __init__(self, G: Hypergraph, cap: int = DEFAULT_COUNT_CAP):
        if G.n > cap:
            raise ResourceLimitError(f"n={G.n} exceeds the exact-count cap {cap}")
        self.G = G
        self.full_mask = (1 << G.n) - 1
        self.edge_masks = [self._mask(e) for e in G.edges]
        # For each vertex, the (edge id, edge mask) pairs of edges containing it.
        self.by_vertex: list[list[tuple[int, int]]] = [
            [(i, self.edge_masks[i]) for i in G.incident(v)] for v in range(G.n)
        ]
        self._memo: dict[int, int] = {}

    @staticmethod
    def _mask(vertices: Sequence[int]) -> int:
        m = 0
        for v in vertices:
            m |= 1 << v
        return m

    def count(self, mask: int = 0) -> int:
        memo = self._memo
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if mask == self.full_mask:
            memo[mask] = 1
            return 1
        free = ~mask & self.full_mask
        v = (free & -free).bit_length() - 1
        total = 0
        for _, emask in self.by_vertex[v]:
            if emask & mask == 0:
                total += self.count(mask | emask)
        memo[mask] = total
        return total

    def count_pm(self) -> int:
        if self.G.n % self.G.k != 0:
            return 0
        return self.count(0)

    def marginals(self) -> list[Fraction]:
        """Pr[e in M] for a uniformly random perfect matching M, exactly."""
        total = self.count_pm()
        if total == 0:
            raise SamplingError("graph has no perfect matching")
        margs = [Fraction(self.count(emask), total) for emask in self.edge_masks]
        # Each matching covers each vertex exactly once, so the incident
        # counts must telescope back to the total.
        for v in range(self.G.n):
            incident = sum(self.count(emask) for _, emask in self.by_vertex[v])
            if incident != total:
                raise InvariantError(
                    f"matchings through vertex {v} count {incident}, total is {total}"
                )
        return margs

    def sample(self, rng: np.random.Generator, initial_mask: int = 0) -> tuple[int, ...]:
        """Uniform perfect matching of the graph minus ``initial_mask``.

        One integer draw per matching round; exactly uniform because each
        feasible edge is taken with probability (completions after it) /
        (completions now).
        """
        if self.count(initial_mask) == 0:
            raise SamplingError("no perfect matching on the residual vertices")
        mask = initial_mask
        chosen: list[int] = []
        while mask != self.full_mask:
            now = self.count(mask)
            free = ~mask & self.full_mask
            v = (free & -free).bit_length() - 1
            feasible = [
                (eid, emask, self.count(mask | emask))
                for eid, emask in self.by_vertex[v]
                if emask & mask == 0
            ]
            running = sum(c for _, _, c in feasible)
            if running != now:
                raise InvariantError("conditional counts failed to telescope")
            r = randbelow(rng, now)
            acc = 0
            for eid, emask, c in feasible:
                acc += c
                if r < acc:
                    chosen.append(eid)
                    mask |= emask
                    break
        return tuple(chosen)


def count_pm(G: Hypergraph, cap: int = DEFAULT_COUNT_CAP) -> MatchingCount:
    """Exact perfect matching count via the bitmask DP."""
    if G.n % G.k != 0:
        return MatchingCount(0, G.digest(), note=f"k={G.k} does not divide n={G.n}")
    return MatchingCount(PMOracle(G, cap).count_pm(), G.digest())


def phi_complete(n: int, k: int) -> MatchingCount:
    """n! / ((n/k)! (k!)^{n/k}), the matching count of the complete k-graph."""
    if k < 1 or n < 0 or n % k != 0:
        raise InvalidArgumentError(f"k={k} must divide n={n}")
    value = math.factorial(n) // (math.factorial(n // k) * math.factorial(k) ** (n // k))
    return MatchingCount(value, f"complete:{n}:{k}", note="closed form")


def sample_uniform_pm(G: Hypergraph, seed: int, cap: int = DEFAULT_COUNT_CAP) -> tuple[int, ...]:
    """One uniformly random perfect matching (edge ids), stream (seed,)."""
    if G.n % G.k != 0:
        raise SamplingError(f"k={G.k} does not divide n={G.n}")
    return PMOracle(G, cap).sample(rng_from(seed))


def sample_uniform_pms(
    G: Hypergraph, seed: int, trials: int, cap: int = DEFAULT_COUNT_CAP
) -> list[tuple[int, ...]]:
    """``trials`` independent uniform perfect matchings from stream (seed,)."""
    oracle = PMOracle(G, cap)
    rng = rng_from(seed)
    return [oracle.sample(rng) for _ in range(trials)]


def pm_marginals(G: Hypergraph, cap: int = DEFAULT_COUNT_CAP) -> EdgeWeights:
    """Exact edge marginals of the uniform perfect-matching distribution.

    The result is a fractional perfect matching with exactly unit vertex
    sums (rational arithmetic internally, floats at the boundary).
    """
    margs = PMOracle(G, cap).marginals()
    for v in range(G.n):
        if sum(margs[i] for i in G.incident(v)) != 1:
            raise InvariantError(f"marginals at vertex {v} do not sum to 1")
    w = np.array([float(q) for q in margs])
    w.flags.writeable = False
    return EdgeWeights(w, G.digest(), weight_entropy(w), STATUS_VERIFIED)


# ---------------------------------------------------------------------------
# Discrete entropy utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite distribution; probabilities must sum to 1 within 1e-12."""

    probs: np.ndarray

    @classmethod
    def from_probs(cls, probs) -> "DiscreteDistribution":
        p = np.array(probs, dtype=float)
        if p.size == 0 or float(p.min()) < 0:
            raise InvalidArgumentError("probabilities must be nonnegative and nonempty")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidArgumentError(f"probabilities sum to {float(p.sum())!r}, not 1")
        p.flags.writeable = False
        return cls(p)

    def entropy(self) -> float:
        return discrete_entropy(self.probs)


def discrete_entropy(probs) -> float:
    """H(X) = sum p ln(1/p) over the support."""
    p = np.asarray(probs, dtype=float).ravel()
    positive = p[p > 0]
    return float(-(positive * np.log(positive)).sum())


def joint_entropy(joint) -> float:
    return discrete_entropy(np.asarray(joint, dtype=float).ravel())


def conditional_entropy(joint) -> float:
    """H(X | Y) for a joint matrix with rows x and columns y."""
    j = np.asarray(joint, dtype=float)
    h = 0.0
    for col in range(j.shape[1]):
        py = float(j[:, col].sum())
        if py > 0:
            h += py * discrete_entropy(j[:, col] / py)
    return h


def marginal_entropy_rows(joint) -> float:
    """H(X) for a joint matrix with rows x and columns y."""
    return discrete_entropy(np.asarray(joint, dtype=float).sum(axis=1))


def _entropy_fact_checks() -> dict:
    """Chain rule, conditioning and uniform-maximiser checks on explicit joints."""
    fixed = np.array([[0.10, 0.05, 0.20], [0.15, 0.25, 0.05], [0.05, 0.10, 0.05]])
    random_joint = rng_from(20240305).random((4, 5))
    random_joint /= random_joint.sum()
    results = {}
    for name, j in (("fixed", fixed), ("random", random_joint)):
        h_joint = joint_entropy(j)
        h_y = discrete_entropy(j.sum(axis=0))
        h_x = marginal_entropy_rows(j)
        h_x_given_y = conditional_entropy(j)
        results[f"chain_rule_{name}"] = bool(abs(h_joint - (h_y + h_x_given_y)) <= 1e-12)
        results[f"conditioning_{name}"] = bool(h_x_given_y <= h_x + 1e-12)
    uniform = DiscreteDistribution.from_probs(np.full(7, 1.0 / 7))
    results["uniform_maximises"] = bool(abs(uniform.entropy() - math.log(7)) <= 1e-12)
    return results


def entropy_identities_check(G: Hypergraph, cap: int = DEFAULT_COUNT_CAP) -> dict:
    """Check k h(marginals) >= ln Phi(G) and solver dominance on one graph."""
    x = pm_marginals(G, cap)
    total = count_pm(G, cap).value
    ln_phi = math.log(total)
    k_h = G.k * x.entropy
    solver_x, report = max_entropy_fpm(G)
    out = {
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
    out.update(_entropy_fact_checks())
    return out


def verify_count_vs_entropy(
    G: Hypergraph,
    params: DiracParams,
    alpha: Optional[AlphaTable] = None,
    cap: int = DEFAULT_COUNT_CAP,
) -> dict:
    """Exact ln Phi against the entropy-based prediction h - (1 - 1/k) n.

    The gap is reported as a residual per vertex; no pass/fail is attached
    because the prediction is asymptotic.  Also reports the ordered-count
    comparison ln((n/k)! Phi) vs h + (n/k) ln(n/k) - n.
    """
    count = count_pm(G, cap)
    warnings = []
    if not is_dirac(G, params, alpha):
        warnings.append(f"graph is not ({params.d},{params.gamma})-Dirac")
    solver_x, report = max_entropy_fpm(G)
    h = solver_x.entropy
    n, k = G.n, G.k
    ln_phi = math.log(count.value) if count.value > 0 else None
    residual = None if ln_phi is None else ln_phi - (h - (1.0 - 1.0 / k) * n)
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
