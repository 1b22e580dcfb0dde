"""Weight-shifting structures and the anneal-and-shift algorithm.

A shifting structure on edges (e, f) meeting in one vertex v1 pairs the
remaining vertices of e and f through fresh (k-1)-sets U_2..U_k: with
e = {v1, v2, ..., vk} and f = {v1, u2, ..., uk}, both e_i = U_i + {u_i}
and f_i = U_i + {v_i} must be edges.  Shifting moves mass Delta off every
e_i and onto every f_i; each touched vertex loses Delta on one edge and
gains it on another, so vertex sums are conserved exactly and a fractional
perfect matching stays one.

If x[e_i] >= 2 Delta and x[f_i] <= eta - Delta for all i, the entropy gain
of a Delta-shift is at least  Delta ln( x[e_1] Delta^{k-1} / (2 eta^k) ).
The anneal-and-shift algorithm mixes a near-optimal matching with a
well-distributed one (so every edge weight has a positive floor) and then
repeatedly shifts at "good configurations" - structures whose e_1 carries
weight at least D / n^{k-1} - until no high-weight edge survives or no
structure can be found.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

import numpy as np

from .counting import PMOracle
from .entropy import (
    EdgeWeights,
    as_verified,
    check_alignment,
    convex_combine,
    scale_vertex_sums,
    well_distributed_factor,
)
from .errors import InvalidArgumentError, SamplingError, is_int, is_real
from .hypergraph import DiracParams, Hypergraph, _text_file

# auto_anneal_params shrinks epsilon by this factor per step, at most this often.
EPSILON_SHRINK = 0.95
MAX_SHRINKS = 400

# anneal_and_shift re-projects onto exact vertex sums once per this many shifts.
RENORMALIZE_EVERY = 10000


@dataclass(frozen=True)
class ShiftingStructure:
    """The (e, f, U_2..U_k) gadget with its derived edge ids.

    ``e_ids[0]`` is e itself and ``f_ids[0]`` is f; for i >= 1,
    ``e_ids[i]`` is U_{i+1} + {u_{i+1}} and ``f_ids[i]`` is U_{i+1} + {v_{i+1}}.
    """

    U_sets: tuple[tuple[int, ...], ...]
    e_ids: tuple[int, ...]
    f_ids: tuple[int, ...]


def _check_edge_ids(G: Hypergraph, *ids: int) -> None:
    for i in ids:
        if not (is_int(i) and 0 <= i < G.num_edges):
            raise InvalidArgumentError(f"edge id {i!r} is not an integer in [0, {G.num_edges})")


def partner_edges(G: Hypergraph, e_id: int) -> np.ndarray:
    """The ids of the edges that meet edge ``e_id`` in exactly one vertex.

    Ordered by that shared vertex, then by id: the edges at each vertex of
    the edge in turn, keeping those listed at only one of them.
    """
    _check_edge_ids(G, e_id)
    ptr = G.indptr
    at = np.concatenate([G.incidence[ptr[v]: ptr[v + 1]] for v in G.edge_verts[e_id].tolist()])
    return at[np.bincount(at)[at] == 1]


def find_shifting_structure(
    G: Hypergraph,
    e_id: int,
    f_id: int,
    e_ok: Optional[np.ndarray] = None,
    f_ok: Optional[np.ndarray] = None,
) -> Optional[ShiftingStructure]:
    """Greedy structure search on (e, f); first valid candidate in lex order.

    U_2..U_k are chosen one at a time; for each the candidates are the
    (k-1)-subsets of the unused outside vertices, in lexicographic order,
    and the first one whose two derived sets are edges (allowed by the
    optional edge masks) is kept.  No backtracking; returns None if some
    U_i has no valid candidate.

    ``e_ok`` and ``f_ok`` are boolean arrays over the edge ids: ``e_ok``
    allows the weight-decreasing edges U_i + {u_i} and ``f_ok`` the
    weight-increasing edges U_i + {v_i}.  The candidates U with both
    derived sets edges are the codes common to the links of u_i and v_i,
    taken in code order, that is lexicographic order; one mask per U_i
    keeps those that avoid the blocked vertices and pass both edge masks.
    """
    _check_edge_ids(G, e_id, f_id)
    for mask in (e_ok, f_ok):
        if mask is not None and np.shape(mask) != (G.num_edges,):
            raise InvalidArgumentError(
                f"edge masks need shape ({G.num_edges},), got {np.shape(mask)}"
            )
    e = set(G.edge_verts[e_id].tolist())
    f = set(G.edge_verts[f_id].tolist())
    shared = e & f
    if len(shared) != 1:
        raise InvalidArgumentError(f"edges must intersect in exactly one vertex, got {len(shared)}")
    v1 = next(iter(shared))
    v_rest = tuple(sorted(e - {v1}))
    u_rest = tuple(sorted(f - {v1}))
    blocked = np.zeros(G.n, dtype=bool)
    blocked[list(e | f)] = True
    U_sets: list[tuple[int, ...]] = []
    e_ids = [e_id]
    f_ids = [f_id]
    codes, ids = G.links()
    ptr = G.indptr
    for vi, ui in zip(v_rest, u_rest):
        at_u, at_v = ptr[ui], ptr[vi]
        link_u, link_v = codes[at_u: ptr[ui + 1]], codes[at_v: ptr[vi + 1]]
        pos = link_v.searchsorted(link_u)
        hit = (link_v.take(pos, mode="clip") == link_u).nonzero()[0]
        eids, fids = ids[at_u + hit], ids[at_v + pos[hit]]
        # u_i is blocked, so U avoids the blocked vertices when u_i is the
        # only blocked vertex of the edge U + {u_i}.
        ok = blocked[G.edge_verts[eids]].sum(axis=1) == 1
        if e_ok is not None:
            ok &= e_ok[eids]
        if f_ok is not None:
            ok &= f_ok[fids]
        first = ok.nonzero()[0]
        if not first.size:
            return None
        eid, fid = int(eids[first[0]]), int(fids[first[0]])
        U = tuple(w for w in G.edge_verts[eid].tolist() if w != ui)
        blocked[list(U)] = True
        U_sets.append(U)
        e_ids.append(eid)
        f_ids.append(fid)
    return ShiftingStructure(tuple(U_sets), tuple(e_ids), tuple(f_ids))


def apply_shift(x: EdgeWeights, structure: ShiftingStructure, delta: float) -> EdgeWeights:
    """Move delta off every e_i and onto every f_i; vertex sums conserved."""
    if delta < 0:
        raise InvalidArgumentError(f"delta must be nonnegative, got {delta}")
    w = np.array(x.weights)
    for i, eid in enumerate(structure.e_ids):
        if w[eid] < delta:
            raise InvalidArgumentError(
                f"x[e_{i + 1}] = {w[eid]!r} on edge {eid} is below delta = {delta!r}"
            )
    for i, fid in enumerate(structure.f_ids):
        if w[fid] + delta > 1.0 + 1e-12:
            raise InvalidArgumentError(
                f"x[f_{i + 1}] + delta = {w[fid] + delta!r} on edge {fid} exceeds 1"
            )
    for eid in structure.e_ids:
        w[eid] -= delta
    for fid in structure.f_ids:
        w[fid] += delta
    return EdgeWeights._checked(np.clip(w, 0.0, 1.0), x.graph_digest)


def shift_gain_lower_bound(
    x: EdgeWeights, structure: ShiftingStructure, delta: float, eta: float
) -> float:
    """Guaranteed entropy gain  delta ln( x[e_1] delta^{k-1} / (2 eta^k) ).

    Requires x[e_i] >= 2 delta and x[f_i] <= eta - delta for all i.
    """
    if delta < 0 or eta <= 0:
        raise InvalidArgumentError(f"need delta >= 0 and eta > 0, got {delta}, {eta}")
    w = x.weights
    # 1e-12 slack so exact boundary hypotheses survive float rounding
    for i, eid in enumerate(structure.e_ids):
        if w[eid] < 2 * delta - 1e-12:
            raise InvalidArgumentError(f"x[e_{i + 1}] = {w[eid]!r} is below 2 delta = {2 * delta!r}")
    for i, fid in enumerate(structure.f_ids):
        if w[fid] > eta - delta + 1e-12:
            raise InvalidArgumentError(
                f"x[f_{i + 1}] = {w[fid]!r} exceeds eta - delta = {eta - delta!r}"
            )
    if delta == 0:
        return 0.0
    k = len(structure.e_ids)
    return delta * math.log(float(w[structure.e_ids[0]]) * delta ** (k - 1) / (2.0 * eta**k))


@dataclass(frozen=True)
class AnnealParams:
    """Parameters of the iterated shifting run.

    eta = (4/gamma) / C(n-1, k-1), delta = epsilon / (2 C^2 n^{k-1}) and
    D = epsilon^{-3k}; C is the well-distributedness constant of the base
    matching being mixed in.  ``violations`` states the rules they must
    meet.  The asymptotically-motivated inequality
    delta^{k-1} / (2 n^{k-1} eta^k) >= 1/sqrt(D) can be degenerate at small
    n, so it is evaluated and reported rather than required.
    """

    epsilon: float
    C: float
    eta: float
    delta: float
    D: float
    max_steps: int

    @classmethod
    def for_graph(
        cls, G: Hypergraph, gamma: float, epsilon: float, C: float, max_steps: int = 100000
    ) -> "AnnealParams":
        if (not all(map(is_real, (epsilon, gamma, C))) or epsilon <= 0 or gamma <= 0 or C < 1
                or not is_int(max_steps) or max_steps < 0):
            raise InvalidArgumentError("need epsilon > 0, gamma > 0, C >= 1 (reals, not bools), integer max_steps >= 0")
        scale = float(G.n) ** (G.k - 1)
        # (epsilon, C, eta, delta, D, max_steps) by position, which is faster to build: the
        # epsilon scan of auto_anneal_params builds one per step
        return cls(epsilon, C, (4.0 / gamma) / comb(G.n - 1, G.k - 1), epsilon / (2.0 * C * C * scale),
                   epsilon ** (-3 * G.k), max_steps)

    def gain_ratio(self, G: Hypergraph) -> float:
        """D delta^{k-1} / (2 n^{k-1} eta^k)."""
        scale = float(G.n) ** (G.k - 1)
        return self.D * self.delta ** (G.k - 1) / (2.0 * scale * self.eta**G.k)

    def proof_inequality_holds(self, G: Hypergraph) -> bool:
        """delta^{k-1} / (2 n^{k-1} eta^k) >= 1/sqrt(D), checked at runtime."""
        return self.gain_ratio(G) >= math.sqrt(self.D)

    def high_threshold(self, G: Hypergraph) -> float:
        return self.D / float(G.n) ** (G.k - 1)

    def violations(self, G: Hypergraph, termination: bool = False, positive_gain: bool = False) -> list[str]:
        """The shifting lemma's parameter rules these parameters break on G, one message each.

        The four hard rules always; ``termination`` adds the two that make the run provably
        finish, ``positive_gain`` the gain ratio >= 1.  Only a broken rule builds its message,
        and the three optional rules, which ``auto_anneal_params`` sees broken at most scan
        steps, state no values.
        """
        high, out = self.high_threshold(G), []
        if not self.eta - self.delta > 0:
            out.append(f"eta - delta = {self.eta - self.delta!r} must be positive")
        if not high >= 2 * self.delta:
            out.append(f"D/n^(k-1) = {high!r} must be >= 2 delta = {2 * self.delta!r}")
        if not self.eta <= 1.0:
            out.append(f"eta = {self.eta!r} must be <= 1 so shifted weights stay below 1")
        if not self.epsilon <= self.C:
            out.append(f"epsilon = {self.epsilon!r} must be <= C = {self.C!r} for the mixing step")
        if termination and not self.eta <= high - self.delta:
            out.append("eta must be <= D/n^(k-1) - delta so no shifted-up edge turns heavy and the "
                       "run ends within (n/k)/delta + |E| steps")
        if termination and not 2.0 * self.C * self.C / self.epsilon <= self.D:
            out.append("2 C^2/epsilon must be <= D so the final weight floor delta keeps the "
                       "well-distributedness factor <= D")
        if positive_gain and not self.gain_ratio(G) >= 1.0:
            out.append("gain ratio D delta^(k-1) / (2 n^(k-1) eta^k) must be >= 1 so every shift "
                       "strictly gains entropy")
        return out


def auto_anneal_params(
    G: Hypergraph,
    gamma: float,
    epsilon: float,
    C: float,
    max_steps: int = 100000,
    require_positive_gain: bool = False,
    require_termination: bool = True,
) -> AnnealParams:
    """Shrink epsilon geometrically until the run parameters are valid.

    All the parameter constraints relax as epsilon shrinks (D = eps^{-3k}
    blows up), so the scan goes downward from the requested value and keeps
    the largest epsilon that passes (factor ``EPSILON_SHRINK`` per step, at
    most ``MAX_SHRINKS`` steps): the first epsilon with no
    ``AnnealParams.violations``.  ``require_termination`` and
    ``require_positive_gain`` are its ``termination`` and ``positive_gain``
    flags: the first makes the run provably finish with every weight in
    [1/(D n^{k-1}), D/n^{k-1}] or a search-exhausted flag; the second
    guarantees monotone entropy but typically drives D/n^{k-1} above every
    weight (a vacuous run) at desk scale.
    """
    eps = epsilon
    for _ in range(MAX_SHRINKS + 1):
        params = AnnealParams.for_graph(G, gamma, eps, C, max_steps)
        if not (broken := params.violations(G, require_termination, require_positive_gain)):
            return params
        eps *= EPSILON_SHRINK
    raise InvalidArgumentError(
        f"no valid epsilon found below {epsilon} after {MAX_SHRINKS} shrink steps; "
        f"epsilon = {params.epsilon!r} still broke: " + "; ".join(broken)
    )


def find_good_configuration(
    G: Hypergraph, x: EdgeWeights, params: AnnealParams
) -> tuple[str, Optional[ShiftingStructure]]:
    """Deterministic scan for a good configuration under ``params``.

    Edges are scanned in id order for weight >= D/n^{k-1}; for each such e
    and each of its partner edges f (``partner_edges`` order) with
    x[f] <= eta - delta, a structure is searched with the weight masks
    (decreasing side >= 2 delta, increasing side <= eta - delta).  The
    first hit wins.  Returns ``("found", structure)``, or the status
    ``no-high-weight-edge`` (nothing to fix) or ``search-exhausted`` (a
    high-weight edge exists but no structure was found - a desk-scale gap
    the asymptotic argument does not cover) with None.
    """
    check_alignment(G, x)
    w = x.weights
    heavy = np.flatnonzero(w >= params.high_threshold(G)).tolist()
    if not heavy:
        return "no-high-weight-edge", None
    e_ok = w >= 2.0 * params.delta
    f_ok = w <= params.eta - params.delta
    for e_id in heavy:
        partners = partner_edges(G, e_id)
        for f_id in partners[f_ok[partners]].tolist():
            structure = find_shifting_structure(G, e_id, f_id, e_ok, f_ok)
            if structure is not None:
                return "found", structure
    return "search-exhausted", None


@dataclass(frozen=True)
class AnnealStep:
    step: int
    e_ids: tuple[int, ...]
    f_ids: tuple[int, ...]
    delta: float
    entropy_before: float
    entropy_after: float
    bound: float


@dataclass
class AnnealLog:
    termination: str
    start_entropy: float
    steps: list[AnnealStep] = field(default_factory=list)

    def write_csv(self, path: str, header_comments: Sequence[str] = ()) -> None:
        k = len(self.steps[0].e_ids) if self.steps else 0
        with _text_file(path, header_comments) as fh:
            writer = csv.writer(fh)
            e_cols = [f"e_{i + 1}" for i in range(k)]
            f_cols = [f"f_{i + 1}" for i in range(k)]
            writer.writerow(["step", *e_cols, *f_cols, "delta", "entropy_before", "entropy_after", "bound"])
            for s in self.steps:
                writer.writerow(
                    [s.step, *s.e_ids, *s.f_ids, repr(s.delta), repr(s.entropy_before), repr(s.entropy_after), repr(s.bound)]
                )


def anneal_and_shift(
    G: Hypergraph,
    x_star: EdgeWeights,
    x_hat: EdgeWeights,
    params: AnnealParams,
) -> tuple[EdgeWeights, AnnealLog]:
    """Mix, then shift at good configurations until none is left.

    Starts from x_0 = (1 - eps/C) x_star + (eps/C) x_hat, whose weights all
    sit at or above 2 delta when x_hat is C-well-distributed, and applies
    delta-shifts at good configurations.  Stops at ``no-high-weight-edge``
    (every weight now below D/n^{k-1}), ``search-exhausted`` or
    ``step-limit``.  Every ``RENORMALIZE_EVERY`` shifts the weights are
    re-projected onto exact vertex sums to wash out float drift.  The
    starting mixture and the result must pass ``as_verified``.
    """
    if broken := params.violations(G):
        raise InvalidArgumentError("invalid anneal parameters: " + "; ".join(broken))
    x = as_verified(G, convex_combine(x_star, x_hat, params.epsilon / params.C))
    log = AnnealLog(termination="step-limit", start_entropy=x.entropy)
    for step in range(1, params.max_steps + 1):
        status, structure = find_good_configuration(G, x, params)
        if structure is None:
            log.termination = status
            break
        bound = shift_gain_lower_bound(x, structure, params.delta, params.eta)
        before = x.entropy
        x = apply_shift(x, structure, params.delta)
        log.steps.append(
            AnnealStep(step, structure.e_ids, structure.f_ids, params.delta, before, x.entropy, bound)
        )
        if step % RENORMALIZE_EVERY == 0 and float(x.weights.min()) > 0:
            result = scale_vertex_sums(G, x.weights, 1e-13, 50)
            x = EdgeWeights._checked(np.minimum(result.x, 1.0), x.graph_digest)
    return as_verified(G, x), log


def well_distributed_fpm(
    G: Hypergraph, params: DiracParams, seed: int, trials: int
) -> tuple[EdgeWeights, dict]:
    """Well-distributed fractional matching from exactly uniform perfect matchings.

    Trial t draws one uniform perfect matching from stream (seed, t); the
    trials are drawn in lockstep by ``PMOracle.sample_streams``, each the
    matching ``sample(rng_from(seed, t))`` returns.  The empirical edge
    marginals over the draws are then projected onto exact vertex sums by
    the proportional-scaling solver, initialised at the (positively floored)
    empirical values.  A projection that does not converge raises
    SamplingError; otherwise its vertex sums are checked before the result
    is marked verified.

    The paper's hybrid measure first runs T = floor(gamma/(10 k^2) * n)
    rounds of uniform-random-edge greedy.  A (d, gamma)-Dirac graph has
    gamma <= 1/2, so T >= 1 needs n >= 20 k^2, far beyond the exact
    oracle's n <= 24; a (d, gamma) that gives T >= 1 is refused.  The
    report keeps ``prefix_rounds`` and ``resamples`` (both 0) and ``beta``.
    ``sample_streams`` refuses a ``trials`` outside [1, 2^32].
    """
    params.validate_for(G.k)
    beta = params.gamma / (10.0 * G.k * G.k)
    T = int(beta * G.n)
    oracle = PMOracle(G)
    if T:
        raise InvalidArgumentError(
            f"gamma={params.gamma} gives {T} greedy prefix rounds at n={G.n}; "
            "only the exactly uniform measure (no prefix) is supported"
        )
    empirical = np.bincount(oracle.sample_streams(seed, trials).ravel(), minlength=G.num_edges) / trials
    # Never-sampled edges get half a count so multiplicative scaling can
    # still move weight onto them.
    floored = np.maximum(empirical, 0.5 / trials)
    result = scale_vertex_sums(G, floored, 1e-10, 20000)
    if not result.converged:
        raise SamplingError(
            f"projection onto unit vertex sums did not converge (residual {result.max_residual:.3e})"
        )
    x = as_verified(G, EdgeWeights.from_weights(G, np.minimum(result.x, 1.0)))
    report = {
        "trials": trials,
        "prefix_rounds": 0,
        "beta": beta,
        "resamples": 0,
        "projection_residual": result.max_residual,
        "projection_converged": bool(result.converged),
        "well_distributed_factor": well_distributed_factor(G, x),
    }
    return x, report
