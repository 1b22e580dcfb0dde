"""Auxiliary bipartite graph, pull-back weights, and the entropy lower bound.

From a k-graph G and k/2 <= d <= k-1, build the bipartite graph whose one
side holds every d-subset of V(G) duplicated C(n, k-d) times and whose
other side holds every (k-d)-subset duplicated C(n, d) times, joining U to
W whenever U + W is an edge of G.  Both sides have
ntilde = C(n,d) C(n,k-d) vertices and each source edge expands to
Q = C(k,d) ntilde bipartite edges.

Duplicates are never materialised: by strict concavity the max-entropy
bipartite fractional matching gives every copy of a (U, W) pair the same
weight, so the solve happens on the quotient (one variable per distinct
pair, multiplicity-weighted constraints).  Pulling a bipartite matching
xt back through  x[e] = sum_{et ~ e} xt[et] / L  with
L = (k/n) C(n,d) C(n,k-d)  yields a fractional perfect matching of G whose
entropy certifies

    h(G) >= (n/k) ln( (k/n) * C(n,d)/C(k,d) * delta_d(G) ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
import numpy as np

from .counting import DEFAULT_COUNT_CAP, count_pm, phi_complete
from .entropy import (
    EdgeWeights,
    ScalingResult,
    as_verified,
    ln_phi_entropy_route,
    max_entropy_fpm,
    scale_to_unit_sums,
    weight_entropy,
)
from .errors import InvalidArgumentError, InvariantError, ResourceLimitError
from .hypergraph import DiracParams, Hypergraph, all_subsets, encode, group, is_dirac, min_d_degree

# Neither side of a lift may have more distinct subsets than this.
DEFAULT_LIFT_CAP = 10**5

# Residual tolerance and sweep budget of the bipartite max-entropy solve.
BIPARTITE_TOL = 1e-10
BIPARTITE_MAX_ITER = 50000


@dataclass(frozen=True, eq=False)
class BipartiteLift:
    """Quotient form of the duplicated bipartite graph."""

    source_digest: str
    n: int
    k: int
    d: int
    a_subsets: np.ndarray  # ascending codes of the d-subsets of [n]
    b_subsets: np.ndarray  # ascending codes of the (k-d)-subsets of [n]
    mult_a: int  # copies of each d-subset on the A side: C(n, k-d)
    mult_b: int  # copies of each (k-d)-subset on the B side: C(n, d)
    quotient_edges: np.ndarray  # (q, 2): a index, b index
    source_edge: np.ndarray  # (q,): source edge id per quotient edge
    n_tilde: int
    L: float
    Q: int
    min_degree: int  # min over both sides' copies of the bipartite degree
    min_degree_attained: str  # "A", "B" or "both"


def _check_degree_order(d: int, k: int) -> None:
    """Refuse d outside the entropy bound's hypothesis k/2 <= d <= k-1 (k >= 2 gives d >= 1)."""
    if not (2 * d >= k and d <= k - 1):
        raise InvalidArgumentError(f"d={d} violates the hypothesis k/2 <= d <= k-1 for k={k}")


def lift(G: Hypergraph, d: int) -> BipartiteLift:
    """Build the quotient bipartite lift for degree order d.

    Requires k/2 <= d <= k-1 (the entropy bound's hypothesis).  Each edge
    splits into a d-subset U and the (k-d)-subset W of its other vertices,
    once per choice of d of its columns; the quotient edges list these
    splits edge by edge.  The side minima of the bipartite degree are
    delta_d(G) mult_b and delta_{k-d}(G) mult_a, and the attaining side is recorded.
    """
    n, k = G.n, G.k
    _check_degree_order(d, k)
    if comb(n, d) > DEFAULT_LIFT_CAP or comb(n, k - d) > DEFAULT_LIFT_CAP:
        raise ResourceLimitError(f"C({n},{d}) exceeds the lift cap {DEFAULT_LIFT_CAP}")
    a_subsets = encode(all_subsets(n, d), n)
    b_subsets = encode(all_subsets(n, k - d), n)
    part, rest = G.split_codes(d)
    ai = np.searchsorted(a_subsets, part).ravel()
    bi = np.searchsorted(b_subsets, rest).ravel()
    mult_a = comb(n, k - d)
    mult_b = comb(n, d)
    n_tilde = comb(n, d) * comb(n, k - d)
    # Each edge at a d-subset U has one split with d-part U: U's copies have degree deg(U) mult_b.
    min_a = min_d_degree(G, d) * mult_b
    min_b = min_d_degree(G, k - d) * mult_a
    attained = "both" if min_a == min_b else ("A" if min_a < min_b else "B")
    return BipartiteLift(
        source_digest=G.digest(),
        n=n,
        k=k,
        d=d,
        a_subsets=a_subsets,
        b_subsets=b_subsets,
        mult_a=mult_a,
        mult_b=mult_b,
        quotient_edges=np.stack([ai, bi], axis=1),
        source_edge=np.repeat(np.arange(G.num_edges), comb(k, d)),
        n_tilde=n_tilde,
        L=(k / n) * n_tilde,
        Q=comb(k, d) * n_tilde,
        min_degree=min(min_a, min_b),
        min_degree_attained=attained,
    )


def bipartite_max_entropy(lft: BipartiteLift) -> tuple[ScalingResult, dict]:
    """Max-entropy bipartite fractional perfect matching on the quotient.

    Returns the solve, whose ``x`` is the weight of each copy of a quotient
    edge (all mult_a * mult_b = ntilde copies weigh the same), and a report
    whose ``entropy`` is the expanded ntilde h(x).  Requires the bipartite
    minimum degree to be at least ntilde/2 (the regime where a matching of
    entropy >= ntilde ln(min degree) is guaranteed to exist); asserts that
    the solved entropy clears that bound.
    """
    if lft.min_degree < lft.n_tilde / 2:
        raise InvalidArgumentError(
            f"bipartite minimum degree {lft.min_degree} is below ntilde/2 = {lft.n_tilde / 2}"
        )
    q = len(lft.quotient_edges)
    n_a, n_b = lft.a_subsets.size, lft.b_subsets.size
    # One constraint per A subset (multiplicity mult_b), then one per B subset
    # (mult_a), each with its quotient edges in id order.  A quotient edge has
    # one end per side, so each side is one run of disjoint rows.
    ends = lft.quotient_edges
    indptr, order = group(np.concatenate([ends[:, 0], n_a + ends[:, 1]]), n_a + n_b)
    scale = np.repeat([float(lft.mult_b), float(lft.mult_a)], [n_a, n_b])
    mean_qdeg = q / max(1, n_a)
    y0 = np.full(q, 1.0 / (lft.mult_b * max(mean_qdeg, 1.0)))
    runs = [0, n_a, n_a + n_b]
    result = scale_to_unit_sums(indptr, order % q, scale, y0, BIPARTITE_TOL, BIPARTITE_MAX_ITER, runs=runs)
    h_expanded = float(lft.n_tilde) * weight_entropy(result.x)
    guarantee = lft.n_tilde * math.log(lft.min_degree)
    slack = 1e-6 * max(1.0, float(lft.n_tilde))
    if result.converged and h_expanded < guarantee - slack:
        raise InvariantError(
            f"bipartite entropy {h_expanded} fell below the guaranteed "
            f"ntilde ln(delta) = {guarantee}"
        )
    report = {
        "n_tilde": lft.n_tilde,
        "min_degree": lft.min_degree,
        "min_degree_attained": lft.min_degree_attained,
        "entropy": h_expanded,
        "entropy_guarantee": guarantee,
        "max_residual": result.max_residual,
        "converged": bool(result.converged),
        "iterations": result.iterations,
    }
    return result, report


def _source_sums(G: Hypergraph, lft: BipartiteLift, bw: ScalingResult) -> np.ndarray:
    """S_e: the total weight of the lifted copies of each source edge e."""
    return np.bincount(lft.source_edge, weights=float(lft.n_tilde) * bw.x, minlength=G.num_edges)


def pull_back(G: Hypergraph, lft: BipartiteLift, bw: ScalingResult) -> EdgeWeights:
    """x[e] = (sum over e's lifted copies of their weight) / L, on G, verified
    to vertex sums within 1e-9."""
    if G.digest() != lft.source_digest:
        raise InvalidArgumentError("lift was built from a different graph")
    x = EdgeWeights.from_weights(G, np.minimum(_source_sums(G, lft, bw) / lft.L, 1.0))
    return as_verified(G, x, tol=1e-9)


def entropy_lower_bound(G: Hypergraph, d: int) -> float:
    """(n/k) ln( (k/n) * C(n,d)/C(k,d) * delta_d(G) ), for k/2 <= d <= k-1."""
    n, k = G.n, G.k
    _check_degree_order(d, k)
    delta = min_d_degree(G, d)
    if delta == 0:
        return -math.inf
    return (n / k) * math.log((k / n) * (comb(n, d) / comb(k, d)) * delta)


def bound_chain_report(G: Hypergraph, lft: BipartiteLift, bw: ScalingResult, x: EdgeWeights, bound: float) -> dict:
    """Evaluate each line of the pull-back entropy chain numerically.

    line1 rewrites h(x) exactly through the per-source-edge copy sums;
    line2 applies Jensen (t ln(1/t) concave) per source edge; line3 inserts
    the bipartite entropy guarantee; line4 is ``bound``, the closed form.
    """
    n, k, d = lft.n, lft.k, lft.d
    S_e = _source_sums(G, lft, bw)
    total = float(S_e.sum())
    L, Q = lft.L, float(lft.Q)
    positive = S_e[S_e > 0]
    line1 = (math.log(L / Q) / L) * total + (1.0 / L) * float(
        (positive * (math.log(Q) - np.log(positive))).sum()
    )
    h_lifted = float(lft.n_tilde) * weight_entropy(bw.x)
    line2 = (1.0 / L) * math.log((k / n) / comb(k, d)) * total + h_lifted / L
    line3 = (1.0 / L) * math.log((k / n) / comb(k, d)) * lft.n_tilde + (
        lft.n_tilde * math.log(lft.min_degree) / L
    )
    tol = 1e-9 * max(1.0, abs(line1))
    return {
        "h_pullback": x.entropy,
        "line1_exact_rewrite": line1,
        "line2_jensen": line2,
        "line3_degree_guarantee": line3,
        "line4_closed_form": bound,
        "identity_ok": bool(abs(x.entropy - line1) <= 1e-6 * max(1.0, abs(line1))),
        "jensen_ok": bool(line1 >= line2 - tol),
        "guarantee_ok": bool(line2 >= line3 - 1e-6 * max(1.0, abs(line3))),
        "closed_form_ok": bool(line3 >= bound - 1e-9 * max(1.0, abs(bound))),
        "total_lifted_weight": total,
        "n_tilde": lft.n_tilde,
    }


def certify_entropy_lower_bound(G: Hypergraph, d: int, solved=None) -> dict:
    """Full certificate: solver entropy and the lift pipeline vs the bound;
    ``solved`` is ``max_entropy_fpm(G)`` if the caller already has it."""
    bound = entropy_lower_bound(G, d)
    x_star, solve = solved or max_entropy_fpm(G)
    lft = lift(G, d)
    bw, bip_report = bipartite_max_entropy(lft)
    x_pull = pull_back(G, lft, bw)
    chain = bound_chain_report(G, lft, bw, x_pull, bound)
    return {
        "n": G.n,
        "k": G.k,
        "d": d,
        "bound": bound,
        "h_solver": x_star.entropy,
        "solver_clears_bound": bool(x_star.entropy >= bound - 1e-6),
        "h_pullback": x_pull.entropy,
        "pullback_clears_bound": bool(x_pull.entropy >= bound - 1e-6),
        "solver_converged": bool(solve.converged),
        "lemma_check": bool(
            bip_report["entropy"] >= bip_report["entropy_guarantee"] - 1e-6 * max(1.0, lft.n_tilde)
        ),
        "lift": bip_report,
        "chain": chain,
    }


def matching_count_bound_report(G: Hypergraph, params: DiracParams, solved=None) -> dict:
    """Matching-count lower-bound arithmetic around p = delta_d / C(n-d, k-d).

    Reports ln Phi(G) (exact when n is under the counting cap, otherwise
    ``ln_phi_entropy_route`` of the solver's entropy), the target
    ln Phi(K_n^{(k)}) + (n/k) ln p, and the Stirling-chain intermediates of
    the deduction for audit.  Residuals carry no pass/fail: the statement is
    asymptotic.  ``solved`` is ``max_entropy_fpm(G)`` if the caller
    already has it.
    """
    n, k, d = G.n, G.k, params.d
    _check_degree_order(d, k)
    delta = min_d_degree(G, d)
    p = delta / comb(n - d, k - d)
    phi_complete_value = phi_complete(n, k).value
    target = math.log(phi_complete_value) + (n / k) * math.log(p) if p > 0 else -math.inf
    exact = None
    if n <= DEFAULT_COUNT_CAP:
        value = count_pm(G).value
        exact = math.log(value) if value > 0 else -math.inf
    x_star, _ = solved or max_entropy_fpm(G)
    entropy_route = ln_phi_entropy_route(x_star.entropy, n, k)
    ln_phi = exact if exact is not None else entropy_route
    # Stirling-chain intermediates of the deduction, evaluated numerically: three forms of
    # the entropy bound, each carried to ln Phi by the entropy route.
    chain = (
        (n / k) * math.log((k / n) * (comb(n, d) / comb(k, d)) * comb(n - d, k - d) * p),
        (n / k) * math.log((k / n) * comb(n, k) * p),
        (n / k) * math.log(k / n) + n * math.log(n) - (n / k) * math.log(math.factorial(k)) + (n / k) * math.log(p),
    ) if p > 0 else (-math.inf,) * 3
    bound_line, merged_line, expanded_line = (ln_phi_entropy_route(h, n, k) for h in chain)
    return {
        "n": n,
        "k": k,
        "d": d,
        "gamma": params.gamma,
        "dirac": bool(is_dirac(G, params)),
        "delta_d": delta,
        "p": p,
        "phi_complete": str(phi_complete_value),
        "target": target,
        "ln_phi_exact": exact,
        "ln_phi_entropy_route": entropy_route,
        "residual": None if ln_phi in (None, -math.inf) or target == -math.inf else ln_phi - target,
        "residual_per_n": None
        if ln_phi in (None, -math.inf) or target == -math.inf
        else (ln_phi - target) / n,
        "stirling_chain": {
            "entropy_bound_minus_correction": bound_line,
            "merged_binomial_form": merged_line,
            "expanded_form": expanded_line,
        },
    }
