"""Fractional perfect matchings, their entropy, and the max-entropy solver.

A fractional perfect matching (fpm) assigns each edge a weight in [0, 1] so
that every vertex's incident weights sum to 1.  Its entropy is
``sum_e w[e] ln(1/w[e])`` in nats, with ``0 ln 0 = 0``.  The graph entropy
is the supremum of this over all fpms; it is computed here by iterative
proportional scaling on the vertex-edge incidence system, which is exact
coordinate ascent on the dual of the concave program

    max  sum_e x_e ln(1/x_e)   s.t.   sum_{e : v in e} x_e = 1,  x >= 0.

At the optimum the weights have the exponential-family form
``x_e = exp(sum_{v in e} lambda_v - 1)``; the solver maintains that form
throughout (every update is a per-vertex rescale of an exponential-family
point), so the dual potentials come out for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, InvalidArgumentError, InvariantError, ParseError
from .hypergraph import Hypergraph, _text_file, _text_lines

DEFAULT_FEASIBILITY_TOL = 1e-8

# Below this a weight is treated as exactly zero in entropy terms.
ZERO_WEIGHT = 1e-300

STATUS_RAW = "raw"
STATUS_VERIFIED = "verified-fpm"


def weight_entropy(weights: np.ndarray) -> float:
    """sum w ln(1/w) in nats with the 0 ln 0 = 0 convention."""
    w = np.asarray(weights, dtype=float)
    if w.size and float(w.min()) < 0.0:
        raise InvalidArgumentError(f"negative weight {float(w.min())!r}")
    positive = w[w > ZERO_WEIGHT]
    return float(-(positive * np.log(positive)).sum())


@dataclass(frozen=True)
class EdgeWeights:
    """Edge weight vector aligned with a graph's edge order.

    Every constructor builds ``"raw"`` weights; only a vertex-sum check in
    this module marks them ``"verified-fpm"``.  The entropy is computed once.
    """

    weights: np.ndarray
    graph_digest: str
    entropy: float
    status: str = STATUS_RAW

    @classmethod
    def from_weights(cls, G: Hypergraph, weights) -> "EdgeWeights":
        w = np.array(weights, dtype=float)
        if w.shape != (G.num_edges,):
            raise InvalidArgumentError(
                f"weight vector has length {w.size}, graph has {G.num_edges} edges"
            )
        return cls._checked(w, G.digest())

    @classmethod
    def _checked(cls, w: np.ndarray, graph_digest: str) -> "EdgeWeights":
        """Check that the float array w is finite and in [0, 1], freeze it
        (the result owns it) and compute its entropy, which refuses a negative weight."""
        if w.size:
            if not np.isfinite(w).all():
                raise InvalidArgumentError("weights must be finite")
            if float(w.max()) > 1.0 + 1e-9:
                raise InvalidArgumentError(f"weight {float(w.max())!r} exceeds 1")
        w.flags.writeable = False
        return cls(w, graph_digest, weight_entropy(w))

    @property
    def verified(self) -> bool:
        return self.status == STATUS_VERIFIED


def check_alignment(G: Hypergraph, x: EdgeWeights) -> None:
    if x.weights.shape != (G.num_edges,):
        raise InvalidArgumentError("weights are not aligned with the graph's edge list")
    if x.graph_digest != G.digest():
        raise InvalidArgumentError("weights were built for a different graph (digest mismatch)")


def vertex_sums(G: Hypergraph, weights: np.ndarray) -> np.ndarray:
    """Incident weight per vertex, added in edge-id order at each vertex."""
    per_slot = np.repeat(np.asarray(weights, dtype=float), G.k)
    return np.bincount(G.edge_verts.ravel(), weights=per_slot, minlength=G.n)


def as_verified(G: Hypergraph, x: EdgeWeights, tol: float = DEFAULT_FEASIBILITY_TOL) -> EdgeWeights:
    """Return x with verified status after checking that every vertex's
    incident weight sums to 1 within tol.

    Raises InvalidArgumentError naming the worst vertex, its residual and
    tol otherwise; a NaN vertex sum is refused too.
    """
    check_alignment(G, x)
    residuals = np.abs(vertex_sums(G, x.weights) - 1.0)
    worst = int(residuals.argmax()) if G.n else 0
    residual = float(residuals[worst]) if G.n else 0.0
    if not residual <= tol:
        raise InvalidArgumentError(
            f"not a fractional perfect matching: vertex {worst} "
            f"residual {residual:.3e} > {tol:.1e}"
        )
    return replace(x, status=STATUS_VERIFIED)


def well_distributed_factor(G: Hypergraph, x: EdgeWeights) -> float:
    """Least D >= 1 with 1/(D n^{k-1}) <= w[e] <= D/n^{k-1} for all edges.

    Infinity signals a zero weight.
    """
    check_alignment(G, x)
    w = x.weights
    if w.size == 0:
        return 1.0
    if float(w.min()) <= ZERO_WEIGHT:
        return math.inf
    scale = float(G.n) ** (G.k - 1)
    return max(float(w.max()) * scale, 1.0 / (float(w.min()) * scale), 1.0)


def jensen_bounds(G: Hypergraph, L: float) -> tuple[float, float]:
    """(upper, lower) entropy bounds for any fpm with all weights <= L.

    upper = (1 - 1/k) n ln n,  lower = (n/k) ln(n / (L^2 k |E|)).
    """
    if not L > 0:
        raise InvalidArgumentError(f"L must be positive, got {L}")
    n, k, m = G.n, G.k, G.num_edges
    upper = (1.0 - 1.0 / k) * n * math.log(n) if n > 0 else 0.0
    lower = (n / k) * math.log(n / (L * L * k * m)) if m > 0 else 0.0
    return upper, lower


def ln_phi_entropy_route(h: float, n: int, k: int) -> float:
    """h - (1 - 1/k) n: the leading-order ln Phi(G) that entropy h predicts above the Dirac threshold."""
    return h - (1.0 - 1.0 / k) * n


# ---------------------------------------------------------------------------
# Proportional scaling core
# ---------------------------------------------------------------------------


@dataclass
class ScalingResult:
    """One proportional-scaling solve.  ``potentials`` are the core's log-scalings
    mu, one per constraint, or the dual lambda in a ``max_entropy_fpm`` result."""

    x: np.ndarray
    potentials: np.ndarray
    iterations: int
    max_residual: float
    converged: bool


def scale_to_unit_sums(
    indptr: np.ndarray, ids: np.ndarray, scale: np.ndarray, x0: np.ndarray, tol: float, max_iter: int,
    *, runs: Sequence[int],
) -> ScalingResult:
    """Scale positive x0 so each constraint scale[j] * sum_e x[e] equals 1.

    Constraint j is the CSR row ``indptr[j]:indptr[j + 1]`` of ``ids`` (its
    entries of x) times its multiplicity ``scale[j]``.  Cyclic sweeps rescale
    the constraints in row order (exact coordinate ascent on the dual) until
    the largest residual is at most ``tol`` or ``max_iter`` sweeps have run;
    an empty row is refused in the first.  The rows of each run
    ``runs[i]:runs[i + 1]`` share no entry (an InvariantError otherwise), so
    rescaling one leaves the others' sums as they were and a run of several
    rows is rescaled at once: one 2-D gather per row length, whose
    ``.sum(axis=1)`` gives each row the bits of its own ``.sum()``.  A sweep's
    residuals are one ``np.add.reduceat``, which can differ from ``.sum()`` in
    the last bit and so never sets a rescale.  No sum depends on the BLAS
    kernel.  The potentials are the accumulated per-constraint log-scalings;
    one beyond 1e3 ln(max(#constraints, 3)) is diagnosed as infeasibility.
    """
    x = np.array(x0, dtype=float)
    if x.size and float(x.min()) <= 0:
        raise InvalidArgumentError("scaling requires a strictly positive starting point")
    ncon = len(indptr) - 1
    ptr, mult = indptr.tolist(), scale.tolist()
    # (row, entries, multiplicity, None) per one-row run; a longer run adds
    # (rows, 2-D entries, multiplicities, run) per row length
    steps = []
    for lo, hi in zip(runs[:-1], runs[1:]):
        entries = ids[ptr[lo]:ptr[hi]]
        if hi - lo == 1:
            steps.append((lo, entries, mult[lo], None))
        elif np.bincount(entries, minlength=1).max() > 1:
            raise InvariantError(f"constraints {lo} to {hi - 1} form a run but share an entry")
        else:
            length = np.diff(indptr[lo:hi + 1])
            for size in sorted(set(length.tolist())):
                rows = lo + np.flatnonzero(length == size)
                block = ids[indptr[rows, None] + np.arange(size)]
                steps.append((rows.tolist(), block, scale[rows], range(lo, hi)))
    cap = 1e3 * math.log(max(ncon, 3))
    mu = [0.0] * ncon
    residual = math.inf
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        for j, con, c, run in steps:
            xc = x[con]
            if run is None:
                s = c * float(xc.sum())
                if s <= 0:
                    raise InfeasibleError(f"constraint {j} has no positive incident weight")
                x[con] = xc / s
                mu[j] -= math.log(s)
                continue
            s = c * xc.sum(axis=1)
            for r, sr in zip(j, s.tolist()):
                if sr <= 0:  # name the run's first such row, as a row-by-row sweep would
                    first = next(i for i in run if mult[i] * x[ids[ptr[i]:ptr[i + 1]]].sum() <= 0)
                    raise InfeasibleError(f"constraint {first} has no positive incident weight")
                mu[r] -= math.log(sr)
            x[con] = xc / s[:, None]
        sums = scale * np.add.reduceat(x[ids], indptr[:-1])
        residual = float(np.abs(sums - 1.0).max()) if ncon else 0.0
        if residual <= tol:
            return ScalingResult(x, np.array(mu), sweeps, residual, True)
        if float(np.abs(mu).max()) > cap:
            raise InfeasibleError(
                f"diverging potentials (|mu| > {cap:.3g}); "
                "no fractional perfect matching on this support"
            )
    return ScalingResult(x, np.array(mu), sweeps, residual, False)


def scale_vertex_sums(G: Hypergraph, x0: np.ndarray, tol: float, max_iter: int) -> ScalingResult:
    """``scale_to_unit_sums`` on the vertex sums of G: one constraint of
    multiplicity 1 per vertex from the graph's incidence arrays, each its own run."""
    return scale_to_unit_sums(G.indptr, G.incidence, np.ones(G.n), x0, tol, max_iter, runs=range(G.n + 1))


def max_entropy_fpm(
    G: Hypergraph,
    tol: float = DEFAULT_FEASIBILITY_TOL,
    max_iter: int = 20000,
) -> tuple[EdgeWeights, ScalingResult]:
    """Entropy-maximising fractional perfect matching of G.

    Starts from the uniform positive vector x_e = n/(k |E|) and scales
    vertex sums to 1.  The result's potentials are the dual lambda_v; at
    convergence ``x_e = exp(sum_{v in e} lambda_v - 1)`` up to rounding.
    The weights are ``verified-fpm`` only at a residual within the reader's
    ``DEFAULT_FEASIBILITY_TOL``, whatever ``tol`` the solve stopped at.
    Raises InfeasibleError for graphs with an uncovered vertex or diverging
    potentials; returns converged=False when the iteration budget runs out.
    The entropy is accurate to about ``max_residual`` times max|ln x_e| per
    vertex, not to ``tol``: on ``gen_random_dirac(60, 3, DiracParams(2, 0.2),
    0.9, seed=1)`` it lies 5.2e-7 above the optimum, about 50 times the
    vertex-sum tolerance.
    """
    if not 0 < tol < math.inf or max_iter < 1:
        raise InvalidArgumentError(f"need finite tol > 0 and max_iter >= 1, got {tol}, {max_iter}")
    if G.n == 0:
        empty = as_verified(G, EdgeWeights.from_weights(G, np.zeros(0)))
        return empty, ScalingResult(np.zeros(0), np.zeros(0), 0, 0.0, True)
    uncovered = np.flatnonzero(G.degrees == 0)
    if uncovered.size:
        raise InfeasibleError(f"vertex {int(uncovered[0])} has no incident edge")
    m = G.num_edges
    x0_value = G.n / (G.k * m)
    result = scale_vertex_sums(G, np.full(m, x0_value), tol, max_iter)
    # Shift the accumulated scalings into true dual potentials:
    # x_e = x0 * prod_v exp(mu_v) = exp(sum_v lambda_v - 1) with the shift below.
    lam = result.potentials + (1.0 + math.log(x0_value)) / G.k
    x = EdgeWeights.from_weights(G, np.minimum(result.x, 1.0))
    if result.max_residual <= DEFAULT_FEASIBILITY_TOL:
        x = replace(x, status=STATUS_VERIFIED)
    return x, replace(result, potentials=lam)


def dual_value(G: Hypergraph, potentials) -> float:
    """g(lambda) = sum_e exp(sum_{v in e} lambda_v - 1) - sum_v lambda_v, in ``math.fsum``
    sums; weak duality makes it >= h* for every lambda, converged or not."""
    lam = np.asarray(potentials, dtype=float)
    if lam.shape != (G.n,):
        raise InvalidArgumentError(f"need {G.n} potentials, got shape {lam.shape}")
    return math.fsum(math.exp(math.fsum(lam[row]) - 1.0) for row in G.edge_verts) - math.fsum(lam)


def convex_combine(x1: EdgeWeights, x2: EdgeWeights, t: float) -> EdgeWeights:
    """(1-t) x1 + t x2 as raw weights; entropy is concave so the mixture's
    entropy dominates, and a mixture of two fpms is an fpm up to rounding."""
    if not 0.0 <= t <= 1.0:
        raise InvalidArgumentError(f"t={t} outside [0, 1]")
    if x1.graph_digest != x2.graph_digest or x1.weights.shape != x2.weights.shape:
        raise InvalidArgumentError("cannot combine weights from different graphs")
    w = (1.0 - t) * x1.weights + t * x2.weights
    return EdgeWeights._checked(np.minimum(w, 1.0), x1.graph_digest)


# ---------------------------------------------------------------------------
# Weights file I/O (.wts): one decimal weight per line in edge-id order,
# header comment records the source graph digest.
# ---------------------------------------------------------------------------


def write_weights(path: str, x: EdgeWeights, header_comments: Sequence[str] = ()) -> None:
    with _text_file(path, [f"graph {x.graph_digest}", f"status {x.status}", *header_comments]) as fh:
        for w in x.weights:
            fh.write(f"{w:.17g}\n")


def read_weights(path: str, G: Hypergraph) -> EdgeWeights:
    """Read a .wts file written for G; checks digest and length against it.

    A ``verified-fpm`` status header is kept only after the vertex sums pass
    ``as_verified`` on G.
    """
    digest = None
    status = STATUS_RAW
    values: list[float] = []
    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "graph":
                digest = fields[1]
            elif len(fields) == 2 and fields[0] == "status":
                status = fields[1]
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError("not a decimal weight", path, lineno)
    if digest is not None and digest != G.digest():
        raise InvalidArgumentError(f"weights file {path} was written for a different graph")
    x = EdgeWeights.from_weights(G, values)
    return as_verified(G, x) if status == STATUS_VERIFIED else x
