"""The weighted random greedy matching process and its trajectory statistics.

Guided by a fractional perfect matching x, the process repeatedly picks an
edge with probability proportional to x among the edges of the current
residual graph, then deletes the picked edge's vertices.  With
p(i) = (n/k - i)/(n/k) the fraction of surviving vertices after i steps,
the tracked statistics are anticipated to follow

    residual weight   ~ p(i)^k (n/k)
    residual entropy  ~ p(i)^k h(x)
    deg(S) in G(i)    ~ p(i)^{k-|S|} deg_G(S)

and ``trajectory_deviation`` measures how far a run strays from those
centers.  The centers are leading order in n: their relative finite-size
error is about k(k-1)(1 - p(i)) / (2 p(i) n), e.g. 0.20 at n = 60, k = 3,
i = 0.8 n/3.  On the complete graph K_n^(k) with uniform weights the
residuals are exact and the same for every run: each step deletes k
vertices, so residual weight and entropy are C(n-ki, k)/C(n, k) times their
initial values and an alive set S keeps (n-ki-|S|)_{k-|S|}/(n-|S|)_{k-|S|}
of its degree.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import asdict, dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .entropy import EdgeWeights, check_alignment
from .errors import InvalidArgumentError
from .hypergraph import Hypergraph, _text_file, encode
from .seeds import rng_from

STOP_FROZEN = "no-positive-weight-edge"
STOP_LIMIT = "step-limit"

# Edges per block of the pick's blocked prefix sums.
PICK_BLOCK = 256


@dataclass(frozen=True)
class TrajectoryConfig:
    """Tracking and stopping policy for greedy runs.

    ``stop_fraction`` of n/k caps the number of steps (None runs to the
    freeze, i.e. until no positive-weight edge remains).  The tracked sets
    are all singletons plus ``sampled_sets_per_size`` random sets of each
    size 2..k-1, drawn from stream (0, size) once per process.
    """

    c: float = 0.05
    stop_fraction: Optional[float] = None
    sampled_sets_per_size: int = 100

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise InvalidArgumentError(f"trajectory exponent c={self.c} outside (0, 1)")
        if self.stop_fraction is not None and not 0.0 < self.stop_fraction <= 1.0:
            raise InvalidArgumentError(f"stop_fraction={self.stop_fraction} outside (0, 1]")
        if type(self.sampled_sets_per_size) is not int or self.sampled_sets_per_size < 0:
            raise InvalidArgumentError(
                f"sampled_sets_per_size={self.sampled_sets_per_size!r} is not a non-negative int")


@functools.lru_cache
def _sampled_sets(n: int, size: int, quota: int) -> tuple[tuple[int, ...], ...]:
    """``quota`` distinct sorted ``size``-subsets of range(n), in order: all of
    them when ``quota`` is C(n, size), else drawn from stream (0, size)."""
    if quota == comb(n, size):
        return tuple(itertools.combinations(range(n), size))
    rng = rng_from(0, size)
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < quota:
        chosen.add(tuple(sorted(int(v) for v in rng.choice(n, size=size, replace=False))))
    return tuple(sorted(chosen))


def resolve_tracked_sets(G: Hypergraph, cfg: TrajectoryConfig) -> tuple[tuple[int, ...], ...]:
    """The tracked vertex sets for a run, deterministic given the config."""
    sets: list[tuple[int, ...]] = [(v,) for v in range(G.n)]
    for size in range(2, G.k):
        sets.extend(_sampled_sets(G.n, size, min(cfg.sampled_sets_per_size, comb(G.n, size))))
    return tuple(sets)


@dataclass
class GreedyTrajectory:
    """Per-step record of one run; index i means "after i steps"."""

    graph_digest: str
    seed: int
    stream: tuple[int, ...]
    config: TrajectoryConfig
    tracked_sets: tuple[tuple[int, ...], ...]
    chosen: np.ndarray
    step_logprob: np.ndarray
    residual_weight: np.ndarray
    residual_entropy: np.ndarray
    tracked_degrees: np.ndarray  # shape (steps+1, n_sets); NaN once the set loses a vertex
    stop_reason: str

    @property
    def steps(self) -> int:
        return int(self.chosen.size)


def _set_edges(G: Hypergraph, sets: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """(set, edge) pairs: each edge containing every vertex of each set of 2..k-1 vertices.

    A set's edges are the run of its code in the graph's subset codes.
    """
    owner: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    edges: list[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for size in sorted({len(S) for S in sets}):
        ids = [i for i, S in enumerate(sets) if len(S) == size]
        codes, edge_ids = G.subset_codes(size)
        keys = encode(np.array([sets[i] for i in ids]), G.n)
        lo, hi = np.searchsorted(codes, keys), np.searchsorted(codes, keys, "right")
        owner.append(np.repeat(ids, hi - lo))
        edges.extend(edge_ids[a:b] for a, b in zip(lo, hi))
    return np.concatenate(owner), np.concatenate(edges)


def run_greedy(
    G: Hypergraph,
    x: EdgeWeights,
    cfg: TrajectoryConfig,
    seed: int,
    stream: tuple[int, ...] = (),
) -> GreedyTrajectory:
    """Simulate the process; stream (seed, *stream) draws one uniform per step.

    The run reads the graph's edge rows and incidence arrays.  The alive
    weights are split into blocks of ``PICK_BLOCK`` edges with one sum each;
    a step draws r = u * total, finds the block by a cumulative sum over the
    block sums and the edge by a cumulative sum inside that block (the first edge
    whose running sum exceeds r, as ``searchsorted(side="right")`` over all
    edges), then deletes the incident edges of the picked edge's vertices.
    Work per step is the deleted edges and the tracked sets plus three O(m)
    passes: the recorded residual weight and entropy, summed over all edges
    as ``w.sum()`` and ``ent[alive].sum()`` so that their bits do not depend
    on the pick, and all block sums in one ``sum(axis=1)`` (a step touches
    about half the blocks, so re-summing only those costs more).  The picks
    equal those of a full cumulative sum over all edges unless r falls
    within rounding of an edge boundary; the per-step log-probabilities may
    differ from it in the last bits.
    Freezes when no positive weight survives.
    """
    check_alignment(G, x)
    if not x.verified:
        raise InvalidArgumentError("run_greedy requires a verified fractional perfect matching")
    n, k, m = G.n, G.k, G.num_edges
    rng = rng_from(seed, *stream)
    tracked = resolve_tracked_sets(G, cfg)
    edge_verts, indptr, incidence = G.edge_verts, G.indptr, G.incidence

    w = x.weights
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(w > 0, -w * np.log(np.where(w > 0, w, 1.0)), 0.0)
    n_blocks = -(-m // PICK_BLOCK)
    w_padded = np.zeros(n_blocks * PICK_BLOCK)
    w_padded[:m] = w
    w_alive = w_padded[:m]
    blocks = w_padded.reshape(n_blocks, PICK_BLOCK)
    alive_e = np.ones(m, dtype=bool)
    alive_v = np.ones(n, dtype=bool)

    # Singleton degrees (the first n tracked sets, in vertex order) are kept by
    # decrement; larger sets are counted at each record over their incident edges.
    deg_v = G.degrees.astype(float)
    members = np.array([v for S in tracked for v in S], dtype=np.intp)
    set_starts = np.cumsum([0] + [len(S) for S in tracked[:-1]], dtype=np.intp)
    owner, owned_edges = _set_edges(G, tracked[n:])

    max_steps = n // k
    if cfg.stop_fraction is not None:
        max_steps = min(max_steps, int(math.floor(cfg.stop_fraction * n / k + 1e-9)))

    chosen: list[int] = []
    logprobs: list[float] = []
    rows_w: list[float] = []
    rows_e: list[float] = []
    rows_deg: list[np.ndarray] = []

    def record() -> None:
        rows_w.append(float(w_alive.sum()))
        rows_e.append(float(ent[alive_e].sum()))
        degs = np.full(len(tracked), np.nan)
        if tracked:
            degs[:n] = deg_v
            degs[n:] = np.bincount(owner, weights=alive_e[owned_edges], minlength=len(tracked) - n)
            degs[~np.logical_and.reduceat(alive_v[members], set_starts)] = np.nan
        rows_deg.append(degs)

    record()
    stop_reason = STOP_FROZEN
    while len(chosen) < max_steps:
        block_cum = np.cumsum(blocks.sum(axis=1))
        total = float(block_cum[-1]) if n_blocks else 0.0
        if total <= 0.0:
            stop_reason = STOP_FROZEN
            break
        r = rng.random() * total
        block = int(np.searchsorted(block_cum, r, side="right"))
        pick = m
        if block < n_blocks:
            base = float(block_cum[block - 1]) if block else 0.0
            inner = np.cumsum(blocks[block])
            pick = block * PICK_BLOCK + int(np.searchsorted(inner, r - base, side="right"))
        while pick < m and (not alive_e[pick] or w[pick] <= 0.0):
            pick += 1
        if pick >= m:
            pick = int(np.nonzero(alive_e & (w > 0))[0][-1])
        logprobs.append(math.log(w[pick] / total))
        chosen.append(pick)
        verts = edge_verts[pick]
        deleted = []
        for v in verts:
            cand = incidence[indptr[v]: indptr[v + 1]]
            cand = cand[alive_e.take(cand)]
            alive_e[cand] = False
            deleted.append(cand)
        newly = np.concatenate(deleted)
        w_alive[newly] = 0.0
        deg_v -= np.bincount(edge_verts.take(newly, axis=0).ravel(), minlength=n)
        alive_v[verts] = False
        record()
    else:
        stop_reason = STOP_LIMIT if int(alive_e.sum()) and float(w_alive.sum()) > 0 else STOP_FROZEN

    return GreedyTrajectory(
        graph_digest=G.digest(),
        seed=seed,
        stream=tuple(stream),
        config=cfg,
        tracked_sets=tracked,
        chosen=np.array(chosen, dtype=np.intp),
        step_logprob=np.array(logprobs),
        residual_weight=np.array(rows_w),
        residual_entropy=np.array(rows_e),
        tracked_degrees=np.array(rows_deg),
        stop_reason=stop_reason,
    )


def centers(G: Hypergraph, x: EdgeWeights, i):
    """p(i) and the centers p(i)^k (n/k), p(i)^k h(x) after i steps.

    p(i) = (n/k - i)/(n/k); i is one step or an array of steps in
    [0, n/k].  A set S is anticipated to keep p(i)^{k-|S|} of its degree.
    These centers are leading order, with relative finite-size error about
    k(k-1)(1 - p(i)) / (2 p(i) n); on K_n^(k) the exact residuals are
    C(n-ki, k)/C(n, k) times the initial values (see module doc).
    """
    if np.any((i < 0) | (i > G.n // G.k)):
        raise InvalidArgumentError(f"step outside [0, {G.n // G.k}]: {i}")
    steps_total = G.n / G.k
    p = (steps_total - i) / steps_total
    return p, p**G.k * steps_total, p**G.k * x.entropy


def trajectory_deviation(
    traj: GreedyTrajectory,
    G: Hypergraph,
    x: EdgeWeights,
    horizon_fraction: Optional[float] = None,
) -> dict:
    """Relative deviations of a trajectory from its predicted centers.

    The summary maximises over steps i <= horizon, where the horizon is
    ``horizon_fraction`` n/k and defaults to the concentration range
    (1 - n^{-c}) n/k.  Degree deviations are measured only while the
    tracked set is fully alive.  The centers are the leading-order ones of
    ``centers``, so even an exact run deviates by their finite-size error,
    about k(k-1)(1 - p(i)) / (2 p(i) n).  Keys: ``reached_horizon``,
    ``ran_to`` (steps run), ``stop_reason`` and the largest relative
    deviation of the weight, the entropy and the tracked degrees,
    ``max_weight_deviation``, ``max_entropy_deviation`` and
    ``max_degree_deviation``.
    """
    check_alignment(G, x)
    if traj.graph_digest != G.digest():
        raise InvalidArgumentError("trajectory was recorded on a different graph")
    n, k = G.n, G.k
    horizon = (
        (1.0 - float(n) ** (-traj.config.c)) * n / k
        if horizon_fraction is None
        else horizon_fraction * (n / k)
    )
    i_max = min(traj.steps, int(math.floor(horizon + 1e-9)))
    p, pred_w, pred_e = centers(G, x, np.arange(i_max + 1))
    obs_w = traj.residual_weight[: i_max + 1]
    obs_e = traj.residual_entropy[: i_max + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_w = np.where(pred_w > 0, np.abs(obs_w - pred_w) / pred_w, np.inf)
        dev_e = np.where(pred_e > 0, np.abs(obs_e - pred_e) / pred_e, np.inf)
    sizes = np.array([len(S) for S in traj.tracked_sets], dtype=np.intp)
    # Row 0 is recorded before any deletion, so it holds the degrees in G.
    deg0 = traj.tracked_degrees[0]
    # One power per set size, taken exactly as the scalar formula p**(k - |S|).
    pred_d = np.empty((i_max + 1, sizes.size))
    for size in sorted(set(sizes.tolist())):
        pred_d[:, sizes == size] = (p ** (k - size))[:, None]
    pred_d *= deg0
    obs_d = traj.tracked_degrees[: i_max + 1]
    ok = ~np.isnan(obs_d) & (pred_d > 0)
    return {
        "reached_horizon": bool(traj.steps >= math.floor(horizon)),
        "ran_to": traj.steps,
        "stop_reason": traj.stop_reason,
        "max_weight_deviation": float(dev_w.max()) if dev_w.size else 0.0,
        "max_entropy_deviation": float(dev_e.max()) if dev_e.size else 0.0,
        "max_degree_deviation": (
            float(np.max(np.abs(obs_d[ok] - pred_d[ok]) / pred_d[ok])) if ok.any() else 0.0
        ),
    }


# ---------------------------------------------------------------------------
# Trajectory CSV + metadata sidecar
# ---------------------------------------------------------------------------


def write_trajectory_csv(
    path: str,
    traj: GreedyTrajectory,
    G: Hypergraph,
    x: EdgeWeights,
    header_comments: Sequence[str] = (),
) -> None:
    """Columns: i, chosen_edge, residual/predicted weight and entropy, then
    one degree column per tracked set id."""
    with _text_file(path, header_comments) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["i", "chosen_edge", "residual_weight", "predicted_weight",
             "residual_entropy", "predicted_entropy"]
            + [f"deg_S{idx}" for idx in range(len(traj.tracked_sets))]
        )
        for i in range(traj.steps + 1):
            _, pred_w, pred_e = centers(G, x, i)
            degs = [
                "nan" if np.isnan(d) else repr(float(d)) for d in traj.tracked_degrees[i]
            ]
            writer.writerow(
                [
                    i,
                    "" if i == 0 else int(traj.chosen[i - 1]),
                    repr(float(traj.residual_weight[i])),
                    repr(pred_w),
                    repr(float(traj.residual_entropy[i])),
                    repr(pred_e),
                ]
                + degs
            )


def trajectory_metadata(traj: GreedyTrajectory) -> dict:
    """The JSON sidecar of a trajectory: graph digest, seed, stream, config,
    tracked sets, steps and stop reason."""
    return {
        "graph_digest": traj.graph_digest,
        "seed": traj.seed,
        "stream": list(traj.stream),
        # The last three keys record the fixed tracking policy, so that
        # trajectory metadata keeps its layout.
        "config": {**asdict(traj.config), "track_singletons": True, "tracking_seed": 0, "tracked_sets": None},
        "tracked_sets": [list(s) for s in traj.tracked_sets],
        "steps": traj.steps,
        "stop_reason": traj.stop_reason,
    }
