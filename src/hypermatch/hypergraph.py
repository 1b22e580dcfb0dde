"""k-uniform hypergraphs: representation, degrees, Dirac diagnostics, I/O.

Vertices are dense 0-based integers.  Edges are k-sets stored as ascending
tuples; the position of an edge in the edge list is its id, and every
weight vector in the package is aligned with that order.  All types here
are immutable after construction.

The ``.khg`` text format: first non-comment line is ``k n``, then one edge
per line as k ascending vertex ids; ``#`` starts a comment, blank lines are
ignored.  Edge order in the file defines the edge ids.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    GenerationError,
    InvalidArgumentError,
    ParseError,
    ResourceLimitError,
)
from .seeds import rng_from

# Enumerating all C(n, d) subsets in min_d_degree is guarded by this budget
# (estimated subset-edge checks).
DEFAULT_DEGREE_WORK_LIMIT = 10**8


@dataclass(frozen=True)
class GraphIndex:
    """Read-only numpy arrays of a hypergraph's incidence structure.

    ``incidence[indptr[v]:indptr[v + 1]]`` lists the ids of the edges at
    vertex v in ascending order, the same as ``Hypergraph.incident(v)``.
    """

    edge_verts: np.ndarray  # (m, k): row i holds the vertices of edge i
    indptr: np.ndarray  # (n + 1,): CSR offsets into ``incidence``
    incidence: np.ndarray  # (m k,): edge ids grouped by vertex
    degrees: np.ndarray  # (n,): number of edges at each vertex


@dataclass(frozen=True)
class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1."""

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]
    _incidence: tuple[tuple[int, ...], ...] = field(repr=False, compare=False, default=())
    _edge_ids: Mapping[tuple[int, ...], int] = field(repr=False, compare=False, default=None)

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        if k < 2:
            raise InvalidArgumentError(f"uniformity k must be >= 2, got {k}")
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be nonnegative, got {n}")
        canon: list[tuple[int, ...]] = []
        seen: dict[tuple[int, ...], int] = {}
        for raw in edges:
            e = tuple(sorted(int(v) for v in raw))
            if len(e) != k or len(set(e)) != k:
                raise InvalidArgumentError(f"edge {tuple(raw)} is not a set of {k} distinct vertices")
            if e[0] < 0 or e[-1] >= n:
                raise InvalidArgumentError(f"edge {e} has a vertex outside [0, {n})")
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen[e] = len(canon)
            canon.append(e)
        inc: list[list[int]] = [[] for _ in range(n)]
        for i, e in enumerate(canon):
            for v in e:
                inc[v].append(i)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_incidence", tuple(tuple(ids) for ids in inc))
        object.__setattr__(self, "_edge_ids", seen)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        """Ids of the edges containing vertex v."""
        if not 0 <= v < self.n:
            raise InvalidArgumentError(f"vertex {v} outside [0, {self.n})")
        return self._incidence[v]

    def edge_id(self, vertices: Iterable[int]) -> Optional[int]:
        """Edge id of the given vertex set, or None if absent."""
        return self._edge_ids.get(tuple(sorted(int(v) for v in vertices)))

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return self.edge_id(vertices) is not None

    def canonical_text(self) -> str:
        lines = [f"{self.k} {self.n}"]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """SHA-256 of the canonical text; identifies graph content and edge order."""
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = hashlib.sha256(self.canonical_text().encode()).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def index(self) -> GraphIndex:
        """The numpy incidence index, built on first use and cached."""
        cached = getattr(self, "_index", None)
        if cached is None:
            m, k = self.num_edges, self.k
            flat = np.fromiter(
                itertools.chain.from_iterable(self.edges), dtype=np.intp, count=m * k
            )
            # A stable sort keeps each vertex's edge ids in ascending order.
            incidence = np.argsort(flat, kind="stable") // k
            degrees = np.bincount(flat, minlength=self.n)
            indptr = np.zeros(self.n + 1, dtype=np.intp)
            np.cumsum(degrees, out=indptr[1:])
            cached = GraphIndex(flat.reshape(m, k), indptr, incidence, degrees)
            for arr in (cached.edge_verts, indptr, incidence, degrees):
                arr.flags.writeable = False
            object.__setattr__(self, "_index", cached)
        return cached


@dataclass(frozen=True)
class DiracParams:
    """Degree order d and slack gamma of a minimum-degree condition."""

    d: int
    gamma: float

    def __post_init__(self):
        if self.d < 1:
            raise InvalidArgumentError(f"degree order d must be >= 1, got {self.d}")
        if not self.gamma > 0:
            raise InvalidArgumentError(f"gamma must be positive, got {self.gamma}")

    def validate_for(self, k: int) -> None:
        if not 1 <= self.d <= k - 1:
            raise InvalidArgumentError(f"d={self.d} outside [1, {k - 1}] for k={k}")


class AlphaTable:
    """Asymptotic degree thresholds alpha_d(k), as exact rationals.

    Built-in entries cover the settled cases: alpha_{k-1}(k) = 1/2,
    alpha_d(k) = 1/2 for d >= 3k/8, and alpha_1(3) = 5/9 (the vertex-degree
    threshold for 3-graphs).  Everything else is configuration: looking up
    an unknown (d, k) raises ConfigError rather than guessing.

    Explicit entries must lie in [1/2, 1] and be nonincreasing in d for
    fixed k: a d-degree bound pushes down to all lower orders, so smaller d
    can only demand a larger fraction.
    """

    def __init__(self, entries: Optional[Mapping[tuple[int, int], Fraction]] = None):
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (d, k), value in sorted(entries.items()):
                self._add(d, k, Fraction(value))

    def _add(self, d: int, k: int, value: Fraction) -> None:
        if not 1 <= d <= k - 1:
            raise ConfigError(f"alpha entry has d={d} outside [1, {k - 1}] for k={k}")
        if not Fraction(1, 2) <= value <= 1:
            raise ConfigError(f"alpha_{d}({k}) = {value} outside [1/2, 1]")
        for (d2, k2), v2 in self.entries.items():
            if k2 == k and ((d2 < d and v2 < value) or (d2 > d and v2 > value)):
                raise ConfigError(
                    f"alpha entries for k={k} must be nonincreasing in d: "
                    f"alpha_{d2}={v2} vs alpha_{d}={value}"
                )
        self.entries[(d, k)] = value

    @staticmethod
    def _builtin(d: int, k: int) -> Optional[Fraction]:
        if d == k - 1 or 8 * d >= 3 * k:
            return Fraction(1, 2)
        if (d, k) == (1, 3):
            return Fraction(5, 9)
        return None

    def lookup(self, d: int, k: int) -> Fraction:
        if (d, k) in self.entries:
            return self.entries[(d, k)]
        value = self._builtin(d, k)
        if value is None:
            raise ConfigError(
                f"alpha_{d}({k}) is not a built-in value; supply it via an alpha table"
            )
        return value

    @classmethod
    def from_file(cls, path: str) -> "AlphaTable":
        """Load overrides from JSON: {"entries": [{"d":, "k":, "alpha": "p/q"}]}."""
        import json

        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries: dict[tuple[int, int], Fraction] = {}
        for item in data.get("entries", []):
            entries[(int(item["d"]), int(item["k"]))] = Fraction(str(item["alpha"]))
        return cls(entries)


def degree(G: Hypergraph, S: Iterable[int]) -> int:
    """Number of edges containing every vertex of S; degree(G, {}) = |E|."""
    vs = sorted(set(int(v) for v in S))
    if len(vs) >= G.k:
        raise InvalidArgumentError(f"|S|={len(vs)} must be < k={G.k}")
    for v in vs:
        if not 0 <= v < G.n:
            raise InvalidArgumentError(f"vertex {v} outside [0, {G.n})")
    if not vs:
        return G.num_edges
    ids = set(G.incident(vs[0]))
    for v in vs[1:]:
        ids.intersection_update(G.incident(v))
        if not ids:
            return 0
    return len(ids)


def min_d_degree(G: Hypergraph, d: int, work_limit: int = DEFAULT_DEGREE_WORK_LIMIT) -> int:
    """Minimum of degree(G, S) over all d-sets S (exhaustive)."""
    if not 0 <= d <= G.k - 1:
        raise InvalidArgumentError(f"d={d} outside [0, {G.k - 1}]")
    if d == 0:
        return G.num_edges
    work = comb(G.n, d) * max(1, G.num_edges)
    if work > work_limit:
        raise ResourceLimitError(
            f"min_d_degree would need ~{work:.2e} subset-edge checks (limit {work_limit:.0e})"
        )
    best = G.num_edges
    for S in itertools.combinations(range(G.n), d):
        best = min(best, degree(G, S))
        if best == 0:
            break
    return best


def degree_ratio_profile(G: Hypergraph) -> list[Fraction]:
    """(delta_0/C(n,k), delta_1/C(n-1,k-1), ..., delta_{k-1}/C(n-k+1,1)).

    Double counting makes this list nonincreasing for every hypergraph.
    """
    out = []
    for d in range(G.k):
        denom = comb(G.n - d, G.k - d)
        out.append(Fraction(min_d_degree(G, d), denom) if denom else Fraction(0))
    return out


def is_dirac(G: Hypergraph, params: DiracParams, alpha: Optional[AlphaTable] = None) -> bool:
    """True iff k | n and delta_d(G) >= (alpha_d(k) + gamma) * C(n-d, k-d)."""
    params.validate_for(G.k)
    table = alpha if alpha is not None else AlphaTable()
    a = table.lookup(params.d, G.k)
    if G.n % G.k != 0:
        return False
    threshold = (float(a) + params.gamma) * comb(G.n - params.d, G.k - params.d)
    return min_d_degree(G, params.d) >= threshold


def gen_complete(n: int, k: int) -> Hypergraph:
    """Complete k-uniform hypergraph on n vertices."""
    if not 2 <= k <= n:
        raise InvalidArgumentError(f"need 2 <= k <= n, got k={k}, n={n}")
    return Hypergraph(k, n, itertools.combinations(range(n), k))


def gen_random_dirac(
    n: int,
    k: int,
    params: DiracParams,
    density: float,
    seed: int,
    alpha: Optional[AlphaTable] = None,
    max_attempts: int = 64,
) -> Hypergraph:
    """Random k-graph meeting the (d, gamma) minimum-degree condition.

    Attempt a uses stream (seed, a) and draws one uniform per k-set in
    lexicographic order, keeping the set when the draw is below ``density``;
    attempts repeat until ``is_dirac`` holds.  Pure function of its
    arguments, so a fixed seed reproduces the instance bit for bit.
    """
    params.validate_for(k)
    if n % k != 0:
        raise InvalidArgumentError(f"k={k} must divide n={n}")
    table = alpha if alpha is not None else AlphaTable()
    a = float(table.lookup(params.d, k))
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError(f"density {density} outside (0, 1]")
    # Densities at or below alpha+gamma cannot sustain the degree condition;
    # the attempt loop still runs so the failure reports the achieved degree.
    all_sets = list(itertools.combinations(range(n), k))
    best_delta = -1
    for attempt in range(max_attempts):
        if density >= 1.0:
            G = Hypergraph(k, n, all_sets)
        else:
            draws = rng_from(seed, attempt).random(len(all_sets))
            G = Hypergraph(k, n, [e for e, u in zip(all_sets, draws) if u < density])
        delta = min_d_degree(G, params.d)
        best_delta = max(best_delta, delta)
        if delta >= (a + params.gamma) * comb(n - params.d, k - params.d):
            return G
    raise GenerationError(
        f"no (d={params.d}, gamma={params.gamma}) instance at density {density} "
        f"within {max_attempts} attempts; best delta_{params.d} = {best_delta} "
        f"(needed {(a + params.gamma) * comb(n - params.d, k - params.d):.2f})"
    )


def write_hypergraph(G: Hypergraph, path: str, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments:
            fh.write(f"# {comment}\n")
        fh.write(G.canonical_text())


def read_hypergraph(path: str) -> Hypergraph:
    """Parse a .khg file; raises ParseError with the offending line number."""
    k = n = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values = [int(tok) for tok in line.split()]
            except ValueError:
                raise ParseError("non-integer token", path, lineno)
            if k is None:
                if len(values) != 2:
                    raise ParseError("header must be 'k n'", path, lineno)
                k, n = values
                if k < 2 or n < 0:
                    raise ParseError(f"invalid header k={k} n={n}", path, lineno)
                continue
            if len(values) != k:
                raise ParseError(f"edge has {len(values)} vertices, expected {k}", path, lineno)
            if any(values[i] >= values[i + 1] for i in range(k - 1)):
                raise ParseError("edge vertices must be strictly ascending", path, lineno)
            if values[0] < 0 or values[-1] >= n:
                raise ParseError(f"vertex outside [0, {n})", path, lineno)
            e = tuple(values)
            if e in seen:
                raise ParseError(f"duplicate edge {e}", path, lineno)
            seen.add(e)
            edges.append(e)
    if k is None:
        raise ParseError("empty file", path, 0)
    return Hypergraph(k, n, edges)
