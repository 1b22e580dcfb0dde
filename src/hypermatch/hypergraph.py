"""k-uniform hypergraphs: representation, degrees, Dirac diagnostics, I/O.

Vertices are dense 0-based integers.  Edges are k-sets stored as ascending
rows; the position of an edge in the edge list is its id, and every weight
vector in the package is aligned with that order.  All types here are
immutable after construction.

Vertex sets are looked up by their codes alone: a set's ascending vertices
read as a base-n integer, smallest vertex most significant, so code order is
lexicographic order.  A ``Hypergraph`` holds its edge rows and incidence
arrays and encodes every subset of its edges' columns in one place; minimum
d-degrees, the bipartite lift, the greedy process's tracked sets and the
shifting search all read those codes.  A graph whose k-set codes overflow
int64 (n^k >= 2^63) is refused with ResourceLimitError.

The ``.khg`` text format: first non-comment line is ``k n``, then one edge
per line as k ascending vertex ids; ``#`` starts a comment, blank lines are
ignored.  Edge order in the file defines the edge ids.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, isfinite
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    GenerationError,
    InvalidArgumentError,
    ParseError,
    ResourceLimitError,
    is_int,
    is_real,
)
from .seeds import rng_from

# min_d_degree and the subset codes read the codes of all d-subsets of all
# edges, m C(k, d) of them; no more than this budget of them is built.
DEFAULT_DEGREE_WORK_LIMIT = 10**8


def encode(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row of ascending vertex ids as one base-n int64 code.

    The first column is the most significant digit, so code order is the
    lexicographic order of the rows.
    """
    code = rows[:, 0].astype(np.int64)
    for col in range(1, rows.shape[1]):
        code = code * n + rows[:, col]
    return code


def group(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of integer keys in [0, size), grouped by key.

    ``order[indptr[j]:indptr[j + 1]]`` lists the positions holding key j in
    ascending order: a stable argsort of the keys in their narrowest unsigned
    dtype (a radix sort on 8 or 16 bits), with ``bincount`` offsets.
    """
    order = np.argsort(keys.astype(np.min_scalar_type(max(size - 1, 0))), kind="stable")
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=indptr[1:])
    return indptr, order


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _ascending(rows: np.ndarray) -> bool:
    """Whether every row is strictly ascending, compared one column pair at a time."""
    return all((rows[:, j] < rows[:, j + 1]).all() for j in range(rows.shape[1] - 1))


def _first_bad_edge(k: int, n: int, edges: Sequence) -> Optional[tuple[int, str]]:
    """(position, message) of the first edge that is not a set of k distinct integer (not bool)
    vertices, has a vertex outside [0, n) or repeats an earlier edge; None if all are good."""
    seen: set[tuple[int, ...]] = set()
    for pos, given in enumerate(edges):
        try:
            if any(isinstance(v, bool) for v in given):
                raise TypeError
            e = tuple(sorted(map(operator.index, given)))
        except TypeError:
            shown = tuple(given) if isinstance(given, Iterable) else given
            return pos, f"edge {shown} is not a set of {k} integer vertices"
        if len(e) != k or len(set(e)) != k:
            return pos, f"edge {tuple(given)} is not a set of {k} distinct vertices"
        if e[0] < 0 or e[-1] >= n:
            return pos, f"edge {e} has a vertex outside [0, {n})"
        if e in seen:
            return pos, f"duplicate edge {e}"
        seen.add(e)
    return None


def _edge_rows(k: int, n: int, edges) -> np.ndarray:
    """The edges as ascending int64 rows.  An integer array of good edges, or a list that
    ``np.asarray`` makes one and that holds no bool, is checked vectorised; other input,
    or a bad edge, edge by edge as given: the first bad one raises."""
    raw = None
    if not isinstance(edges, np.ndarray):
        raw = list(edges)
        with suppress(ValueError):  # np.asarray refuses a ragged list
            rows = np.asarray(raw)
            # np.asarray reads a bool as 0 or 1, so the types are scanned for one
            if rows.ndim == 2 and rows.dtype.kind in "iu" and {bool, np.bool_}.isdisjoint(
                    map(type, itertools.chain.from_iterable(raw))):
                edges = rows
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == k and edges.dtype.kind in "iu":
        rows = edges.astype(np.int64)
        if not _ascending(rows):
            rows.sort(axis=1)
        if not rows.size or (_ascending(rows) and rows.min() >= 0 and rows.max() < n):
            # Ascending codes (every generator, every sorted .khg) need no sort to be distinct.
            codes = encode(rows, n)
            if (np.diff(codes) > 0).all() or (np.diff(np.sort(codes)) > 0).all():
                return rows
    raw = edges.tolist() if raw is None else raw
    bad = _first_bad_edge(k, n, raw)
    if bad is not None:
        raise InvalidArgumentError(bad[1])
    return np.array([sorted(map(operator.index, e)) for e in raw], dtype=np.int64).reshape(len(raw), k)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1, with read-only numpy arrays.

    ``incidence[indptr[v]:indptr[v + 1]]`` lists the ids of the edges at
    vertex v in ascending order, the edge rows grouped by ``group``.  The subset codes of
    each size (encoded once, sorted once), the vertex links and the digest are built on
    first use and kept read-only in one cache, which only ``_kept`` writes.
    """

    k: int
    n: int
    edge_verts: np.ndarray = field(repr=False)  # (m, k): row i holds the ascending vertices of edge i
    indptr: np.ndarray = field(repr=False)  # (n + 1,): CSR offsets into ``incidence``
    incidence: np.ndarray = field(repr=False)  # (m k,): edge ids grouped by vertex
    degrees: np.ndarray = field(repr=False)  # (n,): number of edges at each vertex
    _cache: dict = field(repr=False)

    def __init__(self, k: int, n: int, edges: Iterable[Sequence[int]]):
        if not (is_int(k) and is_int(n)):
            raise InvalidArgumentError(f"uniformity k and vertex count n must be integers, got {k!r}, {n!r}")
        k, n = int(k), int(n)
        if k < 2:
            raise InvalidArgumentError(f"uniformity k must be >= 2, got {k}")
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be nonnegative, got {n}")
        if n >= 2 and (k >= 63 or n**k >= 2**63):
            raise ResourceLimitError(f"codes of {k}-sets of {n} vertices overflow int64 (n^k >= 2^63)")
        rows = _edge_rows(k, n, edges)
        indptr, order = group(rows.ravel(), n)
        incidence, degrees = order // k, np.diff(indptr)
        _frozen(rows, indptr, incidence, degrees)
        # The dataclass is frozen, so the fields go straight into the instance dict.
        vars(self).update(k=k, n=n, edge_verts=rows, indptr=indptr, incidence=incidence,
                          degrees=degrees, _cache={})

    @property
    def num_edges(self) -> int:
        return self.edge_verts.shape[0]

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges in id order, as ascending tuples."""
        return tuple(zip(*self.edge_verts.T.tolist()))

    def incident(self, v: int) -> tuple[int, ...]:
        """Ids of the edges containing vertex v."""
        if not 0 <= v < self.n:
            raise InvalidArgumentError(f"vertex {v} outside [0, {self.n})")
        return tuple(self.incidence[self.indptr[v]: self.indptr[v + 1]].tolist())

    def canonical_text(self) -> str:
        """``k n`` and then one line of space-separated decimal vertex ids per edge.

        Each vertex slot gathers one NUL-padded ``V`` token (numpy gathers raw bytes
        faster than ``S`` strings): its digits and a space, or a newline in the
        last column.  The padding is dropped.
        """
        width = len(str(max(self.n - 1, 0)))
        table = [(f"{v} ", f"{v}\n") for v in range(self.n)]
        tokens = np.array(table, dtype=f"S{width + 1}").reshape(self.n, 2).view(f"V{width + 1}")
        body = tokens[self.edge_verts, [0] * (self.k - 1) + [1]].view(np.uint8).ravel()
        return f"{self.k} {self.n}\n" + body[body != 0].tobytes().decode()

    def _kept(self, key, build):
        """The value cached under key, from build() on first use; the one writer of the cache."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def digest(self) -> str:
        """SHA-256 of the canonical text; identifies graph content and edge order."""
        return self._kept("digest", lambda: hashlib.sha256(self.canonical_text().encode()).hexdigest())

    def subset_codes(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the d-subsets of all edges, ascending, with their edge ids.

        m C(k, d) entries; a d-set's code repeats once per edge containing it.
        A stable argsort of ``_subset_codes(d)``, built on first use per d and cached.
        """
        codes = self._subset_codes(d)
        return self._kept(("sorted", d), lambda: _frozen(
            codes[(order := np.argsort(codes, kind="stable"))], order % max(1, self.num_edges)))

    def _subset_codes(self, d: int) -> np.ndarray:
        """The codes of the d-subsets of all edges, one block of m per column choice in
        ``itertools.combinations(range(k), d)`` order, encoded once per d and cached, for an
        integer 1 <= d <= k (d = k codes the edges); raises ResourceLimitError when m C(k, d)
        exceeds DEFAULT_DEGREE_WORK_LIMIT."""
        if not is_int(d) or not 1 <= d <= self.k:
            raise InvalidArgumentError(f"subset size d={d!r} is not an integer in [1, {self.k}]")
        work = self.num_edges * comb(self.k, d)
        if work > DEFAULT_DEGREE_WORK_LIMIT:
            raise ResourceLimitError(
                f"{work:.2e} codes of {d}-subsets of edges exceed the work limit "
                f"{DEFAULT_DEGREE_WORK_LIMIT:.0e}"
            )
        cols = itertools.combinations(range(self.k), d)
        return self._kept(("codes", d), lambda: _frozen(
            np.concatenate([encode(self.edge_verts[:, list(c)], self.n) for c in cols]))[0])

    def split_codes(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """(part, rest), each (m, C(k, d)), for 1 <= d <= k - 1: ``part[e, j]`` is the code of
        edge e's j-th choice of d columns, in ``itertools.combinations`` order, and
        ``rest[e, j]`` the code of its other k - d vertices.  Read-only views of the cached codes."""
        if not is_int(d) or not 1 <= d <= self.k - 1:
            raise InvalidArgumentError(f"split size d={d!r} is not an integer in [1, {self.k - 1}]")
        splits = (comb(self.k, d), self.num_edges)
        return self._subset_codes(d).reshape(splits).T, self._subset_codes(self.k - d).reshape(splits)[::-1].T

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Every vertex's link: the (k-1)-sets U for which U + {v} is an edge.

        ``codes[indptr[v]:indptr[v + 1]]`` are the codes of v's link sets in
        ascending order and the same slice of ``ids`` the ids of the edges
        U + {v}.  Built on first use and cached.  Each slot of ``edge_verts`` is paired
        with the code of its edge's other k - 1 vertices (``split_codes(1)``'s rest), so
        graphs with more than DEFAULT_DEGREE_WORK_LIMIT / k edges raise ResourceLimitError.
        """

        def build():
            # Block j of the (k-1)-subset codes leaves out column k-1-j.
            without = self._subset_codes(self.k - 1).reshape(self.k, self.num_edges)[::-1].T.ravel()
            order = np.lexsort((without, self.edge_verts.ravel()))
            return _frozen(without[order], order // self.k)

        return self._kept("links", build)


@dataclass(frozen=True)
class DiracParams:
    """The minimum-degree condition delta_d >= (alpha_d(k) + gamma) C(n-d, k-d): degree
    order d, slack gamma and the table of alpha_d(k), the built-in one when None."""

    d: int
    gamma: float
    alpha: Optional[AlphaTable] = None

    def __post_init__(self):
        if not is_int(self.d) or self.d < 1:
            raise InvalidArgumentError(f"degree order d must be >= 1 and an integer, got {self.d!r}")
        if not (is_real(self.gamma) and self.gamma > 0 and isfinite(self.gamma)):
            raise InvalidArgumentError(f"gamma must be positive and finite, got {self.gamma}")

    def validate_for(self, k: int) -> None:
        if not 1 <= self.d <= k - 1:
            raise InvalidArgumentError(f"d={self.d} outside [1, {k - 1}] for k={k}")

    def threshold(self, n: int, k: int) -> float:
        """(alpha_d(k) + gamma) C(n-d, k-d), 0 for n < d: the least delta_d of a
        (d, gamma)-Dirac k-graph on n vertices, alpha_d(k) from this condition's table."""
        self.validate_for(k)
        a = (self.alpha or AlphaTable()).lookup(self.d, k)
        return (float(a) + self.gamma) * comb(max(n - self.d, 0), k - self.d)


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
        """Load overrides from JSON: {"entries": [{"d":, "k":, "alpha": "p/q"}]}.

        Raises ConfigError naming the file when it does not hold that shape.
        """
        import json

        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            entries = {}
            for item in data.get("entries", []):
                if type(item["d"]) is not int or type(item["k"]) is not int:
                    raise TypeError(f"d and k must be JSON integers in {item!r}")
                entries[(item["d"], item["k"])] = Fraction(str(item["alpha"]))
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(
                f"alpha table {path} is malformed: {type(exc).__name__}: {exc}"
            ) from None
        return cls(entries)


def min_d_degree(G: Hypergraph, d: int) -> int:
    """Minimum over all d-sets S of the number of edges containing S, from the
    d-subset codes of all edges.

    Zero when some d-set is in no edge, else the shortest run in a sort of the cached codes.
    """
    if not 0 <= d <= G.k - 1:
        raise InvalidArgumentError(f"d={d} outside [0, {G.k - 1}]")
    if d == 0:
        return G.num_edges
    codes = np.sort(G._subset_codes(d))
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    if starts.size < comb(G.n, d) or not starts.size:
        return 0
    return int(np.diff(starts, append=codes.size).min())


def degree_ratio_profile(G: Hypergraph) -> list[Fraction]:
    """(delta_0/C(n,k), delta_1/C(n-1,k-1), ..., delta_{k-1}/C(n-k+1,1)).

    Double counting makes this list nonincreasing for every hypergraph.
    """
    out = []
    for d in range(G.k):
        denom = comb(G.n - d, G.k - d)
        out.append(Fraction(min_d_degree(G, d), denom) if denom else Fraction(0))
    return out


def is_dirac(G: Hypergraph, params: DiracParams) -> bool:
    """True iff k | n and delta_d(G) >= (alpha_d(k) + gamma) * C(n-d, k-d), alpha_d(k)
    from the table ``params`` carries."""
    threshold = params.threshold(G.n, G.k)
    return G.n % G.k == 0 and min_d_degree(G, params.d) >= threshold


def all_subsets(n: int, size: int) -> np.ndarray:
    """Every size-subset of [n] as an ascending int64 row, in lexicographic order.

    Built a column at a time: a row ending at vertex l repeats once for each
    vertex that can follow l, in ascending order.  Raises ResourceLimitError,
    promptly for any n, when C(n, size) > DEFAULT_DEGREE_WORK_LIMIT.
    """
    if size < 0:
        raise InvalidArgumentError(f"subset size must be >= 0, got {size}")
    count = 1
    for i in range(min(size, n - size)):
        count = count * (n - i) // (i + 1)  # C(n, i + 1)
        if count > DEFAULT_DEGREE_WORK_LIMIT:
            raise ResourceLimitError(f"C({n}, {size}) subsets exceed the work limit {DEFAULT_DEGREE_WORK_LIMIT:.0e}")
    rows, last = np.zeros((1, 0), dtype=np.int64), np.full(1, -1, dtype=np.int64)
    for col in range(size):
        counts = np.maximum(n - size + col - last, 0)  # the vertices that can fill column col
        # Each row's block counts up from its last + 1: arange minus the block's cumsum offset.
        last = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        rows = np.column_stack((np.repeat(rows, counts, axis=0), last))
    return rows


def gen_complete(n: int, k: int) -> Hypergraph:
    """Complete k-uniform hypergraph on n vertices."""
    if not 2 <= k <= n:
        raise InvalidArgumentError(f"need 2 <= k <= n, got k={k}, n={n}")
    return Hypergraph(k, n, all_subsets(n, k))


def gen_random_dirac(
    n: int, k: int, params: DiracParams, density: float, seed: int, max_attempts: int = 64
) -> Hypergraph:
    """Random k-graph meeting the minimum-degree condition ``params``, its alpha table included.

    Attempt a uses stream (seed, a) and draws one uniform per k-set in
    lexicographic order, keeping the set when the draw is below ``density``;
    attempts repeat until ``is_dirac`` holds.  Pure function of its
    arguments, so a fixed seed reproduces the instance bit for bit.
    """
    params.validate_for(k)
    if n % k != 0:
        raise InvalidArgumentError(f"k={k} must divide n={n}")
    needed = params.threshold(n, k)
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError(f"density {density} outside (0, 1]")
    # Densities at or below alpha+gamma cannot sustain the degree condition;
    # the attempt loop still runs so the failure reports the achieved degree.
    all_sets = all_subsets(n, k)
    best_delta = -1
    for attempt in range(max_attempts):
        draws = rng_from(seed, attempt).random(len(all_sets))
        G = Hypergraph(k, n, all_sets[draws < density])
        delta = min_d_degree(G, params.d)
        best_delta = max(best_delta, delta)
        if delta >= needed:
            return G
    raise GenerationError(
        f"no (d={params.d}, gamma={params.gamma}) instance at density {density} "
        f"within {max_attempts} attempts; best delta_{params.d} = {best_delta} "
        f"(needed {needed:.2f})"
    )


@contextmanager
def _text_file(path: str, comments: Sequence[str]) -> Iterator[TextIO]:
    """A new UTF-8 text file at path, written without newline translation, that
    starts with one ``# c`` line per comment c; closed when the block exits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        yield fh


def write_hypergraph(G: Hypergraph, path: str, header_comments: Sequence[str] = ()) -> None:
    with _text_file(path, header_comments) as fh:
        fh.write(G.canonical_text())


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of a UTF-8 text file, counting from 1.

    Raises ParseError, without a line number, when the file is not UTF-8.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise ParseError("not UTF-8 text", path) from None


def read_hypergraph(path: str) -> Hypergraph:
    """Parse a .khg file; raises ParseError with the line number of the first bad line."""
    k = n = None
    edges, lines, error = [], [], None  # error: (message, line) of a line breaking the format's own rules
    for lineno, raw in _text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            error = ("non-integer token", lineno)
            break
        if k is None:
            if len(values) != 2:
                raise ParseError("header must be 'k n'", path, lineno)
            k, n = values
            if k < 2 or n < 0:
                raise ParseError(f"invalid header k={k} n={n}", path, lineno)
            continue
        if any(a >= b for a, b in zip(values, values[1:])):
            error = ("edge vertices must be strictly ascending", lineno)
            break
        edges.append(values)
        lines.append(lineno)
    bad = _first_bad_edge(k, n, edges)
    if bad is not None:
        raise ParseError(bad[1], path, lines[bad[0]])
    if error is not None:
        raise ParseError(error[0], path, error[1])
    if k is None:
        raise ParseError("empty file", path, 0)
    return Hypergraph(k, n, np.array(edges, dtype=np.int64).reshape(len(edges), k))
