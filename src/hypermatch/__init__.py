"""Perfect-matching entropy toolkit for dense uniform hypergraphs.

Modules: hypergraph (representation, degrees, generators, I/O), entropy
(fractional matchings and the max-entropy solver), shifting (weight
shifting and anneal-and-shift), greedy (the guided random greedy process),
counting (exact DP oracle), bipartite (lift and entropy lower bounds),
cli (experiment harness) and acceptance (the verification suite), with
seeds (the random streams) and errors (the exception types) beneath them.

The package re-exports nothing: import each name from its module, as in
``from hypermatch.hypergraph import Hypergraph``.
"""

__version__ = "0.1.0"
