"""Perfect-matching entropy toolkit for dense uniform hypergraphs.

Modules: hypergraph (representation, degrees, generators, I/O), entropy
(fractional matchings and the max-entropy solver), shifting (weight
shifting and anneal-and-shift), greedy (the guided random greedy process),
counting (exact DP oracle), bipartite (lift and entropy lower bounds),
cli (experiment harness) and acceptance (the verification suite).
"""

from .bipartite import (
    BipartiteLift,
    bipartite_max_entropy,
    certify_entropy_lower_bound,
    entropy_lower_bound,
    lift,
    pull_back,
    matching_count_bound_report,
)
from .counting import (
    MatchingCount,
    PMOracle,
    count_pm,
    entropy_identities_check,
    phi_complete,
    sample_uniform_pms,
    verify_count_vs_entropy,
)
from .entropy import (
    EdgeWeights,
    as_verified,
    convex_combine,
    jensen_bounds,
    max_entropy_fpm,
    read_weights,
    weight_entropy,
    well_distributed_factor,
    write_weights,
)
from .errors import (
    ConfigError,
    GenerationError,
    HypermatchError,
    InfeasibleError,
    InvalidArgumentError,
    InvariantError,
    ParseError,
    ResourceLimitError,
    SamplingError,
)
from .greedy import (
    GreedyTrajectory,
    TrajectoryConfig,
    centers,
    run_greedy,
    trajectory_deviation,
)
from .hypergraph import (
    AlphaTable,
    DiracParams,
    Hypergraph,
    degree_ratio_profile,
    gen_complete,
    gen_random_dirac,
    is_dirac,
    min_d_degree,
    read_hypergraph,
    write_hypergraph,
)
from .shifting import (
    AnnealParams,
    ShiftingStructure,
    anneal_and_shift,
    apply_shift,
    auto_anneal_params,
    find_good_configuration,
    find_shifting_structure,
    shift_gain_lower_bound,
    well_distributed_fpm,
)

__version__ = "0.1.0"
