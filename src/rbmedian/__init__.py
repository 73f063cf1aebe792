"""Budgeted red-blue median toolkit.

Facilities come in two colours with separate opening budgets; every
client pays its distance to the nearest open facility. The package
bundles a multi-swap local-search heuristic, exhaustive oracles for small
instances, structural decomposition checkers for solution pairs, and a
generator for a worst-case family on which the heuristic's approximation
ratio is tight.
"""

from .errors import CapExceeded, Error, InputError, InternalInvariantError
from .metric import MetricError, MetricSpace, from_graph, from_matrix
from .instance import (
    Assignment,
    FormatError,
    InfeasibleSolutionError,
    Instance,
    InstanceError,
    Solution,
    check_feasible,
    disjointify,
    evaluate,
    gen_euclidean,
    parse,
    parse_solution,
    serialize,
    serialize_solution,
)
from .local_search import (
    SearchConfig,
    SearchResult,
    SwapMove,
    apply_move,
    neighborhood_size,
    run,
)
from .exact import DEFAULT_CAP, LocalOptVerdict, OptResult, brute_force_opt, is_local_opt
from .decomposition import (
    Block,
    FacilityClass,
    Group,
    GroupKind,
    OverlapError,
    PhiMap,
    build_phi,
    check_block_properties,
    check_standard_bounds,
    classify,
    colour_map,
    decompose,
    make_blocks,
    make_groups,
)
from .gap_gen import (
    GapInstance,
    GapParams,
    build,
    expected_costs,
    ratio_lower_bound,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Block",
    "CapExceeded",
    "DEFAULT_CAP",
    "Error",
    "FacilityClass",
    "FormatError",
    "GapInstance",
    "GapParams",
    "Group",
    "GroupKind",
    "InfeasibleSolutionError",
    "InputError",
    "Instance",
    "InstanceError",
    "InternalInvariantError",
    "LocalOptVerdict",
    "MetricError",
    "MetricSpace",
    "OptResult",
    "OverlapError",
    "PhiMap",
    "SearchConfig",
    "SearchResult",
    "Solution",
    "SwapMove",
    "apply_move",
    "brute_force_opt",
    "build",
    "build_phi",
    "check_block_properties",
    "check_feasible",
    "check_standard_bounds",
    "classify",
    "colour_map",
    "decompose",
    "disjointify",
    "evaluate",
    "expected_costs",
    "from_graph",
    "from_matrix",
    "gen_euclidean",
    "is_local_opt",
    "make_blocks",
    "make_groups",
    "neighborhood_size",
    "parse",
    "parse_solution",
    "ratio_lower_bound",
    "run",
    "serialize",
    "serialize_solution",
    "verify",
]
