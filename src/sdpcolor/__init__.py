"""sdpcolor: approximate coloring of k-colorable graphs.

Semidefinite vector colorings, refined Gaussian-threshold rounding,
independent-set extraction from graphs with large independence ratio,
candidate-collection and contraction progress machinery, the combined
coloring algorithm, and numerical verification of the underlying
probability bounds.
"""

from .analysis import (
    WedgeSpec,
    expected_rounding_size,
    normal_pdf,
    normal_tail,
    wedge_bounds,
    wedge_probability_exact,
    wedge_probability_mc,
)
from .combined import (
    CombinedConfig,
    CombinedResult,
    alpha_k,
    combined_color,
    cutoff,
)
from .graph import (
    Coloring,
    DimacsError,
    Graph,
    induced_subgraph,
    largest_color_class,
    read_dimacs,
    verify_coloring,
    verify_independent_set,
    write_dimacs,
)
from .indset import ak_independent_set, f_exponent, l2_vector_indset
from .progress import (
    ContractedGraph,
    build_candidate_collection,
    progress_driver,
)
from .rounding import (
    kms_color,
    kms_independent_set,
    kms_threshold,
    round_once,
)
from .testkit import (
    PlantedInstance,
    brute_force_chromatic,
    brute_force_mis,
    collection_guarantee_check,
    fit_exponent,
    is_k_colorable,
    planted_k_colorable,
)
from .vecsdp import (
    IndSetSdpSolution,
    VectorColoring,
    neighborhood_reduce,
    solve_indset_sdp,
    solve_vector_coloring,
    well_aligned_subset,
)

__all__ = [
    "Coloring", "CombinedConfig", "CombinedResult", "ContractedGraph",
    "DimacsError", "Graph", "IndSetSdpSolution", "PlantedInstance",
    "VectorColoring", "WedgeSpec",
    "ak_independent_set", "alpha_k", "brute_force_chromatic",
    "brute_force_mis", "build_candidate_collection",
    "collection_guarantee_check", "combined_color",
    "cutoff", "expected_rounding_size", "f_exponent",
    "fit_exponent", "induced_subgraph", "is_k_colorable", "kms_color",
    "kms_independent_set", "kms_threshold", "l2_vector_indset",
    "largest_color_class", "neighborhood_reduce", "normal_pdf",
    "normal_tail", "planted_k_colorable", "progress_driver",
    "read_dimacs", "round_once",
    "solve_indset_sdp", "solve_vector_coloring", "verify_coloring",
    "verify_independent_set", "wedge_bounds", "wedge_probability_exact",
    "wedge_probability_mc", "well_aligned_subset", "write_dimacs",
]

__version__ = "0.1.0"
