"""mishit: hitting numbers of maximum-independent-set families.

Exact independence numbers and complete MIS enumeration on bitmask graphs,
the shift and Hamming graph families with their structural MIS descriptions,
exact minimum hitting sets and the covering-code correspondence, kernel and
corona structure, and the random-deletion process behind the averaged
independence-number bound.
"""

from .families import (
    HammingSpec,
    ShiftSpec,
    build_hamming_graph,
    build_shift_graph,
    hamming_ball,
    hamming_mis_family,
    kleitman_alpha,
    shift_cycle_hitting_set,
    shift_mis_family,
)
from .graph import (
    Graph,
    MisFamily,
    VertexSet,
    alpha,
    alpha_induced,
    enumerate_mis,
    induced_subgraph,
    is_independent,
    load_graph,
    maximum_independent_set,
    random_graph,
    save_graph,
)
from .hajnal import kernel_corona
from .hitting import (
    CoveringCode,
    HittingResult,
    build_hadamard_covering_code,
    build_random_covering_code,
    covering_radius,
    find_far_point,
    h_of_graph,
    min_hitting_set,
)
from .process import (
    ProcessParams,
    alpha_prime_bound,
    alpha_prime_exact,
    alpha_prime_mc,
    run_deletion_process,
    success_statistics,
    verify_alpha_prime_bound,
)

__all__ = [
    "CoveringCode",
    "Graph",
    "HammingSpec",
    "HittingResult",
    "MisFamily",
    "ProcessParams",
    "ShiftSpec",
    "VertexSet",
    "alpha",
    "alpha_induced",
    "alpha_prime_bound",
    "alpha_prime_exact",
    "alpha_prime_mc",
    "build_hadamard_covering_code",
    "build_hamming_graph",
    "build_random_covering_code",
    "build_shift_graph",
    "covering_radius",
    "enumerate_mis",
    "find_far_point",
    "h_of_graph",
    "hamming_ball",
    "hamming_mis_family",
    "induced_subgraph",
    "is_independent",
    "kernel_corona",
    "kleitman_alpha",
    "load_graph",
    "maximum_independent_set",
    "min_hitting_set",
    "random_graph",
    "run_deletion_process",
    "save_graph",
    "shift_cycle_hitting_set",
    "shift_mis_family",
    "success_statistics",
    "verify_alpha_prime_bound",
]

__version__ = "0.1.0"
