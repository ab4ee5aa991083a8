"""Exact algorithms for graphs of girth at least five whose induced odd
cycles all have length five: recognition, decomposition, 3- and 4-coloring
with certificates, fixtures, serialization, and corpus generation.
"""

from .coloring import (
    PETERSEN_COLORING,
    Coloring,
    KempeComponent,
    chromatic_number_bruteforce,
    combine_p3,
    four_color,
    kempe_component,
    kempe_swap,
    normalize_on_star,
    three_color,
    verify_coloring,
)
from .decomposition import (
    AttachmentReport,
    DecompositionOutcome,
    P3Cutset,
    ParityStarCutset,
    analyze_attachment,
    bruteforce_star_search,
    decompose,
    find_clique_cutset,
    find_low_degree,
    find_p3_cutset,
    find_strong_parity_star_cutset,
    revalidate_outcome,
    verify_parity_star_cutset,
)
from .errors import (
    ContractViolation,
    GraphConstructionError,
    InvariantViolation,
    NoDecompositionFound,
    ParseError,
    PentagraphError,
    SearchBudgetExceeded,
)
from .fixtures import FIXTURE_NAMES, cycle, fixture, petersen
from .formats import (
    parse_dimacs,
    parse_graph6,
    parse_json_graph,
    write_dimacs,
    write_dot,
    write_graph6,
    write_json_graph,
)
from .generate import (
    CorpusSpec,
    CorpusStream,
    enumerate_girth5,
    generate_corpus,
    random_pentagraph,
)
from .graph import (
    DEFAULT_MAX_VERTICES,
    HARD_MAX_VERTICES,
    INFINITY,
    BipartiteCheck,
    Graph,
    Layering,
    bfs,
    bfs_layers,
    bit_list,
    canonical_cycle,
    components,
    components_within,
    distance,
    girth,
    induced_subgraph,
    is_bipartite,
    iter_bits,
    make_graph,
    mask_of,
    shortest_cycle,
)
from .properties import (
    CHECKS,
    CheckResult,
    check_decomposition,
    check_layered_coloring,
    check_local_jump_pairs,
    check_p2_extension,
)
from .recognition import (
    INDETERMINATE,
    NOT_PENTAGRAPH,
    PENTAGRAPH,
    RecognitionReport,
    is_pentagraph,
    naive_recognize,
    recognize,
)
from .structure import (
    DEFAULT_MAX_STEPS,
    Embedding,
    Hole,
    InducedPath,
    Jump,
    SearchBudget,
    contains_induced,
    default_max_steps,
    enumerate_induced_paths,
    find_jumps,
    find_long_odd_hole,
    five_holes,
    is_isomorphic,
    is_linked,
    is_odd_linked,
    shortest_odd_cycle,
)

__version__ = "0.1.0"
