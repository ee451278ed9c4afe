"""Constructive size-Ramsey bounds: adversary colorings with exact
verification, tree embeddings, random-host trials, and a brute-force
oracle for small targets."""

from .colorings import (
    STRATEGIES,
    affine_component_coloring,
    beck_coloring,
    certify,
    chi3_coloring,
    double_star_2coloring,
    double_star_coloring,
    gen2_coloring,
    lower_bound_value,
    scaled_bipartite_coloring,
    scaled_nonstar_coloring,
    strategy_bound,
    vizing_bucket_coloring,
    weakbip_coloring,
)
from .embed import (
    PeelResult,
    degree_peel,
    embed_host,
    embed_host_sides,
    greedy_tree_embed,
    ramsey_embed_test,
    upper_bound_value,
)
from .errors import (
    CapacityError,
    CertificateValidationError,
    ConstructionError,
    DomainError,
    EdgeListError,
    Graph6Error,
    LasVegasError,
    SizeRamseyError,
)
from .expander import (
    ExpanderParams,
    TrialReport,
    appendix_trial,
    check_expansion,
    check_local_sparsity,
    min_degree_peel,
    sample_gnp,
)
from .geometry import (
    MAX_FIELD_SIZE,
    AffinePlane,
    FiniteField,
    is_prime_power,
    make_affine_plane,
    make_field,
    prime_power_decompose,
    q_for_partition,
    q_for_ramsey,
)
from .graphs import (
    BipartiteProfile,
    Graph,
    beta,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    is_bipartite,
    is_connected,
    is_double_star,
    is_star,
    is_tree,
    make_double_star,
    parse_edge_list,
    parse_graph6,
    path_graph,
    profile,
    star,
)
from .oracle import (
    ArrowingResult,
    ExactResult,
    arrows,
    canonical_form,
    cross_check_bounds,
    enumerate_connected_graphs,
    size_ramsey_exact,
)
from .verify import (
    Certificate,
    ColoringPlan,
    EdgeColoring,
    certificate_from_json,
    certificate_to_json,
    find_subgraph,
    max_mono_component,
    mono_copy,
    search_h_free_coloring,
    verify_certificate,
)

__version__ = "0.1.0"
