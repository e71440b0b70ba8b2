"""Slide reconfiguration graphs of minimum independent dominating sets.

The library computes i-graphs and alpha-graphs, builds and verifies the
complement-seed constructions that realize theta graphs as i-graphs,
recovers seeds for diamond-free line graphs and for cubic bipartite planar
graphs, and corroborates non-realizability claims by bounded exhaustive
search.
"""

from .errors import (
    CapacityError,
    DeletionPreconditionError,
    DiamondFoundError,
    FormatError,
    GraphError,
    InvalidParameterError,
    InvalidThetaSpecError,
    NonSimpleDualError,
    NotALineGraphError,
    NotBipartiteError,
    NotConnectedError,
    NotCubicError,
    NotPlanarEmbeddingError,
    RotationError,
    SetCountCapError,
)
from .graphs import (
    Graph,
    MAX_VERTICES,
    ThetaSpec,
    bits,
    cartesian_product,
    classify_theta,
    cycle_graph,
    complete_graph,
    diamond_graph,
    disjoint_union,
    fan_graph,
    house_graph,
    kappa_graph,
    line_graph,
    mask_of,
    obstruction_t_graph,
    path_graph,
    paw_graph,
    star_graph,
    theta,
    theta_graph,
    wheel_graph,
)
from .iso import (
    canonical_form,
    canonical_key,
    contains_induced,
    is_claw_free,
    is_diamond_free,
    is_isomorphic,
)
from .formats import from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from .independence import (
    DEFAULT_SET_CAP,
    IndependenceReport,
    independence_report,
    maximal_independent_sets,
)
from .reconfig import (
    MAX_SLIDE_NODES,
    SlideGraph,
    alpha_graph,
    build_slide_graph,
    i_graph,
    max_induced_star_center_degree,
    slide_graph_from_json,
    slide_graph_to_dot,
    slide_graph_to_json,
    structural_violations,
)
from .linegraphs import krausz_partition, line_graph_root, seed_from_line_graph
from .planar import (
    RotationSystem,
    parse_rotation_file,
    planar_dual,
    planar_seed,
    rotation_from_layout,
    rotation_to_file,
    trace_faces,
)
from .seeds import (
    ConstructionTrace,
    SeedResult,
    SeedVerification,
    TableReport,
    THETA_EXCEPTIONS,
    applicable_constructions,
    apply_deletion,
    build_theta_seed_complement,
    seed_graph_334,
    theta_specs_up_to,
    verify_table,
    verify_theta_seed,
)
from .search import (
    SearchReport,
    enumerate_labeled_graphs,
    scan_for_targets,
)

__version__ = "0.1.0"
