"""Exact-arithmetic status (transmission) connectivity indices and
co-indices of connected graphs.

The package computes the first/second status connectivity indices
(transmission sums/products over edges), the corresponding co-indices
(sums over non-adjacent pairs), and the classical Wiener and Zagreb
quantities, all as exact integers. Generators for hypercubes, Kneser
graphs, subset intersection graphs and polyhex nanotori come with their
closed-form index expressions and a brute-force verification harness
that flags registered discrepancies in the published formulas.
"""
from .closed_forms import (
    ClosedFormReport,
    FormulaValue,
    closed_forms_for,
    hypercube_closed_forms,
    intersection_closed_forms,
    kneser_closed_forms,
    nanotorus_closed_forms,
)
from .families import (
    DEFAULT_MAX_VERTICES,
    FamilyError,
    FamilySpec,
    VertexCapError,
    generate,
)
from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    ParseError,
    TransmissionProfile,
    complement,
    format_edge_list,
    parse_edge_list,
    transmission_profile,
)
from .indices import (
    BoundsReport,
    Diam2Formulas,
    IndexBundle,
    OrbitPartition,
    complement_bounds,
    compute_index_bundle,
    diam2_coindex_formulas,
    edge_sums,
    orbit_indices,
    status_coindices_direct,
    status_coindices_identity,
    status_indices,
    transmission_regular_indices,
    validate_orbit_partition,
    zagreb_coindices,
    zagreb_coindices_identity,
    zagreb_indices,
)
from .verify import (
    DEFAULT_SEED,
    DEMO_TAG,
    ERRATA,
    Erratum,
    VerificationCase,
    VerificationReport,
    default_grid,
    demo_graph,
    random_connected_graph,
    random_corpus,
    verify_family,
    verify_grid,
    verify_identities,
    verify_random_suite,
)

__version__ = "0.1.0"
