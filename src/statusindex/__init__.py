"""Exact-arithmetic status (transmission) connectivity indices and
co-indices of connected graphs.

The package computes the first/second status connectivity indices
(transmission sums/products over edges), the corresponding co-indices
(sums over non-adjacent pairs), and the classical Wiener and Zagreb
quantities, all as exact integers. Generators for hypercubes, Kneser
graphs, subset intersection graphs and polyhex nanotori come with their
closed-form index expressions and a brute-force verification harness
that flags registered discrepancies in the published formulas.

Importing the package loads none of its modules: each exported name,
and each module as an attribute (``statusindex.graph``), is loaded on
first use (PEP 562), so a command pays only for the modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

#: Module -> the names the package exports from it.
_EXPORTS = {
    "closed_forms": (
        "ClosedFormReport", "FormulaValue", "closed_forms_for", "hypercube_closed_forms",
        "intersection_closed_forms", "kneser_closed_forms", "nanotorus_closed_forms",
    ),
    "families": (
        "DEFAULT_MAX_VERTICES", "FamilyError", "FamilySpec", "VertexCapError", "generate",
    ),
    "graph": (
        "DisconnectedGraphError", "Graph", "GraphError", "ParseError",
        "TransmissionProfile", "format_edge_list", "parse_edge_list",
        "transmission_profile",
    ),
    "indices": (
        "BoundsReport", "Diam2Formulas", "IndexBundle", "complement_bounds",
        "compute_index_bundle", "diam2_coindex_formulas", "edge_sums", "nonedge_sums",
        "status_coindices_direct", "status_coindices_identity", "status_indices",
        "transmission_regular_indices", "zagreb_coindices", "zagreb_coindices_identity",
        "zagreb_indices",
    ),
    "verify": (
        "DEFAULT_SEED", "DEMO_TAG", "ERRATA", "Erratum", "VerificationCase",
        "VerificationReport", "default_grid", "demo_graph", "random_connected_graph",
        "random_corpus", "verify_family", "verify_grid", "verify_identities",
        "verify_random_suite",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("cli", *_EXPORTS)

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")  # also binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__all__})
