"""Exact path and tree connectivity on small graphs.

Computes path k-connectivity and its edge, tree, and cut variants by
exhaustive witness enumeration plus branch-and-bound packing, constructs
explicit disjoint-path families in line graphs and products of complete
graphs, and ships verification suites for the governing formulas and
inequalities.
"""

from ._backend import BACKEND
from .graphs import (GENERATORS, Graph, InputError, complete,
                     complete_bipartite, components, cycle, net, parse_graph,
                     path, serialize_graph, star)
from .invariants import (connectivity, edge_connectivity, k_connectivity_cut,
                         min_degree)
from .random_graphs import RandomGraphSpec, sample_graph, sample_graphs
from .steiner import (DEFAULT_CAP, EXACT, KAPPA, LAMBDA, LOWER_BOUND, OMEGA,
                      PI, VARIANTS, ZERO, GlobalResult, PackDecision,
                      PackingCertificate, complete_graph_value,
                      enumerate_minimal_spaths, enumerate_minimal_strees,
                      global_at_least, global_connectivity, local_connectivity,
                      local_upper_bound, pack_at_least, terminal_set,
                      upper_bound)
from .suites import (SuiteReport, run_all, run_suite, serialize_reports,
                     suite_construction, suite_formulas, suite_inequalities,
                     suite_linegraph)
from .transforms import (LabeledGraph, cartesian_product, line_graph,
                         natural_iso_check)
from .witness import (PrescribedInstance, ProductWitness,
                      complete_graph_witness, family_violations,
                      prescribed_instance, product_witness,
                      product_witness_graph, verify_family)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "DEFAULT_CAP", "EXACT", "GENERATORS", "KAPPA", "LAMBDA",
    "LOWER_BOUND", "OMEGA", "PI", "VARIANTS", "ZERO", "GlobalResult", "Graph",
    "InputError", "LabeledGraph", "PackDecision", "PackingCertificate",
    "PrescribedInstance", "ProductWitness",
    "RandomGraphSpec",
    "SuiteReport", "cartesian_product",
    "complete", "complete_bipartite", "complete_graph_value",
    "complete_graph_witness", "components", "connectivity", "cycle",
    "edge_connectivity", "enumerate_minimal_spaths", "enumerate_minimal_strees",
    "family_violations", "global_at_least", "global_connectivity",
    "k_connectivity_cut", "line_graph", "local_connectivity",
    "local_upper_bound", "min_degree", "natural_iso_check", "net",
    "pack_at_least", "parse_graph", "path", "prescribed_instance",
    "product_witness", "product_witness_graph",
    "run_all", "run_suite",
    "sample_graph", "sample_graphs", "serialize_graph", "serialize_reports",
    "star", "suite_construction", "suite_formulas", "suite_inequalities",
    "suite_linegraph", "terminal_set", "upper_bound", "verify_family",
    "__version__",
]
