"""splitfinder: a desk-scale laboratory for greedy binary hypothesis search.

Builds finite test/hypothesis instances, runs the greedy splitting rule
(one numpy step, `engine.best_split_test`) against one oracle or, as a
decision tree, against every possible oracle, computes the structural
constants that govern its query cost (neighborliness, coherence, edge split
certificates), and verifies the derived worst/average-case bounds
exhaustively.
"""

from .core import (
    HypothesisRecord,
    Instance,
    TestRecord,
    validate_instance,
)
from .engine import CostStats, Transcript, run_all_oracles, run_gbs
from .analysis import (
    AnalysisReport,
    CoherenceCertificate,
    EdgeReport,
    alpha_star,
    analyze_instance,
    beta_of,
    binary_entropy,
    coherence,
    compute_bounds,
    edge_alpha,
    min_k,
    neighborly_edge_audit,
    optimal_worst_case,
    subset_split_audit,
    verify_bounds,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CoherenceCertificate",
    "CostStats",
    "EdgeReport",
    "HypothesisRecord",
    "Instance",
    "TestRecord",
    "Transcript",
    "alpha_star",
    "analyze_instance",
    "beta_of",
    "binary_entropy",
    "coherence",
    "compute_bounds",
    "edge_alpha",
    "min_k",
    "neighborly_edge_audit",
    "optimal_worst_case",
    "run_all_oracles",
    "run_gbs",
    "subset_split_audit",
    "validate_instance",
    "verify_bounds",
    "verify_certificate",
]
