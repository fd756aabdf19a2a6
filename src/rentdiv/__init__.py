"""Exact envy-free rent division under rent bounds and budget constraints.

combined_solve is the one-call entry point; the submodules expose each
pipeline stage (welfare matching, envy graphs, event-driven rent motion,
bound repair, objectives, budget handling) plus an independent LP oracle
for cross-checking.
"""

from .budgets import combined_solve, scc_max_rent
from .bounds import (
    BoundsResult,
    check_certificate,
    ef_rents_with_bounds,
    leximin_rents,
    maximin_rents,
    minspread_rents,
)
from .ef_base import initial_ef_allocation
from .envy import EnvyGraph, build_budget_graph, build_envy_graph, scc_partition
from .matching import SizeError, all_max_welfare_assignments, max_welfare_assignment
from .model import (
    INFEASIBLE,
    OBJECTIVES,
    ORACLE_OBJECTIVES,
    SOLVED,
    Allocation,
    Assignment,
    BoundOrderError,
    BoundSumError,
    BoundaryError,
    InfeasibilityCertificate,
    Instance,
    ShapeError,
    SolveOutcome,
    check_constraints,
    check_envy_free,
    make_instance,
    utilities,
    validate_instance,
)
from .oracle import UnsupportedObjectiveError, oracle_solve

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Assignment",
    "BoundOrderError",
    "BoundSumError",
    "BoundaryError",
    "BoundsResult",
    "EnvyGraph",
    "INFEASIBLE",
    "InfeasibilityCertificate",
    "Instance",
    "OBJECTIVES",
    "ORACLE_OBJECTIVES",
    "SOLVED",
    "ShapeError",
    "SizeError",
    "SolveOutcome",
    "UnsupportedObjectiveError",
    "all_max_welfare_assignments",
    "build_budget_graph",
    "build_envy_graph",
    "check_certificate",
    "check_constraints",
    "check_envy_free",
    "combined_solve",
    "ef_rents_with_bounds",
    "initial_ef_allocation",
    "leximin_rents",
    "make_instance",
    "max_welfare_assignment",
    "maximin_rents",
    "minspread_rents",
    "oracle_solve",
    "scc_max_rent",
    "scc_partition",
    "utilities",
    "validate_instance",
]
