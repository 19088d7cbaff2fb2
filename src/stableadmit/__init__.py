"""Exact solvers for college admission problems with score limits.

The package models stable admission outcomes as integer linear programs
over binary assignment variables and bounded cutoff variables, solves
them with an exact branch-and-bound search, and cross-checks every
result against an independent combinatorial stability oracle.
"""

from .algorithms import (AlgorithmError, ClosureEvent, Matching, ScoreLimits,
                         da, gs_scorelimits, induced_matching,
                         lower_quota_heuristic)
from .builders import (GROUP_POLICIES, OBJECTIVES, SCORELIMIT_MODES,
                       build_classical, build_combined, build_common,
                       build_lower, build_paired, build_paired_via_common,
                       build_scorelimits, decode_solution, extract_solution,
                       rank_objective)
from .generator import ConfigError, GenConfig, generate
from .instance import (Application, College, Instance, InstanceError,
                       InvariantError, LowerGroup, QuotaSet, SchemaError,
                       from_document, instance_digest, is_nested,
                       parse_instance, serialize_instance, to_document)
from .linmodel import (Constraint, LinearModel, ModelError, Objective,
                       Variable, assignment_satisfies)
from .oracle import (EnumerationResult, ShapeError, SizeGuardError,
                     StabilityReport, Violation, VARIANTS, check,
                     enumerate_stable)
from .preprocess import FixingResult, apply_fixings, fix_iterate, must_close, must_open
from .solution import (Solution, empty_matching, parse_solution,
                       serialize_solution, solution_from_document,
                       solution_to_document)
from .solver import (EnumerateResult, SolveResult, SolverError,
                     enumerate_feasible, solve, solve_lex)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmError", "Application", "ClosureEvent", "College", "ConfigError",
    "Constraint", "EnumerateResult", "EnumerationResult", "FixingResult",
    "GROUP_POLICIES", "GenConfig", "Instance", "InstanceError",
    "InvariantError", "LinearModel", "LowerGroup", "Matching", "ModelError",
    "OBJECTIVES", "Objective", "QuotaSet", "SCORELIMIT_MODES", "SchemaError",
    "ScoreLimits", "ShapeError", "SizeGuardError", "SolveResult", "Solution",
    "SolverError", "StabilityReport", "VARIANTS", "Variable", "Violation",
    "apply_fixings", "assignment_satisfies", "build_classical",
    "build_combined", "build_common", "build_lower", "build_paired",
    "build_paired_via_common", "build_scorelimits", "check", "da",
    "decode_solution", "empty_matching", "enumerate_feasible",
    "enumerate_stable", "extract_solution", "fix_iterate", "from_document", "generate",
    "gs_scorelimits", "induced_matching", "instance_digest", "is_nested",
    "lower_quota_heuristic", "must_close", "must_open", "parse_instance",
    "parse_solution", "rank_objective", "serialize_instance",
    "serialize_solution", "solution_from_document", "solution_to_document",
    "solve", "solve_lex", "to_document",
]
