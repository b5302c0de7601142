"""Dataflow policy specification and evaluation (paper sections 4-5)."""

from .language import ALL_LOCATIONS, PolicyExpression
from .parser import parse_policy
from .catalog import PolicyCatalog
from .localquery import (
    Lineage,
    LocalQuery,
    SubplanSummary,
    describe_local_query,
    summarize,
    summarize_plan,
)
from .evaluator import PolicyEvalStats, PolicyEvaluator
from .replicas import ReplicaResolver
from .negation import (
    NegativePolicy,
    apply_closed_world,
    compile_negative_policies,
    parse_negative,
)

__all__ = [
    "ALL_LOCATIONS",
    "PolicyExpression",
    "parse_policy",
    "PolicyCatalog",
    "Lineage",
    "LocalQuery",
    "SubplanSummary",
    "describe_local_query",
    "summarize",
    "summarize_plan",
    "PolicyEvalStats",
    "PolicyEvaluator",
    "ReplicaResolver",
    "NegativePolicy",
    "apply_closed_world",
    "compile_negative_policies",
    "parse_negative",
]
