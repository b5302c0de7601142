"""Algebraic transformation rules for the Volcano-style search."""

from .base import TransformationRule, ordered_conjunction
from .joins import JoinAssociate, JoinCommute
from .aggregates import AggregateJoinTranspose
from .unions import AggregateUnionTranspose

__all__ = [
    "TransformationRule",
    "ordered_conjunction",
    "JoinAssociate",
    "JoinCommute",
    "AggregateJoinTranspose",
    "AggregateUnionTranspose",
]
