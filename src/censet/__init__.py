"""Identified-set analysis of top-K censored next-token observations.

Given only the top-K scores an API reveals at one position, this package
computes what that censorship leaves unresolved: the exact total-variation
diameter of the set of compatible distributions, certified worst-case KL
recovery bounds with matching estimators, reference-model shrinkage,
normalized-access refinements, and non-adaptive multi-position composition.
Every closed form has an independent brute-force route in
:mod:`censet.oracles`.

The package namespace carries the basic analysis path and the error types;
everything else is imported from its submodule.
"""

from .identified_set import geometry, per_token_cap
from .minimax import certificate, symmetric_estimator, worst_case_risk
from .observation import (
    ModeError,
    ParseError,
    ValidationError,
    parse_observations,
)

__version__ = "0.1.0"

__all__ = [
    "ModeError",
    "ParseError",
    "ValidationError",
    "certificate",
    "geometry",
    "parse_observations",
    "per_token_cap",
    "symmetric_estimator",
    "worst_case_risk",
]
