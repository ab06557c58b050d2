"""Global numeric policy: the tolerances every module shares.

All tolerance knobs live in one mutable record rather than per-call flags,
so a batch run is governed by a single, reportable configuration.  The CLI
may override fields from a JSON file (env var ``CENSET_NUMERIC_POLICY``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass
class NumericPolicy:
    # admissibility of a normalized head mass: reject above 1 + head_mass_tol
    head_mass_tol: float = 1e-9
    # slack on identified-set membership checks (tail mass, per-token caps)
    membership_tol: float = 1e-12
    # how close to 1 an input distribution must sum for tv()/kl()
    norm_tol: float = 1e-9
    # feasibility slack for normalized access: t* <= M*c + tail_feasibility_tol
    tail_feasibility_tol: float = 1e-9
    # |R_bin - delta| band inside which a verdict is flagged THRESHOLD
    verdict_margin: float = 1e-3


POLICY = NumericPolicy()


def apply_policy_overrides(overrides: dict) -> None:
    """Update the global policy in place; unknown keys are rejected."""
    valid = {f.name for f in dataclasses.fields(NumericPolicy)}
    for key, value in overrides.items():
        if key not in valid:
            raise ValueError(f"unknown numeric policy field: {key!r}")
        setattr(POLICY, key, float(value))


def load_policy_file(path: str) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        apply_policy_overrides(json.load(handle))


def reset_policy() -> None:
    """Restore all tolerances to their defaults (used by tests)."""
    global POLICY
    defaults = NumericPolicy()
    for f in dataclasses.fields(NumericPolicy):
        setattr(POLICY, f.name, getattr(defaults, f.name))
