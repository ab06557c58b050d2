"""Global numeric policy: the tolerances every module shares.

All tolerance knobs live in one mutable record rather than per-call flags,
so a batch run is governed by a single, reportable configuration.  The CLI
may override fields from a JSON file (env var ``CENSET_NUMERIC_POLICY``) for
the duration of one command; the previous values return when it ends.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
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


def _assign(source: NumericPolicy) -> None:
    for f in dataclasses.fields(NumericPolicy):
        setattr(POLICY, f.name, getattr(source, f.name))


def apply_policy_overrides(overrides) -> None:
    """Update the global policy in place, all fields or none.

    ``overrides`` must map known field names to finite non-negative
    numbers (a negative tolerance would switch its check off); it is checked
    in full before any field changes.
    """
    if not isinstance(overrides, dict):
        raise ValueError("numeric policy overrides must be a JSON object")
    valid = {f.name for f in dataclasses.fields(NumericPolicy)}
    updated = dataclasses.replace(POLICY)
    for key, value in overrides.items():
        if key not in valid:
            raise ValueError(f"unknown numeric policy field: {key!r}")
        # a JSON number: not a bool or string, finite and >= 0 (NaN fails <=)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max
        ):
            raise ValueError(
                f"numeric policy field {key!r} must be a finite non-negative "
                f"JSON number, got {value!r}"
            )
        setattr(updated, key, float(value))
    _assign(updated)


def load_policy_file(path: str) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        apply_policy_overrides(json.load(handle))


@contextmanager
def restored_policy():
    """Put the global policy back as it was on exit, whatever ran inside."""
    saved = dataclasses.replace(POLICY)
    try:
        yield
    finally:
        _assign(saved)


def reset_policy() -> None:
    """Restore all tolerances to their defaults (used by tests)."""
    _assign(NumericPolicy())
