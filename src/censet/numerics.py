"""Global numeric policy and the two scalar kernels every module shares.

All tolerance knobs live in one mutable record rather than per-call flags,
so a batch run is governed by a single, reportable configuration.  The CLI
may override fields from a JSON file (env var ``CENSET_NUMERIC_POLICY``) for
the duration of one command; the previous values return when it ends.

:func:`logsumexp` and :func:`expit` reproduce SciPy's ``special``
functions of those names bit for bit at a fraction of the per-call cost,
so the analysis commands need numpy alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class NumericPolicy:
    # admissibility of a normalized head mass: reject above 1 + head_mass_tol
    head_mass_tol: float = 1e-9
    # slack on identified-set membership checks (tail mass, per-token caps)
    membership_tol: float = 1e-12
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


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` over a 1-D array, equal to SciPy's ``logsumexp``.

    The real-input algorithm of SciPy 1.17, the max-separated form of
    Blanchard, Higham & Higham, "Accurately computing the log-sum-exp and
    softmax functions" (IMA J. Numer. Anal. 41(4), 2021): with ``m``
    entries equal to the maximum ``a_max`` and ``s`` the sum of the other
    entries' ``exp(a - a_max)``, divided by ``m`` when nonzero, the result
    is ``log1p(s) + log(m) + a_max``.  Each step is the numpy ufunc SciPy
    applies, to an array of the same length and order (the maxima stay in
    the sum as zeros, so pairwise summation groups the terms alike), which
    makes the two equal to the bit.  A result that is not finite is
    ``log(sum(exp(a)))``, as in SciPy: nan if any entry is nan, else inf
    if one is +inf, and -inf for an empty or all ``-inf`` array.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    a_max = float(a[a.argmax()])
    # only a nan, an infinity or a spread beyond the float range can warn
    if math.isfinite(a_max - float(a[a.argmin()])):
        return _shifted_logsumexp(a, a_max)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _shifted_logsumexp(a, a_max)
        if math.isfinite(out):
            return out
        return float(np.log(np.add.reduce(np.exp(a), keepdims=True))[0])


def _shifted_logsumexp(a: np.ndarray, a_max: float) -> float:
    top = a == a_max
    m = np.count_nonzero(top)
    terms = np.exp(a - a_max)
    terms[top] = 0.0
    s = np.add.reduce(terms, keepdims=True)
    if m == 1:
        # log(1) = 0 and s / 1 = s, exactly
        return float((np.log1p(s) + a_max)[0])
    if s[0] != 0.0:
        s /= m
    return float((np.log1p(s) + np.log(np.full(1, float(m))) + a_max)[0])


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """:func:`logsumexp` of each row of a 2-D array sorted non-increasing.

    The same steps as :func:`logsumexp`, each one numpy ufunc over the
    whole matrix: the row's first entry is its maximum and its last the
    minimum, a sum over axis 1 groups each row's terms as the 1-D sum does,
    and ``log1p(s / m) + log(m)`` equals the kernel's ``m == 1`` form
    exactly (``s / 1 = s`` and ``x + 0.0 = x`` for ``x >= 0``).  A row
    whose spread is not finite takes :func:`logsumexp` itself.
    """
    a_max = a[:, 0]
    # only a row with a nan, an infinity or an overflowing spread can warn
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = a_max - a[:, -1]
        top = a == a_max[:, None]
        terms = np.exp(a - a_max[:, None])
        terms[top] = 0.0
        m = np.count_nonzero(top, axis=1).astype(np.float64)
        out = np.log1p(np.add.reduce(terms, axis=1) / m) + np.log(m) + a_max
    for row in np.flatnonzero(~np.isfinite(spread)).tolist():
        out[row] = logsumexp(a[row])
    return out


def expit(x: float) -> float:
    """The logistic sigmoid ``1 / (1 + exp(-x))``, equal to SciPy's ``expit``.

    An ``exp(-x)`` beyond the float range gives 0.0, as SciPy's does.
    """
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0
