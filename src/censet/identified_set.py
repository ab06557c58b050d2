"""Exact geometry of the set of distributions compatible with one observation.

Under unnormalized access every compatible distribution is determined by a
total tail mass ``t`` and an allocation of ``t`` over the censored tokens;
the head is pinned to ``(1-t) * alpha``.  The score ceiling ``tau`` induces
a per-token cap on each censored probability, and the largest achievable
total-variation distance between two compatible distributions is

    U_K = M * exp(tau) / (Z_A + M * exp(tau)),

i.e. ``sigmoid(log M + tau - log_ZA)``.  All odds arithmetic here stays in
the log domain: observed ``U_K`` values routinely exceed 0.98, where a naive
``1 - U_K`` loses most of its significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import POLICY, expit
from .observation import LogSummary


@dataclass(frozen=True, eq=False)
class SetGeometry:
    """A summary together with its ambiguity diameter.

    ``log_odds`` is ``log(M) + tau - log_ZA``; ``U_K = sigmoid(log_odds)``.
    Keeping the log-odds alongside ``U_K`` means ``1 - U_K`` is always
    available at full relative precision via ``sigmoid(-log_odds)``.
    """

    summary: LogSummary
    U_K: float
    log_odds: float

    @property
    def one_minus_UK(self) -> float:
        return expit(-self.log_odds)

    @property
    def M(self) -> int:
        return self.summary.M

    @property
    def tau(self) -> float:
        return self.summary.tau

    @property
    def log_ZA(self) -> float:
        return self.summary.log_ZA

    @property
    def alpha(self) -> np.ndarray:
        return self.summary.alpha

    @property
    def vocab_size(self) -> int:
        return self.summary.vocab_size

    @property
    def token_ids(self) -> np.ndarray:
        return self.summary.token_ids

    @cached_property
    def censored_ids(self) -> np.ndarray:
        """Sorted ids of the censored tokens."""
        hidden = np.ones(self.vocab_size, dtype=bool)
        hidden[self.token_ids] = False
        return np.flatnonzero(hidden)


def diameter(m: int, tau: float, log_za: float) -> tuple[float, float]:
    """``(U_K, log_odds)`` from M, ``tau`` and ``log_ZA``; (0.0, -inf) when M = 0."""
    if m == 0:
        return 0.0, -math.inf
    log_odds = math.log(m) + tau - log_za
    return expit(log_odds), log_odds


def geometry(summary: LogSummary) -> SetGeometry:
    """Ambiguity diameter of the compatible set; exactly 0 when M = 0."""
    u, log_odds = diameter(summary.M, summary.tau, summary.log_ZA)
    return SetGeometry(summary=summary, U_K=u, log_odds=log_odds)


def token_cap(log_odds: float, m: int, t: float) -> float:
    """:func:`per_token_cap` from ``log_odds`` and M > 0, for t in [0, U_K]."""
    return math.exp(log_odds) * (1.0 - t) / m


def per_token_cap(geom: SetGeometry, t: float) -> float:
    """Largest probability one censored token can carry at tail mass ``t``.

    Equals ``(1-t) * U_K / (M * (1-U_K))``, evaluated as
    ``exp(log_odds) * (1-t) / M`` so the value survives U_K -> 1.
    """
    if geom.M == 0:
        raise ValueError("per-token cap undefined: no censored tokens")
    tol = POLICY.membership_tol
    if t < -tol or t > geom.U_K + tol:
        raise ValueError(f"tail mass t={t!r} outside [0, U_K={geom.U_K!r}]")
    return token_cap(geom.log_odds, geom.M, min(max(t, 0.0), geom.U_K))
