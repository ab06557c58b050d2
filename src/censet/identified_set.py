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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.special import expit

from .numerics import POLICY
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
        return float(expit(-self.log_odds))

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
    def token_ids(self) -> tuple[int, ...]:
        return self.summary.token_ids

    @cached_property
    def censored_ids(self) -> np.ndarray:
        """Sorted ids of the censored tokens."""
        hidden = np.ones(self.vocab_size, dtype=bool)
        hidden[list(self.token_ids)] = False
        return np.flatnonzero(hidden)


def geometry(summary: LogSummary) -> SetGeometry:
    """Ambiguity diameter of the compatible set; exactly 0 when M = 0."""
    if summary.M == 0:
        return SetGeometry(summary=summary, U_K=0.0, log_odds=-math.inf)
    log_odds = math.log(summary.M) + summary.tau - summary.log_ZA
    return SetGeometry(summary=summary, U_K=float(expit(log_odds)), log_odds=log_odds)


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
    t = min(max(t, 0.0), geom.U_K)
    return math.exp(geom.log_odds) * (1.0 - t) / geom.M


@dataclass(frozen=True)
class FeasiblePoint:
    """A member of the compatible set: tail mass plus its allocation.

    The head is implicitly ``(1-t) * alpha`` and is never stored.  The
    maximal uniform tail is represented symbolically (``uniform=True``) and
    materialized only on demand, since M can reach ~1.5e5 for real
    vocabularies.
    """

    t: float
    tail: Mapping[int, float] = field(default_factory=dict)
    uniform: bool = False

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError(f"tail mass must be nonnegative, got {self.t!r}")
        if self.uniform and self.tail:
            raise ValueError("a uniform tail carries no explicit allocation")
        for u, w in self.tail.items():
            if w < 0.0:
                raise ValueError(f"negative tail weight {w!r} on token {u}")


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def tail_map(geom: SetGeometry, point: FeasiblePoint) -> dict[int, float]:
    """Materialize the tail allocation as an explicit token -> mass map."""
    if point.uniform:
        if geom.M == 0:
            return {}
        w = point.t / geom.M
        return {int(u): w for u in geom.censored_ids}
    return dict(point.tail)


def to_distribution(geom: SetGeometry, point: FeasiblePoint) -> np.ndarray:
    """Dense length-V distribution for a feasible point (small-V use)."""
    p = np.zeros(geom.vocab_size)
    p[list(geom.token_ids)] = (1.0 - point.t) * geom.alpha
    for u, w in tail_map(geom, point).items():
        p[u] = w
    return p


def extremal_pair(geom: SetGeometry) -> tuple[FeasiblePoint, FeasiblePoint]:
    """The zero-tail point and the maximal uniform-tail point.

    Their total-variation distance equals U_K, attaining the diameter.
    """
    if geom.M == 0:
        raise ValueError("compatible set is a single point; no extremal pair")
    return FeasiblePoint(t=0.0), FeasiblePoint(t=geom.U_K, uniform=True)


def membership(geom: SetGeometry, point: FeasiblePoint) -> MembershipReport:
    """Check a point against the tail-mass range and per-token caps.

    Tail entries on revealed token ids are a structural error (raised), not
    a membership failure.  The report lists every violated constraint.
    """
    revealed = set(geom.token_ids)
    if not point.uniform:
        for u in point.tail:
            if u in revealed:
                raise ValueError(f"tail entry on revealed token id {u}")
            if u < 0 or u >= geom.vocab_size:
                raise ValueError(
                    f"tail token id {u} outside [0, {geom.vocab_size})"
                )

    tol = POLICY.membership_tol
    violations: list[str] = []
    t = point.t
    if t > geom.U_K + tol:
        violations.append(
            f"tail mass exceeds U_K: t={t!r} > U_K={geom.U_K!r}"
        )
    if geom.M == 0 and t > tol:
        violations.append("no censored tokens but positive tail mass")

    if not violations and geom.M > 0:
        cap = per_token_cap(geom, min(t, geom.U_K)) + tol * (1.0 + t)
        if point.uniform:
            w = t / geom.M
            if w > cap:
                violations.append(
                    f"uniform tail weight {w!r} exceeds per-token cap {cap!r}"
                )
        else:
            total = 0.0
            for u, w in point.tail.items():
                total += w
                if w > cap:
                    violations.append(
                        f"tail weight {w!r} on token {u} exceeds cap {cap!r}"
                    )
            if abs(total - t) > tol * (1.0 + t):
                violations.append(
                    f"tail allocation sums to {total!r}, expected t={t!r}"
                )
    return MembershipReport(ok=not violations, violations=tuple(violations))


def _check_distribution_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, arr in (("p", p), ("q", q)):
        total = float(arr.sum())
        if abs(total - 1.0) > POLICY.norm_tol:
            raise ValueError(f"{name} sums to {total!r}, not 1 within tolerance")
    return p, q


def tv(p, q) -> float:
    """Total variation distance, 0.5 * l1, between two full distributions."""
    p, q = _check_distribution_pair(p, q)
    return float(0.5 * np.abs(p - q).sum())


def kl(p, q) -> float:
    """KL divergence in nats with the extended conventions.

    ``0 log 0 = 0``; mass in ``p`` where ``q`` is zero yields ``+inf`` (a
    distinguished value, not an error: the zero-tail extremal point makes
    this case routine).
    """
    p, q = _check_distribution_pair(p, q)
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    ps = p[support]
    return float(np.sum(ps * (np.log(ps) - np.log(q[support]))))
