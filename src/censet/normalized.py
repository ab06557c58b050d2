"""Normalized-access regime: the hidden tail mass is known exactly.

When an API returns true log-probabilities, the head is fully determined
and only the allocation of the known tail mass ``t*`` over censored tokens
varies, each entry capped by the smallest revealed probability ``c``.
Two allocations on disjoint supports realize TV = t*, which needs
``M >= 2 * ceil(t*/c)`` tokens; with a single censored token the set is one
point.  In between, the supports must overlap and the diameter has the
closed form of :func:`allocation_diameter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .numerics import POLICY
from .observation import AccessMode, ModeError, TopKObservation, _tail_mass


class TailCondition(str, Enum):
    DISJOINT_SUPPORTS = "DisjointSupports"
    SINGLE_POINT = "SinglePoint"
    OVERLAPPING_SUPPORTS = "OverlappingSupports"


@dataclass(frozen=True)
class NormalizedGeometry:
    """Exact diameter verdict for one normalized observation."""

    t_star: float
    cap: float
    M: int
    condition: TailCondition
    diameter: float


def _tokens_needed(t_star: float, cap: float) -> int:
    """ceil(t*/c) with a snap for ratios a hair above an integer."""
    ratio = t_star / cap
    # float dust: t*/c can land just above n when t* is a whole multiple n*c
    return int(math.ceil(ratio - 1e-12))


def allocation_diameter(t_star: float, cap: float, m: int) -> float:
    """Exact max pairwise TV over {0 <= x <= c, sum(x) = t*} on M tokens.

    With q = t*/c the diameter is

        D = c * [min(q, floor(M/2)) + min(q, ceil(M/2))] - t*.

    Upper bound: for allocations x, y, TV = sum(max(x_u, y_u)) - t*.  Let
    the k tokens with x_u >= y_u form S; then sum over S of max(x_u, y_u)
    is sum over S of x_u <= c * min(q, k), and the other M - k tokens carry
    at most c * min(q, M - k) of y.  The bound c * [min(q, k) +
    min(q, M - k)] - t* is concave and symmetric in k, so it peaks at
    k = floor(M/2).

    Attained: x fills a set A of floor(M/2) tokens to the cap first and
    spills the rest on the other ceil(M/2) tokens; y does the mirror image.
    TV is at least the mass difference on A, x(A) - y(A) =
    c * min(q, floor(M/2)) - (t* - c * min(q, ceil(M/2))) = D.

    D = t* once both halves can hold t* (the disjoint-supports regime) and
    D = 0 for M <= 1.  D >= 0 whenever t* <= M*c; the abs only matters for
    a tail mass admitted above M*c by the feasibility slack.
    """
    half = m // 2
    filled = min(half * cap, t_star)
    spilled = t_star - min((m - half) * cap, t_star)
    return abs(filled - spilled)


def normalized_geometry(obs: TopKObservation) -> NormalizedGeometry:
    """Exact diameter of the capped tail-allocation set.

    Raises on non-normalized observations and on inconsistent ones whose
    tail mass cannot fit under the per-token cap (t* > M*c).
    """
    if obs.mode is not AccessMode.LOGPROBS:
        raise ModeError("normalized geometry requires mode=logprobs")
    m = obs.vocab_size - obs.k
    t_star, cap, condition, diameter = tail_geometry(obs.log_ZA, obs.tau, m)
    return NormalizedGeometry(
        t_star=t_star, cap=cap, M=m, condition=condition, diameter=diameter
    )


def tail_geometry(
    log_head: float, tau: float, m: int
) -> tuple[float, float, TailCondition, float]:
    """``(t*, c, condition, diameter)`` of a normalized observation.

    From the log head mass ``log_ZA``, the threshold ``tau`` and M; see
    :func:`normalized_geometry`.
    """
    t_star = _tail_mass(log_head)
    cap = math.exp(tau)
    if t_star > m * cap + POLICY.tail_feasibility_tol:
        raise ValueError(
            f"inconsistent observation: hidden tail mass {t_star!r} cannot "
            f"fit under cap {cap!r} on {m} censored tokens"
        )
    if t_star == 0.0 or m <= 1:
        condition, diameter = TailCondition.SINGLE_POINT, 0.0
    elif m >= 2 * _tokens_needed(t_star, cap):
        condition, diameter = TailCondition.DISJOINT_SUPPORTS, t_star
    else:
        condition = TailCondition.OVERLAPPING_SUPPORTS
        diameter = allocation_diameter(t_star, cap, m)
    return t_star, cap, condition, diameter
