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
from enum import Enum

from .observation import _tail_mass


class TailCondition(str, Enum):
    DISJOINT_SUPPORTS = "DisjointSupports"
    SINGLE_POINT = "SinglePoint"
    OVERLAPPING_SUPPORTS = "OverlappingSupports"


def _tokens_needed(t_star: float, cap: float) -> float:
    """ceil(t*/c) with a snap for ratios a hair above an integer; inf when
    t*/c is not a finite float (a zero cap, or one so small that the ratio
    overflows)."""
    ratio = t_star / cap if cap > 0.0 else math.inf
    if math.isinf(ratio):
        return math.inf
    # float dust: t*/c can land just above n when t* is a whole multiple n*c
    return math.ceil(ratio - 1e-12)


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
    a tail mass admitted above M*c by the feasibility slack.  The code
    never forms q: c * min(q, n) is min(n * c, t*), so a zero cap, or one
    so small that t*/c overflows, gives D = t* (up to the mass the caps
    hold) without a division.
    """
    half = m // 2
    filled = min(half * cap, t_star)
    spilled = t_star - min((m - half) * cap, t_star)
    return abs(filled - spilled)


def tail_geometry(
    log_head: float, tau: float, m: int
) -> tuple[float, float, TailCondition, float]:
    """Exact diameter of the capped tail-allocation set, in closed form.

    From a normalized observation's log head mass ``log_ZA``, threshold
    ``tau`` and M, returns ``(t*, c, condition, diameter)``: the hidden
    tail mass, the per-token cap ``exp(tau)``, the regime and the diameter.
    A validated observation's tail fits under its caps, t* <= M*c up to
    ``tail_feasibility_tol``: the checks of
    :func:`censet.observation.from_pairs` reject any other.
    """
    t_star = _tail_mass(log_head)
    cap = math.exp(tau)
    if t_star == 0.0 or m <= 1:
        condition, diameter = TailCondition.SINGLE_POINT, 0.0
    elif m >= 2 * _tokens_needed(t_star, cap):
        condition, diameter = TailCondition.DISJOINT_SUPPORTS, t_star
    else:
        condition = TailCondition.OVERLAPPING_SUPPORTS
        diameter = allocation_diameter(t_star, cap, m)
    return t_star, cap, condition, diameter
