"""Normalized-access regime: the hidden tail mass is known exactly.

When an API returns true log-probabilities, the head is fully determined
and only the allocation of the known tail mass ``t*`` over censored tokens
varies, each entry capped by the smallest revealed probability ``c``.
Two allocations on disjoint supports realize TV = t*, which needs
``M >= 2 * ceil(t*/c)`` tokens; with a single censored token the set is one
point.  In between, the supports must overlap and the diameter has the
closed form of :func:`allocation_diameter`.

:func:`tail_geometry` and :func:`allocation_diameter` are column kernels
(see :func:`censet.numerics.columns`): floats and an int M, or float
columns and a list of M.  ``M // 2`` and the regime test ``M >= 2
ceil(t*/c)`` are computed on Python ints, exact at any size.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .numerics import columns, libm
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


def allocation_diameter(t_star, cap, m):
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
    return columns(_allocation_diameter, t_star, cap, m)


def _allocation_diameter(t_star, cap, m: list) -> np.ndarray:
    t_star = np.asarray(t_star, dtype=np.float64)
    cap = np.asarray(cap, dtype=np.float64)
    halves = [n // 2 for n in m]
    filled = libm(float, halves) * cap
    filled = np.where(t_star < filled, t_star, filled)
    spilled = libm(float, [n - h for n, h in zip(m, halves)]) * cap
    spilled = t_star - np.where(t_star < spilled, t_star, spilled)
    return np.abs(filled - spilled)


def tail_geometry(log_head, tau, m):
    """Exact diameter of the capped tail-allocation set, in closed form.

    From a normalized observation's log head mass ``log_ZA``, threshold
    ``tau`` and M, returns ``(t*, c, condition, diameter)``: the hidden
    tail mass, the per-token cap ``exp(tau)``, the regime and the diameter
    (of columns, a list of conditions).  A validated observation's tail
    fits under its caps, t* <= M*c up to ``tail_feasibility_tol``: the
    checks of :func:`censet.observation.from_pairs` reject any other.
    """
    return columns(_tail_geometry, log_head, tau, m)


def _tail_geometry(log_head, tau, m: list) -> tuple:
    t_star, cap = _tail_mass(log_head), libm(math.exp, tau)
    single = (t_star == 0.0) | np.array([n <= 1 for n in m], dtype=bool)
    disjoint = ~single & np.array(
        [n >= 2 * _tokens_needed(t, c) for n, t, c in
         zip(m, t_star.tolist(), cap.tolist())], dtype=bool)
    overlapping = ~(single | disjoint)
    diameter = np.where(disjoint, t_star, 0.0)
    rows = np.flatnonzero(overlapping)
    diameter[rows] = _allocation_diameter(
        t_star[rows], cap[rows], [m[i] for i in rows.tolist()])
    conditions = [
        TailCondition.SINGLE_POINT if one else
        TailCondition.DISJOINT_SUPPORTS if apart else
        TailCondition.OVERLAPPING_SUPPORTS
        for one, apart in zip(single.tolist(), disjoint.tolist())
    ]
    return t_star, cap, conditions, diameter
