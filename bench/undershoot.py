"""Independent dense evaluation of the symmetric estimator's risk profile.

For a position with M censored tokens and log-odds ``lo`` (``U_K =
sigmoid(lo)``), the uniform-tail estimator with reserve ``s = U_K / e``
faces, at tail mass t, the worst case

    d(t || s) + t * [n (lam/M) log(lam) + rem log(rem M)],
    lam = e^lo (1 - t) / t,  n = min(floor(M / lam), M),  rem = 1 - n lam / M,

an adversary that caps n censored tokens and puts the remainder on one more.
Every t in (0, U_K] is a feasible tail mass, so the largest value over any
set of evaluated t is a lower bound on the true supremum.  This module
evaluates it with numpy, not through censet, at every cap breakpoint
``t_n = n e^lo / (n e^lo + M)`` (n = 1..M), where the profile has kinks, and
on a uniform grid.  The undershoot of a reported ``sup_kl`` is that lower
bound minus the reported value: positive means the report is not an upper
bound.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

GRID = 4097
CHUNK = 1 << 18
# differences below this are rounding between two evaluations of one value
RESOLUTION = 1e-12


def dense_sup(m: int, log_odds: float) -> float:
    """Largest risk over the breakpoints and a uniform grid of (0, U_K]."""
    u = float(expit(log_odds))
    s = u / math.e
    el = math.exp(log_odds)
    n = np.arange(1, m + 1, dtype=float)
    ts = np.concatenate([n * el / (n * el + m), np.linspace(0.0, u, GRID)[1:]])
    best = -math.inf
    for start in range(0, len(ts), CHUNK):
        t = ts[start:start + CHUNK]
        t = t[(t > 0.0) & (t <= u)]
        if t.size == 0:
            continue
        lam = el * (1.0 - t) / t
        full = np.minimum(np.floor(m / lam), m)
        rem = np.maximum(1.0 - full * lam / m, 0.0)
        rem_term = np.zeros_like(rem)
        pos = rem > 0.0
        rem_term[pos] = rem[pos] * np.log(rem[pos] * m)
        tail = np.maximum(full * (lam / m) * np.log(lam) + rem_term, 0.0)
        bern = t * (np.log(t) - math.log(s)) + (1.0 - t) * (np.log1p(-t) - math.log1p(-s))
        best = max(best, float(np.max(bern + t * tail)))
    return best


def undershoots(rows) -> list[float]:
    """Dense supremum minus reported ``sup_kl`` per row with U_K > 0."""
    out = []
    for r in rows:
        if r["U_K"] == 0.0:
            continue
        gap = dense_sup(r["M"], r["log_odds_UK"]) - r["sup_kl"]
        out.append(round(gap / RESOLUTION) * RESOLUTION)
    return out
