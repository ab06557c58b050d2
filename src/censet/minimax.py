"""Certified recovery bounds and estimators for censored observations.

Given ambiguity diameter ``U``, an estimator that reserves tail mass ``s``
faces at least the larger of the two endpoint divergences

    kl_zero(s) = -log(1 - s)                             (zero-tail truth)
    kl_full(s) = (1-U) log((1-U)/(1-s)) + U log(U/s)     (maximal uniform tail)

Balancing the two gives the reserve ``s* = A/(1+A)`` with
``A = U (1-U)^((1-U)/U)`` and the certified lower bound
``R_bin = -log(1 - s*)``.  R_bin is an impossibility floor for *any*
estimator, never the exact minimax value: an interior adversary that
concentrates its tail up to the per-token cap can push the risk of the
symmetric estimator above R_bin, up to the envelope

    G_U(t) = (1-t) log((1-t)/(1-s)) + t log(U (1-t) / ((1-U) s)),

whose maximum over t in [0, U] (at reserve s = U/e) bounds the symmetric
estimator's worst case from above.  All divergences are in nats.

:func:`reserve`, :func:`g_max`, :func:`certificate` and
:func:`symmetric_sup` are column kernels, each the one implementation of
its formula.  They take a float and an int M, or float columns and a list
of M, and return the same in kind (see :func:`censet.numerics.columns`).
A column entry equals the one-row call's bit for bit: every log and exp is
``math``'s, numpy does only IEEE-exact arithmetic, and everything derived
from M (``log M``, ``n / M``, the candidate counts) is computed on Python
ints, exact beyond 2^53.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import columns, expit, libm, policy

_INV_E = 1.0 / math.e
_LOG_2 = math.log(2.0)
SECOND_ORDER_COEFF = 0.5 / math.e - 0.5 / math.e**2

# verdict values for critical-K certification
IMPOSSIBLE = "IMPOSSIBLE"
OPEN = "OPEN"
THRESHOLD = "THRESHOLD"


def reserve(u):
    """Closed-form balancing reserve and lower bound ``(s*, R_bin)`` at u.

    Computed in the log domain: ``log A = log u + ((1-u)/u) log1p(-u)``,
    then ``s* = sigmoid(log A)`` and ``R_bin = log(1 + A)``, stable down to
    u ~ 1e-300 and up through u -> 1 (where A -> 1, s* -> 1/2,
    R_bin -> log 2).  The boundary values are exact: (0, 0) at u = 0 and
    (1/2, log 2) at u = 1.  Raises ``ValueError`` for u outside [0, 1] or
    NaN.  Of a float or of a float column.
    """
    return columns(_reserve, u)


def _reserve(u) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    _check_range(u, (0.0 <= u) & (u <= 1.0), "[0, 1]")
    s_star = np.where(u == 1.0, 0.5, 0.0)
    r_bin = np.where(u == 1.0, _LOG_2, 0.0)
    inside = (0.0 < u) & (u < 1.0)
    v = u[inside]
    log_a = libm(math.log, v) + (1.0 - v) / v * libm(math.log1p, -v)
    s_star[inside], r_bin[inside] = expit(log_a), np.logaddexp(0.0, log_a)
    return s_star, r_bin


def _check_range(u: np.ndarray, ok: np.ndarray, interval: str) -> None:
    if not ok.all():
        bad = u[np.argmin(ok)].item()
        raise ValueError(f"diameter must lie in {interval}, got {bad!r}")


def _envelope(t, log1m_s, cap_factor) -> np.ndarray:
    return libm(math.log1p, -t) - (1.0 - t) * log1m_s + t * cap_factor


def g_max(u):
    """Maximum of the envelope at reserve ``s = u/e`` and its argmax, of a
    float or of a float column.

    The envelope is concave in t with stationary point
    ``1 - t = 1 / (log(1-s) + log(u/((1-u)s)))``; the stationary value is
    compared against both endpoints and the larger wins (the first of
    0, u and the stationary point on a tie).
    """
    return columns(_g_max, u)


def _g_max(u) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    _check_range(u, (0.0 < u) & (u < 1.0), "(0, 1)")
    s = u * _INV_E
    log1m_u, log1m_s = libm(math.log1p, -u), libm(math.log1p, -s)
    cap_factor = libm(math.log, u) - log1m_u - libm(math.log, s)
    zeros = np.zeros(len(u))
    best = _envelope(zeros, log1m_s, cap_factor)
    value = _envelope(u, log1m_s, cap_factor)
    take = value > best
    best, best_t = np.where(take, value, best), np.where(take, u, zeros)
    # with s = u/e the cap factor collapses to 1 - log(1-u)
    denom = (1.0 - log1m_u) + log1m_s
    t_dagger = 1.0 - 1.0 / denom
    stationary = (denom > 0.0) & (0.0 < t_dagger) & (t_dagger < u)
    t_dagger = np.where(stationary, t_dagger, 0.0)
    value = _envelope(t_dagger, log1m_s, cap_factor)
    take = stationary & (value > best)
    return np.where(take, value, best), np.where(take, t_dagger, best_t)


class Certificate(NamedTuple):
    """Everything a report needs about one diameter value (or a column of
    them, each field a column).

    ``r_bin`` is a certified impossibility lower bound, not the minimax
    value; ``g_max`` exposes the finite-diameter gap above it, attained at
    tail mass ``g_argmax``; ``first_order`` is the reserve's first-order
    term u/e.
    """

    s_star: float
    r_bin: float
    g_max: float
    g_argmax: float
    first_order: float


def certificate(u):
    """:class:`Certificate` at a diameter u in [0, 1], or a column of them;
    raises like :func:`reserve`."""
    return columns(_certificate, u)


def _certificate(u) -> Certificate:
    u = np.asarray(u, dtype=np.float64)
    s_star, r_bin = _reserve(u)
    gmax = np.where(u == 1.0, math.inf, 0.0)
    argmax = np.where(u == 1.0, 1.0, 0.0)
    inside = (0.0 < u) & (u < 1.0)
    gmax[inside], argmax[inside] = _g_max(u[inside])
    return Certificate(s_star, r_bin, gmax, argmax, u * _INV_E)


def symmetric_sup(m, log_odds, u, s=None):
    """Exact supremum over the compatible set of KL against the symmetric
    estimator, which gives head token v ``(1-s) * alpha_v`` and each of the
    M censored tokens ``s / M``.

    For M censored tokens, log-odds ``log_odds`` and diameter ``u`` (U_K):
    an int and floats, or a list of M and float columns.  The default
    reserve is ``u / e``; with no censored tokens, or a diameter that
    underflows to 0, the truth is identified to double precision and the
    default collapses to 0.  An explicit reserve is a float or a column.

    With ``c = exp(log_odds) / M`` the cap binds at ``t_n = n c / (1 + n c)``,
    n = 0..M (``t_M = U_K``).  Between ``t_n`` and ``t_{n+1}`` the adversary
    caps n tokens and puts ``y = t - n c (1-t)`` on one more; the risk

        -t log s + (1-t) log((1-t)/(1-s)) + t log M + n c (1-t) log(c (1-t)) + y log y

    is a sum of linear and convex terms, so each piece peaks at a breakpoint.
    There y = 0 and the risk is the concave envelope ``G_U(t_n)`` of the
    module docstring, stationary at ``1 + n c = d``, ``d = log(1-s) +
    log_odds - log s``.  So the sup is at floor or ceil of ``n_dagger =
    (d-1) M exp(-log_odds)`` (0 when d <= 1) clamped to [0, M]: only those
    breakpoints, ``t_n = sigmoid(log(n/M) + log_odds)`` capped at U_K, are
    evaluated, as ``d(t_n || s) + t_n * max KL(r || uniform)`` with exactly
    n tokens at the cap, ``floor(M/lam)`` of them for ``lam = exp(log_odds)
    (1-t)/t``, and one more holding the remainder.  The oracles'
    ``risk_at_tail_mass`` evaluates the same closed form at any t.  Returns
    (sup_kl, argmax_t); of two candidates with equal risk the larger t.
    """
    return columns(_symmetric_sup, m, log_odds, u, s)


def _symmetric_sup(m: list, log_odds, u, s) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    empty = ~np.array(m, dtype=bool)
    zero = u == 0.0
    if s is None:
        s = np.where(empty | zero, 0.0, u * _INV_E)
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), u.shape)
    _check_reserves(empty, zero, s)
    log1m_s = libm(math.log1p, -s)
    # the risk at t = 0, the only compatible tail mass when U_K = 0
    sup, at = -log1m_s, np.zeros(len(u))
    live = np.flatnonzero(~zero)
    sup[live], at[live] = _breakpoint_sup(
        [m[i] for i in live.tolist()], np.asarray(log_odds, dtype=np.float64)[live],
        u[live], s[live], log1m_s[live], sup[live],
    )
    return sup, at


def _check_reserves(empty: np.ndarray, zero: np.ndarray, s: np.ndarray) -> None:
    """Raise the reserve error of the first row with one."""
    reserves_mass = zero & empty & (s != 0.0)
    bad = reserves_mass | np.where(zero, ~((0.0 <= s) & (s < 1.0)),
                                   ~((0.0 < s) & (s < 1.0)))
    if bad.any():
        i = int(np.argmax(bad))
        if reserves_mass[i]:
            raise ValueError("estimator reserves tail mass but M = 0")
        interval = "[0, 1)" if zero[i] else "(0, 1)"
        raise ValueError(f"reserve must lie in {interval}, got {s[i].item()!r}")


def _breakpoint_sup(m: list, lo, u, s, log1m_s, risk_at_zero):
    """(sup, argmax) over the one or two breakpoints that can hold the sup,
    for rows with U_K > 0 and a reserve in (0, 1)."""
    log_m, log_s = libm(math.log, m), libm(math.log, s)
    d = log1m_s + lo - log_s
    above = d > 1.0
    log_n = np.where(above, libm(math.log, np.where(above, d - 1.0, 1.0)) + log_m - lo,
                     -math.inf)
    every = (log_n >= log_m).tolist()
    # below log M, exp(log_n) < M stays in the float range
    n_dagger = libm(math.exp, np.where(every, 0.0, log_n)).tolist()
    cells = list(zip(m, every, n_dagger))
    floors = [n if full else math.floor(x) for n, full, x in cells]
    ceils = [n if full else min(math.ceil(x), n) for n, full, x in cells]
    # both candidates of every row in one pass: the smaller ones, then the
    # larger, which wins only if its (risk, t) is larger
    both = [np.concatenate([x, x]) for x in (
        libm(float, m), lo, libm(math.exp, lo), u, log_s, log1m_s, risk_at_zero)]
    risk, t = _breakpoint_risk(
        [*map(min, floors, ceils), *map(max, floors, ceils)], m + m, *both)
    n = len(m)
    take = (risk[n:] > risk[:n]) | ((risk[n:] == risk[:n]) & (t[n:] > t[:n]))
    return np.where(take, risk[n:], risk[:n]), np.where(take, t[n:], t[:n])


def _breakpoint_risk(ns, m, m_float, lo, exp_lo, u, log_s, log1m_s, risk_at_zero):
    """``(risk, t_n)`` at breakpoint n of each row: ``d(t_n || s) + t_n *
    max KL(r || uniform)`` with n tokens at the cap, and t = 0 at n = 0."""
    capped = np.array(ns, dtype=bool)
    t = expit(lo + libm(math.log, [n / k if n else 1.0 for n, k in zip(ns, m)]))
    # min(t_n, U_K); a row at n = 0 reads U_K > 0 in its place until the end
    t = np.where((u < t) | ~capped, u, t)
    lam = exp_lo * (1.0 - t) / t
    # the cap holds min(n, M) tokens; one more token takes the remainder
    n_float = libm(float, list(map(min, ns, m)))
    rem = 1.0 - n_float * lam / m_float
    # with all M tokens at the cap the conditional is exactly uniform
    rem = np.where((rem > 0.0) & ~np.array(list(map(operator.ge, ns, m)), dtype=bool),
                   rem, 0.0)
    spread = lam > 0.0
    tail_kl = n_float * (lam / m_float) * libm(math.log, np.where(spread, lam, 1.0))
    has_rem = rem > 0.0
    tail_kl = np.where(has_rem, tail_kl + rem * libm(
        math.log, np.where(has_rem, rem * m_float, 1.0)), tail_kl)
    tail_kl = np.where(spread & (tail_kl > 0.0), tail_kl, 0.0)
    below = t < 1.0
    kl = t * (libm(math.log, t) - log_s)
    kl = np.where(below, kl + (1.0 - t) * (
        libm(math.log1p, -np.where(below, t, 0.0)) - log1m_s), kl)
    risk = kl + t * tail_kl
    return np.where(capped, risk, risk_at_zero), np.where(capped, t, 0.0)


def verdicts(us: Sequence[float], delta: float) -> list[tuple[float, str]]:
    """``(R_bin, verdict)`` for each diameter in ``us`` at KL tolerance delta.

    THRESHOLD when R_bin lies within the policy margin of delta, else
    IMPOSSIBLE when R_bin exceeds delta (recovery within delta is certified
    impossible), else OPEN (the lower bound does not rule recovery out).
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    margin = policy().verdict_margin
    r_bins = reserve(np.asarray(us, dtype=np.float64))[1].tolist()
    return [
        (r, THRESHOLD if abs(r - delta) <= margin
         else IMPOSSIBLE if r > delta else OPEN)
        for r in r_bins
    ]
