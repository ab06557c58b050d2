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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .identified_set import SetGeometry
from .numerics import POLICY, expit

_INV_E = 1.0 / math.e
SECOND_ORDER_COEFF = 0.5 / math.e - 0.5 / math.e**2

# verdict values for critical-K certification
IMPOSSIBLE = "IMPOSSIBLE"
OPEN = "OPEN"
THRESHOLD = "THRESHOLD"


@dataclass(frozen=True)
class BinaryReserve:
    """Balancing reserve and its certified lower bound.

    ``limit`` marks the exact boundary values returned at U = 0 (0, 0) and
    U = 1 (1/2, log 2).
    """

    s_star: float
    r_bin: float
    limit: bool = False


@dataclass(frozen=True, eq=False)
class EstimatorSpec:
    """A candidate recovery distribution.

    Head token v receives ``(1-s) * alpha_v``; censored token u receives
    ``s * w_u`` where the conditional weights w sum to 1.  ``tail_weights``
    is aligned with the geometry's sorted censored ids; ``None`` means the
    uniform rule w_u = 1/M.
    """

    s: float
    tail_weights: np.ndarray | None = None

    @property
    def is_uniform(self) -> bool:
        return self.tail_weights is None


def _check_diameter(u: float) -> None:
    if not 0.0 <= u <= 1.0 or math.isnan(u):
        raise ValueError(f"diameter must lie in [0, 1], got {u!r}")


def reserve(u: float) -> tuple[float, float]:
    """``(s*, R_bin)`` at a diameter u in [0, 1]; see :func:`binary_reserve`."""
    if u == 0.0:
        return 0.0, 0.0
    if u == 1.0:
        return 0.5, math.log(2.0)
    log_a = math.log(u) + (1.0 - u) / u * math.log1p(-u)
    return expit(log_a), float(np.logaddexp(0.0, log_a))


def binary_reserve(u: float) -> BinaryReserve:
    """Closed-form balancing reserve and lower bound at diameter ``u``.

    Computed in the log domain: ``log A = log u + ((1-u)/u) log1p(-u)``,
    then ``s* = sigmoid(log A)`` and ``R_bin = log(1 + A)``, stable down to
    u ~ 1e-300 and up through u -> 1 (where A -> 1, s* -> 1/2,
    R_bin -> log 2).
    """
    _check_diameter(u)
    return BinaryReserve(*reserve(u), limit=u in (0.0, 1.0))


def g_envelope(u: float, t: float, s: float) -> float:
    """Upper envelope of the uniform-tail estimator's risk at tail mass t.

    Evaluated through the simplified identity

        G(t) = log(1-t) - (1-t) log(1-s) + t log(u / ((1-u) s)),

    algebraically equal to the two-term defining form; G(0) = -log(1-s).
    The cap factor log(u/((1-u)s)) diverges as u -> 1.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"diameter must lie in (0, 1), got {u!r}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"reserve must lie in (0, 1), got {s!r}")
    if t < -POLICY.membership_tol or t > u + POLICY.membership_tol:
        raise ValueError(f"tail mass t={t!r} outside [0, u={u!r}]")
    t = min(max(t, 0.0), u)
    return _envelope(t, math.log1p(-s), _cap_factor(u, s))


def _cap_factor(u: float, s: float) -> float:
    return math.log(u) - math.log1p(-u) - math.log(s)


def _envelope(t: float, log1m_s: float, cap_factor: float) -> float:
    return math.log1p(-t) - (1.0 - t) * log1m_s + t * cap_factor


def g_max(u: float) -> tuple[float, float]:
    """Maximum of the envelope at reserve ``s = u/e`` and its argmax.

    The envelope is concave in t with stationary point
    ``1 - t = 1 / (log(1-s) + log(u/((1-u)s)))``; the stationary value is
    compared against both endpoints and the larger wins (the first of
    0, u and the stationary point on a tie).
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"diameter must lie in (0, 1), got {u!r}")
    s = u * _INV_E
    log1m_s, cap_factor = math.log1p(-s), _cap_factor(u, s)
    # with s = u/e the cap factor collapses to 1 - log(1-u)
    denom = (1.0 - math.log1p(-u)) + log1m_s
    candidates = [u]
    if denom > 0.0:
        t_dagger = 1.0 - 1.0 / denom
        if 0.0 < t_dagger < u:
            candidates.append(t_dagger)
    best, best_t = _envelope(0.0, log1m_s, cap_factor), 0.0
    for t in candidates:
        value = _envelope(t, log1m_s, cap_factor)
        if value > best:
            best, best_t = value, t
    return best, best_t


@dataclass(frozen=True)
class MinimaxCertificate:
    """Everything a report needs about one diameter value.

    ``r_bin`` is a certified impossibility lower bound, not the minimax
    value; ``g_max`` exposes the finite-diameter gap above it.
    """

    u: float
    s_star: float
    r_bin: float
    g_max: float
    g_argmax: float
    first_order: float
    second_order_coeff: float = SECOND_ORDER_COEFF
    limit: bool = False


def certificate(u: float) -> tuple[float, float, float, float, float]:
    """``(s_star, r_bin, g_max, g_argmax, first_order)`` at u in [0, 1].

    The fields of :func:`minimax_certificate`, without its checks.
    """
    s_star, r_bin = reserve(u)
    if u == 0.0:
        gmax, argmax = 0.0, 0.0
    elif u == 1.0:
        gmax, argmax = math.inf, 1.0
    else:
        gmax, argmax = g_max(u)
    return s_star, r_bin, gmax, argmax, u * _INV_E


def minimax_certificate(u: float) -> MinimaxCertificate:
    _check_diameter(u)
    s_star, r_bin, gmax, argmax, first_order = certificate(u)
    return MinimaxCertificate(
        u=u,
        s_star=s_star,
        r_bin=r_bin,
        g_max=gmax,
        g_argmax=argmax,
        first_order=first_order,
        limit=u in (0.0, 1.0),
    )


def symmetric_estimator(geom: SetGeometry, s: float | None = None) -> EstimatorSpec:
    """Uniform-tail estimator; default reserve is U_K / e.

    With no censored tokens, or a diameter that underflows to 0, the truth
    is identified to double precision and the reserve collapses to 0.
    """
    if geom.M == 0 or geom.U_K == 0.0:
        return EstimatorSpec(s=0.0)
    if s is None:
        s = geom.U_K * _INV_E
    if not 0.0 < s < 1.0:
        raise ValueError(f"reserve must lie in (0, 1), got {s!r}")
    return EstimatorSpec(s=float(s))


def _bernoulli_kl(t: float, s: float) -> float:
    """KL between Bernoulli(t) and Bernoulli(s), with the edge conventions."""
    if t > 0.0 and s == 0.0:
        return math.inf
    if t < 1.0 and s == 1.0:
        return math.inf
    out = 0.0
    if t > 0.0:
        out += t * (math.log(t) - math.log(s))
    if t < 1.0:
        out += (1.0 - t) * (math.log1p(-t) - math.log1p(-s))
    return out


def _concentrated_tail_kl(
    m: int, log_odds: float, t: float, n_full: int | None
) -> tuple[int, float, float]:
    """Max of KL(r || uniform_M) over tail conditionals obeying the cap.

    At tail mass t the cap allows ``r_u <= lam/M`` with
    ``lam = exp(log_odds) (1-t)/t``; the maximizer is an extreme point of
    the capped simplex: ``floor(M/lam)`` tokens at the cap plus one token
    absorbing the remainder.  ``n_full=None`` takes that floor; at a cap
    breakpoint ``t_n`` the caller passes n itself, since the float ratio
    M/lam can land a hair below n there.  Returns (n_full, remainder,
    kl_value).
    """
    lam = math.exp(log_odds) * (1.0 - t) / t
    if lam <= 0.0:
        return m, 0.0, 0.0
    if n_full is None:
        n_full = math.floor(m / lam)
    n_full = min(n_full, m)
    rem = max(0.0, 1.0 - n_full * lam / m)
    if n_full >= m:
        # all tokens at the cap: the conditional is exactly uniform
        rem = 0.0
    value = n_full * (lam / m) * math.log(lam)
    if rem > 0.0:
        value += rem * math.log(rem * m)
    return n_full, rem, max(0.0, value)


def _sup_candidates(
    m: int, lo: float, u: float, s: float
) -> list[tuple[float, float]]:
    """(risk, t) at the one or two breakpoints that can hold the sup.

    For M censored tokens, log-odds ``lo``, diameter ``u`` and a uniform
    tail rule with reserve ``s`` (see :func:`worst_case_risk`).
    """
    if u == 0.0:
        # only t = 0 is compatible: no censored tokens, or an underflowed tail
        if m == 0 and s != 0.0:
            raise ValueError("estimator reserves tail mass but M = 0")
        return [(-math.log1p(-s), 0.0)]
    if not 0.0 < s < 1.0:
        raise ValueError(f"reserve must lie in (0, 1), got {s!r}")
    d = math.log1p(-s) + lo - math.log(s)
    log_n = math.log(d - 1.0) + math.log(m) - lo if d > 1.0 else -math.inf
    n_dagger = m if log_n >= math.log(m) else math.exp(log_n)
    out = []
    for n in sorted({math.floor(n_dagger), min(math.ceil(n_dagger), m)}):
        if n == 0:
            out.append((-math.log1p(-s), 0.0))
            continue
        t = min(expit(lo + math.log(n / m)), u)
        _, _, tail_kl = _concentrated_tail_kl(m, lo, t, n)
        out.append((_bernoulli_kl(t, s) + t * tail_kl, t))
    return out


def worst_case_risk(geom: SetGeometry, est: EstimatorSpec) -> tuple[float, float]:
    """Exact supremum over the compatible set of KL against ``est``.

    With ``c = exp(log_odds) / M`` the cap binds at ``t_n = n c / (1 + n c)``,
    n = 0..M (``t_M = U_K``).  Between ``t_n`` and ``t_{n+1}`` the adversary
    caps n tokens and puts ``y = t - n c (1-t)`` on one more; the risk

        -t log s + (1-t) log((1-t)/(1-s)) + t log M + n c (1-t) log(c (1-t)) + y log y

    is a sum of linear and convex terms, so each piece peaks at a breakpoint.
    There y = 0 and the risk is the concave envelope ``G(t_n)`` of
    :func:`g_envelope`, stationary at ``1 + n c = d``, ``d = log(1-s) +
    log_odds - log s``.  So the sup is at floor or ceil of ``n_dagger =
    (d-1) M exp(-log_odds)`` (0 when d <= 1) clamped to [0, M]: only those
    breakpoints, ``t_n = sigmoid(log(n/M) + log_odds)`` capped at U_K, are
    evaluated, as ``d(t_n || s) + t_n * max KL(r || uniform)`` with exactly
    n tokens at the cap (:func:`_concentrated_tail_kl`).  The oracles'
    ``risk_at_tail_mass`` evaluates the same closed form at any t.  Returns
    (sup_kl, argmax_t).
    """
    if geom.U_K != 0.0 and not est.is_uniform:
        raise ValueError("closed-form best response requires a uniform tail rule")
    return max(_sup_candidates(geom.M, geom.log_odds, geom.U_K, est.s))


def symmetric_sup(m: int, log_odds: float, u: float) -> tuple[float, float]:
    """:func:`worst_case_risk` of :func:`symmetric_estimator` at its default
    reserve, from M, ``log_odds`` and ``U_K``."""
    s = 0.0 if m == 0 or u == 0.0 else u * _INV_E
    return max(_sup_candidates(m, log_odds, u, s))


def verdicts(us: Sequence[float], delta: float) -> list[tuple[float, str]]:
    """``(R_bin, verdict)`` for each diameter in ``us`` at KL tolerance delta.

    THRESHOLD when R_bin lies within the policy margin of delta, else
    IMPOSSIBLE when R_bin exceeds delta (recovery within delta is certified
    impossible), else OPEN (the lower bound does not rule recovery out).
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    margin = POLICY.verdict_margin
    out = []
    for u in us:
        r = reserve(u)[1]
        if abs(r - delta) <= margin:
            out.append((r, THRESHOLD))
        elif r > delta:
            out.append((r, IMPOSSIBLE))
        else:
            out.append((r, OPEN))
    return out

