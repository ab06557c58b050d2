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

:func:`diameter` and :func:`token_cap` are column kernels: they take the
columns of a batch and return columns, each entry equal to the one-row
call's bit for bit (see :mod:`censet.numerics` for the exactness rule).  M
is a list of Python ints, exact at any size, and ``log M`` is ``math``'s
log of the int.  The commands read a parsed batch's columns; :func:`geometry`
makes the per-row :class:`SetGeometry` that the oracles and the tests read:
the observation itself, a :class:`~censet.observation.TopKObservation` with
its M, ``U_K`` and log-odds added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .numerics import columns, expit, libm, policy
from .observation import TopKObservation


@dataclass(frozen=True, eq=False)
class SetGeometry(TopKObservation):
    """An observation with its ambiguity diameter: M = V - K censored tokens.

    ``log_odds`` is ``log(M) + tau - log_ZA``; ``U_K = sigmoid(log_odds)``.
    Keeping the log-odds alongside ``U_K`` means ``1 - U_K`` is always
    available at full relative precision via ``sigmoid(-log_odds)``.
    """

    M: int
    U_K: float
    log_odds: float

    @cached_property
    def alpha(self) -> np.ndarray:
        """Head conditional ``exp(score - log_ZA)``, summing to 1 to machine
        precision even under large score spreads."""
        return np.exp(self.scores - self.log_ZA)

    @cached_property
    def censored_ids(self) -> np.ndarray:
        """Sorted ids of the censored tokens."""
        return _hidden_ids(self.token_ids, self.vocab_size)


def _hidden_ids(token_ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Sorted ids of the tokens of the vocabulary not in ``token_ids``."""
    hidden = np.ones(vocab_size, dtype=bool)
    hidden[token_ids] = False
    return np.flatnonzero(hidden)


def diameter(m, tau, log_za):
    """``(U_K, log_odds)`` from M, ``tau`` and ``log_ZA``; (0.0, -inf) when M = 0.

    Takes an int M and floats, or a list of M and float columns (see
    :func:`censet.numerics.columns`).
    """
    return columns(_diameter, m, tau, log_za)


def _diameter(m: list, tau, log_za) -> tuple[np.ndarray, np.ndarray]:
    # an M = 0 row reads log 1 until its log-odds become -inf
    log_odds = libm(math.log, [n or 1 for n in m]) + tau - log_za
    log_odds = np.where(np.array(m, dtype=bool), log_odds, -math.inf)
    return expit(log_odds), log_odds


def geometry(obs: TopKObservation) -> SetGeometry:
    """Ambiguity diameter of the compatible set; exactly 0 when M = 0."""
    m = obs.vocab_size - obs.k
    row = (getattr(obs, f.name) for f in fields(TopKObservation))
    return SetGeometry(*row, m, *diameter(m, obs.tau, obs.log_ZA))


def token_cap(log_odds, m, t):
    """:func:`per_token_cap` from ``log_odds`` and M > 0, for t in [0, U_K];
    of floats and an int M, or of float columns and a list of M."""
    return columns(_token_cap, log_odds, m, t)


def _token_cap(log_odds, m: list, t) -> np.ndarray:
    return libm(math.exp, log_odds) * (1.0 - np.asarray(t)) / libm(float, m)


def per_token_cap(geom: SetGeometry, t: float) -> float:
    """Largest probability one censored token can carry at tail mass ``t``.

    Equals ``(1-t) * U_K / (M * (1-U_K))``, evaluated as
    ``exp(log_odds) * (1-t) / M`` so the value survives U_K -> 1.
    """
    if geom.M == 0:
        raise ValueError("per-token cap undefined: no censored tokens")
    tol = policy().membership_tol
    if t < -tol or t > geom.U_K + tol:
        raise ValueError(f"tail mass t={t!r} outside [0, U_K={geom.U_K!r}]")
    return token_cap(geom.log_odds, geom.M, min(max(t, 0.0), geom.U_K))
