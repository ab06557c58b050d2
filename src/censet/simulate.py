"""Synthetic teachers, censoring, K-sweeps, and multi-position composition.

No model runtime lives here: real logit dumps are ingested through the
observation format with a full-length topk (K = V) and re-censored
internally, while synthetic teachers stand in for desk testing.  Positions
are independent units of work; each draws from its own counter-derived
random stream, so parallel evaluation cannot change results.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .identified_set import SetGeometry, geometry
from .minimax import reserve, symmetric_sup
from .numerics import logsumexp
from .observation import (
    AccessMode,
    LogSummary,
    TopKObservation,
    ValidationError,
    _check_head_mass,
    _tail_mass,
)


@dataclass(frozen=True)
class GaussianIID:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        # a non-finite mean or sd draws non-finite logits, and numpy's own
        # error for sd < 0 names no parameter
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.sd) and self.sd >= 0.0):
            raise ValueError(f"sd must be finite and >= 0, got {self.sd!r}")


@dataclass(frozen=True)
class DirichletSoftmax:
    concentration: float = 1.0

    def __post_init__(self):
        # numpy draws all zeros at concentration 0, which the log clamp
        # would turn into a uniform teacher
        if not (math.isfinite(self.concentration) and self.concentration > 0.0):
            raise ValueError(
                f"concentration must be finite and > 0, got {self.concentration!r}"
            )


@dataclass(frozen=True)
class PeakedHead:
    """Head tokens at +gap, the rest at -gap (separation 2*gap)."""

    head_size: int = 1
    gap: float = 10.0

    def __post_init__(self):
        # a negative gap would put the tail above the head
        if not (math.isfinite(self.gap) and self.gap >= 0.0):
            raise ValueError(f"gap must be finite and >= 0, got {self.gap!r}")


LogitLaw = GaussianIID | DirichletSoftmax | PeakedHead


@dataclass(frozen=True)
class SyntheticTeacherConfig:
    vocab_size: int
    law: LogitLaw
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        # an infinite temperature would flatten every teacher to uniform
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValueError(
                f"temperature must be finite and > 0, got {self.temperature!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def _position_rng(seed: int, position: int) -> np.random.Generator:
    # counter-based stream: (seed, position) keys a Philox generator, so
    # positions can be generated in any order or in parallel
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, position], dtype=np.uint64))
    )


def _draw_logits(law: LogitLaw, v: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, GaussianIID):
        return rng.normal(law.mean, law.sd, size=v)
    if isinstance(law, DirichletSoftmax):
        probs = rng.dirichlet(np.full(v, law.concentration))
        return np.log(np.maximum(probs, 1e-300))
    if isinstance(law, PeakedHead):
        if not 1 <= law.head_size < v:
            raise ValueError(
                f"head_size must lie in [1, vocab_size), got {law.head_size}"
            )
        logits = np.full(v, -law.gap)
        logits[: law.head_size] = law.gap
        return logits
    raise TypeError(f"unknown logit law: {law!r}")


def generate_teacher(
    config: SyntheticTeacherConfig, n_positions: int
) -> np.ndarray:
    """Deterministic (n_positions, V) logit matrix for the given config.

    Logits are divided by the temperature before any downstream use.
    """
    if n_positions < 1:
        raise ValueError(f"n_positions must be >= 1, got {n_positions}")
    rows = [
        _draw_logits(config.law, config.vocab_size, _position_rng(config.seed, i))
        for i in range(n_positions)
    ]
    return np.stack(rows) / config.temperature


def censor(
    logits: np.ndarray,
    k: int,
    mode: AccessMode = AccessMode.LOGITS,
    position_id: str = "",
) -> TopKObservation:
    """Top-K censoring of a full logit vector.

    Ties at the threshold break toward the lower token id (stable sort).
    In logprobs mode the scores are the log-softmax of the full vector at
    the selected tokens, clipped to <= 0 to shed float dust.
    """
    logits = np.asarray(logits, dtype=float)
    v = len(logits)
    if not 1 <= k <= v:
        raise ValueError(f"K must lie in [1, {v}], got {k}")
    order = np.argsort(-logits, kind="stable")
    top = order[:k]
    if mode is AccessMode.LOGPROBS:
        scores = np.minimum(logits[top] - logsumexp(logits), 0.0)
    else:
        scores = logits[top]
    return TopKObservation(
        vocab_size=v,
        token_ids=top,
        scores=scores,
        mode=mode,
        position_id=position_id,
    )


@dataclass(frozen=True)
class SweepRow:
    """Aggregate statistics for one K (population standard deviations)."""

    k: int
    uk_mean: float
    uk_sd: float
    rbin_mean: float
    tail_mass_mean: float
    n: int


def _first_nonfinite(scores: np.ndarray) -> int:
    bad = np.flatnonzero(~np.isfinite(scores))
    return int(bad[0]) if len(bad) else len(scores)


def _sweep_position(
    z: np.ndarray, ks: Sequence[int]
) -> list[tuple[SetGeometry, float]]:
    """Geometry and hidden tail mass of one position at every K in ``ks``.

    Bit for bit equal to ``geometry(summarize(censor(z, k)))`` and
    ``hidden_tail_mass(censor(z, k, mode=AccessMode.LOGPROBS))``, with the
    same validation, from one stable sort of the row: each K reads a prefix
    of the same order, so ties still break toward the lower token id.
    ``ks`` must be sorted ascending and lie in [1, V].
    """
    if not ks:
        return []
    v = len(z)
    order = np.argsort(-z, kind="stable")[: ks[-1]]
    head = z[order]
    logprobs = np.minimum(head - logsumexp(z), 0.0)
    bad_logit = _first_nonfinite(head)
    bad_logprob = _first_nonfinite(logprobs)
    swept = []
    for k in ks:
        for scores, bad in ((head, bad_logit), (logprobs, bad_logprob)):
            if bad < k:
                raise ValidationError(
                    f"non-finite score {float(scores[bad])!r} for token {order[bad]}"
                )
        scores = head[:k]
        log_za = logsumexp(scores)
        summary = LogSummary(
            log_ZA=log_za,
            tau=float(scores[-1]),
            M=v - k,
            alpha=np.exp(scores - log_za),
            token_ids=order[:k],
            vocab_size=v,
        )
        log_head = logsumexp(logprobs[:k])
        _check_head_mass(log_head)
        swept.append((geometry(summary), _tail_mass(log_head)))
    return swept


def _sweep(
    positions: np.ndarray, k_list: Sequence[int], with_sup: bool
) -> list[tuple[SweepRow, float]]:
    """Sweep rows plus, when ``with_sup`` is set, the mean estimator sup per K.

    Each position is sorted once and shared by all Ks (see
    :func:`_sweep_position`); working memory stays O(V) per position.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, v = positions.shape
    ks = sorted(k_list)
    if ks and ks[0] < 1:
        raise ValueError(f"K must lie in [1, {v}], got {ks[0]}")
    swept = [k for k in ks if k <= v]
    uks, rbins, tails, sups = (np.empty((len(swept), n)) for _ in range(4))
    for i, z in enumerate(positions):
        for j, (geom, tail) in enumerate(_sweep_position(z, swept)):
            uks[j, i] = geom.U_K
            rbins[j, i] = reserve(geom.U_K)[1]
            tails[j, i] = tail
            if with_sup:
                sups[j, i] = symmetric_sup(geom.M, geom.log_odds, geom.U_K)[0]
    rows = [
        (
            SweepRow(
                k=k,
                uk_mean=float(uks[j].mean()),
                uk_sd=float(uks[j].std(ddof=0)),
                rbin_mean=float(rbins[j].mean()),
                tail_mass_mean=float(tails[j].mean()),
                n=n,
            ),
            float(sups[j].mean()) if with_sup else math.nan,
        )
        for j, k in enumerate(swept)
    ]
    for k in ks[len(swept):]:
        warnings.warn(f"skipping K={k}: exceeds vocab_size {v}")
        rows.append(
            (
                SweepRow(
                    k=k,
                    uk_mean=math.nan,
                    uk_sd=math.nan,
                    rbin_mean=math.nan,
                    tail_mass_mean=math.nan,
                    n=0,
                ),
                math.nan,
            )
        )
    return rows


def ksweep(positions: np.ndarray, k_list: Sequence[int]) -> list[SweepRow]:
    """Censor every position at each K and aggregate the per-position stats.

    Reports mean and population sd of the diameter, the mean lower bound,
    and the mean hidden tail mass under the normalized reinterpretation of
    the same positions.  Each position is sorted once; every K reads a
    prefix of that order.  K values above V produce a skipped row.
    """
    return [row for row, _ in _sweep(positions, k_list, with_sup=False)]


def ksweep_with_sup_kl(
    positions: np.ndarray, k_list: Sequence[int]
) -> list[tuple[SweepRow, float]]:
    """:func:`ksweep` rows, each with the mean symmetric-estimator sup.

    The sup is ``worst_case_risk`` of the reserve-``U_K/e`` estimator on
    each position's geometry at that K, from the same single sort per
    position; skipped rows carry NaN.
    """
    return _sweep(positions, k_list, with_sup=True)


def average_risk(
    r_bins: Sequence[float], sups: Sequence[float]
) -> tuple[float, float, float]:
    """``(avg_lower, avg_upper, factored_sum)`` of per-position risks.

    Each position's exact minimax value is bracketed by its ``r_bin`` and
    the symmetric estimator's sup, and averaging over independent positions
    preserves both certified sides.  The average loss over the product of
    feasible sets separates across positions, so the joint adversary's sup
    is ``factored_sum``, which adds the per-position sups left to right: it
    is bitwise the maximum cell of the left-folded joint sum over the
    positions' sup-candidate profiles, since rounding is monotone.  The
    oracle battery confirms this by literal enumeration.
    """
    if len(sups) == 0:
        raise ValueError("need at least one position")
    return (
        float(np.mean(r_bins)),
        float(np.mean(sups)),
        reduce(operator.add, sups, 0.0) / len(sups),
    )
