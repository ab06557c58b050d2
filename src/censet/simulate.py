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
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

import numpy as np

from .identified_set import diameter
from .minimax import reserve, symmetric_sup
from .numerics import logsumexp, logsumexp_rows
from .observation import (
    AccessMode,
    TopKObservation,
    ValidationError,
    _batches,
    _check_head_mass,
    _tail_mass,
    from_pairs,
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
    logits = np.empty((n_positions, config.vocab_size))
    for i, row in enumerate(logits):
        row[:] = _draw_logits(config.law, len(row), _position_rng(config.seed, i))
    logits /= config.temperature
    return logits


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
    return from_pairs(v, top, scores, mode, position_id)


@dataclass(frozen=True)
class SweepRow:
    """Aggregate statistics for one K (population standard deviations)."""

    k: int
    uk_mean: float
    uk_sd: float
    rbin_mean: float
    tail_mass_mean: float
    n: int
    sup_kl_mean: float


def score_sorted(logits: np.ndarray, width: int) -> tuple:
    """The rows of a logit matrix as one block of :func:`ksweep`, each row
    cut to its top ``width`` scores (all V when ``width`` exceeds V).

    A block is ``(scores, token_ids, log_z, vocab_size)``: (n, w) matrices
    of each row's top logits in non-increasing order with ties toward the
    lower token id (a stable sort, as in :func:`censor`) and of their ids,
    the log-sum-exp of each full row in token-id order, and V.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    v = logits.shape[1]
    width = min(width, v)
    token_ids = np.stack([_top(z, width) for z in logits])
    scores = np.take_along_axis(logits, token_ids, axis=1)
    return scores, token_ids, _log_z(logits), v


def _log_z(logits: np.ndarray) -> np.ndarray:
    """The log-sum-exp of each row of a logit matrix, summed in token-id
    order: summing a row in score order can change the last bit."""
    return np.array([logsumexp(z) for z in logits])


def _dump_blocks(source) -> Iterator[tuple]:
    """A full-dump JSONL source as blocks of :func:`ksweep`, parsed one
    bounded chunk at a time.

    Each run of one vocab size in a chunk is one block, whose score and id
    matrices are views of the batch's columns: the parse has sorted each
    record by score.  Its log-sum-exp is :func:`_log_z` of the rows
    scattered back to token-id order, as in :func:`score_sorted`.  A record
    that is not a full dump fails once the rows before it have been
    yielded, so errors keep stream order.
    """
    for batch in _batches(source, chunked=True):
        vocab_sizes = np.array(batch.vocab_sizes, dtype=np.int64)
        partial = np.flatnonzero(batch.k != vocab_sizes).tolist()
        end = partial[0] if partial else len(batch)
        # a change of vocab size is the sweep's error, raised between blocks
        cuts = [0, *(np.flatnonzero(np.diff(vocab_sizes[:end])) + 1).tolist(), end]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                continue
            v = batch.vocab_sizes[lo]
            pairs = slice(batch.offsets[lo], batch.offsets[hi])
            scores = batch.scores[pairs].reshape(hi - lo, v)
            token_ids = batch.token_ids[pairs].reshape(hi - lo, v)
            full = np.empty((hi - lo, v))
            np.put_along_axis(full, token_ids, scores, axis=1)
            yield scores, token_ids, _log_z(full), v
        if partial:
            raise ValidationError(
                f"position {batch.position_ids[end]}: sweep input must be a full "
                f"dump (K = V), got K={batch.k[end]} < V={batch.vocab_sizes[end]}"
            )


def _top(z: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-z, kind="stable")[:k]`` by an O(V) selection of the
    candidates and a stable sort of those alone.

    Every entry at or above the k-th largest is a candidate, ties included;
    listed in id order, their stable sort by score is that of the full row.
    A NaN k-th value leaves fewer than k candidates: the row takes the full
    sort then.
    """
    neg = -z
    if k < len(z):
        t = np.partition(neg, k - 1)[k - 1]
        cand = np.flatnonzero(neg <= t)
        if len(cand) >= k:
            return cand[np.argsort(neg[cand], kind="stable")[:k]]
    return np.argsort(neg, kind="stable")[:k]


def _bad_column(values: np.ndarray) -> np.ndarray:
    """Column of each row's first non-finite entry; the width if it has none."""
    bad = ~np.isfinite(values)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), values.shape[1])


def _sweep_block(
    scores: np.ndarray, token_ids: np.ndarray, log_z: np.ndarray, v: int,
    ks: Sequence[int],
) -> Iterator[tuple[int, float, float, float]]:
    """``(M, U_K, log_odds, tail mass)`` of each row of a block at each K in
    ``ks``, row by row and in each row by ascending K.

    The diameter is that of the top-K observation :func:`censor` makes of
    the row and the tail mass is the hidden mass of its normalized
    reinterpretation (``mode=AccessMode.LOGPROBS``), bit for bit and with
    the same validation: each K reads a prefix of the sorted rows, tied
    scores are equal whichever token holds them, and
    :func:`logsumexp_rows` equals :func:`logsumexp` on each row.  The
    checks run in the order of the output, so the first error raised is
    that of the first failing row.  ``ks`` must be ascending and lie in
    [1, w].
    """
    if not ks:
        return
    head = scores[:, : ks[-1]]
    # a row with an infinite logit fails its non-finite check below
    with np.errstate(invalid="ignore"):
        logprobs = np.minimum(head - log_z[:, None], 0.0)
    log_za = np.array([logsumexp_rows(head[:, :k]) for k in ks]).T.tolist()
    log_head = np.array([logsumexp_rows(logprobs[:, :k]) for k in ks]).T.tolist()
    bad_logit = _bad_column(head).tolist()
    bad_logprob = _bad_column(logprobs).tolist()
    for i, row in enumerate(head.tolist()):
        for k, row_za, row_head in zip(ks, log_za[i], log_head[i]):
            for values, bad in ((head, bad_logit[i]), (logprobs, bad_logprob[i])):
                if bad < k:
                    raise ValidationError(
                        f"non-finite score {float(values[i, bad])!r} for token "
                        f"{token_ids[i, bad]}"
                    )
            u, log_odds = diameter(v - k, row[k - 1], row_za)
            _check_head_mass(row_head)
            yield v - k, u, log_odds, _tail_mass(row_head)


def ksweep(blocks: Iterable[tuple], k_list: Sequence[int]) -> list[SweepRow]:
    """Censor every position at each K and aggregate the per-position stats.

    ``blocks`` holds the positions' rows sorted by score, in blocks as
    :func:`score_sorted` makes from a logit matrix and :func:`_dump_blocks`
    from a full dump, all of one V and at least as wide as the largest K
    up to V.  Per K: mean and population sd of the diameter, the mean lower
    bound, the mean hidden tail mass of the normalized reinterpretation and
    the mean symmetric-estimator sup (:func:`minimax.symmetric_sup` at its
    default reserve ``U_K/e``).  A K above V gives a skipped row: NaN
    statistics and n = 0.  Blocks are read one at a time and every K reads
    a prefix of the same rows (see :func:`_sweep_block`), so working memory
    is one block plus a few floats per (position, K).
    """
    ks = sorted(k_list)
    v = None
    stats = []
    for scores, token_ids, log_z, vocab_size in blocks:
        if v is None:
            v = vocab_size
            if ks and ks[0] < 1:
                raise ValueError(f"K must lie in [1, {v}], got {ks[0]}")
            swept = [k for k in ks if k <= v]
        elif vocab_size != v:
            raise ValueError("all positions must share one vocab_size")
        if scores.shape[1] < max(swept, default=0):
            raise ValueError(
                f"block of width {scores.shape[1]} cannot sweep K={swept[-1]}"
            )
        # per (position, K): U_K, r_bin, tail mass and sup
        values = [
            (u, reserve(u)[1], tail, symmetric_sup(m, log_odds, u)[0])
            for m, u, log_odds, tail in _sweep_block(
                scores, token_ids, log_z, v, swept
            )
        ]
        stats.append(np.array(values).reshape(len(scores), len(swept), 4))
    if v is None:
        raise ValueError("sweep input holds no positions")
    # one contiguous row of every position per statistic and K
    uks, rbins, tails, sups = np.ascontiguousarray(np.concatenate(stats).T)
    rows = [
        SweepRow(k=k, uk_mean=float(uks[j].mean()),
                 uk_sd=float(uks[j].std(ddof=0)),
                 rbin_mean=float(np.mean(rbins[j])),
                 tail_mass_mean=float(np.mean(tails[j])), n=uks.shape[1],
                 sup_kl_mean=float(np.mean(sups[j])))
        for j, k in enumerate(swept)
    ]
    for k in ks[len(swept):]:
        rows.append(SweepRow(k=k, uk_mean=math.nan, uk_sd=math.nan,
                             rbin_mean=math.nan, tail_mass_mean=math.nan, n=0,
                             sup_kl_mean=math.nan))
    return rows


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
