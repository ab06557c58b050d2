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
    _CHUNK_PAIRS,
    AccessMode,
    TopKObservation,
    ValidationError,
    _batch,
    _check_pair,
    _check_tail,
    _chunks,
    _tail_rule,
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
    top = _top(logits, k)
    scores = logits[top]
    if mode is AccessMode.LOGPROBS:
        # a non-finite revealed logit fails as it does in logits mode, before
        # the shift turns it into another value
        for i in np.flatnonzero(~np.isfinite(scores))[:1]:
            _check_pair(int(top[i]), float(scores[i]), v)
        scores = np.minimum(scores - logsumexp(logits), 0.0)
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
    lower token id (:func:`_top`, as in :func:`censor`) and of their ids,
    the log-sum-exp of each full row in token-id order, and V: summing a
    row in score order can change the last bit.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    v = logits.shape[1]
    width = min(width, v)
    token_ids = np.stack([_top(z, width) for z in logits])
    scores = np.take_along_axis(logits, token_ids, axis=1)
    # rows a parse chunk's worth at a time: the kernel's temporaries of the
    # whole n x V teacher would raise the command's peak memory
    rows = max(1, _CHUNK_PAIRS // v)
    log_z = np.concatenate([
        logsumexp_rows(logits[lo:lo + rows]) for lo in range(0, len(logits), rows)
    ])
    return scores, token_ids, log_z, v


def _dump_blocks(source, width: int) -> Iterator[tuple]:
    """A full-dump JSONL source as blocks of :func:`ksweep`, each row cut to
    its top ``width`` scores, one bounded chunk of records at a time.

    A chunk's records (see :func:`censet.observation._chunks`) get the pair
    checks of :func:`censet.observation.parse_observations` in source
    order, with no sort: the token range and finite scores on the (n, V)
    matrices, then one scatter of the scores into token order, where a slot
    left empty is a token listed twice (K = V).  A normalized row keeps its
    head checks on its log-sum-exp in score order.  The rows that pass make
    :func:`score_sorted` of the scattered matrix, the block a teacher's rows
    make, so the sweep of a dump equals that of its teacher bit for bit.

    The first record that fails a pair check, is not a full dump, or whose V
    differs from the first record's fails once the rows before it have been
    yielded, so errors keep stream order.  A pair error is the one
    :func:`censet.observation._check_flagged` gives and names its line; it
    comes before the record's other faults, which name its position.  The
    chunk's own arrays are dropped before its block is yielded: working
    memory is one chunk and its scatter.
    """
    v = None
    for records, ids, values, failure in _chunks(source, chunked=True):
        if v is None and records:
            v = records[0][2]
        # the leading records that are full dumps of V
        end = next((i for i, (_, _, size, _, k) in enumerate(records)
                    if k != size or size != v), len(records))
        if end:
            full, end = _token_order(
                ids[: end * v].reshape(end, v), values[: end * v].reshape(end, v),
                [mode is AccessMode.LOGPROBS for _, _, _, mode, _ in records[:end]])
        error = failure
        if end < len(records):
            pairs = slice(end * v, end * v + records[end][4])
            error = _dump_error(records[end], ids[pairs], values[pairs], v)
        del records, ids, values
        if end:
            block = [score_sorted(full[:end], width)]
            del full
            yield block.pop()
        if error is not None:
            raise error


def _dump_error(record: tuple, ids: np.ndarray, values: np.ndarray, v: int):
    """The error of a record that a full dump of V rejects: its pair error
    if it has one (see :func:`censet.observation._batch`), else the error
    of a record that is not a full dump or not of V."""
    _, pid, size, _, k = record
    error = _batch([record], ids, values)[1]
    if error is not None:
        return error
    if k != size:
        return ValidationError(f"position {pid}: sweep input must be a full "
                               f"dump (K = V), got K={k} < V={size}")
    return ValidationError(f"position {pid}: all positions must share one "
                           f"vocab_size, got V={size} after V={v}")


def _token_order(ids: np.ndarray, values: np.ndarray, logprobs: list[bool]):
    """``(full, ok)``: the first ``ok`` of n full-dump rows of one V, which
    pass the pair checks, as an (ok, V) matrix of each row's scores in
    token order; row ``ok`` fails them (``ok`` = n if none does).

    ``ids`` and ``values`` are the rows' (n, V) pairs in source order and
    ``logprobs`` marks the normalized rows.
    """
    n, v = ids.shape
    bad = ((ids.min(axis=1) < 0) | (ids.max(axis=1) >= v)
           | ~np.isfinite(values).all(axis=1))
    ok = int(bad.argmax()) if bad.any() else n
    full = np.full((ok, v), math.nan)
    np.put_along_axis(full, ids[:ok], values[:ok], axis=1)
    # V ids in [0, V): a slot left NaN is a token listed twice
    bad = np.isnan(full).any(axis=1)
    rows = np.flatnonzero(np.array(logprobs[:ok], dtype=bool))
    if len(rows):
        # the head checks of parse_observations, on each row summed in
        # score order
        by_score = np.sort(values[rows], axis=1)[:, ::-1]
        head = logsumexp_rows(by_score)
        rejected = by_score[:, 0] > 0.0
        fits = np.flatnonzero(~rejected)
        rejected[fits] = _tail_rule(head[fits], by_score[fits, -1],
                                    [0] * len(fits))[1]
        bad[rows] |= rejected
    if bad.any():
        ok = int(bad.argmax())
    return full, ok


def _top(z: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-z, kind="stable")[:k]`` by an O(V) selection of the
    candidates and a stable sort of those alone.

    Every entry at or above the k-th largest is a candidate, ties included;
    listed in id order, their stable sort by score is that of the full row.
    A NaN anywhere in the row is an error naming its first token: it would
    sort below every score and go unseen among the censored tokens.
    """
    if np.isnan(z).any():  # raises, naming the first NaN's token
        _check_pair(int(np.isnan(z).argmax()), math.nan, len(z))
    neg = -z
    if k == len(z):
        return np.argsort(neg, kind="stable")
    t = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(neg <= t)
    return cand[np.argsort(neg[cand], kind="stable")[:k]]


def _bad_column(values: np.ndarray) -> np.ndarray:
    """Column of each row's first non-finite entry; the width if it has none."""
    bad = ~np.isfinite(values)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), values.shape[1])


def _sweep_block(
    scores: np.ndarray, token_ids: np.ndarray, log_z: np.ndarray, v: int,
    ks: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(M, U_K, log_odds, tail mass)`` of each row of a block at each K in
    ``ks``, as (n, |ks|) arrays.

    The diameter is that of the top-K observation :func:`censor` makes of
    the row and the tail mass is the hidden mass of its normalized
    reinterpretation (``mode=AccessMode.LOGPROBS``), bit for bit and with
    the same validation, :func:`censet.observation._tail_rule` over every
    (row, K) cell: each K reads a prefix of the sorted rows, tied scores are
    equal whichever token holds them, and one :func:`logsumexp_rows` over a
    prefix of the block equals :func:`logsumexp` of each row's prefix.  The
    first failing cell (row by row, K ascending) raises the per-position
    error, a non-finite score first.  ``ks`` must be ascending, in [1, w].
    """
    n, kk = len(scores), np.array(ks, dtype=np.int64)
    m = np.broadcast_to(v - kk, (n, len(ks)))
    if not ks:
        return m, *np.empty((3, n, 0))
    head = scores[:, : ks[-1]]
    with np.errstate(invalid="ignore", over="ignore"):
        # a row with an infinite logit fails its non-finite check below
        logprobs = np.minimum(head - log_z[:, None], 0.0)
        log_za = np.array([logsumexp_rows(head[:, :k]) for k in ks]).T
        log_head = np.array([logsumexp_rows(logprobs[:, :k]) for k in ks]).T
        # the threshold of each row's normalized reinterpretation at each K
        taus = logprobs[:, kk - 1]
        cells_m = m.ravel().tolist()
        t_star, rejected = _tail_rule(log_head.ravel(), taus.ravel(), cells_m)
        bad_logit, bad_logprob = _bad_column(head), _bad_column(logprobs)
        flagged = ((bad_logit[:, None] < kk) | (bad_logprob[:, None] < kk)
                   | rejected.reshape(n, -1))
    for i, j in np.argwhere(flagged)[:1]:
        k = ks[j]
        for values, bad in ((head, bad_logit[i]), (logprobs, bad_logprob[i])):
            if bad < k:  # raises: the pair's non-finite score
                _check_pair(int(token_ids[i, bad]), float(values[i, bad]), v)
        # raises: the one-row case of the rule that flagged the cell
        _check_tail(float(log_head[i, j]), float(taus[i, j]), v - k)
    u, log_odds = diameter(cells_m, head[:, kk - 1].ravel(), log_za.ravel())
    return m, u.reshape(n, -1), log_odds.reshape(n, -1), t_star.reshape(n, -1)


def ksweep(blocks: Iterable[tuple], k_list: Sequence[int]) -> list[SweepRow]:
    """Censor every position at each K and aggregate the per-position stats.

    ``blocks`` holds the positions' rows sorted by score, in blocks as
    :func:`score_sorted` makes from a logit matrix and :func:`_dump_blocks`
    from a full dump, all of one V and at least as wide as the largest K
    up to V.  Per K: mean and population sd of the diameter, the mean lower
    bound, the mean hidden tail mass of the normalized reinterpretation and
    the mean symmetric-estimator sup (:func:`minimax.symmetric_sup` at its
    default reserve ``U_K/e``).  A K above V gives a skipped row: NaN
    statistics and n = 0.  Blocks are read one at a time, each dropped
    before the next is asked for, and every K reads a prefix of the same
    rows (see :func:`_sweep_block`); the closed forms run once per block
    over all its (position, K) cells, so working memory is one block, with
    what a generator of blocks holds to make the next, plus a few floats
    per (position, K).
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
        m, u, log_odds, tail = (
            c.ravel() for c in _sweep_block(scores, token_ids, log_z, v, swept)
        )
        # per (position, K): U_K, r_bin, tail mass and sup
        r_bin = reserve(u)[1]
        sup = symmetric_sup(m.tolist(), log_odds, u)[0]
        stats.append(np.stack([u, r_bin, tail, sup], axis=-1).reshape(
            len(scores), len(swept), 4))
        # dropped before the next block is made
        del scores, token_ids, log_z
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
