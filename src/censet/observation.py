"""Ingestion and log-domain summaries of top-K censored observations.

An observation is the per-position output of a top-K API: the vocabulary
size, the K revealed (token, score) pairs, and the access mode.  Scores are
either raw logits (log-probabilities up to an unknown additive shift) or
normalized log-probabilities.  Everything downstream consumes the stable
log-domain summary computed here: ``log_ZA`` (log-sum-exp of the revealed
scores), the censoring threshold ``tau`` (smallest revealed score), the
censored-token count ``M = V - K`` and the head conditional ``alpha``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO, Container, Iterable, Iterator

import numpy as np

from .numerics import POLICY, logsumexp


class ValidationError(ValueError):
    """An observation violates a structural invariant."""


class ParseError(ValidationError):
    """A record in an input stream could not be parsed; carries the line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ModeError(ValueError):
    """An operation was called on the wrong access mode."""


class AccessMode(str, Enum):
    LOGITS = "logits"        # unnormalized: scores carry an unknown additive shift
    LOGPROBS = "logprobs"    # normalized: scores are exact log-probabilities


@dataclass(frozen=True, eq=False)
class TopKObservation:
    """One censored observation, held as arrays.

    Construct it from the K revealed pairs in source order: ``token_ids``
    (integers) and ``scores`` (finite numbers) of equal length.  Once built,
    ``token_ids`` (int64) and ``scores`` (float64) are sorted by score,
    non-increasing, with ties in source order (a stable argsort of
    ``-scores``); ``input_order`` keeps the token ids in source order so
    that serialization round-trips byte-identically.  All three arrays are
    read-only.

    The checks run in a fixed order and the first failure decides the
    message: ``vocab_size``, K, duplicate ids, then the pairs in source
    order (within a pair, the token's type, the token's range, the score's
    finiteness), then for normalized access the sign and the head mass.
    """

    vocab_size: int
    token_ids: np.ndarray
    scores: np.ndarray
    mode: AccessMode
    position_id: str = ""
    input_order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValidationError(f"vocab_size must be >= 1, got {self.vocab_size}")
        k = len(self.token_ids)
        if k < 1:
            raise ValidationError("at least one revealed token is required")
        if k > self.vocab_size:
            raise ValidationError(
                f"K={k} exceeds vocab_size={self.vocab_size}"
            )
        if len(self.scores) != k:
            raise ValidationError(
                f"{k} token ids but {len(self.scores)} scores"
            )
        ids, values = _checked_pairs(self.token_ids, self.scores, self.vocab_size)
        order = np.argsort(-values, kind="stable")
        for name, array in (
            ("input_order", ids),
            ("token_ids", ids[order]),
            ("scores", values[order]),
        ):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.mode is AccessMode.LOGPROBS:
            if np.any(self.scores > 0.0):
                raise ValidationError(
                    "normalized log-probabilities must be <= 0"
                )
            _check_head_mass(self.log_ZA)

    @property
    def k(self) -> int:
        return len(self.token_ids)

    @property
    def tau(self) -> float:
        """Censoring threshold: the smallest revealed score."""
        return float(self.scores[-1])

    @cached_property
    def log_ZA(self) -> float:
        """Log-sum-exp of the scores, computed once per observation.

        The log of the revealed head mass: exact under normalized access
        (where construction checks it), up to the unknown shift under raw
        logits.
        """
        return logsumexp(self.scores)


def _int64_array(values) -> np.ndarray | None:
    """A new int64 array of ``values``, or None unless each is an integer
    (bools are not) that fits in 64 bits."""
    if isinstance(values, np.ndarray):
        integral = values.dtype.kind in "iu"
    else:
        integral = all(
            issubclass(t, (int, np.integer)) and t is not bool
            for t in set(map(type, values))
        )
    if not integral:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _check_pair(token, score, vocab_size: int) -> None:
    """The checks on one (token, score) pair, in the order they apply."""
    if not isinstance(token, (int, np.integer)) or isinstance(token, bool):
        raise ValidationError(f"token id must be an integer, got {token!r}")
    if token < 0 or token >= vocab_size:
        raise ValidationError(f"token id {token} outside [0, {vocab_size})")
    if not math.isfinite(score):
        raise ValidationError(f"non-finite score {float(score)!r} for token {token}")


def _checked_pairs(tokens, scores, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Source-order int64 ids and float64 scores of pairs that pass the checks.

    Duplicates and the per-pair checks are found with array masks; only a
    record already known to be bad is walked pair by pair, from its first
    flagged pair, so the error names the first offending pair in source
    order.  A walk from pair 0 also covers values no array could hold:
    non-integer tokens, ids beyond 64 bits and integer scores beyond the
    float range (whose ``math.isfinite`` raises ``OverflowError``).
    """
    ids = _int64_array(tokens)
    try:
        values = np.array(scores, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        values = None
    if ids is not None:
        ordered = np.sort(ids)
        duplicated = bool((ordered[1:] == ordered[:-1]).any())
    else:
        duplicated = len(set(_as_list(tokens))) != len(tokens)
    if duplicated:
        raise ValidationError(
            f"duplicate token ids in revealed list: {_as_list(tokens)}"
        )
    first_bad = 0
    if ids is not None and values is not None:
        finite = np.isfinite(values)
        if 0 <= ordered[0] and ordered[-1] < vocab_size and finite.all():
            return ids, values
        first_bad = int(((ids < 0) | (ids >= vocab_size) | ~finite).argmax())
    for token, score in itertools.islice(zip(tokens, scores), first_bad, None):
        _check_pair(token, score, vocab_size)
    raise ValidationError(
        f"token ids beyond 64 bits are not supported (vocab_size={vocab_size})"
    )


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


@dataclass(frozen=True, eq=False)
class LogSummary:
    """Log-domain quantities shared by all downstream analyses."""

    log_ZA: float
    tau: float
    M: int
    alpha: np.ndarray
    token_ids: np.ndarray
    vocab_size: int

    @property
    def k(self) -> int:
        return len(self.token_ids)


_MODE_NAMES = {m.value: m for m in AccessMode}
# JSON value kinds and the Python types json.loads yields for them
_JSON_KINDS = {"integer": frozenset({int}), "number": frozenset({int, float})}


def _read_jsonl(source: str | bytes | IO) -> Iterator[tuple[int, dict]]:
    """``(line number, JSON object)`` per non-blank line of text, bytes or a stream.

    Lines end at ``\\n`` only, less one trailing ``\\r``; line numbers count
    them.  A stream is read one line at a time, never whole; open a text
    file with ``newline="\\n"`` so that no other character ends a line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = source.split("\n") if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.removesuffix("\n").removesuffix("\r")
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(lineno, "record must be a JSON object")
        yield lineno, record


def _check_json_kind(values, kind: str, what: str, lineno: int) -> None:
    """Reject values that are not all of one JSON kind (bools are not integers)."""
    if not set(map(type, values)) <= _JSON_KINDS[kind]:
        bad = next(v for v in values if type(v) not in _JSON_KINDS[kind])
        raise ParseError(lineno, f"{what} must be a JSON {kind}, got {bad!r}")


def _check_position_id(pid, lineno: int, seen: Container[str]) -> None:
    """A ``position_id`` must be a JSON string not used by an earlier record."""
    if type(pid) is not str:
        raise ParseError(lineno, f"position_id must be a JSON string, got {pid!r}")
    if pid in seen:
        raise ParseError(lineno, f"duplicate position_id {pid!r}")


def _json_floats(values: list, what: str, lineno: int) -> np.ndarray:
    _check_json_kind(values, "number", what, lineno)
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise ParseError(lineno, f"{what} outside the float range") from exc


_TOKEN = operator.itemgetter("token")
_SCORE = operator.itemgetter("score")


def _parse_record(record: dict, lineno: int, position_id: str) -> TopKObservation:
    try:
        vocab_size = record["vocab_size"]
        mode_name = record["mode"]
        topk = record["topk"]
    except KeyError as exc:
        raise ParseError(lineno, f"missing field {exc}") from exc
    _check_json_kind([vocab_size], "integer", "vocab_size", lineno)
    if not isinstance(mode_name, str) or mode_name not in _MODE_NAMES:
        raise ParseError(
            lineno, f"mode must be one of {sorted(_MODE_NAMES)}, got {mode_name!r}"
        )
    if not isinstance(topk, list) or not topk:
        raise ParseError(lineno, "topk must be a non-empty list")
    try:
        tokens = list(map(_TOKEN, topk))
        scores = list(map(_SCORE, topk))
    except (KeyError, TypeError) as exc:
        raise ParseError(lineno, f"malformed topk entry ({exc!r})") from exc
    _check_json_kind(tokens, "integer", "token", lineno)
    _check_json_kind(scores, "number", "score", lineno)
    try:
        return TopKObservation(
            vocab_size=vocab_size,
            token_ids=tokens,
            scores=scores,
            mode=_MODE_NAMES[mode_name],
            position_id=position_id,
        )
    except ValidationError as exc:
        raise ParseError(lineno, str(exc)) from exc
    except OverflowError as exc:
        raise ParseError(lineno, "score outside the float range") from exc


def parse_observations(source: str | bytes | IO) -> list[TopKObservation]:
    """Parse line-delimited JSON records into validated observations.

    Each line is one record: ``{"vocab_size": V, "mode": "logits"|"logprobs",
    "topk": [{"token": id, "score": s}, ...], "position_id": optional}``.
    ``vocab_size`` and ``token`` must be JSON integers, ``score`` a JSON
    number and ``position_id`` a JSON string (``"line<n>"`` when absent)
    that no other record uses; nothing is coerced.  Input order is
    preserved; K is the length of the topk list.  Errors name the offending
    line.

    ``source`` is text, bytes or a stream of lines (see :func:`_read_jsonl`
    for the line rules); a stream is consumed one record at a time, and
    each record becomes arrays (see :class:`TopKObservation`), so no
    per-pair Python objects outlive the line they were decoded from.
    """
    return list(_iter_observations(source))


def _iter_observations(source: str | bytes | IO) -> Iterator[TopKObservation]:
    """:func:`parse_observations`, one observation at a time.

    Each record is checked and yielded before the next line is read, so an
    error is raised only once the stream reaches its line.
    """
    seen: set[str] = set()
    for lineno, record in _read_jsonl(source):
        pid = record.get("position_id", f"line{lineno}")
        _check_position_id(pid, lineno, seen)
        seen.add(pid)
        yield _parse_record(record, lineno, pid)


def serialize_observations(observations: Iterable[TopKObservation]) -> str:
    """Inverse of :func:`parse_observations`, emitting source token order.

    An empty (unnamed) ``position_id`` is left out: the parser uses the line.
    """
    lines = []
    for obs in observations:
        # the score of each source-order token, found in the score order
        by_id = np.argsort(obs.token_ids)
        at = by_id[np.searchsorted(obs.token_ids, obs.input_order, sorter=by_id)]
        record = {
            "vocab_size": obs.vocab_size,
            "mode": obs.mode.value,
            "position_id": obs.position_id,
            "topk": [
                {"token": t, "score": s}
                for t, s in zip(obs.input_order.tolist(), obs.scores[at].tolist())
            ],
        }
        if not obs.position_id:
            del record["position_id"]
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


def summarize(obs: TopKObservation) -> LogSummary:
    """Compute the log-domain summary of a valid observation.

    ``log_ZA`` is the observation's own, computed once at construction by
    :func:`censet.numerics.logsumexp` (max-shifted, so no overflow for
    scores of any magnitude), and ``alpha`` is exponentiated out of the log
    domain, so the head conditional sums to 1 to machine precision even
    under large score spreads.
    """
    alpha = np.exp(obs.scores - obs.log_ZA)
    return LogSummary(
        log_ZA=obs.log_ZA,
        tau=obs.tau,
        M=obs.vocab_size - obs.k,
        alpha=alpha,
        token_ids=obs.token_ids,
        vocab_size=obs.vocab_size,
    )


def hidden_tail_mass(obs: TopKObservation) -> float:
    """Exact probability mass hidden behind the censoring threshold.

    Defined only for normalized access, where the revealed head mass is
    known exactly: returns ``1 - sum(exp(score))`` clamped to [0, 1].  A raw
    value below ``-head_mass_tol`` indicates an inconsistent observation and
    is reported via a warning before clamping.
    """
    if obs.mode is not AccessMode.LOGPROBS:
        raise ModeError(
            "hidden tail mass is identified only under normalized access "
            f"(mode={obs.mode.value})"
        )
    return _tail_mass(obs.log_ZA)


def _check_head_mass(log_head: float) -> None:
    """Reject a normalized head whose mass ``exp(log_head)`` exceeds 1."""
    head = float(np.exp(log_head))
    if head > 1.0 + POLICY.head_mass_tol:
        raise ValidationError(
            f"revealed head mass {head!r} exceeds 1 beyond tolerance; "
            "refusing to renormalize"
        )


def _tail_mass(log_head: float) -> float:
    """``1 - exp(log_head)`` clamped to [0, 1], warning below ``-head_mass_tol``."""
    raw = -math.expm1(log_head)
    if raw < -POLICY.head_mass_tol:
        warnings.warn(
            f"hidden tail mass {raw!r} below 0 beyond tolerance; clamping",
            stacklevel=3,
        )
    return min(1.0, max(0.0, raw))
