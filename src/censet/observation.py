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

import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable

import numpy as np
from scipy.special import logsumexp

from .numerics import POLICY


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
    """One censored observation.

    ``revealed`` is stored sorted by score, non-increasing; ``input_order``
    keeps the token ids in the order the source supplied them so that
    serialization round-trips byte-identically.
    """

    vocab_size: int
    revealed: tuple[tuple[int, float], ...]
    mode: AccessMode
    position_id: str = ""
    input_order: tuple[int, ...] = ()

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValidationError(f"vocab_size must be >= 1, got {self.vocab_size}")
        k = len(self.revealed)
        if k < 1:
            raise ValidationError("at least one revealed token is required")
        if k > self.vocab_size:
            raise ValidationError(
                f"K={k} exceeds vocab_size={self.vocab_size}"
            )
        ids = [t for t, _ in self.revealed]
        if len(set(ids)) != k:
            raise ValidationError(f"duplicate token ids in revealed list: {ids}")
        for t, s in self.revealed:
            if not isinstance(t, (int, np.integer)) or isinstance(t, bool):
                raise ValidationError(f"token id must be an integer, got {t!r}")
            if t < 0 or t >= self.vocab_size:
                raise ValidationError(
                    f"token id {t} outside [0, {self.vocab_size})"
                )
            if not math.isfinite(s):
                raise ValidationError(f"non-finite score {s!r} for token {t}")
        if not self.input_order:
            object.__setattr__(self, "input_order", tuple(int(t) for t in ids))
        # sort non-increasing by score; stable, so ties keep source order
        ordered = sorted(self.revealed, key=lambda p: -p[1])
        object.__setattr__(
            self, "revealed", tuple((int(t), float(s)) for t, s in ordered)
        )
        if self.mode is AccessMode.LOGPROBS:
            scores = np.array([s for _, s in self.revealed])
            if np.any(scores > 0.0):
                raise ValidationError(
                    "normalized log-probabilities must be <= 0"
                )
            _check_head_mass(float(logsumexp(scores)))

    @property
    def k(self) -> int:
        return len(self.revealed)

    @property
    def token_ids(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.revealed)

    @property
    def scores(self) -> np.ndarray:
        return np.array([s for _, s in self.revealed], dtype=float)

    @property
    def tau(self) -> float:
        """Censoring threshold: the smallest revealed score."""
        return self.revealed[-1][1]


@dataclass(frozen=True, eq=False)
class LogSummary:
    """Log-domain quantities shared by all downstream analyses."""

    log_ZA: float
    tau: float
    M: int
    alpha: np.ndarray
    token_ids: tuple[int, ...]
    vocab_size: int

    @property
    def k(self) -> int:
        return len(self.token_ids)


_MODE_NAMES = {m.value: m for m in AccessMode}


def _parse_record(record: dict, lineno: int) -> TopKObservation:
    try:
        vocab_size = int(record["vocab_size"])
        mode_name = record["mode"]
        topk = record["topk"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(lineno, f"missing or malformed field ({exc})") from exc
    if mode_name not in _MODE_NAMES:
        raise ParseError(
            lineno, f"mode must be one of {sorted(_MODE_NAMES)}, got {mode_name!r}"
        )
    if not isinstance(topk, list) or not topk:
        raise ParseError(lineno, "topk must be a non-empty list")
    revealed = []
    for entry in topk:
        try:
            revealed.append((int(entry["token"]), float(entry["score"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(lineno, f"malformed topk entry {entry!r}") from exc
    position_id = str(record.get("position_id", f"line{lineno}"))
    try:
        return TopKObservation(
            vocab_size=vocab_size,
            revealed=tuple(revealed),
            mode=_MODE_NAMES[mode_name],
            position_id=position_id,
        )
    except ValidationError as exc:
        raise ParseError(lineno, str(exc)) from exc


def parse_observations(source: str | bytes | IO) -> list[TopKObservation]:
    """Parse line-delimited JSON records into validated observations.

    Each line is one record: ``{"vocab_size": V, "mode": "logits"|"logprobs",
    "topk": [{"token": id, "score": s}, ...], "position_id": optional}``.
    Input order is preserved; K is the length of the topk list.  Errors name
    the offending line.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    observations = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ParseError(lineno, "record must be a JSON object")
        observations.append(_parse_record(record, lineno))
    return observations


def serialize_observations(observations: Iterable[TopKObservation]) -> str:
    """Inverse of :func:`parse_observations`, emitting source token order."""
    lines = []
    for obs in observations:
        by_token = dict(obs.revealed)
        record = {
            "vocab_size": obs.vocab_size,
            "mode": obs.mode.value,
            "position_id": obs.position_id,
            "topk": [
                {"token": t, "score": by_token[t]} for t in obs.input_order
            ],
        }
        lines.append(json.dumps(record))
    return "\n".join(lines) + ("\n" if lines else "")


def summarize(obs: TopKObservation) -> LogSummary:
    """Compute the log-domain summary of a valid observation.

    ``log_ZA`` uses a shifted log-sum-exp (no overflow for scores of any
    magnitude) and ``alpha`` is exponentiated out of the log domain, so the
    head conditional sums to 1 to machine precision even under large score
    spreads.
    """
    scores = obs.scores
    log_za = float(logsumexp(scores))
    alpha = np.exp(scores - log_za)
    return LogSummary(
        log_ZA=log_za,
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
    return _tail_mass(float(logsumexp(obs.scores)))


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
