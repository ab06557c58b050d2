"""Reference-model shrinkage of the compatible set.

A known base model plus a bounded fine-tuning margin ``rho`` tightens the
per-token score ceiling from ``tau`` to ``min(tau, z_ref(u) + rho)`` on each
censored token u.  Writing ``B_u`` for the exponential of that ceiling and
``C_R`` for their sum, the shrunken diameter is

    U_R = C_R / (Z_A + C_R) <= U_K,

with the extremal tail allocating ``U_R * B_u / C_R`` per token.  The margin
is checkable only on revealed tokens; :func:`calibrate_rho` reports that
diagnostic without ever adjusting the bound itself.

Both forms of a reference are read by one lookup: a sparse map is laid out
over the vocabulary (its default, the listed scores on top) and indexed
like a dense vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .identified_set import SetGeometry
from .minimax import _INV_E
from .numerics import expit, logsumexp
from .observation import (
    _INT64_MAX,
    _NUMBERS,
    ParseError,
    _all_of,
    _check_position_id,
    _json_array,
    _read_jsonl,
)


class CoverageError(ValueError):
    """A censored token has no reference value and no default was given."""


def _scores(values) -> np.ndarray:
    """A float64 array of ``values``, which must all be numbers (no bools)."""
    if not _all_of(values, _NUMBERS):
        raise ValueError("reference scores must be numbers")
    return np.asarray(values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ReferenceLogits:
    """Reference scores for one position: dense vector or sparse map.

    A sparse map may give a ``default`` (``-inf`` included) for the tokens
    it does not list.  Without one, :meth:`gather` names the first token
    asked for that is not listed: a silent zero would be an arbitrary scale.
    Listed tokens outside the vocabulary are ignored.
    """

    position_id: str = ""
    dense: np.ndarray | None = None
    entries: dict[int, float] | None = None
    default: float | None = None

    def __post_init__(self):
        if (self.dense is None) == (self.entries is None):
            raise ValueError("provide exactly one of dense or entries")

    def gather(self, ids: np.ndarray, vocab_size: int) -> np.ndarray:
        if self.dense is not None:
            table = _scores(self.dense)
            if len(table) != vocab_size:
                raise CoverageError(
                    f"dense reference has length {len(table)}, "
                    f"expected vocab_size {vocab_size}"
                )
            return table[ids]
        keys = np.fromiter(self.entries, dtype=np.int64, count=len(self.entries))
        kept = (keys >= 0) & (keys < vocab_size)
        default = math.nan if self.default is None else self.default
        scores = _scores([default, *self.entries.values()])
        table = np.full(vocab_size, scores[0])
        table[keys[kept]] = scores[1:][kept]
        if self.default is None:
            listed = np.zeros(vocab_size, dtype=bool)
            listed[keys[kept]] = True
            found = listed[ids]
            if not found.all():
                u = int(ids[found.argmin()])
                raise CoverageError(f"no reference value for token {u} and no default")
        return table[ids]


@dataclass(frozen=True, eq=False)
class ReferenceBound:
    """Per-token ceilings and the resulting shrunken diameter."""

    log_ceilings: np.ndarray
    log_CR: float
    U_R: float

    @property
    def reserve(self) -> float:
        """The reference estimator's reserve ``U_R / e``, split over the
        censored tokens by :attr:`beta`; 0 at U_R = 0."""
        return self.U_R * _INV_E

    @cached_property
    def beta(self) -> np.ndarray:
        """Ceiling-proportional tail weights B_u / C_R."""
        if self.log_CR == -math.inf:
            return np.zeros(len(self.log_ceilings))
        return np.exp(self.log_ceilings - self.log_CR)


def _check_rho(rho: float) -> None:
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be nonnegative, got {rho!r}")


def reference_geometry(
    geom: SetGeometry, ref: ReferenceLogits, rho: float
) -> ReferenceBound:
    """Shrunken geometry under per-token ceilings min(tau, z_ref(u) + rho).

    The reference scores must share the observation's additive scale; that
    alignment is the caller's responsibility.  A reference score of -inf
    forbids the token outright, regardless of rho; a NaN one on a censored
    token is a :class:`ValueError`.  With no censored token (M = 0) the
    ceilings are empty, ``log_CR`` is -inf and U_R is 0.
    """
    _check_rho(rho)
    z_ref = ref.gather(geom.censored_ids, geom.vocab_size)
    ceilings = np.where(
        np.isneginf(z_ref), -math.inf, np.minimum(geom.tau, z_ref + rho)
    )
    log_cr = logsumexp(ceilings)
    if math.isnan(log_cr):
        # NaN would read below as a tail the reference forbids outright
        raise ValueError(
            f"reference scores for position {ref.position_id!r} hold a NaN"
        )
    u_r = expit(log_cr - geom.log_ZA) if math.isfinite(log_cr) else 0.0
    return ReferenceBound(log_ceilings=ceilings, log_CR=log_cr, U_R=u_r)


def calibrate_rho(
    scores: np.ndarray, ref_scores: np.ndarray, rho: float
) -> tuple[float, float]:
    """``(max_perturbation, exceed_fraction)`` of teacher-minus-reference gaps.

    From the revealed tokens' teacher and reference scores: the largest gap
    and the fraction of gaps above ``rho``.  Compliance on censored tokens
    is not testable from a censored observation, so this is a structural
    prior diagnostic, not a guarantee.
    """
    if len(scores) < 2:
        raise ValueError(f"need at least 2 observed pairs, got {len(scores)}")
    diffs = np.asarray(scores, dtype=float) - np.asarray(ref_scores, dtype=float)
    return float(diffs.max()), float(np.mean(diffs > rho))


_DENSE_KEYS = frozenset({"position_id", "dense"})
_SPARSE_KEYS = frozenset({"position_id", "entries", "default"})


def _check_keys(record: dict, allowed: frozenset, form: str, lineno: int) -> None:
    for key in record:
        if key not in allowed:
            raise ParseError(lineno, f"unknown field {key!r} in a {form} record")


def _json_scores(values: list, what: str, lineno: int, literals: bool) -> np.ndarray:
    """A float64 array of a record's reference scores, all JSON numbers
    within the float range and none NaN (which the ``json`` fallback reads)."""
    converted = _json_array(values, "d", what, lineno, literals)
    if converted is None:
        raise ParseError(lineno, f"{what} outside the float range")
    scores = np.frombuffer(converted, dtype=np.float64)
    if np.isnan(scores).any():
        raise ParseError(lineno, f"{what} must not be NaN")
    return scores


def parse_reference_dump(source: str | bytes | IO) -> dict[str, ReferenceLogits]:
    """Parse a reference dump keyed by position id.

    One JSON record per line, either
    ``{"position_id": ..., "dense": [V scores]}`` or
    ``{"position_id": ..., "default": score or "-inf",
    "entries": [{"token": id, "logit": score}, ...]}``, never both; the
    ``default`` may be left out, but not given as null.  Tokens must be
    distinct JSON integers in [0, 2**63), scores JSON numbers and
    ``position_id`` a JSON string; a repeated token or ``position_id`` is
    an error, never a silent overwrite.  A key outside the record's form
    (``"default"`` in a dense record, a misspelled field) is an error too,
    and so is a NaN score: ``-inf`` forbids a token and ``+inf`` sets no
    ceiling, but NaN means neither.
    Lines are decoded as by :func:`censet.observation.parse_observations`.
    """
    out: dict[str, ReferenceLogits] = {}

    def reference(record: dict, lineno: int, literals: bool) -> ReferenceLogits:
        if "position_id" not in record:
            raise ParseError(lineno, "record must carry a position_id")
        pid = record["position_id"]
        _check_position_id(pid, lineno, out)
        if "dense" in record and "entries" in record:
            raise ParseError(lineno, "record has both dense and entries")
        if "dense" in record:
            _check_keys(record, _DENSE_KEYS, "dense", lineno)
            dense = record["dense"]
            if not isinstance(dense, list):
                raise ParseError(lineno, "dense must be a list of scores")
            ref = ReferenceLogits(
                position_id=pid,
                dense=_json_scores(dense, "dense score", lineno, literals),
            )
        elif "entries" in record:
            _check_keys(record, _SPARSE_KEYS, "sparse", lineno)
            default = record.get("default")
            if default == "-inf":
                default = -math.inf
            elif "default" in record:
                # a JSON null is rejected here too: no coercion from null
                (default,) = _json_scores([default], "default", lineno,
                                          literals).tolist()
            try:
                tokens = [e["token"] for e in record["entries"]]
                logits = [e["logit"] for e in record["entries"]]
            except (KeyError, TypeError) as exc:
                raise ParseError(lineno, f"malformed entries ({exc!r})") from exc
            ids = _json_array(tokens, "q", "token", lineno, literals)
            if ids is None or (ids and min(ids) < 0):
                bad = next(u for u in tokens if not 0 <= u <= _INT64_MAX)
                raise ParseError(
                    lineno, f"token id {bad} outside [0, {_INT64_MAX}]"
                )
            logits = _json_scores(logits, "logit", lineno, literals).tolist()
            entries = dict(zip(tokens, logits))
            if len(entries) < len(tokens):
                dup = next(u for u, n in Counter(tokens).items() if n > 1)
                raise ParseError(lineno, f"token {dup} listed twice in entries")
            ref = ReferenceLogits(position_id=pid, entries=entries, default=default)
        else:
            raise ParseError(lineno, "record needs dense or entries")
        return ref

    for ref in _read_jsonl(source, reference):
        out[ref.position_id] = ref
    return out
