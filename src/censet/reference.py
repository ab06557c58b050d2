"""Reference-model shrinkage of the compatible set.

A known base model plus a bounded fine-tuning margin ``rho`` tightens the
per-token score ceiling from ``tau`` to ``min(tau, z_ref(u) + rho)`` on each
censored token u.  Writing ``B_u`` for the exponential of that ceiling and
``C_R`` for their sum, the shrunken diameter is

    U_R = C_R / (Z_A + C_R) <= U_K,

with the extremal tail allocating ``U_R * B_u / C_R`` per token.  The margin
is checkable only on revealed tokens; :func:`calibrate_rho` reports that
diagnostic without ever adjusting the bound itself.

Each reference row is laid out once over the vocabulary: a dense row is its
vector, a sparse map its default with the listed scores on top.
:func:`reference_geometry` derives everything from that one layout, in
place: the censored tokens' ceilings, taken by one mask in ascending id
order, and the revealed tokens' reference scores, which the ``reference``
command's calibration reads.  It reads one row of a parsed batch at a time,
as that command does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator

import numpy as np

from .minimax import _INV_E
from .numerics import expit, logsumexp
from .observation import (
    _INT64_MAX,
    _NUMBERS,
    ParseError,
    TopKObservation,
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
    it does not list.  Without one, :func:`reference_geometry` names the
    first censored token that is not listed: a silent zero would be an
    arbitrary scale.  Listed tokens outside the vocabulary are ignored.
    """

    position_id: str = ""
    dense: np.ndarray | None = None
    entries: dict[int, float] | None = None
    default: float | None = None

    def __post_init__(self):
        if (self.dense is None) == (self.entries is None):
            raise ValueError("provide exactly one of dense or entries")

    def _layout(self, vocab_size: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The row over the vocabulary, and the mask of the listed tokens of a
        sparse map with no default (None for any other row).

        A dense row gives its checked vector itself.  A sparse map gives a
        new vector of its default, the listed scores on top; keys outside
        [0, V) are ignored, and without a default the unlisted tokens read
        NaN.
        """
        if self.dense is not None:
            table = _scores(self.dense)
            if len(table) != vocab_size:
                raise CoverageError(
                    f"dense reference has length {len(table)}, "
                    f"expected vocab_size {vocab_size}"
                )
            return table, None
        keys = np.fromiter(self.entries, dtype=np.int64, count=len(self.entries))
        kept = (keys >= 0) & (keys < vocab_size)
        default = math.nan if self.default is None else self.default
        scores = _scores([default, *self.entries.values()])
        table = np.full(vocab_size, scores[0])
        table[keys[kept]] = scores[1:][kept]
        listed = None
        if self.default is None:
            listed = np.zeros(vocab_size, dtype=bool)
            listed[keys[kept]] = True
        return table, listed


def _uncovered(token) -> CoverageError:
    return CoverageError(f"no reference value for token {int(token)} and no default")


@dataclass(frozen=True, eq=False)
class ReferenceBound:
    """Per-token ceilings and the resulting shrunken diameter.

    ``revealed_ref`` holds the reference scores of the observation's
    revealed tokens, in its score order, for :func:`calibrate_rho`; None
    when a sparse map with no default leaves one of them unlisted.
    """

    log_ceilings: np.ndarray
    log_CR: float
    U_R: float
    revealed_ref: np.ndarray | None

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
    obs: TopKObservation, ref: ReferenceLogits, rho: float
) -> ReferenceBound:
    """Shrunken geometry of a parsed observation under per-token ceilings
    min(tau, z_ref(u) + rho) on its censored tokens u.

    Only ``token_ids``, ``vocab_size``, ``tau`` and ``log_ZA`` are read, so
    a :class:`~censet.identified_set.SetGeometry`, which is an observation,
    works too.  The reference scores must share the observation's additive
    scale; that alignment is the caller's responsibility.  A reference score
    of -inf forbids the token outright, regardless of rho; a NaN one on a
    censored token is a :class:`ValueError`.  With no censored token (M = 0)
    the ceilings are empty, ``log_CR`` is -inf and U_R is 0.

    The row is laid out once over the vocabulary
    (:meth:`ReferenceLogits._layout`), and one vector serves both lookups:
    the revealed tokens' scores are read from it first, then the ceilings
    are computed over it in place and the censored ones taken by a mask,
    in ascending id order.  The mask is allocated before the layout, so a
    vocabulary too large to lay out fails on the smaller array, with
    numpy's error for it.
    """
    _check_rho(rho)
    censored = np.ones(obs.vocab_size, dtype=bool)
    censored[obs.token_ids] = False
    layout, listed = ref._layout(obs.vocab_size)
    revealed = layout[obs.token_ids]
    if listed is not None:
        uncovered = censored & ~listed
        if uncovered.any():
            raise _uncovered(uncovered.argmax())
        if not listed[obs.token_ids].all():
            revealed = None
    # -inf + inf is NaN: only at rho = +inf does a forbidden token need
    # setting back to -inf
    forbidden = np.isneginf(layout) if rho == math.inf else None
    with np.errstate(invalid="ignore"):
        # a sparse row's layout is its own to overwrite, a dense row's is not
        capped = np.add(layout, rho, out=None if ref.dense is not None else layout)
    np.minimum(obs.tau, capped, out=capped)
    if forbidden is not None:
        capped[forbidden] = -math.inf
    ceilings = capped[censored]
    log_cr = logsumexp(ceilings)
    if math.isnan(log_cr):
        # NaN would read below as a tail the reference forbids outright
        raise ValueError(
            f"reference scores for position {ref.position_id!r} hold a NaN"
        )
    u_r = expit(log_cr - obs.log_ZA) if math.isfinite(log_cr) else 0.0
    return ReferenceBound(log_ceilings=ceilings, log_CR=log_cr, U_R=u_r,
                          revealed_ref=revealed)


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
    The dict is built from :func:`_reference_records`, which the
    ``reference`` command reads one record at a time.
    """
    return {ref.position_id: ref for ref in _reference_records(source)}


def _reference_records(source: str | bytes | IO) -> Iterator[ReferenceLogits]:
    """The records of a reference dump in line order, each checked as
    :func:`parse_reference_dump` checks it, the repeated ``position_id``
    included.  Nothing of a line is held once its record is yielded: a
    consumer that drops each record holds one line's at a time."""
    seen: set[str] = set()

    def reference(record: dict, lineno: int, literals: bool) -> ReferenceLogits:
        if "position_id" not in record:
            raise ParseError(lineno, "record must carry a position_id")
        pid = record["position_id"]
        _check_position_id(pid, lineno, seen)
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
        # taken only once every check has passed: a failed check runs again
        # on json's decode of the line
        seen.add(pid)
        return ref

    yield from _read_jsonl(source, reference)
