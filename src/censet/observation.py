"""Ingestion of top-K censored observations.

An observation is the per-position output of a top-K API: the vocabulary
size, the K revealed (token, score) pairs, and the access mode.  Scores are
either raw logits (log-probabilities up to an unknown additive shift) or
normalized log-probabilities.  Everything downstream reads the log-domain
quantities an observation carries: ``log_ZA`` (log-sum-exp of the revealed
scores, max-shifted, so no overflow for scores of any magnitude) and the
censoring threshold ``tau`` (smallest revealed score).
"""

from __future__ import annotations

import array
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable, Container, Iterable, Iterator, TypeVar

import numpy as np
import orjson

from .numerics import logsumexp_rows, policy


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
    """One validated observation: a row of an :class:`ObservationBatch`.

    A plain record, made by :func:`parse_observations` or
    :func:`from_pairs`, which run the checks.  ``token_ids`` (int64) and
    ``scores`` (float64) are sorted by score, non-increasing, with ties in
    source order (a stable argsort of ``-scores``); ``input_order`` keeps
    the token ids in source order so that serialization round-trips
    byte-identically.  All three arrays are read-only.  ``log_ZA`` is the
    log-sum-exp of the scores, the log of the revealed head mass: exact
    under normalized access (where the checks bound it), up to the unknown
    shift under raw logits.
    """

    vocab_size: int
    mode: AccessMode
    position_id: str
    input_order: np.ndarray
    token_ids: np.ndarray
    scores: np.ndarray
    log_ZA: float

    @property
    def k(self) -> int:
        return len(self.token_ids)

    @property
    def tau(self) -> float:
        """Censoring threshold: the smallest revealed score."""
        return float(self.scores[-1])


def from_pairs(
    vocab_size: int, token_ids, scores, mode: AccessMode, position_id: str = ""
) -> TopKObservation:
    """A validated observation of K revealed pairs given in source order.

    ``token_ids`` (integers) and ``scores`` (finite numbers, no bools) have
    equal length and are copied.  The record goes through a one-row batch,
    so it gets the checks and the sort of :func:`parse_observations`.  They
    run in a fixed order and the first failure decides the message:
    ``vocab_size``, K, duplicate ids, then the pairs in source order (within
    a pair, the token's type and range, the score's type and finiteness),
    then for normalized access the sign and the head mass.  An error is a
    :class:`ValidationError` that names no line.
    """
    _check_shape(vocab_size, len(token_ids), len(scores))
    ids, values = _int64_array(token_ids), _float64_array(scores)
    if ids is None or values is None:
        # raises: the record holds a value no array can
        _check_flagged(token_ids, scores, vocab_size, ids, values, False, None)
    batch, error = _batch([(None, position_id, vocab_size, mode, len(ids))], ids, values)
    if error is not None:
        raise error
    return batch[0]


def _check_shape(vocab_size: int, k: int, n_scores: int) -> None:
    """The checks on a record's vocabulary size and K, before its pairs."""
    if vocab_size < 1:
        raise ValidationError(f"vocab_size must be >= 1, got {vocab_size}")
    if k < 1:
        raise ValidationError("at least one revealed token is required")
    if k > vocab_size:
        raise ValidationError(f"K={k} exceeds vocab_size={vocab_size}")
    if n_scores != k:
        raise ValidationError(f"{k} token ids but {n_scores} scores")


_INT64_MAX = int(np.iinfo(np.int64).max)


def _last_id(vocab_size: int) -> int:
    """The largest token id of the vocabulary that an int64 can hold."""
    return min(vocab_size - 1, _INT64_MAX)


# the types of a score; a bool is none
_NUMBERS = (int, float, np.integer, np.floating)


def _all_of(values, types: tuple) -> bool:
    """Whether each of ``values`` is of ``types`` and none is a bool, read
    from the dtype of an array that does not hold objects."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "O":
        return issubclass(values.dtype.type, types)
    return all(issubclass(t, types) and t is not bool for t in set(map(type, values)))


def _int64_array(values) -> np.ndarray | None:
    """A new int64 array of ``values``, or None unless each is an integer
    (bools are not) that an int64 can hold."""
    if not _all_of(values, (int, np.integer)) or (
        # the cast would wrap an unsigned id above the int64 range
        isinstance(values, np.ndarray) and values.dtype.kind == "u"
        and values.max(initial=0) > _INT64_MAX
    ):
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _float64_array(values) -> np.ndarray | None:
    """A new float64 array of ``values``, or None unless each is a number
    (bools are not) that a float64 can hold."""
    if not _all_of(values, _NUMBERS):
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def _sorted_rows(ids, values, counts, last_ids, logprobs):
    """Check and sort the pairs of n records stored end to end.

    ``ids`` (int64) and ``values`` (float64) hold every record's pairs in
    source order, ``counts`` each record's K, ``last_ids`` its largest valid
    token id (see :func:`_last_id`) and ``logprobs`` whether it is under
    normalized access.  Records that share K are checked and sorted as one
    (n, K) matrix by :func:`_sorted_matrix` and :func:`_normalized_checks`.

    Returns the ids and scores sorted within each record, every record's
    ``log_ZA`` and the indices of the records that fail a check, in order;
    :func:`_check_flagged` names a flagged record's failure.
    """
    n = len(counts)
    if n and (counts == counts[0]).all():
        # one K for all: the columns are the (n, K) matrix, with no gather.
        # Keep this path: without it a fresh fulldump-32k (64 x 32,000)
        # ksweep peaked at 62.0-62.1 MB against 59.6-59.7 MB (ru_maxrss,
        # three runs each) and took 1.37-1.85 s against 1.22-1.37 s
        by_score, sorted_values, log_za, bad = _sorted_group(
            ids.reshape(n, -1), values.reshape(n, -1), last_ids, logprobs
        )
        return by_score.ravel(), sorted_values.ravel(), log_za, np.flatnonzero(bad)
    starts = np.cumsum(counts) - counts
    by_score, sorted_values = np.empty_like(ids), np.empty_like(values)
    log_za = np.empty(n)
    bad = np.zeros(n, dtype=bool)
    for k in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == k)
        at = starts[rows, None] + np.arange(k)
        by_score[at], sorted_values[at], log_za[rows], bad[rows] = _sorted_group(
            ids[at], values[at], last_ids[rows], logprobs[rows]
        )
    return by_score, sorted_values, log_za, np.flatnonzero(bad)


def _sorted_group(ids, values, last_ids, logprobs):
    """:func:`_sorted_rows` for records of one K held as (n, K) matrices."""
    by_score, sorted_values, bad = _sorted_matrix(ids, values, last_ids)
    log_za, heavy = _normalized_checks(values, sorted_values, logprobs)
    return by_score, sorted_values, log_za, bad | heavy


def _sorted_matrix(ids, values, last_ids):
    """Check n records of one K held as (n, K) matrices, and sort each row.

    The checks: the token ranges, the scores' finiteness and duplicate ids
    (one sort along each row).  Each row is sorted by score with a stable
    argsort.  Returns the sorted ids and scores and a mask of the rows that
    fail.
    """
    ordered = np.sort(ids, axis=1)
    bad = (
        (ids < 0) | (ids > last_ids[:, None]) | ~np.isfinite(values)
    ).any(axis=1) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    n, k = values.shape
    # the flat index of each row's pairs in score order
    at = np.argsort(-values, axis=1, kind="stable") + (np.arange(n) * k)[:, None]
    return ids.ravel()[at], values.ravel()[at], bad


def _normalized_checks(values, sorted_values, logprobs):
    """``log_ZA`` of each row, and the rows under normalized access that fail.

    ``log_ZA`` is :func:`censet.numerics.logsumexp_rows` of the rows in
    score order, the order in which :func:`censet.simulate.ksweep` sums
    each prefix.  A row fails with a positive score or a head mass above
    ``1 + head_mass_tol``.
    """
    log_za = logsumexp_rows(sorted_values)
    with np.errstate(over="ignore"):
        heavy = np.exp(log_za) > 1.0 + policy().head_mass_tol
    return log_za, logprobs & ((values > 0.0).any(axis=1) | heavy)


def _check_flagged(tokens, scores, vocab_size, ids, values, logprobs, log_za) -> None:
    """The pair checks of one record, one at a time, raising the first failure.

    ``tokens`` and ``scores`` are the record's pairs as given, ``ids`` and
    ``values`` their int64 and float64 arrays (None where
    :func:`_int64_array` or :func:`_float64_array` could not hold them) and
    ``log_za`` the record's log-sum-exp.  The pairs are walked from the
    first one an array mask flags; a record without arrays is walked from
    its first pair, which also covers values no array could hold:
    non-integer tokens, ids beyond 64 bits, scores that are not numbers and
    integers beyond the float range.  A record without arrays always fails.
    """
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
        flagged = (ids < 0) | (ids >= vocab_size) | ~np.isfinite(values)
        first_bad = int(flagged.argmax())
    for token, score in itertools.islice(zip(tokens, scores), first_bad, None):
        _check_pair(token, score, vocab_size)
    if ids is None or values is None:
        raise ValidationError(
            f"token ids beyond 64 bits are not supported (vocab_size={vocab_size})"
        )
    if logprobs:
        if np.any(values > 0.0):
            raise ValidationError("normalized log-probabilities must be <= 0")
        _check_head_mass(log_za)


def _check_pair(token, score, vocab_size: int) -> None:
    """The checks on one (token, score) pair, in the order they apply."""
    if not isinstance(token, (int, np.integer)) or isinstance(token, bool):
        raise ValidationError(f"token id must be an integer, got {token!r}")
    if token < 0 or token >= vocab_size:
        raise ValidationError(f"token id {token} outside [0, {vocab_size})")
    if not isinstance(score, _NUMBERS) or isinstance(score, bool):
        raise ValidationError(f"score must be a number, got {score!r}")
    try:
        finite = math.isfinite(score)
    except OverflowError as exc:
        raise ValidationError("score outside the float range") from exc
    if not finite:
        raise ValidationError(f"non-finite score {float(score)!r} for token {token}")


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


_MODE_NAMES = {m.value: m for m in AccessMode}
# JSON value kinds and the Python types json.loads yields for them
_JSON_KINDS = {"integer": frozenset({int}), "number": frozenset({int, float})}
# the JSON kind whose values an array.array of a type code holds
_ARRAY_KINDS = {"q": "integer", "d": "number"}
_T = TypeVar("_T")


def _read_jsonl(
    source: str | bytes | IO, check: Callable[[dict, int, bool], _T]
) -> Iterator[_T]:
    """``check(record, line number, literals)`` of each non-blank line of
    text, bytes or a stream, where the record is the line's JSON object and
    ``literals`` is :func:`_has_literal` of the line.

    Lines end at ``\\n`` only, less one trailing ``\\r``; line numbers count
    them.  A stream is read one line at a time, never whole; open a text
    file with ``newline="\\n"`` so that no other character ends a line, and
    with ``errors="surrogateescape"`` so that a byte that is not UTF-8 is
    a :class:`ParseError` naming its line and its offset in the line, as
    one is in bytes.  Only lines of a ``str`` source are not checked, so it
    may hold lone surrogates.

    Decoding rule: each line is decoded by ``orjson``, and again by ``json``
    when orjson refuses it or when its record fails ``check``; the second
    outcome, record or error, is final.  orjson refuses NaN and Infinity
    literals, numbers beyond the float range and lone surrogates, which
    ``json`` accepts, and reads an integer outside [-2**63, 2**64) as the
    nearest float where ``json`` keeps the integer; every other value is the
    one ``json`` gives.  ``check`` raises a :class:`ValueError` to reject a
    record and runs its side effects only once the record has passed, so
    that accepted records and every error are those of ``json``.  A line
    that :func:`_shallow` cannot clear goes to ``json`` alone.  orjson gets
    the line as read, line end and all, which JSON takes as whitespace; the
    ``\\r`` is stripped for ``json`` alone, whose error messages depend on it.

    Nothing of a line is held once its item is yielded.
    """
    checked = not isinstance(source, str)
    if isinstance(source, bytes):
        source = source.decode("utf-8", "surrogateescape")
    lines = source.split("\n") if isinstance(source, str) else source
    lineno = 0
    for line in lines:
        lineno += 1
        if isinstance(line, bytes):
            line = line.decode("utf-8", "surrogateescape")
        if checked and not line.isascii():
            _check_utf8(line, lineno)
        if not line or line.isspace():
            continue
        item = [_decoded(line, lineno, check)]
        del line
        # popped as it is yielded: no local holds the item while suspended
        yield item.pop()


def _decoded(line: str, lineno: int, check: Callable[[dict, int, bool], _T]) -> _T:
    """``check`` of one line's record, by the decoding rule of :func:`_read_jsonl`."""
    literals = _has_literal(line)
    if _shallow(line):
        try:
            return check(_json_object(orjson.loads(line), lineno), lineno, literals)
        except ValueError:
            pass
    try:
        record = json.loads(line.removesuffix("\n").removesuffix("\r"))
    except json.JSONDecodeError as exc:
        raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise ParseError(lineno, "JSON nested too deeply to decode") from exc
    return check(_json_object(record, lineno), lineno, literals)


def _has_literal(line: str) -> bool:
    """Whether ``line`` holds the word ``true``, ``false`` or ``null``
    anywhere, strings included.

    A JSON bool needs one of the first two, so a line without them holds no
    bool.  Each ``u`` and ``f`` is found by ``str.find`` and the word around
    it compared, so the scan skips the line at ``memchr`` speed.
    """
    at = line.find("u")
    while at >= 0:
        if (at >= 2 and line.startswith("true", at - 2)) or (
            at >= 1 and line.startswith("null", at - 1)
        ):
            return True
        at = line.find("u", at + 1)
    at = line.find("f")
    while at >= 0:
        if line.startswith("false", at):
            return True
        at = line.find("f", at + 1)
    return False


def _check_utf8(line: str, lineno: int) -> None:
    """Reject a line decoded with ``errors="surrogateescape"`` that holds a
    byte that is not UTF-8.

    Such a byte is held as a lone surrogate.  Encoded back, the line fails a
    strict decode with the message and the offset within the line that its
    bytes would give.  A lone surrogate that stands for no byte passes.
    """
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeEncodeError:
        pass
    except UnicodeDecodeError as exc:
        raise ParseError(lineno, str(exc)) from exc


# orjson 3.8 recurses once per level of nesting, with no limit: a line some
# 10^5 levels deep overflows the C stack and kills the process, where json
# raises RecursionError near the interpreter's recursion limit (1,000), which
# _decoded reports as the line's error
_ORJSON_MAX_DEPTH = 256
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b"[{:,")))
# lines this long are first cleared by counting their opening brackets, one
# str.find each.  On a 2-vCPU Xeon (CPython 3.11) the count costs ~0.2 us a
# bracket, up to ~60 us when it gives up, and the bound ~1.4 ns a character:
# on a 1 KB line of 22 brackets the count takes 4 us and the bound 2 us, on
# a 658,753-character dense line 0.02 ms and 0.93 ms, and on a 1.5 MB
# full-dump line the count gives up after 0.12 ms beside the bound's 2.7 ms
_COUNT_FROM_LENGTH = 1 << 16


def _shallow(line: str) -> bool:
    """Whether ``line`` nests at most ``_ORJSON_MAX_DEPTH`` levels of arrays
    and objects, by a bound that holds for any text.

    A valid document of depth d has at least 2d characters, and at least d
    opening brackets: a long line holding at most ``_ORJSON_MAX_DEPTH`` of
    them is cleared by :func:`_few_openers`.  Otherwise, past the top
    level, each level is an array (a ``[``), an object in an array (one per
    array level at most) or an object as a key's value (a ``:`` then, past
    whitespace, a ``{``).  Deleting every character but ``[{:,`` joins each
    such ``:`` and ``{``; characters in strings only add to the counts.
    """
    if len(line) <= 2 * _ORJSON_MAX_DEPTH:
        return True
    if len(line) >= _COUNT_FROM_LENGTH and _few_openers(line):
        return True
    kept = line.encode("utf-8", "surrogatepass").translate(None, _NOT_STRUCTURE)
    return 1 + 2 * kept.count(b"[") + kept.count(b":{") <= _ORJSON_MAX_DEPTH


def _few_openers(line: str) -> bool:
    """Whether ``line`` holds at most ``_ORJSON_MAX_DEPTH`` of the characters
    ``[`` and ``{``, strings included; the scan stops at the one past that."""
    left = _ORJSON_MAX_DEPTH
    for opener in "[{":
        at = line.find(opener)
        while at >= 0:
            if not left:
                return False
            left -= 1
            at = line.find(opener, at + 1)
    return True


def _json_object(record, lineno: int) -> dict:
    if not isinstance(record, dict):
        raise ParseError(lineno, "record must be a JSON object")
    return record


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


def _json_array(
    values: list, typecode: str, what: str, lineno: int, literals: bool
) -> array.array | None:
    """``values`` as an ``array.array`` of ``typecode`` ("q" int64 or "d"
    float64), or None if one is beyond its range; a :class:`ParseError`
    unless every value is of the type code's JSON kind.

    One conversion pass checks the kinds as well: ``array.array`` refuses
    every decoded value that is not a number, and a float where an integer
    is due, and overflows on the same values as ``np.fromiter``.  Only a
    bool gets through, and a bool needs the word ``true`` or ``false`` in
    the line, so :func:`_check_json_kind` runs only when the line's
    ``literals`` screen (see :func:`_has_literal`) or the conversion fails.
    """
    try:
        converted = array.array(typecode, values)
    except (TypeError, OverflowError):
        converted, literals = None, True
    if literals:
        _check_json_kind(values, _ARRAY_KINDS[typecode], what, lineno)
    return converted


_TOKEN = operator.itemgetter("token")
_SCORE = operator.itemgetter("score")


def _record_fields(
    record: dict, lineno: int, literals: bool
) -> tuple[int, AccessMode, array.array, array.array]:
    """A record's vocab_size, mode, tokens (int64) and scores (float64), in
    source order.

    Runs every check that reads the record's fields alone: the fields are
    present and of their JSON kinds, the mode is known, topk is a non-empty
    list of entries, and K fits the vocabulary (see :func:`_check_shape`).
    A token or score that no int64 or float64 holds then fails the
    record's pair checks (see :func:`_pair_error`).  ``literals`` is the
    line's screen for :func:`_json_array`.
    """
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
    ids = _json_array(tokens, "q", "token", lineno, literals)
    values = _json_array(scores, "d", "score", lineno, literals)
    try:
        _check_shape(vocab_size, len(tokens), len(scores))
    except ValidationError as exc:
        raise ParseError(lineno, str(exc)) from exc
    if ids is None or values is None:
        raise _pair_error(lineno, tokens, scores, vocab_size)
    return vocab_size, _MODE_NAMES[mode_name], ids, values


def _records(source: str | bytes | IO) -> Iterator[tuple]:
    """``(line, position_id, vocab_size, mode, tokens, scores)`` of each
    record, once the checks that read its fields alone have passed."""
    seen: set[str] = set()

    def fields(record: dict, lineno: int, literals: bool) -> tuple:
        pid = record.get("position_id", f"line{lineno}")
        _check_position_id(pid, lineno, seen)
        checked = (lineno, pid, *_record_fields(record, lineno, literals))
        # taken only once every check has passed: a failed check runs
        # again on json's decode of the line
        seen.add(pid)
        return checked

    return _read_jsonl(source, fields)


@dataclass(frozen=True, eq=False)
class ObservationBatch(Sequence):
    """Validated observations held column by column, one row per record;
    :func:`parse_observations` builds it.

    Rows keep input order.  Row i's pairs are ``offsets[i]:offsets[i + 1]``
    of ``input_order`` (token ids in source order) and of ``token_ids`` and
    ``scores`` (sorted by score as in :class:`TopKObservation`).  Indexing
    or iterating yields each row as a :class:`TopKObservation` over
    read-only views of these arrays; a slice yields a list of them.
    """

    position_ids: list[str]
    modes: list[AccessMode]
    vocab_sizes: list[int]
    offsets: np.ndarray
    input_order: np.ndarray
    token_ids: np.ndarray
    scores: np.ndarray
    log_ZA: np.ndarray

    def __post_init__(self):
        for array in (self.offsets, self.input_order, self.token_ids, self.scores,
                      self.log_ZA):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.position_ids)

    def __getitem__(self, i: int | slice) -> TopKObservation | list[TopKObservation]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        pairs = slice(self.offsets[i], self.offsets[i + 1])
        return TopKObservation(
            self.vocab_sizes[i], self.modes[i], self.position_ids[i],
            self.input_order[pairs], self.token_ids[pairs], self.scores[pairs],
            float(self.log_ZA[i]),
        )

    @property
    def k(self) -> np.ndarray:
        """Each row's K."""
        return np.diff(self.offsets)

    @property
    def tau(self) -> np.ndarray:
        """Each row's censoring threshold, its smallest score."""
        return self.scores[self.offsets[1:] - 1]


def _batch(records: list[tuple], ids: np.ndarray, values: np.ndarray):
    """Run the pair checks of records stored end to end and sort each one.

    ``records`` holds each record's ``(line, position_id, vocab_size, mode,
    K)``, all of whose field checks have passed, and ``ids`` (int64) and
    ``values`` (float64) their pairs in source order.  Returns the batch of
    the records before the first one that fails a pair check, and that
    record's error (None if every record passes), a :class:`ParseError`
    when its line is known.
    """
    lines, pids, vocab_sizes, modes, counts = (
        map(list, zip(*records)) if records else ([],) * 5
    )
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    logprobs = np.array([m is AccessMode.LOGPROBS for m in modes], dtype=bool)
    by_score, sorted_values, log_za, flagged = _sorted_rows(
        ids, values, np.diff(offsets),
        np.array([_last_id(v) for v in vocab_sizes], dtype=np.int64), logprobs,
    )
    n, error = len(counts), None
    for r in flagged.tolist():
        pairs = slice(offsets[r], offsets[r + 1])
        try:
            # the arrays' values print as the values they were read from
            _check_flagged(ids[pairs].tolist(), values[pairs].tolist(),
                           vocab_sizes[r], ids[pairs], values[pairs], logprobs[r],
                           float(log_za[r]))
        except ValidationError as exc:
            n, error = r, exc if lines[r] is None else ParseError(lines[r], str(exc))
            break
    end = offsets[n]
    batch = ObservationBatch(pids[:n], modes[:n], vocab_sizes[:n], offsets[: n + 1],
                             ids[:end], by_score[:end], sorted_values[:end],
                             log_za[:n])
    return batch, error


# a chunked parse closes a chunk at the first record that brings it to this
# many revealed pairs: a few MB of columns, whatever the record sizes
_CHUNK_PAIRS = 1 << 17


def parse_observations(source: str | bytes | IO) -> ObservationBatch:
    """Parse line-delimited JSON records into one batch of validated observations.

    Each line is one record: ``{"vocab_size": V, "mode": "logits"|"logprobs",
    "topk": [{"token": id, "score": s}, ...], "position_id": optional}``.
    ``vocab_size`` and ``token`` must be JSON integers, ``score`` a JSON
    number and ``position_id`` a JSON string (``"line<n>"`` when absent)
    that no other record uses; nothing is coerced.  Input order is
    preserved; K is the length of the topk list.  Errors name the offending
    line.

    ``source`` is text, bytes or a stream of lines (see :func:`_read_jsonl`
    for the line rules).  Each line is decoded by ``orjson``, and again by
    ``json`` when orjson refuses it or its record fails a field check, so
    the records accepted and the errors raised are those of ``json`` (see
    :func:`_read_jsonl`).  The checks that read one record's fields run as
    each line is decoded; the pair checks of :func:`from_pairs` then run
    over the whole batch at once (see :func:`_sorted_rows`).  The first
    error in line order wins: a field error on a line is raised only once
    every earlier line has passed its pair checks.  The batch holds about
    24 bytes per revealed pair; the decoded lines' Python objects are
    dropped once their pairs are stored.
    """
    (batch,) = _batches(source, chunked=False)
    return batch


def _batches(source: str | bytes | IO, chunked: bool) -> Iterator[ObservationBatch]:
    """:func:`parse_observations` as a sequence of batches, in input order.

    Chunked, a batch closes at the first record that brings it to
    ``_CHUNK_PAIRS`` pairs and holds at least one record, so an empty input
    yields none; otherwise one batch holds every record.  An error is raised
    only after the batch of the records before its line has been yielded,
    so a consumer that checks each batch sees its own errors in line order
    too.
    """
    limit = _CHUNK_PAIRS if chunked else math.inf
    stream = _records(source)
    more = True
    while more:
        records, failure, more = [], None, False
        # the pairs of the chunk's records end to end
        tokens, scores = array.array("q"), array.array("d")
        try:
            for lineno, pid, vocab_size, mode, row_tokens, row_scores in stream:
                tokens += row_tokens
                scores += row_scores
                records.append((lineno, pid, vocab_size, mode, len(row_tokens)))
                del row_tokens, row_scores
                if len(scores) >= limit:
                    more = True
                    break
        except (ValueError, OSError) as exc:
            failure = exc
        batch, error = _batch(records, np.frombuffer(tokens, dtype=np.int64),
                              np.frombuffer(scores, dtype=np.float64))
        if len(batch) or not chunked:
            yield batch
        # a record's pair error comes from a line before the failed one
        if error is not None or failure is not None:
            raise error or failure


def _pair_error(lineno: int, tokens, scores, vocab_size: int) -> ParseError:
    """The pair error of a record holding a value that no array can."""
    try:
        _check_flagged(tokens, scores, vocab_size, None, None, False, None)
    except ValidationError as exc:
        return ParseError(lineno, str(exc))


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


def _check_head_mass(log_head: float) -> None:
    """Reject a normalized head whose mass ``exp(log_head)`` exceeds 1."""
    head = float(np.exp(log_head))
    if head > 1.0 + policy().head_mass_tol:
        raise ValidationError(
            f"revealed head mass {head!r} exceeds 1 beyond tolerance; "
            "refusing to renormalize"
        )


def _tail_mass(log_head: float) -> float:
    """``1 - exp(log_head)`` clamped to [0, 1]."""
    return min(1.0, max(0.0, -math.expm1(log_head)))
