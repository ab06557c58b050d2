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
import codecs
import functools
import gc
import io
import itertools
import json
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable, Container, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np
import orjson

from .numerics import columns, libm, logsumexp_rows, policy


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
    then for normalized access the sign, the head mass and the hidden tail's
    fit under its caps (see :func:`_check_tail`).  An error is a
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


def _sorted_rows(ids, values, counts, last_ids):
    """Check and sort the pairs of n records stored end to end.

    ``ids`` (int64) and ``values`` (float64) hold every record's pairs in
    source order, ``counts`` each record's K and ``last_ids`` its largest
    valid token id (see :func:`_last_id`).  Records that share K are checked
    and sorted as one (n, K) matrix by :func:`_sorted_matrix`.

    Returns the ids and scores sorted within each record, every record's
    ``log_ZA`` and a mask of the records that fail a check;
    :func:`_check_flagged` names a flagged record's failure.
    """
    n = len(counts)
    if n and (counts == counts[0]).all():
        # one K for all: the columns are the (n, K) matrix, with no gather.
        # Keep this path: without it a fresh analyze of the fulldump-32k
        # full dump (64 x 32,000 pairs in one batch) peaked at 191.5-191.6 MB
        # against 143.9-145.7 MB (ru_maxrss, three runs each)
        by_score, sorted_values, log_za, bad = _sorted_matrix(
            ids.reshape(n, -1), values.reshape(n, -1), last_ids)
        return by_score.ravel(), sorted_values.ravel(), log_za, bad
    starts = np.cumsum(counts) - counts
    by_score, sorted_values = np.empty_like(ids), np.empty_like(values)
    log_za = np.empty(n)
    bad = np.zeros(n, dtype=bool)
    for k in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == k)
        at = starts[rows, None] + np.arange(k)
        by_score[at], sorted_values[at], log_za[rows], bad[rows] = _sorted_matrix(
            ids[at], values[at], last_ids[rows])
    return by_score, sorted_values, log_za, bad


def _sorted_matrix(ids, values, last_ids):
    """Check n records of one K held as (n, K) matrices, and sort each row.

    The checks: the token ranges, the scores' finiteness and duplicate ids
    (one sort along each row).  Each row is sorted by score with a stable
    argsort.  Returns the sorted ids and scores, each row's ``log_ZA`` (in
    score order, as :func:`censet.simulate.ksweep` sums each prefix) and a
    mask of the rows that fail.
    """
    ordered = np.sort(ids, axis=1)
    bad = (
        (ids < 0) | (ids > last_ids[:, None]) | ~np.isfinite(values)
    ).any(axis=1) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    n, k = values.shape
    # the flat index of each row's pairs in score order
    at = np.argsort(-values, axis=1, kind="stable") + (np.arange(n) * k)[:, None]
    sorted_values = values.ravel()[at]
    return ids.ravel()[at], sorted_values, logsumexp_rows(sorted_values), bad


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
        _check_tail(log_za, float(values.min()), vocab_size - len(values))


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
    source: str | bytes | IO, check: Callable[[dict, int, bool], _T],
    check_block: Callable[[list, list, bool], _T | None] | None = None,
) -> Iterator[_T]:
    """``check(record, line number, literals)`` of each non-blank line of
    text, bytes or a stream, where the record is the line's JSON object and
    ``literals`` is :func:`_has_literal` of the line; with ``check_block``,
    one item per block of short lines where the block's check takes it.

    Lines end at ``\\n`` only, less one trailing ``\\r``; line numbers count
    them.  A stream is read by ``readline``, never whole, and bytes are read
    as a binary stream; open a text file with ``newline="\\n"`` so that no
    other character ends a line, and with ``errors="surrogateescape"`` so
    that a byte that is not UTF-8 is a :class:`ParseError` naming its line
    and its offset in the line, as one is in bytes.  Only lines of a ``str``
    source are not checked, so it may hold lone surrogates.

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

    With ``check_block``, records are observations.  Consecutive non-blank
    lines shorter than ``_COUNT_FROM_LENGTH``, such as K = 20 records of
    about 1 KB, are gathered into blocks of at most ``_PIECE_CHARS``
    characters (or one line), a longer line closing the block before it.
    A block gives one item, ``check_block(records, line numbers, literals)``
    of its lines' orjson records, where :func:`_block_records` decodes the
    block and ``check_block`` takes it.  Otherwise each of its lines is
    decoded whole by the rule above, from the block's first line, so the
    records, errors and line numbers are those of the lines alone.  A line
    of at least ``_COUNT_FROM_LENGTH`` characters first has its ``topk``
    list decoded and converted one piece at a time, once (see
    :func:`_piecewise`).  A line that path declines is decoded whole by the
    rule above; so is one whose record ``check`` rejects, or where the path
    raises, but with no orjson step.  Nothing of a long line is held once
    its item is yielded, and nothing of a block but its lines, until the
    next block begins.  While a long line is decoded, the Python objects
    held beside it and its arrays are those of one piece.

    Which lines stream: with ``check_block``, a seekable binary stream,
    bytes included, is read ``_COUNT_FROM_LENGTH`` bytes of a line at most,
    and a line that fills that with no newline is decoded as it is read,
    never held whole (see :func:`_utf8_blocks`).  If the piece path declines
    it, a byte that is not UTF-8 included, it is read again whole from its
    start, under the same line number.  Every other line is read whole.
    """
    checked, topk = not isinstance(source, str), check_block is not None
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, str):
        lines, limit = iter(source.split("\n")), -1
    else:
        end = source.read(0)
        streamable = topk and isinstance(end, bytes) and source.seekable()
        limit = _COUNT_FROM_LENGTH if streamable else -1
        lines = iter(functools.partial(source.readline, limit), end)
    lineno, block, numbers, size = 0, [], [], 0
    for line in lines:
        lineno += 1
        if topk and len(line) < _COUNT_FROM_LENGTH:
            if line and not line.isspace():
                if block and size + len(line) > _PIECE_CHARS:
                    yield from _block_items(block, numbers, checked, check, check_block)
                    block, numbers, size = [], [], 0
                block.append(line)
                numbers.append(lineno)
                size += len(line)
            continue
        if block:
            yield from _block_items(block, numbers, checked, check, check_block)
            block, numbers, size = [], [], 0
        # the start of a longer line, which is decoded as it is read
        streams = len(line) == limit and not line.endswith(b"\n")
        start = source.tell() - len(line) if streams else None
        if not streams:
            line = _text(line, lineno, checked)
        item, orjson_may_stand, decoded = [], True, None
        if streams or (topk and len(line) >= _COUNT_FROM_LENGTH):
            blocks = _utf8_blocks(source, line) if streams else (line,)
            try:
                decoded = _piecewise(blocks, lineno)
                if decoded is not None:
                    item.append(check(decoded[0], lineno, decoded[1]))
            except ValueError:
                orjson_may_stand = False
            del blocks, decoded
            if streams and not item:
                source.seek(start)
                line = _text(source.readline(), lineno, checked)
        if not item:
            if not line or line.isspace():
                continue
            item.append(_decoded(line, lineno, check, orjson_may_stand))
        del line
        # popped as it is yielded: no local holds the item while suspended
        yield item.pop()
    if block:
        yield from _block_items(block, numbers, checked, check, check_block)


def _block_items(
    lines: list, numbers: list, checked: bool, check: Callable[[dict, int, bool], _T],
    check_block: Callable[[list, list, bool], _T | None],
) -> Iterator[_T]:
    """The items of one block of short lines (see :func:`_read_jsonl`):
    ``check_block`` of the block's records, or ``check`` of each line's
    record decoded alone where :func:`_block_records` or ``check_block``
    declines the block."""
    # the block's records hold no cycle and are dropped before its item is
    # yielded, so a collection could free none of them; left on, the
    # collector ran 28 young and 0.2 full collections, 1.8 ms, in each
    # 11 ms parse of the topk-152k workload's 1,000 lines
    collecting = gc.isenabled()
    gc.disable()
    try:
        decoded = _block_records(lines)
        item = [decoded and check_block(decoded[0], numbers, decoded[1])]
        del decoded
    finally:
        if collecting:
            gc.enable()
    if item[0] is not None:
        yield item.pop()
        return
    for line, lineno in zip(lines, numbers):
        line = _text(line, lineno, checked)
        if not line.isspace():
            yield _decoded(line, lineno, check, True)


# every byte but the opening brackets and the line end
_NOT_OPENER = bytes(sorted(set(range(256)) - set(b"[{\n")))


def _block_records(lines: list) -> tuple[list, bool] | None:
    """The orjson records of a block of short lines, bytes or text, and
    :func:`_has_literal` of the block; None unless the block is UTF-8 with
    no lone surrogate, every line holds at most ``2 * _ORJSON_MAX_DEPTH``
    characters or every line at most ``_ORJSON_MAX_DEPTH`` opening brackets
    (counted for all lines in one pass), and orjson decodes each line.

    A line of depth d holds at least d opening brackets and 2d characters,
    so each line orjson gets is within its depth bound.  A record that orjson
    decodes and ``check`` accepts is the one ``json`` gives (see
    :func:`_read_jsonl`), whether or not :func:`_shallow` clears its line,
    so a block whose records all pass gives each line's item.
    """
    try:
        raw = "\n".join(lines).encode() if isinstance(lines[0], str) else b"".join(lines)
        text = raw.decode()
        if max(map(len, lines)) <= 2 * _ORJSON_MAX_DEPTH or max(
            map(len, raw.translate(None, _NOT_OPENER).split(b"\n"))
        ) <= _ORJSON_MAX_DEPTH:
            return list(map(orjson.loads, lines)), _has_literal(text)
    except ValueError:
        # a byte that is not UTF-8, a lone surrogate, a line orjson refuses
        pass
    return None


def _text(line: str | bytes, lineno: int, checked: bool) -> str:
    """A line as text, checked by :func:`_check_utf8` where ``checked``."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", "surrogateescape")
    if checked and not line.isascii():
        _check_utf8(line, lineno)
    return line


def _utf8_blocks(stream: IO, block: bytes) -> Iterator[str]:
    """The rest of a binary ``stream``'s line from its first read
    ``block`` on, as ``readline(_PIECE_CHARS)`` blocks decoded as UTF-8.

    Only the 0-3 bytes of a character that a block cuts are carried to the
    next, so a block that follows no cut is decoded with no join.  A byte
    that is not UTF-8 raises a :class:`UnicodeDecodeError`.
    """
    carry = b""
    while block:
        data = carry + block
        text, used = codecs.utf_8_decode(data, "strict", block.endswith(b"\n"))
        carry = data[used:]
        yield text
        block = b"" if block.endswith(b"\n") else stream.readline(_PIECE_CHARS)
    # a character that the end of the stream cuts
    codecs.utf_8_decode(carry, "strict", True)


def _decoded(
    line: str, lineno: int, check: Callable[[dict, int, bool], _T], orjson_may_stand: bool
) -> _T:
    """``check`` of one whole line's record, by the decoding rule of
    :func:`_read_jsonl`; with no orjson step unless ``orjson_may_stand``."""
    literals = _has_literal(line)
    if orjson_may_stand and _shallow(line):
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


# a long line's topk list is decoded in pieces of at least this many
# characters (about 2,800 entries of a full dump), each cut after an entry.
# A piece's text, its rewrites and its decoded values then stay within a
# core's L2 cache: parsing a fulldump-32k line took 7.8-8.8 ms in pieces of
# 2^16 to 2^17 characters against 11.9-13.6 ms in pieces of 2^20 (best of
# four, four rounds, on a 2-vCPU Xeon with 2 MiB of L2 a core)
_PIECE_CHARS = 1 << 17
# a topk key, its colon and the opening bracket of its list
_TOPK_LIST = re.compile(r'"topk"[ \t\n\r]*:[ \t\n\r]*\[')


class _Pairs(NamedTuple):
    """A topk list that :func:`_piecewise` decoded and converted, every
    pair of which an int64 and a float64 hold."""

    ids: array.array
    values: array.array


def _piecewise(blocks: Iterable[str], lineno: int) -> tuple[dict, bool] | None:
    """The record of an observation line with its ``topk`` list as
    :class:`_Pairs`, decoded and converted one piece at a time, and
    :func:`_has_literal` of the line; None, or a :class:`ValueError`, where
    this path declines the line.

    The line is the join of ``blocks``: one block of the whole line, or a
    stream's blocks that :func:`_utf8_blocks` reads as they are asked for.
    The line is cut into a head up to the ``[`` that follows the key
    ``"topk"``, the list's text, and a tail from the line's last ``]``.  The
    list's text is cut after a ``}`` that a ``,`` follows, the first one at
    least ``_PIECE_CHARS`` characters on from the last cut (a list whose
    entries no ``},`` separates is one piece).  Each piece's array
    ``"[" + piece + "]"`` is converted by :func:`_piece_pairs`: with no
    entry dict when it is in the form ``json.dumps`` writes (see
    :func:`_flat_pairs`), else decoded by orjson and converted by
    :func:`_topk_pairs`.  Its decoded objects are freed before the next
    piece is decoded; the frame ``head + "[]" + tail`` is decoded for the
    other fields.  Each text orjson gets is first cleared by
    :func:`_shallow`, but for a flat piece's rewrite, which nests nothing;
    the whole line is never encoded for that bound.  ``_has_literal`` runs
    on the head, the tail and each piece, never on the line: a literal
    cannot straddle a ``[``, ``]`` or ``},`` cut.

    How blocks are held: blocks join the head until it holds
    ``"topk": [``, each search starting at the last ``"topk"`` or the last
    5 characters of the text before, so a long head costs linear time.  The
    list's text not yet cut is carried, and each further block joins it; so
    what is held is a piece, the text after it and one block.  A carry
    longer than two pieces, where no ``},`` lets it be cut, declines the
    line.  The frame is checked once the blocks end, before the last text
    is cut, and for one block before any piece; a cut made in an earlier
    text lies before the line's last ``]`` only if the last text holds a
    ``]``, so the cuts are those of the whole line, or the path declines.

    Why an accepted record is the whole line's: the pieces rejoined with
    ``,`` are the list's text again.  When each piece decodes to a non-empty
    array, JSON's grammar makes their join with ``,`` a list of the same
    elements in order, so the list's text between brackets is a valid array
    of the pieces' entries.  With no backslash in the head or tail, a
    ``"topk"`` there is the string topk, not part of one; when it occurs
    once and the frame is an object whose ``topk`` is ``[]``, the ``[]``
    slot is the top-level topk value, and putting a valid array in that
    slot of a valid document yields the same object with that value.  So
    every record this path accepts is the record ``orjson.loads(line)``
    gives, or ``json`` for a line too deep for orjson, by the decoding rule
    of :func:`_read_jsonl`.  A cut inside a string leaves the piece before
    it with an unterminated string, which fails to decode.  The path
    declines a backslash in the head or tail, a second ``"topk"`` there, a
    frame that is not such an object, a piece that does not decode, fails
    the depth bound or is empty, and any conversion error, including an
    entry that is not an object or lacks a key and a value no int64 or
    float64 holds: the whole-line decode then gives today's record or error.

    It raises where the decline rules out orjson's decode of the line, once
    the frame checks have passed; before then a cut may lie past the list's
    end, so a :class:`ValueError` returns None.  Past the frame checks each
    piece that decodes holds the next elements of the line's topk list, as
    a JSON value's extent depends only on the text from its start.  So a
    conversion error, like a failed assembled record, fails ``check`` on
    any record orjson reads from the line; and a piece that orjson refuses
    but ``json`` takes holds a value only ``json`` takes (NaN, Infinity, a
    number beyond the float range, a lone surrogate), as does the line.
    """
    blocks = iter(blocks)
    ids, values = array.array("q"), array.array("d")

    def take(piece: str) -> bool:
        """Append the pairs of one piece; False where the path declines it."""
        nonlocal literals
        taken = _piece_pairs(f"[{piece}]", lineno)
        if taken is None:
            return False
        pairs, seen = taken
        ids.extend(pairs.ids)
        values.extend(pairs.values)
        literals = literals or seen
        return True

    try:
        text, start = next(blocks), 0
        while (found := _TOPK_LIST.search(text, start)) is None:
            block = next(blocks, None)
            # a match begins at the last "topk", if only whitespace and a
            # colon follow it (else the head holds two), or in the text's
            # last 5 characters
            at = text.rfind('"topk"', start)
            if block is None or (at >= 0 and text[at + 6:].strip(" \t\n\r:")):
                return None
            start = at if at >= 0 else max(start, len(text) - 5)
            text += block
        lo = found.end()
        head = text[: lo - 1]
        if "\\" in head or head.count('"topk"') != 1:
            return None
        literals = _has_literal(head)
        for block in blocks:
            while (cut := text.find("},", lo + _PIECE_CHARS)) >= 0:
                if not take(text[lo:cut + 1]):
                    return None
                lo = cut + 2
            if len(text) - lo > 2 * _PIECE_CHARS:
                return None
            text, lo = text[lo:] + block, 0
    except ValueError:
        # a cut past the list's end, or a block that is not UTF-8
        return None
    # the line ends in this text, its list at the last "]"
    hi = text.rfind("]")
    tail = text[hi + 1:]
    record = _frame(head, tail) if hi >= lo else None
    if record is None:
        return None
    literals = literals or _has_literal(tail)
    while (cut := text.find("},", lo + _PIECE_CHARS, hi)) >= 0:
        if not take(text[lo:cut + 1]):
            return None
        lo = cut + 2
    if not take(text[lo:hi]):
        return None
    record["topk"] = _Pairs(ids, values)
    return record, literals


def _frame(head: str, tail: str) -> dict | None:
    """The record of the frame ``head + "[]" + tail``, the line with its
    topk list emptied; None unless the tail holds no backslash and no
    ``"topk"`` and the frame is an object whose ``topk`` is ``[]``."""
    if "\\" in tail or '"topk"' in tail:
        return None
    frame = head + "[]" + tail
    if not _shallow(frame):
        return None
    try:
        record = orjson.loads(frame)
    except orjson.JSONDecodeError:
        return None
    if not isinstance(record, dict) or record.get("topk") != []:
        return None
    return record


def _piece_pairs(text: str, lineno: int) -> tuple[_Pairs, bool] | None:
    """The arrays of the entries of one piece's array ``text``, and
    :func:`_has_literal` of the text; None, or a :class:`ValueError`, where
    :func:`_piecewise` declines it.  A text that :func:`_flat_pairs`
    declines is decoded into entry dicts.  Its decoded objects are freed on
    return."""
    pairs = _flat_pairs(text)
    if pairs is not None:
        # a flat text spells no u and no f, so no literal
        return pairs, False
    literals = _has_literal(text)
    if not _shallow(text):
        return None
    try:
        entries = orjson.loads(text)
    except orjson.JSONDecodeError:
        try:
            json.loads(text)
        except json.JSONDecodeError:
            return None
        raise  # json takes what orjson refuses: orjson refuses the line
    if not entries:
        return None
    _, _, ids, values = _topk_pairs(entries, lineno, literals)
    if ids is None or values is None:
        raise ValueError("a topk value that no int64 or float64 holds")
    return _Pairs(ids, values), literals


# the characters of a JSON number
_NUMBER_CHARS = b"0123456789+-.eE"
# what deleting them leaves of one entry as json.dumps writes it, and of the
# ", " that follows it
_ENTRY_SKELETON = b'{"tokn": , "scor": }, '
# spells each key of such an entry as the literal true: "token" -> true,
# "score" -> true, each ":" a comma
_KEYS_TO_TRUE = bytes.maketrans(b'{}"ns:okrc', b"     ,ruut")


def _flat_pairs(text: str) -> _Pairs | None:
    """The arrays of one piece's array ``text`` of entries in the form
    ``json.dumps`` writes, read with no entry dict; None for any other text.

    Two checks on the text's bytes: deleting each character of a JSON number
    (``0-9 + - . e E``) leaves exactly the skeleton ``[{"tokn": ,
    "scor": }, {"tokn": , "scor": }, ...]`` of n >= 1 entries, with one
    space allowed after the ``[`` (a piece that :func:`_pieces` cut begins
    with the space after a comma); and each ``}`` but the last is followed
    by ``, {``, the last by the closing ``]``.  The text is then rewritten
    byte for byte by ``_KEYS_TO_TRUE`` and decoded by orjson, which gives
    ``[true, token, true, score, ...]``, whose slices ``[1::4]`` and
    ``[3::4]`` become the int64 and float64 ``array.array`` of the pairs.  A
    rewrite orjson refuses, or a value that ``array.array`` refuses, gives
    None.

    Why the arrays are those of the entry-dict decode: the text is its
    skeleton with runs of number characters inserted, and the rewrite keeps
    number characters as they are.  Its commas come from the skeleton's
    ``:`` and ``,`` alone, so it has 4n - 1, and each of the 4n elements
    between them rewrites one stretch of the text between the same
    separators.  A key's stretch rewrites to ``tru`` among spaces, plus the
    number characters inserted there; the letters t, r, u and number
    characters can form no JSON value but ``true`` (``"`` is gone, so no
    string), and ``true`` only with an ``e`` between the ``u`` and the
    space that ``n`` or ``"`` became, and nothing else: the key ``"token"``
    or ``"score"`` spelled exactly.  ``n``, ``s`` and ``"`` become spaces,
    so a space added inside a key would rewrite as whitespace too; the
    skeleton is compared spaces and all, so no key holds one.  A value's
    stretch holds number characters and spaces, where the text's value lies
    between a ``: `` and the next ``,`` or ``}``; the ``}`` becomes a space,
    and the second check keeps a number from standing after it, where the
    text would not be JSON.  So a rewrite that decodes is a JSON array whose
    values are ``true`` and numbers, each number spelled as in the text, and
    the text is a JSON array of n objects ``{"token": t, "score": s}``
    whose values orjson reads as it reads them in the rewrite.  The slices
    hold only those numbers, so they pass the JSON kind checks of
    :func:`_topk_pairs`, and ``array.array`` converts them as
    :func:`_json_array` does.  Nothing nests, so no depth bound is needed.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    skeleton = raw.translate(None, _NUMBER_CHARS)
    n, lead = divmod(len(skeleton), len(_ENTRY_SKELETON))
    if not (
        n and lead < 2 and skeleton.startswith(b"[ "[: 1 + lead])
        and skeleton.startswith(_ENTRY_SKELETON * (n - 1), 1 + lead)
        and skeleton.endswith(_ENTRY_SKELETON[:-2] + b"]")
        and raw.count(b"}, {") == n - 1 and raw.endswith(b"}]")
    ):
        return None
    try:
        values = orjson.loads(raw.translate(_KEYS_TO_TRUE))
        return _Pairs(array.array("q", values[1::4]), array.array("d", values[3::4]))
    except (orjson.JSONDecodeError, TypeError, OverflowError):
        return None


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
# full-dump line the count gives up after 0.12 ms beside the bound's 2.7 ms.
# An observation line this long takes the piece path of _piecewise first,
# where a piece in the form json.dumps writes needs neither (_flat_pairs):
# such a line pays the bound only for a piece or a line the path declines
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


def _topk_pairs(
    topk: list, lineno: int, literals: bool
) -> tuple[list, list, array.array | None, array.array | None]:
    """The tokens and scores of a list of topk entries, as decoded, and
    their int64 and float64 arrays by :func:`_json_array` (None where a
    value is beyond its range); a :class:`ParseError` for an entry that is
    not an object holding both keys, or a value of the wrong JSON kind."""
    try:
        tokens = list(map(_TOKEN, topk))
        scores = list(map(_SCORE, topk))
    except (KeyError, TypeError) as exc:
        raise ParseError(lineno, f"malformed topk entry ({exc!r})") from exc
    return (tokens, scores, _json_array(tokens, "q", "token", lineno, literals),
            _json_array(scores, "d", "score", lineno, literals))


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
    line's screen for :func:`_json_array`.  A topk list that
    :func:`_piecewise` converted arrives as :class:`_Pairs`.
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
    if isinstance(topk, _Pairs):
        # its entries' checks passed piece by piece
        tokens, scores = ids, values = topk
    elif isinstance(topk, list) and topk:
        tokens, scores, ids, values = _topk_pairs(topk, lineno, literals)
    else:
        raise ParseError(lineno, "topk must be a non-empty list")
    try:
        _check_shape(vocab_size, len(tokens), len(scores))
    except ValidationError as exc:
        raise ParseError(lineno, str(exc)) from exc
    if ids is None or values is None:
        raise _pair_error(lineno, tokens, scores, vocab_size)
    return vocab_size, _MODE_NAMES[mode_name], ids, values


_FIELDS = operator.itemgetter("vocab_size", "mode", "topk")


def _records(source: str | bytes | IO) -> Iterator[tuple]:
    """``(rows, tokens, scores)`` of each record or block of records once
    the checks that read its fields alone have passed: each record's row
    ``(line, position_id, vocab_size, mode, K)`` and their pairs end to end
    in source order, as ``array.array`` int64 and float64."""
    seen: set[str] = set()

    def fields(record: dict, lineno: int, literals: bool) -> tuple:
        pid = record.get("position_id", f"line{lineno}")
        _check_position_id(pid, lineno, seen)
        vocab_size, mode, ids, values = _record_fields(record, lineno, literals)
        # taken only once every check has passed: a failed check runs
        # again on json's decode of the line
        seen.add(pid)
        return [(lineno, pid, vocab_size, mode, len(ids))], ids, values

    def block(records: list, numbers: list, literals: bool) -> tuple | None:
        """:func:`fields` of a block's records at once, on its columns; None
        where any record may fail a check, with ``seen`` unchanged."""
        try:
            pids = list(map(dict.get, records, itertools.repeat("position_id")))
            if None in pids:
                pids = [r.get("position_id", f"line{n}") for r, n in zip(records, numbers)]
            vocab_sizes, modes, topks = zip(*map(_FIELDS, records))
            modes = list(map(_MODE_NAMES.__getitem__, modes))
            counts = list(map(len, topks))
            entries = list(itertools.chain.from_iterable(topks))
            tokens, scores = list(map(_TOKEN, entries)), list(map(_SCORE, entries))
            ids, values = array.array("q", tokens), array.array("d", scores)
        except (LookupError, TypeError, OverflowError):
            return None
        kinds = set(map(type, vocab_sizes)), set(map(type, topks)), set(map(type, pids))
        # a bool passes the conversion, and needs a literal word
        if kinds != ({int}, {list}, {str}) or not (
            min(counts) and all(map(operator.le, counts, vocab_sizes))
            and len(set(pids)) == len(pids) and seen.isdisjoint(pids)
        ) or (literals and bool in set(map(type, tokens)) | set(map(type, scores))):
            return None
        seen.update(pids)
        return list(zip(numbers, pids, vocab_sizes, modes, counts)), ids, values

    return _read_jsonl(source, fields, block)


@dataclass(frozen=True, eq=False)
class ObservationBatch(Sequence):
    """Validated observations held column by column, one row per record;
    :func:`parse_observations` builds it.

    Rows keep input order.  Row i's pairs are ``offsets[i]:offsets[i + 1]``
    of ``input_order`` (token ids in source order) and of ``token_ids`` and
    ``scores`` (sorted by score as in :class:`TopKObservation`).  Indexing
    or iterating yields each row as a :class:`TopKObservation` over
    read-only views of these arrays; a slice yields a list of them.
    ``lines`` holds each record's line in its source (None for a record
    :func:`from_pairs` made).
    """

    lines: list[int | None]
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
    by_score, sorted_values, log_za, bad = _sorted_rows(
        ids, values, np.diff(offsets),
        np.array([_last_id(v) for v in vocab_sizes], dtype=np.int64),
    )
    # the sign check; past it a log head is at most log K, in math.exp's range
    bad |= logprobs & (sorted_values[offsets[:-1]] > 0.0)
    rows = np.flatnonzero(logprobs & ~bad)
    if len(rows):
        _, bad[rows] = _tail_rule(
            log_za[rows], sorted_values[offsets[rows + 1] - 1],
            [vocab_sizes[r] - counts[r] for r in rows.tolist()])
    n, error = len(counts), None
    for r in np.flatnonzero(bad).tolist():
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
    batch = ObservationBatch(lines[:n], pids[:n], modes[:n], vocab_sizes[:n],
                             offsets[: n + 1], ids[:end], by_score[:end],
                             sorted_values[:end], log_za[:n])
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
    that no other record uses; nothing is coerced.  A normalized record's
    scores must be <= 0 and its tail must fit under its caps (see
    :func:`_check_tail`), so every command accepts the same records.  Input
    order is preserved; K is the length of the topk list.  Errors name the
    offending line.

    ``source`` is text, bytes or a stream of lines (see :func:`_read_jsonl`
    for the line rules, and for the long lines of bytes or a seekable
    binary stream, which are decoded as they are read, once).  Each line is
    decoded by ``orjson``, and again by ``json`` when orjson refuses it or
    its record fails a field check, so the records accepted and the errors
    raised are those of ``json`` (see :func:`_read_jsonl`).  The checks
    that read one record's fields run as each line is decoded, at once for
    a block of short lines; the pair checks of :func:`from_pairs` then run
    over the whole batch at once (see :func:`_sorted_rows`).  The first
    error in line order wins: a field error on a line is raised only once
    every earlier line has passed its pair checks.  The batch holds about
    24 bytes per revealed pair; the decoded lines' Python objects are
    dropped once their pairs are stored.  A long record's decode holds its
    arrays and the Python objects of one piece of entries (about
    ``_PIECE_CHARS`` characters; see :func:`_piecewise` for where a piece
    may run longer), and the line itself unless it streams; lines shorter
    than ``_COUNT_FROM_LENGTH`` are decoded a block of at most
    ``_PIECE_CHARS`` characters at a time, which holds the block's lines,
    their records and their arrays.  3,000 K = 20 lines of about 1 KB read
    at a 2.6 MB traced peak, 1.6 MB of it their columns and rows, where
    their decoded records together take 15 MB.  A piece
    in the form ``json.dumps`` writes is read with no entry dict (see
    :func:`_flat_pairs`): a V = 151,936 full-dump record of 6.9 MiB parses
    at an 8.4 MiB peak (``tracemalloc``) from a file opened in binary or
    from bytes, where the batch's sort sets the peak, and at 13.8 MiB from a
    text file, whose read of the line takes twice its length; one decode of
    the whole line took 47.1 MiB.  A V = 32,000 record of 1.4 MiB parses at
    1.8 MiB from a file opened in binary.
    """
    ((records, ids, values, failure),) = _chunks(source, chunked=False)
    batch, error = _batch(records, ids, values)
    # a record's pair error comes from a line before the failed one
    if error is not None or failure is not None:
        raise error or failure
    return batch


def _chunks(source: str | bytes | IO, chunked: bool) -> Iterator[tuple]:
    """The records of a JSONL source whose field checks passed, in chunks
    of ``(records, ids, values, failure)``, before any pair check.

    ``records`` holds each record's ``(line, position_id, vocab_size, mode,
    K)`` and ``ids`` (int64) and ``values`` (float64) their pairs end to
    end, in source order, as :func:`_batch` takes them.  Chunked, a chunk
    closes at the first record that brings it to ``_CHUNK_PAIRS`` pairs,
    and the later records of its block of short lines open the next chunk;
    otherwise one chunk holds every record.  ``failure`` is the error of
    the line that ended the stream, or None; it is due once the chunk's
    own records have passed their pair checks.  The last chunk may hold no
    record.  Nothing here holds a chunk's arrays once the next chunk is
    asked for, so a consumer that drops its own references holds one
    chunk at a time.
    """
    limit = _CHUNK_PAIRS if chunked else math.inf
    stream = _records(source)
    more = True
    while more:
        records, failure, more = [], None, False
        # the pairs of the chunk's records end to end
        tokens, scores = array.array("q"), array.array("d")
        try:
            for rows, row_tokens, row_scores in stream:
                if records:
                    tokens += row_tokens
                    scores += row_scores
                else:
                    # the first item's own arrays, which nothing else holds:
                    # a long record's pairs are not copied
                    tokens, scores = row_tokens, row_scores
                records += rows
                del rows, row_tokens, row_scores
                if len(scores) >= limit:
                    more = True
                    # close at the first record that reaches the limit; the
                    # rest of its block opens the next chunk
                    cut, end = len(records), len(scores)
                    while end - records[cut - 1][4] >= limit:
                        cut -= 1
                        end -= records[cut][4]
                    if cut < len(records):
                        rest = records[cut:], tokens[end:], scores[end:]
                        stream = itertools.chain([rest], stream)
                        del records[cut:], tokens[end:], scores[end:], rest
                    break
        except (ValueError, OSError) as exc:
            failure = exc
        chunk = [(records, np.frombuffer(tokens, dtype=np.int64),
                  np.frombuffer(scores, dtype=np.float64), failure)]
        del records, tokens, scores
        # popped as it is yielded: no local holds the chunk while suspended
        yield chunk.pop()


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


def _check_tail(log_head: float, tau: float, m: int) -> float:
    """:func:`_tail_rule` of one record: its t*, or the rule's error."""
    t_star, rejected = columns(_tail_rule, log_head, tau, m)
    if rejected:
        head = math.exp(log_head)
        if head > 1.0 + policy().head_mass_tol:
            raise ValidationError(
                f"revealed head mass {head!r} exceeds 1 beyond tolerance; "
                "refusing to renormalize"
            )
        raise ValidationError(
            f"inconsistent observation: hidden tail mass {t_star!r} cannot "
            f"fit under cap {math.exp(tau)!r} on {m} censored tokens"
        )
    return t_star


def _tail_rule(log_head, tau, m) -> tuple[np.ndarray, np.ndarray]:
    """Each normalized row's hidden tail mass t*, and a mask of the rows
    with a head mass ``exp(log_head)`` above 1 + ``head_mass_tol`` or t*
    above M*c + ``tail_feasibility_tol`` (M an int, c = ``exp(tau)``)."""
    t_star, limits = _tail_masses(log_head), policy()
    room = np.fromiter(map(_room, m, libm(math.exp, tau).tolist()), np.float64, len(m))
    return t_star, (libm(math.exp, log_head) > 1.0 + limits.head_mass_tol) | (
        t_star > room + limits.tail_feasibility_tol)


def _room(m: int, cap: float) -> float:
    """M*c as Python rounds it, and exactly, bounded, past the float range."""
    try:
        return m * cap
    except OverflowError:
        num, den = cap.as_integer_ratio()
        return min(m * num, 2**1023 * den) / den


def _tail_mass(log_head):
    """``1 - exp(log_head)`` clamped to [0, 1], of a float or of a float
    column."""
    return columns(_tail_masses, log_head)


def _tail_masses(log_head) -> np.ndarray:
    t = -libm(math.expm1, log_head)
    t = np.where(t > 0.0, t, 0.0)
    return np.where(t < 1.0, t, 1.0)
