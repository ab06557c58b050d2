"""Line decoding: orjson first, json when orjson refuses a line or its record
fails a check, so parses match a json-only decode exactly."""

import array
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censet import cli, observation, reference
from censet.observation import (
    _COUNT_FROM_LENGTH,
    _ORJSON_MAX_DEPTH,
    AccessMode,
    ParseError,
    _few_openers,
    _has_literal,
    _piecewise,
    _shallow,
    parse_observations,
    serialize_observations,
)
from censet.simulate import censor

from conftest import chunked_batches, parse_reference_dump


def _refuse(line):
    # a line may be bytes, which orjson takes and JSONDecodeError does not
    raise orjson.JSONDecodeError("refused", "", 0)


def _json_only():
    """Every line decoded by json: orjson refuses them all."""
    return mock.patch.object(observation, "orjson", mock.Mock(loads=_refuse))


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _batch_digest(batch) -> tuple:
    return (
        batch.position_ids, batch.modes, batch.vocab_sizes,
        *(_bits(a) for a in (batch.offsets, batch.input_order, batch.token_ids,
                             batch.scores, batch.log_ZA)),
    )


def _whole(text):
    return _batch_digest(parse_observations(text))


def _chunked(text):
    # chunks of about two pairs, so errors also land between chunks
    with mock.patch.object(observation, "_CHUNK_PAIRS", 2):
        digests = []
        for batch in chunked_batches(text):
            digests.append(_batch_digest(batch))
    return digests


def _references(text):
    return {
        pid: (None if ref.dense is None else _bits(ref.dense),
              None if ref.entries is None else
              [(u, _bits(np.float64(v))) for u, v in ref.entries.items()],
              None if ref.default is None else _bits(np.float64(ref.default)))
        for pid, ref in parse_reference_dump(text).items()
    }


def _outcome(parse, text):
    """The parse's result, or its error's type and message."""
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# JSON literals that orjson and json decode alike; a pool repeats a value
# to draw it more often
VOCAB = ["8"] * 20 + ["5", "0", "-1", "9223372036854775807", "18446744073709551615"]
INTEGERS = ["0", "1", "2", "3", "4", "5", "8", "-1", "9223372036854775807",
            "18446744073709551615", "-9223372036854775808"]
NUMBERS = ["0.5", "-1.25", "-3", "0", "-0.0", "-2.5e-3", "1E+2", "1e-400",
           "-0.6931471805599453", "5e-324", "-7"]
STRINGS = ['"p0"', '"p1"', '"p2"', '"p3"', '"p4"', '"line2"', '"-inf"',
           '"\\u00e9"', '"logits"']
OTHERS = ["null", "true", "false", "[]", "{}", '[{"token": 1}]']
# literals that orjson refuses or reads other than json: integers outside
# [-2**63, 2**64) (orjson: the nearest float), NaN and infinities, numbers
# beyond the float range, a lone surrogate and a raw control character
SPECIAL = ["18446744073709551616", "-9223372036854775809", "1" + "0" * 30,
           "-" + "7" * 25, "1" + "0" * 400, "NaN", "Infinity", "-Infinity",
           "1e400", "-1e400", '"\\ud800"', '"p\\udc00"', '"a\tb"']


def _rarely(n: int):
    """True one time in ``n``."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _value(draw, pool):
    """A literal from ``pool``, or one time in 25 from ``SPECIAL``."""
    return draw(st.sampled_from(SPECIAL if draw(_rarely(25)) else pool))


def _object(draw, fields: dict) -> str:
    """A JSON object of ``fields`` (key -> literal strategy), some left out,
    some given twice, some with a key outside the form."""
    pairs = [(k, draw(v)) for k, v in fields.items() if not draw(_rarely(60))]
    if pairs and draw(_rarely(6)):
        key, _ = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(fields[key])))
    if draw(_rarely(10)):
        pairs.append(("extra", draw(_value(NUMBERS + OTHERS))))
    return "{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}"


def _entries(draw, score_key: str) -> str:
    """A list of up to four entries, with distinct tokens but for rare values."""
    k = draw(st.sampled_from([1, 2, 3, 4] * 3 + [0]))
    tokens = draw(st.permutations(range(8)))[:k]
    entries = [
        _object(draw, {"token": _value([str(t)] * 40 + INTEGERS),
                       score_key: _value(NUMBERS)})
        for t in tokens
    ]
    return "[" + ", ".join(entries) + "]"


@st.composite
def _observation(draw) -> str:
    return _object(draw, {
        "vocab_size": _value(VOCAB),
        "mode": _value(['"logits"'] * 3 + ['"logprobs"']),
        "position_id": _value(STRINGS),
        "topk": st.just(_entries(draw, "score")),
    })


@st.composite
def _reference(draw) -> str:
    if draw(st.booleans()):
        dense = st.lists(_value(NUMBERS), max_size=4).map(
            lambda values: "[" + ", ".join(values) + "]"
        )
        return _object(draw, {"position_id": _value(STRINGS), "dense": dense})
    return _object(draw, {
        "position_id": _value(STRINGS),
        "default": _value(NUMBERS * 2 + ['"-inf"'] + OTHERS),
        "entries": st.just(_entries(draw, "logit")),
    })


def _text(record):
    other = st.sampled_from(["", "  ", "\t", "null", "[1]", '"s"', "3", "{"])
    line = _rarely(10).flatmap(lambda rare: other if rare else record)
    ending = st.sampled_from(["\n", "\r\n"])
    return st.lists(st.tuples(line, ending), min_size=1, max_size=6).map(
        lambda lines: "".join(a + b for a, b in lines)
    )


class TestEquivalence:
    """Each parse equals the same parse with every line decoded by json."""

    @given(_text(_observation()))
    @settings(max_examples=250, deadline=None)
    def test_observations(self, text):
        for parse in (_whole, _chunked):
            got = _outcome(parse, text)
            with _json_only():
                assert got == _outcome(parse, text)

    @given(_text(_reference()))
    @settings(max_examples=250, deadline=None)
    def test_references(self, text):
        got = _outcome(_references, text)
        with _json_only():
            assert got == _outcome(_references, text)

    @pytest.mark.parametrize("source", [str, str.encode, io.StringIO])
    def test_sources(self, source):
        text = (
            '{"vocab_size": 5, "mode": "logits", "topk": [{"token": 3, '
            '"score": 1e308}, {"token": 0, "score": 18446744073709551616}]}\r\n\n'
            '{"vocab_size": 5, "mode": "logits", "topk": [{"token": 1, "score": NaN}]}\n'
        )
        got = _outcome(_whole, source(text))
        with _json_only():
            assert got == _outcome(_whole, source(text))
        assert got == (ParseError, "line 3: non-finite score nan for token 1")

    def test_raw_lone_surrogate_in_a_long_line(self):
        # a str can hold a lone surrogate, which orjson refuses to encode
        topk = ", ".join('{"token": %d, "score": -1.5}' % t for t in range(60))
        text = ('{"vocab_size": 60, "mode": "logits", "position_id": "\ud800", '
                '"topk": [%s]}\n' % topk)
        assert len(text) > 2 * _ORJSON_MAX_DEPTH
        got = _outcome(_whole, text)
        with _json_only():
            assert got == _outcome(_whole, text)
        assert got[0] == ["\ud800"]

    def test_big_int_token_is_not_a_duplicate_position_id(self):
        # orjson reads the token as a float, which fails the field checks
        # after the position_id check passed: the json retry must not find
        # the line's own position_id already taken
        line = ('{"vocab_size": 5, "mode": "logits", "position_id": "p0", '
                '"topk": [{"token": 18446744073709551616, "score": 0.0}]}\n')
        message = "line 1: token id 18446744073709551616 outside [0, 5)"
        with pytest.raises(ParseError) as caught:
            parse_observations(line)
        assert str(caught.value) == message
        ref = ('{"position_id": "p0", '
               '"entries": [{"token": 18446744073709551616, "logit": 0}]}')
        with pytest.raises(ParseError) as caught:
            parse_reference_dump(ref)
        assert str(caught.value) == (
            "line 1: token id 18446744073709551616 outside [0, 9223372036854775807]"
        )


def _old_conversion(values, typecode, what, lineno, literals):
    """The conversion rule before one ``array.array`` pass: the exact kind
    check of every value, then ``np.fromiter``; None on overflow."""
    observation._check_json_kind(values, observation._ARRAY_KINDS[typecode], what,
                                 lineno)
    dtype = np.int64 if typecode == "q" else np.float64
    try:
        converted = np.fromiter(values, dtype, len(values))
    except OverflowError:
        return None
    return array.array(typecode, converted.tobytes())


@contextlib.contextmanager
def _old_rule():
    with mock.patch.object(observation, "_json_array", _old_conversion), \
            mock.patch.object(reference, "_json_array", _old_conversion):
        yield


# a value of every JSON kind: integers, floats and bools; null, strings,
# lists and objects; integers past 2**63, past 2**64 and past the float
# range; and the NaN and infinities that only the json fallback reads
ANY_KIND = ["7", "-2", "0.5", "-1e-3", "true", "false", "null", '"3"', '"true"',
            "[]", "[1]", "{}", '{"a": 1}', str(2**63), str(-(2**63) - 1),
            str(2**64), "1" + "0" * 30, "1" + "0" * 400, "-" + "1" * 400,
            "NaN", "Infinity", "-Infinity"]
# position ids that hold the words of the literal screen, its letters or an
# infinity's name
SCREEN_IDS = ['"true"', '"f0"', '"uuid"', '"Infinity"', '"p0"', '"nul"', '"false"']


@st.composite
def _mixed(draw, pool):
    """A literal from ``pool``, or one time in four of any kind."""
    return draw(st.sampled_from(ANY_KIND if draw(_rarely(4)) else pool))


def _pairs(draw, score_key: str) -> str:
    k = draw(st.integers(0, 5))
    tokens = draw(st.permutations(range(8)))[:k]
    return "[" + ", ".join(
        '{"token": %s, "%s": %s}' % (draw(_mixed([str(t)])), score_key,
                                     draw(_mixed(NUMBERS)))
        for t in tokens
    ) + "]"


@st.composite
def _any_kind_record(draw) -> str:
    pid = draw(st.sampled_from(SCREEN_IDS))
    form = draw(st.sampled_from(["observation", "dense", "sparse"]))
    if form == "observation":
        return ('{"vocab_size": %s, "mode": "logits", "position_id": %s, "topk": %s}'
                % (draw(_mixed(VOCAB)), pid, _pairs(draw, "score")))
    if form == "dense":
        values = draw(st.lists(_mixed(NUMBERS), max_size=5))
        return '{"position_id": %s, "dense": [%s]}' % (pid, ", ".join(values))
    return ('{"position_id": %s, "default": %s, "entries": %s}'
            % (pid, draw(_mixed(NUMBERS + ['"-inf"'])), _pairs(draw, "logit")))


class TestConversionParity:
    """One ``array.array`` pass, with the exact kind check only on a literal
    word or a failed conversion, gives every batch and every error message
    of the exact kind check followed by ``np.fromiter``.  Both rules reject
    NaN reference scores, after the conversion: that check is new, and
    ``test_reference`` shows it."""

    @given(st.lists(_any_kind_record(), min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_same_batches_and_errors(self, records):
        text = "\n".join(records) + "\n"
        parses = (_whole, _chunked, _references)
        for decode in (contextlib.nullcontext, _json_only):
            with decode():
                got = [_outcome(parse, text) for parse in parses]
                with _old_rule():
                    want = [_outcome(parse, text) for parse in parses]
            assert got == want

    @pytest.mark.parametrize("line, message", [
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 1, '
         '"score": true}]}', "line 1: score must be a JSON number, got True"),
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": false, '
         '"score": 0.5}]}', "line 1: token must be a JSON integer, got False"),
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 18446744073709551615, '
         '"score": 0.5}, {"token": 1, "score": "x"}]}',
         "line 1: score must be a JSON number, got 'x'"),
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 9223372036854775808, '
         '"score": 0.5}, {"token": 1.0, "score": 0.5}]}',
         "line 1: token must be a JSON integer, got 1.0"),
        ('{"position_id": "a", "dense": [1, %s, true]}' % ("1" + "0" * 400),
         "line 1: dense score must be a JSON number, got True"),
        ('{"position_id": "a", "default": 0, "entries": '
         '[{"token": 9223372036854775808, "logit": 0}, {"token": true, "logit": 0}]}',
         "line 1: token must be a JSON integer, got True"),
    ])
    def test_kind_error_behind_an_overflow_or_a_bool(self, line, message):
        parse = parse_reference_dump if "position_id" in line else parse_observations
        for decode in (contextlib.nullcontext, _json_only):
            with decode(), pytest.raises(ParseError) as caught:
                parse(line)
            assert str(caught.value) == message


class TestLiteralScreen:
    @pytest.mark.parametrize("line", [
        "true", "null", "false", '{"a": 1, "b": true', '[1, null', '{"a": false',
        '{"position_id": "untrue"}', '{"position_id": "a nullity"}',
        '{"position_id": "falsehood", "v": 1}',
    ])
    def test_finds_the_words(self, line):
        assert _has_literal(line)

    @pytest.mark.parametrize("line", [
        "", "tru", "ull", "alse", "fals", "TRUE", "Null", "t rue", "nu ll",
        '{"position_id": "f0", "uuid": "fu", "unit": "nul"}',
        # the letters around a u or an f at either end of the line
        "ue, tr", "ull, n", "u", "f", "alse, f",
    ])
    def test_ignores_letters(self, line):
        assert not _has_literal(line)


def _padded(value: str, pad: int = _COUNT_FROM_LENGTH) -> str:
    return f'{{"pad": "{"x" * pad}", "v": {value}}}'


class TestBracketCount:
    """A long line holding at most ``_ORJSON_MAX_DEPTH`` opening brackets
    is clear of the depth bound."""

    @pytest.mark.parametrize("extra, shallow", [(0, True), (1, False)])
    def test_nested_brackets(self, extra, shallow):
        # the object holding "pad" is one level, one opening bracket
        depth = _ORJSON_MAX_DEPTH - 1 + extra
        line = _padded("[" * depth + "]" * depth)
        assert _depth(json.loads(line)) == 1 + depth
        assert _shallow(line) is shallow
        # shorter lines go to the bound, which counts each [ twice
        short = _padded("[" * depth + "]" * depth, pad=0)
        assert 2 * _ORJSON_MAX_DEPTH < len(short) < _COUNT_FROM_LENGTH
        assert not _shallow(short)

    # past the count, the bound decides: it counts each [ twice and a {
    # only after a colon
    @pytest.mark.parametrize("opener, bound", [("[", False), ("{", True),
                                               ("[{", False)])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_brackets_in_strings(self, opener, bound, extra):
        n = _ORJSON_MAX_DEPTH - 1 + extra
        line = _padded(json.dumps((opener * n)[:n]))
        assert len(line) > _COUNT_FROM_LENGTH
        assert line.count("[") + line.count("{") == 1 + n
        assert _few_openers(line) is not extra
        assert _shallow(line) is (bound if extra else True)

    @given(st.integers(1, 2 * _ORJSON_MAX_DEPTH),
           st.lists(st.sampled_from(["array", "element", "value"]), min_size=1,
                    max_size=3),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_count_holds(self, depth, kinds, noisy, seed):
        line = _padded(_nest(random.Random(seed), depth, kinds, noisy))
        actual = _depth(json.loads(line))
        assert actual == depth
        if _shallow(line):
            assert actual <= _ORJSON_MAX_DEPTH


RECORD = '{"vocab_size": 5, "mode": "logits", "topk": [{"token": 1, "score": 0.5}]}'


class TestLineEnds:
    """orjson gets each line with its end; json gets it less the end."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    @pytest.mark.parametrize("source", [str, str.encode, io.StringIO])
    def test_unterminated_string_at_a_line_end(self, ending, source):
        text = RECORD + ending + '{"a": "xyz' + ending
        message = "line 2: invalid JSON (Unterminated string starting at)"
        for parse in (_whole, _chunked):
            assert _outcome(parse, source(text)) == (ParseError, message)
            with _json_only():
                assert _outcome(parse, source(text)) == (ParseError, message)

    @pytest.mark.parametrize("bad, message", [
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 0, "score": 0.5}, '
         '{"token": 9223372036854775808, "score": 0.5}]}',
         "line 2: token id 9223372036854775808 outside [0, 5)"),
        ('{"vocab_size": 18446744073709551616, "mode": "logits", '
         '"topk": [{"token": 9223372036854775808, "score": 0.5}]}',
         "line 2: token ids beyond 64 bits are not supported "
         "(vocab_size=18446744073709551616)"),
        ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 0, "score": 1%s}]}'
         % ("0" * 400), "line 2: score outside the float range"),
    ])
    def test_a_value_no_column_holds_after_a_good_record(self, bad, message):
        chunks = chunked_batches(f"{RECORD}\n{bad}\n")
        first = next(chunks)
        assert first.position_ids == ["line1"] and first.token_ids.tolist() == [1]
        with pytest.raises(ParseError) as caught:
            next(chunks)
        assert str(caught.value) == message


class TestUtf8:
    """A byte that is not UTF-8 is an error naming its line."""

    BAD = (RECORD + "\r\n").encode() + b'{"position_id": "\xc3\xa9\xff"}\n'
    MESSAGE = ("line 2: 'utf-8' codec can't decode byte 0xff in position 19: "
               "invalid start byte")

    @pytest.mark.parametrize("source", [
        lambda raw: raw,
        io.BytesIO,
        lambda raw: io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                     newline="\n", errors="surrogateescape"),
    ])
    def test_bad_byte_names_its_line(self, source):
        chunks = chunked_batches(source(self.BAD))
        assert next(chunks).position_ids == ["line1"]
        with pytest.raises(ParseError) as caught:
            next(chunks)
        assert str(caught.value) == self.MESSAGE
        refs = b'{"position_id": "p", "dense": [0.5]}\n' + self.BAD.split(b"\n")[1]
        with pytest.raises(ParseError) as caught:
            parse_reference_dump(source(refs))
        assert str(caught.value) == self.MESSAGE

    def test_surrogate_bytes_are_not_utf8(self):
        # the UTF-8 form of U+D800, which a strict decode rejects
        raw = b'{"position_id": "\xed\xa0\x80"}\n'
        with pytest.raises(ParseError) as caught:
            parse_observations(raw)
        assert str(caught.value) == ("line 1: 'utf-8' codec can't decode byte "
                                     "0xed in position 17: invalid continuation byte")

    def test_a_text_stream_keeps_its_lone_surrogates(self):
        # a lone surrogate that stands for no byte read is text, as in a str
        line = RECORD.replace('"topk"', '"position_id": "\ud800", "topk"')
        assert parse_observations(io.StringIO(line + "\n")).position_ids == ["\ud800"]

    def test_valid_utf8_passes(self):
        raw = RECORD.replace('"topk"', '"position_id": "\u00e9\u2028", "topk"')
        batch = parse_observations(raw.encode() + b"\r\n")
        assert batch.position_ids == ["\u00e9\u2028"]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _same(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestOrjsonNumbers:
    """What the decoding rule assumes of orjson's number parsing; an orjson
    that rounds otherwise fails here."""

    def test_shortest_repr_round_trips(self):
        rng = random.Random(20240611)
        values = [_double(rng.getrandbits(64)) for _ in range(20000)]
        values += [_double(rng.getrandbits(52)) for _ in range(5000)]  # subnormals
        values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   2.225073858507201e-308, 1.7976931348623157e308]
        for x in values:
            if math.isfinite(x):
                got = orjson.loads(repr(x))
                assert _same(got, x), repr(x)

    def test_halfway_decimals_round_like_float(self):
        rng = random.Random(7)
        largest = 0x7FEFFFFFFFFFFFFF  # the bits of the largest finite double
        starts = [rng.randrange(largest) for _ in range(3000)]
        starts += [rng.getrandbits(52) for _ in range(1000)]  # subnormal ties
        starts += [0, 1, largest - 1, 0x0010000000000000 - 1]
        with localcontext(prec=2000):  # exact: a double has < 800 digits
            for bits in starts:
                lo, hi = Decimal(_double(bits)), Decimal(_double(bits + 1))
                mid = (lo + hi) / 2
                # the exact tie, and decimals just below and above it
                nudge = (hi - lo) * Decimal("1e-20")
                for d in (mid, mid - nudge, mid + nudge):
                    for text in (str(d), str(-d)):
                        assert _same(orjson.loads(text), float(text)), text

    def test_integers_outside_64_bits_become_the_nearest_float(self):
        for n in (2**64, -(2**63) - 1, 10**30, -(10**25), 2**64 + 2**11 + 1,
                  2**1023 + 2**970 + 1):
            got = orjson.loads(str(n))
            assert type(got) is float and _same(got, float(n)), n
        for n in (2**64 - 1, -(2**63), 0, 2**63):
            got = orjson.loads(str(n))
            assert type(got) is int and got == n

    @pytest.mark.parametrize("text", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
        '"\\ud800"', '"\\udc00x"',
    ])
    def test_refuses_what_json_accepts(self, text):
        json.loads(text)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(text)

    def test_duplicate_keys_keep_json_order_and_last_value(self):
        text = '{"b": 0, "a": 1, "b": 2}'
        assert list(orjson.loads(text).items()) == list(json.loads(text).items())


def _nest(rng: random.Random, depth: int, kinds: list, noisy: bool) -> str:
    """A value ``depth`` levels deep whose levels repeat ``kinds``: an array,
    an array with an element before the nested one, or an object holding it
    as a key's value.  Spaced at random, beside strings full of brackets
    and colons when ``noisy``."""
    spaces = ["", " ", "\t", "  ", "\r "]
    noise = ['"[{"', '":{"', '"x"', "1", '"]}"', '": {"'] if noisy else ["1"]
    text = rng.choice(noise)
    for level in range(depth - 1):
        a, b, n = rng.choice(spaces), rng.choice(spaces), rng.choice(noise)
        text = {
            "array": f"[{a}{text}{b}]",
            "element": f"[{a}{n},{b}{text}]",
            "value": f'{{{a}"k"{b}:{a}{text}, "s": {n}{b}}}',
        }[kinds[level % len(kinds)]]
    return text


def _depth(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(_depth, value), default=0)
    return 0


class TestDepthGuard:
    """orjson 3.8 recurses without a limit; lines that could nest deeper than
    ``_ORJSON_MAX_DEPTH`` go to json."""

    @given(st.integers(1, 2 * _ORJSON_MAX_DEPTH),
           st.lists(st.sampled_from(["array", "element", "value"]), min_size=1,
                    max_size=3),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bound_holds(self, depth, kinds, noisy, seed):
        text = _nest(random.Random(seed), depth, kinds, noisy)
        # a line past the length at which the bound is computed
        line = f'{{"pad": "{"x" * 2 * _ORJSON_MAX_DEPTH}", "v": {text}}}'
        actual = _depth(json.loads(line))
        assert actual == depth
        if _shallow(line):
            assert actual <= _ORJSON_MAX_DEPTH

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}"),
                                                ('[{"a":', "}]")])
    def test_deep_lines_go_to_json(self, opener, closer):
        depth = 2000  # past json's recursion limit, well short of orjson's crash
        line = ('{"vocab_size": 5, "mode": "logits", "topk": [{"token": 1, '
                f'"score": 0.5}}], "extra": {opener * depth}1{closer * depth}}}\n')
        assert not _shallow(line)
        with pytest.raises(ParseError) as caught:
            parse_observations(line)
        assert str(caught.value) == "line 1: JSON nested too deeply to decode"

    def test_long_records_use_orjson(self):
        entries = ", ".join('{"token": %d, "score": -1.5}' % t for t in range(1000))
        dense = ", ".join(["-0.25"] * 1000)
        sparse = entries.replace("score", "logit")
        # a 600 KB dense reference line, cleared by its bracket count
        wide = ", ".join(["-0.2500000000000001"] * 30000)
        for line in ('{"vocab_size": 1000, "mode": "logits", "topk": [%s]}' % entries,
                     '{"position_id": "p", "dense": [%s]}' % dense,
                     '{"position_id": "p", "entries": [%s]}' % sparse,
                     '{"position_id": "p", "dense": [%s]}' % wide):
            assert len(line) > 2 * _ORJSON_MAX_DEPTH and _shallow(line)

    def test_a_line_too_deep_for_the_stack_is_an_error(self, tmp_path):
        # 300,000 levels overflow orjson's stack in a fresh process
        deep = tmp_path / "deep.jsonl"
        deep.write_text('{"vocab_size": 5, "mode": "logits", "topk": '
                        '[{"token": 1, "score": 0.5}], "extra": '
                        + "[" * 300_000 + "]" * 300_000 + "}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             *filter(None, [env.get("PYTHONPATH")])]
        )
        result = subprocess.run(
            [sys.executable, "-m", "censet.cli", "analyze", "--input", str(deep)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 1, result.returncode
        assert json.loads(result.stderr) == {"errors": [
            {"message": "line 1: JSON nested too deeply to decode", "line": 1}
        ]}


@contextlib.contextmanager
def _piecewise_at(chars: int, longer_than: int | None = None):
    """Lines longer than ``longer_than`` (``2 * chars`` unless given)
    decoded piece by piece, in pieces of ``chars``."""
    if longer_than is None:
        longer_than = 2 * chars
    with mock.patch.object(observation, "_PIECE_CHARS", chars), \
            mock.patch.object(observation, "_COUNT_FROM_LENGTH", longer_than + 1):
        yield


ENTRIES = ", ".join('{"token": %d, "score": %s}' % (t, -0.5 - t) for t in range(6))
COMPACT = ",".join('{"token":%d,"score":%s}' % (t, -0.5 - t) for t in range(6))
HEAD = '"vocab_size": 8, "mode": "logits"'


def _topk(extra: str) -> str:
    return '{%s, "topk": [%s, %s]}' % (HEAD, ENTRIES, extra)


# (line, whether the piecewise path decodes it, the whole-line error or None):
# with 16-character pieces each line is cut into several
ADVERSARIAL = [
    # topk first; a second topk before and after; "topk" as a value; a
    # nested topk beside the top-level one, and alone
    ('{"topk": [%s], %s, "position_id": "p"}' % (ENTRIES, HEAD), True, None),
    ('{%s, "topk": [{"token": 7, "score": 0}], "topk": [%s]}' % (HEAD, ENTRIES),
     False, None),
    ('{%s, "topk": [%s], "topk": [{"token": 7, "score": 0}]}' % (HEAD, ENTRIES),
     False, None),
    ('{%s, "position_id": "topk", "topk": [%s]}' % (HEAD, ENTRIES), False, None),
    ('{%s, "meta": {"topk": [1, 2]}, "topk": [%s]}' % (HEAD, ENTRIES), False, None),
    ('{"meta": {"topk": [%s]}, %s}' % (ENTRIES, HEAD), False,
     "line 1: missing field 'topk'"),
    # "}, {" in the position_id, in an entry's string and as a score
    ('{%s, "position_id": "a}, {b", "topk": [%s]}' % (HEAD, ENTRIES), True, None),
    (_topk('{"token": 6, "score": -1, "note": "x}, {y"}'), False, None),
    (_topk('{"token": 6, "score": "}, {"}'), False,
     "line 1: score must be a JSON number, got '}, {'"),
    # values of the wrong kind, a missing key, an extra key, a second score
    (_topk('{"token": 6.0, "score": -1}'), False,
     "line 1: token must be a JSON integer, got 6.0"),
    (_topk('{"token": 6, "score": true}'), False,
     "line 1: score must be a JSON number, got True"),
    (_topk('{"token": 6}'), False, "line 1: malformed topk entry (KeyError('score'))"),
    (_topk('{"token": 6, "score": -1, "x": [1]}'), True, None),
    (_topk('{"token": 6, "score": -1, "score": -2}'), True, None),
    (_topk("3"), False,
     "line 1: malformed topk entry (TypeError(\"'int' object is not subscriptable\"))"),
    # what orjson refuses or reads apart from json
    (_topk('{"token": 6, "score": NaN}'), False,
     "line 1: non-finite score nan for token 6"),
    (_topk('{"token": %d, "score": -1}' % 2**66), False,
     "line 1: token id 73786976294838206464 outside [0, 8)"),
    # a value orjson reads but no int64 holds
    (_topk('{"token": %d, "score": -1}' % (2**64 - 1)), False,
     "line 1: token id 18446744073709551615 outside [0, 8)"),
    # a list after topk's; compact and spaced separators; a backslash
    ('{%s, "topk": [%s], "y": [1]}' % (HEAD, ENTRIES), False, None),
    ('{"vocab_size":8,"mode":"logits","topk":[%s]}' % COMPACT, True, None),
    ('{%s, "topk": [%s] , "position_id": 5}' % (HEAD, ENTRIES.replace("}, {", "} , {")),
     True, "line 1: position_id must be a JSON string, got 5"),
    ('{%s, "position_id": "a\\"topk\\": [", "topk": [%s]}' % (HEAD, ENTRIES),
     False, None),
    # an empty topk; a topk that is no list; errors of the other fields and
    # of the pair checks
    ('{%s, "topk": [], "pad": "%s"}' % (HEAD, "x" * 64), False,
     "line 1: topk must be a non-empty list"),
    ('{%s, "topk": {"a": [%s]}}' % (HEAD, ENTRIES), False,
     "line 1: topk must be a non-empty list"),
    ('{"vocab_size": 3, "mode": "logits", "topk": [%s]}' % ENTRIES, True,
     "line 1: K=6 exceeds vocab_size=3"),
    ('{"vocab_size": 8, "mode": "odds", "topk": [%s]}' % ENTRIES, True,
     "line 1: mode must be one of ['logits', 'logprobs'], got 'odds'"),
    ('{"vocab_size": 8, "mode": "logprobs", "topk": [%s, {"token": 6, "score": 0.5}]}'
     % ENTRIES, True, "line 1: normalized log-probabilities must be <= 0"),
]


@st.composite
def _formatted(draw) -> str:
    """An observation line of valid values in random key order, separators
    and whitespace: long enough to be cut at small piece sizes."""
    space = st.sampled_from(["", " ", "  ", "\t", " \r "])
    comma = st.sampled_from([", ", ",", " ,", " , "])

    def obj(fields: dict) -> str:
        keys = draw(st.permutations(sorted(fields)))
        return "{" + draw(space) + draw(comma).join(
            f'"{k}"' + draw(space) + ":" + draw(space) + fields[k] for k in keys
        ) + draw(space) + "}"

    k = draw(st.integers(1, 30))
    tokens = draw(st.permutations(range(40)))[:k]
    entries = [obj({"token": str(t), "score": repr(draw(st.floats(-50.0, 0.0)))})
               for t in tokens]
    fields = {"vocab_size": str(draw(st.sampled_from([k, 40, 2**62]))),
              "mode": draw(st.sampled_from(['"logits"', '"logprobs"'])),
              "topk": "[" + draw(space) + draw(comma).join(entries) + draw(space) + "]"}
    if draw(st.booleans()):
        fields["position_id"] = draw(st.sampled_from(['"p"', '"}, {"', '"a]"']))
    return draw(space) + obj(fields) + draw(space)


class TestPiecewise:
    """A long line's topk list decoded piece by piece gives the record or the
    error of the whole-line decode."""

    @pytest.mark.parametrize("line, decoded, message", ADVERSARIAL)
    def test_adversarial_lines(self, line, decoded, message):
        text = f"{line}\n"
        whole = _outcome(_whole, text)
        assert whole[1] == message if message else len(whole[0]) == 1
        with _piecewise_at(16):
            assert len(text) > 2 * observation._PIECE_CHARS
            assert _outcome(_whole, text) == whole
            try:
                record = _piecewise((text,), 1)
            except ValueError:
                record = None
        assert (record is not None) is decoded

    @given(st.lists(st.one_of(_formatted(), _observation()), min_size=1, max_size=4),
           st.sampled_from([1, 8, 16, 40, 100]))
    @settings(max_examples=250, deadline=None)
    def test_same_as_whole_line(self, lines, chars):
        text = "\n".join(lines) + "\n"
        whole = _outcome(_whole, text), _outcome(_chunked, text)
        with _piecewise_at(chars):
            assert (_outcome(_whole, text), _outcome(_chunked, text)) == whole

    @pytest.mark.parametrize("line, whole, message", [
        # orjson refuses a piece that json takes
        (_topk('{"token": 6, "score": NaN}'), ["json"],
         "line 1: non-finite score nan for token 6"),
        # a piece's entries fail conversion
        (_topk('{"token": 6.0, "score": -1}'), ["json"],
         "line 1: token must be a JSON integer, got 6.0"),
        (_topk('{"token": %d, "score": -1}' % (2**64 - 1)), ["json"],
         "line 1: token id 18446744073709551615 outside [0, 8)"),
        # the assembled record fails its check
        ('{"vocab_size": 3, "mode": "logits", "topk": [%s]}' % ENTRIES, ["json"],
         "line 1: K=6 exceeds vocab_size=3"),
        # a piece both refuse proves nothing: orjson decodes the valid line
        ('{%s, "topk": [%s], "y": [1]}' % (HEAD, ENTRIES), ["orjson"], None),
    ], ids=["nan", "float-token", "wide-token", "record-check", "both-refuse"])
    def test_a_decline_decodes_the_whole_line_once(self, line, whole, message,
                                                   monkeypatch):
        text = f"{line}\n"
        expected = _outcome(_whole, text)
        decoders = []
        for module in (orjson, json):
            def counted(source, *args, loads=module.loads, name=module.__name__):
                decoders.append((name, source.strip()))
                return loads(source, *args)
            monkeypatch.setattr(module, "loads", counted)
        with _piecewise_at(16):
            got = _outcome(_whole, text)
        monkeypatch.undo()
        assert got == expected
        assert (got[1] == message) if message else len(got[0]) == 1
        assert [name for name, source in decoders if source == line] == whole

    def test_a_frame_too_deep_is_declined(self):
        # orjson would decode the 2,000-level frame; json refuses the line
        depth = 2000
        entries = ", ".join('{"token": %d, "score": -1.5}' % t for t in range(3000))
        line = ('{"vocab_size": 3000, "mode": "logits", "meta": %s1%s, "topk": [%s]}\n'
                % ("[" * depth, "]" * depth, entries))
        assert len(line) >= _COUNT_FROM_LENGTH
        assert _piecewise((line,), 1) is None
        with pytest.raises(ParseError) as caught:
            parse_observations(line)
        assert str(caught.value) == "line 1: JSON nested too deeply to decode"

    def test_short_lines_keep_one_decode(self):
        line = '{%s, "topk": [%s]}' % (HEAD, ENTRIES)
        with _piecewise_at((len(line) + 1) // 2), \
                mock.patch.object(observation, "_piecewise") as piecewise:
            parse_observations(line)
        piecewise.assert_not_called()


def _flat_outcome(text: str, chars: int):
    """The parse of ``text`` with every line decoded piece by piece, in
    pieces of ``chars``, and whether :func:`_flat_pairs` took each piece it
    was given, in order."""
    taken = []

    def flat_pairs(piece, real=observation._flat_pairs):
        pairs = real(piece)
        taken.append(pairs is not None)
        return pairs

    with _piecewise_at(chars, longer_than=0), \
            mock.patch.object(observation, "_flat_pairs", flat_pairs):
        return _outcome(_whole, text), taken


FLAT = ", ".join('{"token": %d, "score": %s}' % (t, -0.5 - t) for t in range(1, 6))
ONE = '{"token": 6, "score": -1.5}'


def _flat_line(*entries: str) -> str:
    return '{%s, "topk": [%s]}' % (HEAD, ", ".join(entries))


# (line, whether the flat path takes every piece, the whole-line error or None)
FLAT_CASES = [
    (_flat_line(FLAT, ONE), True, None),
    # keys misspelled, with an e moved or doubled, or a space or digit added
    (_flat_line(FLAT, '{"tokne": 6, "score": -1}'), False,
     "line 1: malformed topk entry (KeyError('token'))"),
    (_flat_line(FLAT, '{" token": 6, "score": -1}'), False,
     "line 1: malformed topk entry (KeyError('token'))"),
    (_flat_line(FLAT, '{"token ": 6, "score": -1}'), False,
     "line 1: malformed topk entry (KeyError('token'))"),
    (_flat_line(FLAT, '{"toke1n": 6, "score": -1}'), False,
     "line 1: malformed topk entry (KeyError('token'))"),
    (_flat_line(FLAT, '{"tokEn": 6, "score": -1}'), False,
     "line 1: malformed topk entry (KeyError('token'))"),
    (_flat_line(FLAT, '{"token": 6, "scoer": -1}'), False,
     "line 1: malformed topk entry (KeyError('score'))"),
    (_flat_line(FLAT, '{"token": 6, "scoree": -1}'), False,
     "line 1: malformed topk entry (KeyError('score'))"),
    # the keys swapped or repeated, other separators
    (_flat_line(FLAT, '{"score": -1, "token": 6}'), False, None),
    (_flat_line(FLAT, '{"token": 7, "token": 6, "score": -1}'), False, None),
    (_flat_line(FLAT, '{"token":6,"score":-1}'), False, None),
    (_flat_line(FLAT, '{"token" : 6, "score": -1}'), False, None),
    (_flat_line(FLAT + ",  " + ONE), False, None),
    # a score that is no finite float, or an integer
    (_flat_line(FLAT, '{"token": 6, "score": true}'), False,
     "line 1: score must be a JSON number, got True"),
    (_flat_line(FLAT, '{"token": 6, "score": NaN}'), False,
     "line 1: non-finite score nan for token 6"),
    (_flat_line(FLAT, '{"token": 6, "score": 1e999}'), False,
     "line 1: non-finite score inf for token 6"),
    (_flat_line(FLAT, '{"token": 6, "score": -3}'), True, None),
    (_flat_line(FLAT, '{"token": 6, "score": -2.5E-3}'), True, None),
    # tokens that are floats, beyond int64, or a negative zero
    (_flat_line(FLAT, '{"token": 3.0, "score": -1}'), False,
     "line 1: token must be a JSON integer, got 3.0"),
    (_flat_line(FLAT, '{"token": %d, "score": -1}' % 2**63), False,
     "line 1: token id 9223372036854775808 outside [0, 8)"),
    (_flat_line(FLAT, '{"token": %d, "score": -1}' % (2**64 - 1)), False,
     "line 1: token id 18446744073709551615 outside [0, 8)"),
    (_flat_line(FLAT, '{"token": -0, "score": -1}'), True, None),
    # a non-ASCII character, here in an extra key: declined, not an encode error
    (_flat_line(FLAT, '{"token": 6, "score": -1, "\u00e9": 0}'), False, None),
    # a score after its entry's brace, the last entry's or another's:
    # rewritten, the brace is a space, so only the text check sees this
    (_flat_line(FLAT, '{"token": 6, "score": }-1'), False,
     "line 1: invalid JSON (Expecting value)"),
    (_flat_line('{"token": 6, "score": }-1', FLAT), False,
     "line 1: invalid JSON (Expecting value)"),
]


class TestFlatPieces:
    """A piece in the form json.dumps writes is read with no entry dict and
    gives the record or the error of the whole-line decode."""

    @pytest.mark.parametrize("line, flat, message", FLAT_CASES)
    @pytest.mark.parametrize("chars", [16, 1 << 20], ids=["cut", "whole-list"])
    def test_adversarial_entries(self, line, flat, message, chars):
        text = f"{line}\n"
        whole = _outcome(_whole, text)
        assert whole[1] == message if message else len(whole[0]) == 1
        outcome, taken = _flat_outcome(text, chars)
        assert outcome == whole
        assert taken and all(taken) is flat
        if flat and chars == 16:
            # cut pieces after the first begin with " {"
            assert len(taken) == 6

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                              st.text('0123456789+-.eE{}[]":, \ttokenscr\\', max_size=3)),
                    min_size=1, max_size=3),
           st.sampled_from([1, 16, 40, 1 << 20]))
    @settings(max_examples=400, deadline=None)
    def test_edited_lists_parse_as_whole_lines(self, edits, chars):
        line = _flat_line(FLAT, ONE)
        lo = line.index("[")
        for at, cut, insert in edits:
            at = lo + at % (len(line) - lo + 1)
            line = line[:at] + insert + line[at + cut:]
        text = f"{line}\n"
        assert _flat_outcome(text, chars)[0] == _outcome(_whole, text)

    def test_canonical_writers_take_the_flat_path(self, tmp_path):
        # every piece json.dumps (serialize_observations) or the benchmark's
        # writer makes goes down the flat path, at the default piece size too
        rng = np.random.default_rng(5)
        rows = rng.normal(0.0, 3.0, (3, 3000)) * [[1.0], [1e-7], [1e9]]
        texts = [serialize_observations(
            [censor(z, k, mode, f"p{i}") for i, z in enumerate(rows)
             for k, mode in ((20, AccessMode.LOGITS), (3000, AccessMode.LOGPROBS))])]
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workloads._Writer(tmp_path).full_dump("full.jsonl", rows)
        texts.append((tmp_path / "full.jsonl").read_text())
        texts.append(workloads._obs_line("q", 3000, "logits", np.arange(20), rows[0, :20]))
        for text in texts:
            whole = _outcome(_whole, text)
            for chars in (100, observation._PIECE_CHARS):
                outcome, taken = _flat_outcome(text, chars)
                assert outcome == whole and taken and all(taken)


# the long lines of TestStreamedLines are cut into pieces of about 128
# characters and read in blocks of 128 bytes, after a first one of 256
STREAM_PIECE, STREAM_FIRST = 128, 256
STREAM_HEAD = '"vocab_size": 64, "mode": "logits", "position_id": "long"'
NEXT = ('{"vocab_size": 5, "mode": "logits", "position_id": "next", '
        '"topk": [{"token": 1, "score": 0.5}]}')


def _stream_line(at: int | None = None, entry: str = "", head: str = STREAM_HEAD,
                 tail: str = "") -> str:
    """A line of 60 flat entries, entry ``at`` replaced by ``entry % at``."""
    entries = ['{"token": %d, "score": %s}' % (t, -0.5 - t) for t in range(60)]
    if at is not None:
        entries[at] = entry % at
    return '{%s, "topk": [%s]%s}' % (head, ", ".join(entries), tail)


def _shifted(line: str, marker: str, into: int = 0) -> str:
    """``line`` with its position id padded so that a block ends ``into``
    bytes into the first ``marker``."""
    at = len(line[: line.index(marker)].encode())
    pad = (STREAM_FIRST - at - into) % STREAM_PIECE
    return line.replace('"long"', '"long%s"' % ("x" * pad), 1)


def _sized(chars: int) -> str:
    """A line of six entries padded to ``chars`` characters."""
    line = '{%s, "pad": "", "topk": [%s]}' % (HEAD, ENTRIES)
    return line.replace('""', '"%s"' % ("x" * (chars - len(line))), 1)


def _cut(char: str, into: int) -> str:
    line = _stream_line(40, '{"token": %d, "score": -1, "n": "@"}')
    return _shifted(line, "@", into).replace("@", char)


PADDED = _stream_line(head='%s, "pad": "%s"' % (STREAM_HEAD, "x" * 300))
# (long line, whether the piece path takes it as it streams)
STREAMED = {
    # entries that orjson decodes, or that decline the line, in the first, a
    # middle and the last piece
    **{f"{what}-{where}": (_stream_line(at, entry), streams)
       for what, entry, streams in [
           ("extra-key", '{"token": %d, "score": -1, "x": [0]}', True),
           ("nan", '{"token": %d, "score": NaN}', False),
           ("escaped-key", '{"tok\\u0065n": %d, "score": -1}', True)]
       for where, at in [("first", 0), ("middle", 30), ("last", 59)]},
    # a character that is not ASCII in a later block, whole or cut by one
    "non-ascii": (_stream_line(40, '{"token": %d, "score": -1, "n": "é"}'), True),
    **{f"cut-{len(char.encode())}-{into}": (_cut(char, into), True)
       for char in ("é", "€") for into in range(1, len(char.encode()))},
    "late-topk": (_stream_line(head=STREAM_HEAD.replace("long", "p" * 300)), True),
    # "topk": [ past the first read, cut by a block after 1 to 8 bytes
    **{f"topk-cut-{into}": (_shifted(PADDED, '"topk": [', into), True)
       for into in range(1, 9)},
    # "}," in the tail: in the line's last block, and in blocks before it
    "tail-cut": (_shifted(_stream_line(tail=', "note": "a}, {b"'), "}, {b"), True),
    "long-tail-cut": (_stream_line(tail=', "note": "a}, {b%s}, {c%s"'
                                   % ("x" * 200, "x" * 200)), False),
    # the assembled record fails its check
    "record-check": (_stream_line().replace('"vocab_size": 64', '"vocab_size": 50'),
                     False),
    # the line but its end fills the first read; one byte less
    "first-read": (_sized(STREAM_FIRST), True),
    "first-read-less-one": (_sized(STREAM_FIRST - 1), True),
}
# a line held whole has its frame checked before any cut, so the piece path
# takes a "}," in its tail however far past the list
TAKEN_WHOLE = {"long-tail-cut"}


class _Unseekable(io.BytesIO):
    def seekable(self) -> bool:
        return False


@contextlib.contextmanager
def _spied():
    """The calls of _piecewise, as (line number, whether its blocks are a
    stream's), and the numbers of the lines decoded whole, by _decoded or in
    a block of short lines, with whether orjson may decode each, in order."""
    calls = {"piecewise": [], "decoded": [], "orjson": []}

    def piecewise(blocks, lineno, real=observation._piecewise):
        calls["piecewise"].append((lineno, not isinstance(blocks, tuple)))
        return real(blocks, lineno)

    def decoded(line, lineno, check, orjson_may_stand, real=observation._decoded):
        calls["decoded"].append(lineno)
        calls["orjson"].append(orjson_may_stand)
        return real(line, lineno, check, orjson_may_stand)

    def block_items(lines, numbers, checked, check, check_block,
                    real=observation._block_items):
        def taken(records, numbers, literals):
            item = check_block(records, numbers, literals)
            if item is not None:
                calls["decoded"].extend(numbers)
                calls["orjson"].extend([True] * len(numbers))
            return item
        return real(lines, numbers, checked, check, taken)

    with mock.patch.object(observation, "_piecewise", piecewise), \
            mock.patch.object(observation, "_decoded", decoded), \
            mock.patch.object(observation, "_block_items", block_items):
        yield calls


class TestStreamedLines:
    """A long line of a seekable binary stream is decoded as it is read, and
    gives the batch or the error of the str source; so does a non-seekable
    binary stream, which reads each line whole.  The piece path runs at most
    once a line, whatever the source."""

    @pytest.mark.parametrize("name", sorted(STREAMED))
    @pytest.mark.parametrize("ending", ["\n", "\r\n", None], ids=["lf", "crlf", "last"])
    def test_same_as_the_str_source(self, name, ending, tmp_path):
        line, taken = STREAMED[name]
        # beside a short line: before it, or last with no line end
        if ending:
            text, lineno = f"{line}{ending}{NEXT}\n", 1
        else:
            text, lineno = f"{NEXT}\n{line}", 2
        # long enough for the piece path, whether streamed or held whole
        long = len(line) + len(ending or "") >= STREAM_FIRST
        raw = text.encode()
        path = tmp_path / "lines.jsonl"
        path.write_bytes(raw)
        with _piecewise_at(STREAM_PIECE, longer_than=STREAM_FIRST - 1):
            expected = _outcome(_whole, text)
            if not isinstance(expected[0], type):
                # the other line parses too
                assert "next" in expected[0]
            for open_source, seekable in [(lambda: io.BytesIO(raw), True),
                                          (lambda: open(path, "rb"), True),
                                          (lambda: _Unseekable(raw), False)]:
                with open_source() as stream, _spied() as calls:
                    assert _outcome(_whole, stream) == expected
                pieces = [number for number, _ in calls["piecewise"]]
                assert pieces == ([lineno] if long else [])
                took = taken or (not seekable and name in TAKEN_WHOLE)
                assert (lineno not in calls["decoded"]) is (long and took)

    @pytest.mark.parametrize("name, orjson_may_stand", [
        # cuts before the frame check prove nothing about orjson's decode
        ("long-tail-cut", True), ("nan-middle", True),
        # a piece cut after it, and the assembled record, do
        ("nan-last", False), ("record-check", False)])
    def test_a_streamed_decline_runs_the_piece_path_once(self, name, orjson_may_stand):
        line = STREAMED[name][0]
        text = f"{line}\n{NEXT}\n"
        with _piecewise_at(STREAM_PIECE, longer_than=STREAM_FIRST - 1):
            expected = _outcome(_whole, text)
            with _spied() as calls:
                assert _outcome(_whole, io.BytesIO(text.encode())) == expected
        # streamed, declined, then read again and decoded whole
        assert calls["piecewise"] == [(1, True)]
        assert calls["decoded"].count(1) == 1
        assert calls["orjson"][0] is orjson_may_stand

    def test_topk_past_the_first_64_kib(self):
        line = _stream_line(head=STREAM_HEAD.replace("long", "p" * (1 << 16)))
        assert line.index('"topk"') > _COUNT_FROM_LENGTH
        text = f"{line}\n{NEXT}\n"
        expected = _outcome(_whole, text)
        assert expected[0] == ["p" * (1 << 16), "next"]
        with _spied() as calls:
            assert _outcome(_whole, io.BytesIO(text.encode())) == expected
        # the head is read block by block until it holds the list's "["
        assert calls["piecewise"] == [(1, True)] and calls["decoded"] == [2]


# defects of one line, each the error of its line but "deep-300", which
# json decodes; the record keeps its other fields
LINE_DEFECTS = {
    "nan": lambda line: line.replace('"score": ', '"score": NaN, "x": ', 1),
    "bool-token": lambda line: re.sub(r'"token": \d+', '"token": true', line, count=1),
    "float-token": lambda line: re.sub(r'"token": \d+', '"token": 3.0', line, count=1),
    "wide-token": lambda line: re.sub(r'"token": \d+', '"token": %d' % 2**63, line,
                                      count=1),
    "missing-key": lambda line: line.replace('"mode": "logits", ', ""),
    "k-over-v": lambda line: line.replace('"vocab_size": 64', '"vocab_size": 3'),
    "dup-pid": lambda line: re.sub(r'"position_id": "[^"]*"', '"position_id": "p0"',
                                   line),
    "deep-300": lambda line: line.replace("{", '{"x": %s1%s, ' % ("[" * 300, "]" * 300), 1),
    "deep-2000": lambda line: line.replace("{", '{"x": %s1%s, ' % ("[" * 2000, "]" * 2000),
                                           1),
    "non-utf8": lambda line: line.replace('"position_id": "p', '"position_id": "\udcff', 1),
}
# a part of each defect's error message
DEFECT_ERRORS = {
    "nan": "non-finite score nan", "bool-token": "token must be a JSON integer, got True",
    "float-token": "token must be a JSON integer, got 3.0",
    "wide-token": "token id %d outside [0, 64)" % 2**63,
    "missing-key": "missing field 'mode'", "k-over-v": "exceeds vocab_size=3",
    "dup-pid": "duplicate position_id 'p0'", "deep-2000": "nested too deeply",
    "non-utf8": "can't decode byte 0xff",
}


def _block_text(seed: int, defect: str | None, where: float, pair_error: bool,
                layout: bool) -> tuple[bytes, int | None]:
    """About three blocks of K = 5-30 lines at the default budget, with
    ``defect`` on a line of a later block, a duplicate token on a line of the
    first when ``pair_error``, and blank lines, CRLF ends and non-ASCII
    position ids at random when ``layout``.  Returns the bytes and the line
    whose error the parse must raise (None for none)."""
    rng = random.Random(seed)
    lines, size = [], 0
    while size < 3 * observation._PIECE_CHARS:
        tokens = rng.sample(range(64), rng.randint(5, 30))
        # line 0 keeps "p0", which "dup-pid" repeats
        pid = ("pé%d" if layout and lines and rng.random() < 0.2 else "p%d") % len(lines)
        line = '{"vocab_size": 64, "mode": "logits", "position_id": "%s", "topk": [%s]}' % (
            pid, ", ".join('{"token": %d, "score": %r}' % (t, -10 * rng.random())
                           for t in tokens))
        lines.append(line)
        size += len(line.encode()) + 1
    # a block counts a line's bytes or characters, with its end or without:
    # the first block ends past the line where the least count fills it,
    # and before the one where the largest does
    def filled(size) -> int:
        ends = itertools.accumulate(map(size, lines))
        return next(i for i, end in enumerate(ends) if end > observation._PIECE_CHARS)

    first, later = filled(lambda x: len(x.encode()) + 2), filled(len)
    bad = None
    if defect is not None:
        bad = later + 1 + int(where * (len(lines) - later - 2))
        lines[bad] = LINE_DEFECTS[defect](lines[bad])
        if defect == "deep-300":
            bad = None
    if pair_error:
        bad = int(where * (first - 1))
        lines[bad] = re.sub(r'("token": \d+, "score": [^}]*\}, \{"token": )\d+',
                            lambda m: m.group(1) + re.search(r"\d+", m.group(1)).group(0),
                            lines[bad], count=1)
    text, numbers = [], []
    for line in lines:
        while layout and rng.random() < 0.1:
            text.append(rng.choice(["", "  ", "\t"]) + "\n")
        text.append(line + ("\r\n" if layout and rng.random() < 0.5 else "\n"))
        numbers.append(len(text))
    raw = "".join(text).encode("utf-8", "surrogateescape")
    return raw, None if bad is None else numbers[bad]


def _parsed(source):
    """A parse's batch digest, or its error's text and line."""
    try:
        return _batch_digest(parse_observations(source))
    except ParseError as exc:
        return str(exc), exc.line


class TestBlocks:
    """Short lines checked a block at a time give the batch or the error of
    blocks of one line, wherever a defect sits."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, *sorted(LINE_DEFECTS)]),
           st.floats(0.0, 1.0), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_as_one_line_blocks(self, seed, defect, where, pair_error, layout):
        raw, line = _block_text(seed, defect, where, pair_error, layout)
        assert len(raw) > 2 * observation._PIECE_CHARS
        sources = [raw] if defect == "non-utf8" else [raw, raw.decode()]
        for source in sources:
            got = _parsed(source)
            with mock.patch.object(observation, "_PIECE_CHARS", 1):
                assert _parsed(source) == got
            if line is None:
                assert len(got[0]) > 300
            else:
                assert got[1] == line, got
                error = "duplicate token ids" if pair_error else DEFECT_ERRORS[defect]
                assert error in got[0], got


class TestMemory:
    def test_nothing_of_a_record_held_with_a_chunk(self, monkeypatch):
        k = 6000
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", k)
        line = json.dumps({
            "vocab_size": 2 * k, "mode": "logits",
            "topk": [{"token": t, "score": -1e-3 * t} for t in range(k)],
        })
        stream = io.StringIO(f"{line}\n{line}\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = json.loads(line)
            record_bytes = tracemalloc.get_traced_memory()[0] - before
            del record
            chunks = chunked_batches(stream)
            before = tracemalloc.get_traced_memory()[0]
            first = next(chunks)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(first) == 1
        # the chunk's columns take about 34 bytes a pair; a record's token and
        # score lists would add about 70, its decoded object about 240
        assert held < record_bytes / 4, (held, record_bytes)
        assert len(list(chunks)) == 1

    def test_a_full_dump_record_decodes_in_bounded_pieces(self, tmp_path):
        # a V = 151,936 full dump, one record of about 7 MB; decoded whole
        # its entries alone would take about 6.8 times the line
        v = 151_936
        scores = np.random.default_rng(3).normal(0.0, 3.0, v).tolist()
        line = json.dumps({"vocab_size": v, "mode": "logits", "position_id": "pos0",
                           "topk": [{"token": t, "score": s}
                                    for t, s in enumerate(scores)]})
        assert len(line) > 2 * observation._PIECE_CHARS
        path = tmp_path / "full.jsonl"
        path.write_text(line + "\n")
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8", newline="\n") as handle:
                batch = parse_observations(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.k.tolist() == [v]
        assert peak < 3 * len(line), (peak, len(line))

    def test_short_lines_decode_a_block_at_a_time(self, tmp_path):
        # 3,000 K = 20 lines of about 1 KB, some 23 blocks; the read holds
        # the columns and one block's decoded objects, never the file's
        rng = random.Random(11)
        lines = [json.dumps({"vocab_size": 1000, "mode": "logits", "position_id": f"p{i}",
                             "topk": [{"token": t, "score": -10 * rng.random()}
                                      for t in rng.sample(range(1000), 20)]}).encode()
                 for i in range(3000)]
        pairs, per_block = 20 * len(lines), observation._PIECE_CHARS // len(lines[0])
        path = tmp_path / "short.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        tracemalloc.start()
        try:
            block = list(map(orjson.loads, lines[:per_block]))
            one_block = tracemalloc.get_traced_memory()[0]
            del block
            with open(path, "rb") as handle:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                ((records, ids, values, failure),) = observation._chunks(handle, False)
                held, peak = (m - before for m in tracemalloc.get_traced_memory())
                del records, ids, values
                handle.seek(0)
                tracemalloc.reset_peak()
                batch = parse_observations(handle)
                parse_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert failure is None and batch.k.tolist() == [20] * len(lines)
        whole_file = one_block * len(lines) / per_block
        # the columns take 16 bytes a pair, each record's row about 200 bytes
        assert held < 40 * pairs, (held, pairs)
        assert peak - held < 2 * one_block, (peak, held, one_block)
        # the batch's sort sets the parse's peak, a few columns of 8 bytes a pair
        assert parse_peak < 100 * pairs < whole_file / 2, (parse_peak, whole_file)

    def test_a_full_dump_line_streams_from_a_binary_file(self, tmp_path):
        # ksweep opens its input in binary: the line is decoded as it is read
        # and never held whole, where reading it as text took twice the line
        line = _full_dump_line(4)
        assert _ksweep_peak(tmp_path, line) < len(line)

    def test_a_non_ascii_position_id_after_the_list_streams(self, tmp_path):
        # its block decodes as UTF-8 like any other, so the line is read once
        line = _full_dump_line(4).replace('"position_id": "pos0", ', "")
        line = line[:-1] + ', "position_id": "posé"}'
        assert line.index('"topk"') < line.index('"position_id"')
        assert _ksweep_peak(tmp_path, line) < len(line)


def _full_dump_line(seed: int) -> str:
    """A V = 151,936 full-dump observation line of about 7 MB."""
    v = 151_936
    scores = np.random.default_rng(seed).normal(0.0, 3.0, v).tolist()
    return json.dumps({"vocab_size": v, "mode": "logits", "position_id": "pos0",
                       "topk": [{"token": t, "score": s} for t, s in enumerate(scores)]})


def _ksweep_peak(tmp_path, line: str) -> int:
    """The traced peak of ``censet ksweep`` over a file of ``line``."""
    path = tmp_path / "full.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    # what main sets up once per process is not the read's
    cli._parser()
    cli._keep_freed_memory()
    tracemalloc.start()
    try:
        assert cli.main(["ksweep", "--input", str(path), "--k", "1,20,1000",
                         "--format", "csv", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text().count("\n") == 4
    return peak
