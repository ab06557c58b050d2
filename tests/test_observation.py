"""Parsing, validation, and the log-domain quantities of an observation."""

import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censet import observation
from censet.identified_set import geometry
from censet.normalized import tail_geometry
from censet.observation import (
    AccessMode,
    ModeError,
    ParseError,
    ValidationError,
    _batches,
    _tail_mass,
    from_pairs,
    parse_observations,
    serialize_observations,
)
from censet.oracles import disjoint_witness_pair

from conftest import make_observation


class TestParse:
    def test_basic_record(self):
        line = (
            '{"vocab_size":4,"mode":"logits",'
            '"topk":[{"token":2,"score":1.0},{"token":0,"score":0.0}]}'
        )
        (obs,) = parse_observations(line)
        assert obs.k == 2
        assert obs.vocab_size == 4
        assert obs.tau == 0.0
        assert obs.token_ids.tolist() == [2, 0]
        assert obs.mode is AccessMode.LOGITS

    def test_k_exceeds_vocab_and_duplicate(self):
        line = (
            '{"vocab_size":2,"mode":"logits","topk":[{"token":0,"score":0.0},'
            '{"token":1,"score":0.0},{"token":0,"score":0.0}]}'
        )
        with pytest.raises(ParseError, match="line 1"):
            parse_observations(line)

    def test_admissible_logprobs_head_mass(self):
        # head mass by direct summation: exp(-0.5) + exp(-1.5) ~ 0.8297 <= 1
        direct = math.exp(-0.5) + math.exp(-1.5)
        assert direct <= 1.0 + 1e-9
        line = (
            '{"vocab_size":5,"mode":"logprobs",'
            '"topk":[{"token":1,"score":-0.5},{"token":3,"score":-1.5}]}'
        )
        (obs,) = parse_observations(line)
        assert obs.mode is AccessMode.LOGPROBS
        assert math.isclose(
            float(np.exp(obs.scores).sum()), direct, rel_tol=1e-15
        )

    def test_inadmissible_head_mass_rejected(self):
        # two tokens at log(0.6) sum to 1.2 > 1 + 1e-9: reject, not renormalize
        line = json.dumps(
            {
                "vocab_size": 5,
                "mode": "logprobs",
                "topk": [
                    {"token": 0, "score": math.log(0.6)},
                    {"token": 1, "score": math.log(0.6)},
                ],
            }
        )
        with pytest.raises(ParseError, match="head mass"):
            parse_observations(line)

    def test_positive_logprob_rejected(self):
        line = (
            '{"vocab_size":3,"mode":"logprobs","topk":[{"token":0,"score":0.1}]}'
        )
        with pytest.raises(ParseError, match="<= 0"):
            parse_observations(line)

    def test_malformed_json_names_line(self):
        text = '{"vocab_size":2,"mode":"logits","topk":[{"token":0,"score":0.0}]}\nnot json\n'
        with pytest.raises(ParseError, match="line 2"):
            parse_observations(text)

    def test_nan_score_rejected(self):
        line = '{"vocab_size":2,"mode":"logits","topk":[{"token":0,"score":NaN}]}'
        with pytest.raises(ParseError, match="line 1"):
            parse_observations(line)

    def test_token_out_of_range(self):
        line = '{"vocab_size":2,"mode":"logits","topk":[{"token":5,"score":0.0}]}'
        with pytest.raises(ParseError, match="outside"):
            parse_observations(line)

    def test_unknown_mode(self):
        line = '{"vocab_size":2,"mode":"raw","topk":[{"token":0,"score":0.0}]}'
        with pytest.raises(ParseError, match="mode"):
            parse_observations(line)

    @pytest.mark.parametrize(
        "field,record",
        [
            ("vocab_size", '"vocab_size":5.9,"topk":[{"token":0,"score":0.0}]'),
            ("vocab_size", '"vocab_size":true,"topk":[{"token":0,"score":0.0}]'),
            ("token", '"vocab_size":5,"topk":[{"token":1.7,"score":0.0}]'),
            ("token", '"vocab_size":5,"topk":[{"token":true,"score":0.0}]'),
            ("score", '"vocab_size":5,"topk":[{"token":0,"score":"0.5"}]'),
            ("score", '"vocab_size":5,"topk":[{"token":0,"score":false}]'),
            ("score", '"vocab_size":5,"topk":[{"token":0,"score":1%s}]' % ("0" * 400)),
        ],
    )
    def test_no_type_coercion(self, field, record):
        text = '{"vocab_size":5,"mode":"logits","topk":[{"token":0,"score":0.0}]}\n'
        with pytest.raises(ParseError, match=f"line 2: {field}"):
            parse_observations(text + '{"mode":"logits",' + record + "}")

    @pytest.mark.parametrize("pid", ["null", "[1]", "7"])
    def test_position_id_must_be_string(self, pid):
        record = (
            '{"vocab_size":3,"mode":"logits","topk":[{"token":0,"score":0.0}],'
            '"position_id":%s}' % pid
        )
        with pytest.raises(ParseError, match="line 1: position_id must be a JSON string"):
            parse_observations(record)

    def test_duplicate_position_id(self):
        record = (
            '{"vocab_size":3,"mode":"logits","topk":[{"token":0,"score":0.0}],'
            '"position_id":"%s"}\n'
        )
        with pytest.raises(ParseError, match="line 3: duplicate position_id 'a'"):
            parse_observations(record % "a" + record % "b" + record % "a")
        # an absent id reads "line<n>" and must not collide either
        unnamed = '{"vocab_size":3,"mode":"logits","topk":[{"token":0,"score":0.0}]}\n'
        with pytest.raises(ParseError, match="line 2: duplicate position_id 'line2'"):
            parse_observations(record % "line2" + unnamed)

    def test_integer_score_accepted(self):
        (obs,) = parse_observations(
            '{"vocab_size":3,"mode":"logits","topk":[{"token":1,"score":2}]}'
        )
        assert (obs.token_ids.tolist(), obs.scores.tolist()) == ([1], [2.0])
        assert (obs.token_ids.dtype, obs.scores.dtype) == (np.int64, np.float64)

    def test_malformed_entry_and_missing_field(self):
        with pytest.raises(ParseError, match="malformed topk entry"):
            parse_observations('{"vocab_size":3,"mode":"logits","topk":[{"token":1}]}')
        with pytest.raises(ParseError, match="missing field 'mode'"):
            parse_observations('{"vocab_size":3,"topk":[{"token":1,"score":0.0}]}')
        with pytest.raises(ParseError, match="mode must be"):
            parse_observations('{"vocab_size":3,"mode":[],"topk":[{"token":1,"score":0}]}')

    def test_preserves_order_and_reads_streams(self):
        text = (
            '{"vocab_size":3,"mode":"logits","topk":[{"token":0,"score":1.0}],'
            '"position_id":"a"}\n'
            '{"vocab_size":3,"mode":"logits","topk":[{"token":1,"score":2.0}],'
            '"position_id":"b"}\n'
        )
        for source in (text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())):
            obs = parse_observations(source)
            assert [o.position_id for o in obs] == ["a", "b"]

    def test_parser_sorts_unsorted_scores(self):
        line = (
            '{"vocab_size":4,"mode":"logits",'
            '"topk":[{"token":0,"score":0.0},{"token":2,"score":1.0}]}'
        )
        (obs,) = parse_observations(line)
        assert obs.token_ids.tolist() == [2, 0]
        assert obs.tau == 0.0
        assert obs.input_order.tolist() == [0, 2]


class TestRoundTrip:
    def test_unnamed_observations_round_trip_with_line_ids(self):
        unnamed = [make_observation(4, [1.0, 0.0], position_id="")] * 2
        text = serialize_observations(unnamed)
        assert "position_id" not in text
        assert [o.position_id for o in parse_observations(text)] == ["line1", "line2"]

    def test_unsorted_input_round_trips_bit_identically(self):
        line = (
            '{"vocab_size":6,"mode":"logits","position_id":"p7",'
            '"topk":[{"token":3,"score":-0.1},{"token":5,"score":2.25},'
            '{"token":0,"score":0.7}]}'
        )
        first = parse_observations(line)
        second = parse_observations(serialize_observations(first))
        a, b = first[0], second[0]
        assert np.array_equal(a.token_ids, b.token_ids)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.input_order, b.input_order)
        assert (a.vocab_size, a.mode, a.position_id) == (
            b.vocab_size,
            b.mode,
            b.position_id,
        )

    @given(
        scores=st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8, unique=True
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, scores, data):
        v = len(scores) + data.draw(st.integers(0, 4))
        tokens = data.draw(
            st.permutations(range(len(scores)))
        )
        obs = make_observation(v, scores, tokens=tokens)
        (back,) = parse_observations(serialize_observations([obs]))
        assert np.array_equal(back.token_ids, obs.token_ids)
        assert np.array_equal(back.scores, obs.scores)
        assert np.array_equal(back.input_order, obs.input_order)


class TestLogDomain:
    def test_single_token_head(self):
        g = geometry(make_observation(2, [0.0]))
        assert g.log_ZA == 0.0
        assert g.tau == 0.0
        assert g.M == 1
        np.testing.assert_allclose(g.alpha, [1.0])

    def test_two_token_head_against_direct_summation(self):
        g = geometry(make_observation(4, [1.0, 0.0]))
        direct = math.log(math.exp(1.0) + math.exp(0.0))
        assert math.isclose(g.log_ZA, direct, rel_tol=1e-15)
        np.testing.assert_allclose(
            g.alpha,
            [math.e / (math.e + 1), 1 / (math.e + 1)],
            rtol=1e-14,
        )

    def test_large_scores_do_not_overflow(self):
        # extended-precision oracle for the log-sum-exp of (1000, 999)
        with mpmath.workdps(60):
            expected = float(mpmath.log(mpmath.e**1000 + mpmath.e**999))
        g = geometry(make_observation(3, [1000.0, 999.0]))
        assert math.isfinite(g.log_ZA)
        assert math.isclose(g.log_ZA, expected, rel_tol=1e-15)

    @given(
        scores=st.lists(st.floats(-5000, 5000, allow_nan=False), min_size=1,
                        max_size=10),
        shift=st.floats(-1e4, 1e4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, scores, shift):
        v = len(scores) + 2
        base = geometry(make_observation(v, scores))
        shifted = geometry(make_observation(v, [s + shift for s in scores]))
        assert math.isclose(
            shifted.log_ZA, base.log_ZA + shift, rel_tol=1e-12, abs_tol=1e-9
        )
        np.testing.assert_allclose(shifted.alpha, base.alpha, atol=1e-12)

    @given(
        scores=st.lists(st.floats(-5e3, 5e3, allow_nan=False), min_size=1,
                        max_size=12)
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_sums_to_one(self, scores):
        g = geometry(make_observation(len(scores) + 1, scores))
        assert abs(float(g.alpha.sum()) - 1.0) <= 1e-12


class TestHiddenTailMass:
    def test_zero_tail(self):
        obs = make_observation(3, [math.log(1.0)], mode=AccessMode.LOGPROBS)
        assert _tail_mass(obs.log_ZA) == 0.0

    def test_arithmetic_identity(self):
        obs = make_observation(
            4, [math.log(0.5), math.log(0.3)], mode=AccessMode.LOGPROBS
        )
        t_star, *_ = tail_geometry(obs.log_ZA, obs.tau, obs.vocab_size - obs.k)
        assert math.isclose(t_star, 0.2, abs_tol=1e-15)

    def test_matches_direct_summation_on_synthetic_teacher(self):
        from censet.simulate import (
            GaussianIID,
            SyntheticTeacherConfig,
            censor,
            generate_teacher,
        )

        config = SyntheticTeacherConfig(vocab_size=200, law=GaussianIID(0.0, 3.0), seed=7)
        z = generate_teacher(config, 1)[0]
        obs = censor(z, 20, mode=AccessMode.LOGPROBS)
        direct = 1.0 - float(np.exp(obs.scores).sum())
        assert math.isclose(_tail_mass(obs.log_ZA), direct, abs_tol=1e-12)

    def test_mode_error_on_logits(self):
        # the tail mass is identified only under normalized access
        with pytest.raises(ModeError):
            disjoint_witness_pair(geometry(make_observation(3, [0.0])))


class TestValidationDirect:
    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            from_pairs(3, [0, 0], [1.0, 0.5], AccessMode.LOGITS)

    def test_inf_score(self):
        with pytest.raises(ValidationError, match="non-finite"):
            from_pairs(3, [0], [math.inf], AccessMode.LOGITS)

    def test_empty_revealed(self):
        with pytest.raises(ValidationError):
            from_pairs(3, [], [], AccessMode.LOGITS)

    def test_vocab_too_small(self):
        with pytest.raises(ValidationError, match="exceeds"):
            from_pairs(1, [0, 1], [0.0, -1.0], AccessMode.LOGITS)


def _record(vocab_size, pairs, mode="logits"):
    topk = ",".join('{"token":%s,"score":%s}' % pair for pair in pairs)
    return '{"vocab_size":%d,"mode":"%s","topk":[%s]}' % (vocab_size, mode, topk)


class TestValidationParity:
    """Exact error texts of the pair checks; the first bad pair in source
    order decides, and within a pair the token is checked before its score."""

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, "NaN"), (1, "0.0"), (7, "1.0")], "non-finite score nan for token 0"),
            ([(7, "1.0"), (1, "0.0"), (0, "NaN")], "token id 7 outside [0, 3)"),
            ([(0, "-Infinity"), (1, "0.0"), (2**70, "1.0")],
             "non-finite score -inf for token 0"),
            ([(1, "0.0"), (2**70, "1.0")],
             f"token id {2**70} outside [0, 3)"),
            ([(1, "0.0"), (-(2**70), "1.0")],
             f"token id {-(2**70)} outside [0, 3)"),
            ([(2**64, "NaN")], f"token id {2**64} outside [0, 3)"),
            ([(-1, "0.0"), (0, "Infinity")], "token id -1 outside [0, 3)"),
            ([(0, "1" + "0" * 400), (9, "0.0")], "score outside the float range"),
            ([(9, "0.0"), (0, "1" + "0" * 400)], "token id 9 outside [0, 3)"),
            ([(1, "0.0"), (9, "NaN"), (1, "1.0")],
             "duplicate token ids in revealed list: [1, 9, 1]"),
            ([(0, "0.0"), (1, "0.0"), (2, "0.0"), (2**70, "0.0")],
             "K=4 exceeds vocab_size=3"),
            ([(True, "0.0")], "token must be a JSON integer, got True"),
            ([(0, "0.0"), (1, "false")], "score must be a JSON number, got False"),
        ],
    )
    def test_first_bad_pair_decides(self, pairs, message):
        with pytest.raises(ParseError) as caught:
            parse_observations(_record(3, [(json.dumps(t), s) for t, s in pairs]))
        assert str(caught.value) == f"line 1: {message}"

    def test_signed_zero_ties_keep_source_order(self):
        (obs,) = parse_observations(
            _record(5, [(3, "0.0"), (0, "-0.0"), (4, "1.5"), (1, "0.0")])
        )
        assert list(obs.token_ids) == [4, 3, 0, 1]
        assert [math.copysign(1.0, s) for s in obs.scores] == [1.0, 1.0, -1.0, 1.0]
        assert list(obs.input_order) == [3, 0, 4, 1]


class TestArrays:
    def test_arrays_are_read_only_copies(self):
        ids, scores = np.array([2, 0, 1]), np.array([0.5, 1.0, 0.5])
        obs = from_pairs(4, ids, scores, AccessMode.LOGITS)
        assert obs.token_ids.tolist() == [0, 2, 1]
        assert obs.scores.tolist() == [1.0, 0.5, 0.5]
        assert obs.input_order.tolist() == [2, 0, 1]
        for array in (obs.token_ids, obs.scores, obs.input_order):
            assert not array.flags.writeable
        ids[0] = 3
        assert ids.flags.writeable and obs.input_order[0] == 2

    @pytest.mark.parametrize(
        "tokens, scores, message",
        [
            ([0, 1.5], [0.0, 0.0], "token id must be an integer, got 1.5"),
            (np.array([1.0]), [0.0], "token id must be an integer, got np.float64(1.0)"),
            ([0, 1], [0.0], "2 token ids but 1 scores"),
            ([0, 1], [0.0, 10**400], "score outside the float range"),
            (np.array([0, 1]), np.array([0.0, np.nan]),
             "non-finite score nan for token 1"),
            # scores are never coerced from strings, bools, None or complex
            ([0, 1], ["1.5", 0.5], "score must be a number, got '1.5'"),
            ([0, 1], np.array(["1.5", "0.5"]),
             "score must be a number, got np.str_('1.5')"),
            ([0, 1], [0.5, True], "score must be a number, got True"),
            ([0, 1], np.array([True, False]), "score must be a number, got np.True_"),
            ([0, 1], [None, 0.5], "score must be a number, got None"),
            ([0, 1], ["x", 0.5], "score must be a number, got 'x'"),
            ([0, 1], [1j, 0.5], "score must be a number, got 1j"),
        ],
    )
    def test_direct_construction_errors(self, tokens, scores, message):
        with pytest.raises(ValidationError) as caught:
            from_pairs(3, tokens, scores, AccessMode.LOGITS)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "vocab_size, token, message",
        [
            (10, 2**63, "token id 9223372036854775808 outside [0, 10)"),
            (10, 2**64 - 1, "token id 18446744073709551615 outside [0, 10)"),
            (2**64, 2**63, "token ids beyond 64 bits are not supported "
                           "(vocab_size=18446744073709551616)"),
        ],
    )
    def test_unsigned_ids_beyond_int64_are_named(self, vocab_size, token, message):
        # the uint64 array gets the error of the same id in a list
        for tokens in (np.array([token], dtype=np.uint64), [token]):
            with pytest.raises(ValidationError) as caught:
                from_pairs(vocab_size, tokens, [0.0], AccessMode.LOGITS)
            assert str(caught.value) == message


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


# scores that tie, carry a sign on zero, are JSON integers or spread to the
# ends of the float range
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 0, 3, -7]),
    st.floats(-1e308, 1e308, allow_nan=False),
    st.floats(-50, 50, allow_nan=False),
    st.integers(-(2**53), 2**53),
)


@st.composite
def _records(draw):
    vocab_size = draw(st.integers(1, 24))
    k = draw(st.sampled_from([1, vocab_size, draw(st.integers(1, vocab_size))]))
    tokens = draw(st.permutations(range(vocab_size)))[:k]
    scores = draw(st.lists(SCORES, min_size=k, max_size=k))
    mode = draw(st.sampled_from(["logits", "logprobs"]))
    if mode == "logprobs":
        # non-positive, with a head mass of at most K * exp(-log K) = 1
        scores = [-abs(float(s)) - math.log(k) for s in scores]
    topk = [{"token": t, "score": s} for t, s in zip(tokens, scores)]
    return json.dumps({"vocab_size": vocab_size, "mode": mode, "topk": topk})


def _one_at_a_time(text: str) -> list:
    """The records of ``text``, each line parsed alone behind blank lines
    that keep its number; position ids are tracked here, not by the parser."""
    seen, observations = set(), []
    for i, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        (obs,) = parse_observations("\n" * i + line)
        if obs.position_id in seen:
            raise ParseError(i + 1, f"duplicate position_id {obs.position_id!r}")
        seen.add(obs.position_id)
        observations.append(obs)
    return observations


class TestBatchParse:
    """The batch parser against one-record parses of each line."""

    @given(st.lists(_records(), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_stream_bit_for_bit(self, records):
        text = "\n".join(records) + "\n"
        batch = parse_observations(text)
        stream = _one_at_a_time(text)
        assert len(batch) == len(stream)
        assert _bits(batch.tau) == _bits([o.tau for o in stream])
        assert batch.k.tolist() == [o.k for o in stream]
        for got, want in zip(batch, stream):
            assert (got.vocab_size, got.mode, got.position_id) == (
                want.vocab_size, want.mode, want.position_id
            )
            for name in ("token_ids", "scores", "input_order"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and _bits(a) == _bits(b), name
                assert not a.flags.writeable
            assert _bits(np.float64(got.log_ZA)) == _bits(np.float64(want.log_ZA))

    def test_empty_input(self):
        batch = parse_observations("\n \n")
        assert len(batch) == 0 and list(batch) == []
        assert batch.k.tolist() == [] and batch.tau.tolist() == []

    def test_indexing_and_slicing_as_a_list(self):
        text = "".join(
            _line(f"p{i}", [(i % 5, "-1.0"), ((i + 1) % 5, "0.5")]) + "\n"
            for i in range(5)
        )
        batch = parse_observations(text)
        ids = [o.position_id for o in batch]
        assert batch[-1].position_id == ids[-1]
        for part in (slice(1, None), slice(None, None, -2), slice(3, 1), slice(-9, 9)):
            got = batch[part]
            assert isinstance(got, list)
            assert [o.position_id for o in got] == ids[part]
        (second,) = batch[1:2]
        assert second.input_order.tolist() == [1, 2]
        assert second.token_ids.tolist() == [2, 1]
        assert second.log_ZA == batch[1].log_ZA
        with pytest.raises(IndexError):
            batch[5]


def _line(pid, pairs, mode="logits", vocab_size=5):
    topk = ",".join('{"token":%s,"score":%s}' % pair for pair in pairs)
    return '{"vocab_size":%d,"mode":"%s","position_id":"%s","topk":[%s]}' % (
        vocab_size, mode, pid, topk
    )


# one faulty line per kind; "p0" is the id of the first, valid, line
FAULTS = {
    "invalid-json": lambda pid: '{"vocab_size": 5,',
    "missing-field": lambda pid: '{"vocab_size":5,"position_id":"%s","topk":[]}' % pid,
    "json-kind": lambda pid: _line(pid, [(0, "0.0"), ("1.5", "0.0")]),
    "duplicate-position-id": lambda pid: _line("p0", [(0, "0.0")]),
    "duplicate-token": lambda pid: _line(pid, [(1, "0.0"), (2, "-1.0"), (1, "1.0")]),
    "token-range": lambda pid: _line(pid, [(0, "0.0"), (9, "-1.0")]),
    "score-range": lambda pid: _line(pid, [(0, "1e999"), (2, "-1.0")]),
    "positive-logprob": lambda pid: _line(pid, [(0, "-0.5"), (3, "0.25")], "logprobs"),
    "head-mass": lambda pid: _line(
        pid, [(0, repr(math.log(0.6))), (4, repr(math.log(0.6)))], "logprobs"
    ),
}


class TestBatchErrorOrder:
    """With faults on two lines, the batch raises the first error of the
    one-record parses."""

    @staticmethod
    def _text(faults: dict[int, str], n: int = 6) -> str:
        lines = [
            FAULTS[faults[i]](f"p{i}") if i in faults
            else _line(f"p{i}", [(i % 5, "0.5"), ((i + 1) % 5, "-1.0")])
            for i in range(n)
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _error(parse, text) -> tuple[int, str]:
        with pytest.raises(ParseError) as caught:
            parse(text)
        return caught.value.line, str(caught.value)

    @pytest.mark.parametrize("second", sorted(FAULTS))
    @pytest.mark.parametrize("first", sorted(FAULTS))
    def test_first_fault_in_line_order_wins(self, first, second):
        for i, j in ((1, 2), (1, 4), (3, 5)):
            text = self._text({i: first, j: second})
            expected = self._error(_one_at_a_time, text)
            assert expected[0] == i + 1
            assert self._error(parse_observations, text) == expected

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_single_fault(self, fault):
        text = self._text({5: fault})
        expected = self._error(_one_at_a_time, text)
        assert self._error(parse_observations, text) == expected == (
            6, expected[1]
        )


class TestChunks:
    """A chunked parse: the same rows as one batch, in bounded pieces."""

    TEXT = "".join(
        _record(9, [(t, repr(-0.25 * t)) for t in range(k)]) + "\n"
        for k in (3, 1, 4, 2, 2, 5, 1)
    )

    @pytest.mark.parametrize("limit, sizes", [
        (1, [1] * 7), (4, [2, 1, 2, 1, 1]), (6, [3, 3, 1]), (100, [7]),
    ])
    def test_chunks_close_at_the_limit(self, limit, sizes, monkeypatch):
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", limit)
        chunks = list(_batches(self.TEXT, chunked=True))
        assert [len(c) for c in chunks] == sizes
        whole = parse_observations(self.TEXT)
        rows = [obs for chunk in chunks for obs in chunk]
        assert [o.position_id for o in rows] == whole.position_ids
        for got, want in zip(rows, whole):
            for name in ("token_ids", "scores", "input_order"):
                assert _bits(getattr(got, name)) == _bits(getattr(want, name))
            assert _bits(np.float64(got.log_ZA)) == _bits(np.float64(want.log_ZA))

    def test_empty_input_has_no_chunks(self):
        assert list(_batches("\n", chunked=True)) == []

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_valid_prefix_before_the_error(self, fault, monkeypatch):
        # lines 1-3 valid, line 4 faulty, in one chunk
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", 100)
        text = TestBatchErrorOrder._text({3: fault}, n=5)
        chunks = _batches(text, chunked=True)
        assert [o.position_id for o in next(chunks)] == ["p0", "p1", "p2"]
        with pytest.raises(ParseError, match="line 4: "):
            next(chunks)
