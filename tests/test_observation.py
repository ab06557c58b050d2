"""Parsing, validation, and log-domain summaries."""

import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censet.observation import (
    AccessMode,
    ModeError,
    ParseError,
    TopKObservation,
    ValidationError,
    hidden_tail_mass,
    parse_observations,
    serialize_observations,
    summarize,
)

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
        assert obs.token_ids == (2, 0)
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
        assert obs.revealed == ((1, 2.0),)
        assert isinstance(obs.revealed[0][1], float)

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
        assert obs.token_ids == (2, 0)
        assert obs.tau == 0.0
        assert obs.input_order == (0, 2)


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
        assert a.revealed == b.revealed
        assert a.input_order == b.input_order
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
        assert back.revealed == obs.revealed
        assert back.input_order == obs.input_order


class TestSummarize:
    def test_single_token_head(self):
        s = summarize(make_observation(2, [0.0]))
        assert s.log_ZA == 0.0
        assert s.tau == 0.0
        assert s.M == 1
        np.testing.assert_allclose(s.alpha, [1.0])

    def test_two_token_head_against_direct_summation(self):
        s = summarize(make_observation(4, [1.0, 0.0]))
        direct = math.log(math.exp(1.0) + math.exp(0.0))
        assert math.isclose(s.log_ZA, direct, rel_tol=1e-15)
        np.testing.assert_allclose(
            s.alpha,
            [math.e / (math.e + 1), 1 / (math.e + 1)],
            rtol=1e-14,
        )

    def test_large_scores_do_not_overflow(self):
        # extended-precision oracle for the log-sum-exp of (1000, 999)
        with mpmath.workdps(60):
            expected = float(mpmath.log(mpmath.e**1000 + mpmath.e**999))
        s = summarize(make_observation(3, [1000.0, 999.0]))
        assert math.isfinite(s.log_ZA)
        assert math.isclose(s.log_ZA, expected, rel_tol=1e-15)

    @given(
        scores=st.lists(st.floats(-5000, 5000, allow_nan=False), min_size=1,
                        max_size=10),
        shift=st.floats(-1e4, 1e4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, scores, shift):
        v = len(scores) + 2
        base = summarize(make_observation(v, scores))
        shifted = summarize(make_observation(v, [s + shift for s in scores]))
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
        s = summarize(make_observation(len(scores) + 1, scores))
        assert abs(float(s.alpha.sum()) - 1.0) <= 1e-12


class TestHiddenTailMass:
    def test_zero_tail(self):
        obs = make_observation(3, [math.log(1.0)], mode=AccessMode.LOGPROBS)
        assert hidden_tail_mass(obs) == 0.0

    def test_arithmetic_identity(self):
        obs = make_observation(
            4, [math.log(0.5), math.log(0.3)], mode=AccessMode.LOGPROBS
        )
        assert math.isclose(hidden_tail_mass(obs), 0.2, abs_tol=1e-15)

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
        assert math.isclose(hidden_tail_mass(obs), direct, abs_tol=1e-12)

    def test_mode_error_on_logits(self):
        obs = make_observation(3, [0.0])
        with pytest.raises(ModeError):
            hidden_tail_mass(obs)


class TestValidationDirect:
    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            TopKObservation(3, ((0, 1.0), (0, 0.5)), AccessMode.LOGITS)

    def test_inf_score(self):
        with pytest.raises(ValidationError, match="non-finite"):
            TopKObservation(3, ((0, math.inf),), AccessMode.LOGITS)

    def test_empty_revealed(self):
        with pytest.raises(ValidationError):
            TopKObservation(3, (), AccessMode.LOGITS)

    def test_vocab_too_small(self):
        with pytest.raises(ValidationError, match="exceeds"):
            TopKObservation(1, ((0, 0.0), (1, -1.0)), AccessMode.LOGITS)
