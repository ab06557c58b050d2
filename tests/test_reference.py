"""Reference-model shrinkage, calibration diagnostics, and box oracles."""

import io
import json
import math

import numpy as np
import pytest

from censet.cli import main
from censet.identified_set import geometry
from censet.minimax import _INV_E, g_max
from censet.observation import ParseError, parse_observations
from censet.oracles import (
    estimator_distribution,
    membership,
    point,
    reference_diameter_oracle,
    reference_risk_oracle,
    tv,
)
from censet.reference import (
    CoverageError,
    ReferenceLogits,
    calibrate_rho,
    parse_reference_dump,
    reference_geometry,
)
from censet.simulate import (
    GaussianIID,
    SyntheticTeacherConfig,
    censor,
    generate_teacher,
)

from conftest import make_geometry

E = math.e


def dense_ref(values):
    return ReferenceLogits(position_id="p", dense=np.asarray(values, dtype=float))


class TestReferenceGeometry:
    def test_saturated_margin_recovers_base_diameter(self, v4_geometry):
        ref = dense_ref([0.0, 0.0, 0.0, 0.0])
        rb = reference_geometry(v4_geometry, ref, math.inf)
        assert abs(rb.U_R - v4_geometry.U_K) <= 1e-12

    def test_forbidding_reference_kills_tail(self, v4_geometry):
        ref = dense_ref([-math.inf] * 4)
        rb = reference_geometry(v4_geometry, ref, 2.0)
        assert rb.U_R == 0.0

    def test_v4_worked_example(self, v4_geometry):
        # ceilings exp(min(0, -1 + 0.5)) = exp(-0.5) on both censored tokens
        ref = dense_ref([99.0, 99.0, -1.0, -1.0])  # revealed entries ignored
        rb = reference_geometry(v4_geometry, ref, 0.5)
        c_r = 2.0 * math.exp(-0.5)
        expected = c_r / (math.e + 1.0 + c_r)
        assert rb.U_R == pytest.approx(expected, rel=1e-12)
        assert rb.U_R == pytest.approx(0.2460, abs=5e-4)
        assert rb.U_R < v4_geometry.U_K
        oracle = reference_diameter_oracle(v4_geometry, rb, 40, max_points=4096)
        assert abs(oracle - rb.U_R) <= 1e-3

    def test_sparse_map_with_default(self, v4_geometry):
        ref = ReferenceLogits(position_id="p", entries={1: -1.0}, default=-1.0)
        rb = reference_geometry(v4_geometry, ref, 0.5)
        assert rb.U_R == pytest.approx(0.2460, abs=5e-4)

    def test_missing_coverage_raises(self, v4_geometry):
        ref = ReferenceLogits(position_id="p", entries={1: -1.0}, default=None)
        with pytest.raises(CoverageError):
            reference_geometry(v4_geometry, ref, 0.5)

    @pytest.mark.parametrize("default", [None, -2.5, -math.inf])
    def test_sparse_gather_matches_lookup(self, default):
        # the per-id dictionary lookup that the vocabulary layout replaced
        rng = np.random.default_rng(4)
        entries = {int(u): float(rng.normal()) for u in rng.permutation(60)[:25]}
        ref = ReferenceLogits(position_id="p", entries=entries, default=default)
        ids = rng.permutation(60)
        covered = [u for u in ids.tolist() if u in entries]
        if default is None:
            first = next(u for u in ids.tolist() if u not in entries)
            with pytest.raises(CoverageError, match=f"token {first} and"):
                ref.gather(ids, 60)
            ids = np.array(covered)
        expected = [entries.get(u, default) for u in ids.tolist()]
        np.testing.assert_array_equal(ref.gather(ids, 60), expected)
        empty = ReferenceLogits(position_id="p", entries={}, default=default)
        if default is not None:
            np.testing.assert_array_equal(empty.gather(ids, 60), default)

    @pytest.mark.parametrize("default", [None, 0.0])
    def test_negative_key_does_not_wrap(self, default):
        # a key of -1 from direct construction names no token, not V - 1
        ref = ReferenceLogits(position_id="p", entries={-1: 5.0, 0: 1.0},
                              default=default)
        if default is None:
            with pytest.raises(CoverageError, match="token 3 and"):
                ref.gather(np.array([0, 3]), 4)
        else:
            np.testing.assert_array_equal(ref.gather(np.array([0, 3]), 4),
                                          [1.0, 0.0])

    @pytest.mark.parametrize("ref", [
        ReferenceLogits(position_id="p", dense=["1.5", 0.0, 0.0, 0.0]),
        ReferenceLogits(position_id="p", dense=[True, 0.0, 0.0, 0.0]),
        ReferenceLogits(position_id="p", dense=np.array([1, 0, 0, 0], dtype=bool)),
        ReferenceLogits(position_id="p", entries={2: "1.5"}, default=0.0),
        ReferenceLogits(position_id="p", entries={2: 1.5}, default=True),
    ])
    def test_non_numbers_rejected(self, v4_geometry, ref):
        # no coercion from strings or bools, as in from_pairs
        with pytest.raises(ValueError, match="reference scores must be numbers"):
            reference_geometry(v4_geometry, ref, 0.5)

    def test_negative_rho_rejected(self, v4_geometry):
        with pytest.raises(ValueError):
            reference_geometry(v4_geometry, dense_ref([0.0] * 4), -0.1)

    @pytest.mark.parametrize("ref", [
        dense_ref([2.0, 1.0, math.nan, 0.5]),
        ReferenceLogits(position_id="p", entries={0: 2.0}, default=math.nan),
    ])
    def test_nan_reference_rejected(self, v4_geometry, ref):
        # NaN would otherwise read as a reference that forbids the whole tail
        with pytest.raises(ValueError, match="reference scores for position 'p' "
                                             "hold a NaN"):
            reference_geometry(v4_geometry, ref, 0.5)

    def test_infinite_reference_scores_keep_their_meaning(self, v4_geometry):
        # +inf sets no ceiling (U_R = U_K), -inf forbids the token
        rb = reference_geometry(v4_geometry, dense_ref([0, 0, math.inf, math.inf]),
                                0.5)
        assert rb.U_R == pytest.approx(v4_geometry.U_K, rel=1e-12)
        rb = reference_geometry(v4_geometry, dense_ref([0, 0, math.inf, -math.inf]),
                                0.5)
        assert rb.U_R == pytest.approx(1.0 / (math.e + 2.0), rel=1e-12)

    def test_wrong_dense_length(self, v4_geometry):
        with pytest.raises(CoverageError):
            reference_geometry(v4_geometry, dense_ref([0.0] * 3), 0.5)


class TestReferenceEstimator:
    def test_uniform_reference_reduces_to_symmetric(self, v4_geometry):
        ref = dense_ref([9.0, 9.0, -0.7, -0.7])
        rb = reference_geometry(v4_geometry, ref, 0.2)
        np.testing.assert_allclose(rb.beta, [0.5, 0.5], atol=1e-15)
        assert rb.reserve == pytest.approx(rb.U_R / E, rel=1e-15)
        np.testing.assert_allclose(
            estimator_distribution(v4_geometry, rb.reserve, rb.beta),
            estimator_distribution(v4_geometry, rb.reserve),
            rtol=1e-15, atol=0.0,
        )

    def test_v4_reserve(self, v4_geometry):
        ref = dense_ref([9.0, 9.0, -1.0, -1.0])
        rb = reference_geometry(v4_geometry, ref, 0.5)
        assert rb.reserve == pytest.approx(0.0905, abs=5e-4)
        np.testing.assert_allclose(rb.beta, [0.5, 0.5], atol=1e-15)

    def test_zero_diameter_returns_exact_head(self, v4_geometry):
        ref = dense_ref([-math.inf] * 4)
        rb = reference_geometry(v4_geometry, ref, 1.0)
        assert rb.U_R == 0.0
        assert rb.reserve == 0.0
        np.testing.assert_array_equal(
            estimator_distribution(v4_geometry, rb.reserve, rb.beta),
            point(v4_geometry, 0.0),
        )

    def test_reserve_is_the_report_column(self, tmp_path):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            '{"vocab_size":5,"mode":"logits","position_id":"a",'
            '"topk":[{"token":2,"score":1.0},{"token":0,"score":0.0}]}\n'
            '{"vocab_size":4,"mode":"logits","position_id":"b",'
            '"topk":[{"token":1,"score":0.5},{"token":3,"score":-0.5}]}\n'
            '{"vocab_size":2,"mode":"logits","position_id":"c",'
            '"topk":[{"token":0,"score":0.3},{"token":1,"score":0.0}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        # "b" forbids its whole tail, so U_R = 0; "c" has no censored token
        refs.write_text(
            '{"position_id":"a","dense":[1.1,0.2,-1.0,-0.4,0.7]}\n'
            '{"position_id":"b","default":"-inf","entries":[]}\n'
            '{"position_id":"c","dense":[0.0,0.0]}\n'
        )
        out = tmp_path / "report.json"
        assert main(["reference", "--input", str(obs), "--reference", str(refs),
                     "--rho", "0.5", "--format", "json", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        ref_dump = parse_reference_dump(refs.read_text())
        expected = [
            reference_geometry(geometry(o), ref_dump[o.position_id], 0.5).reserve
            for o in parse_observations(obs.read_text())
        ]
        assert [r["reserve"] for r in rows] == expected
        assert expected[0] > 0.0 and expected[1:] == [0.0, 0.0]

    def test_risk_within_shrunken_envelope(self, v4_geometry):
        # sampled box-constrained adversary never exceeds the envelope max
        ref = dense_ref([9.0, 9.0, -1.0, -1.0])
        rb = reference_geometry(v4_geometry, ref, 0.5)
        assert rb.U_R <= 0.3
        worst = reference_risk_oracle(v4_geometry, rb, rb.reserve, rb.beta,
                                      n_samples=4096, seed=5)
        assert worst <= g_max(rb.U_R)[0] + 1e-6


class TestExtremalPair:
    def test_tv_attains_shrunken_diameter(self, v4_geometry):
        ref = dense_ref([0.0, -1.2, 0.0, 0.4])
        rb = reference_geometry(v4_geometry, ref, 0.3)
        # zero tail against the ceiling-saturating tail at mass U_R
        p0 = point(v4_geometry, 0.0)
        p1 = point(v4_geometry, rb.U_R, rb.U_R * rb.beta)
        assert abs(tv(p0, p1) - rb.U_R) <= 1e-12
        assert membership(v4_geometry, p0) == []
        assert membership(v4_geometry, p1) == []


class TestInvariantSuite:
    def _random_case(self, rng):
        v = int(rng.integers(3, 9))
        k = int(rng.integers(1, v))
        config = SyntheticTeacherConfig(
            vocab_size=v, law=GaussianIID(0.0, 1.5), seed=int(rng.integers(2**32))
        )
        z = generate_teacher(config, 1)[0]
        geom = geometry(censor(z, k))
        ref = ReferenceLogits(
            position_id="p", dense=z + rng.normal(0.0, 1.0, size=v)
        )
        return geom, ref

    def test_shrinkage_and_monotonicity(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            geom, ref = self._random_case(rng)
            rho_lo, rho_hi = sorted(rng.uniform(0.0, 4.0, size=2))
            rb_lo = reference_geometry(geom, ref, float(rho_lo))
            rb_hi = reference_geometry(geom, ref, float(rho_hi))
            assert rb_lo.U_R <= geom.U_K + 1e-12
            assert rb_hi.U_R <= geom.U_K + 1e-12
            assert rb_lo.U_R <= rb_hi.U_R + 1e-12

    def test_huge_margin_reduces_to_base(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            geom, ref = self._random_case(rng)
            rb = reference_geometry(geom, ref, 1e3)
            assert abs(rb.U_R - geom.U_K) <= 1e-9
            if geom.M > 0 and rb.U_R > 0:
                assert abs(rb.reserve - geom.U_K * _INV_E) <= 1e-12
                np.testing.assert_allclose(
                    rb.beta, np.full(geom.M, 1.0 / geom.M), atol=1e-12
                )

    def test_box_oracle_confirms_shrunken_diameter(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 25:
            geom, ref = self._random_case(rng)
            if geom.M == 0:
                continue
            rb = reference_geometry(geom, ref, float(rng.uniform(0.0, 2.0)))
            oracle = reference_diameter_oracle(geom, rb, 9, max_points=1024, seed=checked)
            assert abs(oracle - rb.U_R) <= 1e-3
            checked += 1


class TestCalibrateRho:
    def test_identical_models(self):
        z = np.array([0.3, -1.2, 2.0])
        assert calibrate_rho(z, z, 0.5) == (0.0, 0.0)

    def test_bounded_noise_compliance(self):
        rng = np.random.default_rng(0)
        z_ref = rng.normal(0.0, 2.0, size=400)
        z_teacher = z_ref + rng.uniform(-1.0, 1.0, size=400)
        worst, exceeding = calibrate_rho(z_teacher, z_ref, 1.0)
        assert exceeding == 0.0
        assert worst <= 1.0
        assert calibrate_rho(z_teacher, z_ref, 0.5)[1] > 0.0

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="at least 2"):
            calibrate_rho(np.zeros(1), np.zeros(1), 1.0)


class TestParseReferenceDump:
    def test_dense_and_sparse_forms(self):
        text = (
            '{"position_id":"a","dense":[0.0,1.0,2.0]}\n'
            '{"position_id":"b","default":"-inf","entries":[{"token":2,"logit":-3.5}]}\n'
        )
        refs = parse_reference_dump(io.StringIO(text))
        assert set(refs) == {"a", "b"}
        np.testing.assert_allclose(refs["a"].dense, [0.0, 1.0, 2.0])
        assert refs["b"].default == -math.inf
        assert refs["b"].entries == {2: -3.5}

    def test_numeric_default(self):
        (ref,) = parse_reference_dump(
            '{"position_id":"x","default":-7.5,"entries":[]}'
        ).values()
        assert ref.default == -7.5

    def test_duplicate_position_id(self):
        text = (
            '{"position_id":"a","dense":[0.0,1.0]}\n'
            '\n'
            '{"position_id":"a","dense":[2.0,3.0]}\n'
        )
        with pytest.raises(ParseError, match="line 3: duplicate position_id 'a'"):
            parse_reference_dump(text)

    @pytest.mark.parametrize("pid", ["null", "[1]", "7"])
    def test_position_id_must_be_string(self, pid):
        with pytest.raises(ParseError, match="line 1: position_id must be a JSON string"):
            parse_reference_dump('{"position_id":%s,"dense":[0.0,1.0]}' % pid)

    @pytest.mark.parametrize(
        "record,field",
        [
            ('"dense":[0.0,"1.0"]', "dense score"),
            ('"entries":[{"token":2,"logit":"-3.5"}]', "logit"),
            ('"entries":[{"token":2.0,"logit":-3.5}]', "token"),
            ('"entries":[{"token":true,"logit":-3.5}]', "token"),
            ('"default":"0.5","entries":[]', "default"),
        ],
    )
    def test_no_type_coercion(self, record, field):
        with pytest.raises(ParseError, match=f"line 1: {field} must be a JSON"):
            parse_reference_dump('{"position_id":"a",' + record + "}")

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="line 1: record must be a JSON object"):
            parse_reference_dump("[1, 2]")

    def test_malformed_record(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_reference_dump('{"dense":[0.0]}')
        with pytest.raises(ParseError, match="dense or entries"):
            parse_reference_dump('{"position_id":"a"}')

    def test_duplicate_token_rejected(self):
        text = (
            '{"position_id":"a","dense":[0.0,1.0]}\n'
            '{"position_id":"b","default":-9.0,"entries":[{"token":3,"logit":1.0},'
            '{"token":5,"logit":0.0},{"token":3,"logit":2.0}]}\n'
        )
        with pytest.raises(ParseError, match="line 2: token 3 listed twice"):
            parse_reference_dump(text)

    @pytest.mark.parametrize("token", ["-1", str(2**63), str(2**64)])
    def test_token_id_out_of_range(self, token):
        record = ('{"position_id":"a","default":-9.0,"entries":'
                  '[{"token":0,"logit":1.0},{"token":%s,"logit":0.0}]}' % token)
        with pytest.raises(ParseError, match=f"line 1: token id {token} outside"):
            parse_reference_dump(record)

    def test_dense_and_entries_together_rejected(self):
        record = ('{"position_id":"a","dense":[0.0,1.0],'
                  '"default":-9.0,"entries":[{"token":0,"logit":1.0}]}')
        with pytest.raises(ParseError, match="line 1: record has both dense and entries"):
            parse_reference_dump(record)

    @pytest.mark.parametrize("record, field", [
        ('"dense":[2.0,1.0,NaN,0.5]', "dense score"),
        ('"default":0.0,"entries":[{"token":0,"logit":2.0},{"token":2,"logit":NaN}]',
         "logit"),
        ('"default":NaN,"entries":[{"token":0,"logit":2.0}]', "default"),
    ])
    def test_nan_score_rejected(self, record, field):
        text = '{"position_id":"a","dense":[0.0]}\n{"position_id":"b",' + record + "}\n"
        with pytest.raises(ParseError) as caught:
            parse_reference_dump(text)
        assert str(caught.value) == f"line 2: {field} must not be NaN"

    def test_infinite_scores_accepted(self):
        refs = parse_reference_dump(
            '{"position_id":"a","dense":[Infinity,-Infinity,0.5]}\n'
            '{"position_id":"b","default":-Infinity,"entries":'
            '[{"token":0,"logit":Infinity}]}\n'
        )
        assert refs["a"].dense.tolist() == [math.inf, -math.inf, 0.5]
        assert refs["b"].default == -math.inf and refs["b"].entries == {0: math.inf}

    def test_null_default_rejected(self):
        record = '{"position_id":"a","default":null,"entries":[{"token":0,"logit":1.0}]}'
        with pytest.raises(ParseError, match="line 1: default must be a JSON number"):
            parse_reference_dump(record)

    @pytest.mark.parametrize(
        "record,key,form",
        [
            ('"dense":[0.0,1.0],"default":"bogus"', "default", "dense"),
            ('"dense":[0.0,1.0],"extra":1', "extra", "dense"),
            ('"default":-9.0,"entries":[],"extra":1', "extra", "sparse"),
            ('"dens":[0.0,1.0],"entries":[{"token":0,"logit":1.0}]', "dens", "sparse"),
        ],
    )
    def test_unknown_field_rejected(self, record, key, form):
        text = '{"position_id":"a","dense":[0.0]}\n{"position_id":"b",' + record + "}\n"
        with pytest.raises(
            ParseError, match=f"line 2: unknown field '{key}' in a {form} record"
        ):
            parse_reference_dump(text)
