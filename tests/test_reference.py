"""Reference-model shrinkage, calibration diagnostics, and box oracles."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censet.cli import main
from censet.identified_set import geometry
from censet.minimax import _INV_E, g_max
from censet.numerics import expit, logsumexp
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
    _uncovered,
    calibrate_rho,
    reference_geometry,
)
from censet.simulate import (
    GaussianIID,
    SyntheticTeacherConfig,
    censor,
    generate_teacher,
)

from conftest import make_geometry, make_observation, parse_reference_dump

E = math.e


def dense_ref(values):
    return ReferenceLogits(position_id="p", dense=np.asarray(values, dtype=float))


def gather(ref, ids, vocab_size):
    """The reference scores of the tokens ``ids``, in their order, read from
    the row's layout over the vocabulary: the lookup these tests compare the
    package's geometry and calibration against."""
    table, listed = ref._layout(vocab_size)
    if listed is not None:
        found = listed[ids]
        if not found.all():
            raise _uncovered(ids[found.argmin()])
    return table[ids]


class TestReferenceGeometry:
    @pytest.mark.parametrize("both", [True, False])
    def test_exactly_one_of_dense_or_entries(self, both):
        values = dict(dense=np.zeros(4), entries={0: 0.0}) if both else {}
        with pytest.raises(ValueError, match="^provide exactly one of dense or entries$"):
            ReferenceLogits(position_id="p", **values)

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
                gather(ref, ids, 60)
            ids = np.array(covered)
        expected = [entries.get(u, default) for u in ids.tolist()]
        np.testing.assert_array_equal(gather(ref, ids, 60), expected)
        empty = ReferenceLogits(position_id="p", entries={}, default=default)
        if default is not None:
            np.testing.assert_array_equal(gather(empty, ids, 60), default)

    @pytest.mark.parametrize("default", [None, 0.0])
    def test_negative_key_does_not_wrap(self, default):
        # a key of -1 from direct construction names no token, not V - 1
        ref = ReferenceLogits(position_id="p", entries={-1: 5.0, 0: 1.0},
                              default=default)
        if default is None:
            with pytest.raises(CoverageError, match="token 3 and"):
                gather(ref, np.array([0, 3]), 4)
        else:
            np.testing.assert_array_equal(gather(ref, np.array([0, 3]), 4),
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


def _setdiff_geometry(obs, ref, rho):
    """The ceilings as the censored ids' gather computed them: ``(log_ceilings,
    log_CR, U_R, reserve)``."""
    censored = np.setdiff1d(np.arange(obs.vocab_size), obs.token_ids)
    z = gather(ref, censored, obs.vocab_size)
    with np.errstate(invalid="ignore"):
        ceilings = np.where(np.isneginf(z), -math.inf, np.minimum(obs.tau, z + rho))
    log_cr = logsumexp(ceilings)
    if math.isnan(log_cr):
        raise ValueError(
            f"reference scores for position {ref.position_id!r} hold a NaN"
        )
    u_r = expit(log_cr - obs.log_ZA) if math.isfinite(log_cr) else 0.0
    return ceilings, log_cr, u_r, u_r * _INV_E


def _outcome(compute):
    """The bits of a geometry's four results, or its error's type and text."""
    try:
        ceilings, log_cr, u_r, reserve = compute()
    except ValueError as exc:
        return type(exc), str(exc)
    return (np.asarray(ceilings, dtype=np.float64).tobytes(),
            *(np.float64(x).tobytes() for x in (log_cr, u_r, reserve)))


def _layout_geometry(obs, ref, rho):
    rb = reference_geometry(obs, ref, rho)
    return rb.log_ceilings, rb.log_CR, rb.U_R, rb.reserve


REFERENCE_SCORES = st.one_of(
    st.floats(-40.0, 40.0), st.sampled_from([math.inf, -math.inf, -0.0]),
)


@st.composite
def _reference_cases(draw):
    """An observation of V <= 64 (K = V included), a dense or sparse reference
    row for it, and a margin."""
    v = draw(st.integers(1, 64))
    k = draw(st.integers(1, v))
    tokens = draw(st.permutations(range(v)))[:k]
    scores = draw(st.lists(st.floats(-30.0, 30.0), min_size=k, max_size=k))
    obs = make_observation(v, scores, tokens=tokens)
    form = draw(st.sampled_from(["dense", "finite", "-inf", "none", "uncovered"]))
    if form == "dense":
        ref = ReferenceLogits(position_id="p", dense=np.array(
            draw(st.lists(REFERENCE_SCORES, min_size=v, max_size=v))))
    else:
        # keys beyond the vocabulary and negative keys are ignored
        keys = draw(st.sets(st.integers(-3, v + 3)))
        if form == "none":
            keys |= set(range(v)) - set(tokens)
        values = draw(st.lists(REFERENCE_SCORES, min_size=len(keys),
                               max_size=len(keys)))
        default = {"finite": draw(st.floats(-40.0, 40.0)), "-inf": -math.inf
                   }.get(form)
        ref = ReferenceLogits(position_id="p", entries=dict(zip(keys, values)),
                              default=default)
    return obs, ref, draw(st.sampled_from([0.0, 0.5, math.inf]))


class TestOneLayout:
    """The ceilings taken from one layout per row by a mask equal, bit for bit,
    those of the censored ids' gather, and so do ``log_CR``, U_R and the
    reserve; an uncovered row fails with the same text."""

    @given(_reference_cases())
    @settings(max_examples=400, deadline=None)
    def test_same_bits_as_the_censored_gather(self, case):
        obs, ref, rho = case
        assert (_outcome(lambda: _layout_geometry(obs, ref, rho))
                == _outcome(lambda: _setdiff_geometry(obs, ref, rho)))

    @pytest.mark.parametrize("ref", [
        dense_ref([0.5, -math.inf, math.inf, 2.0]),
        ReferenceLogits(position_id="p", entries={0: 1.0, 7: 2.0}, default=-1.0),
        ReferenceLogits(position_id="p", entries={1: 1.0}, default=-math.inf),
        ReferenceLogits(position_id="p", entries={2: 1.0}),
    ])
    @pytest.mark.parametrize("rho", [0.0, 0.5, math.inf])
    def test_no_censored_token(self, ref, rho):
        # K = V: the ceilings are empty whatever the row lists
        obs = make_observation(4, [1.0, 0.5, 0.0, -1.0])
        ceilings, log_cr, u_r, reserve = _layout_geometry(obs, ref, rho)
        assert ceilings.shape == (0,) and log_cr == -math.inf
        assert u_r == reserve == 0.0
        assert (_outcome(lambda: _layout_geometry(obs, ref, rho))
                == _outcome(lambda: _setdiff_geometry(obs, ref, rho)))

    def test_uncovered_row_text(self):
        # tokens 2, 4 and 5 are censored; 4 is the first with no score
        obs = make_observation(6, [1.0, 0.0, -1.0], tokens=[3, 0, 1])
        ref = ReferenceLogits(position_id="p", entries={2: 0.0, 5: 0.0, 9: 0.0})
        with pytest.raises(CoverageError) as caught:
            reference_geometry(obs, ref, 0.5)
        assert str(caught.value) == "no reference value for token 4 and no default"
        assert _outcome(lambda: _setdiff_geometry(obs, ref, 0.5)) == (
            CoverageError, str(caught.value))

    @pytest.mark.parametrize("ref, revealed", [
        (dense_ref([0.5, -1.0, 2.0, 3.0]), [-1.0, 0.5]),
        (ReferenceLogits(position_id="p", entries={0: 4.0, 2: 1.0}, default=-2.0),
         [-2.0, 4.0]),
        (ReferenceLogits(position_id="p", entries={0: 4.0, 1: 1.0, 2: 0.0, 3: 0.0}),
         [1.0, 4.0]),
        (ReferenceLogits(position_id="p", entries={0: 4.0, 2: 0.0, 3: 0.0}), None),
    ])
    def test_revealed_scores_from_the_same_layout(self, ref, revealed):
        # tokens 1 and 0 are revealed, in that score order
        rb = reference_geometry(make_geometry(4, [1.0, 0.0], tokens=[1, 0]), ref, 0.5)
        if revealed is None:
            assert rb.revealed_ref is None
        else:
            assert rb.revealed_ref.tolist() == revealed


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
            '{"vocab_size":3,"mode":"logits","position_id":"d",'
            '"topk":[{"token":0,"score":0.2},{"token":1,"score":-0.1}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        # "b" forbids its whole tail, so U_R = 0; "c" has no censored token;
        # "d" lists no score for its revealed token 1 and has no default, so
        # it has no calibration
        refs.write_text(
            '{"position_id":"a","dense":[1.1,0.2,-1.0,-0.4,0.7]}\n'
            '{"position_id":"b","default":"-inf","entries":[]}\n'
            '{"position_id":"c","dense":[0.0,0.0]}\n'
            '{"position_id":"d","entries":[{"token":0,"logit":0.1},'
            '{"token":2,"logit":-2.0}]}\n'
        )
        out, analyzed = tmp_path / "report.json", tmp_path / "analyze.json"
        assert main(["reference", "--input", str(obs), "--reference", str(refs),
                     "--rho", "0.5", "--format", "json", "--output", str(out)]) == 0
        assert main(["analyze", "--input", str(obs), "--format", "json",
                     "--output", str(analyzed)]) == 0
        rows = json.loads(out.read_text())["rows"]
        u_k = [r["U_K"] for r in json.loads(analyzed.read_text())["rows"]]
        ref_dump = parse_reference_dump(refs.read_text())
        batch = parse_observations(obs.read_text())
        expected = []
        for o, u in zip(batch, u_k):
            rlogits = ref_dump[o.position_id]
            rb = reference_geometry(o, rlogits, 0.5)
            try:
                calibration = calibrate_rho(
                    o.scores, gather(rlogits, o.token_ids, o.vocab_size), 0.5)
            except CoverageError:
                calibration = (None, None)
            expected.append({
                "position_id": o.position_id, "K": o.k, "U_K": u, "U_R": rb.U_R,
                "shrinkage": rb.U_R / u if u > 0 else None, "rho": 0.5,
                "reserve": rb.reserve, "max_perturbation": calibration[0],
                "frac_exceeding_rho": calibration[1],
            })
        assert rows == expected
        assert [r["reserve"] > 0.0 for r in rows] == [True, False, False, True]
        assert rows[3]["max_perturbation"] is rows[3]["frac_exceeding_rho"] is None

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

    @pytest.mark.parametrize("dense", ['{"0":1.0}', "1.0", '"0.0,1.0"', "null"])
    def test_dense_must_be_a_list(self, dense):
        with pytest.raises(ParseError) as caught:
            parse_reference_dump('{"position_id":"a","dense":%s}' % dense)
        assert str(caught.value) == "line 1: dense must be a list of scores"

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
