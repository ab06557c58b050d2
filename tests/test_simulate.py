"""Synthetic teachers, censoring, K-sweeps, and composition."""

import hashlib
import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censet.cli import main
from censet.identified_set import geometry
from censet.minimax import (
    _INV_E,
    _sup_candidates,
    reserve,
    symmetric_sup,
)
from censet.numerics import NumericPolicy, logsumexp, use_policy
from censet.observation import (
    AccessMode,
    ValidationError,
    _tail_mass,
    serialize_observations,
)
from censet.oracles import geometry_with_diameter
from censet.simulate import (
    DirichletSoftmax,
    GaussianIID,
    PeakedHead,
    SyntheticTeacherConfig,
    _draw_logits,
    _position_rng,
    _sweep_block,
    _top,
    average_risk,
    censor,
    generate_teacher,
    ksweep,
    score_sorted,
)


class TestGenerateTeacher:
    def test_peaked_head_concentrates_mass(self):
        config = SyntheticTeacherConfig(
            vocab_size=100, law=PeakedHead(head_size=1, gap=10.0), seed=0
        )
        z = generate_teacher(config, 1)[0]
        probs = np.exp(z - np.log(np.exp(z).sum()))
        assert probs[0] >= 0.9999

    def test_determinism(self):
        config = SyntheticTeacherConfig(
            vocab_size=64, law=GaussianIID(0.0, 2.0), seed=1234
        )
        a = generate_teacher(config, 5)
        b = generate_teacher(config, 5)
        np.testing.assert_array_equal(a, b)

    def test_positions_are_independent_streams(self):
        config = SyntheticTeacherConfig(
            vocab_size=32, law=GaussianIID(0.0, 1.0), seed=9
        )
        z = generate_teacher(config, 3)
        assert not np.array_equal(z[0], z[1])
        # a shorter run reproduces the same leading positions
        np.testing.assert_array_equal(generate_teacher(config, 2), z[:2])

    def test_rows_are_position_draws_over_temperature(self):
        config = SyntheticTeacherConfig(64, GaussianIID(0.0, 2.0), temperature=0.7,
                                        seed=3)
        draws = [_draw_logits(config.law, 64, _position_rng(3, i)) for i in range(4)]
        np.testing.assert_array_equal(generate_teacher(config, 4),
                                      np.stack(draws) / 0.7)

    def test_extreme_temperature_flattens(self):
        config = SyntheticTeacherConfig(
            vocab_size=30,
            law=GaussianIID(0.0, 1.0),
            temperature=1e6,
            seed=3,
        )
        z = generate_teacher(config, 1)[0]
        # near-uniform softmax: pipeline agrees with direct evaluation
        g = geometry(censor(z, 1))
        z_sorted = np.sort(z)[::-1]
        za = math.exp(z_sorted[0])
        direct = 29 * math.exp(z_sorted[1]) / (za + 29 * math.exp(z_sorted[1]))
        assert g.U_K == pytest.approx(direct, rel=1e-9)
        assert g.U_K == pytest.approx(29 / 30, abs=1e-3)

    def test_dirichlet_law_gives_valid_teacher(self):
        config = SyntheticTeacherConfig(
            vocab_size=40, law=DirichletSoftmax(concentration=0.3), seed=5
        )
        z = generate_teacher(config, 2)
        assert np.all(np.isfinite(z))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTeacherConfig(vocab_size=1, law=GaussianIID())
        with pytest.raises(ValueError):
            SyntheticTeacherConfig(vocab_size=4, law=GaussianIID(), temperature=0.0)


class TestCensor:
    def test_full_access(self):
        obs = censor(np.array([1.0, 3.0, 2.0]), 3)
        g = geometry(obs)
        assert g.U_K == 0.0

    def test_order_statistics(self):
        obs = censor(np.array([3.0, 1.0, 2.0]), 2)
        assert obs.token_ids.tolist() == [0, 2]
        assert obs.scores.tolist() == [3.0, 2.0]
        assert obs.tau == 2.0

    def test_tie_breaks_to_lower_id(self):
        obs = censor(np.array([1.0, 1.0, 0.0]), 1)
        assert obs.token_ids.tolist() == [0]

    def test_logprobs_mode_normalizes(self):
        z = np.array([2.0, 1.0, 0.0, -1.0])
        obs = censor(z, 2, mode=AccessMode.LOGPROBS)
        assert obs.mode is AccessMode.LOGPROBS
        assert np.all(obs.scores <= 0.0)
        np.testing.assert_allclose(
            np.exp(obs.scores),
            np.exp(z[:2]) / np.exp(z).sum(),
            rtol=1e-12,
        )

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            censor(np.zeros(3), 0)
        with pytest.raises(ValueError):
            censor(np.zeros(3), 4)


SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, -1e308]


@st.composite
def _rows_and_k(draw):
    """A row of special floats or of small integers (many ties) and a K of
    1, V - 1 or V."""
    v = draw(st.integers(1, 40))
    if draw(st.booleans()):
        values = st.sampled_from(SPECIAL)
    else:
        values = st.integers(-3, 3).map(float)
    z = np.array(draw(st.lists(values, min_size=v, max_size=v)))
    k = draw(st.sampled_from(sorted({1, max(v - 1, 1), v})))
    return z, k


class TestTop:
    @settings(max_examples=400, deadline=None)
    @given(_rows_and_k())
    def test_equals_stable_argsort_prefix(self, row_and_k):
        z, k = row_and_k
        want = np.argsort(-z, kind="stable")[:k]
        got = _top(z, k)
        assert np.array_equal(got, want)
        assert np.array_equal(z[got], z[want], equal_nan=True)
        assert np.array_equal(np.signbit(z[got]), np.signbit(z[want]))

    @pytest.mark.parametrize("k", [1, 100, 4095, 4096])
    def test_score_sorted_equals_full_sort(self, k):
        teacher = np.vstack([
            generate_teacher(SyntheticTeacherConfig(4096, DirichletSoftmax(1.0)), 2),
            np.random.default_rng(1).integers(-2, 3, size=(2, 4096)) * 1.0,
        ])
        scores, token_ids, log_z, v = score_sorted(teacher, k)
        order = np.argsort(-teacher, axis=1, kind="stable")[:, :k]
        assert v == 4096
        assert np.array_equal(token_ids, order)
        assert np.array_equal(scores, np.take_along_axis(teacher, order, axis=1))
        assert log_z.tolist() == [logsumexp(z) for z in teacher]


class TestKsweep:
    @pytest.fixture
    def teacher(self):
        config = SyntheticTeacherConfig(
            vocab_size=50, law=GaussianIID(0.0, 2.0), seed=77
        )
        return generate_teacher(config, 12)

    def test_monotone_columns(self, teacher):
        rows = ksweep([score_sorted(teacher, 50)], [1, 2, 5, 10, 25, 50])
        uk = [r.uk_mean for r in rows]
        rb = [r.rbin_mean for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(uk, uk[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(rb, rb[1:]))

    def test_full_k_row_is_exact_zero(self, teacher):
        (row,) = ksweep([score_sorted(teacher, 50)], [50])
        assert row.uk_mean == 0.0
        assert row.rbin_mean == 0.0

    def test_population_sd(self, teacher):
        (row,) = ksweep([score_sorted(teacher, 5)], [5])
        uks = [
            geometry(censor(z, 5)).U_K for z in teacher
        ]
        assert row.uk_sd == pytest.approx(float(np.std(uks, ddof=0)), rel=1e-12)
        assert row.n == len(teacher)

    def test_oversized_k_yields_skip_row(self, teacher, capsys):
        # the skipped row is the whole record of a K above V: no warning
        rows = ksweep([score_sorted(teacher, 99)], [5, 99])
        assert capsys.readouterr().err == ""
        skipped = rows[-1]
        assert skipped.k == 99
        assert skipped.n == 0
        assert math.isnan(skipped.uk_mean)
        assert math.isnan(skipped.sup_kl_mean)

    def test_geometry_consistency_two_code_paths(self, teacher):
        # pipeline value vs direct evaluation on raw order statistics
        for z in teacher:
            for k in (1, 7, 30):
                g = geometry(censor(z, k))
                z_sorted = np.sort(z)[::-1]
                za = np.exp(z_sorted[:k]).sum()
                m = len(z) - k
                direct = m * math.exp(z_sorted[k - 1]) / (za + m * math.exp(z_sorted[k - 1]))
                assert abs(g.U_K - direct) <= 1e-12

    def test_csv_schema(self, teacher, tmp_path):
        text = _ksweep_csv(teacher, "1,5", tmp_path / "k.csv")
        lines = text.strip().splitlines()
        assert lines[0] == "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n"
        assert len(lines) == 3
        assert lines[1].startswith("1,")

    def test_bit_reproducible(self, teacher, tmp_path):
        a = _ksweep_csv(teacher, "1,5,10", tmp_path / "a.csv")
        b = _ksweep_csv(teacher, "1,5,10", tmp_path / "b.csv")
        assert a == b


def _ksweep_csv(teacher, ks, out):
    """`censet ksweep --format csv` over a full dump of ``teacher``."""
    dump = out.with_suffix(".jsonl")
    dump.write_text(serialize_observations(
        [censor(z, len(z), position_id=f"p{i}") for i, z in enumerate(teacher)]
    ))
    assert main(
        ["ksweep", "--input", str(dump), "--k", ks, "--format", "csv",
         "--output", str(out)]
    ) == 0
    return out.read_text()


def _censor_pipeline(z, k):
    """The per-(position, K) path the single-sort sweep replaces."""
    geom = geometry(censor(z, k))
    return geom, _tail_mass(censor(z, k, mode=AccessMode.LOGPROBS).log_ZA)


def _pipeline_error(z, ks):
    """Message of the first ValidationError the censor path raises over ``ks``."""
    with pytest.raises(ValidationError) as caught:
        for k in ks:
            _censor_pipeline(z, k)
    return str(caught.value)


def _swept(z, ks):
    """:func:`_sweep_block` over ``z`` as one full-width block (one row or
    a matrix of them)."""
    return list(_sweep_block(*score_sorted(z, np.shape(z)[-1]), ks))


class TestSweepBlock:
    ROWS = {
        "gaussian": generate_teacher(
            SyntheticTeacherConfig(40, GaussianIID(0.0, 3.0), seed=4), 2
        ),
        "dirichlet": generate_teacher(
            SyntheticTeacherConfig(40, DirichletSoftmax(0.2), seed=5), 2
        ),
        "peaked": generate_teacher(
            SyntheticTeacherConfig(40, PeakedHead(head_size=6, gap=4.0), seed=6), 2
        ),
        "integer_ties": np.random.default_rng(7).integers(-2, 3, size=(2, 40)) * 1.0,
    }

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_equals_censor_pipeline_exactly(self, name):
        # both rows in one block, each over every K
        rows = self.ROWS[name]
        ks = list(range(1, rows.shape[1] + 1))
        for (z, k), (m, u, log_odds, tail) in zip(
            itertools.product(rows, ks), _swept(rows, ks), strict=True
        ):
            ref_geom, ref_tail = _censor_pipeline(z, k)
            assert m == ref_geom.M
            assert u == ref_geom.U_K
            assert log_odds == ref_geom.log_odds
            assert tail == ref_tail

    @pytest.mark.parametrize(
        "z",
        [
            [2.0, np.nan, 1.0, 0.0],      # NaN poisons every logprob
            [1.0, np.inf, 0.0],           # non-finite revealed logit
            [1e308, -1e308, 0.0],         # logprob overflows to -inf at K = 3
        ],
    )
    def test_rejects_non_finite_like_censor(self, z):
        z = np.array(z)
        ks = list(range(1, len(z) + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = _pipeline_error(z, ks)
            with pytest.raises(ValidationError, match="non-finite") as caught:
                _swept(z, ks)
        assert str(caught.value) == expected

    def test_rejects_head_mass_like_censor(self):
        # a policy file cannot hold a negative tolerance; build one directly
        # to make every head fail its mass check
        z = self.ROWS["gaussian"][0]
        ks = list(range(1, len(z) + 1))
        with use_policy(NumericPolicy(head_mass_tol=-0.5)):
            expected = _pipeline_error(z, ks)
            with pytest.raises(ValidationError, match="head mass") as caught:
                _swept(z, ks)
        assert str(caught.value) == expected

    def test_first_failing_row_raises_first(self):
        # row 1 first fails at K = 5 (a -inf logit), row 2 already at K = 2
        # (a log_z far below its own makes each head logprob 0): row by row,
        # row 1's error comes first, as the per-position censor path has it
        rng = np.random.default_rng(11)
        good, cut, shifted = rng.normal(size=(3, 8))
        cut[np.argsort(-cut, kind="stable")[4:]] = -np.inf
        scores, token_ids, log_z, v = score_sorted(np.stack([good, cut, shifted]), 8)
        log_z = log_z.copy()
        log_z[2] = scores[2, -1] - 50.0
        ks = list(range(1, 9))
        with pytest.raises(ValidationError, match="head mass"):
            list(_sweep_block(scores[2:], token_ids[2:], log_z[2:], v, [2]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = _pipeline_error(cut, ks)
            with pytest.raises(ValidationError, match="non-finite") as caught:
                list(_sweep_block(scores, token_ids, log_z, v, ks))
        assert str(caught.value) == expected
        assert "token" in expected

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="K must lie"):
            ksweep([score_sorted(np.zeros((2, 4)), 2)], [0, 2])


# ksweep CSV bytes of the per-(position, K) censor path and the sha256 of
# simulate --format json, whose sup_kl_mean is the exact breakpoint sup, on
# three small teachers; K = V = 12 is exact and K = 20 is skipped
GOLDEN_KS = "1,3,11,12,20"
GOLDEN = {
    "gaussian": (
        ["--law", "gaussian", "--sd", "2", "--seed", "7"],
        "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n\n"
        "1,0.9166666666666666,1.1102230246251565e-16,0.5488808188767798,"
        "0.4322033671049306,3\n"
        "3,0.4560002709015009,0.10027066741912131,0.2020540528128195,"
        "0.16433980610238344,3\n"
        "11,0.0016715072214624129,0.0006213821369327169,0.0006152832611864455,"
        "0.0005321788082251129,3\n"
        "12,0.0,0.0,0.0,9.251858538542969e-17,3\n"
        "20,nan,nan,nan,nan,0\n",
        "08a6794987562fd82e6e787d41c345afd26b6efc2bf9f46357ecffc570d1f1d5",
    ),
    "dirichlet": (
        ["--law", "dirichlet", "--concentration", "0.5", "--seed", "8"],
        "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n\n"
        "1,0.9166666666666666,1.1102230246251565e-16,0.5488808188767798,"
        "0.7018747403444863,3\n"
        "3,0.6830595931335766,0.024318825415149195,0.33735531563881554,"
        "0.3650166032865491,3\n"
        "11,0.005401591536075539,0.0036909429161779664,0.0019921339275189294,"
        "0.0019436053157970156,3\n"
        "12,0.0,0.0,0.0,0.0,3\n"
        "20,nan,nan,nan,nan,0\n",
        "d1f09edaf7ede86f02617040f88777275202080c5c785bcbcaed42eb12de536f",
    ),
    # three tied heads and nine tied tails: K = 1 and K = 11 cut inside a tie
    "peaked": (
        ["--law", "peaked", "--head-size", "3", "--gap", "6", "--seed", "9"],
        "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n\n"
        "1,0.9166666666666666,1.1102230246251565e-16,0.5488808188767798,"
        "0.6666728107657681,3\n"
        "3,0.75,0.0,0.3869415302026467,1.8432297304371357e-05,3\n"
        "11,2.0480330337931367e-06,0.0,7.534297356691337e-07,"
        "2.048033034040986e-06,3\n"
        "12,0.0,0.0,0.0,2.2204460492503128e-16,3\n"
        "20,nan,nan,nan,nan,0\n",
        "92650f7af271366fd2c137a0e52bacbd53b41a267e3fcd576532fddaa57625bc",
    ),
}


@pytest.mark.parametrize("law", sorted(GOLDEN))
def test_golden_report_bytes(law, tmp_path, capsys):
    teacher_args, ksweep_csv, simulate_sha256 = GOLDEN[law]
    dump, report, sweep = (tmp_path / n for n in ("d.jsonl", "s.json", "k.csv"))
    # K = 20 exceeds V = 12: a skipped row, and nothing on stderr
    assert main(
        ["simulate", "--vocab", "12", "--positions", "3", *teacher_args,
         "--k", GOLDEN_KS, "--dump", str(dump), "--format", "json",
         "--output", str(report)]
    ) == 0
    assert main(
        ["ksweep", "--input", str(dump), "--k", GOLDEN_KS, "--output", str(sweep)]
    ) == 0
    assert capsys.readouterr().err == ""
    assert sweep.read_text() == ksweep_csv
    assert hashlib.sha256(report.read_bytes()).hexdigest() == simulate_sha256


class TestSyntheticDiameter:
    def test_hits_requested_diameter(self):
        for u in (0.01, 0.1, 0.5, 0.9, 0.98):
            g = geometry_with_diameter(u, max(8, int(2 * u / (1 - u)) + 4))
            assert g.U_K == pytest.approx(u, rel=1e-12)

    def test_rejects_undersized_tail(self):
        with pytest.raises(ValueError):
            geometry_with_diameter(0.9, 4)


def _compose(geoms):
    """``compose``'s per-position ``(r_bin, sup_kl, t_at_sup)`` and its
    ``(avg_lower, avg_upper, factored_sum)``."""
    per_position = [
        (reserve(g.U_K)[1], *symmetric_sup(g.M, g.log_odds, g.U_K)) for g in geoms
    ]
    r_bins, sups, _ = zip(*per_position)
    return per_position, average_risk(r_bins, sups)


class TestCompose:
    def test_single_position_matches_worst_case(self, v4_geometry):
        g = v4_geometry
        _, (avg_lower, avg_upper, _) = _compose([g])
        sup_kl, _ = symmetric_sup(g.M, g.log_odds, g.U_K)
        assert avg_upper == pytest.approx(sup_kl, rel=1e-12)
        assert avg_lower == pytest.approx(
            reserve(v4_geometry.U_K)[1], rel=1e-12
        )

    def test_three_position_average(self):
        geoms = [geometry_with_diameter(u, 32) for u in (0.1, 0.3, 0.5)]
        _, (avg_lower, avg_upper, _) = _compose(geoms)
        expected = (0.038 + 0.123 + 0.223) / 3
        assert avg_lower == pytest.approx(expected, abs=1e-3)
        assert avg_upper >= avg_lower

    def test_joint_grid_equals_factored_sum(self):
        geoms = [geometry_with_diameter(u, 16) for u in (0.2, 0.45, 0.7)]
        _, (_, _, factored_sum) = _compose(geoms)
        profiles = [
            [risk for risk, _ in _sup_candidates(
                g.M, g.log_odds, g.U_K, g.U_K * _INV_E)]
            for g in geoms
        ]
        joint = float(reduce(np.add.outer, profiles).max()) / len(geoms)
        assert joint == factored_sum

    def test_joint_sup_is_factored_sum_beyond_enumeration(self):
        # 30 positions with two candidates each: 2**30 joint cells
        geoms = [geometry_with_diameter(u, 64) for u in np.linspace(0.05, 0.95, 30)]
        _, (_, avg_upper, factored_sum) = _compose(geoms)
        profiles = [
            _sup_candidates(g.M, g.log_odds, g.U_K, g.U_K * _INV_E)
            for g in geoms
        ]
        assert all(len(p) == 2 for p in profiles)
        # rounding is monotone, so the max joint cell is the fold of the maxima
        maxima = [max(risk for risk, _ in p) for p in profiles]
        folded = reduce(lambda a, b: a + b, maxima, 0.0)
        assert factored_sum == folded / len(geoms)
        assert factored_sum == pytest.approx(avg_upper, rel=1e-14)

    def test_sup_from_breakpoint_profile(self):
        geoms = [geometry_with_diameter(u, 64) for u in (0.05, 0.7, 0.95)]
        per_position, (_, avg_upper, factored_sum) = _compose(geoms)
        for g, (_, sup_kl, t_at_sup) in zip(geoms, per_position):
            profile = _sup_candidates(g.M, g.log_odds, g.U_K, g.U_K * _INV_E)
            assert (sup_kl, t_at_sup) == max(profile)
        assert factored_sum == pytest.approx(avg_upper, rel=1e-15)

    def test_mixed_exact_positions(self):
        exact = geometry(censor(np.array([1.0, 0.0]), 2))
        wide = geometry_with_diameter(0.4, 16)
        per_position, (_, avg_upper, _) = _compose([exact, wide])
        assert per_position[0][1] == 0.0
        assert avg_upper == pytest.approx(per_position[1][1] / 2, rel=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            average_risk([], [])
