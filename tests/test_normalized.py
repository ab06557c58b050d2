"""Normalized access: exact tail mass, diameter conditions, allocation oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from censet import (
    AccessMode,
    GaussianIID,
    ModeError,
    SyntheticTeacherConfig,
    TailCondition,
    allocation_diameter_oracle,
    censor,
    disjoint_witness_pair,
    generate_teacher,
    geometry,
    normalized_geometry,
    summarize,
)
from censet.normalized import allocation_diameter, allocation_membership

from conftest import make_observation


def logprob_observation(probs, vocab_size, tokens=None):
    scores = [math.log(p) for p in probs]
    return make_observation(
        vocab_size, scores, mode=AccessMode.LOGPROBS, tokens=tokens
    )


class TestNormalizedGeometry:
    def test_zero_tail_single_point(self):
        obs = logprob_observation([1.0], 5)
        ng = normalized_geometry(obs)
        assert ng.t_star == 0.0
        assert ng.condition is TailCondition.SINGLE_POINT
        assert ng.diameter == 0.0

    def test_disjoint_supports_regime(self):
        # t* = 0.2, c = 0.1, M = 10: two disjoint 2-token allocations exist
        obs = logprob_observation([0.45, 0.25, 0.1], 13)
        ng = normalized_geometry(obs)
        assert ng.t_star == pytest.approx(0.2, abs=1e-12)
        assert ng.cap == pytest.approx(0.1, rel=1e-12)
        assert ng.M == 10
        assert ng.condition is TailCondition.DISJOINT_SUPPORTS
        assert ng.diameter == pytest.approx(0.2, abs=1e-12)

    def test_single_censored_token(self):
        # M = 1: the lone censored token must carry exactly t*
        obs = logprob_observation([0.55, 0.35], 3)
        ng = normalized_geometry(obs)
        assert ng.M == 1
        assert ng.condition is TailCondition.SINGLE_POINT
        assert ng.diameter == 0.0

    def test_overlapping_supports_exact_diameter(self):
        # t* = 0.2, c = 0.15, M = 2 < 2*ceil(0.2/0.15) = 4
        obs = logprob_observation([0.45, 0.2, 0.15], 5)
        ng = normalized_geometry(obs)
        assert ng.condition is TailCondition.OVERLAPPING_SUPPORTS
        # allocations live in [t*-c, c]^2, so TV tops out at 2c - t* = 0.1
        assert ng.diameter == pytest.approx(0.1, abs=1e-12)
        assert ng.diameter == pytest.approx(
            allocation_diameter_oracle(ng.t_star, ng.cap, ng.M), abs=1e-15
        )

    def test_mode_error(self):
        with pytest.raises(ModeError):
            normalized_geometry(make_observation(4, [0.0]))

    def test_infeasible_observation(self):
        # head mass 0.5 but a single censored token capped at 0.1 < 0.5
        obs = logprob_observation([0.4, 0.1], 3)
        with pytest.raises(ValueError, match="inconsistent"):
            normalized_geometry(obs)

    def test_large_m_overlapping_closed_form(self):
        # M = 20, t* = 0.5, c = 0.03: needs 2*ceil(16.7) = 34 > 20 tokens,
        # and each half of 10 tokens holds 0.3, so D = 0.3 + 0.3 - 0.5
        probs = [0.2, 0.15, 0.12, 0.03]
        obs = logprob_observation(probs, 24)
        ng = normalized_geometry(obs)
        assert ng.condition is TailCondition.OVERLAPPING_SUPPORTS
        assert ng.diameter == pytest.approx(20 * 0.03 - 0.5, abs=1e-9)

    def test_regression_twelve_censored_tokens(self):
        # V = 20, K = 8, t* = 0.325, c = 0.05: reported as the bracket
        # (0.275, 0.325) when M <= 12 still went through the vertex oracle
        probs = [0.2, 0.1, 0.1, 0.075, 0.05, 0.05, 0.05, 0.05]
        obs = logprob_observation(probs, 20)
        ng = normalized_geometry(obs)
        assert (ng.M, ng.condition) == (12, TailCondition.OVERLAPPING_SUPPORTS)
        assert ng.t_star == pytest.approx(0.325, abs=1e-15)
        assert ng.cap == pytest.approx(0.05, abs=1e-15)
        assert ng.diameter == pytest.approx(0.275, abs=1e-15)
        # attained: each allocation fills its own six tokens first
        censored = sorted(set(range(20)) - set(obs.token_ids))
        rest = ng.t_star - 6 * ng.cap
        a = {u: ng.cap for u in censored[:6]} | {censored[6]: rest}
        b = {u: ng.cap for u in censored[6:]} | {censored[0]: rest}
        assert allocation_membership(obs, ng, a).ok
        assert allocation_membership(obs, ng, b).ok
        tv = 0.5 * sum(abs(a.get(u, 0.0) - b.get(u, 0.0)) for u in censored)
        assert tv == pytest.approx(ng.diameter, abs=1e-15)


class TestClosedFormDiameter:
    @given(
        m=st.integers(1, 10),
        cap=st.floats(0.01, 0.5),
        frac=st.floats(0.0, 1.0),
        whole=st.booleans(),
    )
    @example(m=1, cap=0.3, frac=1.0, whole=True)
    @example(m=7, cap=0.1, frac=0.0, whole=False)
    @example(m=7, cap=0.07, frac=0.9, whole=False)
    @settings(max_examples=200, deadline=None)
    def test_matches_vertex_oracle(self, m, cap, frac, whole):
        q = float(round(frac * m)) if whole else frac * m
        t_star = q * cap
        d = allocation_diameter(t_star, cap, m)
        assert abs(d - allocation_diameter_oracle(t_star, cap, m)) <= 1e-12
        if m >= 2 * math.ceil(q):
            assert d == t_star
        if m <= 1 or t_star == 0.0:
            assert d == 0.0


class TestAllocationOracle:
    def test_disjoint_self_check(self):
        assert allocation_diameter_oracle(0.2, 0.1, 10) == pytest.approx(
            0.2, abs=1e-3
        )

    def test_capped_regime_value(self):
        # vertices are (0.15, 0.05) and (0.05, 0.15): TV = 0.1 < t* = 0.2
        d = allocation_diameter_oracle(0.2, 0.15, 2)
        assert d == pytest.approx(0.1, abs=1e-9)
        assert d < 0.2

    def test_single_token(self):
        assert allocation_diameter_oracle(0.15, 0.2, 1) == 0.0

    def test_interior_samples_never_beat_vertices(self):
        base = allocation_diameter_oracle(0.3, 0.11, 6)
        with_interior = allocation_diameter_oracle(0.3, 0.11, 6, grid=500, seed=1)
        assert with_interior == pytest.approx(base, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            allocation_diameter_oracle(0.5, 0.1, 3)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            allocation_diameter_oracle(0.2, 0.1, 13)

    def test_matches_condition_boundary(self):
        # scan M at fixed t*, c: oracle hits t* exactly once supports disjoin
        t_star, c = 0.2, 0.06
        needed = 2 * math.ceil(t_star / c)
        for m in range(4, 11):
            d = allocation_diameter_oracle(t_star, c, m)
            if m >= needed:
                assert d == pytest.approx(t_star, abs=1e-9)
            else:
                assert d < t_star - 1e-9


class TestWitnesses:
    def test_disjoint_pair_attains_tail_mass_exactly(self):
        obs = logprob_observation([0.45, 0.25, 0.1], 13)
        ng = normalized_geometry(obs)
        a, b = disjoint_witness_pair(obs, ng)
        assert set(a) & set(b) == set()
        assert sum(a.values()) == pytest.approx(ng.t_star, abs=1e-15)
        direct_tv = 0.5 * (
            sum(abs(v) for v in a.values()) + sum(abs(v) for v in b.values())
        )
        assert abs(direct_tv - ng.t_star) <= 1e-12
        assert allocation_membership(obs, ng, a).ok
        assert allocation_membership(obs, ng, b).ok

    def test_witnesses_respect_cap(self):
        obs = logprob_observation([0.3, 0.28, 0.07], 20)
        ng = normalized_geometry(obs)
        a, b = disjoint_witness_pair(obs, ng)
        for alloc in (a, b):
            assert all(w <= ng.cap + 1e-12 for w in alloc.values())

    def test_no_witnesses_outside_regime(self):
        obs = logprob_observation([0.55, 0.35], 3)
        ng = normalized_geometry(obs)
        with pytest.raises(ValueError, match="condition"):
            disjoint_witness_pair(obs, ng)

    def test_membership_flags_cap_violation(self):
        obs = logprob_observation([0.45, 0.25, 0.1], 13)
        ng = normalized_geometry(obs)
        censored = sorted(set(range(13)) - set(obs.token_ids))
        bad = {censored[0]: ng.t_star}  # one token over the cap
        report = allocation_membership(obs, ng, bad)
        assert not report.ok
        assert any("cap" in v for v in report.violations)


class TestConservatism:
    def test_tail_mass_below_unnormalized_diameter(self):
        # reinterpreting the same normalized scores as raw logits can only
        # widen the ambiguity
        rng = np.random.default_rng(29)
        for i in range(200):
            v = int(rng.integers(3, 40))
            k = int(rng.integers(1, v))
            config = SyntheticTeacherConfig(
                vocab_size=v, law=GaussianIID(0.0, 2.0), seed=i
            )
            z = generate_teacher(config, 1)[0]
            obs = censor(z, k, mode=AccessMode.LOGPROBS)
            ng = normalized_geometry(obs)
            u_k = geometry(summarize(obs)).U_K
            assert ng.t_star <= u_k + 1e-9

    def test_nonbinding_cap_regime(self):
        # c*M >= 10 t* and M >= 4: comfortably disjoint, diameter = t*
        obs = logprob_observation([0.5, 0.3, 0.1], 20)
        ng = normalized_geometry(obs)
        assert ng.M >= 4 and ng.cap * ng.M >= 10 * ng.t_star
        assert ng.condition is TailCondition.DISJOINT_SUPPORTS
        assert ng.diameter == pytest.approx(ng.t_star, abs=1e-15)
