"""Normalized access: exact tail mass, diameter conditions, allocation oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from censet.identified_set import geometry
from censet.normalized import (
    TailCondition,
    allocation_diameter,
    normalized_geometry,
)
from censet.observation import AccessMode, ModeError, summarize
from censet.oracles import (
    _extreme_allocations,
    allocation_diameter_oracle,
    disjoint_witness_pair,
    membership,
    point,
    tv,
)
from censet.simulate import (
    GaussianIID,
    SyntheticTeacherConfig,
    censor,
    generate_teacher,
)

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
        g = geometry(summarize(obs))
        rest = ng.t_star - 6 * ng.cap
        tail_a, tail_b = np.zeros(12), np.full(12, ng.cap)
        tail_a[:6], tail_a[6] = ng.cap, rest
        tail_b[:6], tail_b[0] = 0.0, rest
        a, b = point(g, ng.t_star, tail_a), point(g, ng.t_star, tail_b)
        assert membership(g, a) == [] and membership(g, b) == []
        assert tv(a, b) == pytest.approx(ng.diameter, abs=1e-15)


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
        # TV is convex in the pair, so joining interior allocations (here
        # random ones, clipped to the cap and rescaled) to the vertices adds
        # no pair, interior-interior or vertex-interior, that beats them
        t_star, cap, m = 0.3, 0.11, 6
        base = allocation_diameter_oracle(t_star, cap, m)
        raw = np.random.default_rng(1).uniform(0.1, 1.0, size=(500, m))
        x = t_star * raw / raw.sum(axis=1, keepdims=True)
        for _ in range(50):
            x = np.minimum(x, cap)
            room = cap - x
            x = x + room * ((t_star - x.sum(axis=1)) / room.sum(axis=1))[:, None]
        assert np.all(x <= cap + 1e-15)
        assert np.allclose(x.sum(axis=1), t_star, rtol=0.0, atol=1e-15)
        pts = np.concatenate([_extreme_allocations(t_star, cap, m), x])
        pairwise = 0.5 * np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        assert pairwise.max() == pytest.approx(base, abs=1e-12)

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
        g = geometry(summarize(obs))
        a, b = disjoint_witness_pair(g, ng)
        tail_a, tail_b = a[g.censored_ids], b[g.censored_ids]
        assert not np.any((tail_a > 0.0) & (tail_b > 0.0))
        assert tail_a.sum() == pytest.approx(ng.t_star, abs=1e-15)
        assert abs(tv(a, b) - ng.t_star) <= 1e-12
        assert membership(g, a) == [] and membership(g, b) == []

    def test_witnesses_respect_cap(self):
        obs = logprob_observation([0.3, 0.28, 0.07], 20)
        ng = normalized_geometry(obs)
        g = geometry(summarize(obs))
        for p in disjoint_witness_pair(g, ng):
            assert p[g.censored_ids].max() <= ng.cap + 1e-12

    def test_no_witnesses_outside_regime(self):
        obs = logprob_observation([0.55, 0.35], 3)
        ng = normalized_geometry(obs)
        with pytest.raises(ValueError, match="condition"):
            disjoint_witness_pair(geometry(summarize(obs)), ng)

    def test_membership_flags_cap_violation(self):
        obs = logprob_observation([0.45, 0.25, 0.1], 13)
        ng = normalized_geometry(obs)
        g = geometry(summarize(obs))
        tail = np.zeros(g.M)
        tail[0] = ng.t_star  # one token over the cap
        violations = membership(g, point(g, ng.t_star, tail))
        assert any("cap" in v for v in violations)


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
