"""Identified-set geometry: diameter, caps, membership, divergences, oracle."""

import math

import numpy as np
import pytest
import sympy

from censet.identified_set import geometry, per_token_cap
from censet.observation import summarize
from censet.oracles import (
    brute_diameter_oracle,
    kl,
    membership,
    point,
    sample_feasible_points,
    tv,
)

from conftest import make_geometry, make_observation


E = math.e


class TestGeometry:
    def test_full_access_means_zero_diameter(self):
        g = make_geometry(3, [1.0, 0.5, -0.2])
        assert g.M == 0
        assert g.U_K == 0.0

    def test_symmetric_two_token_case(self):
        g = make_geometry(2, [0.0])
        assert math.isclose(g.U_K, 0.5, abs_tol=1e-15)

    def test_v4_worked_example(self, v4_geometry):
        expected = 2.0 / (E + 1.0 + 2.0)
        assert math.isclose(v4_geometry.U_K, expected, rel_tol=1e-14)
        # cross-checked against the brute-force oracle
        oracle = brute_diameter_oracle(v4_geometry, 50, max_points=4096)
        assert abs(oracle - v4_geometry.U_K) <= 1e-3

    def test_one_minus_uk_keeps_precision(self):
        # a diameter this close to 1 loses digits under naive subtraction
        g = make_geometry(10_000, [0.0], tokens=[0])
        assert g.U_K > 0.999
        direct = 1.0 / (1.0 + g.M * math.exp(g.tau - g.log_ZA))
        assert math.isclose(g.one_minus_UK, direct, rel_tol=1e-12)


    @pytest.mark.parametrize(
        "vocab_size, tokens",
        [(9, [7, 2, 4]), (6, [5, 0, 3, 1, 2]), (4, [3, 1, 0, 2])],
    )
    def test_censored_ids_match_setdiff(self, vocab_size, tokens):
        # unsorted revealed ids, K = V-1 and K = V (no censored tokens)
        scores = np.linspace(1.0, 0.0, len(tokens))
        g = make_geometry(vocab_size, scores, tokens=tokens)
        expected = np.setdiff1d(np.arange(vocab_size), tokens)
        assert g.censored_ids.dtype == expected.dtype
        np.testing.assert_array_equal(g.censored_ids, expected)


class TestPerTokenCap:
    def test_cap_at_max_tail_mass_is_uniform_weight(self, v4_geometry):
        g = v4_geometry
        assert math.isclose(
            per_token_cap(g, g.U_K), g.U_K / g.M, rel_tol=1e-12
        )

    def test_cap_at_zero_symbolic_and_numeric(self, v4_geometry):
        # symbolic: (1-0) * U / (M (1-U)) with U = M b / (Z + M b) equals b / Z
        z, b, m = sympy.symbols("z b m", positive=True)
        u = m * b / (z + m * b)
        assert sympy.simplify(u / (m * (1 - u)) - b / z) == 0
        assert math.isclose(
            per_token_cap(v4_geometry, 0.0), 1.0 / (E + 1.0), rel_tol=1e-14
        )

    def test_cap_mid_tail_against_weight_construction(self, v4_geometry):
        # independent route: tail weights y with sum Y = Z t/(1-t) put at most
        # exp(tau) on one token, giving probability exp(tau) / (Z + Y)
        g = v4_geometry
        t = 0.2
        z_a = math.exp(g.log_ZA)
        y_total = z_a * t / (1.0 - t)
        expected = math.exp(g.tau) / (z_a + y_total)
        assert math.isclose(per_token_cap(g, t), expected, rel_tol=1e-12)

    def test_domain_errors(self, v4_geometry):
        with pytest.raises(ValueError):
            per_token_cap(v4_geometry, -0.01)
        with pytest.raises(ValueError):
            per_token_cap(v4_geometry, v4_geometry.U_K + 0.01)
        g0 = make_geometry(2, [0.3, -0.1])
        with pytest.raises(ValueError):
            per_token_cap(g0, 0.0)


class TestExtremalPair:
    def test_symmetric_case(self):
        g = make_geometry(2, [0.0])
        p0, p1 = point(g, 0.0), point(g, g.U_K)
        assert p0[g.censored_ids].sum() == 0.0
        assert math.isclose(p1[g.censored_ids].sum(), 0.5, abs_tol=1e-15)
        assert tv(p0, p1) == pytest.approx(0.5, abs=1e-15)

    def test_tv_attains_diameter_by_direct_l1(self, v4_geometry):
        d0 = point(v4_geometry, 0.0)
        d1 = point(v4_geometry, v4_geometry.U_K)
        direct = 0.5 * float(np.abs(d0 - d1).sum())
        assert abs(direct - v4_geometry.U_K) <= 1e-12

    def test_both_points_are_members(self, v4_geometry):
        for t in (0.0, v4_geometry.U_K):
            assert membership(v4_geometry, point(v4_geometry, t)) == []

    def test_single_point_when_m_zero(self):
        g = make_geometry(2, [0.1, 0.0])
        p = point(g, g.U_K)
        np.testing.assert_array_equal(p, point(g, 0.0))
        assert membership(g, p) == []


class TestMembership:
    def test_zero_tail_is_member(self, v4_geometry):
        assert membership(v4_geometry, point(v4_geometry, 0.0)) == []

    def test_boundary_uniform_tail(self, v4_geometry):
        g = v4_geometry
        assert membership(g, point(g, g.U_K)) == []
        violations = membership(g, point(g, g.U_K + 0.01))
        assert any("exceeds U_K" in v for v in violations)

    def test_single_token_fixed_point_by_bisection(self, v4_geometry):
        # oracle: solve t = cap(t) by bisection; a lone censored token at that
        # mass sits exactly on the constraint boundary
        g = v4_geometry
        lo, hi = 0.0, g.U_K
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if per_token_cap(g, mid) > mid:
                lo = mid
            else:
                hi = mid
        t_fp = 0.5 * (lo + hi)
        assert membership(g, point(g, t_fp, [t_fp, 0.0])) == []
        too_big = t_fp + 1e-6
        violations = membership(g, point(g, too_big, [too_big, 0.0]))
        assert any("exceeds per-token cap" in v for v in violations)

    def test_tail_sum_mismatch_reported(self, v4_geometry):
        # head pinned for t = 0.2, but the tail carries only 0.05
        violations = membership(v4_geometry, point(v4_geometry, 0.2, [0.05, 0.0]))
        assert any("sums to" in v for v in violations)
        assert any("head departs" in v for v in violations)

    def test_negative_tail_entry_reported(self, v4_geometry):
        violations = membership(v4_geometry, point(v4_geometry, 0.1, [0.2, -0.1]))
        assert any("negative tail mass" in v for v in violations)


class TestDivergences:
    def test_self_distance_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert tv(p, p) == 0.0
        assert kl(p, p) == 0.0

    def test_closed_form_pair(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert tv(p, q) == pytest.approx(0.5, abs=1e-15)
        assert kl(p, q) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_kl_infinite_when_support_escapes(self):
        assert kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_disjoint_tails_give_max_of_masses(self, v4_geometry):
        # two members with tails on different censored tokens
        g = v4_geometry
        for t, s in [(0.1, 0.3), (0.05, 0.34), (0.2, 0.2)]:
            p = point(g, t, [t, 0.0])
            q = point(g, s, [0.0, s])
            assert tv(p, q) == pytest.approx(max(t, s), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            tv(np.array([0.5, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError, match="length"):
            kl(np.array([0.5, 0.5]), np.array([1.0]))


class TestBruteDiameterOracle:
    def test_worked_example_resolution_50(self, v4_geometry):
        d = brute_diameter_oracle(v4_geometry, 50, max_points=4096)
        assert v4_geometry.U_K - 1e-3 <= d <= v4_geometry.U_K + 1e-12

    def test_m_zero(self):
        assert brute_diameter_oracle(make_geometry(2, [0.1, 0.0]), 20) == 0.0

    def test_symmetric_closed_form(self):
        d = brute_diameter_oracle(make_geometry(2, [0.0]), 200)
        assert d == pytest.approx(0.5, abs=1e-6)

    def test_refuses_large_vocab(self):
        g = make_geometry(40, [0.0])
        with pytest.raises(ValueError, match="too large"):
            brute_diameter_oracle(g, 20)

    def test_subsampled_regime_still_hits_extremes(self):
        g = make_geometry(9, [1.0, 0.0])  # M = 7: full grid would blow up
        d = brute_diameter_oracle(g, 20, max_points=1500, seed=3)
        assert g.U_K - 1e-9 <= d <= g.U_K + 1e-12


class TestInvariants:
    def test_monotone_in_k(self):
        # revealing the next-largest logit never widens the identified set
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = int(rng.integers(2, 12))
            z = rng.normal(0.0, rng.uniform(0.2, 3.0), size=v)
            order = np.argsort(-z, kind="stable")
            previous = None
            for k in range(1, v + 1):
                obs = make_observation(
                    v, z[order[:k]], tokens=[int(t) for t in order[:k]]
                )
                u = geometry(summarize(obs)).U_K
                if previous is not None:
                    assert u <= previous + 1e-12
                previous = u

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.normal(0.0, 2.0, size=4)
            scores.sort()
            scores = scores[::-1]
            shift = float(rng.uniform(-50, 50))
            g1 = make_geometry(7, scores)
            g2 = make_geometry(7, scores + shift)
            assert abs(g1.U_K - g2.U_K) <= 1e-12

    def test_diameter_attained_for_random_geometries(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = int(rng.integers(2, 10))
            k = int(rng.integers(1, v))
            scores = np.sort(rng.normal(0.0, 2.0, size=k))[::-1]
            g = make_geometry(v, scores)
            d = tv(point(g, 0.0), point(g, g.U_K))
            assert abs(d - g.U_K) <= 1e-12

    def test_sampled_pairs_never_exceed_diameter(self, v4_geometry):
        g = v4_geometry
        tails = sample_feasible_points(g, 200, seed=23)  # ~2e4 ordered pairs
        totals = tails.sum(axis=1)
        for i in range(len(tails)):
            dt = np.abs(totals[i] - totals)
            dp = np.abs(tails[i] - tails).sum(axis=1)
            assert float((0.5 * (dt + dp)).max()) <= g.U_K + 1e-9

    def test_uniform_tail_always_feasible(self, v4_geometry):
        g = v4_geometry
        for t in np.linspace(0.0, g.U_K, 50):
            assert t / g.M <= per_token_cap(g, float(t)) + 1e-12

    def test_uniform_point_spreads_tail_evenly(self, v4_geometry):
        g = v4_geometry
        p = point(g, g.U_K)
        np.testing.assert_allclose(p[g.censored_ids], np.full(g.M, g.U_K / g.M))
