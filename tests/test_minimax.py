"""Recovery bounds: reserve, envelope, best responses, worst-case risk."""

import json
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import xlogy

from censet.cli import main
from censet.identified_set import SetGeometry, diameter
from censet.minimax import (
    _INV_E,
    SECOND_ORDER_COEFF,
    certificate,
    g_max,
    reserve,
    symmetric_sup,
    verdicts,
)
from censet.oracles import (
    adversary_best_response,
    balancing_oracle,
    breakpoint_scan_oracle,
    endpoint_risk,
    estimator_distribution,
    g_envelope,
    geometry_with_diameter,
    kl,
    membership,
    point,
    risk_at_tail_mass,
)

from conftest import make_geometry, make_observation

E = math.e


def _sup(g, s=None):
    """:func:`symmetric_sup` of a geometry."""
    return symmetric_sup(g.M, g.log_odds, g.U_K, s)


def _default_reserve(g):
    return g.U_K * _INV_E

# second-order gap table: u -> (r_bin, u/e, r_bin - u/e, g_max)
GAP_TABLE = {
    0.10: (0.038, 0.037, 0.001, 0.040),
    0.30: (0.123, 0.110, 0.012, 0.142),
    0.50: (0.223, 0.184, 0.039, 0.294),
    0.70: (0.349, 0.258, 0.092, 0.559),
    0.81: (0.437, 0.298, 0.139, 0.825),
    0.91: (0.541, 0.335, 0.206, 1.309),
    0.98: (0.644, 0.361, 0.284, 2.416),
}


class TestBinaryReserve:
    def test_half_is_exact(self):
        s_star, r_bin = reserve(0.5)
        # A = 0.5 * 0.5 = 1/4, so the reserve is exactly 1/5
        assert s_star == pytest.approx(0.2, abs=1e-15)
        assert r_bin == pytest.approx(-math.log(0.8), rel=1e-14)

    @pytest.mark.parametrize("u,expected", [(u, row[0]) for u, row in GAP_TABLE.items()])
    def test_tabulated_lower_bounds(self, u, expected):
        assert reserve(u)[1] == pytest.approx(expected, abs=1e-3)

    def test_quarter_near_tenth_of_a_nat(self):
        assert reserve(0.25)[1] == pytest.approx(0.100, abs=1e-3)

    def test_r_bin_consistent_with_reserve(self):
        for u in np.geomspace(1e-6, 0.9999, 40):
            s_star, r_bin = reserve(float(u))
            assert abs(r_bin - (-math.log1p(-s_star))) <= 1e-12

    def test_limits_are_exact(self):
        assert reserve(0.0) == (0.0, 0.0)
        s_star, r_bin = reserve(1.0)
        assert s_star == 0.5
        assert r_bin == pytest.approx(math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("kernel", [reserve, certificate], ids=["reserve", "certificate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, 1.5, -math.inf, math.inf, math.nan])
    def test_domain_error(self, kernel, bad):
        with pytest.raises(ValueError, match=r"diameter must lie in \[0, 1\], got"):
            kernel(bad)

    def test_extreme_u_stays_finite(self):
        s_star, r_bin = reserve(1e-300)
        assert 0.0 < s_star < 1e-299
        assert 0.0 < r_bin < 1e-299


class TestBalancingOracle:
    def test_matches_closed_form_at_half(self):
        s_hat, r_hat = balancing_oracle(0.5)
        assert s_hat == pytest.approx(0.2, abs=1e-6)
        assert r_hat == pytest.approx(0.2231435513, abs=1e-6)

    @pytest.mark.parametrize("u,expected", [(0.91, 0.541), (0.98, 0.644)])
    def test_tabulated_rows(self, u, expected):
        assert balancing_oracle(u)[1] == pytest.approx(expected, abs=5e-4)

    def test_agreement_over_log_grid(self):
        for u in np.geomspace(1e-4, 0.999, 50):
            s_star, r_bin = reserve(float(u))
            s_hat, r_hat = balancing_oracle(float(u))
            assert abs(s_hat - s_star) <= 1e-6
            assert abs(r_hat - r_bin) <= 1e-6

    def test_equalization_at_reserve(self):
        # at s* the two endpoint divergences balance by construction
        for u in (0.05, 0.3, 0.5, 0.9, 0.99):
            s = reserve(u)[0]
            kl_zero = -math.log1p(-s)
            kl_full = (1 - u) * (math.log1p(-u) - math.log1p(-s)) + u * (
                math.log(u) - math.log(s)
            )
            assert abs(kl_zero - kl_full) <= 1e-10

    def test_equalization_on_dense_distributions(self, v4_geometry):
        # same balance measured through the generic divergence on full vectors
        g = v4_geometry
        q = estimator_distribution(g, reserve(g.U_K)[0])
        kl_zero = kl(point(g, 0.0), q)
        kl_full = kl(point(g, g.U_K), q)
        assert abs(kl_zero - kl_full) <= 1e-10


class TestEnvelope:
    def test_value_at_zero_tail(self):
        for u, s in [(0.3, 0.1), (0.9, 0.33)]:
            assert g_envelope(u, 0.0, s) == pytest.approx(-math.log1p(-s), rel=1e-14)

    def test_identity_symbolic(self):
        u, t, s = sympy.symbols("u t s", positive=True)
        defining = (1 - t) * sympy.log((1 - t) / (1 - s)) + t * sympy.log(
            u * (1 - t) / ((1 - u) * s)
        )
        simplified = (
            sympy.log(1 - t)
            - (1 - t) * sympy.log(1 - s)
            + t * sympy.log(u / ((1 - u) * s))
        )
        assert sympy.simplify(sympy.expand_log(defining - simplified, force=True)) == 0

    def test_identity_numeric_grid(self):
        for u in (0.02, 0.3, 0.5, 0.81, 0.98):
            s = u / E
            for t in np.linspace(0.0, u, 23):
                defining = (1 - t) * (math.log1p(-t) - math.log1p(-s))
                if t > 0:
                    defining += t * math.log(u * (1 - t) / ((1 - u) * s))
                assert abs(g_envelope(u, float(t), s) - defining) <= 1e-12

    def test_interior_stationary_point_at_half(self):
        s = 0.5 / E
        value_at_stationary = g_envelope(0.5, 0.3288, s)
        assert value_at_stationary == pytest.approx(0.2944, abs=5e-4)
        # endpoint value is smaller: the maximum is interior
        assert g_envelope(0.5, 0.5, s) == pytest.approx(0.255, abs=1e-3)
        assert value_at_stationary > g_envelope(0.5, 0.5, s)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            g_envelope(0.5, 0.6, 0.1)
        with pytest.raises(ValueError):
            g_envelope(1.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            g_envelope(0.5, 0.1, 0.0)


class TestGMax:
    @pytest.mark.parametrize("u,expected", [(u, row[3]) for u, row in GAP_TABLE.items()])
    def test_tabulated_envelope_maxima(self, u, expected):
        value, t_dagger = g_max(u)
        assert value == pytest.approx(expected, abs=1e-3)
        assert 0.0 <= t_dagger <= u

    def test_against_generic_optimizer(self):
        for u in (0.05, 0.37, 0.66, 0.93):
            s = u / E
            res = minimize_scalar(
                lambda t: -g_envelope(u, t, s), bounds=(0.0, u), method="bounded",
                options={"xatol": 1e-12},
            )
            value, t_dagger = g_max(u)
            assert value == pytest.approx(-res.fun, abs=1e-9)
            assert t_dagger == pytest.approx(res.x, abs=1e-6)


class TestSymmetricEstimator:
    def test_default_reserve(self, v4_geometry):
        geoms = [v4_geometry, make_geometry(12, [0.0, -3.0, -9.0])]
        geoms += [geometry_with_diameter(u, 1000) for u in (1e-9, 0.05, 0.7, 0.995)]
        for g in geoms:
            assert g.U_K > 0.0
            assert _sup(g) == _sup(g, g.U_K * _INV_E)

    def test_exact_identification_when_m_zero(self):
        g = make_geometry(2, [0.4, 0.0])
        np.testing.assert_allclose(
            estimator_distribution(g, 0.0), point(g, 0.0)
        )
        assert _sup(g) == (0.0, 0.0)
        with pytest.raises(ValueError, match="M = 0"):
            _sup(g, 0.5)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.25, math.nan])
    def test_reserve_outside_the_open_interval(self, s):
        # M > 0 and U_K > 0: a reserve of 0 or 1 puts infinite risk somewhere
        with pytest.raises(ValueError) as caught:
            symmetric_sup(8, 0.0, 0.5, s)
        assert str(caught.value) == f"reserve must lie in (0, 1), got {s!r}"

    def test_induced_distribution_normalized(self, v4_geometry):
        q = estimator_distribution(v4_geometry, _default_reserve(v4_geometry))
        assert abs(float(q.sum()) - 1.0) <= 1e-12

    def test_zero_tail_kl_is_log_reserve_complement(self, v4_geometry):
        g = v4_geometry
        s = _default_reserve(g)
        p0 = point(g, 0.0)
        q = estimator_distribution(g, s)
        assert kl(p0, q) == pytest.approx(-math.log1p(-s), rel=1e-12)


class TestAdversaryBestResponse:
    def test_single_token_when_cap_slack(self, v4_geometry):
        # lam(0.1) ~ 4.8 >= M = 2: all tail mass on one censored token
        g = v4_geometry
        s = _default_reserve(g)
        p, value = adversary_best_response(g, s, 0.1)
        tail = p[g.censored_ids]
        assert np.count_nonzero(tail) == 1
        assert tail.max() == pytest.approx(0.1, rel=1e-12)
        t = 0.1
        d = t * math.log(t / s) + (1 - t) * (math.log1p(-t) - math.log1p(-s))
        assert value == pytest.approx(d + t * math.log(g.M), rel=1e-12)

    def test_sweep_dominates_binary_lower_bound(self, v4_geometry):
        g = v4_geometry
        s = _default_reserve(g)
        grid = np.linspace(1e-6, g.U_K, 400)
        best = max(risk_at_tail_mass(g, s, float(t)) for t in grid)
        assert best >= reserve(g.U_K)[1] - 1e-12

    def test_vanishing_tail_mass_limit(self, v4_geometry):
        s = _default_reserve(v4_geometry)
        value = risk_at_tail_mass(v4_geometry, s, 1e-8)
        assert value == pytest.approx(-math.log1p(-s), abs=1e-6)

    def test_best_response_is_a_member(self, v4_geometry):
        g = v4_geometry
        for t in (1e-4, 0.05, 0.2, g.U_K):
            p, _ = adversary_best_response(g, _default_reserve(g), t)
            assert membership(g, p) == []

    def test_response_at_max_tail_is_uniform(self, v4_geometry):
        g = v4_geometry
        p, _ = adversary_best_response(g, _default_reserve(g), g.U_K)
        np.testing.assert_array_equal(p, point(g, g.U_K))

    def test_closed_form_dominates_random_members(self):
        # 1e4+ random capped tail conditionals at fixed t never beat the
        # concentrated extreme point
        g = make_geometry(8, [1.0, 0.0])
        s = _default_reserve(g)
        rng = np.random.default_rng(3)
        for t in (0.05, 0.2, float(g.U_K) * 0.99):
            cap = g.U_K / (1 - g.U_K) * (1 - t) / g.M
            closed = risk_at_tail_mass(g, s, t)
            raw = rng.uniform(0.0, 1.0, size=(3500, g.M))
            x = t * raw / raw.sum(axis=1, keepdims=True)
            for _ in range(60):
                x = np.minimum(x, cap)
                deficit = t - x.sum(axis=1)
                room = np.maximum(cap - x, 0.0)
                total_room = room.sum(axis=1)
                scale = np.where(total_room > 0, deficit / np.maximum(total_room, 1e-300), 0.0)
                x = x + room * scale[:, None]
            head = np.outer(np.full(len(x), 1.0 - t), g.alpha)
            q = estimator_distribution(g, s)
            q_head = q[list(g.token_ids)]
            q_tail = q[g.censored_ids]
            head_term = (head * (np.log(head) - np.log(q_head))).sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.where(x > 0, np.log(np.maximum(x, 1e-300)) - np.log(q_tail), 0.0)
            tail_term = (x * logs).sum(axis=1)
            assert float((head_term + tail_term).max()) <= closed + 1e-10

    def test_domain_error_beyond_diameter(self, v4_geometry):
        s = _default_reserve(v4_geometry)
        with pytest.raises(ValueError):
            adversary_best_response(v4_geometry, s, v4_geometry.U_K + 0.05)


class TestWorstCaseRisk:
    def test_small_diameter_first_order_band(self):
        g = geometry_with_diameter(0.05, 16)
        sup_kl, _ = _sup(g)
        r = reserve(g.U_K)[1]
        assert r - 1e-12 <= sup_kl <= r + 0.02 * g.U_K

    def test_large_diameter_bracket(self):
        g = geometry_with_diameter(0.91, 64)
        sup_kl, t_at = _sup(g)
        assert sup_kl <= g_max(g.U_K)[0] + 1e-6
        assert sup_kl >= reserve(g.U_K)[1]
        assert 0.0 < t_at < g.U_K

    def test_sup_at_least_any_grid_value(self, v4_geometry):
        s = _default_reserve(v4_geometry)
        sup_kl, _ = _sup(v4_geometry)
        for t in np.linspace(0.0, v4_geometry.U_K, 37):
            assert sup_kl + 1e-12 >= risk_at_tail_mass(v4_geometry, s, float(t))

    def test_regression_high_diameter(self):
        # the former grid + golden search read 3.5294813 here
        g = geometry_with_diameter(0.995, 1000)
        sup_kl, _ = _sup(g)
        assert abs(sup_kl - 3.5330845177311616) <= 1e-12

    @given(
        m=st.integers(1, 2000),
        frac=st.floats(0.0, 1.0),
        rule=st.sampled_from(["u/e", "s*", "free"]),
        free_s=st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_breakpoint_scan(self, m, frac, rule, free_s):
        lo = -40.0 + frac * (math.log(m) + 40.0)
        g = _geometry_with_log_odds(m, lo)
        s = {"u/e": g.U_K / E, "s*": reserve(g.U_K)[0], "free": free_s}[rule]
        sup_kl, t_at = _sup(g, s)
        assert sup_kl >= breakpoint_scan_oracle(g.M, g.log_odds, s) - 1e-10
        if rule == "u/e":
            assert sup_kl <= g_max(g.U_K)[0] + 1e-12
        # the argmax is a cap breakpoint t_n = n c / (1 + n c)
        n = t_at / (math.exp(g.log_odds) / m * (1.0 - t_at))
        assert 0 <= round(n) <= m
        assert abs(n - round(n)) <= 1e-9 * max(1.0, n)

    def test_underflowed_diameter_is_exact(self):
        # U_K underflows to 0 with M > 0: only t = 0 is compatible
        g = make_geometry(10, [0.0, -800.0])
        assert g.U_K == 0.0 and g.M == 8
        assert _sup(g) == (0.0, 0.0)
        assert _sup(g, 0.5) == (-math.log(0.5), 0.0)
        # a reserve outside [0, 1) would read as a negative or undefined risk
        for bad in (-0.5, 1.0, math.nan):
            with pytest.raises(ValueError, match="reserve must lie"):
                _sup(g, bad)

    def test_just_below_a_breakpoint(self):
        # at ratio t / cap = n - delta only n - 1 tokens fit under the cap; a
        # snap of the ratio up to n overshot this numpy evaluation by ~1e-10
        g = geometry_with_diameter(0.7, 64)
        m, s = g.M, _default_reserve(g)
        c = math.exp(g.log_odds) / m
        for n in range(1, m):
            for delta in (1e-10, 3e-10, 9e-10):
                t = (n - delta) * c / (1 + (n - delta) * c)
                cap = c * (1 - t)
                full = np.floor(t / cap)
                assert full == n - 1
                rest = t - full * cap
                direct = (
                    t * (math.log(m) - math.log(s)) - (1 - t) * math.log1p(-s)
                    + xlogy(1 - t, 1 - t) + full * xlogy(cap, cap) + xlogy(rest, rest)
                )
                assert abs(risk_at_tail_mass(g, s, t) - direct) <= 1e-13


def _geometry_with_log_odds(m: int, lo: float) -> SetGeometry:
    """A geometry with M = m and log-odds ``lo``; only (M, log_odds) matter.

    No observation with M = m reaches every such ``lo`` (K = 1 pins the
    log-odds at log M, K >= 2 caps them at log(M/K)), so the diameter is set
    directly on a placeholder observation.
    """
    placeholder = make_observation(m + 1, [0.0])
    u, log_odds = diameter(m, lo - math.log(m), 0.0)
    return SetGeometry(**vars(placeholder), M=m, U_K=u, log_odds=log_odds)


class TestExpansions:
    def test_reserve_first_order(self):
        for u in np.linspace(0.01, 0.5, 50):
            assert abs(reserve(float(u))[0] - u / E) <= u * u

    def test_second_order_coefficient_fit(self):
        us = np.geomspace(1e-3, 0.2, 50)
        diffs = np.array([reserve(float(u))[1] - u / E for u in us])
        c_hat = float(np.mean(diffs / us**2))
        assert abs(c_hat - SECOND_ORDER_COEFF) <= 0.1 * SECOND_ORDER_COEFF

    def test_cubic_remainder_bound(self):
        for u in np.linspace(0.005, 0.3, 60):
            resid = abs(reserve(float(u))[1] - u / E - SECOND_ORDER_COEFF * u * u)
            assert resid <= u**3


class TestCertificate:
    def test_fields_cohere(self):
        cert = certificate(0.5)
        assert cert.s_star == pytest.approx(0.2, abs=1e-15)
        assert cert.r_bin <= cert.g_max + 1e-9
        assert cert.first_order == pytest.approx(0.5 / E, rel=1e-15)
        assert SECOND_ORDER_COEFF == pytest.approx(
            1 / (2 * E) - 1 / (2 * E * E), rel=1e-15
        )

    def test_ordering_over_grid(self):
        for u in np.geomspace(1e-4, 0.999, 30):
            cert = certificate(float(u))
            assert 0.0 <= cert.r_bin <= cert.g_max + 1e-9


def _certify_row(tmp_path, capsys, geom, delta):
    """The ``certify`` report row of the observation behind ``geom``.

    ``geom`` comes from :func:`geometry_with_diameter`: token 0 scores 0
    and token 1 scores ``tau``.
    """
    path = tmp_path / "obs.jsonl"
    topk = [{"token": 0, "score": 0.0}, {"token": 1, "score": geom.tau}]
    path.write_text(json.dumps(
        {"vocab_size": geom.vocab_size, "mode": "logits", "topk": topk}) + "\n")
    argv = ["certify", "--input", str(path), "--delta", repr(delta), "--format", "json"]
    assert main(argv) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["U_K"] == geom.U_K
    return row


class TestCriticalK:
    def test_certified_impossible(self, tmp_path, capsys):
        g = geometry_with_diameter(0.908, 256)
        ((r_bin, verdict),) = verdicts([g.U_K], 0.1)
        assert verdict == "IMPOSSIBLE"
        assert r_bin == pytest.approx(0.538, abs=1e-3)
        row = _certify_row(tmp_path, capsys, g, 0.1)
        assert (row["r_bin"], row["verdict"]) == (r_bin, verdict)

    def test_threshold_flag_at_boundary(self, tmp_path, capsys):
        g = geometry_with_diameter(0.25, 16)
        ((_, verdict),) = verdicts([g.U_K], 0.1)
        assert verdict == "THRESHOLD"
        row = _certify_row(tmp_path, capsys, g, 0.1)
        assert row["verdict"] == "THRESHOLD"
        assert row["heuristic_u_max"] == pytest.approx(E * 0.1, rel=1e-15)

    def test_open_when_tolerance_is_loose(self, tmp_path, capsys):
        g = geometry_with_diameter(0.97, 128)
        ((_, verdict),) = verdicts([g.U_K], 10.0)
        assert verdict == "OPEN"
        row = _certify_row(tmp_path, capsys, g, 10.0)
        assert row["verdict"] == "OPEN"
        assert row["within_first_order"] is True

    def test_domain_error(self, v4_geometry):
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                verdicts([v4_geometry.U_K], delta)
