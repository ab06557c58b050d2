"""The brute-force oracles' own arithmetic against plain reference loops.

Each oracle finds its maximum by a shortcut: farthest pairs by sign-vector
projection, the balancing grid as one array expression, the sampled
reference risk as one array pass.  These tests hold each shortcut to the
plain loop it replaces, kept here as the reference.
"""

import math

import numpy as np
import pytest

import censet.oracles as oracles
from censet.identified_set import geometry
from censet.minimax import EstimatorSpec, symmetric_estimator, worst_case_risk
from censet.normalized import allocation_diameter
from censet.oracles import (
    _endpoint_risks,
    _extreme_allocations,
    _l1_farthest_pairs,
    _max_pairwise_tv,
    allocation_diameter_oracle,
    brute_diameter_oracle,
    endpoint_risk,
    estimator_distribution,
    reference_risk_oracle,
)
from censet.reference import ReferenceLogits, reference_estimator, reference_geometry
from censet.simulate import GaussianIID, SyntheticTeacherConfig, censor, generate_teacher

from conftest import make_geometry


def brute_max_pairwise_tv(tails):
    """Every pair's ``0.5 * (|t_i - t_j| + sum |p_i - p_j|)``, one row at a time."""
    totals = tails.sum(axis=1)
    best = 0.0
    for r in range(len(tails)):
        dt = np.abs(totals[r] - totals)
        dp = np.abs(tails[r] - tails).sum(axis=1)
        best = max(best, float(0.5 * (dt + dp).max()))
    return best


def brute_max_l1(points):
    """The l1 diameter of the rows, over every pair, one row at a time."""
    return max(float(np.abs(row - points).sum(axis=1).max()) for row in points)


def candidate_max_l1(points):
    i, j = _l1_farthest_pairs(points)
    return float(np.abs(points[i] - points[j]).sum(axis=1).max())


def assert_within_ulps(value, reference, ulps=4):
    # exact unless ties make the float maximum ambiguous
    assert abs(value - reference) <= ulps * np.spacing(reference), (value, reference)


def random_tails(rng, n, d):
    ys = rng.uniform(0.0, 2.0, size=(n, d))
    return ys / (1.0 + ys.sum(axis=1))[:, None]


class TestFarthestPairs:
    @pytest.mark.parametrize("n", [1, 2, 50, 700])
    @pytest.mark.parametrize("d", [1, 2, 8, 12])
    def test_random_points_match_brute_force(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        tails = random_tails(rng, n, d)
        assert_within_ulps(_max_pairwise_tv(tails), brute_max_pairwise_tv(tails))
        points = rng.normal(size=(n, d))
        assert_within_ulps(candidate_max_l1(points), brute_max_l1(points))

    def test_one_candidate_pair_per_sign_vector(self):
        i, j = _l1_farthest_pairs(np.random.default_rng(0).normal(size=(30, 5)))
        assert len(i) == len(j) == 2**4

    def test_duplicate_and_tied_rows(self):
        rng = np.random.default_rng(3)
        # small integers: every distance is exact and many pairs tie
        points = rng.integers(0, 3, size=(40, 6)).astype(float)
        points = np.concatenate([points, points[:10], points[:10]])
        assert candidate_max_l1(points) == brute_max_l1(points)
        assert candidate_max_l1(np.ones((5, 4))) == 0.0
        # box-grid tails, as the diameter oracle samples them, repeated
        grid = np.linspace(0.0, 1.5, 3)
        ys = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)
        tails = np.repeat(ys / (1.0 + ys.sum(axis=1))[:, None], 2, axis=0)
        assert_within_ulps(_max_pairwise_tv(tails), brute_max_pairwise_tv(tails))

    def test_across_the_sign_block_boundary(self, monkeypatch):
        rng = np.random.default_rng(11)
        # 2,100 rows of [totals | 11 tails]: 2,100 * 2^11 projections > 2^22
        tails = random_tails(rng, 2100, 11)
        assert 2100 * 2**11 > oracles._PROJECTION_FLOATS
        assert_within_ulps(_max_pairwise_tv(tails), brute_max_pairwise_tv(tails))
        # blocks of 7 and 3 signs leave a ragged last block
        points = rng.normal(size=(50, 7))
        whole = _l1_farthest_pairs(points)
        vertices = _extreme_allocations(4.5 * 0.07, 0.07, 8)  # 280 rows
        brute = 0.5 * brute_max_l1(vertices)
        for floats in (7 * 50, 3 * 50 + 49):
            monkeypatch.setattr(oracles, "_PROJECTION_FLOATS", floats)
            for got, want in zip(_l1_farthest_pairs(points), whole):
                np.testing.assert_array_equal(got, want)
            assert_within_ulps(allocation_diameter_oracle(4.5 * 0.07, 0.07, 8), brute)

    @pytest.mark.parametrize("m", [2, 5, 8, 12])
    def test_allocation_vertices_match_brute_force(self, m):
        cap = 0.07
        # q above 4.5 at m = 12 gives thousands of vertices: the closed form
        # checks those in TestLargestInputs
        for q in (0.5, 1.0, 2.5, m / 2 + 0.5, m - 0.5):
            if q > min(m, 4.5):
                continue
            t_star = q * cap
            brute = 0.5 * brute_max_l1(_extreme_allocations(t_star, cap, m))
            assert_within_ulps(allocation_diameter_oracle(t_star, cap, m), brute)


class TestLargestInputs:
    def test_brute_diameter_at_vocab_limit(self):
        g = make_geometry(12, [0.0])  # M = 11: 2^11 sign vectors
        assert g.M == 11
        d = brute_diameter_oracle(g, 12, max_points=2048)
        assert abs(d - g.U_K) <= 1e-3

    def test_allocation_diameter_at_token_limit(self):
        cap = 0.07
        for q in (0.5, 2.5, 5.5, 6.0, 6.5, 9.25, 11.5):
            t_star = q * cap
            closed = allocation_diameter(t_star, cap, 12)
            assert abs(allocation_diameter_oracle(t_star, cap, 12) - closed) <= 1e-12


class TestBalancingGrid:
    S_GRID = np.geomspace(1e-12, 0.98, 2000)

    @pytest.mark.parametrize(
        "us", [np.geomspace(1e-4, 0.999, 25), np.geomspace(1e-6, 0.999, 200)]
    )
    def test_argmin_matches_scalar_grid(self, us):
        for u in us:
            scalar = [endpoint_risk(float(u), s) for s in self.S_GRID]
            grid = _endpoint_risks(float(u), self.S_GRID)
            assert np.argmin(grid) == np.argmin(scalar)
            np.testing.assert_allclose(grid, scalar, rtol=1e-13)


def scalar_reference_risk(geom, rb, est, n_samples=4096, seed=0):
    """The sample-at-a-time loop that reference_risk_oracle replaces."""
    if geom.M == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    bounds = np.exp(rb.log_ceilings - geom.log_ZA)
    ys = rng.uniform(0.0, 1.0, size=(n_samples, geom.M)) * bounds
    ys = np.concatenate([ys, np.zeros((1, geom.M)), bounds[None, :]], axis=0)
    tails = ys / (1.0 + ys.sum(axis=1))[:, None]
    q_tail = estimator_distribution(geom, est)[geom.censored_ids]
    worst = 0.0
    for tail in tails:
        t = float(tail.sum())
        value = (1.0 - t) * (math.log1p(-t) - math.log1p(-est.s))
        mask = tail > 0.0
        if np.any(mask & (q_tail == 0.0)):
            return math.inf
        value += float(np.sum(tail[mask] * (np.log(tail[mask]) - np.log(q_tail[mask]))))
        worst = max(worst, value)
    return worst


def reference_cases(seed, count):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        v = int(rng.integers(3, 11))
        config = SyntheticTeacherConfig(
            vocab_size=v, law=GaussianIID(0.0, 1.5), seed=int(rng.integers(2**32))
        )
        z = generate_teacher(config, 1)[0]
        geom = geometry(censor(z, int(rng.integers(1, v - 1))))
        ref = ReferenceLogits(position_id="p", dense=z + rng.normal(0.0, 1.0, size=v))
        rb = reference_geometry(geom, ref, float(rng.uniform(0.0, 3.0)))
        if rb.U_R > 0.0:
            cases.append((geom, rb))
    return cases


class TestReferenceRiskOracle:
    def test_equals_scalar_loop(self):
        for i, (geom, rb) in enumerate(reference_cases(21, 12)):
            for est in (reference_estimator(geom, rb), symmetric_estimator(geom)):
                got = reference_risk_oracle(geom, rb, est, n_samples=512, seed=i)
                want = scalar_reference_risk(geom, rb, est, n_samples=512, seed=i)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_zero_estimator_tail_entry_is_infinite(self, v4_geometry):
        rb = reference_geometry(
            v4_geometry, ReferenceLogits(position_id="p", dense=np.zeros(4)), 0.5
        )
        est = EstimatorSpec(s=0.1, tail_weights=np.array([1.0, 0.0]))
        assert reference_risk_oracle(v4_geometry, rb, est) == math.inf
        assert scalar_reference_risk(v4_geometry, rb, est) == math.inf

    def test_below_exact_symmetric_sup(self):
        # ceilings min(tau, z_ref + rho) <= tau: every sample is compatible
        for i, (geom, rb) in enumerate(reference_cases(5, 12)):
            est = symmetric_estimator(geom)
            sup_kl, _ = worst_case_risk(geom, est)
            assert reference_risk_oracle(geom, rb, est, seed=i) <= sup_kl + 1e-12
