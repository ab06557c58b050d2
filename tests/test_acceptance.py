"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass line on success (run with ``pytest -s`` to
see them inline); a pytest failure is the corresponding fail line.
"""

import math
import time
from functools import reduce

import numpy as np
import pytest
from scipy.optimize import brentq

from censet.cli import main
from censet.identified_set import geometry
from censet.minimax import (
    _INV_E,
    SECOND_ORDER_COEFF,
    _sup_candidates,
    g_max,
    reserve,
    symmetric_sup,
    verdicts,
)
from censet.normalized import TailCondition, tail_geometry
from censet.observation import AccessMode
from censet.oracles import (
    allocation_diameter_oracle,
    balancing_oracle,
    brute_diameter_oracle,
    disjoint_witness_pair,
    geometry_with_diameter,
    membership,
    point,
    reference_diameter_oracle,
    tv,
)
from censet.reference import ReferenceLogits, reference_geometry
from censet.simulate import (
    GaussianIID,
    SyntheticTeacherConfig,
    average_risk,
    censor,
    generate_teacher,
)

from conftest import make_observation

E = math.e

GAP_TABLE = {
    0.10: (0.038, 0.037, 0.001, 0.040),
    0.30: (0.123, 0.110, 0.012, 0.142),
    0.50: (0.223, 0.184, 0.039, 0.294),
    0.70: (0.349, 0.258, 0.092, 0.559),
    0.81: (0.437, 0.298, 0.139, 0.825),
    0.91: (0.541, 0.335, 0.206, 1.309),
    0.98: (0.644, 0.361, 0.284, 2.416),
}

U_GRID = np.geomspace(1e-4, 0.999, 50)


def _passed(n: int, text: str) -> None:
    print(f"[acceptance {n:02d}] PASS - {text}")


def _tail_size_for(u: float) -> int:
    return int(2.0 * u / (1.0 - u)) + 8


def test_criterion_1_gap_table():
    start = time.perf_counter()
    for u, (r_exp, fo_exp, diff_exp, gmax_exp) in GAP_TABLE.items():
        r = reserve(u)[1]
        first_order = u / E
        assert abs(r - r_exp) <= 1e-3, f"r_bin({u})"
        assert abs(first_order - fo_exp) <= 1e-3, f"u/e({u})"
        assert abs((r - first_order) - diff_exp) <= 1e-3, f"gap({u})"
        assert abs(g_max(u)[0] - gmax_exp) <= 1e-3, f"g_max({u})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"gap table reproduced to +-0.001 in {elapsed * 1e3:.1f} ms")


def test_criterion_2_critical_threshold():
    u_crit = brentq(lambda u: reserve(u)[1] - 0.1, 1e-6, 0.9, xtol=1e-12)
    assert abs(u_crit - 0.25) <= 0.005
    geom = geometry_with_diameter(0.908, 256)
    ((r_bin, verdict),) = verdicts([geom.U_K], 0.1)
    assert verdict == "IMPOSSIBLE"
    assert abs(r_bin - 0.538) <= 1e-3
    _passed(
        2,
        f"R_bin = 0.1 at U = {u_crit:.4f}; U = 0.908 certified IMPOSSIBLE "
        f"with R_bin = {r_bin:.4f}",
    )


def test_criterion_3_diameter_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_oracle_gap = 0.0
    worst_pair_gap = 0.0
    for i in range(50):
        v = int(rng.integers(2, 9))
        k = int(rng.integers(1, v))
        scores = np.sort(rng.normal(0.0, rng.uniform(0.5, 3.0), size=k))[::-1]
        tokens = rng.permutation(v)[:k]
        geom = geometry(make_observation(v, scores, tokens=[int(t) for t in tokens]))
        oracle = brute_diameter_oracle(geom, 12, max_points=1024, seed=i)
        worst_oracle_gap = max(worst_oracle_gap, abs(oracle - geom.U_K))
        assert abs(oracle - geom.U_K) <= 1e-3
        if geom.M > 0:
            d = tv(point(geom, 0.0), point(geom, geom.U_K))
            worst_pair_gap = max(worst_pair_gap, abs(d - geom.U_K))
            assert abs(d - geom.U_K) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(
        3,
        f"50 random geometries: max oracle gap {worst_oracle_gap:.2e}, "
        f"max extremal-pair gap {worst_pair_gap:.2e}, {elapsed:.1f} s",
    )


def test_criterion_4_balancing_oracle_equivalence():
    worst = 0.0
    for u in U_GRID:
        s_star, r_bin = reserve(float(u))
        s_hat, r_hat = balancing_oracle(float(u))
        worst = max(worst, abs(s_hat - s_star), abs(r_hat - r_bin))
        assert abs(s_hat - s_star) <= 1e-6
        assert abs(r_hat - r_bin) <= 1e-6
    _passed(4, f"balancing oracle matches closed form, max gap {worst:.2e}")


def test_criterion_5_envelope_ordering_and_tightness():
    for u in U_GRID:
        u = float(u)
        geom = geometry_with_diameter(u, _tail_size_for(u))
        sup_kl, _ = symmetric_sup(geom.M, geom.log_odds, geom.U_K)
        r_bin = reserve(geom.U_K)[1]
        gmax = g_max(geom.U_K)[0]
        assert r_bin - 1e-12 <= sup_kl <= gmax + 1e-6
        if u <= 0.05:
            assert sup_kl - r_bin <= 0.02 * u
    _passed(5, "R_bin <= sup risk <= G_max on the grid; first-order tight below 0.05")


def test_criterion_6_expansion_bounds():
    for u in U_GRID:
        u = float(u)
        if u <= 0.5:
            assert abs(reserve(u)[0] - u / E) <= u * u
    us = np.geomspace(1e-3, 0.2, 60)
    diffs = np.array([reserve(float(u))[1] - u / E for u in us])
    c_hat = float(np.mean(diffs / us**2))
    assert abs(c_hat - SECOND_ORDER_COEFF) <= 0.1 * SECOND_ORDER_COEFF
    _passed(
        6,
        f"|s* - U/e| <= U^2 below 0.5; fitted U^2 coefficient {c_hat:.4f} "
        f"vs {SECOND_ORDER_COEFF:.4f}",
    )


def test_criterion_7_reference_shrinkage():
    rng = np.random.default_rng(202)
    checked = 0
    worst_box_gap = 0.0
    while checked < 50:
        v = int(rng.integers(3, 9))
        k = int(rng.integers(1, v))
        config = SyntheticTeacherConfig(
            vocab_size=v, law=GaussianIID(0.0, 1.5), seed=1000 + checked
        )
        z = generate_teacher(config, 1)[0]
        geom = geometry(censor(z, k))
        if geom.M == 0:
            continue
        ref = ReferenceLogits(dense=z + rng.normal(0.0, 1.0, size=v))
        rho_lo, rho_hi = sorted(rng.uniform(0.0, 3.0, size=2))
        rb_lo = reference_geometry(geom, ref, float(rho_lo))
        rb_hi = reference_geometry(geom, ref, float(rho_hi))
        assert rb_lo.U_R <= geom.U_K + 1e-12
        assert rb_lo.U_R <= rb_hi.U_R + 1e-12
        rb_sat = reference_geometry(geom, ref, 1e3)
        assert abs(rb_sat.U_R - geom.U_K) <= 1e-9
        oracle = reference_diameter_oracle(
            geom, rb_hi, 9, max_points=1024, seed=checked
        )
        worst_box_gap = max(worst_box_gap, abs(oracle - rb_hi.U_R))
        assert abs(oracle - rb_hi.U_R) <= 1e-3
        checked += 1
    _passed(
        7,
        f"50 triples: shrinkage, rho-monotonicity, saturation; "
        f"max box-oracle gap {worst_box_gap:.2e}",
    )


def test_criterion_8_normalized_access():
    # M = 1: the lone censored token is pinned, diameter exactly 0
    obs1 = make_observation(
        3, [math.log(0.55), math.log(0.35)], mode=AccessMode.LOGPROBS
    )
    geom1 = geometry(obs1)
    assert geom1.M == 1
    assert tail_geometry(geom1.log_ZA, geom1.tau, geom1.M)[3] == 0.0

    # disjoint-supports witness attains TV = t* exactly
    obs2 = make_observation(
        13, [math.log(0.45), math.log(0.25), math.log(0.1)],
        mode=AccessMode.LOGPROBS,
    )
    geom2 = geometry(obs2)
    t_star, _, condition, _ = tail_geometry(geom2.log_ZA, geom2.tau, geom2.M)
    assert condition is TailCondition.DISJOINT_SUPPORTS
    a, b = disjoint_witness_pair(geom2)
    censored = geom2.censored_ids
    assert not np.any((a[censored] > 0.0) & (b[censored] > 0.0))
    assert abs(tv(a, b) - t_star) <= 1e-12
    assert membership(geom2, a) == [] and membership(geom2, b) == []

    # allocation oracle confirms the regimes for M <= 12
    worst = abs(allocation_diameter_oracle(0.2, 0.1, 10) - 0.2)
    for m in range(2, 13):
        t_star, cap = 0.24, 0.05
        if t_star > m * cap:
            continue
        d = allocation_diameter_oracle(t_star, cap, m)
        if m >= 2 * math.ceil(t_star / cap):
            worst = max(worst, abs(d - t_star))
            assert abs(d - t_star) <= 1e-3
        else:
            assert d < t_star
    _passed(8, f"normalized regimes verified; max oracle gap {worst:.2e}")


def test_criterion_9_composition():
    geoms = [geometry_with_diameter(u, 32) for u in (0.1, 0.3, 0.5)]
    avg_lower, _, factored_sum = average_risk(
        [reserve(g.U_K)[1] for g in geoms],
        [symmetric_sup(g.M, g.log_odds, g.U_K)[0] for g in geoms],
    )
    expected = (0.038 + 0.123 + 0.223) / 3.0
    assert abs(avg_lower - expected) <= 1e-3
    # the literal joint adversary over every position's sup candidates
    profiles = [
        [risk for risk, _ in _sup_candidates(
            g.M, g.log_odds, g.U_K, g.U_K * _INV_E)]
        for g in geoms
    ]
    joint = float(reduce(np.add.outer, profiles).max()) / len(geoms)
    assert joint == factored_sum
    _passed(
        9,
        f"averaged lower bound {avg_lower:.4f} vs {expected:.4f}; "
        "joint grid maximum equals the factored sum exactly",
    )


def test_criterion_10_pipeline_statistics(tmp_path):
    def run(name: str) -> str:
        # a seeded Gaussian teacher's full dump, swept by `censet ksweep`
        dump, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.csv"
        assert main(
            ["simulate", "--vocab", "128", "--positions", "48", "--sd", "2",
             "--seed", "0", "--k", "1", "--dump", str(dump),
             "--output", str(tmp_path / f"{name}.txt")]
        ) == 0
        assert main(
            ["ksweep", "--input", str(dump), "--k", "1,5,10,20,50,100",
             "--format", "csv", "--output", str(out)]
        ) == 0
        return out.read_text()

    first = run("a")
    second = run("b")
    assert first == second  # bit-reproducible under the fixed seed

    rows = first.strip().splitlines()[1:]
    uk = [float(r.split(",")[1]) for r in rows]
    rbin = [float(r.split(",")[3]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(uk, uk[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(rbin, rbin[1:]))
    _passed(
        10,
        "synthetic K-sweep monotone in K and bit-reproducible "
        f"(U_K mean {uk[0]:.3f} -> {uk[-1]:.3f})",
    )
