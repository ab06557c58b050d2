"""Independent brute-force routes to every closed form, their witnesses,
and the battery.

Each oracle reaches a closed-form quantity by enumeration, sampling, direct
minimization or a dense scan instead of the algebra the analysis modules
use, and refuses inputs too large to enumerate.  The witnesses (extremal
pairs, the adversary's best response, disjoint allocations) are the points
that attain those quantities; each is a dense length-V float64 vector, so
they are for small vocabularies only.  ``censet oracle`` runs
:func:`oracle_battery`; the tests call the oracles directly.  No analysis
path imports this module.

Calls into the analysis modules go through module attributes
(``geo.geometry``, ``mm.g_max``, ...), never names imported into this
module, so the layer tracer of ``bench/spans.py``, which rebinds those
attributes, sees every call the battery makes.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Callable

import numpy as np

from . import identified_set as geo
from . import minimax as mm
from . import normalized as norm
from . import observation as ob
from . import reference as ref
from . import simulate as sim
from .numerics import expit, policy

# combinatorial limits of the enumerating oracles
_MAX_ORACLE_VOCAB = 12
_MAX_ORACLE_TOKENS = 12
# largest sign-vector projection of _l1_farthest_pairs, in floats
_PROJECTION_FLOATS = 2**22


# -- witnesses: dense length-V vectors -------------------------------------


def point(
    geom: geo.SetGeometry, t: float, tail: np.ndarray | None = None
) -> np.ndarray:
    """Dense vector with head ``(1-t) * alpha`` and tail mass ``t``.

    The censored tail is uniform, ``t/M`` per token, or ``tail`` aligned
    with ``geom.censored_ids``.  ``point(geom, 0.0)`` and
    ``point(geom, geom.U_K)`` are the extremal pair, whose total variation
    attains U_K.  Use :func:`membership` to check that the result lies in
    the compatible set.
    """
    p = np.zeros(geom.vocab_size)
    p[geom.token_ids] = (1.0 - t) * geom.alpha
    if geom.M > 0:
        p[geom.censored_ids] = t / geom.M if tail is None else tail
    return p


def membership(geom: geo.SetGeometry, p: np.ndarray) -> list[str]:
    """The compatible-set constraints a dense vector violates; [] if none.

    With ``t`` the mass of ``p`` on the censored tokens, a member has
    ``t <= U_K``, head ``(1-t) * alpha``, every censored entry in
    ``[0, cap(t)]`` (:func:`identified_set.per_token_cap`) and total mass
    1, each within ``membership_tol``.  A normalized observation's set is
    the members with ``t = t*``: at that mass the cap is ``exp(tau)``.
    """
    tol = policy().membership_tol
    tail = p[geom.censored_ids]
    t = float(tail.sum())
    violations = []
    if t > geom.U_K + tol:
        violations.append(f"tail mass exceeds U_K: t={t!r} > U_K={geom.U_K!r}")
    head_gap = float(np.abs(p[geom.token_ids] - (1.0 - t) * geom.alpha).max())
    if head_gap > tol:
        violations.append(f"head departs from (1-t)*alpha by {head_gap!r}")
    if geom.M > 0:
        low = float(tail.min())
        if low < -tol:
            violations.append(f"negative tail mass {low!r}")
        cap = geo.per_token_cap(geom, min(max(t, 0.0), geom.U_K)) + tol * (1.0 + t)
        high = float(tail.max())
        if high > cap:
            violations.append(f"tail mass {high!r} exceeds per-token cap {cap!r}")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        violations.append(f"vector sums to {total!r}, not 1")
    return violations


def _check_same_shape(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")


def tv(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, 0.5 * l1, between two dense vectors."""
    _check_same_shape(p, q)
    return float(0.5 * np.abs(p - q).sum())


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence in nats with the extended conventions.

    ``0 log 0 = 0``; mass in ``p`` where ``q`` is zero yields ``+inf`` (a
    distinguished value, not an error: the zero-tail extremal point makes
    this case routine).
    """
    _check_same_shape(p, q)
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    ps = p[support]
    return float(np.sum(ps * (np.log(ps) - np.log(q[support]))))


def geometry_with_diameter(u: float, m: int) -> geo.SetGeometry:
    """A small valid observation whose diameter is exactly ``u``.

    Two revealed tokens with scores (0, a) and ``m`` censored tokens, where
    ``a`` is solved so that log-odds(U_K) = logit(u).  Requires
    ``m >= 2 u / (1-u)`` so that a <= 0 stays the threshold.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"diameter must lie in (0, 1), got {u!r}")
    if m < 2.0 * u / (1.0 - u):
        raise ValueError(
            f"m={m} too small to realize diameter {u} with two revealed tokens"
        )
    g = math.log(u) - math.log1p(-u) - math.log(m)
    a = g - math.log1p(-math.exp(g))
    obs = ob.from_pairs(m + 2, (0, 1), (0.0, a), ob.AccessMode.LOGITS,
                        f"synthetic-u{u}")
    return geo.geometry(obs)


def estimator_distribution(
    geom: geo.SetGeometry, s: float, tail_weights: np.ndarray | None = None
) -> np.ndarray:
    """Dense length-V distribution of the estimator with reserve ``s``.

    Head token v receives ``(1-s) * alpha_v`` and censored token u receives
    ``s * w_u``, where the weights ``tail_weights`` are aligned with
    ``geom.censored_ids`` and sum to 1; ``None`` means the uniform rule
    w_u = 1/M of :func:`minimax.symmetric_sup`.
    """
    return point(geom, s, None if tail_weights is None else s * tail_weights)


def risk_at_tail_mass(geom: geo.SetGeometry, s: float, t: float) -> float:
    """Worst-case KL at fixed tail mass t against the uniform-tail
    estimator with reserve ``s``.

    Decomposes as d(t || s) + t * max KL(r || uniform), both pieces closed
    form, so this is exact (no inner search).
    """
    if t < 0.0 or t > geom.U_K + policy().membership_tol:
        raise ValueError(f"tail mass t={t!r} outside [0, U_K={geom.U_K!r}]")
    if t == 0.0:
        return -math.log1p(-s) if s < 1.0 else math.inf
    t = min(t, geom.U_K)
    _, _, tail_kl = mm._concentrated_tail_kl(geom.M, geom.log_odds, t, None)
    return mm._bernoulli_kl(t, s) + t * tail_kl


def adversary_best_response(
    geom: geo.SetGeometry, s: float, t: float
) -> tuple[np.ndarray, float]:
    """The compatible point maximizing KL at tail mass t against the
    uniform-tail estimator with reserve ``s``.

    The maximizing tail puts the per-token cap on as many censored tokens
    as fit and the remainder on one further token (lowest ids first, for
    determinism).  Requires 0 < t <= U_K.  Returns the point as a dense
    vector and its KL.
    """
    if geom.M == 0:
        raise ValueError("no censored tokens; adversary has no tail to allocate")
    if t <= 0.0 or t > geom.U_K + policy().membership_tol:
        raise ValueError(f"tail mass t={t!r} outside (0, U_K={geom.U_K!r}]")
    t = min(t, geom.U_K)
    n_full, rem, tail_kl = mm._concentrated_tail_kl(geom.M, geom.log_odds, t, None)
    value = mm._bernoulli_kl(t, s) + t * tail_kl
    if n_full == geom.M and rem == 0.0:
        return point(geom, t), value
    lam = math.exp(geom.log_odds) * (1.0 - t) / t
    tail = np.zeros(geom.M)
    tail[:n_full] = t * lam / geom.M
    if rem > 0.0:
        tail[n_full] = t * rem
    return point(geom, t, tail), value


def disjoint_witness_pair(geom: geo.SetGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Two members with tail mass t* on disjoint supports: TV exactly t*.

    ``geom`` is the geometry of a normalized observation, whose t* and cap
    c come from :func:`normalized.tail_geometry`.  Only available in the
    disjoint-supports regime.  Each tail fills ceil(t*/c) censored tokens
    (lowest ids first) to the cap, with the last token absorbing the
    remainder.
    """
    if geom.obs.mode is not ob.AccessMode.LOGPROBS:
        raise ob.ModeError("disjoint witnesses require mode=logprobs")
    t_star, cap, condition, _ = norm.tail_geometry(geom.log_ZA, geom.tau, geom.M)
    if condition is not norm.TailCondition.DISJOINT_SUPPORTS:
        raise ValueError(f"no disjoint witnesses in condition {condition.value}")
    n = norm._tokens_needed(t_star, cap)

    def fill(offset: int) -> np.ndarray:
        tail = np.zeros(geom.M)
        remaining = t_star
        for i in range(offset, offset + n):
            tail[i] = min(cap, remaining)
            remaining -= tail[i]
        return point(geom, t_star, tail)

    return fill(0), fill(n)


# -- set diameter: box-grid enumeration ------------------------------------


def _l1_farthest_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate farthest pairs, in l1, among the rows of ``points``.

    ``||x||_1 = max over sign vectors sigma of sigma . x``, so the l1
    diameter of the rows is the max over sigma of ``max_i sigma . x_i -
    min_j sigma . x_j``, and the rows attaining that max and min for the
    best sigma are a farthest pair.  Returns the argmax and argmin rows of
    every sign vector's projection, one pair per sigma whose first sign is
    +1 (sigma and -sigma give the same pair): 2^(d-1) candidates, among
    them a farthest pair of all the rows in exact arithmetic.  The signs go
    in blocks so that a projection holds at most ``_PROJECTION_FLOATS``.
    """
    n, d = points.shape
    bits = (np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    block = max(1, _PROJECTION_FLOATS // n)
    first, second = [], []
    for lo in range(0, len(signs), block):
        proj = points @ signs[lo:lo + block].T
        first.append(proj.argmax(axis=0))
        second.append(proj.argmin(axis=0))
    return np.concatenate(first), np.concatenate(second)


def _max_pairwise_tv(tails: np.ndarray) -> float:
    """Max pairwise TV over points sharing one head conditional.

    For such points TV = 0.5 * (|t - s| + sum_u |p_u - q_u|), so only tail
    vectors are needed.  That is half the l1 distance between the rows of
    ``[totals | tails]``, so the max over every pair of sampled points is
    attained on a candidate pair of :func:`_l1_farthest_pairs`, and only
    those pairs are evaluated.
    """
    totals = tails.sum(axis=1)
    i, j = _l1_farthest_pairs(np.column_stack([totals, tails]))
    dt = np.abs(totals[i] - totals[j])
    dp = np.abs(tails[i] - tails[j]).sum(axis=1)
    return float(0.5 * (dt + dp).max())


def _box_tail_samples(
    scaled_bounds: np.ndarray,
    grid_resolution: int,
    max_points: int,
    seed: int,
) -> np.ndarray:
    """Sample unnormalized tail weights from the feasibility box.

    Weights are gridded per token in [0, bound_u] (the constraint region is
    exactly a box in the unnormalized weights, so gridding is faithful
    there).  Beyond ``max_points`` cells the grid is subsampled with a
    seeded generator; the two box corners (all-zero and all-max), which
    realize the extremal pair, are always included.
    """
    m = len(scaled_bounds)
    grids = [np.linspace(0.0, b, grid_resolution) for b in scaled_bounds]
    n_cells = grid_resolution**m
    if n_cells <= max_points:
        mesh = np.meshgrid(*grids, indexing="ij")
        ys = np.stack([g.reshape(-1) for g in mesh], axis=1)
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, grid_resolution, size=(max_points, m))
        ys = np.take_along_axis(
            np.stack(grids, axis=0).T, idx, axis=0
        )
    corners = np.stack([np.zeros(m), np.asarray(scaled_bounds, dtype=float)])
    return np.concatenate([ys, corners], axis=0)


def box_diameter_oracle(
    geom: geo.SetGeometry,
    log_bounds: np.ndarray,
    grid_resolution: int,
    max_points: int,
    seed: int,
) -> float:
    """Brute-force TV diameter over per-token weight ceilings.

    ``log_bounds[u]`` is the log of the ceiling on censored token u's
    unnormalized weight.  Weights are rescaled by exp(-log_ZA), making the
    partition constant 1 regardless of score magnitudes.  Refuses
    vocabularies above the combinatorial limit.
    """
    if geom.vocab_size > _MAX_ORACLE_VOCAB:
        raise ValueError(
            f"vocab_size {geom.vocab_size} too large for brute-force "
            f"enumeration (limit {_MAX_ORACLE_VOCAB})"
        )
    scaled = np.exp(np.asarray(log_bounds, dtype=float) - geom.log_ZA)
    if len(scaled) == 0:
        return 0.0
    ys = _box_tail_samples(scaled, grid_resolution, max_points, seed)
    denom = 1.0 + ys.sum(axis=1)
    tails = ys / denom[:, None]
    return _max_pairwise_tv(tails)


def brute_diameter_oracle(
    geom: geo.SetGeometry,
    grid_resolution: int,
    max_points: int = 2048,
    seed: int = 0,
) -> float:
    """Independent check of the closed-form diameter on small vocabularies.

    Enumerates (or, when the cell count explodes, subsamples) feasible
    points and returns the max pairwise TV; the exact extremal pair is
    always in the sample.  Refuses vocabularies above the combinatorial
    limit.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    return box_diameter_oracle(
        geom, np.full(geom.M, geom.tau), grid_resolution, max_points, seed
    )


def reference_diameter_oracle(
    geom: geo.SetGeometry,
    rb: ref.ReferenceBound,
    grid_resolution: int,
    max_points: int = 2048,
    seed: int = 0,
) -> float:
    """Brute-force diameter under the reference ceilings (small V only)."""
    return box_diameter_oracle(
        geom, rb.log_ceilings, grid_resolution, max_points, seed
    )


def sample_feasible_points(
    geom: geo.SetGeometry, n: int, seed: int = 0
) -> np.ndarray:
    """Random members of the compatible set as dense tail matrices.

    Draws unnormalized weights uniformly from the feasibility box, which
    maps onto the compatible set; used by randomized property checks.
    Returns an (n, M) array of censored-token probabilities.
    """
    if geom.M == 0:
        return np.zeros((n, 0))
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0.0, math.exp(geom.tau - geom.log_ZA), size=(n, geom.M))
    denom = 1.0 + ys.sum(axis=1)
    return ys / denom[:, None]


def reference_risk_oracle(
    geom: geo.SetGeometry,
    rb: ref.ReferenceBound,
    s: float,
    tail_weights: np.ndarray | None = None,
    n_samples: int = 4096,
    seed: int = 0,
) -> float:
    """Max sampled KL of ceiling-constrained truths against the estimator
    of :func:`estimator_distribution` with reserve ``s``.

    Draws unnormalized tail weights uniformly below the per-token ceilings
    (every draw is a valid member), always including the two extremal
    corners, and evaluates KL directly on dense distributions, all samples
    in one array pass; ``+inf`` if a sample has mass where the estimator
    has none.  A sampled lower bound on the true sup, suitable for
    envelope checks on small V.
    """
    if geom.M == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    bounds = np.exp(rb.log_ceilings - geom.log_ZA)
    ys = rng.uniform(0.0, 1.0, size=(n_samples, geom.M)) * bounds
    ys = np.concatenate([ys, np.zeros((1, geom.M)), bounds[None, :]], axis=0)
    denom = 1.0 + ys.sum(axis=1)
    tails = ys / denom[:, None]
    ts = tails.sum(axis=1)

    q_tail = estimator_distribution(geom, s, tail_weights)[geom.censored_ids]
    # estimator head is (1-s) * alpha, so the head KL term collapses
    head = (1.0 - ts) * (np.log1p(-ts) - math.log1p(-s))
    # mass where the estimator has none gives +inf; the terms of a zero
    # sample entry (nan or -inf) are masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = tails * (np.log(tails) - np.log(q_tail))
    tail = np.where(tails > 0.0, terms, 0.0).sum(axis=1)
    return max(0.0, float((head + tail).max()))


# -- recovery bounds: direct minimization and dense scans ------------------


def endpoint_risk(u: float, s: float) -> float:
    """max of the two endpoint divergences faced by reserve ``s``."""
    kl_zero = -math.log1p(-s)
    kl_full = (1.0 - u) * (math.log1p(-u) - math.log1p(-s)) + u * (
        math.log(u) - math.log(s)
    )
    return max(kl_zero, kl_full)


def _endpoint_risks(u: float, s: np.ndarray) -> np.ndarray:
    """:func:`endpoint_risk` at every reserve of the array ``s``."""
    log1m_s = np.log1p(-s)
    kl_full = (1.0 - u) * (math.log1p(-u) - log1m_s) + u * (
        math.log(u) - np.log(s)
    )
    return np.maximum(-log1m_s, kl_full)


def _golden_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi]; deterministic."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def balancing_oracle(u: float, grid: int = 2000) -> tuple[float, float]:
    """Direct minimization over ``s`` of the endpoint maximum.

    Independent verification route for :func:`minimax.reserve`: a
    coarse log-spaced grid brackets the minimum of the (convex) endpoint
    maximum, then golden-section refinement pins it down.  With
    ``grid >= 1000`` the result matches the closed form within 1e-6.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"diameter must lie in (0, 1), got {u!r}")
    if grid < 8:
        raise ValueError("grid must be at least 8")
    s_grid = np.geomspace(1e-12, 0.98, grid)
    i = int(np.argmin(_endpoint_risks(u, s_grid)))
    lo = s_grid[max(i - 1, 0)]
    hi = s_grid[min(i + 1, grid - 1)]
    s_hat, r_hat = _golden_min(lambda s: endpoint_risk(u, s), lo, hi, 1e-13)
    return float(s_hat), float(r_hat)


def breakpoint_scan_oracle(m: int, log_odds: float, s: float) -> float:
    """Brute scan of the uniform-tail estimator's risk over tail masses.

    Independent route for :func:`minimax.symmetric_sup`: one numpy pass,
    in absolute tail masses (``floor(t / cap)`` tokens at ``cap = c (1-t)``,
    the rest on one more), over every breakpoint ``t_n = n c / (1 + n c)``
    and a 257-point uniform grid of [0, U_K].  O(M) memory: meant for small
    M.
    """
    def xlogx(x):
        # 0 at 0, by the C library's log as SciPy's xlogy(x, x): numpy's SIMD
        # log can differ in the last bit
        return x * np.array(list(map(math.log, np.where(x > 0.0, x, 1.0).tolist())))

    u = expit(log_odds)
    c = math.exp(log_odds) / m
    n = np.arange(m + 1)
    t = np.minimum(np.concatenate([n * c / (1 + n * c), np.linspace(0, u, 257)]), u)
    cap = c * (1.0 - t)
    full = np.minimum(np.floor(t / cap), m)
    rest = np.maximum(t - full * cap, 0.0)
    risk = t * (math.log(m) - math.log(s)) - (1.0 - t) * math.log1p(-s) + (
        xlogx(1.0 - t) + full * xlogx(cap) + xlogx(rest)
    )
    return float(risk.max())


def g_envelope(u: float, t: float, s: float) -> float:
    """Upper envelope of the uniform-tail estimator's risk at tail mass t.

    Evaluated through the simplified identity

        G(t) = log(1-t) - (1-t) log(1-s) + t log(u / ((1-u) s)),

    algebraically equal to the two-term defining form of the
    :mod:`censet.minimax` docstring; G(0) = -log(1-s).  The cap factor
    log(u/((1-u)s)) diverges as u -> 1.  :func:`minimax.g_max` maximizes
    the same expression over t.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"diameter must lie in (0, 1), got {u!r}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"reserve must lie in (0, 1), got {s!r}")
    if t < -policy().membership_tol or t > u + policy().membership_tol:
        raise ValueError(f"tail mass t={t!r} outside [0, u={u!r}]")
    t = min(max(t, 0.0), u)
    return mm._envelope(t, math.log1p(-s), mm._cap_factor(u, s))


def _g_envelope_defining_form(u: float, t: float, s: float) -> float:
    # two-term defining form of the envelope, kept as an independent route
    first = (1.0 - t) * (math.log1p(-t) - math.log1p(-s))
    second = t * (
        math.log(u) + math.log1p(-t) - math.log1p(-u) - math.log(s)
    ) if t > 0 else 0.0
    return first + second


# -- normalized access: vertex enumeration ---------------------------------


def _extreme_allocations(t_star: float, cap: float, m: int) -> np.ndarray:
    """Vertices of the capped allocation polytope {0 <= x <= c, sum = t*}.

    Each vertex has floor(t*/c) coordinates at the cap plus at most one
    fractional coordinate carrying the remainder.
    """
    # t*/c can land a hair below n when t* is a whole multiple n*c; the plain
    # floor would then list every vertex n times over, as n-1 capped tokens
    # plus a near-cap remainder on the n-th
    n_full = int(math.floor(t_star / cap + 1e-12))
    n_full = min(n_full, m)
    rem = min(max(t_star - n_full * cap, 0.0), cap)
    # a remainder of float dust from t* - n*c is no remainder: kept, it
    # would split every vertex into m-n copies differing only by the dust
    if rem < 1e-12 * max(t_star, 1.0) or n_full >= m:
        rem = 0.0
    rows = []
    for full_set in itertools.combinations(range(m), n_full):
        if rem == 0.0:
            row = np.zeros(m)
            row[list(full_set)] = cap
            rows.append(row)
        else:
            for extra in range(m):
                if extra in full_set:
                    continue
                row = np.zeros(m)
                row[list(full_set)] = cap
                row[extra] = rem
                rows.append(row)
    return np.array(rows) if rows else np.zeros((1, m))


def allocation_diameter_oracle(t_star: float, cap: float, m: int) -> float:
    """Exact max pairwise TV over capped tail allocations (small M).

    TV is convex in the pair, so the maximum over the polytope is attained
    at vertex pairs; vertices are enumerated exactly.  The max over every
    pair of vertices is half their l1 diameter, attained on a candidate
    pair of :func:`_l1_farthest_pairs` (by the sign-vector identity
    ``||x||_1 = max over sigma of sigma . x``), and only those pairs are
    evaluated.
    """
    if m < 1 or m > _MAX_ORACLE_TOKENS:
        raise ValueError(f"oracle supports 1 <= M <= {_MAX_ORACLE_TOKENS}, got {m}")
    if t_star < 0.0 or cap < 0.0:
        raise ValueError("t_star and cap must be nonnegative")
    if t_star > m * cap + policy().tail_feasibility_tol:
        raise ValueError(
            f"infeasible: t_star {t_star!r} exceeds M*cap = {m * cap!r}"
        )
    if t_star == 0.0 or m == 1:
        return 0.0
    points = _extreme_allocations(t_star, cap, m)
    i, j = _l1_farthest_pairs(points)
    return float(0.5 * np.abs(points[i] - points[j]).sum(axis=1).max())


# -- the battery -----------------------------------------------------------


def oracle_battery(seed: int = 0) -> list[dict]:
    """All brute-force verification checks, each with a pass/fail status."""
    checks: list[dict] = []
    rng = np.random.default_rng(seed)

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append({"check": name, "status": "PASS" if ok else "FAIL",
                       "detail": detail})

    # closed-form diameter against the brute-force box oracle
    worst_gap = 0.0
    pair_gap = 0.0
    ok = True
    for i in range(12):
        v = int(rng.integers(3, 9))
        k = int(rng.integers(1, v))
        config = sim.SyntheticTeacherConfig(
            vocab_size=v, law=sim.GaussianIID(0.0, 2.0), seed=seed + i
        )
        z = sim.generate_teacher(config, 1)[0]
        geom = geo.geometry(sim.censor(z, k))
        oracle = brute_diameter_oracle(geom, 12, max_points=1024, seed=i)
        worst_gap = max(worst_gap, abs(oracle - geom.U_K))
        tv_pair = tv(point(geom, 0.0), point(geom, geom.U_K))
        pair_gap = max(pair_gap, abs(tv_pair - geom.U_K))
        ok = ok and abs(oracle - geom.U_K) <= 1e-3 and abs(tv_pair - geom.U_K) <= 1e-12
    record(
        "diameter_oracle",
        ok,
        f"max |oracle - U_K| = {worst_gap:.2e}, max extremal-pair gap = {pair_gap:.2e}",
    )

    # balancing oracle against the closed-form reserve
    gap = 0.0
    for u in np.geomspace(1e-4, 0.999, 25):
        s_star, r_bin = mm.reserve(float(u))
        s_hat, r_hat = balancing_oracle(float(u))
        gap = max(gap, abs(s_hat - s_star), abs(r_hat - r_bin))
    record("balancing_oracle", gap <= 1e-6, f"max deviation = {gap:.2e}")

    # envelope identity: defining form vs simplified form
    gap = 0.0
    for u in (0.05, 0.3, 0.5, 0.81, 0.98):
        s = u / math.e
        for t in np.linspace(0.0, u, 17):
            gap = max(
                gap,
                abs(g_envelope(u, float(t), s)
                    - _g_envelope_defining_form(u, float(t), s)),
            )
    record("envelope_identity", gap <= 1e-12, f"max |form gap| = {gap:.2e}")

    # ordering r_bin <= symmetric-estimator sup <= g_max
    ok = True
    detail = []
    for u in (0.05, 0.3, 0.7, 0.95):
        geom = geometry_with_diameter(u, 64)
        sup_kl, _ = mm.symmetric_sup(geom.M, geom.log_odds, geom.U_K)
        r_bin = mm.reserve(geom.U_K)[1]
        gmax, _ = mm.g_max(geom.U_K)
        ok = ok and (r_bin <= sup_kl + 1e-12) and (sup_kl <= gmax + 1e-6)
        detail.append(f"u={u}: {r_bin:.4f} <= {sup_kl:.4f} <= {gmax:.4f}")
    record("envelope_ordering", ok, "; ".join(detail))

    # exact symmetric-estimator sup against a brute breakpoint + grid scan
    gap = 0.0
    for u, m in ((0.05, 7), (0.3, 16), (0.7, 64), (0.95, 64)):
        geom = geometry_with_diameter(u, m)
        for s in (u / math.e, mm.reserve(u)[0], 0.02, 0.5, 0.98):
            sup_kl, _ = mm.symmetric_sup(geom.M, geom.log_odds, geom.U_K, s)
            scan = breakpoint_scan_oracle(geom.M, geom.log_odds, s)
            gap = max(gap, abs(sup_kl - scan))
    record("sup_breakpoint_scan", gap <= 1e-10, f"max |sup - scan| = {gap:.2e}")

    # reference shrinkage against the box-constrained oracle
    ok = True
    worst_gap = 0.0
    for i in range(8):
        v = int(rng.integers(4, 9))
        k = int(rng.integers(1, v - 1))
        config = sim.SyntheticTeacherConfig(
            vocab_size=v, law=sim.GaussianIID(0.0, 1.5), seed=seed + 100 + i
        )
        z = sim.generate_teacher(config, 1)[0]
        geom = geo.geometry(sim.censor(z, k))
        rlogits = ref.ReferenceLogits(dense=z + rng.normal(0.0, 0.5, size=v))
        rb = ref.reference_geometry(geom, rlogits, float(rng.uniform(0.0, 2.0)))
        oracle = reference_diameter_oracle(geom, rb, 10, max_points=1024, seed=i)
        worst_gap = max(worst_gap, abs(oracle - rb.U_R))
        ok = ok and abs(oracle - rb.U_R) <= 1e-3 and rb.U_R <= geom.U_K + 1e-12
    record("reference_box_oracle", ok, f"max |oracle - U_R| = {worst_gap:.2e}")

    # allocation oracle on the normalized-access cap polytope, and the
    # closed-form diameter against it across all three regimes
    d1 = allocation_diameter_oracle(0.2, 0.1, 10)
    d2 = allocation_diameter_oracle(0.2, 0.15, 2)
    d3 = allocation_diameter_oracle(0.15, 0.2, 1)
    gap = 0.0
    cap = 0.07
    for m in range(1, 13):
        for q in (0.5, 1.0, m - 2.0, m - 1.25, m - 0.5):
            if q >= 0.0:
                t_star = q * cap
                closed = norm.allocation_diameter(t_star, cap, m)
                brute = allocation_diameter_oracle(t_star, cap, m)
                gap = max(gap, abs(closed - brute))
    ok = abs(d1 - 0.2) <= 1e-3 and d2 < 0.2 and d3 == 0.0 and gap <= 1e-12
    detail = f"disjoint: {d1:.4f}, capped: {d2:.4f}, single: {d3:.4f}"
    if gap > 1e-12:
        detail += f", max |closed form - oracle| = {gap:.2e}"
    record("allocation_oracle", ok, detail)

    # composition separability: literal joint adversary over every
    # position's sup-candidate profile against the factored sum
    geoms = [geometry_with_diameter(u, 32) for u in (0.1, 0.3, 0.5)]
    _, _, factored_sum = sim.average_risk(
        [mm.reserve(g.U_K)[1] for g in geoms],
        [mm.symmetric_sup(g.M, g.log_odds, g.U_K)[0] for g in geoms],
    )
    profiles = [
        [risk for risk, _ in mm._sup_candidates(
            g.M, g.log_odds, g.U_K, g.U_K * mm._INV_E)]
        for g in geoms
    ]
    joint_sup = float(reduce(np.add.outer, profiles).max()) / len(geoms)
    gap = abs(joint_sup - factored_sum)
    record("composition_separability", gap <= 1e-9, f"|joint - factored| = {gap:.2e}")

    # small-diameter expansions of the reserve and the lower bound
    ok = True
    for u in np.linspace(0.01, 0.5, 25):
        s_star, r_bin = mm.reserve(float(u))
        ok = ok and abs(s_star - u / math.e) <= u * u
        if u <= 0.3:
            resid = abs(r_bin - u / math.e - mm.SECOND_ORDER_COEFF * u * u)
            ok = ok and resid <= u**3
    record("expansion_bounds", ok, "reserve and lower-bound expansions hold")

    return checks
