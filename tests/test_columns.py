"""Column kernels: entry i of a column call is the one-row call on row i, bit
for bit, whatever else the column holds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from censet.identified_set import diameter, token_cap
from censet.minimax import certificate, g_max, reserve, symmetric_sup
from censet.normalized import allocation_diameter, tail_geometry
from censet.numerics import expit

# M exact only as an int past 2^53, mixed with small counts in one column
M_VALUES = (0, 1, 2, 2**53 - 1, 2**53 + 7, 2**64 - 1)
ms = st.sampled_from(M_VALUES) | st.integers(1, 10**6)
positive_ms = ms.filter(bool)
SPECIAL_U = (0.0, 5e-324, 1.0 - 2.0**-53, 1.0)
us = st.sampled_from(SPECIAL_U) | st.floats(0.0, 1.0)
open_us = st.sampled_from(SPECIAL_U[1:3]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)
# scores and thresholds down to where U_K underflows to 0
taus = st.floats(-800.0, 0.0)
log_heads = st.sampled_from((0.0, -0.0, -1e-17, -5e-324)) | st.floats(-50.0, 0.0)
reserves = st.sampled_from((1e-300, 0.5, 1.0 - 2.0**-53)) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)
ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    return getattr(value, "value", value)


def _outcome(call):
    try:
        out = call()
    except ERRORS as exc:
        return type(exc)
    return [_bits(x) for x in (out if isinstance(out, tuple) else (out,))]


def assert_rows_match(kernel, columns, rows):
    """``kernel`` over ``columns`` against ``kernel`` of each of ``rows``."""
    expected = [_outcome(lambda row=row: kernel(*row)) for row in rows]
    failures = tuple(e for e in expected if isinstance(e, type))
    try:
        out = kernel(*columns)
    except ERRORS as exc:
        assert failures and isinstance(exc, failures)
        return
    assert not failures
    out = out if isinstance(out, tuple) else (out,)
    entries = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in out]
    for i, one_row in enumerate(expected):
        assert [_bits(c[i]) for c in entries] == one_row


def _floats(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(ms, taus, st.floats(-2.0, 3.0)), min_size=1, max_size=12))
def test_diameter(rows):
    m, tau, log_za = zip(*rows)
    assert_rows_match(diameter, (list(m), _floats(tau), _floats(log_za)), rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(positive_ms, taus, us), min_size=1, max_size=12))
def test_token_cap(rows):
    rows = [(diameter(m, tau, 0.0)[1], m, t) for m, tau, t in rows]
    log_odds, m, t = zip(*rows)
    assert_rows_match(token_cap, (_floats(log_odds), list(m), _floats(t)), rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(us, min_size=1, max_size=12))
def test_reserve_and_certificate(u):
    rows = [(x,) for x in u]
    assert_rows_match(reserve, (_floats(u),), rows)
    assert_rows_match(certificate, (_floats(u),), rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(open_us, min_size=1, max_size=12))
def test_g_max(u):
    assert_rows_match(g_max, (_floats(u),), [(x,) for x in u])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(ms, taus, st.sampled_from((None, *SPECIAL_U))),
             min_size=1, max_size=12),
    st.none() | st.lists(reserves | st.just(0.0), min_size=12, max_size=12),
)
def test_symmetric_sup(cells, s):
    """Diameters of drawn (M, tau) cells, some replaced by a special U_K,
    at the default reserve or at explicit ones."""
    rows = []
    for m, tau, u in cells:
        u_k, log_odds = diameter(m, tau, 0.0)
        rows.append((m, log_odds, u_k if u is None else u))
    if s is not None:
        rows = [(*row, r) for row, r in zip(rows, s)]
    m, log_odds, u, *reserve_column = zip(*rows)
    columns = (list(m), _floats(log_odds), _floats(u), *map(_floats, reserve_column))
    assert_rows_match(symmetric_sup, columns, rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(log_heads, taus, ms), min_size=1, max_size=12))
def test_tail_geometry(rows):
    log_head, tau, m = zip(*rows)
    assert_rows_match(tail_geometry, (_floats(log_head), _floats(tau), list(m)), rows)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), ms),
                min_size=1, max_size=12))
def test_allocation_diameter(rows):
    t_star, cap, m = zip(*rows)
    assert_rows_match(allocation_diameter, (_floats(t_star), _floats(cap), list(m)),
                      rows)


@given(st.lists(st.floats(allow_nan=True), min_size=1, max_size=12))
def test_expit(x):
    assert [v.hex() for v in expit(_floats(x)).tolist()] == [
        expit(v).hex() for v in x]


def test_empty_columns():
    empty = np.empty(0)
    assert [c.size for c in diameter([], empty, empty)] == [0, 0]
    assert [c.size for c in certificate(empty)] == [0] * 5
    assert [c.size for c in symmetric_sup([], empty, empty)] == [0, 0]
    assert [len(c) for c in tail_geometry(empty, empty, [])] == [0] * 4


def test_every_row_identified():
    # no row reaches the breakpoints: M = 0, or U_K underflowed to 0
    m, log_odds, u = [0, 5], _floats([-math.inf, -800.0]), _floats([0.0, 0.0])
    assert [c.tolist() for c in symmetric_sup(m, log_odds, u)] == [[0.0, 0.0]] * 2
    assert [c.tolist() for c in certificate(u)] == [[0.0, 0.0]] * 5


def test_scalar_results_are_python_values():
    for value in (*reserve(0.3), *certificate(0.3), *symmetric_sup(8, 0.0, 0.5),
                  *diameter(5, -1.0, 0.5), token_cap(0.2, 5, 0.1)):
        assert type(value) is float
    *values, condition, _ = tail_geometry(math.log(0.9), math.log(0.01), 30)
    assert condition.value == "DisjointSupports"
    assert all(type(v) is float for v in values)
