"""The numpy log-sum-exp and sigmoid kernels against SciPy, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from censet.numerics import expit, logsumexp, logsumexp_rows

# the kernels reproduce the algorithms of SciPy 1.17; older releases differ
pytest.importorskip("scipy", minversion="1.17")
special = pytest.importorskip("scipy.special")


def same(x: float, y: float) -> bool:
    """Bitwise equality of two floats, any nan equal to any nan."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def scipy_logsumexp(a) -> float:
    with np.errstate(all="ignore"):
        return float(special.logsumexp(np.asarray(a, dtype=np.float64)))


def assert_lse_matches(a) -> None:
    a = np.asarray(a, dtype=np.float64)
    ours, theirs = logsumexp(a), scipy_logsumexp(a)
    assert type(ours) is float
    assert same(ours, theirs), (a, ours, theirs)


# values that stress the max separation, its ties and the non-finite paths
SPECIALS = (0.0, -0.0, 1.0, -1.0, 700.0, -745.0, 1e308, -1e308,
            math.inf, -math.inf, math.nan)

finite_scores = st.floats(-1e4, 1e4, allow_nan=False)
any_scores = st.one_of(
    finite_scores,
    st.integers(-20, 20).map(float),
    st.sampled_from(SPECIALS),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestLogsumexp:
    @given(st.lists(any_scores, min_size=1, max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy(self, values):
        assert_lse_matches(values)

    @given(st.lists(finite_scores, min_size=1, max_size=300), st.data())
    @settings(max_examples=300, deadline=None)
    def test_ties_at_the_max(self, values, data):
        a = np.asarray(values)
        tied = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1))
        a[tied] = a.max()
        assert_lse_matches(a)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 20, 128, 129, 4096, 32_000])
    def test_fixed_lengths(self, n):
        rng = np.random.default_rng(n)
        normal = rng.normal(0.0, 3.0, n)
        rows = [
            normal,
            normal - 800.0,
            np.round(rng.normal(0.0, 2.0, n)),   # integer-valued, many ties
            np.full(n, 2.5),                     # all equal
            rng.uniform(-1.0, 1.0, n) * 1e308,   # spreads overflow the shift
            np.full(n, -math.inf),
        ]
        for special_value in SPECIALS:
            row = normal.copy()
            row[rng.integers(n)] = special_value
            rows.append(row)
        tied = normal.copy()
        tied[rng.integers(n, size=3)] = normal.max() + 1.0
        rows.append(tied)
        for row in rows:
            assert_lse_matches(row)

    @pytest.mark.parametrize(
        "values",
        [
            [math.inf], [-math.inf], [math.nan], [math.inf, -math.inf],
            [math.inf, math.inf], [math.inf, math.nan], [-math.inf, math.nan],
            [1e308, 1e308], [1e308, -1e308], [-1e308, 1e308],
            [0.0, -0.0], [-0.0], [-math.inf, 2.0, 2.0], [3.0, 3.0, 3.0],
        ],
    )
    def test_edge_rows(self, values):
        assert_lse_matches(values)

    def test_empty_is_minus_infinity(self):
        assert logsumexp(np.empty(0)) == scipy_logsumexp(np.empty(0)) == -math.inf

    def test_quiet_on_non_finite_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in ([1e308, -1e308], [math.inf, 1.0], [-math.inf] * 3,
                           [math.nan, 0.0]):
                logsumexp(np.asarray(values))


def assert_rows_match(a) -> None:
    """:func:`logsumexp_rows` of ``a`` against SciPy's 1-D ``logsumexp`` of
    each row, bit for bit, and quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = logsumexp_rows(a)
    assert ours.shape == (a.shape[0],) and ours.dtype == np.float64
    for row, got in zip(a, ours.tolist()):
        want = scipy_logsumexp(row)
        assert same(got, want), (row, got, want)


matrices = arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(1, 40)),
    elements=any_scores,
)


class TestLogsumexpRows:
    @given(matrices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_scipy(self, a, data):
        assert_rows_match(a)
        assert_rows_match(np.asfortranarray(a))
        # the parse's order: each row by score, non-increasing
        assert_rows_match(-np.sort(-a, axis=1))
        k = data.draw(st.integers(1, a.shape[1]))
        assert_rows_match(a[:, :k])

    @given(st.lists(any_scores, min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_one_row_and_one_column(self, values):
        a = np.asarray(values, dtype=np.float64)
        assert_rows_match(a.reshape(1, -1))
        assert_rows_match(a.reshape(-1, 1))
        # a column of a wider matrix is a strided view
        assert_rows_match(np.stack([a, a + 1.0], axis=1)[:, :1])

    @given(st.integers(1, 8), st.lists(finite_scores, min_size=2, max_size=60),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_ties_at_the_max(self, n, values, data):
        a = np.tile(np.asarray(values), (n, 1))
        for row in a:
            tied = data.draw(st.lists(st.integers(0, len(row) - 1), min_size=1))
            row[tied] = row.max()
            data.draw(st.randoms()).shuffle(row)
        assert_rows_match(a)

    def test_every_special_pair(self):
        # each ordered pair of SPECIALS, alone and beside ordinary scores
        pairs = np.array([(x, y) for x in SPECIALS for y in SPECIALS])
        assert_rows_match(pairs)
        normal = np.random.default_rng(0).normal(0.0, 3.0, (len(pairs), 20))
        assert_rows_match(np.concatenate([normal, pairs, normal], axis=1))

    @pytest.mark.parametrize("width", [9, 129, 300])
    def test_column_major_rows_sum_in_row_order(self, width):
        # a transposed matrix reduced along its strided axis would sum each
        # row in another grouping than SciPy's 1-D sum
        a = np.random.default_rng(width).normal(0.0, 3.0, (width, 50)).T
        assert a.flags.f_contiguous
        assert_rows_match(a)


def assert_expit_matches(x: float) -> None:
    ours, theirs = expit(x), float(special.expit(x))
    assert type(ours) is float
    assert same(ours, theirs), (x, ours, theirs)


class TestExpit:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=1000, deadline=None)
    def test_matches_scipy(self, x):
        assert_expit_matches(x)

    @given(st.floats(-800.0, 800.0))
    @settings(max_examples=1000, deadline=None)
    def test_matches_scipy_across_the_saturation(self, x):
        assert_expit_matches(x)

    @pytest.mark.parametrize(
        "x",
        [709.78, -709.78, 745.0, -745.0, 710.0, -710.0, math.inf, -math.inf,
         math.nan, -0.0, 0.0, 5e-324, -5e-324, 36.7, -36.7],
    )
    def test_edge_values(self, x):
        assert_expit_matches(x)

