"""The numeric policy and the kernels every module shares.

All tolerance knobs live in one frozen :class:`NumericPolicy`, read with
:func:`policy` and set for a scope with :func:`use_policy`.  The CLI runs
each command under the caller's policy with the overrides of a JSON file
(env var ``CENSET_NUMERIC_POLICY``) applied; no policy is ever mutated.

:func:`logsumexp_rows` is the one log-sum-exp kernel, over the rows of a
matrix (:func:`logsumexp` is its one-row case), and :func:`expit` is the
sigmoid.  Each reproduces SciPy's ``special`` function of that name bit
for bit, row by row, at a fraction of the per-call cost, so the analysis
commands need numpy alone.

The closed forms of :mod:`~censet.identified_set`, :mod:`~censet.minimax`
and :mod:`~censet.normalized` are column kernels, run through
:func:`columns`: one call evaluates every row of a batch, and a call with
scalars is the one-row case of the same code.  A column's entries equal
the scalar formula's bit for bit, by two rules.

- *Exactness.*  Every ``log``, ``log1p``, ``exp`` and ``expm1`` is
  ``math``'s (the C library's), applied entry by entry by :func:`libm`:
  numpy's own ufuncs differ from it in the last bit on a few percent of
  inputs.  numpy does only what IEEE arithmetic rounds exactly, each step
  in the scalar expression's order: ``+ - * /``, ``abs``, comparisons and
  ``where``, plus the ``logaddexp`` of ``minimax.reserve``.
  A Python ``min(a, b)`` is ``where(b < a, b, a)`` and ``max(a, b)``
  ``where(b > a, b, a)``, which keep its choice on NaN and signed zeros.
  The one ``OverflowError`` caught is that of :func:`expit`'s ``exp``.
- *Integer M.*  Every quantity derived from the number M of censored
  tokens is computed on Python ints: ``log M``, ``n / M``, ``n >= M``,
  ``M // 2``, the sup's candidate counts and the normalized regime's
  ``M >= 2 ceil(t*/c)``.  A float64 M is inexact above 2^53, where the
  scalar formulas still read M exactly; ``x / M`` divides by ``float(M)``,
  as Python does.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NumericPolicy:
    # admissibility of a normalized head mass: reject above 1 + head_mass_tol
    head_mass_tol: float = 1e-9
    # slack on identified-set membership checks (tail mass, per-token caps)
    membership_tol: float = 1e-12
    # feasibility slack for normalized access: t* <= M*c + tail_feasibility_tol
    tail_feasibility_tol: float = 1e-9
    # |R_bin - delta| band inside which a verdict is flagged THRESHOLD
    verdict_margin: float = 1e-3


_POLICY = ContextVar("censet_numeric_policy", default=NumericPolicy())


def policy() -> NumericPolicy:
    """The policy in force in the current context."""
    return _POLICY.get()


@contextmanager
def use_policy(value: NumericPolicy):
    """Make ``value`` the policy in force until the block exits."""
    token = _POLICY.set(value)
    try:
        yield
    finally:
        _POLICY.reset(token)


def _unique_keys(pairs):
    for i, (key, _) in enumerate(pairs):
        if any(key == seen for seen, _ in pairs[:i]):
            raise ValueError(f"duplicate numeric policy field: {key!r}")
    return dict(pairs)


def load_policy_file(path: str) -> NumericPolicy:
    """The current policy with the overrides in the JSON file at ``path``.

    The file maps known fields, each at most once, to finite non-negative
    JSON numbers (a negative tolerance would switch its check off); a bad
    file raises ``ValueError``, so its overrides apply all or none.  A file
    that is not UTF-8 or not JSON at all gets an error naming the file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            overrides = json.load(handle, object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            what = "UTF-8" if isinstance(exc, UnicodeDecodeError) else "JSON"
            raise ValueError(
                f"numeric policy file {path!r} (CENSET_NUMERIC_POLICY) is not "
                f"valid {what}: {exc}"
            ) from exc
    if not isinstance(overrides, dict):
        raise ValueError("numeric policy overrides must be a JSON object")
    valid = {f.name for f in dataclasses.fields(NumericPolicy)}
    for key, value in overrides.items():
        if key not in valid:
            raise ValueError(f"unknown numeric policy field: {key!r}")
        # a JSON number: not a bool or string, finite and >= 0 (NaN fails <=)
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max
        ):
            raise ValueError(
                f"numeric policy field {key!r} must be a finite non-negative "
                f"JSON number, got {value!r}"
            )
    overrides = {key: float(value) for key, value in overrides.items()}
    return dataclasses.replace(policy(), **overrides)


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` over a 1-D array: :func:`logsumexp_rows` of the
    array as one row, and -inf for an empty array."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    return float(logsumexp_rows(a.reshape(1, -1))[0])


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(row)))`` of each row of a 2-D float64 array, each equal
    to SciPy's ``logsumexp`` of the row.

    The real-input algorithm of SciPy 1.17, the max-separated form of
    Blanchard, Higham & Higham, "Accurately computing the log-sum-exp and
    softmax functions" (IMA J. Numer. Anal. 41(4), 2021): with ``m``
    entries of a row equal to its maximum ``a_max`` and ``s`` the sum of
    the other entries' ``exp(a - a_max)``, divided by ``m`` when nonzero,
    the result is ``log1p(s) + log(m) + a_max``.  Each step is the numpy
    ufunc SciPy applies, here over the whole matrix: the maxima stay in the
    sum as zeros and a sum over axis 1 groups each row's terms as SciPy's
    1-D sum does, so the two are equal to the bit (``s / 1 = s`` and
    ``x + log(1) = x`` for ``x >= 0``).  The rows may be in any order and
    may be a view such as a prefix of columns.  A row whose result is not
    finite is ``log(sum(exp(row)))``, as in SciPy: nan if an entry is nan,
    else inf if one is +inf or the sum overflows, and -inf for an all
    ``-inf`` row.
    """
    a_max = a.max(axis=1)
    # only a row with a nan, an infinity or an overflowing spread can warn
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a == a_max[:, None]
        terms = np.subtract(a, a_max[:, None], order="C")
        np.exp(terms, out=terms)
        terms[top] = 0.0
        m = np.add.reduce(top, axis=1, dtype=np.float64)
        out = np.log1p(np.add.reduce(terms, axis=1) / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.add.reduce(np.exp(a[bad]), axis=1))
    return out


def libm(f: Callable[[float], float], values) -> np.ndarray:
    """``f`` (a function of ``math``) of each entry of a float array or of a
    list of numbers, Python ints included, as a float64 column."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return np.fromiter(map(f, values), np.float64, len(values))


def columns(kernel: Callable, *args):
    """``kernel(*args)`` over columns, or over one row of scalars.

    A call whose first argument is a list or an array passes its columns
    through.  Otherwise every argument but None becomes a column of one
    entry, and each result column comes back as its entry, a Python value,
    in the same tuple or named tuple.  The kernel runs with numpy's float
    warnings off: Python's float arithmetic, which it stands for, gives
    infinities and NaN silently too.
    """
    with np.errstate(all="ignore"):
        if isinstance(args[0], (list, np.ndarray)):
            return kernel(*args)
        out = kernel(*(None if a is None else [a] for a in args))
    if not isinstance(out, tuple):
        return _entry(out)
    entries = [_entry(column) for column in out]
    return out._make(entries) if hasattr(out, "_make") else tuple(entries)


def _entry(column):
    return column.item() if isinstance(column, np.ndarray) else column[0]


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def expit(x):
    """The logistic sigmoid ``1 / (1 + exp(-x))`` of a float, or of each
    entry of a float array, equal to SciPy's ``expit``.

    An ``exp(-x)`` beyond the float range gives 0.0, as SciPy's does.
    """
    if isinstance(x, np.ndarray):
        try:
            exp = libm(math.exp, -x)
        except OverflowError:
            exp = libm(_exp_or_inf, -x)
        return 1.0 / (1.0 + exp)
    return 1.0 / (1.0 + _exp_or_inf(-x))
