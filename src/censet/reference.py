"""Reference-model shrinkage of the compatible set.

A known base model plus a bounded fine-tuning margin ``rho`` tightens the
per-token score ceiling from ``tau`` to ``min(tau, z_ref(u) + rho)`` on each
censored token u.  Writing ``B_u`` for the exponential of that ceiling and
``C_R`` for their sum, the shrunken diameter is

    U_R = C_R / (Z_A + C_R) <= U_K,

with the extremal tail allocating ``U_R * B_u / C_R`` per token.  The margin
is checkable only on revealed tokens; :func:`calibrate_rho` reports that
diagnostic without ever adjusting the bound itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Sequence

import numpy as np
from scipy.special import expit, logsumexp

from .identified_set import FeasiblePoint, SetGeometry
from .minimax import _INV_E, EstimatorSpec
from .observation import (
    ParseError,
    _check_json_kind,
    _check_position_id,
    _json_floats,
    _read_jsonl,
)


class CoverageError(ValueError):
    """A censored token has no reference value and no default was given."""


@dataclass(frozen=True, eq=False)
class ReferenceLogits:
    """Reference scores for one position: dense vector or sparse map.

    Sparse maps require an explicit ``default`` (may be ``-inf``); a silent
    zero default would smuggle in an arbitrary scale choice.
    """

    position_id: str = ""
    dense: np.ndarray | None = None
    entries: dict[int, float] | None = None
    default: float | None = None

    def __post_init__(self):
        if (self.dense is None) == (self.entries is None):
            raise ValueError("provide exactly one of dense or entries")

    def gather(self, ids: np.ndarray, vocab_size: int) -> np.ndarray:
        if self.dense is not None:
            values = np.asarray(self.dense, dtype=float)
            if len(values) != vocab_size:
                raise CoverageError(
                    f"dense reference has length {len(values)}, "
                    f"expected vocab_size {vocab_size}"
                )
            return values[ids]
        out = np.empty(len(ids))
        for i, u in enumerate(ids):
            if int(u) in self.entries:
                out[i] = self.entries[int(u)]
            elif self.default is not None:
                out[i] = self.default
            else:
                raise CoverageError(
                    f"no reference value for token {int(u)} and no default"
                )
        return out


@dataclass(frozen=True, eq=False)
class ReferenceBound:
    """Per-token ceilings and the resulting shrunken diameter."""

    rho: float
    censored_ids: np.ndarray
    log_ceilings: np.ndarray
    log_CR: float
    log_ZA: float
    U_R: float

    @property
    def log_odds(self) -> float:
        return self.log_CR - self.log_ZA

    @cached_property
    def beta(self) -> np.ndarray:
        """Ceiling-proportional tail weights B_u / C_R."""
        if math.isinf(self.log_CR) and self.log_CR < 0:
            return np.zeros(len(self.censored_ids))
        return np.exp(self.log_ceilings - self.log_CR)


def reference_geometry(
    geom: SetGeometry, ref: ReferenceLogits, rho: float
) -> ReferenceBound:
    """Shrunken geometry under per-token ceilings min(tau, z_ref(u) + rho).

    The reference scores must share the observation's additive scale; that
    alignment is the caller's responsibility.  A reference score of -inf
    forbids the token outright, regardless of rho.
    """
    if rho < 0.0 or math.isnan(rho):
        raise ValueError(f"rho must be nonnegative, got {rho!r}")
    if geom.M == 0:
        return ReferenceBound(
            rho=rho,
            censored_ids=np.empty(0, dtype=int),
            log_ceilings=np.empty(0),
            log_CR=-math.inf,
            log_ZA=geom.log_ZA,
            U_R=0.0,
        )
    ids = geom.censored_ids
    z_ref = ref.gather(ids, geom.vocab_size)
    ceilings = np.where(
        np.isneginf(z_ref), -math.inf, np.minimum(geom.tau, z_ref + rho)
    )
    log_cr = float(logsumexp(ceilings))
    u_r = float(expit(log_cr - geom.log_ZA)) if math.isfinite(log_cr) else 0.0
    return ReferenceBound(
        rho=rho,
        censored_ids=ids,
        log_ceilings=ceilings,
        log_CR=log_cr,
        log_ZA=geom.log_ZA,
        U_R=u_r,
    )


def reference_estimator(
    geom: SetGeometry, rb: ReferenceBound, s: float | None = None
) -> EstimatorSpec:
    """Estimator reserving mass ``s`` split proportionally to the ceilings.

    Default reserve is U_R / e.  With U_R = 0 the reference forbids the
    entire tail and the head conditional is returned exactly.
    """
    if rb.U_R == 0.0:
        return EstimatorSpec(s=0.0, tail_weights=None)
    if s is None:
        s = rb.U_R * _INV_E
    if not 0.0 < s < 1.0:
        raise ValueError(f"reserve must lie in (0, 1), got {s!r}")
    return EstimatorSpec(s=float(s), tail_weights=rb.beta)


def reference_extremal_pair(
    geom: SetGeometry, rb: ReferenceBound
) -> tuple[FeasiblePoint, FeasiblePoint]:
    """Zero-tail point and the ceiling-saturating tail at mass U_R."""
    if geom.M == 0:
        raise ValueError("compatible set is a single point; no extremal pair")
    tail = {
        int(u): rb.U_R * w
        for u, w in zip(rb.censored_ids, rb.beta)
        if w > 0.0
    }
    return FeasiblePoint(t=0.0), FeasiblePoint(t=rb.U_R, tail=tail)


@dataclass(frozen=True)
class RhoDiagnostics:
    """Empirical distribution of teacher-minus-reference score gaps.

    Computed on revealed tokens only; compliance on censored tokens is not
    testable from a censored observation, so this is a structural prior
    diagnostic, not a guarantee.
    """

    n: int
    max_perturbation: float
    median_perturbation: float
    quantiles: tuple[tuple[float, float], ...]
    exceed_fraction: tuple[tuple[float, float], ...]
    anchored: bool
    note: str = (
        "structural prior diagnostic on revealed tokens; "
        "not a guarantee for censored tokens"
    )


_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def calibrate_rho(
    observed_pairs: Sequence[tuple[float, float]],
    candidate_rhos: Sequence[float] = (0.5, 1.0, 2.0, 5.0),
    anchor_index: int | None = None,
) -> RhoDiagnostics:
    """Margin diagnostics from (teacher score, reference score) pairs.

    ``anchor_index`` optionally re-anchors the two shift-arbitrary scales so
    that the gap at that pair is zero before differencing; the report
    records whether anchoring was applied.
    """
    if len(observed_pairs) < 2:
        raise ValueError(
            f"need at least 2 observed pairs, got {len(observed_pairs)}"
        )
    diffs = np.array([zt - zr for zt, zr in observed_pairs], dtype=float)
    anchored = anchor_index is not None
    if anchored:
        diffs = diffs - diffs[anchor_index]
    return RhoDiagnostics(
        n=len(diffs),
        max_perturbation=float(diffs.max()),
        median_perturbation=float(np.median(diffs)),
        quantiles=tuple(
            (q, float(np.quantile(diffs, q))) for q in _QUANTILES
        ),
        exceed_fraction=tuple(
            (float(r), float(np.mean(diffs > r))) for r in candidate_rhos
        ),
        anchored=anchored,
    )


def parse_reference_dump(source: str | bytes | IO) -> dict[str, ReferenceLogits]:
    """Parse a reference dump keyed by position id.

    One JSON record per line, either
    ``{"position_id": ..., "dense": [V scores]}`` or
    ``{"position_id": ..., "default": score or "-inf",
    "entries": [{"token": id, "logit": score}, ...]}``.  Tokens must be JSON
    integers, scores JSON numbers and ``position_id`` a JSON string; a
    repeated ``position_id`` is an error, never a silent overwrite.
    """
    out: dict[str, ReferenceLogits] = {}
    for lineno, record in _read_jsonl(source):
        if "position_id" not in record:
            raise ParseError(lineno, "record must carry a position_id")
        pid = record["position_id"]
        _check_position_id(pid, lineno, out)
        if "dense" in record:
            dense = record["dense"]
            if not isinstance(dense, list):
                raise ParseError(lineno, "dense must be a list of scores")
            ref = ReferenceLogits(
                position_id=pid, dense=_json_floats(dense, "dense score", lineno)
            )
        elif "entries" in record:
            default = record.get("default")
            if default == "-inf":
                default = -math.inf
            elif default is not None:
                default = float(_json_floats([default], "default", lineno)[0])
            try:
                tokens = [e["token"] for e in record["entries"]]
                logits = [e["logit"] for e in record["entries"]]
            except (KeyError, TypeError) as exc:
                raise ParseError(lineno, f"malformed entries ({exc!r})") from exc
            _check_json_kind(tokens, "integer", "token", lineno)
            logits = _json_floats(logits, "logit", lineno).tolist()
            ref = ReferenceLogits(
                position_id=pid, entries=dict(zip(tokens, logits)), default=default
            )
        else:
            raise ParseError(lineno, "record needs dense or entries")
        out[pid] = ref
    return out
