"""Checks on every report the benchmark makes the CLI write.

``judge`` returns the list of problems with one command's result: a nonzero
exit, a wrong row count, a broken invariant, a disagreement with the values
computed independently at input generation, or report bytes that differ
from an earlier repetition of the same command in the run (the CLI promises
byte-reproducible reports).  ``self_test`` feeds corrupted copies of real
reports through ``judge`` and lists every corruption it failed to flag.
"""

from __future__ import annotations

import hashlib
import json
import math

from censet.minimax import IMPOSSIBLE, OPEN, THRESHOLD
from censet.numerics import NumericPolicy

# invariant slack, as the CLI's own oracle battery states the ordering
ORDER_TOL = 1e-12
GMAX_TOL = 1e-6
# relative agreement with the benchmark's own numpy evaluation
MATCH_RTOL = 1e-12
# the oracle battery's checks; a report may add checks but not drop these
ORACLE_CHECKS = frozenset({
    "diameter_oracle", "balancing_oracle", "envelope_identity", "envelope_ordering",
    "reference_box_oracle", "allocation_oracle", "composition_separability",
    "expansion_bounds",
})
SWEEP_HEADER = "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n"
MAX_MESSAGES = 5


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_RTOL * max(abs(a), abs(b), 1e-300)


def _rows_count(rows, expected: int, errs: list) -> bool:
    if len(rows) != expected:
        errs.append(f"{len(rows)} rows, expected {expected}")
        return False
    return True


def _check_uk(i, row, exp, errs) -> None:
    u = row["U_K"]
    if not 0.0 <= u <= 1.0:
        errs.append(f"row {i}: U_K={u!r} outside [0, 1]")
    elif not _close(u, exp["U_K"][i]):
        errs.append(f"row {i}: U_K={u!r}, independent value {exp['U_K'][i]!r}")


def _analyze(body, exp, errs) -> None:
    rows = body["rows"]
    if not _rows_count(rows, exp["positions"], errs):
        return
    for i, r in enumerate(rows):
        _check_uk(i, r, exp, errs)
        if not r["r_bin"] <= r["sup_kl"] + ORDER_TOL:
            errs.append(f"row {i}: r_bin={r['r_bin']!r} > sup_kl={r['sup_kl']!r}")
        if not r["sup_kl"] <= r["g_max"] + GMAX_TOL:
            errs.append(f"row {i}: sup_kl={r['sup_kl']!r} > g_max={r['g_max']!r}")


def _certify(body, exp, errs, delta: float) -> None:
    rows = body["rows"]
    if not _rows_count(rows, exp["positions"], errs):
        return
    margin = NumericPolicy().verdict_margin
    for i, r in enumerate(rows):
        _check_uk(i, r, exp, errs)
        rb = r["r_bin"]
        if abs(rb - delta) <= margin:
            want = THRESHOLD
        elif rb > delta:
            want = IMPOSSIBLE
        else:
            want = OPEN
        if r["delta"] != delta or r["verdict"] != want:
            errs.append(f"row {i}: verdict {r['verdict']} at r_bin={rb!r}, "
                        f"delta={r['delta']!r}; expected {want}")


def _compose(body, exp, errs) -> None:
    rows = body["rows"]
    if not _rows_count(rows, exp["positions"], errs):
        return
    for i, r in enumerate(rows):
        _check_uk(i, r, exp, errs)
        if not r["r_bin"] <= r["sup_kl"] + ORDER_TOL:
            errs.append(f"row {i}: r_bin={r['r_bin']!r} > sup_kl={r['sup_kl']!r}")
    lower = math.fsum(r["r_bin"] for r in rows) / len(rows)
    upper = math.fsum(r["sup_kl"] for r in rows) / len(rows)
    if not (_close(body["avg_lower"], lower) and _close(body["avg_upper"], upper)):
        errs.append("avg_lower/avg_upper disagree with the per-position rows")
    if not body["avg_lower"] <= body["avg_upper"] + ORDER_TOL:
        errs.append("avg_lower > avg_upper")


def _reference(body, exp, errs) -> None:
    rows = body["rows"]
    if not _rows_count(rows, exp["positions"], errs):
        return
    for i, r in enumerate(rows):
        _check_uk(i, r, exp, errs)
        if not 0.0 <= r["U_R"] <= r["U_K"]:
            errs.append(f"row {i}: U_R={r['U_R']!r} outside [0, U_K={r['U_K']!r}]")


def _sweep_rows(rows, exp, errs, ks) -> None:
    if not _rows_count(rows, len(ks), errs):
        return
    for r, k, want in zip(rows, ks, exp["uk_mean"]):
        if r["K"] != k or r["n"] != exp["positions"]:
            errs.append(f"K={r['K']}: n={r['n']}, expected K={k}, n={exp['positions']}")
        elif not _close(r["uk_mean"], want):
            errs.append(f"K={k}: uk_mean={r['uk_mean']!r}, independent value {want!r}")


def _ksweep(text: str, exp, errs, ks) -> None:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        errs.append("missing sweep CSV header")
        return
    rows = []
    for line in lines[1:]:
        k, uk_mean, _, _, _, n = line.split(",")
        rows.append({"K": int(k), "uk_mean": float(uk_mean), "n": int(n)})
    _sweep_rows(rows, exp, errs, ks)


def _simulate(body, exp, errs, ks) -> None:
    rows = body["rows"]
    _sweep_rows(rows, exp, errs, ks)
    for r in rows:
        if not r["rbin_mean"] <= r["sup_kl_mean"] + ORDER_TOL:
            errs.append(f"K={r['K']}: rbin_mean > sup_kl_mean")


def _oracle(body, errs) -> None:
    rows = body["rows"]
    missing = ORACLE_CHECKS - {r["check"] for r in rows}
    if missing:
        errs.append(f"oracle checks missing: {sorted(missing)}")
    errs.extend(f"oracle check {r['check']} failed" for r in rows if r["status"] != "PASS")


def judge(name: str, exit_code, data: bytes | None, exp: dict | None,
          ks=(), delta: float = 0.0, reference_digest: str | None = None) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    errs: list[str] = []
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if data is None:
        return ["no report written"]
    if reference_digest is not None and digest(data) != reference_digest:
        errs.append("report bytes differ from an earlier repetition")
    try:
        if name == "ksweep":
            _ksweep(data.decode("utf-8"), exp, errs, ks)
        else:
            body = json.loads(data)
            if name == "analyze":
                _analyze(body, exp, errs)
            elif name == "certify":
                _certify(body, exp, errs, delta)
            elif name == "compose":
                _compose(body, exp, errs)
            elif name == "reference":
                _reference(body, exp, errs)
            elif name == "simulate":
                _simulate(body, exp, errs, ks)
            elif name == "oracle":
                _oracle(body, errs)
            else:
                errs.append(f"no checks for command {name!r}")
    except (ValueError, KeyError, TypeError) as exc:
        errs.append(f"unreadable report ({type(exc).__name__}: {exc})")
    return errs[:MAX_MESSAGES]


def _corrupt(name: str, data: bytes) -> bytes:
    """A copy of a correct report with one semantic defect."""
    if name == "ksweep":
        lines = data.decode("utf-8").splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
        lines[1] = ",".join(cells)
        return ("\n".join(lines) + "\n").encode("utf-8")
    body = json.loads(data)
    rows = body["rows"]
    if name == "analyze":
        row = next(r for r in rows if math.isfinite(r["g_max"]))
        row["sup_kl"] = row["g_max"] + 1.0
    elif name == "certify":
        rows[0]["verdict"] = OPEN if rows[0]["verdict"] != OPEN else IMPOSSIBLE
    elif name == "compose":
        rows.pop()
    elif name == "reference":
        rows[0]["U_R"] = rows[0]["U_K"] * 1.01 + 1e-3
    elif name == "simulate":
        rows.pop()
    elif name == "oracle":
        rows.pop()
    return (json.dumps(body, indent=2) + "\n").encode("utf-8")


def self_test(samples: dict) -> list[str]:
    """Corrupt each command's report two ways; list any corruption not flagged.

    ``samples`` maps a command name to (report bytes, kwargs for ``judge``).
    The semantic corruption is judged without a reference digest, so only
    the content checks can catch it; the changed byte keeps the report
    readable, so only the byte-determinism check can catch it.
    """
    missed = []
    for name, (data, kwargs) in samples.items():
        if judge(name, 0, data, reference_digest=digest(data), **kwargs):
            missed.append(f"{name}: correct report flagged")
        if not judge(name, 0, _corrupt(name, data), **kwargs):
            missed.append(f"{name}: semantic corruption not flagged")
        changed = data[:-1] + b" "
        if not judge(name, 0, changed, reference_digest=digest(data), **kwargs):
            missed.append(f"{name}: changed byte not flagged")
    return missed
