"""Command-line surface: analysis, sweeps, certification, and oracles.

Every command reads JSONL inputs, emits a schema-stable report (json, csv,
or an aligned table) and exits 0 only on success; failures produce a
machine-readable error list on stderr.  All divergences are in nats unless
``--bits`` rescales the display.  Randomized commands take an explicit
``--seed`` (default 0, never time-derived) and print it, so every report is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Iterator, NamedTuple

import numpy as np

from . import identified_set as geo
from . import minimax as mm
from . import normalized as norm
from . import reference as ref
from . import simulate as sim
from .numerics import load_policy_file, policy, use_policy
from .observation import (
    AccessMode,
    ObservationBatch,
    ParseError,
    ValidationError,
    parse_observations,
    serialize_observations,
)

POLICY_ENV_VAR = "CENSET_NUMERIC_POLICY"

R_BIN_FOOTNOTE = (
    "r_bin is a certified impossibility lower bound (two-endpoint argument), "
    "not the exact worst-case value; the symmetric-estimator sup and g_max "
    "bracket the finite-diameter gap above it."
)

# field order is the report schema; names are stable and never repurposed
ANALYZE_FIELDS = (
    "position_id",
    "mode",
    "vocab_size",
    "K",
    "M",
    "tau",
    "log_ZA",
    "U_K",
    "log_odds_UK",
    "cap_t0",
    "cap_tmax",
    "exactly_identified",
    "s_star",
    "r_bin",
    "sup_kl",
    "g_max",
    "g_argmax",
    "first_order",
    "t_star",
    "norm_cap",
    "norm_condition",
    "diam_lower",
    "diam_upper",
)

CERTIFY_FIELDS = (
    "position_id",
    "K",
    "U_K",
    "r_bin",
    "delta",
    "verdict",
    "heuristic_u_max",
    "within_first_order",
)

# report fields measured in nats, rescaled under --bits
NAT_FIELDS = frozenset(
    {
        "r_bin",
        "g_max",
        "sup_kl",
        "sup_kl_mean",
        "rbin_mean",
        "avg_lower",
        "avg_upper",
        "joint_sup",
        "factored_sum",
        "first_order",
        "delta",
    }
)

_LN2 = math.log(2.0)


def _parse_file(parser, path: str):
    """Run a JSONL parser over the file at ``path``, one line at a time; a
    byte that is not UTF-8 is an error naming its line."""
    with open(path, "r", encoding="utf-8", newline="\n",
              errors="surrogateescape") as handle:
        return parser(handle)


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


# characters that would break a table row, written as their escapes
_TABLE_ESCAPES = str.maketrans({"\r": "\\r", "\n": "\\n", "\t": "\\t"})


def _to_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    keys = list(rows[0].keys())
    cells = [[_fmt_cell(r.get(k)).translate(_TABLE_ESCAPES) for k in keys]
             for r in rows]
    widths = [
        max(len(k), *(len(row[i]) for row in cells)) for i, k in enumerate(keys)
    ]
    lines = [
        "  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# characters that make a CSV cell need quotes (RFC 4180)
_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(k)) for k in keys))
    return "\n".join(lines) + "\n"


def _convert_bits(rows: list[dict]) -> list[dict]:
    out = []
    for r in rows:
        conv = dict(r)
        for k in r:
            if k in NAT_FIELDS and isinstance(r[k], float) and math.isfinite(r[k]):
                conv[k] = r[k] / _LN2
        out.append(conv)
    return out


# json.dumps(rows, indent=2) nests a row's fields six spaces deep
_ROW_SEPARATORS = (",\n      ", ": ")
_ROW_BREAK = "},\n      {"


def _json_report(body: dict) -> str:
    """``json.dumps(body, indent=2)`` for a body whose last value is a list
    of flat, non-empty rows, with the rows through CPython's C encoder.

    The C encoder runs only without ``indent``; with the separators above it
    writes each row's fields as the indented encoder does, one per line.
    An encoded string never holds a raw newline, so ``_ROW_BREAK`` occurs
    only between two rows, where the indented form breaks the line before
    ``}`` and after ``{``.
    """
    *_, (key, rows) = body.items()
    text = json.dumps({**body, key: []}, indent=2)
    if not rows:
        return text
    inner = json.dumps(rows, separators=_ROW_SEPARATORS)[2:-2]
    inner = inner.replace(_ROW_BREAK, "\n    },\n    {\n      ")
    # text ends with the empty list: "[]\n}"
    return text[:-4] + "[\n    {\n      " + inner + "\n    }\n  ]\n}"


def _emit(payload: dict, rows: list[dict], args) -> None:
    units = "bits" if getattr(args, "bits", False) else "nats"
    shown = rows
    if units == "bits":
        (payload, *shown) = _convert_bits([payload, *rows])
    if args.format == "json":
        text = _json_report({**payload, "units": units, "rows": shown}) + "\n"
    elif args.format == "csv":
        text = _to_csv(shown)
    else:
        text = _to_table(shown)
        extra = {k: v for k, v in payload.items() if k not in ("command",)}
        if extra:
            text += "".join(f"# {k}: {_fmt_cell(v) if not isinstance(v, str) else v}\n"
                            for k, v in extra.items())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_errors(errors: list[dict]) -> None:
    sys.stderr.write(_json_report({"errors": errors}) + "\n")


class _Position(NamedTuple):
    """One row of a batch with its diameter, as plain Python numbers."""

    position_id: str
    mode: AccessMode
    vocab_size: int
    k: int
    m: int
    tau: float
    log_za: float
    u: float
    log_odds: float


def _positions(batch: ObservationBatch) -> Iterator[_Position]:
    for pid, mode, v, k, tau, log_za in zip(
        batch.position_ids,
        batch.modes,
        batch.vocab_sizes,
        batch.k.tolist(),
        batch.tau.tolist(),
        batch.log_ZA.tolist(),
    ):
        m = v - k
        yield _Position(pid, mode, v, k, m, tau, log_za, *geo.diameter(m, tau, log_za))


def cmd_analyze(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    rows = []
    for pid, mode, v, k, m, tau, log_za, u, log_odds in _positions(batch):
        caps = (None, None)
        if m:
            caps = (geo.token_cap(log_odds, m, 0.0), geo.token_cap(log_odds, m, u))
        normalized = (None,) * 5
        if mode is AccessMode.LOGPROBS:
            t_star, cap, condition, diameter = norm.tail_geometry(log_za, tau, m)
            normalized = (t_star, cap, condition.value, diameter, diameter)
        s_star, r_bin, g_max, g_argmax, first_order = mm.certificate(u)
        sup_kl, _ = mm.symmetric_sup(m, log_odds, u)
        values = (pid, mode.value, v, k, m, tau, log_za, u, log_odds, *caps, m == 0,
                  s_star, r_bin, sup_kl, g_max, g_argmax, first_order, *normalized)
        rows.append(dict(zip(ANALYZE_FIELDS, values)))
    _emit({"command": "analyze", "footnote": R_BIN_FOOTNOTE}, rows, args)
    return 0


def _sweep_row_dict(row: sim.SweepRow) -> dict:
    out = asdict(row)
    return {"K": out.pop("k"), **out}


def cmd_ksweep(args) -> int:
    n_positions = 0

    def blocks(handle):
        nonlocal n_positions
        for block in sim._dump_blocks(handle):
            n_positions += len(block[0])
            yield block

    sweep = _parse_file(lambda handle: sim.ksweep(blocks(handle), args.k), args.input)
    rows = [_sweep_row_dict(r) for r in sweep]
    # the ksweep report schema has no estimator column
    for row in rows:
        del row["sup_kl_mean"]
    _emit({"command": "ksweep", "n_positions": n_positions}, rows, args)
    return 0


def cmd_certify(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    positions = list(_positions(batch))
    verdicts = mm.verdicts([p.u for p in positions], args.delta)
    # the first-order admissibility ceiling on the diameter
    u_max = math.e * args.delta
    rows = [
        dict(zip(CERTIFY_FIELDS, (p.position_id, p.k, p.u, r_bin, args.delta,
                                  verdict, u_max, p.u <= u_max)))
        for p, (r_bin, verdict) in zip(positions, verdicts)
    ]
    _emit({"command": "certify", "footnote": R_BIN_FOOTNOTE}, rows, args)
    return 0


def cmd_reference(args) -> int:
    # reference_geometry checks rho per row, and an input may have none
    ref._check_rho(args.rho)
    observations = _parse_file(parse_observations, args.input)
    refs = _parse_file(ref.parse_reference_dump, args.reference)
    rows = []
    max_perturbations = []
    for obs in observations:
        if obs.position_id not in refs:
            raise ValidationError(
                f"reference dump has no record for position {obs.position_id}"
            )
        rlogits = refs[obs.position_id]
        geom = geo.geometry(obs)
        rb = ref.reference_geometry(geom, rlogits, args.rho)
        row = {
            "position_id": obs.position_id,
            "K": obs.k,
            "U_K": geom.U_K,
            "U_R": rb.U_R,
            "shrinkage": rb.U_R / geom.U_K if geom.U_K > 0 else None,
            "rho": args.rho,
            "reserve": rb.reserve,
            "max_perturbation": None,
            "frac_exceeding_rho": None,
        }
        try:
            revealed_ref = rlogits.gather(obs.token_ids, obs.vocab_size)
        except ref.CoverageError:
            revealed_ref = None
        if revealed_ref is not None and obs.k >= 2:
            worst, exceeding = ref.calibrate_rho(obs.scores, revealed_ref, args.rho)
            row["max_perturbation"] = worst
            row["frac_exceeding_rho"] = exceeding
            max_perturbations.append(worst)
        rows.append(row)
    payload = {
        "command": "reference",
        "rho": args.rho,
        "calibration_note": (
            "perturbation diagnostics use revealed tokens only; compliance "
            "on censored tokens is untestable from a censored observation"
        ),
    }
    if max_perturbations:
        payload["median_max_perturbation"] = float(np.median(max_perturbations))
        payload["frac_positions_exceeding_rho"] = float(
            np.mean([m > args.rho for m in max_perturbations])
        )
    _emit(payload, rows, args)
    return 0


def _law_from_args(args) -> sim.LogitLaw:
    if args.law == "gaussian":
        return sim.GaussianIID(mean=args.mean, sd=args.sd)
    if args.law == "dirichlet":
        return sim.DirichletSoftmax(concentration=args.concentration)
    return sim.PeakedHead(head_size=args.head_size, gap=args.gap)


def cmd_simulate(args) -> int:
    config = sim.SyntheticTeacherConfig(
        vocab_size=args.vocab,
        law=_law_from_args(args),
        temperature=args.temperature,
        seed=args.seed,
    )
    teacher = sim.generate_teacher(config, args.positions)
    if args.dump:
        observations = [
            sim.censor(z, args.vocab, position_id=f"pos{i}")
            for i, z in enumerate(teacher)
        ]
        with open(args.dump, "w", encoding="utf-8") as handle:
            handle.write(serialize_observations(observations))
    rows = [
        _sweep_row_dict(row)
        for row in sim.ksweep([sim.score_sorted(teacher, max(args.k))], args.k)
    ]
    _emit(
        {"command": "simulate", "seed": args.seed, "law": args.law},
        rows,
        args,
    )
    return 0


def cmd_compose(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    rows = []
    for p in _positions(batch):
        sup_kl, t_at = mm.symmetric_sup(p.m, p.log_odds, p.u)
        rows.append({"position_id": p.position_id, "U_K": p.u,
                     "r_bin": mm.reserve(p.u)[1], "sup_kl": sup_kl, "t_at_sup": t_at})
    avg_lower, avg_upper, factored_sum = sim.average_risk(
        [r["r_bin"] for r in rows], [r["sup_kl"] for r in rows]
    )
    payload = {
        "command": "compose",
        "avg_lower": avg_lower,
        "avg_upper": avg_upper,
        # the joint adversary's sup is the factored sum (see average_risk)
        "joint_sup": factored_sum,
        "factored_sum": factored_sum,
        "separability_gap": 0.0,
        "footnote": R_BIN_FOOTNOTE,
    }
    _emit(payload, rows, args)
    return 0


def cmd_oracle(args) -> int:
    # imported here so that no analysis command loads the brute-force code
    from .oracles import oracle_battery

    checks = oracle_battery(seed=args.seed)
    _emit({"command": "oracle", "seed": args.seed}, checks, args)
    failed = [c for c in checks if c["status"] != "PASS"]
    if failed:
        _emit_errors(
            [{"message": f"oracle check failed: {c['check']}", "detail": c["detail"]}
             for c in failed]
        )
        return 1
    return 0


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad K list {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError(f"bad K list {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censet",
        description=(
            "Identified-set geometry and recovery-risk certification for "
            "top-K censored observations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="table"):
        p.add_argument("--output", default=None, help="write report here")
        p.add_argument(
            "--format", choices=("json", "csv", "table"), default=fmt_default
        )
        p.add_argument(
            "--bits", action="store_true",
            help="display divergences in bits (storage stays in nats)",
        )

    p = sub.add_parser("analyze", help="per-observation geometry and bounds")
    p.add_argument("--input", required=True, help="observations JSONL")
    common(p)

    p = sub.add_parser("ksweep", help="K-sweep statistics over a full dump")
    p.add_argument("--input", required=True, help="full-dump JSONL (K = V)")
    p.add_argument("--k", type=_parse_k_list, default=[1, 5, 10, 20, 50, 100])
    common(p, fmt_default="csv")

    p = sub.add_parser("certify", help="impossibility verdicts at tolerance delta")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("reference", help="reference-aware shrinkage and calibration")
    p.add_argument("--input", required=True)
    p.add_argument("--reference", required=True, help="reference dump JSONL")
    p.add_argument("--rho", type=float, default=1.0)
    common(p)

    p = sub.add_parser("simulate", help="synthetic teacher sweep")
    p.add_argument("--vocab", type=int, default=64)
    p.add_argument("--positions", type=int, default=16)
    p.add_argument("--law", choices=("gaussian", "dirichlet", "peaked"),
                   default="gaussian")
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--sd", type=float, default=1.0)
    p.add_argument("--concentration", type=float, default=1.0)
    p.add_argument("--head-size", type=int, default=1)
    p.add_argument("--gap", type=float, default=10.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=_parse_k_list, default=[1, 5, 10, 20, 50])
    p.add_argument("--dump", default=None, help="write the full dump JSONL here")
    common(p)

    p = sub.add_parser("compose", help="non-adaptive multi-position composition")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("oracle", help="run every brute-force verification check")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "ksweep": cmd_ksweep,
    "certify": cmd_certify,
    "reference": cmd_reference,
    "simulate": cmd_simulate,
    "compose": cmd_compose,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    policy_path = os.environ.get(POLICY_ENV_VAR)
    try:
        with use_policy(load_policy_file(policy_path) if policy_path else policy()):
            return _HANDLERS[args.command](args)
    except ParseError as exc:
        _emit_errors([{"message": str(exc), "line": exc.line}])
        return 1
    except (ValueError, OSError) as exc:
        _emit_errors([{"message": str(exc)}])
        return 1


if __name__ == "__main__":
    sys.exit(main())
