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
from functools import reduce

import numpy as np

from . import identified_set as geo
from . import minimax as mm
from . import normalized as norm
from . import reference as ref
from . import simulate as sim
from .numerics import load_policy_file
from .observation import (
    AccessMode,
    ParseError,
    ValidationError,
    parse_observations,
    serialize_observations,
    summarize,
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


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


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


def _to_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    keys = list(rows[0].keys())
    cells = [[_fmt_cell(r.get(k)) for k in keys] for r in rows]
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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def _emit(payload: dict, rows: list[dict], args) -> None:
    units = "bits" if getattr(args, "bits", False) else "nats"
    shown = _convert_bits(rows) if units == "bits" else rows
    if args.format == "json":
        body = dict(payload)
        body["units"] = units
        body["rows"] = shown
        text = json.dumps(body, indent=2) + "\n"
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
    sys.stderr.write(json.dumps({"errors": errors}, indent=2) + "\n")


def _analyze_row(obs) -> dict:
    summary = summarize(obs)
    geom = geo.geometry(summary)
    row = dict.fromkeys(ANALYZE_FIELDS)
    row.update(
        position_id=obs.position_id,
        mode=obs.mode.value,
        vocab_size=obs.vocab_size,
        K=obs.k,
        M=geom.M,
        tau=geom.tau,
        log_ZA=geom.log_ZA,
        U_K=geom.U_K,
        log_odds_UK=geom.log_odds,
        exactly_identified=geom.M == 0,
    )
    cert = mm.minimax_certificate(geom.U_K)
    sup_kl, _ = mm.worst_case_risk(geom, mm.symmetric_estimator(geom))
    row.update(
        s_star=cert.s_star,
        r_bin=cert.r_bin,
        sup_kl=sup_kl,
        g_max=cert.g_max,
        g_argmax=cert.g_argmax,
        first_order=cert.first_order,
    )
    if geom.M > 0:
        row["cap_t0"] = geo.per_token_cap(geom, 0.0)
        row["cap_tmax"] = geo.per_token_cap(geom, geom.U_K)
    if obs.mode is AccessMode.LOGPROBS:
        ng = norm.normalized_geometry(obs)
        row.update(
            t_star=ng.t_star,
            norm_cap=ng.cap,
            norm_condition=ng.condition.value,
            diam_lower=ng.diameter,
            diam_upper=ng.diameter,
        )
    return row


def cmd_analyze(args) -> int:
    observations = parse_observations(_read_text(args.input))
    rows = [_analyze_row(obs) for obs in observations]
    _emit({"command": "analyze", "footnote": R_BIN_FOOTNOTE}, rows, args)
    return 0


def _full_dump_matrix(observations) -> np.ndarray:
    rows = []
    for obs in observations:
        if obs.k != obs.vocab_size:
            raise ValidationError(
                f"position {obs.position_id}: sweep input must be a full dump "
                f"(K = V), got K={obs.k} < V={obs.vocab_size}"
            )
        pairs = np.array(obs.revealed)
        logits = np.empty(obs.vocab_size)
        logits[pairs[:, 0].astype(np.intp)] = pairs[:, 1]
        rows.append(logits)
    if len({len(r) for r in rows}) > 1:
        raise ValidationError("all positions must share one vocab_size")
    return np.stack(rows)


def _sweep_row_dict(row: sim.SweepRow) -> dict:
    out = asdict(row)
    return {"K": out.pop("k"), **out}


def cmd_ksweep(args) -> int:
    observations = parse_observations(_read_text(args.input))
    matrix = _full_dump_matrix(observations)
    rows = [_sweep_row_dict(r) for r in sim.ksweep(matrix, args.k)]
    _emit({"command": "ksweep", "n_positions": len(matrix)}, rows, args)
    return 0


def cmd_certify(args) -> int:
    observations = parse_observations(_read_text(args.input))
    geoms = [geo.geometry(summarize(obs)) for obs in observations]
    verdicts = mm.critical_k(geoms, args.delta)
    rows = []
    for obs, v in zip(observations, verdicts):
        rows.append(
            {
                "position_id": obs.position_id,
                "K": v.k,
                "U_K": v.u,
                "r_bin": v.r_bin,
                "delta": v.delta,
                "verdict": v.verdict,
                "heuristic_u_max": v.heuristic_u_max,
                "within_first_order": v.within_first_order,
            }
        )
    _emit({"command": "certify", "footnote": R_BIN_FOOTNOTE}, rows, args)
    return 0


def cmd_reference(args) -> int:
    observations = parse_observations(_read_text(args.input))
    refs = ref.parse_reference_dump(_read_text(args.reference))
    rows = []
    max_perturbations = []
    for obs in observations:
        if obs.position_id not in refs:
            raise ValidationError(
                f"reference dump has no record for position {obs.position_id}"
            )
        rlogits = refs[obs.position_id]
        geom = geo.geometry(summarize(obs))
        rb = ref.reference_geometry(geom, rlogits, args.rho)
        est = ref.reference_estimator(geom, rb)
        row = {
            "position_id": obs.position_id,
            "K": obs.k,
            "U_K": geom.U_K,
            "U_R": rb.U_R,
            "shrinkage": rb.U_R / geom.U_K if geom.U_K > 0 else None,
            "rho": args.rho,
            "reserve": est.s,
            "max_perturbation": None,
            "frac_exceeding_rho": None,
        }
        try:
            revealed_ref = rlogits.gather(
                np.asarray(obs.token_ids), obs.vocab_size
            )
        except ref.CoverageError:
            revealed_ref = None
        if revealed_ref is not None and obs.k >= 2:
            diag = ref.calibrate_rho(
                list(zip(obs.scores, revealed_ref)), candidate_rhos=(args.rho,)
            )
            row["max_perturbation"] = diag.max_perturbation
            row["frac_exceeding_rho"] = diag.exceed_fraction[0][1]
            max_perturbations.append(diag.max_perturbation)
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
    rows = []
    for row, sup_kl_mean in sim.ksweep_with_sup_kl(teacher, args.k):
        out = _sweep_row_dict(row)
        out["sup_kl_mean"] = sup_kl_mean
        rows.append(out)
    _emit(
        {"command": "simulate", "seed": args.seed, "law": args.law},
        rows,
        args,
    )
    return 0


def cmd_compose(args) -> int:
    observations = parse_observations(_read_text(args.input))
    geoms = [geo.geometry(summarize(obs)) for obs in observations]
    result = sim.compose_nonadaptive(geoms)
    rows = []
    for obs, p in zip(observations, result.per_position):
        rows.append(
            {
                "position_id": obs.position_id,
                "U_K": p.u,
                "r_bin": p.r_bin,
                "sup_kl": p.sup_kl,
                "t_at_sup": p.t_at_sup,
            }
        )
    payload = {
        "command": "compose",
        "avg_lower": result.avg_lower,
        "avg_upper": result.avg_upper,
        "joint_sup": result.joint_sup,
        "factored_sum": result.factored_sum,
        "separability_gap": abs(result.joint_sup - result.factored_sum),
        "footnote": R_BIN_FOOTNOTE,
    }
    _emit(payload, rows, args)
    return 0


def _g_envelope_defining_form(u: float, t: float, s: float) -> float:
    # two-term defining form of the envelope, kept as an independent route
    first = (1.0 - t) * (math.log1p(-t) - math.log1p(-s))
    second = t * (
        math.log(u) + math.log1p(-t) - math.log1p(-u) - math.log(s)
    ) if t > 0 else 0.0
    return first + second


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
        geom = geo.geometry(summarize(sim.censor(z, k)))
        oracle = geo.brute_diameter_oracle(geom, 12, max_points=1024, seed=i)
        worst_gap = max(worst_gap, abs(oracle - geom.U_K))
        p0, p1 = geo.extremal_pair(geom)
        tv_pair = geo.tv(geo.to_distribution(geom, p0), geo.to_distribution(geom, p1))
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
        reserve = mm.binary_reserve(float(u))
        s_hat, r_hat = mm.balancing_oracle(float(u))
        gap = max(gap, abs(s_hat - reserve.s_star), abs(r_hat - reserve.r_bin))
    record("balancing_oracle", gap <= 1e-6, f"max deviation = {gap:.2e}")

    # envelope identity: defining form vs simplified form
    gap = 0.0
    for u in (0.05, 0.3, 0.5, 0.81, 0.98):
        s = u / math.e
        for t in np.linspace(0.0, u, 17):
            gap = max(
                gap,
                abs(mm.g_envelope(u, float(t), s)
                    - _g_envelope_defining_form(u, float(t), s)),
            )
    record("envelope_identity", gap <= 1e-12, f"max |form gap| = {gap:.2e}")

    # ordering r_bin <= symmetric-estimator sup <= g_max
    ok = True
    detail = []
    for u in (0.05, 0.3, 0.7, 0.95):
        geom = sim.geometry_with_diameter(u, 64)
        sup_kl, _ = mm.worst_case_risk(geom, mm.symmetric_estimator(geom))
        r_bin = mm.binary_reserve(geom.U_K).r_bin
        gmax, _ = mm.g_max(geom.U_K)
        ok = ok and (r_bin <= sup_kl + 1e-12) and (sup_kl <= gmax + 1e-6)
        detail.append(f"u={u}: {r_bin:.4f} <= {sup_kl:.4f} <= {gmax:.4f}")
    record("envelope_ordering", ok, "; ".join(detail))

    # exact symmetric-estimator sup against a brute breakpoint + grid scan
    gap = 0.0
    for u, m in ((0.05, 7), (0.3, 16), (0.7, 64), (0.95, 64)):
        geom = sim.geometry_with_diameter(u, m)
        for s in (u / math.e, mm.binary_reserve(u).s_star, 0.02, 0.5, 0.98):
            sup_kl, _ = mm.worst_case_risk(geom, mm.symmetric_estimator(geom, s))
            scan = mm.breakpoint_scan_oracle(geom.M, geom.log_odds, s)
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
        geom = geo.geometry(summarize(sim.censor(z, k)))
        rlogits = ref.ReferenceLogits(dense=z + rng.normal(0.0, 0.5, size=v))
        rb = ref.reference_geometry(geom, rlogits, float(rng.uniform(0.0, 2.0)))
        oracle = ref.reference_diameter_oracle(geom, rb, 10, max_points=1024, seed=i)
        worst_gap = max(worst_gap, abs(oracle - rb.U_R))
        ok = ok and abs(oracle - rb.U_R) <= 1e-3 and rb.U_R <= geom.U_K + 1e-12
    record("reference_box_oracle", ok, f"max |oracle - U_R| = {worst_gap:.2e}")

    # allocation oracle on the normalized-access cap polytope, and the
    # closed-form diameter against it across all three regimes
    d1 = norm.allocation_diameter_oracle(0.2, 0.1, 10)
    d2 = norm.allocation_diameter_oracle(0.2, 0.15, 2)
    d3 = norm.allocation_diameter_oracle(0.15, 0.2, 1)
    gap = 0.0
    cap = 0.07
    for m in range(1, 13):
        for q in (0.5, 1.0, m - 2.0, m - 1.25, m - 0.5):
            if q >= 0.0:
                t_star = q * cap
                closed = norm.allocation_diameter(t_star, cap, m)
                brute = norm.allocation_diameter_oracle(t_star, cap, m)
                gap = max(gap, abs(closed - brute))
    ok = abs(d1 - 0.2) <= 1e-3 and d2 < 0.2 and d3 == 0.0 and gap <= 1e-12
    detail = f"disjoint: {d1:.4f}, capped: {d2:.4f}, single: {d3:.4f}"
    if gap > 1e-12:
        detail += f", max |closed form - oracle| = {gap:.2e}"
    record("allocation_oracle", ok, detail)

    # composition separability: literal joint adversary over every
    # position's sup-candidate profile against the factored sum
    geoms = [sim.geometry_with_diameter(u, 32) for u in (0.1, 0.3, 0.5)]
    result = sim.compose_nonadaptive(geoms)
    profiles = [
        [risk for risk, _ in mm._sup_candidates(g, mm.symmetric_estimator(g))]
        for g in geoms
    ]
    joint_sup = float(reduce(np.add.outer, profiles).max()) / len(geoms)
    gap = abs(joint_sup - result.factored_sum)
    record("composition_separability", gap <= 1e-9, f"|joint - factored| = {gap:.2e}")

    # small-diameter expansions of the reserve and the lower bound
    ok = True
    for u in np.linspace(0.01, 0.5, 25):
        reserve = mm.binary_reserve(float(u))
        ok = ok and abs(reserve.s_star - u / math.e) <= u * u
        if u <= 0.3:
            resid = abs(
                reserve.r_bin - u / math.e - mm.SECOND_ORDER_COEFF * u * u
            )
            ok = ok and resid <= u**3
    record("expansion_bounds", ok, "reserve and lower-bound expansions hold")

    return checks


def cmd_oracle(args) -> int:
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
        if policy_path:
            load_policy_file(policy_path)
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        _emit_errors([{"message": str(exc), "line": exc.line}])
        return 1
    except (ValidationError, ValueError, OSError) as exc:
        _emit_errors([{"message": str(exc)}])
        return 1


if __name__ == "__main__":
    sys.exit(main())
