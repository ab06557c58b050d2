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
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

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

COMPOSE_FIELDS = ("position_id", "U_K", "r_bin", "sup_kl", "t_at_sup")

REFERENCE_FIELDS = (
    "position_id", "K", "U_K", "U_R", "shrinkage", "rho", "reserve",
    "max_perturbation", "frac_exceeding_rho",
)

SIMULATE_FIELDS = (
    "K", "uk_mean", "uk_sd", "rbin_mean", "tail_mass_mean", "n", "sup_kl_mean",
)
# the ksweep report schema has no estimator column
KSWEEP_FIELDS = SIMULATE_FIELDS[:-1]

ORACLE_FIELDS = ("check", "status", "detail")

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


# the read buffer of an input file.  Reading a fulldump-32k full.jsonl
# (89 MB) in readline blocks of at most 2^17 bytes took 18 ms with this
# buffer, 36 ms with 128 KiB and 51 ms with the default 8 KiB, against 54
# ms iterating a text-mode file (medians of 7, on a 2-vCPU Xeon)
_READ_BUFFER = 1 << 20


def _parse_file(parser, path: str):
    """Run a JSONL parser over the file at ``path``, opened in binary, so
    that a long observation line is decoded as it is read, in UTF-8 blocks,
    and read again whole only where its piece path declines it (see
    :func:`censet.observation._read_jsonl`); every other line is read whole.
    A byte that is not UTF-8 is an error naming its line."""
    with open(path, "rb", buffering=_READ_BUFFER) as handle:
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


def _to_table(fields, columns) -> str:
    if not columns or not columns[0]:
        return "(no rows)\n"
    cells = [[_fmt_cell(v).translate(_TABLE_ESCAPES) for v in column]
             for column in columns]
    widths = [max(len(f), *map(len, column)) for f, column in zip(fields, cells)]
    lines = [
        "  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in zip(*cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


_COMMA, _E, _MINUS, _PLUS, _ZERO = b",e-+0"
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[list(b"0123456789")] = True


def _float_reprs(values: list, fallback=float.__repr__) -> list[str]:
    """``float.__repr__`` of each float in ``values``, from one orjson pass.

    orjson writes the shortest digits that round-trip, as ``repr`` does
    (Ryu against Gay's dtoa), and the exponent is spelled differently:
    ``repr`` signs it and writes at least two digits (``1e+16`` and
    ``2.5e-07`` for orjson's ``1e16`` and ``2.5e-7``).  Those bytes are put
    in over the whole text at once.  ``repr`` writes a nonzero value below
    1e-4 or from 1e16 up in scientific notation and every other value
    positionally (digits that round-trip stay on the value's side of both
    bounds).  A token laid out otherwise, such as orjson's positional
    1e-5 <= |x| < 1e-4 or its ``null`` for a non-finite value, is replaced
    by ``fallback(value)``, one at a time.  ``values`` holds only exact
    floats.
    """
    if not values:
        return []
    raw = np.frombuffer(orjson.dumps(values), dtype=np.uint8)
    x = np.array(values, dtype=float)
    magnitude = np.abs(x)
    scientific = ((magnitude < 1e-4) & (magnitude != 0.0)) | (magnitude >= 1e16)
    e = np.flatnonzero(raw == _E)
    has_e = np.zeros(len(values), dtype=bool)
    # the token of each "e" is the number of commas before it
    has_e[np.searchsorted(np.flatnonzero(raw == _COMMA), e)] = True
    mismatched = np.flatnonzero((has_e != scientific) | ~np.isfinite(x)).tolist()
    unsigned = _DIGIT[raw[e + 1]]
    # e + 3 runs past the closing "]" only after an unsigned one-digit exponent
    short = (raw[e + 1] == _MINUS) & ~_DIGIT[raw.take(e + 3, mode="clip")]
    text = np.insert(
        raw, np.concatenate([e[unsigned] + 1, e[short] + 2]),
        np.repeat(np.array([_PLUS, _ZERO], dtype=np.uint8),
                  [np.count_nonzero(unsigned), np.count_nonzero(short)]),
    )[1:-1].tobytes().decode("ascii")
    out = text.split(",")
    for i in mismatched:
        out[i] = fallback(values[i])
    return out


def _texts(columns, cell, exact: dict, fallback) -> list[list[str]]:
    """Each column's cells as text.  Every exact float of all the columns
    goes through one :func:`_float_reprs` call with ``fallback``; a column
    of one type in ``exact`` maps through its function, and any other cell
    goes through ``cell``."""
    kinds = [set(map(type, column)) for column in columns]
    floats = []
    for column, kind in zip(columns, kinds):
        if kind == {float}:
            floats.extend(column)
        elif float in kind:
            floats.extend(v for v in column if type(v) is float)
    reprs = iter(_float_reprs(floats, fallback))
    out = []
    for column, kind in zip(columns, kinds):
        if kind == {float}:
            out.append(list(itertools.islice(reprs, len(column))))
        elif len(kind) == 1 and (spell := exact.get(*kind)):
            out.append(list(map(spell, column)))
        else:
            out.append([next(reprs) if type(v) is float else cell(v) for v in column])
    return out


# characters that make a CSV cell need quotes (RFC 4180)
_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _to_csv(fields, columns) -> str:
    if not columns or not columns[0]:
        return ""
    texts = _texts(columns, _csv_cell, {int: int.__repr__}, float.__repr__)
    return "\n".join([",".join(fields), *map(",".join, zip(*texts))]) + "\n"


_JSON_LITERALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_LITERALS.get(text, text)


def _json_cell(value) -> str:
    """A cell as ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_report(head: dict, key: str, fields, columns) -> str:
    """``json.dumps({**head, key: rows}, indent=2)``, where ``rows`` are the
    dicts of ``fields`` to each row's cells of ``columns``.

    The rows are one ``%`` template of the encoded field names, filled with
    the cells as :func:`_texts` writes them.
    """
    text = json.dumps({**head, key: []}, indent=2)
    if not columns or not columns[0]:
        return text
    names = [encode_basestring_ascii(f).replace("%", "%%") for f in fields]
    template = "    {\n      " + ",\n      ".join(f"{n}: %s" for n in names) + "\n    }"
    texts = _texts(columns, _json_cell,
                   {str: encode_basestring_ascii, int: int.__repr__}, _json_float)
    rows = ",\n".join([template % row for row in zip(*texts)])
    # text ends with the empty list: "[]\n}"
    return text[:-4] + "[\n" + rows + "\n  ]\n}"


def _nats_to_bits(value):
    return value / _LN2 if isinstance(value, float) and math.isfinite(value) else value


def _emit(payload: dict, fields, columns, args) -> None:
    """Write a report: ``payload``'s values, then one row for each index of
    the ``columns``, with the names in ``fields``."""
    units = "bits" if getattr(args, "bits", False) else "nats"
    if units == "bits":
        payload = {k: _nats_to_bits(v) if k in NAT_FIELDS else v
                   for k, v in payload.items()}
        columns = [list(map(_nats_to_bits, c)) if f in NAT_FIELDS else c
                   for f, c in zip(fields, columns)]
    if args.format == "json":
        text = _json_report({**payload, "units": units}, "rows", fields, columns) + "\n"
    elif args.format == "csv":
        text = _to_csv(fields, columns)
    else:
        text = _to_table(fields, columns)
        extra = {k: v for k, v in payload.items() if k not in ("command",)}
        if extra:
            text += "".join(f"# {k}: {_fmt_cell(v) if not isinstance(v, str) else v}\n"
                            for k, v in extra.items())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_errors(fields, columns) -> None:
    sys.stderr.write(_json_report({}, "errors", fields, columns) + "\n")


def _diameters(batch: ObservationBatch) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Each row's M, as a list of ints, and its U_K and log-odds columns."""
    ms = [v - k for v, k in zip(batch.vocab_sizes, batch.k.tolist())]
    return ms, *geo.diameter(ms, batch.tau, batch.log_ZA)


def _check_float_range(batch: ObservationBatch, ms: list[int]) -> None:
    """Raise the error of the first row whose M exceeds the float range, where
    the per-token cap and the sup's breakpoints overflow."""
    if ms and max(ms) > sys.float_info.max:
        line = next(line for line, m in zip(batch.lines, ms) if m > sys.float_info.max)
        raise ParseError(line, "M = vocab_size - K is too large for a float")


def _scatter(n: int, rows: list[int], values: list) -> list:
    """A column of n entries holding ``values`` at ``rows`` and None elsewhere."""
    out = [None] * n
    for i, value in zip(rows, values):
        out[i] = value
    return out


def cmd_analyze(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    ms, u, log_odds = _diameters(batch)
    _check_float_range(batch, ms)
    n = len(ms)
    # an M = 0 row has no caps: its stand-in M of 1 is never shown
    live, caps = [m or 1 for m in ms], []
    for t in (0.0, u):
        column = geo.token_cap(log_odds, live, t).tolist()
        caps.append([cap if m else None for cap, m in zip(column, ms)])
    # the normalized-access fields, on logprobs rows only
    normalized = [[None] * n] * 5
    lp = [i for i, mode in enumerate(batch.modes) if mode is AccessMode.LOGPROBS]
    if lp:
        t_star, cap, condition, diameter = norm.tail_geometry(
            batch.log_ZA[lp], batch.tau[lp], [ms[i] for i in lp])
        diameter = diameter.tolist()
        normalized = [
            _scatter(n, lp, values) for values in (
                t_star.tolist(), cap.tolist(), [c.value for c in condition], diameter,
                diameter)
        ]
    cert = mm.certificate(u)
    sup_kl, _ = mm.symmetric_sup(ms, log_odds, u)
    columns = (
        batch.position_ids, [mode.value for mode in batch.modes], batch.vocab_sizes,
        batch.k.tolist(), ms, batch.tau.tolist(), batch.log_ZA.tolist(), u.tolist(),
        log_odds.tolist(), *caps, [m == 0 for m in ms], cert.s_star.tolist(),
        cert.r_bin.tolist(), sup_kl.tolist(), cert.g_max.tolist(),
        cert.g_argmax.tolist(), cert.first_order.tolist(), *normalized,
    )
    _emit({"command": "analyze", "footnote": R_BIN_FOOTNOTE}, ANALYZE_FIELDS, columns, args)
    return 0


def _sweep_columns(sweep: list[sim.SweepRow], fields) -> list[list]:
    """The columns of a K sweep's report; its ``K`` field is ``SweepRow.k``."""
    return [[getattr(row, "k" if f == "K" else f) for row in sweep] for f in fields]


def cmd_ksweep(args) -> int:
    n_positions = 0

    def blocks(handle):
        nonlocal n_positions
        for block in sim._dump_blocks(handle, max(args.k)):
            n_positions += len(block[0])
            yield block
            del block

    sweep = _parse_file(lambda handle: sim.ksweep(blocks(handle), args.k), args.input)
    _emit({"command": "ksweep", "n_positions": n_positions}, KSWEEP_FIELDS,
          _sweep_columns(sweep, KSWEEP_FIELDS), args)
    return 0


def cmd_certify(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    _, u, _ = _diameters(batch)
    verdicts = mm.verdicts(u, args.delta)
    # the first-order admissibility ceiling on the diameter
    u_max = math.e * args.delta
    n = len(verdicts)
    columns = (batch.position_ids, batch.k.tolist(), u.tolist(), [r for r, _ in verdicts],
               [args.delta] * n, [v for _, v in verdicts], [u_max] * n,
               (u <= u_max).tolist())
    _emit({"command": "certify", "footnote": R_BIN_FOOTNOTE}, CERTIFY_FIELDS, columns, args)
    return 0


def _reference_row(obs, u_k: float, rlogits, rho: float) -> tuple | Exception:
    """One row of the ``reference`` report, or its error naming the position.

    The error is made, not raised, and holds no traceback, so a row may
    keep it until the whole dump has been read.
    """
    try:
        rb = ref.reference_geometry(obs, rlogits, rho)
    except (ValueError, MemoryError) as exc:
        # numpy's errors for a vocabulary too large to lay out (a
        # MemoryError, or a ValueError past its largest dimension) name no
        # position
        kind = next(t for t in (ref.CoverageError, ValueError, MemoryError)
                    if isinstance(exc, t))
        return kind(f"position {obs.position_id}: {exc}")
    worst = exceeding = None
    if rb.revealed_ref is not None and obs.k >= 2:
        worst, exceeding = ref.calibrate_rho(obs.scores, rb.revealed_ref, rho)
    return (obs.position_id, obs.k, u_k, rb.U_R, rb.U_R / u_k if u_k > 0 else None,
            rho, rb.reserve, worst, exceeding)


def cmd_reference(args) -> int:
    # reference_geometry checks rho per row, and an input may have none
    ref._check_rho(args.rho)
    batch = _parse_file(parse_observations, args.input)
    _, u, _ = _diameters(batch)
    u = u.tolist()
    at = {pid: i for i, pid in enumerate(batch.position_ids)}
    # each row's report row, or the error that names its position
    rows: list = [None] * len(batch)

    def read(handle):
        for rlogits in ref._reference_records(handle):
            i = at.get(rlogits.position_id)
            # a record for no input position is checked, then skipped
            if i is not None:
                rows[i] = _reference_row(batch[i], u[i], rlogits, args.rho)
            # dropped before the next line is decoded
            del rlogits

    # a row's error waits for the whole dump: a later line's parse error wins
    _parse_file(read, args.reference)
    for pid, row in zip(batch.position_ids, rows):
        if row is None:
            raise ValidationError(f"reference dump has no record for position {pid}")
        if isinstance(row, Exception):
            raise row
    max_perturbations = [row[7] for row in rows if row[7] is not None]
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
    # no rows make no columns, which the writers read as an empty report
    _emit(payload, REFERENCE_FIELDS, list(zip(*rows)), args)
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
        # one record at a time: a V = 151,936 record's line is about 7 MB
        with open(args.dump, "w", encoding="utf-8") as handle:
            for i, z in enumerate(teacher):
                handle.write(serialize_observations(
                    [sim.censor(z, args.vocab, position_id=f"pos{i}")]))
    sweep = sim.ksweep([sim.score_sorted(teacher, max(args.k))], args.k)
    _emit({"command": "simulate", "seed": args.seed, "law": args.law}, SIMULATE_FIELDS,
          _sweep_columns(sweep, SIMULATE_FIELDS), args)
    return 0


def cmd_compose(args) -> int:
    batch = _parse_file(parse_observations, args.input)
    ms, u, log_odds = _diameters(batch)
    _check_float_range(batch, ms)
    sup_kl, t_at = (c.tolist() for c in mm.symmetric_sup(ms, log_odds, u))
    r_bin = mm.reserve(u)[1].tolist()
    avg_lower, avg_upper, factored_sum = sim.average_risk(r_bin, sup_kl)
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
    _emit(payload, COMPOSE_FIELDS, (batch.position_ids, u.tolist(), r_bin, sup_kl, t_at),
          args)
    return 0


def cmd_oracle(args) -> int:
    # imported here so that no analysis command loads the brute-force code
    from .oracles import oracle_battery

    checks = oracle_battery(seed=args.seed)
    _emit({"command": "oracle", "seed": args.seed}, ORACLE_FIELDS,
          [[c[f] for c in checks] for f in ORACLE_FIELDS], args)
    failed = [c for c in checks if c["status"] != "PASS"]
    if failed:
        _emit_errors(("message", "detail"),
                     ([f"oracle check failed: {c['check']}" for c in failed],
                      [c["detail"] for c in failed]))
        return 1
    return 0


def _parse_k_list(text: str) -> list[int]:
    """The sorted Ks of a comma-separated list; an empty part, a repeated K
    or a K below 1 is an error rather than dropped."""
    try:
        ks = sorted(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad K list {text!r}") from exc
    if ks[0] < 1 or len(set(ks)) < len(ks):
        raise argparse.ArgumentTypeError(f"bad K list {text!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the ``censet`` command line on each call."""
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
    p.add_argument("--k", type=_parse_k_list, default=(1, 5, 10, 20, 50, 100))
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
    p.add_argument("--k", type=_parse_k_list, default=(1, 5, 10, 20, 50))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads with, built when ``main`` is first
    called.  Parsing leaves a parser unchanged and every default is
    immutable, so no call sees state from an earlier one."""
    return build_parser()


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc's malloc serve requests below 16 MiB from its heap and keep
    up to 32 MiB of it free, for the rest of the process; elsewhere, nothing.

    Commands allocate and free arrays over the vocabulary, 1.2 MB each at
    V = 151,936, per row and per call.  glibc's thresholds start at 128 KiB
    and rise only when the process frees a larger mapped block, so until
    then each such array is mapped, or trimmed off the heap once freed, and
    faulted in anew.  On the topk-152k benchmark inputs, a fresh
    ``censet reference`` took 7,330 minor faults and 36-46 ms, against
    1,109 and 23-31 ms with these settings, and repeated in one process
    7,464 faults and 27 ms a call against none and 8.8 ms; a fulldump-32k
    ``ksweep`` in one process took 14,458 faults a call against one (2-vCPU
    Xeon).  Below 16 MiB lie the 8 MiB (256, 4,096) matrices of
    simulate-4k too: with 4 MiB and 8 MiB its ``peak_rss_mb`` rose from
    70.3 to 73.9 MB, the matrices mapped while the heap kept its own.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
        mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its
    exit code; a usage error raises ``SystemExit(2)`` as argparse does.

    ``main`` may be called any number of times in one process.  The parser
    is built on the first call and reused after it, while the policy file
    named by ``CENSET_NUMERIC_POLICY`` is read on every call.  The first
    call also sets how the C allocator keeps freed memory (see
    :func:`_keep_freed_memory`).
    """
    _keep_freed_memory()
    args = _parser().parse_args(argv)
    policy_path = os.environ.get(POLICY_ENV_VAR)
    try:
        with use_policy(load_policy_file(policy_path) if policy_path else policy()):
            return _HANDLERS[args.command](args)
    except ParseError as exc:
        _emit_errors(("message", "line"), ([str(exc)], [exc.line]))
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError: an allocation refused outright, e.g. O(V) at V = 2^62
        _emit_errors(("message",), ([str(exc)],))
        return 1


if __name__ == "__main__":
    sys.exit(main())
