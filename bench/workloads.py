"""Benchmark workloads: seeded input generation and the command list of each.

Every workload runs all seven CLI subcommands in each pass, so every
end-to-end metric exists on every workload; the sizes decide which layers
dominate.  Inputs are made from censet's own synthetic teachers
(``simulate.generate_teacher``) and written as JSONL, so the program under
test sees only files.  Top-K selection and the expected statistics used by
the checks are computed here with plain numpy, independently of censet's
``censor``/``geometry``/``ksweep``.

Run as a script to generate one workload's inputs into a directory (the
benchmark does this in a child process, so generation cost and memory stay
out of the measured process)::

    python3 bench/workloads.py <workload> <seed> <out-dir>
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.special import expit, logsumexp  # noqa: E402

from censet import simulate as sim  # noqa: E402

KS = (1, 5, 10, 20, 50, 100)
K_ARG = ",".join(map(str, KS))
TOPK = 20
DELTA = 0.1
RHO = 1.0
ORACLE_SEED = 0
# fixed seed and positions of the sup_kl undershoot probe (topk-152k layout)
PROBE_SEED = 0
PROBE_POSITIONS = 64

V152K = 151_936
# (law, temperatures): each teacher row is observed at four temperatures,
# which spreads U_K from ~1e-28 through moderate values to the >0.99 regime
# of real dumps; dividing a row by T equals generate_teacher at temperature T
LAWS_152K = (
    (sim.GaussianIID(0.0, 1.0), (1.0, 0.2, 0.05, 0.02)),
    (sim.GaussianIID(0.0, 2.0), (1.0, 0.5, 0.1, 0.03)),
    (sim.DirichletSoftmax(1.0), (1.0, 0.3, 0.1, 0.05)),
    (sim.PeakedHead(5, 10.0), (1.0, 1.5, 2.0, 3.0)),
)
LAWS_32K = (
    sim.GaussianIID(0.0, 1.0),
    sim.GaussianIID(0.0, 3.0),
    sim.DirichletSoftmax(1.0),
    sim.PeakedHead(3, 8.0),
)


def _cmd(name, *argv, reps=1):
    return {"name": name, "argv": list(argv), "reps": reps}


# one pass of each workload; {d} is the run directory, {seed} the workload seed.
# Short commands repeat within a pass so every command gets enough samples
# for a steady statistic; a pass takes ~8 s (topk, simulate) or ~16 s (fulldump).
COMMANDS = {
    "topk-152k": [
        _cmd("analyze", "analyze", "--input", "{d}/obs.jsonl", "--format", "json"),
        _cmd("certify", "certify", "--input", "{d}/obs.jsonl", "--delta", str(DELTA),
             "--format", "json", reps=3),
        _cmd("compose", "compose", "--input", "{d}/obs.jsonl", "--format", "json"),
        _cmd("ksweep", "ksweep", "--input", "{d}/full.jsonl", "--k", K_ARG),
        _cmd("reference", "reference", "--input", "{d}/refobs.jsonl",
             "--reference", "{d}/ref.jsonl", "--rho", str(RHO), "--format", "json"),
        _cmd("simulate", "simulate", "--vocab", str(V152K), "--positions", "1",
             "--law", "gaussian", "--seed", "{seed}", "--k", K_ARG, "--format", "json", reps=2),
        _cmd("oracle", "oracle", "--seed", str(ORACLE_SEED), "--format", "json"),
    ],
    "fulldump-32k": [
        _cmd("ksweep", "ksweep", "--input", "{d}/full.jsonl", "--k", K_ARG),
        _cmd("reference", "reference", "--input", "{d}/obs.jsonl",
             "--reference", "{d}/ref.jsonl", "--rho", str(RHO), "--format", "json"),
        _cmd("analyze", "analyze", "--input", "{d}/obs.jsonl", "--format", "json", reps=4),
        _cmd("certify", "certify", "--input", "{d}/obs.jsonl", "--delta", str(DELTA),
             "--format", "json", reps=10),
        _cmd("compose", "compose", "--input", "{d}/obs.jsonl", "--format", "json", reps=4),
        _cmd("simulate", "simulate", "--vocab", "32000", "--positions", "4",
             "--law", "gaussian", "--seed", "{seed}", "--k", K_ARG, "--format", "json", reps=2),
        _cmd("oracle", "oracle", "--seed", str(ORACLE_SEED), "--format", "json", reps=2),
    ],
    "simulate-4k": [
        _cmd("simulate", "simulate", "--vocab", "4096", "--positions", "256",
             "--law", "dirichlet", "--seed", "{seed}", "--k", K_ARG, "--format", "json"),
        _cmd("oracle", "oracle", "--seed", str(ORACLE_SEED), "--format", "json"),
        _cmd("analyze", "analyze", "--input", "{d}/obs.jsonl", "--format", "json", reps=2),
        _cmd("certify", "certify", "--input", "{d}/obs.jsonl", "--delta", str(DELTA),
             "--format", "json", reps=4),
        _cmd("compose", "compose", "--input", "{d}/obs.jsonl", "--format", "json", reps=2),
        _cmd("ksweep", "ksweep", "--input", "{d}/full.jsonl", "--k", K_ARG),
        _cmd("reference", "reference", "--input", "{d}/refobs.jsonl",
             "--reference", "{d}/ref.jsonl", "--rho", str(RHO), "--format", "json", reps=3),
    ],
}

# small inputs run once before timing (and under the tracer completeness check)
WARMUP = [
    _cmd("analyze", "analyze", "--input", "{d}/warm_obs.jsonl", "--format", "json"),
    _cmd("certify", "certify", "--input", "{d}/warm_obs.jsonl", "--delta", str(DELTA),
         "--format", "json"),
    _cmd("compose", "compose", "--input", "{d}/warm_obs.jsonl", "--format", "json"),
    _cmd("ksweep", "ksweep", "--input", "{d}/warm_full.jsonl", "--k", K_ARG),
    _cmd("reference", "reference", "--input", "{d}/warm_obs.jsonl",
         "--reference", "{d}/warm_ref.jsonl", "--rho", str(RHO), "--format", "json"),
    _cmd("simulate", "simulate", "--vocab", "128", "--positions", "4",
         "--law", "gaussian", "--seed", "{seed}", "--k", K_ARG, "--format", "json"),
    _cmd("oracle", "oracle", "--seed", str(ORACLE_SEED), "--format", "json"),
]

PROBE = _cmd("analyze", "analyze", "--input", "{d}/probe.jsonl", "--format", "json")


def _row_seed(seed: int, row: int) -> int:
    return (seed << 24) | row


def _teacher(law, vocab: int, seed: int, n: int = 1) -> np.ndarray:
    config = sim.SyntheticTeacherConfig(vocab_size=vocab, law=law, seed=seed)
    return sim.generate_teacher(config, n)


def _top_ids(z: np.ndarray, k: int) -> np.ndarray:
    """The k highest scores, descending, ties to the lower id."""
    kth = np.partition(z, len(z) - k)[len(z) - k]
    above = np.flatnonzero(z > kth)
    ties = np.flatnonzero(z == kth)[: k - len(above)]
    ids = np.concatenate([above, ties])
    return ids[np.lexsort((ids, -z[ids]))]


def _censored(pid: str, mode: str, z: np.ndarray, vocab: int):
    """(pid, mode, top ids, their scores) of a row already on the mode's scale."""
    ids = _top_ids(z, min(TOPK, vocab))
    return pid, mode, ids, z[ids]


def _mode(position: int) -> str:
    return "logprobs" if position % 4 == 3 else "logits"


def _scaled(z: np.ndarray, mode: str) -> np.ndarray:
    """Scores on the scale a top-K API of this mode reports."""
    return z - float(logsumexp(z)) if mode == "logprobs" else z


def _obs_line(pid: str, vocab: int, mode: str, ids, scores) -> str:
    if mode == "logprobs":
        scores = np.minimum(scores, 0.0)
    topk = ", ".join(
        f'{{"token": {t}, "score": {s!r}}}'
        for t, s in zip(ids.tolist(), np.asarray(scores, dtype=float).tolist())
    )
    return (f'{{"vocab_size": {vocab}, "mode": "{mode}", '
            f'"position_id": "{pid}", "topk": [{topk}]}}')


def _expected_uk(vocab: int, scores: list[float]) -> float:
    m = vocab - len(scores)
    if m == 0:
        return 0.0
    return float(expit(math.log(m) + min(scores) - float(logsumexp(scores))))


class _Writer:
    """Collects JSONL files plus the expected values the checks compare to."""

    def __init__(self, out: Path):
        self.out = out
        self.expected: dict = {}

    def lines(self, name: str, lines: list[str]) -> None:
        with open(self.out / name, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")

    def observations(self, name: str, vocab: int, positions) -> list[float]:
        """Write top-K observations; positions yield (pid, mode, ids, scores)."""
        lines, uks = [], []
        for pid, mode, ids, scores in positions:
            line = _obs_line(pid, vocab, mode, ids, scores)
            lines.append(line)
            parsed = [e["score"] for e in json.loads(line)["topk"]]
            uks.append(_expected_uk(vocab, parsed))
        self.lines(name, lines)
        return uks

    def full_dump(self, name: str, rows: np.ndarray) -> None:
        """K = V records, listed by descending score like a real dump."""
        lines = []
        for i, z in enumerate(rows):
            order = np.argsort(-z, kind="stable")
            lines.append(_obs_line(f"f{i}", rows.shape[1], "logits", order, z[order]))
        self.lines(name, lines)

    def dense_reference(self, name: str, pids, refs) -> None:
        self.lines(name, [
            f'{{"position_id": "{pid}", "dense": [{", ".join(map(repr, r.tolist()))}]}}'
            for pid, r in zip(pids, refs)
        ])

    def sparse_reference(self, name: str, pids, refs, n_entries: int) -> None:
        lines = []
        for pid, r in zip(pids, refs):
            ids = _top_ids(r, n_entries)
            rest = np.delete(r, ids)
            entries = ", ".join(
                f'{{"token": {t}, "logit": {s!r}}}'
                for t, s in zip(ids.tolist(), r[ids].tolist())
            )
            lines.append(f'{{"position_id": "{pid}", "default": {float(rest.max())!r}, '
                         f'"entries": [{entries}]}}')
        self.lines(name, lines)


def sweep_uk_means(rows: np.ndarray, ks=KS) -> list[float]:
    """Mean diameter per K from a sort and prefix logsumexp per row."""
    v = rows.shape[1]
    out = []
    desc = -np.sort(-rows, axis=1)
    for k in ks:
        m = v - k
        uks = np.array([
            0.0 if m == 0 else
            float(expit(math.log(m) + d[k - 1] - float(logsumexp(d[:k]))))
            for d in desc
        ])
        out.append(float(uks.mean()))
    return out


def _reference_noise(seed: int, shape) -> np.ndarray:
    return np.random.default_rng([seed, 7]).normal(0.0, 0.5, size=shape)


def _topk_positions(seed: int, n_positions: int):
    """(pid, mode, ids, scores, full scaled row) for the topk-152k layout.

    Dividing by a positive temperature keeps the order, so each row's top
    ids are selected once for its four temperatures.
    """
    for r in range((n_positions + 3) // 4):
        law, temps = LAWS_152K[r % len(LAWS_152K)]
        z = _teacher(law, V152K, _row_seed(seed, r))[0]
        ids = _top_ids(z, TOPK)
        for j in range(4):
            i = 4 * r + j
            if i >= n_positions:
                return
            mode = _mode(i)
            zt = z / temps[(j + r) % 4]
            shift = float(logsumexp(zt)) if mode == "logprobs" else 0.0
            yield f"p{i}", mode, ids, zt[ids] - shift, zt - shift


def _gen_topk_152k(w: _Writer, seed: int) -> dict:
    n = 1000
    kept = []

    def tee():
        for *item, row in _topk_positions(seed, n):
            if len(kept) < 8:
                kept.append((item, row))
            yield item

    uks = w.observations("obs.jsonl", V152K, tee())
    w.expected["analyze"] = w.expected["certify"] = w.expected["compose"] = {
        "positions": n, "U_K": uks,
    }
    w.observations("refobs.jsonl", V152K, (item for item, _ in kept))
    noise = _reference_noise(seed, (len(kept), V152K))
    refs = [row + e for (_, row), e in zip(kept, noise)]
    w.sparse_reference("ref.jsonl", [item[0] for item, _ in kept], refs, 200)
    w.expected["reference"] = {
        "positions": len(kept), "U_K": uks[: len(kept)],
    }
    full = _teacher(sim.GaussianIID(0.0, 1.0), V152K, _row_seed(seed, 1 << 20))
    w.full_dump("full.jsonl", full)
    w.expected["ksweep"] = {"positions": 1, "uk_mean": sweep_uk_means(full)}
    w.expected["simulate"] = {
        "positions": 1,
        "uk_mean": sweep_uk_means(_teacher(sim.GaussianIID(0.0, 1.0), V152K, seed)),
    }
    return {"U_K": uks}


def _gen_fulldump_32k(w: _Writer, seed: int) -> dict:
    v, n = 32_000, 64
    rows = np.stack([
        _teacher(LAWS_32K[r % len(LAWS_32K)], v, _row_seed(seed, r))[0]
        for r in range(n)
    ])
    w.full_dump("full.jsonl", rows)
    w.expected["ksweep"] = {"positions": n, "uk_mean": sweep_uk_means(rows)}
    scaled = [_scaled(z, _mode(i)) for i, z in enumerate(rows)]
    uks = w.observations(
        "obs.jsonl", v, (_censored(f"p{i}", _mode(i), z, v) for i, z in enumerate(scaled))
    )
    exp = {"positions": n, "U_K": uks}
    for name in ("analyze", "certify", "compose", "reference"):
        w.expected[name] = exp
    noise = _reference_noise(seed, rows.shape)
    w.dense_reference("ref.jsonl", [f"p{i}" for i in range(n)],
                      [z + e for z, e in zip(scaled, noise)])
    w.expected["simulate"] = {
        "positions": 4,
        "uk_mean": sweep_uk_means(_teacher(sim.GaussianIID(0.0, 1.0), v, seed, 4)),
    }
    return {"U_K": uks}


def _gen_simulate_4k(w: _Writer, seed: int) -> dict:
    v, n, n_small = 4096, 256, 32
    # the same matrix `simulate --law dirichlet --seed <seed>` draws internally
    rows = _teacher(sim.DirichletSoftmax(1.0), v, seed, n)
    w.expected["simulate"] = {"positions": n, "uk_mean": sweep_uk_means(rows)}
    scaled = [_scaled(z, _mode(i)) for i, z in enumerate(rows)]
    uks = w.observations(
        "obs.jsonl", v, (_censored(f"p{i}", _mode(i), z, v) for i, z in enumerate(scaled))
    )
    for name in ("analyze", "certify", "compose"):
        w.expected[name] = {"positions": n, "U_K": uks}
    w.observations(
        "refobs.jsonl", v,
        (_censored(f"p{i}", _mode(i), z, v) for i, z in enumerate(scaled[:n_small])),
    )
    noise = _reference_noise(seed, (n_small, v))
    w.dense_reference("ref.jsonl", [f"p{i}" for i in range(n_small)],
                      [z + e for z, e in zip(scaled, noise)])
    w.expected["reference"] = {"positions": n_small, "U_K": uks[:n_small]}
    w.full_dump("full.jsonl", rows[:n_small])
    w.expected["ksweep"] = {"positions": n_small, "uk_mean": sweep_uk_means(rows[:n_small])}
    return {"U_K": uks}


def _gen_warmup(w: _Writer, seed: int) -> None:
    v, n = 128, 8
    rows = _teacher(sim.GaussianIID(0.0, 2.0), v, _row_seed(seed, 1 << 21), n)
    scaled = [_scaled(z, _mode(i)) for i, z in enumerate(rows)]
    uks = w.observations(
        "warm_obs.jsonl", v,
        (_censored(f"p{i}", _mode(i), z, v) for i, z in enumerate(scaled)),
    )
    w.dense_reference("warm_ref.jsonl", [f"p{i}" for i in range(n)],
                      [z + e for z, e in zip(scaled, _reference_noise(seed, rows.shape))])
    w.full_dump("warm_full.jsonl", rows[:4])
    w.expected["warmup"] = {
        "analyze": {"positions": n, "U_K": uks},
        "certify": {"positions": n, "U_K": uks},
        "compose": {"positions": n, "U_K": uks},
        "reference": {"positions": n, "U_K": uks},
        "ksweep": {"positions": 4, "uk_mean": sweep_uk_means(rows[:4])},
        "simulate": {
            "positions": 4,
            "uk_mean": sweep_uk_means(_teacher(sim.GaussianIID(0.0, 1.0), v, seed, 4)),
        },
    }


def _gen_probe(w: _Writer) -> None:
    uks = w.observations("probe.jsonl", V152K, (
        item for *item, _ in _topk_positions(PROBE_SEED, PROBE_POSITIONS)))
    w.expected["probe"] = {"positions": PROBE_POSITIONS, "U_K": uks}


GENERATORS = {
    "topk-152k": _gen_topk_152k,
    "fulldump-32k": _gen_fulldump_32k,
    "simulate-4k": _gen_simulate_4k,
}


def generate(workload: str, seed: int, out: Path, probe: bool) -> dict:
    """Write a workload's inputs into ``out`` and return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    w = _Writer(out)
    start = time.perf_counter()
    stats = GENERATORS[workload](w, seed)
    _gen_warmup(w, seed)
    if probe:
        _gen_probe(w)
    files = {}
    for path in sorted(out.glob("*.jsonl")):
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        files[path.name] = {"sha256": digest.hexdigest(), "bytes": path.stat().st_size}
    return {
        "workload": workload,
        "seed": seed,
        "files": files,
        "uk_quartiles": [float(q) for q in np.quantile(stats["U_K"], (0.25, 0.5, 0.75))],
        "generation_s": time.perf_counter() - start,
        "expected": w.expected,
    }


if __name__ == "__main__":
    name, seed_text, out_dir = sys.argv[1:4]
    manifest = generate(name, int(seed_text), Path(out_dir), probe="--probe" in sys.argv[4:])
    with open(Path(out_dir) / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
