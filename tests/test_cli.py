"""Command-line surface: reports, formats, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from censet import observation
from censet.cli import (
    ANALYZE_FIELDS,
    CERTIFY_FIELDS,
    _json_report,
    main,
)
from censet.numerics import (
    NumericPolicy,
    load_policy_file,
    logsumexp,
    policy,
    use_policy,
)
from censet.observation import (
    AccessMode,
    parse_observations,
    serialize_observations,
)
from censet.simulate import (
    GaussianIID,
    SyntheticTeacherConfig,
    _dump_blocks,
    censor,
    generate_teacher,
    score_sorted,
)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.jsonl"
    path.write_text(
        '{"vocab_size":4,"mode":"logits","position_id":"a",'
        '"topk":[{"token":2,"score":1.0},{"token":0,"score":0.0}]}\n'
        '{"vocab_size":5,"mode":"logprobs","position_id":"b",'
        '"topk":[{"token":1,"score":-0.5},{"token":3,"score":-1.5}]}\n'
    )
    return path


@pytest.fixture
def dump_file(tmp_path):
    rng = np.random.default_rng(3)
    observations = [
        censor(rng.normal(0.0, 2.0, size=30), 30, position_id=f"p{i}")
        for i in range(6)
    ]
    path = tmp_path / "dump.jsonl"
    path.write_text(serialize_observations(observations))
    return path


# canonical records (serialize_observations output): source token order
# differs from score order, scores tie (-0.0 against 0.0 included)
MIXED_ORDER_CANONICAL = (
    '{"vocab_size": 12, "mode": "logprobs", "position_id": "tie", "topk": '
    '[{"token": 7, "score": -2.5}, {"token": 3, "score": -1.0}, '
    '{"token": 9, "score": -2.5}, {"token": 0, "score": -1.0}]}\n'
    '{"vocab_size": 6, "mode": "logprobs", "position_id": "near", "topk": '
    '[{"token": 5, "score": -0.3}, {"token": 1, "score": -1.75}, '
    '{"token": 2, "score": -3.0}]}\n'
    '{"vocab_size": 40, "mode": "logprobs", "position_id": "wide", "topk": '
    '[{"token": 39, "score": -3.0}, {"token": 2, "score": -0.9}, '
    '{"token": 17, "score": -3.0}, {"token": 4, "score": -2.2}, '
    '{"token": 21, "score": -3.0}]}\n'
    '{"vocab_size": 9, "mode": "logits", "position_id": "signed-zero", "topk": '
    '[{"token": 8, "score": 0.0}, {"token": 1, "score": 1.5}, '
    '{"token": 4, "score": -0.0}, {"token": 6, "score": 1.5}]}\n'
    '{"vocab_size": 30, "mode": "logprobs", "position_id": "single", "topk": '
    '[{"token": 11, "score": -0.0}]}\n'
)
# plus an unnamed record with tied JSON integer scores
MIXED_ORDER_JSONL = MIXED_ORDER_CANONICAL + (
    '{"vocab_size":7,"mode":"logits","topk":[{"token":3,"score":2},'
    '{"token":0,"score":-1},{"token":5,"score":2}]}\n'
)


# two positions for `reference`: a dense and a sparse reference record
REFERENCE_OBS_JSONL = (
    '{"vocab_size":6,"mode":"logits","position_id":"dense",'
    '"topk":[{"token":4,"score":1.25},{"token":0,"score":-0.5},'
    '{"token":2,"score":0.75}]}\n'
    '{"vocab_size":8,"mode":"logprobs","position_id":"sparse",'
    '"topk":[{"token":1,"score":-0.4},{"token":6,"score":-2.0}]}\n'
)
REFERENCE_DUMP_JSONL = (
    '{"position_id":"dense","dense":[-0.25,0.5,1.0,-2.0,1.5,-1.0]}\n'
    '{"position_id":"sparse","default":-3.5,"entries":[{"token":1,"logit":-0.1},'
    '{"token":6,"logit":-1.2},{"token":3,"logit":-2.4}]}\n'
)

# sparse references without a default (one leaves a revealed token unlisted),
# with entries at and beyond V and with a -inf default, and an M = 0 row
REFERENCE_EDGE_OBS_JSONL = (
    '{"vocab_size":5,"mode":"logits","position_id":"no-default",'
    '"topk":[{"token":3,"score":0.5},{"token":0,"score":-0.25}]}\n'
    '{"vocab_size":6,"mode":"logits","position_id":"unlisted-revealed",'
    '"topk":[{"token":2,"score":1.0},{"token":5,"score":0.0}]}\n'
    '{"vocab_size":6,"mode":"logprobs","position_id":"beyond-V",'
    '"topk":[{"token":4,"score":-0.7},{"token":1,"score":-1.9}]}\n'
    '{"vocab_size":7,"mode":"logits","position_id":"neg-inf-default",'
    '"topk":[{"token":0,"score":2.0},{"token":6,"score":1.5},'
    '{"token":3,"score":0.25}]}\n'
    '{"vocab_size":3,"mode":"logits","position_id":"M=0",'
    '"topk":[{"token":2,"score":0.5},{"token":0,"score":-1.0},'
    '{"token":1,"score":-1.5}]}\n'
)
REFERENCE_EDGE_DUMP_JSONL = (
    '{"position_id":"no-default","entries":[{"token":4,"logit":-1.0},'
    '{"token":0,"logit":0.1},{"token":2,"logit":-0.6},{"token":1,"logit":-2.5},'
    '{"token":3,"logit":0.75}]}\n'
    '{"position_id":"unlisted-revealed","entries":[{"token":0,"logit":-0.5},'
    '{"token":1,"logit":-1.5},{"token":3,"logit":-0.2},{"token":4,"logit":-3.0},'
    '{"token":2,"logit":0.8}]}\n'
    '{"position_id":"beyond-V","default":-2.0,"entries":[{"token":6,"logit":5.0},'
    '{"token":0,"logit":-1.1},{"token":4,"logit":-0.5},{"token":1,"logit":-2.2},'
    '{"token":9223372036854775807,"logit":4.0}]}\n'
    '{"position_id":"neg-inf-default","default":"-inf","entries":'
    '[{"token":2,"logit":0.4},{"token":6,"logit":1.0},{"token":0,"logit":2.5}]}\n'
    '{"position_id":"M=0","dense":[-0.75,-1.25,0.25]}\n'
)

# M at or above 2**53, where M is no longer exact as a float: V = 2**64 - 1
# and V = 2**53 + 7 under logits, and V = 2**53 + 7 under normalized access
# with disjoint (log 0.6, log 0.3) and overlapping (log 0.9, log 2e-17) supports
HUGE_M_JSONL = (
    '{"vocab_size":18446744073709551615,"mode":"logits","position_id":"2^64-1",'
    '"topk":[{"token":7,"score":1.0},{"token":2,"score":-0.5}]}\n'
    '{"vocab_size":9007199254740999,"mode":"logits","position_id":"2^53+7",'
    '"topk":[{"token":0,"score":0.5},{"token":1,"score":-1.25}]}\n'
    '{"vocab_size":9007199254740999,"mode":"logprobs","position_id":"disjoint",'
    f'"topk":[{{"token":3,"score":{math.log(0.6)!r}}},'
    f'{{"token":9,"score":{math.log(0.3)!r}}}]}}\n'
    '{"vocab_size":9007199254740999,"mode":"logprobs","position_id":"overlapping",'
    f'"topk":[{{"token":3,"score":{math.log(0.9)!r}}},'
    f'{{"token":9,"score":{math.log(2e-17)!r}}}]}}\n'
)


class TestParsePathGolden:
    """Report bytes of the JSONL read path and of every row format.

    The JSON and ksweep pins were recorded before the observation arrays
    replaced per-pair tuples; the csv, table, ``--bits`` and ``reference``
    pins before the batch path replaced the per-row analysis; the
    reference-edge and huge-M pins before a sparse reference was laid out
    over the vocabulary."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        (root / "mixed.jsonl").write_text(MIXED_ORDER_JSONL)
        (root / "refobs.jsonl").write_text(REFERENCE_OBS_JSONL)
        (root / "refdump.jsonl").write_text(REFERENCE_DUMP_JSONL)
        (root / "edgeobs.jsonl").write_text(REFERENCE_EDGE_OBS_JSONL)
        (root / "edgedump.jsonl").write_text(REFERENCE_EDGE_DUMP_JSONL)
        (root / "huge.jsonl").write_text(HUGE_M_JSONL)
        for name, law in (("gauss", ["--law", "gaussian", "--sd", "2"]),
                          ("peaked", ["--law", "peaked", "--head-size", "3",
                                      "--gap", "2"])):
            assert main(
                ["simulate", "--vocab", "24", "--positions", "5", "--seed", "5",
                 "--k", "1", *law, "--dump", str(root / f"{name}.jsonl"),
                 "--format", "json", "--output", str(root / f"{name}.json")]
            ) == 0
        return root

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["analyze", "--input", "mixed.jsonl", "--format", "json"],
             "59e86bea1891ce0fc33b931c4488187989e3f64cf2120515917be3c7c7012d7d"),
            (["certify", "--input", "mixed.jsonl", "--delta", "0.1",
              "--format", "json"],
             "78859827fb50f89786fee34ed379a0db16c1cf9e639d301d7241ebd7b83d4847"),
            (["compose", "--input", "mixed.jsonl", "--format", "json"],
             "0fd1ae383326b163d305fb51a73970d13e80b62e354d6340d462d57ea2c57d85"),
            (["ksweep", "--input", "gauss.jsonl", "--k", "1,2,5,23,24"],
             "0bdb39c2879d6e982d9b781338490b0d031820d4e30c250578be3afb72aee566"),
            (["ksweep", "--input", "peaked.jsonl", "--k", "1,3,4,10"],
             "974db8a3c6a10a7737d95341f0e8685a5287e7cd60b2b7edab3e5aa77fdd0570"),
            (["analyze", "--input", "mixed.jsonl", "--format", "csv"],
             "2c70aa1e03a83a5cfa00aad70ace98b40d0a6c0cab867e01b1f930506c300605"),
            (["analyze", "--input", "mixed.jsonl", "--format", "table"],
             "9b411728ab158ced5fa2bc00d5843d3d46f43a92a42cceed5ceee96b295af4c9"),
            (["certify", "--input", "mixed.jsonl", "--delta", "0.1",
              "--format", "csv"],
             "d3065a72e2d36db16a923390825466fc3113ea6c5434cf1dbbba6e08f1e5223c"),
            (["certify", "--input", "mixed.jsonl", "--delta", "0.1",
              "--format", "table"],
             "e7a8a0df504436195c9e0cc0d31f66a8ba282b86b8d7af354a09ec38cae18971"),
            (["compose", "--input", "mixed.jsonl", "--format", "csv"],
             "8bcec13be61040941be09f0088eb43fe5e67f4b31206318fcc7695379614b9e5"),
            (["compose", "--input", "mixed.jsonl", "--format", "table"],
             "8c5b6bfcc7e35e2fb97dcdba272b1a6dc56ffdb2d1f68c745ad237156b809e06"),
            (["analyze", "--input", "mixed.jsonl", "--bits", "--format", "json"],
             "774cb5310828b2d6ac6a5607a7d38bd059145d66ef77c072156ae89ba94d0b94"),
            (["reference", "--input", "refobs.jsonl", "--reference",
              "refdump.jsonl", "--format", "json"],
             "b70a2ed65d3cd205a073561e50bdcec2a9366d7fa7ba4eaa31d1183d8b8c1525"),
            (["reference", "--input", "edgeobs.jsonl", "--reference",
              "edgedump.jsonl", "--rho", "0.25", "--format", "json"],
             "e133efda19609117f71b5937796d11df6f90e245454a116f77bcd858d0daba5c"),
            (["reference", "--input", "edgeobs.jsonl", "--reference",
              "edgedump.jsonl", "--rho", "0.25", "--format", "csv"],
             "b7112c186333a8982fe0fccc0a90ec5f8766a5234f03af630e103bbd5e643251"),
            (["analyze", "--input", "huge.jsonl", "--format", "csv"],
             "a167134b4c75d142ea033008d6c18051a6dc31f109b022b376f0155df0ad5762"),
            (["certify", "--input", "huge.jsonl", "--delta", "0.1",
              "--format", "csv"],
             "dfb7a44f0e45e8970fad9b778136990d021f588ef8c9835b726272b10a034ec2"),
            (["compose", "--input", "huge.jsonl", "--format", "csv"],
             "7c250f10edfee8f8e8cc7ac86c3b991f8f4114d6a696d0a1c23afbf48c652c1e"),
        ],
        ids=["analyze", "certify", "compose", "ksweep-gauss", "ksweep-peaked",
             "analyze-csv", "analyze-table", "certify-csv", "certify-table",
             "compose-csv", "compose-table", "analyze-bits", "reference",
             "reference-edges", "reference-edges-csv", "analyze-huge-M-csv",
             "certify-huge-M-csv", "compose-huge-M-csv"],
    )
    def test_report_bytes(self, argv, digest, inputs, tmp_path):
        out = tmp_path / "report"
        argv = [str(inputs / a) if a.endswith(".jsonl") else a for a in argv]
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("dump, ks", [("gauss.jsonl", "1,2,5,23,24"),
                                          ("peaked.jsonl", "1,3,4,10")])
    def test_ksweep_bytes_do_not_depend_on_chunks(self, dump, ks, inputs, tmp_path,
                                                  monkeypatch):
        def report(name):
            out = tmp_path / name
            assert main(["ksweep", "--input", str(inputs / dump), "--k", ks,
                         "--output", str(out)]) == 0
            return out.read_bytes()

        default = report("default")
        # one record per chunk
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", 1)
        assert report("one-record") == default

    def test_ksweep_ignores_topk_order(self, inputs, tmp_path):
        # the peaked dump ties scores; shuffling moves tied tokens around
        rng = np.random.default_rng(11)
        with (inputs / "peaked.jsonl").open() as handle:
            records = [json.loads(line) for line in handle]
        for record in records:
            rng.shuffle(record["topk"])
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(json.dumps(r) + "\n" for r in records))
        reports = []
        for dump in (inputs / "peaked.jsonl", shuffled):
            out = tmp_path / "report"
            assert main(["ksweep", "--input", str(dump), "--k", "1,2,3,4,10,24",
                         "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_serialize_round_trips_bytes(self, inputs):
        dump = (inputs / "peaked.jsonl").read_text()
        for text in (MIXED_ORDER_CANONICAL, dump):
            assert serialize_observations(parse_observations(text)) == text


class TestAnalyze:
    def test_json_report_schema(self, obs_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["analyze", "--input", str(obs_file), "--format", "json",
             "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "analyze"
        assert payload["units"] == "nats"
        assert "certified" in payload["footnote"]
        assert len(payload["rows"]) == 2
        for row in payload["rows"]:
            assert tuple(row.keys()) == ANALYZE_FIELDS
        a, b = payload["rows"]
        assert a["position_id"] == "a"
        assert a["U_K"] == pytest.approx(2 / (math.e + 3), rel=1e-12)
        assert a["r_bin"] <= a["sup_kl"] <= a["g_max"] + 1e-6
        assert a["t_star"] is None
        assert b["mode"] == "logprobs"
        assert b["t_star"] == pytest.approx(
            1 - math.exp(-0.5) - math.exp(-1.5), abs=1e-12
        )
        assert b["norm_condition"] in (
            "DisjointSupports", "SinglePoint", "OverlappingSupports"
        )
        assert b["diam_lower"] == b["diam_upper"]

    def test_exactly_identified_row(self, tmp_path):
        path = tmp_path / "full.jsonl"
        path.write_text(
            '{"vocab_size":2,"mode":"logits",'
            '"topk":[{"token":0,"score":1.0},{"token":1,"score":0.0}]}\n'
        )
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(path), "--format", "json",
                     "--output", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["exactly_identified"] is True
        assert row["U_K"] == 0.0
        assert row["r_bin"] == 0.0

    def test_single_censored_token_logprobs(self, tmp_path):
        path = tmp_path / "m1.jsonl"
        path.write_text(
            json.dumps(
                {
                    "vocab_size": 3,
                    "mode": "logprobs",
                    "topk": [
                        {"token": 0, "score": math.log(0.55)},
                        {"token": 1, "score": math.log(0.35)},
                    ],
                }
            )
            + "\n"
        )
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(path), "--format", "json",
                     "--output", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["norm_condition"] == "SinglePoint"
        assert row["diam_lower"] == row["diam_upper"] == 0.0

    def test_table_format(self, obs_file, capsys):
        assert main(["analyze", "--input", str(obs_file)]) == 0
        text = capsys.readouterr().out
        assert "position_id" in text and "U_K" in text

    def test_bits_conversion_is_display_only(self, obs_file, tmp_path):
        nats = tmp_path / "n.json"
        bits = tmp_path / "b.json"
        main(["analyze", "--input", str(obs_file), "--format", "json",
              "--output", str(nats)])
        main(["analyze", "--input", str(obs_file), "--format", "json",
              "--output", str(bits), "--bits"])
        row_n = json.loads(nats.read_text())["rows"][0]
        row_b = json.loads(bits.read_text())["rows"][0]
        assert row_b["r_bin"] == pytest.approx(row_n["r_bin"] / math.log(2), rel=1e-12)
        assert row_b["U_K"] == row_n["U_K"]  # not a divergence; untouched
        assert json.loads(bits.read_text())["units"] == "bits"

    def test_parse_error_exit_code_and_error_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = main(["analyze", "--input", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload["errors"][0]["line"] == 1

    def test_lines_end_at_newline_only(self, tmp_path, capsys):
        # U+2028, U+0085 and \x0c end a line for str.splitlines but not here;
        # CRLF endings lose their \r and line numbers count \n
        record = ('{"vocab_size":3,"mode":"logits","position_id":"%s",'
                  '"topk":[{"token":0,"score":0.0}]}')
        path = tmp_path / "seps.jsonl"
        path.write_bytes(
            (record % "a\u2028b" + "\r\n" + record % "c\x85d" + "\r\n").encode()
        )
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(path), "--format", "json",
                     "--output", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        assert [r["position_id"] for r in rows] == ["a\u2028b", "c\x85d"]
        path.write_bytes(
            (record % "e" + "\r\n\r\n" + record % "f\x0cg" + "\n").encode()
        )
        assert main(["analyze", "--input", str(path)]) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["line"] == 3
        assert error["message"] == (
            "line 3: invalid JSON (Invalid control character at)"
        )

    def test_bad_byte_names_its_line(self, tmp_path, capsys):
        record = '{"vocab_size":3,"mode":"logits","topk":[{"token":0,"score":0.0}]}'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(record.encode() + b"\n" + b'{"position_id": "\xff"}\n')
        assert main(["analyze", "--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["errors"] == [{
            "message": "line 2: 'utf-8' codec can't decode byte 0xff in "
                       "position 17: invalid start byte",
            "line": 2,
        }]

    def test_too_deep_a_line_names_it(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"vocab_size": 5, "mode": "logits", "topk": '
                        '[{"token": 1, "score": 0.5}], "extra": '
                        + "[" * 2000 + "]" * 2000 + "}\n")
        assert main(["analyze", "--input", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["errors"] == [
            {"message": "line 1: JSON nested too deeply to decode", "line": 1}
        ]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "errors" in json.loads(capsys.readouterr().err)


class TestKsweep:
    def test_csv_default(self, dump_file, capsys):
        assert main(["ksweep", "--input", str(dump_file), "--k", "1,5,10,30"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "K,uk_mean,uk_sd,rbin_mean,tail_mass_mean,n"
        assert len(lines) == 5
        uk_means = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(uk_means, uk_means[1:]))

    def test_rejects_partial_dump(self, obs_file, capsys):
        assert main(["ksweep", "--input", str(obs_file)]) == 1
        assert "full dump" in capsys.readouterr().err

    def test_rejects_mixed_vocab_sizes(self, tmp_path, capsys):
        path = tmp_path / "mixed.jsonl"
        path.write_text(serialize_observations(
            [censor(np.array([0.5, 1.0]), 2), censor(np.array([0.0, 2.0, 1.0]), 3)]
        ))
        assert main(["ksweep", "--input", str(path), "--k", "1"]) == 1
        assert "one vocab_size" in capsys.readouterr().err

    def test_errors_in_stream_order(self, dump_file, tmp_path, capsys):
        # the records are parsed and swept one chunk of batches at a time, and
        # a chunk's blocks end before its first bad record, so a bad record
        # is reported before any later line's error
        lines = dump_file.read_text().splitlines()
        partial = json.loads(lines[1])
        partial["topk"] = partial["topk"][:5]
        cases = (
            (json.dumps(partial), "full dump"),
            (serialize_observations([censor(np.zeros(31), 31)]).strip(),
             "one vocab_size"),
        )
        for bad, message in cases:
            path = tmp_path / "bad.jsonl"
            path.write_text("\n".join([lines[0], bad, "{not json"]) + "\n")
            assert main(["ksweep", "--input", str(path), "--k", "1"]) == 1
            (error,) = json.loads(capsys.readouterr().err)["errors"]
            assert message in error["message"] and "line" not in error

    @pytest.mark.parametrize("limit", [31, 1 << 17])
    def test_chunk_errors_in_stream_order(self, limit, dump_file, tmp_path, capsys,
                                          monkeypatch):
        # at 31 pairs (30 a record) the partial record closes the first chunk
        # and the later fault is in the second; by default all three lines
        # share one chunk
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", limit)
        lines = dump_file.read_text().splitlines()
        partial = json.loads(lines[1])
        partial["topk"] = partial["topk"][:5]
        out_of_range = json.loads(lines[2])
        out_of_range["topk"][0]["token"] = 99
        for later in ("{not json", json.dumps(out_of_range)):
            path = tmp_path / "bad.jsonl"
            path.write_text("\n".join([lines[0], json.dumps(partial), later]) + "\n")
            assert main(["ksweep", "--input", str(path), "--k", "1"]) == 1
            (error,) = json.loads(capsys.readouterr().err)["errors"]
            assert "full dump" in error["message"] and "line" not in error

    @pytest.mark.parametrize("limit", [1000, 1 << 17])
    def test_rows_equal_sorted_teacher_rows(self, limit, tmp_path, monkeypatch):
        # 1,000 pairs close a chunk every 5 records; by default one chunk and
        # one block hold all 40
        monkeypatch.setattr(observation, "_CHUNK_PAIRS", limit)
        teacher = generate_teacher(
            SyntheticTeacherConfig(200, GaussianIID(0.0, 2.0), seed=3), 40
        )
        # summing some of these rows in score order changes the last bit
        assert any(logsumexp(z) != logsumexp(np.sort(z)[::-1]) for z in teacher)
        path = tmp_path / "dump.jsonl"
        path.write_text(serialize_observations(
            [censor(z, len(z), position_id=f"p{i}") for i, z in enumerate(teacher)]
        ))
        with open(path, encoding="utf-8", newline="\n") as handle:
            blocks = list(_dump_blocks(handle))
        want_scores, want_ids, want_log_z, v = score_sorted(teacher, 200)
        assert len(blocks) == 40 * 200 // min(limit, 8000)
        assert all(block[3] == v for block in blocks)
        for got, want in zip(zip(*blocks), (want_scores, want_ids, want_log_z)):
            assert np.array_equal(np.concatenate(got), want)

    def test_empty_dump(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        assert main(["ksweep", "--input", str(path), "--k", "1"]) == 1
        assert "no positions" in capsys.readouterr().err

    def test_oversized_k_emits_skip_row(self, dump_file, capsys):
        assert main(["ksweep", "--input", str(dump_file), "--k", "5,200"]) == 0
        out, err = capsys.readouterr()
        assert out.strip().splitlines()[-1].startswith("200,nan")
        assert err == ""

    def test_every_k_skipped_still_counts_positions(self, dump_file, capsys):
        assert main(["ksweep", "--input", str(dump_file), "--k", "50,90",
                     "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        body = json.loads(out)
        assert body["n_positions"] == 6
        assert [(r["K"], r["n"]) for r in body["rows"]] == [(50, 0), (90, 0)]
        assert list(body["rows"][0]) == [
            "K", "uk_mean", "uk_sd", "rbin_mean", "tail_mass_mean", "n",
        ]
        assert all(math.isnan(r["uk_mean"]) for r in body["rows"])


class TestCertify:
    def test_verdict_row(self, obs_file, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["certify", "--input", str(obs_file), "--delta", "0.1",
             "--format", "json", "--output", str(out)]
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        assert {r["verdict"] for r in rows} <= {"IMPOSSIBLE", "OPEN", "THRESHOLD"}
        for r in rows:
            assert tuple(r.keys()) == CERTIFY_FIELDS
            assert r["delta"] == 0.1
            assert r["heuristic_u_max"] == pytest.approx(math.e * 0.1, rel=1e-12)


    @pytest.mark.parametrize("pid", ['a,"b"', "line\nbreak", "cr\r", 'quote"'])
    def test_csv_quotes_cells_that_need_it(self, pid, tmp_path):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(json.dumps({"vocab_size": 4, "mode": "logits", "position_id": pid,
                                   "topk": [{"token": 0, "score": 0.0}]}) + "\n")
        out = tmp_path / "c.csv"
        assert main(["certify", "--input", str(obs), "--delta", "0.1",
                     "--format", "csv", "--output", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            header, row = csv.reader(handle)
        assert header == list(CERTIFY_FIELDS)
        assert len(row) == len(header)
        assert row[0] == pid


    def test_table_escapes_cells(self, tmp_path):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(json.dumps({"vocab_size": 4, "mode": "logits",
                                   "position_id": "a\nb\tc\rd",
                                   "topk": [{"token": 0, "score": 0.0}]}) + "\n")
        out = tmp_path / "c.txt"
        assert main(["certify", "--input", str(obs), "--delta", "0.1",
                     "--format", "table", "--output", str(out)]) == 0
        _, _, row, *footer = out.read_bytes().decode().split("\n")
        assert row.split("  ")[0] == r"a\nb\tc\rd"
        assert all(line.startswith("# ") for line in footer[:-1]) and footer[-1] == ""


class TestReference:
    def test_shrinkage_report(self, tmp_path):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            '{"vocab_size":4,"mode":"logits","position_id":"a",'
            '"topk":[{"token":0,"score":1.0},{"token":1,"score":0.0}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        refs.write_text(
            '{"position_id":"a","dense":[1.1,0.2,-1.0,-1.0]}\n'
        )
        out = tmp_path / "r.json"
        assert main(
            ["reference", "--input", str(obs), "--reference", str(refs),
             "--rho", "0.5", "--format", "json", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        (row,) = payload["rows"]
        assert row["U_R"] == pytest.approx(0.2460, abs=5e-4)
        assert row["U_R"] <= row["U_K"]
        assert row["max_perturbation"] is not None
        assert "median_max_perturbation" in payload

    def test_missing_position_errors(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            '{"vocab_size":3,"mode":"logits","position_id":"zzz",'
            '"topk":[{"token":0,"score":0.0}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"position_id":"a","dense":[0.0,0.0,0.0]}\n')
        assert main(
            ["reference", "--input", str(obs), "--reference", str(refs)]
        ) == 1
        assert "zzz" in capsys.readouterr().err

    def test_nan_reference_score_is_an_error(self, tmp_path, capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            '{"vocab_size":4,"mode":"logits","position_id":"p0",'
            '"topk":[{"token":0,"score":2.0},{"token":1,"score":1.0}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"position_id":"p0","dense":[2.0,1.0,NaN,0.5]}\n')
        assert main(
            ["reference", "--input", str(obs), "--reference", str(refs)]
        ) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["message"] == "line 1: dense score must not be NaN"

    def test_wrong_dense_length_fails_with_no_censored_token(self, tmp_path,
                                                             capsys):
        # M = 0: the length is checked as on every other row
        obs = tmp_path / "obs.jsonl"
        obs.write_text(
            '{"vocab_size":2,"mode":"logits","position_id":"full",'
            '"topk":[{"token":0,"score":0.0},{"token":1,"score":-1.0}]}\n'
        )
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"position_id":"full","dense":[0.0,-1.0,-2.0]}\n')
        assert main(
            ["reference", "--input", str(obs), "--reference", str(refs)]
        ) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["message"] == "dense reference has length 3, expected vocab_size 2"

    @pytest.mark.parametrize("rho, shown", [("-1", "-1.0"), ("nan", "nan")])
    def test_bad_rho_rejected_before_any_row(self, rho, shown, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            ["reference", "--input", str(empty), "--reference", str(empty),
             "--rho", rho]
        ) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["message"] == f"rho must be nonnegative, got {shown}"


class TestSimulate:
    def test_seed_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            dump = tmp_path / f"{name}_dump.jsonl"
            assert main(
                ["simulate", "--vocab", "40", "--positions", "6", "--seed", "11",
                 "--k", "1,5,10", "--format", "json", "--output", str(out),
                 "--dump", str(dump)]
            ) == 0
            outs.append((out.read_bytes(), dump.read_bytes()))
        assert outs[0] == outs[1]

    def test_different_seed_changes_output(self, tmp_path):
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.json"
            assert main(
                ["simulate", "--vocab", "40", "--positions", "4", "--seed", seed,
                 "--k", "5", "--format", "json", "--output", str(out)]
            ) == 0
            texts.append(out.read_text())
        assert texts[0] != texts[1]

    def test_peaked_law_flag(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(
            ["simulate", "--law", "peaked", "--head-size", "2", "--gap", "8",
             "--vocab", "30", "--positions", "3", "--k", "2",
             "--format", "json", "--output", str(out)]
        ) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["n"] == 3

    def test_dump_reingests_through_ksweep(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        assert main(
            ["simulate", "--vocab", "25", "--positions", "4", "--seed", "2",
             "--k", "5", "--dump", str(dump), "--format", "json",
             "--output", str(tmp_path / "ignore.json")]
        ) == 0
        assert main(["ksweep", "--input", str(dump), "--k", "1,5,25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("25,0.0,")  # K = V row: exactly identified


class TestUnderflowedDiameter:
    """U_K underflows to 0 with M > 0: the position is exact, not an error."""

    @pytest.fixture
    def underflow_file(self, tmp_path):
        path = tmp_path / "under.jsonl"
        path.write_text(
            '{"vocab_size":10,"mode":"logits","position_id":"u",'
            '"topk":[{"token":0,"score":0.0},{"token":1,"score":-800.0}]}\n'
        )
        return path

    @pytest.mark.parametrize("command", ["analyze", "compose"])
    def test_reports_zero_sup(self, command, underflow_file, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            [command, "--input", str(underflow_file), "--format", "json",
             "--output", str(out)]
        ) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert (row["U_K"], row["r_bin"], row["sup_kl"]) == (0.0, 0.0, 0.0)

    def test_simulate_with_wide_gap(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(
            ["simulate", "--law", "peaked", "--gap", "400", "--k", "1,5",
             "--format", "json", "--output", str(out)]
        ) == 0
        wide, exact = json.loads(out.read_text())["rows"]
        assert wide["sup_kl_mean"] >= wide["rbin_mean"] > 0.0
        assert (exact["uk_mean"], exact["sup_kl_mean"]) == (0.0, 0.0)


# scores at the edges of the float range, of exp and of the feasibility slack
EXTREME_SCORES = (0.0, -0.0, -1e-12, -1e-300, -5e-324, -745.0, -800.0,
                  1e308, -1e308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 710.0, -710.0)


@st.composite
def extreme_records(draw):
    vocab_size = draw(st.integers(1, 8))
    tokens = draw(st.lists(st.integers(0, vocab_size - 1), min_size=1,
                           unique=True))
    return {
        "vocab_size": vocab_size,
        "mode": draw(st.sampled_from(["logits", "logprobs"])),
        "topk": [{"token": t, "score": draw(st.sampled_from(EXTREME_SCORES))}
                 for t in tokens],
    }


class TestExtremeScores:
    """Every command ends in a report or a JSON error, never a traceback."""

    @given(records=st.lists(extreme_records(), min_size=1, max_size=3))
    @example(records=[{"vocab_size": 10, "mode": "logprobs", "topk": [
        {"token": 0, "score": -1e-12}, {"token": 1, "score": -745.0}]}])
    @example(records=[{"vocab_size": 5, "mode": "logprobs", "topk": [
        {"token": 4, "score": -1.7976931348623157e308},
        {"token": 2, "score": -1.7976931348623157e308},
        {"token": 1, "score": -1e-300}]}])
    @settings(max_examples=100, deadline=None)
    def test_exit_code_only(self, records, tmp_path_factory):
        work = tmp_path_factory.mktemp("extreme")
        path = work / "obs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        for argv in (["analyze"], ["certify", "--delta", "0.1"], ["compose"]):
            code = main([*argv, "--input", str(path), "--format", "json",
                         "--output", str(work / "r.json")])
            assert code in (0, 1)

    @pytest.mark.parametrize(
        "topk, vocab_size",
        [
            ([-1e-12, -745.0], 10),
            ([-1.7976931348623157e308, -1.7976931348623157e308, -1e-300], 5),
        ],
        ids=["subnormal-cap", "zero-cap"],
    )
    def test_vanishing_cap_is_overlapping(self, topk, vocab_size, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text(json.dumps({
            "vocab_size": vocab_size, "mode": "logprobs",
            "topk": [{"token": t, "score": x} for t, x in enumerate(topk)],
        }) + "\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(path), "--format", "json",
                     "--output", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        assert row["norm_condition"] == "OverlappingSupports"
        assert row["diam_lower"] == row["diam_upper"] == row["t_star"] > 0.0


class TestDegenerateParameters:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify", "--delta", "nan"], "delta must be positive, got nan"),
            (["simulate", "--law", "dirichlet", "--concentration", "0"],
             "concentration must be finite and > 0, got 0.0"),
            (["simulate", "--law", "peaked", "--gap", "-3"],
             "gap must be finite and >= 0, got -3.0"),
            (["simulate", "--temperature", "inf"],
             "temperature must be finite and > 0, got inf"),
            (["simulate", "--temperature", "nan"],
             "temperature must be finite and > 0, got nan"),
            (["simulate", "--temperature", "0"],
             "temperature must be finite and > 0, got 0.0"),
            (["simulate", "--mean", "inf"], "mean must be finite, got inf"),
            (["simulate", "--sd", "-1"], "sd must be finite and >= 0, got -1.0"),
            (["simulate", "--sd", "nan"], "sd must be finite and >= 0, got nan"),
        ],
        ids=["delta-nan", "concentration-0", "gap-negative", "temperature-inf",
             "temperature-nan", "temperature-0", "mean-inf", "sd-negative",
             "sd-nan"],
    )
    def test_rejected(self, argv, message, obs_file, tmp_path, capsys):
        if argv[0] == "certify":
            argv = [*argv, "--input", str(obs_file)]
        out = tmp_path / "r.json"
        assert main([*argv, "--output", str(out)]) == 1
        assert not out.exists()
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["message"] == message


# JSON scalars a report can hold, with the encoders' edge cases
REPORT_STRINGS = st.one_of(
    st.text(max_size=12),
    st.sampled_from([
        '"', "\\", "\n", "\x00\x1f\x7f", "\u2028", "caf\u00e9 \U0001f600",
        "},\n      {", '"},\n      {"', "},\\n      {",
    ]),
)
REPORT_SCALARS = st.one_of(
    REPORT_STRINGS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1]),
    st.booleans(),
    st.none(),
)


class TestJsonReport:
    """The C-encoder report writer against ``json.dumps(body, indent=2)``."""

    @given(
        payload=st.dictionaries(
            REPORT_STRINGS.filter(lambda k: k != "rows"), REPORT_SCALARS, max_size=4
        ),
        rows=st.one_of(
            st.just([]),
            st.lists(st.dictionaries(REPORT_STRINGS, REPORT_SCALARS, min_size=1,
                                     max_size=6), min_size=1, max_size=12),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_indented_encoder(self, payload, rows):
        body = {**payload, "rows": rows}
        assert _json_report(body) == json.dumps(body, indent=2)

    @pytest.mark.parametrize("n", [0, 1, 500])
    def test_report_rows(self, n):
        rows = [{"position_id": f"p{i}", "U_K": i / 7, "verdict": None,
                 "flag": i % 2 == 0} for i in range(n)]
        body = {"command": "analyze", "units": "nats", "rows": rows}
        assert _json_report(body) == json.dumps(body, indent=2)
        assert _json_report({"errors": rows}) == json.dumps({"errors": rows}, indent=2)


class TestCompose:
    def test_report(self, obs_file, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["compose", "--input", str(obs_file), "--format", "json",
             "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["separability_gap"] <= 1e-9
        assert payload["avg_lower"] <= payload["avg_upper"] + 1e-12
        assert len(payload["rows"]) == 2

    def test_bits_converts_the_payload(self, obs_file, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["compose", "--input", str(obs_file), "--format", "json",
                     "--bits", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        rows = payload["rows"]
        assert payload["units"] == "bits"
        assert payload["avg_lower"] == pytest.approx(
            np.mean([r["r_bin"] for r in rows]), rel=1e-12)
        for key in ("avg_upper", "joint_sup", "factored_sum"):
            assert payload[key] == pytest.approx(
                np.mean([r["sup_kl"] for r in rows]), rel=1e-12)
        assert main(["compose", "--input", str(obs_file), "--bits"]) == 0
        table = capsys.readouterr().out
        assert f"# avg_lower: {payload['avg_lower']:.6g}\n" in table


class TestOracle:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(
            ["oracle", "--seed", "0", "--format", "json", "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 0
        assert all(c["status"] == "PASS" for c in payload["rows"])
        names = {c["check"] for c in payload["rows"]}
        assert {
            "diameter_oracle",
            "balancing_oracle",
            "envelope_identity",
            "envelope_ordering",
            "reference_box_oracle",
            "allocation_oracle",
            "composition_separability",
            "expansion_bounds",
            "sup_breakpoint_scan",
        } <= names

    def test_seed_determines_report_bytes(self, tmp_path):
        reports = []
        for name in ("x", "y"):
            out = tmp_path / f"{name}.json"
            assert main(
                ["oracle", "--seed", "7", "--format", "json", "--output", str(out)]
            ) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_golden_report_bytes(self, tmp_path):
        # sha256 of `censet oracle --seed 0 --format json`, recorded before
        # the oracles moved out of the analysis modules
        out = tmp_path / "o.json"
        assert main(
            ["oracle", "--seed", "0", "--format", "json", "--output", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "32eef36aac1cd54cba40ec7ea86f5b3733b04ad4bed6c85713b16c12c1ed3258"
        )

    def test_golden_report_bytes_seed_7(self, tmp_path):
        # sha256 of `censet oracle --seed 7 --format json`, recorded before
        # the witnesses moved into the oracles module
        out = tmp_path / "o.json"
        assert main(
            ["oracle", "--seed", "7", "--format", "json", "--output", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0fd21a8d3283dc1ab67b11b3dc82e661dfac9d7df881e3063ed6c02494d1794b"
        )


class TestNumericPolicyEnv:
    @staticmethod
    def _verdict(obs_file, tmp_path, delta="0.3"):
        out = tmp_path / "c.json"
        code = main(["certify", "--input", str(obs_file), "--delta", delta,
                     "--format", "json", "--output", str(out)])
        return code, json.loads(out.read_text())["rows"][0]["verdict"]

    def test_env_override_applies(self, obs_file, tmp_path, monkeypatch):
        # r_bin of row a is ~0.146: OPEN at delta 0.3, THRESHOLD within 0.25
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"verdict_margin": 0.25}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert self._verdict(obs_file, tmp_path) == (0, "THRESHOLD")
        assert policy() == NumericPolicy()
        # the override ended with that command
        monkeypatch.delenv("CENSET_NUMERIC_POLICY")
        assert self._verdict(obs_file, tmp_path) == (0, "OPEN")

    def test_caller_policy_restored(self, obs_file, tmp_path, monkeypatch):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"membership_tol": 1e-6}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        caller = NumericPolicy(verdict_margin=0.2)
        with use_policy(caller):
            # the caller's margin holds where the file sets none
            assert self._verdict(obs_file, tmp_path) == (0, "THRESHOLD")
            assert load_policy_file(str(policy_file)) == NumericPolicy(
                membership_tol=1e-6, verdict_margin=0.2
            )
            assert policy() is caller
        assert policy() == NumericPolicy()

    def test_caller_policy_survives_failed_command(self, tmp_path, monkeypatch,
                                                   capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"verdict_margin": 0.5}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with use_policy(NumericPolicy(verdict_margin=0.2)):
            assert main(["certify", "--input", str(bad), "--delta", "0.3"]) == 1
            assert json.loads(capsys.readouterr().err)["errors"][0]["line"] == 1
            assert policy().verdict_margin == 0.2
            with pytest.raises(dataclasses.FrozenInstanceError):
                policy().verdict_margin = 0.5
        assert policy() == NumericPolicy()

    def test_unknown_field_rejected(self, obs_file, tmp_path, monkeypatch, capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"not_a_field": 1.0}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert main(["analyze", "--input", str(obs_file)]) == 1
        assert "not_a_field" in capsys.readouterr().err

    def test_malformed_file_named_in_error(self, obs_file, tmp_path,
                                           monkeypatch, capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"verdict_margin": 0.25,\n}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert main(["analyze", "--input", str(obs_file)]) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert str(policy_file) in error["message"]
        assert "CENSET_NUMERIC_POLICY" in error["message"]
        assert "line 2 column 1" in error["message"]
        assert "line" not in error
        assert policy() == NumericPolicy()

    def test_file_not_utf8_named_in_error(self, obs_file, tmp_path, monkeypatch,
                                          capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_bytes(b'{"verdict_margin": 0.25\xff}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert main(["analyze", "--input", str(obs_file)]) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert error["message"] == (
            f"numeric policy file {str(policy_file)!r} (CENSET_NUMERIC_POLICY) "
            "is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in "
            "position 23: invalid start byte"
        )

    @pytest.mark.parametrize(
        "text",
        [
            '{"verdict_margin": 0.25, "bogus": 1}',
            '{"verdict_margin": "0.5"}',
            '{"verdict_margin": true}',
            '{"verdict_margin": NaN}',
            '{"verdict_margin": 1e999}',
            "[1]",
            '{"verdict_margin": -1}',
            '{"head_mass_tol": -0.5}',
            '{"membership_tol": -1e-12, "head_mass_tol": 1e-6}',
            '{"norm_tol": 1e-9}',
            '{"tail_feasibility_tol": -1e999}',
            '{"verdict_margin": 0.25, "verdict_margin": 0.001}',
        ],
    )
    def test_invalid_file_rejected_whole(self, text, obs_file, tmp_path,
                                         monkeypatch, capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(text)
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert main(["analyze", "--input", str(obs_file)]) == 1
        (error,) = json.loads(capsys.readouterr().err)["errors"]
        assert "numeric policy" in error["message"]
        with pytest.raises(ValueError):
            load_policy_file(str(policy_file))
        assert policy() == NumericPolicy()


SCIPY_GUARD = """
import sys
from censet.cli import main

obs, dump, refs, out = sys.argv[1:]
for argv in (
    ["analyze", "--input", obs],
    ["certify", "--input", obs, "--delta", "0.1"],
    ["compose", "--input", obs],
    ["ksweep", "--input", dump, "--k", "1,5"],
    ["reference", "--input", obs, "--reference", refs],
    ["simulate", "--vocab", "16", "--positions", "2", "--k", "1,5"],
    ["oracle", "--seed", "0"],
):
    assert main([*argv, "--output", out]) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_no_command_loads_scipy(obs_file, dump_file, tmp_path):
    """Every command, ``oracle`` included, runs without SciPy."""
    refs = tmp_path / "refs.jsonl"
    refs.write_text(
        '{"position_id":"a","dense":[1.1,0.2,-1.0,-1.0]}\n'
        '{"position_id":"b","dense":[0.0,-0.4,-2.0,-1.0,-3.0]}\n'
    )
    env = dict(os.environ)
    env.pop("CENSET_NUMERIC_POLICY", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"),
         *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(obs_file), str(dump_file),
         str(refs), str(tmp_path / "report")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
