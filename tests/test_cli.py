"""Command-line surface: reports, formats, exit codes, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from censet.cli import ANALYZE_FIELDS, CERTIFY_FIELDS, main
from censet.numerics import POLICY, NumericPolicy, apply_policy_overrides
from censet.observation import AccessMode, serialize_observations
from censet.simulate import censor


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

    def test_oversized_k_emits_skip_row(self, dump_file, capsys):
        with pytest.warns(UserWarning, match="skipping"):
            assert main(["ksweep", "--input", str(dump_file), "--k", "5,200"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1].startswith("200,nan")


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
        assert POLICY == NumericPolicy()
        # the override ended with that command
        monkeypatch.delenv("CENSET_NUMERIC_POLICY")
        assert self._verdict(obs_file, tmp_path) == (0, "OPEN")

    def test_caller_policy_restored(self, obs_file, tmp_path, monkeypatch):
        apply_policy_overrides({"verdict_margin": 0.2})
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"verdict_margin": 0.5, "norm_tol": 1e-6}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert self._verdict(obs_file, tmp_path) == (0, "THRESHOLD")
        assert (POLICY.verdict_margin, POLICY.norm_tol) == (0.2, 1e-9)

    def test_unknown_field_rejected(self, obs_file, tmp_path, monkeypatch, capsys):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text('{"not_a_field": 1.0}')
        monkeypatch.setenv("CENSET_NUMERIC_POLICY", str(policy_file))
        assert main(["analyze", "--input", str(obs_file)]) == 1
        assert "not_a_field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"verdict_margin": 0.25, "bogus": 1}',
            '{"verdict_margin": "0.5"}',
            '{"verdict_margin": true}',
            '{"verdict_margin": NaN}',
            '{"verdict_margin": 1e999}',
            "[1]",
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
            apply_policy_overrides(json.loads(text))
        assert POLICY == NumericPolicy()
