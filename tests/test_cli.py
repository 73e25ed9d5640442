"""Command line pipeline: benchgen through eval, exit codes, options."""

import json
import os

import pytest

from apivet.cli import main
from apivet.dsl import read_invariant_file
from apivet.relations import load_relationships
from apivet.schema import load_bundle


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full run: generate benches, infer, generate invariants, detect, eval."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train"
    eval_dir = root / "eval"
    paths = {
        "root": root,
        "train": train,
        "eval": eval_dir,
        "bundle": train / "bundle.json",
        "relations": root / "relations.json",
        "diagram": root / "diagram.json",
        "invariants": root / "invariants.txt",
        "outcomes": root / "outcomes.json",
        "report": root / "report.json",
        "metrics": root / "metrics.json",
    }
    assert main(["benchgen", "--out", str(train), "--sessions", "40",
                 "--seed", "5"]) == 0
    assert main(["benchgen", "--out", str(eval_dir), "--sessions", "30",
                 "--seed", "77", "--double-refund", "3", "--cross-user", "2",
                 "--tamper", "1"]) == 0
    assert main(["relations", "infer",
                 "--bundle", str(paths["bundle"]),
                 "--logs", str(train / "logs.jsonl"),
                 "--binlog", str(train / "binlog.jsonl"),
                 "--out", str(paths["relations"]),
                 "--diagram", str(paths["diagram"])]) == 0
    assert main(["invariants", "generate",
                 "--bundle", str(paths["bundle"]),
                 "--logs", str(train / "logs.jsonl"),
                 "--binlog", str(train / "binlog.jsonl"),
                 "--relations", str(paths["relations"]),
                 "--out", str(paths["invariants"]),
                 "--outcomes", str(paths["outcomes"])]) == 0
    assert main(["detect",
                 "--bundle", str(paths["bundle"]),
                 "--logs", str(eval_dir / "logs.jsonl"),
                 "--binlog", str(eval_dir / "binlog.jsonl"),
                 "--relations", str(paths["relations"]),
                 "--invariants", str(paths["invariants"]),
                 "--out", str(paths["report"])]) == 0
    assert main(["eval",
                 "--report", str(paths["report"]),
                 "--labels", str(eval_dir / "labels.jsonl"),
                 "--out", str(paths["metrics"])]) == 0
    return paths


class TestPipeline:
    def test_bench_files_and_labels(self, pipeline):
        for name in ("logs.jsonl", "labels.jsonl", "binlog.jsonl", "bundle.json"):
            assert (pipeline["eval"] / name).exists()
        labels = [json.loads(line)
                  for line in (pipeline["eval"] / "labels.jsonl").read_text().splitlines()]
        attacks = [l for l in labels if l["label"] == "attack"]
        # 3 double refunds + 2 cross user + 4 tamper kinds at 1 each
        assert len(attacks) == 9
        assert len({l["trace"] for l in attacks}) == 9

    def test_relations_and_diagram(self, pipeline):
        rels = load_relationships(pipeline["relations"])
        assert rels
        kinds = {r.kind for r in rels}
        assert "API_DB" in kinds and "API_ENV" in kinds
        diagram = json.loads(pipeline["diagram"].read_text())
        assert "orders" in diagram["entities"]
        assert diagram["relationships"]

    def test_invariants_and_outcomes(self, pipeline):
        invs = read_invariant_file(pipeline["invariants"])
        assert invs
        assert len({inv.id for inv in invs}) == len(invs)
        outcomes = json.loads(pipeline["outcomes"].read_text())
        assert {o["status"] for o in outcomes} <= {"accepted", "discarded"}
        accepted = [o for o in outcomes if o["status"] == "accepted"]
        assert len(accepted) == len(invs)

    def test_detection_report(self, pipeline):
        report = json.loads(pipeline["report"].read_text())
        assert report["summary"]["violations"] == len(report["violations"])
        assert report["summary"]["violations"] > 0
        assert report["summary"]["invariants_checked"] == len(
            read_invariant_file(pipeline["invariants"])
        )

    def test_metrics_catch_the_attacks(self, pipeline):
        metrics = json.loads(pipeline["metrics"].read_text())
        assert metrics["traces"] == 9
        assert metrics["tp"] >= 5
        assert metrics["recall"] is not None and metrics["recall"] > 0.5
        assert metrics["precision"] is not None

    def test_jobs_do_not_change_the_report_file(self, pipeline):
        again = pipeline["root"] / "report_jobs.json"
        assert main(["detect",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["eval"] / "logs.jsonl"),
                     "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--jobs", "4",
                     "--out", str(again)]) == 0
        assert again.read_bytes() == pipeline["report"].read_bytes()

    def test_dump_joined_writes_groups(self, pipeline):
        dump = pipeline["root"] / "joined.jsonl"
        assert main(["detect",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["eval"] / "logs.jsonl"),
                     "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--out", str(pipeline["root"] / "report2.json"),
                     "--dump-joined", str(dump)]) == 0
        lines = dump.read_text().splitlines()
        assert lines
        group = json.loads(lines[0])
        assert set(group) == {"log_id", "api", "focal", "bindings"}

    def test_workdir_resolves_relative_paths(self, pipeline):
        before = os.getcwd()
        assert main(["--workdir", str(pipeline["root"]),
                     "eval",
                     "--report", "report.json",
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--out", "metrics_rel.json"]) == 0
        assert os.getcwd() == before
        assert (pipeline["root"] / "metrics_rel.json").exists()

    def test_eval_prints_a_summary(self, pipeline, capsys):
        assert main(["eval",
                     "--report", str(pipeline["report"]),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--window", "10",
                     "--out", str(pipeline["root"] / "metrics10.json")]) == 0
        out = capsys.readouterr().out
        assert "tp=" in out and "precision=" in out


class TestSchemaParse:
    def test_builds_a_bundle_from_files(self, tmp_path, capsys):
        (tmp_path / "ddl.sql").write_text(
            "CREATE TABLE users (id VARCHAR(64) PRIMARY KEY, name TEXT);"
        )
        (tmp_path / "calls.json").write_text(json.dumps({
            "ping": {"arguments": {"token": "string"}, "response": {"pong": "bool"}},
        }))
        (tmp_path / "env.json").write_text(json.dumps({"sessionId": "string"}))
        out = tmp_path / "bundle.json"
        assert main(["schema", "parse",
                     "--ddl", str(tmp_path / "ddl.sql"),
                     "--calls", str(tmp_path / "calls.json"),
                     "--env", str(tmp_path / "env.json"),
                     "--out", str(out)]) == 0
        assert "wrote 3 entities" in capsys.readouterr().out
        bundle = load_bundle(out)
        assert {e.name for e in bundle.entities} == {"users", "ping", "Env"}

    def test_requires_some_input(self, tmp_path):
        assert main(["schema", "parse", "--out", str(tmp_path / "b.json")]) == 1

    def test_rejects_non_document_calls(self, tmp_path):
        calls = tmp_path / "calls.json"
        calls.write_text("[1, 2]")
        assert main(["schema", "parse", "--calls", str(calls),
                     "--out", str(tmp_path / "b.json")]) == 1


class TestExitCodes:
    def test_usage_problems_exit_one(self):
        assert main(["no-such-command"]) == 1
        assert main(["schema"]) == 1
        assert main(["eval", "--report", "r.json"]) == 1  # missing required args

    def test_bad_config_file_exits_one(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["train"] / "logs.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_remote_without_provider_exits_one(self, pipeline, tmp_path):
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["train"] / "logs.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--proposer", "remote",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_missing_credential_exits_three(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.delenv("APIVET_TEST_KEY", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "proposer": "remote",
            "provider": {
                "endpoint_url": "https://example.invalid/v1/chat",
                "model_name": "m",
                "api_key_env_var": "APIVET_TEST_KEY",
                "retries": 0,
                "timeout_ms": 100,
            },
        }))
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["train"] / "logs.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == 3

    def test_corrupt_strict_input_exits_two(self, pipeline, tmp_path):
        bad = tmp_path / "logs.jsonl"
        bad.write_text('{"kind": "api"}\nnot json\n')
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(bad),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--strict",
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_eval_rejects_non_report_exits_two(self, pipeline, tmp_path):
        not_report = tmp_path / "x.json"
        not_report.write_text('{"foo": 1}')
        assert main(["eval", "--report", str(not_report),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_missing_input_file_exits_one(self, pipeline, tmp_path):
        assert main(["detect",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(tmp_path / "nope.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_detect_rejects_training_flags(self, pipeline, tmp_path, capsys):
        # --seed and --proposer only steer training; detect has neither
        for flag, value in (("--seed", "1"), ("--proposer", "stub")):
            capsys.readouterr()
            assert main(["detect",
                         "--bundle", str(pipeline["bundle"]),
                         "--logs", str(pipeline["eval"] / "logs.jsonl"),
                         "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                         "--relations", str(pipeline["relations"]),
                         "--invariants", str(pipeline["invariants"]),
                         "--out", str(tmp_path / "r.json"),
                         flag, value]) == 1
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "r.json").exists()

    def test_bad_workdir_exits_one(self):
        assert main(["--workdir", "/no/such/dir", "benchgen",
                     "--out", "x", "--sessions", "1"]) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "apivet" in capsys.readouterr().out

    def test_benchgen_pool_too_small_exits_one(self, tmp_path):
        assert main(["benchgen", "--out", str(tmp_path / "b"),
                     "--sessions", "2", "--seed", "1",
                     "--double-refund", "10"]) == 1
