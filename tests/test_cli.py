"""Command line pipeline: benchgen through eval, exit codes, options."""

import gc
import json
import logging
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import apivet
from apivet import cli
from apivet.cli import main
from apivet.errors import ReplayError
from apivet.dsl import read_invariant_file
from apivet.fileio import write_json
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

    @pytest.mark.parametrize("flags, override", [
        (["--strict"], {"mode": "strict"}),
        (["--seed", "9"], {"hmm_seed": 9}),
        (["--strict", "--proposer", "remote"], {"mode": "strict", "proposer": "remote"}),
    ], ids=["strict", "seed", "strict_remote"])
    def test_flags_override_only_their_fields(self, pipeline, tmp_path, monkeypatch,
                                              flags, override):
        # every other field of the file, the provider section included, is kept
        from apivet import pipeline as stages
        from apivet.config import config_from_dict

        document = {
            "min_value_overlap": 0.8, "delta_ms": 30000, "markov_alpha": 0.5,
            "hmm_seed": 4, "synonyms": [["loginId", "userId"], ["buyer", "userId"]],
            "provider": {"endpoint_url": "https://example.invalid/v1/chat",
                         "model_name": "m", "timeout_ms": 500, "retries": 0},
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        seen = []

        class Stop(Exception):
            """Ends the command once the configuration, all this test reads, is seen."""

        def run_inference(bundle, corpus, tables, config):
            seen.append(config)
            raise Stop

        monkeypatch.setattr(stages, "run_inference", run_inference)
        with pytest.raises(Stop):
            main(["relations", "infer", *_inputs(pipeline, "train"), "--config", str(config),
                  "--out", str(tmp_path / "r.json"), *flags])
        assert seen == [config_from_dict({**document, **override})]

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

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_eval_window_below_one_exits_one(self, pipeline, capsys, window):
        out = pipeline["root"] / f"metrics_window{window}.json"
        assert main(["eval",
                     "--report", str(pipeline["report"]),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--window", window,
                     "--out", str(out)]) == 1
        assert "error: --window must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_prints_a_summary(self, pipeline, capsys):
        assert main(["eval",
                     "--report", str(pipeline["report"]),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--window", "10",
                     "--out", str(pipeline["root"] / "metrics10.json")]) == 0
        out = capsys.readouterr().out
        assert "tp=" in out and "precision=" in out


# Runs one command through main() and prints the modules loaded by then.
_SHOW_MODULES = """\
import json, sys
from apivet.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _modules_after(argv):
    """The modules a fresh interpreter holds after one CLI command.

    This process has imported numpy and the whole package already, so the
    command runs in a subprocess; the check is on membership, not on time.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(apivet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SHOW_MODULES, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["modules"])


# Runs one command through main() and prints the dataclasses that the
# package modules loaded by then define.
_SHOW_DATACLASSES = """\
import dataclasses, json, sys
from apivet.cli import main
code = main(sys.argv[1:])
found = sorted(
    f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items()) if name.startswith("apivet")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
    and dataclasses.is_dataclass(value)
)
print(json.dumps({"code": code, "dataclasses": found}))
"""


def _inputs(pipeline, corpus):
    return ["--bundle", str(pipeline["bundle"]),
            "--logs", str(pipeline[corpus] / "logs.jsonl"),
            "--binlog", str(pipeline[corpus] / "binlog.jsonl")]


class TestImportClosure:
    def test_detect_loads_no_training_stack(self, pipeline, tmp_path):
        loaded = _modules_after(
            ["detect", *_inputs(pipeline, "eval"),
             "--relations", str(pipeline["relations"]),
             "--invariants", str(pipeline["invariants"]),
             "--out", str(tmp_path / "report.json")])
        assert "apivet.detector" in loaded
        assert sorted(loaded & {
            "numpy", "urllib.request", "apivet.seqmodel", "apivet.hmm", "apivet.proposer",
            "apivet.pipeline", "apivet.refine", "apivet.benchgen",
            "concurrent.futures",
        }) == []
        # the whole package closure: moving training imports must not move these
        assert sorted(name for name in loaded if name.startswith("apivet")) == [
            "apivet", "apivet.binlog", "apivet.cli", "apivet.config", "apivet.detector",
            "apivet.dsl", "apivet.errors", "apivet.fileio", "apivet.joins", "apivet.lexer",
            "apivet.logstore", "apivet.relations", "apivet.schema", "apivet.values",
        ]

    def test_invariants_generate_loads_no_numpy_or_http(self, pipeline, tmp_path):
        loaded = _modules_after(
            ["invariants", "generate", *_inputs(pipeline, "train"),
             "--relations", str(pipeline["relations"]),
             "--out", str(tmp_path / "invariants.txt")])
        assert {"apivet.dsl", "apivet.refine"} <= loaded
        assert sorted(loaded & {"numpy", "urllib.request"}) == []

    def test_relations_infer_loads_no_numpy_or_http(self, pipeline, tmp_path):
        loaded = _modules_after(
            ["relations", "infer", *_inputs(pipeline, "train"),
             "--out", str(tmp_path / "relations.json")])
        assert "apivet.seqmodel" in loaded
        assert sorted(loaded & {"numpy", "urllib.request", "apivet.hmm"}) == []

    def test_relations_infer_loads_no_invariant_language(self, pipeline, tmp_path):
        # inference proposes and vets links only: parsing, printing and
        # checking invariants belong to generation and detection
        loaded = _modules_after(
            ["relations", "infer", *_inputs(pipeline, "train"),
             "--out", str(tmp_path / "relations.json")])
        assert "apivet.pipeline" in loaded
        assert sorted(loaded & {"apivet.dsl", "apivet.refine"}) == []

    def test_the_hmm_loads_numpy(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sequence_model": "hmm"}))
        out = tmp_path / "relations.json"
        loaded = _modules_after(
            ["relations", "infer", *_inputs(pipeline, "train"),
             "--config", str(config), "--out", str(out)])
        assert "numpy" in loaded
        assert load_relationships(out)

    @pytest.mark.parametrize("command", ["detect", "relations infer", "invariants generate"])
    def test_only_the_pinned_records_are_dataclasses(self, pipeline, tmp_path, command):
        # decorating a dataclass execs its generated methods at start-up;
        # only the records callers copy or dump with dataclasses stay one
        argv = {
            "detect": ["detect", *_inputs(pipeline, "eval"),
                       "--relations", str(pipeline["relations"]),
                       "--invariants", str(pipeline["invariants"])],
            "relations infer": ["relations", "infer", *_inputs(pipeline, "train")],
            "invariants generate": ["invariants", "generate", *_inputs(pipeline, "train"),
                                    "--relations", str(pipeline["relations"])],
        }[command]
        env = dict(os.environ, PYTHONPATH=str(Path(apivet.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _SHOW_DATACLASSES, *argv, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["code"] == 0
        # relations infer loads no invariant language
        pinned = [] if command == "relations infer" else ["apivet.dsl.Invariant"]
        assert result["dataclasses"] == pinned

    def test_relations_infer_loads_no_dataclasses_builders_or_remote(self, pipeline, tmp_path):
        # importing dataclasses loads inspect, ast and dis; the bundle builders
        # and their tokenizer serve schema parse and benchgen, the remote
        # client a configuration that selects it
        loaded = _modules_after(
            ["relations", "infer", *_inputs(pipeline, "train"),
             "--out", str(tmp_path / "relations.json")])
        assert sorted(loaded & {
            "dataclasses", "inspect", "apivet.lexer", "apivet.sources", "apivet.remote",
        }) == []

    @pytest.mark.parametrize("command", ["detect", "invariants generate"])
    def test_generation_and_detection_load_no_builders_or_remote(
        self, pipeline, tmp_path, command
    ):
        argv = {
            "detect": ["detect", *_inputs(pipeline, "eval"),
                       "--invariants", str(pipeline["invariants"])],
            "invariants generate": ["invariants", "generate", *_inputs(pipeline, "train")],
        }[command]
        loaded = _modules_after(
            [*argv, "--relations", str(pipeline["relations"]), "--out", str(tmp_path / "out")])
        assert sorted(loaded & {"apivet.sources", "apivet.remote"}) == []

    @pytest.mark.parametrize("command", ["schema", "benchgen"])
    def test_schema_parse_and_benchgen_load_no_detection(self, tmp_path, command):
        if command == "schema":
            ddl = tmp_path / "ddl.sql"
            ddl.write_text("CREATE TABLE users (id VARCHAR(64) PRIMARY KEY);")
            argv = ["schema", "parse", "--ddl", str(ddl), "--out", str(tmp_path / "b.json")]
        else:
            argv = ["benchgen", "--out", str(tmp_path / "bench"), "--sessions", "2"]
        loaded = _modules_after(argv)
        assert {"apivet.schema", "apivet.sources"} <= loaded
        assert sorted(loaded & {"apivet.detector", "apivet.joins"}) == []


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

    @pytest.mark.parametrize("flag,text", [
        ("--calls", "{oops"),
        ("--env", "{oops"),
        ("--calls", "[1, 2]"),
        ("--calls", '{"f": 3}'),
        ("--calls", '{"f": {"arguments": [1]}}'),
        ("--env", '["sessionId"]'),
        ("--ddl", "CREATE TABLE t (id INT"),
    ], ids=["calls_not_json", "env_not_json", "calls_list", "calls_scalar_signature",
            "calls_list_arguments", "env_list", "ddl_unterminated"])
    def test_malformed_input_exits_two_naming_it(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert main(["schema", "parse", flag, str(bad), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed {bad}: ")
        assert not out.exists()

    def test_depth_below_one_is_a_usage_problem(self, tmp_path, capsys):
        calls = tmp_path / "calls.json"
        calls.write_text(json.dumps({"ping": {"arguments": {"token": "string"}}}))
        assert main(["schema", "parse", "--calls", str(calls), "--depth", "0",
                     "--out", str(tmp_path / "b.json")]) == 1
        assert "--depth" in capsys.readouterr().err


def _api_link(**fields):
    """A one-link relationships file: an API_API link with `fields` changed."""
    link = {"kind": "API_API", "focal_entity": "payOrder", "focal_attr": None,
            "target_entity": "login", "target_attr": None, "delta_ms": 60000}
    return json.dumps([{**link, **fields}])


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

    def test_bad_provider_value_exits_one(self, pipeline, tmp_path, capsys, monkeypatch):
        # the unset credential keeps any provider call from leaving the process
        monkeypatch.delenv("APIVET_TEST_KEY", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "proposer": "remote",
            "provider": {
                "endpoint_url": "https://example.invalid/v1/chat",
                "model_name": "m",
                "api_key_env_var": "APIVET_TEST_KEY",
                "retries": "2",
            },
        }))
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["train"] / "logs.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert "provider retries" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        ({"sequence_model": "hmm", "hmm_states": "3"},
         "hmm_states must be null or an int >= 1, got '3'"),
        ({"sequence_model": "hmm", "hmm_seed": "x"}, "hmm_seed must be an int >= 0, got 'x'"),
        ({"proposer": "remote",
          "provider": {"endpoint_url": "https://example.invalid/v1/chat", "model_name": "m",
                       "api_key_env_var": "APIVET_TEST_KEY", "max_in_flight": 4}},
         "unknown provider keys: ['max_in_flight']"),
        # null is not the default synonym pairs
        ({"synonyms": None}, "synonyms must be a list of string pairs, got None"),
    ], ids=["hmm_states", "hmm_seed", "max_in_flight", "synonyms_null"])
    def test_rejected_setting_exits_one(
        self, pipeline, tmp_path, capsys, monkeypatch, settings, message
    ):
        # the unset credential keeps any provider call from leaving the process
        monkeypatch.delenv("APIVET_TEST_KEY", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["train"] / "logs.jsonl"),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--config", str(config),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ({"jobs": 1}, [], "unknown configuration keys: ['jobs']"),
        (None, ["--jobs", "2"], "unrecognized arguments: --jobs 2"),
    ], ids=["config_key", "flag"])
    def test_removed_jobs_exit_one(self, pipeline, tmp_path, capsys, config, flags, message):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            flags = flags + ["--config", str(path)]
        assert main(["detect",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["eval"] / "logs.jsonl"),
                     "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--out", str(tmp_path / "r.json"), *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_corrupt_strict_input_exits_two(self, pipeline, tmp_path):
        bad = tmp_path / "logs.jsonl"
        bad.write_text('{"kind": "api"}\nnot json\n')
        assert main(["relations", "infer",
                     "--bundle", str(pipeline["bundle"]),
                     "--logs", str(bad),
                     "--binlog", str(pipeline["train"] / "binlog.jsonl"),
                     "--strict",
                     "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("log_id, problem", [
        (10**9, "no label holds log_id 1000000000"),
        ("x", "ValueError: log_id 'x' is not an int"),
        (True, "ValueError: log_id True is not an int"),
    ], ids=["unlabelled", "string", "bool"])
    def test_eval_refuses_a_log_id_it_cannot_score(
        self, pipeline, tmp_path, capsys, log_id, problem
    ):
        report = json.loads(pipeline["report"].read_text())
        report["violations"].append({**report["violations"][0], "log_id": log_id})
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(report))
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(["eval", "--report", str(bad),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"error: malformed {bad}: {problem}"
        assert not out.exists()

    @pytest.mark.parametrize("twice", ["one_line", "whole_file"])
    def test_eval_refuses_a_log_id_labelled_twice(self, pipeline, tmp_path, capsys, twice):
        # the label file's first line labels log id 0
        text = (pipeline["eval"] / "labels.jsonl").read_text()
        extra = {"one_line": '{"log_id": 0, "label": "attack", "trace": "dup"}\n',
                 "whole_file": text}[twice]
        labels = tmp_path / "labels.jsonl"
        labels.write_text(text + extra)
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(["eval", "--report", str(pipeline["report"]),
                     "--labels", str(labels), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed {labels}: IngestError: line {len(text.splitlines()) + 1}: "
            "log_id 0 is labelled twice"
        ]
        assert not out.exists()

    def test_an_invariant_id_listed_twice_exits_two_naming_it(
        self, pipeline, tmp_path, capsys
    ):
        text = pipeline["invariants"].read_text()
        first = text.split("\n\n")[0]
        bad = tmp_path / "invariants.txt"
        bad.write_text(f"{text}\n{first}\n")
        inv_id = first.split()[1]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main(["detect", *_inputs(pipeline, "eval"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(bad), "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == (f"error: malformed {bad}: SchemaError: "
                       f"invariant '{inv_id}': its id is listed twice")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "invariants generate"])
    @pytest.mark.parametrize("link", [
        ("API_DB", "payOrder", "arguments.orderId", "orders", "id"),
        ("API_ENV", "createOrder", "arguments.loginId", "Env", "userId"),
    ], ids=["payOrder_orders_id", "createOrder_Env_userId"])
    def test_a_link_listed_twice_exits_two_naming_both(
        self, pipeline, tmp_path, capsys, command, link
    ):
        links = json.loads(pipeline["relations"].read_text())
        (i,) = [k for k, rel in enumerate(links)
                if (rel["kind"], rel["focal_entity"], rel["focal_attr"],
                    rel["target_entity"], rel["target_attr"]) == link]
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps([*links, {**links[i], "score": 0.5}]))
        out, outcomes = tmp_path / "out", tmp_path / "outcomes.json"
        if command == "detect":
            argv = ["detect", *_inputs(pipeline, "eval"),
                    "--invariants", str(pipeline["invariants"])]
        else:
            argv = ["invariants", "generate", *_inputs(pipeline, "train"),
                    "--outcomes", str(outcomes)]
        capsys.readouterr()
        assert main([*argv, "--relations", str(bad), "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == (f"error: malformed {bad}: SchemaError: "
                       f"relationship {len(links)}: the same link as relationship {i}")
        assert not out.exists() and not outcomes.exists()

    @pytest.mark.parametrize("command", ["detect", "invariants generate"])
    def test_a_link_to_a_non_key_column_exits_two_naming_it(
        self, pipeline, tmp_path, capsys, command
    ):
        # a relations file trained before the key rule may hold such a link
        links = json.loads(pipeline["relations"].read_text())
        (i,) = [k for k, rel in enumerate(links)
                if (rel["focal_entity"], rel["target_entity"], rel["target_attr"])
                == ("payOrder", "orders", "id")]
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps(
            [*links[:i], {**links[i], "target_attr": "userId"}, *links[i + 1:]]))
        out, outcomes = tmp_path / "out", tmp_path / "outcomes.json"
        if command == "detect":
            argv = ["detect", *_inputs(pipeline, "eval"),
                    "--invariants", str(pipeline["invariants"])]
        else:
            argv = ["invariants", "generate", *_inputs(pipeline, "train"),
                    "--outcomes", str(outcomes)]
        capsys.readouterr()
        assert main([*argv, "--relations", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed {bad}: SchemaError: relationship {i}: "
            "target column 'userId' is not the primary key of 'orders'"]
        assert not out.exists() and not outcomes.exists()

    def test_a_rejection_logs_the_text_strict_mode_exits_with(
        self, pipeline, tmp_path, capsys, caplog
    ):
        argv = ["relations", "infer", *_inputs(pipeline, "train"),
                "--out", str(tmp_path / "r.json")]
        text = ("API_DB login.arguments.loginId -> orders.userId: "
                "target column 'userId' is not the primary key of 'orders'")
        with caplog.at_level(logging.INFO, logger="apivet.relations"):
            assert main(["-v", *argv]) == 0
        first = next(r for r in caplog.records if r.name == "apivet.relations")
        assert (first.levelname, first.getMessage()) == ("INFO", f"rejected {text}")
        capsys.readouterr()
        assert main([*argv, "--strict"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {text}"]

    def test_eval_rejects_non_report_exits_two(self, pipeline, tmp_path, capsys):
        not_report = tmp_path / "x.json"
        not_report.write_text('{"foo": 1}')
        assert main(["eval", "--report", str(not_report),
                     "--labels", str(pipeline["eval"] / "labels.jsonl"),
                     "--out", str(tmp_path / "m.json")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == (f"error: malformed {not_report}: MetricsError: "
                       "not a detection report: it lacks violations or a summary")

    @pytest.mark.parametrize("flag, text", [
        ("--bundle", "{oops"),
        ("--bundle", "[1]"),
        ("--bundle", '{"entities": [1]}'),
        ("--relations", "{oops"),
        ("--relations", '[{"kind": "API_DB"}]'),
        ("--relations", '{"kind": "API_DB"}'),
        pytest.param("--relations", _api_link(delta_ms="5"), id="relations-delta_string"),
        pytest.param("--relations", _api_link(delta_ms=True), id="relations-delta_bool"),
        pytest.param("--relations", _api_link(delta_ms=0), id="relations-delta_zero"),
        pytest.param("--relations", _api_link(focal_entity=3), id="relations-entity_int"),
        pytest.param("--relations", _api_link(target_entity=""), id="relations-entity_empty"),
        pytest.param("--relations", _api_link(target_attr=5), id="relations-attr_int"),
        ("--invariants", "INVARIANT x ON"),
        ("--invariants", "INVARIANT x ON a CATEGORY format WHERE ghost.b == 1"),
        ("--report", "{oops"),
        ("--report", "5"),
        ("--report", '{"violations": [1], "summary": {}}'),
        ("--labels", "{oops"),
        ("--labels", "[1]"),
        ("--labels", '{"log_id": 0, "label": "attack", "trace": ["x"]}'),
        # under --strict, a bad record or an event that cannot be replayed
        ("--logs", '{"kind": "nope"}'),
        ("--binlog", '{"table": "orders", "op": "delete", "ts": 1, '
                     '"before": {"id": "zz"}, "after": null}'),
    ])
    def test_malformed_document_exits_two_naming_it(
        self, pipeline, tmp_path, capsys, flag, text
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        inputs = {"--bundle": str(pipeline["bundle"]),
                  "--relations": str(pipeline["relations"]),
                  "--invariants": str(pipeline["invariants"]),
                  "--report": str(pipeline["report"]),
                  "--labels": str(pipeline["eval"] / "labels.jsonl"),
                  "--logs": str(pipeline["eval"] / "logs.jsonl"),
                  "--binlog": str(pipeline["eval"] / "binlog.jsonl"),
                  flag: str(bad)}
        if flag in ("--report", "--labels"):
            argv = ["eval", "--report", inputs["--report"], "--labels", inputs["--labels"]]
        else:
            argv = ["detect", "--bundle", inputs["--bundle"],
                    "--logs", inputs["--logs"],
                    "--binlog", inputs["--binlog"],
                    "--relations", inputs["--relations"],
                    "--invariants", inputs["--invariants"]]
            if flag in ("--logs", "--binlog"):
                argv.append("--strict")
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed {bad}: ")
        if "ghost" in text:  # a scope error says where the reference is
            assert line.endswith(
                "DslScopeError: line 1, column 40: "
                "reference to ghost.b is outside any quantifier binding 'ghost'"
            )
        assert not (tmp_path / "out.json").exists()

    def test_deep_quantifier_nest_in_invariants_exits_two_naming_it(
        self, pipeline, tmp_path, capsys
    ):
        body = 'orders.status == "paid"'
        for _ in range(50):
            body = f"FORALL(orders: {body})"
        bad = tmp_path / "invariants.txt"
        bad.write_text(pipeline["invariants"].read_text()
                       + f"\nINVARIANT too_deep ON payOrder CATEGORY database WHERE {body}\n")
        capsys.readouterr()
        started = time.perf_counter()
        assert main(["detect", *_inputs(pipeline, "eval"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(bad),
                     "--out", str(tmp_path / "out.json")]) == 2
        assert time.perf_counter() - started < 1.0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed {bad}: DslSyntaxError: line ")
        assert line.endswith("invariant 'too_deep' nests quantifiers 50 deep, more than 3")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("without_focal_calls", [False, True])
    @pytest.mark.parametrize("line, problem", [
        pytest.param('INVARIANT ghost_check ON payOrder CATEGORY database '
                     'WHERE EXISTS(ghost: ghost.id == "x")',
                     "invariant 'ghost_check': unknown binding: "
                     "entity 'ghost' is not bound in this group", id="unbound"),
        pytest.param('INVARIANT stray ON noSuchApi CATEGORY format WHERE TRUE',
                     "invariant 'stray': unknown API 'noSuchApi'", id="unknown_api"),
    ])
    def test_an_invariant_detection_cannot_run_exits_two_naming_it(
        self, pipeline, tmp_path, capsys, line, problem, without_focal_calls
    ):
        # refused before any check runs, whether or not the corpus calls its API
        logs = pipeline["eval"] / "logs.jsonl"
        if without_focal_calls:
            kept = [l for l in logs.read_text().splitlines(keepends=True)
                    if json.loads(l).get("api") != "payOrder"]
            logs = tmp_path / "logs.jsonl"
            logs.write_text("".join(kept))
        bad = tmp_path / "invariants.txt"
        bad.write_text(pipeline["invariants"].read_text() + f"\n{line}\n")
        capsys.readouterr()
        assert main(["detect", "--bundle", str(pipeline["bundle"]),
                     "--logs", str(logs),
                     "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(bad),
                     "--out", str(tmp_path / "out.json")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"error: malformed {bad}: SchemaError: {problem}"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["detect", "invariants generate"])
    @pytest.mark.parametrize("change, problem", [
        pytest.param({"target_entity": "nope"}, "unknown entity 'nope'", id="unknown_target"),
        pytest.param({"focal_entity": "nope"}, "unknown entity 'nope'", id="unknown_focal"),
        pytest.param({"focal_entity": "users"}, "focal entity 'users' is not an API",
                     id="table_focal"),
        pytest.param({"kind": "API_API"}, "API_API link to TABLE entity 'orders'",
                     id="wrong_kind"),
        pytest.param({"target_attr": "nosuch"},
                     "target column 'nosuch' does not exist on 'orders'", id="unknown_column"),
        pytest.param({"focal_attr": "arguments.nosuch"},
                     "focal attribute 'arguments.nosuch' does not exist on 'payOrder'",
                     id="unknown_focal_attr"),
        pytest.param({"target_attr": None},
                     "an API_DB link needs both a focal attribute and a target column",
                     id="null_column"),
    ])
    def test_a_relationship_the_bundle_cannot_join_exits_two_naming_it(
        self, pipeline, tmp_path, capsys, command, change, problem
    ):
        # refused when read, not when (or whether) a join or check meets it:
        # an unknown column would otherwise join nothing and flag every call
        links = json.loads(pipeline["relations"].read_text())
        (i,) = [k for k, link in enumerate(links)
                if (link["kind"], link["focal_entity"], link["focal_attr"],
                    link["target_entity"], link["target_attr"])
                == ("API_DB", "payOrder", "arguments.orderId", "orders", "id")]
        links[i].update(change)
        bad = tmp_path / "relations.json"
        bad.write_text(json.dumps(links))
        out, outcomes = tmp_path / "out", tmp_path / "outcomes.json"
        if command == "detect":
            argv = ["detect", *_inputs(pipeline, "eval"),
                    "--invariants", str(pipeline["invariants"])]
        else:
            argv = ["invariants", "generate", *_inputs(pipeline, "train"),
                    "--outcomes", str(outcomes)]
        capsys.readouterr()
        assert main([*argv, "--relations", str(bad), "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert err == f"error: malformed {bad}: SchemaError: relationship {i}: {problem}"
        assert not out.exists() and not outcomes.exists()

    @pytest.mark.parametrize("name", ["logs", "binlog", "labels"])
    def test_a_line_that_is_not_utf8_is_skipped_or_names_its_line(
        self, pipeline, tmp_path, capsys, name
    ):
        original = pipeline["eval"] / f"{name}.jsonl"
        bad = tmp_path / f"{name}.jsonl"
        bad.write_bytes(original.read_bytes() + b"\xff\xfe\n")
        bad_line_no = len(original.read_bytes().splitlines()) + 1
        inputs = {"logs": str(pipeline["eval"] / "logs.jsonl"),
                  "binlog": str(pipeline["eval"] / "binlog.jsonl"),
                  "labels": str(pipeline["eval"] / "labels.jsonl"), name: str(bad)}
        if name == "labels":  # eval reads labels strictly
            runs = [(["eval", "--report", str(pipeline["report"]),
                      "--labels", inputs["labels"]], None)]
        else:
            detect = ["detect", "--bundle", str(pipeline["bundle"]),
                      "--logs", inputs["logs"], "--binlog", inputs["binlog"],
                      "--relations", str(pipeline["relations"]),
                      "--invariants", str(pipeline["invariants"])]
            runs = [(detect, pipeline["report"]), ([*detect, "--strict"], None)]
        for argv, same_as in runs:
            out = tmp_path / "out.json"
            capsys.readouterr()
            code = main([*argv, "--out", str(out)])
            if same_as is None:
                assert code == 2
                (err,) = capsys.readouterr().err.splitlines()
                assert err == (f"error: malformed {bad}: IngestError: "
                               f"line {bad_line_no}: invalid UTF-8")
                assert not out.exists()
            else:  # the line is skipped: the report is the one without it
                assert code == 0
                assert out.read_bytes() == same_as.read_bytes()
                out.unlink()

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

    def test_invariants_generate_rejects_seed(self, pipeline, tmp_path, capsys):
        # --seed steers the sequence model, which only relations infer trains
        capsys.readouterr()
        assert main(["invariants", "generate", *_inputs(pipeline, "train"),
                     "--relations", str(pipeline["relations"]),
                     "--out", str(tmp_path / "inv.txt"), "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "inv.txt").exists()

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--sessions", "-3", "session count must not be negative, got -3"),
        ("--double-refund", "-2", "trace count must not be negative, got -2"),
        ("--cross-user", "-2", "trace count must not be negative, got -2"),
        ("--tamper", "-1", "traces per kind must not be negative, got -1"),
    ], ids=["sessions", "double_refund", "cross_user", "tamper"])
    def test_benchgen_negative_count_exits_one(self, tmp_path, capsys, flag, value, message):
        counts = {"--sessions": "5", flag: value}
        argv = ["benchgen", "--out", str(tmp_path / "b"), "--seed", "1"]
        for name, count in counts.items():
            argv += [name, count]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()


    def test_benchgen_base_time_below_the_longest_step_exits_one(self, tmp_path, capsys):
        # at base time 0 the insert of user u00001 would be written at ts -320
        assert main(["benchgen", "--out", str(tmp_path / "b"), "--sessions", "3",
                     "--base-time", "0", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "error: base time must be at least 1000 ms, got 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "b").exists()


# a users row whose primary key is a JSON list: it cannot key a chain
LIST_KEY_EVENT = json.dumps({"table": "users", "op": "insert", "ts": 1,
                             "before": None, "after": {"id": ["u1"]}})


class TestUnwritableOutput:
    """An output that cannot be written exits 1 naming the user's path, not
    the temp file, and leaves no temp file behind."""

    @pytest.fixture(params=["missing_directory", "directory"])
    def bad_out(self, request, tmp_path):
        if request.param == "missing_directory":
            return tmp_path / "missing" / "out.json", "No such file or directory"
        (tmp_path / "taken").mkdir()
        return tmp_path / "taken", "Is a directory"

    @staticmethod
    def assert_refused(argv, bad_out, capsys, tmp_path):
        path, reason = bad_out
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
        assert list(tmp_path.rglob(".tmp-*")) == []

    def test_detect_out(self, pipeline, tmp_path, capsys, bad_out):
        self.assert_refused(
            ["detect", *_inputs(pipeline, "eval"),
             "--relations", str(pipeline["relations"]),
             "--invariants", str(pipeline["invariants"]),
             "--out", str(bad_out[0])],
            bad_out, capsys, tmp_path)

    def test_relations_infer_out(self, pipeline, tmp_path, capsys, bad_out):
        self.assert_refused(
            ["relations", "infer", *_inputs(pipeline, "train"), "--out", str(bad_out[0])],
            bad_out, capsys, tmp_path)

    def test_relations_infer_diagram(self, pipeline, tmp_path, capsys, bad_out):
        self.assert_refused(
            ["relations", "infer", *_inputs(pipeline, "train"),
             "--out", str(tmp_path / "relations.json"), "--diagram", str(bad_out[0])],
            bad_out, capsys, tmp_path)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_get_the_mode_open_would_give(tmp_path, umask):
    previous = os.umask(umask)
    try:
        assert main(["benchgen", "--out", str(tmp_path / "corpus"),
                     "--sessions", "2", "--seed", "1"]) == 0
        write_json({"a": 1}, str(tmp_path / "out.json"))
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(previous)
    expected = 0o666 & ~umask
    assert stat.S_IMODE((tmp_path / "plain.json").stat().st_mode) == expected
    outputs = [tmp_path / "out.json", *(tmp_path / "corpus").iterdir()]
    assert len(outputs) > 1
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in outputs} == {
        path.name: expected for path in outputs
    }
    assert list(tmp_path.rglob(".tmp-*")) == []


class TestUnhashableKey:
    @staticmethod
    def _binlog_with_list_key(pipeline, tmp_path, corpus):
        binlog = tmp_path / "binlog.jsonl"
        original = (pipeline[corpus] / "binlog.jsonl").read_text()
        binlog.write_text(LIST_KEY_EVENT + "\n" + original)
        return binlog

    def test_lenient_replay_skips_it_as_a_repair(self, pipeline, tmp_path, caplog):
        binlog = self._binlog_with_list_key(pipeline, tmp_path, "train")
        relations = tmp_path / "relations.json"
        with caplog.at_level(logging.WARNING, logger="apivet.binlog"):
            assert main(["relations", "infer",
                         "--bundle", str(pipeline["bundle"]),
                         "--logs", str(pipeline["train"] / "logs.jsonl"),
                         "--binlog", str(binlog),
                         "--out", str(relations)]) == 0
        assert "repaired or skipped 1 inconsistent row event(s)" in caplog.messages
        assert relations.read_bytes() == pipeline["relations"].read_bytes()

        binlog = self._binlog_with_list_key(pipeline, tmp_path, "eval")
        report = tmp_path / "report.json"
        assert main(["detect", "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["eval"] / "logs.jsonl"), "--binlog", str(binlog),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--out", str(report)]) == 0
        assert report.read_bytes() == pipeline["report"].read_bytes()

    def test_strict_replay_exits_two_naming_it(self, pipeline, tmp_path, capsys):
        binlog = self._binlog_with_list_key(pipeline, tmp_path, "eval")
        capsys.readouterr()
        assert main(["detect", "--bundle", str(pipeline["bundle"]),
                     "--logs", str(pipeline["eval"] / "logs.jsonl"), "--binlog", str(binlog),
                     "--relations", str(pipeline["relations"]),
                     "--invariants", str(pipeline["invariants"]),
                     "--strict", "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed {binlog}: ReplayError: row image for 'users' at ts 1 "
            "has a list or object in its key (['u1'],)"
        ]
        assert not (tmp_path / "report.json").exists()


# nested past any recursion limit: decoding either raises RecursionError
DEEP_ARRAY = "[" * 200_000
DEEP_OBJECT = '{"a":' * 100_000


class TestDeepNesting:
    """A line or document nested too deeply to decode is malformed input:
    lenient mode skips and counts such a line, anything else exits 2 (a
    configuration 1, as every configuration problem does)."""

    @staticmethod
    def _prepend(source, tmp_path, line):
        path = tmp_path / source.name
        path.write_text(line + "\n" + source.read_text())
        return path

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_log_line(self, pipeline, tmp_path, capsys, caplog, strict):
        logs = self._prepend(pipeline["eval"] / "logs.jsonl", tmp_path, DEEP_ARRAY)
        report = tmp_path / "report.json"
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="apivet.logstore"):
            code = main(["detect", "--bundle", str(pipeline["bundle"]),
                         "--logs", str(logs),
                         "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                         "--relations", str(pipeline["relations"]),
                         "--invariants", str(pipeline["invariants"]),
                         "--out", str(report), *(["--strict"] if strict else [])])
        if strict:
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: malformed {logs}: IngestError: line 1: "
                "invalid JSON (nested too deeply)"
            ]
            assert not report.exists()
        else:
            assert code == 0
            assert "skipped 1 malformed log line(s)" in caplog.messages
            assert report.read_bytes() == pipeline["report"].read_bytes()

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_binlog_line(self, pipeline, tmp_path, capsys, caplog, strict):
        binlog = self._prepend(pipeline["train"] / "binlog.jsonl", tmp_path, DEEP_OBJECT)
        relations = tmp_path / "relations.json"
        capsys.readouterr()
        with caplog.at_level(logging.WARNING, logger="apivet.binlog"):
            code = main(["relations", "infer", *_inputs(pipeline, "train")[:4],
                         "--binlog", str(binlog),
                         "--out", str(relations), *(["--strict"] if strict else [])])
        if strict:
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: malformed {binlog}: IngestError: line 1: "
                "invalid JSON (nested too deeply)"
            ]
            assert not relations.exists()
        else:
            assert code == 0
            assert "skipped 1 malformed binlog line(s)" in caplog.messages
            assert relations.read_bytes() == pipeline["relations"].read_bytes()

    def test_label_line(self, pipeline, tmp_path, capsys):
        labels = self._prepend(pipeline["eval"] / "labels.jsonl", tmp_path, DEEP_ARRAY)
        capsys.readouterr()
        assert main(["eval", "--report", str(pipeline["report"]),
                     "--labels", str(labels), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed {labels}: IngestError: line 1: "
            "invalid JSON (nested too deeply)"
        ]

    @pytest.mark.parametrize("flag", ["--bundle", "--relations", "--report"])
    def test_whole_document(self, pipeline, tmp_path, capsys, flag):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_ARRAY)
        out = tmp_path / "out.json"
        if flag == "--report":
            argv = ["eval", "--report", str(deep),
                    "--labels", str(pipeline["eval"] / "labels.jsonl")]
        else:
            inputs = {"--bundle": str(pipeline["bundle"]),
                      "--relations": str(pipeline["relations"]), flag: str(deep)}
            argv = ["detect", "--bundle", inputs["--bundle"],
                    "--logs", str(pipeline["eval"] / "logs.jsonl"),
                    "--binlog", str(pipeline["eval"] / "binlog.jsonl"),
                    "--relations", inputs["--relations"],
                    "--invariants", str(pipeline["invariants"])]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed {deep}: RecursionError: ")
        assert not out.exists()

    def test_config(self, pipeline, tmp_path, capsys):
        # a configuration problem of any kind exits 1, as invalid JSON does
        deep = tmp_path / "config.json"
        deep.write_text(DEEP_ARRAY)
        out = tmp_path / "relations.json"
        capsys.readouterr()
        assert main(["relations", "infer", *_inputs(pipeline, "train"),
                     "--config", str(deep), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: configuration is not valid JSON: nested too deeply"
        ]
        assert not out.exists()


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_an_integer_past_the_digit_limit_is_one_malformed_log_line(
    pipeline, tmp_path, capsys, caplog, strict
):
    # int() refuses the literal: lenient mode skips and counts the line,
    # strict mode exits 2 naming it
    source = pipeline["train"] / "logs.jsonl"
    logs = tmp_path / "logs.jsonl"
    logs.write_text('{"kind": "api", "time": ' + "1" * 5000 + "}\n" + source.read_text())
    relations = tmp_path / "relations.json"
    capsys.readouterr()
    with caplog.at_level(logging.WARNING, logger="apivet.logstore"):
        code = main(["relations", "infer", *_inputs(pipeline, "train")[:2],
                     "--logs", str(logs), *_inputs(pipeline, "train")[4:],
                     "--out", str(relations), *(["--strict"] if strict else [])])
    if strict:
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed {logs}: IngestError: line 1: "
            f"invalid JSON (integer of more than {sys.get_int_max_str_digits()} digits)"
        ]
        assert not relations.exists()
    else:
        assert code == 0
        assert "skipped 1 malformed log line(s)" in caplog.messages
        assert relations.read_bytes() == pipeline["relations"].read_bytes()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("outcome", ["returns", "fails", "raises"])
    def test_main_gives_back_the_state_it_found(self, monkeypatch, enabled, outcome):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if outcome == "fails":
                raise ReplayError("bad stream")
            if outcome == "raises":
                raise RuntimeError("not an apivet error")
            return 0

        monkeypatch.setattr(cli, "_cmd_benchgen", command)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "raises":
                with pytest.raises(RuntimeError):
                    main(["benchgen", "--out", "unused", "--sessions", "1"])
            else:
                code = main(["benchgen", "--out", "unused", "--sessions", "1"])
                assert code == (2 if outcome == "fails" else 0)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False]

    def test_no_record_leaves_a_cycle(self, tmp_path):
        """A paused collector must not let garbage grow with the input:
        what one command leaves unreachable (argparse's and the lazy
        imports' own cycles) is the same on a corpus ten times the size."""
        root = tmp_path
        for n in (300, 3000):
            assert main(["benchgen", "--out", str(root / f"b{n}"), "--sessions", str(n),
                         "--seed", "3"]) == 0

        def commands(n):
            inputs = ["--bundle", str(root / f"b{n}" / "bundle.json"),
                      "--logs", str(root / f"b{n}" / "logs.jsonl"),
                      "--binlog", str(root / f"b{n}" / "binlog.jsonl")]
            model = [str(root / "relations.json"), str(root / "invariants.txt")]
            return {
                "relations infer": ["relations", "infer", *inputs, "--out", model[0]],
                "invariants generate": ["invariants", "generate", *inputs,
                                        "--relations", model[0], "--out", model[1]],
                "detect": ["detect", *inputs, "--relations", model[0],
                           "--invariants", model[1], "--out", str(root / "report.json")],
            }

        def unreachable(argv):
            gc.collect()
            assert main(argv) == 0
            return gc.collect()

        before = gc.isenabled()
        gc.disable()
        try:
            for argv in commands(300).values():  # lazy imports happen here
                unreachable(argv)
            small = {name: unreachable(argv) for name, argv in commands(300).items()}
            large = {name: unreachable(argv) for name, argv in commands(3000).items()}
        finally:
            (gc.enable if before else gc.disable)()
        assert large == small


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Every command's output is byte-identical under two hash seeds."""
        commands = [
            ["benchgen", "--out", "train", "--sessions", "200", "--seed", "7"],
            ["benchgen", "--out", "eval", "--sessions", "200", "--seed", "12",
             "--double-refund", "4", "--cross-user", "4", "--tamper", "1"],
            ["relations", "infer", "--bundle", "train/bundle.json",
             "--logs", "train/logs.jsonl", "--binlog", "train/binlog.jsonl",
             "--out", "relations.json", "--diagram", "diagram.json"],
            ["invariants", "generate", "--bundle", "train/bundle.json",
             "--logs", "train/logs.jsonl", "--binlog", "train/binlog.jsonl",
             "--relations", "relations.json", "--out", "invariants.txt",
             "--outcomes", "outcomes.json"],
            ["detect", "--bundle", "train/bundle.json",
             "--logs", "eval/logs.jsonl", "--binlog", "eval/binlog.jsonl",
             "--relations", "relations.json", "--invariants", "invariants.txt",
             "--out", "report.json", "--dump-joined", "joined.jsonl"],
            ["eval", "--report", "report.json", "--labels", "eval/labels.jsonl",
             "--out", "metrics.json"],
        ]
        outputs = []
        for seed in ("0", "1"):
            run = tmp_path / f"hashseed{seed}"
            run.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(apivet.__file__).parents[1]))
            for argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "apivet.cli", *argv], cwd=run, env=env,
                    capture_output=True, text=True, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
            outputs.append({
                path.relative_to(run).as_posix(): path.read_bytes()
                for path in sorted(run.rglob("*")) if path.is_file()
            })
        assert "joined.jsonl" in outputs[0] and "metrics.json" in outputs[0]
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name
