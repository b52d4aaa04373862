import hashlib
import itertools
import json
import os
import re
import shutil
from pathlib import Path

import pytest

import urbanmas.cli
from urbanmas.backend import CassetteBackend, ChatRequest, MockBackend, deterministic_responder
from urbanmas.cli import RunConfig, load_config, main, make_backend
from urbanmas.domain import builtin_task
from urbanmas.errors import ConfigError

from conftest import DEEP_JSON, FIXTURES, LONG_INT_JSON, CtrlC, answer_every_upstream


@pytest.fixture
def workspace(tmp_path):
    """Self-contained run directory with dataset, geo cache, and paths."""
    shutil.copy(FIXTURES / "samples.jsonl", tmp_path / "samples.jsonl")
    shutil.copy(FIXTURES / "raw_samples.jsonl", tmp_path / "raw_samples.jsonl")
    shutil.copy(FIXTURES / "truth_raw.csv", tmp_path / "truth_raw.csv")
    shutil.copytree(FIXTURES / "geocache", tmp_path / "geocache")
    return tmp_path


def run_cli(*args: str) -> int:
    return main(list(args))


_ONE_PREDICTION = json.dumps(
    {"location_id": "tokyo_tower", "task_id": "running_amount", "variant": "full",
     "value": 7.2, "clamped": False}
) + "\n"


def _duplicate_first_factor_name(cache_text: str) -> str:
    """A hand edit of a factor cache that keeps its prompt digest: the
    first set repeats a name."""
    doc = json.loads(cache_text)
    factors = doc["pairs"][0]["factors"]
    factors[1]["name"] = factors[0]["name"]
    return json.dumps(doc)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.backend == "mock"

    def test_bad_backend_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(backend="quantum")

    def test_replay_requires_cassette(self):
        with pytest.raises(ConfigError, match="requires --cassette"):
            RunConfig(backend="replay")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown variants"):
            RunConfig(variants=("fancy",))

    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"workers": 2, "tasks": "running_amount,liveliness"}))
        cfg = load_config(config, {"workers": 8})
        assert cfg.workers == 8
        assert cfg.tasks == ("running_amount", "liveliness")

    def test_unknown_config_keys_are_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"turbo": True}))
        with pytest.raises(ConfigError, match=re.escape(f"{config}: unknown keys: ['turbo']")):
            load_config(config, {})

    def test_custom_tasks_resolve_before_builtins(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "tasks": ["walk_score"],
                    "custom_tasks": [
                        {"id": "walk_score", "description": "d", "output_key": "walk_score"}
                    ],
                }
            )
        )
        cfg = load_config(config, {})
        assert cfg.resolve_tasks()[0].output_key == "walk_score"

    def test_a_reliability_section_is_an_unknown_key(self, tmp_path, capsys):
        # The gate's parameters are the method's constants, not settings.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"reliability": {"threshold": 0.72}}))
        assert run_cli("factors", "--config", str(config), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: unknown keys: ['reliability']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"custom_tasks": [{"id": "w", "description": "d", "output_key": "w", "colour": 1}]},
                "custom_tasks: unknown keys: ['colour']",
            ),
        ],
        ids=["custom-task"],
    )
    def test_unknown_nested_keys_are_rejected(self, tmp_path, doc, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(f"{config}: {message}")):
            load_config(config, {})

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"custom_tasks": [{"id": "walk_score", "output_key": "walk_score"}]}, "custom_tasks"),
            ({"workers": "two"}, "workers"),
            ({"variants": 5}, "variants"),
            ({"backend": "quantum"}, "backend"),
            ({"record_source": "tape"}, "record_source"),
            ({"backend": "replay"}, "cassette"),
            ({"poi_radius_m": "far"}, "poi_radius_m"),
            ({"poi_limit": 0}, "poi_limit"),
            ({"requests_per_minute": "fast"}, "requests_per_minute"),
            ({"tasks": [["running_amount"]]}, "tasks"),
        ],
        ids=[
            "task-without-description", "workers-not-a-number", "variants-not-a-list",
            "backend-unknown", "record-source-unknown", "replay-without-cassette",
            "radius-not-a-number", "poi-limit-zero", "rate-not-a-number", "task-id-not-a-string",
        ],
    )
    def test_malformed_config_value_is_a_labelled_usage_error(self, tmp_path, capsys, doc, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        assert run_cli("factors", "--config", str(config), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: {key}: " in err
        assert "Traceback" not in err

    def test_config_nested_past_the_recursion_limit_is_unreadable(self, tmp_path, capsys):
        # Also the other contents that fail to decode: an over-long integer
        # and bytes that are not UTF-8.
        config = tmp_path / "run.json"
        for content in (DEEP_JSON.encode(), LONG_INT_JSON.encode(), b'{"workers": "\xff"}'):
            config.write_bytes(content)
            with pytest.raises(ConfigError, match=re.escape(f"cannot read config {config}")):
                load_config(config, {})
            assert run_cli("factors", "--config", str(config), "--out", str(tmp_path / "out")) == 2
            err = capsys.readouterr().err
            assert f"error: cannot read config {config}: " in err
            assert "Traceback" not in err

    def test_config_that_is_not_an_object(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1]")
        with pytest.raises(ConfigError, match=re.escape(f"{config}: must hold a JSON object")):
            load_config(config, {})

    def test_bad_flag_value_names_the_key(self, tmp_path, capsys):
        assert run_cli("factors", "--workers", "0", "--out", str(tmp_path / "out")) == 2
        assert "error: workers: must be an integer >= 1, got 0" in capsys.readouterr().err


class TestFactorsCommand:
    def test_mock_run_prints_four_sets(self, workspace, capsys):
        code = run_cli(
            "factors", "--backend", "mock",
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", "running_amount",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[social, macro]") == 1
        assert out.count("1. ") == 4
        assert (workspace / "factors" / "factors_running_amount.json").exists()

    def test_rerun_with_cache_needs_no_backend(self, workspace, capsys):
        args = (
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", "running_amount",
        )
        assert run_cli("factors", "--backend", "mock", *args) == 0
        # An empty replay cassette errors on ANY backend call: success
        # proves the cached rerun made none.
        empty = workspace / "empty.jsonl"
        empty.write_text("")
        assert run_cli("factors", "--backend", "replay", "--cassette", str(empty), *args) == 0
        assert "(from cache)" in capsys.readouterr().out

    def test_temp_files_of_killed_cache_writes_are_swept(self, workspace):
        factors = workspace / "factors"
        args = (
            "factors", "--backend", "mock", "--tasks", "running_amount,boringness",
            "--factor-dir", str(factors), "--out", str(workspace / "out"),
        )
        assert run_cli(*args) == 0
        caches = _tree_bytes(factors)
        (factors / "factors_running_amount.json.99999.1.tmp").write_text('{"half": ')
        (factors / "factors_liveliness.json.99999.2.tmp").write_text("")
        (factors / "notes.tmp").write_text("kept")
        assert run_cli(*args) == 0
        assert _tree_bytes(factors) == {**caches, "notes.tmp": b"kept"}

    def test_a_failing_task_keeps_the_others_caches(self, workspace, capsys, monkeypatch):
        running = builtin_task("running_amount")
        factors = workspace / "factors"
        args = (
            "factors", "--tasks", "running_amount,boringness,liveliness",
            "--factor-dir", str(factors), "--out", str(workspace / "out"),
        )
        failing = MockBackend()
        failing.add_rule(
            lambda r: "research analyst" in r.system_prompt
            and running.description in r.user_prompt
            and "social dimension" in r.user_prompt
            and "street level" in r.user_prompt,
            " ",
        )
        monkeypatch.setattr("urbanmas.cli.make_backend", lambda cfg: failing)
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert "running_amount/social_street: " in err
        assert [p.name for p in sorted(factors.iterdir())] == [
            "factors_boringness.json", "factors_liveliness.json",
        ]

        class RecordingBackend(MockBackend):
            def __init__(self):
                super().__init__()
                self.requests = []

            def complete(self, req):
                self.requests.append(req)
                return super().complete(req)

        rerun = RecordingBackend()
        monkeypatch.setattr("urbanmas.cli.make_backend", lambda cfg: rerun)
        assert run_cli(*args) == 0
        assert len(rerun.requests) == 4 * 2
        assert all(running.description in r.user_prompt for r in rerun.requests)

    def test_one_guide_call_for_all_tasks(self, workspace, monkeypatch):
        import urbanmas.cli

        calls = []
        real_guide = urbanmas.cli.guide

        def counting_guide(*args, **kwargs):
            calls.append(args)
            return real_guide(*args, **kwargs)

        monkeypatch.setattr(urbanmas.cli, "guide", counting_guide)
        assert run_cli(
            "factors", "--backend", "mock", "--tasks", "running_amount,boringness,liveliness",
            "--factor-dir", str(workspace / "factors"), "--out", str(workspace / "out"),
        ) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "tasks, message",
        [("nonsense", "unknown task id"), (",", "no tasks selected")],
        ids=["unknown-id", "no-ids"],
    )
    def test_bad_task_id_is_a_usage_error(self, workspace, capsys, tasks, message):
        code = run_cli(
            "factors", "--backend", "mock", "--tasks", tasks,
            "--out", str(workspace / "out"),
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (workspace / "out" / "manifest.json").exists()

    def test_a_repeated_task_id_prints_one_set(self, workspace, capsys):
        assert run_cli(
            "factors", "--backend", "mock", "--tasks", "running_amount,running_amount",
            "--factor-dir", str(workspace / "factors"), "--out", str(workspace / "out"),
        ) == 0
        assert capsys.readouterr().out.count("task=") == 1


class TestIngestCommand:
    def test_offline_ingest_from_fixtures(self, workspace, capsys):
        code = run_cli(
            "ingest", "--offline",
            "--dataset", str(workspace / "raw_samples.jsonl"),
            "--cache-dir", str(workspace / "geocache"),
            "--out", str(workspace / "out"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingested 3 sample(s)" in out
        assert "with address: 3" in out
        enriched = (workspace / "out" / "enriched.jsonl").read_text().splitlines()
        assert len(enriched) == 3
        assert all("address" in json.loads(line) for line in enriched)

    def test_rerun_reports_full_cache_hits(self, workspace, capsys):
        args = (
            "ingest", "--offline",
            "--dataset", str(workspace / "raw_samples.jsonl"),
            "--cache-dir", str(workspace / "geocache"),
            "--out", str(workspace / "out"),
        )
        run_cli(*args)
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert "(100%)" in capsys.readouterr().out

    def test_samples_with_full_context_need_no_lookup(self, workspace, capsys):
        code = run_cli(
            "ingest", "--offline",
            "--dataset", str(workspace / "samples.jsonl"),
            "--cache-dir", str(workspace / "empty_cache"),
            "--out", str(workspace / "out"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hits: no lookups needed" in out
        assert "(0%)" not in out

    def test_truncated_geo_cache_entry_degrades_to_a_warning(self, workspace, capsys, caplog):
        pois = workspace / "geocache" / "pois_35.65860_139.74540.json"
        pois.write_bytes(pois.read_bytes()[:40])
        code = run_cli(
            "ingest", "--offline",
            "--dataset", str(workspace / "raw_samples.jsonl"),
            "--cache-dir", str(workspace / "geocache"),
            "--out", str(workspace / "out"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "with address: 3; with POIs: 2" in out
        assert str(pois) in caplog.text

    @pytest.mark.parametrize(
        "down, code, failed",
        [(("35.6586",), 0, "failed completely: 1: ['tokyo_tower']"),
         (("35.6586", "45.4642", "47.6087"), 1, "failed completely: 3")],
        ids=["one-location", "every-location"],
    )
    def test_location_with_every_upstream_down(
        self, workspace, capsys, monkeypatch, no_geo_network, down, code, failed
    ):
        import urbanmas.geo as geo_mod

        def upstreams(url, params):
            if any(lat in str(params) for lat in down):
                return 503, "down"
            return answer_every_upstream(url, params)

        monkeypatch.setattr(geo_mod, "_http_get", upstreams)
        monkeypatch.setattr(geo_mod.time, "sleep", lambda s: None)
        assert run_cli(
            "ingest",
            "--dataset", str(workspace / "raw_samples.jsonl"),
            "--cache-dir", str(workspace / "empty_cache"),
            "--out", str(workspace / "out"),
        ) == code
        assert failed in capsys.readouterr().out

    def test_an_interrupt_starts_no_queued_lookup(self, workspace, monkeypatch, sigint_raises):
        raw = json.loads((workspace / "raw_samples.jsonl").read_text().splitlines()[0])
        dataset = workspace / "many.jsonl"
        dataset.write_text("".join(json.dumps({**raw, "id": f"loc{i}"}) + "\n" for i in range(40)))
        ctrl_c = CtrlC(slots=2)

        def enrich(client, sample):
            ctrl_c.call()
            return sample

        monkeypatch.setattr(urbanmas.cli.GeoClient, "enrich", enrich)
        with pytest.raises(KeyboardInterrupt):
            run_cli(
                "ingest", "--offline", "--dataset", str(dataset), "--workers", "2",
                "--cache-dir", str(workspace / "geocache"), "--out", str(workspace / "out"),
            )
        assert ctrl_c.started == ctrl_c.slots  # of 40 samples

    def test_temp_files_of_killed_cache_writes_are_swept(self, workspace):
        cache = workspace / "geocache"
        args = (
            "ingest", "--offline", "--dataset", str(workspace / "raw_samples.jsonl"),
            "--cache-dir", str(cache), "--out", str(workspace / "out"),
        )
        entries = _tree_bytes(cache)
        (cache / "reverse_35.65860_139.74540.json.99999.1.tmp").write_text('{"half": ')
        (cache / "pois_1.00000_2.00000.json.99999.2.tmp").write_text("")
        (cache / "notes.tmp").write_text("kept")
        assert run_cli(*args) == 0
        assert _tree_bytes(cache) == {**entries, "notes.tmp": b"kept"}

    @pytest.mark.parametrize(
        "command, dataset, message",
        [
            ("ingest", "empty.jsonl", "no samples"),
            ("predict", None, "error: --dataset is required for this command"),
        ],
        ids=["ingest-empty-file", "predict-without-dataset"],
    )
    def test_empty_dataset_is_an_error(self, workspace, capsys, command, dataset, message):
        argv = [command, "--out", str(workspace / "out")]
        if dataset is not None:
            (workspace / dataset).write_text("")
            argv += ["--dataset", str(workspace / dataset)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestPredictCommand:
    def _factors(self, workspace):
        assert run_cli(
            "factors", "--backend", "mock",
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", "running_amount",
        ) == 0

    def test_predict_writes_outputs_and_manifest(self, workspace, capsys):
        self._factors(workspace)
        code = run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", "running_amount",
            "--variant", "full", "--variant", "single_llm",
        )
        assert code == 0
        out_dir = workspace / "out"
        lines = (out_dir / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 6  # 3 locations x 2 variants
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "predict"
        assert len(manifest["dataset_sha256"]) == 64
        assert (out_dir / "audit" / "full" / "running_amount" / "tokyo_tower.json").exists()
        assert (out_dir / "similarity_reports.jsonl").exists()

    def _predict(self, workspace, dataset="samples.jsonl"):
        return run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / dataset),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", "running_amount",
            "--variant", "full", "--variant", "single_llm",
        )

    def test_audit_write_error_stops_the_run_and_keeps_the_old_audit(
        self, workspace, capsys, monkeypatch
    ):
        self._factors(workspace)
        assert self._predict(workspace) == 0
        audit = workspace / "out" / "audit"
        before = _tree_bytes(audit)
        calls = itertools.count(1)
        write_audit = urbanmas.cli.write_audit

        def fail_on_third_job(run, audit_dir):
            if next(calls) == 3:
                raise OSError("no space left on device")
            write_audit(run, audit_dir)

        monkeypatch.setattr(urbanmas.cli, "write_audit", fail_on_third_job)
        capsys.readouterr()
        with pytest.raises(OSError, match="no space left"):
            self._predict(workspace)
        assert "failed jobs" not in capsys.readouterr().out
        assert list((workspace / "out").glob("audit.*")) == []
        assert _tree_bytes(audit) == before

    def test_rerun_into_the_same_out_leaves_only_its_own_audit_files(self, workspace):
        self._factors(workspace)
        assert self._predict(workspace) == 0
        first = (workspace / "samples.jsonl").read_text().splitlines()[0]
        (workspace / "one.jsonl").write_text(first + "\n")
        assert self._predict(workspace, "one.jsonl") == 0
        location = json.loads(first)["id"]
        out_dir = workspace / "out"
        assert sorted(_tree_bytes(out_dir / "audit")) == [
            f"full/running_amount/{location}.json",
            f"single_llm/running_amount/{location}.json",
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "audit", "manifest.json", "predictions.jsonl", "similarity_reports.jsonl",
        ]

    def test_staging_trees_of_killed_runs_are_swept(self, workspace):
        self._factors(workspace)
        out_dir = workspace / "out"
        (out_dir / "audit.99999.tmp").mkdir()
        (out_dir / "audit.99999.tmp" / "x.json").write_text("{}")
        (out_dir / "audit.99999.old").mkdir()
        assert self._predict(workspace) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "audit", "manifest.json", "predictions.jsonl", "similarity_reports.jsonl",
        ]

    def test_temp_files_of_killed_writes_are_swept(self, workspace):
        self._factors(workspace)
        out_dir = workspace / "out"
        (out_dir / "predictions.jsonl.99999.1.tmp").write_text('{"half": ')
        (out_dir / "audit.99998.tmp").write_text("a file, not a tree")
        (out_dir / "audit.99997.old").write_text("a file, not a tree")
        (out_dir / "other.99999.tmp" / "deep").mkdir(parents=True)
        (out_dir / "notes.txt").write_text("kept")
        assert self._predict(workspace) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "audit", "manifest.json", "notes.txt", "predictions.jsonl",
            "similarity_reports.jsonl",
        ]

    def test_missing_factor_cache_is_actionable(self, workspace, capsys):
        code = run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "nowhere"),
            "--out", str(workspace / "out"),
            "--variant", "full",
        )
        assert code == 2
        assert "urbanmas factors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda doc: doc[:200], "cannot read factor cache {cache}"),
            (_duplicate_first_factor_name, "factor cache {cache} invalid for social_macro"),
        ],
        ids=["truncated", "duplicate-factor-name"],
    )
    def test_corrupt_factor_cache_is_a_labelled_usage_error(
        self, workspace, capsys, corrupt, message
    ):
        self._factors(workspace)
        cache = workspace / "factors" / "factors_running_amount.json"
        cache.write_text(corrupt(cache.read_text()))
        code = run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--variant", "full",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " + message.format(cache=cache) in err
        assert "Traceback" not in err

    def test_variant_accounting_no_reliability(self, workspace):
        self._factors(workspace)
        cassette = workspace / "cassette.jsonl"
        code = run_cli(
            "predict", "--backend", "record", "--record-source", "mock",
            "--cassette", str(cassette),
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--variant", "no_reliability",
        )
        assert code == 0
        # Single-variant extraction: exactly (4 extraction + 1 inference)
        # calls per location were recorded.
        recorded = cassette.read_text().splitlines()
        assert len(recorded) == 5 * 3


class TestEvaluateCommand:
    def _pipeline(self, workspace):
        TestPredictCommand()._factors(workspace)
        assert run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--variant", "full", "--variant", "single_llm",
        ) == 0

    def test_evaluate_against_dataset_truth(self, workspace, capsys):
        self._pipeline(workspace)
        code = run_cli(
            "evaluate",
            "--dataset", str(workspace / "samples.jsonl"),
            "--out", str(workspace / "out"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[running_amount]" in out
        assert "full" in out and "single_llm" in out
        assert (workspace / "out" / "reports.csv").exists()
        assert (workspace / "out" / "reports.txt").exists()

    def test_raw_truth_requires_rescale_flag(self, workspace, capsys):
        self._pipeline(workspace)
        base = (
            "evaluate",
            "--dataset", str(workspace / "samples.jsonl"),
            "--out", str(workspace / "out"),
            "--truth", str(workspace / "truth_raw.csv"),
        )
        assert run_cli(*base) == 2
        assert "rescale" in capsys.readouterr().err
        assert run_cli(*base, "--rescale-truth") == 0

    @pytest.mark.parametrize(
        "predictions, dataset, message",
        [
            (None, "samples.jsonl", "predictions file not found"),
            ("", "samples.jsonl", "no predictions in "),
            (_ONE_PREDICTION, "no_truth.jsonl", "no ground truth available"),
        ],
        ids=["predictions-missing", "predictions-empty", "no-truth-anywhere"],
    )
    def test_missing_predictions_file(self, workspace, capsys, predictions, dataset, message):
        out = workspace / "out"
        if predictions is not None:
            out.mkdir()
            (out / "predictions.jsonl").write_text(predictions)
        (workspace / "no_truth.jsonl").write_text(
            json.dumps({"id": "tokyo_tower", "lat": 35.6586, "lon": 139.7454}) + "\n"
        )
        code = run_cli("evaluate", "--dataset", str(workspace / dataset), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_reports_match_hand_computed_metrics(self, workspace, capsys):
        # Fixture truths: tokyo 6.2, milan 4.1, seattle 5.5.
        preds = [
            {"location_id": "tokyo_tower", "task_id": "running_amount",
             "variant": "full", "value": 7.2, "clamped": False},
            {"location_id": "milan_duomo", "task_id": "running_amount",
             "variant": "full", "value": 3.1, "clamped": False},
            {"location_id": "seattle_pike", "task_id": "running_amount",
             "variant": "full", "value": 5.5, "clamped": False},
        ]
        out = workspace / "out"
        out.mkdir()
        (out / "predictions.jsonl").write_text(
            "\n".join(json.dumps(p) for p in preds) + "\n"
        )
        assert run_cli(
            "evaluate",
            "--dataset", str(workspace / "samples.jsonl"),
            "--out", str(out),
        ) == 0
        rows = (out / "reports.csv").read_text().splitlines()
        _, variant, n, mae, mse, rmse = rows[1].split(",")[:6]
        # errors: +1.0, -1.0, 0.0 -> mae 2/3, mse 2/3, rmse sqrt(2/3)
        assert (variant, n) == ("full", "3")
        assert float(mae) == pytest.approx(2 / 3, abs=1e-9)
        assert float(mse) == pytest.approx(2 / 3, abs=1e-9)
        assert float(rmse) == pytest.approx((2 / 3) ** 0.5, abs=1e-9)

    @pytest.mark.parametrize("name", ["manifest.json", "reports.csv", "reports.txt"])
    def test_interrupted_output_write_keeps_the_old_file(
        self, workspace, capsys, monkeypatch, name
    ):
        out = workspace / "out"
        out.mkdir()
        (out / "predictions.jsonl").write_text(json.dumps(
            {"location_id": "tokyo_tower", "task_id": "running_amount",
             "variant": "full", "value": 7.2, "clamped": False}
        ) + "\n")
        args = ("evaluate", "--dataset", str(workspace / "samples.jsonl"), "--out", str(out))
        assert run_cli(*args) == 0
        (out / name).write_text("old run\n")
        before = sorted(os.listdir(out))
        real_replace = os.replace

        def killed(src, dst):
            if Path(dst).name == name:
                raise OSError("killed before the rename")
            real_replace(src, dst)

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            run_cli(*args)
        assert (out / name).read_text() == "old run\n"
        assert sorted(os.listdir(out)) == before

    def test_perfect_predictions_give_all_zero_metrics(self, workspace, capsys):
        truths = {"tokyo_tower": 6.2, "milan_duomo": 4.1, "seattle_pike": 5.5}
        preds = [
            {"location_id": loc, "task_id": "running_amount",
             "variant": "full", "value": value, "clamped": False}
            for loc, value in truths.items()
        ]
        out = workspace / "out"
        out.mkdir()
        (out / "predictions.jsonl").write_text(
            "\n".join(json.dumps(p) for p in preds) + "\n"
        )
        assert run_cli(
            "evaluate", "--dataset", str(workspace / "samples.jsonl"), "--out", str(out)
        ) == 0
        row = (out / "reports.csv").read_text().splitlines()[1]
        assert row.split(",")[3:6] == ["0.0", "0.0", "0.0"]


class TestMultiTaskFlow:
    def test_three_tasks_end_to_end(self, workspace, capsys):
        tasks = "running_amount,boringness,liveliness"
        common = (
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--tasks", tasks,
        )
        assert run_cli("factors", "--backend", "mock", *common) == 0
        for task_id in tasks.split(","):
            assert (workspace / "factors" / f"factors_{task_id}.json").exists()
        assert run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--variant", "full", *common,
        ) == 0
        assert run_cli(
            "evaluate", "--dataset", str(workspace / "samples.jsonl"),
            "--out", str(workspace / "out"),
        ) == 0
        out = capsys.readouterr().out
        for task_id in tasks.split(","):
            assert f"[{task_id}]" in out
        rows = (workspace / "out" / "reports.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + one (task, variant) row per task


    ALL_VARIANTS = (
        "--variant", "full", "--variant", "no_factors",
        "--variant", "no_reliability", "--variant", "single_llm",
    )

    def _predict_all_variants(self, workspace, out: str, tasks: str, workers: str) -> dict:
        assert run_cli(
            "predict", "--backend", "mock",
            "--dataset", str(workspace / "samples.jsonl"),
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / out), "--tasks", tasks, "--workers", workers,
            *self.ALL_VARIANTS,
        ) == 0
        tree = _tree_bytes(workspace / out)
        tree.pop("manifest.json")
        return tree

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_a_three_task_run_writes_what_three_one_task_runs_write(self, workspace, workers):
        task_ids = ("running_amount", "boringness", "liveliness")
        assert run_cli(
            "factors", "--backend", "mock", "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out_factors"), "--tasks", ",".join(task_ids),
        ) == 0
        together = self._predict_all_variants(workspace, "out_all", ",".join(task_ids), workers)
        alone = [self._predict_all_variants(workspace, f"out_{t}", t, "1") for t in task_ids]

        def job(line: bytes) -> tuple:
            doc = json.loads(line)
            return doc["location_id"], doc["task_id"], doc["variant"]

        for name in ("predictions.jsonl", "similarity_reports.jsonl"):
            lines = [line for tree in alone for line in tree.pop(name).splitlines(keepends=True)]
            # A stable sort keeps each job's similarity lines in pair order.
            assert together.pop(name) == b"".join(sorted(lines, key=job)), name
        audit = {path: data for tree in alone for path, data in tree.items()}
        assert len(audit) == len(together) == 3 * 4 * 3
        assert together == audit

    def test_a_repeated_task_id_runs_once(self, workspace, monkeypatch):
        assert run_cli(
            "factors", "--backend", "mock", "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out_factors"), "--tasks", "running_amount",
        ) == 0
        backends = []

        def counted(cfg):
            backends.append(MockBackend())
            return backends[-1]

        monkeypatch.setattr(urbanmas.cli, "make_backend", counted)
        once = self._predict_all_variants(workspace, "out_once", "running_amount", "2")
        twice = self._predict_all_variants(
            workspace, "out_twice", "running_amount,running_amount", "2"
        )
        assert twice == once
        assert backends[1].call_count == backends[0].call_count


class TestNoReliabilityFollowsFull:
    """``no_reliability`` takes its extraction from the ``full`` job of its
    location and task, and its prediction when its inference prompt is the
    same, and writes what it writes when it extracts and infers itself."""

    TASKS = "running_amount,boringness"

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_a_two_variant_run_writes_what_two_one_variant_runs_write(
        self, workspace, workers, monkeypatch
    ):
        assert run_cli(
            "factors", "--backend", "mock", "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out_factors"), "--tasks", self.TASKS,
        ) == 0
        backends = []

        def counted(cfg):
            backends.append(MockBackend())
            return backends[-1]

        monkeypatch.setattr(urbanmas.cli, "make_backend", counted)

        def predict(out: str, *variants: str) -> tuple[dict, int]:
            assert run_cli(
                "predict", "--backend", "mock",
                "--dataset", str(workspace / "samples.jsonl"),
                "--factor-dir", str(workspace / "factors"),
                "--out", str(workspace / out), "--tasks", self.TASKS, "--workers", workers,
                *itertools.chain.from_iterable(("--variant", v) for v in variants),
            ) == 0
            tree = _tree_bytes(workspace / out)
            tree.pop("manifest.json")
            return tree, backends[-1].call_count

        together, calls = predict("out_both", "full", "no_reliability")
        assert predict("out_reversed", "no_reliability", "full") == (together, calls)
        full, full_calls = predict("out_full", "full")
        alone, alone_calls = predict("out_no_reliability", "no_reliability")
        # One four-call extraction and one inference saved per (location, task),
        # 3 locations x 2 tasks: the mock refiner echoes value A, so the prompts match.
        assert calls == full_calls + alone_calls - (4 + 1) * 3 * 2

        def job(line: bytes) -> tuple:
            doc = json.loads(line)
            return doc["location_id"], doc["task_id"], doc["variant"]

        for name in ("predictions.jsonl", "similarity_reports.jsonl"):
            lines = [line for tree in (full, alone) for line in tree.pop(name).splitlines(True)]
            assert together.pop(name) == b"".join(sorted(lines, key=job)), name
        assert len(together) == 2 * 2 * 3
        assert together == {**full, **alone}


class TestLiveMode:
    """``live`` reads through the same store as ``record``, held in memory."""

    VARIANTS = ("--variant", "full", "--variant", "no_factors",
                "--variant", "no_reliability", "--variant", "single_llm")

    @pytest.fixture
    def posted(self, workspace, monkeypatch) -> list[str]:
        """Every payload POSTed, answered by the mock's responder instead of a network."""
        posted: list[str] = []

        def post(url, headers, payload):
            posted.append(json.dumps(payload, sort_keys=True))
            system, user = (m["content"] for m in payload["messages"])
            if isinstance(user, list):  # text part, then image parts
                user = user[0]["text"]
            text = deterministic_responder(ChatRequest(system, user, variant_seed=payload["seed"]))
            return 200, json.dumps({"choices": [{"message": {"content": text}}]})

        monkeypatch.setattr("urbanmas.backend._http_post", post)
        # Loopback, so a request that bypasses the fake never leaves the machine.
        monkeypatch.setenv("URBANMAS_API_BASE", "http://127.0.0.1:9/v1")
        monkeypatch.setenv("URBANMAS_API_KEY", "k")
        (workspace / "run.json").write_text(json.dumps({"requests_per_minute": 1e6}))
        return posted

    def _run(self, workspace, command: str, backend: str, *extra: str) -> int:
        return run_cli(
            command, "--config", str(workspace / "run.json"), "--backend", backend,
            "--tasks", "running_amount", "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / f"out_{backend}"), "--workers", "2", *extra,
        )

    def test_each_distinct_request_is_posted_once(self, workspace, posted):
        dataset = ("--dataset", str(workspace / "samples.jsonl"))
        assert self._run(workspace, "factors", "live") == 0
        assert self._run(workspace, "predict", "live", *dataset, *self.VARIANTS) == 0
        assert posted and len(posted) == len(set(posted))
        assert self._run(workspace, "predict", "mock", *dataset, *self.VARIANTS) == 0
        for name in ("predictions.jsonl", "similarity_reports.jsonl"):
            live_out = (workspace / "out_live" / name).read_bytes()
            assert live_out == (workspace / "out_mock" / name).read_bytes(), name

    def test_live_writes_no_cassette(self, workspace, posted):
        cassette = workspace / "cassette.jsonl"
        assert self._run(workspace, "factors", "live", "--cassette", str(cassette)) == 0
        assert posted
        assert not cassette.exists()

    @pytest.mark.parametrize("mode", ["mock", "live", "record", "replay"])
    def test_every_mode_but_mock_is_one_store(self, workspace, mode, monkeypatch):
        monkeypatch.setenv("URBANMAS_API_BASE", "http://127.0.0.1:9/v1")
        monkeypatch.setenv("URBANMAS_API_KEY", "k")
        cfg = RunConfig(backend=mode, cassette=str(workspace / "cassette.jsonl"))
        backend = make_backend(cfg)
        assert type(backend) is (MockBackend if mode == "mock" else CassetteBackend)

    def test_missing_key_stops_the_run_before_it_starts(self, workspace, capsys, monkeypatch):
        def post(url, headers, payload):  # pragma: no cover - must not run
            raise AssertionError("request sent")

        monkeypatch.setattr("urbanmas.backend._http_post", post)
        monkeypatch.setenv("URBANMAS_API_BASE", "http://127.0.0.1:9/v1")
        monkeypatch.delenv("URBANMAS_API_KEY", raising=False)
        cassette, out = workspace / "rec" / "cassette.jsonl", workspace / "out"
        code = run_cli(
            "factors", "--backend", "record", "--record-source", "live",
            "--cassette", str(cassette), "--tasks", "running_amount,boringness,liveliness",
            "--factor-dir", str(workspace / "factors"), "--out", str(out),
        )
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: URBANMAS_API_KEY is not set"]
        assert not (out / "manifest.json").exists()
        assert not cassette.parent.exists()


class TestExitCodes:
    def test_predict_failure_sets_exit_code(self, workspace, capsys):
        TestPredictCommand()._factors(workspace)
        # Record a cassette for only the first two locations, then predict
        # all three from it: the third misses and the job fails.
        short = workspace / "short.jsonl"
        lines = (workspace / "samples.jsonl").read_text().splitlines()
        short.write_text("\n".join(lines[:2]) + "\n")
        cassette = workspace / "cassette.jsonl"
        base = (
            "--factor-dir", str(workspace / "factors"),
            "--out", str(workspace / "out"),
            "--variant", "single_llm",
        )
        assert run_cli(
            "predict", "--backend", "record", "--record-source", "mock",
            "--cassette", str(cassette), "--dataset", str(short), *base,
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "predict", "--backend", "replay",
            "--cassette", str(cassette),
            "--dataset", str(workspace / "samples.jsonl"), *base,
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "failed jobs: 1" in out
        assert "no cassette entry" in out
        predictions = (workspace / "out" / "predictions.jsonl").read_text().splitlines()
        assert len(predictions) == 2

    @pytest.mark.parametrize("backend", ["replay", "record"])
    @pytest.mark.parametrize("line", ["not json", '{"fingerprint": "abc", "response": {}}'])
    def test_malformed_cassette_is_a_labelled_usage_error(self, workspace, capsys, backend, line):
        cassette = workspace / "cassette.jsonl"
        cassette.write_text(line + "\n")
        code = run_cli(
            "predict", "--backend", backend, "--record-source", "mock",
            "--cassette", str(cassette),
            "--dataset", str(workspace / "samples.jsonl"),
            "--out", str(workspace / "out"),
            "--variant", "single_llm",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cassette}:1: bad cassette line" in err
        assert "Traceback" not in err


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "command, flag, content, where",
        [
            ("predict", "--dataset", b"\nnot json\n", ":2: "),
            ("predict", "--dataset", None, ": "),
            ("evaluate", "--predictions", b"\nnot json\n", ":2: "),
            ("evaluate", "--truth", b"location_id,task_id,raw_value\ntokyo_tower,running_amount,high\n", ":2: "),
            ("evaluate", "--truth", b"location_id,task_id,raw_value\ntokyo_tower,running_amount,\xff\n", ": "),
            ("evaluate", "--truth", None, ": "),
        ],
        ids=[
            "dataset-bad-line", "dataset-missing", "predictions-bad-line",
            "truth-not-a-number", "truth-not-utf8", "truth-missing",
        ],
    )
    def test_bad_input_file_is_a_labelled_usage_error(
        self, workspace, capsys, command, flag, content, where
    ):
        bad = workspace / "bad_input"
        if content is not None:
            bad.write_bytes(content)
        predictions = workspace / "predictions.jsonl"
        predictions.write_text(
            json.dumps({"location_id": "tokyo_tower", "task_id": "running_amount",
                        "value": 5.0, "variant": "full"}) + "\n"
        )
        files = {"--dataset": workspace / "samples.jsonl"}
        if command == "evaluate":
            files["--predictions"] = predictions
        files[flag] = bad
        argv = [command, "--out", str(workspace / "out")]
        for name, path in files.items():
            argv += [name, str(path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}{where}" in err
        assert "Traceback" not in err


class TestCodeDigest:
    PACKAGE = Path(urbanmas.cli.__file__).parent

    @staticmethod
    def digest_of(package: Path) -> str:
        """The manifest's code digest, recomputed from the files."""
        digest = hashlib.sha256()
        for name in sorted(p.name for p in package.glob("*.py")):
            data = (package / name).read_bytes()
            digest.update(name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
        return digest.hexdigest()

    def test_every_stage_names_the_code_that_ran(self, workspace):
        common = ("--backend", "mock", "--tasks", "running_amount",
                  "--factor-dir", str(workspace / "factors"), "--cache-dir",
                  str(workspace / "geocache"), "--dataset", str(workspace / "samples.jsonl"))
        expected = self.digest_of(self.PACKAGE)
        for command in ("factors", "ingest", "predict"):
            out = workspace / command
            assert run_cli(command, "--offline", *common, "--out", str(out)) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["code_sha256"] == expected, command

    def test_one_changed_byte_gives_another_digest(self, tmp_path):
        same, changed = tmp_path / "same" / "urbanmas", tmp_path / "changed" / "urbanmas"
        for copy in (same, changed):
            copy.mkdir(parents=True)
            for path in self.PACKAGE.glob("*.py"):
                shutil.copy(path, copy / path.name)
            (copy / "notes.txt").write_text("not code")
        pipeline = changed / "pipeline.py"
        data = bytearray(pipeline.read_bytes())
        data[-2] ^= 1
        pipeline.write_bytes(bytes(data))
        assert urbanmas.cli.code_sha256(same) == urbanmas.cli.code_sha256()
        assert urbanmas.cli.code_sha256(changed) != urbanmas.cli.code_sha256()
        assert urbanmas.cli.code_sha256(changed) == self.digest_of(changed)
