import gc
import json
import threading
import time
import weakref

import pytest

from urbanmas.backend import MockBackend
from urbanmas.domain import PAIRS, PredictionOutput, builtin_task
from urbanmas.errors import ConfigError, TransportExhaustedError
from urbanmas.guidance import guide
from urbanmas import pipeline
from urbanmas.pipeline import (
    VARIANTS,
    load_predictions,
    predict_location,
    run_predictions,
    write_audit,
    write_predictions,
    write_similarity_log,
)

from conftest import FACTOR_NAMES, make_factor_set


@pytest.fixture
def factor_map(task):
    return {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}


class TestPredictLocation:
    def test_unknown_variant_is_rejected(self, sample, task):
        with pytest.raises(ConfigError, match="unknown variant"):
            predict_location(sample, task, "fancy", MockBackend())

    def test_guided_variant_without_factor_map_is_rejected(self, sample, task):
        with pytest.raises(ConfigError, match="factor map"):
            predict_location(sample, task, "full", MockBackend())

    def test_full_variant_produces_four_pairs_and_prediction(self, sample, task, factor_map):
        run = predict_location(sample, task, "full", MockBackend(), factor_map=factor_map)
        assert set(run.pairs) == set(PAIRS)
        assert run.prediction.variant == "full"
        assert 0.0 <= run.prediction.value <= 10.0

    def test_single_llm_has_no_pair_transcripts(self, sample, task):
        run = predict_location(sample, task, "single_llm", MockBackend())
        assert run.pairs is None
        assert run.prediction.variant == "single_llm"

    def test_no_factors_uses_generic_placeholders(self, sample, task):
        run = predict_location(sample, task, "no_factors", MockBackend())
        names = next(iter(run.pairs.values())).record.field_names
        assert "overall character" in names

    def test_no_factors_reuses_another_tasks_extraction_relabelled(self, sample, task):
        other = builtin_task("liveliness")
        first = predict_location(sample, task, "no_factors", MockBackend())
        backend = MockBackend()
        reused = predict_location(sample, other, "no_factors", backend, pairs=first.pairs)
        assert backend.call_count == 1  # the inference only
        own = predict_location(sample, other, "no_factors", MockBackend())
        assert reused.audit_doc() == own.audit_doc()
        assert reused.similarity_lines() == own.similarity_lines()

    def test_only_no_factors_reuses_an_extraction(self, sample, task, factor_map):
        pairs = predict_location(sample, task, "no_factors", MockBackend()).pairs
        with pytest.raises(ConfigError, match="only no_factors"):
            predict_location(sample, task, "full", MockBackend(), factor_map=factor_map, pairs=pairs)

    def test_single_llm_reuses_no_extraction(self, sample, task, factor_map):
        pairs = predict_location(sample, task, "full", MockBackend(), factor_map=factor_map).pairs
        with pytest.raises(ConfigError, match="only no_factors and no_reliability"):
            predict_location(sample, task, "single_llm", MockBackend(), pairs=pairs)

    def test_no_reliability_takes_variant_a_of_the_full_extraction(
        self, sample, task, factor_map
    ):
        full = predict_location(sample, task, "full", MockBackend(), factor_map=factor_map)
        backend = MockBackend()
        reused = predict_location(
            sample, task, "no_reliability", backend, factor_map=factor_map, pairs=full.pairs
        )
        assert backend.call_count == 1  # the inference only
        own = predict_location(sample, task, "no_reliability", MockBackend(), factor_map=factor_map)
        assert reused.audit_doc() == own.audit_doc()
        assert reused.similarity_lines() == own.similarity_lines() == []

    def test_no_reliability_refuses_another_tasks_extraction(self, sample, task, factor_map):
        other = builtin_task("liveliness")
        other_map = {(d, r): make_factor_set(other.id, d, r) for d, r in PAIRS}
        pairs = predict_location(sample, other, "full", MockBackend(), factor_map=other_map).pairs
        backend = MockBackend()
        with pytest.raises(ConfigError, match="liveliness"):
            predict_location(
                sample, task, "no_reliability", backend, factor_map=factor_map, pairs=pairs
            )
        assert backend.call_count == 0


class TestRunPredictions:
    def test_outputs_are_sorted_and_complete(self, dataset, task, factor_map):
        outcome = run_predictions(
            dataset, [task], ("full", "single_llm"), MockBackend(),
            factor_maps={task.id: factor_map},
        )
        keys = [(p.location_id, p.task_id, p.variant) for p in outcome.predictions]
        assert keys == sorted(keys)
        assert len(keys) == len(dataset) * 2
        assert not outcome.failures

    def test_missing_factor_maps_fail_fast(self, dataset, task):
        with pytest.raises(ConfigError, match="factor maps"):
            run_predictions(dataset, [task], ("full",), MockBackend())

    def test_a_failed_no_factors_extraction_is_not_handed_on(self, dataset):
        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]

        class FirstExtractionFails(MockBackend):
            """The first extraction call for one location raises; later ones pass."""

            def __init__(self):
                super().__init__()
                self._lock = threading.Lock()
                self.failed = False

            def complete(self, req):
                with self._lock:
                    fail = not self.failed and "Seattle" in req.user_prompt and (
                        "exactly these keys" in req.user_prompt
                    )
                    self.failed = self.failed or fail
                if fail:
                    raise TransportExhaustedError("endpoint down")
                return super().complete(req)

        backend = FirstExtractionFails()
        outcome = run_predictions(dataset, tasks, ["no_factors"], backend)
        clean = run_predictions(dataset, tasks, ["no_factors"], MockBackend())
        assert backend.failed
        assert [(f["location_id"], f["task_id"]) for f in outcome.failures] == [
            ("seattle_pike", "running_amount")
        ]
        assert "endpoint down" in outcome.failures[0]["error"]
        assert outcome.predictions == [
            p for p in clean.predictions
            if (p.location_id, p.task_id) != ("seattle_pike", "running_amount")
        ]

    def test_a_failed_full_job_leaves_no_reliability_to_extract(self, dataset, task, factor_map):
        def audit_docs(backend):
            docs = {}

            def keep(run):
                docs[run.prediction.location_id, run.prediction.variant] = run.audit_doc()

            outcome = run_predictions(
                dataset, [task], ["full", "no_reliability"], backend,
                factor_maps={task.id: factor_map}, on_job_end=keep,
            )
            return outcome, docs

        backend = MockBackend()
        # Variant B of Seattle's extraction is unusable, re-ask included.
        backend.add_rule(
            lambda r: r.variant_seed == 1 and "Seattle" in r.user_prompt
            and "exactly these keys" in r.user_prompt,
            "never json",
        )
        outcome, docs = audit_docs(backend)
        clean, clean_docs = audit_docs(MockBackend())
        assert [(f["location_id"], f["variant"]) for f in outcome.failures] == [
            ("seattle_pike", "full")
        ]
        assert "unusable after re-ask" in outcome.failures[0]["error"]
        assert outcome.predictions == [
            p for p in clean.predictions if (p.location_id, p.variant) != ("seattle_pike", "full")
        ]
        del clean_docs[("seattle_pike", "full")]
        assert docs == clean_docs

    @pytest.mark.parametrize(
        "refine_text, status, inferences",
        [
            (None, "refined", 1),  # echoes value A: the same inference prompt
            ("entirely unrelated fenced industrial storage text", "low_confidence", 2),
            (f"moderate {FACTOR_NAMES[0]} observed around this location today", "refined", 2),
        ],
    )
    def test_no_reliability_infers_itself_when_its_prompt_differs(
        self, sample, task, factor_map, refine_text, status, inferences
    ):
        base = {name: f"moderate {name} observed around this location" for name in FACTOR_NAMES}
        conflicting = {**base, FACTOR_NAMES[0]: "entirely unrelated fenced industrial storage text"}
        prompts = []

        def backend():
            """Variant B conflicts on one field of the social street-level pair only."""
            mock = MockBackend()
            mock.add_rule(lambda r: prompts.append(r.user_prompt), "")  # records, never matches
            if refine_text is not None:
                mock.add_rule(lambda r: "Value B:" in r.user_prompt, refine_text)
            mock.add_rule(
                lambda r: r.variant_seed == 1 and "social dimension at the street" in r.system_prompt
                and "exactly these keys" in r.user_prompt,
                json.dumps(conflicting),
            )
            mock.add_rule(lambda r: "exactly these keys" in r.user_prompt, json.dumps(base))
            return mock

        runs = []
        both = run_predictions(
            [sample], [task], ["full", "no_reliability"], backend(),
            factor_maps={task.id: factor_map}, on_job_end=runs.append,
        )
        statuses = sorted(pe.record.status for pe in runs[0].pairs.values())
        assert statuses == sorted([status, "stable", "stable", "stable"])
        assert sum("Structured urban information" in p for p in prompts) == inferences
        alone = run_predictions(
            [sample], [task], ["no_reliability"], backend(), factor_maps={task.id: factor_map}
        )
        full, no_reliability = both.predictions
        assert [no_reliability] == alone.predictions
        assert (full.value == no_reliability.value) == (inferences == 1)

    def test_failures_are_collected_not_raised(self, dataset, task):
        backend = MockBackend()
        backend.add_rule(lambda r: "seattle" in r.user_prompt.lower(), "never json")
        outcome = run_predictions(dataset, [task], ("single_llm",), backend)
        assert len(outcome.predictions) == 2
        assert len(outcome.failures) == 1
        assert outcome.failures[0]["location_id"] == "seattle_pike"
        assert "seattle_pike" not in [p.location_id for p in outcome.predictions]


class GaugedBackend(MockBackend):
    """The stock mock, slowed a little, recording the peak of calls in flight."""

    def __init__(self):
        super().__init__()
        self._gauge = threading.Lock()
        self._current = 0
        self.peak = 0

    def complete(self, req):
        with self._gauge:
            self._current += 1
            self.peak = max(self.peak, self._current)
        try:
            time.sleep(0.002)
            return super().complete(req)
        finally:
            with self._gauge:
                self._current -= 1


class TestWorkersBoundCallsInFlight:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_predict_keeps_at_most_four_calls_per_worker(self, dataset, task, factor_map, workers):
        backend = GaugedBackend()
        outcome = run_predictions(
            dataset, [task], ["full"], backend, factor_maps={task.id: factor_map}, workers=workers
        )
        assert not outcome.failures
        assert backend.peak <= 4 * workers

    def test_one_job_makes_one_call_at_a_time(self, sample, task, factor_map):
        backend = GaugedBackend()
        outcome = run_predictions(
            [sample], [task], ["full"], backend, factor_maps={task.id: factor_map}
        )
        assert not outcome.failures
        assert backend.peak == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_guide_keeps_at_most_four_calls_per_worker(self, workers):
        backend = GaugedBackend()
        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        guide(tasks, backend, workers=workers)
        assert backend.peak <= 4 * workers


class TestRunKeepsNoTranscript:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_transcript_is_dropped_when_its_job_ends(
        self, dataset, task, factor_map, workers, monkeypatch
    ):
        refs: list[weakref.ref] = []
        alive_at_job_end: list[int] = []
        lock = threading.Lock()
        original = pipeline.predict_location

        def tracked(*args, **kwargs):
            run = original(*args, **kwargs)
            with lock:
                refs.append(weakref.ref(run))
                alive_at_job_end.append(sum(1 for ref in refs if ref() is not None))
            return run

        monkeypatch.setattr(pipeline, "predict_location", tracked)
        tasks = [task, builtin_task("boringness"), builtin_task("liveliness")]
        factor_maps = {
            t.id: {(d, r): make_factor_set(t.id, d, r) for d, r in PAIRS} for t in tasks
        }
        outcome = run_predictions(
            dataset, tasks, VARIANTS, MockBackend(), factor_maps=factor_maps, workers=workers,
        )
        gc.collect()
        assert not outcome.failures
        assert len(refs) == len(outcome.predictions) == len(VARIANTS) * len(tasks) * len(dataset)
        # One transcript per pool thread at most: the one whose job just ended.
        assert max(alive_at_job_end) <= len(PAIRS) * workers
        assert [ref for ref in refs if ref() is not None] == []


class TestRunArtifacts:
    def _outcome(self, dataset, task, factor_map, backend=None):
        return run_predictions(
            dataset, [task], ("full", "single_llm"), backend or MockBackend(),
            factor_maps={task.id: factor_map},
        )

    def test_predictions_file_round_trip(self, dataset, task, factor_map, tmp_path):
        outcome = self._outcome(dataset, task, factor_map)
        path = tmp_path / "predictions.jsonl"
        write_predictions(outcome.predictions, path)
        assert load_predictions(path) == outcome.predictions

    def test_interrupted_predictions_write_keeps_the_old_file(
        self, dataset, task, factor_map, tmp_path, monkeypatch
    ):
        outcome = self._outcome(dataset, task, factor_map)
        path = tmp_path / "predictions.jsonl"
        write_predictions(outcome.predictions, path)
        before = path.read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            write_predictions(outcome.predictions[:1], path)
        assert path.read_bytes() == before

    def test_audit_layout_and_content(self, dataset, task, factor_map, tmp_path):
        audit = tmp_path / "audit"
        for variant in ("full", "single_llm"):
            (audit / variant / task.id).mkdir(parents=True)
        outcome = run_predictions(
            dataset, [task], ("full", "single_llm"), MockBackend(),
            factor_maps={task.id: factor_map}, on_job_end=lambda run: write_audit(run, audit),
        )
        written = sum(1 for _ in audit.rglob("*.json"))
        assert written == len(outcome.predictions)
        doc = json.loads(
            (audit / "full" / task.id / "tokyo_tower.json").read_text()
        )
        assert set(doc["pairs"]) == {
            "social_macro", "social_street", "environment_macro", "environment_street",
        }
        assert doc["prediction"]["variant"] == "full"
        single = json.loads(
            (audit / "single_llm" / task.id / "tokyo_tower.json").read_text()
        )
        assert "pairs" not in single

    def test_similarity_log_has_one_line_per_settled_record(
        self, dataset, task, factor_map, tmp_path
    ):
        outcome = self._outcome(dataset, task, factor_map)
        path = tmp_path / "similarity.jsonl"
        count = write_similarity_log(outcome, path)
        # full variant only: 4 settled records per location.
        assert count == 4 * len(dataset)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all("report" in line and "pair" in line for line in lines)

    def test_guided_map_from_guidance_layer_composes(self, dataset, task):
        backend = MockBackend()
        factor_map = guide([task], backend)[task.id]
        runs = []
        outcome = run_predictions(
            dataset, [task], ("no_reliability",), backend, factor_maps={task.id: factor_map},
            on_job_end=runs.append,
        )
        assert len(outcome.predictions) == len(runs) == len(dataset)
        for run in runs:
            for pe in run.pairs.values():
                assert pe.record.status == "raw"


class TestClampSurfacing:
    def test_clamp_count_reflects_predictions(self, dataset, task):
        backend = MockBackend()
        backend.add_rule(
            lambda r: '"running_amount"' in r.user_prompt,
            json.dumps({"running_amount": 44.0}),
        )
        outcome = run_predictions(dataset, [task], ("single_llm",), backend)
        assert outcome.clamp_count == len(dataset)
        assert all(p.value == 10.0 and p.clamped for p in outcome.predictions)
