import json
import re
import threading

import pytest

from urbanmas import domain, guidance
from urbanmas.backend import CassetteBackend, ChatRequest, MockBackend
from urbanmas.domain import Dimension, Level, PAIRS, TaskSpec, builtin_task, validate_factor_set
from urbanmas.errors import DegenerateReportError, GuidanceError, InvalidFactorSetError
from urbanmas.guidance import (
    GENERIC_FACTORS,
    ResearchReport,
    factor_cache_path,
    generic_factor_map,
    guide,
    load_factor_cache,
    research,
    save_factor_cache,
    summarize,
)


def _factors_json(n: int) -> str:
    return json.dumps(
        {
            "factors": [
                {"name": f"factor {i}", "description": f"Measurable definition {i}."}
                for i in range(n)
            ]
        }
    )


class TestResearch:
    def test_mock_report_names_at_least_six_factors(self, task):
        report = research(task, Dimension.SOCIAL, Level.MACRO, MockBackend())
        assert len(report.body) >= 400
        numbered = re.findall(r"^\s*\d+\.\s", report.body, re.MULTILINE)
        assert len(numbered) >= 6

    def test_empty_responses_exhaust_retries(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: True, " ")
        with pytest.raises(DegenerateReportError, match="social_macro"):
            research(task, Dimension.SOCIAL, Level.MACRO, backend)
        assert backend.call_count == 3  # initial + 2 retries

    def test_short_then_long_succeeds_on_retry(self, task):
        backend = MockBackend()
        long_body = "1. factor: text\n" + "x" * 500
        backend.add_rule(lambda r: r.variant_seed == 0, "too short")
        backend.add_rule(lambda r: r.variant_seed == 1, long_body)
        report = research(task, Dimension.SOCIAL, Level.STREET, backend)
        assert report.body == long_body
        assert backend.call_count == 2

    def test_replay_runs_are_identical(self, task, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorder = CassetteBackend(cassette, MockBackend())
        first = research(task, Dimension.SOCIAL, Level.MACRO, recorder)
        replay = CassetteBackend(cassette)
        second = research(task, Dimension.SOCIAL, Level.MACRO, replay)
        third = research(task, Dimension.SOCIAL, Level.MACRO, replay)
        assert first.body == second.body == third.body

    def test_report_body_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ResearchReport(task_id="t", dimension=Dimension.SOCIAL, level=Level.MACRO, body=" ")


def _report(task) -> ResearchReport:
    return ResearchReport(
        task_id=task.id,
        dimension=Dimension.SOCIAL,
        level=Level.MACRO,
        body="1. population density: residents per square km.\n" + "evidence " * 60,
    )


class TestSummarize:
    def test_mock_fixture_yields_six_described_factors(self, task):
        fs = summarize(_report(task), task, MockBackend())
        assert validate_factor_set(fs) == []
        assert len(fs.factors) == 6
        assert all(f.description for f in fs.factors)

    def test_five_then_six_succeeds_with_one_retry(self, task):
        backend = MockBackend()
        backend.add_rule(
            lambda r: "rejected" not in r.user_prompt, _factors_json(5)
        )
        backend.add_rule(lambda r: "rejected" in r.user_prompt, _factors_json(6))
        fs = summarize(_report(task), task, backend)
        assert len(fs.factors) == 6
        assert backend.call_count == 2

    def test_persistent_five_factors_exhausts_retries(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: True, _factors_json(5))
        with pytest.raises(InvalidFactorSetError, match="count=5"):
            summarize(_report(task), task, backend)
        assert backend.call_count == 3

    def test_retries_through_the_store_are_new_generations(self, task):
        answers = [_factors_json(5), _factors_json(5), _factors_json(6)]
        inner = MockBackend()
        inner.add_rule(lambda r: True, lambda r: answers.pop(0))
        fs = summarize(_report(task), task, CassetteBackend(None, inner))
        assert len(fs.factors) == 6
        assert inner.call_count == 3

    def test_unparseable_output_is_fed_back(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: "rejected" not in r.user_prompt, "not json at all")
        backend.add_rule(lambda r: "rejected" in r.user_prompt, _factors_json(6))
        fs = summarize(_report(task), task, backend)
        assert len(fs.factors) == 6


class TestGuide:
    def test_exactly_four_pairs(self, task):
        factor_map = guide([task], MockBackend())[task.id]
        assert set(factor_map) == set(PAIRS)
        for fs in factor_map.values():
            assert validate_factor_set(fs) == []

    def test_factor_count_follows_the_constant(self, task, monkeypatch):
        monkeypatch.setattr(domain, "FACTORS_PER_SET", 5)
        summaries = []

        def observe(r):  # never matches; records summary prompts on the way through
            if "distill urban research briefs" in r.system_prompt:
                summaries.append(r.user_prompt)
            return False

        backend = MockBackend().add_rule(observe, "unused")
        factor_map = guide([task], backend)[task.id]
        assert set(factor_map) == set(PAIRS)
        assert all(len(fs.factors) == 5 for fs in factor_map.values())
        assert len(summaries) == 4
        assert all("exactly 5 factors" in user for user in summaries)

    def test_research_asks_for_the_constant_count(self, task, monkeypatch):
        monkeypatch.setattr(domain, "FACTORS_PER_SET", 5)
        asked = []

        def observe(r):  # never matches; records research prompts on the way through
            if "urban research analyst" in r.system_prompt:
                asked.append(r.user_prompt)
            return False

        factor_map = guide([task], MockBackend().add_rule(observe, "unused"))[task.id]
        assert all(len(fs.factors) == 5 for fs in factor_map.values())
        assert len(asked) == 4
        assert all("the five most influential predictive factors" in user for user in asked)
        report = research(task, Dimension.SOCIAL, Level.MACRO, MockBackend())
        assert len(re.findall(r"^\s*\d+\.\s", report.body, re.MULTILINE)) == 5

    def test_cache_round_trip_is_identical(self, task, tmp_path):
        first = guide([task], MockBackend(), factor_dir=tmp_path)[task.id]
        assert factor_cache_path(tmp_path, task.id).exists()
        # Second run must not need the backend at all.
        class ExplodingBackend(MockBackend):
            def complete(self, req):  # pragma: no cover - guard
                raise AssertionError("backend used despite cache")

        second = guide([task], ExplodingBackend(), factor_dir=tmp_path)[task.id]
        assert first == second

    def test_replay_guide_is_identical_across_worker_widths(self, task, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorded = guide([task], CassetteBackend(cassette, MockBackend()))[task.id]
        replays = [
            guide([task], CassetteBackend(cassette), workers=w)[task.id] for w in (1, 4, 2)
        ]
        assert all(r == recorded for r in replays)

    def test_chains_of_all_tasks_run_on_one_pool(self):
        class BarrierBackend(MockBackend):
            """Research calls wait until eight are in flight at once, then pass freely."""

            def __init__(self):
                super().__init__()
                self._barrier = threading.Barrier(8, timeout=5)
                self._passed = threading.Event()

            def complete(self, req):
                if "research analyst" in req.system_prompt and not self._passed.is_set():
                    self._barrier.wait()
                    self._passed.set()
                return super().complete(req)

        # One task has four chains; eight at once needs chains of several tasks.
        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        backend = BarrierBackend()
        factor_maps = guide(tasks, backend, workers=2)
        assert list(factor_maps) == [t.id for t in tasks]
        assert backend.call_count == 3 * 4 * 2

    def test_failing_pair_is_named(self, task):
        backend = MockBackend()
        backend.add_rule(
            lambda r: "street level" in r.user_prompt
            and "social dimension" in r.user_prompt,
            " ",
        )
        with pytest.raises(GuidanceError, match="social_street"):
            guide([task], backend)

    def test_cache_for_wrong_task_is_rejected(self, task, tmp_path):
        cache = tmp_path / "factors.json"
        factor_map = guide([task], MockBackend())[task.id]
        save_factor_cache(cache, task, factor_map)
        with pytest.raises(GuidanceError, match="is for task"):
            load_factor_cache(cache, builtin_task("liveliness"))

    def test_cache_for_a_changed_task_spec_is_refused(self, task, tmp_path):
        guide([task], MockBackend(), factor_dir=tmp_path)
        changed = TaskSpec(task.id, task.description + " Count night runs only.", task.output_key)
        with pytest.raises(GuidanceError, match="delete it and run `urbanmas factors"):
            guide([changed], MockBackend(), factor_dir=tmp_path)

    def test_cache_without_a_prompt_hash_is_refused(self, task, tmp_path):
        cache = factor_cache_path(tmp_path, task.id)
        guide([task], MockBackend(), factor_dir=tmp_path)
        doc = json.loads(cache.read_text())
        del doc["prompt_sha256"]
        cache.write_text(json.dumps(doc))
        with pytest.raises(GuidanceError, match="delete it and run `urbanmas factors"):
            load_factor_cache(cache, task)

    @pytest.mark.parametrize(
        "change",
        [
            lambda mp: mp.setitem(guidance._LEVEL_FRAMING, Level.STREET, "the street level"),
            lambda mp: mp.setattr(
                guidance, "_summary_request",
                lambda *a, **k: ChatRequest(system_prompt="s", user_prompt="u"),
            ),
            lambda mp: mp.setattr(domain, "FACTORS_PER_SET", 7),
        ],
        ids=["research-and-summary-prompt", "summary-prompt", "factors-per-set"],
    )
    def test_cache_made_under_other_prompts_is_refused(self, task, tmp_path, monkeypatch, change):
        cache = factor_cache_path(tmp_path, task.id)
        guide([task], MockBackend(), factor_dir=tmp_path)
        load_factor_cache(cache, task)
        change(monkeypatch)
        with pytest.raises(GuidanceError, match="delete it and run `urbanmas factors"):
            load_factor_cache(cache, task)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[:200],
            lambda text: "[]",
            lambda text: json.dumps({**json.loads(text), "pairs": [{"dimension": "social"}]}),
        ],
        ids=["truncated", "not-an-object", "pair-without-level"],
    )
    def test_corrupt_cache_is_a_guidance_error_naming_the_file(self, task, tmp_path, corrupt):
        cache = factor_cache_path(tmp_path, task.id)
        guide([task], MockBackend(), factor_dir=tmp_path)
        cache.write_text(corrupt(cache.read_text()))
        with pytest.raises(GuidanceError, match=re.escape(str(cache))):
            guide([task], MockBackend(), factor_dir=tmp_path)

    def test_interrupted_cache_write_keeps_the_old_cache(self, task, tmp_path, monkeypatch):
        cache = factor_cache_path(tmp_path, task.id)
        factor_map = guide([task], MockBackend(), factor_dir=tmp_path)[task.id]
        before = cache.read_bytes()

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_factor_cache(cache, task, factor_map)
        assert cache.read_bytes() == before

    def test_cache_with_missing_pair_is_rejected(self, task, tmp_path):
        cache = tmp_path / "factors.json"
        factor_map = guide([task], MockBackend())[task.id]
        save_factor_cache(cache, task, factor_map)
        doc = json.loads(cache.read_text())
        doc["pairs"] = doc["pairs"][:3]
        cache.write_text(json.dumps(doc))
        with pytest.raises(GuidanceError, match="missing pairs"):
            load_factor_cache(cache, task)


class TestGenericFactors:
    def test_placeholder_map_covers_all_pairs_and_validates(self, task):
        placeholder = generic_factor_map(task)
        assert set(placeholder) == set(PAIRS)
        assert len(GENERIC_FACTORS) == domain.FACTORS_PER_SET
        for fs in placeholder.values():
            assert validate_factor_set(fs) == []
            assert fs.factors == GENERIC_FACTORS
