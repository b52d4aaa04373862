import json
import re
import threading

import pytest

from urbanmas import domain, guidance
from urbanmas.backend import CassetteBackend, ChatRequest, MockBackend, deterministic_responder
from urbanmas.domain import Dimension, Level, PAIRS, Pair, TaskSpec, builtin_task, validate_factor_set
from urbanmas.errors import DegenerateReportError, GuidanceError, InvalidFactorSetError
from urbanmas.guidance import (
    GENERIC_FACTORS,
    NO_FACTORS_MAP,
    factor_cache_path,
    guide,
    load_factor_cache,
    research,
    save_factor_cache,
    summarize,
)

from conftest import DEEP_JSON, ContextProbeBackend, CtrlC, held_backend


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
        brief = research(task, Pair(Dimension.SOCIAL, Level.MACRO), MockBackend())
        assert len(brief) >= 400
        numbered = re.findall(r"^\s*\d+\.\s", brief, re.MULTILINE)
        assert len(numbered) >= 6

    def test_empty_responses_exhaust_retries(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: True, " ")
        with pytest.raises(DegenerateReportError, match="social_macro"):
            research(task, Pair(Dimension.SOCIAL, Level.MACRO), backend)
        assert backend.call_count == 3  # initial + 2 retries

    def test_short_then_long_succeeds_on_retry(self, task):
        backend = MockBackend()
        long_body = "1. factor: text\n" + "x" * 500
        backend.add_rule(lambda r: r.variant_seed == 0, "too short")
        backend.add_rule(lambda r: r.variant_seed == 1, long_body)
        brief = research(task, Pair(Dimension.SOCIAL, Level.STREET), backend)
        assert brief == long_body
        assert backend.call_count == 2

    def test_replay_runs_are_identical(self, task, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorder = CassetteBackend(cassette, MockBackend())
        first = research(task, Pair(Dimension.SOCIAL, Level.MACRO), recorder)
        replay = CassetteBackend(cassette)
        second = research(task, Pair(Dimension.SOCIAL, Level.MACRO), replay)
        third = research(task, Pair(Dimension.SOCIAL, Level.MACRO), replay)
        assert first == second == third


def _summarize(task, backend):
    brief = "1. population density: residents per square km.\n" + "evidence " * 60
    return summarize(task, Pair(Dimension.SOCIAL, Level.MACRO), brief, backend)


class TestSummarize:
    def test_mock_fixture_yields_six_described_factors(self, task):
        fs = _summarize(task, MockBackend())
        assert validate_factor_set(fs) == []
        assert len(fs.factors) == 6
        assert all(f.description for f in fs.factors)

    def test_five_then_six_succeeds_with_one_retry(self, task):
        backend = MockBackend()
        backend.add_rule(
            lambda r: "rejected" not in r.user_prompt, _factors_json(5)
        )
        backend.add_rule(lambda r: "rejected" in r.user_prompt, _factors_json(6))
        fs = _summarize(task, backend)
        assert len(fs.factors) == 6
        assert backend.call_count == 2

    def test_persistent_five_factors_exhausts_retries(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: True, _factors_json(5))
        with pytest.raises(InvalidFactorSetError, match="count=5"):
            _summarize(task, backend)
        assert backend.call_count == 3

    def test_retries_through_the_store_are_new_generations(self, task):
        answers = [_factors_json(5), _factors_json(5), _factors_json(6)]
        inner = MockBackend()
        inner.add_rule(lambda r: True, lambda r: answers.pop(0))
        fs = _summarize(task, CassetteBackend(None, inner))
        assert len(fs.factors) == 6
        assert inner.call_count == 3

    def test_unparseable_output_is_fed_back(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: "rejected" not in r.user_prompt, "not json at all")
        backend.add_rule(lambda r: "rejected" in r.user_prompt, _factors_json(6))
        fs = _summarize(task, backend)
        assert len(fs.factors) == 6

    @pytest.mark.parametrize(
        "answer, problem",
        [
            (json.dumps({"factors": "six factors"}), '"factors" is not a list'),
            (_factors_json(6).replace("factor 0", "factor\\n0"), "factor name contains a line break"),
        ],
        ids=["not-a-list", "name-with-line-break"],
    )
    def test_factors_that_are_not_a_list_are_fed_back(self, task, answer, problem):
        backend = MockBackend()
        backend.add_rule(lambda r: problem in r.user_prompt, _factors_json(6))
        backend.add_rule(lambda r: True, answer)
        fs = _summarize(task, backend)
        assert len(fs.factors) == 6
        assert backend.call_count == 2


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
        brief = research(task, Pair(Dimension.SOCIAL, Level.MACRO), MockBackend())
        assert len(re.findall(r"^\s*\d+\.\s", brief, re.MULTILINE)) == 5

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

    def test_an_interrupt_starts_no_queued_call(self, sigint_raises):
        workers = 1
        ctrl_c = CtrlC(slots=len(PAIRS) * workers)

        class HeldBackend(MockBackend):
            def complete(self, req):
                ctrl_c.call()
                return super().complete(req)

        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        with pytest.raises(KeyboardInterrupt):
            guide(tasks, HeldBackend(), workers=workers)
        assert ctrl_c.started == ctrl_c.slots  # of 24 calls

    @pytest.mark.parametrize("kind", ["mock", "store"])
    def test_an_interrupt_begins_no_retry(self, kind, sigint_raises):
        workers = 1
        ctrl_c = CtrlC(slots=len(PAIRS) * workers)

        def degenerate_first_research(req):
            if "research analyst" in req.system_prompt and req.variant_seed == 0:
                return "too short"
            return deterministic_responder(req)

        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        with pytest.raises(KeyboardInterrupt):
            guide(tasks, held_backend(kind, ctrl_c, degenerate_first_research), workers=workers)
        assert ctrl_c.started == ctrl_c.slots  # the researches held at the SIGINT

    def test_each_research_and_summary_sees_the_openers_context(self, task, opener_value):
        backend = ContextProbeBackend()
        guide([task], backend, workers=1)
        # A summary is queued from the thread of its research, not the opener's.
        kinds = {
            ("research" if "research analyst" in system else "summary", value)
            for system, value in backend.seen
        }
        assert kinds == {("research", opener_value), ("summary", opener_value)}

    def test_a_summary_takes_the_first_free_call_slot(self, monkeypatch):
        workers = 2
        slots = len(PAIRS) * workers

        class LockstepBackend(MockBackend):
            """Holds each call, and releases the held calls together in rounds.

            A round is released once no thread can do anything but wait for
            it: the thread that opened the pool waits for a result, and every
            call slot holds a call, or every pool task not yet ended does.
            """

            def __init__(self):
                super().__init__()
                self.cond = threading.Condition()
                self.held = 0
                self.unended = 0
                self.opener_waits = False
                self.rounds = 0

            def _release_if_settled(self):
                if self.opener_waits and self.held and self.held in (slots, self.unended):
                    self.rounds += 1
                    self.held = 0
                    self.cond.notify_all()

            def update(self, unended=0, opener_waits=False):
                with self.cond:
                    self.unended += unended
                    self.opener_waits |= opener_waits
                    self._release_if_settled()

            def complete(self, req):
                with self.cond:
                    round_ = self.rounds
                    self.held += 1
                    self._release_if_settled()
                    assert self.cond.wait_for(lambda: self.rounds != round_, timeout=10)
                return super().complete(req)

        backend = LockstepBackend()

        class CountingPool(domain.ThreadPoolExecutor):
            """Tells the backend when a task is submitted and when it ends,
            and when the thread that opened the pool first waits for a result."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.opener = threading.get_ident()

            def submit(self, fn, *args):
                def run():
                    try:
                        return fn(*args)
                    finally:
                        backend.update(unended=-1)

                backend.update(unended=1)
                future = super().submit(run)
                if threading.get_ident() == self.opener:
                    wait = future.result

                    def result(timeout=None):
                        backend.update(opener_waits=True)
                        return wait(timeout)

                    future.result = result
                return future

        tasks = [builtin_task(t) for t in ("running_amount", "boringness", "liveliness")]
        expected = guide(tasks, MockBackend())
        monkeypatch.setattr(domain, "ThreadPoolExecutor", CountingPool)
        assert guide(tasks, backend, workers=workers) == expected
        assert backend.call_count == 3 * 4 * 2
        # 12 researches and 12 summaries fill 8 slots in 3 rounds. A summary
        # bound to its research's thread needs 4: the last 4 chains run alone.
        assert backend.rounds == 3

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
            lambda text: DEEP_JSON,
        ],
        ids=["truncated", "not-an-object", "pair-without-level", "nested-too-deep"],
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

    def test_cache_writes_dimension_and_level_and_loads_pairs(self, task, tmp_path):
        cache = tmp_path / "factors.json"
        factor_map = guide([task], MockBackend())[task.id]
        save_factor_cache(cache, task, factor_map)
        entries = json.loads(cache.read_text())["pairs"]
        assert [(e["dimension"], e["level"]) for e in entries] == [
            (pair.dimension.value, pair.level.value) for pair in PAIRS
        ]
        loaded = load_factor_cache(cache, task)
        assert loaded == factor_map
        assert list(loaded) == list(PAIRS)
        assert all(type(pair) is Pair and fs.pair is pair for pair, fs in loaded.items())

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
    def test_placeholder_map_covers_all_pairs_and_validates(self):
        placeholder = NO_FACTORS_MAP
        assert set(placeholder) == set(PAIRS)
        assert len(GENERIC_FACTORS) == domain.FACTORS_PER_SET
        for fs in placeholder.values():
            assert validate_factor_set(fs) == []
            assert fs.factors == GENERIC_FACTORS
