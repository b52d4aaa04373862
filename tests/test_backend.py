import json
import sys
import threading
import time

import pytest

from urbanmas.backend import (
    CassetteBackend,
    ChatBackend,
    ChatRequest,
    ChatResponse,
    LiveBackend,
    LiveConfig,
    MockBackend,
    RateLimiter,
    deterministic_responder,
    fingerprint,
)
from urbanmas.domain import PAIRS
from urbanmas.errors import (
    AuthenticationError,
    CassetteFormatError,
    ReplayMissError,
    TransportExhaustedError,
)
from urbanmas.pipeline import run_predictions

from conftest import DEEP_JSON, LONG_INT_JSON, make_factor_set


def req(**kwargs) -> ChatRequest:
    defaults = dict(system_prompt="sys", user_prompt="user")
    defaults.update(kwargs)
    return ChatRequest(**defaults)


class TestChatRequest:
    def test_prompts_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ChatRequest(system_prompt="", user_prompt="u")
        with pytest.raises(ValueError):
            ChatRequest(system_prompt="s", user_prompt="")

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            req(variant_seed=-1)

    def test_response_format_is_checked(self):
        with pytest.raises(ValueError):
            req(response_format="yaml")


class TestFingerprint:
    def test_identical_requests_collide(self):
        assert fingerprint(req()) == fingerprint(req())

    def test_variant_seed_changes_hash(self):
        assert fingerprint(req(variant_seed=0)) != fingerprint(req(variant_seed=1))

    def test_any_field_change_changes_hash(self):
        base = fingerprint(req())
        assert fingerprint(req(user_prompt="other")) != base
        assert fingerprint(req(system_prompt="other")) != base
        assert fingerprint(req(response_format="structured_object")) != base
        assert fingerprint(req(image_refs=("a.jpg",))) != base

    def test_image_order_is_canonicalized(self):
        assert fingerprint(req(image_refs=("a.jpg", "b.jpg"))) == fingerprint(
            req(image_refs=("b.jpg", "a.jpg"))
        )


class TestMockBackend:
    def test_same_request_twice_is_byte_identical(self):
        backend = MockBackend()
        request = req(user_prompt="describe the area")
        assert backend.complete(request).text == backend.complete(request).text

    def test_variant_seeds_map_to_distinct_fixture_slots(self):
        backend = MockBackend()
        backend.add_rule(lambda r: r.variant_seed == 0, "slot zero")
        backend.add_rule(lambda r: r.variant_seed == 1, "slot one")
        assert backend.complete(req(variant_seed=0)).text == "slot zero"
        assert backend.complete(req(variant_seed=1)).text == "slot one"

    def test_rules_are_consulted_in_order(self):
        backend = MockBackend()
        backend.add_rule(lambda r: True, "first")
        backend.add_rule(lambda r: True, "second")
        assert backend.complete(req()).text == "first"

    def test_output_is_independent_of_call_order(self):
        requests = [req(user_prompt=f"prompt {i}", variant_seed=i % 3) for i in range(10)]
        forward = [MockBackend().complete(r).text for r in requests]
        backward = [MockBackend().complete(r).text for r in reversed(requests)]
        assert forward == list(reversed(backward))


class TestCassette:
    def test_record_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        inner = MockBackend()
        recorder = CassetteBackend(path, inner)
        request = req(user_prompt="what is here?")
        recorded = recorder.complete(request)

        replay = CassetteBackend(path)
        replayed = replay.complete(request)
        assert replayed.text == recorded.text

    def test_replay_miss_is_an_error(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        CassetteBackend(path, MockBackend()).complete(req())
        replay = CassetteBackend(path)
        with pytest.raises(ReplayMissError, match="fingerprint"):
            replay.complete(req(user_prompt="never recorded"))

    def test_replay_after_cassette_deletion_misses(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        CassetteBackend(path, MockBackend()).complete(req())
        path.unlink()
        replay = CassetteBackend(path)
        with pytest.raises(ReplayMissError):
            replay.complete(req())

    def test_duplicate_fingerprint_last_write_wins(self, tmp_path, caplog):
        path = tmp_path / "cassette.jsonl"
        fp = fingerprint(req())
        path.write_text(
            "".join(
                json.dumps({"fingerprint": fp, "response": {"text": text}}) + "\n"
                for text in ("first", "second")
            )
        )
        with caplog.at_level("WARNING"):
            replay = CassetteBackend(path)
        assert replay.complete(req()).text == "second"
        assert any("last write wins" in r.message for r in caplog.records)

    def test_bad_cassette_line_is_reported_with_position(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CassetteFormatError, match="cassette.jsonl:1"):
            CassetteBackend(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"fingerprint": "abc", "response": {}}',
            '{"fingerprint": "abc", "response": {"text": 5}}',
            '{"fingerprint": "abc", "response": {"text": null}}',
            '{"fingerprint": ["abc"], "response": {"text": "t"}}',
            '{"fingerprint": "abc", "response": "text"}',
            "[1, 2]",
            pytest.param(DEEP_JSON, id="nested-too-deep"),
        ],
    )
    def test_malformed_entry_is_a_labelled_error(self, tmp_path, line):
        path = tmp_path / "cassette.jsonl"
        path.write_text(json.dumps({"fingerprint": "ok", "response": {"text": "t"}}) + "\n" + line + "\n")
        with pytest.raises(CassetteFormatError, match="cassette.jsonl:2: bad cassette line"):
            CassetteBackend(path, MockBackend())

    def test_a_line_with_the_old_latency_and_backend_keys_still_replays(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        line = {
            "fingerprint": fingerprint(req()),
            "response": {"text": "recorded", "latency_ms": 812.5, "backend_id": "live"},
        }
        path.write_text(json.dumps(line) + "\n")
        assert CassetteBackend(path).complete(req()).text == "recorded"
        assert CassetteBackend(path, MockBackend()).complete(req()).text == "recorded"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        line = json.dumps({"fingerprint": fingerprint(req()), "response": {"text": "recorded"}})
        path.write_text("\n" + line + "\n\n")
        assert CassetteBackend(path).complete(req()).text == "recorded"

    def test_recordings_through_a_slow_and_a_fast_endpoint_are_byte_identical(self, tmp_path):
        requests = [req(user_prompt=f"p{i}", variant_seed=i % 2) for i in range(4)]
        recordings = []
        for delay_s in (0.0, 0.005):

            def transport(url, headers, payload, delay_s=delay_s):
                time.sleep(delay_s)
                return 200, _ok_body(f"answer to {payload['messages'][1]['content']}")

            path = tmp_path / f"delay_{delay_s}.jsonl"
            recorder = CassetteBackend(path, live(transport))
            for request in requests:
                recorder.complete(request)
            recorder.close()
            recordings.append(path.read_bytes())
        assert recordings[0] == recordings[1]

    def test_concurrent_replay_is_schedule_independent(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        recorder = CassetteBackend(path, MockBackend())
        requests = [req(user_prompt=f"p{i}") for i in range(20)]
        expected = [recorder.complete(r).text for r in requests]

        replay = CassetteBackend(path)
        results: dict[int, str] = {}

        def worker(i: int) -> None:
            results[i] = replay.complete(requests[i]).text

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [results[i] for i in range(20)] == expected


class SamplingBackend(ChatBackend):
    """The stock mock's answers, drawn afresh on every call like a sampling model.

    Every string value (or the whole text, when it is not a JSON object)
    carries the draw number, and numeric values become ``draw % 11``, so no
    two calls give the same answer.
    """

    def __init__(self, delay_s: float = 0.0):
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self.call_count = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
            draw = self.call_count
        time.sleep(self._delay_s)
        text = deterministic_responder(request)
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if not isinstance(data, dict):
            return ChatResponse(text=f"{text} (draw {draw})")
        for key, value in data.items():
            if isinstance(value, str):
                data[key] = f"{value} (draw {draw})"
            elif isinstance(value, (int, float)):
                data[key] = float(draw % 11)
        return ChatResponse(text=json.dumps(data))


class TestReadThroughCassette:
    VARIANTS = ("full", "no_reliability")

    @pytest.fixture
    def factor_maps(self, task):
        return {task.id: {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}}

    def test_replay_reproduces_a_sampled_recording(self, dataset, task, factor_maps, tmp_path):
        # full and no_reliability send the same seed-0 extraction request; a
        # sampling model answers it differently each time it is asked.
        path = tmp_path / "cassette.jsonl"
        recorder = CassetteBackend(path, SamplingBackend())
        recorded = run_predictions(dataset, [task], self.VARIANTS, recorder, factor_maps=factor_maps)
        replayed = run_predictions(
            dataset, [task], self.VARIANTS, CassetteBackend(path), factor_maps=factor_maps
        )
        assert not recorded.failures and not replayed.failures
        assert replayed.predictions == recorded.predictions
        fingerprints = [json.loads(line)["fingerprint"] for line in path.read_text().splitlines()]
        assert len(fingerprints) == len(set(fingerprints))

    def test_rerecording_an_existing_cassette_calls_nothing(self, dataset, task, factor_maps, tmp_path):
        path = tmp_path / "cassette.jsonl"
        first = run_predictions(
            dataset, [task], self.VARIANTS, CassetteBackend(path, SamplingBackend()),
            factor_maps=factor_maps,
        )
        recorded = path.read_bytes()
        inner = SamplingBackend()
        second = run_predictions(
            dataset, [task], self.VARIANTS, CassetteBackend(path, inner), factor_maps=factor_maps
        )
        assert inner.call_count == 0
        assert path.read_bytes() == recorded
        assert second.predictions == first.predictions

    def test_concurrent_identical_requests_reach_the_inner_backend_once(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        inner = SamplingBackend(delay_s=0.05)
        backend = CassetteBackend(path, inner)
        start = threading.Barrier(16, timeout=10)
        texts: list[str] = []

        def worker() -> None:
            start.wait()
            texts.append(backend.complete(req()).text)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inner.call_count == 1
        assert len(texts) == 16 and len(set(texts)) == 1
        assert len(path.read_text().splitlines()) == 1

    def test_failed_inner_call_stores_nothing(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        calls = []

        class Flaky(ChatBackend):
            def complete(self, request):
                calls.append(request)
                if len(calls) == 1:
                    raise TransportExhaustedError("endpoint down")
                return ChatResponse(text="answer")

        recorder = CassetteBackend(path, Flaky())
        with pytest.raises(TransportExhaustedError):
            recorder.complete(req())
        assert not path.exists()
        assert recorder.complete(req()).text == "answer"
        assert recorder.complete(req()).text == "answer"
        assert len(calls) == 2
        assert CassetteBackend(path).complete(req()).text == "answer"

    def test_a_store_without_a_file_asks_once_per_fingerprint(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        inner = SamplingBackend()
        store = CassetteBackend(None, inner)
        first = [store.complete(req(user_prompt=p)).text for p in ("a", "b", "a", "b")]
        store.close()
        assert first[:2] == first[2:]
        assert inner.call_count == 2
        assert list(tmp_path.iterdir()) == []

    def test_close_rewrites_an_appended_cassette_in_fingerprint_order(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        prompts = ("c", "a", "b", "d")
        recorder = CassetteBackend(path, SamplingBackend())
        texts = [recorder.complete(req(user_prompt=p)).text for p in prompts]
        # A duplicate fingerprint: loading and the rewrite both keep the last line.
        newer = {"fingerprint": fingerprint(req(user_prompt="a")), "response": {"text": "newer"}}
        with open(path, "a") as fh:
            fh.write(json.dumps(newer) + "\n")
        recorder.close()
        lines = path.read_text().splitlines()
        fps = [json.loads(line)["fingerprint"] for line in lines]
        assert fps == sorted(fps) and len(set(fps)) == 4
        replay = CassetteBackend(path)
        texts[1] = "newer"
        assert [replay.complete(req(user_prompt=p)).text for p in prompts] == texts

    @pytest.mark.parametrize("inner", [None, MockBackend()], ids=["replay", "record-hits-only"])
    def test_close_without_appends_writes_nothing(self, tmp_path, inner):
        path = tmp_path / "cassette.jsonl"
        for prompt in ("z", "a", "m"):
            CassetteBackend(path, MockBackend()).complete(req(user_prompt=prompt))
        recorded = path.read_bytes()
        before = path.stat().st_mtime_ns
        backend = CassetteBackend(path, inner)
        backend.complete(req(user_prompt="a"))
        backend.close()
        assert path.read_bytes() == recorded
        assert path.stat().st_mtime_ns == before


class TestTornCassette:
    """A ``record`` run killed mid-append leaves an unterminated last line."""

    PROMPTS = ("first", "second", "third")

    def _record(self, path):
        recorder = CassetteBackend(path, MockBackend())
        return [recorder.complete(req(user_prompt=p)).text for p in self.PROMPTS]

    def test_record_resumes_after_a_torn_last_line(self, tmp_path, caplog):
        path = tmp_path / "cassette.jsonl"
        texts = self._record(path)
        data = path.read_bytes()
        path.write_bytes(data[:-30])

        inner = MockBackend()
        with caplog.at_level("WARNING"):
            resumed = CassetteBackend(path, inner)
        assert f"{path}:3" in caplog.text
        assert [resumed.complete(req(user_prompt=p)).text for p in self.PROMPTS] == texts
        assert inner.call_count == 1
        assert path.read_bytes() == data

        caplog.clear()
        with caplog.at_level("WARNING"):
            replay = CassetteBackend(path)
        assert not caplog.records
        assert [replay.complete(req(user_prompt=p)).text for p in self.PROMPTS] == texts

    @pytest.mark.parametrize("cut", [30, 1], ids=["torn-line", "lost-newline"])
    def test_record_mends_the_cassette_when_it_opens_it(self, tmp_path, cut):
        path = tmp_path / "cassette.jsonl"
        self._record(path)
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        CassetteBackend(path, MockBackend())
        whole = data.splitlines(keepends=True)
        assert path.read_bytes() == b"".join(whole if cut == 1 else whole[:-1])

    def test_record_removes_the_temp_files_of_a_killed_rewrite(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        self._record(path)
        data = path.read_bytes()
        (tmp_path / "cassette.jsonl.99999.1.tmp").write_bytes(data[:10])
        (tmp_path / "other.jsonl.99999.1.tmp").write_text("kept")
        (tmp_path / "notes.tmp").write_text("kept")
        CassetteBackend(path)
        assert (tmp_path / "cassette.jsonl.99999.1.tmp").exists()
        CassetteBackend(path, MockBackend())
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cassette.jsonl", "notes.tmp", "other.jsonl.99999.1.tmp",
        ]
        assert path.read_bytes() == data

    def test_record_creates_the_cassette_directory(self, tmp_path):
        path = tmp_path / "new" / "cassette.jsonl"
        CassetteBackend(path)
        assert not path.parent.exists()
        CassetteBackend(path, MockBackend())
        assert path.parent.is_dir() and not path.exists()

    def test_replay_of_a_torn_line_is_a_miss(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        texts = self._record(path)
        torn = path.read_bytes()[:-30]
        path.write_bytes(torn)
        replay = CassetteBackend(path)
        assert replay.complete(req(user_prompt="first")).text == texts[0]
        with pytest.raises(ReplayMissError):
            replay.complete(req(user_prompt="third"))
        assert path.read_bytes() == torn

    def test_record_terminates_a_last_line_that_lost_only_its_newline(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        texts = self._record(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        inner = MockBackend()
        resumed = CassetteBackend(path, inner)
        resumed.complete(req(user_prompt="fourth"))
        assert inner.call_count == 1
        replay = CassetteBackend(path)
        assert [replay.complete(req(user_prompt=p)).text for p in self.PROMPTS] == texts
        assert len(path.read_text().splitlines()) == 4


class TestRateLimiter:
    def test_respects_requests_per_minute_budget(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock["now"] += seconds

        limiter = RateLimiter(60, clock=lambda: clock["now"], sleep=fake_sleep)
        # Burst capacity is one second's budget, at least one call; the next waits.
        limiter.acquire()
        assert not sleeps
        limiter.acquire()
        assert sleeps == [pytest.approx(1.0)]
        fast = RateLimiter(600, clock=lambda: clock["now"], sleep=fake_sleep)
        for _ in range(10):
            fast.acquire()
        assert len(sleeps) == 1
        fast.acquire()
        assert sleeps[1] == pytest.approx(0.1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0)


def _ok_body(text: str = "hello") -> str:
    return json.dumps({"choices": [{"message": {"content": text}}]})


def live(transport, **cfg_overrides) -> LiveBackend:
    # This budget keeps the token bucket from waiting.
    cfg = LiveConfig(api_base="https://api.test/v1", api_key="k", model="m", requests_per_minute=60000)
    for key, value in cfg_overrides.items():
        setattr(cfg, key, value)
    return LiveBackend(cfg, transport=transport, sleep=lambda s: None)


class TestLiveBackend:
    def test_success_parses_openai_shape(self):
        seen = {}

        def transport(url, headers, payload):
            seen.update(url=url, payload=payload, headers=dict(headers))
            return 200, _ok_body("fine")

        backend = live(transport)
        resp = backend.complete(req(response_format="structured_object", variant_seed=3))
        assert resp.text == "fine"
        assert seen["url"].endswith("/chat/completions")
        assert seen["payload"]["seed"] == 3
        assert seen["payload"]["response_format"] == {"type": "json_object"}
        assert seen["headers"]["Authorization"] == "Bearer k"

    def test_transient_failures_are_retried_with_backoff(self):
        calls = []
        sleeps = []

        def transport(url, headers, payload):
            calls.append(1)
            if len(calls) < 3:
                return 503, "upstream sad"
            return 200, _ok_body()

        cfg = LiveConfig(api_base="https://api.test/v1", api_key="k", model="m", requests_per_minute=60000)
        backend = LiveBackend(cfg, transport=transport, sleep=sleeps.append)
        assert backend.complete(req()).text == "hello"
        assert len(calls) == 3
        assert sleeps == [0.5, 1.0]

    def test_token_bucket_waits_on_the_injected_sleep(self):
        sleeps = []
        cfg = LiveConfig(api_base="https://api.test/v1", api_key="k", model="m", requests_per_minute=60)
        backend = LiveBackend(cfg, transport=lambda *_: (200, _ok_body()), sleep=sleeps.append)
        started = time.monotonic()
        backend.complete(req())
        backend.complete(req())
        assert sleeps == [pytest.approx(1.0, abs=0.01)]
        assert time.monotonic() - started < 0.5

    def test_exhaustion_after_three_attempts(self):
        def transport(url, headers, payload):
            raise ConnectionError("nope")

        backend = live(transport)
        with pytest.raises(TransportExhaustedError, match=r"3 attempt\(s\)"):
            backend.complete(req())

    def test_malformed_bodies_are_retried(self):
        bodies = ["not json", json.dumps({"choices": []}), _ok_body("third time")]
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            return 200, bodies[len(calls) - 1]

        assert live(transport).complete(req()).text == "third time"
        assert len(calls) == 3

    def test_body_nested_past_the_recursion_limit_is_retried(self):
        bodies = [DEEP_JSON, LONG_INT_JSON, _ok_body("third time")]
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            return 200, bodies[len(calls) - 1]

        assert live(transport).complete(req()).text == "third time"
        assert len(calls) == 3

    def test_always_malformed_body_exhausts_the_retries(self):
        backend = live(lambda *_: (200, json.dumps({"choices": [{}]})))
        with pytest.raises(
            TransportExhaustedError, match=r"gave up after 3 attempt\(s\): malformed completion body"
        ):
            backend.complete(req())

    def test_hard_http_error_does_not_burn_retries(self):
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            return 400, "bad request"

        backend = live(transport)
        with pytest.raises(TransportExhaustedError, match=r"1 attempt\(s\).*HTTP 400"):
            backend.complete(req())
        assert len(calls) == 1

    def test_every_attempt_passes_through_the_rate_limiter(self):
        acquires = []

        class CountingLimiter:
            def acquire(self):
                acquires.append(1)

        def transport(url, headers, payload):
            return 503, "flaky"

        cfg = LiveConfig(api_base="https://api.test/v1", api_key="k", model="m")
        backend = LiveBackend(
            cfg, transport=transport, sleep=lambda s: None, rate_limiter=CountingLimiter()
        )
        with pytest.raises(TransportExhaustedError):
            backend.complete(req())
        assert len(acquires) == 3

    def test_auth_failure_is_immediate(self):
        calls = []

        def transport(url, headers, payload):
            calls.append(1)
            return 401, "no"

        backend = live(transport)
        with pytest.raises(AuthenticationError):
            backend.complete(req())
        assert len(calls) == 1

    def test_missing_credentials_fail_before_any_call(self):
        def transport(url, headers, payload):  # pragma: no cover - must not run
            raise AssertionError("network touched")

        for cfg, missing in (
            (LiveConfig(api_base="https://api.test/v1", api_key=""), "URBANMAS_API_KEY"),
            (LiveConfig(api_base="", api_key="k"), "URBANMAS_API_BASE"),
        ):
            with pytest.raises(AuthenticationError, match=f"{missing} is not set"):
                LiveBackend(cfg, transport=transport)

    @pytest.mark.parametrize(
        "settings, sent",
        [({}, {}), ({"temperature": 0.0, "top_p": 0.9}, {"temperature": 0.0, "top_p": 0.9})],
        ids=["unset", "set"],
    )
    def test_sampling_settings_are_sent_only_when_set(self, settings, sent):
        payloads = []

        def transport(url, headers, payload):
            payloads.append(payload)
            return 200, _ok_body()

        live(transport, **settings).complete(req())
        assert {k: payloads[0][k] for k in ("temperature", "top_p") if k in payloads[0]} == sent

    @pytest.mark.parametrize("name, mime", [("view.png", "image/png"), ("view.jpg", "image/jpeg")])
    def test_local_image_ref_is_sent_inline(self, tmp_path, name, mime):
        image = tmp_path / name
        image.write_bytes(b"\x89pixels")
        payloads = []

        def transport(url, headers, payload):
            payloads.append(payload)
            return 200, _ok_body()

        live(transport).complete(req(image_refs=(str(image),)))
        content = payloads[0]["messages"][1]["content"]
        assert content == [
            {"type": "text", "text": "user"},
            {"type": "image_url", "image_url": {"url": f"data:{mime};base64,iXBpeGVscw=="}},
        ]

    def test_unusable_image_ref_is_dropped_with_a_warning(self, tmp_path, caplog):
        payloads = []

        def transport(url, headers, payload):
            payloads.append(payload)
            return 200, _ok_body()

        missing = str(tmp_path / "missing.png")
        with caplog.at_level("WARNING"):
            live(transport).complete(req(image_refs=(missing,)))
        assert payloads[0]["messages"][1]["content"] == [{"type": "text", "text": "user"}]
        assert "dropping unusable image ref" in caplog.text and missing in caplog.text

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("URBANMAS_API_BASE", "https://env.test/v1")
        monkeypatch.setenv("URBANMAS_API_KEY", "envkey")
        monkeypatch.setenv("URBANMAS_MODEL", "envmodel")
        cfg = LiveConfig.from_env()
        assert (cfg.api_base, cfg.api_key, cfg.model) == (
            "https://env.test/v1", "envkey", "envmodel",
        )
