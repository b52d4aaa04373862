import json

import pytest

from urbanmas.backend import CassetteBackend, MockBackend
from urbanmas.domain import Dimension, Level, LocationSample, PAIRS
from urbanmas.errors import MissingRecordsError, SchemaFailureError
from urbanmas.inference import build_inference_prompt, infer, infer_single_llm

from conftest import FACTOR_NAMES, make_record


def _records(status: str = "stable"):
    return [
        make_record(
            {name: f"moderate {name}" for name in FACTOR_NAMES},
            dimension=d,
            level=r,
            status="raw",
        ).settle(status)
        if status != "raw"
        else make_record(
            {name: f"moderate {name}" for name in FACTOR_NAMES}, dimension=d, level=r
        )
        for d, r in PAIRS
    ]


def _answer_backend(payload: object) -> MockBackend:
    backend = MockBackend()
    backend.add_rule(lambda r: True, json.dumps(payload))
    return backend


class TestInfer:
    def test_value_passes_through(self, task):
        pred = infer(task, _records(), _answer_backend({"running_amount": 4.2}))
        assert pred.value == 4.2
        assert pred.variant == "full"
        assert pred.clamped is False

    def test_out_of_range_value_is_clamped_with_flag(self, task, caplog):
        with caplog.at_level("WARNING"):
            pred = infer(task, _records(), _answer_backend({"running_amount": 12.5}))
        assert pred.value == 10.0
        assert pred.clamped is True
        assert any("clamping" in r.message for r in caplog.records)

    def test_prose_then_valid_object_succeeds_on_retry(self, task):
        backend = MockBackend()
        backend.add_rule(
            lambda r: "invalid" in r.user_prompt, json.dumps({"running_amount": 3.3})
        )
        backend.add_rule(lambda r: True, "I think the answer is about four")
        pred = infer(task, _records(), backend)
        assert pred.value == 3.3
        assert backend.call_count == 2

    def test_persistent_prose_exhausts_retries(self, task):
        backend = MockBackend()
        backend.add_rule(lambda r: True, "no structure here")
        with pytest.raises(SchemaFailureError, match="running_amount"):
            infer(task, _records(), backend)
        assert backend.call_count == 4  # initial + 3 retries

    def test_retries_through_the_store_are_new_generations(self, task):
        answers = ["no structure here", "no structure here", json.dumps({"running_amount": 3.3})]
        inner = MockBackend()
        inner.add_rule(lambda r: True, lambda r: answers.pop(0))
        pred = infer(task, _records(), CassetteBackend(None, inner))
        assert pred.value == 3.3
        assert inner.call_count == 3

    def test_three_records_are_rejected(self, task):
        with pytest.raises(MissingRecordsError, match="missing"):
            infer(task, _records()[:3], _answer_backend({"running_amount": 1.0}))

    def test_duplicate_pairs_are_rejected(self, task):
        records = _records()
        records[1] = records[0]
        with pytest.raises(MissingRecordsError, match="duplicate"):
            infer(task, records, _answer_backend({"running_amount": 1.0}))

    def test_extra_keys_are_ignored(self, task):
        payload = {"running_amount": 6.0, "confidence": "high", "extra": [1, 2]}
        pred = infer(task, _records(), _answer_backend(payload))
        assert pred.value == 6.0

    def test_numeric_string_is_accepted_bool_is_not(self, task):
        pred = infer(task, _records(), _answer_backend({"running_amount": "7.5"}))
        assert pred.value == 7.5
        backend = _answer_backend({"running_amount": True})
        with pytest.raises(SchemaFailureError):
            infer(task, _records(), backend)

    @pytest.mark.parametrize(
        "payload, problem",
        [
            ({"running_amount": "NaN"}, "non-finite number: nan"),
            ({"running_amount": "inf"}, "non-finite number: inf"),
            ({"running_amount": "high"}, "not numeric: 'high'"),
            ({"running_amount": [4.0]}, "not numeric: [4.0]"),
            ({"rationale": "no value given"}, 'key "running_amount" missing'),
        ],
        ids=["nan", "inf", "word", "list", "no-output-key"],
    )
    def test_unusable_answer_is_retried_naming_its_problem(self, task, payload, problem):
        backend = MockBackend()
        backend.add_rule(
            lambda r: f"invalid: {problem}." in r.user_prompt, json.dumps({"running_amount": 3.3})
        )
        backend.add_rule(lambda r: True, json.dumps(payload))
        pred = infer(task, _records(), backend)
        assert pred.value == 3.3
        assert backend.call_count == 2

    def test_rationale_is_stored_but_optional(self, task):
        pred = infer(
            task, _records(), _answer_backend({"running_amount": 2.0, "rationale": "flat park"})
        )
        assert pred.rationale == "flat park"

    def test_raw_records_are_acceptable_input(self, task):
        # The no_reliability ablation passes raw records straight through.
        pred = infer(task, _records(status="raw"), _answer_backend({"running_amount": 5.0}))
        assert pred.value == 5.0


class TestPromptRendering:
    def test_sections_are_in_canonical_order(self, task):
        prompt = build_inference_prompt(task, _records())
        positions = [
            prompt.index("[social, macro]"),
            prompt.index("[social, street]"),
            prompt.index("[environment, macro]"),
            prompt.index("[environment, street]"),
        ]
        assert positions == sorted(positions)

    def test_input_permutation_does_not_change_the_prompt(self, task):
        records = _records()
        assert build_inference_prompt(task, records) == build_inference_prompt(
            task, list(reversed(records))
        )

    def test_low_confidence_fields_are_marked(self, task):
        records = _records()
        weak = make_record(
            {name: f"moderate {name}" for name in FACTOR_NAMES},
            dimension=Dimension.SOCIAL,
            level=Level.MACRO,
        )
        fields = dict(weak.fields)
        from urbanmas.domain import FieldValue

        fields[FACTOR_NAMES[0]] = FieldValue(
            text="uncertain description",
            provenance="refined",
            similarity=0.2,
            repair_rounds=2,
        )
        records[0] = weak.settle("low_confidence", fields)
        prompt = build_inference_prompt(task, records)
        assert "uncertain description (low confidence)" in prompt
        assert prompt.count("(low confidence)") == 1

    def test_schema_instruction_quotes_the_output_key(self, task):
        prompt = build_inference_prompt(task, _records())
        assert '{"running_amount": <number in [0, 10]>}' in prompt


class TestSingleLlm:
    def test_mock_value_is_in_range(self, task, sample):
        pred = infer_single_llm(task, sample, MockBackend())
        assert 0.0 <= pred.value <= 10.0
        assert pred.variant == "single_llm"

    def test_empty_context_sample_still_works(self, task):
        bare = LocationSample(id="nowhere", latitude=0.0, longitude=0.0)
        pred = infer_single_llm(task, bare, MockBackend())
        assert 0.0 <= pred.value <= 10.0

    def test_replay_runs_are_identical(self, task, sample, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorded = infer_single_llm(task, sample, CassetteBackend(cassette, MockBackend()))
        first = infer_single_llm(task, sample, CassetteBackend(cassette))
        second = infer_single_llm(task, sample, CassetteBackend(cassette))
        assert recorded == first == second
