import json
from dataclasses import replace

import pytest

from urbanmas.backend import CassetteBackend, MockBackend
from urbanmas.domain import Dimension, Level, PAIRS, PoiEntry, builtin_task
from urbanmas.errors import ExtractionError, ExtractionParseError
from urbanmas.extraction import (
    MAX_FIELD_CHARS,
    PROMPT_POI_LIMIT,
    build_prompt,
    extract_pair,
    extract_reliable,
    extract_variants,
    location_context,
)
from urbanmas.inference import infer_single_llm

from conftest import DEEP_JSON, FACTOR_NAMES, make_factor_set, scripted_extraction_backend


def _values(suffix: str = "") -> dict[str, str]:
    return {name: f"moderate {name} around the area{suffix}" for name in FACTOR_NAMES}


def _prompt(sample, fs):
    return build_prompt(sample, fs, location_context(sample))


def _variants(sample, fs, backend):
    return extract_variants(sample, fs, backend, _prompt(sample, fs))


def _pair(sample, fs, backend, reliability_enabled=True):
    return extract_pair(sample, fs, backend, location_context(sample), reliability_enabled)


class TestBuildPrompt:
    def test_rendering_is_deterministic(self, sample):
        fs = make_factor_set()
        assert _prompt(sample, fs) == _prompt(sample, fs)

    def test_user_prompt_contains_all_factor_names(self, sample):
        prompt = _prompt(sample, make_factor_set())
        for name in FACTOR_NAMES:
            assert name in prompt.user_prompt

    def test_macro_prompts_never_carry_imagery(self, sample):
        fs = make_factor_set(level=Level.MACRO)
        assert _prompt(sample, fs).image_refs == ()

    def test_street_prompts_carry_imagery_when_available(self, sample):
        fs = make_factor_set(level=Level.STREET)
        assert _prompt(sample, fs).image_refs == sample.streetview_refs

    def test_poi_digest_keeps_the_closest_limit_closest_first(self, sample):
        # Listed farthest first, so the order in the prompt comes from the sort.
        pois = tuple(
            PoiEntry(f"poi {i:02d}", "amenity:cafe", 10.0 * i)
            for i in range(PROMPT_POI_LIMIT + 1, 0, -1)
        )
        prompt = _prompt(replace(sample, pois=pois), make_factor_set())
        names = [f"poi {i:02d}" for i in range(1, PROMPT_POI_LIMIT + 1)]
        assert [prompt.user_prompt.index(f"- {n} (") for n in names] == sorted(
            prompt.user_prompt.index(f"- {n} (") for n in names
        )
        assert f"poi {PROMPT_POI_LIMIT + 1:02d}" not in prompt.user_prompt


class TestOneContextPath:
    def test_extract_refine_and_single_llm_prompts_carry_the_location_context(self, sample):
        target = FACTOR_NAMES[4]
        values_b = dict(_values(), **{target: "entirely unrelated construction hoarding text"})
        backend = scripted_extraction_backend({0: _values(), 1: values_b})
        prompts = {}
        complete = backend.complete

        def recording(r):
            kind = "refine" if "Value A:" in r.user_prompt else (
                "extract" if "exactly these keys" in r.user_prompt else "single"
            )
            prompts.setdefault(kind, r.user_prompt)
            return complete(r)

        backend.complete = recording
        factor_map = {(d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS}
        extract_reliable(sample, factor_map, backend)
        infer_single_llm(builtin_task("running_amount"), sample, backend)
        assert sorted(prompts) == ["extract", "refine", "single"]
        context = location_context(sample)
        for kind, user_prompt in prompts.items():
            assert context in user_prompt, kind


class TestExtractVariants:
    def test_two_records_with_matching_keys(self, sample):
        backend = scripted_extraction_backend({0: _values(), 1: _values(" alt")})
        fs = make_factor_set()
        var_a, var_b = _variants(sample, fs, backend)
        assert var_a.field_names == var_b.field_names == fs.factor_names
        assert var_a.status == var_b.status == "raw"
        assert {v.provenance for v in var_a.fields.values()} == {"variant_a"}
        assert {v.provenance for v in var_b.fields.values()} == {"variant_b"}
        assert backend.call_count == 2

    def test_missing_key_triggers_one_reask(self, sample):
        fs = make_factor_set()
        incomplete = {k: v for k, v in _values().items() if k != FACTOR_NAMES[0]}
        backend = MockBackend()
        backend.add_rule(
            lambda r: r.variant_seed == 1 and "unusable" in r.user_prompt,
            json.dumps(_values()),
        )
        backend.add_rule(lambda r: r.variant_seed == 1, json.dumps(incomplete))
        backend.add_rule(lambda r: r.variant_seed == 0, json.dumps(_values()))
        var_a, var_b = _variants(sample, fs, backend)
        assert backend.call_count == 3
        assert var_b.fields[FACTOR_NAMES[0]].text

    def test_unparseable_twice_names_the_agent(self, sample):
        fs = make_factor_set(dimension=Dimension.BUILT_ENVIRONMENTAL, level=Level.STREET)
        backend = MockBackend()
        backend.add_rule(lambda r: True, "no json here")
        with pytest.raises(ExtractionParseError, match="environment_street"):
            _variants(sample, fs, backend)
        assert backend.call_count == 2  # one ask + one re-ask for variant A

    def test_answer_nested_past_the_recursion_limit_is_re_asked(self, sample):
        fs = make_factor_set()
        backend = MockBackend()
        backend.add_rule(lambda r: "unusable" in r.user_prompt, json.dumps(_values()))
        backend.add_rule(lambda r: r.variant_seed == 0, '{"values": ' + DEEP_JSON + "}")
        backend.add_rule(lambda r: r.variant_seed == 1, json.dumps(_values(" alt")))
        var_a, _ = _variants(sample, fs, backend)
        assert backend.call_count == 3
        assert var_a.fields[FACTOR_NAMES[0]].text == _values()[FACTOR_NAMES[0]]

    def test_blank_value_counts_as_missing(self, sample):
        fs = make_factor_set()
        blanks = dict(_values(), **{FACTOR_NAMES[2]: "  "})
        backend = MockBackend()
        backend.add_rule(lambda r: "unusable" in r.user_prompt, json.dumps(_values()))
        backend.add_rule(lambda r: True, json.dumps(blanks))
        var_a, _ = _variants(sample, fs, backend)
        assert var_a.fields[FACTOR_NAMES[2]].text.strip()

    def test_values_are_capped(self, sample):
        fs = make_factor_set()
        oversized = dict(_values(), **{FACTOR_NAMES[0]: "x" * 1000})
        backend = scripted_extraction_backend({0: oversized, 1: oversized})
        var_a, _ = _variants(sample, fs, backend)
        assert len(var_a.fields[FACTOR_NAMES[0]].text) == MAX_FIELD_CHARS


class TestExtractPairWithoutReliability:
    def test_one_call_and_raw_passthrough(self, sample):
        backend = scripted_extraction_backend({0: _values()})
        result = _pair(sample, make_factor_set(), backend, reliability_enabled=False)
        assert backend.call_count == 1
        assert result.record.status == "raw"
        assert {v.provenance for v in result.record.fields.values()} == {"variant_a"}
        assert result.variant_a is result.record
        assert result.variant_b is None and result.report is None


class TestExtractPair:
    def test_identical_variants_settle_stable_without_refines(self, sample):
        backend = scripted_extraction_backend({0: _values(), 1: _values()})
        result = _pair(sample, make_factor_set(), backend)
        assert result.record.status == "stable"
        assert result.refine_calls == 0
        assert backend.call_count == 2

    def test_corrupted_field_gets_exactly_one_targeted_refine(self, sample):
        target = FACTOR_NAMES[4]
        values_b = dict(_values(), **{target: "entirely unrelated construction hoarding text"})
        backend = scripted_extraction_backend({0: _values(), 1: values_b})
        refine_prompts = []

        def observe(r):  # never matches; records refine traffic on the way through
            if "Value A:" in r.user_prompt:
                refine_prompts.append(r.user_prompt)
            return False

        backend.add_rule(observe, "unused")
        result = _pair(sample, make_factor_set(), backend)
        assert result.record.status == "refined"
        assert result.refine_calls == 1
        assert result.report.conflicting == {target}
        assert len(refine_prompts) == 1
        assert f"Factor: {target}" in refine_prompts[0]
        assert backend.call_count == 3


class TestExtractReliable:
    def _factor_map(self):
        return {
            (d, r): make_factor_set(dimension=d, level=r) for d, r in PAIRS
        }

    def test_four_records_with_factor_keys(self, sample):
        backend = scripted_extraction_backend({0: _values(), 1: _values()})
        results = extract_reliable(sample, self._factor_map(), backend)
        assert set(results) == set(PAIRS)
        for pair, pe in results.items():
            assert pe.record.field_names == FACTOR_NAMES
            assert pe.record.status == "stable"
        assert backend.call_count == 8

    def test_reliability_disabled_is_single_variant_raw(self, sample):
        backend = scripted_extraction_backend({0: _values()})
        results = extract_reliable(
            sample, self._factor_map(), backend, reliability_enabled=False
        )
        assert backend.call_count == 4
        for pe in results.values():
            assert pe.record.status == "raw"
            assert pe.variant_b is None
            assert pe.report is None

    def test_missing_factor_map_pair_is_an_error(self, sample):
        backend = scripted_extraction_backend({0: _values(), 1: _values()})
        partial = {pair: make_factor_set(dimension=pair[0], level=pair[1]) for pair in PAIRS[:2]}
        with pytest.raises(ExtractionError, match="missing pairs"):
            extract_reliable(sample, partial, backend)

    def test_child_errors_are_labeled_by_pair(self, sample):
        backend = MockBackend()
        backend.add_rule(lambda r: "street level" in r.system_prompt, "garbage")
        backend.add_rule(lambda r: True, json.dumps(_values()))
        with pytest.raises(ExtractionError) as err:
            extract_reliable(sample, self._factor_map(), backend)
        assert "street" in str(err.value)

    def test_first_failing_pair_stops_the_job(self, sample):
        social_macro = "social dimension at the macro level"
        asked = []

        def answer(req):
            asked.append(req.system_prompt)
            return "garbage" if social_macro in req.system_prompt else json.dumps(_values())

        backend = MockBackend().add_rule(lambda r: True, answer)
        with pytest.raises(ExtractionError, match="^social_macro: "):
            extract_reliable(sample, self._factor_map(), backend)
        assert asked
        assert all(social_macro in system for system in asked)

    def test_replay_is_byte_identical_across_runs(self, sample, tmp_path):
        cassette = tmp_path / "cassette.jsonl"
        recorder = CassetteBackend(cassette, MockBackend())
        factor_map = self._factor_map()
        recorded = extract_reliable(sample, factor_map, recorder)

        replays = [
            extract_reliable(sample, factor_map, CassetteBackend(cassette)) for _ in range(2)
        ]
        as_json = lambda results: json.dumps(
            {pair.label: pe.to_dict("running_amount") for pair, pe in sorted(results.items(), key=str)},
            sort_keys=True,
        )
        assert as_json(replays[0]) == as_json(replays[1]) == as_json(recorded)
