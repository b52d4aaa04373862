import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanmas.structured import extract_json_object

# The embedded-object search that extract_json_object used to run: a greedy
# DOTALL match from the first "{" that some "}" follows, to the last "}".
_GREEDY_OBJECT_RE = re.compile(r"\{.*\}", re.DOTALL)


def greedy_reference(text: str) -> dict:
    """extract_json_object with the embedded object found by the greedy regex."""
    candidate = text.strip()
    if candidate.startswith("```"):
        candidate = re.sub(r"^```[a-zA-Z]*\s*|\s*```$", "", candidate).strip()
    try:
        parsed = json.loads(candidate)
    except json.JSONDecodeError:
        match = _GREEDY_OBJECT_RE.search(text)
        if not match:
            raise ValueError("no JSON object found in response") from None
        try:
            parsed = json.loads(match.group(0))
        except json.JSONDecodeError as exc:
            raise ValueError(f"embedded JSON object is malformed: {exc}") from None
    if not isinstance(parsed, dict):
        raise ValueError(f"expected a JSON object, got {type(parsed).__name__}")
    return parsed


def outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "value", parse(text)
    except ValueError as exc:
        return "error", str(exc)


class TestExtractJsonObject:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet='{}[]":,a1 \n`', max_size=24))
    def test_embedded_object_search_matches_the_greedy_regex(self, text):
        assert outcome(extract_json_object, text) == outcome(greedy_reference, text)

    def test_a_megabyte_of_open_braces_fails_fast(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="no JSON object found"):
            extract_json_object("{" * 1_000_000)
        assert time.perf_counter() - started < 0.25
