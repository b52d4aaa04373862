"""Parsing helpers for structured (JSON object) model responses."""

from __future__ import annotations

import json
import re

from .domain import load_json


def extract_json_object(text: str) -> dict:
    """Parse a JSON object out of a model response.

    Accepts clean JSON, fenced blocks, or an object embedded in prose.
    Raises ``ValueError`` when no object can be recovered or the payload
    is not a JSON object.
    """
    candidate = text.strip()
    if candidate.startswith("```"):
        candidate = re.sub(r"^```[a-zA-Z]*\s*|\s*```$", "", candidate).strip()
    try:
        parsed = load_json(candidate)
    except json.JSONDecodeError:
        # From the first "{" to the last "}", when that "}" comes after it.
        start, end = text.find("{"), text.rfind("}")
        if not 0 <= start < end:
            raise ValueError("no JSON object found in response") from None
        try:
            parsed = load_json(text[start : end + 1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"embedded JSON object is malformed: {exc}") from None
    if not isinstance(parsed, dict):
        raise ValueError(f"expected a JSON object, got {type(parsed).__name__}")
    return parsed


def coerce_number(value: object) -> float:
    """Accept ints/floats and numeric strings; reject bools, NaN and infinities."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a number")
    if isinstance(value, (int, float)):
        number = float(value)
    elif isinstance(value, str):
        try:
            number = float(value.strip())
        except ValueError:
            raise ValueError(f"not numeric: {value!r}") from None
    else:
        raise ValueError(f"not numeric: {value!r}")
    if number != number or number in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number: {number}")
    return number
