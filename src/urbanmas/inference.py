"""Joint inference over the four reliable urban-information records.

The four records are embedded in one prompt in a fixed section order
(social-macro, social-street, environment-macro, environment-street) and
the model must answer with a JSON object containing the task's output key.
Out-of-range values are clamped into [0, 10] with a warning; malformed
responses are retried with the parse error quoted back. A single-LLM
baseline prompt that bypasses guidance and extraction is also provided.
"""

from __future__ import annotations

import logging
from typing import Iterable

from .backend import ChatBackend, ChatRequest
from .domain import (
    LocationSample,
    OUTPUT_SCALE,
    PAIRS,
    Pair,
    PredictionOutput,
    TaskSpec,
    UrbanInfoRecord,
)
from .errors import MissingRecordsError, SchemaFailureError
from .extraction import location_context
from .reliability import THRESHOLD
from .structured import coerce_number, extract_json_object

logger = logging.getLogger(__name__)

SCHEMA_RETRIES = 3

_SYSTEM = (
    "You are an urban prediction agent. Estimate the requested quantity "
    "for the location from the information provided, and respond with "
    "JSON only."
)


def _ordered_records(records: Iterable[UrbanInfoRecord]) -> dict[Pair, UrbanInfoRecord]:
    by_pair: dict[Pair, UrbanInfoRecord] = {}
    for record in records:
        if record.pair in by_pair:
            raise MissingRecordsError(f"duplicate record for {record.pair.label}")
        by_pair[record.pair] = record
    missing = [pair.label for pair in PAIRS if pair not in by_pair]
    if missing:
        raise MissingRecordsError(f"records missing for pairs: {missing}")
    return {pair: by_pair[pair] for pair in PAIRS}


def _render_record(record: UrbanInfoRecord) -> str:
    lines = [f"[{record.pair.label.replace('_', ', ')}]"]
    for name, value in record.fields.items():
        marker = ""
        if (
            record.status == "low_confidence"
            and value.similarity is not None
            and value.similarity < THRESHOLD
        ):
            marker = " (low confidence)"
        lines.append(f"- {name}: {value.text}{marker}")
    return "\n".join(lines)


def _schema_instruction(task: TaskSpec) -> str:
    return (
        f'Return only a JSON object of the form {{"{task.output_key}": '
        f"<number in [{OUTPUT_SCALE[0]:g}, {OUTPUT_SCALE[1]:g}]>}}. "
        'You may include a short "rationale" string.'
    )


def build_inference_prompt(task: TaskSpec, records: Iterable[UrbanInfoRecord]) -> str:
    """Joint prompt over the four records; input order does not matter."""
    ordered = _ordered_records(records)
    sections = "\n\n".join(_render_record(rec) for rec in ordered.values())
    return (
        f"Task: {task.description}\n"
        f'Estimate "{task.output_key}" for this location on a scale from '
        f"{OUTPUT_SCALE[0]:g} to {OUTPUT_SCALE[1]:g}.\n\n"
        f"Structured urban information:\n\n{sections}\n\n"
        f"{_schema_instruction(task)}"
    )


def _complete_schema_checked(
    task: TaskSpec,
    user_prompt: str,
    backend: ChatBackend,
    location_id: str,
    variant: str,
) -> PredictionOutput:
    """Issue the request and validate the schema, retrying on malformed output."""
    problem = ""
    clamp_low, clamp_high = OUTPUT_SCALE
    for attempt in range(1 + SCHEMA_RETRIES):
        prompt = user_prompt
        if problem:
            prompt = (
                f"{user_prompt}\n\nYour previous response was invalid: {problem}. "
                "Return only the JSON object."
            )
        resp = backend.complete(
            ChatRequest(
                system_prompt=_SYSTEM, user_prompt=prompt, response_format="structured_object",
                variant_seed=attempt,
            )
        )
        try:
            payload = extract_json_object(resp.text)
            if task.output_key not in payload:
                raise ValueError(f'key "{task.output_key}" missing')
            value = coerce_number(payload[task.output_key])
        except ValueError as exc:
            problem = str(exc)
            logger.warning(
                "inference for %s attempt %d invalid: %s", location_id, attempt + 1, problem
            )
            continue
        clamped = False
        if not clamp_low <= value <= clamp_high:
            logger.warning(
                "inference for %s: value %s outside [%g, %g], clamping",
                location_id, value, clamp_low, clamp_high,
            )
            value = min(max(value, clamp_low), clamp_high)
            clamped = True
        rationale = payload.get("rationale")
        return PredictionOutput(
            location_id=location_id,
            task_id=task.id,
            value=value,
            variant=variant,
            rationale=str(rationale) if isinstance(rationale, str) and rationale else None,
            clamped=clamped,
        )
    raise SchemaFailureError(
        f"no valid {task.output_key!r} object for {location_id} "
        f"after {1 + SCHEMA_RETRIES} attempts (last: {problem})"
    )


def infer(
    task: TaskSpec,
    records: Iterable[UrbanInfoRecord],
    backend: ChatBackend,
    variant: str = "full",
) -> PredictionOutput:
    """Predict the task output from the four settled records."""
    ordered = _ordered_records(records)
    location_ids = {rec.location_id for rec in ordered.values()}
    if len(location_ids) != 1:
        raise MissingRecordsError(f"records span multiple locations: {sorted(location_ids)}")
    prompt = build_inference_prompt(task, ordered.values())
    return _complete_schema_checked(task, prompt, backend, location_ids.pop(), variant)


def infer_single_llm(
    task: TaskSpec,
    sample: LocationSample,
    backend: ChatBackend,
) -> PredictionOutput:
    """Single-LLM baseline: one direct prompt from raw location context."""
    streetview = (
        f"Street-view imagery references: {len(sample.streetview_refs)} available"
        if sample.streetview_refs
        else "Street-view imagery references: none"
    )
    prompt = (
        f"Task: {task.description}\n"
        f'Estimate "{task.output_key}" for this location on a scale from '
        f"{OUTPUT_SCALE[0]:g} to {OUTPUT_SCALE[1]:g}.\n\n"
        f"{location_context(sample)}\n{streetview}\n\n"
        f"{_schema_instruction(task)}"
    )
    return _complete_schema_checked(task, prompt, backend, sample.id, "single_llm")
