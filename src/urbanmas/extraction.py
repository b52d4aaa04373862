"""Per-location urban-information extraction aligned to the guided factors.

For each of the four pairs (:class:`~urbanmas.domain.Pair`) an extractor
request is built from the location context and the pair's factor set at
variant seed 0. Two variants are requested (seeds 0 and 1; seed 1 and any
re-ask are that request with one field replaced), and the reliability layer
settles them into one record, regenerating only conflicting fields through
a field-targeted refiner call. The audit's ``"prompt"`` of a pair is the
seed-0 request.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import Mapping

from .backend import ChatBackend, ChatRequest
from .domain import (
    Dimension,
    FactorSet,
    FieldValue,
    Level,
    LocationSample,
    PAIRS,
    Pair,
    SimilarityReport,
    UrbanInfoRecord,
)
from .errors import ExtractionError, ExtractionParseError
from .reliability import evaluate, reconcile
from .structured import extract_json_object

logger = logging.getLogger(__name__)

MAX_FIELD_CHARS = 400
PROMPT_POI_LIMIT = 12

_DIMENSION_WORDING = {
    Dimension.SOCIAL: "social",
    Dimension.BUILT_ENVIRONMENTAL: "built environmental",
}


def location_context(sample: LocationSample) -> str:
    """Deterministic textual rendering of a sample's resolved context."""
    lines = [
        f"Location: {sample.address or 'unresolved address'}",
        f"City: {sample.city or 'unknown'}",
        f"Coordinates: {sample.latitude:.5f}, {sample.longitude:.5f}",
    ]
    pois = sorted(sample.pois, key=lambda p: (p.distance_m, p.name))[:PROMPT_POI_LIMIT]
    if pois:
        lines.append("Nearby points of interest (closest first):")
        lines.extend(f"- {p.name} ({p.category}, {p.distance_m:.0f} m)" for p in pois)
    else:
        lines.append("Nearby points of interest: none recorded")
    return "\n".join(lines)


def build_prompt(sample: LocationSample, fs: FactorSet, context: str) -> ChatRequest:
    """Render the extractor request for one factor set, at variant seed 0.

    ``context`` is the sample's ``location_context``. Rendering is
    deterministic (stable field order). Street-level prompts carry the
    sample's street-view references; macro-level prompts never do.
    """
    system = (
        f"You are an urban information extraction agent focused on the "
        f"{_DIMENSION_WORDING[fs.pair.dimension]} dimension at the {fs.pair.level.value} level. "
        "Extract concise, factual urban information for the requested factors."
    )
    keys = json.dumps(list(fs.factor_names))
    factor_lines = "\n".join(
        f"{i}. {f.name}: {f.description}" for i, f in enumerate(fs.factors, 1)
    )
    user = (
        f"{context}\n\n"
        f"Factors to extract:\n{factor_lines}\n\n"
        f"Return a JSON object with exactly these keys: {keys}\n"
        f"Each value must be a short factual description (at most "
        f"{MAX_FIELD_CHARS} characters) of that factor at this location."
    )
    return ChatRequest(
        system_prompt=system,
        user_prompt=user,
        image_refs=sample.streetview_refs if fs.pair.level is Level.STREET else (),
        response_format="structured_object",
    )


def _parse_variant(text: str, fs: FactorSet) -> tuple[dict[str, str], list[str]]:
    """Parse one variant response; returns (values, missing-or-blank keys)."""
    payload = extract_json_object(text)
    values: dict[str, str] = {}
    missing: list[str] = []
    for name in fs.factor_names:
        raw = payload.get(name)
        text_value = str(raw).strip() if raw is not None else ""
        if not text_value:
            missing.append(name)
        else:
            values[name] = text_value[:MAX_FIELD_CHARS]
    return values, missing


def _request_variant(
    sample: LocationSample,
    fs: FactorSet,
    backend: ChatBackend,
    prompt: ChatRequest,
    seed: int,
) -> dict[str, str]:
    """One extractor call at ``seed`` plus at most one re-ask for unusable output."""
    agent = fs.pair.label
    request = replace(prompt, variant_seed=seed)
    problem = ""
    for attempt in range(2):
        if problem:
            reask = (
                f"\n\nYour previous response was unusable: {problem}. "
                "Return the complete JSON object with exactly the required keys."
            )
            request = replace(request, user_prompt=prompt.user_prompt + reask)
        resp = backend.complete(request)
        try:
            values, missing = _parse_variant(resp.text, fs)
        except ValueError as exc:
            problem = str(exc)
            logger.warning("%s seed %d attempt %d: %s", agent, seed, attempt + 1, problem)
            continue
        if not missing:
            return values
        problem = f"missing keys {missing}"
        logger.warning("%s seed %d attempt %d: %s", agent, seed, attempt + 1, problem)
    raise ExtractionParseError(
        f"{agent} agent (location {sample.id}): variant seed {seed} unusable after re-ask: {problem}"
    )


def _record(
    sample: LocationSample,
    fs: FactorSet,
    values: Mapping[str, str],
    provenance: str,
) -> UrbanInfoRecord:
    fields = {
        name: FieldValue(text=values[name], provenance=provenance) for name in fs.factor_names
    }
    return UrbanInfoRecord(location_id=sample.id, pair=fs.pair, fields=fields, status="raw")


def extract_variants(
    sample: LocationSample,
    fs: FactorSet,
    backend: ChatBackend,
    prompt: ChatRequest,
) -> tuple[UrbanInfoRecord, UrbanInfoRecord]:
    """Request the two independent extraction variants (seeds 0 and 1)."""
    values_a = _request_variant(sample, fs, backend, prompt, seed=0)
    values_b = _request_variant(sample, fs, backend, prompt, seed=1)
    return (
        _record(sample, fs, values_a, "variant_a"),
        _record(sample, fs, values_b, "variant_b"),
    )


def _refine_fn(context: str, fs: FactorSet, backend: ChatBackend):
    descriptions = {f.name: f.description for f in fs.factors}

    def refine(field_name: str, value_a: str, value_b: str) -> str:
        system = (
            "You are an urban information refiner. Two independently extracted "
            "values for one factor disagree; produce a single corrected value."
        )
        user = (
            f"{context}\n\n"
            f"Factor: {field_name}: {descriptions.get(field_name, '')}\n"
            f"Value A: {json.dumps(value_a, ensure_ascii=False)}\n"
            f"Value B: {json.dumps(value_b, ensure_ascii=False)}\n"
            "The two values disagree. Return a single corrected short "
            f"description (at most {MAX_FIELD_CHARS} characters) of this factor "
            "at this location, as plain text."
        )
        resp = backend.complete(ChatRequest(system_prompt=system, user_prompt=user))
        return resp.text.strip()[:MAX_FIELD_CHARS]

    return refine


@dataclass(frozen=True)
class PairExtraction:
    """Everything produced for one pair, for the audit trail. ``prompt`` is
    the seed-0 extractor request."""

    prompt: ChatRequest
    variant_a: UrbanInfoRecord
    variant_b: UrbanInfoRecord | None
    report: SimilarityReport | None
    record: UrbanInfoRecord

    @property
    def refine_calls(self) -> int:
        """Refiner calls made: ``reconcile`` makes one per repair round."""
        return sum(v.repair_rounds for v in self.record.fields.values())

    def ungated(self) -> "PairExtraction":
        """This extraction as the no_reliability ablation keeps it: variant A
        accepted as it is, with no variant B and no report."""
        return replace(self, variant_b=None, report=None, record=self.variant_a)

    def to_dict(self, task_id: str) -> dict:
        return {
            "prompt": {
                "system": self.prompt.system_prompt,
                "user": self.prompt.user_prompt,
                "image_refs": list(self.prompt.image_refs),
            },
            "variant_a": self.variant_a.to_dict(task_id),
            "variant_b": self.variant_b.to_dict(task_id) if self.variant_b else None,
            "similarity": self.report.to_dict() if self.report else None,
            "record": self.record.to_dict(task_id),
            "refine_calls": self.refine_calls,
        }


def extract_pair(
    sample: LocationSample,
    fs: FactorSet,
    backend: ChatBackend,
    context: str,
    reliability_enabled: bool = True,
) -> PairExtraction:
    """Run one pair's extraction chain end to end.

    ``context`` is the sample's ``location_context``, rendered once per job
    by ``extract_reliable``. Without reliability (the no_reliability
    ablation) it is one call, variant A accepted unconditionally, and the
    record stays raw.
    """
    prompt = build_prompt(sample, fs, context)
    if not reliability_enabled:
        values = _request_variant(sample, fs, backend, prompt, seed=0)
        record = _record(sample, fs, values, "variant_a")
        return PairExtraction(
            prompt=prompt, variant_a=record, variant_b=None, report=None, record=record
        )
    var_a, var_b = extract_variants(sample, fs, backend, prompt)
    report = evaluate(var_a, var_b)
    record = reconcile(var_a, var_b, report, _refine_fn(context, fs, backend))
    return PairExtraction(
        prompt=prompt, variant_a=var_a, variant_b=var_b, report=report, record=record
    )


def extract_reliable(
    sample: LocationSample,
    factor_map: Mapping[Pair, FactorSet],
    backend: ChatBackend,
    reliability_enabled: bool = True,
) -> dict[Pair, PairExtraction]:
    """Run the four extraction chains for one location, in turn, in the caller's thread.

    Returns the four settled pair results keyed by pair.
    The first failure stops the job: it is re-raised labeled with the
    failing pair, and the later pairs are never requested.
    """
    missing = [pair.label for pair in PAIRS if pair not in factor_map]
    if missing:
        raise ExtractionError(f"factor map is missing pairs: {missing}")
    context = location_context(sample)
    results = {}
    for pair in PAIRS:
        try:
            results[pair] = extract_pair(
                sample, factor_map[pair], backend, context, reliability_enabled
            )
        except Exception as exc:
            raise ExtractionError(f"{pair.label}: {exc}") from exc
    return results
