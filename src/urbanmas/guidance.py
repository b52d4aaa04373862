"""Predictive-factor guidance: research each pair of a dimension (social
or built environment) and a level (macro or street), then summarize into
validated six-factor sets.

The layer is a two-call protocol against the chat backend: a research
prompt produces a brief per pair, and a summary prompt compresses it into
exactly ``FACTORS_PER_SET`` (six) named, described factors. Factor sets
that fail validation are re-requested with the violation list quoted back.
:func:`guide` takes every task of a run at once: the research and summary
calls of all uncached (task, pair) combinations share one thread pool, and
each summary is queued on it as soon as its research ends, so a
latency-bound backend sees as many calls in flight as in ``predict``.
Results are cached to disk per task so extraction runs never re-research,
and a task that failed does not stop the others from being cached.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import domain
from .backend import ChatBackend, ChatRequest
from .domain import (
    Dimension,
    FactorSet,
    Level,
    PAIRS,
    Pair,
    PredictiveFactor,
    TaskSpec,
    cancel_queued_on_raise,
    load_json,
    validate_factor_set,
    write_json_atomic,
)
from .errors import DegenerateReportError, GuidanceError, InvalidFactorSetError
from .structured import extract_json_object

logger = logging.getLogger(__name__)

FactorMap = dict[Pair, FactorSet]

MIN_REPORT_CHARS = 400
RESEARCH_RETRIES = 2
SUMMARY_RETRIES = 2

_DIMENSION_FRAMING = {
    Dimension.SOCIAL: "the social dimension (people, activity, community and use patterns)",
    Dimension.BUILT_ENVIRONMENTAL: (
        "the built environmental dimension (physical form, infrastructure, "
        "land use and natural features)"
    ),
}
_LEVEL_FRAMING = {
    Level.MACRO: "the macro level (neighborhood and area scale)",
    Level.STREET: "the street level (streetscape and eye-level scale)",
}


@dataclass(frozen=True)
class ResearchReport:
    """Research brief for one pair of one task."""

    task_id: str
    pair: Pair
    body: str

    def __post_init__(self) -> None:
        if not self.body.strip():
            raise ValueError("report body must be nonempty")


def _count_word(n: int) -> str:
    words = "zero one two three four five six seven eight nine ten eleven twelve".split()
    return words[n] if 0 <= n < len(words) else str(n)


def _research_request(task: TaskSpec, pair: Pair, seed: int) -> ChatRequest:
    system = (
        "You are an urban research analyst. Produce focused, evidence-minded "
        "research briefs on what drives human-centered urban outcomes."
    )
    user = (
        f"Prediction task: {task.description}\n"
        f"Scope the analysis to {_DIMENSION_FRAMING[pair.dimension]} at "
        f"{_LEVEL_FRAMING[pair.level]}.\n\n"
        f"Identify the {_count_word(domain.FACTORS_PER_SET)} most influential predictive "
        "factors for this task within that scope. Write a brief report that discusses the evidence "
        "and lists the factors as numbered lines in the form "
        "'1. <factor name>: <one-sentence measurable definition>'."
    )
    return ChatRequest(system_prompt=system, user_prompt=user, variant_seed=seed)


def research(task: TaskSpec, pair: Pair, backend: ChatBackend) -> ResearchReport:
    """Produce the research brief for one pair.

    Short responses are considered degenerate and retried with a fresh
    generation slot, up to ``RESEARCH_RETRIES`` times.
    """
    last_len = 0
    for attempt in range(1 + RESEARCH_RETRIES):
        resp = backend.complete(_research_request(task, pair, seed=attempt))
        body = resp.text.strip()
        last_len = len(body)
        if last_len >= MIN_REPORT_CHARS:
            return ResearchReport(task_id=task.id, pair=pair, body=body)
        logger.warning(
            "degenerate report for %s (%d chars < %d), attempt %d",
            pair.label, last_len, MIN_REPORT_CHARS, attempt + 1,
        )
    raise DegenerateReportError(
        f"{pair.label}: report stayed below {MIN_REPORT_CHARS} chars "
        f"after {1 + RESEARCH_RETRIES} attempts (last was {last_len})"
    )


def _summary_request(
    task: TaskSpec, report: ResearchReport, feedback: str, seed: int
) -> ChatRequest:
    system = (
        "You distill urban research briefs into structured sets of "
        "predictive factors."
    )
    user = (
        f"Prediction task: {task.description}\n"
        f"Research brief for {_DIMENSION_FRAMING[report.pair.dimension]} at "
        f"{_LEVEL_FRAMING[report.pair.level]}:\n\n{report.body}\n\n"
        'Respond with a JSON object of the form {"factors": [{"name": "...", '
        f'"description": "..."}}]}} containing exactly {domain.FACTORS_PER_SET} factors. '
        "Names must be short distinct noun phrases; each description is one measurable sentence."
    )
    if feedback:
        user += f"\n\nYour previous factor set was rejected: {feedback}. Return a corrected JSON object."
    return ChatRequest(
        system_prompt=system, user_prompt=user, response_format="structured_object",
        variant_seed=seed,
    )


def summarize(
    report: ResearchReport,
    task: TaskSpec,
    backend: ChatBackend,
) -> FactorSet:
    """Compress a research brief into a validated six-factor set."""
    feedback = ""
    for attempt in range(1 + SUMMARY_RETRIES):
        resp = backend.complete(_summary_request(task, report, feedback, seed=attempt))
        try:
            payload = extract_json_object(resp.text)
            raw_factors = payload.get("factors", [])
            if not isinstance(raw_factors, list):
                raise ValueError('"factors" is not a list')
            factors = tuple(
                PredictiveFactor(
                    name=str(f.get("name", "")).strip(),
                    description=str(f.get("description", "")).strip(),
                )
                for f in raw_factors
                if isinstance(f, dict)
            )
        except ValueError as exc:
            feedback = f"response was not a usable JSON object ({exc})"
            logger.warning("summary attempt %d unparseable: %s", attempt + 1, exc)
            continue
        fs = FactorSet(task_id=report.task_id, pair=report.pair, factors=factors)
        violations = validate_factor_set(fs)
        if not violations:
            return fs
        feedback = "; ".join(violations)
        logger.warning("summary attempt %d rejected: %s", attempt + 1, feedback)
    raise InvalidFactorSetError(
        f"{report.pair.label}: no valid factor set "
        f"after {1 + SUMMARY_RETRIES} attempts (last: {feedback})"
    )


def factor_cache_path(factor_dir: str | Path, task_id: str) -> Path:
    """Where :func:`guide` caches a task's factor sets under ``factor_dir``."""
    return Path(factor_dir) / f"factors_{task_id}.json"


def guide(
    tasks: Sequence[TaskSpec],
    backend: ChatBackend,
    factor_dir: str | Path | None = None,
    workers: int = 4,
) -> dict[str, FactorMap]:
    """Produce the four factor sets of every task, keyed by task id.

    A task whose cache exists under ``factor_dir`` is loaded and makes no
    backend call. The other tasks run on one pool of 4 x ``workers`` threads,
    the bound :func:`~urbanmas.pipeline.run_predictions` keeps too. Each
    (task, pair) research is one pool task. When it ends, it queues its
    summary (retries included) on the same pool, behind the researches
    still waiting, so no thread idles while a call is ready. A pool task
    makes one call at a time, so at most 4 x ``workers`` calls are in
    flight. Each task whose four pairs succeed is cached whole to its own
    file (factor sets plus report bodies) before any failure is raised;
    then one :class:`GuidanceError` names every failing pair as
    ``<task>/<pair>``. An interrupt starts no call still queued.
    """
    paths = {} if factor_dir is None else {
        task.id: factor_cache_path(factor_dir, task.id) for task in tasks
    }
    factor_maps: dict[str, FactorMap] = {
        task.id: load_factor_cache(paths[task.id], task)
        for task in tasks
        if task.id in paths and paths[task.id].exists()
    }
    todo = [task for task in tasks if task.id not in factor_maps]

    def research_then_queue_summary(
        task: TaskSpec, pair: Pair
    ) -> tuple[ResearchReport, Future[FactorSet]]:
        report = research(task, pair, backend)
        return report, pool.submit(summarize, report, task, backend)

    results: dict[tuple[str, Pair], tuple[ResearchReport, FactorSet]] = {}
    errors, failed = [], set()
    with cancel_queued_on_raise(ThreadPoolExecutor(len(PAIRS) * max(1, workers))) as pool:
        futures = {
            (task.id, pair): pool.submit(research_then_queue_summary, task, pair)
            for task in todo
            for pair in PAIRS
        }
        for (task_id, pair), future in futures.items():
            try:
                report, summary = future.result()
                results[task_id, pair] = report, summary.result()
            except Exception as exc:
                errors.append(f"{task_id}/{pair.label}: {exc}")
                failed.add(task_id)
    for task in todo:
        if task.id in failed:
            continue
        factor_maps[task.id] = {pair: results[task.id, pair][1] for pair in PAIRS}
        if task.id in paths:
            reports = {pair: results[task.id, pair][0].body for pair in PAIRS}
            save_factor_cache(paths[task.id], task, factor_maps[task.id], reports)
    if errors:
        raise GuidanceError("; ".join(errors))
    return {task.id: factor_maps[task.id] for task in tasks}


def _prompt_sha256(task: TaskSpec) -> str:
    """SHA-256 over what shapes ``task``'s factor sets besides the model: each
    pair's research prompt at seed 0, its summary prompt over a fixed
    placeholder brief with no feedback, and ``FACTORS_PER_SET``."""
    parts: list[object] = []
    for pair in PAIRS:
        brief = ResearchReport(task_id=task.id, pair=pair, body="<research brief>")
        for req in (_research_request(task, pair, seed=0), _summary_request(task, brief, "", seed=0)):
            parts += [req.system_prompt, req.user_prompt]
    parts.append(domain.FACTORS_PER_SET)
    return hashlib.sha256(json.dumps(parts).encode("utf-8")).hexdigest()


def save_factor_cache(
    path: str | Path,
    task: TaskSpec,
    factor_map: FactorMap,
    reports: dict[Pair, str] | None = None,
) -> None:
    doc = {
        "task": task.to_dict(),
        "prompt_sha256": _prompt_sha256(task),
        "pairs": [
            {
                "dimension": pair.dimension.value,
                "level": pair.level.value,
                "report": (reports or {}).get(pair, ""),
                "factors": [f.to_dict() for f in factor_map[pair].factors],
            }
            for pair in PAIRS
        ],
    }
    write_json_atomic(Path(path), doc)


def load_factor_cache(path: str | Path, task: TaskSpec) -> FactorMap:
    """Load the factor sets that :func:`guide` cached for ``task``.

    Unreadable content, a cache made for another task spec or under other
    prompts (:func:`_prompt_sha256`), or a set that fails validation raises
    :class:`GuidanceError` naming the file.
    """
    redo = f"delete it and run `urbanmas factors --tasks {task.id}` again"
    try:
        doc = load_json(Path(path).read_text(encoding="utf-8"))
        cached_task = doc["task"]
        cached_prompts = doc.get("prompt_sha256")
        pairs = [
            (Pair(Dimension(entry["dimension"]), Level(entry["level"])),
             tuple(PredictiveFactor.from_dict(f) for f in entry["factors"]))
            for entry in doc["pairs"]
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GuidanceError(f"cannot read factor cache {path} ({exc!r}); {redo}") from exc
    if cached_task != task.to_dict():
        raise GuidanceError(
            f"factor cache {path} is for task {cached_task}, not {task.to_dict()}; {redo}"
        )
    if cached_prompts != _prompt_sha256(task):
        raise GuidanceError(
            f"factor cache {path} was made under other prompts or set size; {redo}"
        )
    factor_map: FactorMap = {}
    for pair, factors in pairs:
        fs = FactorSet(task_id=task.id, pair=pair, factors=factors)
        violations = validate_factor_set(fs)
        if violations:
            raise GuidanceError(f"factor cache {path} invalid for {pair.label}: {violations}")
        factor_map[pair] = fs
    missing = [pair.label for pair in PAIRS if pair not in factor_map]
    if missing:
        raise GuidanceError(f"factor cache {path} is missing pairs: {missing}")
    return factor_map


# Fixed placeholder factors for the no_factors ablation: the guided factor
# sets are replaced with this generic six-factor set for every pair.
GENERIC_FACTORS: tuple[PredictiveFactor, ...] = (
    PredictiveFactor("overall character", "General impression of the area around the location."),
    PredictiveFactor("activity level", "How much human activity is visible or expected."),
    PredictiveFactor("infrastructure", "State of streets, utilities and public facilities."),
    PredictiveFactor("accessibility", "How easy the location is to reach and move through."),
    PredictiveFactor("amenities", "Availability of shops, services and public amenities."),
    PredictiveFactor("environment quality", "Perceived quality of the physical surroundings."),
)


def generic_factor_map(task: TaskSpec) -> FactorMap:
    """The no_factors ablation map: the same generic set for all four pairs."""
    return {pair: FactorSet(task_id=task.id, pair=pair, factors=GENERIC_FACTORS) for pair in PAIRS}
