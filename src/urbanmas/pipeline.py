"""Per-location pipelines and the run-level orchestration.

One job is (location, task, variant). The ``full`` variant runs guided
extraction with the reliability gate and joint inference; ``no_factors``
swaps the guided factor sets for the fixed generic placeholders;
``no_reliability`` uses single-variant extraction with unconditional
acceptance; ``single_llm`` bypasses all layers with one direct prompt.
A job runs in one thread and makes its model calls one at a time. One task
of the run's :func:`~urbanmas.domain.worker_pool` runs a chain of jobs in
turn, and a job that succeeded hands its extraction on to the next. The
generic sets do not depend on the task, so the ``no_factors`` jobs of one
location form one chain over every task and share one extraction; a record
names no task, and each job's task is written into its outputs.
``no_reliability`` is ``full`` without the gate, so it follows the ``full``
job of its location and task and takes that job's variant A as its record,
and that job's prediction when the inference prompt it would send is the
same. Every other job is a chain of one. An interrupt starts no further
job, and a job already running ends at its next model call. A job's
transcript is handed to the caller as the job ends and then dropped, so a
run's memory does not grow with its transcripts. Predictions and the similarity log are written in
deterministic order, so replay runs are byte-identical regardless of
worker width.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .backend import ChatBackend
from .domain import (
    FactorSet,
    LocationSample,
    PAIRS,
    Pair,
    PredictionOutput,
    Stopped,
    TaskSpec,
    load_jsonl,
    stage_stop,
    worker_pool,
    write_text_atomic,
)
from .errors import ConfigError
from .extraction import PairExtraction, extract_reliable
from .guidance import NO_FACTORS_MAP, FactorMap
from .inference import build_inference_prompt, infer, infer_single_llm

logger = logging.getLogger(__name__)

VARIANTS = ("full", "no_factors", "no_reliability", "single_llm")
GUIDED_VARIANTS = ("full", "no_reliability")


@dataclass(frozen=True)
class LocationRun:
    """Outcome of one (location, task, variant) job."""

    prediction: PredictionOutput
    pairs: Mapping[Pair, PairExtraction] | None = None

    def audit_doc(self) -> dict:
        doc: dict = {
            "location_id": self.prediction.location_id,
            "task_id": self.prediction.task_id,
            "variant": self.prediction.variant,
        }
        if self.pairs is not None:
            task_id = self.prediction.task_id
            doc["pairs"] = {pair.label: self.pairs[pair].to_dict(task_id) for pair in PAIRS}
        doc["prediction"] = self.prediction.to_dict()
        return doc

    def similarity_lines(self) -> list[str]:
        """This job's similarity-log lines: one per record the gate settled."""
        if self.pairs is None:
            return []
        pred = self.prediction
        docs = []
        for pair in PAIRS:
            pe = self.pairs[pair]
            if pe.report is None:
                continue
            docs.append(
                {
                    "location_id": pred.location_id,
                    "task_id": pred.task_id,
                    "variant": pred.variant,
                    "pair": pair.label,
                    "status": pe.record.status,
                    "report": pe.report.to_dict(),
                }
            )
        return list(_json_lines(docs))


def predict_location(
    sample: LocationSample,
    task: TaskSpec,
    variant: str,
    backend: ChatBackend,
    factor_map: Mapping[Pair, FactorSet] | None = None,
    pairs: Mapping[Pair, PairExtraction] | None = None,
    prediction: PredictionOutput | None = None,
) -> LocationRun:
    """Run one variant pipeline for one location and task.

    ``pairs`` is an extraction of this location made by an earlier job of
    its chain, used in place of a new one. For ``no_factors`` it was settled
    for another task; the generic sets are the same for every task, and a
    record names no task, so it serves ``task`` as it is. For
    ``no_reliability`` it is the ``full`` extraction of the same task: each
    pair keeps its prompt and variant A, accepted as it is, which is what its
    own extraction would ask and keep. An extraction of another location,
    or under other factor names, is refused.

    ``prediction`` is what the job that made ``pairs`` inferred from them.
    ``no_reliability`` takes it, relabelled, in place of its own inference
    when the inference prompt it would send is the one that job sent, as
    when the gate kept every variant-A text and marked no field
    low-confidence; under the identity rule the answer would be the same.
    Other variants ignore it.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r} (one of {VARIANTS})")

    if pairs is not None and variant not in ("no_factors", "no_reliability"):
        raise ConfigError(
            f"only no_factors and no_reliability reuse an extraction, not {variant!r}"
        )
    if variant == "single_llm":
        return LocationRun(prediction=infer_single_llm(task, sample, backend))

    if variant == "no_factors":
        factor_map = NO_FACTORS_MAP
    elif factor_map is None:
        raise ConfigError(f"variant {variant!r} needs a guided factor map for task {task.id!r}")

    if pairs is None:
        pairs = extract_reliable(
            sample, factor_map, backend, reliability_enabled=(variant != "no_reliability")
        )
    elif variant == "no_reliability":
        for key, pe in pairs.items():
            own = (sample.id, factor_map[key].factor_names)
            if (pe.record.location_id, pe.record.field_names) != own:
                raise ConfigError(
                    f"no_reliability reuses only an extraction of its own location and "
                    f"factors {own}, not of {(pe.record.location_id, pe.record.field_names)}"
                )
        ungated = {key: pe.ungated() for key, pe in pairs.items()}
        if prediction is not None and _inference_prompt(task, ungated) == (
            _inference_prompt(task, pairs)
        ):
            return LocationRun(prediction=replace(prediction, variant=variant), pairs=ungated)
        pairs = ungated
    records = [pe.record for pe in pairs.values()]
    prediction = infer(task, records, backend, variant=variant)
    return LocationRun(prediction=prediction, pairs=pairs)


def _inference_prompt(task: TaskSpec, pairs: Mapping[Pair, PairExtraction]) -> str:
    return build_inference_prompt(task, [pe.record for pe in pairs.values()])


@dataclass
class RunOutcome:
    """What a prediction run keeps once its jobs have ended, in job order.

    A job's transcript is dropped when the job ends; only its prediction
    and its similarity-log lines stay.
    """

    predictions: list[PredictionOutput] = field(default_factory=list)
    similarity_lines: list[str] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def clamp_count(self) -> int:
        return sum(1 for p in self.predictions if p.clamped)


Chain = Sequence[tuple[TaskSpec, str]]


def _chains(tasks: Sequence[TaskSpec], variants: Sequence[str]) -> list[Chain]:
    """One location's pool tasks: chains of (task, variant) jobs, longest first.

    ``no_factors`` is one chain over every task. When both are asked for,
    ``full`` and then ``no_reliability`` of one task are one chain. Every
    other job is a chain of one. The chains do not depend on the order of
    ``variants``; the longest go first so that they do not end the run.
    """
    variants = dict.fromkeys(variants)
    paired = "full" in variants and "no_reliability" in variants
    chains: list[Chain] = []
    for variant in variants:
        if variant == "no_factors":
            chains.append([(task, variant) for task in tasks])
        elif paired and variant == "full":
            chains.extend([(task, "full"), (task, "no_reliability")] for task in tasks)
        elif not (paired and variant == "no_reliability"):
            chains.extend([(task, variant)] for task in tasks)
    return sorted(chains, key=len, reverse=True)


def _run_jobs(
    sample: LocationSample,
    chain: Chain,
    backend: ChatBackend,
    factor_maps: Mapping[str, FactorMap],
    on_job_end: Callable[[LocationRun], None] | None,
) -> list[tuple[tuple[str, str, str], PredictionOutput | None, list[str] | str]]:
    """The jobs of one chain of one location, in turn, in one pool thread:
    for each, its (location, task, variant) key with its prediction and
    similarity-log lines, or with None and the error text when the job
    failed. A failed job is logged as it fails.

    A job that succeeded hands its extraction and its prediction to the
    later jobs of the chain (see :func:`predict_location`); a failed one
    hands nothing on, so the next job takes the last extraction handed on,
    or extracts and infers for itself if there is none. Once the stage has
    stopped no further job starts, and a job that was running ends at its
    next model call without an outcome. An error from ``on_job_end`` is not
    a failed job: it stops the stage and propagates.
    """
    stop = stage_stop()
    outcomes = []
    pairs = prediction = None
    for task, variant in chain:
        if stop.is_set():
            break
        key = (sample.id, task.id, variant)
        try:
            run = predict_location(
                sample, task, variant, backend, factor_maps.get(task.id), pairs, prediction
            )
        except Stopped:
            break
        except Exception as exc:
            logger.error("job %s failed: %s", key, exc)
            outcomes.append((key, None, str(exc)))
            continue
        pairs, prediction = run.pairs, run.prediction
        if on_job_end is not None:
            try:
                on_job_end(run)
            except BaseException:
                stop.set()
                raise
        outcomes.append((key, run.prediction, run.similarity_lines()))
        del run  # only the pairs and the prediction outlive the job
    return outcomes


def run_predictions(
    samples: Sequence[LocationSample],
    tasks: Sequence[TaskSpec],
    variants: Sequence[str],
    backend: ChatBackend,
    factor_maps: Mapping[str, FactorMap] | None = None,
    workers: int = 4,
    on_job_end: Callable[[LocationRun], None] | None = None,
) -> RunOutcome:
    """Run every (location, task, variant) job on a pool of 4 x ``workers`` threads.

    One pool task runs one chain of jobs of one location in turn (see
    :func:`_chains`): ``no_factors`` extracts once for all tasks, and
    ``no_reliability`` takes the extraction of the ``full`` job before it.
    ``factor_maps`` maps task id to its guided factor map and is required
    for the guided variants. Per-job failures are collected (and counted),
    not propagated; failed jobs are excluded from the predictions.
    ``on_job_end`` is called with each successful job's transcript in that
    job's thread, before the transcript is dropped. An interrupt, or an
    error from ``on_job_end``, stops the run: no further job starts, the
    jobs running end at their next model call, and the error propagates.
    """
    factor_maps = factor_maps or {}
    for variant in variants:
        if variant in GUIDED_VARIANTS:
            missing = [t.id for t in tasks if t.id not in factor_maps]
            if missing:
                raise ConfigError(
                    f"variant {variant!r} needs guided factor maps for tasks {missing}"
                )

    with worker_pool(len(PAIRS) * workers) as submit:
        futures = [
            submit(_run_jobs, sample, chain, backend, factor_maps, on_job_end)
            for chain in _chains(tasks, variants)
            for sample in samples
        ]
        outcomes = [job for future in futures for job in future.result()]

    outcome = RunOutcome()
    for key, prediction, detail in sorted(outcomes, key=lambda job: job[0]):
        if prediction is None:
            failure = dict(zip(("location_id", "task_id", "variant"), key), error=detail)
            outcome.failures.append(failure)
        else:
            outcome.predictions.append(prediction)
            outcome.similarity_lines.extend(detail)
    if outcome.failures:
        logger.warning("%d job(s) failed and were excluded", len(outcome.failures))
    return outcome


# --------------------------------------------------------------------------
# Run artifacts
# --------------------------------------------------------------------------

def write_predictions(predictions: Sequence[PredictionOutput], path: str | Path) -> None:
    """Line-delimited predictions, sorted by (location, task, variant)."""
    ordered = sorted(predictions, key=lambda p: (p.location_id, p.task_id, p.variant))
    write_text_atomic(Path(path), _json_lines(pred.to_dict() for pred in ordered))


def load_predictions(path: str | Path) -> list[PredictionOutput]:
    """Load a predictions file; bad content raises ``ValueError`` naming ``path``."""
    return load_jsonl(path, PredictionOutput.from_dict, "prediction")


def write_audit(run: LocationRun, audit_dir: str | Path) -> None:
    """Write one job's transcript to <audit_dir>/<variant>/<task>/<location>.json.

    The directory must already exist. The file is one line of compact JSON:
    the C encoder writes it, where an indented dump falls back to the
    pure-Python one at about three times the cost. ``python -m json.tool
    <file>`` pretty-prints it. The file is written in place, not through a
    temp file, because ``audit_dir`` is a staging tree that replaces the
    run's ``audit/`` whole once every job has ended.
    """
    pred = run.prediction
    path = Path(audit_dir, pred.variant, pred.task_id, f"{pred.location_id}.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(run.audit_doc(), ensure_ascii=False))


def write_similarity_log(outcome: RunOutcome, path: str | Path) -> int:
    """One similarity report line per settled record, for audit."""
    write_text_atomic(Path(path), outcome.similarity_lines)
    return len(outcome.similarity_lines)


def _json_lines(docs: Iterable[dict]) -> Iterable[str]:
    return (json.dumps(doc, ensure_ascii=False) + "\n" for doc in docs)
