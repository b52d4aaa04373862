"""Per-location pipelines and the run-level orchestration.

One job is (location, task, variant). The ``full`` variant runs guided
extraction with the reliability gate and joint inference; ``no_factors``
swaps the guided factor sets for the fixed generic placeholders;
``no_reliability`` uses single-variant extraction with unconditional
acceptance; ``single_llm`` bypasses all layers with one direct prompt.
A job runs in one thread and makes its model calls one at a time. One pool
task runs a chain of jobs in turn, and a job that succeeded hands its
extraction on to the next. The generic sets do not depend on the task, so
the ``no_factors`` jobs of one location form one chain over every task and
share one extraction. ``no_reliability`` is ``full`` without the gate, so
it follows the ``full`` job of its location and task and takes that job's
variant A as its record, and that job's prediction when the inference prompt
it would send is the same. Every other job is a chain of one. A job's
transcript is handed to the caller as the job ends and then dropped, so a
run's memory does not grow with its transcripts. Predictions and the
similarity log are written in deterministic order, so replay runs are
byte-identical regardless of worker width.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .backend import ChatBackend
from .domain import (
    LocationSample,
    PAIRS,
    Pair,
    PredictionOutput,
    TaskSpec,
    cancel_queued_on_raise,
    load_json,
    write_text_atomic,
)
from .errors import ConfigError
from .extraction import PairExtraction, extract_reliable
from .guidance import FactorMap, generic_factor_map
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
            doc["pairs"] = {pair.label: self.pairs[pair].to_dict() for pair in PAIRS}
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
    factor_map: FactorMap | None = None,
    pairs: Mapping[Pair, PairExtraction] | None = None,
    prediction: PredictionOutput | None = None,
) -> LocationRun:
    """Run one variant pipeline for one location and task.

    ``pairs`` is an extraction of this location made by an earlier job of
    its chain, used in place of a new one. For ``no_factors`` it was settled
    for another task; the generic sets are the same for every task, so it is
    relabelled to ``task``. For ``no_reliability`` it is the ``full``
    extraction of the same task: each pair keeps its prompt and variant A,
    accepted as it is, which is what its own extraction would ask and keep.

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
        factor_map = generic_factor_map(task)
    elif factor_map is None:
        raise ConfigError(f"variant {variant!r} needs a guided factor map for task {task.id!r}")

    if pairs is None:
        pairs = extract_reliable(
            sample, factor_map, backend, reliability_enabled=(variant != "no_reliability")
        )
    elif variant == "no_factors":
        pairs = {key: pe.for_task(task.id) for key, pe in pairs.items()}
    else:
        for key, pe in pairs.items():
            # A record is labelled with the task of the factor set it was extracted for.
            own = (sample.id, factor_map[key].task_id)
            if (pe.record.location_id, pe.record.task_id) != own:
                raise ConfigError(
                    f"no_reliability reuses only the full extraction of its own location and "
                    f"task {own}, not of {(pe.record.location_id, pe.record.task_id)}"
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
) -> list[tuple[PredictionOutput | None, list[str] | str]]:
    """The jobs of one chain of one location, in turn, in one pool thread:
    for each, (prediction, similarity-log lines), or (None, error text) when
    the job failed.

    A job that succeeded hands its extraction and its prediction to the
    later jobs of the chain (see :func:`predict_location`); a failed one
    hands nothing on, so the next job takes the last extraction handed on,
    or extracts and infers for itself if there is none. An error from
    ``on_job_end`` is not a failed job; it propagates.
    """
    results: list[tuple[PredictionOutput | None, list[str] | str]] = []
    pairs = prediction = None
    for task, variant in chain:
        try:
            run = predict_location(
                sample, task, variant, backend, factor_maps.get(task.id), pairs, prediction
            )
        except Exception as exc:
            results.append((None, str(exc)))
            continue
        pairs, prediction = run.pairs, run.prediction
        if on_job_end is not None:
            on_job_end(run)
        results.append((run.prediction, run.similarity_lines()))
        del run  # only the pairs and the prediction outlive the job
    return results


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
    job's thread, before the transcript is dropped. If it raises, jobs not
    yet started are cancelled and the error propagates.
    """
    factor_maps = factor_maps or {}
    for variant in variants:
        if variant in GUIDED_VARIANTS:
            missing = [t.id for t in tasks if t.id not in factor_maps]
            if missing:
                raise ConfigError(
                    f"variant {variant!r} needs guided factor maps for tasks {missing}"
                )

    groups = [(sample, chain) for chain in _chains(tasks, variants) for sample in samples]
    outcome = RunOutcome()
    done: dict[tuple[str, str, str], tuple[PredictionOutput, list[str]]] = {}
    # A job makes one call at a time, so at most 4 x workers calls are in flight.
    with cancel_queued_on_raise(ThreadPoolExecutor(len(PAIRS) * max(1, workers))) as pool:
        futures = [
            pool.submit(_run_jobs, sample, chain, backend, factor_maps, on_job_end)
            for sample, chain in groups
        ]
        for (sample, chain), future in zip(groups, futures):
            for (task, variant), (prediction, detail) in zip(chain, future.result()):
                key = (sample.id, task.id, variant)
                if prediction is not None:
                    done[key] = (prediction, detail)
                    continue
                logger.error("job %s failed: %s", key, detail)
                outcome.failures.append(
                    {
                        "location_id": sample.id,
                        "task_id": task.id,
                        "variant": variant,
                        "error": detail,
                    }
                )

    ordered = [done[key] for key in sorted(done)]
    outcome.predictions = [prediction for prediction, _ in ordered]
    outcome.similarity_lines = [line for _, lines in ordered for line in lines]
    outcome.failures.sort(key=lambda f: (f["location_id"], f["task_id"], f["variant"]))
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
    """Load a predictions file; a bad line raises ``ValueError`` naming ``path:line``."""
    predictions = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                predictions.append(PredictionOutput.from_dict(load_json(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad prediction record: {exc}") from exc
    return predictions


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
