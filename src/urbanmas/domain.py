"""Shared vocabulary types for the prediction pipeline.

Tasks, dimensions, levels and their pairs, locations, factor sets,
extraction records and predictions live here. Everything is immutable
after construction and safe to share across worker threads. The only
operation beyond invariant validation is :func:`validate_factor_set`, which
never raises so callers can feed model output through it and collect
violations.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

OUTPUT_SCALE = (0.0, 10.0)
FACTORS_PER_SET = 6

RECORD_STATUSES = ("raw", "stable", "refined", "low_confidence")
PROVENANCES = ("variant_a", "variant_b", "refined")


class Dimension(Enum):
    """Facet of urban context a factor set describes."""

    SOCIAL = "social"
    BUILT_ENVIRONMENTAL = "built_environmental"
    # Members compare by identity, so the C-level identity hash serves, where
    # Enum.__hash__ is a Python call on every lookup keyed by a pair.
    __hash__ = object.__hash__


class Level(Enum):
    """Spatial granularity of a factor set."""

    MACRO = "macro"
    STREET = "street"
    __hash__ = object.__hash__


class Pair(NamedTuple):
    """One (dimension, level) pair: the scope of one guidance and one
    extraction agent. It unpacks, compares and hashes as the plain
    ``(dimension, level)`` tuple."""

    dimension: Dimension
    level: Level

    @property
    def label(self) -> str:
        """Stable short label, e.g. ``social_macro``."""
        return _LABELS[self]


# The four pairs in the order used everywhere they are rendered:
# social-macro, social-street, environment-macro, environment-street.
PAIRS: tuple[Pair, ...] = tuple(Pair(d, r) for d in Dimension for r in Level)
_LABELS = dict(
    zip(PAIRS, ("social_macro", "social_street", "environment_macro", "environment_street"))
)


@dataclass(frozen=True)
class TaskSpec:
    """One prediction task: what to predict and under which output key."""

    id: str
    description: str
    output_key: str

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise ValueError("task id must be nonempty")
        if not self.output_key.strip():
            raise ValueError("task output_key must be nonempty")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "output_key": self.output_key,
        }


# Built-in tasks used by the CLI when no custom task definitions are given.
DEFAULT_TASKS: tuple[TaskSpec, ...] = (
    TaskSpec(
        id="running_amount",
        description=(
            "Estimate how much running and jogging activity takes place "
            "around this location, on a 0 (none) to 10 (very heavy) scale."
        ),
        output_key="running_amount",
    ),
    TaskSpec(
        id="boringness",
        description=(
            "Estimate how boring people perceive this place to be, on a "
            "0 (not boring at all) to 10 (extremely boring) scale."
        ),
        output_key="boringness_score",
    ),
    TaskSpec(
        id="liveliness",
        description=(
            "Estimate how lively people perceive this place to be, on a "
            "0 (deserted) to 10 (extremely lively) scale."
        ),
        output_key="liveliness_score",
    ),
)


def builtin_task(task_id: str) -> TaskSpec:
    for task in DEFAULT_TASKS:
        if task.id == task_id:
            return task
    known = ", ".join(t.id for t in DEFAULT_TASKS)
    raise ValueError(f"unknown task id {task_id!r} (built-in tasks: {known})")


@dataclass(frozen=True)
class PoiEntry:
    """A nearby point of interest with distance from the sample point."""

    name: str
    category: str
    distance_m: float

    def __post_init__(self) -> None:
        if not 0 <= self.distance_m < math.inf:
            raise ValueError(f"distance_m must be finite and nonnegative, got {self.distance_m}")

    def to_dict(self) -> dict:
        return {"name": self.name, "category": self.category, "distance_m": self.distance_m}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PoiEntry":
        return cls(
            name=str(data["name"]),
            category=str(data["category"]),
            distance_m=float(data["distance_m"]),
        )


@dataclass(frozen=True)
class LocationSample:
    """A study point with its resolved multi-source context.

    ``ground_truth`` maps task id to a value on the output scale; it is
    optional so the same type serves prediction-only runs.
    """

    id: str
    latitude: float
    longitude: float
    city: str = ""
    address: str | None = None
    pois: tuple[PoiEntry, ...] = ()
    streetview_refs: tuple[str, ...] = ()
    ground_truth: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("location id must be nonempty")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")
        object.__setattr__(self, "pois", tuple(self.pois))
        object.__setattr__(self, "streetview_refs", tuple(str(r) for r in self.streetview_refs))
        truth = {str(k): float(v) for k, v in dict(self.ground_truth).items()}
        for task_id, value in truth.items():
            if not OUTPUT_SCALE[0] <= value <= OUTPUT_SCALE[1]:
                raise ValueError(
                    f"ground truth for {task_id!r} out of {OUTPUT_SCALE}: {value}"
                )
        object.__setattr__(self, "ground_truth", truth)

    def to_dict(self) -> dict:
        data: dict = {
            "id": self.id,
            "lat": self.latitude,
            "lon": self.longitude,
            "city": self.city,
        }
        if self.address is not None:
            data["address"] = self.address
        if self.pois:
            data["pois"] = [p.to_dict() for p in self.pois]
        if self.streetview_refs:
            data["streetview_refs"] = list(self.streetview_refs)
        if self.ground_truth:
            data["ground_truth"] = dict(self.ground_truth)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "LocationSample":
        address, refs = data.get("address"), data.get("streetview_refs", [])
        if not (address is None or isinstance(address, str)):
            raise TypeError(f"address must be a string or null, not {address!r}")
        if not (isinstance(refs, list) and all(isinstance(ref, str) for ref in refs)):
            raise TypeError(f"streetview_refs must be a list of strings, not {refs!r}")
        return cls(
            id=str(data["id"]),
            latitude=float(data["lat"]),
            longitude=float(data["lon"]),
            city=str(data.get("city", "")),
            address=address,
            pois=tuple(PoiEntry.from_dict(p) for p in data.get("pois", ())),
            streetview_refs=tuple(refs),
            ground_truth=data.get("ground_truth", {}),
        )


def load_samples(path: str | Path) -> list[LocationSample]:
    """Load location samples from a line-delimited JSON file. A job is keyed
    by its location's id, so an id given twice raises ``ValueError``."""
    samples = load_jsonl(path, LocationSample.from_dict, "sample")
    seen: set[str] = set()
    for sample in samples:
        if sample.id in seen:
            raise ValueError(f"{path}: sample id {sample.id!r} is given twice")
        seen.add(sample.id)
    return samples


def load_jsonl(path: str | Path, from_dict: Callable[[Mapping], object], what: str) -> list:
    """``from_dict`` of each nonempty line of a line-delimited JSON file. Bad
    content raises ``ValueError`` naming ``path``, and the line when it has one."""
    records = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(from_dict(load_json(line)))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc}") from exc
    return records


def save_samples(samples: Iterable[LocationSample], path: str | Path) -> None:
    write_text_atomic(
        Path(path),
        (json.dumps(sample.to_dict(), ensure_ascii=False) + "\n" for sample in samples),
    )


def write_text_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temp file, then ``os.replace`` it onto
    ``path``, so a killed write never leaves a partial file behind.

    The chunks are written as given, with no newline translation. If the
    write or the rename fails, the temp file is removed and the error
    re-raised, so ``path`` keeps its old content and nothing else is left.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_stale_temp_files(path: Path) -> None:
    """Remove the temp files that killed :func:`write_text_atomic` calls left
    for ``path``, whose name may be a glob pattern."""
    for stale in path.parent.glob(f"{path.name}.*.tmp"):
        stale.unlink()


class Stopped(BaseException):
    """Raised where a model call begins once its stage has stopped. It is not
    an ``Exception``, so no handler of failed calls takes it for one."""


# The stop of the worker_pool stage that the current pool task belongs to.
_STAGE_STOP: contextvars.ContextVar[threading.Event] = contextvars.ContextVar("stage_stop")


def stage_stop() -> threading.Event:
    """The stop of the current pool task's stage; a fresh, unset event outside a pool."""
    return _STAGE_STOP.get(None) or threading.Event()


def raise_if_stopped() -> None:
    """Raise :class:`Stopped` if the current pool task's stage has stopped."""
    if stage_stop().is_set():
        raise Stopped("the stage has stopped")


@contextmanager
def worker_pool(width: int) -> Iterator[Callable[..., Future]]:
    """Open ``width`` threads and yield their ``submit(fn, *args)``, which runs
    ``fn`` in a copy of the submitter's ``contextvars`` context. At 4 x
    ``workers`` threads of one model call each, at most 4 x ``workers`` calls
    are in flight. The pool is one stage with one stop (:func:`stage_stop`).
    If the ``with`` body raises anything, ``KeyboardInterrupt`` included, the
    stop is set and queued work is cancelled; running work ends at its next
    model call (:func:`raise_if_stopped`), before the error propagates."""
    stop = threading.Event()
    with ThreadPoolExecutor(width) as pool:
        def submit(fn: Callable, /, *args) -> Future:
            context = contextvars.copy_context()
            context.run(_STAGE_STOP.set, stop)
            return pool.submit(context.run, fn, *args)
        try:
            yield submit
        except BaseException:
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise


def write_json_atomic(path: Path, doc: object) -> None:
    write_text_atomic(path, [json.dumps(doc, ensure_ascii=False, indent=1)])


def load_json(text: str) -> object:
    """``json.loads`` that also raises :class:`json.JSONDecodeError` for a
    document nested past the recursion limit or an integer longer than
    ``sys.get_int_max_str_digits()``, so every caller's handler for
    undecodable text covers them too."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except ValueError as exc:  # the int-string limit
        raise json.JSONDecodeError(str(exc), text, 0) from None


def http_request(
    url: str, headers: Mapping[str, str], timeout: float, data: bytes | None = None
) -> tuple[int, str]:
    """GET ``url``, or POST ``data`` to it; return ``(status, body)``, the
    body decoded as UTF-8.

    An HTTP error status is returned like a success, for the caller to
    judge; connection errors and timeouts raise.
    """
    # Imported here: urllib.request loads ssl, a few MiB that offline runs never use.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=data, headers=dict(headers))
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            status, raw = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            status, raw = exc.code, exc.read()
    return status, raw.decode("utf-8", errors="replace")


def normalized_factor_name(name: str) -> str:
    """Factor names are deduplicated after lowercasing and trimming."""
    return name.strip().lower()


@dataclass(frozen=True)
class PredictiveFactor:
    """A named, measurable determinant of the target outcome.

    Construction is permissive (model output passes through here);
    :func:`validate_factor_set` reports the violations.
    """

    name: str
    description: str

    def to_dict(self) -> dict:
        return {"name": self.name, "description": self.description}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredictiveFactor":
        return cls(name=str(data.get("name", "")), description=str(data.get("description", "")))


@dataclass(frozen=True)
class FactorSet:
    """The predictive factors guiding extraction for one pair."""

    pair: Pair
    factors: tuple[PredictiveFactor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)


def validate_factor_set(fs: FactorSet) -> list[str]:
    """Check a factor set built from untrusted model output.

    Returns the list of violations; an empty list means the set is
    accepted. Never raises.
    """
    violations: list[str] = []
    count = len(fs.factors)
    if count != FACTORS_PER_SET:
        violations.append(f"count={count}, expected {FACTORS_PER_SET}")
    seen: dict[str, str] = {}
    for factor in fs.factors:
        if not factor.name.strip():
            violations.append("factor with empty name")
            continue
        if "\n" in factor.name or "\r" in factor.name:
            violations.append(f"factor name contains a line break: {factor.name!r}")
        if not factor.description.strip():
            violations.append(f"factor {factor.name!r} has an empty description")
        key = normalized_factor_name(factor.name)
        if key in seen:
            violations.append(
                f"duplicate factor name after normalization: {factor.name!r} vs {seen[key]!r}"
            )
        else:
            seen[key] = factor.name
    return violations


@dataclass(frozen=True)
class FieldValue:
    """One extracted factor value with provenance and repair bookkeeping."""

    text: str
    provenance: str
    similarity: float | None = None
    repair_rounds: int = 0

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("field text must be nonempty")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"bad provenance {self.provenance!r}")
        if self.similarity is not None and not 0.0 <= self.similarity <= 1.0:
            raise ValueError(f"similarity out of [0, 1]: {self.similarity}")
        if self.repair_rounds < 0:
            raise ValueError("repair_rounds must be nonnegative")

    def to_dict(self) -> dict:
        data: dict = {"text": self.text, "provenance": self.provenance}
        if self.similarity is not None:
            data["similarity"] = self.similarity
        if self.repair_rounds:
            data["repair_rounds"] = self.repair_rounds
        return data


@dataclass(frozen=True)
class UrbanInfoRecord:
    """Structured extraction output for one location under one pair.

    ``fields`` is an ordered mapping whose keys must equal the six factor
    names of the governing factor set, in the same order. A record names no
    task: the ``no_factors`` jobs of every task share one, and the job's task
    is written with it (:meth:`to_dict`). Raw records come
    straight from the extractor; the reliability layer settles them into
    stable / refined / low_confidence.
    """

    location_id: str
    pair: Pair
    fields: Mapping[str, FieldValue]
    status: str = "raw"

    def __post_init__(self) -> None:
        if self.status not in RECORD_STATUSES:
            raise ValueError(f"bad record status {self.status!r}")
        object.__setattr__(self, "fields", dict(self.fields))

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(self.fields)

    def settle(self, status: str, fields: Mapping[str, FieldValue] | None = None) -> "UrbanInfoRecord":
        """Return a copy in a settled status; only raw records may settle."""
        # Records start raw and settle exactly once, into a non-raw status.
        if self.status != "raw" or status not in RECORD_STATUSES[1:]:
            raise ValueError(f"illegal status transition {self.status!r} -> {status!r}")
        return replace(self, status=status, fields=dict(fields if fields is not None else self.fields))

    def to_dict(self, task_id: str) -> dict:
        return {
            "location_id": self.location_id,
            "task_id": task_id,
            "dimension": self.pair.dimension.value,
            "level": self.pair.level.value,
            "status": self.status,
            "fields": {name: value.to_dict() for name, value in self.fields.items()},
        }


@dataclass(frozen=True)
class SimilarityReport:
    """Per-field similarity between two extraction variants, and the verdict.

    ``aggregate`` (the mean score) and ``conflicting`` (the fields scoring
    below ``threshold``) are derived from ``per_field`` at construction.
    """

    per_field: Mapping[str, float]
    threshold: float
    aggregate: float = field(init=False)
    conflicting: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        per_field = dict(self.per_field)
        if not per_field:
            raise ValueError("per_field must not be empty")
        for name, score in per_field.items():
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score for {name!r} out of [0, 1]: {score}")
        object.__setattr__(self, "per_field", per_field)
        object.__setattr__(self, "aggregate", math.fsum(per_field.values()) / len(per_field))
        conflicting = frozenset(n for n, s in per_field.items() if s < self.threshold)
        object.__setattr__(self, "conflicting", conflicting)

    def to_dict(self) -> dict:
        return {
            "per_field": dict(self.per_field),
            "aggregate": self.aggregate,
            "conflicting": sorted(self.conflicting),
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class PredictionOutput:
    """A bounded numeric prediction for one (location, task, variant)."""

    location_id: str
    task_id: str
    value: float
    variant: str
    rationale: str | None = None
    clamped: bool = False

    def __post_init__(self) -> None:
        if not OUTPUT_SCALE[0] <= self.value <= OUTPUT_SCALE[1]:
            raise ValueError(f"prediction value out of {OUTPUT_SCALE}: {self.value}")

    def to_dict(self) -> dict:
        data: dict = {
            "location_id": self.location_id,
            "task_id": self.task_id,
            "variant": self.variant,
            "value": self.value,
            "clamped": self.clamped,
        }
        if self.rationale:
            data["rationale"] = self.rationale
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "PredictionOutput":
        return cls(
            location_id=str(data["location_id"]),
            task_id=str(data["task_id"]),
            value=float(data["value"]),
            variant=str(data["variant"]),
            rationale=data.get("rationale"),
            clamped=bool(data.get("clamped", False)),
        )
