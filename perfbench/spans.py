"""Spans recorded from outside the program, for the benchmark's traced runs.

The tracer replaces the module attributes that each caller looks up (for
example ``urbanmas.pipeline.extract_reliable``, which ``predict_location``
calls) with wrappers that record a span, and wraps the backend that
``urbanmas.cli.make_backend`` returns in a proxy that records one span per
chat call. A name that no longer exists raises :class:`TraceError` at
install time, so a refactor cannot drop a layer from the figures silently.

Spans live in memory as tuples and are written out once, at the end. The
current span travels in a ``contextvars`` variable; where a module still
uses ``ThreadPoolExecutor``, its pools are swapped for one that carries
the context into the worker thread, so child spans keep their parent and
the job's trace id. Attribute names follow the OpenTelemetry GenAI
semantic conventions where one exists (``gen_ai.*``, ``error.type``).
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). Each is the name its caller looks up.
WRAPPED = (
    ("urbanmas.cli", "make_backend", "backend.make"),
    ("urbanmas.cli", "guide", "guidance.guide"),
    ("urbanmas.cli", "write_manifest", "io.write_manifest"),
    ("urbanmas.cli", "write_predictions", "io.write_predictions"),
    ("urbanmas.cli", "write_audit", "io.write_audit"),
    ("urbanmas.cli", "write_similarity_log", "io.write_similarity_log"),
    ("urbanmas.guidance", "load_factor_cache", "io.load_factor_cache"),
    ("urbanmas.pipeline", "predict_location", "pipeline.job"),
    ("urbanmas.pipeline", "extract_reliable", "extraction.reliable"),
    ("urbanmas.pipeline", "infer", "inference.infer"),
    ("urbanmas.pipeline", "infer_single_llm", "inference.single"),
    ("urbanmas.extraction", "extract_variants", "extraction.variants"),
    ("urbanmas.extraction", "evaluate", "reliability.evaluate"),
    ("urbanmas.extraction", "reconcile", "reliability.reconcile"),
    ("urbanmas.reliability", "soft_sim", "reliability.soft_sim"),
)
# Modules whose thread pools get context propagation when they have one.
POOL_MODULES = ("urbanmas.cli", "urbanmas.guidance", "urbanmas.pipeline", "urbanmas.extraction")

CHAT_SPAN = "chat"
CALL_KINDS = ("research", "summary", "extract", "reask", "refine", "infer", "single")

# Span tuple fields.
SPAN_ID, PARENT, TRACE, NAME, START, END, ATTRS = range(7)


class TraceError(RuntimeError):
    """A traced name is gone, or a traced layer recorded nothing."""


def call_kind(req) -> str:
    """Classify a chat request by its prompts: one of CALL_KINDS, or 'other'."""
    system = req.system_prompt
    if "research analyst" in system:
        return "research"
    if "distill urban research briefs" in system:
        return "summary"
    if "information extraction agent" in system:
        return "reask" if "previous response was unusable" in req.user_prompt else "extract"
    if "information refiner" in system:
        return "refine"
    if "urban prediction agent" in system:
        return "infer" if "Structured urban information" in req.user_prompt else "single"
    return "other"


def request_identity(req) -> str:
    """Content hash of a request: prompts, sorted images, format and seed."""
    payload = json.dumps(
        [req.system_prompt, req.user_prompt, sorted(req.image_refs),
         req.response_format, req.variant_seed]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _job_attrs(args: tuple, kwargs: dict) -> dict:
    sample, task, variant = (list(args) + [None] * 3)[:3]
    sample = kwargs.get("sample", sample)
    task = kwargs.get("task", task)
    variant = kwargs.get("variant", variant)
    return {
        "urbanmas.location.id": getattr(sample, "id", None),
        "urbanmas.task.id": getattr(task, "id", None),
        "urbanmas.variant": variant,
    }


def _soft_sim_attrs(args: tuple, kwargs: dict) -> dict:
    return {"urbanmas.operand_chars": max(len(args[0]), len(args[1]))}


_ATTRS = {"pipeline.job": _job_attrs, "reliability.soft_sim": _soft_sim_attrs}
_NEW_TRACE = {"pipeline.job", "guidance.guide"}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int, int] | None] = contextvars.ContextVar(
            "bench_span", default=None
        )
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None, new_trace: bool = False):
        """Record one span; yields its attribute dict for the caller to fill."""
        span_id = next(self._ids)
        parent = self._current.get()
        trace_id = span_id if new_trace or parent is None else parent[1]
        attrs = {} if attrs is None else attrs
        token = self._current.set((span_id, trace_id))
        start = time.perf_counter_ns()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error.type"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append(
                (span_id, parent[0] if parent else None, trace_id, name, start, end, attrs)
            )

    def _wrap(self, fn, name: str):
        attrs_fn = _ATTRS.get(name)
        new_trace = name in _NEW_TRACE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            with tracer.span(name, attrs, new_trace):
                result = fn(*args, **kwargs)
            if name == "backend.make":
                return TracedBackend(result, tracer)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every name in WRAPPED; raises TraceError if one is missing."""
        if self._patched:
            raise TraceError("tracer is already installed")
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                if not callable(getattr(module, attr, None)):
                    raise TraceError(
                        f"{module_name}.{attr} no longer exists; the {name.split('.')[0]} "
                        "layer cannot be traced, so the benchmark must be updated"
                    )
                self._patch(module, attr, self._wrap(getattr(module, attr), name))
            for module_name in POOL_MODULES:
                module = importlib.import_module(module_name)
                if getattr(module, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                    self._patch(module, "ThreadPoolExecutor", ContextPool)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def check_coverage(self) -> None:
        """Fail when a wrapped layer or the chat proxy recorded no span."""
        seen = {span[NAME] for span in self.spans}
        missing = [name for _m, _a, name in WRAPPED if name not in seen]
        if CHAT_SPAN not in seen:
            missing.append(CHAT_SPAN)
        if missing:
            raise TraceError(f"traced layers recorded no span: {missing}")

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, trace_id, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "span_id": span_id, "parent_span_id": parent, "trace_id": trace_id,
                    "name": name, "start_ns": start, "end_ns": end, "attributes": attrs,
                }) + "\n")


class ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor that runs each task in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class TracedBackend:
    """Proxy around a chat backend that records one span per call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def complete(self, req):
        attrs = {
            "gen_ai.operation.name": "chat",
            "gen_ai.request.seed": req.variant_seed,
            "gen_ai.output.type": "json" if req.response_format == "structured_object" else "text",
            "urbanmas.call.kind": call_kind(req),
            "urbanmas.request.id": request_identity(req),
        }
        with self._tracer.span(CHAT_SPAN, attrs):
            resp = self._inner.complete(req)
        attrs["urbanmas.response.chars"] = len(resp.text)
        return resp

    def __getattr__(self, name):
        return getattr(self._inner, name)


class CountingBackend:
    """Proxy that only counts calls; used by the untraced runs."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, req):
        with self._lock:
            self.calls += 1
        return self._inner.complete(req)

    def __getattr__(self, name):
        return getattr(self._inner, name)
