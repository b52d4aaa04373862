"""Chat-completion backends: live HTTP, deterministic mock, and the read-through store.

Every agent call in the pipeline goes through :class:`ChatBackend.complete`,
so swapping the model is a construction-time decision. The mock backend is a
pure function of ``(system_prompt, user_prompt, variant_seed)`` and ships
with a responder that understands the pipeline's prompt shapes, which makes
whole runs executable offline with no fixtures. :class:`CassetteBackend` is
the one request-identity store: it asks its inner backend once per missing
fingerprint. Replay gives it only a cassette (line-delimited JSON, one
``{"fingerprint": ..., "response": {"text": ...}}`` per line), record a
cassette and an inner backend, and live an inner backend and no file, so a
live run pays once for each distinct request. A response is its text and
nothing else, so a recording depends only on its requests and their
answers: it is replayed exactly, writes each fingerprint once, resumes
where an earlier one stopped, and is rewritten in fingerprint order when it
closes. Keys other than ``text`` in a response, which older recordings
carry, are ignored on load. Replay from a cassette is the only sanctioned
path for CI.

Environment for the live backend: ``URBANMAS_API_KEY``, ``URBANMAS_API_BASE``
(OpenAI-compatible chat-completions endpoint) and ``URBANMAS_MODEL``.
"""

from __future__ import annotations

import base64
import glob
import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from . import domain
from .domain import http_request, load_json, remove_stale_temp_files, write_text_atomic
from .errors import (
    AuthenticationError,
    CassetteFormatError,
    ReplayMissError,
    TransportExhaustedError,
)

logger = logging.getLogger(__name__)

RESPONSE_FORMATS = ("free_text", "structured_object")

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE_S = 0.5


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request.

    ``variant_seed`` tags independent generations of the same prompt; the
    mock backend keys fixture slots on it and the live backend maps it to
    separate API calls.
    """

    system_prompt: str
    user_prompt: str
    image_refs: tuple[str, ...] = ()
    response_format: str = "free_text"
    variant_seed: int = 0

    def __post_init__(self) -> None:
        if not self.system_prompt or not self.user_prompt:
            raise ValueError("prompts must be nonempty")
        if self.response_format not in RESPONSE_FORMATS:
            raise ValueError(f"bad response_format {self.response_format!r}")
        if self.variant_seed < 0:
            raise ValueError("variant_seed must be >= 0")
        object.__setattr__(self, "image_refs", tuple(str(r) for r in self.image_refs))


@dataclass(frozen=True)
class ChatResponse:
    """Raw model output; validation belongs to callers."""

    text: str


def fingerprint(req: ChatRequest) -> str:
    """Stable content hash of a request; image order is canonicalized."""
    payload = json.dumps(
        {
            "system": req.system_prompt,
            "user": req.user_prompt,
            "images": sorted(req.image_refs),
            "format": req.response_format,
            "seed": req.variant_seed,
        },
        sort_keys=True,
        ensure_ascii=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ChatBackend:
    """Interface all backends implement."""

    def complete(self, req: ChatRequest) -> ChatResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Finish the run's use of the backend; nothing to do by default."""


# --------------------------------------------------------------------------
# Deterministic mock
# --------------------------------------------------------------------------

def _digest(*parts: object) -> int:
    joined = "\x1f".join(str(p) for p in parts)
    return int(hashlib.sha256(joined.encode("utf-8")).hexdigest()[:12], 16)


_FACTOR_VOCAB = [
    ("population density", "Number of residents per square kilometer in the surrounding area."),
    ("greenery coverage", "Share of visible vegetation such as trees, lawns and planted areas."),
    ("commercial activity", "Density and variety of shops, restaurants and services."),
    ("pedestrian infrastructure", "Quality and continuity of sidewalks, crossings and paths."),
    ("public transport access", "Proximity and frequency of transit stops and stations."),
    ("street lighting", "Coverage and perceived adequacy of lighting after dark."),
    ("building condition", "Maintenance state and visual quality of surrounding buildings."),
    ("open space availability", "Presence of parks, plazas and other accessible open areas."),
    ("traffic intensity", "Volume and speed of motorized traffic on nearby streets."),
    ("social gathering spots", "Venues where people habitually meet, such as cafes or squares."),
    ("land use mix", "Blend of residential, commercial and recreational uses nearby."),
    ("street cleanliness", "Visible litter, graffiti and overall upkeep of the streetscape."),
]

_INTENSITY = ["very limited", "limited", "modest", "moderate", "notable", "high", "very high"]

_CONFLICT_TEXTS = [
    "entirely dominated by fenced industrial yards with no public access",
    "construction hoarding blocks every view and all activity here",
    "an empty parking structure occupies the whole frontage",
]

_KEYS_MARKER_RE = re.compile(r"exactly these keys:\s*(\[.*?\])", re.DOTALL)
_SCHEMA_MARKER_RE = re.compile(r'\{"(\w+)":\s*<number')
_VALUE_A_RE = re.compile(r'Value A:\s*("(?:[^"\\]|\\.)*")')
_REPORT_LINE_RE = re.compile(r"^\s*\d+\.\s*([^:\n]+):\s*(.+)$", re.MULTILINE)


def _mock_research(req: ChatRequest) -> str:
    seed = _digest("research", req.user_prompt, req.variant_seed)
    names = list(_FACTOR_VOCAB)
    picked = []
    for i in range(domain.FACTORS_PER_SET):
        picked.append(names.pop((seed >> (i * 4)) % len(names)))
    lines = [
        "Synthesis of the most influential predictive factors for this task, "
        "dimension and level, based on the urban studies literature and "
        "comparable prediction exercises.",
        "",
    ]
    for i, (name, desc) in enumerate(picked, 1):
        lines.append(f"{i}. {name}: {desc}")
    lines += [
        "",
        "Each factor above is measurable from the available multi-source "
        "context (resolved address, nearby points of interest and street-level "
        "imagery) and has documented association with the target outcome. "
        "Factors are ordered by expected predictive contribution.",
    ]
    return "\n".join(lines)


def _mock_summary(req: ChatRequest) -> str:
    count = domain.FACTORS_PER_SET
    found = _REPORT_LINE_RE.findall(req.user_prompt)
    factors = [
        {"name": name.strip(), "description": desc.strip()} for name, desc in found[:count]
    ]
    seed = _digest("summary", req.user_prompt, req.variant_seed)
    pool = list(_FACTOR_VOCAB)
    while len(factors) < count and pool:
        name, desc = pool.pop(seed % len(pool))
        if all(f["name"] != name for f in factors):
            factors.append({"name": name, "description": desc})
    return json.dumps({"factors": factors})


def _mock_extraction(req: ChatRequest, keys_blob: str) -> str:
    try:
        keys = json.loads(keys_blob)
    except json.JSONDecodeError:
        keys = []
    context = req.user_prompt.split("Factors to extract", 1)[0]
    values = {}
    for key in keys:
        base_seed = _digest("extract", context, key)
        conflicted = base_seed % 6 == 0 and req.variant_seed > 0
        if conflicted:
            values[key] = _CONFLICT_TEXTS[base_seed % len(_CONFLICT_TEXTS)]
        else:
            intensity = _INTENSITY[base_seed % len(_INTENSITY)]
            values[key] = f"{intensity} {key} observed around this location"
    return json.dumps(values)


def _mock_inference(req: ChatRequest, output_key: str) -> str:
    seed = _digest("infer", req.user_prompt, output_key)
    value = (seed % 101) / 10.0
    return json.dumps(
        {
            output_key: value,
            "rationale": "estimate derived from the supplied structured urban information",
        }
    )


def deterministic_responder(req: ChatRequest) -> str:
    """Default mock responder understanding the pipeline's prompt shapes.

    Pure function of the request content. Recognizes, in order: refine
    prompts (returns the quoted Value A), extraction prompts (fills the
    requested keys), factor-summary prompts, numeric-schema prompts, and
    research prompts; anything else gets a deterministic placeholder.
    """
    value_a = _VALUE_A_RE.search(req.user_prompt)
    if value_a and "Value B:" in req.user_prompt:
        return json.loads(value_a.group(1))
    keys = _KEYS_MARKER_RE.search(req.user_prompt)
    if keys:
        return _mock_extraction(req, keys.group(1))
    if '"factors"' in req.user_prompt:
        return _mock_summary(req)
    schema = _SCHEMA_MARKER_RE.search(req.user_prompt)
    if schema:
        return _mock_inference(req, schema.group(1))
    if "research" in req.system_prompt.lower():
        return _mock_research(req)
    seed = _digest("generic", req.system_prompt, req.user_prompt, req.variant_seed)
    return f"deterministic mock response {seed:012x}"


Rule = tuple[Callable[[ChatRequest], bool], Callable[[ChatRequest], str]]


class MockBackend(ChatBackend):
    """Deterministic backend: a rule list consulted in order, then
    :func:`deterministic_responder`.

    Responses are a pure function of the request and the configured rules,
    so outputs are independent of call order and concurrency schedule.
    """

    def __init__(self):
        self._rules: list[Rule] = []
        self._lock = threading.Lock()
        self.call_count = 0

    def add_rule(
        self,
        predicate: Callable[[ChatRequest], bool],
        response: str | Callable[[ChatRequest], str],
    ) -> "MockBackend":
        responder = response if callable(response) else (lambda _req, _text=response: _text)
        self._rules.append((predicate, responder))
        return self

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
        for predicate, responder in self._rules:
            if predicate(req):
                return ChatResponse(responder(req))
        return ChatResponse(deterministic_responder(req))


# --------------------------------------------------------------------------
# Cassette record / replay
# --------------------------------------------------------------------------

class CassetteBackend(ChatBackend):
    """Read-through fingerprint -> response store, over a cassette or in memory.

    A cassette (``path`` not None) is loaded once. A hit serves the stored
    response. A miss without an ``inner`` backend is a :class:`ReplayMissError`
    (replay); with one, the inner backend is called once per fingerprint, the
    response is stored and appended to the cassette, if any, and every caller
    with that fingerprint gets that same response, concurrent ones included
    (record, live). A failed inner call stores nothing. An unterminated last
    line that does not parse is an append cut short: it is dropped with a
    warning. Opening a cassette for record cuts such a line, ends a whole
    one, removes a killed rewrite's temp files and makes its directory.
    """

    def __init__(self, path: str | Path | None, inner: ChatBackend | None = None):
        self.path = None if path is None else Path(path)
        self._inner = inner
        if self.path is not None and inner is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            remove_stale_temp_files(self.path.with_name(glob.escape(self.path.name)))
        self._entries = self._load()
        self._in_flight: dict[str, Future] = {}
        self._lock = threading.Lock()
        self._appended = False

    def _load(self) -> dict[str, ChatResponse]:
        entries: dict[str, ChatResponse] = {}
        if self.path is None or not self.path.exists():
            return entries
        raw, torn = b"\n", False
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                try:
                    data = load_json(raw.decode("utf-8"))
                    fp, text = data["fingerprint"], data["response"]["text"]
                    if not isinstance(fp, str) or not isinstance(text, str):
                        raise TypeError("fingerprint and text must be strings")
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    if raw.endswith(b"\n"):
                        raise CassetteFormatError(
                            f"{self.path}:{lineno}: bad cassette line: {exc}"
                        ) from exc
                    logger.warning("%s:%d: dropping torn cassette line: %s", self.path, lineno, exc)
                    torn = True
                    continue
                if fp in entries:
                    logger.warning("duplicate cassette fingerprint %s; last write wins", fp)
                entries[fp] = ChatResponse(text)
        if self._inner is not None and not raw.endswith(b"\n"):
            with open(self.path, "ab") as fh:  # rewrite the last line: dropped if torn, else ended
                fh.truncate(fh.tell() - len(raw))
                fh.write(b"" if torn else raw + b"\n")
        return entries

    def complete(self, req: ChatRequest) -> ChatResponse:
        fp = fingerprint(req)
        with self._lock:
            stored = self._entries.get(fp)
            if stored is not None:
                return stored
            if self._inner is None:
                head = req.user_prompt.splitlines()[0][:80]
                raise ReplayMissError(
                    f"no cassette entry in {self.path} for fingerprint {fp} "
                    f"(seed={req.variant_seed}, prompt starts: {head!r})"
                )
            pending = self._in_flight.get(fp)
            owner = pending is None
            if owner:
                pending = self._in_flight[fp] = Future()
        if not owner:
            return pending.result()
        try:
            resp = self._inner.complete(req)
            line = json.dumps(
                {"fingerprint": fp, "response": {"text": resp.text}}, ensure_ascii=False
            )
            with self._lock:
                if self.path is not None:
                    with open(self.path, "a", encoding="utf-8") as fh:
                        fh.write(line + "\n")
                    self._appended = True
                self._entries[fp] = resp
                del self._in_flight[fp]
        except BaseException as exc:
            with self._lock:
                self._in_flight.pop(fp, None)
            pending.set_exception(exc)
            raise
        pending.set_result(resp)
        return resp

    def close(self) -> None:
        """Rewrite a cassette this run appended to: one line per fingerprint,
        the last one, sorted by fingerprint, so a finished recording does not
        depend on the order its calls completed in."""
        with self._lock:
            if not self._appended:
                return
            with open(self.path, encoding="utf-8", newline="") as fh:
                lines = {load_json(line)["fingerprint"]: line for line in fh if line.strip()}
            write_text_atomic(self.path, [lines[fp] for fp in sorted(lines)])
            self._appended = False


# --------------------------------------------------------------------------
# Live OpenAI-compatible backend
# --------------------------------------------------------------------------

class RateLimiter:
    """Token-bucket limiter for a requests-per-minute budget. Thread-safe.

    The bucket holds one second's budget (at least one token), so a burst,
    such as the retries after an outage, is spread over the minute instead
    of released at once. A caller that finds the bucket empty reserves the
    next token (the count goes below zero) and sleeps until it is due, so
    waiting callers are served in arrival order and never re-poll.
    """

    def __init__(
        self,
        requests_per_minute: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        self._rate = requests_per_minute / 60.0
        self._capacity = max(1.0, self._rate)
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        """Take the next token, sleeping once until it is due."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate)
            self._last = now
            self._tokens -= 1.0
            wait = -self._tokens / self._rate
        if wait > 0:
            self._sleep(wait)


Transport = Callable[[str, Mapping[str, str], Mapping], tuple[int, str]]


def _http_post(url: str, headers: Mapping[str, str], payload: Mapping) -> tuple[int, str]:
    return http_request(url, headers, timeout=120, data=json.dumps(payload).encode("utf-8"))


def _image_part(ref: str) -> dict | None:
    if ref.startswith(("http://", "https://", "data:")):
        return {"type": "image_url", "image_url": {"url": ref}}
    path = Path(ref)
    if path.is_file():
        suffix = path.suffix.lstrip(".").lower() or "jpeg"
        mime = "image/jpeg" if suffix in ("jpg", "jpeg") else f"image/{suffix}"
        encoded = base64.b64encode(path.read_bytes()).decode("ascii")
        return {"type": "image_url", "image_url": {"url": f"data:{mime};base64,{encoded}"}}
    logger.warning("dropping unusable image ref %r", ref)
    return None


@dataclass
class LiveConfig:
    """Connection settings for the live endpoint, overridable per field."""

    api_base: str = ""
    api_key: str = ""
    model: str = ""
    temperature: float | None = None
    top_p: float | None = None
    requests_per_minute: float = 60.0

    @classmethod
    def from_env(cls, **overrides) -> "LiveConfig":
        cfg = cls(
            api_base=os.environ.get("URBANMAS_API_BASE", ""),
            api_key=os.environ.get("URBANMAS_API_KEY", ""),
            model=os.environ.get("URBANMAS_MODEL", ""),
        )
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        return cfg


class LiveBackend(ChatBackend):
    """OpenAI-compatible chat-completions client with retry and rate limiting.

    Missing credentials fail when it is made, rejected ones at once.
    Transient transport failures (connection errors, 429, 5xx) are retried
    with exponential backoff. A token bucket enforces the requests-per-minute
    budget; the calling threads bound how many requests are in flight.
    """

    def __init__(
        self,
        config: LiveConfig,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rate_limiter: RateLimiter | None = None,
    ):
        if not config.api_key:
            raise AuthenticationError("URBANMAS_API_KEY is not set")
        if not config.api_base:
            raise AuthenticationError("URBANMAS_API_BASE is not set")
        self.config = config
        self._url = config.api_base.rstrip("/") + "/chat/completions"
        self._headers = {
            "Authorization": f"Bearer {config.api_key}",
            "Content-Type": "application/json",
        }
        self._transport = transport or _http_post
        self._sleep = sleep
        self._limiter = rate_limiter or RateLimiter(self.config.requests_per_minute, sleep=sleep)

    def _payload(self, req: ChatRequest) -> dict:
        if req.image_refs:
            parts: list[dict] = [{"type": "text", "text": req.user_prompt}]
            parts.extend(p for p in (_image_part(r) for r in sorted(req.image_refs)) if p)
            user_content: object = parts
        else:
            user_content = req.user_prompt
        payload: dict = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": user_content},
            ],
            "seed": req.variant_seed,
        }
        if req.response_format == "structured_object":
            payload["response_format"] = {"type": "json_object"}
        if self.config.temperature is not None:
            payload["temperature"] = self.config.temperature
        if self.config.top_p is not None:
            payload["top_p"] = self.config.top_p
        return payload

    def complete(self, req: ChatRequest) -> ChatResponse:
        payload = self._payload(req)
        for attempt in range(1, DEFAULT_MAX_ATTEMPTS + 1):
            if attempt > 1:
                logger.warning("attempt %d/%d failed: %s", attempt - 1, DEFAULT_MAX_ATTEMPTS, last_error)
                self._sleep(DEFAULT_BACKOFF_BASE_S * (2 ** (attempt - 2)))
            self._limiter.acquire()
            try:
                status, body = self._transport(self._url, self._headers, payload)
            except Exception as exc:
                last_error = f"transport error: {exc}"
                continue
            if status in (401, 403):
                raise AuthenticationError(f"endpoint rejected credentials (HTTP {status})")
            if status == 200:
                try:
                    text = load_json(body)["choices"][0]["message"]["content"]
                except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                    last_error = f"malformed completion body: {exc}"
                    continue
                return ChatResponse(text if isinstance(text, str) else json.dumps(text))
            last_error = f"HTTP {status}: {body[:200]}"
            if status not in (408, 409, 429) and status < 500:
                break
        raise TransportExhaustedError(f"gave up after {attempt} attempt(s): {last_error}")
