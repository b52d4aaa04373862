"""Simulated OpenAI-compatible chat endpoint for the benchmark (stdlib only).

Run as its own process on loopback::

    python3 perfbench/endpoint.py --seed 7 --base-ms 100 --per-char-ms 0.03

It prints ``PORT <n>`` once it listens, serves ``POST /chat/completions`` in
the shape ``LiveBackend`` posts, and exits when its standard input closes,
so it never outlives the benchmark that started it.

Answers are a pure function of the request content and ``--seed``:

- the prompt shapes are answered by ``urbanmas.backend.deterministic_responder``;
- extraction values are lengthened to a seeded 60-400 character ladder, so
  the consistency gate sees realistic field lengths, and second variants
  disagree on a fixed four fields per location and pair set;
- the refiner sides with value B for one of those four fields (25%), which
  then stays in conflict and settles low-confidence after the repair budget;
- a seeded share of inference answers fall just outside [0, 10] and get
  clamped;
- a seeded share of first-attempt structured answers is malformed JSON,
  which exercises re-asks and schema retries (retry prompts are never
  malformed, so no job fails);
- a seeded share of payloads answers HTTP 503 the first time it is seen
  after a reset, which exercises the client's HTTP retry.

Latency is ``--base-ms`` plus ``--per-char-ms`` per output character; the
handler threads only sleep. Because answers never vary for one payload,
the endpoint does not model a sampling model, so it cannot show the
"replay drift" defect of recording duplicate fingerprints.

``GET /stats`` returns counters since the last ``POST /reset``: requests,
503s, distinct payloads, in-flight mean and peak, and the median service
time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from urbanmas.backend import ChatRequest, deterministic_responder  # noqa: E402

FIELD_MIN_CHARS = 60
FIELD_MAX_CHARS = 400
# Shares, in thousandths, of inference answers above 10 and of malformed
# first-attempt structured answers.
CLAMP_PERMILLE = 30
MALFORMED_PERMILLE = 20

_KEYS_RE = re.compile(r"exactly these keys:\s*\[")
_REFINE_RE = re.compile(r'Value A:\s*("(?:[^"\\]|\\.)*")\s*\nValue B:\s*("(?:[^"\\]|\\.)*")')
_RETRY_RE = re.compile(r"Your previous (?:response|factor set) was (?:unusable|invalid|rejected)")
_SCHEMA_RE = re.compile(r'\{"(\w+)":\s*<number')

_PAIR_RE = re.compile(r"on the (social|built environmental) dimension at the (macro|street) level")
_PAIR_INDEX = {
    ("social", "macro"): 0, ("social", "street"): 1,
    ("built environmental", "macro"): 2, ("built environmental", "street"): 3,
}
_CONFLICTS_PER_PAIR = (0, 1, 1, 2)
_DISSENT = (
    "entirely dominated by fenced industrial yards with no public access",
    "construction hoarding blocks every view and all activity here",
    "an empty parking structure occupies the whole frontage",
)
# Dissenting values the refiner sides with, so their fields stay in conflict.
_STUBBORN = (
    "a closed rail cutting separates the site from everything around it",
    "the whole block is a walled private compound without street life",
)
# Lengthening may cut a value short, but never below its first 30 characters.
_STUBBORN_MARKS = tuple(text[:30] for text in _STUBBORN)

_FILLER = (
    "with sidewalks that narrow near the junction",
    "where residents cross between the tram stop and the shops",
    "as seen along the block frontage in the imagery",
    "shaped by mid-rise housing and ground-floor retail",
    "which changes noticeably between weekday mornings and evenings",
    "next to a row of mature plane trees and benches",
    "with cyclists sharing the carriageway at low speed",
    "around a small square used for markets on weekends",
    "bounded by a busy arterial road on the north side",
    "close to school entrances and a neighborhood library",
    "where lighting is uneven beyond the main corridor",
    "with parked cars occupying most of the curb space",
)


def _h(*parts: object) -> int:
    joined = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(joined.encode("utf-8")).digest()[:8], "big")


def _lengthen(seed: int, context: str, key: str, value: str, target: int) -> str:
    """Extend one extraction value to about ``target`` characters.

    The filler depends on the value, so equal variant values stay equal
    and conflicting ones stay apart.
    """
    text = value
    i = 0
    while len(text) < target:
        text += ", " + _FILLER[_h(seed, "fill", context, key, value, i) % len(_FILLER)]
        i += 1
    if len(text) > target:
        text = text[:target].rsplit(" ", 1)[0]
    return text


def _field_lengths(seed: int, context: str, keys: list[str]) -> dict[str, int]:
    """Seeded lengths for one extraction: a permutation of an even 60-400 ladder.

    Every extraction gets the same multiset of lengths (with a small
    seeded jitter), so the gate's cost per job does not depend on which
    locations the seed drew.
    """
    order = sorted(keys, key=lambda k: _h(seed, "len", context, k))
    step = (FIELD_MAX_CHARS - FIELD_MIN_CHARS) / max(1, len(keys) - 1)
    return {
        key: min(FIELD_MAX_CHARS, int(FIELD_MIN_CHARS + rank * step) + _h(seed, "jitter", context, key) % 9)
        for rank, key in enumerate(order)
    }


class Simulator:
    """Answers and counters of the simulated endpoint; thread-safe."""

    def __init__(self, seed: int, base_ms: float, per_char_ms: float,
                 unavailable_permille: int):
        self.seed = seed
        self.base_ms = base_ms
        self.per_char_ms = per_char_ms
        self.unavailable_permille = unavailable_permille
        self._lock = threading.Lock()
        self._in_flight = 0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._started = time.perf_counter()
            self._requests = 0
            self._unavailable = 0
            self._payloads: set[int] = set()
            self._failed_once: set[int] = set()
            self._peak = self._in_flight
            self._service_ms: list[float] = []

    def stats(self) -> dict:
        with self._lock:
            window_s = time.perf_counter() - self._started
            service = list(self._service_ms)
            return {
                "requests": self._requests,
                "unavailable": self._unavailable,
                "distinct_payloads": len(self._payloads),
                "in_flight_peak": self._peak,
                "in_flight_mean": (sum(service) / 1000.0 / window_s) if window_s > 0 else 0.0,
                "service_ms_p50": statistics.median(service) if service else 0.0,
            }

    def _request(self, payload: dict) -> ChatRequest:
        system, user, images = "", "", []
        for message in payload["messages"]:
            content = message["content"]
            if isinstance(content, list):
                text_parts = [p["text"] for p in content if p.get("type") == "text"]
                images += [p["image_url"]["url"] for p in content if p.get("type") == "image_url"]
                content = "\n".join(text_parts)
            if message["role"] == "system":
                system = content
            elif message["role"] == "user":
                user = content
        structured = payload.get("response_format", {}).get("type") == "json_object"
        return ChatRequest(
            system_prompt=system,
            user_prompt=user,
            image_refs=tuple(images),
            response_format="structured_object" if structured else "free_text",
            variant_seed=int(payload.get("seed", 0)),
        )

    def answer(self, req: ChatRequest) -> str:
        user = req.user_prompt
        refine = _REFINE_RE.search(user)
        if refine:
            value_b = json.loads(refine.group(2))
            return value_b if value_b.startswith(_STUBBORN_MARKS) else deterministic_responder(req)
        if _KEYS_RE.search(user):
            text = self._extraction(req)
        else:
            text = deterministic_responder(req)
            schema = _SCHEMA_RE.search(user)
            if schema and _h(self.seed, "clamp", user) % 1000 < CLAMP_PERMILLE:
                answer = json.loads(text)
                answer[schema.group(1)] = 10.0 + (_h(self.seed, "over", user) % 9 + 1) / 10.0
                text = json.dumps(answer)
        if (
            req.response_format == "structured_object"
            and not _RETRY_RE.search(user)
            and _h(self.seed, "malformed", user, req.variant_seed) % 1000 < MALFORMED_PERMILLE
        ):
            return text[: len(text) // 2]
        return text

    def _extraction(self, req: ChatRequest) -> str:
        """Lengthened seed-0 values; later seeds disagree on a fixed number of fields.

        The stock responder decides per field whether the second variant
        disagrees, so the refine count swings with the location. Here the
        four pairs of one location disagree on 0, 1, 1 and 2 fields (rotated
        by location), so every job refines four fields and call counts do
        not depend on which locations the seed drew.
        """
        user = req.user_prompt
        context = user.split("Factors to extract", 1)[0]
        agreed = json.loads(deterministic_responder(replace(req, variant_seed=0)))
        lengths = _field_lengths(self.seed, context, list(agreed))
        values = {k: _lengthen(self.seed, context, k, v, lengths[k]) for k, v in agreed.items()}
        if req.variant_seed > 0:
            pair = _PAIR_RE.search(req.system_prompt)
            index = _PAIR_INDEX.get(pair.groups(), 0) if pair else 0
            shift = _h(self.seed, "rotate", context) % len(_CONFLICTS_PER_PAIR)
            count = _CONFLICTS_PER_PAIR[(index + shift) % len(_CONFLICTS_PER_PAIR)]
            keys = sorted(values, key=lambda k: _h(self.seed, "pick", context, k, req.variant_seed))
            for i, key in enumerate(keys[:count]):
                texts = _STUBBORN if i == 1 else _DISSENT
                dissent = texts[_h(self.seed, "dissent", context, key) % len(texts)]
                values[key] = _lengthen(self.seed, context, key, dissent, lengths[key])
        return json.dumps(values, ensure_ascii=False)

    def handle(self, body: bytes) -> tuple[int, bytes]:
        started = time.perf_counter()
        key = int.from_bytes(hashlib.sha256(body).digest()[:8], "big")
        with self._lock:
            self._requests += 1
            self._payloads.add(key)
            self._in_flight += 1
            self._peak = max(self._peak, self._in_flight)
            unavailable = (
                _h(self.seed, "503", key) % 1000 < self.unavailable_permille
                and key not in self._failed_once
            )
            if unavailable:
                self._failed_once.add(key)
                self._unavailable += 1
        try:
            if unavailable:
                status, text = 503, ""
                out = b'{"error": {"message": "simulated overload"}}'
            else:
                text = self.answer(self._request(json.loads(body)))
                out = json.dumps(
                    {"choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                                  "finish_reason": "stop"}]}
                ).encode("utf-8")
                status = 200
            due = started + (self.base_ms + self.per_char_ms * len(text)) / 1000.0
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            return status, out
        finally:
            with self._lock:
                self._in_flight -= 1
                self._service_ms.append((time.perf_counter() - started) * 1000.0)


def make_handler(sim: Simulator) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path.endswith("/chat/completions"):
                self._reply(*sim.handle(body))
            elif self.path == "/reset":
                sim.reset()
                self._reply(200, b"{}")
            else:
                self._reply(404, b"{}")

        def do_GET(self) -> None:  # noqa: N802 - http.server naming
            if self.path == "/stats":
                self._reply(200, json.dumps(sim.stats()).encode("utf-8"))
            else:
                self._reply(404, b"{}")

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass

    return Handler


class Server(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base-ms", type=float, default=100.0)
    parser.add_argument("--per-char-ms", type=float, default=0.03)
    parser.add_argument("--unavailable-permille", type=int, default=3)
    args = parser.parse_args(argv)

    sim = Simulator(args.seed, args.base_ms, args.per_char_ms, args.unavailable_permille)
    server = Server(("127.0.0.1", 0), make_handler(sim))
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
