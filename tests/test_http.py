"""The real HTTP transports against a stdlib server on loopback.

Every other backend and geo test injects a fake transport; these run the
defaults (``LiveBackend``'s POST and ``GeoClient``'s GET) end to end, so
status handling, retries and the bytes on the wire are checked as sent.
"""

import json
import socket
import subprocess
import sys
import threading
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from urbanmas.backend import DEFAULT_BACKOFF_BASE_S, ChatRequest, LiveBackend
from urbanmas.errors import AuthenticationError, TransportExhaustedError
from urbanmas.geo import USER_AGENT, GeoClient, IngestConfig

ROOT = Path(__file__).resolve().parent.parent

# One body that both a chat completion and a reverse geocode can parse.
OK_BODY = json.dumps(
    {"choices": [{"message": {"content": "fine, café"}}], "display_name": "Shiba Park, Tokyo"}
)


@dataclass
class Received:
    method: str
    path: str
    headers: dict
    body: bytes


class _Handler(BaseHTTPRequestHandler):
    def _reply(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        server = self.server
        with server.lock:
            server.received.append(Received(self.command, self.path, dict(self.headers), body))
            status, text = server.replies.pop(0) if len(server.replies) > 1 else server.replies[0]
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _reply

    def log_message(self, *args) -> None:
        pass


class LoopbackServer(ThreadingHTTPServer):
    """Answers with ``replies`` in order, repeating the last; records each request."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.replies: list[tuple[int, str]] = [(200, OK_BODY)]
        self.received: list[Received] = []

    @property
    def base(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # loopback must never go through a proxy
    srv = LoopbackServer()
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def live(api_base: str, sleeps: list) -> LiveBackend:
    # A budget high enough that the token bucket never waits.
    return LiveBackend(api_base, "k", model="m", requests_per_minute=60000, sleep=sleeps.append)


def req() -> ChatRequest:
    return ChatRequest(system_prompt="sys", user_prompt="Café near the tower?")


class TestLivePost:
    def test_round_trip_sends_the_json_bytes_and_credentials(self, server):
        backend = live(server.base + "/v1", sleeps := [])
        resp = backend.complete(req())
        assert resp.text == "fine, café"
        [got] = server.received
        assert (got.method, got.path) == ("POST", "/v1/chat/completions")
        assert got.body == json.dumps(backend._payload(req())).encode("utf-8")
        assert got.headers["Authorization"] == "Bearer k"
        assert got.headers["Content-Type"] == "application/json"
        assert sleeps == []

    def test_503_then_200_is_one_retry(self, server):
        server.replies = [(503, "busy"), (200, OK_BODY)]
        backend = live(server.base, sleeps := [])
        assert backend.complete(req()).text == "fine, café"
        assert len(server.received) == 2
        assert sleeps == [DEFAULT_BACKOFF_BASE_S]

    def test_401_fails_after_one_request(self, server):
        server.replies = [(401, '{"error": "bad key"}')]
        with pytest.raises(AuthenticationError, match="HTTP 401"):
            live(server.base, []).complete(req())
        assert len(server.received) == 1

    def test_400_is_not_retried_and_names_the_body(self, server):
        server.replies = [(400, '{"error": "no such model"}')]
        with pytest.raises(TransportExhaustedError) as info:
            live(server.base, []).complete(req())
        assert "HTTP 400" in str(info.value)
        assert "no such model" in str(info.value)
        assert len(server.received) == 1

    def test_closed_port_is_retried_then_exhausted(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = live(f"http://127.0.0.1:{port}", sleeps := [])
        with pytest.raises(TransportExhaustedError, match="after 3 attempt"):
            backend.complete(req())
        assert len(sleeps) == 2


class TestGeoGet:
    def test_query_string_and_user_agent(self, server, tmp_path):
        cfg = IngestConfig(cache_dir=tmp_path, geocoder_url=server.base + "/reverse")
        assert GeoClient(cfg).reverse_geocode(35.6586, 139.7454) == "Shiba Park, Tokyo"
        [got] = server.received
        path, _, query = got.path.partition("?")
        assert (got.method, path) == ("GET", "/reverse")
        assert urllib.parse.parse_qs(query) == {
            "lat": ["35.6586"], "lon": ["139.7454"], "format": ["jsonv2"],
        }
        assert got.headers["User-Agent"] == USER_AGENT


def test_live_and_geo_calls_import_no_requests(server, tmp_path):
    program = """
import sys
from urbanmas.backend import ChatRequest, LiveBackend
from urbanmas.geo import GeoClient, IngestConfig

base, cache_dir = sys.argv[1:]
LiveBackend(base, "k", model="m").complete(ChatRequest("s", "u"))
GeoClient(IngestConfig(cache_dir=cache_dir, geocoder_url=base)).reverse_geocode(1.0, 2.0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "requests"))
"""
    env = {"PYTHONPATH": str(ROOT / "src"), "no_proxy": "*", "PATH": ""}
    done = subprocess.run(
        [sys.executable, "-c", program, server.base, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert [r.method for r in server.received] == ["POST", "GET"]
