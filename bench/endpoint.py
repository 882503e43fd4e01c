"""Local fake completion endpoint for the refine_api workload.

Run as its own process:

    python3 bench/endpoint.py

It prints ``PORT <n>`` on its first stdout line, then serves until it is
terminated:

- ``POST /v1/completions`` waits ``DELAY_MS``, then answers
  ``{"choices": [{"text": respond(coarse)}]}``, where ``coarse`` is the
  last ``Dialogue:`` block of the prompt, the way the refiner builds it.
- ``GET /stats`` returns the counters below as JSON.
- ``POST /reset`` zeroes them.

Counters: completion requests served, distinct coarse texts requested,
requests for a coarse text already answered before the request arrived,
TCP connections that carried a completion request, and the time during
which at least one completion request was in flight.

HTTP/1.1 keep-alive is supported, so a client that reuses connections
shows fewer connections than requests.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SPEAKER_TAGS = ("system:", "user:")
DELAY_MS = 20  # fixed wait before each completion answer


def respond(coarse: str) -> str:
    """The endpoint's answer, a fixed function of the coarse text: the
    words of the text without the speaker tags, prefixed with
    ``narration <first 8 hex digits of sha256(coarse)>:``."""
    digest = hashlib.sha256(coarse.encode("utf-8")).hexdigest()[:8]
    words = [w for w in coarse.split() if w not in SPEAKER_TAGS]
    return f"narration {digest}: " + " ".join(words)


def coarse_of(prompt: str) -> str:
    return prompt.rsplit("Dialogue: ", 1)[1].removesuffix("\nNarration:")


class Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.duplicates = 0
        self.connections = 0
        self.requested: set[str] = set()
        self.answered: set[str] = set()
        self.in_flight = 0
        self.busy_since = 0.0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "distinct": len(self.requested),
            "duplicates": self.duplicates,
            "connections": self.connections,
            "busy_s": self.busy_s,
        }


def make_server() -> ThreadingHTTPServer:
    counters = Counters()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            super().setup()
            self.counted = False

        def _reply(self, status: int, payload: object) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._reply(404, {"error": "not found"})
                return
            with counters.lock:
                snapshot = counters.snapshot()
            self._reply(200, snapshot)

        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                with counters.lock:
                    counters.reset()
                self._reply(200, {})
                return
            coarse = coarse_of(json.loads(body)["prompt"])
            with counters.lock:
                counters.requests += 1
                counters.duplicates += coarse in counters.answered
                counters.requested.add(coarse)
                if not self.counted:
                    self.counted = True
                    counters.connections += 1
                if counters.in_flight == 0:
                    counters.busy_since = time.perf_counter()
                counters.in_flight += 1
            time.sleep(DELAY_MS / 1000)
            self._reply(200, {"choices": [{"text": respond(coarse)}]})
            with counters.lock:
                counters.answered.add(coarse)
                counters.in_flight -= 1
                if counters.in_flight == 0:
                    counters.busy_s += time.perf_counter() - counters.busy_since

        def log_message(self, *_args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    server = make_server()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
