"""Explanation refinement: prompt assembly, retries, caching, offline
mode, and batch behaviour against a scripted local HTTP server."""

import json
import random
import ssl
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from slotchain import __version__
from slotchain.builder import CoTExample, ExampleMeta, examples_to_jsonl
from slotchain.cli import main
from slotchain.errors import (
    AuthError,
    FormatError,
    NetworkError,
    ValidationError,
)
from slotchain.refiner import (
    RefineConfig,
    build_refine_prompt,
    load_refine_config,
    refine_batch,
    refine_one,
    request_fingerprint,
    strip_speaker_tags,
)

KEY_VAR = "SLOTCHAIN_TEST_KEY"
# A self-signed certificate for 127.0.0.1 and its key, for the HTTPS mock.
TLS_CERT = Path(__file__).parent / "fixtures" / "tls_127.0.0.1_cert.pem"
TLS_KEY = Path(__file__).parent / "fixtures" / "tls_127.0.0.1_key.pem"


class MockCompletionServer:
    """Local completion endpoint with a FIFO script of canned replies,
    each ``(status, payload)`` or ``(status, payload, headers)``; the
    headers replace the default Content-Type and Content-Length. A str
    payload is sent as its UTF-8, bytes as they are, anything else as
    its json.dumps.

    Unscripted requests echo the final Dialogue block back, wrapped in
    narrated(...), so distinct inputs yield distinct outputs. Tracks
    request targets, bodies, headers, and the peak number of in-flight
    requests. A request stops counting as in flight before its reply is
    written, so a client that has its reply cannot be counted twice. With
    ``tls``, it serves HTTPS with the self-signed certificate TLS_CERT.
    """

    def __init__(self, tls=False):
        self.script = []
        self.paths = []
        self.requests = []
        self.request_headers = []
        self.delay = 0.0
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak_in_flight = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer._in_flight += 1
                    outer.peak_in_flight = max(outer.peak_in_flight, outer._in_flight)
                    outer.paths.append(self.path)
                    outer.requests.append(body)
                    outer.request_headers.append(self.headers)
                    scripted = outer.script.pop(0) if outer.script else None
                if outer.delay:
                    time.sleep(outer.delay)
                status, payload, *extra = scripted if scripted else outer._echo(body)
                if isinstance(payload, str):
                    data = payload.encode("utf-8")
                elif isinstance(payload, bytes):
                    data = payload
                else:
                    data = json.dumps(payload).encode("utf-8")
                with outer._lock:
                    outer._in_flight -= 1
                headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
                headers.update(extra[0] if extra else {})
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *_):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.scheme = "https" if tls else "http"
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, TLS_KEY)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True
        )

    @staticmethod
    def _echo(body):
        tail = body["prompt"].rsplit("Dialogue: ", 1)[1]
        coarse = tail[: -len("\nNarration:")]
        return 200, {"choices": [{"text": f" narrated({coarse}) "}]}

    @property
    def url(self):
        host, port = self._server.server_address
        return f"{self.scheme}://{host}:{port}/v1/completions"

    @property
    def n_requests(self):
        return len(self.requests)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def server():
    srv = MockCompletionServer().start()
    yield srv
    srv.stop()


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv(KEY_VAR, "sekrit-key")


DEMOS = (("system: Checked, yes. user: Great, book it.", "The system confirmed and the user asked to book."),)


def make_config(server, tmp_path, **overrides):
    settings = dict(
        endpoint_url=server.url,
        model_name="test-model",
        api_key_env_var=KEY_VAR,
        demonstrations=DEMOS,
        backoff_base=0.0,
        cache_dir=str(tmp_path / "cache"),
    )
    settings.update(overrides)
    return RefineConfig(**settings)


def make_example(i, kind="coarse", target="5"):
    explanation = ""
    if kind != "none" and target != "none":
        explanation = f"system: Offer number {i} stands. user: Take offer {i}."
        if kind == "refined":
            explanation = f"The user took offer {i}."
    meta = ExampleMeta(
        dialogue_id=f"d{i}",
        query_turn=1,
        slot_id="hotel-stars",
        step_count=0 if target == "none" else 1,
        dialogue_turns=1,
        avg_utterance_len=4.0,
    )
    return CoTExample(
        example_id=f"d{i}:1:hotel-stars",
        input_text=f"Dialogue: system: user: prompt {i} Question: What's stars?",
        target_value=target,
        explanation=explanation,
        explanation_kind=kind,
        meta=meta,
    )


def with_explanation(example, explanation):
    return replace(example, explanation=explanation)


COARSE = "system: The York is 5-star. user: Book it."


# ---------------------------------------------------------------------------
# offline mode


def test_offline_strips_tags_and_skips_network_and_cache(tmp_path):
    config = RefineConfig(offline=True, cache_dir=str(tmp_path / "cache"))
    result = refine_one(COARSE, config)
    assert result.refined == "The York is 5-star. Book it."
    assert result.source == "offline_passthrough"
    assert not (tmp_path / "cache").exists()


def test_offline_is_deterministic():
    config = RefineConfig(offline=True)
    a = refine_one(COARSE, config)
    b = refine_one(COARSE, config)
    assert a == b


def test_offline_collapses_interior_whitespace():
    config = RefineConfig(offline=True)
    result = refine_one("system:   Twelve noon.  user:  Fine. ", config)
    assert result.refined == "Twelve noon. Fine."


def test_offline_hashes_no_fingerprint(monkeypatch):
    def refuse(config, coarse):
        raise AssertionError("offline refine hashed a request fingerprint")

    monkeypatch.setattr("slotchain.refiner.request_fingerprint", refuse)
    result = refine_one(COARSE, RefineConfig(offline=True))
    assert (result.refined, result.source) == ("The York is 5-star. Book it.", "offline_passthrough")


def test_offline_empty_after_stripping_raises():
    config = RefineConfig(offline=True)
    with pytest.raises(
        ValidationError, match=r"^offline passthrough produced an empty narration$"
    ):
        refine_one("system: user:  ", config)


def test_strip_speaker_tags_examples():
    assert strip_speaker_tags(COARSE) == "The York is 5-star. Book it."
    assert strip_speaker_tags("user: hello") == "hello"
    assert strip_speaker_tags("no tags here") == "no tags here"
    # only whole words are tags
    coarse = "system: is the ecosystem: fine? user: log in as user:admin"
    assert strip_speaker_tags(coarse) == "is the ecosystem: fine? log in as user:admin"


def test_refine_one_rejects_empty_coarse():
    with pytest.raises(ValidationError):
        refine_one("", RefineConfig(offline=True))


# ---------------------------------------------------------------------------
# request shape


def test_request_body_and_auth_header(server, tmp_path, api_key):
    config = make_config(server, tmp_path, temperature=0.0, max_tokens=99)
    result = refine_one(COARSE, config)
    assert result.source == "api"
    assert result.refined == f"narrated({COARSE})"
    assert server.n_requests == 1
    body = server.requests[0]
    assert set(body) == {"model", "prompt", "temperature", "max_tokens"}
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 99
    headers = server.request_headers[0]
    assert headers["Authorization"] == "Bearer sekrit-key"
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == f"slotchain/{__version__}"


def test_prompt_layout(server, tmp_path):
    config = make_config(server, tmp_path)
    prompt = build_refine_prompt(config, COARSE)
    demo_coarse, demo_refined = DEMOS[0]
    assert prompt == (
        config.instruction
        + f"\n\nDialogue: {demo_coarse}\nNarration: {demo_refined}"
        + f"\n\nDialogue: {COARSE}\nNarration:"
    )


def test_bare_text_response_accepted(server, tmp_path, api_key):
    server.script.append((200, {"text": "  A plain narration.  "}))
    config = make_config(server, tmp_path)
    assert refine_one(COARSE, config).refined == "A plain narration."


# ---------------------------------------------------------------------------
# retries and failures


def test_transient_statuses_retried_until_success(server, tmp_path, api_key):
    server.script += [(429, {"error": "slow down"}), (429, {"error": "slow down"})]
    config = make_config(server, tmp_path, max_retries=3)
    result = refine_one(COARSE, config)
    assert result.source == "api"
    assert server.n_requests == 3


class TopOfRange(random.Random):
    """A jitter source that always draws the whole backoff."""

    def uniform(self, a, b):
        return b


@pytest.fixture
def sleeps(monkeypatch):
    """The delays the refiner asks to sleep, recorded instead of slept,
    with each jittered backoff drawn at its maximum."""
    recorded = []
    monkeypatch.setattr("slotchain.refiner.time.sleep", recorded.append)
    monkeypatch.setattr("slotchain.refiner._JITTER", TopOfRange())
    return recorded


def test_backoff_is_a_uniform_draw_up_to_the_exponential_bound(
    server, tmp_path, api_key, sleeps, monkeypatch
):
    monkeypatch.setattr("slotchain.refiner._JITTER", random.Random(7))
    server.script += [(500, {"error": "boom"})] * 3
    config = make_config(server, tmp_path, max_retries=3, backoff_base=0.5)
    assert refine_one(COARSE, config).source == "api"
    expected = random.Random(7)
    assert sleeps == [expected.uniform(0, 0.5), expected.uniform(0, 1.0),
                      expected.uniform(0, 2.0)]
    assert all(0 <= delay <= bound for delay, bound in zip(sleeps, (0.5, 1.0, 2.0)))


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_seconds_lengthen_the_backoff(server, tmp_path, api_key, sleeps, status):
    server.script.append((status, {"error": "wait"}, {"Retry-After": "2"}))
    config = make_config(server, tmp_path, max_retries=1, backoff_base=0.5)
    assert refine_one(COARSE, config).source == "api"
    assert sleeps == [2.0]
    assert server.n_requests == 2


def test_retry_after_never_shortens_the_backoff(server, tmp_path, api_key, sleeps):
    server.script.append((429, {"error": "wait"}, {"Retry-After": "0"}))
    config = make_config(server, tmp_path, max_retries=1, backoff_base=0.5)
    refine_one(COARSE, config)
    assert sleeps == [0.5]


def test_retry_after_is_capped_at_the_request_timeout(server, tmp_path, api_key, sleeps):
    server.script.append((429, {"error": "wait"}, {"Retry-After": "3600"}))
    config = make_config(server, tmp_path, max_retries=1, request_timeout=5.0)
    refine_one(COARSE, config)
    assert sleeps == [5.0]


@pytest.mark.parametrize(
    "status, value",
    [(429, "Wed, 21 Oct 2015 07:28:00 GMT"), (429, "1.5"), (500, "2")],
    ids=["http-date", "fraction", "status-500"],
)
def test_retry_after_ignored_unless_delta_seconds_on_429_or_503(
    server, tmp_path, api_key, sleeps, status, value
):
    server.script.append((status, {"error": "wait"}, {"Retry-After": value}))
    config = make_config(server, tmp_path, max_retries=1)
    refine_one(COARSE, config)
    assert sleeps == [0.0]


def test_retries_exhausted_raises_network_error(server, tmp_path, api_key):
    server.script += [(503, {"error": "down"})] * 3
    config = make_config(server, tmp_path, max_retries=2)
    with pytest.raises(NetworkError, match="3 attempts"):
        refine_one(COARSE, config)
    assert server.n_requests == 3


@pytest.mark.parametrize("status", [401, 403])
def test_rejected_key_raises_auth_error_without_retry(server, tmp_path, api_key, status):
    server.script.append((status, {"error": "no"}))
    config = make_config(server, tmp_path, max_retries=5)
    with pytest.raises(AuthError):
        refine_one(COARSE, config)
    assert server.n_requests == 1


def test_missing_key_raises_auth_error_before_any_request(server, tmp_path, monkeypatch):
    monkeypatch.delenv(KEY_VAR, raising=False)
    config = make_config(server, tmp_path)
    with pytest.raises(AuthError, match=KEY_VAR):
        refine_one(COARSE, config)
    assert server.n_requests == 0


def test_non_retryable_status_fails_immediately(server, tmp_path, api_key):
    server.script.append((404, {"error": "gone"}))
    config = make_config(server, tmp_path, max_retries=5)
    with pytest.raises(NetworkError, match="404"):
        refine_one(COARSE, config)
    assert server.n_requests == 1


def test_non_json_success_body_raises_network_error(server, tmp_path, api_key):
    server.script.append((200, "this is not json {"))
    config = make_config(server, tmp_path)
    with pytest.raises(NetworkError, match="^completion response: not valid JSON: "):
        refine_one(COARSE, config)


# Replies that io's JSON parser rejects, and the start of the error each gives.
BAD_REPLIES = {
    "lone surrogate": ('{"text": "narrated \\ud800"}',
                       "completion response: $.text: a \\u escape makes a lone surrogate"),
    "not UTF-8": (b'{"text": "narrated \xe9"}', "completion response: not UTF-8: "),
    "NaN": ('{"text": "narrated", "score": NaN}',
            "completion response: not valid JSON: non-finite number NaN"),
    "infinity": ('{"text": "narrated", "score": -Infinity}',
                 "completion response: not valid JSON: non-finite number -Infinity"),
    "BOM": ('\ufeff{"text": "narrated"}',
            "completion response: not valid JSON: Unexpected UTF-8 BOM"),
}


@pytest.mark.parametrize("reply", sorted(BAD_REPLIES))
def test_a_reply_io_rejects_raises_network_error_and_is_not_cached(
    server, tmp_path, api_key, reply
):
    payload, message = BAD_REPLIES[reply]
    server.script.append((200, payload))
    config = make_config(server, tmp_path, max_retries=3)
    with pytest.raises(NetworkError) as caught:
        refine_one(COARSE, config)
    assert str(caught.value).startswith(message), caught.value
    assert server.n_requests == 1  # a reply that came whole is not asked for again
    assert not (tmp_path / "cache").exists()


def test_json_without_text_raises_network_error(server, tmp_path, api_key):
    server.script.append((200, {"choices": []}))
    config = make_config(server, tmp_path)
    with pytest.raises(NetworkError, match="text"):
        refine_one(COARSE, config)


def test_unreachable_endpoint_raises_network_error(tmp_path, api_key):
    srv = MockCompletionServer().start()
    url = srv.url
    srv.stop()
    config = RefineConfig(
        endpoint_url=url,
        model_name="test-model",
        api_key_env_var=KEY_VAR,
        demonstrations=DEMOS,
        max_retries=1,
        backoff_base=0.0,
        request_timeout=2.0,
    )
    with pytest.raises(NetworkError):
        refine_one(COARSE, config)


# ---------------------------------------------------------------------------
# transport


def test_redirect_is_not_followed(server, tmp_path, api_key):
    elsewhere = MockCompletionServer().start()
    try:
        server.script.append((302, {"error": "moved"}, {"Location": elsewhere.url}))
        config = make_config(server, tmp_path, max_retries=3)
        with pytest.raises(NetworkError, match="completion request failed: HTTP 302"):
            refine_one(COARSE, config)
    finally:
        elsewhere.stop()
    assert server.n_requests == 1
    assert elsewhere.n_requests == 0


@pytest.fixture
def proxy_env(monkeypatch):
    """monkeypatch, with every proxy variable unset."""
    for name in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_http_proxy_from_the_environment_gets_the_absolute_url(
    server, tmp_path, api_key, proxy_env
):
    # The mock answers as the proxy; a request that bypassed it would go
    # to a closed port on this host.
    proxy_env.setenv("http_proxy", server.url.removesuffix("/v1/completions"))
    target = "http://localhost:1/v1/completions"
    config = make_config(server, tmp_path, endpoint_url=target, max_retries=0)
    assert refine_one(COARSE, config).refined == f"narrated({COARSE})"
    assert server.paths == [target]


def test_no_proxy_from_the_environment_bypasses_the_proxy(
    server, tmp_path, api_key, proxy_env
):
    proxy_env.setenv("http_proxy", "http://127.0.0.1:1")
    proxy_env.setenv("no_proxy", "127.0.0.1")
    config = make_config(server, tmp_path, max_retries=0)
    assert refine_one(COARSE, config).source == "api"
    assert server.paths == ["/v1/completions"]


@pytest.fixture
def tls_server():
    srv = MockCompletionServer(tls=True).start()
    yield srv
    srv.stop()


def test_https_trusts_the_system_store_or_ssl_cert_file(tls_server, tmp_path, api_key, monkeypatch):
    config = make_config(tls_server, tmp_path, max_retries=0)
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    with pytest.raises(NetworkError, match="CERTIFICATE_VERIFY_FAILED"):
        refine_one(COARSE, config)
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    result = refine_one(COARSE, config)
    assert result.source == "api"
    assert result.refined == f"narrated({COARSE})"
    assert tls_server.n_requests == 1


def test_reply_cut_off_mid_body_is_retried_then_fails(server, tmp_path, api_key):
    server.script += [(200, '{"text": "cut', {"Content-Length": "100"})] * 2
    config = make_config(server, tmp_path, max_retries=1)
    with pytest.raises(NetworkError, match="failed after 2 attempts"):
        refine_one(COARSE, config)
    assert server.n_requests == 2


def test_endpoint_without_a_scheme_raises_network_error(server, tmp_path, api_key):
    config = make_config(server, tmp_path, endpoint_url=server.url.removeprefix("http://"))
    with pytest.raises(NetworkError, match="not an http:// or https:// URL"):
        refine_one(COARSE, config)
    assert server.n_requests == 0


# ---------------------------------------------------------------------------
# cache


def test_second_call_served_from_cache(server, tmp_path, api_key):
    config = make_config(server, tmp_path)
    first = refine_one(COARSE, config)
    second = refine_one(COARSE, config)
    assert first.source == "api"
    assert second.source == "cache"
    assert second.refined == first.refined
    assert server.n_requests == 1


def test_cache_file_named_by_fingerprint_and_holds_refined_text(server, tmp_path, api_key):
    config = make_config(server, tmp_path)
    result = refine_one(COARSE, config)
    cache_file = tmp_path / "cache" / request_fingerprint(config, COARSE)
    assert cache_file.read_text(encoding="utf-8") == result.refined
    # nothing else: a leftover temporary file would be ".<name>.<hex>.tmp"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [cache_file.name]


def test_warm_cache_needs_no_credentials_or_server(server, tmp_path, api_key, monkeypatch):
    config = make_config(server, tmp_path)
    refine_one(COARSE, config)
    server.stop()
    monkeypatch.delenv(KEY_VAR)
    result = refine_one(COARSE, config)
    assert result.source == "cache"
    assert result.refined == f"narrated({COARSE})"


def test_no_cache_dir_means_every_call_hits_api(server, tmp_path, api_key):
    config = make_config(server, tmp_path, cache_dir="")
    refine_one(COARSE, config)
    refine_one(COARSE, config)
    assert server.n_requests == 2


def test_empty_completion_raises_and_is_not_cached(server, tmp_path, api_key):
    server.script.append((200, {"text": "   "}))
    config = make_config(server, tmp_path)
    with pytest.raises(
        NetworkError, match=r"^endpoint returned a whitespace-only completion$"
    ):
        refine_one(COARSE, config)
    cache_dir = tmp_path / "cache"
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []
    result = refine_one(COARSE, config)
    assert result.source == "api"
    assert server.n_requests == 2


@pytest.mark.parametrize(
    "blank", [b"", b"  \n", b"\xff\xfe"], ids=["empty", "whitespace", "not_utf8"]
)
def test_blank_cache_entry_is_a_miss_refilled_by_the_api(server, tmp_path, api_key, blank):
    config = make_config(server, tmp_path)
    example = make_example(0)
    cache_file = tmp_path / "cache" / request_fingerprint(config, example.explanation)
    cache_file.parent.mkdir()
    cache_file.write_bytes(blank)
    out, failures = refine_batch((example,), config)
    assert failures == ()
    refined = out[0]
    assert refined.explanation_kind == "refined"
    assert refined.explanation == f"narrated({example.explanation})"
    assert server.n_requests == 1
    assert cache_file.read_text(encoding="utf-8") == refined.explanation


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_is_stable_and_input_sensitive(server, tmp_path):
    config = make_config(server, tmp_path)
    base = request_fingerprint(config, COARSE)
    assert base == request_fingerprint(config, COARSE)
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")
    variants = [
        request_fingerprint(config, COARSE + " Extra."),
        request_fingerprint(RefineConfig(**{**config.__dict__, "model_name": "other"}), COARSE),
        request_fingerprint(RefineConfig(**{**config.__dict__, "instruction": "Summarize."}), COARSE),
        request_fingerprint(
            RefineConfig(**{**config.__dict__, "demonstrations": DEMOS + DEMOS}), COARSE
        ),
        request_fingerprint(RefineConfig(**{**config.__dict__, "temperature": 0.9}), COARSE),
        request_fingerprint(RefineConfig(**{**config.__dict__, "max_tokens": 16}), COARSE),
    ]
    assert len({base, *variants}) == 7


def test_fingerprint_ignores_transport_settings(server, tmp_path):
    config = make_config(server, tmp_path)
    other = RefineConfig(
        **{
            **config.__dict__,
            "endpoint_url": "http://elsewhere.invalid/v1",
            "max_retries": 9,
            "max_parallel": 7,
            "cache_dir": "",
        }
    )
    assert request_fingerprint(config, COARSE) == request_fingerprint(other, COARSE)


# ---------------------------------------------------------------------------
# batch


def test_batch_refines_only_coarse_items_and_keeps_order(server, tmp_path, api_key):
    examples = (
        make_example(0, kind="coarse"),
        make_example(1, kind="none"),
        make_example(2, kind="coarse", target="none"),
        make_example(3, kind="refined"),
        make_example(4, kind="coarse"),
    )
    config = make_config(server, tmp_path, max_parallel=1)
    out, failures = refine_batch(examples, config)
    assert failures == ()
    assert [e.example_id for e in out] == [e.example_id for e in examples]
    assert out[1] == examples[1]
    assert out[2] == examples[2]
    assert out[3] == examples[3]
    for i in (0, 4):
        refined = out[i]
        assert refined.explanation_kind == "refined"
        assert refined.explanation == f"narrated({examples[i].explanation})"
        assert refined.target_value == examples[i].target_value
        assert refined.input_text == examples[i].input_text
    assert server.n_requests == 2


def test_batch_respects_parallel_ceiling(server, tmp_path, api_key):
    server.delay = 0.08
    examples = tuple(make_example(i) for i in range(8))
    config = make_config(server, tmp_path, max_parallel=3, cache_dir="")
    out, failures = refine_batch(examples, config)
    assert failures == ()
    assert server.n_requests == 8
    assert 2 <= server.peak_in_flight <= 3


def test_batch_emits_failed_items_unchanged_with_failure_records(server, tmp_path, api_key):
    server.script.append((500, {"error": "boom"}))
    examples = tuple(make_example(i) for i in range(3))
    config = make_config(server, tmp_path, max_parallel=1, max_retries=0)
    out, failures = refine_batch(examples, config)
    [(example_id, error)] = failures
    assert example_id == examples[0].example_id
    assert "500" in error
    assert out[0] == examples[0]
    assert out[1].explanation_kind == "refined"
    assert out[2].explanation_kind == "refined"


def test_batch_aborts_on_auth_error(server, tmp_path, api_key):
    server.script.append((401, {"error": "no"}))
    examples = tuple(make_example(i) for i in range(3))
    config = make_config(server, tmp_path, max_parallel=1, max_retries=0)
    with pytest.raises(AuthError):
        refine_batch(examples, config)
    assert server.n_requests == 1


def test_batch_with_nothing_to_do_never_touches_network(server, tmp_path):
    examples = (make_example(0, kind="none"), make_example(1, kind="refined"))
    config = make_config(server, tmp_path)
    out, failures = refine_batch(examples, config)
    assert out == examples
    assert failures == ()
    assert server.n_requests == 0


def test_batch_duplicate_coarse_texts_share_one_api_call(server, tmp_path, api_key):
    example = make_example(0)
    twin = with_explanation(make_example(1), example.explanation)
    config = make_config(server, tmp_path, max_parallel=1)
    out, failures = refine_batch((example, twin), config)
    assert server.n_requests == 1
    assert out[0].explanation == out[1].explanation


def test_batch_requests_each_distinct_text_once_in_parallel(server, tmp_path, api_key):
    server.delay = 0.05
    texts = [make_example(i).explanation for i in range(3)]
    examples = tuple(with_explanation(make_example(i), texts[i % 3]) for i in range(9))
    config = make_config(server, tmp_path, max_parallel=2, cache_dir="")
    out, failures = refine_batch(examples, config)
    assert failures == ()
    assert server.n_requests == 3
    for before, after in zip(examples, out):
        assert after.explanation_kind == "refined"
        assert after.explanation == f"narrated({before.explanation})"


def test_batch_dedup_holds_under_thread_switching(server, tmp_path, api_key):
    texts = [make_example(i).explanation for i in range(12)]
    examples = tuple(with_explanation(make_example(i), texts[i % 12]) for i in range(60))
    config = make_config(server, tmp_path, max_parallel=8, cache_dir="")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out, failures = refine_batch(examples, config)
    finally:
        sys.setswitchinterval(interval)
    assert failures == ()
    assert server.n_requests == 12
    assert sorted(body["prompt"] for body in server.requests) == sorted(
        build_refine_prompt(config, text) for text in texts
    )
    for before, after in zip(examples, out):
        assert after.explanation == f"narrated({before.explanation})"


def test_batch_failed_shared_text_fails_every_carrier(server, tmp_path, api_key):
    server.script.append((500, {"error": "boom"}))
    shared = make_example(0).explanation
    examples = (
        make_example(0),
        make_example(1),
        with_explanation(make_example(2), shared),
        make_example(3, kind="none"),
        with_explanation(make_example(4), shared),
    )
    config = make_config(server, tmp_path, max_parallel=1, max_retries=0)
    out, failures = refine_batch(examples, config)
    assert [example_id for example_id, _ in failures] == [
        examples[i].example_id for i in (0, 2, 4)
    ]
    assert all("500" in error for _, error in failures)
    for i in (0, 2, 3, 4):
        assert out[i] == examples[i]
    assert out[1].explanation_kind == "refined"
    assert server.n_requests == 2


def test_batch_offline_refines_each_distinct_text_once(monkeypatch):
    calls = []

    def counting(coarse, config):
        calls.append(coarse)
        return refine_one(coarse, config)

    monkeypatch.setattr("slotchain.refiner.refine_one", counting)
    texts = [make_example(i).explanation for i in range(3)]
    examples = tuple(with_explanation(make_example(i), texts[i % 3]) for i in range(7))
    out, failures = refine_batch(examples, RefineConfig(offline=True, max_parallel=4))
    assert calls == texts
    assert failures == ()
    assert [e.explanation for e in out] == [
        strip_speaker_tags(e.explanation) for e in examples
    ]


def test_batch_offline_end_to_end(tmp_path):
    examples = tuple(make_example(i) for i in range(4))
    config = RefineConfig(offline=True, max_parallel=2)
    out, failures = refine_batch(examples, config)
    assert failures == ()
    for before, after in zip(examples, out):
        assert after.explanation_kind == "refined"
        assert after.explanation == strip_speaker_tags(before.explanation)


# ---------------------------------------------------------------------------
# the refine command, chunk by chunk


def run_refine(server, tmp_path, examples, *options, **settings):
    """``slotchain refine`` over ``examples`` against the mock server,
    with no cache, one request at a time and no retry, unless
    ``settings`` or the command-line ``options`` say otherwise; returns
    the exit code and the --out path."""
    examples_path = tmp_path / "examples.jsonl"
    examples_path.write_text(examples_to_jsonl(examples), encoding="utf-8")
    config = dict(
        endpoint_url=server.url, model_name="test-model", api_key_env_var=KEY_VAR,
        demonstrations=[list(pair) for pair in DEMOS], backoff_base=0.0, max_retries=0,
        max_parallel=1, cache_dir="",
    )
    config.update(settings)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_path = tmp_path / "refined.jsonl"
    code = main(["refine", "--examples", str(examples_path), "--config", str(config_path),
                 "--out", str(out_path), *options])
    return code, out_path


def test_refine_requests_a_text_shared_by_the_first_and_last_chunk_once(
    server, tmp_path, api_key, monkeypatch
):
    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 2)
    texts = [make_example(i).explanation for i in range(4)]
    examples = tuple(with_explanation(make_example(i), texts[i % 4]) for i in range(5))
    code, out_path = run_refine(server, tmp_path, examples)
    assert code == 0
    assert sorted(body["prompt"] for body in server.requests) == sorted(
        build_refine_prompt(make_config(server, tmp_path), text) for text in texts
    )
    expected, _ = refine_batch(examples, make_config(server, tmp_path, cache_dir=""))
    assert out_path.read_text(encoding="utf-8") == examples_to_jsonl(expected)


def test_refine_rejected_key_in_a_later_chunk_leaves_the_out_file(
    server, tmp_path, api_key, monkeypatch, capsys
):
    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 2)
    server.script += [(200, {"text": "a"}), (200, {"text": "b"}), (401, {"error": "no"})]
    (tmp_path / "refined.jsonl").write_bytes(b"old output\n")
    code, out_path = run_refine(server, tmp_path, tuple(make_example(i) for i in range(4)))
    assert code == 1
    assert "HTTP 401" in capsys.readouterr().err
    assert server.n_requests == 3
    assert out_path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "examples.jsonl", "refined.jsonl"
    ]


def test_refine_warnings_keep_example_order_across_chunks(
    server, tmp_path, api_key, monkeypatch, capsys
):
    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 2)
    # texts A B | C A | D: A and C fail, A's second carrier from the memo
    server.script += [(500, {"error": "boom"}), (200, {"text": "b"}),
                      (500, {"error": "boom"}), (200, {"text": "d"})]
    texts = [make_example(i).explanation for i in (0, 1, 2, 0, 3)]
    examples = tuple(with_explanation(make_example(i), text) for i, text in enumerate(texts))
    code, out_path = run_refine(server, tmp_path, examples)
    err = capsys.readouterr().err
    assert code == 3
    warned = [line.split(": ")[1] for line in err.splitlines() if line.startswith("warning: ")]
    assert warned == [examples[i].example_id for i in (0, 2, 3)]
    assert "3 example(s) left unrefined" in err
    assert server.n_requests == 4
    written = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [row["explanation_kind"] for row in written] == [
        "coarse", "refined", "coarse", "coarse", "refined"
    ]


def test_refine_cache_dir_option_overrides_the_config_and_serves_a_rerun(
    server, tmp_path, api_key
):
    texts = [make_example(i).explanation for i in range(3)]
    examples = tuple(with_explanation(make_example(i), texts[i % 3]) for i in range(5))
    cache = tmp_path / "option_cache"
    options = ("--cache-dir", str(cache))
    code, out_path = run_refine(
        server, tmp_path, examples, *options, cache_dir=str(tmp_path / "config_cache")
    )
    assert code == 0
    assert server.n_requests == 3
    config = load_refine_config(tmp_path / "config.json")
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        request_fingerprint(config, text) for text in texts
    )
    assert not (tmp_path / "config_cache").exists()
    first = out_path.read_bytes()
    code, out_path = run_refine(
        server, tmp_path, examples, *options, cache_dir=str(tmp_path / "config_cache")
    )
    assert code == 0
    assert server.n_requests == 3
    assert out_path.read_bytes() == first


def test_refine_with_a_cache_dir_that_cannot_be_made_sends_nothing(
    server, tmp_path, api_key, capsys
):
    cache = tmp_path / "cache"
    cache.write_bytes(b"a regular file\n")
    examples = tuple(make_example(i) for i in range(3))
    code, out_path = run_refine(server, tmp_path, examples, cache_dir=str(cache))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "File exists" in err and str(cache) in err, err
    assert server.n_requests == 0
    assert not out_path.exists()


def test_refine_warns_on_an_endpoint_without_a_scheme(server, tmp_path, api_key, capsys):
    example = make_example(0)
    code, out_path = run_refine(
        server, tmp_path, (example,), endpoint_url=server.url.removeprefix("http://")
    )
    err = capsys.readouterr().err
    assert code == 3
    assert f"warning: {example.example_id}: completion request failed" in err
    assert "Traceback" not in err
    assert out_path.read_text(encoding="utf-8") == examples_to_jsonl((example,))
    assert server.n_requests == 0


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache_dir"])
@pytest.mark.parametrize("reply", ["lone surrogate", "not UTF-8"])
def test_refine_warns_on_a_reply_io_rejects_and_writes_the_example_unrefined(
    server, tmp_path, api_key, capsys, reply, cached
):
    payload, message = BAD_REPLIES[reply]
    server.script.append((200, payload))
    example = make_example(0)
    cache = tmp_path / "cache"
    options = ("--cache-dir", str(cache)) if cached else ()
    code, out_path = run_refine(server, tmp_path, (example,), *options)
    err = capsys.readouterr().err
    assert code == 3
    warning, summary = err.splitlines()
    assert warning.startswith(f"warning: {example.example_id}: {message}"), err
    assert summary == "1 example(s) left unrefined"
    assert out_path.read_text(encoding="utf-8") == examples_to_jsonl((example,))
    assert server.n_requests == 1
    if cached:
        assert list(cache.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["config.json", "examples.jsonl", "refined.jsonl", *(["cache"] if cached else [])]
    )


# ---------------------------------------------------------------------------
# config loading


def test_bundled_config_loads_and_validates():
    config = load_refine_config()
    assert config.endpoint_url.startswith("https://")
    assert config.model_name
    assert len(config.demonstrations) >= 1
    assert all(len(pair) == 2 for pair in config.demonstrations)
    assert config.temperature == 0.0
    assert config.api_key_env_var == "COTE_API_KEY"


def test_config_file_overrides_and_keyword_precedence(tmp_path):
    path = tmp_path / "refine.json"
    path.write_text(
        json.dumps(
            {
                "endpoint_url": "http://example.invalid/v1",
                "model_name": "from-file",
                "demonstrations": [["system: a user: b", "a then b"]],
                "max_parallel": 4,
            }
        ),
        encoding="utf-8",
    )
    config = load_refine_config(path, model_name="from-keyword")
    assert config.model_name == "from-keyword"
    assert config.endpoint_url == "http://example.invalid/v1"
    assert config.max_parallel == 4
    assert config.demonstrations == (("system: a user: b", "a then b"),)


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "refine.json"
    path.write_text(json.dumps({"offline": True, "modle": "typo"}), encoding="utf-8")
    with pytest.raises(FormatError, match="modle"):
        load_refine_config(path)


def test_config_rejects_malformed_demonstrations(tmp_path):
    path = tmp_path / "refine.json"
    path.write_text(json.dumps({"demonstrations": ["not-a-pair"]}), encoding="utf-8")
    with pytest.raises(FormatError, match="demonstrations"):
        load_refine_config(path)


def test_config_validation_bounds():
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, temperature=-0.1)
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, max_parallel=0)
    for max_tokens in (0, -3):
        with pytest.raises(ValidationError, match=rf"^max_tokens must be >= 1, got {max_tokens}$"):
            RefineConfig(offline=True, max_tokens=max_tokens)
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, max_retries=-1)
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, backoff_base=-1.0)
    with pytest.raises(ValidationError, match="request_timeout must be > 0, got 0"):
        RefineConfig(offline=True, request_timeout=0)
    with pytest.raises(ValidationError, match=r"^cache_dir must not hold a NUL, got 'a\\x00b'$"):
        RefineConfig(offline=True, cache_dir="a\0b")


def test_online_config_requires_endpoint_model_and_demos():
    with pytest.raises(ValidationError, match="demonstrations"):
        RefineConfig(endpoint_url="http://x.invalid", model_name="m")
    with pytest.raises(ValidationError, match="endpoint_url"):
        RefineConfig(model_name="m", demonstrations=DEMOS)
    with pytest.raises(ValidationError, match="model_name"):
        RefineConfig(endpoint_url="http://x.invalid", demonstrations=DEMOS)
    RefineConfig(offline=True)
