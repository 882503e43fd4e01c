"""Explanation refinement: prompt assembly, retries, caching, offline
mode, and batch behaviour against a scripted local HTTP server."""

import json
import random
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from slotchain.builder import CoTExample, ExampleMeta, examples_to_jsonl
from slotchain.cli import main
from slotchain.errors import (
    AuthError,
    EmptyCompletionError,
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


class MockCompletionServer:
    """Local completion endpoint with a FIFO script of canned replies,
    each ``(status, payload)`` or ``(status, payload, headers)``.

    Unscripted requests echo the final Dialogue block back, wrapped in
    narrated(...), so distinct inputs yield distinct outputs. Tracks
    request bodies, headers, and the peak number of in-flight requests.
    A request stops counting as in flight before its reply is written, so
    a client that has its reply cannot be counted twice.
    """

    def __init__(self):
        self.script = []
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
                    outer.requests.append(body)
                    outer.request_headers.append(dict(self.headers))
                    scripted = outer.script.pop(0) if outer.script else None
                if outer.delay:
                    time.sleep(outer.delay)
                status, payload, *extra = scripted if scripted else outer._echo(body)
                data = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else json.dumps(payload).encode("utf-8")
                )
                with outer._lock:
                    outer._in_flight -= 1
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *_):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
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
        return f"http://{host}:{port}/v1/completions"

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
    assert result.coarse == COARSE
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


def test_offline_empty_after_stripping_raises():
    config = RefineConfig(offline=True)
    with pytest.raises(EmptyCompletionError):
        refine_one("system: user:  ", config)


def test_strip_speaker_tags_examples():
    assert strip_speaker_tags(COARSE) == "The York is 5-star. Book it."
    assert strip_speaker_tags("user: hello") == "hello"
    assert strip_speaker_tags("no tags here") == "no tags here"


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
    assert server.request_headers[0]["Authorization"] == "Bearer sekrit-key"


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
    with pytest.raises(NetworkError, match="not JSON"):
        refine_one(COARSE, config)


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
    cache_file = tmp_path / "cache" / result.request_fingerprint
    assert cache_file.read_text(encoding="utf-8") == result.refined
    leftovers = [p for p in (tmp_path / "cache").iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


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
    with pytest.raises(EmptyCompletionError):
        refine_one(COARSE, config)
    cache_dir = tmp_path / "cache"
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []
    result = refine_one(COARSE, config)
    assert result.source == "api"
    assert server.n_requests == 2


@pytest.mark.parametrize("blank", ["", "  \n"], ids=["empty", "whitespace"])
def test_blank_cache_entry_is_a_miss_refilled_by_the_api(server, tmp_path, api_key, blank):
    config = make_config(server, tmp_path)
    example = make_example(0)
    cache_file = tmp_path / "cache" / request_fingerprint(config, example.explanation)
    cache_file.parent.mkdir()
    cache_file.write_text(blank, encoding="utf-8")
    outcome = refine_batch((example,), config)
    assert outcome.failures == ()
    refined = outcome.examples[0]
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
    ]
    assert len({base, *variants}) == 5


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
    outcome = refine_batch(examples, config)
    assert outcome.failures == ()
    assert [e.example_id for e in outcome.examples] == [e.example_id for e in examples]
    assert outcome.examples[1] == examples[1]
    assert outcome.examples[2] == examples[2]
    assert outcome.examples[3] == examples[3]
    for i in (0, 4):
        refined = outcome.examples[i]
        assert refined.explanation_kind == "refined"
        assert refined.explanation == f"narrated({examples[i].explanation})"
        assert refined.target_value == examples[i].target_value
        assert refined.input_text == examples[i].input_text
    assert server.n_requests == 2


def test_batch_respects_parallel_ceiling(server, tmp_path, api_key):
    server.delay = 0.08
    examples = tuple(make_example(i) for i in range(8))
    config = make_config(server, tmp_path, max_parallel=3, cache_dir="")
    outcome = refine_batch(examples, config)
    assert outcome.failures == ()
    assert server.n_requests == 8
    assert 2 <= server.peak_in_flight <= 3


def test_batch_emits_failed_items_unchanged_with_failure_records(server, tmp_path, api_key):
    server.script.append((500, {"error": "boom"}))
    examples = tuple(make_example(i) for i in range(3))
    config = make_config(server, tmp_path, max_parallel=1, max_retries=0)
    outcome = refine_batch(examples, config)
    assert len(outcome.failures) == 1
    assert outcome.failures[0].example_id == examples[0].example_id
    assert "500" in outcome.failures[0].error
    assert outcome.examples[0] == examples[0]
    assert outcome.examples[1].explanation_kind == "refined"
    assert outcome.examples[2].explanation_kind == "refined"


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
    outcome = refine_batch(examples, config)
    assert outcome.examples == examples
    assert outcome.failures == ()
    assert server.n_requests == 0


def test_batch_duplicate_coarse_texts_share_one_api_call(server, tmp_path, api_key):
    example = make_example(0)
    twin = with_explanation(make_example(1), example.explanation)
    config = make_config(server, tmp_path, max_parallel=1)
    outcome = refine_batch((example, twin), config)
    assert server.n_requests == 1
    assert outcome.examples[0].explanation == outcome.examples[1].explanation


def test_batch_requests_each_distinct_text_once_in_parallel(server, tmp_path, api_key):
    server.delay = 0.05
    texts = [make_example(i).explanation for i in range(3)]
    examples = tuple(with_explanation(make_example(i), texts[i % 3]) for i in range(9))
    config = make_config(server, tmp_path, max_parallel=2, cache_dir="")
    outcome = refine_batch(examples, config)
    assert outcome.failures == ()
    assert server.n_requests == 3
    for before, after in zip(examples, outcome.examples):
        assert after.explanation_kind == "refined"
        assert after.explanation == f"narrated({before.explanation})"


def test_batch_dedup_holds_under_thread_switching(server, tmp_path, api_key):
    texts = [make_example(i).explanation for i in range(12)]
    examples = tuple(with_explanation(make_example(i), texts[i % 12]) for i in range(60))
    config = make_config(server, tmp_path, max_parallel=8, cache_dir="")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcome = refine_batch(examples, config)
    finally:
        sys.setswitchinterval(interval)
    assert outcome.failures == ()
    assert server.n_requests == 12
    assert sorted(body["prompt"] for body in server.requests) == sorted(
        build_refine_prompt(config, text) for text in texts
    )
    for before, after in zip(examples, outcome.examples):
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
    outcome = refine_batch(examples, config)
    assert [f.example_id for f in outcome.failures] == [
        examples[i].example_id for i in (0, 2, 4)
    ]
    assert all("500" in f.error for f in outcome.failures)
    for i in (0, 2, 3, 4):
        assert outcome.examples[i] == examples[i]
    assert outcome.examples[1].explanation_kind == "refined"
    assert server.n_requests == 2


def test_batch_offline_refines_each_distinct_text_once(monkeypatch):
    calls = []

    def counting(coarse, config):
        calls.append(coarse)
        return refine_one(coarse, config)

    monkeypatch.setattr("slotchain.refiner.refine_one", counting)
    texts = [make_example(i).explanation for i in range(3)]
    examples = tuple(with_explanation(make_example(i), texts[i % 3]) for i in range(7))
    outcome = refine_batch(examples, RefineConfig(offline=True, max_parallel=4))
    assert calls == texts
    assert outcome.failures == ()
    assert [e.explanation for e in outcome.examples] == [
        strip_speaker_tags(e.explanation) for e in examples
    ]


def test_batch_offline_end_to_end(tmp_path):
    examples = tuple(make_example(i) for i in range(4))
    config = RefineConfig(offline=True, max_parallel=2)
    outcome = refine_batch(examples, config)
    assert outcome.failures == ()
    for before, after in zip(examples, outcome.examples):
        assert after.explanation_kind == "refined"
        assert after.explanation == strip_speaker_tags(before.explanation)


# ---------------------------------------------------------------------------
# the refine command, chunk by chunk


def run_refine(server, tmp_path, examples, **settings):
    """``slotchain refine`` over ``examples`` against the mock server,
    with no cache, one request at a time and no retry; returns the exit
    code and the --out path."""
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
                 "--out", str(out_path)])
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
    expected = refine_batch(examples, make_config(server, tmp_path, cache_dir="")).examples
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
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, max_retries=-1)
    with pytest.raises(ValidationError):
        RefineConfig(offline=True, backoff_base=-1.0)


def test_online_config_requires_endpoint_model_and_demos():
    with pytest.raises(ValidationError, match="demonstrations"):
        RefineConfig(endpoint_url="http://x.invalid", model_name="m")
    with pytest.raises(ValidationError, match="endpoint_url"):
        RefineConfig(model_name="m", demonstrations=DEMOS)
    with pytest.raises(ValidationError, match="model_name"):
        RefineConfig(endpoint_url="http://x.invalid", demonstrations=DEMOS)
    RefineConfig(offline=True)
