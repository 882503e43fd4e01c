"""Paraphrase coarse explanations into third-person narrations.

Calls a remote completion endpoint with an instruction plus a few
demonstration pairs, caches responses by content hash so reruns are
free, retries transient failures after a random delay of up to an
exponential backoff (longer when a 429 or 503 names a Retry-After
delay), and offers an offline mode (deterministic speaker-tag stripping)
so the whole pipeline runs without credentials.

A batch refines each distinct coarse text once and hands the result to
every example that carries it, so it sends at most one request per
distinct text; batches that share a memo refine each text once between
them. An online batch sends up to ``max_parallel`` requests at once from
a thread pool; an offline batch strips tags inline, and the ``refine``
command spreads the chunks of an offline run over up to ``max_parallel``
worker processes instead (see ``slotchain.cli``). A rejected or missing
key stops the batch before any queued request is sent.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import __version__
from .builder import CoTExample
from .errors import AuthError, EmptyCompletionError, NetworkError, ValidationError
from .io import bundled, decode, http_post, read_json, write_text

DEFAULT_API_KEY_ENV_VAR = "COTE_API_KEY"
DEFAULT_INSTRUCTION = (
    "Rewrite the following dialogue snippet as a single third-person "
    "narration, preserving all entities and values."
)

_RETRYABLE_STATUSES = {408, 429, 500, 502, 503, 504}
# Draws each retry's backoff (full jitter); tests replace it to fix the draws.
_JITTER = random.Random()
_TAG_RE = re.compile(r"(?:system|user):\s*")


@dataclass(frozen=True)
class RefineConfig:
    endpoint_url: str = ""
    model_name: str = ""
    api_key_env_var: str = DEFAULT_API_KEY_ENV_VAR
    instruction: str = DEFAULT_INSTRUCTION
    demonstrations: tuple[tuple[str, str], ...] = ()
    temperature: float = 0.0
    max_tokens: int = 256
    max_retries: int = 3
    backoff_base: float = 1.0
    request_timeout: float = 60.0
    max_parallel: int = 1
    cache_dir: str = ""
    offline: bool = False

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_parallel < 1:
            raise ValidationError(f"max_parallel must be >= 1, got {self.max_parallel}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValidationError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if not self.request_timeout > 0:
            raise ValidationError(f"request_timeout must be > 0, got {self.request_timeout}")
        if not self.offline:
            if not self.demonstrations:
                raise ValidationError("demonstrations must be non-empty unless offline")
            if not self.endpoint_url:
                raise ValidationError("endpoint_url required unless offline")
            if not self.model_name:
                raise ValidationError("model_name required unless offline")


@dataclass(frozen=True)
class RefineResult:
    coarse: str
    refined: str
    source: str  # "api" | "cache" | "offline_passthrough"
    request_fingerprint: str


@dataclass(frozen=True)
class RefineFailure:
    example_id: str
    error: str


@dataclass(frozen=True)
class RefineBatchOutcome:
    examples: tuple[CoTExample, ...]
    failures: tuple[RefineFailure, ...]


def load_refine_config(path: str | Path | None = None, **overrides) -> RefineConfig:
    """Config from a JSON file (the bundled default when path is None),
    with keyword overrides taking precedence; both are type-checked."""
    source = bundled("refine_config.json") if path is None else path
    return decode(RefineConfig, {**read_json(source, expect=dict), **overrides}, source)


def request_fingerprint(config: RefineConfig, coarse: str) -> str:
    """Content hash of everything that determines the completion:
    instruction, demonstrations, model name, and the coarse text."""
    payload = json.dumps(
        {
            "instruction": config.instruction,
            "demonstrations": [list(pair) for pair in config.demonstrations],
            "model_name": config.model_name,
            "coarse": coarse,
        },
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_refine_prompt(config: RefineConfig, coarse: str) -> str:
    blocks = [config.instruction]
    for demo_coarse, demo_refined in config.demonstrations:
        blocks.append(f"Dialogue: {demo_coarse}\nNarration: {demo_refined}")
    blocks.append(f"Dialogue: {coarse}\nNarration:")
    return "\n\n".join(blocks)


def strip_speaker_tags(coarse: str) -> str:
    """Deterministic offline stand-in for the remote paraphrase: delete
    the "system:" / "user:" tags and tidy the whitespace."""
    return " ".join(_TAG_RE.sub("", coarse).split())


def _cache_path(config: RefineConfig, fingerprint: str) -> Path | None:
    if not config.cache_dir:
        return None
    return Path(config.cache_dir) / fingerprint


def _cache_read(config: RefineConfig, fingerprint: str) -> str | None:
    """Cached narration, or None on a miss. Narrations are stored
    stripped and non-empty, so a blank file is a miss the next answer
    overwrites."""
    path = _cache_path(config, fingerprint)
    if path is None or not path.is_file():
        return None
    text = path.read_text(encoding="utf-8")
    return text if text.strip() else None


def _cache_write(config: RefineConfig, fingerprint: str, refined: str) -> None:
    path = _cache_path(config, fingerprint)
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, refined)


def _extract_completion_text(data: object) -> str | None:
    if isinstance(data, dict):
        if isinstance(data.get("text"), str):
            return data["text"]
        choices = data.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            text = choices[0].get("text")
            if isinstance(text, str):
                return text
    return None


def _retry_after_s(status: int, headers) -> float:
    """The delta-seconds Retry-After of a 429 or 503 (RFC 9110 section
    10.2.3), else 0; the HTTP-date form is ignored."""
    value = headers.get("Retry-After", "").strip()
    if status in (429, 503) and value.isascii() and value.isdigit():
        return float(value)
    return 0.0


def _request_completion(config: RefineConfig, coarse: str, api_key: str) -> str:
    body = json.dumps({
        "model": config.model_name,
        "prompt": build_refine_prompt(config, coarse),
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }).encode("utf-8")
    headers = {
        "Authorization": f"Bearer {api_key}",
        "Content-Type": "application/json",
        "User-Agent": f"slotchain/{__version__}",
    }
    last_error = ""
    retry_after = 0.0
    for attempt in range(config.max_retries + 1):
        if attempt:
            backoff = _JITTER.uniform(0, config.backoff_base * 2 ** (attempt - 1))
            time.sleep(max(backoff, min(retry_after, config.request_timeout)))
        try:
            status, reply_headers, payload = http_post(
                config.endpoint_url, body, headers, config.request_timeout
            )
        except OSError as exc:
            last_error = f"request failed: {exc}"
            retry_after = 0.0
            continue
        except ValueError as exc:  # a URL or header that cannot be sent at all
            raise NetworkError(f"completion request failed: {exc}") from exc
        if status in (401, 403):
            raise AuthError(
                f"endpoint rejected the key from ${config.api_key_env_var} (HTTP {status})"
            )
        if status in _RETRYABLE_STATUSES:
            last_error = f"HTTP {status}"
            retry_after = _retry_after_s(status, reply_headers)
            continue
        if status != 200:
            raise NetworkError(f"completion request failed: HTTP {status}")
        try:
            data = json.loads(payload)
        except ValueError as exc:
            raise NetworkError(f"completion response is not JSON: {exc}") from exc
        text = _extract_completion_text(data)
        if text is None:
            raise NetworkError(
                "completion response carries neither 'text' nor 'choices[0].text'"
            )
        return text
    raise NetworkError(
        f"completion request failed after {config.max_retries + 1} attempts "
        f"(last: {last_error})"
    )


def refine_one(coarse: str, config: RefineConfig) -> RefineResult:
    """Refine one coarse explanation.

    Offline mode is a pure function and never touches the cache, so
    offline artifacts are reproducible regardless of cache state. Online,
    the cache is consulted before the key is even looked up, letting
    warm-cache runs work without credentials.
    """
    if not coarse:
        raise ValidationError("cannot refine an empty coarse explanation")
    fingerprint = request_fingerprint(config, coarse)
    if config.offline:
        refined = strip_speaker_tags(coarse)
        if not refined:
            raise EmptyCompletionError("offline passthrough produced an empty narration")
        return RefineResult(coarse, refined, "offline_passthrough", fingerprint)
    cached = _cache_read(config, fingerprint)
    if cached is not None:
        return RefineResult(coarse, cached, "cache", fingerprint)
    api_key = os.environ.get(config.api_key_env_var, "")
    if not api_key:
        raise AuthError(f"environment variable {config.api_key_env_var} is not set")
    refined = _request_completion(config, coarse, api_key).strip()
    if not refined:
        raise EmptyCompletionError("endpoint returned a whitespace-only completion")
    _cache_write(config, fingerprint, refined)
    return RefineResult(coarse, refined, "api", fingerprint)


def refine_batch(
    examples: Iterable[CoTExample],
    config: RefineConfig,
    memo: dict[str, RefineResult | str] | None = None,
) -> RefineBatchOutcome:
    """Refine every coarse-explanation example, each distinct text once
    (see the module docstring). Order and multiset of examples are
    preserved; an example whose text fails is emitted unchanged and
    reported as a failure of its own. A rejected or missing key aborts
    the whole batch.

    ``memo`` maps each text already refined to its result, or to the
    message of the error that left it unrefined. The batch reads it
    instead of refining a text again, and adds the texts it refines, so
    batches that share one memo refine each distinct text once."""
    examples = tuple(examples)
    results = {} if memo is None else memo
    distinct = dict.fromkeys(
        e.explanation
        for e in examples
        if e.explanation_kind == "coarse" and e.explanation and e.explanation not in results
    )
    rejected = threading.Event()

    def work(coarse: str) -> RefineResult | Exception | None:
        if rejected.is_set():  # queued before the rejection; never read
            return None
        try:
            return refine_one(coarse, config)
        except AuthError as exc:
            rejected.set()
            return exc
        except Exception as exc:
            return exc

    if config.offline:
        settled = [(coarse, work(coarse)) for coarse in distinct]
    else:
        # Here, not at the top: only an online batch needs a thread pool.
        from concurrent.futures import ThreadPoolExecutor, as_completed

        with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
            futures = {pool.submit(work, coarse): coarse for coarse in distinct}
            for future in as_completed(futures):
                if isinstance(future.result(), AuthError):
                    pool.shutdown(cancel_futures=True)
                    raise future.result()
        settled = [(coarse, future.result()) for future, coarse in futures.items()]
    for coarse, result in settled:
        # An error is kept as its message: its traceback would keep this batch alive.
        results[coarse] = result if isinstance(result, RefineResult) else str(result)

    out = list(examples)
    failures: list[RefineFailure] = []
    for index, example in enumerate(examples):
        result = results.get(example.explanation) if example.explanation_kind == "coarse" else None
        if isinstance(result, RefineResult):
            out[index] = CoTExample(  # a direct call: dataclasses.replace costs 3x as much
                example_id=example.example_id,
                input_text=example.input_text,
                target_value=example.target_value,
                explanation=result.refined,
                explanation_kind="refined",
                meta=example.meta,
            )
        elif result is not None:
            failures.append(RefineFailure(example_id=example.example_id, error=result))
    return RefineBatchOutcome(examples=tuple(out), failures=tuple(failures))
