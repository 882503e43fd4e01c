"""Spans and counts around the library's public functions, recorded from
the benchmark's own code.

Each function is wrapped at the name its caller looks it up under (for
example ``builder.extract_chain``, which ``build_dataset`` calls), and
only while a traced step runs. A name that no longer exists is recorded
as absent and its metrics read 0.

Spans are aggregated in memory as they end: per name the call count,
the total time, and the self time (the total minus the time of spans
that ran inside it on the same thread).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable



def _load_corpus(tr, args, corpus):
    tr.add("corpus.dialogues", len(corpus.dialogues))
    tr.add("corpus.turns", sum(d.n_turns for d in corpus.dialogues))


def _refine_batch(tr, args, outcome):
    coarse = [e.explanation for e in args[0] if e.explanation_kind == "coarse" and e.explanation]
    tr.set_once("refiner.coarse_items", len(coarse))
    tr.set_once("refiner.distinct_coarse", len(set(coarse)))


def _refine_one(tr, args, result):
    if result.source == "cache":
        tr.add("refiner.cache_hits", 1)


# (module the caller looks the function up in, attribute, metric name,
#  span or count only, hook). A span times each call; a count-only wrapper
#  adds 1 to "<metric name>_calls". A hook receives (tracer, args, result)
#  after each call and records counts.
WRAPPED = (
    ("cli", "main", "cli.main", True, None),
    ("cli", "load_corpus", "corpus.load_corpus", True, _load_corpus),
    ("cli", "step_histogram", "chains.step_histogram", True, None),
    ("cli", "build_dataset", "builder.build_dataset", True,
     lambda tr, args, result: tr.add("builder.examples", len(result))),
    ("cli", "examples_to_jsonl", "builder.examples_to_jsonl", True,
     lambda tr, args, result: tr.add("builder.jsonl_bytes", len(result.encode("utf-8")))),
    ("cli", "read_examples", "builder.read_examples", True, None),
    ("cli", "refine_batch", "refiner.refine_batch", True, _refine_batch),
    ("cli", "load_predictions", "evaluator.load_predictions", True,
     lambda tr, args, result: tr.add("evaluator.prediction_rows", len(result))),
    ("cli", "fine_grained_report", "evaluator.fine_grained_report", True,
     lambda tr, args, result: tr.add("evaluator.turns_scored", result.n_turns)),
    ("cli", "render_report", "evaluator.render_report", True, None),
    ("builder", "extract_chain", "chains.extract_chain", True, None),
    ("builder", "render_prompt", "builder.render_prompt", True, None),
    ("builder", "build_coarse_explanation", "builder.build_coarse_explanation", True, None),
    ("evaluator", "bucketize", "evaluator.bucketize", True, None),
    ("evaluator", "max_step_at_turns", "chains.max_step_at_turns", True, None),
    ("evaluator", "values_match", "normalize.values_match", False, None),
    ("refiner", "refine_one", "refiner.refine_one", False, _refine_one),
    ("normalize", "normalize_value", "normalize.normalize_value", False, None),
    ("chains", "normalize_value", "normalize.normalize_value", False, None),
    ("builder", "normalize_value", "normalize.normalize_value", False, None),
    ("corpus", "normalize_value", "normalize.normalize_value", False, None),
)


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    spans: dict[str, SpanTotals] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    def add(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def set_once(self, name: str, value: float) -> None:
        with self._lock:
            self.counts.setdefault(name, value)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def totals(self, name: str) -> SpanTotals:
        return self.spans.get(name, SpanTotals())

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)


class _Span:
    __slots__ = ("tracer", "name", "start", "child_s")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = getattr(self.tracer._local, "stack", None)
        if stack is None:
            stack = self.tracer._local.stack = []
        stack.append(self)
        self.child_s = 0.0
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.start
        stack = self.tracer._local.stack
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        with self.tracer._lock:
            totals = self.tracer.spans.setdefault(self.name, SpanTotals())
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - self.child_s


def _wrap(tracer: Tracer, original: Callable, name: str, span: bool, hook) -> Callable:
    if not span:
        count_name = f"{name}_calls"

        def counted(*args, **kwargs):
            tracer.add(count_name, 1)
            result = original(*args, **kwargs)
            if hook:
                hook(tracer, args, result)
            return result
        return counted

    def spanned(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if hook:
            hook(tracer, args, result)
        return result
    return spanned


def library_modules() -> dict:
    """The ``slotchain`` submodules the wrappers go on, by name; the
    package must be importable."""
    from slotchain import builder, chains, cli, corpus, evaluator, normalize, refiner
    return {"cli": cli, "corpus": corpus, "chains": chains, "normalize": normalize,
            "builder": builder, "refiner": refiner, "evaluator": evaluator}


@contextmanager
def traced(tracer: Tracer, modules: dict):
    """Install every wrapper on the given ``slotchain`` submodules (name ->
    module object) for the duration of the block, then restore them."""
    installed = []
    try:
        for module, attr, name, span, hook in WRAPPED:
            target = modules[module]
            original = getattr(target, attr, None)
            if original is None:
                tracer.absent.add(f"{module}.{attr}")
                continue
            setattr(target, attr, _wrap(tracer, original, name, span, hook))
            installed.append((target, attr, original))
        yield tracer
    finally:
        for target, attr, original in reversed(installed):
            setattr(target, attr, original)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metric values of one traced round."""
    api_requests = tr.count("refiner.api_requests")
    distinct = tr.count("refiner.distinct_coarse")
    return {
        "corpus.load_s": tr.totals("corpus.load_corpus").total_s,
        "corpus.dialogues": tr.count("corpus.dialogues"),
        "corpus.turns": tr.count("corpus.turns"),
        "chains.extract_chain_calls": tr.totals("chains.extract_chain").calls,
        "chains.extract_chain_s": tr.totals("chains.extract_chain").total_s,
        "chains.step_histogram_s": tr.totals("chains.step_histogram").total_s,
        "chains.max_step_at_turns_s": tr.totals("chains.max_step_at_turns").total_s,
        "normalize.normalize_value_calls": tr.count("normalize.normalize_value_calls"),
        "normalize.values_match_calls": tr.count("normalize.values_match_calls"),
        "builder.build_dataset_self_s": tr.totals("builder.build_dataset").self_s,
        "builder.render_prompt_calls": tr.totals("builder.render_prompt").calls,
        "builder.render_prompt_s": tr.totals("builder.render_prompt").total_s,
        "builder.coarse_explanation_s": tr.totals("builder.build_coarse_explanation").total_s,
        "builder.examples": tr.count("builder.examples"),
        "builder.examples_to_jsonl_s": tr.totals("builder.examples_to_jsonl").total_s,
        "builder.jsonl_mb": tr.count("builder.jsonl_bytes") / 1e6,
        "builder.read_examples_s": tr.totals("builder.read_examples").total_s,
        "refiner.refine_batch_s": tr.totals("refiner.refine_batch").total_s,
        "refiner.coarse_items": tr.count("refiner.coarse_items"),
        "refiner.distinct_coarse": distinct,
        "refiner.refine_one_calls": tr.count("refiner.refine_one_calls"),
        "refiner.cache_hits": tr.count("refiner.cache_hits"),
        "refiner.api_requests": api_requests,
        "refiner.duplicate_requests": tr.count("refiner.duplicate_requests"),
        "refiner.connections": tr.count("refiner.connections"),
        "refiner.endpoint_busy_s": tr.count("refiner.endpoint_busy_s"),
        "refiner.useful_request_ratio": distinct / api_requests if api_requests else 0.0,
        "evaluator.load_predictions_s": tr.totals("evaluator.load_predictions").total_s,
        "evaluator.prediction_rows": tr.count("evaluator.prediction_rows"),
        "evaluator.fine_grained_report_s": tr.totals("evaluator.fine_grained_report").total_s,
        "evaluator.bucketize_s": tr.totals("evaluator.bucketize").total_s,
        "evaluator.turns_scored": tr.count("evaluator.turns_scored"),
        "evaluator.render_report_s": tr.totals("evaluator.render_report").total_s,
        "cli.self_s": tr.totals("cli.main").self_s,
    }
