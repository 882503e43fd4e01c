"""Command-line pipeline over the library.

One binary with subcommands: ingest, validate, stats, build, refine,
sample, eval, report. Data goes to --out or standard output; everything
else (progress, warnings, errors) goes to standard error. Exit codes:
0 success, 1 data or validation error (input that is not UTF-8
included), 2 usage error, 3 a refine run that finished with some items
unrefined. No subcommand rewrites its input files: an --out naming one
is an error. --out is written atomically, so an interrupted run leaves
the old file whole. ingest and sample write one dialogue at a time,
build one dialogue's examples at a time and refine one chunk of
REFINE_CHUNK lines at a time, so none holds the whole output. An offline
refine of more than one chunk refines its chunks in a pool of
min(--max-parallel, usable CPUs) worker processes, at most two chunks per
worker in flight, and writes them in input order; an online refine sends
up to --max-parallel requests at once from threads.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import sys
from typing import Iterable, Iterator

from . import __version__
# read_examples is not called here, but bench/spans.py wraps cli.read_examples.
from .builder import (  # noqa: F401
    DEFAULT_TEMPLATE,
    CoTExample,
    build_dataset,
    examples_to_jsonl,
    load_question_overrides,
    load_template,
    read_examples,
    slot_prompts,
)
from .chains import step_histogram
from .corpus import (
    SPLITS,
    Corpus,
    Schema,
    corpus_json_lines,
    load_corpus,
    load_schema,
)
from .errors import FormatError, SlotchainError
from .evaluator import (
    fine_grained_report,
    load_bucket_spec,
    load_predictions,
    low_resource_sample,
    read_report,
    render_report,
)
from .io import decode, file_or_bundled, parse_jsonl, read_json, read_lines, write_lines
from .normalize import DEFAULT_POLICY, NormalizationPolicy
from .refiner import RefineConfig, RefineFailure, load_refine_config, refine_batch

_LEGACY_STYLES = ("woz_belief", "m2m_flat", "sgd_state")
# Lines that refine reads, refines and writes at a time. Each distinct
# coarse text is still refined once per run (offline, once per worker
# process), whichever chunk it is in.
REFINE_CHUNK = 1000
# Options that name files a subcommand reads; --out must name none of them.
_INPUT_OPTIONS = (
    "corpus", "input", "examples", "predictions", "report", "schema",
    "config", "policy", "template_file", "overrides_file", "buckets",
)


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _emit(lines: str | Iterable[str], out: str | None) -> None:
    """Write ``lines`` (one string, or strings as they are produced) to
    ``out`` atomically, or else to standard output as they come."""
    if isinstance(lines, str):
        lines = (lines,)
    if out:
        write_lines(out, lines)
    else:
        sys.stdout.writelines(lines)


def _check_out_is_not_an_input(args: argparse.Namespace) -> None:
    if not args.out or not os.path.isfile(args.out):
        return
    for option in _INPUT_OPTIONS:
        value = getattr(args, option, None)
        for path in value if isinstance(value, list) else [value]:
            if path and os.path.isfile(path) and os.path.samefile(path, args.out):
                raise SlotchainError(f"--out {args.out} would overwrite the input {path}")


def _at_least_one(value: str) -> int:
    """An integer flag value of at least 1, checked here so that the
    error names the flag rather than the config file it overrides."""
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
    return int(value)


def _parse_exclude(value: str) -> set[str]:
    return {part.strip() for part in value.split(",") if part.strip()}


def _load_schema_arg(value: str) -> Schema:
    """A schema file path, or a bundled schema by bare name."""
    path = file_or_bundled(value, "schemas")
    if path is None:
        raise FormatError(f"{value}: neither a schema file nor a bundled schema name")
    return load_schema(path)


def _load_corpus_arg(args: argparse.Namespace, schema: Schema) -> Corpus:
    corpus = load_corpus([args.corpus], schema, _parse_exclude(args.exclude_domains))
    _note(args, f"loaded {len(corpus.dialogues)} dialogues from {args.corpus}")
    return corpus


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    exclude = _parse_exclude(args.exclude_domains)
    corpus = load_corpus(args.input, schema, exclude, args.style, args.split)
    counts = corpus.split_counts()
    summary = " ".join(f"{split}={counts.get(split, 0)}" for split in SPLITS)
    print(
        f"ingested dialogues: {summary} (total {sum(counts.values())})",
        file=sys.stderr,
    )
    _emit(corpus_json_lines(corpus), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    corpus = _load_corpus_arg(args, schema)
    counts = corpus.split_counts()
    summary = {
        "dialogues": len(corpus.dialogues),
        "turns": sum(d.n_turns for d in corpus.dialogues),
        "splits": {split: counts[split] for split in sorted(counts)},
        "slots": len(schema.slots),
    }
    print("corpus is valid", file=sys.stderr)
    _emit(json.dumps(summary, ensure_ascii=False, indent=2) + "\n", args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    corpus = _load_corpus_arg(args, schema)
    histogram = step_histogram(corpus, split=args.split)
    if args.format == "json":
        payload = {
            "counts": histogram.to_dict(),
            "total_active": histogram.total_active,
            "multi_step_fraction": histogram.multi_step_fraction,
        }
        _emit(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", args.out)
        return 0
    lines = [f"{'step':<6}{'samples':>9}{'share':>9}"]
    total = histogram.total_active
    for steps in sorted(histogram.counts):
        count = histogram.counts[steps]
        share = count / total if total else 0.0
        lines.append(f"{steps:<6d}{count:>9d}{share:>9.2%}")
    lines.append("")
    lines.append(f"total active samples: {total}")
    lines.append(f"multi-step share (step >= 2): {histogram.multi_step_fraction:.2%}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    corpus = _load_corpus_arg(args, schema)
    template = load_template(args.template_file) if args.template_file else DEFAULT_TEMPLATE
    overrides = (
        load_question_overrides(args.overrides_file, schema)
        if args.overrides_file
        else None
    )
    prompts = slot_prompts(schema, template, overrides)
    built = 0

    def lines() -> Iterator[str]:
        nonlocal built
        for dialogue in sorted(corpus.dialogues_in(args.split), key=lambda d: d.dialogue_id):
            examples = build_dataset(
                dialogue,
                prompts,
                include_explanations=not args.no_explanations,
                include_inactive=args.include_inactive,
            )
            built += len(examples)
            yield examples_to_jsonl(examples)

    _emit(lines(), args.out)
    _note(args, f"built {built} examples")
    return 0


def _chunks(items: Iterable, size: int) -> Iterator[tuple]:
    iterator = iter(items)
    while chunk := tuple(itertools.islice(iterator, size)):
        yield chunk


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _refine_lines(
    path: str, lines: Iterable[tuple[int, bytes]], config: RefineConfig, memo: dict
) -> tuple[str, int, int, tuple[RefineFailure, ...]]:
    """Parse, decode and refine ``lines``, numbered raw lines of the
    examples file ``path``: (the refined examples' JSONL, examples read,
    examples refined, failures)."""
    examples = tuple(
        decode(CoTExample, data, where) for _, where, data in parse_jsonl(path, lines)
    )
    outcome = refine_batch(examples, config, memo)
    refined = sum(
        1
        for before, after in zip(examples, outcome.examples)
        if before.explanation_kind == "coarse" and after.explanation_kind == "refined"
    )
    return examples_to_jsonl(outcome.examples), len(examples), refined, outcome.failures


_WORKER_MEMO = {}  # what a worker process has refined; filled only in workers


def _refine_lines_in_worker(path: str, lines: tuple, config: RefineConfig) -> tuple:
    return _refine_lines(path, lines, config, _WORKER_MEMO)


def _refined_chunks(path: str, config: RefineConfig) -> Iterator[tuple]:
    """_refine_lines of each chunk of REFINE_CHUNK lines of ``path``, in
    order. Offline, when there are two chunks or more and two usable CPUs
    or more, the chunks are refined in worker processes, each with a memo
    of its own; otherwise they are refined here as they are read, sharing
    one memo, so each distinct text is refined once."""
    lines = read_lines(path)
    workers = min(config.max_parallel, _usable_cpus()) if config.offline else 1
    if workers >= 2:
        chunks = _chunks(lines, REFINE_CHUNK)
        head = tuple(itertools.islice(chunks, 2))
        if len(head) == 2:
            yield from _refined_in_pool(path, config, workers, itertools.chain(head, chunks))
            return
        lines = itertools.chain.from_iterable(head)
    memo = {}
    for first in lines:
        chunk = itertools.chain((first,), itertools.islice(lines, REFINE_CHUNK - 1))
        yield _refine_lines(path, chunk, config, memo)


def _refined_in_pool(
    path: str, config: RefineConfig, workers: int, chunks: Iterable[tuple]
) -> Iterator[tuple]:
    """_refine_lines of each of ``chunks`` in a pool of ``workers``
    processes, at most two chunks per worker in flight, in order."""
    # Here, not at the top: only an offline run of several chunks needs a pool.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=workers)
    pending = collections.deque()
    try:
        for lines in chunks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_refine_lines_in_worker, path, lines, config))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise SlotchainError(f"a refine worker process stopped: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _cmd_refine(args: argparse.Namespace) -> int:
    overrides = {}
    if args.offline:
        overrides["offline"] = True
    if args.max_parallel is not None:
        overrides["max_parallel"] = args.max_parallel
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    config = load_refine_config(args.config, **overrides)
    seen = refined = failed = 0

    def lines() -> Iterator[str]:
        nonlocal seen, refined, failed
        for text, n_read, n_refined, failures in _refined_chunks(args.examples, config):
            for failure in failures:
                print(f"warning: {failure.example_id}: {failure.error}", file=sys.stderr)
            seen += n_read
            refined += n_refined
            failed += len(failures)
            yield text

    _emit(lines(), args.out)
    _note(args, f"refined {refined} of {seen} examples")
    if failed:
        print(f"{failed} example(s) left unrefined", file=sys.stderr)
        return 3
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    corpus = _load_corpus_arg(args, schema)
    sampled = low_resource_sample(corpus, args.fraction, seed=args.seed)
    kept = sampled.split_counts().get("train", 0)
    print(
        f"kept {kept} of {corpus.split_counts().get('train', 0)} train dialogues "
        f"(fraction {args.fraction}, seed {args.seed})",
        file=sys.stderr,
    )
    _emit(corpus_json_lines(sampled), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args.schema)
    corpus = _load_corpus_arg(args, schema)
    predictions = load_predictions(args.predictions, corpus)
    policy = DEFAULT_POLICY
    if args.policy:
        policy = decode(NormalizationPolicy, read_json(args.policy, expect=dict), args.policy)
    specs = [load_bucket_spec(name) for name in args.buckets]
    report = fine_grained_report(
        corpus, predictions, policy=policy, specs=specs, split=args.split
    )
    if report.n_missing_predictions:
        print(
            f"{report.n_missing_predictions} missing predictions defaulted to none",
            file=sys.stderr,
        )
    _emit(render_report(report, args.format), args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    _emit(render_report(report, args.format), args.out)
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "build": _cmd_build,
    "refine": _cmd_refine,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true", help="chatty progress on stderr")
    common.add_argument("--out", help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="slotchain",
        description="Turn dialogue state annotations into explanation-bearing "
        "training data and score predictions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"slotchain {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "ingest", parents=[common], help="convert dialogue files into one canonical corpus"
    )
    p.add_argument("--input", nargs="+", required=True, help="source dialogue file(s)")
    p.add_argument(
        "--style",
        choices=("canonical",) + _LEGACY_STYLES,
        default="canonical",
        help="input layout (default canonical)",
    )
    p.add_argument("--schema", required=True, help="schema file or bundled name")
    p.add_argument("--split", help="split for legacy files when not inferable from the name")
    p.add_argument("--exclude-domains", default="", help="comma-separated domains to drop")

    p = sub.add_parser("validate", parents=[common], help="check a corpus and print a summary")
    p.add_argument("--corpus", required=True, help="canonical corpus file")
    p.add_argument("--schema", required=True, help="schema file or bundled name")
    p.add_argument("--exclude-domains", default="")

    p = sub.add_parser("stats", parents=[common], help="step histogram over slot chains")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--split", choices=SPLITS, help="restrict to one split")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--exclude-domains", default="")

    p = sub.add_parser("build", parents=[common], help="render prompt/target examples")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--template-file", help="prompt template JSON")
    p.add_argument("--overrides-file", help="slot question overrides JSON")
    p.add_argument("--no-explanations", action="store_true", help="emit bare values")
    p.add_argument(
        "--include-inactive", action="store_true", help="keep slots with no value yet"
    )
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--exclude-domains", default="")

    p = sub.add_parser("refine", parents=[common], help="paraphrase coarse explanations")
    p.add_argument("--examples", required=True, help="examples JSONL from build")
    p.add_argument("--config", help="refine config JSON (bundled defaults otherwise)")
    p.add_argument("--offline", action="store_true", help="strip speaker tags, no network")
    p.add_argument(
        "--max-parallel",
        type=_at_least_one,
        help="request threads online, worker processes offline (capped at usable CPUs)",
    )
    p.add_argument("--cache-dir", help="completion cache directory")

    p = sub.add_parser("sample", parents=[common], help="keep a seeded fraction of train")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--fraction", type=float, required=True, help="train fraction in (0, 1]")
    p.add_argument("--seed", type=int, default=13, help="random seed (default 13)")
    p.add_argument("--exclude-domains", default="")

    p = sub.add_parser("eval", parents=[common], help="score predictions against gold states")
    p.add_argument("--corpus", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--policy", help="normalization policy JSON")
    p.add_argument(
        "--buckets",
        nargs="*",
        default=[],
        help="bucket spec files or bundled names (step, mwz_turn, ...)",
    )
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p.add_argument("--split", choices=SPLITS)
    p.add_argument("--exclude-domains", default="")

    p = sub.add_parser("report", parents=[common], help="re-render a saved JSON report")
    p.add_argument("--report", required=True, help="report JSON from eval")
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="markdown")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out_is_not_an_input(args)
        return _HANDLERS[args.subcommand](args)
    except SlotchainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
