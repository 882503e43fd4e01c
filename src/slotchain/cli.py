"""Command-line pipeline over the library.

One binary with subcommands: ingest, validate, stats, build, refine,
sample, eval, report. Data goes to --out or standard output, as UTF-8;
everything else (summaries, warnings, errors) goes to standard error.
Exit codes: 0 success, 1 data or validation error (input that is not
UTF-8 included), 2 usage error, 3 a refine run that finished with some
items unrefined, 128 plus the signal number for a run stopped by SIGINT
(130), SIGTERM (143) or SIGHUP (129), with one line on standard error.
Standard output closed early by its reader (``head``) is an OSError like
any other: exit 1 and the one line ``error: [Errno 32] Broken pipe``.
No subcommand rewrites its input files: an --out naming one is an error.
--out is written atomically, so an interrupted or stopped run leaves the
old file whole and no temporary file. ingest and sample write one
dialogue at a time, build one dialogue's example lines at a time and
refine one chunk of REFINE_CHUNK lines at a time, so none holds the
whole output. An offline refine of more than one chunk refines its
chunks in a pool of min(--max-parallel, usable CPUs) worker processes,
at most two chunks per worker in flight, and writes them in input order;
an online refine sends up to --max-parallel requests at once from
threads. A worker ignores SIGINT, which a terminal's Ctrl-C sends to the
whole process group, so that main alone answers it, once the workers
finish their chunks; a worker dies of SIGTERM or SIGHUP.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import signal
import sys
from typing import Iterable, Iterator

from . import __version__
from .builder import (
    DEFAULT_TEMPLATE,
    build_dataset,
    examples_to_jsonl,
    load_template,
    read_examples,
    slot_prompts,
)
from .chains import step_histogram
from .corpus import (
    LEGACY_STYLES,
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
from .io import decode, file_or_bundled, json_text, read_json, read_lines, write_lines
from .normalize import DEFAULT_POLICY, NormalizationPolicy
from .refiner import RefineConfig, load_refine_config, refine_batch

# Lines that refine reads, refines and writes at a time. Each distinct
# coarse text is still refined once per run, whichever chunk it is in,
# except in worker processes: there, once per chunk it is in.
REFINE_CHUNK = 1000
# Options that name files a subcommand reads; --out must name none of them.
_INPUT_OPTIONS = (
    "corpus", "input", "examples", "predictions", "report", "schema",
    "config", "policy", "template_file", "buckets",
)


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


def _load_corpus_arg(args: argparse.Namespace) -> Corpus:
    """The --corpus file, read against the --schema it names."""
    return load_corpus([args.corpus], _load_schema_arg(args.schema))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.split and args.style == "canonical":
        print(
            "error: --split is for legacy files; with --style canonical each record "
            "names its own split",
            file=sys.stderr,
        )
        return 2
    schema = _load_schema_arg(args.schema)
    exclude = _parse_exclude(args.exclude_domains)
    corpus = load_corpus(args.input, schema, exclude, args.style, args.split)
    counts = corpus.split_counts()
    summary = " ".join(f"{split}={counts.get(split, 0)}" for split in SPLITS)
    write_lines(args.out, corpus_json_lines(corpus))
    print(
        f"ingested dialogues: {summary} (total {sum(counts.values())})",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    counts = corpus.split_counts()
    summary = {
        "dialogues": len(corpus.dialogues),
        "turns": sum(d.n_turns for d in corpus.dialogues),
        "splits": {split: counts[split] for split in sorted(counts)},
        "slots": len(corpus.schema.slots),
    }
    write_lines(args.out, json_text(summary))
    print("corpus is valid", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    counts = step_histogram(corpus.only(args.split))
    total = sum(counts.values())
    multi = sum(n for steps, n in counts.items() if steps >= 2)
    multi_step_fraction = multi / total if total else 0.0
    if args.format == "json":
        payload = {
            "counts": {str(steps): n for steps, n in counts.items()},
            "total_active": total,
            "multi_step_fraction": multi_step_fraction,
        }
        write_lines(args.out, json_text(payload))
        return 0
    lines = [f"{'step':<6}{'samples':>9}{'share':>9}"]
    for steps, count in counts.items():  # a count is there only when total > 0
        lines.append(f"{steps:<6d}{count:>9d}{count / total:>9.2%}")
    lines.append("")
    lines.append(f"total active samples: {total}")
    lines.append(f"multi-step share (step >= 2): {multi_step_fraction:.2%}")
    write_lines(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    template = DEFAULT_TEMPLATE
    if args.template_file:
        template = load_template(args.template_file, corpus.schema)
    prompts = slot_prompts(corpus.schema, template)
    dialogues = sorted(corpus.only(args.split).dialogues, key=lambda d: d.dialogue_id)
    options = {
        "include_explanations": not args.no_explanations,
        "include_inactive": args.include_inactive,
    }
    write_lines(args.out, ("".join(build_dataset(d, prompts, **options)) for d in dialogues))
    return 0


def _chunks(lines: Iterator[tuple[int, bytes]]) -> Iterator[Iterator[tuple[int, bytes]]]:
    """``lines`` in chunks of REFINE_CHUNK, each drawn from ``lines`` only
    as it is consumed (consume it before drawing the next): a chunk's raw
    lines never sit beside its decoded examples, which would add about
    1 MB to an online refine's peak RSS."""
    for first in lines:
        yield itertools.chain((first,), itertools.islice(lines, REFINE_CHUNK - 1))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _refine_lines(
    path: str, lines: Iterable[tuple[int, bytes]], config: RefineConfig, memo: dict | None = None
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Decode and refine ``lines``, numbered raw lines of the examples
    file ``path``: (the refined examples' JSONL, failures)."""
    examples, failures = refine_batch(read_examples(path, lines), config, memo)
    return examples_to_jsonl(examples), failures


def _refined_chunks(path: str, config: RefineConfig) -> Iterator[tuple]:
    """_refine_lines of each chunk of REFINE_CHUNK lines of ``path``, in
    order. Offline, when there are two chunks or more and two usable CPUs
    or more, the chunks are refined in worker processes, each chunk with
    a memo of its own; otherwise they are refined here as they are read,
    sharing one memo, so each distinct text is refined once."""
    chunks = _chunks(read_lines(path))
    workers = min(config.max_parallel, _usable_cpus()) if config.offline else 1
    if workers >= 2:
        head = [tuple(chunk) for chunk in itertools.islice(chunks, 2)]
        chunks = itertools.chain(head, chunks)
        if len(head) == 2:
            yield from _refined_in_pool(path, config, workers, chunks)
            return
    memo = {}
    for chunk in chunks:
        yield _refine_lines(path, chunk, config, memo)


def _refined_in_pool(
    path: str, config: RefineConfig, workers: int, chunks: Iterable[Iterable]
) -> Iterator[tuple]:
    """_refine_lines of each of ``chunks``, gathered at submit, in a pool
    of ``workers`` processes, at most two chunks per worker in flight, in order."""
    # Here, not at the top: only an offline run of several chunks needs a pool.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_worker_signals)
    pending = collections.deque()
    try:
        for lines in chunks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_refine_lines, path, tuple(lines), config))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise SlotchainError(f"a refine worker process stopped: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _worker_signals() -> None:
    """A refine worker's signal handling. A forked worker inherits main's
    _stop, and a _Stopped raised in a task is the task's error, which the
    worker survives; a pool that is torn down then waits for it forever.
    So a worker dies of SIGTERM and SIGHUP, and leaves Ctrl-C to main."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for signum in _STOP_SIGNALS:
        signal.signal(signum, signal.SIG_DFL)


def _cmd_refine(args: argparse.Namespace) -> int:
    overrides = {}
    if args.offline:
        overrides["offline"] = True
    if args.max_parallel is not None:
        overrides["max_parallel"] = args.max_parallel
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    config = load_refine_config(args.config, **overrides)
    if config.cache_dir and not config.offline:
        # Before any request: a directory that cannot be made would throw every answer away.
        os.makedirs(config.cache_dir, exist_ok=True)
    failed = 0

    def lines() -> Iterator[str]:
        nonlocal failed
        for text, failures in _refined_chunks(args.examples, config):
            for example_id, error in failures:
                print(f"warning: {example_id}: {error}", file=sys.stderr)
            failed += len(failures)
            yield text

    write_lines(args.out, lines())
    if failed:
        print(f"{failed} example(s) left unrefined", file=sys.stderr)
        return 3
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    sampled = low_resource_sample(corpus, args.fraction, seed=args.seed)
    kept = sampled.split_counts().get("train", 0)
    write_lines(args.out, corpus_json_lines(sampled))
    print(
        f"kept {kept} of {corpus.split_counts().get('train', 0)} train dialogues "
        f"(fraction {args.fraction}, seed {args.seed})",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    corpus = _load_corpus_arg(args)
    predictions = load_predictions(args.predictions, corpus)
    policy = DEFAULT_POLICY
    if args.policy:
        policy = decode(NormalizationPolicy, read_json(args.policy, expect=dict), args.policy)
    specs = [load_bucket_spec(name) for name in args.buckets]
    spec_by_axis: dict[str, str] = {}
    for name, spec in zip(args.buckets, specs):
        if spec.axis in spec_by_axis:
            raise SlotchainError(
                f"--buckets {spec_by_axis[spec.axis]} and {name} both bucket the axis "
                f"{spec.axis!r}; give one spec per axis"
            )
        spec_by_axis[spec.axis] = name
    # Indexed against the whole corpus first, so that a row naming a
    # dialogue of another split is still checked, though never scored.
    report = fine_grained_report(corpus.only(args.split), predictions, policy=policy, specs=specs)
    write_lines(args.out, render_report(report, "json"))
    if report.n_missing_predictions:
        print(
            f"{report.n_missing_predictions} missing predictions defaulted to none",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = read_report(args.report)
    write_lines(args.out, render_report(report, args.format))
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
    common.add_argument("--out", help="write output here instead of stdout")
    corpus_args = argparse.ArgumentParser(add_help=False, parents=[common])
    corpus_args.add_argument("--corpus", required=True, help="canonical corpus file")
    corpus_args.add_argument("--schema", required=True, help="schema file or bundled name")

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
        choices=("canonical", *LEGACY_STYLES),
        default="canonical",
        help="input layout (default canonical)",
    )
    p.add_argument("--schema", required=True, help="schema file or bundled name")
    p.add_argument(
        "--split", choices=SPLITS, help="split for legacy files when not inferable from the name"
    )
    p.add_argument("--exclude-domains", default="", help="comma-separated domains to drop")

    sub.add_parser("validate", parents=[corpus_args], help="check a corpus and print a summary")

    p = sub.add_parser("stats", parents=[corpus_args], help="step histogram over slot chains")
    p.add_argument("--split", choices=SPLITS, help="restrict to one split")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("build", parents=[corpus_args], help="render prompt/target examples")
    p.add_argument("--template-file", help="prompt template JSON")
    p.add_argument("--no-explanations", action="store_true", help="emit bare values")
    p.add_argument(
        "--include-inactive", action="store_true", help="keep slots with no value yet"
    )
    p.add_argument("--split", choices=SPLITS)

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

    p = sub.add_parser("sample", parents=[corpus_args], help="keep a seeded fraction of train")
    p.add_argument("--fraction", type=float, required=True, help="train fraction in (0, 1]")
    p.add_argument("--seed", type=int, default=13, help="random seed (default 13)")

    p = sub.add_parser("eval", parents=[corpus_args], help="score predictions against gold states")
    p.add_argument("--predictions", required=True, help="predictions JSONL")
    p.add_argument("--policy", help="normalization policy JSON")
    p.add_argument(
        "--buckets",
        nargs="*",
        default=[],
        help="bucket spec files or bundled names (step, mwz_turn, ...)",
    )
    p.add_argument("--split", choices=SPLITS)

    p = sub.add_parser("report", parents=[common], help="re-render a saved JSON report")
    p.add_argument("--report", required=True, help="report JSON from eval")
    p.add_argument("--format", choices=("json", "markdown", "csv"), default="markdown")

    return parser


class _Stopped(BaseException):
    """A SIGTERM or SIGHUP, raised where the program was, so that it
    unwinds as from Ctrl-C. Its one argument is the signal number."""


_STOP_SIGNALS = tuple(
    getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name)
)


def _stop(signum: int, frame) -> None:
    raise _Stopped(signum)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handled = [(signum, signal.signal(signum, _stop)) for signum in _STOP_SIGNALS]
    except ValueError:  # not the main thread, the one thread that can set handlers
        handled = []
    try:
        _check_out_is_not_an_input(args)
        return _HANDLERS[args.subcommand](args)
    except (SlotchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Stopped) as exc:
        signum = exc.args[0] if isinstance(exc, _Stopped) else signal.SIGINT
        print(f"error: stopped by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        for signum, previous in handled:
            signal.signal(signum, previous)


if __name__ == "__main__":
    sys.exit(main())
