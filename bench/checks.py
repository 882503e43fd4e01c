"""Correctness checks. Each compares the program's output with what the
benchmark computes itself from the inputs it generated (gen.py), never
with a stored copy of an earlier output. A failed check raises
CheckFailed naming the first difference."""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import gen
from endpoint import SPEAKER_TAGS, respond


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _jsonl(path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def check_stats(path, corpus: list[dict]) -> None:
    """`stats --format json` equals the recounted step histogram."""
    with open(path, encoding="utf-8") as handle:
        stats = json.load(handle)
    expected = gen.step_histogram(corpus)
    expect(stats["counts"] == expected, f"stats histogram {stats['counts']} != recount {expected}")
    expect(stats["total_active"] == sum(expected.values()), "stats total_active != recount")


def check_build(path, corpus: list[dict]) -> int:
    """One example per recounted active (dialogue, turn, slot), in order,
    with the recounted target, step count and coarse explanation.
    Returns the number of examples."""
    n = 0
    actual = _jsonl(path)
    for want in gen.expected_examples(corpus):
        got = next(actual, None)
        where = f"example {n} (want {want['example_id']})"
        expect(got is not None, f"{where}: output ends after {n} examples")
        expect(got["example_id"] == want["example_id"], f"{where}: got {got['example_id']}")
        expect(got["target_value"] == want["target_value"],
                f"{where}: target {got['target_value']!r} != {want['target_value']!r}")
        meta = got["meta"]
        expect(meta["step_count"] == want["step_count"],
                f"{where}: step_count {meta['step_count']} != {want['step_count']}")
        expect(meta["dialogue_turns"] == want["dialogue_turns"], f"{where}: dialogue_turns")
        expect(got["explanation"] == want["explanation"], f"{where}: coarse explanation differs")
        kind = "coarse" if want["explanation"] else "none"
        expect(got["explanation_kind"] == kind, f"{where}: kind {got['explanation_kind']!r}")
        # the history holds two lines per turn up to the query turn
        expect(got["input_text"].count("\n") == 2 * meta["query_turn"] - 1,
                f"{where}: prompt history has the wrong number of lines")
        n += 1
    expect(next(actual, None) is None, f"output has more than the {n} recounted examples")
    return n


def check_refined(before_path, after_path, expected_text) -> int:
    """Every coarse example of ``before_path`` is refined in
    ``after_path`` to ``expected_text(coarse)`` and holds no speaker tag;
    every other field and every other example is unchanged. Returns the
    number refined."""
    refined = 0
    after = _jsonl(after_path)
    for i, old in enumerate(_jsonl(before_path)):
        new = next(after, None)
        where = f"example {i} ({old['example_id']})"
        expect(new is not None, f"{where}: missing from the refined output")
        if old["explanation_kind"] == "coarse":
            expect(new["explanation_kind"] == "refined", f"{where}: left unrefined")
            expect(new["explanation"] == expected_text(old["explanation"]),
                    f"{where}: refined text is not the one for its own coarse text")
            expect(not any(tag in new["explanation"] for tag in SPEAKER_TAGS),
                    f"{where}: speaker tag left in the refined text")
            old = dict(old, explanation=new["explanation"], explanation_kind="refined")
            refined += 1
        expect(new == old, f"{where}: fields other than the explanation changed")
    expect(next(after, None) is None, "refined output has extra examples")
    return refined


def offline_text(coarse: str) -> str:
    """Offline refine: the coarse words without the speaker tags."""
    return " ".join(w for w in coarse.split() if w not in SPEAKER_TAGS)


def check_offline_refined(before_path, after_path) -> int:
    return check_refined(before_path, after_path, offline_text)


def check_api_refined(before_path, after_path) -> int:
    return check_refined(before_path, after_path, respond)


def check_cold_counts(stats: dict, coarse_items: int, distinct: int) -> None:
    expect(distinct <= stats["requests"] <= coarse_items,
            f"cold pass sent {stats['requests']} requests for {distinct} distinct of "
            f"{coarse_items} coarse texts")
    expect(stats["distinct"] == distinct,
            f"endpoint saw {stats['distinct']} distinct texts, input has {distinct}")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _fmt(jga) -> str:
    return "n/a" if jga is None else f"{jga:.4f}"


def check_report(json_path, md_path, csv_path, expected: dict) -> None:
    """The JSON report equals the plan's expectation; the markdown and
    csv renders carry the same numbers."""
    with open(json_path, encoding="utf-8") as handle:
        report = json.load(handle)
    for key in ("n_dialogues", "n_turns", "n_missing_predictions"):
        expect(report[key] == expected[key], f"report {key} {report[key]} != {expected[key]}")
    expect(_close(report["overall_jga"], expected["overall_jga"]),
            f"report JGA {report['overall_jga']} != planted {expected['overall_jga']}")
    got = [(b["axis"], b["label"], b["n_turns"], b["jga"]) for b in report["buckets"]]
    want = [(b["axis"], b["label"], b["n_turns"], b["jga"]) for b in expected["buckets"]]
    expect(len(got) == len(want), f"report has {len(got)} buckets, expected {len(want)}")
    for g, w in zip(got, want):
        expect(g[:3] == w[:3] and _close(g[3], w[3]), f"bucket {g} != expected {w}")

    rows = list(csv.reader(io.StringIO(Path(csv_path).read_text(encoding="utf-8"))))
    want_rows = [["axis", "bucket", "n_turns", "jga"],
                 ["overall", "all", str(expected["n_turns"]), _fmt(expected["overall_jga"])]]
    want_rows += [[a, label, str(n), _fmt(j)] for a, label, n, j in want]
    expect(rows == want_rows, "csv render disagrees with the expected report")

    md = Path(md_path).read_text(encoding="utf-8").splitlines()
    expect(f"- overall JGA: {_fmt(expected['overall_jga'])}" in md, "markdown overall JGA")
    expect(f"- turns: {expected['n_turns']}" in md, "markdown turn count")
    expect(f"- missing predictions defaulted to none: {expected['n_missing_predictions']}" in md,
            "markdown missing count")
    table = [line for line in md if line.startswith("| ") and not line.startswith("| bucket")
             and not line.startswith("| ---")]
    expect(table == [f"| {label} | {n} | {_fmt(j)} |" for _, label, n, j in want],
            "markdown bucket rows disagree with the expected report")
