"""Joint goal accuracy, bucketed fine-grained reports, low-resource
sampling, and report rendering.

A turn counts as correct only when every slot in the schema matches the
gold state, absent slots matching the "none" sentinel. Buckets slice the
same per-turn correctness three ways: by reasoning depth (step), by
dialogue length (turn), and by average utterance length (len).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .builder import avg_utterance_len, parse_generation
from .chains import max_step_at_turns
from .corpus import Corpus, Dialogue
from .errors import FormatError, ValidationError
from .io import decode, encode, file_or_bundled, json_text, read_json, read_jsonl
from .normalize import DEFAULT_POLICY, NONE_VALUE, NormalizationPolicy, values_match

AXES = ("step", "turn", "len")


@dataclass(frozen=True)
class PredictionRecord:
    """One generation for a (dialogue, turn, slot) sample. The text may
    carry a trailing explanation; only the parsed value is scored. In a
    predictions file the turn is keyed ``turn`` and the text ``text``."""

    dialogue_id: str
    query_turn: int = field(metadata={"json_key": "turn"})
    slot_id: str
    generated_text: str = field(metadata={"json_key": "text"})

    def __post_init__(self) -> None:
        if not self.dialogue_id:
            raise ValidationError("field 'dialogue_id' must not be empty")
        if not self.slot_id:
            raise ValidationError("field 'slot_id' must not be empty")
        if not self.generated_text.strip():
            raise ValidationError("field 'text' must not be blank")


def load_predictions(path: str | Path, corpus: Corpus) -> dict[tuple[str, int, str], str]:
    """The prediction index of a JSONL file of rows {dialogue_id, turn,
    slot_id, text}, checked against ``corpus``; see index_predictions."""
    return index_predictions(corpus, functools.partial(read_jsonl, path))


def index_predictions(
    corpus: Corpus, read_rows: Callable[[], Iterable[tuple[int, str, object]]]
) -> dict[tuple[str, int, str], str]:
    """The one map that scoring reads, (dialogue_id, turn, slot_id) ->
    the value parsed from the row's text, built in one pass over
    ``read_rows()``: (line number, "<file>: line <n>", parsed row)
    triples, as read_jsonl gives them. Each row is checked as it comes,
    its errors naming its line: its fields, its dialogue and slot
    against ``corpus``, its turn against the dialogue's length, and its
    key against the rows before it. A repeated key names both lines; the
    earlier one is found by reading the rows again.

    A row's fields are read and checked in place, as PredictionRecord
    would check them; only a row that fails goes through the codec, so
    that PredictionRecord words its fault."""
    n_turns = {d.dialogue_id: d.n_turns for d in corpus.dialogues}
    slots = corpus.schema.by_id
    indexed: dict[tuple[str, int, str], str] = {}
    for _, where, data in read_rows():
        if type(data) is dict and len(data) == 4:
            dialogue_id = data.get("dialogue_id")
            turn = data.get("turn")
            slot_id = data.get("slot_id")
            text = data.get("text")
        else:
            dialogue_id = None  # not a row of four fields: the codec words it
        if not (
            type(dialogue_id) is str and dialogue_id
            and type(turn) is int  # type(), not isinstance(): true and false are no turn
            and type(slot_id) is str and slot_id
            and type(text) is str and text and not text.isspace()
        ):
            decode(PredictionRecord, data, where)  # raises: words the row's fault
        key = (dialogue_id, turn, slot_id)
        turns = n_turns.get(dialogue_id)
        if turns is None:
            raise ValidationError(f"{where}: prediction names unknown dialogue {dialogue_id!r}")
        if slot_id not in slots:
            raise ValidationError(f"{where}: prediction names unknown slot {slot_id!r}")
        if not 1 <= turn <= turns:
            raise ValidationError(
                f"{where}: prediction turn {turn} outside dialogue {dialogue_id!r} "
                f"with {turns} turns"
            )
        if key in indexed:
            first = next(
                line for line, _, row in read_rows()
                if (row["dialogue_id"], row["turn"], row["slot_id"]) == key
            )
            raise ValidationError(f"{where}: duplicates line {first} {key}")
        indexed[key] = parse_generation(text)[0]
    return indexed


# ---------------------------------------------------------------------------
# buckets


def bucket_label(lo: int, hi: int | None) -> str:
    """Label of the half-open range [lo, hi); hi None means open-ended."""
    if hi is None:
        return f"{lo}+"
    if hi == lo + 1:
        return str(lo)
    return f"{lo}-{hi - 1}"


@dataclass(frozen=True)
class BucketSpec:
    """Disjoint ascending ranges covering every non-negative value: each
    ``[lo, hi]`` pair of ``edges`` is the half-open range [lo, hi)."""

    axis: str
    edges: tuple[tuple[int | None, int | None], ...]

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.edges:
            raise ValidationError("bucket spec needs at least one range")
        if self.edges[0][0] != 0:
            raise ValidationError("first range must start at 0")
        # hi <= lo runs only on a lo that equals the integer hi before it, or is 0.
        for (lo, hi), (next_lo, _) in zip(self.edges, self.edges[1:]):
            if hi is None:
                raise ValidationError("only the final range may be open-ended")
            if hi <= lo:
                raise ValidationError(f"empty range [{lo}, {hi})")
            if next_lo != hi:
                raise ValidationError(
                    f"ranges must be contiguous: [{lo}, {hi}) "
                    f"then lo={'null' if next_lo is None else next_lo}"
                )
        if self.edges[-1][1] is not None:
            raise ValidationError("final range must be open-ended (null hi)")

    def position(self, value: float) -> int:
        """Index in ``edges`` of the range that holds ``value`` >= 0."""
        for index, (_, hi) in enumerate(self.edges):
            if hi is None or value < hi:
                return index


def load_bucket_spec(path_or_name: str | Path) -> BucketSpec:
    """Spec from a JSON file, or from the bundled set by bare name
    (step, mwz_turn, mwz_len, m2m_len, woz_turn, woz_len)."""
    source = file_or_bundled(str(path_or_name), "bucket_specs")
    if source is None:
        raise FormatError(f"{path_or_name}: neither a file nor a bundled bucket spec")
    return decode(BucketSpec, read_json(source, expect=dict), source)


def bucketize(dialogue: Dialogue, spec: BucketSpec) -> list[int]:
    """Each turn's position in ``spec.edges``, in turn order."""
    if spec.axis == "step":
        return [spec.position(steps) for steps in max_step_at_turns(dialogue)]
    if spec.axis == "turn":
        return [spec.position(dialogue.n_turns)] * dialogue.n_turns
    # "len", BucketSpec's last axis
    return [spec.position(avg_utterance_len(dialogue))] * dialogue.n_turns


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BucketResult:
    axis: str
    label: str
    lo: int
    hi: int | None
    n_turns: int
    jga: float | None  # None marks an empty bucket, not zero accuracy

    def __post_init__(self) -> None:
        label = bucket_label(self.lo, self.hi)
        if self.label != label:
            hi = "null" if self.hi is None else self.hi
            raise ValidationError(
                f"label {self.label!r} must be {label!r} for lo={self.lo}, hi={hi}"
            )
        if self.n_turns < 0:
            raise ValidationError(f"n_turns must be >= 0, got {self.n_turns}")
        if (self.jga is None) != (self.n_turns == 0):
            raise ValidationError(
                f"jga must be null exactly when n_turns is 0, got "
                f"{'null' if self.jga is None else self.jga} for {self.n_turns} turns"
            )
        if self.jga is not None and not 0.0 <= self.jga <= 1.0:
            raise ValidationError(f"jga {self.jga} outside [0, 1]")


@dataclass(frozen=True)
class EvalReport:
    overall_jga: float
    n_dialogues: int
    n_turns: int
    n_missing_predictions: int
    policy: NormalizationPolicy
    buckets: tuple[BucketResult, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.overall_jga <= 1.0:
            raise ValidationError(f"overall_jga {self.overall_jga} outside [0, 1]")
        for name in ("n_dialogues", "n_turns", "n_missing_predictions"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_dialogues > self.n_turns:  # a dialogue has at least one turn
            raise ValidationError(
                f"n_dialogues {self.n_dialogues} exceeds n_turns {self.n_turns}"
            )
        if self.n_turns == 0 and self.overall_jga != 0.0:
            raise ValidationError(f"overall_jga must be 0 without turns, got {self.overall_jga}")
        if self.n_turns == 0 and self.n_missing_predictions:
            raise ValidationError(
                f"n_missing_predictions must be 0 without turns, got {self.n_missing_predictions}"
            )
        n_correct = _correct_turns(self.overall_jga, self.n_turns, "overall_jga")
        for axis in dict.fromkeys(b.axis for b in self.buckets):  # first-seen order
            rows = [(i, b) for i, b in enumerate(self.buckets) if b.axis == axis]
            try:  # the ranges of an axis follow a bucket spec's rules
                BucketSpec(axis, tuple((b.lo, b.hi) for _, b in rows))
            except ValidationError as exc:
                raise ValidationError(f"buckets of axis {axis!r}: {exc}") from exc
            axis_total = sum(b.n_turns for _, b in rows)
            if axis_total != self.n_turns:
                raise ValidationError(
                    f"axis {axis!r} buckets cover {axis_total} turns of {self.n_turns}"
                )
            axis_correct = sum(
                _correct_turns(b.jga, b.n_turns, f"buckets[{i}]: jga")
                for i, b in rows
                if b.n_turns
            )
            if axis_correct != n_correct:
                raise ValidationError(
                    f"axis {axis!r} buckets hold {axis_correct} correct turns, but "
                    f"overall_jga {self.overall_jga} of {self.n_turns} turns holds {n_correct}"
                )


def _correct_turns(jga: float, n_turns: int, name: str) -> int:
    """The whole number of correct turns that ``jga`` of ``n_turns``
    stands for, within 1e-6; ``name`` is the field the error names."""
    correct = round(jga * n_turns)
    if abs(jga * n_turns - correct) > 1e-6:
        raise ValidationError(
            f"{name} {jga} of {n_turns} turns is not a whole number of correct turns"
        )
    return correct


def fine_grained_report(
    corpus: Corpus,
    predictions: Mapping[tuple[str, int, str], str],
    policy: NormalizationPolicy = DEFAULT_POLICY,
    specs: Sequence[BucketSpec] = (),
) -> EvalReport:
    """Joint goal accuracy, the fraction of turns whose full predicted
    state matches gold, plus per-bucket accuracy for each axis spec,
    over every dialogue of ``corpus`` in one pass. ``predictions`` is the
    index load_predictions gives. Missing predictions default to "none"
    and are tallied in the report. A turn's slots are compared until the
    first one that does not match; each distinct (predicted, gold,
    categorical) triple is compared once, the policy being fixed for
    the run."""
    slots = [(slot.slot_id, slot.is_categorical) for slot in corpus.schema.slots]
    matches: dict[tuple[str, str, bool], bool] = {}
    tallies = [[[0, 0] for _ in spec.edges] for spec in specs]  # turns, correct
    n_turns = n_correct = missing = 0
    for dialogue in corpus.dialogues:
        dialogue_id = dialogue.dialogue_id
        positions_by_spec = [bucketize(dialogue, spec) for spec in specs]
        for i, turn in enumerate(dialogue.turns):
            ok = True
            for slot_id, categorical in slots:
                predicted = predictions.get((dialogue_id, turn.index, slot_id))
                if predicted is None:
                    missing += 1
                    predicted = NONE_VALUE
                if ok:
                    gold = turn.gold_state.get(slot_id, NONE_VALUE)
                    triple = (predicted, gold, categorical)
                    match = matches.get(triple)
                    if match is None:
                        match = matches[triple] = values_match(
                            predicted, gold, policy, categorical=categorical
                        )
                    ok = match
            n_turns += 1
            n_correct += ok
            for spec_tallies, positions in zip(tallies, positions_by_spec):
                tally = spec_tallies[positions[i]]
                tally[0] += 1
                tally[1] += ok
    return EvalReport(
        overall_jga=n_correct / n_turns if n_turns else 0.0,
        n_dialogues=len(corpus.dialogues),
        n_turns=n_turns,
        n_missing_predictions=missing,
        policy=policy,
        buckets=tuple(
            BucketResult(
                axis=spec.axis,
                label=bucket_label(lo, hi),
                lo=lo,
                hi=hi,
                n_turns=n,
                jga=correct / n if n else None,
            )
            for spec, spec_tallies in zip(specs, tallies)
            for (lo, hi), (n, correct) in zip(spec.edges, spec_tallies)
        ),
    )


# ---------------------------------------------------------------------------
# low-resource sampling


def low_resource_sample(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Keep ⌈fraction × train dialogues⌉ whole train dialogues, chosen by
    seeded shuffle of the sorted dialogue ids; dev and test untouched.
    The product is exact, of the fraction's shortest decimal form: 0.07 of
    100 is 7, where the float product rounds up to 8. Pure function of
    (corpus, fraction, seed)."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    train_ids = sorted(d.dialogue_id for d in corpus.only("train").dialogues)
    if not train_ids:
        raise ValidationError("corpus has no train dialogues to sample")
    rng = random.Random(seed)
    rng.shuffle(train_ids)
    keep = set(train_ids[: math.ceil(Fraction(repr(fraction)) * len(train_ids))])
    dialogues = tuple(
        d for d in corpus.dialogues if d.split != "train" or d.dialogue_id in keep
    )
    return Corpus(schema=corpus.schema, dialogues=dialogues)


# ---------------------------------------------------------------------------
# report serialization


def read_report(path: str | Path) -> EvalReport:
    return decode(EvalReport, read_json(path, expect=dict), path)


def _format_jga(jga: float | None) -> str:
    return "n/a" if jga is None else f"{jga:.4f}"


def render_report(report: EvalReport, format: str) -> str:
    """Report as json, markdown, or csv text (stable field order)."""
    if format == "json":
        return json_text(encode(report))
    if format == "markdown":
        lines = [
            "# Evaluation report",
            "",
            f"- overall JGA: {_format_jga(report.overall_jga)}",
            f"- dialogues: {report.n_dialogues}",
            f"- turns: {report.n_turns}",
            f"- missing predictions defaulted to none: {report.n_missing_predictions}",
        ]
        for axis in AXES:
            rows = [b for b in report.buckets if b.axis == axis]
            if not rows:
                continue
            lines += ["", f"## {axis}", "", "| bucket | turns | JGA |", "| --- | --- | --- |"]
            for b in rows:
                lines.append(f"| {b.label} | {b.n_turns} | {_format_jga(b.jga)} |")
        return "\n".join(lines) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["axis", "bucket", "n_turns", "jga"])
        writer.writerow(["overall", "all", report.n_turns, _format_jga(report.overall_jga)])
        for b in report.buckets:
            writer.writerow([b.axis, b.label, b.n_turns, _format_jga(b.jga)])
        return out.getvalue()
    raise ValidationError(f"unknown report format {format!r}")
