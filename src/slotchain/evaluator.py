"""Joint goal accuracy, bucketed fine-grained reports, low-resource
sampling, and report rendering.

A turn counts as correct only when every slot in the schema matches the
gold state, absent slots matching the "none" sentinel. Buckets slice the
same per-turn correctness three ways: by reasoning depth (step), by
dialogue length (turn), and by average utterance length (len).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .builder import avg_utterance_len, parse_generation
from .chains import max_step_at_turns
from .corpus import Corpus, Dialogue
from .errors import (
    DuplicatePredictionError,
    FormatError,
    InvalidFractionError,
    TurnOutOfRangeError,
    UnknownDialogueError,
    UnknownSlotError,
    ValidationError,
)
from .io import decode, encode, file_or_bundled, read_json, read_jsonl
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


def load_predictions(path: str | Path) -> tuple[PredictionRecord, ...]:
    """Predictions from JSONL rows {dialogue_id, turn, slot_id, text}."""
    records: list[PredictionRecord] = []
    seen: dict[tuple[str, int, str], int] = {}
    for line_number, where, data in read_jsonl(path):
        record = decode(PredictionRecord, data, where)
        key = (record.dialogue_id, record.query_turn, record.slot_id)
        if key in seen:
            raise DuplicatePredictionError(f"{where}: duplicates line {seen[key]} {key}")
        seen[key] = line_number
        records.append(record)
    return tuple(records)


def _index_predictions(
    corpus: Corpus,
    predictions: Iterable[PredictionRecord],
) -> dict[tuple[str, int, str], str]:
    by_id = {d.dialogue_id: d for d in corpus.dialogues}
    indexed: dict[tuple[str, int, str], str] = {}
    for record in predictions:
        dialogue = by_id.get(record.dialogue_id)
        if dialogue is None:
            raise UnknownDialogueError(f"prediction names unknown dialogue {record.dialogue_id!r}")
        if record.slot_id not in corpus.schema:
            raise UnknownSlotError(f"prediction names unknown slot {record.slot_id!r}")
        if not 1 <= record.query_turn <= dialogue.n_turns:
            raise TurnOutOfRangeError(
                f"prediction turn {record.query_turn} outside dialogue "
                f"{record.dialogue_id!r} with {dialogue.n_turns} turns"
            )
        key = (record.dialogue_id, record.query_turn, record.slot_id)
        if key in indexed:
            raise DuplicatePredictionError(f"duplicate prediction for {key}")
        value, _ = parse_generation(record.generated_text)
        indexed[key] = value
    return indexed


def _turn_correctness(
    corpus: Corpus,
    predictions: Iterable[PredictionRecord],
    policy: NormalizationPolicy,
    split: str | None,
) -> tuple[dict[tuple[str, int], bool], int]:
    """Per evaluated turn, whether every slot matched; plus how many
    (turn, slot) lookups fell back to the "none" default."""
    indexed = _index_predictions(corpus, predictions)
    slots = corpus.schema.slots
    correctness: dict[tuple[str, int], bool] = {}
    missing = 0
    for dialogue in corpus.dialogues_in(split):
        for turn in dialogue.turns:
            ok = True
            for slot in slots:
                key = (dialogue.dialogue_id, turn.index, slot.slot_id)
                predicted = indexed.get(key)
                if predicted is None:
                    missing += 1
                    predicted = NONE_VALUE
                gold = turn.gold_state.get(slot.slot_id, NONE_VALUE)
                if ok and not values_match(
                    predicted, gold, policy, categorical=slot.is_categorical
                ):
                    ok = False
            correctness[(dialogue.dialogue_id, turn.index)] = ok
    return correctness, missing


# ---------------------------------------------------------------------------
# buckets


@dataclass(frozen=True)
class Bucket:
    """Half-open range [lo, hi); hi None means open-ended."""

    lo: int
    hi: int | None

    @property
    def label(self) -> str:
        if self.hi is None:
            return f"{self.lo}+"
        if self.hi == self.lo + 1:
            return str(self.lo)
        return f"{self.lo}-{self.hi - 1}"

    def contains(self, value: float) -> bool:
        return value >= self.lo and (self.hi is None or value < self.hi)


@dataclass(frozen=True)
class BucketSpec:
    """Disjoint ascending ranges covering every non-negative value."""

    axis: str
    edges: tuple[Bucket, ...]

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.edges:
            raise ValidationError("bucket spec needs at least one range")
        if self.edges[0].lo != 0:
            raise ValidationError("first range must start at 0")
        for i, bucket in enumerate(self.edges):
            last = i == len(self.edges) - 1
            if last:
                if bucket.hi is not None:
                    raise ValidationError("final range must be open-ended (null hi)")
            else:
                if bucket.hi is None:
                    raise ValidationError("only the final range may be open-ended")
                if bucket.hi <= bucket.lo:
                    raise ValidationError(f"empty range [{bucket.lo}, {bucket.hi})")
                if self.edges[i + 1].lo != bucket.hi:
                    raise ValidationError(
                        f"ranges must be contiguous: [{bucket.lo}, {bucket.hi}) "
                        f"then lo={self.edges[i + 1].lo}"
                    )

    def bucket_for(self, value: float) -> Bucket:
        for bucket in self.edges:
            if bucket.contains(value):
                return bucket
        raise ValidationError(f"value {value} below every range")


def load_bucket_spec(path_or_name: str | Path) -> BucketSpec:
    """Spec from a JSON file, or from the bundled set by bare name
    (step, mwz_turn, mwz_len, m2m_len, woz_turn, woz_len)."""
    source = file_or_bundled(str(path_or_name), "bucket_specs")
    if source is None:
        raise FormatError(f"{path_or_name}: neither a file nor a bundled bucket spec")
    data = read_json(source, expect=dict)
    axis = data.get("axis")
    if not isinstance(axis, str) or not isinstance(data.get("edges"), list):
        raise FormatError(f"{source}: expected an object with a string 'axis' and 'edges'")
    edges = []
    for pair in data["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"{source}: each edge must be a [lo, hi] pair")
        lo, hi = pair
        # type() rather than isinstance(): JSON's true and false are not integers.
        if type(lo) is not int or not (hi is None or type(hi) is int):
            raise FormatError(f"{source}: edge bounds must be integers (hi may be null)")
        edges.append(Bucket(lo=lo, hi=hi))
    try:
        return BucketSpec(axis=axis, edges=tuple(edges))
    except ValidationError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def _axis_value_by_turn(
    dialogue: Dialogue, axis: str, policy: NormalizationPolicy
) -> list[float]:
    if axis == "step":
        return [float(v) for v in max_step_at_turns(dialogue, policy)]
    if axis == "turn":
        return [float(dialogue.n_turns)] * dialogue.n_turns
    if axis == "len":
        return [avg_utterance_len(dialogue)] * dialogue.n_turns
    raise ValidationError(f"unknown axis {axis!r}")


def bucketize(
    corpus: Corpus,
    spec: BucketSpec,
    split: str | None = None,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> dict[tuple[str, int], Bucket]:
    """Assign every evaluated (dialogue_id, turn) to exactly one bucket."""
    assignment: dict[tuple[str, int], Bucket] = {}
    for dialogue in corpus.dialogues_in(split):
        values = _axis_value_by_turn(dialogue, spec.axis, policy)
        for turn, value in zip(dialogue.turns, values):
            assignment[(dialogue.dialogue_id, turn.index)] = spec.bucket_for(value)
    return assignment


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
        for axis in {b.axis for b in self.buckets}:
            axis_total = sum(b.n_turns for b in self.buckets if b.axis == axis)
            if axis_total != self.n_turns:
                raise ValidationError(
                    f"axis {axis!r} buckets cover {axis_total} turns of {self.n_turns}"
                )


def fine_grained_report(
    corpus: Corpus,
    predictions: Sequence[PredictionRecord],
    policy: NormalizationPolicy = DEFAULT_POLICY,
    specs: Sequence[BucketSpec] = (),
    split: str | None = None,
) -> EvalReport:
    """Joint goal accuracy, the fraction of turns whose full predicted
    state matches gold, plus per-bucket accuracy for each axis spec.
    Missing predictions default to "none" and are tallied in the report."""
    correctness, missing = _turn_correctness(corpus, predictions, policy, split)
    n_turns = len(correctness)
    buckets: list[BucketResult] = []
    for spec in specs:
        assignment = bucketize(corpus, spec, split, policy)
        for bucket in spec.edges:
            keys = [k for k, b in assignment.items() if b == bucket]
            n = len(keys)
            jga = sum(correctness[k] for k in keys) / n if n else None
            buckets.append(
                BucketResult(
                    axis=spec.axis,
                    label=bucket.label,
                    lo=bucket.lo,
                    hi=bucket.hi,
                    n_turns=n,
                    jga=jga,
                )
            )
    return EvalReport(
        overall_jga=sum(correctness.values()) / n_turns if n_turns else 0.0,
        n_dialogues=len(corpus.dialogues_in(split)),
        n_turns=n_turns,
        n_missing_predictions=missing,
        policy=policy,
        buckets=tuple(buckets),
    )


# ---------------------------------------------------------------------------
# low-resource sampling


def low_resource_sample(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Keep ⌈fraction × train dialogues⌉ whole train dialogues, chosen by
    seeded shuffle of the sorted dialogue ids; dev and test untouched.
    Pure function of (corpus, fraction, seed)."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidFractionError(f"fraction must be in (0, 1], got {fraction}")
    train_ids = sorted(d.dialogue_id for d in corpus.dialogues_in("train"))
    if not train_ids:
        raise ValidationError("corpus has no train dialogues to sample")
    rng = random.Random(seed)
    rng.shuffle(train_ids)
    keep = set(train_ids[: math.ceil(fraction * len(train_ids))])
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
        return json.dumps(encode(report), ensure_ascii=False, indent=2) + "\n"
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
