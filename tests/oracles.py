"""Brute-force recounts used to cross-check the library.

These re-derive every number from the raw data with the dumbest loops
available, independently of how the library aggregates. Keep them slow
and obvious.
"""

from __future__ import annotations

from difflib import SequenceMatcher

from slotchain.builder import TARGET_SEPARATOR, parse_generation
from slotchain.corpus import Corpus, Dialogue
from slotchain.errors import ValidationError
from slotchain.evaluator import PredictionRecord
from slotchain.io import decode
from slotchain.normalize import (
    DONTCARE_VALUE,
    NONE_VALUE,
    NormalizationPolicy,
    normalize_value,
)

_SENTINELS = {NONE_VALUE, DONTCARE_VALUE}


def render_target(value: str, explanation: str = "") -> str:
    """The target text that parse_generation reads back as (value,
    explanation): the value alone, or value + " | " + explanation.
    Parsing splits at the first separator, so the value must not hold one."""
    if not value:
        raise ValidationError("target value must be non-empty (use the \"none\" sentinel)")
    if TARGET_SEPARATOR in value:
        raise ValidationError(
            f"target value {value!r} contains the separator {TARGET_SEPARATOR!r}"
        )
    if not explanation:
        return value
    return f"{value}{TARGET_SEPARATOR}{explanation}"


def _matches(predicted: str, gold: str, policy: NormalizationPolicy, categorical: bool) -> bool:
    p = normalize_value(predicted, policy)
    g = normalize_value(gold, policy)
    if p == g:
        return True
    if (
        policy.fuzzy_ratio_threshold is not None
        and not categorical
        and p not in _SENTINELS
        and g not in _SENTINELS
    ):
        return SequenceMatcher(None, p, g).ratio() >= policy.fuzzy_ratio_threshold
    return False


def oracle_jga(
    corpus: Corpus,
    prediction_rows: list[dict],
    policy: NormalizationPolicy,
    split: str | None = None,
) -> float:
    """Fraction of turns where every slot's prediction matches gold."""
    indexed: dict[tuple[str, int, str], str] = {}
    for row in prediction_rows:
        key = (row["dialogue_id"], row["turn"], row["slot_id"])
        assert key not in indexed, f"oracle fed duplicate prediction {key}"
        indexed[key] = row["text"]

    total = 0
    correct = 0
    for dialogue in corpus.dialogues:
        if split is not None and dialogue.split != split:
            continue
        for turn in dialogue.turns:
            total += 1
            turn_ok = True
            for slot in corpus.schema.slots:
                gold = turn.gold_state.get(slot.slot_id, NONE_VALUE)
                predicted = indexed.get(
                    (dialogue.dialogue_id, turn.index, slot.slot_id), NONE_VALUE
                )
                if not _matches(predicted, gold, policy, slot.is_categorical):
                    turn_ok = False
                    break
            if turn_ok:
                correct += 1
    return correct / total if total else 0.0


def oracle_prediction_index(corpus: Corpus, rows: list) -> dict[tuple[str, int, str], str]:
    """(dialogue_id, turn, slot_id) -> parsed value for parsed JSON
    ``rows`` named "rows: line <n>" from line 1: each row decoded into a
    PredictionRecord, then checked against the corpus and the rows
    before it, raising the error index_predictions words."""
    indexed: dict[tuple[str, int, str], str] = {}
    lines: dict[tuple[str, int, str], int] = {}
    for line, row in enumerate(rows, start=1):
        where = f"rows: line {line}"
        record = decode(PredictionRecord, row, where)
        key = (record.dialogue_id, record.query_turn, record.slot_id)
        dialogues = [d for d in corpus.dialogues if d.dialogue_id == record.dialogue_id]
        if not dialogues:
            raise ValidationError(
                f"{where}: prediction names unknown dialogue {record.dialogue_id!r}"
            )
        if record.slot_id not in [slot.slot_id for slot in corpus.schema.slots]:
            raise ValidationError(f"{where}: prediction names unknown slot {record.slot_id!r}")
        n_turns = len(dialogues[0].turns)
        if record.query_turn < 1 or record.query_turn > n_turns:
            raise ValidationError(
                f"{where}: prediction turn {record.query_turn} outside dialogue "
                f"{record.dialogue_id!r} with {n_turns} turns"
            )
        if key in lines:
            raise ValidationError(f"{where}: duplicates line {lines[key]} {key}")
        lines[key] = line
        indexed[key] = parse_generation(record.generated_text)[0]
    return indexed


def oracle_chain(
    dialogue: Dialogue,
    slot_id: str,
    query_turn: int,
    policy: NormalizationPolicy,
) -> list[tuple[int, str]]:
    """(turn, raw value) pairs at which the slot's normalized value
    changed, scanning the full prefix. Deletions appear as "none"."""
    raws = []
    norms = []
    for turn in dialogue.turns[:query_turn]:
        if slot_id in turn.gold_state:
            raw = turn.gold_state[slot_id]
            norms.append(normalize_value(raw, policy))
            raws.append(raw)
        else:
            norms.append(NONE_VALUE)
            raws.append(NONE_VALUE)
    steps = []
    previous = NONE_VALUE
    for position, norm in enumerate(norms):
        if norm != previous:
            steps.append((position + 1, raws[position]))
        previous = norm
    return steps


def oracle_step_histogram(
    corpus: Corpus,
    split: str | None,
    policy: NormalizationPolicy,
) -> dict[int, int]:
    """Step-count -> sample-count over every (dialogue, turn, slot)
    whose chain is non-empty at that turn."""
    counts: dict[int, int] = {}
    for dialogue in corpus.dialogues:
        if split is not None and dialogue.split != split:
            continue
        for turn in dialogue.turns:
            for slot in corpus.schema.slots:
                steps = len(oracle_chain(dialogue, slot.slot_id, turn.index, policy))
                if steps >= 1:
                    counts[steps] = counts.get(steps, 0) + 1
    return counts


def oracle_multi_step_fraction(counts: dict[int, int]) -> float:
    total = sum(counts.values())
    multi = sum(n for steps, n in counts.items() if steps >= 2)
    return multi / total if total else 0.0
