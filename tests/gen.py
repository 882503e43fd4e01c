"""Seeded random fixtures shared across the test suite.

Everything takes an explicit random.Random so trials are reproducible.
Corpora are kept tiny (a few dialogues, a few turns) so thousand-trial
loops stay fast.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from slotchain.corpus import (
    SPLITS, Corpus, Dialogue, Schema, SlotSchema, TurnPair, _name_key, corpus_json_lines,
)

DOMAINS = ["hotel", "restaurant", "taxi", "train"]
SLOT_NAMES = ["area", "stars", "food", "day", "time", "people"]
CATEGORICAL_VALUES = [
    "cheap", "moderate", "expensive",
    "north", "south", "east", "west", "centre",
    "1", "2", "3", "4", "5",
]
FREE_VALUES = [
    "cheap", "Cheap", " cheap ", "north", "east side", "19:30",
    "el shaddai", "EL SHADDAI", "guest house!!", "a. b", "two of us",
    "none", "dontcare", "Don't Care",
]
WORDS = [
    "i", "need", "a", "place", "to", "stay", "book", "it", "for",
    "two", "people", "thanks", "sure", "what", "about", "the", "north",
]


def make_schema(rng: random.Random, max_slots: int = 4) -> Schema:
    n = rng.randint(1, max_slots)
    pairs = rng.sample([(d, s) for d in DOMAINS for s in SLOT_NAMES], n)
    slots = []
    for domain, name in pairs:
        if rng.random() < 0.5:
            k = rng.randint(2, 4)
            possible = tuple(rng.sample(CATEGORICAL_VALUES, k))
        else:
            possible = None
        slots.append(
            SlotSchema(
                slot_id=f"{domain}-{name}",
                domain=domain,
                name=name,
                description=f"{name} of the {domain}",
                possible_values=possible,
            )
        )
    return Schema(slots=tuple(slots))


def _utterance(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 6)))


def _pick_value(rng: random.Random, slot: SlotSchema) -> str:
    if slot.possible_values and rng.random() < 0.8:
        value = rng.choice(slot.possible_values)
        if rng.random() < 0.3:
            value = value.upper()
        return value
    return rng.choice(FREE_VALUES)


def make_dialogue(
    rng: random.Random,
    schema: Schema,
    dialogue_id: str,
    split: str,
    max_turns: int = 6,
) -> Dialogue:
    n_turns = rng.randint(1, max_turns)
    state: dict[str, str] = {}
    turns = []
    for index in range(1, n_turns + 1):
        for slot in schema.slots:
            if slot.slot_id not in state:
                if rng.random() < 0.35:
                    state[slot.slot_id] = _pick_value(rng, slot)
            elif rng.random() < 0.15:
                state[slot.slot_id] = _pick_value(rng, slot)
            elif rng.random() < 0.1:
                del state[slot.slot_id]
        system = ""
        if index > 1 or rng.random() < 0.7:
            system = _utterance(rng)
        turns.append(
            TurnPair(
                index=index,
                system_utterance=system,
                user_utterance=_utterance(rng),
                gold_state=dict(state),
            )
        )
    return Dialogue(dialogue_id=dialogue_id, split=split, turns=tuple(turns))


def make_corpus(
    rng: random.Random,
    max_dialogues: int = 5,
    max_turns: int = 6,
    max_slots: int = 4,
    split: str | None = None,
) -> Corpus:
    """Random small corpus. With split=None each dialogue draws its own."""
    schema = make_schema(rng, max_slots=max_slots)
    n = rng.randint(1, max_dialogues)
    dialogues = tuple(
        make_dialogue(
            rng,
            schema,
            dialogue_id=f"gen{i:03d}",
            split=split or rng.choice(["train", "dev", "test"]),
            max_turns=max_turns,
        )
        for i in range(n)
    )
    return Corpus(schema=schema, dialogues=dialogues)


def corpus_to_json(corpus: Corpus) -> str:
    """The whole canonical dialogue-file text of ``corpus``."""
    return "".join(corpus_json_lines(corpus))


# ---------------------------------------------------------------------------
# legacy layouts, written from a canonical corpus


def make_legacy_corpus(rng: random.Random, style: str, max_dialogues: int = 5) -> Corpus:
    """A random corpus that the legacy ``style`` can express: under
    woz_belief, whose slot names carry no domain, no two slots share a
    name key; under m2m_flat, whose records name one domain each, each
    dialogue's slots are of one domain."""
    schema = make_schema(rng)
    if style == "woz_belief":
        by_key = {}
        for slot in schema.slots:
            by_key.setdefault(_name_key(slot.name), slot)
        schema = Schema(tuple(by_key.values()))
    dialogues = []
    for i in range(rng.randint(1, max_dialogues)):
        slots = schema.slots
        if style == "m2m_flat":
            domain = rng.choice(slots).domain
            slots = tuple(slot for slot in slots if slot.domain == domain)
        split = rng.choice(SPLITS)
        dialogues.append(make_dialogue(rng, Schema(slots), f"gen{i:03d}", split))
    return Corpus(schema, tuple(dialogues))


def _spelled(rng: random.Random, name: str) -> str:
    """``name`` as a legacy file may spell it; each has its _name_key."""
    return rng.choice((name, name.upper(), name.capitalize()))


def _unset_slots(rng: random.Random, slots, state: dict[str, str]) -> list[SlotSchema]:
    """Some of ``slots`` that ``state`` leaves unset, for a record to list
    with a null or empty value."""
    return [slot for slot in slots if slot.slot_id not in state and rng.random() < 0.2]


def _woz_belief_record(rng: random.Random, dialogue: Dialogue, schema: Schema) -> dict:
    turns = []
    for turn in dialogue.turns:
        belief = [
            {"slots": [[_spelled(rng, schema.by_id[slot_id].name), value]]}
            for slot_id, value in turn.gold_state.items()
        ]
        belief += [
            {"slots": [[slot.name, rng.choice((None, ""))]]}
            for slot in _unset_slots(rng, schema.slots, turn.gold_state)
        ]
        for item in belief:
            if rng.random() < 0.5:  # no act reads as inform
                item["act"] = "inform"
        if rng.random() < 0.3:  # a request names a slot but sets nothing
            belief.append({"slots": [["slot", rng.choice(schema.slots).name]], "act": "request"})
        rng.shuffle(belief)
        turns.append({
            "system_transcript": turn.system_utterance,
            "transcript": turn.user_utterance,
            "belief_state": belief,
        })
    return {rng.choice(("dialogue_idx", "dialogue_id")): dialogue.dialogue_id, "dialogue": turns}


def _m2m_flat_record(rng: random.Random, dialogue: Dialogue, schema: Schema) -> dict:
    record = {rng.choice(("id", "dialogue_id")): dialogue.dialogue_id, "turns": []}
    domains = {schema.by_id[s].domain for turn in dialogue.turns for s in turn.gold_state}
    slots = []  # a dialogue that sets no slot names no domain, and lists no slot
    if domains:
        (record["domain"],) = domains
        slots = [slot for slot in schema.slots if slot.domain == record["domain"]]
    for turn in dialogue.turns:
        state = [
            {"slot": _spelled(rng, schema.by_id[slot_id].name), "value": value}
            for slot_id, value in turn.gold_state.items()
        ]
        state += [
            {"slot": slot.name, "value": rng.choice((None, ""))}
            for slot in _unset_slots(rng, slots, turn.gold_state)
        ]
        raw = {"user_utterance": {"text": turn.user_utterance}, "dialogue_state": state}
        if turn.system_utterance:  # an absent system utterance reads as empty
            raw["system_utterance"] = {"text": turn.system_utterance}
        record["turns"].append(raw)
    return record


def _sgd_state_record(rng: random.Random, dialogue: Dialogue, schema: Schema) -> dict:
    turns = []
    for turn in dialogue.turns:
        if turn.system_utterance:  # an empty one is no SYSTEM turn
            turns.append({"speaker": "SYSTEM", "utterance": turn.system_utterance})
        frames: dict[str, dict] = {}  # one frame per domain, as SGD keeps one per service
        for slot_id, value in turn.gold_state.items():
            variants = rng.choice(([value], [value, "another variant"], value))
            frames.setdefault(schema.by_id[slot_id].domain, {})[slot_id] = variants
        turns.append({
            "speaker": rng.choice(("USER", "user")),
            "utterance": turn.user_utterance,
            "frames": [
                {"service": domain, "state": {"slot_values": values}}
                for domain, values in frames.items()
            ],
        })
    if rng.random() < 0.5:  # a closing system turn that no user turn answers
        turns.append({"speaker": "SYSTEM", "utterance": "goodbye"})
    return {"dialogue_id": dialogue.dialogue_id, "turns": turns}


# The record writer of each style of corpus.LEGACY_STYLES.
LEGACY_WRITERS = {
    "woz_belief": _woz_belief_record,
    "m2m_flat": _m2m_flat_record,
    "sgd_state": _sgd_state_record,
}


def write_legacy(rng: random.Random, corpus: Corpus, style: str, directory: Path) -> list[Path]:
    """``corpus`` in the legacy ``style``, one file per split it has,
    named ``<split>.json`` in ``directory``; the paths written."""
    paths = []
    for split in SPLITS:
        dialogues = corpus.only(split).dialogues
        if dialogues:
            records = [LEGACY_WRITERS[style](rng, d, corpus.schema) for d in dialogues]
            path = directory / f"{split}.json"
            path.write_text(json.dumps(records, ensure_ascii=False), encoding="utf-8")
            paths.append(path)
    return paths


# What a structural mutation puts in place of a node, or adds.
MUTANT_VALUES = (None, True, False, 0, -1, 1.5, 10**30, 2**63, "", " ", [], {})


def mutate_json(rng: random.Random, value: object) -> object:
    """A copy of the JSON ``value`` with one change to one of its arrays
    or objects: a member replaced by one of MUTANT_VALUES, deleted or
    duplicated, or one of MUTANT_VALUES added. An object's duplicate goes
    under one of its other keys."""
    value = copy.deepcopy(value)
    containers, pending = [], [value]
    while pending:
        node = pending.pop()
        if isinstance(node, (dict, list)):
            containers.append(node)
            pending.extend(node.values() if isinstance(node, dict) else node)
    parent = rng.choice(containers)
    keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
    operation = rng.choice(("replace", "delete", "duplicate", "add")) if keys else "add"
    mutant = copy.deepcopy(rng.choice(MUTANT_VALUES))
    if operation == "add":
        if isinstance(parent, dict):
            parent["extra"] = mutant
        else:
            parent.insert(rng.randint(0, len(parent)), mutant)
        return value
    key = rng.choice(keys)
    if operation == "replace":
        parent[key] = mutant
    elif operation == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[rng.choice(keys)] = copy.deepcopy(parent[key])
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return value


def make_predictions(
    rng: random.Random,
    corpus: Corpus,
    split: str | None = None,
    miss_rate: float = 0.15,
    hit_rate: float = 0.7,
) -> list[dict]:
    """Prediction rows for every (dialogue, turn, slot), some omitted,
    some correct up to normalization, the rest wrong."""
    rows = []
    for dialogue in corpus.only(split).dialogues:
        for turn in dialogue.turns:
            for slot in corpus.schema.slots:
                if rng.random() < miss_rate:
                    continue
                gold = turn.gold_state.get(slot.slot_id, "none")
                if rng.random() < hit_rate:
                    text = gold
                    jitter = rng.random()
                    if jitter < 0.2:
                        text = text.upper()
                    elif jitter < 0.3:
                        text = f"  {text} "
                else:
                    text = rng.choice(FREE_VALUES + ["wrong answer"])
                rows.append(
                    {
                        "dialogue_id": dialogue.dialogue_id,
                        "turn": turn.index,
                        "slot_id": slot.slot_id,
                        "text": text,
                    }
                )
    return rows
