"""Canonical data model for schema-guided dialogue corpora.

One internal contract covers three source datasets with different
layouts: files are converted on ingestion and every downstream stage
works against the types below. All types are immutable after load and
safe to share across threads.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import FormatError, ValidationError
from .io import decode, encode, json_text, read_json
from .normalize import normalize_value

SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class SlotSchema:
    """One trackable slot: domain, name, description and, for
    categorical slots, the closed value set."""

    slot_id: str
    domain: str
    name: str
    description: str
    possible_values: tuple[str, ...] | None = None

    @property
    def is_categorical(self) -> bool:
        return bool(self.possible_values)


@dataclass(frozen=True)
class Schema:
    """The trackable slots. Each slot_id is its domain, "-" and its
    name, and is unique; a closed value set is non-empty and holds no
    two values equal after default normalization."""

    slots: tuple[SlotSchema, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for slot in self.slots:
            if slot.slot_id != f"{slot.domain}-{slot.name}":
                raise ValidationError(
                    f"slot_id {slot.slot_id!r} does not equal domain + '-' + name "
                    f"({slot.domain!r}, {slot.name!r})"
                )
            if slot.slot_id in seen:
                raise ValidationError(f"duplicate slot_id {slot.slot_id!r}")
            seen.add(slot.slot_id)
            if slot.possible_values is not None:
                if not slot.possible_values:
                    raise ValidationError(
                        f"slot {slot.slot_id!r}: possible_values present but empty"
                    )
                normalized = {normalize_value(v) for v in slot.possible_values}
                if len(normalized) != len(slot.possible_values):
                    raise ValidationError(
                        f"slot {slot.slot_id!r}: possible_values contain duplicates "
                        "after normalization"
                    )

    @cached_property
    def by_id(self) -> dict[str, SlotSchema]:
        return {slot.slot_id: slot for slot in self.slots}


@dataclass(frozen=True)
class TurnPair:
    """One system/user exchange plus the cumulative gold state after it.

    ``index`` is 1-based. The system utterance may be empty on the first
    turn only (dialogues opened by the user). In a canonical file the
    utterances are keyed ``system`` and ``user`` and the state
    ``state``; a missing utterance reads as empty, which ``Dialogue``
    rejects where an utterance is required.
    """

    index: int
    system_utterance: str = field(default="", metadata={"json_key": "system"})
    user_utterance: str = field(default="", metadata={"json_key": "user"})
    gold_state: dict[str, str] = field(default_factory=dict, metadata={"json_key": "state"})


@dataclass(frozen=True)
class Dialogue:
    """A non-empty id, a known split and at least one turn, in a file's
    key order. Each turn's index is its position, its user utterance is
    non-empty, its system utterance is empty on the first turn only, and
    no state value is empty. Whether the slots exist is the schema's to say."""

    dialogue_id: str
    split: str
    turns: tuple[TurnPair, ...]

    def __post_init__(self) -> None:
        if not self.dialogue_id:
            raise ValidationError("empty dialogue_id")
        where = f"dialogue {self.dialogue_id!r}"
        if self.split not in SPLITS:
            raise ValidationError(f"{where}: unknown split {self.split!r}")
        if not self.turns:
            raise ValidationError(f"{where}: no turns")
        for position, turn in enumerate(self.turns, start=1):
            if turn.index != position:
                raise ValidationError(
                    f"{where} turn {position}: expected index {position}, found {turn.index}"
                )
            if not turn.user_utterance:
                raise ValidationError(f"{where} turn {position}: empty user utterance")
            if not turn.system_utterance and position != 1:
                raise ValidationError(
                    f"{where} turn {position}: empty system utterance only permitted "
                    "on the first turn"
                )
            for slot_id, value in turn.gold_state.items():
                if not value:
                    raise ValidationError(
                        f"{where} turn {position}: empty value for slot {slot_id!r}"
                    )

    @property
    def n_turns(self) -> int:
        return len(self.turns)


@dataclass(frozen=True)
class Corpus:
    schema: Schema
    dialogues: tuple[Dialogue, ...]

    def split_counts(self) -> dict[str, int]:
        counts = {split: 0 for split in SPLITS}
        for dialogue in self.dialogues:
            counts[dialogue.split] += 1
        return counts

    def only(self, split: str | None) -> Corpus:
        """The dialogues of one split; the whole corpus when ``split`` is None."""
        if split is None:
            return self
        return Corpus(self.schema, tuple(d for d in self.dialogues if d.split == split))


@contextmanager
def _naming(path: str | Path) -> Iterator[None]:
    """Prefix ``path`` to a ValidationError raised inside the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical schema files: JSON array of
# {slot_id, domain, name, description, possible_values?}


def load_schema(path: str | Path) -> Schema:
    slots = tuple(
        decode(SlotSchema, entry, f"{path}: slot record {i}")
        for i, entry in enumerate(read_json(path, expect=list))
    )
    with _naming(path):
        return Schema(slots)


# ---------------------------------------------------------------------------
# dialogue files: canonical JSON arrays of
# {dialogue_id, split, turns: [{index, system, user, state: {slot_id: value}}]},
# or a legacy layout converted on the way in


def load_corpus(
    dialogue_paths: Iterable[str | Path],
    schema: Schema,
    exclude_domains: set[str] = frozenset(),
    style: str = "canonical",
    split: str | None = None,
) -> Corpus:
    """Load dialogue files against a schema, in the canonical layout or
    in a legacy ``style`` (see ``_read_legacy``, which takes ``split``).

    Slots of excluded domains are removed from gold states; dialogues
    whose annotations all belong to excluded domains are dropped. Each
    dialogue keeps its own rules as it is read; then each kept one must
    name only slots of the schema and an id no earlier one has. A fault
    names its file; a dialogue id repeated across files names the later
    one.
    """
    known = schema.by_id
    dialogues: list[Dialogue] = []
    seen: set[str] = set()
    for path in dialogue_paths:
        with _naming(path):
            if style == "canonical":
                loaded = tuple(
                    decode(Dialogue, entry, f"{path}: dialogue record {i}")
                    for i, entry in enumerate(read_json(path, expect=list))
                )
            else:
                loaded = _read_legacy(Path(path), style, schema, split)
            kept = filter_excluded_domains(Corpus(schema, loaded), exclude_domains).dialogues
            for dialogue in kept:
                if dialogue.dialogue_id in seen:
                    raise ValidationError(f"duplicate dialogue_id {dialogue.dialogue_id!r}")
                seen.add(dialogue.dialogue_id)
                for turn in dialogue.turns:
                    for slot_id in turn.gold_state:
                        if slot_id not in known:
                            raise ValidationError(
                                f"dialogue {dialogue.dialogue_id!r} turn {turn.index}: "
                                f"unknown slot_id {slot_id!r}"
                            )
        dialogues.extend(kept)
    return Corpus(schema=schema, dialogues=tuple(dialogues))


def filter_excluded_domains(corpus: Corpus, exclude_domains: set[str]) -> Corpus:
    """Drop excluded-domain slots from gold states; drop dialogues that
    annotated nothing outside the excluded domains."""
    if not exclude_domains:
        return corpus

    def slot_domain(slot_id: str) -> str:
        slot = corpus.schema.by_id.get(slot_id)
        if slot is not None:
            return slot.domain
        return slot_id.split("-", 1)[0]

    kept: list[Dialogue] = []
    for dialogue in corpus.dialogues:
        annotated = {slot_domain(s) for turn in dialogue.turns for s in turn.gold_state}
        if annotated and annotated <= exclude_domains:
            continue
        new_turns = tuple(
            replace(
                turn,
                gold_state={
                    s: v
                    for s, v in turn.gold_state.items()
                    if slot_domain(s) not in exclude_domains
                },
            )
            for turn in dialogue.turns
        )
        kept.append(replace(dialogue, turns=new_turns))
    return Corpus(schema=corpus.schema, dialogues=tuple(kept))


def corpus_json_lines(corpus: Corpus) -> Iterator[str]:
    """The canonical dialogue-file text for a corpus, one dialogue at a
    time: together, the bytes of ``json.dumps([encode(d) for d in
    dialogues], ensure_ascii=False, indent=2)`` and a newline. Each
    record is dumped on its own and indented two more spaces (a JSON
    string holds no raw newline).

    State keys are sorted so repeated renders are byte-stable. The schema
    is not embedded.
    """
    opening = "[\n  "
    for dialogue in corpus.dialogues:
        yield opening + json_text(encode(dialogue)).removesuffix("\n").replace("\n", "\n  ")
        opening = ",\n  "
    yield "\n]\n" if corpus.dialogues else "[]\n"


# ---------------------------------------------------------------------------
# legacy ingestion


def infer_split(path: str | Path) -> str | None:
    """The split a file's name gives, or None: the first of dev, test
    and train that a whole word of the stem names, or else the whole name
    of its directory (MultiWOZ 2.2's ``train/``). Words are split at
    non-letters and where a lower-case letter meets an upper-case one."""
    path = Path(path)
    words = {w.lower() for w in re.split(r"[^A-Za-z]+|(?<=[a-z])(?=[A-Z])", path.stem)}
    for given in (words, {path.parent.name.lower()}):
        for split, names in (("dev", {"validate", "validation", "valid", "dev", "val"}),
                             ("test", {"test"}), ("train", {"train"})):
            if given & names:
                return split
    return None


def _read_legacy(
    path: Path, style: str, schema: Schema, split: str | None
) -> tuple[Dialogue, ...]:
    """The dialogues of a file in a legacy ``style`` of LEGACY_STYLES,
    their slot ids not yet checked against the schema. The split is
    inferred from the filename when not given. The kept turns are
    numbered from 1."""
    if split is None:
        split = infer_split(path)
        if split is None:
            raise FormatError(f"{path}: cannot infer split from filename; pass one")
    if style not in LEGACY_STYLES:
        raise FormatError(f"unknown legacy style {style!r}")
    id_keys, turns_key, read_turns = LEGACY_STYLES[style]
    names = _slot_name_index(schema)
    dialogues: list[Dialogue] = []
    for k, entry in enumerate(_objects(read_json(path, expect=list), f"{path}: record")):
        dialogue_id = _dialogue_id(entry, id_keys, f"{path}: record {k}")
        where = f"{path}: dialogue {dialogue_id!r}"
        raw_turns = entry.get(turns_key)
        if not isinstance(raw_turns, list):
            raise FormatError(f"{where}: field {turns_key!r} missing or not an array")
        turns = read_turns(entry, _objects(raw_turns, f"{where} turn"), names, where)
        dialogues.append(Dialogue(
            dialogue_id=dialogue_id,
            turns=tuple(TurnPair(i, *turn) for i, turn in enumerate(turns, start=1)),
            split=split,
        ))
    return tuple(dialogues)


def _objects(items: object, where: str) -> list[dict]:
    """``items`` when it is an array of objects; ``where`` names the
    field, and the position of a bad item is appended to it."""
    if not isinstance(items, list):
        raise FormatError(f"{where}: expected an array")
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise FormatError(f"{where} {k}: expected an object")
    return items


def _object(value: object, where: str) -> dict:
    """``value`` when it is an object; a missing or empty value is {}."""
    if not value:
        return {}
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected an object")
    return value


# The state values a legacy corpus leaves a slot unset with; any other
# value must be a string.
_UNSET = (None, "")


def _string(value: object, where: str) -> str:
    """``value`` when it is a JSON string; ``where`` names the field."""
    if not isinstance(value, str):
        raise FormatError(f"{where}: expected a string")
    return value


def _text(record: dict, key: str, where: str) -> str:
    """The string field ``key`` of a legacy record, "" when it is missing."""
    return _string(record.get(key, ""), f"{where} {key}")


def _dialogue_id(entry: dict, keys: tuple[str, ...], where: str) -> str:
    """The id of a legacy record: the first of its fields ``keys`` that
    is present. It must be a non-empty string, or an integer (WOZ 2.0's
    dialogue_idx), which reads as its decimal digits; ``where`` names
    the record."""
    for key in keys:
        if key in entry:
            value = entry[key]
            dialogue_id = str(value) if type(value) is int else _string(value, f"{where} {key}")
            if not dialogue_id:
                raise FormatError(f"{where}: empty dialogue_id")
            return dialogue_id
    raise FormatError(f"{where}: no dialogue id field ({' or '.join(keys)})")


def _name_key(name: str) -> str:
    """What a slot name is matched by: lower case, without spaces or
    underscores, so "price range", "Price_Range" and "pricerange" meet."""
    return name.lower().replace(" ", "").replace("_", "")


# Slot ids by (domain, name key) and by (None, name key), the key of a
# name being its _name_key.
_Names = dict[tuple[str | None, str], str | None]


def _slot_name_index(schema: Schema) -> _Names:
    """The _Names of ``schema``, built once per file. A key that two
    slots share maps to None, so that a lookup rejects it as ambiguous
    instead of silently picking one."""
    index: _Names = {}
    for slot in schema.slots:
        for domain in (slot.domain, None):
            key = (domain, _name_key(slot.name))
            index[key] = None if key in index else slot.slot_id
    return index


def _resolve_slot_name(names: _Names, raw_name: object, domain: str | None, where: str) -> str:
    """The slot id that ``raw_name`` names in ``domain`` (None: in any
    domain). A name the schema lacks is kept as ``<domain>-<name>``, or
    as given when there is no domain, for load_corpus to reject unless
    its domain is excluded."""
    name = _string(raw_name, f"{where} slot name")
    key = (domain, _name_key(name))
    if key not in names:
        return f"{domain}-{name}" if domain else name
    if names[key] is None:
        raise FormatError(f"{where}: slot name {name!r} is ambiguous in this schema")
    return names[key]


# What a turn reader yields: (system utterance, user utterance, state)
# for each turn it keeps.
_Turns = Iterator[tuple[str, str, dict[str, str]]]


def _woz_belief_turns(entry: dict, turns: list[dict], names: _Names, where: str) -> _Turns:
    """Wizard-of-oz belief annotations: per-turn cumulative belief lists
    of {"slots": [[name, value]], "act": ...}."""
    for j, raw_turn in enumerate(turns):
        turn_where = f"{where} turn {j}"
        state: dict[str, str] = {}
        belief = raw_turn.get("belief_state", [])
        for item in _objects(belief, f"{turn_where} belief_state item"):
            if item.get("act") not in (None, "inform"):
                continue
            pairs = item.get("slots", [])
            if not isinstance(pairs, list):
                raise FormatError(f"{turn_where}: belief field 'slots' not an array")
            for pair in pairs:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise FormatError(f"{turn_where}: malformed belief slot pair {pair!r}")
                raw_name, value = pair
                slot_id = _resolve_slot_name(names, raw_name, None, turn_where)
                if value not in _UNSET:
                    state[slot_id] = _string(value, f"{turn_where} slots {raw_name!r}")
        system = _text(raw_turn, "system_transcript", turn_where)
        yield system, _text(raw_turn, "transcript", turn_where), state


def _m2m_flat_turns(entry: dict, turns: list[dict], names: _Names, where: str) -> _Turns:
    """Simulated dialogues: per-turn cumulative dialogue_state lists of
    {"slot": ..., "value": ...}, slot names in the record's domain."""
    domain = _text(entry, "domain", where) or None  # none: names of any domain
    for j, raw_turn in enumerate(turns):
        turn_where = f"{where} turn {j}"
        state: dict[str, str] = {}
        items = raw_turn.get("dialogue_state", [])
        for item in _objects(items, f"{turn_where} dialogue_state item"):
            slot_id = _resolve_slot_name(names, item.get("slot"), domain, turn_where)
            value = item.get("value")
            if value not in _UNSET:
                state[slot_id] = _string(value, f"{turn_where} dialogue_state value")
        system_where, user_where = f"{turn_where} system_utterance", f"{turn_where} user_utterance"
        system = _object(raw_turn.get("system_utterance"), system_where)
        user = _object(raw_turn.get("user_utterance"), user_where)
        yield _text(system, "text", system_where), _text(user, "text", user_where), state


def _sgd_state_turns(entry: dict, turns: list[dict], names: _Names, where: str) -> _Turns:
    """Schema-guided releases: each USER turn, with the SYSTEM utterance
    before it, carries frames with state.slot_values (first variant
    wins)."""
    pending_system = ""
    for j, raw_turn in enumerate(turns):
        turn_where = f"{where} turn {j}"
        speaker = _text(raw_turn, "speaker", turn_where).upper()
        utterance = _text(raw_turn, "utterance", turn_where)
        if speaker == "SYSTEM":
            pending_system = utterance
            continue
        if speaker != "USER":
            raise FormatError(f"{turn_where}: unknown speaker {speaker!r}")
        state: dict[str, str] = {}
        frames = _objects(raw_turn.get("frames", []), f"{turn_where} frame")
        for k, frame in enumerate(frames):
            frame_where = f"{turn_where} frame {k}"
            frame_state = _object(frame.get("state"), f"{frame_where} state")
            slot_values = _object(frame_state.get("slot_values"), f"{frame_where} slot_values")
            for slot_id, variants in slot_values.items():
                if variants == []:  # no variant: the slot is unset
                    continue
                value = variants[0] if isinstance(variants, list) else variants
                if value not in _UNSET:
                    state[slot_id] = _string(value, f"{frame_where} slot_values {slot_id!r}")
        yield pending_system, utterance, state
        pending_system = ""


# Each legacy style: the record fields its dialogue id may be in, the
# first present winning; the field of its turns; and its turn reader,
# which reads a record's turn objects against the schema's _Names,
# naming the record ``where``.
LEGACY_STYLES = {
    "woz_belief": (("dialogue_idx", "dialogue_id"), "dialogue", _woz_belief_turns),
    "m2m_flat": (("id", "dialogue_id"), "turns", _m2m_flat_turns),
    "sgd_state": (("dialogue_id",), "turns", _sgd_state_turns),
}
