"""Prompt rendering, coarse explanations, and training-target plumbing.

Each training record poses one slot as a question over the dialogue
history. Categorical slots become multiple-choice questions; the target
is the slot value, optionally followed by an explanation assembled from
the turns where the value changed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

# extract_chain is not called here, but bench/spans.py wraps builder.extract_chain.
from .chains import SlotChain, chains_by_slot, extract_chain  # noqa: F401
from .corpus import Dialogue, Schema, SlotSchema
from .errors import (
    EmptyChainError,
    EmptyGenerationError,
    FormatError,
    ValidationError,
)
from .io import decode, encode, read_json, read_jsonl
from .normalize import DEFAULT_POLICY, NONE_VALUE, NormalizationPolicy, normalize_value

TARGET_SEPARATOR = " | "
DEFAULT_TEMPLATE_TEXT = "Dialogue: [History] Domain: [Domain] Question: [Question] [Choices]"

_PLACEHOLDER_RE = re.compile(r"(\[History\]|\[Domain\]|\[Question\]|\[Choices\])")

EXPLANATION_KINDS = ("none", "coarse", "refined")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt skeleton with [History], [Domain], [Question], [Choices]
    placeholders. History and Question must appear exactly once,
    Choices at most once; Domain may repeat."""

    template_text: str = DEFAULT_TEMPLATE_TEXT
    choices_section_marker: str = "Choices"

    def __post_init__(self) -> None:
        for token, lo, hi in (("[History]", 1, 1), ("[Question]", 1, 1), ("[Choices]", 0, 1)):
            n = self.template_text.count(token)
            if not lo <= n <= hi:
                raise ValidationError(
                    f"template must contain {token} "
                    f"{'exactly' if lo == hi else 'at most'} {hi} time(s), found {n}"
                )


DEFAULT_TEMPLATE = PromptTemplate()


def load_template(path: str | Path) -> PromptTemplate:
    return decode(PromptTemplate, read_json(path, expect=dict), path)


def load_question_overrides(path: str | Path, schema: Schema) -> dict[str, str]:
    """JSON object slot_id -> question; every key must resolve."""
    data = read_json(path, expect=dict)
    for slot_id, question in data.items():
        if slot_id not in schema:
            raise ValidationError(f"{path}: override names unknown slot {slot_id!r}")
        if not isinstance(question, str) or not question:
            raise FormatError(f"{path}: override for {slot_id!r} must be a non-empty string")
    return dict(data)


def build_question(slot: SlotSchema, overrides: Mapping[str, str] | None = None) -> str:
    """Override verbatim when present, else the description turned into
    a question (one trailing period stripped to avoid "...?." endings)."""
    if overrides and slot.slot_id in overrides:
        return overrides[slot.slot_id]
    description = slot.description
    if description.endswith("."):
        description = description[:-1]
    return f"What's {description}?"


def _speaker_pair(system: str, user: str) -> str:
    parts = ["system:"]
    if system:
        parts.append(system)
    parts.append("user:")
    parts.append(user)
    return " ".join(parts)


def render_histories(dialogue: Dialogue) -> list[str]:
    """The history through each turn: element t-1 holds turns 1..t as
    alternating "system:" / "user:" lines, each extending the one before."""
    histories = []
    for turn in dialogue.turns:
        system = f"system: {turn.system_utterance}" if turn.system_utterance else "system:"
        pair = f"{system}\nuser: {turn.user_utterance}"
        histories.append(f"{histories[-1]}\n{pair}" if histories else pair)
    return histories


def _choices_block(slot: SlotSchema, marker: str, policy: NormalizationPolicy) -> str:
    values = list(slot.possible_values or ())
    if not any(normalize_value(v, policy) == NONE_VALUE for v in values):
        values.append(NONE_VALUE)
    return f"{marker}: " + ", ".join(values)


@dataclass(frozen=True)
class SlotPrompt:
    """The template filled in for one slot but for [History]: the text
    before and after the history. A build makes one per slot."""

    slot: SlotSchema
    before: str
    after: str


def slot_prompt(
    slot: SlotSchema,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    overrides: Mapping[str, str] | None = None,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> SlotPrompt:
    """Fill the template's [Domain], [Question] and [Choices] for one slot.

    Placeholders are substituted in a single pass over the template, and
    the history goes between the two halves, so bracketed text inside
    utterances is never re-expanded. Categorical slots get a Choices
    block listing possible_values in schema order plus "none"; for
    non-categorical slots the block is dropped.
    """
    text = template.template_text
    if not slot.is_categorical:
        text = text.replace(" [Choices]", "").replace("[Choices]", "")
    substitutions = {
        "[Domain]": slot.domain,
        "[Question]": build_question(slot, overrides),
        "[Choices]": _choices_block(slot, template.choices_section_marker, policy),
    }
    parts = [substitutions.get(part, part) for part in _PLACEHOLDER_RE.split(text)]
    split = parts.index("[History]")
    return SlotPrompt(slot, "".join(parts[:split]), "".join(parts[split + 1:]))


def slot_prompts(
    schema: Schema,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    overrides: Mapping[str, str] | None = None,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> tuple[SlotPrompt, ...]:
    """``slot_prompt`` of every schema slot, sorted by slot id."""
    slots = sorted(schema.slots, key=lambda s: s.slot_id)
    return tuple(slot_prompt(slot, template, overrides, policy) for slot in slots)


def render_prompt(prompt: SlotPrompt, history: str) -> str:
    """The prompt that asks ``prompt``'s slot over ``history``."""
    return f"{prompt.before}{history}{prompt.after}".strip()


def build_coarse_explanation(chain: SlotChain, dialogue: Dialogue) -> str:
    """System/user pairs of the change turns, chronologically, joined by
    single spaces. The turns need not be consecutive."""
    if not chain.change_turns:
        raise EmptyChainError(
            f"slot {chain.slot_id!r} has no chain at turn {chain.query_turn} "
            f"of dialogue {chain.dialogue_id!r}"
        )
    if chain.dialogue_id != dialogue.dialogue_id:
        raise ValidationError(
            f"chain belongs to dialogue {chain.dialogue_id!r}, "
            f"got {dialogue.dialogue_id!r}"
        )
    pairs = []
    for turn_index in chain.change_turns:
        turn = dialogue.turns[turn_index - 1]
        pairs.append(_speaker_pair(turn.system_utterance, turn.user_utterance))
    return " ".join(pairs)


def render_target(value: str, explanation: str = "") -> str:
    """Value alone, or value + " | " + explanation. Parsing splits at
    the first separator, so the value itself must not contain one."""
    if not value:
        raise ValidationError("target value must be non-empty (use the \"none\" sentinel)")
    if TARGET_SEPARATOR in value:
        raise ValidationError(
            f"target value {value!r} contains the separator {TARGET_SEPARATOR!r}"
        )
    if not explanation:
        return value
    return f"{value}{TARGET_SEPARATOR}{explanation}"


def parse_generation(text: str) -> tuple[str, str]:
    """(value, explanation) from a model generation. No separator means
    a value-only generation; everything after the first separator is the
    explanation, both parts trimmed."""
    stripped = text.strip()
    if not stripped:
        raise EmptyGenerationError("generation is empty or whitespace-only")
    value, _, explanation = stripped.partition(TARGET_SEPARATOR)
    return value.strip(), explanation.strip()


@dataclass(frozen=True)
class ExampleMeta:
    dialogue_id: str
    query_turn: int
    slot_id: str
    step_count: int
    dialogue_turns: int
    avg_utterance_len: float


@dataclass(frozen=True)
class CoTExample:
    """One training/eval record: prompt in, value-plus-explanation out."""

    example_id: str
    input_text: str
    target_value: str
    explanation: str
    explanation_kind: str
    meta: ExampleMeta

    def __post_init__(self) -> None:
        if self.explanation_kind not in EXPLANATION_KINDS:
            raise ValidationError(
                f"explanation_kind must be one of {EXPLANATION_KINDS}, "
                f"got {self.explanation_kind!r}"
            )
        if not self.target_value:
            raise ValidationError(f"example {self.example_id!r}: empty target_value")
        has_explanation = bool(self.explanation)
        allowed_empty = self.explanation_kind == "none" or self.target_value == NONE_VALUE
        if has_explanation == allowed_empty:
            raise ValidationError(
                f"example {self.example_id!r}: explanation must be empty exactly when "
                "its kind is \"none\" or the target is \"none\""
            )

    @property
    def target_text(self) -> str:
        return render_target(self.target_value, self.explanation)


def avg_utterance_len(dialogue: Dialogue) -> float:
    """Mean whitespace-token count over all 2N utterances, the empty
    first system utterance counting as zero tokens."""
    total = 0
    for turn in dialogue.turns:
        total += len(turn.system_utterance.split()) + len(turn.user_utterance.split())
    return total / (2 * dialogue.n_turns)


def build_dataset(
    dialogue: Dialogue,
    prompts: Sequence[SlotPrompt],
    include_explanations: bool = True,
    include_inactive: bool = False,
    policy: NormalizationPolicy = DEFAULT_POLICY,
) -> tuple[CoTExample, ...]:
    """The examples of one dialogue: one per (turn, slot of ``prompts``),
    restricted to slots with a non-empty chain unless include_inactive,
    in (query_turn, prompts) order. The histories, the average utterance
    length and the chains of the annotated slots are computed once."""
    chains = chains_by_slot(dialogue, policy)
    if not include_inactive:
        prompts = [prompt for prompt in prompts if prompt.slot.slot_id in chains]
    utterance_len = avg_utterance_len(dialogue)
    examples = []
    for turn, history in zip(dialogue.turns, render_histories(dialogue)):
        for prompt in prompts:
            slot_id = prompt.slot.slot_id
            full = chains.get(slot_id)
            if full is None:
                chain = SlotChain(dialogue.dialogue_id, slot_id, turn.index, (), ())
            else:
                chain = full.through(turn.index)
                if not include_inactive and chain.step_count == 0:
                    continue
            target_value = chain.final_value
            explain = (
                include_explanations
                and chain.step_count > 0
                and normalize_value(target_value, policy) != NONE_VALUE
            )
            examples.append(
                CoTExample(
                    example_id=f"{dialogue.dialogue_id}:{turn.index}:{slot_id}",
                    input_text=render_prompt(prompt, history),
                    target_value=target_value,
                    explanation=build_coarse_explanation(chain, dialogue) if explain else "",
                    explanation_kind="coarse" if explain else "none",
                    meta=ExampleMeta(
                        dialogue_id=dialogue.dialogue_id,
                        query_turn=turn.index,
                        slot_id=slot_id,
                        step_count=chain.step_count,
                        dialogue_turns=dialogue.n_turns,
                        avg_utterance_len=utterance_len,
                    ),
                )
            )
    return tuple(examples)


# ---------------------------------------------------------------------------
# JSONL serialization


def examples_to_jsonl(examples: Iterable[CoTExample]) -> str:
    return "".join(
        json.dumps(encode(example), ensure_ascii=False) + "\n"
        for example in examples
    )


def read_examples(path: str | Path) -> Iterator[CoTExample]:
    """The examples of a JSONL file, decoded one line at a time as they
    are consumed."""
    return (decode(CoTExample, data, where) for _, where, data in read_jsonl(path))
