"""Prompt rendering, coarse explanations, and training-target plumbing.

Each training record poses one slot as a question over the dialogue
history. Categorical slots become multiple-choice questions; the target
is the slot value, optionally followed by an explanation assembled from
the turns where the value changed.

``example_line`` is the one writer of an example's JSON Lines line: the
text of ``json.dumps(encode(example), ensure_ascii=False)`` and a
newline. ``build_dataset`` writes a dialogue's examples straight to
those bytes, without making a record per example. It joins text that the
C string escaper escaped once: each slot's prompt text around [History]
once per build, each turn's history once per turn, and the rest of a
line, checked as ``CoTExample`` checks it, once per (slot, step count)
of the dialogue. ``render_prompt`` is the prompt those parts spell out.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Sequence

# extract_chain is not called here, but bench/spans.py wraps builder.extract_chain.
from .chains import chains_by_slot, extract_chain  # noqa: F401
from .corpus import Dialogue, Schema, SlotSchema
from .errors import ValidationError
from .io import decode, parse_jsonl, read_json, read_lines
from .normalize import NONE_VALUE, normalize_value

TARGET_SEPARATOR = " | "
DEFAULT_TEMPLATE_TEXT = "Dialogue: [History] Domain: [Domain] Question: [Question] [Choices]"

_PLACEHOLDER_RE = re.compile(r"(\[History\]|\[Domain\]|\[Question\]|\[Choices\])")

EXPLANATION_KINDS = ("none", "coarse", "refined")


@dataclass(frozen=True)
class PromptTemplate:
    """Prompt skeleton with [History], [Domain], [Question], [Choices]
    placeholders. History and Question must appear exactly once,
    Choices at most once; Domain may repeat. ``questions`` maps a slot
    id to the question, not blank, asked for it in place of
    build_question's."""

    template_text: str = DEFAULT_TEMPLATE_TEXT
    choices_section_marker: str = "Choices"
    questions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for token, lo, hi in (("[History]", 1, 1), ("[Question]", 1, 1), ("[Choices]", 0, 1)):
            n = self.template_text.count(token)
            if not lo <= n <= hi:
                raise ValidationError(
                    f"template must contain {token} "
                    f"{'exactly' if lo == hi else 'at most'} {hi} time(s), found {n}"
                )
        for slot_id, question in self.questions.items():
            if not question.strip():
                raise ValidationError(f"empty question for slot {slot_id!r}")


DEFAULT_TEMPLATE = PromptTemplate()


def load_template(path: str | Path, schema: Schema) -> PromptTemplate:
    """The template of a JSON file, its questions naming slots of ``schema``."""
    template = decode(PromptTemplate, read_json(path, expect=dict), path)
    for slot_id in template.questions:
        if slot_id not in schema.by_id:
            raise ValidationError(f"{path}: question names unknown slot {slot_id!r}")
    return template


def build_question(slot: SlotSchema, template: PromptTemplate = DEFAULT_TEMPLATE) -> str:
    """The template's question for the slot verbatim when it has one, else
    the description turned into a question (one trailing period stripped
    to avoid "...?." endings)."""
    if slot.slot_id in template.questions:
        return template.questions[slot.slot_id]
    description = slot.description
    if description.endswith("."):
        description = description[:-1]
    return f"What's {description}?"


def render_histories(dialogue: Dialogue) -> list[str]:
    """The history through each turn: element t-1 holds turns 1..t as
    alternating "system:" / "user:" lines, each extending the one before."""
    histories = []
    for turn in dialogue.turns:
        system = f"system: {turn.system_utterance}" if turn.system_utterance else "system:"
        pair = f"{system}\nuser: {turn.user_utterance}"
        histories.append(f"{histories[-1]}\n{pair}" if histories else pair)
    return histories


def _choices_block(slot: SlotSchema, marker: str) -> str:
    values = list(slot.possible_values or ())
    if not any(normalize_value(v) == NONE_VALUE for v in values):
        values.append(NONE_VALUE)
    return f"{marker}: " + ", ".join(values)


@dataclass(frozen=True)
class SlotPrompt:
    """The template filled in for one slot but for [History]: the text
    before and after the history. A build makes one per slot."""

    slot: SlotSchema
    before: str
    after: str

    @functools.cached_property
    def escaped(self) -> tuple[str, str, bool]:
        """The prompt's parts of an example line, escaped once per prompt:
        the line's text from the ``:`` after the turn index up to the
        history, its text after the history, and whether render_prompt's
        ``.strip()`` reaches the history, which it does at the history's
        end when the text after it is blank. A history starts with
        "system:", so the strip never reaches its start."""
        before, after = self.before.lstrip(), self.after.rstrip()
        head = f':{_escape(self.slot.slot_id)}", "input_text": "{_escape(before)}'
        return head, _escape(after), not after


def slot_prompt(slot: SlotSchema, template: PromptTemplate = DEFAULT_TEMPLATE) -> SlotPrompt:
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
        "[Question]": build_question(slot, template),
        "[Choices]": _choices_block(slot, template.choices_section_marker),
    }
    parts = _PLACEHOLDER_RE.split(text)
    split = parts.index("[History]")  # the template's own, not a substituted text's
    parts = [substitutions.get(part, part) for part in parts]
    return SlotPrompt(slot, "".join(parts[:split]), "".join(parts[split + 1:]))


def slot_prompts(
    schema: Schema, template: PromptTemplate = DEFAULT_TEMPLATE
) -> tuple[SlotPrompt, ...]:
    """``slot_prompt`` of every schema slot, sorted by slot id."""
    slots = sorted(schema.slots, key=lambda s: s.slot_id)
    return tuple(slot_prompt(slot, template) for slot in slots)


def render_prompt(prompt: SlotPrompt, history: str) -> str:
    """The prompt that asks ``prompt``'s slot over ``history``."""
    return f"{prompt.before}{history}{prompt.after}".strip()


def build_coarse_explanation(dialogue: Dialogue, change_turns: Sequence[int]) -> str:
    """System/user pairs of the change turns, chronologically, joined by
    single spaces. The turns need not be consecutive."""
    if not change_turns:
        raise ValidationError(
            f"no change turns to explain in dialogue {dialogue.dialogue_id!r}"
        )
    pairs = []
    for turn_index in change_turns:
        turn = dialogue.turns[turn_index - 1]
        system = f"system: {turn.system_utterance}" if turn.system_utterance else "system:"
        pairs.append(f"{system} user: {turn.user_utterance}")
    return " ".join(pairs)


def parse_generation(text: str) -> tuple[str, str]:
    """(value, explanation) from a model generation. No separator means
    a value-only generation; everything after the first separator is the
    explanation, both parts trimmed."""
    stripped = text.strip()
    if not stripped:
        raise ValidationError("generation is empty or whitespace-only")
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
        _check_example(
            self.example_id, self.target_value, self.explanation, self.explanation_kind
        )


def _check_example(example_id: str, target_value: str, explanation: str, kind: str) -> None:
    """The checks a CoTExample makes, which build_dataset makes without one."""
    if kind not in EXPLANATION_KINDS:
        raise ValidationError(f"explanation_kind must be one of {EXPLANATION_KINDS}, got {kind!r}")
    if not target_value:
        raise ValidationError(f"example {example_id!r}: empty target_value")
    allowed_empty = kind == "none" or target_value == NONE_VALUE
    if bool(explanation) == allowed_empty:
        raise ValidationError(
            f"example {example_id!r}: explanation must be empty exactly when "
            "its kind is \"none\" or the target is \"none\""
        )


def avg_utterance_len(dialogue: Dialogue) -> float:
    """Mean whitespace-token count over all 2N utterances, the empty
    first system utterance counting as zero tokens."""
    total = 0
    for turn in dialogue.turns:
        total += len(turn.system_utterance.split()) + len(turn.user_utterance.split())
    return total / (2 * dialogue.n_turns)


def _escape(text: str) -> str:
    """``text`` as in a JSON string, without the quotes. Escaping goes
    character by character, so escaped parts join into the escaped whole."""
    return encode_basestring(text)[1:-1]


def build_dataset(
    dialogue: Dialogue,
    prompts: Sequence[SlotPrompt],
    include_explanations: bool = True,
    include_inactive: bool = False,
) -> list[str]:
    """The examples of one dialogue as JSON Lines, one line per (turn,
    slot of ``prompts``), restricted to slots with a non-empty chain
    unless include_inactive, in (query_turn, prompts) order. Each line is
    example_line of the example's CoTExample, joined from parts escaped once
    (see the module docstring); the chains of the annotated slots are
    computed once."""
    chains = chains_by_slot(dialogue)
    slots = [
        (prompt.slot.slot_id, chains.get(prompt.slot.slot_id), *prompt.escaped)
        for prompt in prompts
        if include_inactive or prompt.slot.slot_id in chains
    ]
    strips = {strip for *_, strip in slots}  # whether a prompt strips the history's end
    dialogue_id = _escape(dialogue.dialogue_id)
    head = f'{{"example_id": "{dialogue_id}:'
    meta = f'"meta": {{"dialogue_id": "{dialogue_id}", "query_turn": '
    meta_end = (
        f', "dialogue_turns": {dialogue.n_turns}, '
        f'"avg_utterance_len": {avg_utterance_len(dialogue)!r}}}}}\n'
    )
    tails = {}  # (slot id, step count) -> the line's text around its second turn index
    lines = []
    for turn, history in zip(dialogue.turns, render_histories(dialogue)):
        histories = {strip: _escape(history.rstrip() if strip else history) for strip in strips}
        index = str(turn.index)
        for slot_id, chain, opening, closing, strip in slots:
            steps = chain.steps_at(turn.index) if chain else 0
            if not include_inactive and steps == 0:
                continue
            tail = tails.get((slot_id, steps))
            if tail is None:
                target_value = chain.values[steps - 1] if steps else NONE_VALUE
                explanation = ""
                if include_explanations and steps and normalize_value(target_value) != NONE_VALUE:
                    explanation = build_coarse_explanation(dialogue, chain.change_turns[:steps])
                kind = "coarse" if explanation else "none"
                example_id = f"{dialogue.dialogue_id}:{turn.index}:{slot_id}"
                _check_example(example_id, target_value, explanation, kind)
                tail = tails[slot_id, steps] = (
                    f'{closing}", "target_value": "{_escape(target_value)}", '
                    f'"explanation": "{_escape(explanation)}", "explanation_kind": "{kind}", '
                    f"{meta}",
                    f', "slot_id": "{_escape(slot_id)}", "step_count": {steps}{meta_end}',
                )
            before_index, after_index = tail
            lines.append(
                f"{head}{index}{opening}{histories[strip]}{before_index}{index}{after_index}"
            )
    return lines


# ---------------------------------------------------------------------------
# JSONL serialization


def example_line(example: CoTExample) -> str:
    """``example``'s JSON Lines line: json.dumps(encode(example),
    ensure_ascii=False) and a newline, for the numbers a decoded or built
    example holds (ints, and a finite float or an int as avg_utterance_len)."""
    meta = example.meta
    return (
        f'{{"example_id": {encode_basestring(example.example_id)}, '
        f'"input_text": {encode_basestring(example.input_text)}, '
        f'"target_value": {encode_basestring(example.target_value)}, '
        f'"explanation": {encode_basestring(example.explanation)}, '
        f'"explanation_kind": {encode_basestring(example.explanation_kind)}, '
        f'"meta": {{"dialogue_id": {encode_basestring(meta.dialogue_id)}, '
        f'"query_turn": {meta.query_turn}, '
        f'"slot_id": {encode_basestring(meta.slot_id)}, '
        f'"step_count": {meta.step_count}, '
        f'"dialogue_turns": {meta.dialogue_turns}, '
        f'"avg_utterance_len": {meta.avg_utterance_len!r}}}}}\n'
    )


def examples_to_jsonl(examples: Iterable[CoTExample]) -> str:
    return "".join(map(example_line, examples))


def read_examples(
    path: str | Path, lines: Iterable[tuple[int, bytes]] | None = None
) -> tuple[CoTExample, ...]:
    """The examples of the JSONL file ``path``, or of ``lines``, numbered
    raw lines of it as io.read_lines gives them (one refine chunk)."""
    rows = parse_jsonl(path, read_lines(path) if lines is None else lines)
    return tuple(decode(CoTExample, data, where) for _, where, data in rows)
