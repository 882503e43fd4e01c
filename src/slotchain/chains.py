"""Slot reasoning chains: the turns at which a slot's value changed.

A chain collects, in order, every turn of a dialogue where the
normalized value of one slot differs from the turn before; dropping a
previously set slot counts as a change to "none". The chain at turn t is
its first ``steps_at(t)`` changes, and that count is the number of
reasoning steps needed to justify the slot's value at turn t.

``extract_chain`` is the only place that detects changes. The dataset
builder, the step histogram and the step buckets scan each (dialogue,
slot) once, through the last turn, and read every turn off that one
chain. A raw value equal to the turn before's is not normalized again.
Changes are found under the default normalization policy, so a step
count is a property of the gold annotation alone: ``stats``, ``build``
and ``eval`` agree on it whatever policy scores the predictions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .corpus import Corpus, Dialogue
from .normalize import NONE_VALUE, normalize_value


@dataclass(frozen=True)
class SlotChain:
    """Change history of one slot through the dialogue's last turn.

    ``change_turns`` and ``values`` run in parallel: the value as
    annotated at each change turn, with the sentinel "none" standing in
    when the slot was dropped there.
    """

    change_turns: tuple[int, ...]
    values: tuple[str, ...]

    def steps_at(self, turn: int) -> int:
        """Number of changes at or before ``turn``: the chain at that
        turn is the first ``steps_at(turn)`` changes."""
        return bisect_right(self.change_turns, turn)


def extract_chain(dialogue: Dialogue, slot_id: str) -> SlotChain:
    """Chain for one slot over every turn of the dialogue.

    The chain is empty exactly when the slot never held a value. Values
    that only restate the previous one (up to normalization) add no step.
    """
    change_turns: list[int] = []
    values: list[str] = []
    previous = NONE_VALUE
    previous_raw = None  # an absent value, which stands for "none" like the start
    for turn in dialogue.turns:
        raw = turn.gold_state.get(slot_id)
        if raw == previous_raw:
            continue  # states are cumulative: most turns restate the raw value
        previous_raw = raw
        norm = normalize_value(raw) if raw is not None else NONE_VALUE
        if norm != previous:
            change_turns.append(turn.index)
            values.append(raw if raw is not None else NONE_VALUE)
            previous = norm
    return SlotChain(tuple(change_turns), tuple(values))


def chains_by_slot(dialogue: Dialogue) -> dict[str, SlotChain]:
    """Chain of every slot annotated in the dialogue, one scan each."""
    slot_ids = {slot_id for turn in dialogue.turns for slot_id in turn.gold_state}
    return {s: extract_chain(dialogue, s) for s in slot_ids}


def max_step_at_turns(dialogue: Dialogue) -> tuple[int, ...]:
    """For each turn, the largest chain length over all slots; 0 until
    the first slot is filled. Used to bucket turns by reasoning depth."""
    chains = chains_by_slot(dialogue).values()
    return tuple(
        max((c.steps_at(t) for c in chains), default=0)
        for t in range(1, dialogue.n_turns + 1)
    )


def step_histogram(corpus: Corpus) -> dict[int, int]:
    """Sample counts keyed by step count, in ascending order of step
    count. A sample is a (dialogue, turn, slot) triple of the corpus whose
    chain at that turn is non-empty."""
    counts: dict[int, int] = {}
    for dialogue in corpus.dialogues:
        for chain in chains_by_slot(dialogue).values():
            # step i holds from change turn c_i up to the next change
            ends = chain.change_turns[1:] + (dialogue.n_turns + 1,)
            for steps, (start, end) in enumerate(zip(chain.change_turns, ends), start=1):
                counts[steps] = counts.get(steps, 0) + end - start
    return dict(sorted(counts.items()))
