"""Chain extraction against hand-worked cases and brute-force recounts."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from gen import make_corpus
from oracles import (
    oracle_chain,
    oracle_multi_step_fraction,
    oracle_step_histogram,
)
from slotchain import chains
from slotchain.chains import (
    SlotChain,
    chains_by_slot,
    extract_chain,
    max_step_at_turns,
    step_histogram,
)
from slotchain.corpus import (
    Corpus,
    Dialogue,
    Schema,
    SlotSchema,
    TurnPair,
    load_corpus,
    load_schema,
)
from slotchain.errors import ValidationError
from slotchain.normalize import DEFAULT_POLICY


def stars_dialogue() -> Dialogue:
    """User books a hotel, walks the star rating up twice: the slot
    changes at turns 1, 2 and 4, so its chain at the end has 3 steps."""
    return Dialogue(
        dialogue_id="stars",
        split="train",
        turns=(
            TurnPair(1, "", "find me a 3 star hotel in the north",
                     {"hotel-stars": "3", "hotel-area": "north"}),
            TurnPair(2, "the lensfield hotel has 3 stars", "actually make it 4 star",
                     {"hotel-stars": "4", "hotel-area": "north"}),
            TurnPair(3, "the gonville hotel has 4 stars", "is it in the north?",
                     {"hotel-stars": "4", "hotel-area": "north"}),
            TurnPair(4, "it is in the centre", "then i want 5 stars instead",
                     {"hotel-stars": "5", "hotel-area": "north"}),
        ),
    )


def stars_schema() -> Schema:
    return Schema(
        slots=(
            SlotSchema("hotel-stars", "hotel", "stars", "star rating of the hotel",
                       possible_values=("1", "2", "3", "4", "5")),
            SlotSchema("hotel-area", "hotel", "area", "area of the hotel",
                       possible_values=("north", "south", "centre")),
        )
    )


def test_three_step_chain_by_inspection():
    chain = extract_chain(stars_dialogue(), "hotel-stars", 4)
    assert chain == SlotChain(
        dialogue_id="stars",
        slot_id="hotel-stars",
        query_turn=4,
        change_turns=(1, 2, 4),
        values=("3", "4", "5"),
    )
    assert chain.step_count == 3
    assert chain.final_value == "5"


def test_single_step_chain_stays_single():
    chain = extract_chain(stars_dialogue(), "hotel-area", 4)
    assert chain.change_turns == (1,)
    assert chain.values == ("north",)
    assert chain.step_count == 1


def test_restatement_adds_no_step():
    dialogue = Dialogue(
        "d", (
            TurnPair(1, "", "cheap place", {"hotel-price": "cheap"}),
            TurnPair(2, "ok", "yes CHEAP", {"hotel-price": " Cheap "}),
        ),
        "train",
    )
    chain = extract_chain(dialogue, "hotel-price", 2)
    assert chain.change_turns == (1,)
    assert chain.values == ("cheap",)


def test_set_restate_change_case():
    # set at turn 2, restated identically at 3, changed at 5; through
    # turn 6 the change turns are exactly 2 and 5
    dialogue = Dialogue(
        "d",
        tuple(
            TurnPair(i, "ok" if i > 1 else "", "hi", state)
            for i, state in (
                (1, {}),
                (2, {"hotel-price": "cheap"}),
                (3, {"hotel-price": "cheap"}),
                (4, {"hotel-price": "cheap"}),
                (5, {"hotel-price": "expensive"}),
                (6, {"hotel-price": "expensive"}),
            )
        ),
        "train",
    )
    chain = extract_chain(dialogue, "hotel-price", 6)
    assert chain.change_turns == (2, 5)
    assert chain.values == ("cheap", "expensive")
    assert chain.step_count == 2


def test_deletion_is_a_step_to_none():
    dialogue = Dialogue(
        "d", (
            TurnPair(1, "", "near the museum", {"taxi-dest": "museum"}),
            TurnPair(2, "ok", "forget the taxi", {}),
            TurnPair(3, "sure", "actually museum again", {"taxi-dest": "museum"}),
        ),
        "train",
    )
    chain = extract_chain(dialogue, "taxi-dest", 2)
    assert chain.change_turns == (1, 2)
    assert chain.values == ("museum", "none")
    # refilling after a drop is a third step
    assert extract_chain(dialogue, "taxi-dest", 3).step_count == 3
    assert extract_chain(dialogue, "taxi-dest", 3).final_value == "museum"


def test_literal_none_annotation_is_no_value():
    dialogue = Dialogue(
        "d", (TurnPair(1, "", "hi", {"hotel-area": "None"}),), "train"
    )
    chain = extract_chain(dialogue, "hotel-area", 1)
    assert chain.change_turns == ()
    assert chain.final_value == "none"


def test_empty_chain_for_untouched_slot():
    chain = extract_chain(stars_dialogue(), "hotel-parking", 4)
    assert chain.change_turns == ()
    assert chain.final_value == "none"


def test_query_turn_bounds():
    with pytest.raises(ValidationError, match=r"^turn 0 outside dialogue 'stars' with 4 turns$"):
        extract_chain(stars_dialogue(), "hotel-stars", 0)
    with pytest.raises(ValidationError, match=r"^turn 5 outside dialogue 'stars' with 4 turns$"):
        extract_chain(stars_dialogue(), "hotel-stars", 5)


def test_reasoning_steps_matches_chain_length():
    assert extract_chain(stars_dialogue(), "hotel-stars", 4).step_count == 3
    assert extract_chain(stars_dialogue(), "hotel-stars", 1).step_count == 1
    assert extract_chain(stars_dialogue(), "hotel-parking", 4).step_count == 0


# ---------------------------------------------------------------------------
# invariants over random corpora


def all_triples(corpus):
    for dialogue in corpus.dialogues:
        for turn in dialogue.turns:
            for slot in corpus.schema.slots:
                yield dialogue, slot.slot_id, turn.index


def test_chain_matches_oracle_on_random_corpora():
    for seed in range(300):
        corpus = make_corpus(random.Random(seed))
        for dialogue, slot_id, query_turn in all_triples(corpus):
            got = extract_chain(dialogue, slot_id, query_turn)
            expected = oracle_chain(dialogue, slot_id, query_turn, DEFAULT_POLICY)
            assert list(zip(got.change_turns, got.values)) == expected, (
                seed, dialogue.dialogue_id, slot_id, query_turn
            )


def test_chain_prefix_monotone():
    for seed in range(200):
        corpus = make_corpus(random.Random(10_000 + seed))
        for dialogue in corpus.dialogues:
            for slot in corpus.schema.slots:
                previous: tuple = ()
                for query_turn in range(1, dialogue.n_turns + 1):
                    chain = extract_chain(dialogue, slot.slot_id, query_turn)
                    pairs = tuple(zip(chain.change_turns, chain.values))
                    assert pairs[: len(previous)] == previous
                    previous = pairs


def test_chain_through_earlier_turn_is_the_chain_at_that_turn():
    for seed in range(100):
        corpus = make_corpus(random.Random(15_000 + seed))
        for dialogue in corpus.dialogues:
            chains = chains_by_slot(dialogue)
            annotated = {s for turn in dialogue.turns for s in turn.gold_state}
            assert set(chains) == annotated
            for slot_id, chain in chains.items():
                assert chain.query_turn == dialogue.n_turns
                for query_turn in range(1, dialogue.n_turns + 1):
                    assert chain.through(query_turn) == extract_chain(
                        dialogue, slot_id, query_turn
                    ), (seed, dialogue.dialogue_id, slot_id, query_turn)


def test_histogram_matches_oracle():
    for seed in range(150):
        corpus = make_corpus(random.Random(20_000 + seed))
        for split in (None, "train", "dev", "test"):
            got = step_histogram(corpus, split)
            expected = oracle_step_histogram(corpus, split, DEFAULT_POLICY)
            assert dict(got.counts) == expected, (seed, split)
            assert got.multi_step_fraction == oracle_multi_step_fraction(expected)


def test_max_step_at_turns_matches_oracle():
    for seed in range(150):
        corpus = make_corpus(random.Random(30_000 + seed))
        for dialogue in corpus.dialogues:
            got = max_step_at_turns(dialogue)
            expected = tuple(
                max(
                    (len(oracle_chain(dialogue, slot.slot_id, t, DEFAULT_POLICY))
                     for slot in corpus.schema.slots),
                    default=0,
                )
                for t in range(1, dialogue.n_turns + 1)
            )
            assert got == expected, (seed, dialogue.dialogue_id)


def test_histogram_total_and_fraction_consistency():
    corpus = make_corpus(random.Random(99))
    hist = step_histogram(corpus)
    assert hist.total_active == sum(hist.counts.values())
    assert 0.0 <= hist.multi_step_fraction <= 1.0
    assert all(steps >= 1 for steps in hist.counts)


def test_histogram_single_change_corpus():
    # every slot set once and never changed: all samples are 1-step
    schema = stars_schema()
    dialogue = Dialogue(
        "d",
        (
            TurnPair(1, "", "3 star in the north",
                     {"hotel-stars": "3", "hotel-area": "north"}),
            TurnPair(2, "ok", "thanks",
                     {"hotel-stars": "3", "hotel-area": "north"}),
        ),
        "train",
    )
    hist = step_histogram(Corpus(schema=schema, dialogues=(dialogue,)))
    assert dict(hist.counts) == {1: 4}
    assert hist.multi_step_fraction == 0.0


def test_histogram_empty_corpus():
    schema = stars_schema()
    hist = step_histogram(Corpus(schema=schema, dialogues=()))
    assert hist.total_active == 0
    assert hist.multi_step_fraction == 0.0


def test_histogram_to_dict_sorted():
    corpus = make_corpus(random.Random(5))
    hist = step_histogram(corpus)
    keys = list(hist.to_dict().keys())
    assert keys == sorted(keys, key=int)


def test_step_histogram_normalizes_each_raw_value_change_once(monkeypatch):
    # Gold states are cumulative, so most turns restate the raw value of
    # the turn before; only a raw value that differs needs normalizing.
    fixtures = Path(__file__).parent / "fixtures"
    schema = load_schema(fixtures / "fixture_schema.json")
    corpus = load_corpus([fixtures / "fixture_dialogues.json"], schema)
    changes = 0
    for dialogue in corpus.dialogues:
        for slot_id in {s for turn in dialogue.turns for s in turn.gold_state}:
            previous = None
            for turn in dialogue.turns:
                raw = turn.gold_state.get(slot_id)
                changes += raw != previous
                previous = raw
    calls = []
    normalize = chains.normalize_value
    monkeypatch.setattr(
        chains, "normalize_value", lambda raw, policy: calls.append(raw) or normalize(raw, policy)
    )
    assert step_histogram(corpus).total_active == 35
    assert 0 < len(calls) <= changes
