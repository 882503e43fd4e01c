"""Chain extraction against hand-worked cases and brute-force recounts."""

from __future__ import annotations

import json
import random
from pathlib import Path

from gen import corpus_to_json, make_corpus
from oracles import (
    oracle_chain,
    oracle_multi_step_fraction,
    oracle_step_histogram,
)
from slotchain import chains, cli
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
from slotchain.io import encode
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


def chain_at(dialogue: Dialogue, slot_id: str, turn: int) -> list[tuple[int, str]]:
    """(change turn, value) pairs of the slot's chain at ``turn``: the
    first ``steps_at(turn)`` changes of its one chain."""
    chain = extract_chain(dialogue, slot_id)
    steps = chain.steps_at(turn)
    return list(zip(chain.change_turns[:steps], chain.values[:steps]))


def test_three_step_chain_by_inspection():
    chain = extract_chain(stars_dialogue(), "hotel-stars")
    assert chain == SlotChain(change_turns=(1, 2, 4), values=("3", "4", "5"))
    assert chain.steps_at(4) == 3
    assert chain_at(stars_dialogue(), "hotel-stars", 4)[-1] == (4, "5")


def test_single_step_chain_stays_single():
    chain = extract_chain(stars_dialogue(), "hotel-area")
    assert chain.change_turns == (1,)
    assert chain.values == ("north",)
    assert chain.steps_at(4) == 1


def test_restatement_adds_no_step():
    dialogue = Dialogue(
        "d", "train", (
            TurnPair(1, "", "cheap place", {"hotel-price": "cheap"}),
            TurnPair(2, "ok", "yes CHEAP", {"hotel-price": " Cheap "}),
        ),
    )
    chain = extract_chain(dialogue, "hotel-price")
    assert chain.change_turns == (1,)
    assert chain.values == ("cheap",)


def test_set_restate_change_case():
    # set at turn 2, restated identically at 3, changed at 5; through
    # turn 6 the change turns are exactly 2 and 5
    dialogue = Dialogue(
        "d",
        "train",
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
    )
    chain = extract_chain(dialogue, "hotel-price")
    assert chain.change_turns == (2, 5)
    assert chain.values == ("cheap", "expensive")
    assert chain.steps_at(6) == 2


def test_deletion_is_a_step_to_none():
    dialogue = Dialogue(
        "d", "train", (
            TurnPair(1, "", "near the museum", {"taxi-dest": "museum"}),
            TurnPair(2, "ok", "forget the taxi", {}),
            TurnPair(3, "sure", "actually museum again", {"taxi-dest": "museum"}),
        ),
    )
    assert chain_at(dialogue, "taxi-dest", 2) == [(1, "museum"), (2, "none")]
    # refilling after a drop is a third step
    assert len(chain_at(dialogue, "taxi-dest", 3)) == 3
    assert chain_at(dialogue, "taxi-dest", 3)[-1] == (3, "museum")


def test_literal_none_annotation_is_no_value():
    dialogue = Dialogue(
        "d", "train", (TurnPair(1, "", "hi", {"hotel-area": "None"}),)
    )
    chain = extract_chain(dialogue, "hotel-area")
    assert chain.change_turns == ()
    assert chain.steps_at(1) == 0


def test_empty_chain_for_untouched_slot():
    chain = extract_chain(stars_dialogue(), "hotel-parking")
    assert chain == SlotChain(change_turns=(), values=())
    assert chain.steps_at(4) == 0


def test_reasoning_steps_matches_chain_length():
    assert extract_chain(stars_dialogue(), "hotel-stars").steps_at(4) == 3
    assert extract_chain(stars_dialogue(), "hotel-stars").steps_at(1) == 1
    assert extract_chain(stars_dialogue(), "hotel-parking").steps_at(4) == 0


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
            expected = oracle_chain(dialogue, slot_id, query_turn, DEFAULT_POLICY)
            assert chain_at(dialogue, slot_id, query_turn) == expected, (
                seed, dialogue.dialogue_id, slot_id, query_turn
            )


def test_chain_prefix_monotone():
    for seed in range(200):
        corpus = make_corpus(random.Random(10_000 + seed))
        for dialogue in corpus.dialogues:
            for slot in corpus.schema.slots:
                previous: list = []
                for query_turn in range(1, dialogue.n_turns + 1):
                    pairs = chain_at(dialogue, slot.slot_id, query_turn)
                    assert pairs[: len(previous)] == previous
                    previous = pairs


def test_chains_by_slot_match_oracle_at_every_turn():
    for seed in range(100):
        corpus = make_corpus(random.Random(15_000 + seed))
        for dialogue in corpus.dialogues:
            chains = chains_by_slot(dialogue)
            annotated = {s for turn in dialogue.turns for s in turn.gold_state}
            assert set(chains) == annotated
            for slot_id, chain in chains.items():
                for query_turn in range(1, dialogue.n_turns + 1):
                    steps = chain.steps_at(query_turn)
                    got = list(zip(chain.change_turns[:steps], chain.values[:steps]))
                    expected = oracle_chain(dialogue, slot_id, query_turn, DEFAULT_POLICY)
                    assert got == expected, (seed, dialogue.dialogue_id, slot_id, query_turn)


def write_corpus(tmp_path: Path, corpus: Corpus) -> list[str]:
    """Writes ``corpus`` and its schema under ``tmp_path``; returns the
    --corpus and --schema options that name them."""
    corpus_path, schema_path = tmp_path / "corpus.json", tmp_path / "schema.json"
    corpus_path.write_text(corpus_to_json(corpus), encoding="utf-8")
    schema_path.write_text(
        json.dumps([encode(slot) for slot in corpus.schema.slots]), encoding="utf-8"
    )
    return ["--corpus", str(corpus_path), "--schema", str(schema_path)]


def stats_output(tmp_path: Path, corpus_options: list[str], *options: str) -> str:
    """What ``stats`` writes for the corpus that ``corpus_options`` name."""
    out = tmp_path / "stats.out"
    assert cli.main(["stats", *corpus_options, *options, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def stats_json(tmp_path: Path, corpus_options: list[str], *options: str) -> dict:
    return json.loads(stats_output(tmp_path, corpus_options, "--format", "json", *options))


def test_histogram_matches_oracle(tmp_path):
    for seed in range(150):
        corpus = make_corpus(random.Random(20_000 + seed))
        corpus_options = write_corpus(tmp_path, corpus)
        for split in (None, "train", "dev", "test"):
            got = step_histogram(corpus.only(split))
            expected = oracle_step_histogram(corpus, split, DEFAULT_POLICY)
            assert got == expected, (seed, split)
            assert list(got) == sorted(expected), (seed, split)
            payload = stats_json(tmp_path, corpus_options, *(["--split", split] if split else []))
            assert payload == {
                "counts": {str(steps): expected[steps] for steps in sorted(expected)},
                "total_active": sum(expected.values()),
                "multi_step_fraction": oracle_multi_step_fraction(expected),
            }, (seed, split)
            assert list(payload["counts"]) == [str(steps) for steps in sorted(expected)]


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


def test_histogram_total_and_fraction_consistency(tmp_path):
    corpus = make_corpus(random.Random(99))
    hist = step_histogram(corpus)
    payload = stats_json(tmp_path, write_corpus(tmp_path, corpus))
    assert payload["total_active"] == sum(hist.values())
    assert payload["multi_step_fraction"] == oracle_multi_step_fraction(hist)
    assert 0.0 <= payload["multi_step_fraction"] <= 1.0
    assert all(steps >= 1 for steps in hist)


def test_histogram_single_change_corpus(tmp_path):
    # every slot set once and never changed: all samples are 1-step
    schema = stars_schema()
    dialogue = Dialogue(
        "d",
        "train",
        (
            TurnPair(1, "", "3 star in the north",
                     {"hotel-stars": "3", "hotel-area": "north"}),
            TurnPair(2, "ok", "thanks",
                     {"hotel-stars": "3", "hotel-area": "north"}),
        ),
    )
    corpus = Corpus(schema=schema, dialogues=(dialogue,))
    assert step_histogram(corpus) == {1: 4}
    payload = stats_json(tmp_path, write_corpus(tmp_path, corpus))
    assert payload == {"counts": {"1": 4}, "total_active": 4, "multi_step_fraction": 0.0}


def test_histogram_empty_corpus(tmp_path):
    schema = stars_schema()
    assert step_histogram(Corpus(schema=schema, dialogues=())) == {}
    # a corpus whose slots are never filled has no active sample either
    unfilled = Corpus(schema=schema, dialogues=(
        Dialogue("d", "train", (TurnPair(1, "", "hello", {}), TurnPair(2, "hi", "bye", {}))),
    ))
    assert step_histogram(unfilled) == {}
    corpus_options = write_corpus(tmp_path, unfilled)
    payload = stats_json(tmp_path, corpus_options)
    assert payload == {"counts": {}, "total_active": 0, "multi_step_fraction": 0.0}
    assert stats_output(tmp_path, corpus_options).splitlines()[-2:] == [
        "total active samples: 0",
        "multi-step share (step >= 2): 0.00%",
    ]


def test_histogram_to_dict_sorted():
    corpus = make_corpus(random.Random(5))
    hist = step_histogram(corpus)
    assert list(hist) == sorted(hist)


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
    monkeypatch.setattr(chains, "normalize_value", lambda raw: calls.append(raw) or normalize(raw))
    assert sum(step_histogram(corpus).values()) == 35
    assert 0 < len(calls) <= changes
