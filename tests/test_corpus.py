"""Data model, canonical IO, domain exclusion, legacy ingestion."""

from __future__ import annotations

import json
import random
import re

import pytest

from gen import corpus_to_json, make_corpus, make_legacy_corpus, write_legacy
from slotchain.corpus import (
    LEGACY_STYLES,
    Corpus,
    Dialogue,
    Schema,
    SlotSchema,
    TurnPair,
    corpus_json_lines,
    filter_excluded_domains,
    infer_split,
    load_corpus,
    load_schema,
)
from slotchain.errors import FormatError, ValidationError
from slotchain.io import encode, read_json


def small_schema() -> Schema:
    return Schema(
        slots=(
            SlotSchema(
                slot_id="hotel-area",
                domain="hotel",
                name="area",
                description="area of the hotel",
                possible_values=("north", "south"),
            ),
            SlotSchema(
                slot_id="restaurant-food",
                domain="restaurant",
                name="food",
                description="cuisine of the restaurant",
            ),
            SlotSchema(
                slot_id="police-name",
                domain="police",
                name="name",
                description="name of the police station",
            ),
        )
    )


def turn(index: int, state: dict[str, str], system: str = "ok", user: str = "hi there") -> TurnPair:
    if index == 1:
        system = ""
    return TurnPair(index=index, system_utterance=system, user_utterance=user, gold_state=state)


# ---------------------------------------------------------------------------
# domain exclusion, expected output enumerated by hand


def test_exclusion_by_inspection():
    schema = small_schema()
    d1 = Dialogue(
        dialogue_id="d1",
        split="train",
        turns=(
            turn(1, {"hotel-area": "north", "police-name": "parkside station"}),
            turn(2, {"hotel-area": "north", "police-name": "parkside station",
                     "restaurant-food": "korean"}),
        ),
    )
    # only police annotations: the whole dialogue goes
    d2 = Dialogue(
        dialogue_id="d2",
        split="train",
        turns=(turn(1, {"police-name": "parkside station"}),),
    )
    # never annotated: stays
    d3 = Dialogue(dialogue_id="d3", split="dev", turns=(turn(1, {}),))
    # hospital-department is not even in the schema; the domain prefix
    # rule drops it all the same
    d4 = Dialogue(
        dialogue_id="d4",
        split="test",
        turns=(turn(1, {"hotel-area": "south", "hospital-department": "icu"}),),
    )
    corpus = Corpus(schema=schema, dialogues=(d1, d2, d3, d4))

    filtered = filter_excluded_domains(corpus, {"police", "hospital"})

    assert [d.dialogue_id for d in filtered.dialogues] == ["d1", "d3", "d4"]
    by_id = {d.dialogue_id: d for d in filtered.dialogues}
    assert by_id["d1"].turns[0].gold_state == {"hotel-area": "north"}
    assert by_id["d1"].turns[1].gold_state == {
        "hotel-area": "north",
        "restaurant-food": "korean",
    }
    assert by_id["d3"].turns[0].gold_state == {}
    assert by_id["d4"].turns[0].gold_state == {"hotel-area": "south"}
    # untouched fields survive
    assert by_id["d1"].split == "train"
    assert by_id["d1"].turns[1].user_utterance == "hi there"


def test_exclusion_noop_without_domains():
    rng = random.Random(7)
    corpus = make_corpus(rng)
    assert filter_excluded_domains(corpus, set()) is corpus


def test_exclusion_is_monotone():
    for seed in range(200):
        rng = random.Random(seed)
        corpus = make_corpus(rng)
        excluded = set(rng.sample(["hotel", "restaurant", "taxi", "train"], rng.randint(0, 2)))
        filtered = filter_excluded_domains(corpus, excluded)

        original = {d.dialogue_id: d for d in corpus.dialogues}
        assert set(f.dialogue_id for f in filtered.dialogues) <= set(original)
        for kept in filtered.dialogues:
            source = original[kept.dialogue_id]
            assert kept.n_turns == source.n_turns
            for new, old in zip(kept.turns, source.turns):
                assert set(new.gold_state) <= set(old.gold_state)
                for slot_id, value in new.gold_state.items():
                    assert old.gold_state[slot_id] == value
                    assert slot_id.split("-", 1)[0] not in excluded


# ---------------------------------------------------------------------------
# round trips


def test_corpus_round_trip(tmp_path):
    schema = small_schema()
    corpus = Corpus(
        schema=schema,
        dialogues=(
            Dialogue(
                dialogue_id="d1",
                split="train",
                turns=(
                    turn(1, {"hotel-area": "north"}, user="need a room up north"),
                    turn(2, {"hotel-area": "south", "restaurant-food": "thai"},
                         system="north is full", user="south then, and thai food"),
                ),
            ),
            Dialogue(dialogue_id="d2", split="test", turns=(turn(1, {}),)),
        ),
    )
    path = tmp_path / "dialogues.json"
    path.write_text(corpus_to_json(corpus), encoding="utf-8")
    loaded = load_corpus([path], schema)
    assert loaded == corpus


def test_corpus_round_trip_randomized(tmp_path):
    for seed in range(100):
        rng = random.Random(1000 + seed)
        corpus = make_corpus(rng)
        path = tmp_path / f"c{seed}.json"
        path.write_text(corpus_to_json(corpus), encoding="utf-8")
        loaded = load_corpus([path], corpus.schema)
        assert loaded == corpus


def one_dump(corpus: Corpus) -> str:
    """The corpus file text as one json.dumps of every record."""
    records = [
        {"dialogue_id": d.dialogue_id, "split": d.split, "turns": [encode(t) for t in d.turns]}
        for d in corpus.dialogues
    ]
    return json.dumps(records, ensure_ascii=False, indent=2) + "\n"


def test_corpus_is_written_one_dialogue_at_a_time_as_one_dump_would_write_it():
    schema = small_schema()
    one = Corpus(schema, (
        Dialogue("café\n1", "train", (
            turn(1, {"restaurant-food": "crêpes \"maison\"", "hotel-area": "north"}),
            turn(2, {}, system="ok\tthen", user="ünïcode and {braces} [brackets]"),
        )),
    ))
    generated = make_corpus(random.Random(7))
    for corpus in (Corpus(schema, ()), one, generated):
        chunks = list(corpus_json_lines(corpus))
        assert "".join(chunks) == one_dump(corpus)
        assert len(chunks) == len(corpus.dialogues) + 1
    assert corpus_to_json(Corpus(schema, ())) == "[]\n"


def test_save_corpus_is_byte_stable(tmp_path):
    corpus = make_corpus(random.Random(3))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(corpus_to_json(corpus), encoding="utf-8")
    b.write_text(corpus_to_json(corpus), encoding="utf-8")
    assert a.read_bytes() == b.read_bytes()


def test_load_corpus_multiple_files(tmp_path):
    schema = small_schema()
    c1 = Corpus(schema, (Dialogue("d1", "train", (turn(1, {}),)),))
    c2 = Corpus(schema, (Dialogue("d2", "test", (turn(1, {}),)),))
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    p1.write_text(corpus_to_json(c1), encoding="utf-8")
    p2.write_text(corpus_to_json(c2), encoding="utf-8")
    merged = load_corpus([p1, p2], schema)
    assert [d.dialogue_id for d in merged.dialogues] == ["d1", "d2"]


def test_load_corpus_repeated_id_names_the_later_file(tmp_path):
    schema = small_schema()
    corpus = Corpus(schema, (Dialogue("d1", "train", (turn(1, {}),)),))
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    p1.write_text(corpus_to_json(corpus), encoding="utf-8")
    p2.write_text(corpus_to_json(corpus), encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{p2}: duplicate dialogue_id 'd1'")):
        load_corpus([p1, p2], schema)


# ---------------------------------------------------------------------------
# validation: Schema and Dialogue keep their own rules; load_corpus checks
# slot ids against the schema and ids against the other dialogues


def write_dialogues(path, *dialogues: Dialogue):
    path.write_text(corpus_to_json(Corpus(small_schema(), dialogues)), encoding="utf-8")
    return path


def test_validate_rejects_unknown_slot(tmp_path):
    path = write_dialogues(
        tmp_path / "d.json", Dialogue("d1", "train", (turn(1, {"taxi-arrival": "10:00"}),))
    )
    with pytest.raises(
        ValidationError, match=re.escape(f"{path}: dialogue 'd1' turn 1: unknown slot_id")
    ):
        load_corpus([path], small_schema())


def test_unknown_slot_of_an_excluded_domain_is_dropped_first(tmp_path):
    path = write_dialogues(
        tmp_path / "d.json",
        Dialogue("d1", "train", (turn(1, {"taxi-arrival": "10:00", "hotel-area": "north"}),)),
    )
    loaded = load_corpus([path], small_schema(), exclude_domains={"taxi"})
    assert loaded.dialogues[0].turns[0].gold_state == {"hotel-area": "north"}


def test_validate_rejects_empty_value():
    with pytest.raises(ValidationError, match="dialogue 'd1' turn 1: empty value"):
        Dialogue("d1", "train", (turn(1, {"hotel-area": ""}),))


def test_validate_rejects_empty_user_utterance():
    with pytest.raises(ValidationError, match="empty user utterance"):
        Dialogue("d1", "train", (TurnPair(1, "", "", {}),))


def test_validate_rejects_empty_system_after_first_turn():
    with pytest.raises(ValidationError, match="turn 2: .*first turn"):
        Dialogue("d1", "train", (turn(1, {}), TurnPair(2, "", "still there?", {})))


def test_validate_allows_empty_system_on_first_turn():
    Dialogue("d1", "train", (TurnPair(1, "", "hello", {}),))


def test_validate_rejects_bad_turn_index():
    with pytest.raises(ValidationError, match="expected index 1, found 2"):
        Dialogue("d1", "train", (turn(2, {}),))


def test_validate_rejects_a_dialogue_without_turns():
    with pytest.raises(ValidationError, match="dialogue 'd1': no turns"):
        Dialogue("d1", "train", ())


def test_validate_rejects_empty_dialogue_id():
    with pytest.raises(ValidationError, match="empty dialogue_id"):
        Dialogue("", "train", (turn(1, {}),))


def test_validate_rejects_duplicate_dialogue_id(tmp_path):
    d = Dialogue("d1", "train", (turn(1, {}),))
    path = write_dialogues(tmp_path / "d.json", d, d)
    with pytest.raises(ValidationError, match=re.escape(f"{path}: duplicate dialogue_id 'd1'")):
        load_corpus([path], small_schema())


def test_validate_rejects_unknown_split():
    with pytest.raises(ValidationError, match="unknown split 'eval'"):
        Dialogue("d1", "eval", (turn(1, {}),))


def test_dialogue_rule_in_a_file_is_a_format_error_naming_the_record(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps([{"dialogue_id": "d1", "split": "train", "turns": []}]))
    with pytest.raises(
        FormatError, match=re.escape(f"{path}: dialogue record 0: dialogue 'd1': no turns")
    ):
        load_corpus([path], small_schema())


def test_validate_schema_rejects_id_mismatch():
    slot = SlotSchema(slot_id="hotel-area", domain="hotel", name="stars", description="x")
    with pytest.raises(ValidationError, match="does not equal"):
        Schema((slot,))


def test_validate_schema_rejects_duplicate_ids():
    slot = SlotSchema(slot_id="hotel-area", domain="hotel", name="area", description="x")
    with pytest.raises(ValidationError, match="duplicate slot_id"):
        Schema((slot, slot))


def test_validate_schema_rejects_empty_value_set():
    slot = SlotSchema("hotel-area", "hotel", "area", "x", possible_values=())
    with pytest.raises(ValidationError, match="empty"):
        Schema((slot,))


def test_validate_schema_rejects_values_colliding_after_normalization():
    slot = SlotSchema("hotel-area", "hotel", "area", "x", possible_values=("North", "north"))
    with pytest.raises(ValidationError, match="duplicates"):
        Schema((slot,))


# ---------------------------------------------------------------------------
# split inference


@pytest.mark.parametrize(
    "filename,expected",
    [
        ("woz_train_en.json", "train"),
        ("woz_validate_en.json", "dev"),
        ("dev_dials.json", "dev"),
        ("val.json", "dev"),
        ("test_dials.json", "test"),
        ("dialogues_001.json", None),
        # whole words only, split at non-letters and lower-to-upper case
        ("latest_train.json", "train"),
        ("interval_train.json", "train"),
        ("device_logs_test.json", "test"),
        ("sgdDevSet.json", "dev"),
        ("validation.json", "dev"),
        ("contestants.json", None),
        # a stem that names no split takes its directory's whole name
        ("mwz/train/dialogues_001.json", "train"),
        ("mwz/Dev/dialogues_001.json", "dev"),
        ("test/train_x.json", "train"),
        ("data/dialogues_001.json", None),
        ("test_logs/dialogues_001.json", None),
    ],
)
def test_infer_split(filename, expected):
    assert infer_split(filename) == expected


# ---------------------------------------------------------------------------
# legacy ingestion, expected canonical form written out by hand


def woz_schema() -> Schema:
    return Schema(
        slots=tuple(
            SlotSchema(
                slot_id=f"restaurant-{name}",
                domain="restaurant",
                name=name,
                description=f"{name} of the restaurant",
            )
            for name in ("food", "area", "pricerange")
        )
    )


def test_ingest_woz_belief(tmp_path):
    raw = [
        {
            "dialogue_idx": 0,
            "dialogue": [
                {
                    "turn_idx": 0,
                    "system_transcript": "",
                    "transcript": "i want korean food",
                    "belief_state": [
                        {"slots": [["food", "korean"]], "act": "inform"},
                        {"slots": [["slot", "address"]], "act": "request"},
                    ],
                },
                {
                    "turn_idx": 1,
                    "system_transcript": "any preferred area?",
                    "transcript": "the north please",
                    "belief_state": [
                        {"slots": [["food", "korean"], ["area", "north"]], "act": "inform"}
                    ],
                },
            ],
        }
    ]
    path = tmp_path / "woz_train_en.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corpus = load_corpus([path], woz_schema(), style="woz_belief")

    assert len(corpus.dialogues) == 1
    dialogue = corpus.dialogues[0]
    assert dialogue.dialogue_id == "0"
    assert dialogue.split == "train"
    assert dialogue.turns == (
        TurnPair(1, "", "i want korean food", {"restaurant-food": "korean"}),
        TurnPair(
            2,
            "any preferred area?",
            "the north please",
            {"restaurant-food": "korean", "restaurant-area": "north"},
        ),
    )


def test_ingest_woz_unknown_slot_name(tmp_path):
    raw = [
        {
            "dialogue_idx": 3,
            "dialogue": [
                {
                    "system_transcript": "",
                    "transcript": "hi",
                    "belief_state": [{"slots": [["parking", "yes"]], "act": "inform"}],
                }
            ],
        }
    ]
    path = tmp_path / "woz_train_en.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    # The reader keeps a name the schema lacks; load_corpus rejects it.
    with pytest.raises(ValidationError) as caught:
        load_corpus([path], woz_schema(), style="woz_belief")
    assert str(caught.value) == f"{path}: dialogue '3' turn 1: unknown slot_id 'parking'"


@pytest.mark.parametrize("style", ["woz_belief", "m2m_flat"])
def test_ingest_slot_names_match_without_case_spaces_or_underscores(tmp_path, style):
    spellings = ["price range", "Price_Range", "PRICERANGE"]
    if style == "woz_belief":
        raw = [{"dialogue_idx": k, "dialogue": [{"transcript": "cheap please",
                "belief_state": [{"act": "inform", "slots": [[name, "cheap"]]}]}]}
               for k, name in enumerate(spellings)]
    else:
        raw = [{"id": str(k), "domain": "restaurant", "turns": [
                {"user_utterance": {"text": "cheap please"},
                 "dialogue_state": [{"slot": name, "value": "cheap"}]}]}
               for k, name in enumerate(spellings)]
    path = tmp_path / "legacy_train.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corpus = load_corpus([path], woz_schema(), style=style)
    assert [d.turns[0].gold_state for d in corpus.dialogues] == [
        {"restaurant-pricerange": "cheap"}
    ] * len(spellings)


def m2m_schema() -> Schema:
    slots = []
    for domain, names in (
        ("restaurant", ("date", "time", "num_people")),
        ("movie", ("date", "theatre_name")),
    ):
        for name in names:
            slots.append(
                SlotSchema(
                    slot_id=f"{domain}-{name}",
                    domain=domain,
                    name=name,
                    description=f"{name} of the {domain}",
                )
            )
    return Schema(slots=tuple(slots))


def test_ingest_m2m_flat(tmp_path):
    raw = [
        {
            "id": "sim-R-1",
            "domain": "restaurant",
            "turns": [
                {
                    "user_utterance": {"text": "book me dinner tomorrow"},
                    "dialogue_state": [{"slot": "date", "value": "tomorrow"}],
                },
                {
                    "system_utterance": {"text": "for what time?"},
                    "user_utterance": {"text": "7 pm for 2 people"},
                    "dialogue_state": [
                        {"slot": "date", "value": "tomorrow"},
                        {"slot": "time", "value": "7 pm"},
                        {"slot": "num_people", "value": "2"},
                    ],
                },
            ],
        }
    ]
    path = tmp_path / "sim_R_dev.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corpus = load_corpus([path], m2m_schema(), style="m2m_flat")

    dialogue = corpus.dialogues[0]
    assert dialogue.dialogue_id == "sim-R-1"
    assert dialogue.split == "dev"
    assert dialogue.turns == (
        TurnPair(1, "", "book me dinner tomorrow", {"restaurant-date": "tomorrow"}),
        TurnPair(
            2,
            "for what time?",
            "7 pm for 2 people",
            {
                "restaurant-date": "tomorrow",
                "restaurant-time": "7 pm",
                "restaurant-num_people": "2",
            },
        ),
    )


def test_ingest_m2m_ambiguous_slot_without_domain(tmp_path):
    raw = [
        {
            "id": "x-1",
            "turns": [
                {
                    "user_utterance": {"text": "tomorrow works"},
                    "dialogue_state": [{"slot": "date", "value": "tomorrow"}],
                }
            ],
        }
    ]
    path = tmp_path / "sim_test.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(FormatError, match="ambiguous"):
        load_corpus([path], m2m_schema(), style="m2m_flat")


def sgd_like_schema() -> Schema:
    return Schema(
        slots=(
            SlotSchema("hotel-area", "hotel", "area", "area of the hotel",
                       possible_values=("north", "south")),
            SlotSchema("hotel-pricerange", "hotel", "pricerange", "price of the hotel"),
        )
    )


def test_ingest_sgd_state(tmp_path):
    raw = [
        {
            "dialogue_id": "MUL0001.json",
            "turns": [
                {
                    "speaker": "USER",
                    "utterance": "i need a hotel in the north",
                    "frames": [
                        {"service": "hotel",
                         "state": {"slot_values": {"hotel-area": ["north"]}}}
                    ],
                },
                {"speaker": "SYSTEM", "utterance": "sure, any price range?"},
                {
                    "speaker": "USER",
                    "utterance": "cheap please",
                    "frames": [
                        {
                            "service": "hotel",
                            "state": {
                                "slot_values": {
                                    "hotel-area": ["north"],
                                    "hotel-pricerange": ["cheap", "inexpensive"],
                                }
                            },
                        }
                    ],
                },
                {"speaker": "SYSTEM", "utterance": "done, anything else?"},
            ],
        }
    ]
    path = tmp_path / "dialogues_001.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    corpus = load_corpus([path], sgd_like_schema(), style="sgd_state", split="train")

    dialogue = corpus.dialogues[0]
    assert dialogue.dialogue_id == "MUL0001.json"
    # the trailing system goodbye has no user reply and is dropped
    assert dialogue.turns == (
        TurnPair(1, "", "i need a hotel in the north", {"hotel-area": "north"}),
        TurnPair(
            2,
            "sure, any price range?",
            "cheap please",
            {"hotel-area": "north", "hotel-pricerange": "cheap"},
        ),
    )


@pytest.mark.parametrize("style", sorted(LEGACY_STYLES))
def test_legacy_styles_round_trip(tmp_path, style):
    for seed in range(200):
        rng = random.Random(seed)
        corpus = make_legacy_corpus(rng, style)
        directory = tmp_path / str(seed)
        directory.mkdir()
        paths = write_legacy(rng, corpus, style, directory)
        loaded = load_corpus(paths, corpus.schema, style=style)
        by_id = {d.dialogue_id: d for d in corpus.dialogues}
        assert {d.dialogue_id: d for d in loaded.dialogues} == by_id, seed


# Legacy faults and the whole message each gives; test_cli's
# MALFORMED_INPUTS runs more of them through the CLI. Each is a
# FormatError but those of LOAD_CORPUS_FAULTS.
LEGACY_FAULTS = {
    "woz not an array": (
        "woz_belief", woz_schema, {"dialogue_idx": 1, "dialogue": []},
        "expected a JSON array",
    ),
    "woz turns missing": (
        "woz_belief", woz_schema, [{"dialogue_idx": 1}],
        "dialogue '1': field 'dialogue' missing or not an array",
    ),
    "woz belief item": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi", "belief_state": {}}]}],
        "dialogue '1' turn 0 belief_state item: expected an array",
    ),
    "woz belief slots": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": {"area": "north"}}]}]}],
        "dialogue '1' turn 0: belief field 'slots' not an array",
    ),
    "woz belief pair": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": [["area"]]}]}]}],
        "dialogue '1' turn 0: malformed belief slot pair ['area']",
    ),
    "m2m turns missing": (
        "m2m_flat", m2m_schema, [{"id": "r1", "turns": {}}],
        "dialogue 'r1': field 'turns' missing or not an array",
    ),
    "m2m state item": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "turns": [{"user_utterance": {"text": "hi"}, "dialogue_state": {}}]}],
        "dialogue 'r1' turn 0 dialogue_state item: expected an array",
    ),
    "m2m state value": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "domain": "restaurant", "turns": [{"user_utterance": {"text": "hi"},
            "dialogue_state": [{"slot": "date", "value": 3}]}]}],
        "dialogue 'r1' turn 0 dialogue_state value: expected a string",
    ),
    # the slot names of the record's own domain only; another name is
    # kept in the record's domain, for load_corpus to reject
    "m2m slot of another domain": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "domain": "movie", "turns": [{"user_utterance": {"text": "hi"},
            "dialogue_state": [{"slot": "num_people", "value": "2"}]}]}],
        "dialogue 'r1' turn 1: unknown slot_id 'movie-num_people'",
    ),
    "m2m slot name": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "domain": "movie", "turns": [{"user_utterance": {"text": "hi"},
            "dialogue_state": [{"value": "2"}]}]}],
        "dialogue 'r1' turn 0 slot name: expected a string",
    ),
    "m2m domain": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "domain": ["movie"], "turns": []}],
        "dialogue 'r1' domain: expected a string",
    ),
    "woz slot name": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": [[3, "north"]]}]}]}],
        "dialogue '1' turn 0 slot name: expected a string",
    ),
    "sgd turns missing": (
        "sgd_state", sgd_like_schema, [{"dialogue_id": "s1"}],
        "dialogue 's1': field 'turns' missing or not an array",
    ),
    "sgd unknown speaker": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "bot", "utterance": "hi"}]}],
        "dialogue 's1' turn 0: unknown speaker 'BOT'",
    ),
    "sgd unknown slot": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": [{"state": {"slot_values": {"taxi-x": ["a"]}}}]}]}],
        "dialogue 's1' turn 1: unknown slot_id 'taxi-x'",
    ),
    "sgd frames": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": {}}]}],
        "dialogue 's1' turn 0 frame: expected an array",
    ),
    "sgd slot values": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": [{"state": {"slot_values": ["hotel-area"]}}]}]}],
        "dialogue 's1' turn 0 frame 0 slot_values: expected an object",
    ),
    "woz belief value": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": [["area", {"x": 1}]]}]}]}],
        "dialogue '1' turn 0 slots 'area': expected a string",
    ),
    "woz false value": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": [["food", False]]}]}]}],
        "dialogue '1' turn 0 slots 'food': expected a string",
    ),
    # Only an empty variant list leaves an sgd slot unset, not another
    # empty value.
    "sgd empty object value": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": [{"state": {"slot_values": {"hotel-area": {}}}}]}]}],
        "dialogue 's1' turn 0 frame 0 slot_values 'hotel-area': expected a string",
    ),
    "sgd empty list variant": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": [{"state": {"slot_values": {"hotel-area": [[]]}}}]}]}],
        "dialogue 's1' turn 0 frame 0 slot_values 'hotel-area': expected a string",
    ),
    "m2m user text": (
        "m2m_flat", m2m_schema,
        [{"id": "r1", "turns": [{"user_utterance": {"text": 7}}]}],
        "dialogue 'r1' turn 0 user_utterance text: expected a string",
    ),
    "sgd speaker": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": 1, "utterance": "hi"}]}],
        "dialogue 's1' turn 0 speaker: expected a string",
    ),
    "sgd utterance": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": None}]}],
        "dialogue 's1' turn 0 utterance: expected a string",
    ),
    # A dialogue id may be an integer (WOZ 2.0's dialogue_idx), but no
    # other non-string: each used to be loaded as its Python str().
    "woz null dialogue id": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi"}]},
         {"dialogue_idx": None, "dialogue": [{"transcript": "hi"}]}],
        "record 1 dialogue_idx: expected a string",
    ),
    "woz float dialogue id": (
        "woz_belief", woz_schema,
        [{"dialogue_id": 1.5, "dialogue": [{"transcript": "hi"}]}],
        "record 0 dialogue_id: expected a string",
    ),
    "m2m object dialogue id": (
        "m2m_flat", m2m_schema,
        [{"id": {"x": 1}, "turns": [{"user_utterance": {"text": "hi"}}]}],
        "record 0 id: expected a string",
    ),
    "sgd boolean dialogue id": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": True, "turns": [{"speaker": "USER", "utterance": "hi"}]}],
        "record 0 dialogue_id: expected a string",
    ),
    # A record without an id, or with an empty one, is named by its
    # position.
    "woz missing dialogue id": (
        "woz_belief", woz_schema,
        [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi"}]},
         {"dialogue": [{"transcript": "hi"}]}],
        "record 1: no dialogue id field (dialogue_idx or dialogue_id)",
    ),
    "m2m missing dialogue id": (
        "m2m_flat", m2m_schema,
        [{"turns": [{"user_utterance": {"text": "hi"}}]}],
        "record 0: no dialogue id field (id or dialogue_id)",
    ),
    "sgd empty dialogue id": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": "s1", "turns": [{"speaker": "USER", "utterance": "hi"}]},
         {"dialogue_id": "", "turns": [{"speaker": "USER", "utterance": "hi"}]}],
        "record 1: empty dialogue_id",
    ),
    "sgd array dialogue id": (
        "sgd_state", sgd_like_schema,
        [{"dialogue_id": ["s1"], "turns": [{"speaker": "USER", "utterance": "hi"}]}],
        "record 0 dialogue_id: expected a string",
    ),
}


# A slot id the schema lacks is found by load_corpus, after exclusion,
# as in canonical input, not by the legacy reader.
LOAD_CORPUS_FAULTS = {"sgd unknown slot", "m2m slot of another domain"}


@pytest.mark.parametrize("case", sorted(LEGACY_FAULTS))
def test_ingest_rejects_a_non_string_legacy_field(tmp_path, case):
    style, schema, raw, message = LEGACY_FAULTS[case]
    path = tmp_path / "legacy_train.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError if case in LOAD_CORPUS_FAULTS else FormatError) as caught:
        load_corpus([path], schema(), style=style)
    assert str(caught.value) == f"{path}: {message}"


def test_ingest_skips_null_and_empty_legacy_values(tmp_path):
    raw = {
        "woz_belief": [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi", "belief_state": [
            {"slots": [["food", None], ["area", ""], ["pricerange", "cheap"]]}]}]}],
        "m2m_flat": [{"id": "r1", "domain": "restaurant", "turns": [
            {"user_utterance": {"text": "hi"}, "dialogue_state": [
                {"slot": "date", "value": None}, {"slot": "time", "value": ""},
                {"slot": "num_people", "value": "2"}]}]}],
        "sgd_state": [{"dialogue_id": "1", "turns": [{"speaker": "USER", "utterance": "hi",
            "frames": [{"state": {"slot_values": {"hotel-area": [],
                                                  "hotel-pricerange": None}}},
                       {"state": {"slot_values": {"hotel-area": [None],
                                                  "hotel-pricerange": [""]}}}]}]}],
    }
    expected = {
        "woz_belief": {"restaurant-pricerange": "cheap"},
        "m2m_flat": {"restaurant-num_people": "2"},
        "sgd_state": {},
    }
    schemas = {"woz_belief": woz_schema, "m2m_flat": m2m_schema, "sgd_state": sgd_like_schema}
    for style, dialogues in raw.items():
        path = tmp_path / f"{style}_train.json"
        path.write_text(json.dumps(dialogues), encoding="utf-8")
        corpus = load_corpus([path], schemas[style](), style=style)
        # a missing system utterance reads as ""
        assert corpus.dialogues[0].turns == (TurnPair(1, "", "hi", expected[style]),), style


def test_ingest_requires_split_when_not_inferable(tmp_path):
    path = tmp_path / "dialogues_001.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(FormatError, match="infer split"):
        load_corpus([path], sgd_like_schema(), style="sgd_state")


def test_ingest_rejects_unknown_style(tmp_path):
    path = tmp_path / "train.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(FormatError, match="unknown legacy style"):
        load_corpus([path], sgd_like_schema(), style="csv")


def load_sgd_schema(path) -> Schema:
    """Convert a schema-guided services file (array of services with a
    'slots' list each) into a canonical Schema, as in MultiWOZ 2.2."""
    slots: list[SlotSchema] = []
    for service in read_json(path, expect=list):
        service_name = str(service.get("service_name", ""))
        for slot in service.get("slots", []):
            raw_name = str(slot.get("name", ""))
            # service files commonly prefix slot names with the domain
            name = raw_name.split("-", 1)[1] if raw_name.startswith(f"{service_name}-") else raw_name
            possible = slot.get("possible_values") or None
            slots.append(
                SlotSchema(
                    slot_id=f"{service_name}-{name}",
                    domain=service_name,
                    name=name,
                    description=str(slot.get("description", "")),
                    possible_values=tuple(possible) if possible else None,
                )
            )
    return Schema(slots=tuple(slots))


def test_load_sgd_schema(tmp_path):
    raw = [
        {
            "service_name": "hotel",
            "slots": [
                {
                    "name": "hotel-area",
                    "description": "area of the hotel",
                    "possible_values": ["north", "south"],
                    "is_categorical": True,
                },
                {"name": "hotel-pricerange", "description": "price of the hotel"},
            ],
        }
    ]
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    schema = load_sgd_schema(path)
    assert schema == sgd_like_schema()


# ---------------------------------------------------------------------------
# format errors carry locations


def test_load_schema_rejects_non_array(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(FormatError, match="array"):
        load_schema(path)


def test_load_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "dialogues.json"
    path.write_text("[not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_corpus([path], small_schema())


def test_load_corpus_names_bad_record(tmp_path):
    path = tmp_path / "dialogues.json"
    path.write_text(json.dumps([{"dialogue_id": "d1", "split": "train"}]), encoding="utf-8")
    with pytest.raises(FormatError, match="dialogue record 0"):
        load_corpus([path], small_schema())
