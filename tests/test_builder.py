"""Prompt rendering, explanations, and target serialization."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import corpus_to_json, make_corpus
from oracles import oracle_chain, render_target
from test_chains import chain_at
from test_io import FUZZ, examples
from slotchain.builder import (
    CoTExample,
    DEFAULT_TEMPLATE,
    ExampleMeta,
    PromptTemplate,
    avg_utterance_len,
    build_coarse_explanation,
    build_dataset,
    build_question,
    example_line,
    examples_to_jsonl,
    load_template,
    parse_generation,
    read_examples,
    render_histories,
    render_prompt,
    slot_prompt,
    slot_prompts,
)
from slotchain.chains import SlotChain, extract_chain
from slotchain.cli import main
from slotchain.corpus import (
    Corpus,
    Dialogue,
    Schema,
    SlotSchema,
    TurnPair,
    load_corpus,
    load_schema,
)
from slotchain.errors import FormatError, ValidationError
from slotchain.io import decode, encode
from slotchain.normalize import DEFAULT_POLICY, normalize_value

FIXTURES = Path(__file__).parent / "fixtures"


def schema() -> Schema:
    return Schema(
        slots=(
            SlotSchema("hotel-stars", "hotel", "stars", "the star rating of the hotel.",
                       possible_values=("1", "2", "3", "4", "5")),
            SlotSchema("hotel-area", "hotel", "area", "area of the hotel",
                       possible_values=("north", "south")),
            SlotSchema("restaurant-food", "restaurant", "food", "the cuisine served"),
        )
    )


def dialogue() -> Dialogue:
    return Dialogue(
        dialogue_id="d1",
        split="train",
        turns=(
            TurnPair(1, "", "find a 3 star hotel", {"hotel-stars": "3"}),
            TurnPair(2, "the lensfield has 3 stars", "make it 4 star and korean food",
                     {"hotel-stars": "4", "restaurant-food": "korean"}),
        ),
    )


def prompt_at(d: Dialogue, query_turn: int, slot: SlotSchema, template=DEFAULT_TEMPLATE) -> str:
    return render_prompt(slot_prompt(slot, template), render_histories(d)[query_turn - 1])


def decode_lines(lines) -> tuple:
    """The CoTExample of each JSON Lines line, decoded and checked by the
    codec; each line must be example_line of its example."""
    examples = []
    for number, line in enumerate(lines, start=1):
        example = decode(CoTExample, json.loads(line), f"line {number}")
        assert example_line(example) == line, number
        examples.append(example)
    return tuple(examples)


def build_all(corpus: Corpus, template=DEFAULT_TEMPLATE, **options) -> tuple:
    """build_dataset over every dialogue in id order, as `slotchain build`
    runs it, its lines decoded."""
    prompts = slot_prompts(corpus.schema, template)
    dialogues = sorted(corpus.dialogues, key=lambda d: d.dialogue_id)
    return decode_lines(line for d in dialogues for line in build_dataset(d, prompts, **options))


def reference_examples(
    corpus: Corpus, template=DEFAULT_TEMPLATE, include_explanations=True, include_inactive=False
) -> tuple:
    """The examples `slotchain build` writes, made one CoTExample at a
    time from the oracle chains, the rendered prompts and the
    hand-rebuilt coarse explanations."""
    examples = []
    for d in sorted(corpus.dialogues, key=lambda d: d.dialogue_id):
        utterance_len = avg_utterance_len(d)
        for turn in d.turns:
            for slot in sorted(corpus.schema.slots, key=lambda s: s.slot_id):
                steps = oracle_chain(d, slot.slot_id, turn.index, DEFAULT_POLICY)
                if not steps and not include_inactive:
                    continue
                target = steps[-1][1] if steps else "none"
                explanation = ""
                if include_explanations and steps and normalize_value(target) != "none":
                    explanation = coarse_text(d, [t for t, _ in steps])
                examples.append(CoTExample(
                    example_id=f"{d.dialogue_id}:{turn.index}:{slot.slot_id}",
                    input_text=prompt_at(d, turn.index, slot, template),
                    target_value=target,
                    explanation=explanation,
                    explanation_kind="coarse" if explanation else "none",
                    meta=ExampleMeta(d.dialogue_id, turn.index, slot.slot_id, len(steps),
                                     d.n_turns, utterance_len),
                ))
    return tuple(examples)


# ---------------------------------------------------------------------------
# questions


def test_build_question_strips_one_trailing_period():
    slot = schema().slots[0]
    assert build_question(slot) == "What's the star rating of the hotel?"


def test_build_question_plain_description():
    slot = schema().slots[1]
    assert build_question(slot) == "What's area of the hotel?"


def test_build_question_override_verbatim():
    slot = schema().slots[0]
    template = PromptTemplate(questions={"hotel-stars": "How many stars should the hotel have?"})
    assert build_question(slot, template) == "How many stars should the hotel have?"


def test_build_question_rule_on_hand_listed_descriptions():
    cases = [
        ("area of the hotel", "What's area of the hotel?"),
        ("area of the hotel.", "What's area of the hotel?"),
        ("the star rating of the hotel.", "What's the star rating of the hotel?"),
        ("the cuisine served", "What's the cuisine served?"),
        ("price range.", "What's price range?"),
        ("arrival time", "What's arrival time?"),
        ("arrival time.", "What's arrival time?"),
        ("the booking day", "What's the booking day?"),
        ("the booking day.", "What's the booking day?"),
        ("no. of people", "What's no. of people?"),
        ("no. of people.", "What's no. of people?"),
        ("internet availability", "What's internet availability?"),
        ("parking availability.", "What's parking availability?"),
        ("the departure site", "What's the departure site?"),
        ("the destination.", "What's the destination?"),
        ("leave-at time.", "What's leave-at time?"),
        ("hotel type e.g. guesthouse", "What's hotel type e.g. guesthouse?"),
        ("hotel type e.g. guesthouse.", "What's hotel type e.g. guesthouse?"),
        ("stay length..", "What's stay length.?"),
        ("name", "What's name?"),
    ]
    for description, expected in cases:
        slot = SlotSchema("x-y", "x", "y", description)
        assert build_question(slot) == expected, description


# ---------------------------------------------------------------------------
# history and prompts


def test_render_history_line_structure():
    history = render_histories(dialogue())[1]
    assert history == (
        "system:\n"
        "user: find a 3 star hotel\n"
        "system: the lensfield has 3 stars\n"
        "user: make it 4 star and korean food"
    )


def test_render_history_line_counts():
    for query_turn in (1, 2):
        lines = render_histories(dialogue())[query_turn - 1].split("\n")
        assert sum(1 for l in lines if l.startswith("system:")) == query_turn
        assert sum(1 for l in lines if l.startswith("user:")) == query_turn


def test_render_prompt_categorical_has_choices():
    prompt = prompt_at(dialogue(), 2, schema().slots[0])
    assert "Choices: 1, 2, 3, 4, 5, none" in prompt
    assert "Question: What's the star rating of the hotel?" in prompt
    assert "Domain: hotel" in prompt
    assert prompt.startswith("Dialogue: system:\nuser: find a 3 star hotel")


def test_render_prompt_non_categorical_omits_choices():
    prompt = prompt_at(dialogue(), 2, schema().slots[2])
    assert "Choices" not in prompt
    assert prompt.endswith("What's the cuisine served?")


def test_render_prompt_no_duplicate_none_choice():
    slot = SlotSchema("hotel-parking", "hotel", "parking", "parking availability",
                      possible_values=("yes", "no", "none"))
    d = Dialogue("d", "train", (TurnPair(1, "", "hi", {}),))
    prompt = prompt_at(d, 1, slot)
    assert "Choices: yes, no, none" in prompt
    assert prompt.count("none") == 1


def test_render_prompt_deterministic():
    a = prompt_at(dialogue(), 2, schema().slots[0])
    b = prompt_at(dialogue(), 2, schema().slots[0])
    assert a == b


def test_render_prompt_never_expands_utterance_brackets():
    d = Dialogue(
        "d", "train", (TurnPair(1, "", "what does [Question] mean? [Choices] too", {}),)
    )
    prompt = prompt_at(d, 1, schema().slots[2])
    assert "what does [Question] mean? [Choices] too" in prompt
    # and the template's own placeholders were still filled
    assert "What's the cuisine served?" in prompt


def test_render_prompt_custom_template_repeated_domain():
    template = PromptTemplate(
        template_text="[Domain] booking. [History] ask about [Domain]: [Question]"
    )
    prompt = prompt_at(dialogue(), 1, schema().slots[2], template)
    assert prompt.startswith("restaurant booking. system:")
    assert "ask about restaurant: What's the cuisine served?" in prompt


def test_slot_prompt_splits_at_the_template_history():
    # A template question that reads "[History]" is text, not the place
    # the history goes.
    slot = schema().slots[2]
    template = PromptTemplate(
        template_text="[Domain]: [Question] Dialogue: [History]",
        questions={slot.slot_id: "[History]"},
    )
    prompt = slot_prompt(slot, template)
    assert (prompt.before, prompt.after) == ("restaurant: [History] Dialogue: ", "")
    assert render_prompt(prompt, "user: hi") == "restaurant: [History] Dialogue: user: hi"


@pytest.mark.parametrize("template_text", [
    "Dialogue: [History] Domain: [Domain] Question: [Question] [Choices]",
    "[History] [Question] [Choices]",
    " \n [History]\t[Domain]: [Question]",
    "[Question] [Choices] [History]",
    "[Domain]: [Question] [Choices]\n [History] \n",
    " [Choices] [History] [Question]\t",
])
def test_build_dataset_prompts_are_render_prompt_whatever_side_is_stripped(template_text):
    # render_prompt strips the joined prompt, and so the history where the
    # template is blank on one side of it; a user utterance that ends in
    # whitespace shows whether build strips it too.
    template = PromptTemplate(template_text=template_text)
    for seed in range(20):
        generated = make_corpus(random.Random(70_000 + seed))
        corpus = Corpus(generated.schema, tuple(
            Dialogue(d.dialogue_id, d.split, tuple(
                TurnPair(t.index, t.system_utterance, f"{t.user_utterance} \t\n ", t.gold_state)
                for t in d.turns
            ))
            for d in generated.dialogues
        ))
        for options in ({}, {"include_inactive": True}):
            expected = reference_examples(corpus, template, **options)
            assert build_all(corpus, template, **options) == expected, (seed, options)


def test_render_histories_has_one_history_per_turn():
    histories = render_histories(dialogue())
    assert len(histories) == dialogue().n_turns
    assert histories[1].startswith(histories[0] + "\n")


def test_template_placeholder_counts_enforced():
    with pytest.raises(ValidationError):
        PromptTemplate(template_text="[History] only history")
    with pytest.raises(ValidationError):
        PromptTemplate(template_text="[History] [Question] [Question]")
    with pytest.raises(ValidationError):
        PromptTemplate(template_text="[History] [Question] [Choices] [Choices]")
    with pytest.raises(ValidationError, match="^empty question for slot 'hotel-stars'$"):
        PromptTemplate(questions={"hotel-stars": ""})


def test_load_template_and_overrides(tmp_path):
    tpath = tmp_path / "template.json"
    tpath.write_text(json.dumps({"template_text": "[History] [Question] [Choices]"}))
    template = load_template(tpath, schema())
    assert template.choices_section_marker == "Choices"
    assert template.questions == {}

    opath = tmp_path / "overrides.json"
    opath.write_text(json.dumps({"questions": {"hotel-stars": "How many stars?"}}))
    template = load_template(opath, schema())
    assert template.questions == {"hotel-stars": "How many stars?"}
    assert template.template_text == DEFAULT_TEMPLATE.template_text

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"questions": {"hotel-rooms": "How many rooms?"}}))
    with pytest.raises(ValidationError) as caught:
        load_template(bad, schema())
    assert str(caught.value) == f"{bad}: question names unknown slot 'hotel-rooms'"


# ---------------------------------------------------------------------------
# coarse explanations


def test_coarse_explanation_non_consecutive_pairs():
    d = Dialogue(
        "d",
        "train",
        (
            TurnPair(1, "", "hello", {}),
            TurnPair(2, "a2", "u2", {"hotel-stars": "3"}),
            TurnPair(3, "a3", "u3", {"hotel-stars": "3"}),
            TurnPair(4, "a4", "u4", {"hotel-stars": "5"}),
        ),
    )
    chain = extract_chain(d, "hotel-stars")
    assert chain.change_turns == (2, 4)
    assert build_coarse_explanation(d, chain.change_turns) == (
        "system: a2 user: u2 system: a4 user: u4"
    )


def test_coarse_explanation_single_pair_empty_system():
    d = dialogue()
    turns = [t for t, _ in chain_at(d, "hotel-stars", 1)]
    assert build_coarse_explanation(d, turns) == "system: user: find a 3 star hotel"


def coarse_text(d, turn_indices):
    """Speaker pairs of the given turns, rebuilt without the library."""
    return " ".join(
        ("system: " + d.turns[t - 1].system_utterance + " "
         if d.turns[t - 1].system_utterance else "system: ")
        + "user: " + d.turns[t - 1].user_utterance
        for t in turn_indices
    )


def test_coarse_explanation_ordering_matches_sorted_turns():
    for seed in range(100):
        corpus = make_corpus(random.Random(40_000 + seed))
        for d in corpus.dialogues:
            for slot in corpus.schema.slots:
                chain = extract_chain(d, slot.slot_id)
                if not chain.change_turns:
                    continue
                text = build_coarse_explanation(d, chain.change_turns)
                assert text == coarse_text(d, sorted(chain.change_turns))


def test_coarse_explanation_requires_chain():
    d = dialogue()
    turns = extract_chain(d, "hotel-area").change_turns
    with pytest.raises(
        ValidationError, match=r"^no change turns to explain in dialogue 'd1'$"
    ):
        build_coarse_explanation(d, turns)


# ---------------------------------------------------------------------------
# targets


def test_render_target_value_only():
    assert render_target("5-star") == "5-star"
    assert render_target("5-star", "") == "5-star"


def test_render_target_with_explanation():
    assert render_target("5-star", "system: a user: b") == "5-star | system: a user: b"


def test_render_target_rejects_empty_value():
    with pytest.raises(ValidationError):
        render_target("")


@pytest.mark.parametrize("explanation", ["", "expl"])
def test_render_target_rejects_value_containing_separator(explanation):
    # parse_generation splits at the first separator, so "a | b" would
    # read back as value "a"
    with pytest.raises(ValidationError, match="separator"):
        render_target("a | b", explanation)
    assert parse_generation(render_target("a|b", explanation))[0] == "a|b"


def test_parse_generation_splits_at_first_separator():
    assert parse_generation("5-star | system: a user: b") == ("5-star", "system: a user: b")
    assert parse_generation("a | b | c") == ("a", "b | c")


def test_parse_generation_value_only():
    assert parse_generation("5-star") == ("5-star", "")
    assert parse_generation("  5-star \n") == ("5-star", "")


def test_parse_generation_rejects_blank():
    with pytest.raises(ValidationError, match=r"^generation is empty or whitespace-only$"):
        parse_generation("   \n ")


def test_target_round_trip_500_pairs():
    rng = random.Random(13)
    words = ["cheap", "north", "19:30", "el", "shaddai", "guest", "house", "4", "none"]
    for _ in range(500):
        value = " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
        explanation = (
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
            if rng.random() < 0.8
            else ""
        )
        assert parse_generation(render_target(value, explanation)) == (value, explanation)


# ---------------------------------------------------------------------------
# dataset assembly


def test_build_dataset_cartesian_count_with_inactive():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus, include_inactive=True)
    assert len(examples) == 2 * 3  # 2 turns x 3 slots
    ids = [e.example_id for e in examples]
    assert ids == sorted(ids)
    assert ids[0] == "d1:1:hotel-area"


def test_build_dataset_active_only_by_default():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus)
    assert [e.example_id for e in examples] == [
        "d1:1:hotel-stars",
        "d1:2:hotel-stars",
        "d1:2:restaurant-food",
    ]
    assert all(e.meta.step_count >= 1 for e in examples)


def test_build_dataset_inactive_examples_have_none_target():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus, include_inactive=True)
    by_id = {e.example_id: e for e in examples}
    inactive = by_id["d1:1:hotel-area"]
    assert inactive.target_value == "none"
    assert inactive.explanation == ""
    assert inactive.explanation_kind == "none"
    assert inactive.meta.step_count == 0


def test_build_dataset_no_explanations_flag():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus, include_explanations=False)
    assert all(e.explanation_kind == "none" and e.explanation == "" for e in examples)
    # targets unchanged by the flag
    with_expl = build_all(corpus)
    assert [e.target_value for e in examples] == [e.target_value for e in with_expl]


def test_build_dataset_example_fields_reconstructed_independently():
    for seed in range(60):
        corpus = make_corpus(random.Random(50_000 + seed))
        examples = build_all(corpus, include_inactive=True)
        count = 0
        for d in corpus.dialogues:
            count += d.n_turns * len(corpus.schema.slots)
        assert len(examples) == count
        for example in examples:
            d = next(x for x in corpus.dialogues if x.dialogue_id == example.meta.dialogue_id)
            steps = oracle_chain(
                d, example.meta.slot_id, example.meta.query_turn, DEFAULT_POLICY
            )
            assert example.meta.step_count == len(steps)
            assert example.target_value == (steps[-1][1] if steps else "none")
            assert example.meta.dialogue_turns == d.n_turns
            if example.explanation_kind == "coarse":
                assert example.explanation == coarse_text(d, [t for t, _ in steps])
            else:
                assert example.explanation == ""


def test_build_dataset_scans_each_annotated_slot_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return extract_chain(*args, **kwargs)

    # count calls made through either module's name for the function
    monkeypatch.setattr("slotchain.chains.extract_chain", counting)
    monkeypatch.setattr("slotchain.builder.extract_chain", counting)
    for seed in range(20):
        corpus = make_corpus(random.Random(55_000 + seed))
        calls.clear()
        build_all(corpus, include_inactive=True)
        pairs = sum(
            len({s for turn in d.turns for s in turn.gold_state}) for d in corpus.dialogues
        )
        assert len(calls) <= pairs, (seed, len(calls), pairs)


def test_build_constructs_one_chain_per_annotated_slot(monkeypatch):
    made = []

    def counting(*args, **kwargs):
        made.append(args)
        return SlotChain(*args, **kwargs)

    # count constructions made through either module's name for the class
    monkeypatch.setattr("slotchain.chains.SlotChain", counting)
    monkeypatch.setattr("slotchain.builder.SlotChain", counting, raising=False)
    fixture_schema = load_schema(FIXTURES / "fixture_schema.json")
    corpus = load_corpus([FIXTURES / "fixture_dialogues.json"], fixture_schema)
    pairs = sum(len({s for turn in d.turns for s in turn.gold_state}) for d in corpus.dialogues)
    for include_inactive in (False, True):
        made.clear()
        assert build_all(corpus, include_inactive=include_inactive)
        assert len(made) == pairs, (include_inactive, len(made), pairs)


def test_build_dataset_split_filter(tmp_path, capsys):
    corpus = Corpus(
        schema=schema(),
        dialogues=(
            dialogue(),
            Dialogue("d2", "test", (TurnPair(1, "", "hi", {"hotel-area": "north"}),)),
        ),
    )
    (tmp_path / "corpus.json").write_text(corpus_to_json(corpus), encoding="utf-8")
    slots = [encode(slot) for slot in schema().slots]
    (tmp_path / "schema.json").write_text(json.dumps(slots), encoding="utf-8")
    out = tmp_path / "train.jsonl"
    assert main([
        "build", "--corpus", str(tmp_path / "corpus.json"),
        "--schema", str(tmp_path / "schema.json"), "--split", "train", "--out", str(out),
    ]) == 0
    train_only = tuple(read_examples(out))
    assert {e.meta.dialogue_id for e in train_only} == {"d1"}
    assert train_only == build_all(Corpus(schema=schema(), dialogues=(dialogue(),)))


def test_avg_utterance_len_hand_computed():
    # utterances: "" (0), "find a 3 star hotel" (5),
    # "the lensfield has 3 stars" (5), "make it 4 star and korean food" (7)
    assert avg_utterance_len(dialogue()) == (0 + 5 + 5 + 7) / 4


def test_example_invariants_enforced():
    meta = ExampleMeta("d1", 1, "hotel-stars", 1, 2, 3.0)
    with pytest.raises(ValidationError, match="explanation"):
        CoTExample("e", "in", "5", "", "coarse", meta)
    with pytest.raises(ValidationError, match="explanation"):
        CoTExample("e", "in", "none", "text", "coarse", meta)
    with pytest.raises(ValidationError, match="explanation_kind"):
        CoTExample("e", "in", "5", "", "fancy", meta)
    with pytest.raises(ValidationError, match="target_value"):
        CoTExample("e", "in", "", "", "none", meta)


def test_example_target_text_round_trips():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    for example in build_all(corpus, include_inactive=True):
        value, explanation = parse_generation(
            render_target(example.target_value, example.explanation)
        )
        assert value == example.target_value
        assert explanation == example.explanation


# ---------------------------------------------------------------------------
# JSONL round trip


def test_examples_jsonl_round_trip(tmp_path):
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus, include_inactive=True)
    path = tmp_path / "examples.jsonl"
    path.write_text(examples_to_jsonl(examples), encoding="utf-8")
    assert tuple(read_examples(path)) == examples


def test_examples_jsonl_round_trip_randomized(tmp_path):
    for seed in range(30):
        corpus = make_corpus(random.Random(60_000 + seed))
        examples = build_all(corpus, include_inactive=True)
        path = tmp_path / f"ex{seed}.jsonl"
        path.write_text(examples_to_jsonl(examples), encoding="utf-8")
        assert tuple(read_examples(path)) == examples


def reference_line(example) -> str:
    return json.dumps(encode(example), ensure_ascii=False) + "\n"


# What the JSON string escaper treats apart: quotes, backslashes, control
# characters, U+2028, non-ASCII; and braces, which example_line's f-string
# must not read as its own.
awkward_texts = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u2029{}{{}}éß漢😀\ufeff ab') | st.characters(),
    max_size=12,
)
# avg_utterance_len as the decoder gives it: a finite float or an int
finite_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers()


@FUZZ
@given(example=examples(awkward_texts, finite_numbers))
def test_example_line_writes_json_dumps(example):
    assert example_line(example) == reference_line(example)


@pytest.mark.parametrize("value", [4, 0, -0.0, 1e-07, 1e300, 2.5, 10**30])
def test_example_line_writes_json_dumps_of_each_number_form(value):
    # each form a decoded number takes; an int also fills the int fields
    metas = [ExampleMeta("d1", 2, "hotel-area", 1, 3, value)]
    if type(value) is int:
        metas.append(ExampleMeta("d1", value, "hotel-area", value, value, 4.5))
    for meta in metas:
        example = CoTExample("d1:2:hotel-area", "prompt", "north", "", "none", meta)
        line = example_line(example)
        assert line == reference_line(example)
        assert decode(CoTExample, json.loads(line), "line") == example


def test_read_examples_names_bad_line(tmp_path):
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    examples = build_all(corpus)
    path = tmp_path / "examples.jsonl"
    lines = examples_to_jsonl(examples).splitlines()
    lines[1] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        tuple(read_examples(path))


def test_example_dict_key_order_stable():
    corpus = Corpus(schema=schema(), dialogues=(dialogue(),))
    example = build_all(corpus)[0]
    assert list(encode(example)) == [
        "example_id", "input_text", "target_value",
        "explanation", "explanation_kind", "meta",
    ]
