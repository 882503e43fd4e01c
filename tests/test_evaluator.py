"""Joint goal accuracy, bucketed reports, low-resource sampling, and
report emission, cross-checked against the brute-force oracles."""

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slotchain import cli, evaluator
from slotchain.corpus import Corpus, Dialogue, Schema, SlotSchema, TurnPair
from slotchain.errors import FormatError, ValidationError
from slotchain.evaluator import (
    BucketResult,
    BucketSpec,
    EvalReport,
    bucket_label,
    bucketize,
    fine_grained_report,
    index_predictions,
    load_bucket_spec,
    load_predictions,
    low_resource_sample,
    read_report,
    render_report,
    low_resource_sample as sample_fn,
)
from slotchain.io import decode, encode
from slotchain.normalize import DEFAULT_POLICY, NormalizationPolicy

from gen import make_corpus, make_predictions
from oracles import oracle_jga, oracle_prediction_index

FUZZY_POLICY = NormalizationPolicy(fuzzy_ratio_threshold=0.9)


def to_index(corpus, rows):
    """The prediction index of ``rows``, built and checked as
    load_predictions builds it from a file's lines."""
    return index_predictions(
        corpus, lambda: ((i, f"rows: line {i}", row) for i, row in enumerate(rows, start=1))
    )


def write_rows(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def hand_schema():
    return Schema(
        slots=(
            SlotSchema(
                "hotel-area", "hotel", "area", "area of the hotel",
                ("north", "south", "east", "west", "centre"),
            ),
            SlotSchema(
                "hotel-stars", "hotel", "stars", "star rating of the hotel",
                ("1", "2", "3", "4", "5"),
            ),
            SlotSchema("restaurant-food", "restaurant", "food", "food type", None),
        )
    )


def hand_corpus():
    schema = hand_schema()
    d1 = Dialogue(
        dialogue_id="d1",
        split="test",
        turns=(
            TurnPair(1, "", "a hotel in the north please", {"hotel-area": "north"}),
            TurnPair(
                2, "any stars?", "three stars",
                {"hotel-area": "north", "hotel-stars": "3"},
            ),
            TurnPair(
                3, "done", "actually east side and thai food",
                {"hotel-area": "east", "hotel-stars": "3", "restaurant-food": "thai"},
            ),
        ),
    )
    d2 = Dialogue(
        dialogue_id="d2",
        split="test",
        turns=(
            TurnPair(1, "", "hello", {}),
            TurnPair(2, "yes?", "chinese food", {"restaurant-food": "chinese"}),
            TurnPair(3, "noted", "thanks", {"restaurant-food": "chinese"}),
        ),
    )
    return Corpus(schema=schema, dialogues=(d1, d2))


def perfect_rows(corpus, split=None):
    rows = []
    for dialogue in corpus.only(split).dialogues:
        for turn in dialogue.turns:
            for slot in corpus.schema.slots:
                rows.append(
                    {
                        "dialogue_id": dialogue.dialogue_id,
                        "turn": turn.index,
                        "slot_id": slot.slot_id,
                        "text": turn.gold_state.get(slot.slot_id, "none"),
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# joint goal accuracy


def test_perfect_predictions_score_one():
    corpus = hand_corpus()
    report = fine_grained_report(corpus, to_index(corpus, perfect_rows(corpus)))
    assert report.overall_jga == 1.0
    assert report.n_turns == 6
    assert report.n_dialogues == 2
    assert report.n_missing_predictions == 0


def test_one_wrong_slot_sinks_exactly_one_turn():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    for row in rows:
        if row["dialogue_id"] == "d1" and row["turn"] == 2 and row["slot_id"] == "hotel-stars":
            row["text"] = "4"
    report = fine_grained_report(corpus, to_index(corpus, rows))
    assert report.overall_jga == pytest.approx(5 / 6)


def test_all_none_predictions_fail_every_annotated_turn():
    corpus = hand_corpus()
    d1_only = Corpus(schema=corpus.schema, dialogues=corpus.dialogues[:1])
    rows = perfect_rows(d1_only)
    for row in rows:
        row["text"] = "none"
    report = fine_grained_report(d1_only, to_index(d1_only, rows))
    assert report.overall_jga == 0.0


def test_missing_predictions_default_to_none_and_are_counted():
    corpus = hand_corpus()
    rows = [r for r in perfect_rows(corpus) if r["dialogue_id"] != "d2"]
    report = fine_grained_report(corpus, to_index(corpus, rows))
    assert report.n_missing_predictions == 9
    assert report.overall_jga == pytest.approx(4 / 6)


def test_normalization_applied_before_comparison():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    for row in rows:
        if row["text"] != "none":
            row["text"] = f"  {row['text'].upper()}. "
    report = fine_grained_report(corpus, to_index(corpus, rows))
    assert report.overall_jga == 1.0


def test_explanation_suffix_ignored_for_scoring():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    for row in rows:
        row["text"] = f"{row['text']} | the user asked for it"
    report = fine_grained_report(corpus, to_index(corpus, rows))
    assert report.overall_jga == 1.0


def test_fuzzy_matching_gated_by_policy_and_slot_kind():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    for row in rows:
        if row["text"] == "chinese":
            row["text"] = "chinesse"
    strict = fine_grained_report(corpus, to_index(corpus, rows))
    loose = fine_grained_report(corpus, to_index(corpus, rows), policy=FUZZY_POLICY)
    assert strict.overall_jga == pytest.approx(4 / 6)
    assert loose.overall_jga == 1.0
    for row in rows:
        if row["slot_id"] == "hotel-area" and row["text"] == "north":
            row["text"] = "norrth"
    still_strict_on_categorical = fine_grained_report(corpus, to_index(corpus, rows), policy=FUZZY_POLICY)
    assert still_strict_on_categorical.overall_jga < 1.0


def test_split_filtering_scores_only_that_split():
    corpus = hand_corpus()
    predictions = to_index(corpus, perfect_rows(corpus))
    report = fine_grained_report(corpus.only("test"), predictions)
    assert report.n_turns == 6
    empty = fine_grained_report(corpus.only("train"), predictions)
    assert empty.n_turns == 0
    assert empty.n_dialogues == 0
    assert empty.overall_jga == 0.0


def test_matches_oracle_over_seeded_corpora():
    for seed in range(300):
        rng = random.Random(seed)
        corpus = make_corpus(rng)
        rows = make_predictions(rng, corpus)
        policy = FUZZY_POLICY if seed % 3 == 0 else DEFAULT_POLICY
        split = [None, "train", "dev"][seed % 3]
        expected = oracle_jga(corpus, rows, policy, split=split)
        report = fine_grained_report(corpus.only(split), to_index(corpus, rows), policy=policy)
        assert report.overall_jga == pytest.approx(expected, abs=1e-12), f"seed {seed}"


def test_oracle_agreement_survives_explanation_suffixes():
    for seed in range(60):
        rng = random.Random(10_000 + seed)
        corpus = make_corpus(rng)
        rows = make_predictions(rng, corpus)
        suffixed = [dict(r, text=r["text"] + " | so the value stands") for r in rows]
        expected = oracle_jga(corpus, rows, DEFAULT_POLICY)
        report = fine_grained_report(corpus, to_index(corpus, suffixed))
        assert report.overall_jga == pytest.approx(expected, abs=1e-12), f"seed {seed}"


def test_extra_corruption_never_raises_jga():
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        corpus = make_corpus(rng)
        rows = perfect_rows(corpus)
        previous = fine_grained_report(corpus, to_index(corpus, rows)).overall_jga
        assert previous == 1.0
        order = list(range(len(rows)))
        rng.shuffle(order)
        for position in order[:5]:
            rows[position]["text"] = "definitely wrong value"
            current = fine_grained_report(corpus, to_index(corpus, rows)).overall_jga
            assert current <= previous + 1e-12
            previous = current


# ---------------------------------------------------------------------------
# prediction validation


def test_duplicate_prediction_rejected():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    with pytest.raises(
        ValidationError, match=r"^rows: line 19: duplicates line 1 \('d1', 1, 'hotel-area'\)$"
    ):
        fine_grained_report(corpus, to_index(corpus, rows + rows[:1]))


def test_unknown_dialogue_rejected():
    corpus = hand_corpus()
    rows = [{"dialogue_id": "ghost", "turn": 1, "slot_id": "hotel-area", "text": "north"}]
    with pytest.raises(
        ValidationError, match=r"^rows: line 1: prediction names unknown dialogue 'ghost'$"
    ):
        fine_grained_report(corpus, to_index(corpus, rows))


def test_unknown_slot_rejected():
    corpus = hand_corpus()
    rows = [{"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-parking", "text": "yes"}]
    with pytest.raises(
        ValidationError, match=r"^rows: line 1: prediction names unknown slot 'hotel-parking'$"
    ):
        fine_grained_report(corpus, to_index(corpus, rows))


def test_out_of_range_turn_rejected():
    corpus = hand_corpus()
    rows = [{"dialogue_id": "d1", "turn": 4, "slot_id": "hotel-area", "text": "north"}]
    with pytest.raises(
        ValidationError,
        match=r"^rows: line 1: prediction turn 4 outside dialogue 'd1' with 3 turns$",
    ):
        fine_grained_report(corpus, to_index(corpus, rows))


def test_predictions_for_other_splits_are_ignored_not_errors():
    corpus = hand_corpus()
    report = fine_grained_report(corpus.only("train"), to_index(corpus, perfect_rows(corpus)))
    assert report.n_turns == 0


def test_load_predictions_round_trip(tmp_path):
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    path = tmp_path / "predictions.jsonl"
    write_rows(path, rows)
    assert load_predictions(path, corpus) == to_index(corpus, rows)


def test_load_predictions_skips_blank_lines(tmp_path):
    path = tmp_path / "predictions.jsonl"
    path.write_text(
        '{"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n'
        "\n"
        '{"dialogue_id": "d1", "turn": 2, "slot_id": "hotel-area", "text": "north"}\n',
        encoding="utf-8",
    )
    assert len(load_predictions(path, hand_corpus())) == 2


def test_load_predictions_names_the_bad_line(tmp_path):
    path = tmp_path / "predictions.jsonl"
    path.write_text(
        '{"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n'
        "{broken json\n",
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match="line 2"):
        load_predictions(path, hand_corpus())


# (row, what the error says after "<file>: line 1: "), as PredictionRecord words it
MALFORMED_ROWS = [
    ({"turn": 1, "slot_id": "hotel-area", "text": "north"},
     r"missing fields: \['dialogue_id'\]"),
    ({"dialogue_id": "d1", "turn": "1", "slot_id": "hotel-area", "text": "north"},
     r"field 'turn' must be an integer"),
    ({"dialogue_id": "d1", "turn": True, "slot_id": "hotel-area", "text": "north"},
     r"field 'turn' must be an integer"),
    ({"dialogue_id": "d1", "turn": 1, "text": "north"},
     r"missing fields: \['slot_id'\]"),
    ({"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "  "},
     r"field 'text' must not be blank"),
    ({"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area"},
     r"missing fields: \['text'\]"),
    ({"dialogue_id": "", "turn": 1, "slot_id": "hotel-area", "text": "north"},
     r"field 'dialogue_id' must not be empty"),
    ({"dialogue_id": "d1", "turn": 1, "slot_id": "", "text": "north"},
     r"field 'slot_id' must not be empty"),
    ({"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north", "score": 1},
     r"unknown fields: \['score'\]"),
    ({"dialogue_id": "d1", "turn": 1.0, "slot_id": "hotel-area", "text": "north"},
     r"field 'turn' must be an integer"),
    ({"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": None},
     r"field 'text' must be a string"),
    ([], r"expected a JSON object"),
    ("row", r"expected a JSON object"),
    (None, r"expected a JSON object"),
]


@pytest.mark.parametrize(
    "row, message", MALFORMED_ROWS, ids=[f"row{i}" for i in range(len(MALFORMED_ROWS))]
)
def test_load_predictions_rejects_malformed_rows(tmp_path, row, message):
    path = tmp_path / "predictions.jsonl"
    write_rows(path, [row])
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: line 1: {message}$"):
        load_predictions(path, hand_corpus())


def test_load_predictions_reads_a_row_whose_keys_come_in_another_order(tmp_path):
    path = tmp_path / "predictions.jsonl"
    write_rows(path, [
        {"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north"},
        {"text": "3 | said so", "slot_id": "hotel-stars", "turn": 2, "dialogue_id": "d1"},
    ])
    assert load_predictions(path, hand_corpus()) == {
        ("d1", 1, "hotel-area"): "north",
        ("d1", 2, "hotel-stars"): "3",
    }


def _mutated(rng, rows, corpus):
    """``rows`` with one row, at a random line, broken or moved out of
    the corpus in one of the ways a predictions file can be."""
    rows = [dict(row) for row in rows]
    line = rng.randrange(len(rows))
    row = rows[line]
    kind = rng.choice([
        "drop key", "add key", "retype", "empty id", "blank text", "repeat",
        "other dialogue", "other slot", "turn outside", "not an object",
    ])
    if kind == "drop key":
        del row[rng.choice(sorted(row))]
    elif kind == "add key":
        row[rng.choice(["score", "turns", "Text"])] = rng.choice([1, "x", None])
    elif kind == "retype":
        row[rng.choice(sorted(row))] = rng.choice([None, True, False, 1, 1.0, 0, "1", "", [], {}])
    elif kind == "empty id":
        row[rng.choice(["dialogue_id", "slot_id"])] = ""
    elif kind == "blank text":
        row["text"] = rng.choice(["", " ", "\t\n", "\u3000"])
    elif kind == "repeat":
        rows.insert(rng.randrange(line + 1, len(rows) + 1), dict(row))
    elif kind == "other dialogue":
        row["dialogue_id"] = rng.choice(["ghost", "GEN000", row["dialogue_id"] + " "])
    elif kind == "other slot":
        row["slot_id"] = rng.choice(["nope-slot", row["slot_id"].upper()])
    elif kind == "turn outside":
        n_turns = next(d for d in corpus.dialogues if d.dialogue_id == row["dialogue_id"]).n_turns
        row["turn"] = rng.choice([0, -1, n_turns + 1, 10**20])
    else:
        rows[line] = rng.choice([[], "row", None, 7, [row]])
    return rows


def _outcome(build, corpus, rows):
    try:
        return build(corpus, rows)
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(20))
def test_prediction_index_matches_the_decoding_oracle(seed):
    rng = random.Random(seed)
    corpus = make_corpus(rng)
    rows = make_predictions(rng, corpus)
    assert rows
    assert to_index(corpus, rows) == oracle_prediction_index(corpus, rows)
    mutated = _mutated(rng, rows, corpus)
    assert _outcome(to_index, corpus, mutated) == _outcome(
        oracle_prediction_index, corpus, mutated
    )


def test_load_predictions_rejects_duplicates_naming_both_lines(tmp_path):
    path = tmp_path / "predictions.jsonl"
    row = {"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north"}
    write_rows(path, [row, row])
    with pytest.raises(
        ValidationError, match=r": line 2: duplicates line 1 \('d1', 1, 'hotel-area'\)$"
    ):
        load_predictions(path, hand_corpus())


# ---------------------------------------------------------------------------
# buckets


def test_bucket_labels():
    assert bucket_label(20, None) == "20+"
    assert bucket_label(1, 2) == "1"
    assert bucket_label(10, 15) == "10-14"
    assert bucket_label(0, 12) == "0-11"


def labels(spec, positions):
    """The label of the range at each of ``positions`` in ``spec.edges``."""
    return [bucket_label(*spec.edges[position]) for position in positions]


def test_bucket_spec_validation():
    with pytest.raises(ValidationError, match="axis"):
        BucketSpec(axis="words", edges=((0, None),))
    with pytest.raises(ValidationError, match="at least one"):
        BucketSpec(axis="step", edges=())
    with pytest.raises(ValidationError, match="start at 0"):
        BucketSpec(axis="step", edges=((1, None),))
    with pytest.raises(ValidationError, match="open-ended"):
        BucketSpec(axis="step", edges=((0, 5),))
    with pytest.raises(ValidationError, match="only the final"):
        BucketSpec(axis="step", edges=((0, None), (5, None)))
    with pytest.raises(ValidationError, match="contiguous"):
        BucketSpec(axis="step", edges=((0, 5), (6, None)))
    with pytest.raises(ValidationError, match="contiguous"):
        BucketSpec(axis="step", edges=((0, 5), (4, None)))
    with pytest.raises(ValidationError, match="empty range"):
        BucketSpec(axis="step", edges=((0, 0), (0, None)))


def test_every_non_negative_value_lands_in_exactly_one_bucket():
    spec = BucketSpec(axis="turn", edges=((0, 10), (10, 15), (15, 20), (20, None)))
    for value in [0, 1, 9, 9.9, 10, 14.5, 15, 19, 20, 21, 250, 0.0]:
        homes = [
            position for position, (lo, hi) in enumerate(spec.edges)
            if lo <= value and (hi is None or value < hi)
        ]
        assert homes == [spec.position(value)], value


@pytest.mark.parametrize(
    "name, labels",
    [
        ("step", ["0", "1", "2", "3+"]),
        ("mwz_turn", ["0-9", "10-14", "15-19", "20+"]),
        ("mwz_len", ["0-11", "12-14", "15+"]),
        ("m2m_len", ["0-7", "8-9", "10+"]),
        ("woz_turn", ["0-5", "6-7", "8-9", "10+"]),
        ("woz_len", ["0-5", "6-7", "8+"]),
    ],
)
def test_bundled_specs_load(name, labels):
    spec = load_bucket_spec(name)
    assert [bucket_label(lo, hi) for lo, hi in spec.edges] == labels


def test_bucket_spec_loads_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"axis": "len", "edges": [[0, 8], [8, None]]}), encoding="utf-8"
    )
    spec = load_bucket_spec(path)
    assert spec.axis == "len"
    assert [bucket_label(lo, hi) for lo, hi in spec.edges] == ["0-7", "8+"]


def test_bucket_spec_unknown_name_rejected():
    with pytest.raises(FormatError, match="neither a file nor a bundled"):
        load_bucket_spec("never_heard_of_it")


EDGES_MISFIT = "field 'edges' must be an array of arrays of 2 integers or null"


def test_bucket_spec_malformed_file_rejected(tmp_path):
    path = tmp_path / "spec.json"
    for spec, message in (
        ('{"axis": "len", "edges": [[0]]}', EDGES_MISFIT),
        ('{"axis": 1, "edges": [[0, null]]}', "field 'axis' must be a string"),
        ('{"axis": "len"}', "missing fields: ['edges']"),
        ('{"axis": "len", "edges": [[0, true]]}', EDGES_MISFIT),
        ('{"axis": "len", "edges": [[0, 1.5], [1.5, null]]}', EDGES_MISFIT),
        ('{"axis": "len", "edges": {"0": null}}', EDGES_MISFIT),
        ('{"axis": "len", "edges": [[1, null]]}', "first range must start at 0"),
        ('{"axis": "len", "edges": [[null, null]]}', "first range must start at 0"),
        (
            '{"axis": "len", "edges": [[0, 2], [null, null]]}',
            "ranges must be contiguous: [0, 2) then lo=null",
        ),
        ('{"axis": "len", "edges": [[0, null]], "note": "x"}', "unknown fields: ['note']"),
    ):
        path.write_text(spec, encoding="utf-8")
        with pytest.raises(FormatError) as caught:
            load_bucket_spec(path)
        assert str(caught.value) == f"{path}: {message}"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_bucket_spec(path)


def long_dialogue(n_turns, split="test"):
    turns = tuple(
        TurnPair(i, "ok then" if i > 1 else "", "hi there", {})
        for i in range(1, n_turns + 1)
    )
    return Dialogue(dialogue_id=f"long{n_turns}", turns=turns, split=split)


def test_bucketize_turn_axis_uses_dialogue_length():
    spec = load_bucket_spec("mwz_turn")
    assignment = bucketize(long_dialogue(21), spec)
    assert assignment == [3] * 21
    assert set(labels(spec, assignment)) == {"20+"}


def test_bucketize_len_axis_uses_average_utterance_tokens():
    thirteen = " ".join(["w"] * 13)
    fourteen = " ".join(["w"] * 14)
    dialogue = Dialogue(
        dialogue_id="d1",
        split="test",
        turns=(TurnPair(1, thirteen, fourteen, {}),),
    )
    spec = load_bucket_spec("mwz_len")
    assignment = bucketize(dialogue, spec)
    assert assignment == [1]
    assert labels(spec, assignment) == ["12-14"]


def test_bucketize_step_axis_uses_busiest_slot():
    dialogue = Dialogue(
        dialogue_id="d1",
        split="test",
        turns=(
            TurnPair(1, "", "three stars in the north", {"hotel-area": "north", "hotel-stars": "3"}),
            TurnPair(2, "sure", "make it four stars", {"hotel-area": "north", "hotel-stars": "4"}),
        ),
    )
    spec = load_bucket_spec("step")
    assignment = bucketize(dialogue, spec)
    assert assignment == [1, 2]
    assert labels(spec, assignment) == ["1", "2"]


def test_bucketize_covers_every_evaluated_turn():
    for seed in range(50):
        rng = random.Random(30_000 + seed)
        corpus = make_corpus(rng)
        for name in ("step", "mwz_turn", "mwz_len"):
            spec = load_bucket_spec(name)
            for dialogue in corpus.dialogues:
                assignment = bucketize(dialogue, spec)
                assert len(assignment) == dialogue.n_turns
                assert set(assignment) <= set(range(len(spec.edges)))


# ---------------------------------------------------------------------------
# fine-grained reports


def all_specs():
    return [load_bucket_spec(n) for n in ("step", "mwz_turn", "mwz_len")]


def test_bucket_jga_weighted_mean_equals_overall():
    for seed in range(100):
        rng = random.Random(40_000 + seed)
        corpus = make_corpus(rng)
        rows = make_predictions(rng, corpus)
        report = fine_grained_report(corpus, to_index(corpus, rows), specs=all_specs())
        for axis in ("step", "turn", "len"):
            rows_for_axis = [b for b in report.buckets if b.axis == axis]
            assert sum(b.n_turns for b in rows_for_axis) == report.n_turns
            if report.n_turns:
                weighted = sum(b.jga * b.n_turns for b in rows_for_axis if b.n_turns)
                assert weighted / report.n_turns == pytest.approx(
                    report.overall_jga, abs=1e-12
                ), f"seed {seed} axis {axis}"


def test_empty_bucket_reports_undefined_not_zero():
    corpus = hand_corpus()
    predictions = to_index(corpus, perfect_rows(corpus))
    report = fine_grained_report(corpus, predictions, specs=[load_bucket_spec("mwz_turn")])
    by_label = {b.label: b for b in report.buckets}
    assert by_label["0-9"].n_turns == 6
    assert by_label["0-9"].jga == 1.0
    for label in ("10-14", "15-19", "20+"):
        assert by_label[label].n_turns == 0
        assert by_label[label].jga is None


def test_report_without_specs_has_no_buckets():
    corpus = hand_corpus()
    report = fine_grained_report(corpus, to_index(corpus, perfect_rows(corpus)))
    assert report.buckets == ()


def test_eval_report_validation():
    with pytest.raises(ValidationError, match="outside"):
        EvalReport(
            overall_jga=1.2, n_dialogues=1, n_turns=1,
            n_missing_predictions=0, policy=DEFAULT_POLICY,
        )
    with pytest.raises(ValidationError, match="cover"):
        EvalReport(
            overall_jga=1.0, n_dialogues=1, n_turns=2,
            n_missing_predictions=0, policy=DEFAULT_POLICY,
            buckets=(BucketResult("step", "0+", 0, None, 1, 1.0),),
        )


def test_eval_report_counts_correct_turns_within_1e_6():
    # The messages of each report rule are pinned by the CLI's
    # MALFORMED_INPUTS; here, how close to a whole count a jga must come.
    def report(overall_jga, n_turns, *buckets):
        rows = tuple(
            BucketResult("step", label, lo, hi, n, jga)
            for label, lo, hi, (n, jga) in zip(("0", "1+"), (0, 1), (1, None), buckets)
        )
        return EvalReport(overall_jga, 1, n_turns, 0, DEFAULT_POLICY, rows)

    report(1 / 3, 6, (3, 2 / 3), (3, 0.0))  # 2/3 of 3 turns is 2 up to rounding
    report(0.5, 2, (1, 1.0 - 1e-7), (1, 0.0))
    with pytest.raises(ValidationError) as caught:
        report(0.5, 2, (1, 1.0 - 1e-5), (1, 0.0))
    assert str(caught.value) == (
        "buckets[0]: jga 0.99999 of 1 turns is not a whole number of correct turns"
    )


SHORT_AXES = """
from slotchain.errors import ValidationError
from slotchain.evaluator import BucketResult, EvalReport
from slotchain.normalize import DEFAULT_POLICY
try:
    EvalReport(1.0, 1, 2, 0, DEFAULT_POLICY, (
        BucketResult("step", "0+", 0, None, 1, 1.0), BucketResult("turn", "0+", 0, None, 1, 1.0),
    ))
except ValidationError as exc:
    print(exc)
"""


def test_eval_report_names_the_first_short_axis_whatever_the_hash_seed():
    messages = {
        subprocess.run(
            [sys.executable, "-c", SHORT_AXES], env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "3")
    }
    assert messages == {"axis 'step' buckets cover 1 turns of 2\n"}


# ---------------------------------------------------------------------------
# low-resource sampling


def tiny_corpus(n_train, n_dev=2, n_test=2):
    schema = hand_schema()
    dialogues = []
    for split, count in (("train", n_train), ("dev", n_dev), ("test", n_test)):
        for i in range(count):
            dialogues.append(
                Dialogue(
                    dialogue_id=f"{split}{i:04d}",
                    split=split,
                    turns=(TurnPair(1, "", "hello there", {}),),
                )
            )
    return Corpus(schema=schema, dialogues=tuple(dialogues))


def test_sample_is_deterministic_for_a_seed():
    corpus = tiny_corpus(40)
    a = low_resource_sample(corpus, 0.25, seed=13)
    b = low_resource_sample(corpus, 0.25, seed=13)
    assert [d.dialogue_id for d in a.dialogues] == [d.dialogue_id for d in b.dialogues]
    c = low_resource_sample(corpus, 0.25, seed=14)
    assert [d.dialogue_id for d in a.dialogues] != [d.dialogue_id for d in c.dialogues]


@pytest.mark.parametrize(
    "n_train, fraction, expected",
    [(600, 0.01, 6), (10, 0.5, 5), (10, 1.0, 10), (10, 0.01, 1), (7, 0.3, 3), (6, 0.05, 1),
     (100, 0.07, 7), (100, 0.55, 55), (200, 0.14, 28)],
)
def test_sample_keeps_ceil_of_fraction(n_train, fraction, expected):
    corpus = tiny_corpus(n_train)
    sampled = low_resource_sample(corpus, fraction, seed=13)
    assert sampled.split_counts().get("train", 0) == expected
    assert math.ceil(Fraction(repr(fraction)) * n_train) == expected


def test_sample_leaves_dev_and_test_untouched():
    corpus = tiny_corpus(30, n_dev=4, n_test=5)
    sampled = low_resource_sample(corpus, 0.1, seed=13)
    assert [d.dialogue_id for d in sampled.only("dev").dialogues] == [
        d.dialogue_id for d in corpus.only("dev").dialogues
    ]
    assert [d.dialogue_id for d in sampled.only("test").dialogues] == [
        d.dialogue_id for d in corpus.only("test").dialogues
    ]


def test_sample_keeps_whole_dialogues_in_original_order():
    rng = random.Random(7)
    corpus = make_corpus(rng, max_dialogues=10, split="train")
    sampled = low_resource_sample(corpus, 0.5, seed=13)
    by_id = {d.dialogue_id: d for d in corpus.dialogues}
    kept_ids = [d.dialogue_id for d in sampled.dialogues]
    original_order = [d.dialogue_id for d in corpus.dialogues if d.dialogue_id in set(kept_ids)]
    assert kept_ids == original_order
    for dialogue in sampled.dialogues:
        assert dialogue == by_id[dialogue.dialogue_id]


def test_sample_fraction_bounds():
    corpus = tiny_corpus(10)
    for fraction in (0.0, -0.1, 1.0001, 2.0):
        with pytest.raises(
            ValidationError, match=rf"^fraction must be in \(0, 1\], got {fraction}$"
        ):
            low_resource_sample(corpus, fraction, seed=13)
    low_resource_sample(corpus, 1.0, seed=13)


def test_sample_requires_train_dialogues():
    corpus = tiny_corpus(0)
    with pytest.raises(ValidationError, match="train"):
        low_resource_sample(corpus, 0.5, seed=13)


def test_sample_preserves_schema_and_name():
    corpus = tiny_corpus(10)
    sampled = sample_fn(corpus, 0.2, seed=13)
    assert sampled.schema == corpus.schema


# ---------------------------------------------------------------------------
# report emission


def full_report():
    corpus = hand_corpus()
    rows = perfect_rows(corpus)
    for row in rows:
        if row["dialogue_id"] == "d1" and row["turn"] == 2 and row["slot_id"] == "hotel-stars":
            row["text"] = "4"
    return fine_grained_report(
        corpus, to_index(corpus, rows), policy=FUZZY_POLICY, specs=all_specs()
    )


def test_report_dict_round_trip():
    report = full_report()
    assert decode(EvalReport, encode(report), "report.json") == report


def test_report_json_file_round_trip(tmp_path):
    report = full_report()
    path = tmp_path / "report.json"
    path.write_text(render_report(report, "json"), encoding="utf-8")
    assert read_report(path) == report


def test_csv_has_one_overall_row_plus_one_per_bucket():
    report = full_report()
    lines = render_report(report, "csv").strip().split("\n")
    assert lines[0] == "axis,bucket,n_turns,jga"
    assert lines[1] == f"overall,all,6,{report.overall_jga:.4f}"
    assert len(lines) == 2 + len(report.buckets)


def test_markdown_has_one_table_per_axis_and_na_for_empty_buckets():
    report = full_report()
    text = render_report(report, "markdown")
    assert text.count("| bucket | turns | JGA |") == 3
    assert "## step" in text and "## turn" in text and "## len" in text
    assert "| 20+ | 0 | n/a |" in text
    assert f"overall JGA: {report.overall_jga:.4f}" in text


def test_markdown_without_buckets_has_no_tables():
    corpus = hand_corpus()
    report = fine_grained_report(corpus, to_index(corpus, perfect_rows(corpus)))
    text = render_report(report, "markdown")
    assert "| bucket" not in text
    assert "overall JGA: 1.0000" in text


def test_json_report_is_stable_bytes():
    report = full_report()
    assert render_report(report, "json") == render_report(report, "json")


def test_unknown_report_format_rejected():
    with pytest.raises(ValidationError, match="format"):
        render_report(full_report(), "yaml")


def test_read_report_rejects_malformed_files(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError):
        read_report(path)
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_report(path)


def test_report_preserves_policy_through_serialization(tmp_path):
    report = full_report()
    path = tmp_path / "report.json"
    path.write_text(render_report(report, "json"), encoding="utf-8")
    assert read_report(path).policy == FUZZY_POLICY


def test_report_compares_each_distinct_value_pair_once(monkeypatch, tmp_path):
    # The policy is fixed for a run, so a (predicted, gold, categorical)
    # triple that came up before has the same answer.
    fixtures = Path(__file__).parent / "fixtures"
    compared = []
    original = evaluator.values_match

    def recording(predicted, gold, policy, *, categorical):
        compared.append((predicted, gold, categorical))
        return original(predicted, gold, policy, categorical=categorical)

    monkeypatch.setattr(evaluator, "values_match", recording)
    code = cli.main([
        "eval", "--corpus", str(fixtures / "fixture_dialogues.json"),
        "--schema", str(fixtures / "fixture_schema.json"),
        "--predictions", str(fixtures / "predictions.jsonl"),
        "--buckets", "step", "mwz_turn", "mwz_len", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0
    assert compared and len(compared) == len(set(compared))
