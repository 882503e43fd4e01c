"""The IO layer: loaders fail only with SlotchainError whatever the file
holds, the record codec round-trips every record class and names a
mistyped field, output writes are atomic, and no other module does its
own IO."""

from __future__ import annotations

import ast
import json
import math
import os
import re
import stat
import threading
from dataclasses import fields, make_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slotchain.builder import (
    EXPLANATION_KINDS,
    CoTExample,
    ExampleMeta,
    PromptTemplate,
    load_template,
    read_examples,
)
from slotchain.corpus import Corpus, Dialogue, SlotSchema, TurnPair, load_corpus, load_schema
from slotchain.errors import FormatError, SlotchainError
from slotchain.evaluator import (
    AXES,
    BucketResult,
    EvalReport,
    PredictionRecord,
    bucket_label,
    load_bucket_spec,
    load_predictions,
    read_report,
)
from slotchain import io as io_layer
from slotchain.io import (
    decode,
    encode,
    file_or_bundled,
    read_json,
    read_jsonl,
    write_lines,
)
from slotchain.normalize import NONE_VALUE, NormalizationPolicy
from slotchain.refiner import RefineConfig, load_refine_config

SRC = Path(__file__).resolve().parents[1] / "src" / "slotchain"
FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = load_schema(FIXTURES / "fixture_schema.json")
# The corpus predictions are checked against: VALID_RECORDS' prediction fits it.
CORPUS = Corpus(SCHEMA, (Dialogue("d1", "train", (TurnPair(1, "", "hi"),)),))

# Every loader a CLI option reaches, called on one file.
LOADERS = {
    "schema": load_schema,
    "canonical corpus": lambda path: load_corpus([path], SCHEMA),
    "woz_belief": lambda path: load_corpus([path], SCHEMA, style="woz_belief", split="train"),
    "m2m_flat": lambda path: load_corpus([path], SCHEMA, style="m2m_flat", split="train"),
    "sgd_state": lambda path: load_corpus([path], SCHEMA, style="sgd_state", split="train"),
    "examples": lambda path: tuple(read_examples(path)),
    "predictions": lambda path: load_predictions(path, CORPUS),
    "report": read_report,
    "bucket spec": lambda path: load_bucket_spec(str(path)),
    "template": lambda path: load_template(path, SCHEMA),
    "refine config": load_refine_config,
    "policy": lambda path: decode(NormalizationPolicy, read_json(path, expect=dict), path),
}
JSONL_LOADERS = {"examples", "predictions"}

# The field names each loader looks for, so that generated records get
# past the first checks and reach the deeper ones.
EXAMPLE_FIELDS = [
    "example_id", "input_text", "target_value", "explanation", "explanation_kind", "meta",
    "dialogue_id", "query_turn", "slot_id", "step_count", "dialogue_turns",
    "avg_utterance_len",
]
POLICY_FIELDS = [f.name for f in fields(NormalizationPolicy)]
KEYS = {
    "schema": ["slot_id", "domain", "name", "description", "possible_values"],
    "canonical corpus": ["dialogue_id", "split", "turns", "index", "system", "user", "state"],
    "woz_belief": [
        "dialogue_idx", "dialogue", "belief_state", "act", "slots", "transcript",
        "system_transcript",
    ],
    "m2m_flat": [
        "id", "domain", "turns", "dialogue_state", "slot", "value", "system_utterance",
        "user_utterance", "text",
    ],
    "sgd_state": ["dialogue_id", "turns", "speaker", "utterance", "frames", "state", "slot_values"],
    "examples": EXAMPLE_FIELDS,
    "predictions": ["dialogue_id", "turn", "slot_id", "text"],
    "report": [
        "overall_jga", "n_dialogues", "n_turns", "n_missing_predictions", "policy",
        "buckets", "axis", "label", "lo", "hi", "jga",
    ] + POLICY_FIELDS,
    "bucket spec": ["axis", "edges"],
    "template": ["template_text", "choices_section_marker", "questions"]
    + [slot.slot_id for slot in SCHEMA.slots],
    "refine config": [f.name for f in fields(RefineConfig)],
    "policy": POLICY_FIELDS,
}
WORDS = [
    "train", "dev", "USER", "SYSTEM", "inform", "coarse", "none", "step", "hotel",
    "hotel-area", "hotel-stars", "area", "[History] [Question]", "hi",
]
scalars = (
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=6)
)


def json_values(keys: list[str]) -> st.SearchStrategy:
    # Mostly the loader's own field names, sometimes any text; containers
    # at the top, since a loader rejects a bare scalar at once.
    key = st.sampled_from(keys) | st.sampled_from(keys) | st.text(max_size=4)
    value = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(key, inner, max_size=6),
        max_leaves=20,
    )
    return scalars | st.lists(value, max_size=4) | st.dictionaries(key, value, max_size=6)


def json_text(name: str, value) -> str:
    if name in JSONL_LOADERS:
        rows = value if isinstance(value, list) else [value]
        return "".join(json.dumps(row) + "\n" for row in rows)
    return json.dumps(value)


def damaged(text: str, position: int, junk: bytes) -> bytes:
    data = text.encode("utf-8")
    position %= len(data) + 1
    return data[:position] + junk + data[position:]


VALUES = {name: json_values(keys) for name, keys in KEYS.items()}
DAMAGED = {
    name: st.builds(
        damaged, values.map(json.dumps), st.integers(0), st.binary(min_size=1, max_size=3)
    )
    for name, values in VALUES.items()
}


FUZZ = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def load_only_slotchain_errors(name: str, path: Path) -> None:
    try:
        LOADERS[name](path)
    except SlotchainError:
        pass


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_loader_raises_only_slotchain_errors_on_any_json(tmp_path, name, data):
    path = tmp_path / "input_train.json"
    path.write_text(json_text(name, data.draw(VALUES[name])), encoding="utf-8")
    load_only_slotchain_errors(name, path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_loader_raises_only_slotchain_errors_on_any_bytes(tmp_path, name, data):
    path = tmp_path / "input_train.json"
    path.write_bytes(data.draw(st.binary(max_size=40) | DAMAGED[name]))
    load_only_slotchain_errors(name, path)


# ---------------------------------------------------------------------------
# record codec

VALID_POLICY = {
    "lowercase": True, "collapse_whitespace": True, "strip_punctuation_edges": False,
    "none_aliases": ["none", ""], "dontcare_aliases": ["dontcare"], "fuzzy_ratio_threshold": 0.5,
}
# One well-formed record per loader the codec backs; a canonical corpus
# file holds its record in an array.
VALID_RECORDS = {
    "canonical corpus": {
        "dialogue_id": "d1", "split": "train",
        "turns": [{"index": 1, "system": "", "user": "hi", "state": {"hotel-area": "north"}}],
    },
    "predictions": {"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-area", "text": "north"},
    "examples": {
        "example_id": "d1:2:hotel-area", "input_text": "Dialogue: ...", "target_value": "north",
        "explanation": "system: user: north", "explanation_kind": "coarse",
        "meta": {"dialogue_id": "d1", "query_turn": 2, "slot_id": "hotel-area",
                 "step_count": 1, "dialogue_turns": 3, "avg_utterance_len": 4.5},
    },
    "report": {
        "overall_jga": 0.5, "n_dialogues": 1, "n_turns": 2, "n_missing_predictions": 0,
        "policy": VALID_POLICY,
        "buckets": [
            {"axis": "step", "label": "0", "lo": 0, "hi": 1, "n_turns": 1, "jga": 1.0},
            {"axis": "step", "label": "1+", "lo": 1, "hi": None, "n_turns": 1, "jga": 0.0},
        ],
    },
    "policy": VALID_POLICY,
    "refine config": {
        "endpoint_url": "http://x.invalid/v1", "model_name": "m", "api_key_env_var": "KEY",
        "instruction": "Rewrite.", "demonstrations": [["system: a user: b", "a then b"]],
        "temperature": 0.5, "max_tokens": 16, "max_retries": 1, "backoff_base": 0.5,
        "request_timeout": 2.5, "max_parallel": 2, "cache_dir": "cache", "offline": True,
    },
    "template": {"template_text": "[History] [Question] [Choices]", "choices_section_marker": "C",
                 "questions": {"hotel-area": "Where?"}},
}
NULLABLE = {"hi", "jga", "fuzzy_ratio_threshold"}
# JSON has no NaN or Infinity, so a record that holds one is not valid JSON.
finite_scalars = scalars.filter(lambda value: not isinstance(value, float) or math.isfinite(value))
JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(-5, 5),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=4),
    "array": st.lists(finite_scalars, max_size=2),
    "object": st.dictionaries(st.text(max_size=3), finite_scalars, max_size=2),
}


def json_type(value) -> str:
    if value is None:
        return "null"
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


def leaves(value, path=()):
    """Paths to every value in a record that is not an object."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
        return
    yield path
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, path + (index,))


def value_at(record, path):
    for key in path:
        record = record[key]
    return record


def replaced(value, path, new):
    """A copy of ``value`` with the value at ``path`` swapped for ``new``."""
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@pytest.mark.parametrize("name", sorted(VALID_RECORDS))
@FUZZ
@given(data=st.data())
def test_codec_loader_names_a_mistyped_field(tmp_path, name, data):
    record = VALID_RECORDS[name]
    # A null leaf (the open last hi) has no type of its own to swap away from.
    typed = [path for path in leaves(record) if value_at(record, path) is not None]
    path = data.draw(st.sampled_from(typed))
    field_at = max(i for i, key in enumerate(path) if isinstance(key, str))
    field = path[field_at]
    old = json_type(value_at(record, path))
    others = [t for t in JSON_TYPES if t != old]
    if old == "number":
        others.remove("integer")  # an integer is a number
    if field in NULLABLE:
        others.remove("null")
    new = data.draw(st.sampled_from(others).flatmap(JSON_TYPES.get))
    bad = replaced(record, path, new)
    file = tmp_path / "record_train.json"
    file.write_text(json_text(name, [bad] if name == "canonical corpus" else bad), encoding="utf-8")
    with pytest.raises(FormatError) as caught:
        LOADERS[name](file)
    where = "".join(f"[{key}]" if isinstance(key, int) else f": {key}" for key in path[:field_at])
    assert f"{where}: field {field!r} must be " in str(caught.value)
    assert str(caught.value).startswith(f"{file}: ")


texts = st.text(max_size=8)
words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)  # fixed points of any policy
# A string may not be both a none and a dontcare alias, so the sets are drawn disjoint.
policies = st.frozensets(words, max_size=3).flatmap(lambda none_aliases: st.builds(
    NormalizationPolicy,
    lowercase=st.booleans(),
    collapse_whitespace=st.booleans(),
    strip_punctuation_edges=st.booleans(),
    none_aliases=st.just(none_aliases),
    dontcare_aliases=st.frozensets(words.filter(lambda w: w not in none_aliases), max_size=3),
    fuzzy_ratio_threshold=st.none() | st.floats(0.0, 1.0, exclude_min=True),
))


@st.composite
def examples(draw, text=texts, mean=st.floats(0.0, 50.0)):
    kind = draw(st.sampled_from(EXPLANATION_KINDS))
    target = draw(st.just(NONE_VALUE) | words | text.filter(bool))
    explanation = "" if NONE_VALUE in (kind, target) else draw(text.filter(bool))
    meta = ExampleMeta(
        draw(text), draw(st.integers(1, 30)), draw(text), draw(st.integers(0, 30)),
        draw(st.integers(1, 30)), draw(mean),
    )
    return CoTExample(draw(text), draw(text), target, explanation, kind, meta)


@st.composite
def reports(draw):
    # Each axis splits the turns between [0, edge) and [edge, null), as a
    # report's buckets must, and splits the drawn count of correct turns
    # between them; each jga is a count of correct turns over the turns,
    # and an empty bucket's jga is null. A dialogue has at least one turn.
    n_turns = draw(st.integers(0, 30))
    n_correct = draw(st.integers(0, n_turns))
    buckets = []
    for axis in draw(st.lists(st.sampled_from(AXES), unique=True)):
        first = draw(st.integers(0, n_turns))
        second = n_turns - first
        first_correct = draw(st.integers(max(0, n_correct - second), min(first, n_correct)))
        edge = draw(st.integers(1, 40))
        for (lo, hi), n, correct in zip(
            ((0, edge), (edge, None)), (first, second),
            (first_correct, n_correct - first_correct),
        ):
            jga = correct / n if n else None
            buckets.append(BucketResult(axis, bucket_label(lo, hi), lo, hi, n, jga))
    return EvalReport(
        n_correct / n_turns if n_turns else 0.0, draw(st.integers(0, min(9, n_turns))), n_turns,
        draw(st.integers(0, 99)), draw(policies), tuple(buckets),
    )


def refine_configs(offline: bool):
    required = 0 if offline else 1
    return st.builds(
        RefineConfig,
        endpoint_url=st.text(min_size=required, max_size=8),
        model_name=st.text(min_size=required, max_size=8),
        api_key_env_var=texts,
        instruction=texts,
        demonstrations=st.lists(st.tuples(texts, texts), min_size=required, max_size=3).map(tuple),
        temperature=st.floats(0.0, 2.0),
        max_tokens=st.integers(1, 4096),
        max_retries=st.integers(0, 5),
        backoff_base=st.floats(0.0, 4.0),
        request_timeout=st.floats(0.1, 120.0),
        max_parallel=st.integers(1, 8),
        cache_dir=texts,
        offline=st.just(offline),
    )


no_placeholders = st.text(alphabet=st.characters(blacklist_characters="[]"), max_size=6)
RECORDS = {
    CoTExample: examples(),
    EvalReport: reports(),
    NormalizationPolicy: policies,
    RefineConfig: refine_configs(True) | refine_configs(False),
    TurnPair: st.builds(TurnPair, st.integers(1, 30), texts, texts, st.dictionaries(texts, texts)),
    PredictionRecord: st.builds(PredictionRecord, words, st.integers(1, 30), words, words),
    PromptTemplate: st.builds(
        lambda a, b, choices, marker, questions: PromptTemplate(
            f"{a}[History]{b}[Question]{choices}", marker, questions
        ),
        no_placeholders, no_placeholders, st.sampled_from(["", " [Choices]", "[Domain][Choices]"]),
        texts, st.dictionaries(texts, texts.filter(bool), max_size=3),
    ),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_codec_round_trips_every_record_class(cls, data):
    record = data.draw(RECORDS[cls])
    assert decode(cls, encode(record), "record.json") == record


def test_codec_rejects_an_annotation_it_cannot_handle():
    # Of the object forms, the codec reads dict[str, str] alone.
    for annotation in (list[int], dict[str, int], dict[str, str | None], dict[int, str]):
        Odd = make_dataclass("Odd", [("counts", annotation)], frozen=True)
        with pytest.raises(TypeError, match="cannot handle"):
            encode(Odd([]))


def codec_turn(index, state):
    return {"index": index, "system": "ok" if index > 1 else "", "user": "hi", "state": state}


META = {"dialogue_id": "d1", "query_turn": 2, "slot_id": "hotel-area", "step_count": 1,
        "dialogue_turns": 3, "avg_utterance_len": 4.5}
# Each form the planned decoder treats apart, and each way a nested fault
# reaches the top, with the exact message of its fault.
CODEC_FAULTS = {
    "array of records": (
        EvalReport,
        dict(VALID_RECORDS["report"], buckets=[
            dict(VALID_RECORDS["report"]["buckets"][0], jga="x"),
            VALID_RECORDS["report"]["buckets"][1],
        ]),
        "rec.json: buckets[0]: field 'jga' must be a number or null",
    ),
    "array of arrays": (
        RefineConfig,
        {"offline": True, "demonstrations": [["a", "b"], [1, {"a": 1}]]},
        "rec.json: field 'demonstrations' must be an array of arrays of 2 strings",
    ),
    "nullable array": (
        SlotSchema,
        {"slot_id": "hotel-stars", "domain": "hotel", "name": "stars",
         "description": "star rating", "possible_values": ["1", 2]},
        "rec.json: field 'possible_values' must be an array of strings or null",
    ),
    "object of strings": (
        Dialogue,
        {"dialogue_id": "d1", "split": "train", "turns": [
            codec_turn(1, {}), codec_turn(2, {"hotel-area": "north"}),
            codec_turn(3, {"hotel-area": 2}),
        ]},
        "rec.json: turns[2]: state: field 'hotel-area' must be a string",
    ),
    "unknown field of a record in an array": (
        Dialogue,
        {"dialogue_id": "d1", "split": "train",
         "turns": [codec_turn(1, {}), {"index": 2, "user": "hi", "sytem": "ok"}]},
        "rec.json: turns[1]: unknown fields: ['sytem']",
    ),
    "boolean in an integer field": (
        ExampleMeta, dict(META, query_turn=True), "rec.json: field 'query_turn' must be an integer",
    ),
    "boolean in a float field": (
        ExampleMeta,
        dict(META, avg_utterance_len=False),
        "rec.json: field 'avg_utterance_len' must be a number",
    ),
    "misfit entry before a nested fault in an array": (
        Dialogue,
        {"dialogue_id": "d1", "split": "train",
         "turns": [5, {"index": 2, "user": "hi", "sytem": "ok"}]},
        "rec.json: turns[1]: unknown fields: ['sytem']",
    ),
    "validation error of a nested record": (
        EvalReport,
        dict(VALID_RECORDS["report"], policy=dict(VALID_POLICY, fuzzy_ratio_threshold=2)),
        "rec.json: policy: fuzzy_ratio_threshold must be in (0, 1], got 2",
    ),
    "nested record that is not an object": (
        EvalReport,
        dict(VALID_RECORDS["report"], policy=["lowercase"]),
        "rec.json: field 'policy' must be an object",
    ),
    "top level that is not an object": (
        ExampleMeta, [META], "rec.json: expected a JSON object",
    ),
    "missing field of a nested record": (
        CoTExample,
        dict(VALID_RECORDS["examples"], meta={k: v for k, v in META.items() if k != "slot_id"}),
        "rec.json: meta: missing fields: ['slot_id']",
    ),
}


@pytest.mark.parametrize("case", sorted(CODEC_FAULTS))
def test_codec_words_each_fault_exactly(case):
    cls, data, message = CODEC_FAULTS[case]
    with pytest.raises(FormatError) as caught:
        decode(cls, data, "rec.json")
    assert str(caught.value) == message


def test_codec_keeps_an_integer_in_a_float_field():
    meta = decode(ExampleMeta, dict(META, avg_utterance_len=4), "rec.json")
    assert type(meta.avg_utterance_len) is int and meta.avg_utterance_len == 4
    assert encode(meta) == dict(META, avg_utterance_len=4)


def test_codec_plans_each_class_once():
    # Each class is planned once however many records are decoded.
    for planner in (io_layer._decoder, io_layer._encoder):
        planner.cache_clear()
    records = {
        Dialogue: VALID_RECORDS["canonical corpus"],
        CoTExample: VALID_RECORDS["examples"],
        PredictionRecord: VALID_RECORDS["predictions"],
        EvalReport: VALID_RECORDS["report"],
        SlotSchema: {"slot_id": "hotel-area", "domain": "hotel", "name": "area",
                     "description": "area", "possible_values": ["north", "south"]},
    }
    for _ in range(50):
        for cls, data in records.items():
            record = decode(cls, data, "rec.json")
            assert encode(record) == encode(decode(cls, data, "rec.json"))
    planned = {Dialogue, TurnPair, CoTExample, ExampleMeta, PredictionRecord, EvalReport,
               NormalizationPolicy, BucketResult, SlotSchema}
    assert io_layer._decoder.cache_info().misses == len(planned)
    assert io_layer._encoder.cache_info().misses == len(planned)


# ---------------------------------------------------------------------------
# the layer's functions


def test_read_json_names_the_file_and_the_problem(tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b'{"a": "\xe9"}')
    with pytest.raises(FormatError, match=r"x\.json: not UTF-8"):
        read_json(path, expect=dict)
    path.write_text("[1,", encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: not valid JSON"):
        read_json(path, expect=dict)
    path.write_text('\ufeff{}', encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: not valid JSON: Unexpected UTF-8 BOM"):
        read_json(path, expect=dict)
    path.write_text('{"backoff_base": NaN}', encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: not valid JSON: non-finite number NaN"):
        read_json(path, expect=dict)
    path.write_text('{"backoff_base": 1e999}', encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: not valid JSON: non-finite number 1e999"):
        read_json(path, expect=dict)
    path.write_text("[1]", encoding="utf-8")
    assert read_json(path, expect=list) == [1]
    with pytest.raises(FormatError, match=r"x\.json: expected a JSON object"):
        read_json(path, expect=dict)


def test_read_jsonl_skips_blank_lines_and_names_bad_ones(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \r\n[2]\r\n')
    assert list(read_jsonl(path)) == [
        (1, f"{path}: line 1", {"a": 1}),
        (4, f"{path}: line 4", [2]),
    ]
    path.write_bytes(b'{"a": 1}\n"\xff"\n')
    with pytest.raises(FormatError, match=r"x\.jsonl: line 2: not UTF-8"):
        list(read_jsonl(path))
    path.write_bytes(b'{"a": 1}\n\n{"a": \n')
    with pytest.raises(FormatError, match=r"x\.jsonl: line 3: not valid JSON"):
        list(read_jsonl(path))
    path.write_bytes(b'{"a": 1}\n{"a": -Infinity}\n')
    with pytest.raises(FormatError, match=r"x\.jsonl: line 2: not valid JSON: non-finite number"):
        list(read_jsonl(path))
    path.write_bytes(b'{"a": 1.5}\n{"a": -2E400}\n')
    with pytest.raises(FormatError, match=r"x\.jsonl: line 2: .* non-finite number -2E400"):
        list(read_jsonl(path))


def test_read_accepts_an_escaped_surrogate_pair_and_names_a_lone_half(tmp_path):
    path = tmp_path / "x.json"
    # a pair, and an escaped backslash before text that only looks like an escape
    path.write_text('["\\ud83d\\ude00", "\\\\ud800"]', encoding="utf-8")
    assert read_json(path, expect=list) == ["\U0001f600", "\\ud800"]
    path.write_text('{"a": ["ok", {"b": "\\ude00\\ud83d"}]}', encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: \$\.a\[1\]\.b: a \\u escape makes a lone"):
        read_json(path, expect=dict)
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": "\\ud83d\\ude00"}\n{"a b": "\\uD800"}\n')
    with pytest.raises(FormatError, match=r'x\.jsonl: line 2: \$\["a b"\]: a \\u escape'):
        list(read_jsonl(path))


def test_write_text_replaces_the_file_behind_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    write_lines(link, ("new é",))
    assert link.is_symlink()
    assert target.read_bytes() == "new é".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


def test_write_text_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    write_lines(fifo, ("through the pipe",))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe"]
    assert fifo.is_fifo()


def test_write_lines_keeps_the_old_file_when_the_lines_fail_partway(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old output\n")

    def lines():
        yield "first\n"
        yield "second\n"
        raise FormatError("examples.jsonl: line 3: not valid JSON")

    with pytest.raises(FormatError, match="line 3"):
        write_lines(path, lines())
    assert path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_write_lines_names_its_temporary_file_after_the_target(tmp_path):
    path = tmp_path / "out.jsonl"
    seen = []

    def lines():
        seen.extend(p.name for p in tmp_path.iterdir())
        yield "line\n"

    write_lines(path, lines())
    assert len(seen) == 1 and re.fullmatch(r"\.out\.jsonl\.[0-9a-f]{16}\.tmp", seen[0]), seen
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
    # whole, with the 22 characters a temporary name adds, past 255 bytes
    long_name = "x" * 240 + ".jsonl"
    seen.clear()
    write_lines(tmp_path / long_name, lines())
    temporary = [name for name in seen if name.endswith(".tmp")]
    assert len(temporary) == 1 and temporary[0].startswith("." + "x" * 50 + "."), seen
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.jsonl", long_name])


def test_write_lines_writes_each_line_as_it_comes(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, (f"{i} é\n" for i in range(3)))
    assert path.read_bytes() == "0 é\n1 é\n2 é\n".encode("utf-8")


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
def test_write_lines_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, mode):
    path = tmp_path / "st.txt"
    umask = os.umask(0o022)
    try:
        write_lines(path, "first\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o644  # a new file: 0o666 less the umask
        path.chmod(mode)
        write_lines(path, "second\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"second\n"


def test_write_lines_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    write_lines(fifo, iter(["through ", "the ", "pipe"]))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe"]
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


def test_file_or_bundled_prefers_a_file_and_guards_bundled_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert file_or_bundled("step", "bucket_specs").name == "step.json"
    Path("step").write_text("{}", encoding="utf-8")
    assert file_or_bundled("step", "bucket_specs") == Path("step")
    assert file_or_bundled("../schemas/m2m", "bucket_specs") is None
    assert file_or_bundled("nosuchspec", "bucket_specs") is None


# ---------------------------------------------------------------------------
# the layer stays single

FORBIDDEN_NAMES = {"JSONDecodeError", "open", "tempfile"}
FORBIDDEN_ATTRIBUTES = {"JSONDecodeError", "write_text", "write_bytes", "open", "fdopen"}
FORBIDDEN_MODULES = {"tempfile", "importlib.resources"}


def io_outside_the_layer(source: str) -> list[str]:
    """What in ``source`` reads, locates or writes files itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            found += [
                f"line {node.lineno}: imports {alias.name}"
                for alias in node.names
                if alias.name in FORBIDDEN_NAMES
            ]
        found += [f"line {node.lineno}: imports {m}" for m in modules if m in FORBIDDEN_MODULES]
        if isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_only_the_io_module_does_io():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "io.py" in modules
    found = {
        path.name: io_outside_the_layer(path.read_text(encoding="utf-8"))
        for path in modules
        if path.name != "io.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_io_check_flags_each_forbidden_form():
    source = "\n".join([
        "import tempfile",
        "from importlib import resources",
        "import importlib.resources",
        "from json import JSONDecodeError",
        "json.JSONDecodeError",
        "open('x')",
        "path.open()",
        "os.fdopen(3)",
        "path.write_text('x')",
        "from .io import write_lines",
        "write_lines('x', ['y'])",
    ])
    flagged = {int(item.split(":")[0].split()[1]) for item in io_outside_the_layer(source)}
    assert flagged == set(range(1, 10))
