"""The IO layer: loaders fail only with SlotchainError whatever the file
holds, output writes are atomic, and no other module does its own IO."""

from __future__ import annotations

import ast
import json
import os
import threading
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slotchain import cli
from slotchain.builder import load_question_overrides, load_template, read_examples
from slotchain.corpus import ingest_legacy, load_corpus, load_schema
from slotchain.errors import FormatError, SlotchainError
from slotchain.evaluator import load_bucket_spec, load_predictions, read_report
from slotchain.io import file_or_bundled, read_json, read_jsonl, write_text
from slotchain.normalize import NormalizationPolicy
from slotchain.refiner import RefineConfig, load_refine_config

SRC = Path(__file__).resolve().parents[1] / "src" / "slotchain"
FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = load_schema(FIXTURES / "fixture_schema.json")

# Every loader a CLI option reaches, called on one file.
LOADERS = {
    "schema": load_schema,
    "canonical corpus": lambda path: load_corpus([path], SCHEMA),
    "woz_belief": lambda path: ingest_legacy(path, "woz_belief", SCHEMA, split="train"),
    "m2m_flat": lambda path: ingest_legacy(path, "m2m_flat", SCHEMA, split="train"),
    "sgd_state": lambda path: ingest_legacy(path, "sgd_state", SCHEMA, split="train"),
    "examples": read_examples,
    "predictions": load_predictions,
    "report": read_report,
    "bucket spec": lambda path: load_bucket_spec(str(path)),
    "template": load_template,
    "overrides": lambda path: load_question_overrides(path, SCHEMA),
    "refine config": load_refine_config,
    "policy": lambda path: cli._load_policy_arg(str(path)),
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
    "template": ["template_text", "choices_section_marker"],
    "overrides": [slot.slot_id for slot in SCHEMA.slots],
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
# the layer's functions


def test_read_json_names_the_file_and_the_problem(tmp_path):
    path = tmp_path / "x.json"
    path.write_bytes(b'{"a": "\xe9"}')
    with pytest.raises(FormatError, match=r"x\.json: not UTF-8"):
        read_json(path)
    path.write_text("[1,", encoding="utf-8")
    with pytest.raises(FormatError, match=r"x\.json: not valid JSON"):
        read_json(path)
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


def test_write_text_replaces_the_file_behind_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target.name)
    write_text(link, "new é")
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
    write_text(fifo, "through the pipe")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe"]
    assert fifo.is_fifo()


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
        "from .io import write_text",
        "write_text('x', 'y')",
    ])
    flagged = {int(item.split(":")[0].split()[1]) for item in io_outside_the_layer(source)}
    assert flagged == set(range(1, 10))
