"""Command-line behaviour: exit codes, stream discipline, determinism,
and that no subcommand rewrites its inputs."""

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import slotchain
from slotchain.builder import build_dataset, examples_to_jsonl, read_examples
from slotchain.chains import step_histogram
from slotchain.cli import main
from slotchain.errors import ValidationError
from slotchain.refiner import refine_batch
from slotchain.corpus import Corpus, corpus_to_json, load_corpus, load_schema

from gen import make_dialogue
from test_refiner import DEMOS, KEY_VAR, MockCompletionServer, make_example, with_explanation

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = str(FIXTURES / "fixture_schema.json")
DIALOGUES = str(FIXTURES / "fixture_dialogues.json")
PREDICTIONS = str(FIXTURES / "predictions.jsonl")
CORRUPT_PREDICTIONS = str(FIXTURES / "predictions_corrupt_line7.jsonl")
OVERRIDES = str(FIXTURES / "question_overrides.json")


def fixture_corpus():
    return load_corpus([DIALOGUES], load_schema(SCHEMA))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# plumbing


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "slotchain 0.1.0"


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err


def test_missing_required_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "stats", "--schema", SCHEMA)
    assert code == 2


def test_unknown_flag_is_a_usage_error(capsys):
    code, out, err = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA, "--wat")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--name", "x"],
    ["validate", "--corpus", DIALOGUES, "--schema", SCHEMA, "--seed", "1"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_bad_max_parallel_names_the_flag(capsys):
    code, out, err = run(
        capsys, "refine", "--examples", PREDICTIONS, "--offline", "--max-parallel", "0"
    )
    assert code == 2
    assert "argument --max-parallel: must be an integer >= 1, got '0'" in err
    assert "refine_config.json" not in err


def test_console_script_is_installed(tmp_path):
    """The console script declared in pyproject.toml, run as its own
    command, prints the version and exits 0, and passes main's exit code on
    as its own. The suite runs from the source tree without installing, so
    the wrapper an installer would generate for the entry point is written
    here and put first on PATH."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    module, attr = pyproject["project"]["scripts"]["slotchain"].split(":")
    script = tmp_path / "slotchain"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    src = str(Path(slotchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_script(*argv):
        return subprocess.run(
            ["slotchain", *argv],
            capture_output=True,
            text=True,
            check=False,
            cwd=tmp_path,
            env=env,
        )

    result = run_script("--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "slotchain 0.1.0"
    # --version exits 0 even if main's return value were dropped; a usage
    # error shows that the script's exit status is main's.
    result = run_script("frobnicate")
    assert result.returncode == 2, result.stderr


@pytest.mark.skipif(
    shutil.which("slotchain") is None, reason="slotchain console script not on PATH"
)
def test_installed_console_script_on_path():
    result = subprocess.run(
        ["slotchain", "--version"], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "slotchain 0.1.0"


def test_importing_the_cli_loads_no_http_client_and_refine_needs_no_requests(tmp_path):
    # Only an online refine sends requests; every other run skips the
    # HTTP client and the thread pool, and none needs `requests`.
    probe = "import sys, slotchain.cli; print(sorted(m for m in {} if m in sys.modules))"
    loaded = ("requests", "urllib.request", "concurrent.futures")
    result = subprocess.run(
        [sys.executable, "-c", probe.format(loaded)], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"

    examples_path = tmp_path / "examples.jsonl"
    examples_path.write_text(examples_to_jsonl((make_example(0),)), encoding="utf-8")
    server = MockCompletionServer().start()
    try:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "endpoint_url": server.url, "model_name": "test-model", "api_key_env_var": KEY_VAR,
            "demonstrations": [list(pair) for pair in DEMOS], "max_retries": 0,
        }), encoding="utf-8")
        argv = ["refine", "--examples", str(examples_path), "--config", str(config_path),
                "--out", str(tmp_path / "refined.jsonl")]
        script = ("import sys; sys.modules['requests'] = None\n"
                  "from slotchain.cli import main\n"
                  f"sys.exit(main({argv!r}))\n")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=False,
            env={**os.environ, KEY_VAR: "sekrit-key"},
        )
    finally:
        server.stop()
    assert result.returncode == 0, result.stderr
    assert server.n_requests == 1
    refined = json.loads((tmp_path / "refined.jsonl").read_text(encoding="utf-8"))
    assert refined["explanation_kind"] == "refined"


def test_missing_input_file_exits_one(capsys):
    code, out, err = run(capsys, "stats", "--corpus", "no/such/file.json", "--schema", SCHEMA)
    assert code == 1
    assert "error:" in err


def test_bad_schema_name_exits_one(capsys):
    code, out, err = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", "nonesuch")
    assert code == 1
    assert "neither a schema file nor a bundled schema name" in err


# ---------------------------------------------------------------------------
# ingest / validate


def test_ingest_canonical_passes_through(capsys):
    code, out, err = run(
        capsys, "ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--style", "canonical"
    )
    assert code == 0
    assert out == corpus_to_json(fixture_corpus())
    assert "ingested dialogues: train=5 dev=1 test=2 (total 8)" in err


def test_ingest_writes_out_file_identical_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "corpus.json"
    code, out, err = run(
        capsys, "ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text(encoding="utf-8") == corpus_to_json(fixture_corpus())


def test_ingest_legacy_woz_belief(capsys, tmp_path):
    raw = [
        {
            "dialogue_idx": 1,
            "dialogue": [
                {
                    "system_transcript": "",
                    "transcript": "cheap food please",
                    "belief_state": [
                        {"slots": [["pricerange", "cheap"]], "act": "inform"}
                    ],
                }
            ],
        }
    ]
    source = tmp_path / "woz_train_en.json"
    source.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--input", str(source), "--schema", "woz20", "--style", "woz_belief"
    )
    assert code == 0
    assert "train=1 dev=0 test=0" in err
    parsed = json.loads(out)
    assert parsed[0]["turns"][0]["state"] == {"restaurant-pricerange": "cheap"}


def test_ingest_names_the_later_file_of_a_repeated_dialogue_id(tmp_path):
    raw = json.dumps([{"dialogue_idx": 1, "dialogue": [{"transcript": "hi"}]}])
    first, second = tmp_path / "a_train.json", tmp_path / "b_train.json"
    first.write_text(raw, encoding="utf-8")
    second.write_text(raw, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "slotchain.cli", "ingest", "--style", "woz_belief",
         "--schema", "woz20", "--input", str(first), str(second)],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 1
    assert result.stderr == f"error: {second}: duplicate dialogue_id '1'\n"


def test_validate_happy_path(capsys):
    code, out, err = run(capsys, "validate", "--corpus", DIALOGUES, "--schema", SCHEMA)
    assert code == 0
    assert "corpus is valid" in err
    summary = json.loads(out)
    assert summary["dialogues"] == 8
    assert summary["turns"] == 21
    assert summary["splits"] == {"dev": 1, "test": 2, "train": 5}
    assert summary["slots"] == 5


def test_validate_rejects_broken_corpus(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            [
                {
                    "dialogue_id": "d1",
                    "split": "train",
                    "turns": [
                        {"index": 1, "system": "", "user": "hi", "state": {"no-such": "x"}}
                    ],
                }
            ]
        ),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", "--corpus", str(bad), "--schema", SCHEMA)
    assert code == 1
    assert "no-such" in err


def one_turn_corpus(state):
    return [{"dialogue_id": "d1", "split": "train",
             "turns": [{"index": 1, "system": "", "user": "hi", "state": state}]}]


def ingest_argv(style, schema):
    return ["ingest", "--input", "{file}", "--schema", schema, "--style", style]


EVAL_ARGV = ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", PREDICTIONS]
OFFLINE_REFINE_ARGV = ["refine", "--examples", "{file}", "--offline"]


# (argv with "{file}" for the malformed file, file content as JSON or as
#  raw bytes, message part)
MALFORMED_INPUTS = {
    "canonical state value": (
        ["stats", "--corpus", "{file}", "--schema", SCHEMA],
        one_turn_corpus({"hotel-area": 2}),
        "dialogue record 0: turns[0]: state: field 'hotel-area' must be a string",
    ),
    "schema possible_values": (
        ["validate", "--corpus", DIALOGUES, "--schema", "{file}"],
        [{"slot_id": "hotel-stars", "domain": "hotel", "name": "stars",
          "description": "star rating", "possible_values": [1, 2]}],
        "slot record 0: field 'possible_values' must be an array of strings or null",
    ),
    "schema unknown key": (
        ["validate", "--corpus", DIALOGUES, "--schema", "{file}"],
        [{"slot_id": "hotel-stars", "domain": "hotel", "name": "stars",
          "description": "star rating", "possible_value": ["1", "2"]}],
        "slot record 0: unknown fields: ['possible_value']",
    ),
    "schema duplicate slot": (
        ["validate", "--corpus", DIALOGUES, "--schema", "{file}"],
        [{"slot_id": "hotel-stars", "domain": "hotel", "name": "stars",
          "description": "star rating"}] * 2,
        "duplicate slot_id 'hotel-stars'",
    ),
    "canonical boolean index": (
        ["stats", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "d1", "split": "train",
          "turns": [{"index": True, "system": "", "user": "hi", "state": {}}]}],
        "dialogue record 0: turns[0]: field 'index' must be an integer",
    ),
    "canonical unknown turn key": (
        ["stats", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "d1", "split": "train",
          "turns": [{"index": 1, "sytem": "", "user": "hi", "state": {}}]}],
        "dialogue record 0: turns[0]: unknown fields: ['sytem']",
    ),
    "predictions unknown key": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b'{"dialogue_id": "fix007", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n'
        b'{"dialogue_id": "fix007", "turn": 2, "slot_id": "hotel-area", "txt": "north"}\n',
        "line 2: unknown fields: ['txt']",
    ),
    "predictions unknown dialogue": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b'{"dialogue_id": "fix007", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n'
        b'{"dialogue_id": "ghost", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n',
        "line 2: prediction names unknown dialogue 'ghost'",
    ),
    "predictions unknown slot": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b'{"dialogue_id": "fix007", "turn": 1, "slot_id": "hotel-nope", "text": "north"}\n',
        "line 1: prediction names unknown slot 'hotel-nope'",
    ),
    "predictions turn out of range": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b'\n{"dialogue_id": "fix007", "turn": 99, "slot_id": "hotel-area", "text": "north"}\n',
        "line 2: prediction turn 99 outside dialogue 'fix007' with 3 turns",
    ),
    "canonical empty user utterance": (
        ["validate", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "d1", "split": "train",
          "turns": [{"index": 1, "system": "", "user": "", "state": {}}]}],
        "dialogue 'd1' turn 1: empty user utterance",
    ),
    "woz_belief empty user utterance": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": [{"transcript": ""}]}],
        "dialogue '1' turn 1: empty user utterance",
    ),
    "woz_belief turn": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": ["hello"]}],
        "dialogue '1' turn 0: expected an object",
    ),
    "woz_belief belief item": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi", "belief_state": ["area"]}]}],
        "dialogue '1' turn 0 belief_state item 0: expected an object",
    ),
    "m2m_flat dialogue": (
        ingest_argv("m2m_flat", "m2m"),
        ["sim-R-1"],
        "record 0: expected an object",
    ),
    "m2m_flat utterance": (
        ingest_argv("m2m_flat", "m2m"),
        [{"id": "sim-R-1", "turns": [{"user_utterance": "hi"}]}],
        "dialogue 'sim-R-1' turn 0 user_utterance: expected an object",
    ),
    "sgd_state frame state": (
        ingest_argv("sgd_state", SCHEMA),
        [{"dialogue_id": "x1", "turns": [
            {"speaker": "USER", "utterance": "hi", "frames": [{"state": "north"}]}]}],
        "dialogue 'x1' turn 0 frame 0 state: expected an object",
    ),
    "corpus not UTF-8": (
        ["validate", "--corpus", "{file}", "--schema", SCHEMA], b"\xff", "not UTF-8",
    ),
    "schema not UTF-8": (
        ["validate", "--corpus", DIALOGUES, "--schema", "{file}"], b"[\xff]", "not UTF-8",
    ),
    "examples not UTF-8": (
        OFFLINE_REFINE_ARGV, b"\n\n\xff\n", "line 3: not UTF-8",
    ),
    "predictions not UTF-8": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b"\xff", "line 1: not UTF-8",
    ),
    "bucket spec not UTF-8": (
        EVAL_ARGV + ["--buckets", "{file}"], b"\xff", "not UTF-8",
    ),
    "corpus nested too deep": (
        ["validate", "--corpus", "{file}", "--schema", SCHEMA], b"[" * 100_000,
        "not valid JSON",
    ),
    "policy not an object": (
        EVAL_ARGV + ["--policy", "{file}"], 5, "expected a JSON object",
    ),
    "policy alias field": (
        EVAL_ARGV + ["--policy", "{file}"], {"none_aliases": 5},
        "'none_aliases' must be an array of strings",
    ),
    "policy threshold": (
        EVAL_ARGV + ["--policy", "{file}"], {"fuzzy_ratio_threshold": "x"},
        "'fuzzy_ratio_threshold' must be a number or null",
    ),
    "policy boolean": (
        EVAL_ARGV + ["--policy", "{file}"], {"lowercase": "yes"}, "'lowercase' must be a boolean",
    ),
    "refine config temperature": (
        ["refine", "--examples", PREDICTIONS, "--config", "{file}"],
        {"offline": True, "temperature": "hot"}, "'temperature' must be a number",
    ),
    "refine config max_parallel": (
        ["refine", "--examples", PREDICTIONS, "--config", "{file}"],
        {"offline": True, "max_parallel": "2"}, "'max_parallel' must be an integer",
    ),
    "bucket spec axis": (
        EVAL_ARGV + ["--buckets", "{file}"], {"axis": "x", "edges": [[0, None]]},
        "axis must be one of ('step', 'turn', 'len'), got 'x'",
    ),
    "bucket spec axis not a string": (
        EVAL_ARGV + ["--buckets", "{file}"], {"axis": ["step"], "edges": [[0, None]]},
        "expected an object with a string 'axis' and 'edges'",
    ),
    "bucket spec boolean bound": (
        EVAL_ARGV + ["--buckets", "{file}"], {"axis": "step", "edges": [[False, None]]},
        "edge bounds must be integers (hi may be null)",
    ),
    "template without question": (
        ["build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--template-file", "{file}"],
        {"template_text": "[History] [Choices]"},
        "template must contain [Question] exactly 1 time(s), found 0",
    ),
    "refine config max_parallel bound": (
        ["refine", "--examples", PREDICTIONS, "--config", "{file}"],
        {"offline": True, "max_parallel": 0}, "max_parallel must be >= 1, got 0",
    ),
    "refine config demonstration pair": (
        ["refine", "--examples", PREDICTIONS, "--config", "{file}"],
        {"offline": True, "demonstrations": [[1, {"a": 1}]]},
        "field 'demonstrations' must be an array of arrays of 2 strings",
    ),
    "report bucket jga": (
        ["report", "--report", "{file}"],
        {"overall_jga": 0.5, "n_dialogues": 1, "n_turns": 2, "n_missing_predictions": 0,
         "policy": {}, "buckets": [{"axis": "step", "label": "0+", "lo": 0, "hi": None,
                                    "n_turns": 2, "jga": "x"}]},
        "buckets[0]: field 'jga' must be a number or null",
    ),
    "examples input_text": (
        OFFLINE_REFINE_ARGV,
        {"example_id": "d1:1:hotel-area", "input_text": 5, "target_value": "north",
         "explanation": "system: user: north", "explanation_kind": "coarse",
         "meta": {"dialogue_id": "d1", "query_turn": 1, "slot_id": "hotel-area",
                  "step_count": 1, "dialogue_turns": 1, "avg_utterance_len": 1.0}},
        "line 1: field 'input_text' must be a string",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one_naming_the_spot(tmp_path, case):
    argv, payload, message = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad_train.json"
    bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
    argv = [str(bad) if arg == "{file}" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-m", "slotchain.cli", *argv],
        capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: {bad}: "), result.stderr
    assert message in result.stderr


# ---------------------------------------------------------------------------
# stats


def test_stats_table_on_stdout(capsys):
    code, out, err = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["step", "samples", "share"]
    assert lines[1].split() == ["1", "28", "80.00%"]
    assert lines[2].split() == ["2", "5", "14.29%"]
    assert lines[3].split() == ["3", "2", "5.71%"]
    assert "total active samples: 35" in out
    assert "multi-step share (step >= 2): 20.00%" in out


def test_stats_json_matches_library(capsys):
    code, out, err = run(
        capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    histogram = step_histogram(fixture_corpus())
    assert payload["counts"] == histogram.to_dict()
    assert payload["total_active"] == 35
    assert payload["multi_step_fraction"] == pytest.approx(0.2)


def test_stats_split_filter(capsys):
    code, out, err = run(
        capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--split", "test", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["counts"] == {"1": 11}


def test_stats_is_deterministic(capsys):
    _, first, _ = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA)
    _, second, _ = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA)
    assert first == second


# ---------------------------------------------------------------------------
# build


def test_build_emits_one_example_per_active_triple(capsys, tmp_path):
    out_path = tmp_path / "examples.jsonl"
    code, out, err = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--overrides-file", OVERRIDES, "--out", str(out_path),
    )
    assert code == 0
    examples = tuple(read_examples(out_path))
    assert len(examples) == 35
    by_id = {e.example_id: e for e in examples}
    fig = by_id["fix001:4:hotel-stars"]
    assert fig.target_value == "5"
    assert fig.meta.step_count == 3
    assert fig.explanation_kind == "coarse"
    assert "What is the name of the hotel?" in by_id["fix001:4:hotel-name"].input_text


def test_build_no_explanations_arm(capsys, tmp_path):
    out_path = tmp_path / "bare.jsonl"
    code, out, err = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--no-explanations", "--out", str(out_path),
    )
    assert code == 0
    examples = tuple(read_examples(out_path))
    assert len(examples) == 35
    assert all(e.explanation == "" and e.explanation_kind == "none" for e in examples)


def test_build_include_inactive_covers_every_triple(capsys, tmp_path):
    out_path = tmp_path / "all.jsonl"
    code, out, err = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--include-inactive", "--out", str(out_path),
    )
    assert code == 0
    assert len(tuple(read_examples(out_path))) == 21 * 5


def test_build_split_filter(capsys, tmp_path):
    out_path = tmp_path / "test.jsonl"
    code, out, err = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--split", "test", "--out", str(out_path),
    )
    assert code == 0
    examples = tuple(read_examples(out_path))
    assert len(examples) == 11
    assert {e.meta.dialogue_id for e in examples} == {"fix007", "fix008"}


# ---------------------------------------------------------------------------
# refine


def build_examples_file(capsys, tmp_path, name="examples.jsonl"):
    out_path = tmp_path / name
    code, _, _ = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)
    )
    assert code == 0
    return out_path


def test_refine_offline_round_trip(capsys, tmp_path):
    examples_path = build_examples_file(capsys, tmp_path)
    out_path = tmp_path / "refined.jsonl"
    code, out, err = run(
        capsys, "refine", "--examples", str(examples_path), "--offline", "--out", str(out_path)
    )
    assert code == 0
    refined = tuple(read_examples(out_path))
    assert len(refined) == 35
    kinds = {e.explanation_kind for e in refined}
    assert kinds == {"refined", "none"}
    for example in refined:
        assert "system:" not in example.explanation
        assert "user:" not in example.explanation


def test_refine_offline_is_byte_deterministic(capsys, tmp_path):
    examples_path = build_examples_file(capsys, tmp_path)
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out_path in (a, b):
        code, _, _ = run(
            capsys, "refine", "--examples", str(examples_path), "--offline",
            "--out", str(out_path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_refine_partial_failure_exits_three(capsys, tmp_path):
    examples_path = tmp_path / "mixed.jsonl"
    good = {
        "example_id": "d1:1:hotel-stars",
        "input_text": "Dialogue: system: user: three stars Question: What's stars?",
        "target_value": "3",
        "explanation": "system: Welcome. user: three stars",
        "explanation_kind": "coarse",
        "meta": {
            "dialogue_id": "d1", "query_turn": 1, "slot_id": "hotel-stars",
            "step_count": 1, "dialogue_turns": 1, "avg_utterance_len": 2.0,
        },
    }
    bad = dict(good, example_id="d2:1:hotel-stars", explanation="system: user:")
    bad["meta"] = dict(good["meta"], dialogue_id="d2")
    with examples_path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(good) + "\n")
        handle.write(json.dumps(bad) + "\n")
    out_path = tmp_path / "refined.jsonl"
    code, out, err = run(
        capsys, "refine", "--examples", str(examples_path), "--offline", "--out", str(out_path)
    )
    assert code == 3
    assert "warning: d2:1:hotel-stars" in err
    assert "1 example(s) left unrefined" in err
    refined = tuple(read_examples(out_path))
    assert refined[0].explanation_kind == "refined"
    assert refined[1].explanation_kind == "coarse"
    assert refined[1].explanation == "system: user:"


# ---------------------------------------------------------------------------
# streaming: build writes a dialogue at a time, refine a chunk at a time


def recording(monkeypatch, name, original):
    """Replace ``slotchain.cli.<name>`` by a wrapper that records each
    call's first argument."""
    calls = []

    def wrapper(first, *rest, **options):
        calls.append(first)
        return original(first, *rest, **options)

    monkeypatch.setattr(f"slotchain.cli.{name}", wrapper)
    return calls


def test_build_writes_one_dialogue_per_jsonl_call(capsys, tmp_path, monkeypatch):
    built = recording(monkeypatch, "build_dataset", build_dataset)
    written = recording(monkeypatch, "examples_to_jsonl", examples_to_jsonl)
    out_path = build_examples_file(capsys, tmp_path)
    ids = sorted(d.dialogue_id for d in fixture_corpus().dialogues)
    assert [d.dialogue_id for d in built] == ids
    assert all(isinstance(examples, tuple) for examples in written)
    assert [{e.meta.dialogue_id for e in examples} for examples in written] == [{i} for i in ids]
    assert out_path.read_text(encoding="utf-8") == "".join(map(examples_to_jsonl, written))


def test_build_failing_in_a_later_dialogue_keeps_the_old_out_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "examples.jsonl"
    out_path.write_bytes(b"old output\n")
    seen = []

    def failing(dialogue, *rest, **options):
        seen.append(dialogue)
        if len(seen) == 3:
            raise ValidationError("boom")
        return build_dataset(dialogue, *rest, **options)

    monkeypatch.setattr("slotchain.cli.build_dataset", failing)
    code, out, err = run(
        capsys, "build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)
    )
    assert (code, err) == (1, "error: boom\n")
    assert out_path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["examples.jsonl"]


def test_refine_hands_refine_batch_at_most_a_chunk(capsys, tmp_path, monkeypatch):
    examples_path = build_examples_file(capsys, tmp_path)
    whole = tmp_path / "whole.jsonl"
    code, _, _ = run(capsys, "refine", "--examples", str(examples_path), "--offline",
                     "--out", str(whole))
    assert code == 0
    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 8)
    chunks = recording(monkeypatch, "refine_batch", refine_batch)
    chunked = tmp_path / "chunked.jsonl"
    code, _, _ = run(capsys, "refine", "--examples", str(examples_path), "--offline",
                     "--max-parallel", "1", "--out", str(chunked))
    assert code == 0
    assert all(isinstance(chunk, tuple) for chunk in chunks)
    assert [len(chunk) for chunk in chunks] == [8, 8, 8, 8, 3]
    assert chunked.read_bytes() == whole.read_bytes()


def test_refine_malformed_last_line_keeps_the_old_out_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 2)
    examples_path = build_examples_file(capsys, tmp_path)
    with examples_path.open("a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    out_path = tmp_path / "refined.jsonl"
    out_path.write_bytes(b"old output\n")
    chunks = recording(monkeypatch, "refine_batch", refine_batch)
    code, out, err = run(
        capsys, "refine", "--examples", str(examples_path), "--offline",
        "--max-parallel", "1", "--out", str(out_path),
    )
    assert code == 1
    assert f"{examples_path}: line 36: not valid JSON" in err
    assert len(chunks) == 17  # every earlier chunk was refined before the bad line was read
    assert out_path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["examples.jsonl", "refined.jsonl"]


# ---------------------------------------------------------------------------
# offline refine across worker processes


@pytest.fixture
def pools(monkeypatch):
    """Refine in chunks of 2 lines with two usable CPUs; the fixture's
    value is the max_workers of each process pool that refine starts."""
    import concurrent.futures

    monkeypatch.setattr("slotchain.cli.REFINE_CHUNK", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **options):
            sizes.append(max_workers)
            super().__init__(max_workers, **options)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def refine_offline(capsys, examples_path, out_path, workers):
    return run(capsys, "refine", "--examples", str(examples_path), "--offline",
               "--max-parallel", str(workers), "--out", str(out_path))


def test_refine_pool_writes_the_bytes_of_one_worker(capsys, tmp_path, pools):
    examples_path = build_examples_file(capsys, tmp_path)
    outputs = {}
    for workers in (1, 2):
        outputs[workers] = tmp_path / f"refined{workers}.jsonl"
        code, _, err = refine_offline(capsys, examples_path, outputs[workers], workers)
        assert (code, err) == (0, "")
    assert pools == [2]
    assert outputs[2].read_bytes() == outputs[1].read_bytes()


def test_refine_pool_malformed_later_line_keeps_the_old_out_file(capsys, tmp_path, pools):
    examples_path = build_examples_file(capsys, tmp_path)
    with examples_path.open("a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    out_path = tmp_path / "refined.jsonl"
    out_path.write_bytes(b"old output\n")
    code, out, err = refine_offline(capsys, examples_path, out_path, 2)
    assert pools == [2]
    assert code == 1
    assert err.startswith(f"error: {examples_path}: line 36: not valid JSON")
    assert out_path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["examples.jsonl", "refined.jsonl"]


def test_refine_pool_warns_in_example_order(capsys, tmp_path, pools):
    examples_path = tmp_path / "mixed.jsonl"
    # only speaker tags: strip_speaker_tags leaves nothing of the odd examples
    examples = [
        make_example(i) if i % 2 == 0 else with_explanation(make_example(i), "system: user:")
        for i in range(9)
    ]
    examples_path.write_text(examples_to_jsonl(examples), encoding="utf-8")
    outputs = {}
    for workers in (2, 1):
        outputs[workers] = tmp_path / f"refined{workers}.jsonl"
        code, out, err = refine_offline(capsys, examples_path, outputs[workers], workers)
        assert code == 3
        warned = [line.split(": ")[1] for line in err.splitlines() if line.startswith("warning: ")]
        assert warned == [examples[i].example_id for i in (1, 3, 5, 7)]
        assert err.endswith("4 example(s) left unrefined\n")
    assert pools == [2]
    assert outputs[2].read_bytes() == outputs[1].read_bytes()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a worker sees the monkeypatched refine_batch only when forked",
)
def test_refine_worker_that_dies_is_an_error_not_a_traceback(
    capsys, tmp_path, monkeypatch, pools
):
    examples_path = build_examples_file(capsys, tmp_path)
    parent = os.getpid()

    def dying(*args, **options):
        assert os.getpid() != parent, "refine_batch ran in the parent, not in a worker"
        os._exit(7)

    monkeypatch.setattr("slotchain.cli.refine_batch", dying)
    out_path = tmp_path / "refined.jsonl"
    out_path.write_bytes(b"old output\n")
    code, out, err = refine_offline(capsys, examples_path, out_path, 2)
    assert pools == [2]
    assert code == 1
    assert err.startswith("error: a refine worker process stopped")
    assert "Traceback" not in err
    assert out_path.read_bytes() == b"old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["examples.jsonl", "refined.jsonl"]


@pytest.mark.parametrize("cpus, max_parallel, expected", [
    ({0}, 2, []),
    ({0, 1}, 5, [2]),
    ({0, 1, 2, 3}, 2, [2]),
    (None, 2, []),  # no sched_getaffinity and os.cpu_count() of None: one CPU
])
def test_refine_workers_are_capped_at_usable_cpus(
    capsys, tmp_path, monkeypatch, pools, cpus, max_parallel, expected
):
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    examples_path = build_examples_file(capsys, tmp_path)
    inline = recording(monkeypatch, "refine_batch", refine_batch)
    code, _, _ = refine_offline(capsys, examples_path, tmp_path / "refined.jsonl", max_parallel)
    assert code == 0
    assert pools == expected
    assert len(inline) == (0 if expected else 18)


def test_refine_offline_child_process_pool_matches_one_worker(capsys, tmp_path):
    # The benchmark's path: the CLI as its own process, nothing monkeypatched,
    # on a file of more than one REFINE_CHUNK.
    schema = load_schema(SCHEMA)
    rng = random.Random(14)
    dialogues = tuple(make_dialogue(rng, schema, f"gen{i:03d}", "train") for i in range(150))
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(corpus_to_json(Corpus(schema, dialogues)), encoding="utf-8")
    examples_path = tmp_path / "examples.jsonl"
    code, _, _ = run(capsys, "build", "--corpus", str(corpus_path), "--schema", SCHEMA,
                     "--out", str(examples_path))
    assert code == 0
    n_examples = len(examples_path.read_bytes().splitlines())
    assert n_examples > 1000
    outputs = {}
    for workers in (2, 1):
        outputs[workers] = tmp_path / f"refined{workers}.jsonl"
        result = subprocess.run(
            [sys.executable, "-m", "slotchain.cli", "refine", "--examples", str(examples_path),
             "--offline", "--max-parallel", str(workers), "--out", str(outputs[workers])],
            capture_output=True, text=True, check=False,
        )
        assert (result.returncode, result.stderr) == (0, "")
    assert outputs[2].read_bytes() == outputs[1].read_bytes()
    refined = tuple(read_examples(outputs[2]))
    assert len(refined) == n_examples
    assert {e.explanation_kind for e in refined} == {"refined", "none"}


# ---------------------------------------------------------------------------
# sample


def test_sample_keeps_ceiling_and_other_splits(capsys):
    code, out, err = run(
        capsys, "sample", "--corpus", DIALOGUES, "--schema", SCHEMA, "--fraction", "0.2"
    )
    assert code == 0
    assert "kept 1 of 5 train dialogues" in err
    records = json.loads(out)
    splits = [record["split"] for record in records]
    assert splits.count("train") == 1
    assert splits.count("dev") == 1
    assert splits.count("test") == 2


def test_sample_is_deterministic_per_seed(capsys):
    _, first, _ = run(
        capsys, "sample", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--fraction", "0.4", "--seed", "13",
    )
    _, second, _ = run(
        capsys, "sample", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--fraction", "0.4", "--seed", "13",
    )
    assert first == second
    _, other_seed, _ = run(
        capsys, "sample", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--fraction", "0.4", "--seed", "99",
    )
    assert {r["dialogue_id"] for r in json.loads(first)} != {
        r["dialogue_id"] for r in json.loads(other_seed)
    } or first == other_seed


def test_sample_default_seed_reproduces_golden(capsys):
    golden = REPO / "tests" / "golden" / "e2e"
    argv = ["sample", "--corpus", str(golden / "corpus.json"), "--schema", SCHEMA,
            "--fraction", "0.2"]
    expected = (golden / "sampled.json").read_text(encoding="utf-8")
    for seed in (["--seed", "13"], []):
        code, out, err = run(capsys, *argv, *seed)
        assert code == 0, err
        assert out == expected


def test_sample_bad_fraction_exits_one(capsys):
    code, out, err = run(
        capsys, "sample", "--corpus", DIALOGUES, "--schema", SCHEMA, "--fraction", "1.5"
    )
    assert code == 1
    assert "fraction" in err


# ---------------------------------------------------------------------------
# eval / report


def test_eval_json_report(capsys):
    code, out, err = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "mwz_turn", "mwz_len",
    )
    assert code == 0
    report = json.loads(out)
    assert report["overall_jga"] == pytest.approx(4 / 6)
    assert report["n_turns"] == 6
    assert report["n_missing_predictions"] == 20
    assert "20 missing predictions defaulted to none" in err
    steps = {b["label"]: b for b in report["buckets"] if b["axis"] == "step"}
    assert steps["1"]["n_turns"] == 6
    assert steps["1"]["jga"] == pytest.approx(4 / 6)
    assert steps["3+"]["jga"] is None


def test_eval_markdown_and_csv_formats(capsys):
    code, markdown, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "--format", "markdown",
    )
    assert code == 0
    assert "overall JGA: 0.6667" in markdown
    assert "| 1 | 6 | 0.6667 |" in markdown
    code, csv_text, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "--format", "csv",
    )
    assert code == 0
    lines = csv_text.strip().splitlines()
    assert lines[0] == "axis,bucket,n_turns,jga"
    assert lines[1] == "overall,all,6,0.6667"
    assert len(lines) == 2 + 4


def test_eval_corrupt_predictions_names_line_seven(capsys):
    code, out, err = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", CORRUPT_PREDICTIONS, "--split", "test",
    )
    assert code == 1
    assert "line 7" in err
    assert out == ""


def test_eval_policy_file_changes_matching(capsys, tmp_path):
    rows = Path(PREDICTIONS).read_text(encoding="utf-8").replace(
        '"ashley hotel!!"', '"ashley hotl"'
    )
    predictions = tmp_path / "typo.jsonl"
    predictions.write_text(rows, encoding="utf-8")
    code, strict_out, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", str(predictions), "--split", "test",
    )
    assert code == 0
    assert json.loads(strict_out)["overall_jga"] == pytest.approx(3 / 6)
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"fuzzy_ratio_threshold": 0.85}), encoding="utf-8")
    code, fuzzy_out, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", str(predictions), "--split", "test",
        "--policy", str(policy),
    )
    assert code == 0
    assert json.loads(fuzzy_out)["overall_jga"] == pytest.approx(4 / 6)


def test_report_rerenders_saved_json(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "--out", str(report_path),
    )
    assert code == 0
    code, markdown_direct, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "--format", "markdown",
    )
    assert code == 0
    code, markdown_rerendered, _ = run(
        capsys, "report", "--report", str(report_path), "--format", "markdown"
    )
    assert code == 0
    assert markdown_rerendered == markdown_direct


def test_report_rejects_malformed_file(capsys, tmp_path):
    bad = tmp_path / "report.json"
    bad.write_text("{broken", encoding="utf-8")
    code, out, err = run(capsys, "report", "--report", str(bad))
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# input files are never rewritten


def file_digests(paths):
    return {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths
    }


def test_pipeline_never_mutates_inputs(capsys, tmp_path):
    inputs = [SCHEMA, DIALOGUES, PREDICTIONS, OVERRIDES]
    before = file_digests(inputs)
    corpus_path = tmp_path / "corpus.json"
    examples_path = tmp_path / "examples.jsonl"
    refined_path = tmp_path / "refined.jsonl"
    sampled_path = tmp_path / "sampled.json"
    report_path = tmp_path / "report.json"
    steps = [
        ("ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--out", str(corpus_path)),
        ("validate", "--corpus", str(corpus_path), "--schema", SCHEMA, "--out", str(tmp_path / "v.json")),
        ("stats", "--corpus", str(corpus_path), "--schema", SCHEMA, "--out", str(tmp_path / "s.txt")),
        (
            "build", "--corpus", str(corpus_path), "--schema", SCHEMA,
            "--overrides-file", OVERRIDES, "--out", str(examples_path),
        ),
        ("refine", "--examples", str(examples_path), "--offline", "--out", str(refined_path)),
        (
            "sample", "--corpus", str(corpus_path), "--schema", SCHEMA,
            "--fraction", "0.2", "--out", str(sampled_path),
        ),
        (
            "eval", "--corpus", str(corpus_path), "--schema", SCHEMA,
            "--predictions", PREDICTIONS, "--split", "test", "--out", str(report_path),
        ),
        ("report", "--report", str(report_path), "--out", str(tmp_path / "report.md")),
    ]
    intermediate = {}
    for argv in steps:
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv[0]
        for produced in (corpus_path, examples_path, refined_path):
            if produced.exists() and str(produced) not in intermediate:
                intermediate[str(produced)] = hashlib.sha256(produced.read_bytes()).hexdigest()
    assert file_digests(inputs) == before
    for path, digest in intermediate.items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest, path


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input", "corpus.json", "--schema", "schema.json", "--out", "corpus.json"],
        ["validate", "--corpus", "corpus.json", "--schema", "schema.json",
         "--out", "./schema.json"],
        ["eval", "--corpus", "corpus.json", "--schema", "schema.json",
         "--predictions", "predictions.jsonl", "--out", "predictions.jsonl"],
        ["eval", "--corpus", "corpus.json", "--schema", "schema.json",
         "--predictions", "predictions.jsonl", "--buckets", "step", "step.json",
         "--out", "link.json"],
    ],
)
def test_out_naming_an_input_exits_one(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    shutil.copy(DIALOGUES, "corpus.json")
    shutil.copy(SCHEMA, "schema.json")
    shutil.copy(PREDICTIONS, "predictions.jsonl")
    Path("step.json").write_text('{"axis": "step", "edges": [[0, null]]}', encoding="utf-8")
    os.symlink("step.json", "link.json")
    before = file_digests(["corpus.json", "schema.json", "predictions.jsonl", "step.json"])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: --out ") and "would overwrite the input" in err
    assert file_digests(["corpus.json", "schema.json", "predictions.jsonl", "step.json"]) == before


def test_interrupted_write_keeps_the_old_out_file(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "stats.txt"
    out_path.write_text("old output\n", encoding="utf-8")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["stats", "--corpus", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)])
    assert out_path.read_text(encoding="utf-8") == "old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.txt"]


def test_stdout_equals_out_file(capsys, tmp_path):
    code, stdout_text, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test", "--buckets", "step",
    )
    assert code == 0
    out_path = tmp_path / "report.json"
    code, empty, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test", "--buckets", "step",
        "--out", str(out_path),
    )
    assert code == 0
    assert empty == ""
    assert out_path.read_text(encoding="utf-8") == stdout_text
