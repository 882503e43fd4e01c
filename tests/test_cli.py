"""Command-line behaviour: exit codes, stream discipline, determinism,
and that no subcommand rewrites its inputs."""

import argparse
import contextlib
import errno
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import slotchain
import slotchain.cli as cli
import slotchain.errors
from slotchain.builder import (
    PromptTemplate, build_dataset, examples_to_jsonl, read_examples, slot_prompts,
)
from slotchain.chains import step_histogram
from slotchain.cli import main
from slotchain.errors import ValidationError
from slotchain.refiner import refine_batch
from slotchain.corpus import Corpus, filter_excluded_domains, load_corpus, load_schema
from slotchain.io import encode
from slotchain.normalize import DEFAULT_POLICY

from gen import corpus_to_json, make_corpus, make_dialogue, mutate_json
from test_builder import decode_lines, reference_examples, reference_line
from test_refiner import DEMOS, KEY_VAR, MockCompletionServer, make_example, with_explanation

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = str(FIXTURES / "fixture_schema.json")
DIALOGUES = str(FIXTURES / "fixture_dialogues.json")
PREDICTIONS = str(FIXTURES / "predictions.jsonl")
CORRUPT_PREDICTIONS = str(FIXTURES / "predictions_corrupt_line7.jsonl")
TEMPLATE = str(FIXTURES / "prompt_template.json")


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
    ["build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--verbose"],
    ["build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--overrides-file", "x"],
    ["refine", "--examples", PREDICTIONS, "--offline", "--verbose"],
    ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", PREDICTIONS,
     "--exclude-domains", "hotel"],
    # eval writes the JSON report; report alone renders it as a table
    ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", PREDICTIONS,
     "--format", "markdown"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


def test_every_input_option_is_an_option_dest():
    parser = cli._build_parser()
    (subcommands,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    dests = {
        action.dest
        for subparser in subcommands.choices.values()
        for action in subparser._actions
    }
    assert set(cli._INPUT_OPTIONS) <= dests, set(cli._INPUT_OPTIONS) - dests


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


def test_errors_are_the_five_kinds():
    classes = {
        name for name, value in vars(slotchain.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {
        "SlotchainError", "FormatError", "ValidationError", "NetworkError", "AuthError"
    }


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


# Standard output that is not UTF-8: ascii, the C locale without
# Python's UTF-8 fallbacks (ascii too), and latin-1.
NON_UTF8_STDOUT = {
    "ascii": {"PYTHONIOENCODING": "ascii"},
    "C locale": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    "latin-1": {"PYTHONIOENCODING": "latin-1"},
}


@pytest.mark.parametrize("command", ["ingest", "build"])
@pytest.mark.parametrize("locale", sorted(NON_UTF8_STDOUT))
def test_stdout_is_the_out_file_under_any_locale(tmp_path, locale, command):
    schema, corpus = tmp_path / "schema.json", tmp_path / "corpus.json"
    schema.write_text(json.dumps([{
        "slot_id": "hotel-name", "domain": "hotel", "name": "name", "description": "hotel name",
    }]), encoding="utf-8")
    turn = {"index": 1, "system": "", "user": "the hôtel du lac",
            "state": {"hotel-name": "hôtel du lac"}}
    corpus.write_text(json.dumps([{"dialogue_id": "d1", "split": "train", "turns": [turn]}]),
                      encoding="utf-8")
    argv = [command, "--schema", str(schema), "--input" if command == "ingest" else "--corpus",
            str(corpus)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "PYTHONIOENCODING") and not k.startswith("LC_")}
    env.update(NON_UTF8_STDOUT[locale], PYTHONPATH=str(REPO / "src"))
    out = tmp_path / "out.txt"
    results = [
        subprocess.run([sys.executable, "-m", "slotchain.cli", *argv, *extra],
                       capture_output=True, env=env, check=False, cwd=tmp_path)
        for extra in ([], ["--out", str(out)])
    ]
    assert [r.returncode for r in results] == [0, 0], results[0].stderr.decode(errors="replace")
    assert "hôtel du lac".encode() in results[0].stdout
    assert results[0].stdout == out.read_bytes()


def test_ingest_excludes_domains(capsys):
    code, out, err = run(
        capsys, "ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--exclude-domains", "hotel"
    )
    assert code == 0
    assert "ingested dialogues: train=4 dev=0 test=1 (total 5)" in err
    assert out == corpus_to_json(filter_excluded_domains(fixture_corpus(), {"hotel"}))
    dialogues = {d["dialogue_id"]: d for d in json.loads(out)}
    assert not {"fix001", "fix006", "fix008"} & dialogues.keys()
    fix004_slots = {slot for turn in dialogues["fix004"]["turns"] for slot in turn["state"]}
    assert fix004_slots == {"restaurant-food"}


def test_ingest_split_with_canonical_style_is_a_usage_error(capsys, tmp_path):
    out_path = tmp_path / "corpus.json"
    code, out, err = run(
        capsys, "ingest", "--input", DIALOGUES, "--schema", SCHEMA,
        "--style", "canonical", "--split", "dev", "--out", str(out_path),
    )
    assert code == 2
    assert out == ""
    assert "--split" in err and "--style canonical" in err
    assert not out_path.exists()


def test_ingest_split_must_name_a_split(capsys, tmp_path):
    empty = tmp_path / "dialogues.json"
    empty.write_text("[]", encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--input", str(empty), "--schema", SCHEMA,
        "--style", "sgd_state", "--split", "banana",
    )
    assert code == 2
    assert out == ""
    assert "argument --split: invalid choice: 'banana'" in err


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


def test_ingest_woz_belief_matches_a_spaced_slot_name(capsys, tmp_path):
    # WOZ 2.0's ontology spells woz20's restaurant-pricerange "price range".
    raw = [{"dialogue_idx": 1, "dialogue": [{"transcript": "cheap please", "system_transcript": "",
            "belief_state": [{"act": "inform", "slots": [["price range", "cheap"]]}]}]}]
    source = tmp_path / "woz_train_en.json"
    source.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(
        capsys, "ingest", "--input", str(source), "--schema", "woz20", "--style", "woz_belief"
    )
    assert (code, err) == (0, "ingested dialogues: train=1 dev=0 test=0 (total 1)\n")
    assert json.loads(out)[0]["turns"][0]["state"] == {"restaurant-pricerange": "cheap"}


def test_ingest_m2m_flat_excludes_a_domain_the_schema_lacks(capsys, tmp_path):
    schema_path = tmp_path / "restaurant.json"
    schema_path.write_text(json.dumps([
        {"slot_id": "restaurant-num_people", "domain": "restaurant", "name": "num_people",
         "description": "party size"},
    ]), encoding="utf-8")

    def record(dialogue_id, domain):
        return {"id": dialogue_id, "domain": domain, "turns": [
            {"user_utterance": {"text": "for two"},
             "dialogue_state": [{"slot": "num_people", "value": "2"}]}]}

    source = tmp_path / "sim_train.json"
    source.write_text(json.dumps([record("r1", "restaurant"), record("m1", "movie")]),
                      encoding="utf-8")
    argv = ["ingest", "--input", str(source), "--schema", str(schema_path), "--style", "m2m_flat"]
    code, out, err = run(capsys, *argv, "--exclude-domains", "movie")
    assert (code, err) == (0, "ingested dialogues: train=1 dev=0 test=0 (total 1)\n")
    [dialogue] = json.loads(out)
    assert dialogue["dialogue_id"] == "r1"
    assert dialogue["turns"][0]["state"] == {"restaurant-num_people": "2"}

    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {source}: dialogue 'm1' turn 1: unknown slot_id 'movie-num_people'\n"


def test_ingest_sgd_state_excludes_a_domain_the_schema_lacks(capsys, tmp_path):
    def user_turn(utterance, slot_values):
        return {"speaker": "USER", "utterance": utterance,
                "frames": [{"state": {"slot_values": slot_values}}]}

    raw = [
        {"dialogue_id": "d1", "turns": [
            user_turn("a hotel in the north", {"hotel-area": ["north"]}),
            {"speaker": "SYSTEM", "utterance": "anything else?"},
            user_turn("a hospital too", {"hotel-area": ["north"],
                                         "hospital-department": ["cardiology"]})]},
        {"dialogue_id": "d2", "turns": [
            user_turn("the hospital", {"hospital-department": ["cardiology"]})]},
    ]
    source = tmp_path / "sgd_train.json"
    source.write_text(json.dumps(raw), encoding="utf-8")
    argv = ["ingest", "--input", str(source), "--schema", SCHEMA, "--style", "sgd_state"]
    code, out, err = run(capsys, *argv, "--exclude-domains", "hospital")
    assert code == 0, err
    assert "train=1 dev=0 test=0" in err
    [dialogue] = json.loads(out)
    assert dialogue["dialogue_id"] == "d1"
    assert [turn["state"] for turn in dialogue["turns"]] == [{"hotel-area": "north"}] * 2

    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {source}: dialogue 'd1' turn 2: unknown slot_id 'hospital-department'\n"


def test_ingest_takes_the_split_from_multiwoz22_split_directories(capsys, tmp_path):
    # MultiWOZ 2.2 names every file dialogues_NNN.json, in train/, dev/ and
    # test/: one ingest reads them all, each with its directory's split.
    inputs = []
    for split in ("train", "dev"):
        (tmp_path / "mwz" / split).mkdir(parents=True)
        source = tmp_path / "mwz" / split / "dialogues_001.json"
        source.write_text(json.dumps([{"dialogue_id": f"{split}-1", "turns": [
            {"speaker": "USER", "utterance": "in the north",
             "frames": [{"state": {"slot_values": {"hotel-area": ["north"]}}}]},
        ]}]), encoding="utf-8")
        inputs.append(str(source))
    code, out, err = run(
        capsys, "ingest", "--style", "sgd_state", "--schema", SCHEMA, "--input", *inputs
    )
    assert code == 0, err
    assert "train=1 dev=1 test=0" in err
    assert {d["dialogue_id"]: d["split"] for d in json.loads(out)} == {
        "train-1": "train", "dev-1": "dev",
    }


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
BUILD_ARGV = ["build", "--corpus", DIALOGUES, "--schema", SCHEMA]
OFFLINE_REFINE_ARGV = ["refine", "--examples", "{file}", "--offline"]


def report_with(buckets=None, **fields):
    """A report of 6 turns on the step axis in buckets [0, 2), [2, 3) and
    [3, null), with ``fields`` set in its second bucket when a bucket has
    the key (n_turns included), else in the report; or with ``buckets``
    as given."""
    report = {"overall_jga": 0.5, "n_dialogues": 2, "n_turns": 6, "n_missing_predictions": 0,
              "policy": {}}
    if buckets is None:
        buckets = [
            {"axis": "step", "label": "0-1", "lo": 0, "hi": 2, "n_turns": 2, "jga": 0.5},
            {"axis": "step", "label": "2", "lo": 2, "hi": 3, "n_turns": 2, "jga": 0.5},
            {"axis": "step", "label": "3+", "lo": 3, "hi": None, "n_turns": 2, "jga": 0.5},
        ]
        for key in fields.keys() & buckets[1].keys():
            buckets[1][key] = fields.pop(key)
    return {**report, **fields, "buckets": buckets}


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
    "policy alias in both sets": (
        EVAL_ARGV + ["--policy", "{file}"],
        {"none_aliases": ["none", "x"], "dontcare_aliases": ["x"]},
        "alias 'x' would mean both none and dontcare",
    ),
    "policy dontcare alias none": (
        EVAL_ARGV + ["--policy", "{file}"], {"dontcare_aliases": ["none"]},
        "alias 'none' would mean both none and dontcare",
    ),
    "policy none alias dontcare": (
        EVAL_ARGV + ["--policy", "{file}"], {"none_aliases": ["dontcare"]},
        "alias 'dontcare' would mean both none and dontcare",
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
        "field 'axis' must be a string",
    ),
    "bucket spec boolean bound": (
        EVAL_ARGV + ["--buckets", "{file}"], {"axis": "step", "edges": [[False, None]]},
        "field 'edges' must be an array of arrays of 2 integers or null",
    ),
    "template without question": (
        BUILD_ARGV + ["--template-file", "{file}"],
        {"template_text": "[History] [Choices]"},
        "template must contain [Question] exactly 1 time(s), found 0",
    ),
    "template question unknown slot": (
        BUILD_ARGV + ["--template-file", "{file}"],
        {"questions": {"hotel-nam": "Which hotel?"}},
        "question names unknown slot 'hotel-nam'",
    ),
    "template question not a string": (
        BUILD_ARGV + ["--template-file", "{file}"],
        {"questions": {"hotel-name": 5}},
        "questions: field 'hotel-name' must be a string",
    ),
    "template empty question": (
        BUILD_ARGV + ["--template-file", "{file}"],
        {"questions": {"hotel-name": ""}},
        "empty question for slot 'hotel-name'",
    ),
    "template blank question": (
        BUILD_ARGV + ["--template-file", "{file}"],
        {"questions": {"hotel-name": "   "}},
        "empty question for slot 'hotel-name'",
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
    "report negative n_dialogues": (
        ["report", "--report", "{file}"], report_with(n_dialogues=-1, n_missing_predictions=-5),
        "n_dialogues must be >= 0, got -1",
    ),
    "report negative n_missing_predictions": (
        ["report", "--report", "{file}"], report_with(n_missing_predictions=-5),
        "n_missing_predictions must be >= 0, got -5",
    ),
    "report bucket jga above 1": (
        ["report", "--report", "{file}"], report_with(jga=7.5),
        "buckets[1]: jga 7.5 outside [0, 1]",
    ),
    "report bucket jga without turns": (
        ["report", "--report", "{file}"], report_with(n_turns=0),
        "buckets[1]: jga must be null exactly when n_turns is 0, got 0.5 for 0 turns",
    ),
    "report bucket label": (
        ["report", "--report", "{file}"], report_with(label="banana"),
        "buckets[1]: label 'banana' must be '2' for lo=2, hi=3",
    ),
    "report bucket negative n_turns": (
        ["report", "--report", "{file}"],
        report_with(buckets=[
            {"axis": "step", "label": "0", "lo": 0, "hi": 1, "n_turns": -2, "jga": 0.5},
            {"axis": "step", "label": "1+", "lo": 1, "hi": None, "n_turns": 8, "jga": 0.5},
        ]),
        "buckets[0]: n_turns must be >= 0, got -2",
    ),
    "report unknown axis": (
        ["report", "--report", "{file}"],
        report_with(buckets=[
            {"axis": "foo", "label": "0+", "lo": 0, "hi": None, "n_turns": 6, "jga": 0.5},
        ]),
        "buckets of axis 'foo': axis must be one of ('step', 'turn', 'len'), got 'foo'",
    ),
    "report ranges not contiguous": (
        ["report", "--report", "{file}"],
        report_with(buckets=[
            {"axis": "step", "label": "0-1", "lo": 0, "hi": 2, "n_turns": 3, "jga": 0.5},
            {"axis": "step", "label": "3+", "lo": 3, "hi": None, "n_turns": 3, "jga": 0.5},
        ]),
        "buckets of axis 'step': ranges must be contiguous: [0, 2) then lo=3",
    ),
    "report overall_jga contradicts buckets": (
        ["report", "--report", "{file}"], report_with(overall_jga=0.0),
        "axis 'step' buckets hold 3 correct turns, but overall_jga 0.0 of 6 turns holds 0",
    ),
    "report bucket jga not a whole count": (
        ["report", "--report", "{file}"], report_with(jga=0.55),
        "buckets[1]: jga 0.55 of 2 turns is not a whole number of correct turns",
    ),
    "report overall_jga not a whole count": (
        ["report", "--report", "{file}"], report_with(buckets=[], overall_jga=0.55),
        "overall_jga 0.55 of 6 turns is not a whole number of correct turns",
    ),
    "report more dialogues than turns": (
        ["report", "--report", "{file}"], report_with(buckets=[], n_turns=0, n_dialogues=3),
        "n_dialogues 3 exceeds n_turns 0",
    ),
    "report overall_jga without turns": (
        ["report", "--report", "{file}"], report_with(buckets=[], n_turns=0, n_dialogues=0),
        "overall_jga must be 0 without turns, got 0.5",
    ),
    # a missing prediction is a (turn, slot) without a row
    "report missing predictions without turns": (
        ["report", "--report", "{file}"],
        report_with(buckets=[], n_turns=0, n_dialogues=0, overall_jga=0.0,
                    n_missing_predictions=20),
        "n_missing_predictions must be 0 without turns, got 20",
    ),
    "report last range closed": (
        ["report", "--report", "{file}"],
        report_with(buckets=[
            {"axis": "turn", "label": "0-9", "lo": 0, "hi": 10, "n_turns": 6, "jga": 0.5},
        ]),
        "buckets of axis 'turn': final range must be open-ended (null hi)",
    ),
    "examples input_text": (
        OFFLINE_REFINE_ARGV,
        {"example_id": "d1:1:hotel-area", "input_text": 5, "target_value": "north",
         "explanation": "system: user: north", "explanation_kind": "coarse",
         "meta": {"dialogue_id": "d1", "query_turn": 1, "slot_id": "hotel-area",
                  "step_count": 1, "dialogue_turns": 1, "avg_utterance_len": 1.0}},
        "line 1: field 'input_text' must be a string",
    ),
    "woz_belief null transcript": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": [{"transcript": None}]}],
        "dialogue '1' turn 0 transcript: expected a string",
    ),
    "m2m_flat object state value": (
        ingest_argv("m2m_flat", "m2m"),
        [{"id": "sim-R-1", "domain": "restaurant", "turns": [
            {"user_utterance": {"text": "hi"},
             "dialogue_state": [{"slot": "meal", "value": {"x": 1}}]}]}],
        "dialogue 'sim-R-1' turn 0 dialogue_state value: expected a string",
    ),
    "sgd_state object slot value": (
        ingest_argv("sgd_state", SCHEMA),
        [{"dialogue_id": "x1", "turns": [
            {"speaker": "USER", "utterance": "hi",
             "frames": [{"state": {"slot_values": {"hotel-area": [{"x": 1}]}}}]}]}],
        "dialogue 'x1' turn 0 frame 0 slot_values 'hotel-area': expected a string",
    ),
    "woz_belief zero state value": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": [
            {"transcript": "hi", "belief_state": [{"slots": [["area", 0]]}]}]}],
        "dialogue '1' turn 0 slots 'area': expected a string",
    ),
    "m2m_flat zero state value": (
        ingest_argv("m2m_flat", "m2m"),
        [{"id": "sim-R-1", "domain": "restaurant", "turns": [
            {"user_utterance": {"text": "hi"},
             "dialogue_state": [{"slot": "price_range", "value": 0}]}]}],
        "dialogue 'sim-R-1' turn 0 dialogue_state value: expected a string",
    ),
    "sgd_state false slot value": (
        ingest_argv("sgd_state", SCHEMA),
        [{"dialogue_id": "x1", "turns": [
            {"speaker": "USER", "utterance": "hi",
             "frames": [{"state": {"slot_values": {"hotel-area": [False]}}}]}]}],
        "dialogue 'x1' turn 0 frame 0 slot_values 'hotel-area': expected a string",
    ),
    "canonical empty dialogue_id": (
        ["validate", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "", "split": "train",
          "turns": [{"index": 1, "system": "", "user": "hi", "state": {}}]}],
        "empty dialogue_id",
    ),
    "canonical no turns": (
        ["build", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "d1", "split": "train", "turns": []}],
        "dialogue record 0: dialogue 'd1': no turns",
    ),
    "woz_belief no turns": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": []}],
        "dialogue '1': no turns",
    ),
    "m2m_flat no turns": (
        ingest_argv("m2m_flat", "m2m"),
        [{"id": "sim-R-1", "turns": []}],
        "dialogue 'sim-R-1': no turns",
    ),
    "woz_belief record without an id": (
        ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 1, "dialogue": [{"transcript": "hi"}]},
         {"dialogue": [{"transcript": "hi"}]}],
        "record 1: no dialogue id field (dialogue_idx or dialogue_id)",
    ),
    "sgd_state only system turns": (
        ingest_argv("sgd_state", SCHEMA),
        [{"dialogue_id": "x1", "turns": [{"speaker": "SYSTEM", "utterance": "hello"}]}],
        "dialogue 'x1': no turns",
    ),
    # json.dumps writes a lone surrogate as the escape \\ud800, which no
    # UTF-8 output can write back.
    "canonical lone surrogate in build": (
        ["build", "--corpus", "{file}", "--schema", SCHEMA],
        [{"dialogue_id": "d1", "split": "train",
          "turns": [{"index": 1, "system": "", "user": "hi \ud800", "state": {}}]}],
        "$[0].turns[0].user: a \\u escape makes a lone surrogate",
    ),
    "canonical lone surrogate in ingest": (
        ingest_argv("canonical", SCHEMA),
        one_turn_corpus({"hotel-area": "north \udfff"}),
        '$[0].turns[0].state["hotel-area"]: a \\u escape makes a lone surrogate',
    ),
    "canonical lone surrogate key": (
        ["validate", "--corpus", "{file}", "--schema", SCHEMA],
        one_turn_corpus({"hotel-area\udc00": "north"}),
        '$[0].turns[0].state["hotel-area\\udc00"]: a \\u escape makes a lone surrogate',
    ),
    "predictions lone surrogate": (
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        b'{"dialogue_id": "fix007", "turn": 1, "slot_id": "hotel-area", "text": "north"}\n'
        b'{"dialogue_id": "fix007", "turn": 2, "slot_id": "hotel-area", "text": "\\ud83d"}\n',
        "line 2: $.text: a \\u escape makes a lone surrogate",
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


# The fixture corpus under one seeded structural mutation each: a command
# either runs or exits 1 with an error line naming a file it read, and
# leaves an existing --out file as it was.
MUTATED_CORPUS_ARGV = {
    "build": ["build", "--schema", SCHEMA],
    "eval": ["eval", "--schema", SCHEMA, "--predictions", PREDICTIONS, "--buckets", "mwz_len"],
}


@pytest.mark.parametrize("seed", range(200))
@pytest.mark.parametrize("command", sorted(MUTATED_CORPUS_ARGV))
def test_a_mutated_corpus_runs_or_exits_one_naming_a_file(capsys, tmp_path, command, seed):
    records = json.loads(Path(DIALOGUES).read_text(encoding="utf-8"))
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(mutate_json(random.Random(seed), records)), encoding="utf-8")
    out = tmp_path / "out"
    out.write_text("earlier output\n", encoding="utf-8")
    argv = [*MUTATED_CORPUS_ARGV[command], "--corpus", str(corpus), "--out", str(out)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: "), err
        # eval also names the predictions when they no longer fit the corpus
        assert str(corpus) in err or (command == "eval" and PREDICTIONS in err), err
        assert out.read_text(encoding="utf-8") == "earlier output\n"


def fixture_rows(text):
    return [json.loads(line) for line in text.splitlines()]


def fixture_examples():
    corpus = fixture_corpus()
    jsonl = "".join(build_dataset(corpus.dialogues[0], slot_prompts(corpus.schema)))
    return fixture_rows(jsonl)[:4]


FIXTURE_EXAMPLES = fixture_examples()


# Every other file a command reads, well-formed before one seeded
# structural mutation: (file name, argv with "{file}" for that file and
# "{examples}" for a well-formed examples file, content, other files the
# error may name instead). A list under a .jsonl name is written a row
# per line. A schema that lost a slot, say, makes the corpus or the
# template's questions name the slot. "overrides" is a template that holds
# questions alone, so that its mutations all fall on them.
MUTATED_FILES = {
    "bucket spec": (
        "spec.json", EVAL_ARGV + ["--buckets", "{file}"],
        {"axis": "turn", "edges": [[0, 5], [5, 10], [10, None]]}, (),
    ),
    "schema": (
        "schema.json",
        ["build", "--corpus", DIALOGUES, "--schema", "{file}", "--template-file", TEMPLATE],
        json.loads(Path(SCHEMA).read_text(encoding="utf-8")), (DIALOGUES, TEMPLATE),
    ),
    "predictions": (
        "predictions.jsonl",
        ["eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--predictions", "{file}"],
        fixture_rows(Path(PREDICTIONS).read_text(encoding="utf-8"))[:6], (),
    ),
    "examples": ("examples.jsonl", OFFLINE_REFINE_ARGV, FIXTURE_EXAMPLES, ()),
    "report": (
        "report.json", ["report", "--report", "{file}"],
        {"overall_jga": 0.5, "n_dialogues": 1, "n_turns": 2, "n_missing_predictions": 0,
         "policy": encode(DEFAULT_POLICY),
         "buckets": [
             {"axis": "step", "label": "0", "lo": 0, "hi": 1, "n_turns": 1, "jga": 1.0},
             {"axis": "step", "label": "1+", "lo": 1, "hi": None, "n_turns": 1, "jga": 0.0},
         ]},
        (),
    ),
    "refine config": (
        "config.json", ["refine", "--examples", "{examples}", "--config", "{file}", "--offline"],
        {"endpoint_url": "http://127.0.0.1:9/v1", "model_name": "m", "api_key_env_var": "KEY",
         "instruction": "Rewrite.", "demonstrations": [["system: a user: b", "a then b"]],
         "temperature": 0.5, "max_tokens": 16, "max_retries": 1, "backoff_base": 0.5,
         "request_timeout": 2.5, "max_parallel": 2, "cache_dir": "cache", "offline": True},
        (),
    ),
    "policy": (
        "policy.json", EVAL_ARGV + ["--policy", "{file}"],
        {"lowercase": True, "none_aliases": ["none", ""], "dontcare_aliases": ["dontcare"],
         "fuzzy_ratio_threshold": 0.5},
        (),
    ),
    "template": (
        "template.json",
        ["build", "--corpus", DIALOGUES, "--schema", SCHEMA, "--template-file", "{file}"],
        {"template_text": "[Domain] [History] [Question] [Choices]",
         "choices_section_marker": "Choices:", "questions": {"hotel-area": "Where?"}},
        (),
    ),
    "overrides": (
        "overrides.json", BUILD_ARGV + ["--template-file", "{file}"],
        {"questions": {"hotel-name": "Which hotel?", "hotel-area": "Where?"}}, (),
    ),
    "woz_belief": (
        "woz_train.json", ingest_argv("woz_belief", "woz20"),
        [{"dialogue_idx": 0, "dialogue": [
            {"system_transcript": "", "transcript": "korean food",
             "belief_state": [{"slots": [["food", "korean"]], "act": "inform"},
                              {"slots": [["slot", "address"]], "act": "request"}]},
            {"system_transcript": "which area?", "transcript": "the north",
             "belief_state": [{"slots": [["food", "korean"], ["area", "north"]]}]}]}],
        (),
    ),
    "m2m_flat": (
        "sim_R_train.json", ingest_argv("m2m_flat", "m2m"),
        [{"id": "sim-R-1", "domain": "restaurant", "turns": [
            {"user_utterance": {"text": "dinner tomorrow"},
             "dialogue_state": [{"slot": "date", "value": "tomorrow"}]},
            {"system_utterance": {"text": "what time?"}, "user_utterance": {"text": "7 pm"},
             "dialogue_state": [{"slot": "date", "value": "tomorrow"},
                                {"slot": "time", "value": "7 pm"}]}]}],
        (),
    ),
    "sgd_state": (
        "sgd_train.json", ingest_argv("sgd_state", SCHEMA),
        [{"dialogue_id": "MUL0001.json", "turns": [
            {"speaker": "USER", "utterance": "a hotel in the north",
             "frames": [{"state": {"slot_values": {"hotel-area": ["north"]}}}]},
            {"speaker": "SYSTEM", "utterance": "any stars?"},
            {"speaker": "USER", "utterance": "four",
             "frames": [{"state": {"slot_values": {"hotel-area": ["north"],
                                                    "hotel-stars": ["4", "four"]}}}]}]}],
        (),
    ),
}


def run_on_file(capsys, tmp_path, argv, path, content):
    """(exit code, stderr) of ``argv`` with ``content`` written to
    ``path`` in place of "{file}", and output to tmp_path/out."""
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(row) + "\n" for row in content), encoding="utf-8")
    else:
        path.write_text(json.dumps(content), encoding="utf-8")
    examples = tmp_path / "good_examples.jsonl"
    examples.write_text("".join(json.dumps(row) + "\n" for row in FIXTURE_EXAMPLES))
    fill = {"{file}": str(path), "{examples}": str(examples)}
    argv = [fill.get(arg, arg) for arg in argv]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    return code, err


@pytest.mark.parametrize("case", sorted(MUTATED_FILES))
def test_each_file_to_mutate_runs_as_it_is(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    name, argv, content, _ = MUTATED_FILES[case]
    code, err = run_on_file(capsys, tmp_path, argv, tmp_path / name, content)
    assert code == 0, err


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("case", sorted(MUTATED_FILES))
def test_a_mutated_input_file_runs_or_exits_one_naming_a_file(
    capsys, tmp_path, monkeypatch, case, seed
):
    monkeypatch.chdir(tmp_path)  # a mutated cache_dir stays in here
    name, argv, content, also_named = MUTATED_FILES[case]
    bad = tmp_path / name
    out = tmp_path / "out"
    out.write_text("earlier output\n", encoding="utf-8")
    code, err = run_on_file(capsys, tmp_path, argv, bad, mutate_json(random.Random(seed), content))
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error: "), err
        assert any(str(path) in err for path in (bad, *also_named)), err
        assert out.read_text(encoding="utf-8") == "earlier output\n"


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
    assert payload["counts"] == {str(steps): n for steps, n in histogram.items()}
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
        "--template-file", TEMPLATE, "--out", str(out_path),
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


def test_refine_offline_matches_golden_without_fingerprints(capsys, tmp_path, monkeypatch):
    def refuse(config, coarse):
        raise AssertionError("offline refine hashed a request fingerprint")

    monkeypatch.setattr("slotchain.refiner.request_fingerprint", refuse)
    golden = REPO / "tests" / "golden" / "e2e"
    out_path = tmp_path / "refined.jsonl"
    code, _, err = run(
        capsys, "refine", "--examples", str(golden / "examples_coarse.jsonl"), "--offline",
        "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    assert out_path.read_bytes() == (golden / "examples_refined.jsonl").read_bytes()


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
# bytes written: the example line writers against json.dumps

AWKWARD = 'Ünï "quoted" \\ back\u2028slash {braces} \x01 漢 😀'


def test_build_and_refine_write_the_bytes_of_json_dumps(capsys, tmp_path, monkeypatch):
    generated = make_corpus(random.Random(17), max_dialogues=4, max_turns=5, max_slots=4)
    dialogues = tuple(
        replace(dialogue, dialogue_id=f"{AWKWARD} {i}", turns=tuple(
            # a trailing blank, which render_prompt strips where the history ends a prompt
            replace(turn, user_utterance=f"{turn.user_utterance} {AWKWARD} \t")
            for turn in dialogue.turns
        ))
        for i, dialogue in enumerate(generated.dialogues)
    )
    awkward = Corpus(generated.schema, dialogues)
    corpus, schema = tmp_path / "corpus.json", tmp_path / "schema.json"
    corpus.write_text(corpus_to_json(awkward), encoding="utf-8")
    schema.write_text(json.dumps([encode(s) for s in generated.schema.slots]), encoding="utf-8")
    # [History] last, so that render_prompt strips the history's end
    template = PromptTemplate(f" [Question] [Choices] {AWKWARD}\n [History] \n", AWKWARD)
    template_path = tmp_path / "template.json"
    template_path.write_text(json.dumps(encode(template)), encoding="utf-8")
    arms = {
        "default": ([], {}),
        "include inactive": (["--include-inactive"], {"include_inactive": True}),
        "no explanations": (["--no-explanations"], {"include_explanations": False}),
        "custom template": (["--template-file", str(template_path)], {"template": template}),
    }
    escaped = json.dumps(AWKWARD, ensure_ascii=False)[1:-1].encode("utf-8")
    for arm, (flags, options) in arms.items():
        built = tmp_path / f"{arm}.jsonl"
        code, _, _ = run(capsys, "build", "--corpus", str(corpus), "--schema", str(schema),
                         *flags, "--out", str(built))
        assert code == 0
        # built one record at a time here, not by build_dataset
        records = reference_examples(awkward, **options)
        assert built.read_bytes() == "".join(map(reference_line, records)).encode("utf-8"), arm
        assert escaped in built.read_bytes()
        # bytes.splitlines, unlike str.splitlines, leaves AWKWARD's U+2028 whole
        lines = [line.decode("utf-8") for line in built.read_bytes().splitlines(keepends=True)]
        assert decode_lines(lines) == records, arm
        refined = {}  # refine runs here, in one process, so it also writes through the patch
        for writer in ("example_line", "reference"):
            with monkeypatch.context() as patch:
                if writer == "reference":
                    patch.setattr("slotchain.builder.example_line", reference_line)
                out = tmp_path / f"{arm} {writer} refined.jsonl"
                code, _, _ = run(capsys, "refine", "--examples", str(built), "--offline",
                                 "--max-parallel", "1", "--out", str(out))
                assert code == 0
                refined[writer] = out.read_bytes()
        assert escaped in refined["example_line"]
        assert refined["example_line"] == refined["reference"], arm


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
    returned = []

    def recorded(dialogue, *rest, **options):
        lines = build_dataset(dialogue, *rest, **options)
        returned.append((dialogue.dialogue_id, lines))
        return lines

    monkeypatch.setattr("slotchain.cli.build_dataset", recorded)
    out_path = build_examples_file(capsys, tmp_path)
    ids = sorted(d.dialogue_id for d in fixture_corpus().dialogues)
    assert [dialogue_id for dialogue_id, _ in returned] == ids
    for dialogue_id, lines in returned:
        assert {e.meta.dialogue_id for e in decode_lines(lines)} == {dialogue_id}
    assert out_path.read_text(encoding="utf-8") == "".join("".join(l) for _, l in returned)


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


def test_refine_offline_drops_only_whole_tag_words(capsys, tmp_path):
    examples_path = tmp_path / "examples.jsonl"
    coarse = "system: is the ecosystem: fine? user: log in as user:admin"
    examples_path.write_text(examples_to_jsonl((with_explanation(make_example(0), coarse),)),
                             encoding="utf-8")
    code, out, err = run(capsys, "refine", "--examples", str(examples_path), "--offline")
    assert (code, err) == (0, "")
    assert json.loads(out)["explanation"] == "is the ecosystem: fine? log in as user:admin"


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


@pytest.mark.parametrize("n_lines, expected", [(2, []), (3, [2])])
def test_refine_offline_of_one_chunk_starts_no_pool(
    capsys, tmp_path, monkeypatch, pools, n_lines, expected
):
    examples_path = tmp_path / "examples.jsonl"
    examples_path.write_text(examples_to_jsonl([make_example(i) for i in range(n_lines)]),
                             encoding="utf-8")
    inline = recording(monkeypatch, "refine_batch", refine_batch)
    code, _, err = refine_offline(capsys, examples_path, tmp_path / "refined.jsonl", 2)
    assert (code, err) == (0, "")
    assert pools == expected
    assert [len(chunk) for chunk in inline] == ([] if expected else [2])


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


# A child Python that refines in chunks of 2 lines, with two usable CPUs,
# under the start method argv[1], and prints the max_workers of each
# process pool that refine starts: argv[2:] is refine's argv.
POOL_UNDER_START_METHOD = """\
import concurrent.futures, multiprocessing, os, sys
import slotchain.cli as cli

multiprocessing.set_start_method(sys.argv[1])
cli.REFINE_CHUNK = 2
os.sched_getaffinity = lambda pid: {0, 1}
sizes = []

class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, max_workers=None, **options):
        sizes.append(max_workers)
        super().__init__(max_workers, **options)

concurrent.futures.ProcessPoolExecutor = RecordingPool
code = cli.main(sys.argv[2:])
print(sizes)
sys.exit(code)
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_refine_pool_under_start_method_writes_the_bytes_of_one_worker(tmp_path, method):
    # The other pool tests fork; macOS spawns, and Python 3.14 on Linux
    # uses forkserver. A worker there imports slotchain afresh.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    examples_path = tmp_path / "examples.jsonl"
    examples_path.write_text("".join(json.dumps(row) + "\n" for row in FIXTURE_EXAMPLES),
                             encoding="utf-8")
    outputs = {}
    for workers, pools in ((2, [2]), (1, [])):
        outputs[workers] = tmp_path / f"refined{workers}.jsonl"
        result = subprocess.run(
            [sys.executable, "-c", POOL_UNDER_START_METHOD, method, "refine", "--examples",
             str(examples_path), "--offline", "--max-parallel", str(workers),
             "--out", str(outputs[workers])],
            capture_output=True, text=True, check=False,
        )
        assert (result.returncode, result.stderr, result.stdout) == (0, "", f"{pools}\n")
    assert outputs[2].read_bytes() == outputs[1].read_bytes()


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


def test_eval_rejects_two_bucket_specs_on_one_axis(capsys):
    code, out, err = run(capsys, *EVAL_ARGV, "--buckets", "step", "mwz_turn", "woz_turn")
    assert code == 1
    assert out == ""
    assert err == (
        "error: --buckets mwz_turn and woz_turn both bucket the axis 'turn'; "
        "give one spec per axis\n"
    )


def test_eval_markdown_and_csv_formats(capsys, tmp_path):
    # eval writes the JSON report; report renders it as a table.
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval", "--corpus", DIALOGUES, "--schema", SCHEMA,
        "--predictions", PREDICTIONS, "--split", "test",
        "--buckets", "step", "--out", str(report_path),
    )
    assert code == 0
    code, markdown, _ = run(capsys, "report", "--report", str(report_path), "--format", "markdown")
    assert code == 0
    assert "overall JGA: 0.6667" in markdown
    assert "| 1 | 6 | 0.6667 |" in markdown
    code, csv_text, _ = run(capsys, "report", "--report", str(report_path), "--format", "csv")
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


def test_eval_checks_rows_of_every_split_but_scores_only_its_own(capsys, tmp_path):
    # The predictions are checked against the whole corpus before --split
    # narrows it: rows for a train dialogue leave a test report as it was,
    # and one of them with a turn out of range is still an error.
    argv = [
        "eval", "--corpus", DIALOGUES, "--schema", SCHEMA, "--split", "test",
        "--buckets", "step", "mwz_turn", "mwz_len",
    ]
    code, expected_out, expected_err = run(capsys, *argv, "--predictions", PREDICTIONS)
    assert code == 0
    rows = Path(PREDICTIONS).read_text(encoding="utf-8")
    train = [d for d in fixture_corpus().dialogues if d.split == "train"][0]
    train_rows = [
        {"dialogue_id": train.dialogue_id, "turn": turn.index, "slot_id": "hotel-area",
         "text": "north"}
        for turn in train.turns
    ]
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(rows + "".join(json.dumps(r) + "\n" for r in train_rows))
    code, out, err = run(capsys, *argv, "--predictions", str(predictions))
    assert (code, out, err) == (0, expected_out, expected_err)

    train_rows[-1]["turn"] = train.n_turns + 1
    predictions.write_text(rows + "".join(json.dumps(r) + "\n" for r in train_rows))
    code, out, err = run(capsys, *argv, "--predictions", str(predictions))
    assert (code, out) == (1, "")
    line = rows.count("\n") + len(train_rows)
    assert err == (
        f"error: {predictions}: line {line}: prediction turn {train.n_turns + 1} outside "
        f"dialogue {train.dialogue_id!r} with {train.n_turns} turns\n"
    )


def test_steps_come_from_the_gold_annotation_whatever_the_policy(capsys, tmp_path):
    # A change of case is no step under the default normalization. A
    # policy that keeps case changes matching only: stats, build and the
    # step buckets all put both turns at step 1.
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{"dialogue_id": "d1", "split": "test", "turns": [
        {"index": 1, "system": "", "user": "the Cambridge", "state": {"hotel-name": "Cambridge"}},
        {"index": 2, "system": "sure", "user": "yes", "state": {"hotel-name": "cambridge"}},
    ]}]), encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(
        '{"dialogue_id": "d1", "turn": 1, "slot_id": "hotel-name", "text": "Cambridge"}\n'
        '{"dialogue_id": "d1", "turn": 2, "slot_id": "hotel-name", "text": "cambridge"}\n',
        encoding="utf-8",
    )
    policy = tmp_path / "policy.json"
    policy.write_text('{"lowercase": false}', encoding="utf-8")
    corpus_args = ["--corpus", str(corpus), "--schema", SCHEMA]

    code, out, _ = run(capsys, "stats", *corpus_args, "--format", "json")
    assert (code, json.loads(out)["counts"]) == (0, {"1": 2})
    code, out, _ = run(capsys, "build", *corpus_args)
    assert code == 0
    assert [json.loads(line)["meta"]["step_count"] for line in out.splitlines()] == [1, 1]
    code, out, _ = run(
        capsys, "eval", *corpus_args, "--predictions", str(predictions),
        "--policy", str(policy), "--buckets", "step",
    )
    assert code == 0
    steps = {b["label"]: b["n_turns"] for b in json.loads(out)["buckets"]}
    assert steps == {"0": 0, "1": 2, "2": 0, "3+": 0}


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
    inputs = [SCHEMA, DIALOGUES, PREDICTIONS, TEMPLATE]
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
            "--template-file", TEMPLATE, "--out", str(examples_path),
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
    code, out, err = run(capsys, "stats", "--corpus", DIALOGUES, "--schema", SCHEMA,
                         "--out", str(out_path))
    assert (code, out, err) == (130, "", "error: stopped by SIGINT\n")
    assert out_path.read_text(encoding="utf-8") == "old output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.txt"]


# The child takes Ctrl-C as Python does by default even where the shell
# that started the tests ignores SIGINT, as it does for background jobs.
STOPPABLE = ("import signal, sys\n"
             "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
             "from slotchain.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")


def open_once_read(fifo, proc):
    """The write end of ``fifo``, opened once ``proc`` opens it to read;
    a child that exits first fails the test rather than hanging it."""
    deadline = time.monotonic() + 60
    while True:
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as exc:
            # ENXIO: no reader yet
            if exc.errno != errno.ENXIO or time.monotonic() > deadline:
                raise
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.01)
            continue
        os.set_blocking(fd, True)
        return open(fd, "wb")


@pytest.mark.parametrize("online", [False, True], ids=["offline", "online"])
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM, signal.SIGHUP],
                         ids=lambda signum: signal.Signals(signum).name)
def test_a_signal_stops_refine_with_one_line_and_the_old_out_file(tmp_path, signum, online):
    fifo = tmp_path / "examples.jsonl"
    os.mkfifo(fifo)
    out_path = tmp_path / "refined.jsonl"
    out_path.write_bytes(b"old output\n")
    argv = ["refine", "--examples", str(fifo), "--max-parallel", "1", "--out", str(out_path)]
    server = MockCompletionServer().start() if online else None
    if online:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "endpoint_url": server.url, "model_name": "test-model", "api_key_env_var": KEY_VAR,
            "demonstrations": [list(pair) for pair in DEMOS],
        }), encoding="utf-8")
        argv += ["--config", str(config_path), "--cache-dir", str(tmp_path / "cache")]
    else:
        argv.append("--offline")
    proc = subprocess.Popen(
        [sys.executable, "-c", STOPPABLE, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, KEY_VAR: "sekrit-key"},
    )
    try:
        # Refine opens the examples to read them after it opened its
        # temporary --out file; then it waits for the rest of a chunk.
        with open_once_read(fifo, proc) as writer:
            writer.write(examples_to_jsonl((make_example(0),)).encode("utf-8"))
            writer.flush()
            temporary = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
            assert len(temporary) == 1, temporary
            proc.send_signal(signum)
            out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        if server:
            server.stop()
    assert proc.returncode == 128 + signum, err
    assert (out, err) == (b"", f"error: stopped by {signal.Signals(signum).name}\n".encode())
    assert out_path.read_bytes() == b"old output\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    if online:
        assert server.requests == [] and not any((tmp_path / "cache").iterdir())


# STOPPABLE with two usable CPUs, so that an offline refine of more than
# one chunk starts a pool of two worker processes wherever the tests run.
STOPPABLE_POOLED = STOPPABLE.replace(
    "from slotchain.cli import main\n",
    "import slotchain.cli\nslotchain.cli._usable_cpus = lambda: 2\nfrom slotchain.cli import main\n",
)


def test_ctrl_c_stops_a_pooled_refine_with_one_line_and_no_child_left(tmp_path):
    fifo = tmp_path / "examples.jsonl"
    os.mkfifo(fifo)
    out_path = tmp_path / "refined.jsonl"
    out_path.write_bytes(b"old output\n")
    # A session of its own, so that the signal reaches the child's process
    # group, as a terminal's Ctrl-C does, and not the tests' own.
    proc = subprocess.Popen(
        [sys.executable, "-c", STOPPABLE_POOLED, "refine", "--examples", str(fifo), "--offline",
         "--max-parallel", "2", "--out", str(out_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    left = True
    try:
        with open_once_read(fifo, proc) as writer:
            lines = examples_to_jsonl(make_example(i) for i in range(5 * cli.REFINE_CHUNK + 10))
            writer.write(lines.encode("utf-8"))
            writer.flush()
            # The pool has refined and written a chunk; refine waits for more input.
            deadline = time.monotonic() + 60
            while not any(p.stat().st_size for p in tmp_path.iterdir() if p.suffix == ".tmp"):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        deadline = time.monotonic() + 10
        while left and time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)  # a worker outlived refine
                time.sleep(0.05)
            except ProcessLookupError:
                left = False
    finally:
        if left:  # the group is still there: end it
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 130, err
    assert (out, err) == (b"", b"error: stopped by SIGINT\n")
    assert out_path.read_bytes() == b"old output\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert not left


def test_build_into_a_pipe_closed_early_exits_one_with_one_line(tmp_path):
    fixture = fixture_corpus()
    # Some 2 MB of examples, far more than a pipe holds, so build is still
    # writing when its reader goes.
    corpus = Corpus(fixture.schema, tuple(
        replace(dialogue, dialogue_id=f"{dialogue.dialogue_id}-{i}")
        for i in range(40) for dialogue in fixture.dialogues
    ))
    corpus_path = tmp_path / "corpus.json"
    corpus_path.write_text(corpus_to_json(corpus), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "slotchain.cli", "build", "--corpus", str(corpus_path),
         "--schema", SCHEMA, "--include-inactive"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc:  # closes both pipes and waits
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert proc.returncode == 1, err
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_out_in_a_missing_directory_names_the_out_path(capsys, tmp_path):
    # Each of these commands has a note for stderr; none is printed before
    # the write that fails.
    out_path = tmp_path / "missing" / "out.json"
    corpus_args = ["--corpus", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)]
    for argv in (
        ["validate", *corpus_args],
        ["ingest", "--input", DIALOGUES, "--schema", SCHEMA, "--out", str(out_path)],
        ["sample", "--fraction", "0.5", *corpus_args],
        ["eval", "--predictions", PREDICTIONS, *corpus_args],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1 and err.startswith("error: "), err
        # the temporary file that could not be made is ".out.json.<hex>.tmp"
        assert str(out_path) in err and f".{out_path.name}." not in err, err
        assert not out_path.parent.exists()


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
