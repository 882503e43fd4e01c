"""Acceptance checks for the whole pipeline.

Each check contributes exactly one PASS / FAIL / SKIP line to the
scorecard that conftest prints after the run, so a full run ends with
a nine-line summary. Dataset-bound checks (1 and 2) skip cleanly when
the corresponding corpora are not on this machine; point the
environment variables SLOTCHAIN_MWZ22_DIR, SLOTCHAIN_M2M_DIR,
SLOTCHAIN_WOZ_DIR at local copies to enable them.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from slotchain.builder import parse_generation
from slotchain.chains import step_histogram
from slotchain.corpus import (
    SPLITS,
    Corpus,
    Dialogue,
    Schema,
    TurnPair,
    load_corpus,
    load_schema,
)
from slotchain.errors import ValidationError
from slotchain.evaluator import (
    fine_grained_report,
    index_predictions,
    load_bucket_spec,
    low_resource_sample,
)
from slotchain.normalize import DEFAULT_POLICY
from slotchain.refiner import RefineConfig, refine_batch, refine_one, strip_speaker_tags

from gen import make_corpus, make_predictions
from oracles import (
    oracle_chain,
    oracle_jga,
    oracle_multi_step_fraction,
    oracle_step_histogram,
    render_target,
)
from test_chains import chain_at
from test_corpus import load_sgd_schema
from test_refiner import DEMOS, KEY_VAR, MockCompletionServer, make_example

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "e2e"

SCORECARD: list[str] = []


def criterion(number: int, title: str):
    """Record one scorecard line for the wrapped check, whatever happens."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                SCORECARD.append(f"criterion {number} SKIP  {title}: {exc}")
                raise
            except BaseException:
                SCORECARD.append(f"criterion {number} FAIL  {title}")
                raise
            SCORECARD.append(f"criterion {number} PASS  {title}")
            return result

        return inner

    return wrap


def fixture_corpus():
    schema = load_schema(FIXTURES / "fixture_schema.json")
    return load_corpus([FIXTURES / "fixture_dialogues.json"], schema)


def _find_dataset(env_var: str, marker: str, *candidates: str) -> Path | None:
    roots = []
    if os.environ.get(env_var):
        roots.append(Path(os.environ[env_var]))
    here = Path(__file__).parent.parent
    roots += [here / c for c in candidates]
    for root in roots:
        if (root / marker).exists():
            return root
    return None


def _find_mwz22() -> Path | None:
    return _find_dataset(
        "SLOTCHAIN_MWZ22_DIR", "schema.json", "data/multiwoz22", "data/MultiWOZ_2.2"
    )


def _find_m2m() -> Path | None:
    return _find_dataset(
        "SLOTCHAIN_M2M_DIR", "sim-R/train.json", "data/m2m", "data/simulated-dialogue"
    )


def _find_woz() -> Path | None:
    return _find_dataset(
        "SLOTCHAIN_WOZ_DIR", "woz_train_en.json", "data/woz", "data/woz2.0"
    )


def _bundled_schema(name: str):
    from slotchain.cli import _load_schema_arg

    return _load_schema_arg(name)


def _m2m_split_counts(root: Path) -> dict[str, int]:
    """Dialogues per split over sim-R and sim-M. Each sim is read against
    its own domain of the bundled m2m schema, because slots such as
    num_people exist in both and are ambiguous without a domain; the
    parts then have different schemas, so their counts are summed rather
    than the corpora merged."""
    schema = _bundled_schema("m2m")
    counts = dict.fromkeys(SPLITS, 0)
    for sim, domain in (("sim-R", "restaurant"), ("sim-M", "movie")):
        sim_schema = Schema(tuple(s for s in schema.slots if s.domain == domain))
        for split in SPLITS:
            part = load_corpus(
                [root / sim / f"{split}.json"], sim_schema, style="m2m_flat", split=split
            )
            for name, n in part.split_counts().items():
                counts[name] += n
    return counts


def _ingest_mwz22(root: Path):
    """MultiWOZ 2.2 in SGD layout, one directory per split, each file
    taking its split from its directory."""
    paths = [path for split in SPLITS for path in sorted((root / split).glob("dialogues_*.json"))]
    schema = load_sgd_schema(root / "schema.json")
    return load_corpus(paths, schema, {"police", "hospital"}, style="sgd_state")


# ---------------------------------------------------------------------------


@criterion(1, "multi-step share of active samples")
def test_criterion_1_multi_step_ratio():
    corpus = fixture_corpus()
    histogram = step_histogram(corpus)
    assert histogram == oracle_step_histogram(corpus, None, DEFAULT_POLICY)
    assert histogram == {1: 28, 2: 5, 3: 2}
    root = _find_mwz22()
    if root is None:
        pytest.skip(
            "fixture histogram matches its brute-force recount exactly; "
            "MultiWOZ 2.2 not present locally"
        )
    start = time.monotonic()
    corpus = _ingest_mwz22(root)
    histogram = step_histogram(corpus.only("train"))
    elapsed = time.monotonic() - start
    fraction = oracle_multi_step_fraction(histogram)
    assert 0.35 <= fraction <= 0.45, fraction
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion(2, "dataset split counts")
def test_criterion_2_dataset_statistics():
    checked = []
    mwz = _find_mwz22()
    if mwz is not None:
        counts = _ingest_mwz22(mwz).split_counts()
        for split, expected in (("train", 8445), ("dev", 1000), ("test", 1000)):
            got = counts.get(split, 0)
            assert abs(got - expected) <= math.ceil(0.01 * expected), (split, got)
        checked.append(f"multiwoz22={counts}")
    m2m = _find_m2m()
    if m2m is not None:
        counts = _m2m_split_counts(m2m)
        assert counts == {"train": 1500, "dev": 469, "test": 1039}, counts
        checked.append(f"m2m={counts}")
    woz = _find_woz()
    if woz is not None:
        schema = _bundled_schema("woz20")
        paths = [woz / f"woz_{name}_en.json" for name in ("train", "validate", "test")]
        counts = load_corpus(paths, schema, style="woz_belief").split_counts()
        assert counts == {"train": 600, "dev": 200, "test": 400}, counts
        checked.append(f"woz={counts}")
    if not checked:
        pytest.skip("no dataset present locally (MultiWOZ 2.2, M2M, WOZ 2.0)")


def test_m2m_split_counts_on_one_dialogue_per_file(tmp_path):
    # Criterion 2 skips without the M2M release, so its M2M path is
    # checked here on files shaped like it: no "domain" field, and a
    # num_people slot that both sims share.
    for sim, slot in (("sim-R", "restaurant_name"), ("sim-M", "movie")):
        (tmp_path / sim).mkdir()
        for split in SPLITS:
            dialogue = {
                "dialogue_id": f"{sim}-{split}",
                "turns": [
                    {
                        "user_utterance": {"text": "a table for two"},
                        "dialogue_state": [{"slot": "num_people", "value": "2"}],
                    },
                    {
                        "system_utterance": {"text": "which one?"},
                        "user_utterance": {"text": "the first"},
                        "dialogue_state": [
                            {"slot": "num_people", "value": "2"},
                            {"slot": slot, "value": "first"},
                        ],
                    },
                ],
            }
            (tmp_path / sim / f"{split}.json").write_text(json.dumps([dialogue]))
    assert _m2m_split_counts(tmp_path) == {"train": 2, "dev": 2, "test": 2}


def test_mwz22_ingest_on_one_dialogue_per_split(tmp_path):
    # Criteria 1 and 2 skip without MultiWOZ 2.2, so its ingest path is
    # checked here on files shaped like it: SGD layout, one directory per
    # split, and a police dialogue that the excluded domains drop.
    services = [
        {"service_name": domain, "slots": [{"name": f"{domain}-area", "description": "area"}]}
        for domain in ("hotel", "police")
    ]
    (tmp_path / "schema.json").write_text(json.dumps(services))

    def dialogue(dialogue_id, domain):
        frame = {"service": domain, "state": {"slot_values": {f"{domain}-area": ["north"]}}}
        return {
            "dialogue_id": dialogue_id,
            "turns": [{"speaker": "USER", "utterance": "in the north", "frames": [frame]}],
        }

    for split in SPLITS:
        (tmp_path / split).mkdir()
        dialogues = [dialogue(f"{split}.json", "hotel"), dialogue(f"{split}-p.json", "police")]
        (tmp_path / split / "dialogues_001.json").write_text(json.dumps(dialogues))
    corpus = _ingest_mwz22(tmp_path)
    assert corpus.split_counts() == {"train": 1, "dev": 1, "test": 1}
    assert {d.split for d in corpus.dialogues if d.dialogue_id == "dev.json"} == {"dev"}

    (tmp_path / "test" / "dialogues_001.json").write_text(
        json.dumps([dialogue("train.json", "hotel")])
    )
    with pytest.raises(ValidationError, match="duplicate dialogue_id 'train.json'"):
        _ingest_mwz22(tmp_path)


def numbered(rows):
    """Prediction rows as load_predictions reads them from a file."""
    return ((i, f"rows: line {i}", row) for i, row in enumerate(rows, start=1))


@criterion(3, "joint goal accuracy equals the brute-force recount")
def test_criterion_3_jga_oracle_equivalence():
    start = time.monotonic()
    for seed in range(1000):
        rng = random.Random(seed)
        corpus = make_corpus(rng, max_dialogues=5, max_turns=6, max_slots=4)
        rows = make_predictions(rng, corpus)
        predictions = index_predictions(corpus, lambda: numbered(rows))
        expected = oracle_jga(corpus, rows, DEFAULT_POLICY)
        got = fine_grained_report(corpus, predictions).overall_jga
        assert got == expected, f"seed {seed}: {got} != {expected}"
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(4, "buckets partition the turns and average back to the overall score")
def test_criterion_4_fine_grained_consistency():
    specs = [load_bucket_spec(name) for name in ("step", "mwz_turn", "mwz_len")]
    start = time.monotonic()
    for seed in range(1000):
        rng = random.Random(seed)
        corpus = make_corpus(rng, max_dialogues=5, max_turns=6, max_slots=4)
        rows = make_predictions(rng, corpus)
        predictions = index_predictions(corpus, lambda: numbered(rows))
        report = fine_grained_report(corpus, predictions, specs=specs)
        for axis in ("step", "turn", "len"):
            buckets = [b for b in report.buckets if b.axis == axis]
            assert sum(b.n_turns for b in buckets) == report.n_turns, f"seed {seed}"
            if report.n_turns:
                weighted = sum(b.jga * b.n_turns for b in buckets if b.n_turns)
                assert abs(weighted / report.n_turns - report.overall_jga) <= 1e-12, (
                    f"seed {seed} axis {axis}"
                )
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(5, "chain extraction equals the per-turn state-diff oracle")
def test_criterion_5_chain_oracle_equivalence():
    start = time.monotonic()
    deletions_seen = 0
    for seed in range(1000):
        rng = random.Random(seed)
        corpus = make_corpus(rng, max_dialogues=5, max_turns=6, max_slots=4)
        for dialogue in corpus.dialogues:
            for slot in corpus.schema.slots:
                previous: list = []
                for turn in dialogue.turns:
                    chain = chain_at(dialogue, slot.slot_id, turn.index)
                    expected = oracle_chain(
                        dialogue, slot.slot_id, turn.index, DEFAULT_POLICY
                    )
                    assert chain == expected, (
                        f"seed {seed} {dialogue.dialogue_id} {slot.slot_id} t{turn.index}"
                    )
                    assert chain[: len(previous)] == previous
                    previous = chain
                    deletions_seen += sum(value == "none" for _, value in chain)
    elapsed = time.monotonic() - start
    assert deletions_seen > 0, "random corpora never exercised a deletion"
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(6, "render then parse is the identity on value/explanation pairs")
def test_criterion_6_target_round_trip():
    rng = random.Random(6)
    fragments = [
        "cheap", "north", "el shaddai", "guest house", "19:30", "a. b",
        "st. john's college", "two of us", "don't care", "4", "none",
        "the user said so", "value | with pipes", "café jello",
    ]

    def make_value():
        while True:
            value = " ".join(rng.sample(fragments, rng.randint(1, 3)))
            value = value.strip()
            if value and " | " not in value:
                return value

    def make_explanation():
        if rng.random() < 0.2:
            return ""
        return " ".join(rng.sample(fragments, rng.randint(1, 4))).strip()

    for trial in range(500):
        value = make_value()
        explanation = make_explanation()
        rendered = render_target(value, explanation)
        assert parse_generation(rendered) == (value, explanation), (
            f"trial {trial}: {rendered!r}"
        )
    assert parse_generation("4") == ("4", "")
    assert parse_generation("  4  ") == ("4", "")


@criterion(7, "refiner protocol: retries, cache, concurrency ceiling, order")
def test_criterion_7_refiner_protocol(tmp_path, monkeypatch):
    monkeypatch.setenv(KEY_VAR, "sekrit-key")
    server = MockCompletionServer().start()
    try:
        config = RefineConfig(
            endpoint_url=server.url,
            model_name="test-model",
            api_key_env_var=KEY_VAR,
            demonstrations=DEMOS,
            backoff_base=0.0,
            max_retries=3,
            max_parallel=3,
            cache_dir=str(tmp_path / "cache"),
        )
        server.script += [(429, {"error": "slow down"}), (429, {"error": "slow down"})]
        result = refine_one("system: Rate limit me twice. user: Please.", config)
        assert result.source == "api"
        assert server.n_requests == 3

        examples = tuple(make_example(i) for i in range(8))
        server.delay = 0.05
        before = server.n_requests
        _, failures = refine_batch(examples, config)
        assert failures == ()
        assert server.peak_in_flight <= 3
        cold_requests = server.n_requests - before
        assert cold_requests == 8

        assert server.peak_in_flight >= 2

        warm, failures = refine_batch(examples, config)
        assert failures == ()
        assert server.n_requests == before + cold_requests
        assert [e.example_id for e in warm] == [e.example_id for e in examples]
        assert all(e.explanation_kind == "refined" for e in warm)
    finally:
        server.stop()
    coarse = "system: The York is 5-star. user: Book it."
    offline = RefineConfig(offline=True)
    assert refine_one(coarse, offline).refined == "The York is 5-star. Book it."
    assert refine_one(coarse, offline).refined == strip_speaker_tags(coarse)


@criterion(8, "sampler determinism, ceiling size, whole dialogues")
def test_criterion_8_sampler():
    schema = fixture_corpus().schema
    dialogues = tuple(
        Dialogue(
            dialogue_id=f"train{i:04d}",
            split="train",
            turns=(TurnPair(1, "", "hello there", {}),),
        )
        for i in range(600)
    )
    corpus = Corpus(schema=schema, dialogues=dialogues)
    by_id = {d.dialogue_id: d for d in corpus.dialogues}
    for fraction in (0.01, 0.05, 0.10, 0.20):
        first = low_resource_sample(corpus, fraction, seed=13)
        second = low_resource_sample(corpus, fraction, seed=13)
        assert [d.dialogue_id for d in first.dialogues] == [
            d.dialogue_id for d in second.dialogues
        ]
        assert len(first.dialogues) == math.ceil(fraction * 600)
        for dialogue in first.dialogues:
            assert dialogue == by_id[dialogue.dialogue_id]
    assert len(low_resource_sample(corpus, 0.01, seed=13).dialogues) == 6


@criterion(9, "end-to-end golden run is byte-identical")
def test_criterion_9_end_to_end_golden(tmp_path):
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "slotchain.cli", *argv],
            capture_output=True,
            text=True,
            check=False,
        )

    schema = str(FIXTURES / "fixture_schema.json")
    out = {name: str(tmp_path / name) for name in (
        "corpus.json", "stats.txt", "stats.json", "examples_coarse.jsonl",
        "examples_bare.jsonl", "examples_refined.jsonl", "examples_inactive.jsonl",
        "examples_history_last.jsonl", "sampled.json",
        "report.json", "report.md", "report.csv",
    )}
    steps = [
        ("ingest", "--input", str(FIXTURES / "fixture_dialogues.json"),
         "--schema", schema, "--out", out["corpus.json"]),
        ("stats", "--corpus", out["corpus.json"], "--schema", schema,
         "--out", out["stats.txt"]),
        ("stats", "--corpus", out["corpus.json"], "--schema", schema,
         "--format", "json", "--out", out["stats.json"]),
        ("build", "--corpus", out["corpus.json"], "--schema", schema,
         "--template-file", str(FIXTURES / "prompt_template.json"),
         "--out", out["examples_coarse.jsonl"]),
        ("build", "--corpus", out["corpus.json"], "--schema", schema,
         "--template-file", str(FIXTURES / "prompt_template.json"),
         "--no-explanations", "--out", out["examples_bare.jsonl"]),
        ("build", "--corpus", out["corpus.json"], "--schema", schema,
         "--include-inactive", "--out", out["examples_inactive.jsonl"]),
        ("build", "--corpus", out["corpus.json"], "--schema", schema,
         "--template-file", str(FIXTURES / "prompt_template_history_last.json"),
         "--out", out["examples_history_last.jsonl"]),
        ("refine", "--examples", out["examples_coarse.jsonl"], "--offline",
         "--out", out["examples_refined.jsonl"]),
        ("sample", "--corpus", out["corpus.json"], "--schema", schema,
         "--fraction", "0.2", "--seed", "13", "--out", out["sampled.json"]),
        ("eval", "--corpus", out["corpus.json"], "--schema", schema,
         "--predictions", str(FIXTURES / "predictions.jsonl"), "--split", "test",
         "--buckets", "step", "mwz_turn", "mwz_len", "--out", out["report.json"]),
        ("report", "--report", out["report.json"], "--format", "markdown",
         "--out", out["report.md"]),
        ("report", "--report", out["report.json"], "--format", "csv",
         "--out", out["report.csv"]),
    ]
    for argv in steps:
        result = cli(*argv)
        assert result.returncode == 0, (argv[0], result.stderr)
    for name, path in out.items():
        produced = Path(path).read_bytes()
        expected = (GOLDEN / name).read_bytes()
        assert produced == expected, f"{name} diverged from its golden copy"
    report = json.loads(Path(out["report.json"]).read_text(encoding="utf-8"))
    assert report["overall_jga"] == 2 / 3
    assert report["n_missing_predictions"] == 20
    corrupt = cli(
        "eval", "--corpus", out["corpus.json"], "--schema", schema,
        "--predictions", str(FIXTURES / "predictions_corrupt_line7.jsonl"),
        "--split", "test",
    )
    assert corrupt.returncode == 1
    assert "line 7" in corrupt.stderr
