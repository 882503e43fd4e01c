"""The three workloads: their inputs, their CLI steps and their checks.

A workload's set-up writes its inputs into a work directory. A round runs
its CLI steps once, in order, through a step runner (a child process per
step, or ``cli.main`` in-process for the traced run). The first round's
outputs are checked against the benchmark's own recount; every later
round must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

API_KEY = "bench-key"
# At most this many refiner threads and endpoint connections.
PARALLEL = str(min(2, len(os.sched_getaffinity(0))))


@dataclass
class Step:
    name: str
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class Round:
    steps: list[Step] = field(default_factory=list)
    items: int = 0  # refine_api coarse items attempted over both passes
    unrefined: int = 0
    endpoint: dict = field(default_factory=dict)  # cold + warm endpoint counters

    @property
    def failed_steps(self) -> int:
        return sum(1 for s in self.steps if s.rc != 0)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


MWZ_SPLITS = (("train", 0.8), ("dev", 0.1), ("test", 0.1))


class Workload:
    name = ""
    dialogues = 0  # dialogues generated before any cut
    timed = {}  # step-timing name -> steps it sums

    def __init__(self, work: Path, seed: int, scale: float):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.n_dialogues = max(10, round(self.dialogues * scale))
        self.digest = None

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run_round(self, run) -> Round:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check_outputs(self, rnd: Round) -> None:
        raise NotImplementedError

    def check(self, rnd: Round) -> None:
        """Full check on the first round, byte comparison afterwards."""
        checks.expect(rnd.failed_steps == 0,
                       f"{rnd.failed_steps} step(s) exited non-zero: "
                       + ", ".join(f"{s.name}={s.rc}" for s in rnd.steps if s.rc))
        digest = _digest(*self.outputs())
        if self.digest is None:
            self.check_outputs(rnd)
            self.digest = digest
        else:
            checks.expect(digest == self.digest, "outputs differ from the first round's")

    def _write_corpus(self, cut=lambda corpus: corpus) -> list[dict]:
        """Generate the corpus, cut it to the workload's amount of work,
        and write it with the schema."""
        self.work.mkdir(parents=True, exist_ok=True)
        corpus = cut(gen.make_corpus(self.seed, self.n_dialogues, MWZ_SPLITS))
        gen.write_json(self.work / "schema.json", gen.schema_records())
        gen.write_json(self.work / "corpus.json", corpus)
        return corpus

    def _paths(self, *names: str) -> list[str]:
        return [str(self.work / name) for name in names]


class Prep(Workload):
    """stats, build and refine --offline over one corpus."""

    name = "prep"
    dialogues = 1200
    examples = 22000
    timed = {"stats_s": ("stats",), "build_s": ("build",), "refine_offline_s": ("refine_offline",)}

    def setup(self) -> None:
        self.corpus = self._write_corpus(
            lambda c: gen.until_examples(c, round(self.examples * self.scale)))

    def run_round(self, run) -> Round:
        corpus, schema, stats, examples, refined = self._paths(
            "corpus.json", "schema.json", "stats.json", "examples.jsonl", "refined.jsonl")
        rnd = Round()
        rnd.steps.append(run("stats", ["stats", "--corpus", corpus, "--schema", schema,
                                       "--format", "json", "--out", stats]))
        rnd.steps.append(run("build", ["build", "--corpus", corpus, "--schema", schema,
                                       "--out", examples]))
        rnd.steps.append(run("refine_offline", ["refine", "--examples", examples, "--offline",
                                                "--max-parallel", PARALLEL, "--out", refined]))
        return rnd

    def outputs(self) -> list[Path]:
        return [self.work / n for n in ("stats.json", "examples.jsonl", "refined.jsonl")]

    def check_outputs(self, rnd: Round) -> None:
        stats, examples, refined = self.outputs()
        checks.check_stats(stats, self.corpus)
        checks.check_build(examples, self.corpus)
        checks.check_offline_refined(examples, refined)


class RefineApi(Workload):
    """refine against the local endpoint: a cold pass into an empty cache
    directory, then the same command over the filled cache, repeated so
    that the warm passes carry about 40% of a round's time."""

    name = "refine_api"
    dialogues = 400
    distinct_coarse = 200
    items_per_distinct = 5.0  # the generated corpus's own ratio, 5.05
    warm_passes = 8
    warm = tuple(f"refine_warm{i}" for i in range(1, warm_passes + 1))
    timed = {"refine_cold_s": ("refine_cold",), "refine_warm_s": warm}

    def setup(self) -> None:
        corpus = self._write_corpus(lambda c: gen.coarse_slice(
            c, round(self.distinct_coarse * self.scale), self.items_per_distinct))
        records = list(gen.example_records(corpus))
        gen.write_jsonl(self.work / "coarse.jsonl", records)
        coarse = [r["explanation"] for r in records if r["explanation"]]
        self.coarse_items, self.distinct = len(coarse), len(set(coarse))
        self.endpoint = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("endpoint.py"))],
            stdout=subprocess.PIPE, text=True)
        line = self.endpoint.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        gen.write_json(self.work / "refine_config.json", {
            "endpoint_url": f"{self.base_url}/v1/completions",
            "model_name": "bench-model",
            "demonstrations": [["system: user: i need a cheap hotel",
                                "The user asks for a cheap hotel."]],
            "max_retries": 3,
            "backoff_base": 0.05,
            "request_timeout": 30,
        })

    def close(self) -> None:
        endpoint = getattr(self, "endpoint", None)
        if endpoint is not None:
            endpoint.terminate()
            endpoint.wait(timeout=30)
            endpoint.stdout.close()
            self.endpoint = None

    def _endpoint(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.base_url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def run_round(self, run) -> Round:
        examples, config, cache = self._paths("coarse.jsonl", "refine_config.json", "cache")
        shutil.rmtree(cache, ignore_errors=True)
        rnd = Round()
        for name in ("refine_cold", *self.warm):
            out = self.work / f"{name}.jsonl"
            self._endpoint("POST", "/reset")
            rnd.steps.append(run(name, ["refine", "--examples", examples, "--config", config,
                                        "--max-parallel", PARALLEL, "--cache-dir", cache,
                                        "--out", str(out)]))
            rnd.endpoint[name] = self._endpoint("GET", "/stats")
            rnd.items += self.coarse_items
            rnd.unrefined += self._unrefined(out)
        return rnd

    def _unrefined(self, out: Path) -> int:
        if not out.exists():
            return self.coarse_items
        with out.open(encoding="utf-8") as handle:
            return sum(json.loads(line)["explanation_kind"] == "coarse" for line in handle)

    def outputs(self) -> list[Path]:
        return [self.work / f"{name}.jsonl" for name in ("refine_cold", *self.warm)]

    def check(self, rnd: Round) -> None:
        checks.expect(rnd.unrefined == 0, f"{rnd.unrefined} coarse item(s) left unrefined")
        checks.check_cold_counts(rnd.endpoint["refine_cold"], self.coarse_items, self.distinct)
        cold, *warm = self.outputs()
        for name, out in zip(self.warm, warm):
            requests = rnd.endpoint[name]["requests"]
            checks.expect(requests == 0, f"{name} sent {requests} requests")
            checks.expect(out.read_bytes() == cold.read_bytes(),
                          f"{name} output differs from the cold pass output")
        super().check(rnd)

    def check_outputs(self, rnd: Round) -> None:
        checks.check_api_refined(self.work / "coarse.jsonl", self.work / "refine_cold.jsonl")


class Score(Workload):
    """stats, then eval with three bucket specs over planted predictions,
    then report re-renders the result as markdown and csv."""

    name = "score"
    dialogues = 3000
    timed = {"stats_s": ("stats",), "eval_s": ("eval", "report_md", "report_csv")}

    def setup(self) -> None:
        self.corpus = self._write_corpus()
        rows, self.plan, self.omitted = gen.plant_predictions(self.seed, self.corpus, "test")
        gen.write_jsonl(self.work / "predictions.jsonl", rows)

    def run_round(self, run) -> Round:
        corpus, schema, stats, predictions, report, md, csv = self._paths(
            "corpus.json", "schema.json", "stats.json", "predictions.jsonl", "report.json",
            "report.md", "report.csv")
        rnd = Round()
        rnd.steps.append(run("stats", ["stats", "--corpus", corpus, "--schema", schema,
                                       "--format", "json", "--out", stats]))
        rnd.steps.append(run("eval", ["eval", "--corpus", corpus, "--schema", schema,
                                      "--predictions", predictions, "--split", "test",
                                      "--buckets", "step", "mwz_turn", "mwz_len",
                                      "--out", report]))
        for name, fmt, out in (("report_md", "markdown", md), ("report_csv", "csv", csv)):
            rnd.steps.append(run(name, ["report", "--report", report, "--format", fmt,
                                        "--out", out]))
        return rnd

    def outputs(self) -> list[Path]:
        return [self.work / n for n in ("stats.json", "report.json", "report.md", "report.csv")]

    def check_outputs(self, rnd: Round) -> None:
        stats, report, md, csv = self.outputs()
        checks.check_stats(stats, self.corpus)
        expected = gen.expected_report(self.corpus, "test", self.plan, self.omitted)
        checks.check_report(report, md, csv, expected)


WORKLOADS = {w.name: w for w in (Prep, RefineApi, Score)}
STEP_NAMES = list(dict.fromkeys(name for w in WORKLOADS.values() for name in w.timed))


def timed_setup(workload: Workload, times: int) -> list[float]:
    """Set the workload up ``times`` times; the last set-up stays in place."""
    durations = []
    for _ in range(times):
        workload.close()
        start = time.perf_counter()
        workload.setup()
        durations.append(time.perf_counter() - start)
    return durations
