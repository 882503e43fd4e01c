"""Self-test of the benchmark, in well under a minute:

    python3 bench/selftest.py

1. Runs every workload through bench/run.py at a tiny size, untraced and
   traced, and checks that the last line carries exactly the metrics
   BENCHMARK.json lists, with no failed operation.
2. Shows that each correctness check rejects a corrupted output: a
   swapped refined text (offline and online), a dropped example, a wrong
   step histogram, a wrong JGA, a markdown render that disagrees, and a
   warm refine pass whose output differs from the cold one.
3. Shows that a wrapped function that no longer exists is reported as
   absent rather than failing the traced run.
4. Shows that the benchmark exits non-zero without a result in a
   directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from run import subprocess_runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
WORK = ROOT / "bench_work" / "selftest"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_command() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(got) ^ set(want))}"
            print(f"ok   {workload} --trace {trace}: {result['attempted']} operations")


def rejects(what: str, check, path: Path, corrupt) -> None:
    """``check`` passes on the real output and fails once ``corrupt`` has
    rewritten ``path``."""
    check()
    original = path.read_bytes()
    path.write_bytes(corrupt(original))
    try:
        check()
    except checks.CheckFailed as exc:
        print(f"ok   {what} rejected: {exc}")
    else:
        raise AssertionError(f"{what} was not rejected")
    finally:
        path.write_bytes(original)


def swap_refined(data: bytes) -> bytes:
    """Swap the explanations of the first two refined examples whose
    texts differ."""
    rows = [json.loads(line) for line in data.decode().splitlines()]
    refined = [r for r in rows if r["explanation_kind"] == "refined"]
    first = refined[0]
    second = next(r for r in refined if r["explanation"] != first["explanation"])
    first["explanation"], second["explanation"] = second["explanation"], first["explanation"]
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode()


def drop_line(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[len(lines) // 2]
    return b"".join(lines)


def edit_json(edit):
    def corrupt(data: bytes) -> bytes:
        payload = json.loads(data)
        edit(payload)
        return json.dumps(payload).encode()
    return corrupt


def check_corruptions() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    made = {}
    for name, cls in WORKLOADS.items():
        workload = cls(WORK / name, 3, SCALE)
        workload.setup()
        try:
            rnd = workload.run_round(subprocess_runner(workload.work))
            workload.check(rnd)
        finally:
            workload.close()
        made[name] = (workload, rnd)

    prep, _ = made["prep"]
    work = prep.work
    rejects("dropped example", lambda: checks.check_build(work / "examples.jsonl", prep.corpus),
            work / "examples.jsonl", drop_line)
    rejects("swapped offline refined text",
            lambda: checks.check_offline_refined(work / "examples.jsonl", work / "refined.jsonl"),
            work / "refined.jsonl", swap_refined)
    rejects("wrong step histogram", lambda: checks.check_stats(work / "stats.json", prep.corpus),
            work / "stats.json", edit_json(lambda s: s["counts"].update({"1": s["counts"]["1"] + 1})))

    api, rnd = made["refine_api"]
    work = api.work
    rejects("swapped online refined text",
            lambda: checks.check_api_refined(work / "coarse.jsonl", work / "refine_cold.jsonl"),
            work / "refine_cold.jsonl", swap_refined)
    rejects("warm output differing from cold", lambda: api.check(rnd),
            work / f"{api.warm[-1]}.jsonl", drop_line)

    score, _ = made["score"]
    work = score.work
    expected = gen.expected_report(score.corpus, "test", score.plan, score.omitted)

    def report_check():
        checks.check_report(work / "report.json", work / "report.md", work / "report.csv",
                            expected)
    rejects("wrong JGA", report_check, work / "report.json",
            edit_json(lambda r: r.update(overall_jga=r["overall_jga"] + 0.01)))
    rejects("wrong bucket JGA", report_check, work / "report.json",
            edit_json(lambda r: r["buckets"][1].update(jga=r["buckets"][1]["jga"] / 2)))
    rejects("markdown disagreeing with the JSON", report_check, work / "report.md",
            lambda data: data.replace(b"| 1 |", b"| 1x |", 1))
    shutil.rmtree(WORK, ignore_errors=True)


def check_absent() -> None:
    """A wrapped function that no longer exists is reported, not fatal."""
    sys.path.insert(0, str(ROOT / "src"))
    modules = spans.library_modules()
    cli, builder = modules["cli"], modules["builder"]
    modules["builder"] = types.SimpleNamespace(**{
        k: v for k, v in vars(builder).items() if k != "extract_chain"})
    tracer = spans.Tracer()
    with spans.traced(tracer, modules):
        pass
    assert tracer.absent == {"builder.extract_chain"}, tracer.absent
    assert spans.layer_metrics(tracer)["chains.extract_chain_calls"] == 0
    assert cli.build_dataset is builder.build_dataset  # wrappers removed again
    print("ok   a missing function is reported as absent")


def check_bare_directory() -> None:
    bare = ROOT / "bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("prep", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without a source tree: exit {proc.returncode}, no result")


if __name__ == "__main__":
    check_corruptions()
    check_command()
    check_absent()
    check_bare_directory()
    with contextlib.suppress(OSError):
        (ROOT / "bench_work").rmdir()
    print("self-test passed")
