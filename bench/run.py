"""slotchain benchmark: runs one workload for a fixed time and prints its
metrics as the last line of standard output.

    python3 bench/run.py --workload prep --seed 1 --seconds 20 --trace 0

Run from the root of a slotchain source tree. With ``--trace 0`` every CLI
step runs as its own process (``python -m slotchain.cli`` with
``PYTHONPATH=src``) and the end-to-end metrics are reported, their times
scaled by a reference task timed before every round. With
``--trace 1`` the steps run in-process through ``slotchain.cli.main``,
rounds alternating between untraced and traced, and the per-layer metrics
are reported. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import API_KEY, STEP_NAMES, WORKLOADS, Round, Step, timed_setup  # noqa: E402

SETUPS = 9
STEP_TIMEOUT_S = 120
# bench/reference.py's spawn-to-exit time on the machine the benchmark was
# tuned on; reported times are scaled to that machine's speed
REFERENCE_S = 0.75


def subprocess_runner(work: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COTE_API_KEY=API_KEY)

    def run(name: str, args: list[str]) -> Step:
        with open(work / f"{name}.stderr", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "slotchain.cli", *args], env=env,
                                    cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            # reap with wait4 to read this child's own resource usage
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Step(name, proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024)
    return run


def reference_s() -> float:
    """Spawn-to-exit time of bench/reference.py."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")], check=True,
                   stdin=subprocess.DEVNULL, timeout=STEP_TIMEOUT_S)
    return time.perf_counter() - start


def inprocess_runner(cli):
    """Steps through cli.main in this process."""
    def run(name: str, args: list[str]) -> Step:
        start = time.perf_counter()
        rc = cli.main(args)
        return Step(name, rc, time.perf_counter() - start, 0.0)
    return run


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def step_times(workload, rounds: list[Round]) -> dict[str, float]:
    """Median over rounds of each named step timing."""
    return {
        name: median(sum(s.wall_s for s in r.steps if s.name in steps) for r in rounds)
        for name, steps in workload.timed.items()
    }


def run_rounds(workload, run, seconds: float, min_rounds: int = 1) -> tuple[list[Round], str]:
    """Whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` ran; returns the rounds and the first check failure
    ("" when every round passed)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        for path in workload.outputs():
            path.unlink(missing_ok=True)
        rnd = run()
        rounds.append(rnd)
        try:
            workload.check(rnd)
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            return rounds, f"round {len(rounds)}: {type(exc).__name__}: {exc}"
        if len(rounds) >= min_rounds and time.perf_counter() >= deadline:
            return rounds, ""


def ops(rounds: list[Round]) -> tuple[int, int]:
    attempted = sum(len(r.steps) + r.items for r in rounds)
    failed = sum(r.failed_steps + r.unrefined for r in rounds)
    return attempted, failed


def run_untraced(workload, seconds: float) -> tuple[dict, list[Round], str, dict]:
    setups = timed_setup(workload, SETUPS)
    run = subprocess_runner(workload.work)
    references = []

    def one_round() -> Round:
        references.append(reference_s())
        return workload.run_round(run)

    rounds, failure = run_rounds(workload, one_round, seconds)
    setup_s, wall_s = median(setups), median(r.wall_s for r in rounds)
    # the machine's speed drifts by more than the bounds over minutes; the
    # reference task drifts with it, so its median time in this run scales
    # the times to the speed of the machine that REFERENCE_S was taken on
    scale = REFERENCE_S / median(references)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "wall_s": (wall_s * scale, "s"),
        "peak_rss_mb": (median(max(s.rss_mb for s in r.steps) for r in rounds), "MB"),
    }
    unscaled = {"setup_s": setup_s, "wall_s": wall_s, "reference_s": median(references)}
    return metrics, rounds, failure, unscaled | step_times(workload, rounds)


def run_traced(workload, seconds: float) -> tuple[dict, list[Round], str, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["COTE_API_KEY"] = API_KEY
    modules = spans.library_modules()

    timed_setup(workload, 1)
    run = inprocess_runner(modules["cli"])
    plain, traced_rounds, layers = [], [], []

    def one_round() -> Round:
        if len(plain) == len(traced_rounds):
            rnd = workload.run_round(run)
            plain.append(rnd)
            return rnd
        tracer = spans.Tracer()
        with spans.traced(tracer, modules):
            rnd = workload.run_round(run)
        for stats in rnd.endpoint.values():
            tracer.add("refiner.api_requests", stats["requests"])
            tracer.add("refiner.duplicate_requests", stats["duplicates"])
            tracer.add("refiner.connections", stats["connections"])
            tracer.add("refiner.endpoint_busy_s", stats["busy_s"])
        traced_rounds.append(rnd)
        layers.append((tracer, spans.layer_metrics(tracer)))
        return rnd

    rounds, failure = run_rounds(workload, one_round, seconds, min_rounds=2)
    metrics = {}
    for name in spans.layer_metrics(spans.Tracer()):
        unit = "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else \
            "ratio" if name.endswith("ratio") else "count"
        # a count is reported as one of the counts seen, not a midpoint
        middle = statistics.median_low if unit == "count" else median
        metrics[name] = (middle([values[name] for _, values in layers] or [0]), unit)
    steps = step_times(workload, plain)
    for name in STEP_NAMES:
        metrics[f"step.{name}"] = (steps.get(name, 0.0), "s")
    untraced = median(r.wall_s for r in plain)
    traced_s = median(r.wall_s for r in traced_rounds)
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    absent = sorted(set().union(*(t.absent for t, _ in layers))) if layers else []
    metrics["trace.absent_functions"] = (len(absent), "count")
    if absent:
        print("absent functions (their metrics read 0): " + ", ".join(absent))
    return metrics, rounds, failure, {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the documented one (self-test only)")
    args = parser.parse_args()

    if not (ROOT / "src" / "slotchain" / "cli.py").is_file():
        print(f"error: no slotchain source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / "bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[args.workload](work, args.seed, args.scale)
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, rounds, failure, steps = runner(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted, failed = ops(rounds)
    if failure:
        print(f"check failed: {failure}", file=sys.stderr)
    if steps:
        print("unscaled medians (s): " + ", ".join(f"{k}={v:.4f}" for k, v in steps.items())
              + f" over {len(rounds)} rounds")
    result = {
        "correct": not failure,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = ROOT / "bench_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(dict(result, steps=steps, rounds=[
            {"step_s": [round(s.wall_s, 4) for s in r.steps], "endpoint": r.endpoint}
            for r in rounds]), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
