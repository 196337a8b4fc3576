"""expanderlab benchmark: timed CLI workloads with independent output checks.

    python3 bench/run.py --workload {probe,tower,sweep-measure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 measures the end-to-end metrics. Each round runs the workload's
commands, one fresh `python -m expanderlab` process each, as a user runs
them; rounds repeat while another fits in S seconds (at least one round).
  run_s        a typical round: each command's median process wall time over
               the rounds, summed over the workload's commands
  setup_s      median wall time of a process that only imports the CLI
  peak_rss_mb  highest peak RSS of any timed process
Both times are scaled to the host's reference speed: a fixed task
(hostspeed.py) is timed before and after every timed process, and each wall
time is multiplied by the task's reference time over its time around it.

--trace 1 runs the commands twice, each time in one process that calls
cli.main per command: once plain, once with every layer wrapped (tracing.py).
It reports the per-layer metrics and the tracing overhead between the two.

Every process gets one BLAS/OpenMP thread (see README.md). Output checks
(workloads.py, against oracles.py) are untimed; a failed check sets
"correct" to false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per pool, in this process (its oracles call LAPACK) and in every
# child: on 2 vCPUs a spinning BLAS pool competes with the Python thread.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7

import hostspeed  # noqa: E402  (after the thread settings)
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

GEN_SCRIPT = """
import json, sys
from expanderlab import cli
for spec, path in json.loads(sys.argv[1]):
    if cli.main(["gen", spec, "-o", path]) != 0:
        sys.exit(f"gen {spec} failed")
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_outputs(workload: Workload, run_dir: Path) -> dict[str, bytes]:
    return {name: (run_dir / name).read_bytes() for name in workload.outputs}


def prepare(workload: Workload, run_dir: Path, env: dict[str, str]) -> None:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if workload.inputs:
        subprocess.run(
            [sys.executable, "-c", GEN_SCRIPT, json.dumps(workload.inputs)],
            cwd=run_dir, env=env, check=True, stdout=subprocess.DEVNULL,
        )


def measure_setup(run_dir: Path, env: dict[str, str]) -> float:
    argv = [sys.executable, "-c", "import expanderlab.cli"]
    timed(argv, run_dir, env)  # warm-up: byte-compiles src/ on a fresh checkout
    times = []
    before = hostspeed.gauge()
    for _ in range(SETUP_REPEATS):
        rc, wall, _rss = timed(argv, run_dir, env)
        if rc != 0:
            raise RuntimeError("importing expanderlab.cli failed")
        after = hostspeed.gauge()
        times.append(hostspeed.scaled(wall, before, after))
        before = after
    return statistics.median(times)


def check(workload: Workload, run_dir: Path, seed: int) -> list[str]:
    try:
        return workload.check(run_dir, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs could not be read: {exc!r}"]


def run_untraced(workload: Workload, seed: int, seconds: float, run_dir: Path, env) -> dict:
    setup_s = measure_setup(run_dir, env)
    commands = workload.commands(seed)
    walls: list[list[float]] = [[] for _ in commands]  # per command, per round
    times: list[list[float]] = [[] for _ in commands]  # the same, scaled
    peak_rss = 0.0
    attempted = failed = rounds = 0
    problems: list[str] = []
    first = None  # outputs of the first complete round
    start = time.perf_counter()
    before = hostspeed.gauge()
    while True:
        rounds += 1
        round_ok = True
        for argv, command_walls, command_times in zip(commands, walls, times):
            rc, wall, rss = timed([sys.executable, "-m", "expanderlab", *argv], run_dir, env)
            after = hostspeed.gauge()
            attempted += 1
            if rc != 0:
                failed += 1
                round_ok = False
            command_walls.append(wall)
            command_times.append(hostspeed.scaled(wall, before, after))
            before = after
            peak_rss = max(peak_rss, rss)
        if round_ok:
            written = read_outputs(workload, run_dir)
            if first is None:
                first = written
            elif written != first:
                changed = sorted(k for k in written if written[k] != first[k])
                problems.append(f"round {rounds} outputs differ from round 1: {changed}")
        # A typical round: each command's median over the rounds, summed.
        wall_s = sum(statistics.median(w) for w in walls)
        if time.perf_counter() - start + wall_s > seconds:
            break
    run_s = sum(statistics.median(t) for t in times)
    if first is not None:
        problems += check(workload, run_dir, seed)
    round_walls = [round(sum(w), 3) for w in zip(*walls)]
    round_times = [round(sum(t), 3) for t in zip(*times)]
    print(f"{workload.name}: {rounds} rounds, round walls {round_walls}, scaled {round_times}, "
          f"typical round {wall_s:.3f} s wall, {run_s:.3f} s scaled", file=sys.stderr)
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        },
    }


def run_traced(workload: Workload, seed: int, run_dir: Path, env, trace_file: Path) -> dict:
    commands = workload.commands(seed)
    (run_dir / "commands.json").write_text(json.dumps(commands))
    results = {}
    problems: list[str] = []
    outputs = {}
    for mode in ("plain", "traced"):
        out = run_dir / f"{mode}.json"
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "commands.json", str(out)]
        if mode == "plain":
            argv.append("--no-trace")
        subprocess.run(argv, cwd=run_dir, env=env, check=True, stdout=subprocess.DEVNULL)
        results[mode] = json.loads(out.read_text())
        outputs[mode] = read_outputs(workload, run_dir)
    failed = sum(c["rc"] != 0 for mode in results for c in results[mode]["commands"])
    if failed == 0:
        if outputs["plain"] != outputs["traced"]:
            problems.append("traced outputs differ from the untraced outputs")
        problems += check(workload, run_dir, seed)
    traced = results["traced"]
    plain_s = sum(c["wall_s"] for c in results["plain"]["commands"])
    traced_s = sum(c["wall_s"] for c in traced["commands"])
    metrics = tracing.per_layer(traced["spans"], traced["import_s"])
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "untraced_s": plain_s, "traced_s": traced_s,
        "self_s": tracing.self_times(traced["spans"]),
        "spans": traced["spans"],
    }))
    print(f"{workload.name}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
          f"spans {len(traced['spans'])} in {trace_file}", file=sys.stderr)
    units = {"self_s": "s", "import_s": "s", "overhead": "ratio"}
    return {
        "problems": problems,
        "attempted": sum(len(results[mode]["commands"]) for mode in results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "count")}
            for name, value in metrics.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "expanderlab" / "cli.py").is_file():
        print(f"no expanderlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    run_dir = OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        prepare(workload, run_dir, env)
        if args.trace:
            trace_file = OUT_DIR / "trace" / f"{workload.name}-{args.seed}.json"
            result = run_traced(workload, args.seed, run_dir, env, trace_file)
        else:
            result = run_untraced(workload, args.seed, args.seconds, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
