"""Benchmark of ramclass: four workloads, checked outputs, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from ``src``.

``--trace 0``: every operation runs as a fresh process (``python3 -m
ramclass.cli`` or ``bench/library_oracles.py``), timed from launch to exit,
its peak RSS read from its own ``os.wait4`` rusage.  Whole rounds of the
workload's operations repeat while another round still fits in S seconds
(at least one round).  Before each operation, and at the end up to
SETUP_SAMPLES in all, a fresh interpreter imports ``ramclass.cli``.
Printed: ``wall_s`` (median round), ``peak_rss_mb`` (largest child) and
``setup_s`` (median import).

``--trace 1``: the operations run in-process twice (``traced.py``), first
untraced, then under ``tracer.Tracer``; the per-layer metrics are printed,
with the tracing overhead as ``trace.overhead_s``.

Every output is checked against ``reference`` or a property the mathematics
forces.  The last stdout line is one JSON object; details of each run go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

import workloads  # noqa: E402  (bench/ is sys.path[0] when run as a script)


def child_env() -> dict:
    env = dict(os.environ)
    # an installed package has its bytecode cached; the warm-up import writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(cmd: list[str], stdout_path: Path) -> dict:
    """Run one process; wall from launch to exit and its own peak RSS (wait4)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"cmd": cmd[1:], "exit": proc.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "output": stdout_path.read_text()}


def setup_sample(tag: str) -> float:
    """Wall time for a fresh interpreter to import ramclass.cli, doing no work."""
    res = run_child([sys.executable, "-c", "import ramclass.cli"], OUT / f"{tag}-setup.out")
    if res["exit"] != 0:
        raise SystemExit(f"import ramclass.cli exited {res['exit']}")
    return res["wall_s"]


def workload_commands(name: str, seed: int) -> list[list[str]]:
    if name == "library-oracles":
        return [[sys.executable, str(BENCH / "library_oracles.py"), "--seed", str(seed)]]
    return [[sys.executable, "-m", "ramclass.cli"] + argv
            for argv in workloads.cli_ops(name, seed)]


def ops_per_round(name: str, seed: int) -> int:
    if name == "library-oracles":
        return len(workloads.LIBRARY_CALLS)
    return len(workloads.cli_ops(name, seed))


def results_of(name: str, op: dict):
    """What a finished operation produced: CLI stdout, or the library's record."""
    if op["exit"] != 0:
        return None
    if name == "library-oracles":
        record = json.loads(op["output"])
        return {"results": record["results"], "failed": record["failed"]}
    return op["output"]


def failures(name: str, results: list) -> int:
    """Operations that failed, from ``results_of`` of one round."""
    if name == "library-oracles":
        return len(workloads.LIBRARY_CALLS) if results[0] is None else len(results[0]["failed"])
    return sum(1 for res in results if res is None)


def check(name: str, seed: int, results: list, tag: str) -> list[list[str]]:
    """Errors per operation in one round's ``results_of``; failed operations are skipped."""
    ops = workloads.cli_ops(name, seed)
    if name == "library-oracles":
        record = results[0] or {"results": {}, "failed": list(workloads.LIBRARY_CALLS)}
        return [[e for e in workloads.check_library(seed, record["results"])
                 if e.split(":")[0] not in record["failed"]]]
    if name == "abelian-primes":
        return workloads.check_abelian_primes(ops, results)
    if name == "quadratic-scan":
        return workloads.check_quadratic_scan(ops, results)
    if all(res is None for res in results):
        return [[] for _ in ops]
    oracle = run_child([sys.executable, str(BENCH / "lattice_oracles.py")],
                       OUT / f"{tag}-oracles.out")
    if oracle["exit"] != 0:
        return [["lattice oracles failed"]] + [[] for _ in ops[1:]]
    return workloads.check_abelian_lattice(ops, results, json.loads(oracle["output"]))


def timed_run(name: str, seed: int, seconds: float, tag: str) -> dict:
    commands = workload_commands(name, seed)
    setup_sample(tag)  # warm-up: byte-compiles the package on a fresh checkout
    setup, rounds = [], []
    start = time.perf_counter()
    while True:
        # set-up samples are spread over the run, one before each operation
        round_start = time.perf_counter()
        ops = []
        for i, cmd in enumerate(commands):
            setup.append(setup_sample(tag))
            ops.append(run_child(cmd, OUT / f"{tag}-op{i}.out"))
        rounds.append(ops)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(tag))
    results = [[results_of(name, op) for op in rnd] for rnd in rounds]
    errors = check(name, seed, results[0], tag)
    for later in results[1:]:
        for k, (first, res) in enumerate(zip(results[0], later)):
            if res != first and res is not None:
                errors[k].append("output differs between rounds")
    walls = [sum(op["wall_s"] for op in rnd) for rnd in rounds]
    return {
        "correct": not any(errors),
        "attempted": ops_per_round(name, seed) * len(rounds),
        "failed": sum(failures(name, res) for res in results),
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": max(op["peak_rss_mb"] for rnd in rounds for op in rnd),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        },
        "detail": {"errors": errors, "round_walls_s": walls, "setup_samples_s": setup,
                   "rounds": [[{k: v for k, v in op.items() if k != "output"} for op in rnd]
                              for rnd in rounds]},
    }


def traced_run(name: str, seed: int, tag: str) -> dict:
    import tracer

    records = {}
    for wrap in (0, 1):
        path = OUT / f"{tag}-wrap{wrap}.json"
        res = run_child([sys.executable, str(BENCH / "traced.py"), "--workload", name,
                         "--seed", str(seed), "--wrap", str(wrap), "--out", str(path)],
                        OUT / f"{tag}-wrap{wrap}.out")
        if res["exit"] != 0:
            raise SystemExit(f"traced child (wrap {wrap}) exited {res['exit']}")
        records[wrap] = json.loads(path.read_text())
    results = {}
    for wrap, record in records.items():
        if name == "library-oracles":
            lib = record["library"]
            results[wrap] = [{"results": lib["results"], "failed": lib["failed"]}]
        else:
            results[wrap] = [op["output"] if op["exit"] == 0 else None for op in record["ops"]]
    errors = check(name, seed, results[1], tag)
    if results[0] != results[1]:
        errors.append(["output differs with and without tracing"])
    untraced, traced = records[0], records[1]
    metrics = dict(traced["layers"])
    metrics.update({"import_s": untraced["import_s"], "trace.wall_s": traced["wall_s"],
                    "trace.untraced_wall_s": untraced["wall_s"],
                    "trace.overhead_s": traced["wall_s"] - untraced["wall_s"]})
    units = dict(tracer.metric_names())
    return {
        "correct": not any(errors),
        "attempted": 2 * ops_per_round(name, seed),
        "failed": failures(name, results[0]) + failures(name, results[1]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": {"errors": errors, "absent": traced["absent"],
                   "overhead_share": traced["wall_s"] / untraced["wall_s"] - 1,
                   "peak_rss_mb": {"untraced": untraced["peak_rss_mb"],
                                   "traced": traced["peak_rss_mb"]}},
    }


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ramclass" / "cli.py").is_file():
        print(f"error: no ramclass package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env_before = environment()
    if args.trace:
        result = traced_run(args.workload, args.seed, tag)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, tag)
    detail = result.pop("detail")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, detail=detail, environment=env_before,
                  loadavg_after=os.getloadavg())
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for errs in detail["errors"]:
        for err in errs:
            print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
