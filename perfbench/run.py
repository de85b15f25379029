#!/usr/bin/env python3
"""shiftcode benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0

Each workload runs in fresh worker processes (``perfbench/workloads.py``)
that import shiftcode from the checkout's ``src``; this script imports
nothing of shiftcode.  With ``--trace 0`` one worker measures rounds for
``--seconds`` seconds and two more only set up, so ``setup_s`` is a median
of three fresh-process set-ups.  With ``--trace 1`` one worker runs the
same rounds untraced and traced and reports the per-layer metrics, and one
untraced set-up gives the tracing overhead on set-up.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("roundtrip", "splice", "strict")
SETUPS = 3          # fresh-process set-ups per measuring run; one measures
DEADLINE_S = 170    # for the whole run, workers included
# The gated metrics of a measuring run, with their units.
END_TO_END = {"setup_s": "s", "round_s": "s", "core_s": "s",
              "peak_rss_mb": "MB"}
REQUIRED = ("src/shiftcode/__init__.py", "tests/data/full2.sft",
            "tests/golden/dict_practical.txt")


class WorkerError(Exception):
    pass


def run_worker(args, mode: str, deadline: float):
    """(raw set-up s, corrected set-up s, instance, result) of one fresh
    worker process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    lines = [json.loads(ln) for ln in proc.stdout.splitlines()
             if ln.startswith("{")]
    if not lines or (mode != "setup" and len(lines) < 2):
        raise WorkerError(f"{mode} worker printed no result")
    # time.monotonic() is CLOCK_MONOTONIC, one clock for every process on
    # Linux, so the worker's ready time and this spawn time compare.
    ready = lines[0]
    raw = ready["ready_at"] - start - ready["excluded_s"]
    return (raw, hostspeed.corrected(raw, ready["ref_s"]), ready["instance"],
            lines[-1])


def measure(args, deadline: float):
    raw, setup, instance, res = run_worker(args, "measure", deadline)
    raws, setups = [raw], [setup]
    attempted, failed = res["rounds"], res["failed"]
    failures = list(res["failures"])
    for _ in range(SETUPS - 1):
        raw, seconds, other, _ = run_worker(args, "setup", deadline)
        raws.append(raw)
        setups.append(seconds)
        attempted += 1
        if other != instance:
            failed += 1
            failures.append(f"set-up built {other}, not {instance}")
    values = {"setup_s": statistics.median(setups),
              "round_s": res["round_s"], "core_s": res["core_s"],
              "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    notes = [f"set-ups (s): {' '.join(f'{s:.3f}' for s in setups)}; raw: "
             + " ".join(f"{s:.3f}" for s in raws),
             f"rounds: {res['rounds']}; raw median round "
             f"{res['raw_round_s']:.4f} s; stage medians (s): "
             + " ".join(f"{k}={v:.4f}" for k, v in res["stages"].items())]
    return metrics, res["derived"], attempted, failed, failures, notes


def trace(args, deadline: float):
    _, setup, instance, res = run_worker(args, "trace", deadline)
    _, plain_setup, plain_instance, _ = run_worker(args, "setup", deadline)
    plain = res["plain"]
    attempted = plain["rounds"] + res["rounds"] + 1
    failed = plain["failed"] + res["failed"]
    failures = plain["failures"] + res["failures"]
    if plain_instance != instance:
        failed += 1
        failures.append("traced set-up built another instance")
    metrics = {k: (v["value"], v["unit"]) for k, v in res["layers"].items()}
    metrics["trace.setup_overhead_s"] = (setup - plain_setup, "s")
    notes = [f"set-up traced {setup:.3f} s, untraced {plain_setup:.3f} s",
             f"round traced {res['round_s']:.3f} s, untraced "
             f"{plain['round_s']:.3f} s ({res['rounds']} rounds each)",
             f"spans written to {res['trace_file']}"]
    return metrics, {}, attempted, failed, failures, notes


def run_meta() -> dict:
    """Ungated facts about the run: code version and size, and the host."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "shiftcode").glob("*.py"))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "src_lines": src_lines,
            "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a shiftcode checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, derived, attempted, failed, failures, notes = (
            trace if args.trace else measure)(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in {**metrics, **derived}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    for line in notes + [f"failure: {f}" for f in failures]:
        print(f"  {line}")
    print(f"  meta {json.dumps(run_meta())}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
