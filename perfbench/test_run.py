#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from anywhere:

    python3 perfbench/test_run.py

1. A wrong expected digest fails the command (non-zero exit, correct
   false, failures counted); the pinned digest passes.
2. Two traced runs with the same seed resolve the same cell counts and
   the same deterministic counters.
3. Without the sources (only BENCHMARK.json and perfbench/) the command
   exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def run(*args, cwd=ROOT):
    done = subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, last


def record(workload, seed, trace):
    path = (ROOT / ".bench_build" / "results" /
            f"{workload}-seed{seed}-trace{trace}-p0.json")
    return json.loads(path.read_text())


def check(condition, message):
    if not condition:
        print("FAIL:", message)
        sys.exit(1)
    print("ok:", message)


def main():
    base = ["--workload", "fabric_2w", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    code, last = run(*base, "--expect-digest", "0123456789abcdef")
    check(code != 0 and last is not None and not last["correct"]
          and last["failed"] > 0,
          "a wrong expected digest fails the command")
    code, last = run(*base)
    check(code == 0 and last["correct"] and last["failed"] == 0,
          "the pinned digest passes")

    traced = ["--workload", "mc_engine_1w", "--seed", "3", "--seconds", "1",
              "--trace", "1"]
    runs = []
    for _ in range(2):
        code, last = run(*traced)
        check(code == 0 and last["correct"], "traced mc_engine_1w run passes")
        runs.append(record("mc_engine_1w", 3, 1))
    check(runs[0]["attempted"] == runs[1]["attempted"]
          and runs[0]["layers"]["core.runs"] == runs[1]["layers"]["core.runs"]
          and runs[0]["info"]["counters_digest"]
          == runs[1]["info"]["counters_digest"]
          and runs[0]["digest"] == runs[1]["digest"],
          "same seed, same cell counts and deterministic counters")

    scratch = ROOT / ".bench_build" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        code, last = run(*base, cwd=bare)
        check(code != 0 and last is None,
              "without the sources the command fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    main()
