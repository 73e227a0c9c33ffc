#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/ (and the libraries under src/) into .bench_build/,
runs one workload of the vds_perfbench program and prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics listed in
BENCHMARK.json; with --trace 1 they are its per_layer metrics. The
program's own report (host, every metric with its sample count, digest,
error rate) comes first. Exit status is 0 only when every output of
the workload checked out.

An untraced run splits its seconds over PROCESSES fresh processes and
reports, per metric, the median of their values (setup_s: see
lower_quartile). The same workload runs several percent faster or
slower from one process to the next, and a single process per run
would measure that difference.

    python3 perfbench/run.py --workload mc_engine_1w --seed 1 \\
        --seconds 10 --trace 0
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build")
BINARY = BUILD / "perfbench" / "vds_perfbench"
# The whole command must end within 180 s once built.
RUN_LIMIT_S = 175.0
# Processes per untraced run; a traced run is one process.
PROCESSES = 4


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(env):
    """Configures once, then builds incrementally. Output goes to
    stderr so standard output carries only the report."""
    tree = BUILD / "perfbench"
    if not (tree / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", str(tree),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, timeout=600, env=env)
    subprocess.run(["cmake", "--build", str(tree), "-j4"], check=True,
                   stdout=sys.stderr, timeout=900, env=env)


def revision():
    """The git commit when the checkout is the root of a repository;
    otherwise a hash of the sources the benchmark builds from."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    files = [Path("CMakeLists.txt")]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in Path(tree).rglob("*") if p.is_file())
    for path in files:
        if path.exists():
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def lower_quartile(samples):
    """setup_s of a run: the lower quartile of every set-up sample of
    its processes. Set-ups take well under a millisecond on three of
    the workloads and are mostly thread starts and file-system calls,
    whose latency on a shared host jumps five- to tenfold for seconds
    to minutes at a time. A median flips between those two levels from
    one set of runs to the next; the lower quartile reads the program's
    own cost as long as a quarter of the samples saw a quiet host."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expect-digest",
                        help="expected workload digest (hex); overrides "
                             "the pinned value and the reference")
    args = parser.parse_args()

    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {sorted(names)}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Compiler and program temporaries stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str((BUILD / "tmp").resolve()))
    try:
        build(env)
    except (OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 3
    started = time.monotonic()

    processes = 1 if args.trace else PROCESSES
    results = []
    correct = True
    for k in range(processes):
        # Relative, so Unix socket paths stay short wherever the
        # checkout is.
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
        if scratch.is_absolute():
            scratch = scratch.relative_to(Path.cwd())
        record = (BUILD / "results" / f"{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}-p{k}.json")
        record.parent.mkdir(parents=True, exist_ok=True)
        record.unlink(missing_ok=True)
        command = [str(BINARY), "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds / processes),
                   "--trace", str(args.trace), "--tmp", str(scratch),
                   "--out", str(BUILD), "--record", str(record),
                   "--revision", revision()]
        if args.expect_digest:
            command += ["--expect-digest", args.expect_digest]
        sys.stdout.flush()
        try:
            limit = RUN_LIMIT_S - (time.monotonic() - started)
            code = subprocess.run(command, timeout=max(limit, 0.1),
                                  env=env).returncode
        except subprocess.TimeoutExpired:
            log("workload timed out")
            return 3
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if not record.exists():
            log(f"vds_perfbench exited {code} without a record")
            return code or 3
        results.append(json.loads(record.read_text()))
        correct = correct and results[-1]["correct"] and code == 0

    # Every process ran the same seed, so each must reach the same
    # digest; each also checked its own against the pin or reference.
    if len({result["digest"] for result in results}) != 1:
        log("processes of one run disagree on the digest")
        correct = False
    key = "layers" if args.trace else "end_to_end"
    unknown = set().union(*(result[key] for result in results)) - {
        m["name"] for m in wanted}
    if unknown:
        log(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        correct = False
    metrics = {}
    for metric in wanted:
        values = []
        for result in results:
            got = result[key].get(metric["name"])
            if got is None and args.trace:
                # A layer this workload does not exercise reads 0.
                got = {"value": 0.0, "unit": metric["unit"]}
            if (got is None or got["unit"] != metric["unit"]
                    or got["value"] is None):
                break
            values.append(got["value"])
        if len(values) != len(results):
            log(f"metric {metric['name']} missing or mis-unitted")
            correct = False
            continue
        value = statistics.median(values)
        if metric["name"] == "setup_s":
            value = lower_quartile([x for result in results
                                    for x in result[key]["setup_s"]["units"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
