#!/usr/bin/env python3
"""Quick self-test of the benchmark harness, kept out of the tier-1 suite.

    python3 perfbench/selftest.py

Runs every workload once on the tiny corpus (--tiny), traced, and one
workload untraced. Checks that each metric BENCHMARK.json names is emitted
with its unit, that every output check passed, and that the harness exits
non-zero without a result line in a directory that holds only
BENCHMARK.json and perfbench/. Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = ["python3", "perfbench/run.py", "--seed", "7", "--seconds", "1", "--tiny"]


def result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def check_metrics(where, emitted, declared, failures):
    for spec in declared:
        got = emitted.get(spec["name"])
        if got is None:
            failures.append(f"{where}: {spec['name']} not emitted")
        elif got.get("unit") != spec["unit"] or not isinstance(got.get("value"), (int, float)):
            failures.append(f"{where}: {spec['name']} emitted as {got}, expected unit {spec['unit']}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    failures = []

    traced = subprocess.run(RUN + ["--workload", "all", "--trace", "1"], cwd=ROOT, capture_output=True, text=True)
    lines = result_lines(traced.stdout)
    if traced.returncode != 0 or len(lines) != len(names):
        failures.append(f"traced run: exit {traced.returncode}, {len(lines)} result lines\n{traced.stderr[-2000:]}")
    for name, line in zip(names, lines):
        if not line["correct"] or line["failed"] or line["attempted"] < 1:
            failures.append(f"{name}: correct={line['correct']} failed={line['failed']}\n{traced.stderr[-2000:]}")
        check_metrics(f"{name} --trace 1", line["metrics"], bench["per_layer"], failures)
        record = json.loads((ROOT / ".perfbench_work" / "results" / f"{name}-seed7-trace1.json").read_text())
        check_metrics(f"{name} record", record["end_to_end"], bench["end_to_end"], failures)

    plain = subprocess.run(RUN + ["--workload", names[0], "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = result_lines(plain.stdout)
    if plain.returncode != 0 or not lines or not lines[-1]["correct"]:
        failures.append(f"untraced run: exit {plain.returncode}\n{plain.stderr[-2000:]}")
    else:
        check_metrics(f"{names[0]} --trace 0", lines[-1]["metrics"], bench["end_to_end"], failures)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    empty = subprocess.run(RUN + ["--workload", names[0], "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=180)
    if empty.returncode == 0 or result_lines(empty.stdout):
        failures.append(f"without the program: exit {empty.returncode}, stdout {empty.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for text in failures:
        print(f"FAIL {text}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
