#!/usr/bin/env python3
"""End-to-end benchmark of the vgmfeat CLI.

    python3 perfbench/run.py --workload short_report [--seed 7] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --workload all --trace 1   # every workload, tables on stderr

Each run generates its corpus with `vgmfeat synth-corpus --seed SEED`
(untimed), times a fresh interpreter that only imports vgmfeat.cli
(setup_s), then runs the checkout's own CLI as a child process
(`python -m vgmfeat` with PYTHONPATH=src) again and again for --seconds, at
least MIN_RUNS times. Every run's outputs are checked; wall time is spawn to
exit, CPU time and peak RSS come from os.wait4 on that child's pid.

With --trace 1 one more run goes through perfbench/trace_child.py, which
wraps each module boundary and calls vgmfeat.cli.main in-process; the last
line then carries the per-layer metrics instead of the end-to-end ones.
End-to-end metrics never come from the traced run.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A full record (samples, machine, corpus and output hashes) goes to
.perfbench_work/results/. Workload reasons: perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SHORT_CORPUS = {"games_per_genre": 3, "tracks_per_game": 3, "duration": 20.0}
LONG_CORPUS = {"games_per_genre": 1, "tracks_per_game": 3, "duration": 240.0}
TINY_CORPUS = {"games_per_genre": 3, "tracks_per_game": 3, "duration": 16.0}
WORKLOADS = {
    "short_report": {"corpus": SHORT_CORPUS, "command": "report", "jobs": 1},
    "long_extract": {"corpus": LONG_CORPUS, "command": "extract", "jobs": 1},
    "short_report_jobs2": {"corpus": SHORT_CORPUS, "command": "report", "jobs": 2},
}
E2E_UNITS = {"wall_s": "s", "audio_s_per_s": "s/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

MIN_RUNS = 2
SETUP_SAMPLES = 7
DEADLINE_S = 160.0  # one invocation must end within 180 s
N_FEATURES = 43
MIN_ACCURACY = 0.9
# Unset so the program's own thread defaults are what gets measured.
SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VGMFEAT_OUT")

PROBE = """
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


class BenchError(Exception):
    """The benchmark cannot measure: no program, or its corpus could not be made."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Run:
    child: Child
    problems: list = field(default_factory=list)
    digest: str = ""
    hashes: dict = field(default_factory=dict)
    files: int = 0
    bytes: int = 0


def spawn(argv, env, log_path, timeout_s):
    """Run one child to its end; CPU time and max RSS are that child's own, from os.wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root):
    """(sha256 over every file's relative path and content, file count, byte count)."""
    h = hashlib.sha256()
    count = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + hashlib.sha256(data).digest())
        count += 1
        size += len(data)
    return h.hexdigest(), count, size


def check_outputs(out_dir, n_tracks):
    """Problems found in one run's output directory; empty when it is correct."""
    problems = []
    try:
        listed = json.loads((out_dir / "run_manifest.json").read_text())["files"]
        problems += [f"listed file missing: {name}" for name in listed if not (out_dir / name).is_file()]
        with open(out_dir / "features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) - 1 != n_tracks:
            problems.append(f"features.csv has {len(rows) - 1} rows, expected {n_tracks}")
        for row in rows[1:]:
            values = [float(v) for v in row[1:-1]]
            if len(values) != N_FEATURES or not all(math.isfinite(v) for v in values):
                problems.append(f"features.csv row {row[0]}: not {N_FEATURES} finite values")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def finish_run(child, out_dir, n_tracks, log_path):
    run = Run(child)
    if child.exit_code != 0:
        tail = log_path.read_text(errors="replace")[-400:]
        run.problems.append(f"exit code {child.exit_code}: {tail.strip()}")
        return run
    run.problems = check_outputs(out_dir, n_tracks)
    run.digest, run.files, run.bytes = tree_digest(out_dir)
    for name in ("features.csv", "report.json"):
        if (out_dir / name).is_file():
            run.hashes[name] = sha256_file(out_dir / name)
    return run


def check_accuracy(out_dir, env, work):
    """({"split": report accuracy, "loocv": ...}, problem or None) for one report run's outputs.

    The report's default split tests 3 tracks per genre, so one miss on a valid
    corpus already reads 0.89 (seeds 17, 19 and 41 of 0-49). The check therefore
    runs `classify --protocol loocv` on the run's own features.csv, which
    tests the features over every track.
    """
    out, log = work / "loocv", work / "loocv.log"
    argv = [sys.executable, "-m", "vgmfeat", "classify", "--features-csv", str(out_dir / "features.csv"),
            "--protocol", "loocv", "--out", str(out)]
    child = spawn(argv, env, log, 60)
    try:
        accuracy = {name: json.loads((d / "report.json").read_text())["accuracy"]
                    for name, d in (("split", out_dir), ("loocv", out))}
    except (OSError, ValueError, KeyError) as exc:
        return {}, f"accuracy unreadable (loocv classify exit {child.exit_code}): {exc!r}"
    if accuracy["loocv"] < MIN_ACCURACY:
        return accuracy, f"LOOCV accuracy {accuracy['loocv']} < {MIN_ACCURACY}"
    return accuracy, None


def child_env(work):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def machine_info(env, work):
    probe_log = work / "probe.log"
    child = spawn([sys.executable, "-c", PROBE], env, probe_log, 60)
    info = json.loads(probe_log.read_text().strip().splitlines()[-1]) if child.exit_code == 0 else {}
    try:
        models = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
    except OSError:
        models = []
    info["cpu_model"] = models[0] if models else "unknown"
    info["nproc"] = len(os.sched_getaffinity(0))
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    info["git_commit"] = commit
    return info


def make_corpus(corpus, seed, env, work):
    out = work / "corpus"
    log = work / "synth.log"
    argv = [sys.executable, "-m", "vgmfeat", "synth-corpus", "--out", str(out), "--seed", str(seed),
            "--games-per-genre", str(corpus["games_per_genre"]),
            "--tracks-per-game", str(corpus["tracks_per_game"]), "--duration", str(corpus["duration"])]
    child = spawn(argv, env, log, 120)
    if child.exit_code != 0:
        raise BenchError(f"synth-corpus failed ({child.exit_code}): {log.read_text(errors='replace')[-400:]}")
    return out / "manifest.csv", tree_digest(out)[0]


def measure_setup(env, work):
    """Median wall time of a fresh interpreter that only imports vgmfeat.cli (after one warm-up)."""
    argv = [sys.executable, "-c", "import vgmfeat.cli"]
    walls = []
    for i in range(SETUP_SAMPLES + 1):
        child = spawn(argv, env, work / "setup.log", 60)
        if child.exit_code != 0:
            raise BenchError(f"import vgmfeat.cli failed: {(work / 'setup.log').read_text(errors='replace')[-400:]}")
        if i:
            walls.append(child.wall_s)
    return statistics.median(walls), walls


def bench(workload, seed, seconds, trace, tiny):
    """Measure one workload; returns the record written to .perfbench_work/results/."""
    started = time.perf_counter()
    spec = WORKLOADS[workload]
    corpus = TINY_CORPUS if tiny else spec["corpus"]
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        env = child_env(work)
        machine = machine_info(env, work)
        manifest, corpus_sha = make_corpus(corpus, seed, env, work)
        n_tracks = corpus["games_per_genre"] * corpus["tracks_per_game"] * 3
        audio_s = n_tracks * corpus["duration"]
        setup_s, setup_samples = measure_setup(env, work)

        out_dir, log = work / "out", work / "cli.log"
        cli_args = [spec["command"], "--manifest", str(manifest), "--out", str(out_dir), "--jobs", str(spec["jobs"])]
        runs = []
        t0 = time.perf_counter()
        while True:
            # stop before a run that would end past --seconds (or leave no room for the traced run)
            longest = max((r.child.wall_s for r in runs), default=0.0)
            left = DEADLINE_S - (time.perf_counter() - started)
            if runs and left < 2.5 * longest:
                break
            if len(runs) >= MIN_RUNS and time.perf_counter() - t0 + longest > seconds:
                break
            shutil.rmtree(out_dir, ignore_errors=True)
            child = spawn([sys.executable, "-m", "vgmfeat", *cli_args], env, log, left)
            runs.append(finish_run(child, out_dir, n_tracks, log))
        first = runs[0].digest
        for run in runs[1:]:
            if run.digest != first:
                run.problems.append("outputs differ from the first run's")
        accuracy = {}
        if spec["command"] == "report" and not runs[-1].problems:
            # every run's outputs equal the last one's, or that run already failed
            accuracy, problem = check_accuracy(out_dir, env, work)
            for run in runs if problem else []:
                run.problems.append(problem)
        failed = sum(1 for r in runs if r.problems)

        good = [r for r in runs if not r.problems] or runs
        wall = statistics.median(r.child.wall_s for r in good)
        end_to_end = {
            "wall_s": wall,
            "audio_s_per_s": audio_s / wall,
            "cpu_s": statistics.median(r.child.cpu_s for r in good),
            "peak_rss_mb": statistics.median(r.child.peak_rss_mb for r in good),
            "setup_s": setup_s,
        }
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "tiny": tiny,
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "fail_ratio": failed / len(runs),
            "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in end_to_end.items()},
            "samples": {
                "wall_s": [r.child.wall_s for r in runs],
                "cpu_s": [r.child.cpu_s for r in runs],
                "peak_rss_mb": [r.child.peak_rss_mb for r in runs],
                "setup_s": setup_samples,
            },
            "accuracy": accuracy,
            "problems": [p for r in runs for p in r.problems],
            "corpus": {**corpus, "tracks": n_tracks, "audio_s": audio_s, "sha256": corpus_sha},
            "outputs": {"sha256": runs[0].hashes, "tree_sha256": first},
            "machine": machine,
        }
        if trace:
            record.update(traced_run(cli_args, env, work, n_tracks, first, wall,
                                     DEADLINE_S - (time.perf_counter() - started)))
            record["correct"] = record["correct"] and not record["trace_problems"]
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(cli_args, env, work, n_tracks, expected_digest, untraced_wall, timeout_s):
    out_dir, log, metrics_path = work / "out", work / "trace.log", work / "layers.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), str(metrics_path), *cli_args]
    run = finish_run(spawn(argv, env, log, timeout_s), out_dir, n_tracks, log)
    if not run.problems and run.digest != expected_digest:
        run.problems.append("traced outputs differ from the untraced runs'")
    layers = json.loads(metrics_path.read_text()) if metrics_path.is_file() else {"metrics": {}, "warnings": []}
    metrics = layers["metrics"]
    metrics["cli.files_written"] = {"value": run.files, "unit": "count"}
    metrics["cli.bytes_written"] = {"value": run.bytes, "unit": "bytes"}
    metrics["trace.overhead_s"] = {"value": run.child.wall_s - untraced_wall, "unit": "s"}
    return {"per_layer": metrics, "trace_warnings": layers["warnings"], "trace_problems": run.problems}


def print_tables(record):
    err = sys.stderr
    print(f"== {record['workload']} seed {record['seed']}: {record['attempted']} runs, "
          f"{record['failed']} failed, corpus {record['corpus']['tracks']} x {record['corpus']['duration']:g} s", file=err)
    for name, m in record["end_to_end"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}", file=err)
    print(f"  {'fail_ratio':<34} {record['fail_ratio']:>14.6g} ratio", file=err)
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}", file=err)
    for text in record.get("trace_warnings", []):
        print(f"  warning: {text}", file=err)
    for text in record["problems"] + record.get("trace_problems", []):
        print(f"  FAILED CHECK: {text}", file=err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="27 x 16 s corpus for every workload (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "vgmfeat" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'vgmfeat'} is missing", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            record = bench(workload, args.seed, args.seconds, args.trace, args.tiny)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        (results / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
        print_tables(record)
        metrics = record["per_layer"] if args.trace else record["end_to_end"]
        summary = {k: record[k] for k in ("correct", "attempted", "failed")}
        print(json.dumps({**summary, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
