"""Record a commit's benchmark numbers as BENCH_<n>.json.

    python3 tools/bench_record.py <sha> <n>

Exports the commit with `git archive` into a temporary directory, runs
that tree's own `perfbench/run.py` for the demo, catalog and sessions
workloads (seed SEED, SECONDS s a run), and writes BENCH_<n>.json to the
root of this checkout. Each workload runs RUNS times untraced (the
end-to-end metrics) and once traced (the per-layer metrics), the
workloads taking turns so that a drift in the machine's speed spreads
over all three. The record holds the sha,
the git trees of the program and the harness, the header facts, the cpu
reference medians, and for every metric its unit, its sample counts,
the value of every run, their median and their interquartile range.

Standard library only; needs Python 3.10.12, 3.11.4 or later for
tarfile's `filter=` keyword. A run that exits nonzero or reports a
failed correctness check stops the recorder, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("demo", "catalog", "sessions")
RUNS = 5
SECONDS = 8
SEED = 5

_HEADER = re.compile(r"perfbench (.*)")
_CPUREF = re.compile(r"cpu reference: median ([0-9.]+) ms over (\d+) timings")
_SAMPLES = re.compile(r"n=(\d+)")


def parse_output(text: str) -> dict:
    """One run's facts from perfbench's stdout: the header's key=value
    pairs, the cpu reference median, the final JSON line's verdict, and
    per metric its value, unit and (untraced metrics only) sample count."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("no perfbench output")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise ValueError(f"not a perfbench header: {lines[0]!r}")
    cpuref = next(filter(None, map(_CPUREF.match, lines)), None)
    if cpuref is None:
        raise ValueError("no cpu reference line")
    verdict = json.loads(lines[-1])
    counts = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        samples = _SAMPLES.search(rest)
        if name in verdict["metrics"] and samples:
            counts[name] = int(samples.group(1))
    return {
        "header": dict(field.split("=", 1) for field in header.group(1).split()),
        "cpuref_ms": float(cpuref.group(1)),
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"], "n": counts.get(name)}
            for name, m in verdict["metrics"].items()
        },
    }


def summarize(values: list[float]) -> dict:
    """The values in run order, their median and their interquartile
    range (inclusive quartiles)."""
    if len(values) == 1:
        return {"values": values, "median": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "iqr": q3 - q1}


def combine(runs: list[dict]) -> dict:
    """One phase's record from the parsed runs of one workload."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        metrics[name] = {
            "unit": first["unit"],
            "n": [run["metrics"][name]["n"] for run in runs],
            **summarize([run["metrics"][name]["value"] for run in runs]),
        }
    return {
        "runs": len(runs),
        "attempted": [run["attempted"] for run in runs],
        "cpuref_ms": summarize([run["cpuref_ms"] for run in runs]),
        "metrics": metrics,
    }


def build_record(sha: str, trees: dict, settings: dict, phases: dict) -> dict:
    """phases: workload -> {"untraced": [parsed run, ...], "traced": [...]}"""
    first = next(iter(phases.values()))["untraced"][0]["header"]
    return {
        "sha": sha,
        **trees,
        "host": {key: first[key] for key in ("python", "cryptography", "nproc")},
        **settings,
        "workloads": {
            workload: {phase: combine(runs) for phase, runs in by_phase.items()}
            for workload, by_phase in phases.items()
        },
    }


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def export_tree(sha: str, dest: Path) -> None:
    with tempfile.TemporaryFile() as tar:
        tar.write(_git("archive", "--format=tar", sha))
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def run_perfbench(tree: Path, workload: str, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    failed = f"bench_record: {workload} trace={trace} failed"
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{failed} (exit {done.returncode})")
    run = parse_output(done.stdout)
    if not run["correct"]:
        sys.stderr.write(done.stdout[-2000:])
        raise SystemExit(f"{failed} (correctness check)")
    return run


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench_record", description=__doc__.split("\n")[0])
    parser.add_argument("sha", help="commit (or other tree-ish) to measure")
    parser.add_argument("n", type=int, help="number in the record's name, BENCH_<n>.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sha = _git("rev-parse", "--verify", args.sha).decode().strip()
    trees = {
        f"{part}_tree": _git("rev-parse", f"{sha}:{part}").decode().strip()
        for part in ("src", "perfbench")
    }
    phases = {w: {"untraced": [], "traced": []} for w in WORKLOADS}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        tree = Path(tmp)
        export_tree(sha, tree)
        for round_ in range(RUNS):
            for workload in WORKLOADS:
                print(f"run {round_ + 1}/{RUNS} {workload}", file=sys.stderr)
                phases[workload]["untraced"].append(run_perfbench(tree, workload, 0))
        for workload in WORKLOADS:
            print(f"traced {workload}", file=sys.stderr)
            phases[workload]["traced"].append(run_perfbench(tree, workload, 1))
    settings = {"seed": SEED, "seconds": SECONDS, "runs": RUNS}
    record = build_record(sha, trees, settings, phases)
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
