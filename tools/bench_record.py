"""Record a commit's benchmark numbers as BENCH_<n>.json, or compare two.

    python3 tools/bench_record.py <sha> <n>
    python3 tools/bench_record.py compare <A.json> <B.json>

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

`compare` reads two records and the bounds in BENCHMARK.json, which it
never changes. It names each record's sha and src tree. For each
end-to-end metric and workload it prints both untraced medians, their
ratio in the metric's "better" direction (above 1 when B is better),
both interquartile ranges, "WORSE" where B's median is worse than A's
by more than the metric's bound (relative to A's median), and
"unresolved" where either record's interquartile range is wider than
the bound times that record's median, so that its runs spread too
widely for the bound to tell. It exits 1 when any median is worse
than its bound, else 0.

What a pair of records can show: each record measures one tree, minutes
or sessions apart from the other, and the machine drifts in between. Two
records of one program 15 minutes apart have differed by about 6% on a
median. So `compare` backs or refutes a gain of 10% or more; a gain
under 10% rests on alternating runs of both trees, not on `compare`.

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


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[str], bool]:
    """The report lines comparing record b with record a under the
    benchmark's end-to-end bounds, and whether every median is within
    its bound."""
    lines = [
        f"{'workload':<9} {'metric':<13} {'A median':>11} {'B median':>11} "
        f"{'ratio':>6} {'A iqr':>10} {'B iqr':>10}"
    ]
    within = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        before = a["workloads"][workload]["untraced"]["metrics"]
        after = b["workloads"][workload]["untraced"]["metrics"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            was, now = before[name]["median"], after[name]["median"]
            lower = metric["better"] == "lower"
            ratio = (was / now if lower else now / was) if was and now else float("nan")
            # the relative change of the median in the worse direction
            worse = (now - was if lower else was - now) / was if was else 0.0
            verdict = ""
            if worse > metric["bound"]:
                within = False
                verdict = f"  WORSE by {worse:.1%} (bound {metric['bound']:.0%})"
            if any(r[name]["iqr"] > metric["bound"] * r[name]["median"] for r in (before, after)):
                verdict += "  unresolved"
            lines.append(
                f"{workload:<9} {name:<13} {was:>11.5g} {now:>11.5g} {ratio:>6.3f} "
                f"{before[name]['iqr']:>10.3g} {after[name]['iqr']:>10.3g}{verdict}"
            )
    return lines, within


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_record compare", description="Compare two BENCH_<n>.json records."
    )
    parser.add_argument("a", type=Path, help="the record to compare against")
    parser.add_argument("b", type=Path, help="the record under test")
    args = parser.parse_args(argv)
    a, b, benchmark = (
        json.loads(path.read_text(encoding="utf-8"))
        for path in (args.a, args.b, ROOT / "BENCHMARK.json")
    )
    lines, within = compare(a, b, benchmark)
    for label, path, record in (("A", args.a, a), ("B", args.b, b)):
        print(f"{label} {path.name} sha {record['sha']} src_tree {record['src_tree']}")
    print("\n".join(lines))
    return 0 if within else 1


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
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
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
