"""drmtestbed benchmark.

    python3 perfbench/run.py --workload demo|catalog|sessions \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src` directory, so nothing needs installing. Human-readable lines
come first and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 measures the
end-to-end metrics; --trace 1 spends half the time untraced and half
under the span recorder, and reports per-layer metrics and the tracing
overhead. The exit status is 1 when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scratch space inside the checkout: catalog temp dirs and span dumps
WORK = ROOT / ".perfbench_work"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[len("ref: "):]
    return target.read_text(encoding="ascii").strip() if target.is_file() else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description="drmtestbed benchmark")
    parser.add_argument("--workload", required=True, choices=("demo", "catalog", "sessions"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program() -> None:
    if not (SRC / "drmtestbed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no drmtestbed sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import drmtestbed

    if Path(drmtestbed.__file__).resolve().parent != SRC / "drmtestbed":
        raise SystemExit(f"perfbench: drmtestbed imported from {drmtestbed.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import cryptography

    from perfbench import cpuref, workloads

    baseline_mb = workloads.peak_rss_mb()
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} python={platform.python_version()} "
        f"cryptography={cryptography.__version__} nproc={os.cpu_count()} git={git_sha()}"
    )
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"inputs: {workload.inputs}; load: closed loop, 1 client, 1 process")
        if args.trace:
            spans_path = WORK / f"{args.workload}.spans.tsv"
            phases, metrics = workloads.traced_run(workload, args.seconds, spans_path)
            print(f"spans: {spans_path.relative_to(ROOT)}, "
                  f"traced phase {phases[1].wall_s:.3f} s wall")
        else:
            phases, metrics = workloads.untraced_run(workload, args.seconds, baseline_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = [t for run in phases for t in run.speed.timings]
    print(f"cpu reference: median {statistics.median(reference) * 1000:.4f} ms over "
          f"{len(reference)} timings; timings below are scaled to "
          f"{cpuref.NOMINAL_S * 1000:g} ms")
    width = max(map(len, metrics))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {note}".rstrip())
    attempted = sum(run.attempted for run in phases)
    failures = [problem for run in phases for problem in run.failures]
    print(f"error_rate {len(failures) / attempted:.6g} ratio "
          f"(failed {len(failures)} / attempted {attempted})")
    for problem in failures[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
