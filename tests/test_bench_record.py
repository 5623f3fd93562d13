"""tools/bench_record.py's parsing and summary, on canned perfbench output.
No test here runs a benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

UNTRACED = """\
perfbench workload=catalog seed=5 seconds=8 trace=0 python=3.11.7 cryptography=48.0.0 nproc=2 git=unknown
inputs: tracks=18 catalog_mb=30.1; load: closed loop, 1 client, 1 process
cpu reference: median 0.3583 ms over 5 timings; timings below are scaled to 0.8 ms
setup_s            0.0191 s      n=25
peak_rss_mb          36.4 MB     n=1
rip_ms.p50       0.990000 ms     n=2250
error_rate 0 ratio (failed 0 / attempted 2400)
{"correct": true, "attempted": 2400, "failed": 0, "metrics": {"setup_s": {"value": 0.0191, "unit": "s"}, \
"peak_rss_mb": {"value": 36.4, "unit": "MB"}, "rip_ms.p50": {"value": %s, "unit": "ms"}}}
"""

TRACED = """\
perfbench workload=demo seed=1 seconds=1 trace=1 python=3.11.7 cryptography=48.0.0 nproc=2 git=unknown
inputs: tracks=3 catalog_mb=0.49; load: closed loop, 1 client, 1 process
spans: .perfbench_work/demo.spans.tsv, traced phase 0.510 s wall
cpu reference: median 0.3587 ms over 6 timings; timings below are scaled to 0.8 ms
hls.segment.self_ms         2.46988 ms     0.5% of traced wall
hls.parse.calls                 402 count
error_rate 0 ratio (failed 0 / attempted 900)
{"correct": true, "attempted": 900, "failed": 0, "metrics": {"hls.segment.self_ms": \
{"value": 2.46988, "unit": "ms"}, "hls.parse.calls": {"value": 402, "unit": "count"}}}
"""


def test_untraced_run_parses():
    run = bench_record.parse_output(UNTRACED % "0.99")
    assert run["header"]["workload"] == "catalog"
    assert run["header"]["nproc"] == "2" and run["header"]["git"] == "unknown"
    assert run["cpuref_ms"] == 0.3583
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 2400, 0)
    assert run["metrics"]["rip_ms.p50"] == {"value": 0.99, "unit": "ms", "n": 2250}
    assert run["metrics"]["peak_rss_mb"]["n"] == 1


def test_traced_run_parses_without_counts():
    run = bench_record.parse_output(TRACED)
    assert run["metrics"]["hls.segment.self_ms"] == {"value": 2.46988, "unit": "ms", "n": None}
    assert run["metrics"]["hls.parse.calls"] == {"value": 402, "unit": "count", "n": None}


@pytest.mark.parametrize(
    "text",
    ["", "inputs: x\n", UNTRACED.replace("cpu reference", "cpu")],
    ids=["empty", "no-header", "no-cpuref"],
)
def test_output_that_is_not_perfbench_is_refused(text):
    with pytest.raises(ValueError):
        bench_record.parse_output(text)


def test_summary_is_median_and_interquartile_range():
    summary = bench_record.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert summary == {"values": [5.0, 1.0, 3.0, 2.0, 4.0], "median": 3.0, "iqr": 2.0}
    assert bench_record.summarize([7.0]) == {"values": [7.0], "median": 7.0, "iqr": 0.0}


def test_record_keeps_every_run():
    values = ["1.1", "0.9", "1.0", "1.3", "0.8"]
    runs = [bench_record.parse_output(UNTRACED % v) for v in values]
    record = bench_record.build_record(
        "abc123",
        {"src_tree": "t1", "perfbench_tree": "t2"},
        {"seed": 5, "seconds": 8, "runs": 5},
        {"catalog": {"untraced": runs, "traced": [bench_record.parse_output(TRACED)]}},
    )
    json.dumps(record)  # the record is plain JSON
    assert record["sha"] == "abc123" and record["src_tree"] == "t1"
    assert record["host"] == {"python": "3.11.7", "cryptography": "48.0.0", "nproc": "2"}
    untraced = record["workloads"]["catalog"]["untraced"]
    assert untraced["runs"] == 5 and untraced["attempted"] == [2400] * 5
    assert untraced["cpuref_ms"]["median"] == 0.3583
    rip = untraced["metrics"]["rip_ms.p50"]
    assert rip["unit"] == "ms" and rip["n"] == [2250] * 5
    assert rip["values"] == [1.1, 0.9, 1.0, 1.3, 0.8]
    assert rip["median"] == 1.0 and rip["iqr"] == pytest.approx(0.2)
    traced = record["workloads"]["catalog"]["traced"]["metrics"]
    assert traced["hls.parse.calls"]["median"] == 402

