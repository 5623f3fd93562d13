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



def _record(medians: dict, iqr: float = 0.01, src_tree: str = "1" * 40) -> dict:
    """A record holding only untraced medians: workload -> metric -> median."""
    return {
        "sha": "0" * 40,
        "src_tree": src_tree,
        "workloads": {
            workload: {"untraced": {"metrics": {
                name: {"median": median, "iqr": iqr} for name, median in metrics.items()
            }}}
            for workload, metrics in medians.items()
        },
    }


BOUNDS = {
    "workloads": [{"name": "catalog"}],
    "end_to_end": [
        {"name": "rip_ms.p50", "better": "lower", "bound": 0.25},
        {"name": "rips_per_s", "better": "higher", "bound": 0.25},
    ],
}


@pytest.mark.parametrize(
    "rip_ms, rips_per_s, within",
    [
        (1.2, 80.0, True),  # 20% slower each way: inside the bounds
        (1.3, 100.0, False),  # the median rip 30% slower
        (1.0, 70.0, False),  # 30% fewer rips a second
        (0.5, 200.0, True),  # better is never worse
    ],
)
def test_compare_flags_a_median_worse_than_its_bound(rip_ms, rips_per_s, within):
    a = _record({"catalog": {"rip_ms.p50": 1.0, "rips_per_s": 100.0}})
    b = _record({"catalog": {"rip_ms.p50": rip_ms, "rips_per_s": rips_per_s}})
    lines, ok = bench_record.compare(a, b, BOUNDS)
    assert ok is within
    assert len(lines) == 3 and lines[0].split()[:4] == ["workload", "metric", "A", "median"]
    rip, rate = lines[1].split(), lines[2].split()
    # the ratio is above 1 when B is better, in either direction
    assert float(rip[4]) == pytest.approx(1.0 / rip_ms, abs=1e-3)
    assert float(rate[4]) == pytest.approx(rips_per_s / 100.0, abs=1e-3)
    assert ("WORSE" in lines[1]) is (rip_ms > 1.25)
    assert ("WORSE" in lines[2]) is (rips_per_s < 75.0)


@pytest.mark.parametrize(
    "a_iqr, b_iqr, unresolved",
    [
        (0.01, 0.01, False),
        (0.25, 0.25, False),  # exactly the bound times the median still tells
        (0.26, 0.01, True),  # A's runs spread wider than the bound
        (0.01, 0.26, True),  # B's runs do
    ],
)
def test_compare_marks_a_metric_whose_runs_spread_wider_than_its_bound(
    a_iqr, b_iqr, unresolved
):
    a = _record({"catalog": {"rip_ms.p50": 1.0, "rips_per_s": 100.0}}, iqr=a_iqr)
    b = _record({"catalog": {"rip_ms.p50": 1.0, "rips_per_s": 100.0}}, iqr=b_iqr)
    lines, ok = bench_record.compare(a, b, BOUNDS)
    # the bound is relative to each record's own median: 0.26 is wider
    # than 25% of rip_ms.p50's 1.0, not of rips_per_s's 100
    assert ("unresolved" in lines[1]) is unresolved
    assert "unresolved" not in lines[2]
    assert ok  # a spread never sets the exit code


def test_compare_marks_unresolved_beside_worse():
    a = _record({"catalog": {"rip_ms.p50": 1.0, "rips_per_s": 100.0}})
    b = _record({"catalog": {"rip_ms.p50": 2.0, "rips_per_s": 100.0}}, iqr=0.6)
    lines, ok = bench_record.compare(a, b, BOUNDS)
    assert not ok
    assert lines[1].endswith("WORSE by 100.0% (bound 25%)  unresolved")


def test_compare_command_names_each_records_sha_and_src_tree(tmp_path, capsys):
    benchmark = json.loads((bench_record.ROOT / "BENCHMARK.json").read_bytes())
    medians = {
        w["name"]: {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        for w in benchmark["workloads"]
    }
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(_record(medians, src_tree="a" * 40)))
    b.write_text(json.dumps(_record(medians, src_tree="b" * 40)))
    assert bench_record.main(["compare", str(a), str(b)]) == 0
    first, second = capsys.readouterr().out.splitlines()[:2]
    assert first == f"A A.json sha {'0' * 40} src_tree {'a' * 40}"
    assert second == f"B B.json sha {'0' * 40} src_tree {'b' * 40}"


def test_compare_command_reads_the_bounds_and_sets_the_exit_code(tmp_path, capsys):
    benchmark_json = bench_record.ROOT / "BENCHMARK.json"
    declared = benchmark_json.read_bytes()
    benchmark = json.loads(declared)
    medians = {
        w["name"]: {m["name"]: 1.0 for m in benchmark["end_to_end"]}
        for w in benchmark["workloads"]
    }
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text(json.dumps(_record(medians)))
    b.write_text(json.dumps(_record(medians)))
    assert bench_record.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3 + len(medians) * len(benchmark["end_to_end"])

    medians["sessions"]["setup_s"] = 2.0
    b.write_text(json.dumps(_record(medians)))
    assert bench_record.main(["compare", str(a), str(b)]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert benchmark_json.read_bytes() == declared


def test_recording_keeps_its_two_positionals():
    args = bench_record.parse_args(["04d7b20", "26"])
    assert (args.sha, args.n) == ("04d7b20", 26)
