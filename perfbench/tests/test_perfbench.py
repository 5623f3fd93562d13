"""Tests of the benchmark's own machinery: span arithmetic, the catalog
generator, the percentile rule, the correctness gate, and smoke-sized
runs of every workload.

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from drmtestbed import crypto_kit
from drmtestbed import benchmark as bench
from drmtestbed.ripper import RipResult

from perfbench import cpuref, run, spans, synthcat, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_direct_children():
    ticks = iter([0, 10, 30, 40, 45, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.spans == [
        ("inner", 1, 10, 20, 20),
        ("inner", 1, 40, 5, 5),
        ("outer", 0, 0, 100, 75),
    ]
    assert tracer.totals() == {"inner": (2, 25), "outer": (1, 75)}


def test_self_time_of_a_span_that_raises():
    ticks = iter([0, 2, 7, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def fail():
        raise KeyError("x")

    inner = tracer.wrap("inner", fail)

    def swallow():
        with pytest.raises(KeyError):
            inner()

    tracer.wrap("outer", swallow)()
    assert tracer.totals() == {"inner": (1, 5), "outer": (1, 5)}


def _written(seed, path):
    synthcat.write_catalog(seed, path, tracks=6, top_bytes=4000)
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_a_function_of_the_seed(tmp_path):
    first = _written(11, tmp_path / "a")
    assert first == _written(11, tmp_path / "b")
    other = _written(12, tmp_path / "c")
    assert other.keys() == first.keys()
    assert other != first


def test_generator_shape():
    assets = list(synthcat.synth_assets(3, tracks=10, top_bytes=10_000))
    assert [a.title for a in assets] == [f"Track {i:03d}" for i in range(10)]
    assert [a.asset_id for a in assets if a.premium] == ["syn004", "syn009"]
    for asset in assets:
        assert sorted(asset.variants) == [16, 32, 64, 128, 320]
        assert all(b.startswith(b"AUD0") for b in asset.variants.values())
        assert 9900 <= len(asset.variants[320]) <= 10100


def test_percentile_wants_ten_samples_beyond():
    assert workloads.percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError):
        workloads.percentile(list(range(1, 100)), 0.9)
    assert workloads.percentile(list(range(20, 0, -1)), 0.5) == 10
    with pytest.raises(ValueError):
        workloads.percentile(list(range(19)), 0.5)


def test_speed_reference_scales_by_the_median_recent_timing(monkeypatch):
    timings = iter([0.001, 0.004, 0.002])
    monkeypatch.setattr(cpuref, "time_reference", lambda: next(timings))
    monkeypatch.setattr(cpuref, "EVERY_S", 0)
    speed = cpuref.SpeedReference()
    speed.update()
    assert speed.scale == cpuref.NOMINAL_S / 0.001
    speed.update()
    speed.update()
    assert speed.timings == [0.001, 0.004, 0.002]
    assert speed.scale == cpuref.NOMINAL_S / 0.002


def test_gate_rejects_wrong_rips():
    catalog = {hashlib.sha256(b"audio").hexdigest()}
    other = {hashlib.sha256(b"other").hexdigest()}

    def result(matched):
        return RipResult("s", "t", True, matched, recovered=b"audio")

    assert workloads.rip_problem("gaana", "t", result(True), "", catalog) is None
    assert workloads.rip_problem("gaana", "t", result(True), "", other)
    assert workloads.rip_problem("gaana", "t", result(False), "", catalog)
    assert workloads.rip_problem("gaana", "t", result(True), "refused", catalog)
    assert workloads.rip_problem("benchmark", "t", result(False), "", other) is None
    assert workloads.rip_problem("benchmark", "t", result(False), "", catalog)
    assert workloads.rip_problem("benchmark", "t", result(True), "", other)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.Catalog, "TRACKS", 6)
    monkeypatch.setattr(workloads.Catalog, "TOP_BYTES", 60_000)
    monkeypatch.setattr(workloads.Sessions, "SESSION_CYCLES", 20)
    monkeypatch.setattr(workloads.Sessions, "setup_builds", 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_gate_traced_and_untraced(name, small, tmp_path):
    workload = workloads.WORKLOADS[name](5, tmp_path)
    untraced = workloads.Run(workload.digests)
    workloads.measure(workload, untraced, 0, lambda r: True)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workloads.Run(workload.digests)
        workloads.measure(workload, traced, 0, lambda r: True)
        assert tracer.totals()["testbed.rip"][0] == len(traced.all_rip_ms())
        traced_digest = workloads.tap_digest(workload)
    for phase in (untraced, traced):
        assert phase.failures == []
        assert phase.attempted > 0 and phase.audit_ms and phase.setup_s
    assert workloads.tap_digest(workload) == traced_digest
    assert "login.wynk.in" in tracer.hosts
    # every binding is restored
    assert not hasattr(crypto_kit.aes_ctr, "__wrapped__")
    assert bench.aes_ctr is crypto_kit.aes_ctr
    assert not hasattr(bench.Cdm.decrypt_segment, "__wrapped__")


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_demo_prints_exactly_the_declared_metrics(capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", "demo", "--seed", "2", "--seconds", "1",
                         "--trace", str(trace)])
        doc = _last_json(capsys)
        assert code == 0 and doc["correct"] and doc["failed"] == 0
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
