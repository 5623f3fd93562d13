"""The three workloads, the correctness gate they feed, the untraced and
traced runs over them, and the metrics computed from their samples.

Load is one single-threaded closed loop with one client: each call
starts after the previous one returns. Only the package's public API
is driven: TestbedConfig, Testbed, Testbed.rip, auditor.audit,
report.render_report and, through synthcat, catalog.save_catalog.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import defaultdict

from drmtestbed import RIP_SERVICES, Testbed, TestbedConfig, auditor, report
from drmtestbed.transport import export_tap

from perfbench import cpuref, spans, synthcat

# Copied from tests/test_acceptance.py::GOLDEN_AUDIT, in PRACTICE_FIELDS
# order. The benchmark keeps its own copy so it never imports the tests.
GOLDEN_AUDIT = {
    "spotify-benchmark": (True, True, False, True, True, True, True),
    "wynk-v2": (False, False, True, False, True, False, True),
    "jiosaavn": (False, False, False, False, False, False, True),
    "gaana": (False, False, True, False, False, False, True),
    "hungama": (False, False, False, False, False, False, True),
}

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# A measuring loop that still lacks samples after this long gives up.
LOOP_LIMIT_S = 120.0

MB = 1 << 20


def enough(samples, q: float) -> bool:
    n = len(samples)
    return n - math.ceil(q * n) >= MIN_BEYOND


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile. Raises unless at least MIN_BEYOND samples
    lie beyond it: a run too short for its percentile must be resized,
    not reported under a weaker name."""
    if not enough(samples, q):
        raise ValueError(
            f"{len(samples)} samples leave fewer than {MIN_BEYOND} beyond p{q * 100:g}"
        )
    return sorted(samples)[math.ceil(q * len(samples)) - 1]


def variant_digests(catalog) -> dict[str, set[str]]:
    return {
        asset.asset_id: {hashlib.sha256(b).hexdigest() for b in asset.variants.values()}
        for asset in catalog.assets.values()
    }


def rip_problem(service, track, result, client_error, variants) -> str | None:
    """Weak services must hand over catalog audio and the benchmark must
    not. Checked on the recovered bytes' sha256, independently of the
    ripper's own matched_catalog verdict, which must agree."""
    where = f"rip {service} {track}"
    if client_error:
        return f"{where}: client error: {client_error}"
    recovered = hashlib.sha256(result.recovered).hexdigest() in variants
    if service == "benchmark":
        if result.matched_catalog or recovered:
            return f"{where}: catalog audio crossed the wire"
    elif not (result.matched_catalog and recovered):
        return f"{where}: catalog audio not recovered"
    return None


class Run:
    """Samples and gate results of one measuring phase. Every timing is
    scaled to the nominal CPU speed of cpuref."""

    def __init__(self, digests: dict[str, set[str]]):
        self.digests = digests
        self.speed = cpuref.SpeedReference()
        self.setup_s: list[float] = []
        self.rip_ms: dict[str, list[float]] = defaultdict(list)  # by service
        self.audit_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = 0.0

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)

    def _timed(self, fn, *args):
        """(fn(*args), its scaled duration in seconds)"""
        self.speed.update()
        start = time.perf_counter()
        result = fn(*args)
        return result, (time.perf_counter() - start) * self.speed.scale

    def build(self, config: TestbedConfig) -> Testbed:
        tb, seconds = self._timed(Testbed, config)
        self.setup_s.append(seconds)
        return tb

    def rip(self, tb: Testbed, service: str, track: str):
        (result, client_error), seconds = self._timed(tb.rip, service, track)
        self.rip_ms[service].append(seconds * 1000)
        self.check(rip_problem(service, track, result, client_error, self.digests[track]))
        return result

    def audit(self, tb: Testbed, name: str):
        card, seconds = self._timed(auditor.audit, tb, name)
        self.audit_ms.append(seconds * 1000)
        row = tuple(card.as_dict().values())
        self.check(None if row == GOLDEN_AUDIT[name] else f"audit {name}: {row} is not golden")
        return card

    def all_rip_ms(self) -> list[float]:
        return [ms for samples in self.rip_ms.values() for ms in samples]

    def rips_per_s(self) -> float:
        """Testbed.rip calls per second of time spent inside them."""
        samples = self.all_rip_ms()
        return len(samples) / (sum(samples) / 1000)


# ---- workloads ---------------------------------------------------------------


class Demo:
    """The shipped `testbed demo` pass, repeated: a fresh Testbed on the
    demo catalog, every service x track ripped, audit_all, text report."""

    setup_builds = 0

    def __init__(self, seed: int, workdir):
        self.config = TestbedConfig(seed=seed)
        catalog = Testbed(self.config).catalog
        self.digests = variant_digests(catalog)
        self.inputs = _describe(catalog)
        self._report: str | None = None

    def tracks(self, tb: Testbed) -> list[str]:
        return tb.catalog.track_ids()

    def run_pass(self, run: Run) -> None:
        tb = run.build(self.config)
        rips = [run.rip(tb, s, t) for s in RIP_SERVICES for t in self.tracks(tb)]
        audits = {name: run.audit(tb, name) for name in auditor.AUDIT_SERVICES}
        text = report.render_report(report.RunReport(rips=rips, audits=audits), "text")
        if self._report is None:
            self._report = text
        run.check(None if text == self._report else "demo report bytes changed")


class Catalog:
    """Bulk bytes: a seeded synthetic catalog written once with
    save_catalog outside timing, then per pass a fresh Testbed loaded
    from it, every service x open track ripped, and audit_all."""

    TRACKS = 18
    TOP_BYTES = 1_000_000
    setup_builds = 0

    def __init__(self, seed: int, workdir):
        catalog_dir = workdir / "catalog"
        info = synthcat.write_catalog(seed, catalog_dir, self.TRACKS, self.TOP_BYTES)
        self.config = TestbedConfig(seed=seed, catalog_dir=str(catalog_dir))
        self.digests = info.digests
        self.inputs = f"tracks={info.tracks} catalog_mb={info.bytes / MB:.2f}"

    def tracks(self, tb: Testbed) -> list[str]:
        return tb.open_tracks()

    def run_pass(self, run: Run) -> None:
        tb = run.build(self.config)
        for service in RIP_SERVICES:
            for track in self.tracks(tb):
                run.rip(tb, service, track)
        for name in auditor.AUDIT_SERVICES:
            run.audit(tb, name)


class Sessions(Demo):
    """Growing server-side state: one long-lived demo bed per episode of
    SESSION_CYCLES cycles, each cycle playing wynk-v1, wynk-v2 and the
    benchmark on the next open track, with the injected clock stepped
    after every play so bearer and grant TTLs lapse many times. Every
    SESSION_AUDIT_EVERY cycles one service of the comparison table is
    audited on the same bed."""

    SERVICES = ("wynk-v1", "wynk-v2", "benchmark")
    SESSION_CYCLES = 1000
    SESSION_AUDIT_EVERY = 5
    CLOCK_STEP_S = 600
    # The episode builds one bed; these extra builds give setup_s a median.
    setup_builds = 20

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        self.inputs += f" cycles_per_episode={self.SESSION_CYCLES}"

    def run_pass(self, run: Run) -> None:
        tb = run.build(self.config)
        open_tracks = tb.open_tracks()
        audited = auditor.AUDIT_SERVICES
        for cycle in range(self.SESSION_CYCLES):
            track = open_tracks[cycle % len(open_tracks)]
            for service in self.SERVICES:
                run.rip(tb, service, track)
                tb.env.clock.advance(self.CLOCK_STEP_S)
            if cycle % self.SESSION_AUDIT_EVERY == self.SESSION_AUDIT_EVERY - 1:
                run.audit(tb, audited[cycle // self.SESSION_AUDIT_EVERY % len(audited)])


WORKLOADS = {"demo": Demo, "catalog": Catalog, "sessions": Sessions}


def _describe(catalog) -> str:
    size = sum(len(b) for a in catalog.assets.values() for b in a.variants.values())
    return f"tracks={len(catalog.assets)} catalog_mb={size / MB:.2f}"


def measure(workload, run: Run, seconds: float, sized) -> None:
    """Run whole passes until `seconds` have passed and sized(run) holds."""
    for _ in range(workload.setup_builds):
        run.build(workload.config)
    start = time.perf_counter()
    while True:
        workload.run_pass(run)
        run.wall_s = time.perf_counter() - start
        if run.wall_s >= LOOP_LIMIT_S or (run.wall_s >= seconds and sized(run)):
            return


def tap_digest(workload) -> str:
    """sha256 over the export_tap of every rip in one pass on a fresh bed."""
    tb = Testbed(workload.config)
    digest = hashlib.sha256()
    for service in RIP_SERVICES:
        for track in workload.tracks(tb):
            tap = tb.net.attach_tap()
            try:
                tb.rip(service, track)
            finally:
                tb.net.detach_tap(tap)
            digest.update(export_tap(tap.records()).encode("ascii"))
    return digest.hexdigest()


# ---- runs -----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(workload, seconds: float, baseline_mb: float):
    """Measure the end-to-end metrics. Returns (phases, metric -> (value,
    unit, note))."""
    run = Run(workload.digests)
    measure(workload, run, seconds,
            lambda r: enough(r.all_rip_ms(), 0.9) and enough(r.audit_ms, 0.9))
    peak = peak_rss_mb() - baseline_mb
    run.check(None if tap_digest(workload) == tap_digest(workload)
              else "tap digests differ between equal beds")
    metrics = {
        name: (value, unit, f"n={n}")
        for name, (value, unit, n) in end_to_end(run, peak).items()
    }
    return [run], metrics


def traced_run(workload, seconds: float, spans_path):
    """Half the time untraced, then half under the span recorder. Returns
    (phases, metric -> (value, unit, note)) for the per-layer metrics."""
    untraced = Run(workload.digests)
    measure(workload, untraced, seconds / 2,
            lambda r: all(enough(s, 0.5) for s in r.rip_ms.values()))
    traced = Run(workload.digests)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        measure(workload, traced, seconds / 2, lambda r: True)
    # the recorder must not change a single transcript byte
    with spans.installed(spans.Tracer()):
        traced_digest = tap_digest(workload)
    digests = {tap_digest(workload), tap_digest(workload), traced_digest}
    traced.check(None if len(digests) == 1 else "tap digests differ with tracing on")
    tracer.write(spans_path)

    wall_ms = traced.wall_s * 1000
    metrics = {}
    for name, (value, unit) in per_layer(tracer, untraced, traced).items():
        share = f"{value / wall_ms:.1%} of traced wall" if name.endswith(".self_ms") else ""
        metrics[name] = (value, unit, share)
    return [untraced, traced], metrics


# ---- metrics -------------------------------------------------------------------


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count)"""
    rips = run.all_rip_ms()
    return {
        "setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "rip_ms.p50": (percentile(rips, 0.5), "ms", len(rips)),
        "rip_ms.p90": (percentile(rips, 0.9), "ms", len(rips)),
        "rips_per_s": (run.rips_per_s(), "1/s", len(rips)),
        "audit_ms.p50": (percentile(run.audit_ms, 0.5), "ms", len(run.audit_ms)),
        "audit_ms.p90": (percentile(run.audit_ms, 0.9), "ms", len(run.audit_ms)),
    }


# spans reported by self time, and spans reported by call count
SELF_MS = (
    "testbed.init",
    "testbed.rip",
    "catalog.load_catalog",
    "transport.dispatch",
    "transport.request",
    "transport.hex_token",
    "crypto_kit.aes_ctr",
    "crypto_kit.aes_cbc",
    "crypto_kit.hmac_sha1",
    "crypto_kit.totp",
    "crypto_kit.passphrase",
    "hls.segment",
    "hls.render",
    "hls.parse",
    "cdn.build",
    "cdn.verify_grant",
    "cdn.handler",
    "benchmark.init",
    "benchmark.cdm_decrypt",
    "clients.rip_wynk_v1",
    "clients.rip_wynk_v2",
    "clients.rip_saavn",
    "clients.rip_gaana",
    "clients.rip_hungama",
    "clients.play_benchmark",
    "ripper.tap_rip",
    "auditor.audit",
    "report.render",
)
CALLS = (
    "transport.hex_token",
    "crypto_kit.aes_ctr",
    "crypto_kit.aes_cbc",
    "crypto_kit.hmac_sha1",
    "hls.parse",
    "cdn.verify_grant",
    "cdn.issue_grant",
    "benchmark.cdm_decrypt",
    "ripper.tap_rip",
)
# the handler whose per-call cost grows with live wynk-v2 sessions
GROWTH_HOST = "login.wynk.in"


def per_layer(tracer, untraced: Run, traced: Run) -> dict[str, tuple[float, str]]:
    """metric -> (value, unit) for the traced phase, plus the untraced
    phase's per-service rip medians and the tracing overhead."""
    totals = tracer.totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for span in SELF_MS:
        out[f"{span}.self_ms"] = (totals.get(span, (0, 0))[1] / 1e6, "ms")
    for span in CALLS:
        out[f"{span}.calls"] = (totals.get(span, (0, 0))[0], "count")
    for host in sorted(tracer.hosts):
        calls, self_ns = totals.get(f"host.{host}", (0, 0))
        out[f"host.{host}.calls"] = (calls, "count")
        out[f"host.{host}.self_ms"] = (self_ns / 1e6, "ms")
    exchanges = int(counts["transport.exchanges"])
    out["transport.exchanges"] = (exchanges, "count")
    out["transport.wire_mb"] = (counts["transport.wire_bytes"] / MB, "MB")
    out["transport.non200.ratio"] = (counts["transport.non200"] / max(exchanges, 1), "ratio")
    out["crypto_kit.aes_ctr.mb"] = (counts["crypto_kit.aes_ctr.bytes"] / MB, "MB")
    out["ripper.records_in"] = (int(counts["ripper.records_in"]), "count")
    for service in RIP_SERVICES:
        samples = untraced.rip_ms.get(service, [])
        # 0 marks a service this workload does not rip
        p50 = percentile(samples, 0.5) if samples else 0.0
        out[f"clients.{service}.rip_ms.p50"] = (p50, "ms")
    growth = [s[4] / 1e6 for s in tracer.spans if s[0] == f"host.{GROWTH_HOST}"]
    tenth = max(len(growth) // 10, 1)
    out[f"host.{GROWTH_HOST}.call_ms.first_tenth"] = (_mean(growth[:tenth]), "ms")
    out[f"host.{GROWTH_HOST}.call_ms.last_tenth"] = (_mean(growth[-tenth:]), "ms")
    out["trace.untraced.rips_per_s"] = (untraced.rips_per_s(), "1/s")
    out["trace.traced.rips_per_s"] = (traced.rips_per_s(), "1/s")
    out["trace.overhead"] = (untraced.rips_per_s() / traced.rips_per_s(), "ratio")
    return out


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0
