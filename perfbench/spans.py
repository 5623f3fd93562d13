"""Span recorder for the traced run.

Every span is recorded from outside the package: the recorder swaps
drmtestbed's public functions and methods for timing wrappers while a
traced phase runs, and puts the originals back afterwards, so the
program under test carries no instrumentation of its own.

A span is (name, depth, start_ns, duration_ns, self_ns). Self time is
the span's duration minus the durations of its direct children, kept
with a stack because the testbed is single-threaded. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Module-level functions: (defining module, attribute, span name). Many
# are imported by name elsewhere in the package (`from .crypto_kit
# import aes_ctr`), so every drmtestbed module binding of the function
# object gets the wrapper, not just the defining one.
FUNCTIONS = (
    ("drmtestbed.catalog", "load_catalog", "catalog.load_catalog"),
    ("drmtestbed.crypto_kit", "aes_ctr", "crypto_kit.aes_ctr"),
    ("drmtestbed.crypto_kit", "aes_cbc_encrypt", "crypto_kit.aes_cbc"),
    ("drmtestbed.crypto_kit", "aes_cbc_decrypt", "crypto_kit.aes_cbc"),
    ("drmtestbed.crypto_kit", "hmac_sha1", "crypto_kit.hmac_sha1"),
    ("drmtestbed.crypto_kit", "totp", "crypto_kit.totp"),
    ("drmtestbed.crypto_kit", "passphrase_seal", "crypto_kit.passphrase"),
    ("drmtestbed.crypto_kit", "passphrase_open", "crypto_kit.passphrase"),
    ("drmtestbed.hls", "segment", "hls.segment"),
    ("drmtestbed.hls", "render_master", "hls.render"),
    ("drmtestbed.hls", "render_index", "hls.render"),
    ("drmtestbed.hls", "parse_master", "hls.parse"),
    ("drmtestbed.hls", "parse_index", "hls.parse"),
    ("drmtestbed.cdn", "verify_grant", "cdn.verify_grant"),
    ("drmtestbed.cdn", "issue_grant", "cdn.issue_grant"),
    ("drmtestbed.clients", "rip_wynk_v1", "clients.rip_wynk_v1"),
    ("drmtestbed.clients", "rip_wynk_v2", "clients.rip_wynk_v2"),
    ("drmtestbed.clients", "rip_saavn", "clients.rip_saavn"),
    ("drmtestbed.clients", "rip_gaana", "clients.rip_gaana"),
    ("drmtestbed.clients", "rip_hungama", "clients.rip_hungama"),
    ("drmtestbed.clients", "play_benchmark", "clients.play_benchmark"),
    ("drmtestbed.ripper", "tap_rip", "ripper.tap_rip"),
    ("drmtestbed.auditor", "audit", "auditor.audit"),
    ("drmtestbed.report", "render_report", "report.render"),
)

# Methods, patched on their class: (module, class, method, span name).
METHODS = (
    ("drmtestbed.testbed", "Testbed", "__init__", "testbed.init"),
    ("drmtestbed.testbed", "Testbed", "rip", "testbed.rip"),
    ("drmtestbed.transport", "Network", "dispatch", "transport.dispatch"),
    ("drmtestbed.transport", "Network", "request", "transport.request"),
    ("drmtestbed.transport", "DeterministicEnv", "hex_token", "transport.hex_token"),
    ("drmtestbed.cdn", "CdnNode", "add_hls_asset", "cdn.build"),
    ("drmtestbed.cdn", "CdnNode", "add_file_asset", "cdn.build"),
    ("drmtestbed.cdn", "CdnNode", "handler", "cdn.handler"),
    ("drmtestbed.benchmark", "BenchmarkService", "__init__", "benchmark.init"),
    ("drmtestbed.benchmark", "Cdm", "decrypt_segment", "benchmark.cdm_decrypt"),
)


def _count_exchange(counts, args, kwargs, response) -> None:
    counts["transport.exchanges"] += 1
    counts["transport.wire_bytes"] += len(response.body)
    counts["transport.non200"] += response.status != 200


def _count_ctr_bytes(counts, args, kwargs, result) -> None:
    counts["crypto_kit.aes_ctr.bytes"] += len(result)


def _count_records(counts, args, kwargs, result) -> None:
    records = args[0] if args else kwargs["records"]
    counts["ripper.records_in"] += len(records)


# Counters taken from a wrapped call's arguments or result.
OBSERVERS = {
    "transport.dispatch": _count_exchange,
    "crypto_kit.aes_ctr": _count_ctr_bytes,
    "ripper.tap_rip": _count_records,
}


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hosts: set[str] = set()
        self._stack: list[list[int]] = []

    def wrap(self, name: str, fn, observe=None):
        clock, spans, stack, counts = self.clock, self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                spans.append((name, len(stack), start, duration, duration - children[0]))
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, int]]:
        """span name -> (calls, self_ns)"""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for name, _depth, _start, _duration, self_ns in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += self_ns
        return {name: (calls, self_ns) for name, (calls, self_ns) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tdepth\tstart_ns\tduration_ns\tself_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "drmtestbed" or name.startswith("drmtestbed."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function and method for the duration of the
    block. Handlers registered inside the block (Network.register runs
    when a Testbed is built) get a `host.<hostname>` span each."""
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module_name, *_rest in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        modules = _package_modules()
        for module_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(span, original, OBSERVERS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapper)
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            patch(cls, attr, tracer.wrap(span, getattr(cls, attr), OBSERVERS.get(span)))

        network = importlib.import_module("drmtestbed.transport").Network
        register = network.register

        def traced_register(net, host, handler):
            tracer.hosts.add(host)
            return register(net, host, tracer.wrap(f"host.{host}", handler))

        patch(network, "register", traced_register)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
