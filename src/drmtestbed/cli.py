"""testbed command line.

    testbed rip --service wynk-v2 --track trk1 --out media.aud
    testbed audit --format json
    testbed demo --seed 7 --clock 1700000000

Exit codes: 0 success, 2 protocol failure (a rip that recovers no
catalog media, or an audit refused for want of a working baseline: the
reference run, the replay target or the bundle fetch failed), 64 usage
error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from .auditor import AUDIT_SERVICES, AuditRefused, audit_all
from .config import ConfigError, TestbedConfig, load_config
from .report import FORMATS, RunReport, render_report
from .testbed import RIP_SERVICES, Testbed

EXIT_OK = 0
EXIT_PROTOCOL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="testbed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rip = sub.add_parser("rip", help="drive a reference client and rip the tap")
    rip.add_argument("--config", help="key=value config file")
    rip.add_argument("--service", required=True, choices=RIP_SERVICES)
    rip.add_argument("--track", required=True)
    rip.add_argument("--quality", help="service-specific quality selector")
    rip.add_argument("--out", required=True, help="file for recovered bytes")

    aud = sub.add_parser("audit", help="run the practices probes")
    aud.add_argument("--config", help="key=value config file")
    aud.add_argument(
        "--service",
        help="one auditable service (default: the whole comparison table)",
    )
    aud.add_argument("--format", default="text", choices=FORMATS)

    demo = sub.add_parser("demo", help="rip everything, audit everything")
    demo.add_argument("--config", help="key=value config file")
    demo.add_argument("--seed", type=int, help="override config seed")
    demo.add_argument("--clock", type=int, help="override config clock epoch")

    return parser


def _load(args) -> TestbedConfig:
    cfg = load_config(args.config) if args.config else TestbedConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "clock", None) is not None:
        cfg = replace(cfg, clock=args.clock)
    return cfg


def _cmd_rip(args) -> int:
    tb = Testbed(_load(args))
    result, client_error = tb.rip(args.service, args.track, quality=args.quality)
    Path(args.out).write_bytes(result.recovered)
    digest = hashlib.sha256(result.recovered).hexdigest()[:12] if result.recovered else "-"
    print(
        f"rip {result.service} {result.track}: "
        f"ripped={'yes' if result.succeeded else 'no'} "
        f"matched={'yes' if result.matched_catalog else 'no'} "
        f"bytes={len(result.recovered)} sha256={digest} out={args.out}"
    )
    if client_error:
        print(f"client: {client_error}", file=sys.stderr)
    if result.succeeded and result.matched_catalog:
        return EXIT_OK
    print("rip failed: transcript yielded no catalog media", file=sys.stderr)
    return EXIT_PROTOCOL


def _cmd_audit(args) -> int:
    tb = Testbed(_load(args))
    audits = audit_all(tb, AUDIT_SERVICES if args.service is None else (args.service,))
    sys.stdout.write(render_report(RunReport(audits=audits), args.format))
    return EXIT_OK


def _cmd_demo(args) -> int:
    tb = Testbed(_load(args))
    rips = []
    for service in RIP_SERVICES:
        for track in tb.catalog.track_ids():
            result, _client_error = tb.rip(service, track)
            rips.append(result)
    audits = audit_all(tb)
    sys.stdout.write(render_report(RunReport(rips=rips, audits=audits), "text"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rip":
            return _cmd_rip(args)
        if args.command == "audit":
            return _cmd_audit(args)
        return _cmd_demo(args)
    except AuditRefused as exc:
        print(f"testbed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"testbed: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
