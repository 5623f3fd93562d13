"""Render rip results and audit scorecards as text or JSON.

One renderer, two formats, no hidden state: the same RunReport always
produces the same bytes, so reports diff cleanly across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .auditor import PRACTICE_FIELDS, PracticesScorecard
from .ripper import RipResult

FORMATS = ("text", "json")


@dataclass
class RunReport:
    rips: list[RipResult] = field(default_factory=list)
    audits: dict[str, PracticesScorecard] = field(default_factory=dict)


def _rip_entries(rips: list[RipResult]) -> list[dict]:
    # a matched rip carries the catalog's own variant object, which every
    # service that ripped the track shares, so each object is hashed once;
    # the report holds every blob while it renders, so no id is reused
    digests: dict[int, str] = {}
    entries = []
    for rip in rips:
        blob = rip.recovered
        if id(blob) not in digests:
            digests[id(blob)] = hashlib.sha256(blob).hexdigest() if blob else ""
        entries.append({
            "service": rip.service,
            "track": rip.track,
            "succeeded": rip.succeeded,
            "matched_catalog": rip.matched_catalog,
            "recovered_bytes": len(blob),
            "recovered_sha256": digests[id(blob)],
            "evidence_seqs": list(rip.evidence),
        })
    return entries


def _render_json(report: RunReport) -> str:
    doc = {
        "rips": _rip_entries(report.rips),
        "audits": [
            {"service": name, "practices": card.as_dict()}
            for name, card in report.audits.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _yes_no(value: bool) -> str:
    return "yes" if value else "no"


def _table(rows: list) -> list[str]:
    """Rows of cells as lines, each column padded to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows]


def _render_text(report: RunReport) -> str:
    lines = ["== stream rip results =="]
    if report.rips:
        rows = [("service", "track", "ripped", "matched", "bytes", "sha256")]
        for entry in _rip_entries(report.rips):
            rows.append(
                (
                    entry["service"],
                    entry["track"],
                    _yes_no(entry["succeeded"]),
                    _yes_no(entry["matched_catalog"]),
                    str(entry["recovered_bytes"]),
                    entry["recovered_sha256"][:12] or "-",
                )
            )
        lines += _table(rows)
    else:
        lines.append("(no rips)")
    lines.append("")
    lines.append("== practices audit ==")
    if report.audits:
        names = list(report.audits)
        rows = [["practice"] + names]
        for practice in PRACTICE_FIELDS:
            rows.append(
                [practice]
                + [_yes_no(getattr(report.audits[n], practice)) for n in names]
            )
        lines += _table(rows)
    else:
        lines.append("(no audits)")
    return "\n".join(lines) + "\n"


def render_report(report: RunReport, fmt: str = "text") -> str:
    if fmt == "json":
        return _render_json(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r}, want one of {FORMATS}")
