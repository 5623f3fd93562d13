"""Report rendering: stable text and JSON output."""

from __future__ import annotations

import hashlib
import json

import pytest

from drmtestbed.auditor import PRACTICE_FIELDS, PracticesScorecard
from drmtestbed.report import FORMATS, RunReport, render_report
from drmtestbed.ripper import RipResult


def _rip(**overrides) -> RipResult:
    base = dict(
        service="gaana",
        track="trk1",
        succeeded=True,
        matched_catalog=True,
        recovered=b"AUD0datadata",
        evidence=[3, 4, 5],
    )
    base.update(overrides)
    return RipResult(**base)


def _card(bits="1010101") -> PracticesScorecard:
    return PracticesScorecard(*[c == "1" for c in bits])


class TestJson:
    def test_document_shape(self):
        report = RunReport(rips=[_rip()], audits={"gaana": _card()})
        doc = json.loads(render_report(report, "json"))
        assert set(doc) == {"rips", "audits"}
        entry = doc["rips"][0]
        assert entry["service"] == "gaana" and entry["track"] == "trk1"
        assert entry["succeeded"] is True and entry["matched_catalog"] is True
        assert entry["recovered_bytes"] == 12
        assert entry["recovered_sha256"] == hashlib.sha256(b"AUD0datadata").hexdigest()
        assert entry["evidence_seqs"] == [3, 4, 5]
        audit = doc["audits"][0]
        assert audit["service"] == "gaana"
        assert list(audit["practices"]) == list(PRACTICE_FIELDS)
        assert audit["practices"]["mandatory_user_identification"] is True
        assert audit["practices"]["streamed_content_encryption"] is False

    def test_failed_rip_has_empty_hash(self):
        report = RunReport(rips=[_rip(succeeded=False, recovered=b"", evidence=[])])
        entry = json.loads(render_report(report, "json"))["rips"][0]
        assert entry["recovered_sha256"] == "" and entry["recovered_bytes"] == 0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_shared_variant_is_hashed_once(self, monkeypatch, fmt):
        # matched rips of one track carry the catalog's one variant object;
        # an equal blob that is another object is hashed on its own
        variant = b"AUD0" + b"x" * 64
        twin = bytes(bytearray(variant))
        assert twin == variant and twin is not variant
        rips = [_rip(service=s, recovered=variant) for s in ("gaana", "hungama", "jiosaavn")]
        rips.append(_rip(service="wynk-v1", recovered=twin))
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        out = render_report(RunReport(rips=rips), fmt)
        assert len(hashed) == 2
        assert out.count(sha256(variant).hexdigest()[:12]) == 4

    def test_pretty_printed_with_trailing_newline(self):
        out = render_report(RunReport(), "json")
        assert out.endswith("\n") and "\n  " in out
        assert json.loads(out) == {"rips": [], "audits": []}

    def test_same_report_same_bytes(self):
        report = RunReport(rips=[_rip()], audits={"x": _card("0000000")})
        assert render_report(report, "json") == render_report(report, "json")


class TestText:
    def test_empty_report(self):
        out = render_report(RunReport(), "text")
        assert "(no rips)" in out and "(no audits)" in out
        assert out.startswith("== stream rip results ==\n")
        assert out.endswith("\n")

    def test_rip_table_rows(self):
        report = RunReport(rips=[_rip(), _rip(track="trk3", matched_catalog=False)])
        lines = render_report(report, "text").splitlines()
        header = next(l for l in lines if l.startswith("service"))
        assert header.split() == [
            "service", "track", "ripped", "matched", "bytes", "sha256",
        ]
        row1 = next(l for l in lines if "trk1" in l)
        digest12 = hashlib.sha256(b"AUD0datadata").hexdigest()[:12]
        assert row1.split() == ["gaana", "trk1", "yes", "yes", "12", digest12]
        row3 = next(l for l in lines if "trk3" in l)
        assert row3.split()[3] == "no"

    def test_failed_rip_prints_dash_for_hash(self):
        report = RunReport(rips=[_rip(succeeded=False, recovered=b"")])
        row = [l for l in render_report(report, "text").splitlines() if "trk1" in l][0]
        assert row.split() == ["gaana", "trk1", "no", "yes", "0", "-"]

    def test_audit_matrix_one_row_per_practice(self):
        report = RunReport(audits={"a": _card("1111111"), "b": _card("0000000")})
        lines = render_report(report, "text").splitlines()
        for practice in PRACTICE_FIELDS:
            row = next(l for l in lines if l.startswith(practice))
            assert row.split() == [practice, "yes", "no"]

    def test_no_trailing_spaces(self):
        report = RunReport(rips=[_rip()], audits={"gaana": _card()})
        for line in render_report(report, "text").splitlines():
            assert line == line.rstrip()

    def test_default_format_is_text(self):
        report = RunReport()
        assert render_report(report) == render_report(report, "text")


class TestErrors:
    def test_known_formats(self):
        assert FORMATS == ("text", "json")

    @pytest.mark.parametrize("fmt", ["xml", "TEXT", "", "yaml"])
    def test_unknown_format_raises_usage_error(self, fmt):
        with pytest.raises(ValueError, match=f"unknown report format {fmt!r}"):
            render_report(RunReport(), fmt)
