"""Behaviour manifest: one table of sha256 digests over everything a
refactor must leave byte-identical.

The table covers the wire transcript of a long-lived bed (every audit
probe, then every service x demo track, then the quality selectors), the
fields `export_tap` leaves out, the CLI's stdout, stderr and exit code,
and the client bundles. A change that moves one RNG draw, one header or
one output byte fails here, even where run-against-run determinism
tests agree with themselves.

To re-derive a digest, print `_digest(...)` of the same input on a tree
known to be right; never copy one from the tree under test.
"""

from __future__ import annotations

import hashlib

import pytest

from drmtestbed.auditor import audit_all
from drmtestbed.cli import main
from drmtestbed.testbed import RIP_SERVICES, SPECS, Testbed
from drmtestbed.transport import export_tap

GOLDEN_SHA256 = {
    # audit_all, every service x demo track, then the quality rips, all on
    # one default bed
    "bed.export_tap": "821886d1a0fe3f8e10a3b030bcfb0ccc3a4d093ba13692bc5903791a89e121ec",
    "bed.fields": "fe443f2bf18fe622efb7838b3adc11c8b92e06c77639289a079c7a7b7d15c604",
    "cli.demo": "347b657685f6993c66269f3188777b62b7a318cf802ad6fa460241bbd846288e",
    "cli.audit.text": "eb3ac8755f3c98f8993a5997ce32bf3b18dd06ec5811046789107b7b035a334f",
    "cli.audit.json": "9344413b59d1c6204972fd184bfd16ff5a57d65bd171539a6901731d80071a8e",
    "cli.rip.wynk-v1": "693b4c62f678e75116a59172024155258ce51bd4f2473473b4294a0aa2fdd8ba",
    "cli.rip.wynk-v2": "b863fd4a9d29fe1f86a986b8d8ab6f845c662c5f4051fa7717785a1f3362d362",
    "cli.rip.jiosaavn": "a5fe94caf2152819544ad9fe0011f4e0821cbc182e6e8b702feae94c1ef3c573",
    "cli.rip.gaana": "baa38af4a81ed97b77a783f7d2f0e7ca42b2e1db8a7ded3509dd06afa741d15a",
    "cli.rip.hungama": "dc2115f0dbe1247934e2032523a42ceb2f3f84ccb85fd6c66ffde513c69c5c1b",
    "cli.rip.benchmark": "cb57628e6f1070ac0c47777dd91d2c69f1bfd2ed92d5185a2ba8e48b92343d91",
    "bundle.https://img.wynk.in/webassets/app.min.js": "f95604246f302d98231cc1a476ebd8227a80db56d54235a503d8bdfe4080134a",
    "bundle.https://www.jiosaavn.com/static/app.min.js": "9add214699388c3061df05fcf3edc59ad0299e5894337b71292a61ac26a9cdc4",
    "bundle.https://gaana.com/static/player.min.js": "e9e8467f02a734cfa69869c6633a5958cafed7fda2f94e4cbd7b52fbab4bee38",
    "bundle.https://www.hungama.com/static/player.min.js": "be2dabe50154b8f2c84e9b48de5f6dd8488d1ba0c4efe6993442380b97252332",
    "bundle.https://api.benchtune.sim/static/player.min.js": "32808d1cb359f03360d83bbf23a7db1e3e2fd3912f190390c93838a6b6c8bc30",
    # one reference-client run on trk1 under a tap, fresh default bed
    # (tests/test_wynk.py::test_export_tap_bytes_are_pinned)
    "tap.wynk-v1": "73985ccf0efed07e86ad29ce981e7fd435761a02462148f3f8917f11019ff7f6",
    "tap.wynk-v2": "66632266ac9fc86b4e0bfca83e6127af51f6b0e11bc8a99acd21ec1e337a2828",
    "tap.jiosaavn": "4eb8c91e5c9c331eaad7b44efe69d244358998157f8e1f399eb4d74f27f73e77",
    "tap.gaana": "dc36a074d4568b81b3393793d9ff36d1bd5ed50475afafc4aaaf2d01aad6c3d3",
    "tap.hungama": "7fe73a0522dad0e813b41f358f2a45a0bf52121d73f6a7259fa5bb200f642725",
    "tap.benchmark": "6352b50513909d78b8d22965f5cd417388f2c1ba1d740a77074da230ecfaca82",
}

# the reference-client digests, keyed by rip name
PINNED_TAP_SHA256 = {
    key.removeprefix("tap."): value
    for key, value in GOLDEN_SHA256.items()
    if key.startswith("tap.")
}

# (service, quality) rips appended to the long-lived bed's transcript
_QUALITY_RIPS = (
    ("jiosaavn", "64"),
    ("gaana", "low"),
    ("hungama", "medium"),
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _long_lived_records():
    """Every exchange of one default bed: audit_all, then a rip of every
    service x demo track, then the quality rips."""
    tb = Testbed()
    tap = tb.net.attach_tap()
    try:
        audit_all(tb)
        for service in RIP_SERVICES:
            for track in tb.catalog.track_ids():
                tb.rip(service, track)
        for service, quality in _QUALITY_RIPS:
            tb.rip(service, "trk1", quality=quality)
    finally:
        tb.net.detach_tap(tap)
    return tap.records()


def _sorted_items(mapping) -> str:
    return repr(sorted(mapping.items()))


def _omitted_fields(records) -> bytes:
    """What `export_tap` leaves out: request headers, cookies and body,
    response status, headers and set-cookies, each in key-sorted order."""
    lines = []
    for rec in records:
        req, resp = rec.request, rec.response
        lines.append(
            "\t".join(
                (
                    str(rec.seq),
                    _sorted_items(req.headers),
                    _sorted_items(req.cookies),
                    bytes(req.body).hex(),
                    str(resp.status),
                    _sorted_items(resp.headers),
                    _sorted_items(resp.set_cookies),
                )
            )
        )
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module")
def long_lived_records():
    return _long_lived_records()


def test_long_lived_bed_export_tap(long_lived_records):
    data = export_tap(long_lived_records).encode("utf-8")
    assert _digest(data) == GOLDEN_SHA256["bed.export_tap"]


def test_long_lived_bed_fields_export_tap_omits(long_lived_records):
    assert _digest(_omitted_fields(long_lived_records)) == GOLDEN_SHA256["bed.fields"]


def _cli_digest(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    return _digest(f"{code}\n{captured.out}\x00{captured.err}".encode("utf-8"))


_CLI_CASES = {
    "cli.demo": ["demo"],
    "cli.audit.text": ["audit"],
    "cli.audit.json": ["audit", "--format", "json"],
    **{
        f"cli.rip.{service}": ["rip", "--service", service, "--track", "trk1",
                               "--out", "rip.aud"]
        for service in RIP_SERVICES
    },
}


@pytest.mark.parametrize("key", sorted(_CLI_CASES))
def test_cli_output_and_exit_code(key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `rip` prints its --out path
    assert _cli_digest(_CLI_CASES[key], capsys) == GOLDEN_SHA256[key]


_BUNDLES = sorted({spec.bundle_url for spec in SPECS})


def test_there_are_five_client_bundles():
    assert len(_BUNDLES) == 5


@pytest.mark.parametrize("url", _BUNDLES)
def test_client_bundle_bytes(url):
    resp = Testbed().net.get(url)
    data = f"{resp.status}\n{_sorted_items(resp.headers)}\n".encode("utf-8")
    assert _digest(data + resp.body) == GOLDEN_SHA256[f"bundle.{url}"]
