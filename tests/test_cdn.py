"""Grant issuance/verification and the CDN node that enforces them."""

from __future__ import annotations

import json
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drmtestbed.cdn as cdn_mod
from drmtestbed.cdn import (
    FAR_FUTURE,
    KEY_PAIR_PARAM,
    POLICY_PARAM,
    SIGNATURE_PARAM,
    CdnNode,
    GrantGate,
    issue_grant,
    verify_grant,
)
from drmtestbed.crypto_kit import b64, b64_decode, hmac_sha1
from drmtestbed.hls import MediaAsset, parse_index, parse_master
from drmtestbed.services import wynk as wynk_mod
from drmtestbed.transport import Clock, HttpRequest, query_string, split_url

SECRET = bytes.fromhex("4f1c6d2a90be77d31e55a8c04962ddc1b07f93e2")
KPID = "KTEST01"


def _grant(prefix="/hls/a/", expires=2000):
    return issue_grant(SECRET, KPID, prefix, expires)


def _forge(grant, **fields):
    """A copy of a grant with some of its parameters replaced."""
    return {**grant, **fields}


# ------------------------------------------------------------------ grants


def test_grant_policy_is_inspectable_base64_json():
    grant = _grant()
    policy = json.loads(b64_decode(grant[POLICY_PARAM]))
    assert policy == {"expires": 2000, "resource": "/hls/a/"}
    # signature is HMAC-SHA1 over the decoded policy bytes
    doc = json.dumps(policy, separators=(",", ":"), sort_keys=True).encode()
    assert b64_decode(grant[SIGNATURE_PARAM]) == hmac_sha1(SECRET, doc)
    assert grant[KEY_PAIR_PARAM] == KPID


def test_grant_query_round_trip():
    grant = _grant()
    assert list(grant) == [POLICY_PARAM, SIGNATURE_PARAM, KEY_PAIR_PARAM]
    policy, signature = grant[POLICY_PARAM], grant[SIGNATURE_PARAM]
    assert query_string(grant) == (
        f"Policy={policy}&Signature={signature}&Key-Pair-Id={KPID}"
    )
    url = f"https://cdn.test/hls/a/master.m3u8?{query_string(grant)}"
    assert split_url(url)[2] == grant


@settings(max_examples=60)
@given(
    secret=st.binary(min_size=1, max_size=40),
    prefix=st.text(),
    expires=st.integers(),
)
@example(secret=SECRET, prefix="/hls/\ud800/", expires=FAR_FUTURE)
@example(secret=SECRET, prefix="", expires=-1)
def test_signed_terms_read_back_what_issue_grant_signed(secret, prefix, expires):
    grant = issue_grant(secret, KPID, prefix, expires)
    assert cdn_mod._signed_terms(secret, KPID, grant) == (prefix, expires)


def test_verify_accepts_within_scope_and_time():
    grant = _grant("/hls/a/", expires=2000)
    assert verify_grant(SECRET, KPID, grant, "/hls/a/128/seg_00000.ts", 1999)
    assert verify_grant(SECRET, KPID, grant, "/hls/a/master.m3u8", 0)


def test_verify_rejects_expiry_boundary_and_beyond():
    grant = _grant(expires=2000)
    path = "/hls/a/master.m3u8"
    assert not verify_grant(SECRET, KPID, grant, path, 2000)  # now >= expires
    assert not verify_grant(SECRET, KPID, grant, path, 3000)


def test_verify_rejects_out_of_scope_paths():
    grant = _grant("/hls/a/")
    assert not verify_grant(SECRET, KPID, grant, "/hls/b/master.m3u8", 0)
    assert not verify_grant(SECRET, KPID, grant, "/file/a/320.aud", 0)
    exact = issue_grant(SECRET, KPID, "/file/a/320.aud", 2000)
    assert verify_grant(SECRET, KPID, exact, "/file/a/320.aud", 0)
    assert not verify_grant(SECRET, KPID, exact, "/file/a/64.aud", 0)


def test_verify_rejects_wrong_secret_or_key_pair():
    grant = _grant()
    assert not verify_grant(b"other-secret", KPID, grant, "/hls/a/x", 0)
    assert not verify_grant(SECRET, "KOTHER", grant, "/hls/a/x", 0)
    assert not verify_grant(SECRET, KPID, {}, "/hls/a/x", 0)


def test_forged_policy_fails_without_the_secret():
    grant = _grant(expires=2000)
    doc = json.dumps({"expires": FAR_FUTURE, "resource": "/"},
                     separators=(",", ":"), sort_keys=True).encode()
    forged = _forge(grant, **{POLICY_PARAM: b64(doc)})
    assert not verify_grant(SECRET, KPID, forged, "/hls/a/x", 0)


def test_garbage_grants_fail_closed():
    grant = _grant()
    missing = [
        {k: v for k, v in grant.items() if k != param}
        for param in (POLICY_PARAM, SIGNATURE_PARAM, KEY_PAIR_PARAM)
    ]
    for bad in (
        _forge(grant, **{POLICY_PARAM: "!!"}),
        _forge(grant, **{SIGNATURE_PARAM: "!!"}),
        _forge(grant, **{POLICY_PARAM: b64(b"not json")}),
        _forge(grant, **{POLICY_PARAM: b64(b'{"expires": 99}')}),
        _forge(grant, **{POLICY_PARAM: b64(b'{"expires": "soon", "resource": "/"}')}),
        *missing,  # each parameter missing
    ):
        assert not verify_grant(SECRET, KPID, bad, "/hls/a/x", 0)
        assert not GrantGate(SECRET, KPID).admits(bad, "/hls/a/x", 0)


def _signed(policy_doc: bytes) -> dict[str, str]:
    """A grant carrying any policy bytes, correctly signed."""
    return {
        POLICY_PARAM: b64(policy_doc),
        SIGNATURE_PARAM: b64(hmac_sha1(SECRET, policy_doc)),
        KEY_PAIR_PARAM: KPID,
    }


_NESTED = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "policy_doc",
    [
        b'{"expires":1e400,"resource":"/"}',  # json reads inf
        b'{"expires":-1e400,"resource":"/"}',
        b'{"expires":NaN,"resource":"/"}',
        b'{"expires":"' + b"9" * 5000 + b'","resource":"/"}',
        _NESTED,
        b'{"expires":2000,"resource":' + _NESTED + b"}",
        b'{"expires":2000,"resource":5}',
    ],
    ids=["inf", "minus-inf", "nan", "5000-digits", "nested", "nested-resource",
         "resource-not-a-string"],
)
def test_signed_but_unreadable_policy_fails_closed(policy_doc):
    grant = _signed(policy_doc)
    assert cdn_mod._signed_terms(SECRET, KPID, grant) is None
    assert not verify_grant(SECRET, KPID, grant, "/hls/a/x", 0)
    assert not GrantGate(SECRET, KPID).admits(grant, "/hls/a/x", 0)


def test_signed_helper_signs_as_issue_grant():
    doc = b'{"expires":2000,"resource":"/hls/a/"}'
    assert _signed(doc) == _grant("/hls/a/", expires=2000)
    assert cdn_mod._signed_terms(SECRET, KPID, _signed(doc)) == ("/hls/a/", 2000)


def test_policy_mutation_fuzz_never_verifies():
    grant = _grant("/hls/a/", expires=FAR_FUTURE)
    raw = b64_decode(grant[POLICY_PARAM])
    rng = random.Random(0xCD4)
    accepted = 0
    for _ in range(300):
        mutated = bytearray(raw)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        if bytes(mutated) == raw:
            continue
        candidate = _forge(grant, **{POLICY_PARAM: b64(bytes(mutated))})
        accepted += verify_grant(SECRET, KPID, candidate, "/hls/a/x", 0)
    assert accepted == 0


# ------------------------------------------------------------- grant gate

_GATE_A = _grant("/hls/a/", expires=2000)
_GATE_B = _grant("/file/b/320.aud", expires=2500)
_GATE_GRANTS = {
    "a": _GATE_A,
    "b": _GATE_B,
    "tampered-policy": _forge(_GATE_A, **{POLICY_PARAM: _GATE_B[POLICY_PARAM]}),
    "tampered-signature": _forge(_GATE_A, **{SIGNATURE_PARAM: b64(bytes(20))}),
    "foreign-key-pair": _forge(_GATE_A, **{KEY_PAIR_PARAM: "KOTHER"}),
    "none": {},
}
_GATE_PATHS = (
    "/hls/a/master.m3u8",
    "/hls/a/320/seg_00001.ts",
    "/hls/b/master.m3u8",
    "/hls/a",
    "/file/b/320.aud",
    "/file/b/64.aud",
    "/",
)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(_GATE_GRANTS)),
            st.sampled_from(_GATE_PATHS),
            st.sampled_from((0, 0, 1, 5, 10, 500)),
        ),
        max_size=40,
    )
)
@example([("a", "/hls/a/x", 0), ("a", "/hls/a/x", 5), ("a", "/hls/a/x", 0)])
@example([("a", "/hls/a/x", 0), ("b", "/file/b/320.aud", 0), ("a", "/hls/b/x", 0)])
@example([("a", "/hls/a/x", 0), ("tampered-policy", "/file/b/320.aud", 0),
          ("foreign-key-pair", "/hls/a/x", 0), ("a", "/hls/a/x", 500)])
def test_gate_answers_as_verify_grant(steps):
    # the clock starts 5 s before grant a expires and only moves forward,
    # so sequences reach now == expires and run past both expiries
    gate, now = GrantGate(SECRET, KPID), 1995
    for name, path, advance in steps:
        now += advance
        query = dict(_GATE_GRANTS[name])
        assert gate.admits(query, path, now) == verify_grant(
            SECRET, KPID, query, path, now
        ), (name, path, now)


def test_gate_checks_each_grant_signature_once(bed, monkeypatch):
    # A play streams a whole track under one grant: the signature is
    # computed when the grant is issued and once more when the CDN first
    # sees it, however many chunks follow.
    calls = []
    real = cdn_mod.hmac_sha1
    monkeypatch.setattr(
        cdn_mod, "hmac_sha1", lambda key, msg: calls.append(msg) or real(key, msg)
    )
    bed.rip("benchmark", "trk1")
    assert len(calls) == 3  # a grant for each of two edges, one check
    calls.clear()
    result, _ = bed.rip("wynk-v1", "trk1")
    assert result.matched_catalog
    assert len(calls) == 2  # one grant for the HLS tree, one check


def test_gate_hit_refuses_another_signature():
    # same Policy and Key-Pair-Id as the cached grant, signed under
    # another secret
    gate, path, now = GrantGate(SECRET, KPID), "/hls/a/x", 1995
    query = dict(_GATE_A)
    assert gate.admits(query, path, now)
    forged = issue_grant(b"not the cdn secret", KPID, "/hls/a/", 2000)
    assert forged[POLICY_PARAM] == _GATE_A[POLICY_PARAM]
    assert forged[SIGNATURE_PARAM] != _GATE_A[SIGNATURE_PARAM]
    assert not gate.admits(forged, path, now)
    assert gate.admits(query, path, now)


@pytest.mark.parametrize("param", [POLICY_PARAM, SIGNATURE_PARAM, KEY_PAIR_PARAM])
def test_gate_hit_refuses_a_dropped_parameter(param):
    gate, path, now = GrantGate(SECRET, KPID), "/hls/a/x", 1995
    query = dict(_GATE_A)
    assert gate.admits(query, path, now)
    del query[param]
    assert not gate.admits(query, path, now)
    assert gate.admits(dict(_GATE_A), path, now)


def test_gate_issues_the_grants_it_admits():
    gate = GrantGate(SECRET, KPID)
    assert gate.grant("/hls/a/", 2000) == _grant()
    url = gate.signed_url("cdn.test", "/file/a/320.aud", 2000)
    assert url == (
        f"https://cdn.test/file/a/320.aud?{query_string(_grant('/file/a/320.aud'))}"
    )
    _host, path, query = split_url(url)
    assert gate.admits(query, path, 1999)
    assert not gate.admits(query, "/file/a/64.aud", 1999)


def test_far_future_constant():
    assert FAR_FUTURE == 4102444800


# ---------------------------------------------------------------- cdn node


@pytest.fixture
def node():
    clock = Clock(1000)
    cdn = CdnNode("cdn.test", GrantGate(SECRET, KPID), clock, chunk_bytes=100)
    asset = MediaAsset("a1", "Asset", {320: b"\xaa" * 250, 64: b"\xbb" * 120})
    cdn.add_hls_asset("a1", asset)
    cdn.add_file_asset("f1", asset)
    return cdn, clock, asset


def _get(cdn, path, query=None):
    return cdn.handler(HttpRequest(method="GET", path=path, query=dict(query or {})))


def test_cdn_serves_granted_hls_tree(node):
    cdn, _clock, asset = node
    query = cdn.hls_grant("a1", expires_at=2000)

    master = _get(cdn, "/hls/a1/master.m3u8", query)
    assert master.status == 200
    entries = parse_master(master.body.decode())
    assert [bw for bw, _ in entries] == [320000, 64000]

    index = _get(cdn, "/hls/a1/320/index.m3u8", query)
    segs = parse_index(index.body.decode())
    assert len(segs) == 3  # 250 bytes at 100-byte chunks
    body = b"".join(
        _get(cdn, f"/hls/a1/320/seg_{i:05d}.ts", query).body for i in range(3)
    )
    assert body == asset.variant(320)
    # chunks are read-only views of the catalog variant, not copies of it
    first = _get(cdn, "/hls/a1/320/seg_00000.ts", query).body
    assert first.obj is asset.variant(320) and first.readonly


def test_wynk_and_gaana_serve_the_same_chunk_objects(bed):
    # both serve each asset at 320/128/64 kbps, from its one cut
    asset, sid = bed.catalog.assets["trk1"], wynk_mod.search_id("srch_trk1")
    wynk_grant = bed.wynk.cdn.hls_grant(sid, FAR_FUTURE)
    gaana_grant = bed.gaana.cdn.hls_grant("trk1", FAR_FUTURE)
    for rate in (320, 128, 64):
        served = []
        for i in range(-(-len(asset.variant(rate)) // bed.config.chunk_bytes)):
            seg = f"{rate}/seg_{i:05d}.ts"
            wynk = _get(bed.wynk.cdn, f"/hls/{sid}/{seg}", wynk_grant)
            gaana = _get(bed.gaana.cdn, f"/hls/trk1/{seg}", gaana_grant)
            assert wynk.status == gaana.status == 200
            assert wynk.body is gaana.body
            served.append(wynk.body)
        assert tuple(served) == asset.cut(rate, bed.config.chunk_bytes)
        assert all(map(operator.is_, served, asset.cut(rate, bed.config.chunk_bytes)))


def test_saavn_and_hungama_serve_one_view_per_asset_and_rate(bed):
    # a whole file is the one chunk of the cut as long as the variant
    asset = bed.catalog.assets["trk1"]
    for rate in (320, 64):
        bodies = []
        for cdn in (bed.saavn.cdn, bed.hungama.cdn):
            _host, path, query = split_url(cdn.signed_file_url("trk1", rate, FAR_FUTURE))
            resp = _get(cdn, path, query)
            assert resp.status == 200
            bodies.append(resp.body)
        whole = asset.cut(rate, len(asset.variant(rate)))[0]
        assert bodies[0] is bodies[1] is whole
        assert whole.readonly and whole.obj is asset.variant(rate)


def test_every_cdn_media_body_is_a_chunk_of_its_assets_cut(bed):
    nodes = [
        service.cdn
        for service in vars(bed).values()
        if isinstance(getattr(service, "cdn", None), CdnNode)
    ]
    assert len(nodes) == 4  # wynk, saavn, gaana, hungama
    cut_chunks = {}
    for asset in bed.catalog.assets.values():
        for rate, variant in asset.variants.items():
            for chunk_bytes in (bed.config.chunk_bytes, len(variant)):
                for chunk in asset.cut(rate, chunk_bytes):
                    cut_chunks[id(chunk)] = chunk
    for cdn in nodes:
        media = [
            body for path, body in cdn._content.items() if path.endswith((".ts", ".aud"))
        ]
        assert media
        for body in media:
            assert cut_chunks.get(id(body)) is body


def test_only_the_gate_holds_a_key_pair(node, bed):
    cdn, _clock, _asset = node
    for holder in (cdn, bed.benchmark):
        assert not {"_secret", "_cdn_secret", "_key_pair_id"} & set(vars(holder))


def test_cdn_single_variant_masters(node):
    cdn, _clock, _asset = node
    query = cdn.hls_grant("a1", expires_at=2000)
    solo = _get(cdn, "/hls/a1/64/master.m3u8", query)
    entries = parse_master(solo.body.decode())
    assert entries == ((64000, "https://cdn.test/hls/a1/64/index.m3u8"),)
    assert cdn.variant_master_url("a1", 64) == "https://cdn.test/hls/a1/64/master.m3u8"


def test_cdn_file_assets_and_exact_grants(node):
    cdn, _clock, asset = node
    url = cdn.signed_file_url("f1", 320, expires_at=2000)
    host, path, query = split_url(url)
    assert (host, path) == ("cdn.test", "/file/f1/320.aud")
    assert query == issue_grant(SECRET, KPID, "/file/f1/320.aud", 2000)
    resp = _get(cdn, path, query)
    assert resp.status == 200 and resp.body == asset.variant(320)
    # that grant covers exactly one rate
    assert _get(cdn, "/file/f1/64.aud", query).status == 403

