"""The control service: accounts, bearer tokens, ranged encrypted media,
and a license exchange that keeps content keys inside the CDM."""

from __future__ import annotations

import json

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from drmtestbed import benchmark as bench
from drmtestbed import crypto_kit
from drmtestbed.catalog import ServiceCatalog, demo_catalog
from drmtestbed.clients import ProtocolFailure, play_benchmark
from drmtestbed.config import TestbedConfig
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset
from drmtestbed.transport import DeterministicEnv, Network, error_response

from test_transport import wrap_route

DEVICE_KEY = bytes.fromhex("5e21b7da93c604f8ab176ce0421f98d3")

PREMIUM = ("ada", "correct-horse-battery")
FREE = ("grace", "paper-clip-42")


def _make_rig():
    env = DeterministicEnv(seed=61, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = bench.BenchmarkService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    return svc, net, env, catalog


@pytest.fixture
def rig():
    return _make_rig()


def _login(net, creds=PREMIUM):
    user, password = creds
    resp = net.post(
        f"https://{bench.HOST_API}{bench.LOGIN_PATH}",
        body=json.dumps({"username": user, "password": password}).encode(),
    )
    return resp


def _bearer(net, creds=PREMIUM):
    login = _login(net, creds)
    assert login.status == 200
    token = net.post(
        f"https://{bench.HOST_API}{bench.TOKEN_PATH}", cookies=dict(login.set_cookies)
    )
    assert token.status == 200
    return json.loads(token.body)["bearer"]


def _resolve(net, bearer, track="trk1"):
    return net.get(
        f"https://{bench.HOST_API}{bench.RESOLVE_PREFIX}{track}",
        headers={"authorization": f"Bearer {bearer}"},
    )


# --------------------------------------------------------------- accounts


def test_login_sets_session_cookie(rig):
    _svc, net, _env, _catalog = rig
    resp = _login(net)
    assert resp.status == 200
    sid = resp.set_cookies[bench.SESSION_COOKIE]
    assert len(sid) == 32


def test_bearer_store_holds_only_the_live_window(rig):
    # 10k token grants with the clock stepped 700 s after each: a bearer
    # lives bearer_ttl (3600 s), so at most ceil(3600 / 700) = 6 are live
    svc, net, env, _catalog = rig
    step = 700
    window = -(-svc.bearer_ttl // step)
    login = _login(net)
    cookies = dict(login.set_cookies)
    first = None
    for _ in range(10_000):
        token = net.post(f"https://{bench.HOST_API}{bench.TOKEN_PATH}", cookies=cookies)
        bearer = json.loads(token.body)["bearer"]
        first = first or bearer
        assert _resolve(net, bearer).status == 200
        assert len(svc._bearers) <= window
        env.clock.advance(step)
    assert len(svc._bearers) == window
    # an evicted bearer answers exactly as an expired one still stored
    assert first not in svc._bearers
    expired = _bearer(net)
    env.clock.advance(svc.bearer_ttl)
    assert expired in svc._bearers
    evicted_resp, expired_resp = _resolve(net, first), _resolve(net, expired)
    assert evicted_resp.status == expired_resp.status == 401
    assert evicted_resp.body == expired_resp.body
    assert json.loads(evicted_resp.body) == {"error": "bearer missing or expired"}


def test_session_store_holds_only_the_live_window(rig):
    # 2k logins with the clock stepped 700 s after each: a session lives
    # bearer_ttl (3600 s) from its last use, so at most 6 are live
    svc, net, env, _catalog = rig
    step = 700
    window = -(-svc.bearer_ttl // step)
    first = dict(_login(net).set_cookies)
    env.clock.advance(step)
    for _ in range(2_000):
        _login(net)
        assert len(svc._sessions) <= window
        env.clock.advance(step)
    assert len(svc._sessions) == window
    # an evicted session answers byte for byte as a cookie never issued
    token = f"https://{bench.HOST_API}{bench.TOKEN_PATH}"
    evicted = net.post(token, cookies=first)
    unknown = net.post(token, cookies={bench.SESSION_COOKIE: "f" * 32})
    assert evicted.status == unknown.status == 401
    assert evicted.body == unknown.body
    assert json.loads(evicted.body) == {"error": "login first"}


def test_session_lives_bearer_ttl_from_its_last_grant(rig):
    svc, net, env, _catalog = rig
    token = f"https://{bench.HOST_API}{bench.TOKEN_PATH}"
    cookies = dict(_login(net).set_cookies)
    for _ in range(5):  # each grant restarts the session's lifetime
        env.clock.advance(svc.bearer_ttl - 1)
        assert net.post(token, cookies=cookies).status == 200
    # idle for bearer_ttl, the cookie is as good as one never issued
    env.clock.advance(svc.bearer_ttl)
    idle = net.post(token, cookies=cookies)
    assert (idle.status, json.loads(idle.body)) == (401, {"error": "login first"})


def test_resolve_offers_edges_and_license_url(rig):
    _svc, net, _env, _catalog = rig
    resolved = json.loads(_resolve(net, _bearer(net)).body)
    assert resolved["license_url"] == bench.LICENSE_URL
    assert len(resolved["uris"]) == len(bench.EDGES)
    for uri, edge in zip(resolved["uris"], bench.EDGES):
        assert f"https://{bench.HOST_CDN}/{edge}/enc/trk1/stream.bin?" in uri


# -------------------------------------------------------------------- cdn


def _first_uri(net, track="trk1", creds=PREMIUM):
    resolved = json.loads(_resolve(net, _bearer(net, creds), track).body)
    return resolved["uris"][0]


def test_cdn_range_semantics(rig):
    _svc, net, _env, _catalog = rig
    uri = _first_uri(net)
    whole = net.get(uri)
    assert whole.status == 200
    blob = whole.body
    assert whole.headers["content-range"] == f"bytes 0-{len(blob) - 1}/{len(blob)}"

    first = net.get(uri, headers={"range": "bytes=0-4095"})
    assert first.status == 200 and first.body == blob[:4096]
    assert first.headers["content-range"] == f"bytes 0-4095/{len(blob)}"

    tail = net.get(uri, headers={"range": f"bytes={len(blob) - 10}-{len(blob) + 50}"})
    assert tail.body == blob[-10:]

    past_end = net.get(uri, headers={"range": f"bytes={len(blob)}-{len(blob) + 100}"})
    assert past_end.status == 200 and past_end.body == b""


def test_cdn_unranged_get_is_the_whole_range(rig):
    _svc, net, _env, _catalog = rig
    uri = _first_uri(net)
    whole = net.get(uri)
    ranged = net.get(uri, headers={"range": f"bytes=0-{len(whole.body) - 1}"})
    assert whole.status == ranged.status == 200
    assert whole.headers == ranged.headers
    assert whole.body == ranged.body


def _oracle_blob(svc, catalog, track, header):
    # header + AES-CTR of the top variant, rebuilt from the license
    # server's keyring and the catalog, independently of the CDN path and
    # of the keystreams the CDM keeps
    content_key, nonce = svc._license_keys[header[16:48]], header[32:48]
    media = catalog.assets[track].variant(max(catalog.assets[track].variants))
    ctr = Cipher(algorithms.AES(content_key), modes.CTR(nonce)).encryptor()
    return header[:bench.HEADER_BYTES] + ctr.update(media)


def test_cdn_ranges_match_the_oracle(rig):
    svc, net, _env, catalog = rig
    uris = {track: _first_uri(net, track) for track in ("trk1", "trk2")}
    oracles = {}
    for track, uri in uris.items():
        header = net.get(uri, headers={"range": "bytes=0-47"}).body
        oracles[track] = _oracle_blob(svc, catalog, track, header)

    def check(track, start=None, end=None):
        blob = oracles[track]
        if start is None:
            resp = net.get(uris[track])
            want, span = blob, f"bytes 0-{len(blob) - 1}/{len(blob)}"
        else:
            resp = net.get(uris[track], headers={"range": f"bytes={start}-{end}"})
            want = blob[start:end + 1]
            span = f"bytes {start}-{start + len(want) - 1}/{len(blob)}"
        assert resp.status == 200
        assert resp.body == want
        assert resp.headers["content-range"] == span

    for track in ("trk1", "trk2"):
        n = len(oracles[track])
        check(track)                               # unranged
        check(track, 0, 4095)                      # header and the first media
        check(track, 40, 100)                      # straddles the header end
        check(track, 5000, 9095)                   # interior
        check(track, n - 10, n + 50)               # ragged tail
        check(track, n, n + 100)                   # past the end: empty
        check(track, n + 500, n + 600)
    # a player reads one stream front to back; interleaving two streams
    # must still give each its own bytes
    for offset in range(0, 6 * 4096, 4096):
        for track in ("trk1", "trk2", "trk1"):
            check(track, offset, offset + 4095)


class StreamOracleMachine(RuleBasedStateMachine):
    """Random interleavings of CDN fetches over three tracks and of CDM
    decrypts at random positions, against blobs rebuilt off the CDN path.

    The CDN encrypts each stream into one buffer it reuses across
    streams, and the CDM keeps one positioned keystream per installed
    key, over the same keys the CDN encrypts with. So a stream switch
    that skips the re-encryption, a body that is a view of the buffer,
    or a keystream that continues across a seek each shows as a wrong
    body, now or on a later step."""

    TRACKS = ("trk1", "trk2", "trk3")

    def __init__(self):
        super().__init__()
        svc, self.net, _env, catalog = _make_rig()
        bearer = _bearer(self.net)
        self.cdm = svc.make_cdm()
        self.uris, self.blobs, self.media, self.handles = {}, {}, {}, {}
        self.read_to = {}  # track -> next offset a front-to-back reader wants
        self.decrypted_to = {}  # track -> next stream position for the CDM
        for track in self.TRACKS:
            uri = json.loads(_resolve(self.net, bearer, track).body)["uris"][0]
            header = self.net.get(uri, headers={"range": "bytes=0-47"}).body
            license_resp = self.net.post(
                bench.LICENSE_URL,
                body=self.cdm.request_license(bench.extract_init_data(header)),
            )
            self.uris[track] = uri
            self.blobs[track] = _oracle_blob(svc, catalog, track, header)
            asset = catalog.assets[track]
            self.media[track] = asset.variant(max(asset.variants))
            self.handles[track] = self.cdm.install(license_resp.body)
            self.read_to[track] = self.decrypted_to[track] = 0
        self.served = []  # (response, the bytes it carried when served)

    def _fetch(self, track, start=None, length=None):
        blob = self.blobs[track]
        if start is None:
            resp = self.net.get(self.uris[track])
            start, want = 0, blob
        else:
            end = start + length - 1
            resp = self.net.get(self.uris[track], headers={"range": f"bytes={start}-{end}"})
            want = blob[start:end + 1]
        assert resp.status == 200
        assert type(resp.body) is bytes and resp.body == want
        span = f"bytes {start}-{start + len(want) - 1}/{len(blob)}"
        assert resp.headers["content-range"] == span
        self.read_to[track] = start + len(want)
        self.served = self.served[-7:] + [(resp, want)]

    @rule(track=st.sampled_from(TRACKS), length=st.integers(1, 2 * bench.SEGMENT_BYTES))
    def read_on(self, track, length):
        self._fetch(track, self.read_to[track], length)

    @rule(track=st.sampled_from(TRACKS), start=st.integers(0, 5 * bench.SEGMENT_BYTES),
          length=st.integers(1, 2 * bench.SEGMENT_BYTES))
    def seek(self, track, start, length):
        self._fetch(track, start, length)

    @rule(track=st.sampled_from(TRACKS), back=st.integers(-300, 5000),
          length=st.integers(1, 600))
    def tail(self, track, back, length):
        # ragged tails and starts past the end
        self._fetch(track, max(0, len(self.blobs[track]) - back), length)

    @rule(track=st.sampled_from(TRACKS))
    def whole(self, track):
        self._fetch(track)

    def _decrypt(self, track, position, length):
        ct = self.blobs[track][bench.HEADER_BYTES + position:][:length]
        got = self.cdm.decrypt_segment(self.handles[track], ct, position)
        assert got == self.media[track][position:position + len(ct)]
        self.decrypted_to[track] = position + len(ct)

    @rule(track=st.sampled_from(TRACKS), length=st.integers(0, 2 * bench.SEGMENT_BYTES))
    def decrypt_on(self, track, length):
        self._decrypt(track, self.decrypted_to[track], length)

    @rule(track=st.sampled_from(TRACKS), position=st.integers(0, 6 * bench.SEGMENT_BYTES),
          length=st.integers(0, 2 * bench.SEGMENT_BYTES))
    def decrypt_at(self, track, position, length):
        self._decrypt(track, position, length)

    @invariant()
    def served_bodies_never_change(self):
        for resp, want in self.served:
            assert resp.body == want


StreamOracleMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25)
test_stream_oracle_machine = StreamOracleMachine.TestCase


def test_cdn_blob_is_ciphertext_with_init_header(rig):
    _svc, net, _env, catalog = rig
    blob = net.get(_first_uri(net)).body
    assert blob[:4] == bench.INIT_MAGIC
    media = catalog.assets["trk1"].variant(320)
    assert len(blob) == bench.HEADER_BYTES + len(media)
    payload = blob[bench.HEADER_BYTES:]
    assert not payload.startswith(AUDIO_MAGIC)
    assert payload != media


# ---------------------------------------------------------------- init data


def test_extract_init_data(rig):
    _svc, net, _env, _catalog = rig
    blob = net.get(_first_uri(net)).body
    init = bench.extract_init_data(blob[:bench.HEADER_BYTES])
    assert init[:16] == blob[16:32]  # key id
    assert init[16:] == blob[32:48]  # nonce


def test_extract_init_data_errors():
    with pytest.raises(bench.InitDataError):
        bench.extract_init_data(b"INIT" + bytes(10))  # too short
    with pytest.raises(bench.InitDataError):
        bench.extract_init_data(b"JUNK" + bytes(60))


# ------------------------------------------------------------- license flow


def test_license_exchange_and_segment_decrypt(rig):
    svc, net, _env, catalog = rig
    uri = _first_uri(net)
    blob = net.get(uri).body
    cdm = svc.make_cdm()
    init = bench.extract_init_data(blob)
    resp = net.post(bench.LICENSE_URL, body=cdm.request_license(init))
    assert resp.status == 200
    handle = cdm.install(resp.body)
    assert handle.startswith("cdmkey")
    media = catalog.assets["trk1"].variant(320)
    assert cdm.decrypt_segment(handle, blob[bench.HEADER_BYTES:]) == media
    # positional decrypt of an interior slice
    piece = cdm.decrypt_segment(handle, blob[bench.HEADER_BYTES + 100:][:64], position=100)
    assert piece == media[100:164]


def test_cdm_refuses_a_license_that_opens_to_the_wrong_length(rig):
    svc, _net, env, _catalog = rig
    license_blob = bench._seal(svc.device_key, bytes(32), env.rng.randbytes(16))
    with pytest.raises(bench.LicenseError, match="payload malformed"):
        svc.make_cdm().install(license_blob)


def test_license_response_tamper_detected_by_cdm(rig):
    svc, net, _env, _catalog = rig
    blob = net.get(_first_uri(net)).body
    cdm = svc.make_cdm()
    resp = net.post(bench.LICENSE_URL, body=cdm.request_license(bench.extract_init_data(blob)))
    tampered = bytearray(resp.body)
    tampered[20] ^= 0x01
    with pytest.raises(bench.LicenseError):
        cdm.install(bytes(tampered))


def test_cdm_never_exposes_key_bytes(rig):
    svc, net, _env, _catalog = rig
    blob = net.get(_first_uri(net)).body
    cdm = svc.make_cdm()
    resp = net.post(bench.LICENSE_URL, body=cdm.request_license(bench.extract_init_data(blob)))
    handle = cdm.install(resp.body)
    assert isinstance(handle, str)
    with pytest.raises(bench.LicenseError):
        cdm.decrypt_segment("cdmkey999", b"x")


def test_each_cdm_walks_its_own_keystream(rig, monkeypatch):
    """Two CDMs hold one stream's key and take turns decrypting its
    chunks front to back. Each keys its own keystream once, whatever the
    CDN encrypted between the fetches and whatever the other CDM read."""
    svc, net, _env, catalog = rig
    bearer = _bearer(net)
    uri, other = (
        json.loads(_resolve(net, bearer, track).body)["uris"][0]
        for track in ("trk1", "trk2")
    )
    cdms = (svc.make_cdm(), svc.make_cdm())
    header = net.get(uri, headers={"range": f"bytes=0-{bench.HEADER_BYTES - 1}"}).body
    request = cdms[0].request_license(bench.extract_init_data(header))
    license_blob = net.post(bench.LICENSE_URL, body=request).body
    handles = [cdm.install(license_blob) for cdm in cdms]
    media = catalog.assets["trk1"].variant(max(catalog.assets["trk1"].variants))
    chunks = []
    for start in range(bench.HEADER_BYTES, bench.HEADER_BYTES + len(media), bench.SEGMENT_BYTES):
        end = start + bench.SEGMENT_BYTES - 1
        chunks.append(net.get(uri, headers={"range": f"bytes={start}-{end}"}).body)
        net.get(other, headers={"range": "bytes=0-0"})  # the CDN switches streams

    builds = []
    real_cipher = crypto_kit.Cipher

    def counted_cipher(*args, **kwargs):
        builds.append(args)
        return real_cipher(*args, **kwargs)

    monkeypatch.setattr(crypto_kit, "Cipher", counted_cipher)
    position = 0
    for chunk in chunks:
        for cdm, handle in zip(cdms, handles):
            got = cdm.decrypt_segment(handle, chunk, position)
            assert got == media[position:position + len(chunk)]
        position += len(chunk)
    assert position == len(media)
    assert len(builds) == len(cdms)


def test_make_cdm_uses_the_provisioned_device_key(rig):
    svc, _net, _env, _catalog = rig
    assert svc.make_cdm()._device_key == DEVICE_KEY


# ------------------------------------------------------------ player client


def test_play_benchmark_recovers_media_through_the_cdm(rig):
    svc, net, env, catalog = rig
    for track in ("trk1", "trk2", "trk3"):
        media = b"".join(play_benchmark(net, track, PREMIUM, svc.make_cdm()))
        assert media == catalog.assets[track].variant(320)


def test_play_benchmark_free_tier_stops_at_the_gate(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure) as info:
        play_benchmark(net, "trk3", FREE, svc.make_cdm())
    assert str(info.value).endswith("(status 403)")


def test_play_benchmark_bad_credentials(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure) as info:
        play_benchmark(net, "trk1", ("ada", "wrong"), svc.make_cdm())
    assert str(info.value).endswith("(status 401)")


def test_play_benchmark_stops_at_a_refused_range(rig):
    svc, net, _env, _catalog = rig
    ranges = []

    def refuse_the_third(req, serve):
        ranges.append(req.headers["range"])
        if len(ranges) == 3:
            return error_response(403, "range refused")
        return serve(req)

    wrap_route(net, bench.HOST_CDN, refuse_the_third)
    with pytest.raises(ProtocolFailure, match="^chunk fetch refused") as info:
        play_benchmark(net, "trk1", PREMIUM, svc.make_cdm())
    assert str(info.value).endswith("(status 403)")
    step = bench.SEGMENT_BYTES
    assert ranges == [f"bytes={i * step}-{(i + 1) * step - 1}" for i in range(3)]


def test_play_benchmark_stops_at_an_empty_last_range():
    # a blob of exactly three ranges: the 4th range starts past its end and
    # is answered 200 with an empty body, which ends the play, not a chunk
    media = AUDIO_MAGIC + bytes(3 * bench.SEGMENT_BYTES - bench.HEADER_BYTES - len(AUDIO_MAGIC))
    catalog = ServiceCatalog(assets={"trk1": MediaAsset("trk1", "Exact", {320: media})})
    env = DeterministicEnv(seed=61, clock_start=1_700_000_000)
    svc = bench.BenchmarkService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    bodies = []

    def record(req, serve):
        resp = serve(req)
        bodies.append(resp.body)
        return resp

    wrap_route(net, bench.HOST_CDN, record)
    chunks = play_benchmark(net, "trk1", PREMIUM, svc.make_cdm())
    assert [len(b) for b in bodies] == [bench.SEGMENT_BYTES] * 3 + [0]
    assert len(chunks) == 3
    assert b"".join(chunks) == media


def test_stream_blobs_differ_per_asset_key(rig):
    # same plaintext prefix (AUD0), different keys and nonces per asset:
    # ciphertext prefixes must differ
    svc, net, _env, _catalog = rig
    b1 = net.get(_first_uri(net, "trk1")).body
    b2 = net.get(_first_uri(net, "trk2")).body
    assert b1[16:48] != b2[16:48]
    assert b1[48:64] != b2[48:64]
