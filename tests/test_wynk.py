"""Both Wynk generations: the signed-stream scheme, the priming
handshake, the number puzzle, and the sealed one-time code."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed.catalog import demo_catalog
from drmtestbed.config import TestbedConfig
from drmtestbed.clients import (
    ProtocolFailure,
    rip_wynk_v1,
    rip_wynk_v2,
    wynk_v2_handshake,
)
from drmtestbed.crypto_kit import b64, b64_decode, hmac_sha1, passphrase_seal, totp
from drmtestbed.services import wynk
from drmtestbed.testbed import Testbed
from drmtestbed.transport import DeterministicEnv, Network, export_tap, read_tap
from drmtestbed.webassets import MINIFIED_BANNER

CDN_SECRET = bytes.fromhex("4f1c6d2a90be77d31e55a8c04962ddc1b07f93e2")


@pytest.fixture
def rig():
    env = DeterministicEnv(seed=21, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = wynk.WynkService(catalog, env, cdn_secret=CDN_SECRET)
    net = Network(env)
    svc.mount(net)
    return svc, net, env, catalog


# ------------------------------------------------------------- pure pieces


@pytest.mark.parametrize("digits,encoded", [
    ("1234", "112234"),
    ("99", "199"),
    ("0000", "100200"),
])
def test_encode_cip_hand_traced(digits, encoded):
    assert wynk.encode_cip(digits) == encoded


def test_encode_cip_flag_only_advances_on_low_pairs():
    # 56 is the first pair that skips the flag: 100+56, flag untouched
    assert wynk.encode_cip("565612") == "156156112"
    # low, high, low: the second low pair sees the advanced flag
    assert wynk.encode_cip("129934") == "112199234"


def test_encode_cip_empty_and_errors():
    assert wynk.encode_cip("") == ""
    with pytest.raises(ValueError):
        wynk.encode_cip("123")
    with pytest.raises(ValueError):
        wynk.encode_cip("12a4")


@given(st.text(alphabet="0123456789", max_size=40).filter(lambda s: len(s) % 2 == 0))
@settings(max_examples=80)
def test_encode_cip_shape(digits):
    out = wynk.encode_cip(digits)
    assert len(out) == 3 * (len(digits) // 2)
    for i in range(0, len(out), 3):
        group = int(out[i:i + 3])
        assert 100 <= group <= 255
        if group >= 200:
            assert group - 200 <= 55


def test_search_id():
    mapping = {"srch": "bsycdn1"}
    url = "https://wynk.in/music/song/midnight-local/srch_trk1"
    assert wynk.search_id(url, mapping) == "bsycdn1_trk1"
    assert wynk.search_id(url + "/", mapping) == "bsycdn1_trk1"
    with pytest.raises(ValueError):
        wynk.search_id("https://wynk.in/music/song/x/noprefix", mapping)
    with pytest.raises(LookupError):
        wynk.search_id("https://wynk.in/music/song/x/other_trk1", mapping)


def test_wynk_pk_is_base64_of_api_root():
    assert b64_decode(wynk.wynk_pk()).decode("ascii") == wynk.PK_SOURCE


def test_gen_bk_and_device_id_shapes():
    env = DeterministicEnv(seed=5, clock_start=1_700_000_000)
    bk = wynk.gen_bk(env.now(), env.rng)
    epoch, _, tail = bk.partition("-")
    assert epoch == "1700000000"
    assert len(tail) == 16 and all(c in "0123456789abcdef" for c in tail)
    device_id = wynk.gen_device_id(env.rng)
    assert len(device_id) == 72  # two 36-char uuid shapes, back to back
    assert device_id.count("-") == 8


# --------------------------------------------------- interleave and recover


def test_mix_it_interleaves_cyclically():
    assert wynk.mix_it("abcd", "XY") == "aXbYcXdY"


def test_parse_mix_inverts_mix_it():
    env = DeterministicEnv(seed=9, clock_start=1_700_000_000)
    bk = wynk.gen_bk(env.now(), env.rng)
    half = wynk.gen_device_id(env.rng).replace("-", "")[:32]
    parsed = wynk._parse_mix(wynk.mix_it(half, bk))
    assert parsed == (half, bk)


@given(st.integers(min_value=10 ** 9, max_value=4 * 10 ** 9),
       st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
       st.text(alphabet="0123456789abcdef", min_size=32, max_size=32))
@settings(max_examples=80)
def test_parse_mix_round_trip_property(epoch, tail, half):
    bk = f"{epoch}-{tail}"
    assert wynk._parse_mix(wynk.mix_it(half, bk)) == (half, bk)


def test_parse_mix_rejects_junk():
    env = DeterministicEnv(seed=9, clock_start=1_700_000_000)
    bk = wynk.gen_bk(env.now(), env.rng)
    half = "0123456789abcdef" * 2
    good = wynk.mix_it(half, bk)

    assert wynk._parse_mix(good[:-2]) is None          # wrong length
    assert wynk._parse_mix("z" + good[1:]) is None     # non-hex half
    assert wynk._parse_mix(good.replace("-", "0", 1)) is None  # no dash

    # breaking the cyclic wrap at the tail is what kills a forgery
    tampered = list(good)
    tampered[-1] = "0" if tampered[-1] != "0" else "1"
    assert wynk._parse_mix("".join(tampered)) is None


# ------------------------------------------------------------ static asset


def test_client_script_leaks_the_secrets(rig):
    _svc, net, _env, catalog = rig
    resp = net.get(f"https://{wynk.HOST_ASSETS}{wynk.ASSET_PATH}")
    assert resp.status == 200
    text = resp.body.decode("utf-8")
    assert text.startswith(MINIFIED_BANNER)
    assert f'var sk="{wynk.DEFAULT_SK}"' in text
    assert f'var pk="{wynk.wynk_pk()}"' in text
    assert json.dumps(catalog.cp_mapping, separators=(",", ":")) in text


# ---------------------------------------------------------------------- v1


def test_v1_login_issues_uid_and_token(rig):
    _svc, net, env, _catalog = rig
    resp = net.post(
        f"https://{wynk.HOST_ACCOUNT}{wynk.V1_LOGIN_PATH}",
        body=json.dumps({"deviceId": env.uuid_like(), "userAgent": "ua"}).encode(),
    )
    assert resp.status == 200
    payload = json.loads(resp.body)
    assert len(payload["uid"]) == 12
    assert len(payload["token"]) == 40


@pytest.mark.parametrize("body", [
    b"",
    b"not json",
    b"{}",
    b'{"deviceId": "d"}',
    b'{"deviceId": "", "userAgent": "ua"}',
    b'{"deviceId": "d", "userAgent": ""}',
])
def test_v1_login_requires_device_and_agent(rig, body):
    _svc, net, _env, _catalog = rig
    resp = net.post(f"https://{wynk.HOST_ACCOUNT}{wynk.V1_LOGIN_PATH}", body=body)
    assert resp.status == 400


def _v1_register(net, env):
    resp = net.post(
        f"https://{wynk.HOST_ACCOUNT}{wynk.V1_LOGIN_PATH}",
        body=json.dumps({"deviceId": env.uuid_like(), "userAgent": "ua"}).encode(),
    )
    return json.loads(resp.body)


def _v1_stream_response(net, sid, uid, token, *, tamper=False):
    query = dict(wynk.STREAM_QUERY)
    qs = "&".join(f"{k}={v}" for k, v in query.items())
    path = f"{wynk.V1_STREAM_PREFIX}{sid}{wynk.V1_STREAM_SUFFIX}"
    body = "{}"
    msg = wynk.stream_message("POST", path, qs, body)
    digest = hmac_sha1(token.encode("ascii"), msg.encode("utf-8"))
    if tamper:
        digest = bytes([digest[0] ^ 1]) + digest[1:]
    return net.post(
        f"https://{wynk.HOST_PLAYBACK}{path}?{qs}",
        body=body.encode(),
        headers={"x-bsy-utkn": f"{uid}:{b64(digest)}"},
    )


def test_v1_signed_stream_grants_working_cookies(rig, ):
    _svc, net, env, catalog = rig
    reg = _v1_register(net, env)
    resp = _v1_stream_response(net, "bsycdn1_trk1", reg["uid"], reg["token"])
    assert resp.status == 200
    stream = json.loads(resp.body)
    master = net.get(stream["url"], extra_query=stream["cookies"])
    assert master.status == 200
    assert master.body.startswith(b"#EXTM3U")


def test_v1_rejects_tampered_signature_with_403(rig):
    _svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    resp = _v1_stream_response(net, "bsycdn1_trk1", reg["uid"], reg["token"], tamper=True)
    assert resp.status == 403


def test_v1_rejects_unknown_uid_with_401(rig):
    _svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    resp = _v1_stream_response(net, "bsycdn1_trk1", "000000000000", reg["token"])
    assert resp.status == 401


def test_v1_rejects_malformed_utkn_with_403(rig):
    _svc, net, _env, _catalog = rig
    qs = "&".join(f"{k}={v}" for k, v in wynk.STREAM_QUERY)
    resp = net.post(
        f"https://{wynk.HOST_PLAYBACK}{wynk.V1_STREAM_PREFIX}x{wynk.V1_STREAM_SUFFIX}?{qs}",
        body=b"{}",
        headers={"x-bsy-utkn": "no-colon-here"},
    )
    assert resp.status == 403


def test_v1_session_expires_after_ttl(rig):
    svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    env.clock.advance(svc.session_ttl)
    resp = _v1_stream_response(net, "bsycdn1_trk1", reg["uid"], reg["token"])
    assert resp.status == 401


def test_v1_signature_binds_the_query_string(rig):
    _svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    path = f"{wynk.V1_STREAM_PREFIX}bsycdn1_trk1{wynk.V1_STREAM_SUFFIX}"
    qs = "&".join(f"{k}={v}" for k, v in wynk.STREAM_QUERY)
    msg = wynk.stream_message("POST", path, qs, "{}")
    digest = hmac_sha1(reg["token"].encode(), msg.encode())
    # replay the signature over a different query: sq=b instead of sq=a
    resp = net.post(
        f"https://{wynk.HOST_PLAYBACK}{path}?ets=true&hlscapable=1&sq=b&lang=en",
        body=b"{}",
        headers={"x-bsy-utkn": f"{reg['uid']}:{b64(digest)}"},
    )
    assert resp.status == 403


def test_v1_unknown_content_id_is_404_after_auth(rig):
    _svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    resp = _v1_stream_response(net, "bsycdn1_missing", reg["uid"], reg["token"])
    assert resp.status == 404


def test_v1_full_rip_matches_catalog(rig):
    svc, net, env, catalog = rig
    url = svc.song_url("trk2", "paper-lanterns")
    media = rip_wynk_v1(net, env, url, catalog.cp_mapping)
    assert media == catalog.asset("trk2").variant(320)


# --------------------------------------------------------------- v2 priming


def _prime(net, env, *, marks=("1", "2")):
    bk = wynk.gen_bk(env.now(), env.rng)
    device_id = wynk.gen_device_id(env.rng)
    halves = {"1": device_id[:36], "2": device_id[36:]}
    for mark in marks:
        name = wynk.mix_it(halves[mark].replace("-", ""), bk)
        resp = net.get(f"https://{wynk.HOST_ASSETS}/webassets/{name}_{mark}.jpg")
        assert resp.status == 200
    return bk


def _check(net, env, bk, *, tk=None):
    half = len(bk) // 2
    return net.post(
        f"https://{wynk.HOST_CHECK}{wynk.CHECK_PATH}",
        body=json.dumps({"pid": bk[half:]}).encode(),
        headers={"tk": str(tk if tk is not None else env.now()), "bk": bk[:half]},
    )


def _login(net, env, bs, *, ptot=None):
    return net.post(
        f"https://{wynk.HOST_LOGIN}{wynk.V2_LOGIN_PATH}",
        body=b"{}",
        headers={
            "x-bsy-ptot": str(ptot if ptot is not None else env.now()),
            "x-bsy-cip": wynk.encode_cip(bs),
        },
    )


def test_priming_state_needs_both_marks(rig):
    svc, net, env, _catalog = rig
    bk = _prime(net, env, marks=("1",))
    assert svc._by_bk[bk].primed is False
    bk2 = _prime(net, env)
    assert svc._by_bk[bk2].primed is True


def test_invalid_mix_names_are_404_and_create_no_state(rig):
    svc, net, _env, _catalog = rig
    before = len(svc._by_bk)
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/zz_1.jpg").status == 404
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/{'a' * 64}_1.jpg").status == 404
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/photo.png").status == 404
    assert len(svc._by_bk) == before


def test_check_requires_known_bk(rig):
    _svc, net, env, _catalog = rig
    resp = _check(net, env, wynk.gen_bk(env.now(), env.rng))  # never primed
    assert resp.status == 403


def test_check_requires_fresh_tk(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    assert _check(net, env, bk, tk=env.now() - wynk.CLOCK_SKEW - 1).status == 401
    assert _check(net, env, bk, tk=env.now() + wynk.CLOCK_SKEW + 1).status == 401
    assert _check(net, env, bk, tk=env.now() - wynk.CLOCK_SKEW).status == 200


def test_check_rejects_non_ascii_digits_in_tk(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    half = len(bk) // 2
    resp = net.post(
        f"https://{wynk.HOST_CHECK}{wynk.CHECK_PATH}",
        body=json.dumps({"pid": bk[half:]}).encode(),
        headers={"tk": "\u00b2", "bk": bk[:half]},
    )
    assert resp.status == 401


def test_check_requires_pid(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    resp = net.post(
        f"https://{wynk.HOST_CHECK}{wynk.CHECK_PATH}",
        body=b"{}",
        headers={"tk": str(env.now()), "bk": bk[:len(bk) // 2]},
    )
    assert resp.status == 400
    resp = net.post(
        f"https://{wynk.HOST_CHECK}{wynk.CHECK_PATH}",
        body=json.dumps({"pid": 123}).encode(),
        headers={"tk": str(env.now()), "bk": bk[:len(bk) // 2]},
    )
    assert resp.status == 400


def test_check_reissues_fresh_numbers(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    first = json.loads(_check(net, env, bk).body)
    second = json.loads(_check(net, env, bk).body)
    assert set(first) == set(wynk.CHECK_FIELDS)
    assert all(len(v) == 4 and v.isdigit() for v in first.values())
    assert first != second  # 8 fields of 4 digits colliding is not a thing


def test_login_needs_matching_cip(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    check = json.loads(_check(net, env, bk).body)
    bs = "".join(check[f] for f in wynk.CHECK_FIELDS)
    wrong = ("0" if bs[0] != "0" else "1") + bs[1:]
    assert _login(net, env, wrong).status == 403
    assert _login(net, env, bs).status == 200


def test_login_requires_both_priming_marks(rig):
    svc, net, env, _catalog = rig
    bk = _prime(net, env, marks=("1",))
    check = json.loads(_check(net, env, bk).body)
    bs = "".join(check[f] for f in wynk.CHECK_FIELDS)
    assert _login(net, env, bs).status == 403


def test_login_requires_fresh_ptot(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    check = json.loads(_check(net, env, bk).body)
    bs = "".join(check[f] for f in wynk.CHECK_FIELDS)
    assert _login(net, env, bs, ptot=env.now() - wynk.CLOCK_SKEW - 1).status == 401
    assert _login(net, env, bs).status == 200


def test_login_rejects_non_ascii_digits_in_ptot(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    check = json.loads(_check(net, env, bk).body)
    bs = "".join(check[f] for f in wynk.CHECK_FIELDS)
    resp = net.post(
        f"https://{wynk.HOST_LOGIN}{wynk.V2_LOGIN_PATH}",
        body=b"{}",
        headers={"x-bsy-ptot": "\u00b2", "x-bsy-cip": wynk.encode_cip(bs)},
    )
    assert resp.status == 401


def test_recheck_retires_the_old_cip(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    first = json.loads(_check(net, env, bk).body)
    second = json.loads(_check(net, env, bk).body)
    assert _login(net, env, "".join(first[f] for f in wynk.CHECK_FIELDS)).status == 403
    assert _login(net, env, "".join(second[f] for f in wynk.CHECK_FIELDS)).status == 200


def test_login_finds_its_handshake_without_recomputing_cips(rig, monkeypatch):
    svc, net, env, _catalog = rig
    puzzles = []
    for _ in range(300):
        bk = _prime(net, env)
        check = json.loads(_check(net, env, bk).body)
        puzzles.append((bk, "".join(check[f] for f in wynk.CHECK_FIELDS)))
    bk, bs = puzzles[149]
    cip = wynk.encode_cip(bs)

    calls = []
    real = wynk.encode_cip

    def counting(digits):
        calls.append(digits)
        return real(digits)

    monkeypatch.setattr(wynk, "encode_cip", counting)
    resp = net.post(
        f"https://{wynk.HOST_LOGIN}{wynk.V2_LOGIN_PATH}",
        body=b"{}",
        headers={"x-bsy-ptot": str(env.now()), "x-bsy-cip": cip},
    )
    assert resp.status == 200
    assert calls == []
    assert svc._by_dt[json.loads(resp.body)["dt"]] is svc._by_bk[bk]


def test_login_without_check_fails(rig):
    _svc, net, env, _catalog = rig
    _prime(net, env)
    # no check call: nothing to match the puzzle against
    assert _login(net, env, "00000000" * 4).status == 403


def test_handshake_returns_session_material(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    assert set(session) == {"dt", "uid", "token", "kt", "sid"}
    assert len(session["dt"]) == 32
    assert len(session["uid"]) == 12
    assert len(session["token"]) == 40
    assert len(session["kt"]) == 32


# ---------------------------------------------------------------- v2 stream


def _v2_stream_response(net, env, session, sid, *, otp_at=None, otp=None,
                        kt=None, uuid=None, tamper=False):
    query = dict(wynk.STREAM_QUERY)
    query["id"] = sid
    qs = "&".join(f"{k}={v}" for k, v in query.items())
    body = "{}"
    msg = wynk.stream_message("POST", wynk.V2_STREAM_PATH, qs, body)
    digest = hmac_sha1(session["token"].encode("ascii"), msg.encode("utf-8"))
    if tamper:
        digest = bytes([digest[0] ^ 1]) + digest[1:]
    code = otp if otp is not None else totp(
        (session["dt"] + wynk.DEFAULT_SK).encode("utf-8"),
        wynk.TOTP_PARAMS,
        env.now() if otp_at is None else otp_at,
    )
    sealed = passphrase_seal(kt or session["kt"], code.encode("ascii"), b"\x01" * 8)
    return net.post(
        f"https://{wynk.HOST_PLAYBACK}{wynk.V2_STREAM_PATH}?{qs}",
        body=body.encode(),
        headers={
            "x-bsy-utkn": f"{session['uid']}:{b64(digest)}",
            "x-bsy-uuid": uuid if uuid is not None else session["dt"],
            "x-bsy-t": b64(sealed),
        },
    )


def test_v2_stream_happy_path(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    resp = _v2_stream_response(net, env, session, "bsycdn1_trk1")
    assert resp.status == 200
    stream = json.loads(resp.body)
    assert net.get(stream["url"], extra_query=stream["cookies"]).status == 200


def test_v2_accepts_previous_totp_step_only(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    window = wynk.TOTP_PARAMS.window_seconds
    assert _v2_stream_response(net, env, session, "bsycdn1_trk1",
                               otp_at=env.now() - window).status == 200
    assert _v2_stream_response(net, env, session, "bsycdn1_trk1",
                               otp_at=env.now() - 2 * window).status == 401
    assert _v2_stream_response(net, env, session, "bsycdn1_trk1",
                               otp_at=env.now() + 2 * window).status == 401


def test_v2_rejects_wrong_seal_key(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    resp = _v2_stream_response(net, env, session, "bsycdn1_trk1", kt="f" * 32)
    assert resp.status == 401


def test_v2_rejects_unsealed_or_garbage_otp_header(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    query = dict(wynk.STREAM_QUERY)
    query["id"] = "bsycdn1_trk1"
    qs = "&".join(f"{k}={v}" for k, v in query.items())
    msg = wynk.stream_message("POST", wynk.V2_STREAM_PATH, qs, "{}")
    utkn = f"{session['uid']}:{b64(hmac_sha1(session['token'].encode(), msg.encode()))}"
    for bad_t in ("", "!!!!", b64(b"not an envelope")):
        resp = net.post(
            f"https://{wynk.HOST_PLAYBACK}{wynk.V2_STREAM_PATH}?{qs}",
            body=b"{}",
            headers={"x-bsy-utkn": utkn, "x-bsy-uuid": session["dt"], "x-bsy-t": bad_t},
        )
        assert resp.status == 401


def test_v2_rejects_unknown_device_token(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    resp = _v2_stream_response(net, env, session, "bsycdn1_trk1", uuid="0" * 32)
    assert resp.status == 403


def test_v2_rejects_tampered_signature(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    resp = _v2_stream_response(net, env, session, "bsycdn1_trk1", tamper=True)
    assert resp.status == 403


def test_v2_rejects_uid_not_matching_device(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    other = dict(session, uid="000000000000")
    resp = _v2_stream_response(net, env, other, "bsycdn1_trk1")
    assert resp.status == 403


def test_v2_session_expires(rig):
    svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    env.clock.advance(svc.session_ttl)
    resp = _v2_stream_response(net, env, session, "bsycdn1_trk1")
    assert resp.status == 401


def test_v2_full_rip_matches_catalog(rig):
    svc, net, env, catalog = rig
    url = svc.song_url("trk3", "gilded-cage")
    media = rip_wynk_v2(net, env, url, catalog.cp_mapping)
    assert media == catalog.asset("trk3").variant(320)


def test_v2_rip_fails_cleanly_when_asset_missing(rig):
    svc, net, env, catalog = rig
    url = svc.song_url("missing", "missing")
    with pytest.raises(ProtocolFailure):
        rip_wynk_v2(net, env, url, catalog.cp_mapping)


# Digests of one reference-client run under a tap on a fresh default bed.
# They pin the transcript bytes, so a change to the order or number of RNG
# draws (which run-against-run determinism tests cannot see) fails here.
PINNED_TAP_SHA256 = {
    "wynk-v2": "66632266ac9fc86b4e0bfca83e6127af51f6b0e11bc8a99acd21ec1e337a2828",
    "benchmark": "6352b50513909d78b8d22965f5cd417388f2c1ba1d740a77074da230ecfaca82",
}


@pytest.mark.parametrize("service", sorted(PINNED_TAP_SHA256))
def test_export_tap_bytes_are_pinned(service):
    tb = Testbed(TestbedConfig())
    tap = tb.net.attach_tap()
    try:
        tb.run_client(service, tb.open_tracks()[0])
    finally:
        tb.net.detach_tap(tap)
    data = export_tap(read_tap(tap)).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == PINNED_TAP_SHA256[service]
