"""Both Wynk generations: the signed-stream scheme, the priming
handshake, the number puzzle, and the sealed one-time code."""

from __future__ import annotations

import hashlib
import json
import re
from random import Random

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
from drmtestbed.crypto_kit import b64, b64_decode, passphrase_seal
from drmtestbed.services import wynk
from drmtestbed.testbed import Testbed
from drmtestbed.transport import (
    DeterministicEnv,
    HttpRequest,
    Network,
    copy_request,
    export_tap,
    uuid_like,
)
from drmtestbed.webassets import MINIFIED_BANNER
from test_golden import PINNED_TAP_SHA256
from test_transport import assert_refused

WYNK_SK = TestbedConfig().wynk_sk


@pytest.fixture
def rig():
    env = DeterministicEnv(seed=21, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = wynk.WynkService(catalog, env, TestbedConfig())
    net = Network()
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
    # '²' passes str.isdigit(); the check must reject it, not int()
    with pytest.raises(ValueError, match="must be decimal"):
        wynk.encode_cip("1\u00b2")


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
    url = "https://wynk.in/music/song/midnight-local/srch_trk1"
    assert wynk.search_id(url) == "bsycdn1_trk1"
    assert wynk.search_id(url + "/") == "bsycdn1_trk1"
    with pytest.raises(ValueError):
        wynk.search_id("https://wynk.in/music/song/x/noprefix")
    with pytest.raises(LookupError):
        wynk.search_id("https://wynk.in/music/song/x/other_trk1")


def test_wynk_pk_is_base64_of_api_root():
    assert b64_decode(wynk.PK).decode("ascii") == wynk.PK_SOURCE


def test_gen_bk_and_device_id_shapes():
    env = DeterministicEnv(seed=5, clock_start=1_700_000_000)
    bk = wynk.gen_bk(env.clock.now(), env.rng)
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
    bk = wynk.gen_bk(env.clock.now(), env.rng)
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


def parse_mix_by_walk(mix: str) -> tuple[str, str] | None:
    """The reference the service's parser must agree with: BK read up to
    its dash plus 16 characters and checked in parts, then the cyclic wrap
    walked by hand over the rest of the odd offsets."""
    if len(mix) != 64:
        return None
    half, woven = mix[0::2], mix[1::2]
    if not all(c in "0123456789abcdef" for c in half):
        return None
    dash = woven.find("-")
    if dash < 1:
        return None
    bk_len = dash + 17
    if bk_len > len(woven):
        return None
    bk = woven[:bk_len]
    epoch, tail = bk[:dash], bk[dash + 1:]
    if not epoch.isdigit() or not re.match(r"^[0-9a-f]{16}$", tail):
        return None
    for i in range(bk_len, len(woven)):
        if woven[i] != bk[i % bk_len]:
            return None
    return half, bk


def _weave(args):
    # what a client sends: one dashless deviceId half woven with a BK
    now, seed, second = args
    rng = Random(seed)
    bk = wynk.gen_bk(now, rng)
    device_id = wynk.gen_device_id(rng)
    half = (device_id[36:] if second else device_id[:36]).replace("-", "")
    return wynk.mix_it(half, bk)


# epochs of 1 to 18 digits: BK periods of 18 to 35, those past 32 too long
_WEAVES = st.tuples(
    st.integers(0, 10 ** 17), st.integers(0, 2 ** 32), st.booleans()
).map(_weave)


def _off_grammar_weave(args):
    # the wrap holds, but BK may have an empty epoch or a tail of the
    # wrong length or alphabet
    epoch, tail, half = args
    return wynk.mix_it(half, f"{epoch}-{tail}")


def _one_char_changed(args):
    name, at, char = args
    at %= len(name)
    return name[:at] + char + name[at + 1:]


_NAME_CHARS = "0123456789abcdef-"
_MIX_NAMES = st.one_of(
    _WEAVES,
    st.tuples(
        st.text(alphabet="0123456789", max_size=12),
        st.text(alphabet=_NAME_CHARS, min_size=14, max_size=18),
        st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    ).map(_off_grammar_weave),
    st.tuples(_WEAVES, st.integers(0, 63), st.sampled_from(_NAME_CHARS)).map(
        _one_char_changed
    ),
    st.text(alphabet=_NAME_CHARS, max_size=70),
)


@given(mix=_MIX_NAMES)
@settings(max_examples=600)
def test_parse_mix_agrees_with_the_hand_walk(mix):
    assert wynk._parse_mix(mix) == parse_mix_by_walk(mix)


def test_parse_mix_rejects_junk():
    env = DeterministicEnv(seed=9, clock_start=1_700_000_000)
    bk = wynk.gen_bk(env.clock.now(), env.rng)
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
    _svc, net, _env, _catalog = rig
    resp = net.get(f"https://{wynk.HOST_ASSETS}{wynk.ASSET_PATH}")
    assert resp.status == 200
    text = resp.body.decode("utf-8")
    assert text.startswith(MINIFIED_BANNER)
    assert f'var sk="{WYNK_SK}"' in text
    assert f'var pk="{wynk.PK}"' in text
    assert 'var cpMapping={"srch":"bsycdn1"}' in text


# ---------------------------------------------------------------------- v1


def test_v1_login_issues_uid_and_token(rig):
    _svc, net, env, _catalog = rig
    resp = net.post(
        f"https://{wynk.HOST_ACCOUNT}{wynk.V1_LOGIN_PATH}",
        body=json.dumps({"deviceId": uuid_like(env.rng), "userAgent": "ua"}).encode(),
    )
    assert resp.status == 200
    payload = json.loads(resp.body)
    assert len(payload["uid"]) == 12
    assert len(payload["token"]) == 40


def _v1_register(net, env):
    resp = net.post(
        f"https://{wynk.HOST_ACCOUNT}{wynk.V1_LOGIN_PATH}",
        body=json.dumps({"deviceId": uuid_like(env.rng), "userAgent": "ua"}).encode(),
    )
    return json.loads(resp.body)


SID = "bsycdn1_trk1"
V1_PATH = f"{wynk.V1_STREAM_PREFIX}{SID}{wynk.V1_STREAM_SUFFIX}"
V2 = {"path": wynk.V2_STREAM_PATH, "sid": SID}


def _sealed(kt, code):
    """An x-bsy-t header: code sealed under kt, as the v2 client seals it."""
    return b64(passphrase_seal(kt, code.encode("ascii"), b"\x01" * 8))


def _stream_call(net, env, login, *, method="POST", path=V1_PATH, sid=None,
                 uid=None, token=None, utkn=None, dt=None, otp=False, t=None):
    """A stream call signed as `login` (or as the uid and token given);
    `sid` adds v2's id query, `dt` the device token header, `otp` the
    login's one-time code sealed with its kt, and `t` that header as given."""
    query = dict(wynk.STREAM_QUERY)
    if sid is not None:
        query["id"] = sid
    qs = "&".join(f"{k}={v}" for k, v in query.items())
    msg = wynk.stream_message(method, path, qs, "{}")
    headers = {"x-bsy-utkn": utkn or wynk.utkn(uid or login["uid"], token or login["token"], msg)}
    if dt is not None:
        headers["x-bsy-uuid"] = dt
    if otp:
        t = _sealed(login["kt"], wynk.otp(login["dt"], WYNK_SK, env.clock.now()))
    if t is not None:
        headers["x-bsy-t"] = t
    return net.request(
        method, f"https://{wynk.HOST_PLAYBACK}{path}?{qs}", body=b"{}", headers=headers
    )


def test_v1_session_expires_after_ttl(rig):
    svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    env.clock.advance(svc.session_ttl)
    assert _stream_call(net, env, reg).status == 401


def test_v1_expired_login_answers_as_an_unknown_uid(rig):
    svc, net, env, _catalog = rig
    reg = _v1_register(net, env)
    env.clock.advance(svc.session_ttl)
    expired = _stream_call(net, env, reg)
    unknown = _stream_call(net, env, reg, uid="0" * 12)
    assert (expired.status, expired.body) == (unknown.status, unknown.body)
    assert json.loads(expired.body) == {"error": "unknown uid"}


def test_v1_full_rip_matches_catalog(rig):
    svc, net, env, catalog = rig
    url = svc.song_url("trk2")
    media = b"".join(rip_wynk_v1(net, env, url))
    assert media == catalog.assets["trk2"].variant(320)


# --------------------------------------------------------------- v2 priming


def _prime(net, env, *, marks=("1", "2")):
    bk = wynk.gen_bk(env.clock.now(), env.rng)
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
        headers={"tk": str(tk if tk is not None else env.clock.now()), "bk": bk[:half]},
    )


def _login(net, env, bs, *, ptot=None):
    return net.post(
        f"https://{wynk.HOST_LOGIN}{wynk.V2_LOGIN_PATH}",
        body=b"{}",
        headers={
            "x-bsy-ptot": str(ptot if ptot is not None else env.clock.now()),
            "x-bsy-cip": wynk.encode_cip(bs),
        },
    )


def _solve(net, env, bk):
    """The digits of a fresh check on bk, which a login encodes as its cip."""
    check = json.loads(_check(net, env, bk).body)
    return "".join(check[f] for f in wynk.CHECK_FIELDS)


def test_invalid_mix_names_are_404_and_create_no_state(rig):
    svc, net, _env, _catalog = rig
    before = len(svc._by_bk)
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/zz_1.jpg").status == 404
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/{'a' * 64}_1.jpg").status == 404
    assert net.get(f"https://{wynk.HOST_ASSETS}/webassets/photo.png").status == 404
    assert len(svc._by_bk) == before


def test_mix_name_with_a_trailing_newline_is_404(rig):
    # dispatched directly: urlsplit would strip the newline from a URL
    svc, net, env, _catalog = rig
    bk = wynk.gen_bk(env.clock.now(), env.rng)
    half = wynk.gen_device_id(env.rng)[:36].replace("-", "")
    path = f"/webassets/{wynk.mix_it(half, bk)}_1.jpg"
    resp = net.dispatch(wynk.HOST_ASSETS, HttpRequest("GET", path + "\n"))
    assert resp.status == 404
    assert bk not in svc._by_bk
    assert net.dispatch(wynk.HOST_ASSETS, HttpRequest("GET", path)).status == 200
    assert bk in svc._by_bk


def test_stamps_at_the_skew_edge_are_fresh(rig):
    _svc, net, env, _catalog = rig
    bk, now = _prime(net, env), env.clock.now()
    assert _check(net, env, bk, tk=now - wynk.CLOCK_SKEW).status == 200
    assert _login(net, env, _solve(net, env, bk), ptot=now + wynk.CLOCK_SKEW).status == 200


def test_stamps_past_int_digit_limit_are_stale(rig):
    # int() refuses more than 4300 digits; such a stamp is stale, with no
    # RNG draw, like any other
    _svc, net, env, _catalog = rig
    huge = "9" * 5000
    bk = _prime(net, env)
    state = env.rng.getstate()
    resp = _check(net, env, bk, tk=huge)
    assert (resp.status, json.loads(resp.body)) == (401, {"error": "stale tk"})
    assert env.rng.getstate() == state
    bs = _solve(net, env, bk)
    state = env.rng.getstate()
    resp = _login(net, env, bs, ptot=huge)
    assert (resp.status, json.loads(resp.body)) == (401, {"error": "stale ptot"})
    assert env.rng.getstate() == state
    assert _login(net, env, bs).status == 200


def test_check_reissues_fresh_numbers(rig):
    _svc, net, env, _catalog = rig
    bk = _prime(net, env)
    first = json.loads(_check(net, env, bk).body)
    second = json.loads(_check(net, env, bk).body)
    assert set(first) == set(wynk.CHECK_FIELDS)
    assert all(len(v) == 4 and v.isdigit() for v in first.values())
    assert first != second  # 8 fields of 4 digits colliding is not a thing


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
        puzzles.append((bk, _solve(net, env, bk)))
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
        headers={"x-bsy-ptot": str(env.clock.now()), "x-bsy-cip": cip},
    )
    assert resp.status == 200
    assert calls == []
    # the cip named puzzle 149's handshake, and the login it made is live
    # under both its device token and its uid
    body, now = json.loads(resp.body), env.clock.now()
    assert svc._by_cip.live(cip, now) is svc._by_bk.live(bk, now)
    assert svc._by_dt.live(body["dt"], now) is svc._by_uid.live(body["uid"], now)


def test_second_login_on_one_cip_gets_its_own_login(rig):
    # two logins on one puzzle: the second issues fresh material and the
    # first login's uid, token and device token keep working
    _svc, net, env, _catalog = rig
    bs = _solve(net, env, _prime(net, env))
    first = json.loads(_login(net, env, bs).body)
    second = json.loads(_login(net, env, bs).body)
    assert first["uid"] != second["uid"] and first["dt"] != second["dt"]
    for session in (first, second):
        assert _stream_call(net, env, session, **V2, dt=session["dt"], otp=True).status == 200


def test_handshake_returns_session_material(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    assert set(session) == {"dt", "uid", "token", "kt", "sid"}
    assert len(session["dt"]) == 32
    assert len(session["uid"]) == 12
    assert len(session["token"]) == 40
    assert len(session["kt"]) == 32


# ---------------------------------------------------------------- v2 stream


def test_v2_accepts_previous_totp_step_only(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    window, now = wynk.TOTP_PARAMS.window_seconds, env.clock.now()
    for at, status in ((now - window, 200), (now - 2 * window, 401), (now + 2 * window, 401)):
        code = wynk.otp(session["dt"], WYNK_SK, at)
        t = _sealed(session["kt"], code)
        assert _stream_call(net, env, session, **V2, dt=session["dt"], t=t).status == status


def test_v2_rejects_unsealed_garbage_or_wrongly_sealed_otp_header(rig):
    _svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    code = wynk.otp(session["dt"], WYNK_SK, env.clock.now())
    for bad_t in ("", "!!!!", b64(b"not an envelope"), _sealed("f" * 32, code)):
        assert _stream_call(net, env, session, **V2, dt=session["dt"], t=bad_t).status == 401


def test_v2_session_expires(rig):
    # an expired login answers as an unknown device token, as an evicted
    # one does
    svc, net, env, _catalog = rig
    session = wynk_v2_handshake(net, env)
    env.clock.advance(svc.session_ttl)
    expired = _stream_call(net, env, session, **V2, dt=session["dt"], otp=True)
    unknown = _stream_call(net, env, session, **V2, dt="0" * 32, otp=True)
    assert (expired.status, expired.body) == (unknown.status, unknown.body)
    assert json.loads(expired.body) == {"error": "unknown device token"}


@pytest.mark.parametrize("clock", [0, 300, 599])
def test_v2_stream_on_a_clock_below_one_otp_window(clock):
    # there is no previous TOTP window before t0 to accept, and checking
    # for one must not raise
    env = DeterministicEnv(seed=21, clock_start=clock)
    catalog = demo_catalog(env.rng)
    svc = wynk.WynkService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    session = wynk_v2_handshake(net, env)
    assert _stream_call(net, env, session, **V2, dt=session["dt"], otp=True).status == 200
    t = _sealed(session["kt"], "000000")
    assert _stream_call(net, env, session, **V2, dt=session["dt"], t=t).status == 401
    media = b"".join(rip_wynk_v2(net, env, svc.song_url("trk1"), sk=svc.sk))
    assert media == catalog.assets["trk1"].variant(320)
    result, client_error = Testbed(TestbedConfig(clock=clock)).rip("wynk-v2", "trk1")
    assert client_error == "" and result.matched_catalog


def test_wynk_stores_hold_only_the_live_window():
    # 2,000 v1 logins and 500 v2 handshakes, the clock stepped 300 s after
    # each v1 login: a store entry lives wynk_session_ttl (3600 s), so a
    # store holds at most the puts of the last 3600 / 300 = 12 steps
    env = DeterministicEnv(seed=21, clock_start=1_700_000_000)
    svc = wynk.WynkService(demo_catalog(env.rng), env, TestbedConfig(wynk_session_ttl=3600))
    net = Network()
    svc.mount(net)
    step, every = 300, 4  # a v2 handshake every 4th step
    v1_window = svc.session_ttl // step
    v2_window = v1_window // every
    first_v1 = first_v2 = None
    for i in range(2_000):
        reg = _v1_register(net, env)
        first_v1 = first_v1 or reg
        if i % every == 0:
            session = wynk_v2_handshake(net, env)
            first_v2 = first_v2 or session
        assert len(svc._by_uid) <= v1_window + v2_window
        for store in (svc._by_dt, svc._by_bk, svc._by_cip):
            assert len(store) <= v2_window
        env.clock.advance(step)
    assert len(svc._by_uid) == v1_window + v2_window
    assert len(svc._by_dt) == len(svc._by_bk) == len(svc._by_cip) == v2_window
    # an evicted login answers exactly as an expired one still stored
    assert first_v1["uid"] not in svc._by_uid and first_v2["dt"] not in svc._by_dt
    reg, session = _v1_register(net, env), wynk_v2_handshake(net, env)
    env.clock.advance(svc.session_ttl)
    assert reg["uid"] in svc._by_uid and session["dt"] in svc._by_dt
    for evicted, expired in (
        (_stream_call(net, env, first_v1), _stream_call(net, env, reg)),
        (_stream_call(net, env, first_v2, **V2, dt=first_v2["dt"], otp=True),
         _stream_call(net, env, session, **V2, dt=session["dt"], otp=True)),
    ):
        assert (evicted.status, evicted.body) == (expired.status, expired.body)
        assert evicted.status in (401, 403)


def test_v2_full_rip_matches_catalog(rig):
    svc, net, env, catalog = rig
    url = svc.song_url("trk3")
    media = b"".join(rip_wynk_v2(net, env, url, sk=svc.sk))
    assert media == catalog.assets["trk3"].variant(320)


def test_v2_rip_fails_cleanly_when_asset_missing(rig):
    svc, net, env, catalog = rig
    url = "https://wynk.in/music/song/missing/srch_missing"
    with pytest.raises(ProtocolFailure):
        rip_wynk_v2(net, env, url, sk=svc.sk)


# ------------------------------------------------------ one stream handler

GRANTED = (200, {"url", "cookies"})  # a grant's keys; the test then fetches with it

# one row per answer of the playback host, each call made as the v1 login
# or the v2 login of one bed
STREAM_ANSWERS = [
    ("get-on-the-v1-path", lambda call, v1, v2: call(v1, method="GET"),
     (404, "no such endpoint")),
    ("get-on-the-v2-path",
     lambda call, v1, v2: call(v2, method="GET", **V2, dt=v2["dt"], otp=True),
     (404, "no such endpoint")),
    ("v1-prefix-without-the-suffix",
     lambda call, v1, v2: call(v1, path=wynk.V1_STREAM_PREFIX + SID),
     (404, "no such endpoint")),
    ("v1-suffix-without-the-prefix",
     lambda call, v1, v2: call(v1, path=f"/streaming/{SID}{wynk.V1_STREAM_SUFFIX}"),
     (404, "no such endpoint")),
    ("utkn-with-no-colon", lambda call, v1, v2: call(v1, utkn="no-colon-here"),
     (403, "utkn malformed")),
    ("unknown-uid", lambda call, v1, v2: call(v1, uid="0" * 12),
     (401, "unknown uid")),
    ("v1-utkn-mismatch", lambda call, v1, v2: call(v1, token="f" * 40),
     (403, "utkn mismatch")),
    ("v1-utkn-over-another-query",
     lambda call, v1, v2: call(v1, utkn=wynk.utkn(v1["uid"], v1["token"], wynk.stream_message(
         "POST", V1_PATH, "ets=true&hlscapable=1&sq=b&lang=en", "{}"))),
     (403, "utkn mismatch")),
    ("utkn-digest-not-ascii", lambda call, v1, v2: call(v1, utkn=f"{v1['uid']}:\u00e9"),
     (403, "utkn mismatch")),
    ("unknown-sid-on-the-v1-path",
     lambda call, v1, v2: call(
         v1, path=f"{wynk.V1_STREAM_PREFIX}bsycdn1_missing{wynk.V1_STREAM_SUFFIX}"),
     (404, "unknown content id")),
    ("v1-login-on-the-v1-path", lambda call, v1, v2: call(v1), GRANTED),
    # the v1 endpoint never asks for the code, whichever login signs
    ("v2-login-on-the-v1-path-with-no-code", lambda call, v1, v2: call(v2), GRANTED),
    ("v1-login-on-the-v2-path", lambda call, v1, v2: call(v1, **V2),
     (403, "unknown device token")),
    ("unknown-device-token",
     lambda call, v1, v2: call(v2, **V2, dt="0" * 32, otp=True),
     (403, "unknown device token")),
    ("v2-utkn-mismatch",
     lambda call, v1, v2: call(v2, **V2, dt=v2["dt"], otp=True, token="f" * 40),
     (403, "utkn mismatch")),
    ("v2-utkn-under-another-uid",
     lambda call, v1, v2: call(v2, **V2, dt=v2["dt"], otp=True, uid="0" * 12),
     (403, "utkn mismatch")),
    ("v2-login-on-the-v2-path-with-no-code",
     lambda call, v1, v2: call(v2, **V2, dt=v2["dt"]),
     (401, "stale or unreadable otp")),
    ("unknown-sid-on-the-v2-path",
     lambda call, v1, v2: call(v2, path=wynk.V2_STREAM_PATH, sid="bsycdn1_missing",
                               dt=v2["dt"], otp=True),
     (404, "unknown content id")),
    ("v2-login-on-the-v2-path",
     lambda call, v1, v2: call(v2, **V2, dt=v2["dt"], otp=True), GRANTED),
]


@pytest.mark.parametrize(
    "make,want", [pytest.param(make, want, id=name) for name, make, want in STREAM_ANSWERS]
)
def test_every_answer_of_the_stream_handler(rig, make, want):
    _svc, net, env, _catalog = rig
    v1, v2 = _v1_register(net, env), wynk_v2_handshake(net, env)
    resp = make(lambda login, **kw: _stream_call(net, env, login, **kw), v1, v2)
    if want is not GRANTED:
        assert_refused(resp, want)
    else:
        body = json.loads(resp.body)
        assert (resp.status, set(body)) == GRANTED
        assert net.get(body["url"], extra_query=body["cookies"]).status == 200


@pytest.mark.parametrize("service", ["wynk-v1", "wynk-v2"])
def test_stream_query_value_with_a_lone_surrogate_is_403(service):
    # a lone surrogate has no UTF-8 form, so the signed message cannot be
    # encoded; the handler answers as for any other unsigned request
    tb = Testbed(TestbedConfig())
    records, client_error = tb.tapped_run(service, tb.open_tracks()[0])
    assert client_error == ""
    replays = 0
    for rec in records:
        if rec.request.headers["host"] != wynk.HOST_PLAYBACK:
            continue
        for key in rec.request.query:
            request = copy_request(rec.request)
            request.query[key] += "\ud800"
            resp = tb.net.dispatch(wynk.HOST_PLAYBACK, request)
            assert (resp.status, json.loads(resp.body)) == (403, {"error": "utkn mismatch"})
            replays += 1
    assert replays == len(wynk.STREAM_QUERY) + (service == "wynk-v2")  # v2 adds id


_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@pytest.mark.parametrize("service", ["wynk-v1", "wynk-v2"])
def test_stream_call_with_a_respelled_utkn_is_403(service):
    # a 20-byte digest leaves two pad bits in its last base64 character;
    # setting one spells the same digest differently (RFC 4648 3.5), and
    # the server refuses any header but the one the login writes
    tb = Testbed(TestbedConfig())
    records, client_error = tb.tapped_run(service, tb.open_tracks()[0])
    assert client_error == ""
    (rec,) = [r for r in records if r.request.headers["host"] == wynk.HOST_PLAYBACK]
    uid, _, digest = rec.request.headers["x-bsy-utkn"].partition(":")
    assert digest.endswith("=") and not _B64.index(digest[-2]) & 1
    respelled = digest[:-2] + _B64[_B64.index(digest[-2]) | 1] + "="
    assert respelled != digest and b64_decode(respelled) == b64_decode(digest)

    assert tb.net.dispatch(wynk.HOST_PLAYBACK, copy_request(rec.request)).status == 200
    request = copy_request(rec.request)
    request.headers["x-bsy-utkn"] = f"{uid}:{respelled}"
    resp = tb.net.dispatch(wynk.HOST_PLAYBACK, request)
    assert (resp.status, json.loads(resp.body)) == (403, {"error": "utkn mismatch"})


# Digests of one reference-client run under a tap on a fresh default bed,
# kept in the behaviour manifest. They pin the transcript bytes, so a change
# to the order or number of RNG draws (which run-against-run determinism
# tests cannot see) fails here.
@pytest.mark.parametrize("service", sorted(PINNED_TAP_SHA256))
def test_export_tap_bytes_are_pinned(service):
    tb = Testbed(TestbedConfig())
    records, client_error = tb.tapped_run(service, tb.open_tracks()[0])
    assert client_error == ""
    data = export_tap(records).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == PINNED_TAP_SHA256[service]
