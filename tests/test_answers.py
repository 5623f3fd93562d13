"""Every refusal of every mounted host, as the rows of one table.

`ANSWERS` has a row per refusal of each host a default `Testbed` mounts,
wynk's playback host aside (its answers are `STREAM_ANSWERS` in
`tests/test_wynk.py`), and one for the answer `Network.dispatch` gives a
host with no route. A row is (id, host, make, want): `make` takes a fresh
default bed, may move its clock, and returns the host's response, which
must be `error_response(*want)` whole, headers and cookies included. The
guard reads every `error_response` call under `src/drmtestbed`, so a
refusal with no row, or a row that no refusal of its host answers, fails.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from drmtestbed import benchmark as bench
from drmtestbed.catalog import ServiceCatalog
from drmtestbed.cdn import FAR_FUTURE
from drmtestbed.crypto_kit import aes_cbc_encrypt, b64, b64_decode, hmac_sha1
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset
from drmtestbed.services import gaana, hungama, saavn, wynk
from drmtestbed.testbed import Testbed
from drmtestbed.transport import HttpRequest, Network, split_url

from test_benchmark import FREE, _bearer, _first_uri, _login as _bench_login, _resolve
from test_hungama import _mdnurl, _player_data, _token_of
from test_saavn import SEAL_IV, SEAL_KEY, _api, _page_token
from test_transport import assert_refused
from test_wynk import GRANTED, SID, STREAM_ANSWERS, _check, _login, _prime, _solve

SRC = Path(__file__).resolve().parents[1] / "src" / "drmtestbed"


def _get(host, path="/", **kw):
    return lambda bed: bed.net.get(f"https://{host}{path}", **kw)


def _post(host, path, body=b"", **kw):
    return lambda bed: bed.net.post(f"https://{host}{path}", body=body, **kw)


# ---------------------------------------------------------- the benchmark


def _expired_bearer(bed):
    bearer = _bearer(bed.net)
    bed.env.clock.advance(bed.benchmark.bearer_ttl)
    return _resolve(bed.net, bearer)


def _ranged(header):
    return lambda bed: bed.net.get(_first_uri(bed.net), headers={"range": header})


def _path_with_a_newline(bed):
    # dispatched directly: urlsplit would strip the newline from a URL
    host, path, query = split_url(_first_uri(bed.net))
    return bed.net.dispatch(host, HttpRequest("GET", path + "\n", query, {"range": "bytes=0-3"}))


def _license_request(edit, cdm=lambda bed: bed.benchmark.make_cdm()):
    """A license request for edit(trk1's init data), sealed by cdm(bed)."""
    def request(bed):
        init = bench.extract_init_data(bed.net.get(_first_uri(bed.net)).body)
        return bed.net.post(bench.LICENSE_URL, body=cdm(bed).request_license(edit(init)))
    return request


_BAD_LOGIN_BODIES = {
    "empty": b"",
    "not-json": b"no json",
    "no-fields": b"{}",
    "no-password": b'{"username": "ada"}',
    "username-a-list": b'{"username": [], "password": "x"}',
    "username-an-object": b'{"username": {}, "password": "x"}',
    "password-a-list": b'{"username": "ada", "password": ["correct-horse-battery"]}',
    "both-null": b'{"username": null, "password": null}',
    "both-numbers": b'{"username": 7, "password": 7}',
}
_LAX_RANGES = {
    "empty": "",
    "open-start": "bytes=-5",
    "another-unit": "chunk=1-2",
    "trailing-newline": "bytes=0-3\n",
    "arabic-indic-digits": "bytes=\u0660-\u0663",
    "superscript-digit": "bytes=\u00b2-3",  # isdigit() says yes
    "two-dashes": "bytes=0-1-2",
    "signed": "bytes=+0-3",
    "underscore": "bytes=0_0-3",
    "past-int-digit-limit": f"bytes={'1' * 5000}-{'2' * 5000}",
}
API, BENCH_CDN, LICENSE = bench.HOST_API, bench.HOST_CDN, bench.HOST_LICENSE
BENCHMARK = [
    ("api-unknown-path", API, _get(API, "/nothing"), (404, "no such endpoint")),
    ("login-by-get", API, _get(API, bench.LOGIN_PATH), (404, "no such endpoint")),
    *[(f"login-body-{name}", API, _post(API, bench.LOGIN_PATH, body),
       (400, "username and password required")) for name, body in _BAD_LOGIN_BODIES.items()],
    ("login-wrong-password", API, lambda bed: _bench_login(bed.net, ("ada", "wrong")),
     (401, "bad credentials")),
    ("login-unknown-user", API, lambda bed: _bench_login(bed.net, ("ghost", "x")),
     (401, "bad credentials")),
    ("token-with-no-session", API, _post(API, bench.TOKEN_PATH), (401, "login first")),
    ("token-unknown-session", API,
     _post(API, bench.TOKEN_PATH, cookies={bench.SESSION_COOKIE: "f" * 32}),
     (401, "login first")),
    ("resolve-unknown-bearer", API, lambda bed: _resolve(bed.net, "0" * 48),
     (401, "bearer missing or expired")),
    ("resolve-not-a-bearer", API,
     _get(API, f"{bench.RESOLVE_PREFIX}trk1", headers={"authorization": "Token abc"}),
     (401, "bearer missing or expired")),
    ("resolve-expired-bearer", API, _expired_bearer, (401, "bearer missing or expired")),
    ("resolve-unknown-track", API, lambda bed: _resolve(bed.net, _bearer(bed.net), "trk9"),
     (404, "no such track")),
    ("resolve-premium-track-as-free", API,
     lambda bed: _resolve(bed.net, _bearer(bed.net, FREE), "trk3"),
     (403, "premium account required")),
    ("bench-cdn-post", BENCH_CDN, lambda bed: bed.net.post(_first_uri(bed.net)),
     (400, "GET only")),
    # the newline path goes under the grant for the bare path
    ("bench-cdn-path-with-a-newline", BENCH_CDN, _path_with_a_newline,
     (404, "no such object")),
    ("bench-cdn-grant-of-another-edge", BENCH_CDN,
     lambda bed: bed.net.get(_first_uri(bed.net).replace("/edge1/", "/edge2/")),
     (403, "grant rejected")),
    ("bench-cdn-no-grant", BENCH_CDN,
     lambda bed: bed.net.get(_first_uri(bed.net).partition("?")[0]), (403, "grant rejected")),
    ("range-inverted", BENCH_CDN, _ranged("bytes=10-5"), (400, "inverted range")),
    *[(f"range-{name}", BENCH_CDN, _ranged(header), (400, "unparseable range"))
      for name, header in _LAX_RANGES.items()],
    ("license-by-get", LICENSE, _get(LICENSE, bench.LICENSE_PATH), (404, "no such endpoint")),
    ("license-empty-body", LICENSE, _post(LICENSE, bench.LICENSE_PATH), (403, "request rejected")),
    ("license-zero-bytes", LICENSE, _post(LICENSE, bench.LICENSE_PATH, bytes(64)),
     (403, "request rejected")),
    ("license-sealed-under-another-device-key", LICENSE,
     _license_request(lambda init: init, lambda bed: bench.Cdm(b"\x13" * 16, bed.env)),
     (403, "request rejected")),
    # sealed under the device key, so it opens, but is not 32 bytes of init data
    ("license-opens-to-16-bytes", LICENSE, lambda bed: bed.net.post(
        bench.LICENSE_URL, body=bench._seal(bed.benchmark.device_key, bytes(16), bytes(16))),
     (403, "request malformed")),
    ("license-unknown-key-id", LICENSE,
     _license_request(lambda init: bytes(16) + init[16:]), (403, "license denied")),
    ("license-nonce-of-another-key", LICENSE,
     _license_request(lambda init: init[:16] + bytes(16)), (403, "license denied")),
]


# ------------------------------ the weak services, their CDN node, no route


def _auth(bed, **query):
    """api.php asked for trk1 at 320 kbps with its page's token, with
    query's changes; a None drops the field."""
    token = _page_token(bed.net, bed.saavn, "trk1").encrypted_media_url
    fields = {"call": saavn.AUTH_CALL, "url": token, "bit_rate": "320", **query}
    return _api(bed.net, **{k: v for k, v in fields.items() if v is not None})


def _flipped_token(bed):
    raw = bytearray(b64_decode(_page_token(bed.net, bed.saavn, "trk1").encrypted_media_url))
    raw[0] ^= 0x01
    return _auth(bed, url=b64(bytes(raw)))


def _unstocked_variant(bed):
    # its own service: every demo track stocks every ladder rate
    catalog = ServiceCatalog(
        assets={"solo": MediaAsset("solo", "Solo", {128: AUDIO_MAGIC + b"only"})}
    )
    svc, net = saavn.SaavnService(catalog, bed.env, bed.config), Network()
    svc.mount(net)
    token = _page_token(net, svc, "solo").encrypted_media_url
    return _api(net, call=saavn.AUTH_CALL, url=token, bit_rate="320")


def _mdnurl_with(edit=lambda token: token, song_id="trk1", **kw):
    """mdnurl for song_id with edit(trk1's leaked token)."""
    return lambda bed: _mdnurl(
        bed.net, song_id, edit(_token_of(_player_data(bed.net, "trk1"))), **kw
    )


def _over_long_expiry(bed):
    # a correctly tagged expiry past int()'s 4,300-digit limit
    expiry = "9" * 5000
    tag = b64(hmac_sha1(bed.hungama._token_secret, ("trk1" + expiry).encode("ascii")))
    return _mdnurl(bed.net, "trk1", tag + expiry)


def _expired_token(bed):
    token = _token_of(_player_data(bed.net, "trk1"))
    bed.env.clock.advance(bed.hungama.token_ttl)
    return _mdnurl(bed.net, "trk1", token)


def _expired_media_grant(bed):
    media_url = json.loads(_mdnurl_with()(bed).body)["media_url"]
    bed.env.clock.advance(bed.hungama.grant_ttl)
    return bed.net.get(media_url)


def _wynk_cdn(path, grant_sid=SID):
    """GET path of wynk's CDN under a grant for grant_sid's tree (None: no grant)."""
    return lambda bed: bed.net.get(
        f"https://{wynk.HOST_CDN}{path}",
        extra_query=grant_sid and bed.wynk.cdn.hls_grant(grant_sid, FAR_FUTURE),
    )


def _expired_wynk_grant(bed):
    grant = bed.wynk.cdn.hls_grant(SID, bed.env.clock.now() + 10)
    bed.env.clock.advance(10)
    return bed.net.get(bed.wynk.cdn.master_url(SID), extra_query=grant)


SAAVN, GAANA, HUNGAMA = saavn.HOST_WWW, gaana.HOST_WWW, hungama.HOST_WWW
BAD_BIT_RATE = (400, f"bit_rate must be one of {saavn.ALLOWED_BIT_RATES}")
TOKEN_REJECTED = (403, "token rejected")
SERVICES = [
    ("saavn-unknown-page", SAAVN, _get(SAAVN, "/nothing"), (404, "no such page")),
    ("saavn-api-by-post", SAAVN, _post(SAAVN, saavn.API_PATH), (404, "no such page")),
    ("saavn-unknown-song", SAAVN, _get(SAAVN, "/song/ghost/trk9"), (404, "no such song")),
    ("saavn-another-call", SAAVN, lambda bed: _auth(bed, call="song.other"),
     (400, "unsupported call")),
    ("saavn-no-call", SAAVN, lambda bed: _auth(bed, call=None), (400, "unsupported call")),
    ("saavn-bit-rate-off-the-ladder", SAAVN, lambda bed: _auth(bed, bit_rate="192"),
     BAD_BIT_RATE),
    ("saavn-no-bit-rate", SAAVN, lambda bed: _auth(bed, bit_rate=None), BAD_BIT_RATE),
    ("saavn-token-with-a-flipped-byte", SAAVN, _flipped_token, TOKEN_REJECTED),
    ("saavn-token-not-base64", SAAVN, lambda bed: _auth(bed, url="!!notb64!!"),
     TOKEN_REJECTED),
    ("saavn-empty-token", SAAVN, lambda bed: _auth(bed, url=""), TOKEN_REJECTED),
    ("saavn-token-of-an-unknown-asset", SAAVN,
     lambda bed: _auth(bed, url=b64(aes_cbc_encrypt(SEAL_KEY, SEAL_IV, b"trk99"))),
     TOKEN_REJECTED),
    ("saavn-variant-not-stocked", SAAVN, _unstocked_variant, (404, "variant not stocked")),
    ("gaana-post", GAANA, _post(GAANA, gaana.ASSET_PATH), (400, "GET only")),
    ("gaana-unknown-slug", GAANA, _get(GAANA, "/song/ghost-song"), (404, "no such song")),
    ("gaana-unknown-page", GAANA, _get(GAANA, "/nothing"), (404, "no such page")),
    ("hungama-unknown-page", HUNGAMA, _get(HUNGAMA, "/nothing"), (404, "no such page")),
    ("hungama-player-data-of-an-unknown-track", HUNGAMA,
     _get(HUNGAMA, f"{hungama.PLAYER_DATA_PREFIX}trk9"), (404, "no such track")),
    # the track is looked up before the token is checked
    ("hungama-mdnurl-of-an-unknown-track", HUNGAMA,
     lambda bed: _mdnurl(bed.net, "trk9", "whatever"), (404, "no such track")),
    ("hungama-mdnurl-with-a-body", HUNGAMA, _mdnurl_with(body=b"{}"),
     (400, "body must be empty")),
    ("hungama-token-with-a-flipped-tag", HUNGAMA,
     _mdnurl_with(lambda t: ("A" if t[0] != "A" else "B") + t[1:]), TOKEN_REJECTED),
    ("hungama-token-with-a-bumped-expiry", HUNGAMA,
     _mdnurl_with(lambda t: t[:-1] + ("0" if t[-1] != "0" else "1")), TOKEN_REJECTED),
    ("hungama-empty-token", HUNGAMA, _mdnurl_with(lambda t: ""), TOKEN_REJECTED),
    ("hungama-token-cut-inside-its-tag", HUNGAMA, _mdnurl_with(lambda t: t[:27]),
     TOKEN_REJECTED),
    # '²' passes str.isdigit() but is no ASCII expiry digit
    ("hungama-expiry-superscript-digit", HUNGAMA,
     _mdnurl_with(lambda t: t[:28] + "\u00b2"), TOKEN_REJECTED),
    ("hungama-expiry-past-int-digit-limit", HUNGAMA, _over_long_expiry, TOKEN_REJECTED),
    ("hungama-token-of-another-song", HUNGAMA, _mdnurl_with(song_id="trk2"), TOKEN_REJECTED),
    ("hungama-expired-token", HUNGAMA, _expired_token, TOKEN_REJECTED),
    ("hungama-unknown-quality", HUNGAMA,
     _mdnurl_with(cookies={hungama.QUALITY_COOKIE: "lossless"}),
     (400, f"quality must be one of {list(hungama.QUALITY_RATES)}")),
    # the CDN node every weak service serves from, on each service's host
    ("cdn-post", gaana.HOST_CDN, _post(gaana.HOST_CDN, "/hls/trk1/master.m3u8"),
     (400, "GET only")),
    ("cdn-no-grant", wynk.HOST_CDN, _wynk_cdn(f"/hls/{SID}/master.m3u8", None),
     (403, "grant rejected")),
    ("cdn-file-with-no-grant", saavn.HOST_CDN, _get(saavn.HOST_CDN, "/file/trk1/320.aud"),
     (403, "grant rejected")),
    ("cdn-expired-grant", wynk.HOST_CDN, _expired_wynk_grant, (403, "grant rejected")),
    ("cdn-expired-media-grant", hungama.HOST_CDN, _expired_media_grant,
     (403, "grant rejected")),
    ("cdn-grant-of-another-asset", wynk.HOST_CDN, _wynk_cdn("/hls/bsycdn1_trk2/master.m3u8"),
     (403, "grant rejected")),
    # an unknown object is 404 even under a valid grant
    ("cdn-unknown-rate-under-a-grant", wynk.HOST_CDN, _wynk_cdn(f"/hls/{SID}/999/index.m3u8"),
     (404, "no such object")),
    ("cdn-unknown-path-under-a-grant", wynk.HOST_CDN, _wynk_cdn("/nothing"),
     (404, "no such object")),
    ("unrouted-host", "nowhere.test", _get("nowhere.test"), (404, "no route to nowhere.test")),
]


# ------------------------------------------------------- wynk's handshake


def _check_at(tk):
    """A check on a primed handshake with the tk stamp tk(now)."""
    return lambda bed: _check(
        bed.net, bed.env, _prime(bed.net, bed.env), tk=tk(bed.env.clock.now())
    )


def _login_with(edit=lambda bs: bs, marks=("1", "2"), ptot=None):
    """A login with edit(its check's digits) on a handshake primed with
    marks, at the ptot stamp ptot(now)."""
    def login(bed):
        bs = _solve(bed.net, bed.env, _prime(bed.net, bed.env, marks=marks))
        now = bed.env.clock.now()
        return _login(bed.net, bed.env, edit(bs), ptot=ptot and ptot(now))
    return login


def _login_before_any_check(bed):
    _prime(bed.net, bed.env)
    # no check call: nothing to match the puzzle against
    return _login(bed.net, bed.env, "00000000" * 4)


def _mix_that_does_not_reweave(bed):
    # breaking the cyclic wrap at the tail is what kills a forgery
    bk = wynk.gen_bk(bed.env.clock.now(), bed.env.rng)
    name = wynk.mix_it("0123456789abcdef" * 2, bk)
    name = name[:-1] + ("0" if name[-1] != "0" else "1")
    return bed.net.get(f"https://{wynk.HOST_ASSETS}/webassets/{name}_1.jpg")


_BAD_V1_LOGIN_BODIES = {
    "empty": b"",
    "not-json": b"not json",
    "no-fields": b"{}",
    "no-user-agent": b'{"deviceId": "d"}',
    "empty-device-id": b'{"deviceId": "", "userAgent": "ua"}',
    "empty-user-agent": b'{"deviceId": "d", "userAgent": ""}',
}
SKEW = wynk.CLOCK_SKEW
ACCOUNT, ASSETS, CHECK = wynk.HOST_ACCOUNT, wynk.HOST_ASSETS, wynk.HOST_CHECK
LOGIN = wynk.HOST_LOGIN
WYNK = [
    ("wynk-login-v1-by-get", ACCOUNT, _get(ACCOUNT, wynk.V1_LOGIN_PATH),
     (404, "no such endpoint")),
    *[(f"wynk-login-v1-body-{name}", ACCOUNT, _post(ACCOUNT, wynk.V1_LOGIN_PATH, body),
       (400, "deviceId and userAgent required")) for name, body in _BAD_V1_LOGIN_BODIES.items()],
    ("wynk-asset-post", ASSETS, _post(ASSETS, wynk.ASSET_PATH), (400, "GET only")),
    ("wynk-mix-name-off-the-pattern", ASSETS, _get(ASSETS, "/webassets/zz_1.jpg"),
     (404, "no such asset")),
    ("wynk-mix-name-that-does-not-reweave", ASSETS, _mix_that_does_not_reweave,
     (404, "no such asset")),
    ("wynk-check-by-get", CHECK, _get(CHECK, wynk.CHECK_PATH), (404, "no such endpoint")),
    ("wynk-check-body-not-json", CHECK, _post(CHECK, wynk.CHECK_PATH, b"not json"),
     (400, "pid required")),
    ("wynk-check-with-no-pid", CHECK, _post(CHECK, wynk.CHECK_PATH, b"{}"),
     (400, "pid required")),
    ("wynk-check-pid-not-a-string", CHECK, _post(CHECK, wynk.CHECK_PATH, b'{"pid": 123}'),
     (400, "pid required")),
    ("wynk-check-never-primed", CHECK,
     lambda bed: _check(bed.net, bed.env, wynk.gen_bk(bed.env.clock.now(), bed.env.rng)),
     (403, "unknown handshake")),
    ("wynk-tk-behind-the-skew", CHECK, _check_at(lambda now: now - SKEW - 1),
     (401, "stale tk")),
    ("wynk-tk-ahead-of-the-skew", CHECK, _check_at(lambda now: now + SKEW + 1),
     (401, "stale tk")),
    ("wynk-tk-superscript-digit", CHECK, _check_at(lambda now: "\u00b2"), (401, "stale tk")),
    ("wynk-login-v2-by-get", LOGIN, _get(LOGIN, wynk.V2_LOGIN_PATH), (404, "no such endpoint")),
    ("wynk-login-v2-wrong-cip", LOGIN,
     _login_with(lambda bs: ("0" if bs[0] != "0" else "1") + bs[1:]), (403, "cip mismatch")),
    ("wynk-login-v2-before-any-check", LOGIN, _login_before_any_check, (403, "cip mismatch")),
    ("wynk-login-v2-with-one-mark", LOGIN, _login_with(marks=("1",)),
     (403, "handshake not primed")),
    ("wynk-ptot-behind-the-skew", LOGIN, _login_with(ptot=lambda now: now - SKEW - 1),
     (401, "stale ptot")),
    ("wynk-ptot-superscript-digit", LOGIN, _login_with(ptot=lambda now: "\u00b2"),
     (401, "stale ptot")),
]

ANSWERS = BENCHMARK + SERVICES + WYNK


@pytest.mark.parametrize(
    "make,want", [pytest.param(make, want, id=name) for name, _host, make, want in ANSWERS]
)
def test_every_refusal_is_its_whole_answer(make, want):
    assert_refused(make(Testbed()), want)


# ----------------------------------------------------------------- guard


def _src_refusals() -> set[tuple[str, int, str, bool]]:
    """(file, status, text, whole) per error_response(status, message) call
    under src/drmtestbed: an f-string message reads as its text before its
    first {, and whole is then False."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        file = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if getattr(getattr(node, "func", None), "id", "") != "error_response":
                continue
            status, message = node.args
            if isinstance(message, ast.JoinedStr):
                head = message.values[0]
                found.add((file, status.value, getattr(head, "value", ""), False))
            else:
                found.add((file, status.value, message.value, True))
    return found


def _answers(want, refusal) -> bool:
    status, message = want
    _file, refused, text, whole = refusal
    return status == refused and (message == text if whole else message.startswith(text))


def test_every_refusal_in_src_has_a_row_and_every_row_a_refusal():
    bed = Testbed()
    routes = bed.net._routes  # no public listing of routes

    def file_of(host):
        handler = routes.get(host, bed.net.dispatch)  # no route: dispatch answers
        return Path(handler.__code__.co_filename).relative_to(SRC).as_posix()

    rows = [(file_of(host), want) for _name, host, _make, want in ANSWERS]
    rows += [(file_of(wynk.HOST_PLAYBACK), want)
             for _name, _make, want in STREAM_ANSWERS if want is not GRANTED]
    refusals = _src_refusals()
    assert ("transport.py", 404, "no route to ", False) in refusals
    assert [r for r in sorted(refusals)
            if not any(file == r[0] and _answers(want, r) for file, want in rows)] == []
    assert [row for row in rows
            if not any(row[0] == r[0] and _answers(row[1], r) for r in refusals)] == []
    assert {host for _name, host, _make, _want in ANSWERS} >= set(routes) - {wynk.HOST_PLAYBACK}
