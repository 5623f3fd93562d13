"""Wynk simulation: the original signed-stream flow (v1) and the
hardened replacement (v2) that layers a priming handshake, a number
puzzle and a sealed one-time code on top of the same signature scheme.

Both generations share one account store, one CDN and one static client
bundle, because that is how the real deployment behaved: the patch
changed the handshake, not the infrastructure.
"""

from __future__ import annotations

import hmac as _hmac
import json
import re
from dataclasses import dataclass, field
from random import Random

from ..catalog import ServiceCatalog
from ..cdn import CdnNode
from ..crypto_kit import (
    DecodeError,
    SealError,
    SecretKey,
    TotpParams,
    b64,
    b64_decode,
    hmac_sha1,
    passphrase_open,
    totp,
)
from ..transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from ..webassets import render_client_script

HOST_ACCOUNT = "sapi.wynk.in"
HOST_PLAYBACK = "playback.wynk.in"
HOST_ASSETS = "img.wynk.in"
HOST_CHECK = "ping.wynk.in"
HOST_LOGIN = "login.wynk.in"
HOST_CDN = "cdn.wynk.in"

V1_LOGIN_PATH = "/music/v3/account/login"
V1_STREAM_PREFIX = "/streaming/v4/cscgw/"
V1_STREAM_SUFFIX = ".html"
V2_LOGIN_PATH = "/music/account/v1/login"
V2_STREAM_PATH = "/song/v4/stream"
CHECK_PATH = "/health/check"
ASSET_PATH = "/webassets/app.min.js"

STREAM_QUERY = (("ets", "true"), ("hlscapable", "1"), ("sq", "a"), ("lang", "en"))

DEFAULT_SK = "51ymYn1MS"
PK_SOURCE = "https://sapi.wynk.in/music"

TOTP_PARAMS = TotpParams(window_seconds=600, digits=6)
CLOCK_SKEW = 120  # seconds of tk/ptot drift the servers tolerate

CHECK_FIELDS = ("k", "n", "y", "w", "m", "z", "a", "p")

_MIX_PATTERN = re.compile(r"^/webassets/([0-9a-f-]+)_([12])\.jpg$")
_BK_HEX = re.compile(r"^[0-9a-f]{16}$")


def wynk_pk() -> str:
    # shipped in the client bundle, carried in session state, never used
    # for anything; kept because the client stores it
    return b64(PK_SOURCE.encode("ascii"))


def search_id(url: str, cp_mapping: dict[str, str]) -> str:
    """Map a public song URL to the CDN-side content id. The URL tail is
    <producer>_<string>; the producer prefix swaps for its CDN code."""
    tail = url.rstrip("/").rsplit("/", 1)[-1]
    producer, sep, rest = tail.partition("_")
    if not sep or not rest:
        raise ValueError(f"song url tail {tail!r} has no producer prefix")
    if producer not in cp_mapping:
        raise LookupError(f"unknown producer {producer!r}")
    return f"{cp_mapping[producer]}_{rest}"


def gen_bk(now: int, rng: Random) -> str:
    tail = "".join(rng.choice("0123456789abcdef") for _ in range(16))
    return f"{now}-{tail}"


def gen_device_id(rng: Random) -> str:
    def uuid_like():
        return "-".join(
            "".join(rng.choice("0123456789abcdef") for _ in range(n))
            for n in (8, 4, 4, 4, 12)
        )

    return uuid_like() + uuid_like()


def mix_it(halve: str, bk: str) -> str:
    out = []
    for i, ch in enumerate(halve):
        out.append(ch)
        out.append(bk[i % len(bk)])
    return "".join(out)


def encode_cip(digits: str) -> str:
    """Digit-pair expansion: each pair e gets 100 or 200 added depending
    on an alternating flag, except pairs above 55 which always get 100.
    The flag only advances on the <=55 branch."""
    if len(digits) % 2:
        raise ValueError("digit string must have even length")
    if digits and not digits.isdigit():
        raise ValueError("digit string must be decimal")
    out = []
    b = 0
    for t in range(0, len(digits), 2):
        e = 10 * int(digits[t]) + int(digits[t + 1])
        if e <= 55:
            out.append(200 + e if b % 2 else 100 + e)
            b += 1
        else:
            out.append(100 + e)
    return "".join(str(v) for v in out)


def stream_message(method: str, path: str, query_string: str, body_text: str) -> str:
    # the string both sides HMAC; query order matters, which is why the
    # request query map is insertion-ordered
    return f"{method}{path}?{query_string}{body_text}"


@dataclass
class WynkSession:
    uid: str = ""
    token: SecretKey | None = None
    dt: str = ""
    kt: SecretKey | None = None
    primed: bool = False
    created_at: int = 0
    bk: str = ""
    marks: set[str] = field(default_factory=set)
    cip: str = ""  # the x-bsy-cip login must present; empty before a check


class WynkService:
    def __init__(
        self,
        catalog: ServiceCatalog,
        env: DeterministicEnv,
        *,
        cdn_secret: bytes,
        sk: str = DEFAULT_SK,
        session_ttl: int = 2592000,
        grant_ttl: int = 3600,
        chunk_bytes: int = 32768,
        bitrates=(320, 128, 64),
    ):
        self.catalog = catalog
        self.env = env
        self.sk = sk
        self.session_ttl = session_ttl
        self.grant_ttl = grant_ttl
        self.cdn = CdnNode(HOST_CDN, cdn_secret, "KWYNK01", env.clock, chunk_bytes)
        self._sids: dict[str, str] = {}  # search_id -> asset_id
        for asset in catalog.assets.values():
            for cp_code in catalog.cp_mapping.values():
                sid = f"{cp_code}_{asset.asset_id}"
                self.cdn.add_hls_asset(sid, asset, bitrates)
                self._sids[sid] = asset.asset_id
        self._by_uid: dict[str, WynkSession] = {}
        self._by_dt: dict[str, WynkSession] = {}
        self._by_bk: dict[str, WynkSession] = {}
        self._by_cip: dict[str, WynkSession] = {}

    def mount(self, net) -> None:
        net.register(HOST_ACCOUNT, self._handle_account)
        net.register(HOST_PLAYBACK, self._handle_playback)
        net.register(HOST_ASSETS, self._handle_assets)
        net.register(HOST_CHECK, self._handle_check)
        net.register(HOST_LOGIN, self._handle_login)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str, slug: str, producer: str = "srch") -> str:
        return f"https://wynk.in/music/song/{slug}/{producer}_{asset_id}"

    def client_script(self) -> bytes:
        mapping = json.dumps(self.catalog.cp_mapping, separators=(",", ":"))
        return render_client_script(
            [
                f'var sk="{self.sk}"',
                f'var pk="{wynk_pk()}"',
                f"var cpMapping={mapping}",
                'var qualities=["320","128","64"]',
            ]
        )

    # ---- v1 ---------------------------------------------------------------

    def _handle_account(self, req: HttpRequest) -> HttpResponse:
        if req.method == "POST" and req.path == V1_LOGIN_PATH:
            try:
                payload = json.loads(req.body)
                device_id = payload["deviceId"]
                user_agent = payload["userAgent"]
            except (ValueError, KeyError, TypeError):
                return error_response(400, "deviceId and userAgent required")
            if not device_id or not user_agent:
                return error_response(400, "deviceId and userAgent required")
            sess = WynkSession(
                uid=self.env.hex_token(12),
                token=SecretKey(self.env.hex_token(40).encode("ascii")),
                created_at=self.env.now(),
            )
            self._by_uid[sess.uid] = sess
            return json_response(
                {"uid": sess.uid, "token": sess.token.data.decode("ascii")}
            )
        return error_response(404, "no such endpoint")

    def _session_for_utkn(self, req: HttpRequest):
        """Shared x-bsy-utkn verification; returns (session, error)."""
        utkn = req.headers.get("x-bsy-utkn", "")
        uid, sep, given = utkn.partition(":")
        if not sep:
            return None, error_response(403, "utkn malformed")
        sess = self._by_uid.get(uid)
        if sess is None:
            return None, error_response(401, "unknown uid")
        if self.env.now() - sess.created_at >= self.session_ttl:
            return None, error_response(401, "session expired")
        try:
            body_text = req.body.decode("utf-8")
            given_digest = b64_decode(given)
        except (UnicodeDecodeError, DecodeError):
            return None, error_response(403, "utkn mismatch")
        msg = stream_message(req.method, req.path, req.query_string(), body_text)
        want = hmac_sha1(sess.token.data, msg.encode("utf-8"))
        if not _hmac.compare_digest(given_digest, want):
            return None, error_response(403, "utkn mismatch")
        return sess, None

    def _grant_response(self, sid: str) -> HttpResponse:
        if sid not in self._sids:
            return error_response(404, "unknown content id")
        grant = self.cdn.hls_grant(sid, self.env.now() + self.grant_ttl)
        return json_response(
            {"url": self.cdn.master_url(sid), "cookies": grant.as_query()}
        )

    def _handle_playback(self, req: HttpRequest) -> HttpResponse:
        if req.method == "POST" and req.path.startswith(V1_STREAM_PREFIX):
            if not req.path.endswith(V1_STREAM_SUFFIX):
                return error_response(404, "no such endpoint")
            sess, err = self._session_for_utkn(req)
            if err is not None:
                return err
            sid = req.path[len(V1_STREAM_PREFIX):-len(V1_STREAM_SUFFIX)]
            return self._grant_response(sid)
        if req.method == "POST" and req.path == V2_STREAM_PATH:
            return self._v2_stream(req)
        return error_response(404, "no such endpoint")

    # ---- v2 handshake -------------------------------------------------------

    def _handle_assets(self, req: HttpRequest) -> HttpResponse:
        if req.method != "GET":
            return error_response(400, "GET only")
        if req.path == ASSET_PATH:
            return HttpResponse(
                status=200,
                headers={"content-type": "application/javascript"},
                body=self.client_script(),
            )
        m = _MIX_PATTERN.match(req.path)
        if m is None:
            return error_response(404, "no such asset")
        parsed = _parse_mix(m.group(1))
        if parsed is None:
            return error_response(404, "no such asset")
        _half, bk = parsed
        sess = self._by_bk.get(bk)
        if sess is None:
            sess = WynkSession(bk=bk, primed=False, created_at=self.env.now())
            self._by_bk[bk] = sess
        sess.marks.add(m.group(2))
        if sess.marks >= {"1", "2"}:
            sess.primed = True
        # a one-pixel placeholder; the body never matters, the request does
        return HttpResponse(
            status=200, headers={"content-type": "image/jpeg"}, body=b""
        )

    def _handle_check(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != CHECK_PATH:
            return error_response(404, "no such endpoint")
        try:
            pid = json.loads(req.body)["pid"]
        except (ValueError, KeyError, TypeError):
            return error_response(400, "pid required")
        if not isinstance(pid, str):
            return error_response(400, "pid required")
        bk = req.headers.get("bk", "") + pid
        sess = self._by_bk.get(bk)
        if sess is None:
            return error_response(403, "unknown handshake")
        if not _fresh_stamp(req.headers.get("tk", ""), self.env.now()):
            return error_response(401, "stale tk")
        values = {
            f: format(self.env.rng.randrange(10000), "04d") for f in CHECK_FIELDS
        }
        # a re-check retires the old puzzle; a puzzle another handshake
        # already holds (a 32-digit collision) stays with that handshake
        if self._by_cip.get(sess.cip) is sess:
            del self._by_cip[sess.cip]
        sess.cip = encode_cip("".join(values.values()))
        self._by_cip.setdefault(sess.cip, sess)
        return json_response(values)

    def _handle_login(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != V2_LOGIN_PATH:
            return error_response(404, "no such endpoint")
        sess = self._by_cip.get(req.headers.get("x-bsy-cip", ""))
        if sess is None:
            return error_response(403, "cip mismatch")
        if not sess.primed:
            return error_response(403, "handshake not primed")
        if not _fresh_stamp(req.headers.get("x-bsy-ptot", ""), self.env.now()):
            return error_response(401, "stale ptot")
        sess.dt = self.env.hex_token(32)
        sess.uid = self.env.hex_token(12)
        sess.token = SecretKey(self.env.hex_token(40).encode("ascii"))
        sess.kt = SecretKey(self.env.hex_token(32).encode("ascii"))
        sess.created_at = self.env.now()
        self._by_uid[sess.uid] = sess
        self._by_dt[sess.dt] = sess
        return json_response(
            {
                "dt": sess.dt,
                "uid": sess.uid,
                "token": sess.token.data.decode("ascii"),
                "kt": sess.kt.data.decode("ascii"),
                "sid": self.env.hex_token(16),
            }
        )

    def _v2_stream(self, req: HttpRequest) -> HttpResponse:
        sess = self._by_dt.get(req.headers.get("x-bsy-uuid", ""))
        if sess is None:
            return error_response(403, "unknown device token")
        if self.env.now() - sess.created_at >= self.session_ttl:
            return error_response(401, "session expired")
        utkn = req.headers.get("x-bsy-utkn", "")
        uid, sep, given = utkn.partition(":")
        if not sep or uid != sess.uid:
            return error_response(403, "utkn mismatch")
        try:
            body_text = req.body.decode("utf-8")
            given_digest = b64_decode(given)
        except (UnicodeDecodeError, DecodeError):
            return error_response(403, "utkn mismatch")
        msg = stream_message(req.method, req.path, req.query_string(), body_text)
        want = hmac_sha1(sess.token.data, msg.encode("utf-8"))
        if not _hmac.compare_digest(given_digest, want):
            return error_response(403, "utkn mismatch")
        if not self._fresh_otp(req.headers.get("x-bsy-t", ""), sess):
            return error_response(401, "stale or unreadable otp")
        sid = req.query.get("id", "")
        return self._grant_response(sid)

    def _fresh_otp(self, header: str, sess: WynkSession) -> bool:
        try:
            sealed = b64_decode(header)
            digits = passphrase_open(sess.kt.data, sealed).decode("ascii")
        except (DecodeError, SealError, UnicodeDecodeError):
            return False
        secret = (sess.dt + self.sk).encode("utf-8")
        now = self.env.now()
        accepted = (
            totp(secret, TOTP_PARAMS, now),
            totp(secret, TOTP_PARAMS, now - TOTP_PARAMS.window_seconds),
        )
        return digits in accepted


def _fresh_stamp(stamp: str, now: int) -> bool:
    """An ASCII-decimal epoch within CLOCK_SKEW of now. str.isdigit alone
    would pass superscripts such as '²', which int() then rejects."""
    if not (stamp.isascii() and stamp.isdigit()):
        return False
    return abs(now - int(stamp)) <= CLOCK_SKEW


def _parse_mix(mix: str) -> tuple[str, str] | None:
    """Recover (deviceId half, BK) from an interleaved webassets name.

    Even offsets spell the deviceId half (32 hex chars), odd offsets walk
    BK cyclically. BK grammar is <epoch digits>-<16 hex>; the cyclic wrap
    check is what authenticates the string, since a random name has no
    reason to repeat its own prefix at the BK period.
    """
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
    if not epoch.isdigit() or not _BK_HEX.match(tail):
        return None
    for i in range(bk_len, len(woven)):
        if woven[i] != bk[i % bk_len]:
            return None
    return half, bk
