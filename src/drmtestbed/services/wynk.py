"""Wynk simulation: the original signed-stream flow (v1) and the
hardened replacement (v2) that layers a priming handshake, a number
puzzle and a sealed one-time code on top of the same signature scheme.

Both generations share one account store, one CDN, one static client
bundle and one stream authorization path, because that is how the real
deployment behaved: the patch changed the handshake, not the
infrastructure. v2's stream path adds the device token and the one-time
code on top; a v2 login still streams through the v1 endpoint, with no
code, since the path and not the login decides what is asked for.
"""

from __future__ import annotations

import hmac as _hmac
import json
import re
from dataclasses import dataclass, field
from random import Random

from ..catalog import ServiceCatalog, slugify
from ..cdn import CdnNode, GrantGate
from ..config import TestbedConfig
from ..crypto_kit import (
    DecodeError,
    SealError,
    TotpParams,
    b64,
    b64_decode,
    hmac_sha1,
    passphrase_open,
    totp,
)
from ..transport import (
    DeterministicEnv,
    ExpiringStore,
    HttpRequest,
    HttpResponse,
    error_response,
    hex_digits,
    json_response,
    query_string,
    uuid_like,
)
from ..webassets import script_response

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

BITRATES = (320, 128, 64)
_QUALITIES_JSON = json.dumps([str(r) for r in BITRATES], separators=(",", ":"))
PK_SOURCE = "https://sapi.wynk.in/music"
# served in the client bundle as `var pk`; no Login or Handshake
# holds it, and nothing reads it back
PK = b64(PK_SOURCE.encode("ascii"))
# song-URL producer prefix -> CDN content-provider code; the bundle
# ships it as cpMapping
CP_MAPPING = {"srch": "bsycdn1"}
_CP_MAPPING_JSON = json.dumps(CP_MAPPING, separators=(",", ":"))

TOTP_PARAMS = TotpParams(window_seconds=600, digits=6)
CLOCK_SKEW = 120  # seconds of tk/ptot drift the servers tolerate

CHECK_FIELDS = ("k", "n", "y", "w", "m", "z", "a", "p")

_MIX_PATTERN = re.compile(r"/webassets/([0-9a-f-]+)_([12])\.jpg")  # fullmatch only
_BK = re.compile(r"[0-9]+-[0-9a-f]{16}")  # fullmatch only


def search_id(url: str) -> str:
    """Map a public song URL to the CDN-side content id. The URL tail is
    <producer>_<string>; the producer prefix swaps for its CDN code."""
    tail = url.rstrip("/").rsplit("/", 1)[-1]
    producer, sep, rest = tail.partition("_")
    if not sep or not rest:
        raise ValueError(f"song url tail {tail!r} has no producer prefix")
    if producer not in CP_MAPPING:
        raise LookupError(f"unknown producer {producer!r}")
    return f"{CP_MAPPING[producer]}_{rest}"


def gen_bk(now: int, rng: Random) -> str:
    return f"{now}-{hex_digits(rng, 16)}"


def gen_device_id(rng: Random) -> str:
    return uuid_like(rng) + uuid_like(rng)


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
    if digits and not (digits.isascii() and digits.isdigit()):
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


def stream_message(method: str, path: str, qs: str, body_text: str) -> str:
    # the string both sides HMAC; query order matters, which is why the
    # request query map is insertion-ordered
    return f"{method}{path}?{qs}{body_text}"


def utkn(uid: str, token: str, message: str) -> str:
    """The x-bsy-utkn header: <uid>:<b64 HMAC of the stream message under
    the login's token>. Raises UnicodeError for a message with no UTF-8 form."""
    return f"{uid}:{b64(hmac_sha1(token.encode('ascii'), message.encode('utf-8')))}"


def otp(dt: str, sk: str, at: int) -> str:
    """v2's one-time code at `at`, keyed by the device token and the sk."""
    return totp((dt + sk).encode("utf-8"), TOTP_PARAMS, at)


@dataclass(slots=True)
class Handshake:
    marks: set[str] = field(default_factory=set)
    cip: str = ""  # the x-bsy-cip login must present; empty before a check


@dataclass(frozen=True, slots=True)
class Login:
    uid: str
    token: str
    dt: str = ""  # a v1 login has no dt or kt
    kt: str = ""


class WynkService:
    def __init__(
        self, catalog: ServiceCatalog, env: DeterministicEnv, cfg: TestbedConfig
    ):
        self.catalog = catalog
        self.env = env
        self.sk = cfg.wynk_sk
        self.session_ttl = cfg.wynk_session_ttl
        self.grant_ttl = cfg.grant_ttl
        gate = GrantGate(cfg.key("wynk_cdn_secret_hex"), "KWYNK01")
        self.cdn = CdnNode(HOST_CDN, gate, env.clock, cfg.chunk_bytes)
        self._sids: set[str] = set()  # search ids the CDN serves
        for asset in catalog.assets.values():
            for cp_code in CP_MAPPING.values():
                sid = f"{cp_code}_{asset.asset_id}"
                self.cdn.add_hls_asset(sid, asset, BITRATES)
                self._sids.add(sid)
        # handshakes have no lifetime of their own, so they borrow this one
        self._by_uid = ExpiringStore(self.session_ttl)  # uid -> Login
        self._by_dt = ExpiringStore(self.session_ttl)  # dt -> v2 Login
        self._by_bk = ExpiringStore(self.session_ttl)  # bk -> Handshake
        self._by_cip = ExpiringStore(self.session_ttl)  # cip -> Handshake

    def mount(self, net) -> None:
        net.register(HOST_ACCOUNT, self._handle_account)
        net.register(HOST_PLAYBACK, self._handle_playback)
        net.register(HOST_ASSETS, self._handle_assets)
        net.register(HOST_CHECK, self._handle_check)
        net.register(HOST_LOGIN, self._handle_login)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str) -> str:
        slug = slugify(self.catalog.assets[asset_id].title)
        return f"https://wynk.in/music/song/{slug}/srch_{asset_id}"

    # ---- v1 login, and the stream call both generations share ---------------

    def _handle_account(self, req: HttpRequest) -> HttpResponse:
        if req.method == "POST" and req.path == V1_LOGIN_PATH:
            try:
                payload = json.loads(req.body)
                device_id = payload["deviceId"]
                user_agent = payload["userAgent"]
            except (ValueError, KeyError, TypeError, RecursionError):
                return error_response(400, "deviceId and userAgent required")
            if not device_id or not user_agent:
                return error_response(400, "deviceId and userAgent required")
            login = Login(
                uid=self.env.hex_token(12),
                token=self.env.hex_token(40),
            )
            self._by_uid.put(login.uid, login, self.env.clock.now())
            return json_response({"uid": login.uid, "token": login.token})
        return error_response(404, "no such endpoint")

    def _handle_playback(self, req: HttpRequest) -> HttpResponse:
        """The stream call of both generations. Each finds its live login its
        own way; then the header must be the whole utkn that login writes for
        this request, v2's path adds the one-time code, and the sid is granted."""
        path = req.path
        v2 = path == V2_STREAM_PATH
        if req.method != "POST" or not (
            v2 or (path.startswith(V1_STREAM_PREFIX) and path.endswith(V1_STREAM_SUFFIX))
        ):
            return error_response(404, "no such endpoint")
        now = self.env.clock.now()
        given = req.headers.get("x-bsy-utkn", "")
        if v2:
            login = self._by_dt.live(req.headers.get("x-bsy-uuid", ""), now)
            if login is None:
                return error_response(403, "unknown device token")
            sid = req.query.get("id", "")
        else:
            uid, sep, _digest = given.partition(":")
            if not sep:
                return error_response(403, "utkn malformed")
            login = self._by_uid.live(uid, now)
            if login is None:
                return error_response(401, "unknown uid")
            sid = path[len(V1_STREAM_PREFIX):-len(V1_STREAM_SUFFIX)]
        try:
            # a lone surrogate in the body, path or query has no UTF-8
            # form, so no client could have signed the message
            body_text = req.body.decode("utf-8")
            msg = stream_message(req.method, path, query_string(req.query), body_text)
            want = utkn(login.uid, login.token, msg)
        except UnicodeError:
            return error_response(403, "utkn mismatch")
        # a base64 spelled any other way (RFC 4648 section 3.5) is refused;
        # compare_digest raises on a str that is not ASCII
        if not (given.isascii() and _hmac.compare_digest(given, want)):
            return error_response(403, "utkn mismatch")
        if v2 and not self._fresh_otp(req.headers.get("x-bsy-t", ""), login, now):
            return error_response(401, "stale or unreadable otp")
        if sid not in self._sids:
            return error_response(404, "unknown content id")
        grant = self.cdn.hls_grant(sid, now + self.grant_ttl)
        return json_response({"url": self.cdn.master_url(sid), "cookies": grant})

    # ---- v2 handshake -------------------------------------------------------

    def _handle_assets(self, req: HttpRequest) -> HttpResponse:
        if req.method != "GET":
            return error_response(400, "GET only")
        if req.path == ASSET_PATH:
            return script_response(
                [
                    f'var sk="{self.sk}"',
                    f'var pk="{PK}"',
                    f"var cpMapping={_CP_MAPPING_JSON}",
                    f"var qualities={_QUALITIES_JSON}",
                ]
            )
        m = _MIX_PATTERN.fullmatch(req.path)
        parsed = m and _parse_mix(m.group(1))
        if parsed is None:
            return error_response(404, "no such asset")
        _half, bk = parsed
        handshake = self._by_bk.live(bk, self.env.clock.now())
        if handshake is None:
            handshake = Handshake()
            self._by_bk.put(bk, handshake, self.env.clock.now())
        handshake.marks.add(m.group(2))
        # a one-pixel placeholder; the body never matters, the request does
        return HttpResponse(
            status=200, headers={"content-type": "image/jpeg"}, body=b""
        )

    def _handle_check(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != CHECK_PATH:
            return error_response(404, "no such endpoint")
        try:
            pid = json.loads(req.body)["pid"]
        except (ValueError, KeyError, TypeError, RecursionError):
            return error_response(400, "pid required")
        if not isinstance(pid, str):
            return error_response(400, "pid required")
        bk = req.headers.get("bk", "") + pid
        now = self.env.clock.now()
        handshake = self._by_bk.live(bk, now)
        if handshake is None:
            return error_response(403, "unknown handshake")
        if not _fresh_stamp(req.headers.get("tk", ""), now):
            return error_response(401, "stale tk")
        values = {
            f: format(self.env.rng.randrange(10000), "04d") for f in CHECK_FIELDS
        }
        # a re-check retires the old puzzle
        self._by_cip.pop(handshake.cip, None)
        handshake.cip = encode_cip("".join(values.values()))
        self._by_cip.put(handshake.cip, handshake, now)
        return json_response(values)

    def _handle_login(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != V2_LOGIN_PATH:
            return error_response(404, "no such endpoint")
        now = self.env.clock.now()
        handshake = self._by_cip.live(req.headers.get("x-bsy-cip", ""), now)
        if handshake is None:
            return error_response(403, "cip mismatch")
        if not {"1", "2"} <= handshake.marks:  # marks only grow: primed stays primed
            return error_response(403, "handshake not primed")
        if not _fresh_stamp(req.headers.get("x-bsy-ptot", ""), now):
            return error_response(401, "stale ptot")
        # keyword order is the pinned draw order: dt, uid, token, kt, sid
        login = Login(
            dt=self.env.hex_token(32),
            uid=self.env.hex_token(12),
            token=self.env.hex_token(40),
            kt=self.env.hex_token(32),
        )
        self._by_uid.put(login.uid, login, now)
        self._by_dt.put(login.dt, login, now)
        return json_response(
            {
                "dt": login.dt,
                "uid": login.uid,
                "token": login.token,
                "kt": login.kt,
                "sid": self.env.hex_token(16),
            }
        )

    def _fresh_otp(self, header: str, login: Login, now: int) -> bool:
        try:
            sealed = b64_decode(header)
            digits = passphrase_open(login.kt, sealed).decode("ascii")
        except (DecodeError, SealError, UnicodeDecodeError):
            return False
        # this window's code and the last one's; no window starts before t0
        accepted = [
            otp(login.dt, self.sk, at)
            for at in (now, now - TOTP_PARAMS.window_seconds)
            if at >= TOTP_PARAMS.t0
        ]
        return digits in accepted


def _fresh_stamp(stamp: str, now: int) -> bool:
    """An ASCII-decimal epoch within CLOCK_SKEW of now. str.isdigit alone
    would pass superscripts such as '²', which int() then rejects."""
    if not (stamp.isascii() and stamp.isdigit()):
        return False
    try:
        return abs(now - int(stamp)) <= CLOCK_SKEW
    except ValueError:  # past int()'s digit limit, so stale
        return False


def _parse_mix(mix: str) -> tuple[str, str] | None:
    """Recover (deviceId half, BK) from an interleaved webassets name.

    Even offsets spell the deviceId half (32 hex chars), odd offsets walk
    BK cyclically. BK is <epoch digits>-<16 hex>, and re-weaving must give
    the name back: that cyclic wrap is what authenticates it, since a random
    name has no reason to repeat its own prefix at the BK period.
    """
    if len(mix) != 64:
        return None
    half, woven = mix[0::2], mix[1::2]
    if not all(c in "0123456789abcdef" for c in half):
        return None
    bk = woven[:woven.find("-") + 17]
    if not _BK.fullmatch(bk) or mix_it(half, bk) != mix:
        return None
    return half, bk
