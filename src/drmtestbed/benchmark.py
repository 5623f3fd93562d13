"""The control service: account-gated resolution, AES-CTR encrypted
media behind ranged fetches, and a license exchange in which content
keys only ever travel sealed to a provisioned device key and never
leave the CDM once installed.

Every other service in the testbed exists to fail the comparisons this
one passes.
"""

from __future__ import annotations

import hmac as _hmac
import json
import re
from dataclasses import dataclass

from .catalog import ServiceCatalog
from .cdn import SignedGrant, issue_grant, verify_grant
from .crypto_kit import (
    CryptoError,
    SecretKey,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    aes_ctr,
    hmac_sha1,
)
from .transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from .webassets import render_client_script

HOST_API = "api.benchtune.sim"
HOST_CDN = "cdn.benchtune.sim"
HOST_LICENSE = "license.benchtune.sim"

LOGIN_PATH = "/account/login"
TOKEN_PATH = "/account/token"
RESOLVE_PREFIX = "/resolve/"
LICENSE_PATH = "/license"
ASSET_PATH = "/static/player.min.js"

SESSION_COOKIE = "bench_sid"
LICENSE_URL = f"https://{HOST_LICENSE}{LICENSE_PATH}"

INIT_MAGIC = b"INIT"
HEADER_BYTES = 48  # magic(4) pad(12) key_id(16) nonce(16)
SEGMENT_BYTES = 4096
EDGES = ("edge1", "edge2")

DEFAULT_USERS = {
    "ada": ("correct-horse-battery", "premium"),
    "grace": ("paper-clip-42", "free"),
}

_RANGE = re.compile(r"^bytes=(\d+)-(\d+)$")


class LicenseError(Exception):
    pass


class InitDataError(Exception):
    pass


@dataclass(frozen=True)
class InitData:
    key_id: bytes
    nonce: bytes


@dataclass
class BearerToken:
    value: str
    user: str
    expires_at: int


def extract_init_data(first_chunk: bytes) -> InitData:
    if len(first_chunk) < HEADER_BYTES:
        raise InitDataError("first chunk shorter than the init header")
    if first_chunk[:4] != INIT_MAGIC:
        raise InitDataError("missing INIT magic")
    return InitData(key_id=first_chunk[16:32], nonce=first_chunk[32:48])


def _seal(key: bytes, payload: bytes, iv: bytes) -> bytes:
    # encrypt-then-mac under one provisioning key; enough for a testbed
    ct = iv + aes_cbc_encrypt(key, iv, payload)
    return ct + hmac_sha1(key, ct)


def _open(key: bytes, blob: bytes) -> bytes:
    if len(blob) < 16 + 16 + 20:
        raise LicenseError("sealed blob truncated")
    body, tag = blob[:-20], blob[-20:]
    if not _hmac.compare_digest(tag, hmac_sha1(key, body)):
        raise LicenseError("seal tag mismatch")
    try:
        return aes_cbc_decrypt(key, body[:16], body[16:])
    except CryptoError as exc:
        raise LicenseError("sealed blob unreadable") from exc


class Cdm:
    """Holds the provisioned device key and any installed content keys.
    Nothing here returns key bytes; callers get opaque handles and
    decrypted media, full stop."""

    def __init__(self, device_key: SecretKey, env: DeterministicEnv):
        self._device_key = device_key
        self._env = env
        self._installed: dict[str, tuple[bytes, bytes]] = {}
        self._counter = 0

    def request_license(self, init: InitData) -> bytes:
        iv = self._env.rand_bytes(16)
        return _seal(self._device_key.data, init.key_id + init.nonce, iv)

    def install(self, license_bytes: bytes) -> str:
        payload = _open(self._device_key.data, license_bytes)
        if len(payload) != 48:
            raise LicenseError("license payload malformed")
        content_key, nonce = payload[16:32], payload[32:48]
        self._counter += 1
        handle = f"cdmkey{self._counter}"
        self._installed[handle] = (content_key, nonce)
        return handle

    def decrypt_segment(self, handle: str, ciphertext: bytes, position: int = 0) -> bytes:
        try:
            content_key, nonce = self._installed[handle]
        except KeyError:
            raise LicenseError(f"no installed key for {handle!r}") from None
        return aes_ctr(content_key, nonce, ciphertext, byte_offset=position)


class BenchmarkService:
    def __init__(
        self,
        catalog: ServiceCatalog,
        env: DeterministicEnv,
        *,
        cdn_secret: bytes,
        device_key: bytes,
        users: dict[str, tuple[str, str]] | None = None,
        bearer_ttl: int = 3600,
        grant_ttl: int = 3600,
    ):
        self.catalog = catalog
        self.env = env
        self._cdn_secret = cdn_secret
        self._key_pair_id = "KBENCH1"
        self.device_key = SecretKey(device_key)
        self.users = dict(users or DEFAULT_USERS)
        self.bearer_ttl = bearer_ttl
        self.grant_ttl = grant_ttl
        self._sessions: dict[str, tuple[str, int]] = {}  # sid -> (user, created)
        self._bearers: dict[str, BearerToken] = {}
        # per-asset stream keys; the plaintext behind each blob is the top
        # catalog variant
        self._blobs: dict[str, bytes] = {}
        self._license_keys: dict[bytes, tuple[bytes, bytes]] = {}
        for asset in catalog.assets.values():
            key_id = env.rand_bytes(16)
            content_key = env.rand_bytes(16)
            nonce = env.rand_bytes(16)
            media = asset.variant(asset.top_bitrate())
            header = INIT_MAGIC + bytes(12) + key_id + nonce
            self._blobs[asset.asset_id] = header + aes_ctr(
                content_key, nonce, media
            )
            self._license_keys[key_id] = (content_key, nonce)

    def mount(self, net) -> None:
        net.register(HOST_API, self._handle_api)
        net.register(HOST_CDN, self._handle_cdn)
        net.register(HOST_LICENSE, self._handle_license)

    def make_cdm(self) -> Cdm:
        # device provisioning happens out of band; handing the player a
        # CDM object is the simulation of that step
        return Cdm(self.device_key, self.env)

    # ---- api host -----------------------------------------------------------

    def _handle_api(self, req: HttpRequest) -> HttpResponse:
        if req.method == "GET" and req.path == ASSET_PATH:
            body = render_client_script(
                ['var api="https://api.benchtune.sim"', 'var player="ranged"']
            )
            return HttpResponse(
                status=200,
                headers={"content-type": "application/javascript"},
                body=body,
            )
        if req.method == "POST" and req.path == LOGIN_PATH:
            return self._login(req)
        if req.method == "POST" and req.path == TOKEN_PATH:
            return self._token(req)
        if req.method == "GET" and req.path.startswith(RESOLVE_PREFIX):
            return self._resolve(req)
        return error_response(404, "no such endpoint")

    def _login(self, req: HttpRequest) -> HttpResponse:
        try:
            payload = json.loads(req.body)
            username, password = payload["username"], payload["password"]
        except (ValueError, KeyError, TypeError):
            return error_response(400, "username and password required")
        known = self.users.get(username)
        if known is None or known[0] != password:
            return error_response(401, "bad credentials")
        sid = self.env.hex_token(32)
        self._sessions[sid] = (username, self.env.now())
        resp = json_response({"status": "ok", "user": username})
        resp.set_cookies[SESSION_COOKIE] = sid
        return resp

    def _session_user(self, req: HttpRequest) -> str | None:
        entry = self._sessions.get(req.cookies.get(SESSION_COOKIE, ""))
        return entry[0] if entry else None

    def _token(self, req: HttpRequest) -> HttpResponse:
        user = self._session_user(req)
        if user is None:
            return error_response(401, "login first")
        value = self.env.hex_token(48)
        token = BearerToken(
            value=value,
            user=user,
            expires_at=self.env.now() + self.bearer_ttl,
        )
        self._bearers[value] = token
        return json_response({"bearer": value, "expires_in": self.bearer_ttl})

    def _bearer_user(self, req: HttpRequest) -> str | None:
        header = req.headers.get("authorization", "")
        if not header.startswith("Bearer "):
            return None
        token = self._bearers.get(header[len("Bearer "):])
        if token is None or self.env.now() >= token.expires_at:
            return None
        return token.user

    def _resolve(self, req: HttpRequest) -> HttpResponse:
        user = self._bearer_user(req)
        if user is None:
            return error_response(401, "bearer missing or expired")
        asset_id = req.path[len(RESOLVE_PREFIX):].strip("/")
        if asset_id not in self._blobs:
            return error_response(404, "no such track")
        asset = self.catalog.asset(asset_id)
        if asset.premium and self.users[user][1] != "premium":
            return error_response(403, "premium account required")
        expires = self.env.now() + self.grant_ttl
        uris = []
        for edge in EDGES:
            path = f"/{edge}/enc/{asset_id}/stream.bin"
            grant = issue_grant(
                self._cdn_secret, self._key_pair_id, path, expires
            )
            query = "&".join(f"{k}={v}" for k, v in grant.as_query().items())
            uris.append(f"https://{HOST_CDN}{path}?{query}")
        return json_response({"uris": uris, "license_url": LICENSE_URL})

    # ---- cdn host -----------------------------------------------------------

    def _handle_cdn(self, req: HttpRequest) -> HttpResponse:
        if req.method != "GET":
            return error_response(400, "GET only")
        m = re.match(r"^/(edge[0-9]+)/enc/([^/]+)/stream\.bin$", req.path)
        if m is None or m.group(1) not in EDGES:
            return error_response(404, "no such object")
        blob = self._blobs.get(m.group(2))
        if blob is None:
            return error_response(404, "no such object")
        grant = SignedGrant.from_query(req.query)
        if not verify_grant(
            self._cdn_secret, self._key_pair_id, grant, req.path, self.env.now()
        ):
            return error_response(403, "grant rejected")
        range_header = req.headers.get("range")
        if range_header is None:
            body = blob
            span = f"bytes 0-{len(blob) - 1}/{len(blob)}"
        else:
            parsed = _RANGE.match(range_header)
            if parsed is None:
                return error_response(400, "unparseable range")
            start, end = int(parsed.group(1)), int(parsed.group(2))
            if end < start:
                return error_response(400, "inverted range")
            body = blob[start:end + 1]
            span = f"bytes {start}-{start + len(body) - 1}/{len(blob)}"
        return HttpResponse(
            status=200,
            headers={
                "content-type": "application/octet-stream",
                "content-range": span,
            },
            body=body,
        )

    # ---- license host ---------------------------------------------------------

    def _handle_license(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != LICENSE_PATH:
            return error_response(404, "no such endpoint")
        try:
            payload = _open(self.device_key.data, req.body)
        except (LicenseError, CryptoError):
            return error_response(403, "request rejected")
        if len(payload) != 32:
            return error_response(403, "request malformed")
        key_id, nonce = payload[:16], payload[16:32]
        entry = self._license_keys.get(key_id)
        if entry is None or entry[1] != nonce:
            return error_response(403, "license denied")
        content_key, nonce = entry
        iv = self.env.rand_bytes(16)
        return HttpResponse(
            status=200,
            headers={"content-type": "application/octet-stream"},
            body=_seal(self.device_key.data, key_id + content_key + nonce, iv),
        )
