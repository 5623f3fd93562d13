"""The control service: account-gated resolution, AES-CTR encrypted
media behind ranged fetches, and a license exchange in which content
keys only ever travel sealed to a provisioned device key and never
leave the CDM once installed.

Every other service in the testbed exists to fail the comparisons this
one passes.

A stream is served from one ciphertext buffer the service reuses: on a
stream switch the init header and AES-CTR of the media are written into
it in place, and every ranged GET gets its range copied out as bytes,
so nothing handed out aliases the buffer. The CDM decrypts each chunk as
it arrives, through the keystream the CDM keeps for that handle.
"""

from __future__ import annotations

import hmac as _hmac
import json

from .catalog import ServiceCatalog
from .cdn import GrantGate
from .config import TestbedConfig
from .crypto_kit import (
    CryptoError,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    aes_ctr,
    ctr_keystream,
    hmac_sha1,
)
from .transport import (
    DeterministicEnv,
    ExpiringStore,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from .webassets import script_response

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

USERS = {
    "ada": ("correct-horse-battery", "premium"),
    "grace": ("paper-clip-42", "free"),
}


class LicenseError(Exception):
    pass


class InitDataError(Exception):
    pass


def extract_init_data(first_chunk: bytes) -> bytes:
    """The key id followed by the nonce: the opaque blob a CDM puts in
    its license request."""
    if len(first_chunk) < HEADER_BYTES:
        raise InitDataError("first chunk shorter than the init header")
    if first_chunk[:4] != INIT_MAGIC:
        raise InitDataError("missing INIT magic")
    return first_chunk[16:HEADER_BYTES]


def _stream_path(edge: str, asset_id: str) -> str:
    return f"/{edge}/enc/{asset_id}/stream.bin"


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

    def __init__(self, device_key: bytes, env: DeterministicEnv):
        self._device_key = device_key
        self._env = env
        # handle -> [content key, nonce, keystream, the stream position
        # it is at]; the keystream is built on the first decrypt
        self._installed: dict[str, list] = {}
        self._counter = 0

    def request_license(self, init_data: bytes) -> bytes:
        iv = self._env.rng.randbytes(16)
        return _seal(self._device_key, init_data, iv)

    def install(self, license_bytes: bytes) -> str:
        payload = _open(self._device_key, license_bytes)
        if len(payload) != 48:
            raise LicenseError("license payload malformed")
        content_key, nonce = payload[16:32], payload[32:48]
        self._counter += 1
        handle = f"cdmkey{self._counter}"
        self._installed[handle] = [content_key, nonce, None, None]
        return handle

    def decrypt_segment(self, handle: str, ciphertext: bytes, position: int = 0) -> bytes:
        """Plaintext of the ciphertext found at `position` of the stream
        the handle's key opens. A call that starts where the last one for
        that handle ended continues its keystream instead of re-keying,
        so a player decrypts each chunk as it arrives."""
        try:
            stream = self._installed[handle]
        except KeyError:
            raise LicenseError(f"no installed key for {handle!r}") from None
        content_key, nonce, keystream, at = stream
        if at != position:
            keystream = stream[2] = ctr_keystream(content_key, nonce, position)
        stream[3] = position + len(ciphertext)
        return keystream.update(ciphertext)


class BenchmarkService:
    def __init__(
        self, catalog: ServiceCatalog, env: DeterministicEnv, cfg: TestbedConfig
    ):
        self.catalog = catalog
        self.env = env
        self._gate = GrantGate(cfg.key("benchmark_cdn_secret_hex"), "KBENCH1")
        self.device_key = cfg.key("device_key_hex")
        self.users = dict(USERS)
        self.bearer_ttl = cfg.bearer_ttl
        self.grant_ttl = cfg.grant_ttl
        # sid -> user, living bearer_ttl from its login or last grant
        self._sessions = ExpiringStore(self.bearer_ttl)
        self._bearers = ExpiringStore(self.bearer_ttl)  # bearer -> user
        # asset_id -> (init header, content key, nonce, top catalog variant)
        self._streams: dict[str, tuple[bytes, bytes, bytes, bytes]] = {}
        self._cdn_paths: dict[str, str] = {}  # stream path on any edge -> asset_id
        # header + ciphertext of the last stream served, in one buffer every
        # stream reuses: players read one stream front to back, so that is
        # one AES-CTR pass a play. Only copies of it may leave the service.
        self._buffer = bytearray()
        self._hot: tuple[str, memoryview] | None = None  # (asset_id, blob view)
        # init data (key id + nonce), exactly what a CDM seals -> content key
        self._license_keys: dict[bytes, bytes] = {}
        for asset in catalog.assets.values():
            key_id = env.rng.randbytes(16)
            content_key = env.rng.randbytes(16)
            nonce = env.rng.randbytes(16)
            media = asset.variant(max(asset.variants))
            header = INIT_MAGIC + bytes(12) + key_id + nonce
            self._streams[asset.asset_id] = (header, content_key, nonce, media)
            self._license_keys[key_id + nonce] = content_key
            for edge in EDGES:
                self._cdn_paths[_stream_path(edge, asset.asset_id)] = asset.asset_id

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
            return script_response(
                [f'var api="https://{HOST_API}"', 'var player="ranged"']
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
        except (ValueError, KeyError, TypeError, RecursionError):
            return error_response(400, "username and password required")
        if not (isinstance(username, str) and isinstance(password, str)):
            return error_response(400, "username and password required")
        known = self.users.get(username)
        if known is None or known[0] != password:
            return error_response(401, "bad credentials")
        sid = self.env.hex_token(32)
        self._sessions.put(sid, username, self.env.clock.now())
        resp = json_response({"status": "ok", "user": username})
        resp.set_cookies[SESSION_COOKIE] = sid
        return resp

    def _token(self, req: HttpRequest) -> HttpResponse:
        sid, now = req.cookies.get(SESSION_COOKIE, ""), self.env.clock.now()
        user = self._sessions.live(sid, now)
        if user is None:
            return error_response(401, "login first")
        self._sessions.put(sid, user, now)
        value = self.env.hex_token(48)
        self._bearers.put(value, user, now)
        return json_response({"bearer": value, "expires_in": self.bearer_ttl})

    def _bearer_user(self, req: HttpRequest) -> str | None:
        header = req.headers.get("authorization", "")
        if not header.startswith("Bearer "):
            return None
        return self._bearers.live(header[len("Bearer "):], self.env.clock.now())

    def _resolve(self, req: HttpRequest) -> HttpResponse:
        user = self._bearer_user(req)
        if user is None:
            return error_response(401, "bearer missing or expired")
        asset_id = req.path[len(RESOLVE_PREFIX):].strip("/")
        if asset_id not in self._streams:
            return error_response(404, "no such track")
        asset = self.catalog.assets[asset_id]
        if asset.premium and self.users[user][1] != "premium":
            return error_response(403, "premium account required")
        expires = self.env.clock.now() + self.grant_ttl
        uris = [
            self._gate.signed_url(HOST_CDN, _stream_path(edge, asset_id), expires)
            for edge in EDGES
        ]
        return json_response({"uris": uris, "license_url": LICENSE_URL})

    # ---- cdn host -----------------------------------------------------------

    def _handle_cdn(self, req: HttpRequest) -> HttpResponse:
        if req.method != "GET":
            return error_response(400, "GET only")
        asset_id = self._cdn_paths.get(req.path)
        if asset_id is None:
            return error_response(404, "no such object")
        if not self._gate.admits(req.query, req.path, self.env.clock.now()):
            return error_response(403, "grant rejected")
        blob = self._stream_blob(asset_id)
        range_header = req.headers.get("range")
        if range_header is None:  # the whole stream, as its own range
            range_header = f"bytes=0-{len(blob) - 1}"
        # exactly bytes=([0-9]+)-([0-9]+): on ASCII text, isdigit() means [0-9]+
        first, _, last = range_header[6:].partition("-")
        if not (range_header.startswith("bytes=") and range_header.isascii()
                and first.isdigit() and last.isdigit()):
            return error_response(400, "unparseable range")
        try:
            start, end = int(first), int(last)
        except ValueError:  # past int()'s digit limit
            return error_response(400, "unparseable range")
        if end < start:
            return error_response(400, "inverted range")
        body = bytes(blob[start:end + 1])
        return HttpResponse(
            200,
            {
                "content-type": "application/octet-stream",
                "content-range": f"bytes {start}-{start + len(body) - 1}/{len(blob)}",
            },
            None,
            body,
        )

    def _stream_blob(self, asset_id: str) -> memoryview:
        """header + AES-CTR(media) of asset_id, in the shared buffer. The
        view is valid until the next stream switch overwrites it."""
        if self._hot is None or self._hot[0] != asset_id:
            header, content_key, nonce, media = self._streams[asset_id]
            size = HEADER_BYTES + len(media)
            if len(self._buffer) < size:
                self._buffer = bytearray(size)
            blob = memoryview(self._buffer)[:size]
            blob[:HEADER_BYTES] = header
            aes_ctr(content_key, nonce, media, out=blob[HEADER_BYTES:])
            self._hot = (asset_id, blob)
        return self._hot[1]

    # ---- license host ---------------------------------------------------------

    def _handle_license(self, req: HttpRequest) -> HttpResponse:
        if req.method != "POST" or req.path != LICENSE_PATH:
            return error_response(404, "no such endpoint")
        try:
            payload = _open(self.device_key, req.body)
        except (LicenseError, CryptoError):
            return error_response(403, "request rejected")
        if len(payload) != 32:
            return error_response(403, "request malformed")
        content_key = self._license_keys.get(payload)
        if content_key is None:
            return error_response(403, "license denied")
        iv = self.env.rng.randbytes(16)
        return HttpResponse(
            status=200,
            headers={"content-type": "application/octet-stream"},
            body=_seal(self.device_key, payload[:16] + content_key + payload[16:], iv),
        )
