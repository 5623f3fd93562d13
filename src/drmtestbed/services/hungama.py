"""Hungama simulation: a metadata endpoint leaks a bearer token inside
the "file" URL, and trading it at mdnurl (quality chosen by cookie)
returns a signed media URL that needs nothing else.
"""

from __future__ import annotations

import hmac as _hmac
import json

from ..catalog import ServiceCatalog, slugify
from ..cdn import CdnNode, GrantGate
from ..config import TestbedConfig
from ..crypto_kit import b64, hmac_sha1
from ..transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from ..webassets import script_response

HOST_WWW = "www.hungama.com"
HOST_CDN = "media.hungama.com"

PLAYER_DATA_PREFIX = "/audio-player-data/track/"
MDNURL_PREFIX = "/mdnurl/song/"
ASSET_PATH = "/static/player.min.js"

QUALITY_COOKIE = "hcom_audio_qty"
QUALITY_RATES = {"high": 320, "medium": 128, "low": 64}
_QUALITIES_JSON = json.dumps(list(QUALITY_RATES), separators=(",", ":"))
DEFAULT_QUALITY = "high"

_TAG_CHARS = 28  # base64 of a 20-byte HMAC-SHA1 tag is always 28 chars


class HungamaService:
    def __init__(
        self, catalog: ServiceCatalog, env: DeterministicEnv, cfg: TestbedConfig
    ):
        self.catalog = catalog
        self.env = env
        self._token_secret = cfg.key("hungama_token_secret_hex")
        self.token_ttl = cfg.hungama_token_ttl
        self.grant_ttl = cfg.grant_ttl
        gate = GrantGate(cfg.key("hungama_cdn_secret_hex"), "KHNGMA1")
        self.cdn = CdnNode(HOST_CDN, gate, env.clock, cfg.chunk_bytes)
        for asset in catalog.assets.values():
            self.cdn.add_file_asset(asset.asset_id, asset, QUALITY_RATES.values())

    def mount(self, net) -> None:
        net.register(HOST_WWW, self._handle_www)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str) -> str:
        slug = slugify(self.catalog.assets[asset_id].title)
        return f"https://{HOST_WWW}/song/{slug}/{asset_id}"

    # token = b64(hmac(secret, song_id || expiry digits)) || expiry digits;
    # the tag length is fixed so the expiry needs no delimiter
    def _token(self, song_id: str, expiry: str) -> str:
        tag = b64(hmac_sha1(self._token_secret, (song_id + expiry).encode("ascii")))
        return tag + expiry

    def _token_valid(self, song_id: str, token: str) -> bool:
        expiry = token[_TAG_CHARS:]
        if not (token.isascii() and expiry.isdigit()):
            return False
        if not _hmac.compare_digest(token, self._token(song_id, expiry)):
            return False
        try:
            return self.env.clock.now() < int(expiry)
        except ValueError:  # past int()'s digit limit
            return False

    def _handle_www(self, req: HttpRequest) -> HttpResponse:
        if req.method == "GET" and req.path == ASSET_PATH:
            return script_response(
                [
                    f'var qualityCookie="{QUALITY_COOKIE}"',
                    f"var qualities={_QUALITIES_JSON}",
                ]
            )
        if req.method == "GET" and req.path.startswith(PLAYER_DATA_PREFIX):
            return self._player_data(req)
        if req.method == "POST" and req.path.startswith(MDNURL_PREFIX):
            return self._mdnurl(req)
        return error_response(404, "no such page")

    def _player_data(self, req: HttpRequest) -> HttpResponse:
        song_id = req.path[len(PLAYER_DATA_PREFIX):].strip("/")
        if song_id not in self.catalog.assets:
            return error_response(404, "no such track")
        token = self._token(song_id, str(self.env.clock.now() + self.token_ttl))
        asset = self.catalog.assets[song_id]
        return json_response(
            {
                "media_id": song_id,
                "title": asset.title,
                "file": f"https://{HOST_WWW}/playback/{song_id}?token={token}",
            }
        )

    def _mdnurl(self, req: HttpRequest) -> HttpResponse:
        song_id = req.path[len(MDNURL_PREFIX):].strip("/")
        if song_id not in self.catalog.assets:
            return error_response(404, "no such track")
        if req.body:
            return error_response(400, "body must be empty")
        if not self._token_valid(song_id, req.query.get("token", "")):
            return error_response(403, "token rejected")
        quality = req.cookies.get(QUALITY_COOKIE, DEFAULT_QUALITY)
        if quality not in QUALITY_RATES:
            return error_response(400, f"quality must be one of {list(QUALITY_RATES)}")
        rate = QUALITY_RATES[quality]
        expires_at = self.env.clock.now() + self.grant_ttl
        return json_response(
            {"media_url": self.cdn.signed_file_url(song_id, rate, expires_at)}
        )
