"""JioSaavn simulation: song pages embed a sealed media token in a
window.__INITIAL_DATA__ blob, and an api.php call trades the token plus
a bit_rate for a signed file URL. No account enters the picture at any
point, which is the whole finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..catalog import ServiceCatalog, slugify
from ..cdn import FAR_FUTURE, CdnNode, GrantGate
from ..config import TestbedConfig
from ..crypto_kit import DecodeError, aes_cbc_encrypt, b64, b64_decode
from ..hls import DEFAULT_CHUNK_BYTES
from ..transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    copy_response,
    error_response,
    json_response,
)
from ..webassets import page_response, script_response

HOST_WWW = "www.jiosaavn.com"
HOST_CDN = "aac.saavncdn.com"

API_PATH = "/api.php"
AUTH_CALL = "song.generateAuthToken"
SONG_PREFIX = "/song/"
ASSET_PATH = "/static/app.min.js"

ALLOWED_BIT_RATES = ("128", "320", "64", "32", "16")

_DATA_PREFIX = "window.__INITIAL_DATA__ = "


@dataclass(frozen=True)
class SaavnSongData:
    perma_url: str
    encrypted_media_url: str
    title: str


def parse_song_page(html: str) -> SaavnSongData:
    """Pull the data blob out of a song page the way a scraper would:
    find the assignment, slice to the closing script tag, json-load.
    The contract: the song's three string fields, or ValueError for
    any page that does not carry them, and no other exception."""
    start = html.find(_DATA_PREFIX)
    if start < 0:
        raise ValueError("no __INITIAL_DATA__ on page")
    start += len(_DATA_PREFIX)
    end = html.find(";</script>", start)
    if end < 0:
        raise ValueError("unterminated data blob")
    try:
        song = json.loads(html[start:end])["song"]
        fields = song["perma_url"], song["encrypted_media_url"], song["title"]
    except (ValueError, LookupError, TypeError, RecursionError):
        raise ValueError("data blob lacks the song fields") from None
    if not all(isinstance(value, str) for value in fields):
        raise ValueError("data blob lacks the song fields")
    return SaavnSongData(*fields)


class SaavnService:
    def __init__(
        self, catalog: ServiceCatalog, env: DeterministicEnv, cfg: TestbedConfig
    ):
        self.catalog = catalog
        gate = GrantGate(cfg.key("saavn_cdn_secret_hex"), "KSAAVN1")
        self.cdn = CdnNode(HOST_CDN, gate, env.clock, cfg.chunk_bytes)
        # The seal is AES-CBC under a fixed key and IV, and PKCS#7 padding
        # is unique, so exactly one ciphertext opens to each asset id: the
        # seal is a table. Keyed by the decoded bytes, not the token text,
        # because b64 decoding accepts non-canonical trailing bits.
        seal_key = cfg.key("saavn_seal_key_hex")
        seal_iv = cfg.key("saavn_seal_iv_hex")
        self._tokens: dict[str, str] = {}
        self._by_sealed: dict[bytes, str] = {}
        for asset_id, asset in catalog.assets.items():
            self.cdn.add_file_asset(asset_id, asset)
            sealed = aes_cbc_encrypt(seal_key, seal_iv, asset_id.encode("utf-8"))
            self._tokens[asset_id] = b64(sealed)
            self._by_sealed[sealed] = asset_id
        # api.php answers, per (asset id, bit rate): their grants never
        # expire, so each is rendered once and copied out per request.
        self._auth_answers: dict[tuple[str, int], HttpResponse] = {}

    def mount(self, net) -> None:
        net.register(HOST_WWW, self._handle_www)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str) -> str:
        slug = slugify(self.catalog.assets[asset_id].title)
        return f"https://{HOST_WWW}{SONG_PREFIX}{slug}/{asset_id}"

    def _open_token(self, token: str) -> str | None:
        try:
            return self._by_sealed.get(b64_decode(token))
        except DecodeError:
            return None

    def _handle_www(self, req: HttpRequest) -> HttpResponse:
        if req.method == "GET" and req.path == ASSET_PATH:
            return script_response(
                [
                    f'var apiBase="{API_PATH}?call={AUTH_CALL}"',
                    f"var bitRates={json.dumps(list(ALLOWED_BIT_RATES))}",
                ]
            )
        if req.method == "GET" and req.path.startswith(SONG_PREFIX):
            return self._song_page(req)
        if req.method == "GET" and req.path == API_PATH:
            return self._api(req)
        return error_response(404, "no such page")

    def _song_page(self, req: HttpRequest) -> HttpResponse:
        asset_id = req.path.rstrip("/").rsplit("/", 1)[-1]
        if asset_id not in self.catalog.assets:
            return error_response(404, "no such song")
        asset = self.catalog.assets[asset_id]
        # one 10-second segment per default-size chunk of the top variant
        top = asset.variant(max(asset.variants))
        data = {
            "song": {
                "perma_url": self.song_url(asset_id),
                "encrypted_media_url": self._tokens[asset_id],
                "title": asset.title,
                "duration": 10 * max(1, len(top) // DEFAULT_CHUNK_BYTES),
            }
        }
        return page_response(
            asset.title, f"<script>{_DATA_PREFIX}{json.dumps(data)};</script>"
        )

    def _api(self, req: HttpRequest) -> HttpResponse:
        if req.query.get("call") != AUTH_CALL:
            return error_response(400, "unsupported call")
        bit_rate = req.query.get("bit_rate", "")
        if bit_rate not in ALLOWED_BIT_RATES:
            return error_response(400, f"bit_rate must be one of {ALLOWED_BIT_RATES}")
        asset_id = self._open_token(req.query.get("url", ""))
        if asset_id is None:
            return error_response(403, "token rejected")
        rate = int(bit_rate)
        if rate not in self.catalog.assets[asset_id].variants:
            return error_response(404, "variant not stocked")
        answer = self._auth_answers.get((asset_id, rate))
        if answer is None:
            answer = self._auth_answers[asset_id, rate] = json_response(
                {"auth_url": self.cdn.signed_file_url(asset_id, rate, FAR_FUTURE)}
            )
        return copy_response(answer)
