"""Gaana simulation: the song page itself carries AES-CBC encrypted
playback URIs per quality, and the key/IV pair sits in the public player
bundle. Decrypting a path yields a pre-authorized manifest URL, so the
page is the whole handshake.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..catalog import ServiceCatalog, slugify
from ..cdn import FAR_FUTURE, CdnNode, GrantGate
from ..config import TestbedConfig
from ..crypto_kit import aes_cbc_encrypt, b64
from ..transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    copy_response,
    error_response,
    query_string,
)
from ..webassets import page_response, script_response

HOST_WWW = "gaana.com"
HOST_CDN = "stream.gaana.com"

SONG_PREFIX = "/song/"
ASSET_PATH = "/static/player.min.js"

QUALITY_RATES = {"high": 320, "medium": 128, "low": 64}
_QUALITIES_JSON = json.dumps(list(QUALITY_RATES), separators=(",", ":"))

_SPAN_OPEN = '<span class="sourcelist" data-type="playSong">'
_SPAN_CLOSE = "</span>"


@dataclass(frozen=True)
class GaanaPathBlock:
    """The decoded playSong JSON: base64 AES-CBC ciphertext per quality."""

    title: str
    path: dict[str, str]


def parse_song_page(html: str) -> GaanaPathBlock:
    """The playSong block of a song page: a string title and an object
    of string paths, or ValueError for any page that does not carry
    them, and no other exception."""
    start = html.find(_SPAN_OPEN)
    if start < 0:
        raise ValueError("no playSong span on page")
    start += len(_SPAN_OPEN)
    end = html.find(_SPAN_CLOSE, start)
    if end < 0:
        raise ValueError("unterminated playSong span")
    try:
        data = json.loads(html[start:end])
        title, path = data["title"], data["path"]
    except (ValueError, LookupError, TypeError, RecursionError):
        raise ValueError("playSong span lacks a title and paths") from None
    if not (isinstance(title, str) and isinstance(path, dict)
            and all(isinstance(value, str) for value in path.values())):
        raise ValueError("playSong span lacks a title and paths")
    return GaanaPathBlock(title=title, path=path)


class GaanaService:
    def __init__(
        self, catalog: ServiceCatalog, env: DeterministicEnv, cfg: TestbedConfig
    ):
        self.catalog = catalog
        self.page_key = cfg.key("gaana_key_hex")
        self.page_iv = cfg.key("gaana_iv_hex")
        gate = GrantGate(cfg.key("gaana_cdn_secret_hex"), "KGAANA1")
        self.cdn = CdnNode(HOST_CDN, gate, env.clock, cfg.chunk_bytes)
        self._by_slug: dict[str, str] = {}
        for asset in catalog.assets.values():
            self.cdn.add_hls_asset(asset.asset_id, asset, QUALITY_RATES.values())
            slug = slugify(asset.title)
            if slug in self._by_slug:
                raise ValueError(
                    f"{self._by_slug[slug]} and {asset.asset_id} share the slug {slug!r}"
                )
            self._by_slug[slug] = asset.asset_id
        # Song pages, rendered on first request: a page's grants never
        # expire and its key and IV are fixed, so it is pure in the asset.
        self._pages: dict[str, HttpResponse] = {}

    def mount(self, net) -> None:
        net.register(HOST_WWW, self._handle_www)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str) -> str:
        return f"https://{HOST_WWW}{SONG_PREFIX}{slugify(self.catalog.assets[asset_id].title)}"

    def _handle_www(self, req: HttpRequest) -> HttpResponse:
        if req.method != "GET":
            return error_response(400, "GET only")
        if req.path == ASSET_PATH:
            return script_response(
                [
                    f'var mediaKey="{self.page_key.hex()}"',
                    f'var mediaIv="{self.page_iv.hex()}"',
                    f"var qualities={_QUALITIES_JSON}",
                ]
            )
        if req.path.startswith(SONG_PREFIX):
            slug = req.path[len(SONG_PREFIX):].strip("/")
            asset_id = self._by_slug.get(slug)
            if asset_id is None:
                return error_response(404, "no such song")
            page = self._pages.get(asset_id)
            if page is None:
                page = self._pages[asset_id] = self._song_page(asset_id)
            return copy_response(page)
        return error_response(404, "no such page")

    def _song_page(self, asset_id: str) -> HttpResponse:
        asset = self.catalog.assets[asset_id]
        grant = query_string(self.cdn.hls_grant(asset_id, FAR_FUTURE))
        path = {}
        for quality, rate in QUALITY_RATES.items():
            uri = f"{self.cdn.variant_master_url(asset_id, rate)}?{grant}"
            path[quality] = b64(
                aes_cbc_encrypt(self.page_key, self.page_iv, uri.encode("utf-8"))
            )
        block = json.dumps({"title": asset.title, "path": path})
        return page_response(asset.title, _SPAN_OPEN + block + _SPAN_CLOSE)
