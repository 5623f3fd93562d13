"""JioSaavn simulation: song pages embed a sealed media token in a
window.__INITIAL_DATA__ blob, and an api.php call trades the token plus
a bit_rate for a signed file URL. No account enters the picture at any
point, which is the whole finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..catalog import ServiceCatalog, slugify
from ..cdn import FAR_FUTURE, CdnNode
from ..crypto_kit import (
    DecodeError,
    PaddingError,
    SizeError,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    b64,
    b64_decode,
)
from ..transport import (
    DeterministicEnv,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from ..webassets import render_client_script

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
    find the assignment, slice to the closing script tag, json-load."""
    start = html.find(_DATA_PREFIX)
    if start < 0:
        raise ValueError("no __INITIAL_DATA__ on page")
    start += len(_DATA_PREFIX)
    end = html.find(";</script>", start)
    if end < 0:
        raise ValueError("unterminated data blob")
    song = json.loads(html[start:end])["song"]
    return SaavnSongData(
        perma_url=song["perma_url"],
        encrypted_media_url=song["encrypted_media_url"],
        title=song["title"],
    )


class SaavnService:
    def __init__(
        self,
        catalog: ServiceCatalog,
        env: DeterministicEnv,
        *,
        cdn_secret: bytes,
        seal_key: bytes,
        seal_iv: bytes,
    ):
        self.catalog = catalog
        self.env = env
        self._seal_key = seal_key
        self._seal_iv = seal_iv
        self.cdn = CdnNode(HOST_CDN, cdn_secret, "KSAAVN1", env.clock)
        for asset in catalog.assets.values():
            self.cdn.add_file_asset(asset.asset_id, asset)

    def mount(self, net) -> None:
        net.register(HOST_WWW, self._handle_www)
        net.register(self.cdn.host, self.cdn.handler)

    def song_url(self, asset_id: str) -> str:
        slug = slugify(self.catalog.asset(asset_id).title)
        return f"https://{HOST_WWW}{SONG_PREFIX}{slug}/{asset_id}"

    def _seal_token(self, asset_id: str) -> str:
        return b64(
            aes_cbc_encrypt(self._seal_key, self._seal_iv, asset_id.encode("utf-8"))
        )

    def _open_token(self, token: str) -> str | None:
        try:
            raw = aes_cbc_decrypt(self._seal_key, self._seal_iv, b64_decode(token))
            return raw.decode("utf-8")
        except (DecodeError, PaddingError, SizeError, UnicodeDecodeError):
            return None

    def _handle_www(self, req: HttpRequest) -> HttpResponse:
        if req.method == "GET" and req.path == ASSET_PATH:
            body = render_client_script(
                [
                    'var apiBase="/api.php?call=song.generateAuthToken"',
                    f"var bitRates={json.dumps(list(ALLOWED_BIT_RATES))}",
                ]
            )
            return HttpResponse(
                status=200,
                headers={"content-type": "application/javascript"},
                body=body,
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
        asset = self.catalog.asset(asset_id)
        data = {
            "song": {
                "perma_url": self.song_url(asset_id),
                "encrypted_media_url": self._seal_token(asset_id),
                "title": asset.title,
                "duration": 10 * max(1, len(asset.variants[asset.top_bitrate()]) // 32768),
            }
        }
        html = (
            "<!DOCTYPE html><html><head><title>"
            + asset.title
            + "</title></head><body>\n<script>"
            + _DATA_PREFIX
            + json.dumps(data)
            + ";</script>\n</body></html>\n"
        )
        return HttpResponse(
            status=200,
            headers={"content-type": "text/html"},
            body=html.encode("utf-8"),
        )

    def _api(self, req: HttpRequest) -> HttpResponse:
        if req.query.get("call") != AUTH_CALL:
            return error_response(400, "unsupported call")
        bit_rate = req.query.get("bit_rate", "")
        if bit_rate not in ALLOWED_BIT_RATES:
            return error_response(400, f"bit_rate must be one of {ALLOWED_BIT_RATES}")
        asset_id = self._open_token(req.query.get("url", ""))
        if asset_id is None or asset_id not in self.catalog.assets:
            return error_response(403, "token rejected")
        rate = int(bit_rate)
        if rate not in self.catalog.asset(asset_id).variants:
            return error_response(404, "variant not stocked")
        grant = self.cdn.file_grant(asset_id, rate, FAR_FUTURE)
        query = "&".join(f"{k}={v}" for k, v in grant.as_query().items())
        return json_response(
            {"auth_url": f"{self.cdn.file_url(asset_id, rate)}?{query}"}
        )
