"""Reference clients, one per protocol, written the way the services
expect to be spoken to. Each rip_* function drives its service end to
end and returns the audio as a tuple of chunks: the bodies it fetched,
in stream order; play_benchmark does the same through the CDM and
returns the plaintext chunks it decrypted. No client joins a stream; a
caller that wants one blob joins it. All of them are pure functions of
the env, the network and their inputs, which is what keeps transcripts
reproducible.
"""

from __future__ import annotations

import functools
import json

from . import benchmark as bench
from .crypto_kit import (
    CryptoError,
    aes_cbc_decrypt,
    b64,
    b64_decode,
    passphrase_seal,
)
from .hls import ManifestError, parse_index, parse_master
from .services import hungama as hungama_mod
from .services import saavn as saavn_mod
from .services import wynk as wynk_mod
from .services.gaana import parse_song_page as parse_gaana_page
from .services.saavn import parse_song_page as parse_saavn_page
from .services.wynk import encode_cip, mix_it, search_id
from .transport import DeterministicEnv, Network, query_string, split_url, uuid_like

USER_AGENT = "Mozilla/5.0 (X11; Linux x86_64) testbed-player/1.0"

# what every client returns: the bodies it fetched or decrypted, in
# stream order; HLS chunks are the CDN's read-only catalog views
Chunks = tuple[bytes | memoryview, ...]


class ProtocolFailure(Exception):
    """A service answered in a way the protocol does not continue from."""

    def __init__(self, detail: str, status: int = 0):
        super().__init__(detail if not status else f"{detail} (status {status})")


# What a client's decoding of a 200 body raises when the body is not
# what the protocol continues from: text that is not UTF-8 or not JSON
# (a ValueError), a page or playlist that does not parse, JSON that is not
# an object or lacks a field the client reads (a field of the wrong type
# fails as whatever its first use raises), a short first chunk, and a
# page cipher or license that does not open.
_DECODE_REFUSALS = (
    ValueError, LookupError, TypeError, AttributeError, RecursionError,
    ManifestError, CryptoError, bench.InitDataError, bench.LicenseError,
)


def _protocol(client):
    """client, stopping with ProtocolFailure where a decoder refused an
    answer; every other ProtocolFailure passes through as it was."""

    @functools.wraps(client)
    def run(*args, **kwargs):
        try:
            return client(*args, **kwargs)
        except _DECODE_REFUSALS as exc:
            raise ProtocolFailure(f"unreadable answer: {exc!r}") from exc

    return run


def _expect_ok(resp, detail: str):
    """The response, if the service answered 200; else the protocol stops."""
    if resp.status != 200:
        raise ProtocolFailure(detail, resp.status)
    return resp


def _expect_json(resp, detail: str) -> dict:
    return json.loads(_expect_ok(resp, detail).body)


def _fetch_hls(net: Network, entry_url: str, grant_query: dict[str, str]) -> Chunks:
    """master (or single-variant master) -> best index -> chunks."""
    resp = _expect_ok(net.get(entry_url, extra_query=grant_query), "manifest fetch refused")
    master = parse_master(resp.body.decode("utf-8"))
    if not master:
        raise ProtocolFailure("manifest lists no variants")
    _bw, index_url = max(master)  # parse_master refuses duplicate bandwidths
    resp = _expect_ok(net.get(index_url, extra_query=grant_query), "index fetch refused")
    return tuple(
        _expect_ok(net.get(seg_url, extra_query=grant_query), "chunk fetch refused").body
        for seg_url, _seconds in parse_index(resp.body.decode("utf-8"))
    )


# ---- wynk ------------------------------------------------------------------


def _wynk_stream_call(net, *, path, query, uid, token, extra_headers) -> Chunks:
    """The signed stream call both generations make, then its HLS."""
    qs = query_string(query)
    body = "{}"
    utkn = wynk_mod.utkn(uid, token, wynk_mod.stream_message("POST", path, qs, body))
    headers = {"x-bsy-utkn": utkn}
    headers.update(extra_headers)
    resp = net.post(
        f"https://{wynk_mod.HOST_PLAYBACK}{path}?{qs}",
        body=body.encode("ascii"),
        headers=headers,
    )
    stream = _expect_json(resp, "stream authorization refused")
    return _fetch_hls(net, stream["url"], stream["cookies"])


@_protocol
def rip_wynk_v1(
    net: Network,
    env: DeterministicEnv,
    song_url: str,
) -> Chunks:
    reg = _expect_json(
        net.post(
            f"https://{wynk_mod.HOST_ACCOUNT}{wynk_mod.V1_LOGIN_PATH}",
            body=json.dumps(
                {"deviceId": uuid_like(env.rng), "userAgent": USER_AGENT}
            ).encode("utf-8"),
        ),
        "device registration refused",
    )
    sid = search_id(song_url)
    return _wynk_stream_call(
        net,
        path=f"{wynk_mod.V1_STREAM_PREFIX}{sid}{wynk_mod.V1_STREAM_SUFFIX}",
        query=dict(wynk_mod.STREAM_QUERY),
        uid=reg["uid"],
        token=reg["token"],
        extra_headers={},
    )


@_protocol
def wynk_v2_handshake(net: Network, env: DeterministicEnv) -> dict:
    """The priming dance: interleaved webassets fetches, the number
    exchange, then login. Returns the session material M."""
    now = env.clock.now()
    bk = wynk_mod.gen_bk(now, env.rng)
    device_id = wynk_mod.gen_device_id(env.rng)
    first, second = device_id[:36], device_id[36:]
    for half, mark in ((first, "1"), (second, "2")):
        name = mix_it(half.replace("-", ""), bk)
        resp = net.get(f"https://{wynk_mod.HOST_ASSETS}/webassets/{name}_{mark}.jpg")
        _expect_ok(resp, "priming fetch refused")
    half = len(bk) // 2
    check = _expect_json(
        net.post(
            f"https://{wynk_mod.HOST_CHECK}{wynk_mod.CHECK_PATH}",
            body=json.dumps({"pid": bk[half:]}).encode("utf-8"),
            headers={"tk": str(env.clock.now()), "bk": bk[:half]},
        ),
        "check refused",
    )
    bs = "".join(check[f] for f in wynk_mod.CHECK_FIELDS)
    return _expect_json(
        net.post(
            f"https://{wynk_mod.HOST_LOGIN}{wynk_mod.V2_LOGIN_PATH}",
            body=b"{}",
            headers={"x-bsy-ptot": str(env.clock.now()), "x-bsy-cip": encode_cip(bs)},
        ),
        "login refused",
    )


@_protocol
def rip_wynk_v2(
    net: Network,
    env: DeterministicEnv,
    song_url: str,
    sk: str,
) -> Chunks:
    session = wynk_v2_handshake(net, env)
    sid = search_id(song_url)
    otp = wynk_mod.otp(session["dt"], sk, env.clock.now())
    sealed = passphrase_seal(session["kt"], otp.encode("ascii"), env.rng.randbytes(8))
    return _wynk_stream_call(
        net,
        path=wynk_mod.V2_STREAM_PATH,
        query=dict(wynk_mod.STREAM_QUERY, id=sid),  # id last: it is signed in order
        uid=session["uid"],
        token=session["token"],
        extra_headers={"x-bsy-uuid": session["dt"], "x-bsy-t": b64(sealed)},
    )


# ---- jiosaavn ----------------------------------------------------------------


@_protocol
def rip_saavn(
    net: Network,
    song_url: str,
    bit_rate: str | None = None,  # None or "": the top rate, "320"
) -> Chunks:
    page = _expect_ok(net.get(song_url), "song page refused")
    song = parse_saavn_page(page.body.decode("utf-8"))
    auth = _expect_json(
        net.get(
            f"https://{saavn_mod.HOST_WWW}{saavn_mod.API_PATH}",
            extra_query={
                "call": saavn_mod.AUTH_CALL,
                "url": song.encrypted_media_url,
                "bit_rate": bit_rate or "320",
            },
        ),
        "auth token refused",
    )
    return (_expect_ok(net.get(auth["auth_url"]), "media fetch refused").body,)


# ---- gaana --------------------------------------------------------------------


@_protocol
def rip_gaana(
    net: Network,
    song_url: str,
    page_key: bytes,
    page_iv: bytes,
    quality: str | None = None,  # None or "": "high"
) -> Chunks:
    quality = quality or "high"
    page = _expect_ok(net.get(song_url), "song page refused")
    block = parse_gaana_page(page.body.decode("utf-8"))
    if quality not in block.path:
        raise ProtocolFailure(f"quality {quality!r} not on page")
    uri = aes_cbc_decrypt(
        page_key, page_iv, b64_decode(block.path[quality])
    ).decode("utf-8")
    return _fetch_hls(net, uri, split_url(uri)[2])


# ---- hungama --------------------------------------------------------------------


@_protocol
def rip_hungama(
    net: Network,
    song_url: str,
    quality: str | None = None,
) -> Chunks:
    song_id = song_url.rstrip("/").rsplit("/", 1)[-1]
    data = _expect_json(
        net.get(f"https://{hungama_mod.HOST_WWW}{hungama_mod.PLAYER_DATA_PREFIX}{song_id}"),
        "player data refused",
    )
    token = split_url(data["file"])[2].get("token", "")
    if not token:
        raise ProtocolFailure("file url carries no token")
    cookies = {hungama_mod.QUALITY_COOKIE: quality} if quality else {}
    media = _expect_json(
        net.post(
            f"https://{hungama_mod.HOST_WWW}{hungama_mod.MDNURL_PREFIX}{data['media_id']}",
            extra_query={"token": token},
            cookies=cookies,
        ),
        "mdnurl refused",
    )
    return (_expect_ok(net.get(media["media_url"]), "media fetch refused").body,)


# ---- benchmark -------------------------------------------------------------------


@_protocol
def play_benchmark(
    net: Network,
    track_id: str,
    credentials: tuple[str, str],
    cdm: bench.Cdm,
) -> Chunks:
    username, password = credentials
    login = net.post(
        f"https://{bench.HOST_API}{bench.LOGIN_PATH}",
        body=json.dumps({"username": username, "password": password}).encode(),
    )
    _expect_ok(login, "login refused")
    cookies = dict(login.set_cookies)
    token = _expect_json(
        net.post(f"https://{bench.HOST_API}{bench.TOKEN_PATH}", cookies=cookies),
        "bearer refused",
    )
    resolved = _expect_json(
        net.get(
            f"https://{bench.HOST_API}{bench.RESOLVE_PREFIX}{track_id}",
            headers={"authorization": f"Bearer {token['bearer']}"},
        ),
        "resolve refused",
    )
    uri = resolved["uris"][0]
    first = net.get(uri, headers={"range": f"bytes=0-{bench.SEGMENT_BYTES - 1}"})
    _expect_ok(first, "first chunk refused")
    init = bench.extract_init_data(first.body)
    request_blob = cdm.request_license(init)
    license_resp = net.post(resolved["license_url"], body=request_blob)
    handle = cdm.install(_expect_ok(license_resp, "license refused").body)

    # each chunk is decrypted as it arrives; the CDM's keystream for the
    # handle continues from one chunk to the next. The loop runs once per
    # range, so it binds what it calls once per play.
    request, decrypt, step = net.request, cdm.decrypt_segment, bench.SEGMENT_BYTES
    plaintext = [decrypt(handle, first.body[bench.HEADER_BYTES:])]
    offset = len(first.body)
    while True:
        nxt = request("GET", uri, headers={"range": f"bytes={offset}-{offset + step - 1}"})
        if nxt.status != 200:
            raise ProtocolFailure("chunk fetch refused", nxt.status)
        body = nxt.body
        if not body:
            break
        plaintext.append(decrypt(handle, body, offset - bench.HEADER_BYTES))
        offset += len(body)
        if len(body) < step:
            break
    return tuple(plaintext)
