"""Accountless token exchange: page blob -> api.php -> signed file URL."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed import cdn
from drmtestbed.catalog import demo_catalog
from drmtestbed.clients import ProtocolFailure, rip_saavn
from drmtestbed.config import TestbedConfig
from drmtestbed.crypto_kit import (
    DecodeError,
    PaddingError,
    SizeError,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    b64,
    b64_decode,
)
from drmtestbed.services import saavn
from drmtestbed.transport import DeterministicEnv, Network
from drmtestbed.webassets import MINIFIED_BANNER, PageError

SEAL_KEY = bytes.fromhex("3d8a1f650b72c49ee8135a0c9746fd2b")
SEAL_IV = bytes.fromhex("71e04cb82f9ad6135c68020d94b7fae3")
_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _build():
    env = DeterministicEnv(seed=31, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = saavn.SaavnService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    return svc, net, env, catalog


@pytest.fixture
def rig():
    return _build()


@pytest.fixture(scope="module")
def table():
    """The service's token opener and the catalog ids, kept small so a
    failing example prints briefly."""
    svc, _net, _env, catalog = _build()
    return svc._open_token, frozenset(catalog.assets)


def _api(net, **query):
    return net.get(f"https://{saavn.HOST_WWW}{saavn.API_PATH}", extra_query=query)


def _page_token(net, svc, asset_id):
    page = net.get(svc.song_url(asset_id))
    assert page.status == 200
    return saavn.parse_song_page(page.body.decode("utf-8"))


# ------------------------------------------------------------ page scraping


def test_parse_song_page_round_trip(rig):
    svc, net, _env, catalog = rig
    song = _page_token(net, svc, "trk1")
    assert song.title == catalog.assets["trk1"].title
    assert song.perma_url == svc.song_url("trk1")
    # the sealed blob opens back to the asset id under the page key
    raw = aes_cbc_decrypt(SEAL_KEY, SEAL_IV, b64_decode(song.encrypted_media_url))
    assert raw == b"trk1"


def test_parse_song_page_errors():
    with pytest.raises(PageError):
        saavn.parse_song_page("<html>nothing here</html>")
    with pytest.raises(PageError):
        saavn.parse_song_page("window.__INITIAL_DATA__ = {\"song\": {}")
    song = {"perma_url": 1, "encrypted_media_url": "e", "title": "t"}
    with pytest.raises(PageError, match="lacks the song fields"):
        saavn.parse_song_page(f"window.__INITIAL_DATA__ = {json.dumps({'song': song})};</script>")


def test_static_asset_names_the_api(rig):
    _svc, net, _env, _catalog = rig
    resp = net.get(f"https://{saavn.HOST_WWW}{saavn.ASSET_PATH}")
    assert resp.status == 200
    text = resp.body.decode()
    assert text.startswith(MINIFIED_BANNER)
    assert "song.generateAuthToken" in text


# ------------------------------------------------------------------ api.php


def test_api_happy_path_no_account_needed(rig):
    svc, net, _env, catalog = rig
    song = _page_token(net, svc, "trk2")
    resp = _api(net, call=saavn.AUTH_CALL, url=song.encrypted_media_url, bit_rate="320")
    assert resp.status == 200
    auth_url = json.loads(resp.body)["auth_url"]
    media = net.get(auth_url)
    assert media.status == 200
    assert media.body == catalog.assets["trk2"].variant(320)


@pytest.mark.parametrize("rate", ["320", "128", "64", "32", "16"])
def test_api_serves_every_ladder_rate(rig, rate):
    svc, net, _env, catalog = rig
    song = _page_token(net, svc, "trk1")
    resp = _api(net, call=saavn.AUTH_CALL, url=song.encrypted_media_url, bit_rate=rate)
    media = net.get(json.loads(resp.body)["auth_url"])
    assert media.body == catalog.assets["trk1"].variant(int(rate))


# ------------------------------------------------------- the seal as a table


def open_token_by_decrypt(asset_ids, token: str) -> str | None:
    """The seal opened by decrypting it, the reference the service's table
    must agree with: the id a token opens to, or None when the token does
    not open or opens to an id outside the catalog."""
    try:
        raw = aes_cbc_decrypt(SEAL_KEY, SEAL_IV, b64_decode(token))
        asset_id = raw.decode("utf-8")
    except (DecodeError, PaddingError, SizeError, UnicodeDecodeError):
        return None
    return asset_id if asset_id in asset_ids else None


_SEALS = [
    b64(aes_cbc_encrypt(SEAL_KEY, SEAL_IV, asset_id))
    for asset_id in (b"trk1", b"trk2", b"trk3", b"trk99", b"", b"t" * 20, b"trk1" * 9)
]


def _one_char_changed(args):
    token, at, char = args
    at %= len(token)
    return token[:at] + char + token[at + 1:]


def _unused_bits_set(args):
    # the last character before "=" or "==" carries 2 or 4 bits the
    # decoder drops; setting them spells the same bytes another way
    token, bits = args
    unused = {1: 0b11, 2: 0b1111}.get(token.count("="), 0)
    at = len(token) - token.count("=") - 1
    char = _B64_ALPHABET[_B64_ALPHABET.index(token[at]) ^ (bits & unused)]
    return token[:at] + char + token[at + 1:]


_TOKENS = st.one_of(
    st.text(max_size=48),
    st.binary(max_size=64).map(b64),
    st.sampled_from(_SEALS),
    st.tuples(
        st.sampled_from(_SEALS), st.integers(0, 63), st.sampled_from(_B64_ALPHABET + "=")
    ).map(_one_char_changed),
    st.tuples(st.sampled_from(_SEALS), st.integers(1, 15)).map(_unused_bits_set),
)


@given(token=_TOKENS)
@settings(max_examples=300)
def test_open_token_agrees_with_decrypting(table, token):
    open_token, asset_ids = table
    assert open_token(token) == open_token_by_decrypt(asset_ids, token)


def test_api_accepts_non_canonical_base64_of_a_seal(rig):
    # b64decode(validate=True) ignores the unused low bits of the last
    # character, so two token strings carry the same sealed bytes
    svc, net, _env, catalog = rig
    token = _page_token(net, svc, "trk1").encrypted_media_url
    assert token.endswith("==")
    last = _B64_ALPHABET.index(token[-3])
    sibling = token[:-3] + _B64_ALPHABET[last ^ 1] + "=="
    assert sibling != token and b64_decode(sibling) == b64_decode(token)
    assert open_token_by_decrypt(catalog.assets, sibling) == "trk1"
    resp = _api(net, call=saavn.AUTH_CALL, url=sibling, bit_rate="320")
    assert resp.status == 200
    assert net.get(json.loads(resp.body)["auth_url"]).body == catalog.assets[
        "trk1"
    ].variant(320)


def test_auth_answers_are_rendered_once_and_copied_out(rig, monkeypatch):
    svc, net, _env, _catalog = rig
    token = _page_token(net, svc, "trk2").encrypted_media_url
    issued = []
    real_issue = cdn.issue_grant
    monkeypatch.setattr(
        cdn, "issue_grant", lambda *a: issued.append(a) or real_issue(*a)
    )
    first = _api(net, call=saavn.AUTH_CALL, url=token, bit_rate="128")
    second = _api(net, call=saavn.AUTH_CALL, url=token, bit_rate="128")
    assert first.status == second.status == 200
    assert first.body == second.body
    assert first is not second and first.headers is not second.headers
    assert first.headers == second.headers == {"content-type": "application/json"}
    assert len(issued) == 1
    # another rate is another answer
    other = _api(net, call=saavn.AUTH_CALL, url=token, bit_rate="64")
    assert other.body != first.body and len(issued) == 2


def test_grants_never_expire(rig):
    svc, net, env, catalog = rig
    song = _page_token(net, svc, "trk3")
    resp = _api(net, call=saavn.AUTH_CALL, url=song.encrypted_media_url, bit_rate="128")
    auth_url = json.loads(resp.body)["auth_url"]
    env.clock.advance(10 * 365 * 86400)  # ten years on
    media = net.get(auth_url)
    assert media.status == 200
    assert media.body == catalog.assets["trk3"].variant(128)


def test_premium_track_needs_no_account_either(rig):
    # trk3 is the premium fixture; the api hands it out all the same
    svc, net, env, catalog = rig
    media = rip_saavn(net, svc.song_url("trk3"))
    assert media == (catalog.assets["trk3"].variant(320),)


def test_rip_client_selects_bit_rate(rig):
    svc, net, env, catalog = rig
    media = rip_saavn(net, svc.song_url("trk1"), bit_rate="64")
    assert media == (catalog.assets["trk1"].variant(64),)


def test_rip_client_surfaces_refusals(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure):
        rip_saavn(net, f"https://{saavn.HOST_WWW}/song/ghost/trk9")
    with pytest.raises(ProtocolFailure):
        rip_saavn(net, svc.song_url("trk1"), bit_rate="999")
