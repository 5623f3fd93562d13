"""Page-embedded encrypted URIs with the key shipped in the player."""

from __future__ import annotations

import pytest

from drmtestbed import cdn
from drmtestbed.catalog import ServiceCatalog, demo_catalog
from drmtestbed.clients import ProtocolFailure, rip_gaana
from drmtestbed.config import TestbedConfig
from drmtestbed.crypto_kit import CryptoError, aes_cbc_decrypt, b64_decode
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset
from drmtestbed.services import gaana
from drmtestbed.transport import DeterministicEnv, Network
from drmtestbed.webassets import MINIFIED_BANNER, PageError

PAGE_KEY = bytes.fromhex("a45bd1087e92cf36610b54afc3d278e9")
PAGE_IV = bytes.fromhex("0cf3a871469de2b5871e90cd5336ab14")


@pytest.fixture
def rig():
    env = DeterministicEnv(seed=41, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = gaana.GaanaService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    return svc, net, env, catalog


def _block(net, svc, asset_id):
    page = net.get(svc.song_url(asset_id))
    assert page.status == 200
    return gaana.parse_song_page(page.body.decode("utf-8"))


def test_parse_song_page_errors():
    with pytest.raises(PageError):
        gaana.parse_song_page("<html>bare</html>")
    with pytest.raises(PageError):
        gaana.parse_song_page('<span class="sourcelist" data-type="playSong">{"x": 1')


def test_page_paths_decrypt_to_authorized_uris(rig):
    svc, net, _env, catalog = rig
    block = _block(net, svc, "trk1")
    assert block.title == catalog.assets["trk1"].title
    assert set(block.path) == {"high", "medium", "low"}
    for quality, rate in gaana.QUALITY_RATES.items():
        uri = aes_cbc_decrypt(
            PAGE_KEY, PAGE_IV, b64_decode(block.path[quality])
        ).decode("utf-8")
        assert uri.startswith(f"https://{gaana.HOST_CDN}/hls/trk1/{rate}/master.m3u8?")
        assert "Policy=" in uri and "Signature=" in uri and "Key-Pair-Id=" in uri
        # the URI works as-is, no further exchange
        assert net.get(uri).status == 200


def test_static_asset_ships_the_key(rig):
    svc, net, _env, _catalog = rig
    resp = net.get(f"https://{gaana.HOST_WWW}{gaana.ASSET_PATH}")
    assert resp.status == 200
    text = resp.body.decode()
    assert text.startswith(MINIFIED_BANNER)
    assert PAGE_KEY.hex() in text
    assert PAGE_IV.hex() in text


def test_tampered_path_never_yields_the_uri(rig):
    svc, net, _env, _catalog = rig
    block = _block(net, svc, "trk2")
    original = aes_cbc_decrypt(PAGE_KEY, PAGE_IV, b64_decode(block.path["high"]))
    raw = b64_decode(block.path["high"])
    for i in (0, 1, 15, len(raw) - 1):
        mutated = bytearray(raw)
        mutated[i] ^= 0x01
        try:
            out = aes_cbc_decrypt(PAGE_KEY, PAGE_IV, bytes(mutated))
        except CryptoError:
            continue  # padding collapsed, fine
        assert out != original


def test_song_pages_are_rendered_once_per_asset(rig, monkeypatch):
    svc, net, _env, _catalog = rig
    calls = []
    real_issue, real_encrypt = cdn.issue_grant, gaana.aes_cbc_encrypt
    monkeypatch.setattr(
        cdn, "issue_grant", lambda *a: calls.append("grant") or real_issue(*a)
    )
    monkeypatch.setattr(
        gaana, "aes_cbc_encrypt", lambda *a: calls.append("cbc") or real_encrypt(*a)
    )
    first = net.get(svc.song_url("trk1"))
    assert calls.count("grant") == 1 and calls.count("cbc") == 3
    calls.clear()
    second = net.get(svc.song_url("trk1"))
    assert calls == []
    assert first.status == second.status == 200
    assert first.body == second.body
    assert first is not second and first.headers is not second.headers
    assert first.headers == second.headers == {"content-type": "text/html"}
    assert net.get(svc.song_url("trk2")).body != first.body
    assert calls.count("grant") == 1 and calls.count("cbc") == 3


def test_grants_never_expire(rig):
    svc, net, env, catalog = rig
    block = _block(net, svc, "trk3")
    uri = aes_cbc_decrypt(PAGE_KEY, PAGE_IV, b64_decode(block.path["low"])).decode()
    env.clock.advance(10 * 365 * 86400)
    assert net.get(uri).status == 200


@pytest.mark.parametrize("quality,rate", [("high", 320), ("medium", 128), ("low", 64)])
def test_rip_client_per_quality(rig, quality, rate):
    svc, net, env, catalog = rig
    media = b"".join(
        rip_gaana(net, svc.song_url("trk1"), PAGE_KEY, PAGE_IV, quality=quality)
    )
    assert media == catalog.assets["trk1"].variant(rate)


def test_rip_premium_track_without_account(rig):
    svc, net, env, catalog = rig
    media = b"".join(rip_gaana(net, svc.song_url("trk3"), PAGE_KEY, PAGE_IV))
    assert media == catalog.assets["trk3"].variant(320)


def test_rip_unknown_quality_fails(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure):
        rip_gaana(net, svc.song_url("trk1"), PAGE_KEY, PAGE_IV, quality="ultra")


def test_rip_wrong_key_cannot_follow_the_page(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure) as err:
        rip_gaana(net, svc.song_url("trk1"), b"\x00" * 16, PAGE_IV)
    assert isinstance(err.value.__cause__, CryptoError)


def test_titles_that_slugify_alike_are_rejected_at_build():
    # the page is looked up by slug alone, so a clash would serve the
    # later track's audio under the earlier track's URL
    assets = {
        asset_id: MediaAsset(
            asset_id, title, {rate: AUDIO_MAGIC + bytes(64) for rate in (320, 128, 64)}
        )
        for asset_id, title in (("a1", "Rain Song"), ("a2", "rain-song"))
    }
    env = DeterministicEnv(seed=41, clock_start=1_700_000_000)
    with pytest.raises(ValueError, match="a1 and a2 share the slug 'rain-song'"):
        gaana.GaanaService(ServiceCatalog(assets=assets), env, TestbedConfig())
