"""Leaked bearer token in metadata, quality by cookie, time-boxed grants."""

from __future__ import annotations

import json

import pytest

from drmtestbed.catalog import demo_catalog
from drmtestbed.clients import ProtocolFailure, rip_hungama
from drmtestbed.config import TestbedConfig
from drmtestbed.crypto_kit import b64, hmac_sha1
from drmtestbed.services import hungama
from drmtestbed.transport import DeterministicEnv, Network
from drmtestbed.webassets import MINIFIED_BANNER


@pytest.fixture
def rig():
    env = DeterministicEnv(seed=51, clock_start=1_700_000_000)
    catalog = demo_catalog(env.rng)
    svc = hungama.HungamaService(catalog, env, TestbedConfig())
    net = Network()
    svc.mount(net)
    return svc, net, env, catalog


def _player_data(net, song_id):
    resp = net.get(f"https://{hungama.HOST_WWW}{hungama.PLAYER_DATA_PREFIX}{song_id}")
    assert resp.status == 200
    return json.loads(resp.body)


def _token_of(data):
    url = data["file"]
    return url.partition("token=")[2]


def _mdnurl(net, song_id, token, cookies=None, body=b""):
    return net.post(
        f"https://{hungama.HOST_WWW}{hungama.MDNURL_PREFIX}{song_id}",
        body=body,
        extra_query={"token": token},
        cookies=cookies or {},
    )


def test_player_data_leaks_a_valid_token(rig):
    svc, net, _env, catalog = rig
    data = _player_data(net, "trk1")
    assert data["media_id"] == "trk1"
    assert data["title"] == catalog.assets["trk1"].title
    token = _token_of(data)
    # fixed-width tag, digits after
    assert len(token) > 28
    assert token[28:].isdigit()
    assert svc._token_valid("trk1", token)


def test_player_data_unknown_track_404(rig):
    _svc, net, _env, _catalog = rig
    resp = net.get(f"https://{hungama.HOST_WWW}{hungama.PLAYER_DATA_PREFIX}trk9")
    assert resp.status == 404


def test_mdnurl_happy_path_default_quality(rig):
    _svc, net, _env, catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    resp = _mdnurl(net, "trk1", token)
    assert resp.status == 200
    media_url = json.loads(resp.body)["media_url"]
    assert "/file/trk1/320.aud" in media_url  # high is the default
    media = net.get(media_url)
    assert media.status == 200
    assert media.body == catalog.assets["trk1"].variant(320)


@pytest.mark.parametrize("quality,rate", [("high", 320), ("medium", 128), ("low", 64)])
def test_mdnurl_quality_cookie(rig, quality, rate):
    _svc, net, _env, catalog = rig
    token = _token_of(_player_data(net, "trk2"))
    resp = _mdnurl(net, "trk2", token, cookies={hungama.QUALITY_COOKIE: quality})
    media = net.get(json.loads(resp.body)["media_url"])
    assert media.body == catalog.assets["trk2"].variant(rate)


def test_mdnurl_rejects_unknown_quality(rig):
    _svc, net, _env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    resp = _mdnurl(net, "trk1", token, cookies={hungama.QUALITY_COOKIE: "lossless"})
    assert resp.status == 400


def test_mdnurl_rejects_body(rig):
    _svc, net, _env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    assert _mdnurl(net, "trk1", token, body=b"{}").status == 400


def test_mdnurl_unknown_track_404_before_token_check(rig):
    _svc, net, _env, _catalog = rig
    assert _mdnurl(net, "trk9", "whatever").status == 404


def test_mdnurl_rejects_tampered_tokens(rig):
    _svc, net, _env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    flipped_tag = ("A" if token[0] != "A" else "B") + token[1:]
    assert _mdnurl(net, "trk1", flipped_tag).status == 403
    bumped_expiry = token[:-1] + ("0" if token[-1] != "0" else "1")
    assert _mdnurl(net, "trk1", bumped_expiry).status == 403
    assert _mdnurl(net, "trk1", "").status == 403
    assert _mdnurl(net, "trk1", token[:27]).status == 403
    # '²' passes str.isdigit() but is no ASCII expiry digit
    assert _mdnurl(net, "trk1", token[:28] + "\u00b2").status == 403


def test_over_long_expiry_is_rejected(rig):
    # a correctly tagged expiry past int()'s 4,300-digit limit
    svc, net, _env, _catalog = rig
    expiry = "9" * 5000
    tag = b64(hmac_sha1(svc._token_secret, ("trk1" + expiry).encode("ascii")))
    assert not svc._token_valid("trk1", tag + expiry)
    resp = _mdnurl(net, "trk1", tag + expiry)
    assert resp.status == 403
    assert json.loads(resp.body) == {"error": "token rejected"}


def test_token_is_bound_to_the_song(rig):
    _svc, net, _env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    assert _mdnurl(net, "trk2", token).status == 403


def test_token_expires_after_ttl(rig):
    svc, net, env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    env.clock.advance(svc.token_ttl - 1)
    assert _mdnurl(net, "trk1", token).status == 200
    env.clock.advance(1)
    assert _mdnurl(net, "trk1", token).status == 403


def test_media_grant_expires_after_grant_ttl(rig):
    svc, net, env, _catalog = rig
    token = _token_of(_player_data(net, "trk1"))
    media_url = json.loads(_mdnurl(net, "trk1", token).body)["media_url"]
    assert net.get(media_url).status == 200
    env.clock.advance(svc.grant_ttl)
    assert net.get(media_url).status == 403


def test_static_asset_names_the_cookie(rig):
    _svc, net, _env, _catalog = rig
    resp = net.get(f"https://{hungama.HOST_WWW}{hungama.ASSET_PATH}")
    text = resp.body.decode()
    assert text.startswith(MINIFIED_BANNER)
    assert hungama.QUALITY_COOKIE in text


def test_rip_client_default_and_quality(rig):
    svc, net, env, catalog = rig
    assert rip_hungama(net, svc.song_url("trk1")) == (catalog.assets["trk1"].variant(320),)
    assert rip_hungama(net, svc.song_url("trk3"), quality="low") == (
        catalog.assets["trk3"].variant(64),
    )


def test_rip_client_surfaces_refusals(rig):
    svc, net, env, _catalog = rig
    with pytest.raises(ProtocolFailure):
        rip_hungama(net, f"https://{hungama.HOST_WWW}/song/ghost/trk9")
    with pytest.raises(ProtocolFailure):
        rip_hungama(net, svc.song_url("trk1"), quality="8bit")
