"""Testbed wiring: one network, five services, shared catalog."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import pytest

from drmtestbed import benchmark as bench
from drmtestbed import clients
from drmtestbed.auditor import audit
from drmtestbed.catalog import ServiceCatalog, demo_catalog, save_catalog
from drmtestbed.clients import ProtocolFailure
from drmtestbed.config import KEY_FIELDS, TTL_FIELDS, ConfigError, TestbedConfig
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset
from drmtestbed.services import gaana, hungama, saavn, wynk
from drmtestbed.testbed import RIP_SERVICES, SPECS, Testbed
from drmtestbed.transport import DeterministicEnv, HttpRequest, copy_request

CLIENT_FUNCTIONS = {
    "wynk-v1": "rip_wynk_v1",
    "wynk-v2": "rip_wynk_v2",
    "jiosaavn": "rip_saavn",
    "gaana": "rip_gaana",
    "hungama": "rip_hungama",
    "benchmark": "play_benchmark",
}
SERVICE_CLASSES = {
    "wynk-v1": wynk.WynkService,
    "wynk-v2": wynk.WynkService,
    "jiosaavn": saavn.SaavnService,
    "gaana": gaana.GaanaService,
    "hungama": hungama.HungamaService,
    "benchmark": bench.BenchmarkService,
}


class TestWiring:
    def test_rippable_services(self):
        assert RIP_SERVICES == (
            "wynk-v1",
            "wynk-v2",
            "jiosaavn",
            "gaana",
            "hungama",
            "benchmark",
        )

    def test_every_service_shares_the_catalog(self, bed):
        for svc in (bed.wynk, bed.saavn, bed.gaana, bed.hungama, bed.benchmark):
            assert svc.catalog is bed.catalog

    def test_track_partition(self, bed):
        assert bed.open_tracks() == ["trk1", "trk2"]
        assert bed.premium_tracks() == ["trk3"]

    def test_song_urls_embed_the_title_slug(self, bed):
        for svc in (bed.wynk, bed.saavn, bed.gaana, bed.hungama):
            url = svc.song_url("trk1")
            assert url.startswith("https://")
            assert "/song/midnight-local" in url

    def test_wynk_song_url_carries_the_search_id(self, bed):
        assert bed.wynk.song_url("trk1").endswith("/srch_trk1")

    def test_static_assets_are_served(self, bed):
        for spec in SPECS:
            assert bed.net.get(spec.bundle_url).status == 200

    def test_every_secret_is_held_by_one_service(self):
        # a setting no row holds would go unaudited; a service is known
        # by its bundle, so wynk-v1 and wynk-v2 count as one
        holders = {}
        for spec in SPECS:
            for name in spec.secrets:
                holders.setdefault(name, set()).add(spec.bundle_url)
        assert set(holders) <= {f.name for f in fields(TestbedConfig)}
        assert set(holders) >= {"wynk_sk", *KEY_FIELDS}
        assert {name: len(urls) for name, urls in holders.items()} == dict.fromkeys(holders, 1)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_a_row_names_the_secrets_its_service_reads(self, spec):
        # the hardcoded-keys probe looks only for the row's secrets, so a
        # secret the service reads but the row leaves out goes unaudited
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(cfg, name)

            def key(self, name):
                read.add(name)
                return cfg.key(name)

        cfg = TestbedConfig()
        env = DeterministicEnv(cfg.seed, cfg.clock)
        SERVICE_CLASSES[spec.name](demo_catalog(env.rng), env, Recording())
        assert read & {"wynk_sk", *KEY_FIELDS} == set(spec.secrets)


class TestRunClient:
    def test_unknown_service_raises_value_error(self, bed):
        with pytest.raises(ValueError):
            bed.run_client("spotify", "trk1")

    def test_unknown_track_is_a_protocol_failure(self, bed):
        with pytest.raises(ProtocolFailure):
            bed.run_client("gaana", "ghost")

    def test_default_principal_gets_premium_benchmark_audio(self, bed):
        blob = b"".join(bed.run_client("benchmark", "trk3"))
        assert blob == bed.catalog.assets["trk3"].variant(320)

    def test_free_tier_is_refused_premium(self, bed):
        with pytest.raises(ProtocolFailure):
            bed.run_client("benchmark", "trk3", principal="free")

    def test_anonymous_cannot_even_log_in(self, bed):
        with pytest.raises(ProtocolFailure):
            bed.run_client("benchmark", "trk1", principal="anonymous")

    @pytest.mark.parametrize("service", RIP_SERVICES)
    @pytest.mark.parametrize("principal", ["premium", "anonymus"])
    def test_unknown_principal_raises_value_error(self, bed, service, principal):
        # clients that carry no identity would otherwise play it as default
        seq = bed.net._seq
        with pytest.raises(ValueError, match=f"unknown principal {principal!r}"):
            bed.run_client(service, "trk3", principal=principal)
        assert bed.net._seq == seq

    def test_benchmark_credentials_lookup(self, bed):
        user, password = bed.benchmark_credentials("default")
        assert bed.benchmark.users[user] == (password, "premium")
        user, password = bed.benchmark_credentials("free")
        assert bed.benchmark.users[user] == (password, "free")
        assert bed.benchmark_credentials("anonymous") == ("nobody", "wrong-password")


class TestServiceSpecs:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_auth_path_finds_a_replayable_exchange(self, bed, spec):
        # A pattern that matches nothing scores cookie_auth_timeout False,
        # the golden value for three services, so only this test notices.
        tap = bed.net.attach_tap()
        try:
            bed.run_client(spec.name, "trk1")
        finally:
            bed.net.detach_tap(tap)
        hits = [r for r in tap.records() if spec.auth_path.fullmatch(r.request.path)]
        assert hits, f"no exchange matches {spec.auth_path.pattern!r}"
        req = hits[-1].request
        assert bed.net.dispatch(req.headers["host"], copy_request(req)).status == 200

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_client_is_looked_up_on_the_module(self, bed, spec, monkeypatch):
        # perfbench times each client by rebinding drmtestbed.clients.<fn>;
        # a row holding the function object itself would slip past it
        name = CLIENT_FUNCTIONS[spec.name]
        original = getattr(clients, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(clients, name, counting)
        bed.run_client(spec.name, "trk1")
        assert calls == [name]


def test_adapters_pass_the_services_own_key_material(bed, monkeypatch):
    seen = {}

    def gaana(net, song_url, page_key, page_iv, quality=None):
        seen["gaana"] = (page_key, page_iv)
        return b""

    def wynk_v2(net, env, song_url, sk):
        seen["wynk-v2"] = sk
        return b""

    monkeypatch.setattr(clients, "rip_gaana", gaana)
    monkeypatch.setattr(clients, "rip_wynk_v2", wynk_v2)
    bed.run_client("gaana", "trk1")
    bed.run_client("wynk-v2", "trk1")
    page_key, page_iv = seen["gaana"]
    assert page_key is bed.gaana.page_key and page_iv is bed.gaana.page_iv
    assert seen["wynk-v2"] is bed.wynk.sk


@pytest.mark.parametrize("service", ["wynk-v1", "gaana"])
def test_config_chunk_bytes_reaches_every_hls_tree(service):
    # wynk and gaana both serve HLS; each CDN chunks by the config it was
    # built from, not by a size of its own
    bed = Testbed(TestbedConfig(chunk_bytes=4096))
    top = bed.catalog.assets["trk1"].variant(320)
    tap = bed.net.attach_tap()
    try:
        result, client_error = bed.rip(service, "trk1")
    finally:
        bed.net.detach_tap(tap)
    assert client_error == "" and result.matched_catalog
    segments = [r for r in tap.records() if r.request.path.endswith(".ts")]
    assert len(segments) == math.ceil(len(top) / 4096) == 23


def test_build_holds_about_one_catalog_of_memory(tmp_path):
    # Services serve media from the catalog's own bytes: HLS chunks are
    # views and the benchmark encrypts on demand, so beyond the loaded
    # catalog a bed keeps only manifests, keys and bookkeeping. A chunk
    # copy per HLS CDN plus a stored ciphertext per track would hold 3.5x.
    rng = random.Random(7)
    sizes = {320: 200_000, 128: 80_000, 64: 40_000, 32: 20_000}
    assets = {}
    for i in range(4):
        variants = {rate: AUDIO_MAGIC + rng.randbytes(n) for rate, n in sizes.items()}
        assets[f"trk{i}"] = MediaAsset(f"trk{i}", f"Track {i}", variants)
    save_catalog(ServiceCatalog(assets=assets), tmp_path)
    catalog_bytes = sum(path.stat().st_size for path in tmp_path.glob("*.aud"))

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bed = Testbed(TestbedConfig(catalog_dir=str(tmp_path)))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bed.catalog.track_ids() == ["trk0", "trk1", "trk2", "trk3"]
    assert held <= 1.25 * catalog_bytes, held / catalog_bytes


@pytest.mark.parametrize("clock", [-1, -1700000000])
def test_build_refuses_a_clock_before_the_epoch(clock):
    with pytest.raises(ConfigError, match=f"^clock must be 0 or later, got {clock}$"):
        Testbed(TestbedConfig(clock=clock))


def test_ttl_fields_are_the_four_lifetimes():
    assert TTL_FIELDS == ("grant_ttl", "wynk_session_ttl", "hungama_token_ttl", "bearer_ttl")


@pytest.mark.parametrize("field", TTL_FIELDS)
@pytest.mark.parametrize("ttl", [0, -5])
def test_build_refuses_a_lifetime_under_one_second(field, ttl):
    # such a bed refuses its own reference clients, and the audit would
    # read that as user identification and premium restrictions
    with pytest.raises(ConfigError, match=f"^{field} must be 1 or more, got {ttl}$"):
        Testbed(TestbedConfig(**{field: ttl}))


def test_build_accepts_a_one_second_lifetime():
    Testbed(TestbedConfig(**{field: 1 for field in TTL_FIELDS}))


def test_a_built_beds_config_cannot_drift_from_its_services(bed):
    # the services copied their settings at build, and the audit reads
    # the secrets from the config, so the config must not change after
    for name, value in [("wynk_sk", "x"), ("clock", 5), ("wynk_cdn_secret_hex", "00"),
                        ("bearer_ttl", 60)]:
        with pytest.raises(FrozenInstanceError):
            setattr(bed.config, name, value)
    assert audit(bed, "wynk-v2").hardcoded_keys is True


def test_build_names_the_asset_missing_a_served_rate(tmp_path):
    # load_catalog accepts any ladder subset, but wynk and gaana serve
    # 320, 128 and 64 from every track
    variants = {320: AUDIO_MAGIC + b"hi" * 64, 128: AUDIO_MAGIC + b"mid" * 32}
    asset = MediaAsset("short1", "Short Ladder", variants)
    save_catalog(ServiceCatalog(assets={"short1": asset}), tmp_path)
    with pytest.raises(ValueError, match="short1: no 64 kbps variant"):
        Testbed(TestbedConfig(catalog_dir=str(tmp_path)))


@pytest.mark.parametrize("host,path", [
    ("api.benchtune.sim", "/account/login"),
    ("sapi.wynk.in", "/music/v3/account/login"),
    ("ping.wynk.in", "/health/check"),
])
def test_deeply_nested_json_body_is_400(bed, host, path):
    # json.loads raises RecursionError, not ValueError, past the nesting
    # it can follow; the body is as unparseable as any other
    state = bed.env.rng.getstate()
    resp = bed.net.dispatch(host, HttpRequest("POST", path, body=b"[" * 100_000))
    assert resp.status == 400
    assert bed.env.rng.getstate() == state
