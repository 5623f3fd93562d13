"""Wires the whole bench together: one env, one network, five
protocols and the control service, all seeded from a single config.

Everything a harness needs goes through this object so tests, the CLI
and the auditor drive the exact same wiring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from . import benchmark as bench
from . import cdn, clients
from .catalog import demo_catalog, load_catalog
from .config import TestbedConfig
from .ripper import RipResult, tap_rip
from .services import gaana as gaana_mod
from .services import hungama as hungama_mod
from .services import saavn as saavn_mod
from .services import wynk as wynk_mod
from .transport import DeterministicEnv, Network, TapRecord


@dataclass(frozen=True)
class ServiceSpec:
    """Everything the harness and the auditor know about one service.
    The rows live here rather than in each service module because
    clients.py imports those modules."""

    name: str  # rip name, as `testbed rip --service` takes it
    audit_name: str  # its column in the practices table
    bundle_url: str  # the static client script the auditor reads
    auth_path: re.Pattern  # path of the exchange that buys stream authorization
    secrets: tuple[str, ...]  # the config fields whose values the service holds
    # (bed, track, quality, principal) -> the audio as a tuple of chunks;
    # a lambda, so clients.* is looked up on every call rather than bound once
    client: Callable[[Testbed, str, str | None, str], clients.Chunks]


def _path(pattern: str) -> re.Pattern:
    return re.compile(pattern, re.DOTALL)


_WYNK_BUNDLE = f"https://{wynk_mod.HOST_ASSETS}{wynk_mod.ASSET_PATH}"
_WYNK_SECRETS = ("wynk_sk", "wynk_cdn_secret_hex")

SPECS = (
    ServiceSpec(
        "wynk-v1", "wynk-v1", _WYNK_BUNDLE,
        _path(re.escape(wynk_mod.V1_STREAM_PREFIX) + ".*"), _WYNK_SECRETS,
        lambda tb, track, quality, principal: clients.rip_wynk_v1(
            tb.net, tb.env, tb.wynk.song_url(track)
        ),
    ),
    ServiceSpec(
        "wynk-v2", "wynk-v2", _WYNK_BUNDLE,
        _path(re.escape(wynk_mod.V2_STREAM_PATH)), _WYNK_SECRETS,
        lambda tb, track, quality, principal: clients.rip_wynk_v2(
            tb.net, tb.env, tb.wynk.song_url(track), sk=tb.wynk.sk
        ),
    ),
    ServiceSpec(
        "jiosaavn", "jiosaavn",
        f"https://{saavn_mod.HOST_WWW}{saavn_mod.ASSET_PATH}",
        _path(re.escape(saavn_mod.API_PATH)),
        ("saavn_cdn_secret_hex", "saavn_seal_key_hex", "saavn_seal_iv_hex"),
        lambda tb, track, quality, principal: clients.rip_saavn(
            tb.net, tb.saavn.song_url(track), bit_rate=quality
        ),
    ),
    ServiceSpec(
        "gaana", "gaana",
        f"https://{gaana_mod.HOST_WWW}{gaana_mod.ASSET_PATH}",
        _path(".*/" + re.escape(cdn.MASTER_FILE)),
        ("gaana_cdn_secret_hex", "gaana_key_hex", "gaana_iv_hex"),
        lambda tb, track, quality, principal: clients.rip_gaana(
            tb.net, tb.gaana.song_url(track),
            tb.gaana.page_key, tb.gaana.page_iv, quality=quality,
        ),
    ),
    ServiceSpec(
        "hungama", "hungama",
        f"https://{hungama_mod.HOST_WWW}{hungama_mod.ASSET_PATH}",
        _path(re.escape(hungama_mod.MDNURL_PREFIX) + ".*"),
        ("hungama_cdn_secret_hex", "hungama_token_secret_hex"),
        lambda tb, track, quality, principal: clients.rip_hungama(
            tb.net, tb.hungama.song_url(track), quality=quality
        ),
    ),
    ServiceSpec(
        "benchmark", "spotify-benchmark",
        f"https://{bench.HOST_API}{bench.ASSET_PATH}",
        _path(re.escape(bench.RESOLVE_PREFIX) + ".*"),
        ("benchmark_cdn_secret_hex", "device_key_hex"),
        lambda tb, track, quality, principal: clients.play_benchmark(
            tb.net, track, tb.benchmark_credentials(principal),
            tb.benchmark.make_cdm(),
        ),
    ),
)

RIP_SERVICES = tuple(spec.name for spec in SPECS)


def _spec(service: str) -> ServiceSpec:
    for spec in SPECS:
        if spec.name == service:
            return spec
    raise ValueError(f"unknown service {service!r}")


# who the client pretends to be, per probe
ANONYMOUS = "anonymous"
DEFAULT_PRINCIPAL = "default"
FREE_TIER = "free"

_BAD_CREDENTIALS = ("nobody", "wrong-password")


class Testbed:
    def __init__(self, config: TestbedConfig | None = None):
        cfg = self.config = config or TestbedConfig()
        self.env = DeterministicEnv(cfg.seed, cfg.clock)
        if cfg.catalog_dir:
            self.catalog = load_catalog(cfg.catalog_dir)
        else:
            self.catalog = demo_catalog(self.env.rng)
        self.net = Network()

        self.wynk = wynk_mod.WynkService(self.catalog, self.env, cfg)
        self.saavn = saavn_mod.SaavnService(self.catalog, self.env, cfg)
        self.gaana = gaana_mod.GaanaService(self.catalog, self.env, cfg)
        self.hungama = hungama_mod.HungamaService(self.catalog, self.env, cfg)
        # draws a content key per track from the rng as it is built
        self.benchmark = bench.BenchmarkService(self.catalog, self.env, cfg)
        for service in (self.wynk, self.saavn, self.gaana, self.hungama, self.benchmark):
            service.mount(self.net)

    # ---- catalog shortcuts ---------------------------------------------------

    def open_tracks(self) -> list[str]:
        return [a.asset_id for a in self.catalog.assets.values() if not a.premium]

    def premium_tracks(self) -> list[str]:
        return [a.asset_id for a in self.catalog.assets.values() if a.premium]

    # ---- service knowledge -----------------------------------------------------

    def benchmark_credentials(self, principal: str) -> tuple[str, str]:
        if principal == ANONYMOUS:
            return _BAD_CREDENTIALS
        want = "premium" if principal == DEFAULT_PRINCIPAL else "free"
        for user, (password, tier) in self.benchmark.users.items():
            if tier == want:
                return (user, password)
        raise ValueError(f"no {want} user configured")

    # ---- driving clients ----------------------------------------------------------

    def run_client(
        self,
        service: str,
        track: str,
        quality: str | None = None,
        principal: str = DEFAULT_PRINCIPAL,
    ) -> clients.Chunks:
        """The audio the service's client got, as the tuple of chunks it
        fetched or decrypted, in stream order."""
        spec = _spec(service)
        # most clients ignore the principal, so a typo would play as default
        if principal not in (ANONYMOUS, DEFAULT_PRINCIPAL, FREE_TIER):
            raise ValueError(f"unknown principal {principal!r}")
        if track not in self.catalog.assets:
            raise clients.ProtocolFailure(f"unknown track {track!r}")
        return spec.client(self, track, quality, principal)

    def tapped_run(
        self, service: str, track: str, quality: str | None = None
    ) -> tuple[list[TapRecord], str]:
        """Run the reference client under a fresh tap. Returns (records,
        client_error), client_error empty when the client itself got
        through; the records hold whatever did cross the wire."""
        tap = self.net.attach_tap()
        client_error = ""
        try:
            self.run_client(service, track, quality)
        except clients.ProtocolFailure as exc:
            client_error = str(exc)
        finally:
            self.net.detach_tap(tap)
        return tap.records(), client_error

    def rip(
        self, service: str, track: str, quality: str | None = None
    ) -> tuple[RipResult, str]:
        """Run the reference client under a fresh tap and rip the
        transcript. Returns (result, client_error), client_error empty
        when the client itself got through."""
        records, client_error = self.tapped_run(service, track, quality)
        return tap_rip(records, self.catalog, service, track), client_error

