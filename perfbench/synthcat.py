"""Seeded synthetic catalog for the `catalog` workload.

Every track carries the full five-rate ladder, the lower rates scaled
down from the top variant's size, all sizes jittered by up to 1% so
chunk boundaries differ from track to track, and every
PREMIUM_EVERY-th track is premium.
Tracks are titled by index, so no two titles slugify alike: this input
does not exercise a slug clash between titles.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from drmtestbed.catalog import ServiceCatalog, save_catalog
from drmtestbed.hls import AUDIO_MAGIC, BITRATE_LADDER, MediaAsset

PREMIUM_EVERY = 5


def synth_assets(seed: int, tracks: int, top_bytes: int):
    """Yield the catalog's MediaAssets one at a time, in index order."""
    rng = random.Random(seed)
    top_rate = max(BITRATE_LADDER)
    for index in range(tracks):
        variants = {}
        for rate in BITRATE_LADDER:
            nominal = top_bytes * rate // top_rate
            size = nominal + rng.randint(-(nominal // 100), nominal // 100)
            variants[rate] = AUDIO_MAGIC + rng.randbytes(size - len(AUDIO_MAGIC))
        yield MediaAsset(
            asset_id=f"syn{index:03d}",
            title=f"Track {index:03d}",
            variants=variants,
            premium=index % PREMIUM_EVERY == PREMIUM_EVERY - 1,
        )


@dataclass
class CatalogInfo:
    tracks: int = 0
    bytes: int = 0
    # asset id -> sha256 hex of every variant, for checking rips
    # independently of the ripper's own catalog match
    digests: dict[str, set[str]] = field(default_factory=dict)


def write_catalog(seed: int, dirpath, tracks: int, top_bytes: int) -> CatalogInfo:
    """save_catalog the synthetic catalog into dirpath, one track at a
    time so that at most one track is held in memory."""
    info = CatalogInfo()
    for asset in synth_assets(seed, tracks, top_bytes):
        save_catalog(ServiceCatalog(assets={asset.asset_id: asset}), dirpath)
        info.tracks += 1
        info.bytes += sum(len(blob) for blob in asset.variants.values())
        info.digests[asset.asset_id] = {
            hashlib.sha256(blob).hexdigest() for blob in asset.variants.values()
        }
    return info
