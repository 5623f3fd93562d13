"""Ground-truth media catalog shared by every simulated service.

Variant files carry a 4-byte AUD0 magic so recovered streams are
recognisable in a tap without guessing; load_catalog refuses a file
without it, and save_catalog a variant without it. On disk a catalog is
one file per variant (<asset_id>.<bitrate>.aud) plus an optional
<asset_id>.meta with title/premium, so a directory round-trips
losslessly. The meta file is read line by line as UTF-8, so save_catalog
refuses a title of more than one line or with no UTF-8 form. Every
refusal of save_catalog comes before it writes any file.
"""

from __future__ import annotations

import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from types import MappingProxyType

from .hls import AUDIO_MAGIC, MediaAsset

# (asset_id, title, premium); every track has each rate of _DEMO_SIZES,
# whose nominal byte counts demo_catalog jitters
_DEMO_TRACKS = (
    ("trk1", "Midnight Local", False),
    ("trk2", "Paper Lanterns", False),
    ("trk3", "Gilded Cage", True),
)
_DEMO_SIZES = {320: 90000, 128: 40000, 64: 20000, 32: 10000, 16: 5000}


@dataclass(frozen=True)
class ServiceCatalog:
    """The assets by id, read-only once built (a read-only view of a copy
    of its dict), so every service's tables stay those of one catalog."""

    assets: Mapping[str, MediaAsset] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "assets", MappingProxyType(dict(self.assets)))

    def track_ids(self) -> list[str]:
        return list(self.assets)


def slugify(title: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    return slug or "track"


def demo_catalog(rng: Random) -> ServiceCatalog:
    """Three tracks, one premium, sizes jittered off the nominal ladder so
    chunk boundaries never line up by accident."""
    assets = {}
    for asset_id, title, premium in _DEMO_TRACKS:
        variants = {}
        for rate, nominal in _DEMO_SIZES.items():
            size = nominal + rng.randrange(-512, 2048)
            variants[rate] = AUDIO_MAGIC + rng.randbytes(size - len(AUDIO_MAGIC))
        assets[asset_id] = MediaAsset(
            asset_id=asset_id, title=title, variants=variants, premium=premium
        )
    return ServiceCatalog(assets=assets)


def save_catalog(catalog: ServiceCatalog, dirpath) -> None:
    # load_catalog reads a .meta file line by line
    for asset in catalog.assets.values():
        if "".join(asset.title.splitlines()) != asset.title:
            raise ValueError(f"{asset.asset_id}: title {asset.title!r} is not one line")
        try:
            asset.title.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{asset.asset_id}: title {asset.title!r} has no UTF-8 form") from exc
        for rate, blob in asset.variants.items():
            if not blob.startswith(AUDIO_MAGIC):
                raise ValueError(f"{asset.asset_id}: variant {rate} lacks the {AUDIO_MAGIC!r} magic")
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    for asset in catalog.assets.values():
        for rate, blob in sorted(asset.variants.items()):
            (root / f"{asset.asset_id}.{rate}.aud").write_bytes(blob)
        meta = f"title={asset.title}\npremium={'yes' if asset.premium else 'no'}\n"
        (root / f"{asset.asset_id}.meta").write_text(meta, encoding="utf-8")


def load_catalog(dirpath) -> ServiceCatalog:
    root = Path(dirpath)
    if not root.is_dir():
        raise FileNotFoundError(f"catalog directory {root} not found")
    try:
        with os.scandir(root) as listing:
            names = sorted(entry.name for entry in listing if entry.name.endswith(".aud"))
    except PermissionError:  # an unreadable directory reads as one with no .aud file
        names = []
    # every listed name is opened by name; a directory among them raises
    prefix = os.path.join(root, "")
    variants: dict[str, dict[int, bytes]] = {}
    for name in names:
        asset_id, _, rate_text = name[:-4].rpartition(".")
        if not (asset_id and rate_text.isascii() and rate_text.isdigit()):
            raise ValueError(f"bad catalog filename {name}")
        with open(prefix + name, "rb", buffering=0) as fh:
            blob = fh.read()
        if not blob.startswith(AUDIO_MAGIC):
            raise ValueError(f"catalog file {name} lacks the {AUDIO_MAGIC!r} magic")
        variants.setdefault(asset_id, {})[int(rate_text)] = blob
    assets = {}
    for asset_id, rates in variants.items():
        title, premium = asset_id, False
        meta = root / f"{asset_id}.meta"
        if meta.exists():
            for line in meta.read_text(encoding="utf-8").splitlines():
                key, _, value = line.partition("=")
                if key == "title":
                    title = value
                elif key == "premium":
                    premium = value == "yes"
        assets[asset_id] = MediaAsset(
            asset_id=asset_id, title=title, variants=rates, premium=premium
        )
    if not assets:
        raise ValueError(f"no .aud files under {root}")
    return ServiceCatalog(assets=assets)
