"""Catalog fixtures and the on-disk round trip."""

from __future__ import annotations

import dataclasses
import operator
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmtestbed.catalog import (
    ServiceCatalog,
    demo_catalog,
    load_catalog,
    save_catalog,
    slugify,
)
from drmtestbed.config import TestbedConfig
from drmtestbed.hls import AUDIO_MAGIC, BITRATE_LADDER, MediaAsset
from drmtestbed.testbed import Testbed


def test_demo_catalog_shape():
    cat = demo_catalog(random.Random(7))
    assert cat.track_ids() == ["trk1", "trk2", "trk3"]
    assert [t for t in cat.track_ids() if cat.assets[t].premium] == ["trk3"]
    for asset in cat.assets.values():
        assert set(asset.variants) == {320, 128, 64, 32, 16}
        for blob in asset.variants.values():
            assert blob.startswith(AUDIO_MAGIC)
        # the ladder is ordered by size once jitter is applied
        sizes = [len(asset.variants[r]) for r in (320, 128, 64, 32, 16)]
        assert sizes == sorted(sizes, reverse=True)


def test_demo_catalog_deterministic_per_seed():
    a = demo_catalog(random.Random(7))
    b = demo_catalog(random.Random(7))
    c = demo_catalog(random.Random(8))
    assert a.assets["trk1"].variants[320] == b.assets["trk1"].variants[320]
    assert a.assets["trk1"].variants[320] != c.assets["trk1"].variants[320]


_FROZEN = (TypeError, dataclasses.FrozenInstanceError)


@pytest.mark.parametrize(
    "edit",
    [
        lambda tb, asset: operator.setitem(asset.variants, 320, AUDIO_MAGIC + b"swapped"),
        lambda tb, asset: operator.setitem(asset.variants, 999, b""),
        lambda tb, asset: operator.delitem(asset.variants, 320),
        lambda tb, asset: setattr(asset, "premium", True),
        lambda tb, asset: setattr(asset, "title", "Renamed"),
        lambda tb, asset: operator.setitem(tb.catalog.assets, "x", asset),
        lambda tb, asset: operator.delitem(tb.catalog.assets, "trk1"),
        lambda tb, asset: setattr(tb.catalog, "assets", {}),
    ],
    ids=["replace-variant", "add-empty-variant", "drop-variant", "premium", "title",
         "add-asset", "drop-asset", "swap-assets"],
)
def test_a_built_bed_catalog_is_read_only(edit):
    tb = Testbed(TestbedConfig())
    asset = tb.catalog.assets["trk1"]
    before = (dict(asset.variants), asset.premium, asset.title, dict(tb.catalog.assets))
    with pytest.raises(_FROZEN):
        edit(tb, asset)
    assert (dict(asset.variants), asset.premium, asset.title, dict(tb.catalog.assets)) == before


def test_the_dicts_a_caller_passed_stay_the_callers():
    variants = {320: AUDIO_MAGIC + b"hi", 64: AUDIO_MAGIC + b"lo"}
    asset = MediaAsset("t", "Title", variants)
    assets = {"t": asset}
    catalog = ServiceCatalog(assets=assets)
    variants[320] = AUDIO_MAGIC + b"swapped"
    variants[999] = b""
    del variants[64]
    assets["x"] = asset
    del assets["t"]
    assert asset.variants == {320: AUDIO_MAGIC + b"hi", 64: AUDIO_MAGIC + b"lo"}
    assert max(asset.variants) == 320 and asset.variant(64) == AUDIO_MAGIC + b"lo"
    assert catalog.track_ids() == ["t"] and catalog.assets["t"] is asset


@pytest.mark.parametrize("title,slug", [
    ("Midnight Local", "midnight-local"),
    ("Gilded Cage", "gilded-cage"),
    ("  What?! A Song...  ", "what-a-song"),
    ("!!!", "track"),
    ("Already-Sluggy", "already-sluggy"),
])
def test_slugify(title, slug):
    assert slugify(title) == slug


def test_save_load_round_trip(tmp_path):
    cat = demo_catalog(random.Random(3))
    save_catalog(cat, tmp_path)
    loaded = load_catalog(tmp_path)
    assert loaded.track_ids() == cat.track_ids()
    for tid in cat.track_ids():
        orig, back = cat.assets[tid], loaded.assets[tid]
        assert back.title == orig.title
        assert back.premium == orig.premium
        assert back.variants == orig.variants


def test_load_without_meta_defaults(tmp_path):
    (tmp_path / "solo.128.aud").write_bytes(AUDIO_MAGIC + b"payload")
    cat = load_catalog(tmp_path)
    asset = cat.assets["solo"]
    assert asset.title == "solo"
    assert not asset.premium
    assert asset.variants == {128: AUDIO_MAGIC + b"payload"}


def test_load_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_catalog(tmp_path / "missing")
    with pytest.raises(ValueError):
        load_catalog(tmp_path)  # exists (pytest made it) but holds no .aud
    (tmp_path / ".128.aud").write_bytes(b"x")
    with pytest.raises(ValueError):
        load_catalog(tmp_path)


def test_load_rejects_non_ascii_rate_digits(tmp_path):
    (tmp_path / "trk1.\u00b2.aud").write_bytes(AUDIO_MAGIC)
    with pytest.raises(ValueError, match="bad catalog filename"):
        load_catalog(tmp_path)


def test_asset_ids_with_dots_round_trip(tmp_path):
    asset = MediaAsset("my.track.v2", "Dotty", {64: AUDIO_MAGIC + b"z"})
    save_catalog(ServiceCatalog(assets={"my.track.v2": asset}), tmp_path)
    loaded = load_catalog(tmp_path)
    assert loaded.track_ids() == ["my.track.v2"]
    assert loaded.assets["my.track.v2"].variants == {64: AUDIO_MAGIC + b"z"}


def _one_line(title: str) -> bool:
    return "".join(title.splitlines()) == title


@st.composite
def _catalogs(draw):
    ids = draw(st.lists(
        st.from_regex(r"[A-Za-z0-9._~-]{1,12}", fullmatch=True),
        min_size=1, max_size=3, unique=True,
    ))
    assets = {}
    for asset_id in ids:
        rates = draw(st.sets(st.sampled_from(BITRATE_LADDER), min_size=1))
        # the format requires the magic; its refusal has its own tests
        variants = {rate: AUDIO_MAGIC + draw(st.binary(max_size=8)) for rate in rates}
        assets[asset_id] = MediaAsset(asset_id, draw(st.text()), variants, draw(st.booleans()))
    return ServiceCatalog(assets=assets)


def _fields(catalog: ServiceCatalog) -> dict:
    return {
        a.asset_id: (a.title, a.premium, a.variants) for a in catalog.assets.values()
    }


def _titled(title: str) -> ServiceCatalog:
    return ServiceCatalog(assets={"t1": MediaAsset("t1", title, {64: AUDIO_MAGIC})})


@settings(max_examples=60)
@given(_catalogs())
@example(_titled("a\nb"))
@example(_titled("x\u2028y"))
@example(_titled("key=value"))
@example(_titled(""))
def test_save_then_load_gives_the_catalog_back_or_save_refuses(catalog):
    with tempfile.TemporaryDirectory() as root:
        try:
            save_catalog(catalog, root)
        except ValueError:
            # only a title the line-by-line meta reader would split
            assert not all(_one_line(a.title) for a in catalog.assets.values())
            return
        assert _fields(load_catalog(root)) == _fields(catalog)


@pytest.mark.parametrize("title", ["a\nb", "x\u2028y", "trailing\r", "\x85"])
def test_save_refuses_a_title_of_more_than_one_line(tmp_path, title):
    with pytest.raises(ValueError, match="is not one line"):
        save_catalog(_titled(title), tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing half written


@pytest.mark.parametrize("title", ["\ud800", "ok\udfff", "\udc80x"])
def test_save_refuses_a_title_with_no_utf8_form(tmp_path, title):
    good = MediaAsset("t0", "fine", {64: AUDIO_MAGIC})
    bad = MediaAsset("t1", title, {64: AUDIO_MAGIC})
    with pytest.raises(ValueError, match="has no UTF-8 form"):
        save_catalog(ServiceCatalog(assets={"t0": good, "t1": bad}), tmp_path)
    assert list(tmp_path.iterdir()) == []  # not even the valid asset's files


@pytest.mark.parametrize("blob", [b"x", b"AUD", b"aud0tail", b"\x00AUD0"])
def test_save_refuses_a_variant_without_the_magic(tmp_path, blob):
    good = MediaAsset("t0", "fine", {64: AUDIO_MAGIC})
    bad = MediaAsset("t1", "fine", {64: AUDIO_MAGIC, 32: blob})
    with pytest.raises(ValueError, match="^t1: variant 32 lacks the b'AUD0' magic$"):
        save_catalog(ServiceCatalog(assets={"t0": good, "t1": bad}), tmp_path)
    assert list(tmp_path.iterdir()) == []  # not even the valid asset's files


# ------------------------------------------------ what load_catalog lists


def _write(root, *names):
    for name in names:
        (root / name).write_bytes(AUDIO_MAGIC + name.encode())


@pytest.mark.parametrize("blob", [b"", b"AUD", b"xAUD0", b"\x00\x00\x00\x00tail"])
def test_load_names_the_one_file_without_the_magic(tmp_path, blob):
    # the ripper finds whole-file media by the magic, so a catalog of
    # files without it would read as encrypted when served in the clear
    _write(tmp_path, "a.64.aud", "b.64.aud")
    (tmp_path / "b.32.aud").write_bytes(blob)
    with pytest.raises(ValueError, match=r"^catalog file b\.32\.aud lacks"):
        load_catalog(tmp_path)


def test_load_takes_assets_and_rates_in_filename_order(tmp_path):
    # written out of order; "a-x" < "a.320" < "a.b" by filename, though
    # "a" < "a-x" < "a.b" by asset id
    _write(tmp_path, "a.b.64.aud", "a.64.aud", "a-x.64.aud", "a.320.aud", "a.16.aud")
    cat = load_catalog(tmp_path)
    assert cat.track_ids() == ["a-x", "a", "a.b"]
    assert list(cat.assets["a"].variants) == [16, 320, 64]
    assert cat.assets["a"].variants[320] == AUDIO_MAGIC + b"a.320.aud"


def test_load_ignores_files_that_do_not_end_in_aud(tmp_path):
    _write(tmp_path, "alpha.64.aud", "notes.txt", "alpha.64.aud.bak", "alpha.32.AUD")
    cat = load_catalog(tmp_path)
    assert cat.track_ids() == ["alpha"]
    assert list(cat.assets["alpha"].variants) == [64]


def test_load_lists_dot_leading_names(tmp_path):
    _write(tmp_path, ".x.320.aud")
    assert load_catalog(tmp_path).track_ids() == [".x"]


def test_load_refuses_a_directory_named_like_a_variant(tmp_path):
    _write(tmp_path, "alpha.64.aud")
    (tmp_path / "dir.128.aud").mkdir()
    with pytest.raises(IsADirectoryError):
        load_catalog(tmp_path)


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_load_names_a_missing_catalog_directory(tmp_path, kind):
    root = tmp_path / "nonexistent"
    if kind == "file":
        root.write_bytes(b"")
    with pytest.raises(FileNotFoundError) as err:
        load_catalog(str(root))
    # the message the CLI prints (tests/test_cli.py pins it there too)
    assert str(err.value) == f"catalog directory {root} not found"
