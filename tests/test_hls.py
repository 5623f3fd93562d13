"""Playlist grammar, segmentation, and the render/parse inverse pair."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed.hls import (
    AUDIO_MAGIC,
    BITRATE_LADDER,
    DEFAULT_CHUNK_BYTES,
    SEGMENT_SECONDS,
    STREAM_INF,
    ManifestError,
    MediaAsset,
    parse_index,
    parse_master,
    render_index,
    render_master,
    segment,
)

# ------------------------------------------------------------ media model


def test_media_asset_validation():
    MediaAsset("t", "Title", {320: b"x"})
    with pytest.raises(ValueError):
        MediaAsset("", "Title", {320: b"x"})
    with pytest.raises(ValueError):
        MediaAsset("t", "Title", {})
    with pytest.raises(ValueError):
        MediaAsset("t", "Title", {192: b"x"})  # not on the ladder
    with pytest.raises(ValueError):
        MediaAsset("t", "Title", {320: b""})


def test_media_asset_accessors():
    asset = MediaAsset("t", "Title", {64: b"low", 320: b"hi", 128: b"mid"})
    assert asset.top_bitrate() == 320
    assert asset.variant(64) == b"low"
    assert not asset.premium


def test_ladder_and_defaults_are_pinned():
    assert BITRATE_LADDER == (320, 128, 64, 32, 16)
    assert DEFAULT_CHUNK_BYTES == 32768
    assert SEGMENT_SECONDS == 10.0
    assert AUDIO_MAGIC == b"AUD0"


# ------------------------------------------------------------- manifests


def test_master_best_picks_highest_bandwidth():
    # bandwidths are unique, so max() of a master's pairs is the
    # highest bandwidth's, which is the variant the players fetch
    assert max(parse_master(render_master([(64, "a"), (320, "b"), (128, "c")]))) == (320, "b")


def test_master_rejects_duplicate_bandwidth():
    # render refuses what parse refuses, so a master's bandwidths are unique
    with pytest.raises(ValueError, match="duplicate bandwidth 128"):
        render_master([(128, "a.m3u8"), (128, "b.m3u8")])


def test_parse_master_is_linear_in_its_variants():
    # a duplicate check over every earlier entry took seconds at this size
    entries = [(bw, f"v{bw}/index.m3u8") for bw in range(20_000)]
    text = render_master(entries)
    t0 = time.perf_counter()
    assert parse_master(text) == tuple(entries)
    assert time.perf_counter() - t0 < 2.0
    # the same bandwidth appended at the end is refused at its own tag line
    with pytest.raises(ManifestError, match="duplicate bandwidth 7") as err:
        parse_master(text + f"{STREAM_INF}7\ndup.m3u8\n")
    assert err.value.line == 2 * len(entries) + 2


def test_render_master_exact_bytes():
    m = [(320000, "hi/index.m3u8"), (64000, "lo/index.m3u8")]
    assert render_master(m) == (
        "#EXTM3U\n"
        "#EXT-X-STREAM-INF:BANDWIDTH=320000\n"
        "hi/index.m3u8\n"
        "#EXT-X-STREAM-INF:BANDWIDTH=64000\n"
        "lo/index.m3u8\n"
    )


def test_render_index_exact_bytes():
    m = [("seg_00000.ts", 10.0), ("seg_00001.ts", 3.5), ("seg_00002.ts", 1e-05)]
    assert render_index(m) == (
        "#EXTM3U\n"
        "#EXTINF:10.0,\n"
        "seg_00000.ts\n"
        "#EXTINF:3.5,\n"
        "seg_00001.ts\n"
        "#EXTINF:0.00001,\n"  # repr's 1e-05 is no RFC 8216 duration
        "seg_00002.ts\n"
        "#EXT-X-ENDLIST\n"
    )


@pytest.mark.parametrize("playlist", ["master", "index"])
@pytest.mark.parametrize("uri", [
    "", "#seg.ts", "#EXT-X-ENDLIST", "a\nb.ts", "seg.ts\n", "a\rb.ts", "seg.ts\r",
])
def test_renderers_refuse_a_uri_the_parsers_refuse(playlist, uri):
    # render and parse stay inverses: no bed may write what no player reads
    with pytest.raises(ValueError, match="is not a non-empty line"):
        if playlist == "master":
            render_master([(64, uri)])
        else:
            render_index([(uri, 10.0)])


@pytest.mark.parametrize("bandwidth", [-1, -320000, True, 1.0, "64"])
def test_render_master_refuses_a_bandwidth_parse_master_refuses(bandwidth):
    with pytest.raises(ValueError, match="is not a non-negative int"):
        render_master([(bandwidth, "a.m3u8")])


@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0, -0.0])
def test_render_index_refuses_durations_parse_refuses(seconds):
    # render and parse stay inverses: no bed may write what no player reads
    with pytest.raises(ValueError, match="duration"):
        render_index([("seg_00000.ts", seconds)])


def test_parse_master_round_trip():
    m = ((320, "a.m3u8"), (16, "b.m3u8"))
    assert parse_master(render_master(m)) == m


def test_parse_index_round_trip_with_out_of_band_bitrate():
    # the wire format has no bitrate tag: the rate is known only from the
    # CDN path an index was fetched from
    m = (("s0.ts", 10.0), ("s1.ts", 0.25))
    assert parse_index(render_index(m)) == m


def test_parse_empty_master_is_legal():
    assert parse_master("#EXTM3U\n") == ()


def test_parse_empty_index_needs_endlist():
    assert parse_index("#EXTM3U\n#EXT-X-ENDLIST\n") == ()


def test_parse_index_hands_out_its_immutable_memo():
    # the parse is memoized and hands out the memo itself, which is a
    # tuple of tuples, so no caller can change what the next one reads
    text = render_index([("s0.ts", 10.0), ("s1.ts", 0.25)])
    first = parse_index(text)
    assert parse_index(text) is first
    assert first == (("s0.ts", 10.0), ("s1.ts", 0.25))
    assert type(first) is tuple and all(type(pair) is tuple for pair in first)
    assert type(parse_master(render_master([(1, "a")]))) is tuple


# ------------------------------------------------- parse errors with lines


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("#EXTM3U8\n", 1),
    ("#EXTM3U\nnot-a-tag\n", 2),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=abc\nuri\n", 2),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=\nuri\n", 2),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=\u00b2\nuri\n", 2),  # isdigit() says yes
    pytest.param(  # past int()'s digit limit
        "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=" + "9" * 5000 + "\nuri\n", 2,
        id="bandwidth-of-5000-digits",
    ),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=12\n", 3),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=12\n#comment\n", 3),
    ("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1\na\n#EXT-X-STREAM-INF:BANDWIDTH=1\nb\n", 4),
])
def test_parse_master_error_lines(text, line):
    with pytest.raises(ManifestError) as info:
        parse_master(text)
    assert info.value.line == line
    assert f"line {line}:" in str(info.value)


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("#EXTM3U\n#EXTINF:10.0,\nseg.ts\n", 4),            # missing endlist
    ("#EXTM3U\n#EXTINF:10.0\nseg.ts\n#EXT-X-ENDLIST\n", 2),  # no trailing comma
    ("#EXTM3U\n#EXTINF:ten,\nseg.ts\n#EXT-X-ENDLIST\n", 2),
    ("#EXTM3U\n#EXTINF:10.0,\n\n#EXT-X-ENDLIST\n", 3),  # blank uri
    ("#EXTM3U\n#EXT-X-ENDLIST\nextra\n", 3),            # content after endlist
    ("#EXTM3U\nseg.ts\n", 2),                            # bare uri
    # RFC 8216 4.3.2.1 durations are [0-9]+(\.[0-9]+)?; float() takes these
    *(
        pytest.param(f"#EXTM3U\n#EXTINF:{raw},\nseg.ts\n#EXT-X-ENDLIST\n", 2, id=f"duration-{name}")
        for name, raw in [
            ("nan", "nan"), ("inf", "inf"), ("1e400", "1e400"), ("negative", "-5"),
            ("leading-space", " 10.0"), ("underscore", "1_0"),
            ("arabic-indic-digits", "\u0661\u0660"), ("bare-point", "1."),
            ("400-digits", "9" * 400),  # matches the grammar, reads as inf
        ]
    ),
])
def test_parse_index_error_lines(text, line):
    # the parse is memoized but its errors are not: a repeated bad text
    # fails at the same line again
    for _ in range(2):
        with pytest.raises(ManifestError) as info:
            parse_index(text)
        assert info.value.line == line


def test_cr_rejected_with_line_number():
    with pytest.raises(ManifestError) as info:
        parse_master("#EXTM3U\r\n")
    assert info.value.line == 1
    with pytest.raises(ManifestError) as info:
        parse_index("#EXTM3U\n#EXTINF:1.0,\r\nx\n#EXT-X-ENDLIST\n")
    assert info.value.line == 2


# ------------------------------------------------------------ segmentation


def test_segment_exact_chunking():
    chunks, index = segment(b"abcdefghij", 4, uri_prefix="p/")
    assert chunks == [b"abcd", b"efgh", b"ij"]
    assert index == [
        ("p/seg_00000.ts", SEGMENT_SECONDS),
        ("p/seg_00001.ts", SEGMENT_SECONDS),
        ("p/seg_00002.ts", SEGMENT_SECONDS),
    ]


def test_segment_empty_media():
    chunks, index = segment(b"", 16)
    assert chunks == [] and index == []


def test_segment_rejects_nonpositive_chunk():
    with pytest.raises(ValueError):
        segment(b"x", 0)


# ------------------------------------------------------------ an asset's cut


def test_cut_is_made_once_and_joins_to_the_variant():
    media = AUDIO_MAGIC + random.Random(3).randbytes(996)
    asset = MediaAsset("t", "Title", {320: media, 64: media[:300]})
    cut = asset.cut(320, 128)
    assert asset.cut(320, 128) is cut
    assert type(cut) is tuple and all(chunk.readonly for chunk in cut)
    assert all(chunk.obj is media for chunk in cut)
    assert b"".join(cut) == media
    # the same slices as segment makes
    assert list(map(bytes, cut)) == segment(media, 128)[0]
    assert asset.cut(320, 100) is not cut
    assert asset.cut_made(320, 128) is cut
    assert asset.cut_made(320, 100) is asset.cut(320, 100)
    assert asset.cut_made(64, 128) is None  # looked up, never made


def test_cut_of_a_variant_shorter_than_the_chunk_is_one_chunk():
    asset = MediaAsset("t", "Title", {320: b"abcdef"})
    whole = asset.cut(320, 1000)
    assert list(map(bytes, whole)) == [b"abcdef"]
    assert asset.cut(320, 6) is whole and asset.cut(320, 4096) is whole
    # the ripper looks it up by its first chunk's length
    assert asset.cut_made(320, 6) is whole


def test_replaced_variant_gets_a_fresh_cut():
    asset = MediaAsset("t", "Title", {320: b"abcdefghij"})
    old = asset.cut(320, 4)
    asset.variants[320] = b"ABCDEFGHIJ"
    assert asset.cut_made(320, 4) is None
    new = asset.cut(320, 4)
    assert new is not old
    assert list(map(bytes, new)) == [b"ABCD", b"EFGH", b"IJ"]
    assert list(map(bytes, old)) == [b"abcd", b"efgh", b"ij"]


@pytest.mark.parametrize("chunk", [0, -1])
def test_cut_refuses_a_chunk_size_as_segment_does(chunk):
    asset = MediaAsset("t", "Title", {320: b"abc"})
    with pytest.raises(ValueError, match="chunk_bytes must be >= 1"):
        asset.cut(320, chunk)
    with pytest.raises(ValueError, match="chunk_bytes must be >= 1"):
        segment(b"abc", chunk)


def test_cut_of_a_missing_rate_is_refused():
    with pytest.raises(ValueError, match="no 64 kbps variant"):
        MediaAsset("t", "Title", {320: b"abc"}).cut(64, 2)


def test_asset_equality_and_repr_ignore_the_cut():
    cut, fresh = (MediaAsset("t", "Title", {320: b"abcdef"}) for _ in range(2))
    before = repr(cut)
    cut.cut(320, 2)
    assert cut == fresh
    assert repr(cut) == repr(fresh) == before
    assert "_cuts" not in repr(cut)


def test_joined_chunks_invert_segment():
    rng = random.Random(77)
    for _ in range(50):
        media = rng.randbytes(rng.randrange(0, 5000))
        chunk = rng.randrange(1, 700)
        chunks, index = segment(media, chunk)
        assert b"".join(chunks) == media
        assert len(chunks) == len(index)
        # every chunk but the last is exactly chunk bytes
        assert all(len(c) == chunk for c in chunks[:-1])


# ------------------------------------------------------------- properties

uri_chars = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters="#\n\r",
                           categories=("L", "N", "P", "S")),
    min_size=1, max_size=40,
)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10 ** 9), uri_chars),
                max_size=8, unique_by=lambda e: e[0]))
@settings(max_examples=80)
def test_master_render_parse_identity(entries):
    assert parse_master(render_master(entries)) == tuple(entries)


@given(st.lists(st.tuples(uri_chars, st.floats(min_value=0.0, max_value=10 ** 6,
                                               allow_nan=False, allow_infinity=False)),
                max_size=8))
@settings(max_examples=80)
def test_index_render_parse_identity(segments):
    assert parse_index(render_index(segments)) == tuple(segments)


@given(st.lists(st.tuples(st.integers(-5, 10 ** 9), st.text(max_size=12)), max_size=4))
@settings(max_examples=80, derandomize=True)
def test_render_master_writes_only_what_parses_back(entries):
    try:
        text = render_master(entries)
    except ValueError:
        return
    assert parse_master(text) == tuple(entries)


@given(st.lists(st.tuples(st.text(max_size=12), st.floats(min_value=-1.0, max_value=10 ** 6)),
                max_size=4))
@settings(max_examples=80, derandomize=True)
def test_render_index_writes_only_what_parses_back(segments):
    try:
        text = render_index(segments)
    except ValueError:
        return
    assert parse_index(text) == tuple(segments)
