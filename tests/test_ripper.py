"""Passive tap ripping: candidate extraction and catalog matching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rip_reference import reference_rip

import drmtestbed.ripper as ripper_mod
from drmtestbed.catalog import ServiceCatalog, save_catalog
from drmtestbed.config import TestbedConfig
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset, render_index, segment, segment_index
from drmtestbed.ripper import _index_candidates, tap_rip
from drmtestbed.testbed import Testbed
from drmtestbed.transport import HttpRequest, HttpResponse, TapRecord

MEDIA = AUDIO_MAGIC + bytes(range(256)) * 10


def _catalog() -> ServiceCatalog:
    return ServiceCatalog(assets={"trk": MediaAsset("trk", "Tracked", {320: MEDIA})})


def _rec(
    seq: int,
    path: str,
    body: bytes | memoryview,
    status: int = 200,
    host: str = "cdn.example",
) -> TapRecord:
    # dispatch sets the host header on every request it taps
    return TapRecord(
        seq=seq,
        request=HttpRequest("GET", path, headers={"host": host}),
        response=HttpResponse(status, body=body),
    )


def _tree(media: bytes | memoryview, *, chunk: int = 500, start: int = 1, prefix: str = "a"):
    """Tap records for one full HLS fetch: index playlist then chunks."""
    chunks, idx = segment(media, chunk, uri_prefix=f"https://cdn.example/{prefix}/")
    recs = [_rec(start, f"/{prefix}/index.m3u8", render_index(idx).encode())]
    for off, (uri, _sec) in enumerate(idx):
        path = uri.removeprefix("https://cdn.example")
        recs.append(_rec(start + 1 + off, path, chunks[off]))
    return recs


class TestIndexCandidates:
    def test_complete_tree_matches_catalog(self):
        recs = _tree(MEDIA)
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.succeeded and result.matched_catalog
        assert result.recovered == MEDIA
        assert result.service == "svc" and result.track == "trk"

    def test_evidence_lists_manifest_and_chunk_seqs(self):
        recs = _tree(MEDIA, start=7)
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.evidence == [r.seq for r in recs]
        assert result.evidence == sorted(set(result.evidence))

    def test_chunk_order_in_tap_does_not_matter(self):
        recs = _tree(MEDIA)
        recs = [recs[0]] + recs[:0:-1]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.recovered == MEDIA

    def test_missing_chunk_drops_the_tree(self):
        recs = _tree(MEDIA)
        del recs[3]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        # chunks still carry the magic, so bodies match instead
        assert result.matched_catalog is False

    def test_unsplittable_segment_uri_is_a_missing_chunk(self):
        # urlsplit refuses the URI, so no fetch in the tap can have had it
        body = b"#EXTM3U\n#EXTINF:10.0,\nhttps://[x/seg.ts\n#EXT-X-ENDLIST\n"
        result = tap_rip([_rec(1, "/a/index.m3u8", body)], _catalog(), "svc", "trk")
        assert not result.succeeded and not result.matched_catalog

    def test_chunk_views_rip_like_bytes(self):
        # CDN nodes serve HLS chunks as memoryviews of the catalog variant
        whole = tap_rip(_tree(memoryview(MEDIA)), _catalog(), "svc", "trk")
        assert whole.matched_catalog and whole.recovered == MEDIA
        recs = _tree(memoryview(MEDIA))
        del recs[3]
        partial = tap_rip(recs, _catalog(), "svc", "trk")
        assert type(partial.recovered) is bytes
        assert partial.recovered == MEDIA[:500]

    def test_last_response_per_path_wins(self):
        recs = _tree(MEDIA)
        stale = _rec(99, recs[1].request.path, b"stale-bytes")
        result = tap_rip([stale] + recs, _catalog(), "svc", "trk")
        assert result.recovered == MEDIA

    def test_failed_chunk_fetch_does_not_count(self):
        recs = _tree(MEDIA)
        recs[2] = _rec(recs[2].seq, recs[2].request.path, b"", status=403)
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.matched_catalog is False

    def test_chunks_are_keyed_by_host_and_path(self):
        # a chunk fetched from another host at the same path is no segment
        # of a.example's playlist, only a loose body
        index = b"#EXTM3U\n#EXTINF:10.0,\nhttps://a.example/p/seg0.ts\n#EXT-X-ENDLIST\n"
        recs = [
            _rec(1, "/p/index.m3u8", index, host="a.example"),
            _rec(2, "/p/seg0.ts", MEDIA, host="b.example"),
        ]
        assert _index_candidates(recs) == []
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.matched_catalog and result.evidence == [2]
        recs.append(_rec(3, "/p/seg0.ts", MEDIA, host="a.example"))
        assert tap_rip(recs, _catalog(), "svc", "trk").evidence == [1, 3]

    def test_host_less_uri_is_on_its_playlists_host(self):
        # RFC 8216 section 4.1: a URI is resolved against its playlist's URI
        index = b"#EXTM3U\n#EXTINF:10.0,\n/p/seg0.ts\n#EXT-X-ENDLIST\n"
        recs = [
            _rec(1, "/p/index.m3u8", index, host="a.example"),
            _rec(2, "/p/seg0.ts", MEDIA, host="a.example"),
            _rec(3, "/p/seg0.ts", b"other-host", host="b.example"),
        ]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.matched_catalog and result.evidence == [1, 2]

    def test_match_recovers_the_catalog_variant_itself(self):
        # the chunks are compared in place and nothing is joined
        cat = _catalog()
        result = tap_rip(_tree(MEDIA), cat, "svc", "trk")
        assert result.matched_catalog
        assert result.recovered is cat.asset("trk").variant(320)

    @pytest.mark.parametrize(
        "body",
        [
            b"\xff\xfe not utf-8 \xff",
            b"just some text",
            b"#EXTM3U\nbroken",
            b"#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-ENDLIST\n",
        ],
        ids=["binary", "not-a-playlist", "malformed", "no-segments"],
    )
    def test_non_index_bodies_are_skipped(self, body):
        result = tap_rip([_rec(1, "/x", body)], _catalog(), "svc", "trk")
        assert result.succeeded is False

    def test_matching_tree_beats_loose_bodies(self):
        decoy = _rec(50, "/decoy", AUDIO_MAGIC + b"\x00" * 9000)
        recs = _tree(MEDIA) + [decoy]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.matched_catalog and result.recovered == MEDIA
        assert 50 not in result.evidence


class TestBodyCandidates:
    def test_whole_file_response_matches(self):
        recs = [_rec(4, "/file", MEDIA)]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.succeeded and result.matched_catalog
        assert result.recovered == MEDIA and result.evidence == [4]

    def test_match_recovers_the_catalog_variant_itself(self):
        cat = _catalog()
        for body in (MEDIA, bytes(bytearray(MEDIA)), memoryview(MEDIA)):
            result = tap_rip([_rec(4, "/file", body)], cat, "svc", "trk")
            assert result.matched_catalog
            assert result.recovered is cat.asset("trk").variant(320)

    def test_unmatched_body_is_recovered_as_bytes(self):
        body = memoryview(AUDIO_MAGIC + b"no-such-variant")
        result = tap_rip([_rec(4, "/file", body)], _catalog(), "svc", "trk")
        assert not result.matched_catalog
        assert type(result.recovered) is bytes and result.recovered == body

    def test_largest_body_is_preferred(self):
        small = _rec(1, "/s", AUDIO_MAGIC + b"a" * 10)
        big = _rec(2, "/b", AUDIO_MAGIC + b"b" * 20)
        result = tap_rip([small, big], _catalog(), "svc", "trk")
        assert result.matched_catalog is False
        assert result.recovered == big.response.body

    def test_seq_breaks_size_ties(self):
        first = _rec(3, "/x", AUDIO_MAGIC + b"z" * 10)
        second = _rec(8, "/y", AUDIO_MAGIC + b"q" * 10)
        result = tap_rip([second, first], _catalog(), "svc", "trk")
        assert result.recovered == first.response.body

    def test_body_without_magic_is_not_a_candidate(self):
        recs = [_rec(1, "/f", b"MP4\x00" + MEDIA[4:])]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.succeeded is False and result.recovered == b""

    def test_non_200_body_is_ignored(self):
        recs = [_rec(1, "/f", MEDIA, status=403)]
        result = tap_rip(recs, _catalog(), "svc", "trk")
        assert result.succeeded is False

    def test_smaller_match_wins_over_larger_junk(self):
        junk = _rec(1, "/junk", AUDIO_MAGIC + b"\x00" * (len(MEDIA) + 500))
        real = _rec(2, "/real", MEDIA)
        result = tap_rip([junk, real], _catalog(), "svc", "trk")
        assert result.matched_catalog and result.recovered == MEDIA


# ------------------------------------------------- against the reference

_HOSTS = ("a.example", "b.example")
_LOW = AUDIO_MAGIC + bytes(range(255, -1, -1)) * 3
_REF_CATALOG = ServiceCatalog(
    assets={"trk": MediaAsset("trk", "Tracked", {320: MEDIA, 64: _LOW})}
)
# what a tree or a loose body carries: each variant, an equal copy, a near
# miss, and a blob without the media magic
_BLOBS = (MEDIA, _LOW, bytes(bytearray(MEDIA)), MEDIA[:-1] + b"\x00", b"MP4\x00" + MEDIA[4:])
_STRAYS = st.tuples(
    st.sampled_from(_HOSTS),
    st.sampled_from(("/f", "/p/seg_00000.ts", "/p/index.m3u8")),
    st.sampled_from(_BLOBS + (AUDIO_MAGIC, b"#EXTM3U\nbroken")),
    st.just(200),
)
_EDITS = st.tuples(
    st.sampled_from(("drop", "refetch", "refuse", "cut", "swap")),
    st.integers(0, 99),
    st.integers(0, 99),
)


@st.composite
def _fetches(draw):
    """(host, path, body, status) in fetch order: up to three HLS trees on
    either host, naming segments on either host or on none, once or
    twice, then stray bodies, then fetches dropped, refetched, refused,
    cut or swapped."""
    fetches = []
    for _ in range(draw(st.integers(0, 3))):
        host = draw(st.sampled_from(_HOSTS))
        seg_host = draw(st.sampled_from(_HOSTS + ("",)))
        folder = draw(st.sampled_from(("p", "q")))
        prefix = f"https://{seg_host}/{folder}/" if seg_host else f"/{folder}/"
        chunks, index = segment(
            draw(st.sampled_from(_BLOBS)), draw(st.sampled_from((300, 1000, 4096))),
            uri_prefix=prefix,
        )
        # a playlist may name its segments twice: its evidence names each once
        twice = index * 2 if draw(st.booleans()) else index
        fetches.append((host, f"/{folder}/index.m3u8", render_index(twice).encode(), 200))
        for chunk, (uri, _seconds) in zip(chunks, index):
            fetches.append((seg_host or host, f"/{folder}/{uri[len(prefix):]}", chunk, 200))
    fetches += draw(st.lists(_STRAYS, max_size=3))
    for edit, at, to in draw(st.lists(_EDITS, max_size=6)):
        if not fetches:
            break
        i, j = at % len(fetches), to % len(fetches)
        host, path, body, status = fetches[i]
        if edit == "drop":
            del fetches[i]
        elif edit == "refetch":
            fetches.insert(j, fetches[i])
        elif edit == "refuse":
            fetches[i] = (host, path, b'{"error": "refused"}', draw(st.sampled_from((403, 404))))
        elif edit == "cut":
            fetches[i] = (host, path, body[:len(body) // 2], status)
        else:
            fetches[i], fetches[j] = fetches[j], fetches[i]
    return fetches


@st.composite
def _transcripts(draw):
    """Tap records of drawn fetches, each body bytes or a memoryview, with
    one record sometimes tapped twice and the records sometimes out of
    seq order."""
    fetches = draw(_fetches())
    views = draw(st.lists(st.booleans(), min_size=len(fetches), max_size=len(fetches)))
    records = [
        TapRecord(
            seq,
            HttpRequest("GET", path, headers={"host": host}),
            HttpResponse(status, body=memoryview(body) if view else body),
        )
        for seq, ((host, path, body, status), view) in enumerate(zip(fetches, views), 1)
    ]
    if records and draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(st.sampled_from(records)))
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    return records


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_transcripts(), st.sampled_from(("trk", "trk", "ghost")))
def test_tap_rip_agrees_with_the_reference(records, track):
    got = tap_rip(records, _REF_CATALOG, "svc", track)
    want = reference_rip(records, _REF_CATALOG, "svc", track)
    assert (got.succeeded, got.matched_catalog, bytes(got.recovered), got.evidence) == (
        want.succeeded, want.matched_catalog, want.recovered, want.evidence
    )
    if got.matched_catalog:
        variants = _REF_CATALOG.asset(track).variants.values()
        assert any(got.recovered is variant for variant in variants)
    else:
        assert type(got.recovered) is bytes


class TestOutcomes:
    def test_empty_tap_fails(self):
        result = tap_rip([], _catalog(), "svc", "trk")
        assert not result.succeeded and not result.matched_catalog
        assert result.recovered == b"" and result.evidence == []

    def test_unknown_track_never_matches(self):
        recs = [_rec(1, "/f", MEDIA)]
        result = tap_rip(recs, _catalog(), "svc", "ghost")
        assert result.succeeded and not result.matched_catalog

    def test_any_variant_of_the_asset_matches(self):
        alt = AUDIO_MAGIC + b"low-rate" * 40
        cat = ServiceCatalog(
            assets={"trk": MediaAsset("trk", "Tracked", {320: MEDIA, 64: alt})}
        )
        result = tap_rip([_rec(1, "/f", alt)], cat, "svc", "trk")
        assert result.matched_catalog and result.recovered == alt


class TestPlaylistPrefix:
    """Only a body whose bytes start with #EXTM3U is decoded and parsed."""

    def test_clean_index_is_a_candidate(self):
        assert len(_index_candidates(_tree(MEDIA))) == 1

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda index: index + b"\xff",  # #EXTM3U, then invalid UTF-8
            lambda index: b"\xef\xbb\xbf" + index,  # a BOM before #EXTM3U
        ],
        ids=["invalid-utf8", "bom"],
    )
    def test_mangled_index_is_not_a_playlist(self, mangle):
        recs = _tree(MEDIA)
        recs[0] = _rec(recs[0].seq, recs[0].request.path, mangle(recs[0].response.body))
        assert _index_candidates(recs) == []

    def test_empty_index_is_not_a_candidate(self):
        # a playlist with no segments names nothing to reassemble
        empty = render_index([]).encode()
        assert _index_candidates([_rec(1, "/a/index.m3u8", empty)]) == []

    @pytest.mark.parametrize("view", [bytes, memoryview])
    def test_megabyte_audio_body_is_not_a_playlist(self, view):
        body = view(AUDIO_MAGIC + bytes((1 << 20) - len(AUDIO_MAGIC)))
        assert _index_candidates([_rec(1, "/file/t/320.aud", body)]) == []

    def test_only_tagged_bodies_are_decoded(self, tmp_path, monkeypatch):
        # a catalog-size track: 1 MB top variant, whole-file and HLS rips
        big = MediaAsset(
            "trk1",
            "Big Track",
            {
                rate: AUDIO_MAGIC + bytes(range(256)) * (size // 256)
                for rate, size in ((320, 1 << 20), (128, 1 << 18), (64, 1 << 17))
            },
        )
        save_catalog(ServiceCatalog(assets={"trk1": big}), tmp_path)
        bed = Testbed(TestbedConfig(catalog_dir=str(tmp_path)))
        decoded = []
        real = ripper_mod._decode_text
        monkeypatch.setattr(
            ripper_mod, "_decode_text", lambda body: decoded.append(body) or real(body)
        )
        for service, playlists in (("jiosaavn", 0), ("hungama", 0), ("wynk-v1", 2)):
            decoded.clear()
            result, client_error = bed.rip(service, "trk1")
            assert client_error == "" and result.matched_catalog, service
            assert result.recovered == big.variant(320)
            assert len(decoded) == playlists, service
            assert all(bytes(body[:7]) == b"#EXTM3U" for body in decoded)


class TestAgainstLiveServices:
    @pytest.mark.parametrize(
        "service", ["wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama"]
    )
    def test_insecure_services_leak_catalog_audio(self, bed, service):
        result, client_error = bed.rip(service, "trk1")
        assert client_error == ""
        assert result.succeeded and result.matched_catalog
        assert result.recovered == bed.catalog.asset("trk1").variant(320)
        assert result.evidence

    @pytest.mark.parametrize("service", ["wynk-v1", "hungama"])  # HLS, whole file
    def test_match_recovers_the_catalog_variant_itself(self, bed, service):
        result, client_error = bed.rip(service, "trk1")
        assert client_error == "" and result.matched_catalog
        assert result.recovered is bed.catalog.asset("trk1").variant(320)

    def test_benchmark_yields_no_candidates(self, bed):
        result, client_error = bed.rip("benchmark", "trk1")
        assert client_error == ""
        assert not result.succeeded and not result.matched_catalog
        assert result.recovered == b""

    def test_client_failure_is_reported_separately(self, bed):
        result, client_error = bed.rip("jiosaavn", "trk1", quality="999")
        assert client_error != ""
        assert not result.succeeded

    def test_hungama_quality_picks_lower_variant(self, bed):
        result, client_error = bed.rip("hungama", "trk2", quality="low")
        assert client_error == ""
        assert result.recovered == bed.catalog.asset("trk2").variant(64)


class TestIdentity:
    """A candidate that is the asset's own cut, in order, is its variant
    by identity; every other candidate is compared byte for byte."""

    CHUNK = 300

    @staticmethod
    def _served(bodies):
        """Tap records of an index playlist and the given segment bodies."""
        index = segment_index(len(bodies), "https://cdn.example/a/")
        recs = [_rec(1, "/a/index.m3u8", render_index(index).encode())]
        for seq, ((uri, _seconds), body) in enumerate(zip(index, bodies), 2):
            recs.append(_rec(seq, uri.removeprefix("https://cdn.example"), body))
        return recs

    @staticmethod
    def _no_byte_compare(monkeypatch):
        def refuse(chunks, variant):
            raise AssertionError("bytes were compared")

        monkeypatch.setattr(ripper_mod, "_spells", refuse)

    def test_own_cut_matches_without_reading_a_byte(self, monkeypatch):
        asset = MediaAsset("trk", "Tracked", {320: MEDIA, 64: _LOW})
        cut = asset.cut(320, self.CHUNK)
        self._no_byte_compare(monkeypatch)
        cat = ServiceCatalog(assets={"trk": asset})
        result = tap_rip(self._served(cut), cat, "svc", "trk")
        assert result.matched_catalog and result.recovered is MEDIA

    def test_own_cut_of_a_variant_shorter_than_the_chunk(self, monkeypatch):
        asset = MediaAsset("trk", "Tracked", {320: MEDIA})
        cat = ServiceCatalog(assets={"trk": asset})
        cut = asset.cut(320, 4 * len(MEDIA))
        assert len(cut) == 1
        self._no_byte_compare(monkeypatch)
        result = tap_rip(self._served(cut), cat, "svc", "trk")
        assert result.matched_catalog and result.recovered is MEDIA

    def test_the_ripper_makes_no_cut(self):
        asset = MediaAsset("trk", "Tracked", {320: MEDIA})
        recs = self._served(segment(MEDIA, self.CHUNK)[0])
        assert tap_rip(recs, ServiceCatalog(assets={"trk": asset}), "svc", "trk").matched_catalog
        assert asset._cuts == {}

    def test_stale_cut_of_a_replaced_variant_is_compared(self):
        asset = MediaAsset("trk", "Tracked", {320: MEDIA})
        cut = asset.cut(320, self.CHUNK)
        asset.variants[320] = MEDIA[:-1] + b"\x00"
        cat = ServiceCatalog(assets={"trk": asset})
        result = tap_rip(self._served(cut), cat, "svc", "trk")
        assert not result.matched_catalog

    @pytest.mark.parametrize("edit", ["copies", "reordered", "tampered"])
    def test_candidates_off_the_cut_agree_with_the_reference(self, edit):
        asset = MediaAsset("trk", "Tracked", {320: MEDIA, 64: _LOW})
        cat = ServiceCatalog(assets={"trk": asset})
        bodies = list(asset.cut(320, self.CHUNK))
        if edit == "copies":
            bodies = [bytes(body) for body in bodies]
        elif edit == "reordered":
            bodies[0], bodies[1] = bodies[1], bodies[0]
        else:
            bodies[2] = bytes(bodies[2][:-1]) + b"\x00"
        recs = self._served(bodies)
        got = tap_rip(recs, cat, "svc", "trk")
        want = reference_rip(recs, cat, "svc", "trk")
        assert (got.matched_catalog, bytes(got.recovered), got.evidence) == (
            want.matched_catalog, want.recovered, want.evidence
        )
        assert got.matched_catalog is (edit == "copies")
