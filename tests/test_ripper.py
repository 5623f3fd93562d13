"""Passive tap ripping: candidate extraction and catalog matching."""

from __future__ import annotations

import pytest

import drmtestbed.ripper as ripper_mod
from drmtestbed.catalog import ServiceCatalog, save_catalog
from drmtestbed.config import TestbedConfig
from drmtestbed.hls import AUDIO_MAGIC, MediaAsset, render_index, segment
from drmtestbed.ripper import _index_candidates, tap_rip
from drmtestbed.testbed import Testbed
from drmtestbed.transport import HttpRequest, HttpResponse, TapRecord

MEDIA = AUDIO_MAGIC + bytes(range(256)) * 10


def _catalog() -> ServiceCatalog:
    return ServiceCatalog(assets={"trk": MediaAsset("trk", "Tracked", {320: MEDIA})})


def _rec(seq: int, path: str, body: bytes | memoryview, status: int = 200) -> TapRecord:
    return TapRecord(
        seq=seq,
        request=HttpRequest("GET", path),
        response=HttpResponse(status, body=body),
    )


def _tree(media: bytes | memoryview, *, chunk: int = 500, start: int = 1, prefix: str = "a"):
    """Tap records for one full HLS fetch: index playlist then chunks."""
    chunks, idx = segment(media, chunk, uri_prefix=f"https://cdn.example/{prefix}/")
    recs = [_rec(start, f"/{prefix}/index.m3u8", render_index(idx).encode())]
    for off, (uri, _sec) in enumerate(idx.segments):
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
