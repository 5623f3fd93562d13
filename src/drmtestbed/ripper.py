"""Post-TLS stream ripping: reconstruct audio from a passive tap.

The ripper never talks to anything. It reads tap records, reassembles
whatever HLS trees or whole files crossed the wire, and checks the
result against the catalog. A service defeats it exactly when nothing
in the transcript decodes to catalog plaintext.

A candidate stays the list of bodies the tap holds and is matched with
each catalog variant in place, so a rip that matches copies nothing: its
result carries the catalog's own variant object. A candidate that is,
chunk for chunk and in order, the asset's own cut of the variant
(`MediaAsset.cut`, what every CDN serves: an HLS tree's segments, or a
whole file as a cut of one chunk) is that variant by identity and no
byte is read. Any other candidate is compared with the variant's bytes,
chunk by chunk. The ripper only looks a cut up and never makes one.

A segment URI is matched by its host and path. A URI with no host (an
absolute path, or a path-relative one such as `seg0.ts` or `../p/seg0.ts`)
is first resolved against its playlist's URL, as RFC 8216 section 4.1
says; a URI of another scheme, such as `a:seg0.ts`, matches no fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from urllib.parse import urljoin

from .catalog import ServiceCatalog
from .hls import AUDIO_MAGIC, M3U_HEADER, ManifestError, parse_index
from .transport import TapRecord, url_host_path

_PLAYLIST_TAG = M3U_HEADER.encode("ascii")


@dataclass
class RipResult:
    """On a match, `recovered` is the catalog's own variant object: its
    bytes are the ones the tap spelled out, and a result holds no copy
    of them. Otherwise it is the first candidate, joined into bytes."""

    service: str
    track: str
    succeeded: bool
    matched_catalog: bool
    recovered: bytes = b""
    evidence: list[int] = field(default_factory=list)  # tap seqs used


def _decode_text(body: bytes | memoryview) -> str | None:
    try:
        return str(body, "utf-8")
    except UnicodeDecodeError:
        return None


def _index_candidates(records):
    """(chunk bodies in playlist order, seqs) of every index playlist in
    the transcript whose chunks all crossed the wire too. A segment is
    its URI's host and path (a URI with no host is resolved against its
    playlist's URL, RFC 8216 section 4.1), and the last fetch of it wins."""
    last_by_uri = None  # built once the first playlist turns up
    out = []
    for rec in records:
        body = rec.response.body
        # UTF-8 text starts with the tag exactly when its bytes do, so
        # media bodies are never decoded
        if rec.response.status != 200 or body[:len(_PLAYLIST_TAG)] != _PLAYLIST_TAG:
            continue
        text = _decode_text(body)
        if text is None:
            continue
        try:
            index = parse_index(text)
        except ManifestError:
            continue
        if not index:
            continue
        if last_by_uri is None:
            last_by_uri = {
                (r.request.headers["host"], r.request.path): r
                for r in records
                if r.response.status == 200
            }
        origin = rec.request.headers["host"]
        chunks, seqs = [], [rec.seq]
        for uri, _seconds in index:
            try:
                host, path = url_host_path(uri)
                if not host:
                    host, path = url_host_path(urljoin(f"https://{origin}{rec.request.path}", uri))
            except ValueError:  # urlsplit refuses it, so no fetch had that URL
                break
            hit = last_by_uri.get((host, path))
            if hit is None:
                break
            chunks.append(hit.response.body)
            seqs.append(hit.seq)
        else:
            out.append((chunks, sorted(set(seqs))))
    return out


def _body_candidates(records):
    hits = [
        rec
        for rec in records
        if rec.response.status == 200 and rec.response.body[:len(AUDIO_MAGIC)] == AUDIO_MAGIC
    ]
    hits.sort(key=lambda rec: (-len(rec.response.body), rec.seq))
    return [([rec.response.body], [rec.seq]) for rec in hits]


def _spells(chunks, variant) -> bool:
    """Whether the chunks, joined, are the variant's bytes, read in place."""
    offset = 0
    for chunk in chunks:
        if not variant.startswith(chunk, offset):
            return False
        offset += len(chunk)
    return True


def _matched_variant(chunks, asset):
    """The variant of the asset the chunks spell out, else None."""
    size = sum(map(len, chunks))
    for rate, variant in asset.variants.items():
        if len(variant) != size:
            continue
        # every CDN serves the asset's own cut, which needs no compare
        cut = asset.cut_made(rate, len(chunks[0]))
        if cut is not None and len(cut) == len(chunks) and all(map(is_, cut, chunks)):
            return variant
        if _spells(chunks, variant):
            return variant
    return None


def tap_rip(
    records: list[TapRecord],
    catalog: ServiceCatalog,
    service: str,
    track: str,
) -> RipResult:
    asset = catalog.assets.get(track)
    candidates = _index_candidates(records) + _body_candidates(records)
    for chunks, seqs in candidates:
        variant = _matched_variant(chunks, asset) if asset else None
        if variant is not None:
            return RipResult(
                service=service,
                track=track,
                succeeded=True,
                matched_catalog=True,
                recovered=variant,
                evidence=seqs,
            )
    # no candidate reads as an empty first candidate
    chunks, seqs = candidates[0] if candidates else ([], [])
    return RipResult(
        service=service,
        track=track,
        succeeded=bool(candidates),
        matched_catalog=False,
        recovered=b"".join(chunks),
        evidence=seqs,
    )
