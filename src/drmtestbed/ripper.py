"""Post-TLS stream ripping: reconstruct audio from a passive tap.

The ripper never talks to anything. It reads tap records, reassembles
whatever HLS trees or whole files crossed the wire, and checks the
result against the catalog. A service defeats it exactly when nothing
in the transcript decodes to catalog plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import ServiceCatalog
from .hls import AUDIO_MAGIC, M3U_HEADER, ManifestError, parse_index
from .transport import TapRecord, url_path

_PLAYLIST_TAG = M3U_HEADER.encode("ascii")


@dataclass
class RipResult:
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
    """Assemble every index playlist in the transcript whose chunks all
    crossed the wire too."""
    last_by_path = None  # built once the first playlist turns up
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
        if not index.segments:
            continue
        if last_by_path is None:
            last_by_path = {
                r.request.path: r for r in records if r.response.status == 200
            }
        chunks, seqs, complete = [], [rec.seq], True
        for uri, _seconds in index.segments:
            try:
                hit = last_by_path.get(url_path(uri))
            except ValueError:  # urlsplit refuses it, so no fetch had that URL
                hit = None
            if hit is None:
                complete = False
                break
            chunks.append(hit.response.body)
            seqs.append(hit.seq)
        if complete:
            out.append((b"".join(chunks), sorted(set(seqs))))
    return out


def _body_candidates(records):
    hits = [
        rec
        for rec in records
        if rec.response.status == 200 and rec.response.body[:len(AUDIO_MAGIC)] == AUDIO_MAGIC
    ]
    hits.sort(key=lambda rec: (-len(rec.response.body), rec.seq))
    return [(bytes(rec.response.body), [rec.seq]) for rec in hits]


def tap_rip(
    records: list[TapRecord],
    catalog: ServiceCatalog,
    service: str,
    track: str,
) -> RipResult:
    asset = catalog.assets.get(track)
    # a list, not a set: `in` then compares lengths before contents,
    # where a set would hash every MB-sized candidate first
    variants = list(asset.variants.values()) if asset else []
    candidates = _index_candidates(records) + _body_candidates(records)
    for blob, seqs in candidates:
        if blob in variants:
            return RipResult(
                service=service,
                track=track,
                succeeded=True,
                matched_catalog=True,
                recovered=blob,
                evidence=seqs,
            )
    if candidates:
        blob, seqs = candidates[0]
        return RipResult(
            service=service,
            track=track,
            succeeded=True,
            matched_catalog=False,
            recovered=blob,
            evidence=seqs,
        )
    return RipResult(
        service=service, track=track, succeeded=False, matched_catalog=False
    )
