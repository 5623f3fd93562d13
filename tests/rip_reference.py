"""Independent tap reassembly for cross-checking `ripper.tap_rip`.

Plain and slow on purpose: every segment URI is split with `urlsplit`
and looked up by scanning the whole transcript backwards, every
candidate is joined into new bytes and compared whole, and playlists go
through the unmemoized index parser. Agreement with the ripper is then
two reassemblies meeting, not one lookup table and one memo shared.

The rules it spells out are the ripper's contract:
- A candidate is either an index playlist (a 200 whose body starts with
  #EXTM3U, decodes as UTF-8 and parses with at least one segment) whose
  every segment crossed the wire, or a 200 body starting with AUD0.
- A segment is its URI's host and path; a URI with no host is on its
  playlist's host (RFC 8216 section 4.1). The last 200 fetch of it in
  the transcript supplies its bytes; a URI urlsplit refuses is missing.
- Playlists come first, in transcript order, then bodies, largest first
  and then by seq.
- The first candidate equal to a variant of the track matches; with
  none, the first candidate is reported unmatched.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from drmtestbed.hls import ManifestError, parse_index
from drmtestbed.ripper import RipResult

_parse_index_unmemoized = parse_index.__wrapped__


def _last_fetch(records, playlist, uri):
    try:
        parts = urlsplit(uri)
    except ValueError:
        return None
    host = parts.netloc or playlist.request.headers["host"]
    for rec in reversed(records):
        if (
            rec.response.status == 200
            and rec.request.headers["host"] == host
            and rec.request.path == parts.path
        ):
            return rec
    return None


def _playlist_candidates(records):
    out = []
    for rec in records:
        body = bytes(rec.response.body)
        if rec.response.status != 200 or not body.startswith(b"#EXTM3U"):
            continue
        try:
            segments = _parse_index_unmemoized(body.decode("utf-8"))
        except (UnicodeDecodeError, ManifestError):
            continue
        if not segments:
            continue
        blob, seqs = b"", {rec.seq}
        for uri, _seconds in segments:
            fetch = _last_fetch(records, rec, uri)
            if fetch is None:
                break
            blob += bytes(fetch.response.body)
            seqs.add(fetch.seq)
        else:
            out.append((blob, sorted(seqs)))
    return out


def _file_candidates(records):
    out = [
        (bytes(rec.response.body), [rec.seq])
        for rec in records
        if rec.response.status == 200 and bytes(rec.response.body).startswith(b"AUD0")
    ]
    out.sort(key=lambda cand: (-len(cand[0]), cand[1]))
    return out


def reference_rip(records, catalog, service, track) -> RipResult:
    asset = catalog.assets.get(track)
    variants = [bytes(v) for v in asset.variants.values()] if asset else []
    candidates = _playlist_candidates(records) + _file_candidates(records)
    for blob, seqs in candidates:
        if any(blob == variant for variant in variants):
            return RipResult(service, track, True, True, blob, seqs)
    if candidates:
        blob, seqs = candidates[0]
        return RipResult(service, track, True, False, blob, seqs)
    return RipResult(service, track, False, False)
