"""Media model plus the tiny m3u8 dialect the simulated CDNs speak.

The grammar is a deliberately small subset: a master playlist is
#EXTM3U followed by BANDWIDTH/uri pairs, an index playlist is #EXTM3U,
EXTINF/uri pairs and #EXT-X-ENDLIST. Rendering and parsing are exact
inverses over that subset, newline is always LF, and parse failures
carry the 1-based line number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal

AUDIO_MAGIC = b"AUD0"
BITRATE_LADDER = (320, 128, 64, 32, 16)
DEFAULT_CHUNK_BYTES = 32768
SEGMENT_SECONDS = 10.0

M3U_HEADER = "#EXTM3U"
STREAM_INF = "#EXT-X-STREAM-INF:BANDWIDTH="
EXTINF = "#EXTINF:"
ENDLIST = "#EXT-X-ENDLIST"


class ManifestError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class MediaAsset:
    """One catalog entry: raw audio bytes per bitrate variant."""

    asset_id: str
    title: str
    variants: dict[int, bytes]
    premium: bool = False

    def __post_init__(self):
        if not self.asset_id:
            raise ValueError("empty asset id")
        if not self.variants:
            raise ValueError(f"{self.asset_id}: no variants")
        for rate, blob in self.variants.items():
            if rate not in BITRATE_LADDER:
                raise ValueError(f"{self.asset_id}: bitrate {rate} not in ladder")
            if not blob:
                raise ValueError(f"{self.asset_id}: empty variant {rate}")

    def top_bitrate(self) -> int:
        return max(self.variants)

    def variant(self, rate: int) -> bytes:
        try:
            return self.variants[rate]
        except KeyError:
            raise ValueError(f"{self.asset_id}: no {rate} kbps variant") from None


@dataclass
class MasterManifest:
    entries: list[tuple[int, str]] = field(default_factory=list)  # (bandwidth, uri)

    def __post_init__(self):
        seen = set()
        for bw, _uri in self.entries:
            if bw in seen:
                raise ValueError(f"duplicate bandwidth {bw}")
            seen.add(bw)

    def best(self) -> tuple[int, str]:
        return max(self.entries, key=lambda e: e[0])


@dataclass
class IndexManifest:
    segments: list[tuple[str, float]] = field(default_factory=list)  # (uri, seconds)


def segment(
    media: bytes | memoryview,
    chunk_bytes: int,
    *,
    uri_prefix: str = "",
) -> tuple[list[bytes | memoryview], IndexManifest]:
    """Split media into fixed-size chunks (last one ragged) and build the
    matching index. assemble() over the chunks gives the media back."""
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    chunks = [media[i:i + chunk_bytes] for i in range(0, len(media), chunk_bytes)]
    segs = [
        (f"{uri_prefix}seg_{i:05d}.ts", SEGMENT_SECONDS) for i in range(len(chunks))
    ]
    return chunks, IndexManifest(segments=segs)


def assemble(chunks: list[bytes]) -> bytes:
    return b"".join(chunks)


def render_master(manifest: MasterManifest) -> str:
    lines = [M3U_HEADER]
    for bw, uri in manifest.entries:
        lines.append(f"{STREAM_INF}{bw}")
        lines.append(uri)
    return "\n".join(lines) + "\n"


def _duration_text(seconds: float) -> str:
    # repr, unless it has an exponent, which parse_index refuses: then the
    # same digits written out positionally, which read back to the same float
    text = repr(seconds)
    if not text[0].isdigit():  # nan, inf or a sign, which parse_index refuses
        raise ValueError(f"duration {seconds!r} is not finite and non-negative")
    return format(Decimal(text), "f") if "e" in text else text


def render_index(manifest: IndexManifest) -> str:
    lines = [M3U_HEADER]
    for uri, seconds in manifest.segments:
        lines.append(f"{EXTINF}{_duration_text(seconds)},")
        lines.append(uri)
    lines.append(ENDLIST)
    return "\n".join(lines) + "\n"


def _lines_of(text: str) -> list[str]:
    if "\r" in text:
        raise ManifestError("CR not allowed", 1 + text[:text.index("\r")].count("\n"))
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _want_uri(lines: list[str], i: int) -> str:
    if i >= len(lines):
        raise ManifestError("missing uri line", i + 1)
    uri = lines[i]
    if not uri or uri.startswith("#"):
        raise ManifestError("expected uri", i + 1)
    return uri


def parse_master(text: str) -> MasterManifest:
    lines = _lines_of(text)
    if not lines or lines[0] != M3U_HEADER:
        raise ManifestError(f"expected {M3U_HEADER}", 1)
    entries = []
    i = 1
    while i < len(lines):
        tag = lines[i]
        if not tag.startswith(STREAM_INF):
            raise ManifestError("expected stream-inf tag", i + 1)
        raw = tag[len(STREAM_INF):]
        if not (raw.isascii() and raw.isdigit()):
            raise ManifestError(f"bad bandwidth {raw!r}", i + 1)
        try:
            bandwidth = int(raw)
        except ValueError:  # past int()'s digit limit
            raise ManifestError(f"bad bandwidth {raw!r}", i + 1) from None
        if any(bw == bandwidth for bw, _uri in entries):
            raise ManifestError(f"duplicate bandwidth {bandwidth}", i + 1)
        entries.append((bandwidth, _want_uri(lines, i + 1)))
        i += 2
    return MasterManifest(entries=entries)


def _duration(raw: str, line: int) -> float:
    # RFC 8216 section 4.3.2.1: a decimal-integer or a non-negative
    # decimal-floating-point, i.e. [0-9]+(\.[0-9]+)?. float() alone would
    # take nan, inf, signs, spaces, underscores and non-ASCII digits, and
    # read a long enough run of digits as inf.
    whole, dot, frac = raw.partition(".")
    if raw.isascii() and whole.isdigit() and (frac.isdigit() or not dot):
        seconds = float(raw)
        if not math.isinf(seconds):
            return seconds
    raise ManifestError(f"bad duration {raw!r}", line)


def parse_index(text: str) -> IndexManifest:
    """A new IndexManifest on every call, so a caller may change it."""
    return IndexManifest(segments=list(_parse_index(text)))


# A client parses the index playlist it fetched, then the ripper parses
# the same text off the tap: the memo makes the second parse a lookup. It
# holds tuples no caller can change, and a ManifestError passes through
# uncached, so a bad text raises anew, at its line, on every call.
@functools.lru_cache(maxsize=16)
def _parse_index(text: str) -> tuple[tuple[str, float], ...]:
    lines = _lines_of(text)
    if not lines or lines[0] != M3U_HEADER:
        raise ManifestError(f"expected {M3U_HEADER}", 1)
    segments = []
    last_raw, seconds = None, 0.0
    i = 1
    while i < len(lines) and lines[i] != ENDLIST:
        tag = lines[i]
        if not tag.startswith(EXTINF) or not tag.endswith(","):
            raise ManifestError("expected extinf tag", i + 1)
        raw = tag[len(EXTINF):-1]
        if raw != last_raw:  # a tree's durations mostly repeat
            seconds, last_raw = _duration(raw, i + 1), raw
        uri = _want_uri(lines, i + 1)
        segments.append((uri, seconds))
        i += 2
    if i >= len(lines):
        raise ManifestError(f"missing {ENDLIST}", len(lines) + 1)
    if i != len(lines) - 1:
        raise ManifestError(f"content after {ENDLIST}", i + 2)
    return tuple(segments)
