"""Media model plus the tiny m3u8 dialect the simulated CDNs speak.

The grammar is a deliberately small subset: a master playlist is
#EXTM3U followed by BANDWIDTH/uri pairs, an index playlist is #EXTM3U,
EXTINF/uri pairs and #EXT-X-ENDLIST. A playlist is a plain sequence of
pairs: a master is `(bandwidth, uri)` pairs and an index is
`(uri, seconds)` pairs. Rendering and parsing are exact inverses over
that subset: the renderers refuse with ValueError whatever the parsers
would refuse, so `parse(render(x)) == tuple(x)` for every x they
render. Newline is always LF, and parse failures carry the 1-based line
number.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Sequence
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

_ASSET_ID = re.compile(r"[A-Za-z0-9._~-]+")


class ManifestError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class MediaAsset:
    """One catalog entry: raw audio bytes per bitrate variant.

    `cut` slices a variant into chunks once and hands out the same tuple
    of read-only views after that, so every CDN that serves the asset
    serves the very same chunk objects and the ripper can recognise them
    by identity. The memo is no part of the asset's value: equality and
    repr ignore it."""

    asset_id: str
    title: str
    variants: dict[int, bytes]
    premium: bool = False
    # (rate, first chunk's length) -> (the variant cut, its chunks); a
    # variant shorter than the chunk size is one chunk, whatever the size
    _cuts: dict[tuple[int, int], tuple[bytes, tuple[memoryview, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # every service puts the id in a URL path or query, so it may hold
        # only RFC 3986 section 2.3 unreserved characters
        if not _ASSET_ID.fullmatch(self.asset_id):
            raise ValueError(
                f"asset id {self.asset_id!r} is not one or more of A-Z a-z 0-9 - . _ ~"
            )
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

    def cut(self, rate: int, chunk_bytes: int) -> tuple[memoryview, ...]:
        """Read-only views of the rate's variant, chunk_bytes each (the
        last one ragged), as `segment` slices it. The same tuple comes
        back on every call until the variant object at that rate is
        replaced, which makes a fresh cut."""
        variant = self.variant(rate)
        first = min(chunk_bytes, len(variant))
        chunks = self.cut_made(rate, first)
        if chunks is None:
            chunks = tuple(_slices(memoryview(variant).toreadonly(), chunk_bytes))
            self._cuts[(rate, first)] = (variant, chunks)
        return chunks

    def cut_made(self, rate: int, first_chunk_bytes: int) -> tuple[memoryview, ...] | None:
        """The cut of the rate's current variant whose first chunk is
        first_chunk_bytes long, if `cut` has made it; never makes one."""
        hit = self._cuts.get((rate, first_chunk_bytes))
        if hit is not None and hit[0] is self.variants.get(rate):
            return hit[1]
        return None


def _slices(media, chunk_bytes: int) -> list:
    """The one slicing rule: fixed-size chunks, the last one ragged."""
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    return [media[i:i + chunk_bytes] for i in range(0, len(media), chunk_bytes)]


def segment_index(count: int, uri_prefix: str = "") -> list[tuple[str, float]]:
    """The one segment-URI rule: the index of count segments."""
    return [(f"{uri_prefix}seg_{i:05d}.ts", SEGMENT_SECONDS) for i in range(count)]


def segment(
    media: bytes | memoryview,
    chunk_bytes: int,
    *,
    uri_prefix: str = "",
) -> tuple[list[bytes | memoryview], list[tuple[str, float]]]:
    """Split media into fixed-size chunks (last one ragged) and build the
    matching index. Joining the chunks gives the media back."""
    chunks = _slices(media, chunk_bytes)
    return chunks, segment_index(len(chunks), uri_prefix)


def _uri_line(uri: str) -> str:
    """uri, if the parsers read it back as one uri line; else ValueError."""
    if not uri or uri[0] == "#" or "\n" in uri or "\r" in uri:
        raise ValueError(f"uri {uri!r} is not a non-empty line that does not start with #")
    return uri


def render_master(entries: Sequence[tuple[int, str]]) -> str:
    lines = [M3U_HEADER]
    seen = set()
    for bw, uri in entries:
        # parse_master reads a bandwidth as ASCII digits, and each one once
        if type(bw) is not int or bw < 0:
            raise ValueError(f"bandwidth {bw!r} is not a non-negative int")
        if bw in seen:
            raise ValueError(f"duplicate bandwidth {bw}")
        seen.add(bw)
        lines.append(f"{STREAM_INF}{bw}")
        lines.append(_uri_line(uri))
    return "\n".join(lines) + "\n"


def _duration_text(seconds: float) -> str:
    # repr, unless it has an exponent, which parse_index refuses: then the
    # same digits written out positionally, which read back to the same float
    text = repr(seconds)
    if not text[0].isdigit():  # nan, inf or a sign, which parse_index refuses
        raise ValueError(f"duration {seconds!r} is not finite and non-negative")
    return format(Decimal(text), "f") if "e" in text else text


def render_index(segments: Sequence[tuple[str, float]]) -> str:
    lines = [M3U_HEADER]
    for uri, seconds in segments:
        lines.append(f"{EXTINF}{_duration_text(seconds)},")
        lines.append(_uri_line(uri))
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


def parse_master(text: str) -> tuple[tuple[int, str], ...]:
    lines = _lines_of(text)
    if not lines or lines[0] != M3U_HEADER:
        raise ManifestError(f"expected {M3U_HEADER}", 1)
    entries = []
    seen = set()
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
        if bandwidth in seen:
            raise ManifestError(f"duplicate bandwidth {bandwidth}", i + 1)
        seen.add(bandwidth)
        entries.append((bandwidth, _want_uri(lines, i + 1)))
        i += 2
    return tuple(entries)


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


# A client parses the index playlist it fetched, then the ripper parses
# the same text off the tap: the memo makes the second parse a lookup and
# hands out the same tuple, which no caller can change. A ManifestError
# passes through uncached, so a bad text raises anew, at its line, on
# every call.
@functools.lru_cache(maxsize=16)
def parse_index(text: str) -> tuple[tuple[str, float], ...]:
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
