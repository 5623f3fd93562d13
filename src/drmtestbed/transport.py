"""In-memory HTTP fabric with an injected clock, a seeded rng and
passive wire taps.

Nothing here opens a socket. Services register a handler per host,
clients dispatch requests through the Network, and every exchange is
copied into any attached taps with a strictly increasing sequence
number. Tap readers only ever see copies, so observing traffic can
never change it.

Every exchange starts in its constructor, which checks the method or
status and copies each dict it is given, so an exchange owns its dicts
from the moment it exists. A request folds its header keys to lower
case there and nowhere else (field names are case-insensitive, RFC 9110
section 5.1), so handlers read headers by lower-case name. Tap snapshots
and replay copies (copy_request, copy_response) only copy: each dict of
an exchange its constructor already checked and folded is copied as it
stands, and nothing is checked or folded again.

Network.request reads the memoized split of its URL and makes one copy
of its query, in the HttpRequest it builds, so extra_query merges into
that copy and never into the memo. Network.dispatch builds each tap
snapshot without the frozen TapRecord's __init__: it sets the record's
slots through their descriptors, so the record is as frozen as one built
by TapRecord(...) and equal to it.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass
from urllib.parse import urlsplit

ALLOWED_STATUSES = (200, 400, 401, 403, 404)
_METHODS = ("GET", "POST")

# rng.choice over 16 digits keeps the top 5 bits of one 32-bit word and
# redraws when they are 16 or more, i.e. when the word's top byte is 128
# or more; otherwise the digit is that byte >> 3.
_HEX_OF_TOP_BYTE = bytes(b"0123456789abcdef"[(b >> 3) & 15] for b in range(256))
_REDRAWN_TOP_BYTES = bytes(range(128, 256))


def hex_digits(rng: random.Random, n: int) -> str:
    """n lower-case hex digits: exactly what n calls of
    rng.choice("0123456789abcdef") return, drawing the same words, so the
    rng is left in the same state. Each round draws one word per digit
    still missing; a word yields at most one digit, so no word is drawn
    that the choice loop would not have drawn."""
    out = bytearray()
    while len(out) < n:
        missing = n - len(out)
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        out += words[3::4].translate(_HEX_OF_TOP_BYTE, _REDRAWN_TOP_BYTES)
    return out.decode("ascii")


def uuid_like(rng: random.Random) -> str:
    """An (8,4,4,4,12) dashed run of hex digits drawn from rng: one draw of
    32 digits takes the same words as five draws of the parts."""
    d = hex_digits(rng, 32)
    return f"{d[:8]}-{d[8:12]}-{d[12:16]}-{d[16:20]}-{d[20:]}"


class Clock:
    """Epoch-seconds source the whole testbed shares. Only moves when told."""

    def __init__(self, start: int):
        self._now = int(start)

    def now(self) -> int:
        return self._now

    def advance(self, seconds: int) -> None:
        self._now += int(seconds)

    def set_to(self, epoch: int) -> None:
        self._now = int(epoch)


class ExpiringStore(dict):
    """An insertion-ordered dict of key -> (value, expires_at), each entry
    living `ttl` seconds from its put; no timer, no rng draw. `put` sweeps
    expired entries from the front and stops at the first live one.
    Entries expire in insertion order only while the clock runs forward,
    and `Clock.set_to` into the past breaks that order, so an expired
    entry can outlast a sweep: `live` judges expiry itself."""

    def __init__(self, ttl: int):
        super().__init__()
        self.ttl = ttl

    def put(self, key, value, now: int) -> None:
        while self and now >= next(iter(self.values()))[1]:
            del self[next(iter(self))]
        self.pop(key, None)  # a re-put goes to the back
        self[key] = (value, now + self.ttl)

    def live(self, key, now: int):
        value, expires_at = self.get(key, (None, now))
        return value if now < expires_at else None


class DeterministicEnv:
    """Clock plus rng. Two envs built from the same (seed, start) produce
    identical draws in identical call order, which is what makes whole
    transcripts reproducible byte for byte."""

    def __init__(self, seed: int, clock_start: int):
        self.clock = Clock(clock_start)
        self.rng = random.Random(seed)

    def hex_token(self, n_chars: int) -> str:
        return hex_digits(self.rng, n_chars)


@dataclass(slots=True, init=False)
class HttpRequest:
    method: str
    path: str
    query: dict[str, str]  # insertion-ordered
    headers: dict[str, str]  # lower-case keys
    cookies: dict[str, str]
    body: bytes

    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
        cookies: dict[str, str] | None = None,
        body: bytes = b"",
    ):
        if method not in _METHODS:
            raise ValueError(f"method {method!r}")
        self.method = method
        self.path = path
        self.query = dict(query) if query else {}
        # last duplicate wins, at the first one's position
        self.headers = {k.lower(): v for k, v in headers.items()} if headers else {}
        self.cookies = dict(cookies) if cookies else {}
        self.body = body


@dataclass(slots=True, init=False)
class HttpResponse:
    status: int
    headers: dict[str, str]
    set_cookies: dict[str, str]
    body: bytes | memoryview  # CDN media chunks: read-only catalog views

    def __init__(
        self,
        status: int,
        headers: dict[str, str] | None = None,
        set_cookies: dict[str, str] | None = None,
        body: bytes | memoryview = b"",
    ):
        if status not in ALLOWED_STATUSES:
            raise ValueError(f"status {status} not in {ALLOWED_STATUSES}")
        self.status = status
        self.headers = dict(headers) if headers else {}
        self.set_cookies = dict(set_cookies) if set_cookies else {}
        self.body = body


def json_response(payload, status: int = 200) -> HttpResponse:
    return HttpResponse(
        status=status,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8"),
    )


def error_response(status: int, message: str) -> HttpResponse:
    return json_response({"error": message}, status=status)


@dataclass(frozen=True, slots=True)
class TapRecord:
    seq: int
    request: HttpRequest
    response: HttpResponse


# The frozen __init__ routes each field through object.__setattr__; a tap
# snapshot sets the slots directly instead.
_set_seq = TapRecord.seq.__set__
_set_request = TapRecord.request.__set__
_set_response = TapRecord.response.__set__


class Tap:
    def __init__(self):
        self._records: list[TapRecord] = []

    def records(self) -> list[TapRecord]:
        """A copy: reading twice gives the same records."""
        return list(self._records)


def copy_request(req: HttpRequest) -> HttpRequest:
    """A snapshot sharing no dict with req, which its constructor already
    checked and folded: each dict is copied as it stands."""
    dup = object.__new__(HttpRequest)
    dup.method = req.method
    dup.path = req.path
    dup.query = req.query.copy()
    dup.headers = req.headers.copy()
    dup.cookies = req.cookies.copy()
    dup.body = req.body
    return dup


def copy_response(resp: HttpResponse) -> HttpResponse:
    """A snapshot sharing no dict with resp, which its constructor already
    checked: each dict is copied as it stands."""
    dup = object.__new__(HttpResponse)
    dup.status = resp.status
    dup.headers = resp.headers.copy()
    dup.set_cookies = resp.set_cookies.copy()
    dup.body = resp.body
    return dup


def split_url(url: str) -> tuple[str, str, dict[str, str]]:
    """(host, path, query). The query dict is new on every call, so a
    caller may update it; the split itself is memoized, because a ranged
    player fetches one URL hundreds of times."""
    host, path, query = _routable(url)
    return host, path, dict(query)


def _routable(url: str) -> tuple[str, str, dict[str, str]]:
    """(host, path, query) with the path defaulting to "/", refusing a URL
    without a host. The query is the memo's own dict: copy it, never change it."""
    host, path, query = _split_url(url)
    if not host:
        raise ValueError(f"url without host: {url!r}")
    return host, path or "/", query


def url_host_path(url: str) -> tuple[str, str]:
    """urlsplit(url)'s netloc and path, from the same memo as split_url:
    no host for a URL without one, no path for https://h, and the URL
    itself as the path when it is a relative path."""
    host, path, _query = _split_url(url)
    return host, path


# https://, an ASCII DNS host, then a path and a query of printable ASCII
# with no fragment: urlsplit strips or checks nothing in such a URL, so
# its parts are where this finds them.
_PLAIN_URL = re.compile(r'https://([0-9A-Za-z.-]+)(/[ -"$->@-~]*)?(?:\?([ -"$-~]*))?')


@functools.lru_cache(maxsize=256)
def _split_url(url: str) -> tuple[str, str, dict[str, str]]:
    """urlsplit(url)'s netloc and path, raising where it raises, and its
    query as a dict no caller may change. Plain URLs are split directly;
    every other string goes through urlsplit, which alone handles what the
    direct split refuses."""
    plain = _PLAIN_URL.fullmatch(url)
    if plain is not None:
        netloc, path, raw_query = plain.groups("")
    else:
        parts = urlsplit(url)
        netloc, path, raw_query = parts.netloc, parts.path, parts.query
    # No percent-encoding layer on this fabric: query strings are split
    # raw so base64 values (with + / =) survive a round trip untouched.
    query: dict[str, str] = {}
    if raw_query:
        for item in raw_query.split("&"):
            key, _, value = item.partition("=")
            query[key] = value
    return netloc, path, query


def query_string(query: dict[str, str]) -> str:
    """The raw k=v&... join in insertion order, undoing split_url's split."""
    return "&".join(f"{k}={v}" for k, v in query.items())


class Network:
    """The wire. One instance per simulated session."""

    def __init__(self):
        self._routes: dict[str, object] = {}
        self._taps: list[Tap] = []
        self._seq = 0

    def register(self, host: str, handler) -> None:
        if host in self._routes:
            raise ValueError(f"host {host} already registered")
        self._routes[host] = handler

    def attach_tap(self) -> Tap:
        tap = Tap()
        self._taps.append(tap)
        return tap

    def detach_tap(self, tap: Tap) -> None:
        self._taps.remove(tap)

    def dispatch(self, host: str, request: HttpRequest) -> HttpResponse:
        # the host that answers, whatever Host the caller sent: taps, the
        # replay probe and the ripper read it
        request.headers["host"] = host
        handler = self._routes.get(host)
        if handler is None:
            response = error_response(404, f"no route to {host}")
        else:
            response = handler(request)
        self._seq += 1
        if self._taps:
            record = object.__new__(TapRecord)
            _set_seq(record, self._seq)
            _set_request(record, copy_request(request))
            _set_response(record, copy_response(response))
            for tap in self._taps:
                tap._records.append(record)
        return response

    def request(
        self,
        method: str,
        url: str,
        *,
        headers=None,
        cookies=None,
        body: bytes = b"",
        extra_query: dict[str, str] | None = None,
    ) -> HttpResponse:
        host, path, query = _routable(url)
        req = HttpRequest(method, path, query, headers, cookies, body)
        if extra_query:
            req.query.update(extra_query)
        return self.dispatch(host, req)

    def get(self, url: str, **kw) -> HttpResponse:
        return self.request("GET", url, **kw)

    def post(self, url: str, body: bytes = b"", **kw) -> HttpResponse:
        return self.request("POST", url, body=body, **kw)


def canonical_query(query: dict[str, str]) -> str:
    if not query:
        return "-"
    return "&".join(f"{k}={v}" for k, v in sorted(query.items()))


def export_tap(records: list[TapRecord]) -> str:
    """One line per exchange: seq, method, path, sorted query, response
    length, response hex. Stable across runs with equal seeds, which is
    exactly what the determinism checks diff."""
    lines = []
    for rec in records:
        lines.append(
            "\t".join(
                (
                    str(rec.seq),
                    rec.request.method,
                    rec.request.path,
                    canonical_query(rec.request.query),
                    str(len(rec.response.body)),
                    rec.response.body.hex(),
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
