"""In-memory HTTP fabric with an injected clock, a seeded rng and
passive wire taps.

Nothing here opens a socket. Services register a handler per host,
clients dispatch requests through the Network, and every exchange is
copied into any attached taps with a strictly increasing sequence
number. Tap readers only ever see copies, so observing traffic can
never change it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from urllib.parse import urlsplit

ALLOWED_STATUSES = (200, 400, 401, 403, 404)
_UUID_SHAPE = (8, 4, 4, 4, 12)


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


class DeterministicEnv:
    """Clock plus rng. Two envs built from the same (seed, start) produce
    identical draws in identical call order, which is what makes whole
    transcripts reproducible byte for byte."""

    def __init__(self, seed: int, clock_start: int):
        self.clock = Clock(clock_start)
        self.rng = random.Random(seed)

    def now(self) -> int:
        return self.clock.now()

    def hex_token(self, n_chars: int) -> str:
        return "".join(self.rng.choice("0123456789abcdef") for _ in range(n_chars))

    def rand_bytes(self, n: int) -> bytes:
        return self.rng.randbytes(n)

    def uuid_like(self) -> str:
        return "-".join(self.hex_token(n) for n in _UUID_SHAPE)


class Headers(dict):
    """dict with case-folded keys; 'TK' and 'tk' are the same header."""

    def __init__(self, items=None):
        super().__init__()
        if items:
            pairs = items.items() if isinstance(items, dict) else items
            for k, v in pairs:
                self[k] = v

    def __setitem__(self, key, value):
        super().__setitem__(key.lower(), value)

    def __getitem__(self, key):
        return super().__getitem__(key.lower())

    def __contains__(self, key):
        return super().__contains__(key.lower())

    def get(self, key, default=None):
        return super().get(key.lower(), default)

    def setdefault(self, key, default=None):
        return super().setdefault(key.lower(), default)

    def copy(self):
        return Headers(self)

    def update(self, items=None, **kw):
        if items:
            pairs = items.items() if isinstance(items, dict) else items
            for k, v in pairs:
                self[k] = v
        for k, v in kw.items():
            self[k] = v


@dataclass
class HttpRequest:
    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)  # insertion-ordered
    headers: Headers = field(default_factory=Headers)
    cookies: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self):
        if self.method not in ("GET", "POST"):
            raise ValueError(f"method {self.method!r}")
        if not isinstance(self.headers, Headers):
            self.headers = Headers(self.headers)

    def query_string(self) -> str:
        return "&".join(f"{k}={v}" for k, v in self.query.items())


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    set_cookies: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def __post_init__(self):
        if self.status not in ALLOWED_STATUSES:
            raise ValueError(f"status {self.status} not in {ALLOWED_STATUSES}")


def json_response(payload, status: int = 200) -> HttpResponse:
    return HttpResponse(
        status=status,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8"),
    )


def error_response(status: int, message: str) -> HttpResponse:
    return json_response({"error": message}, status=status)


@dataclass(frozen=True)
class TapRecord:
    seq: int
    request: HttpRequest
    response: HttpResponse


class Tap:
    def __init__(self):
        self._records: list[TapRecord] = []

    def records(self) -> list[TapRecord]:
        return list(self._records)


def read_tap(tap: Tap) -> list[TapRecord]:
    """Non-destructive: reading twice gives the same records."""
    return tap.records()


def copy_request(req: HttpRequest) -> HttpRequest:
    return HttpRequest(
        method=req.method,
        path=req.path,
        query=dict(req.query),
        headers=Headers(req.headers),
        cookies=dict(req.cookies),
        body=req.body,
    )


def copy_response(resp: HttpResponse) -> HttpResponse:
    return HttpResponse(
        status=resp.status,
        headers=dict(resp.headers),
        set_cookies=dict(resp.set_cookies),
        body=resp.body,
    )


def split_url(url: str) -> tuple[str, str, dict[str, str]]:
    # No percent-encoding layer on this fabric: query strings are split
    # raw so base64 values (with + / =) survive a round trip untouched.
    parts = urlsplit(url)
    if not parts.netloc:
        raise ValueError(f"url without host: {url!r}")
    query: dict[str, str] = {}
    if parts.query:
        for item in parts.query.split("&"):
            key, _, value = item.partition("=")
            query[key] = value
    return parts.netloc, parts.path or "/", query


class Network:
    """The wire. One instance per simulated session."""

    def __init__(self, env: DeterministicEnv):
        self.env = env
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
        request.headers.setdefault("host", host)
        handler = self._routes.get(host)
        if handler is None:
            response = error_response(404, f"no route to {host}")
        else:
            response = handler(request)
        self._seq += 1
        if self._taps:
            record = TapRecord(
                seq=self._seq,
                request=copy_request(request),
                response=copy_response(response),
            )
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
        host, path, query = split_url(url)
        if extra_query:
            query.update(extra_query)
        req = HttpRequest(
            method=method,
            path=path,
            query=query,
            headers=Headers(headers or {}),
            cookies=dict(cookies or {}),
            body=body,
        )
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
