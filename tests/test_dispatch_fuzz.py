"""Handler totality: whatever request reaches a mounted host, `dispatch`
answers it with an allowed status and raises nothing.

Two request sources drive every host the default bed mounts: requests
built from scratch, and real requests tapped from every bundle fetch and
every reference client, each with one field changed or dropped. Every
field of every kind of tapped exchange is mutated in every example, so a
rare exchange such as the wynk puzzle check gets as many tries as a media
chunk. The fuzzers run derandomized, so a failure reproduces on every run.
"""

from __future__ import annotations

import functools
import itertools
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed.testbed import RIP_SERVICES, SPECS, Testbed
from drmtestbed.transport import ALLOWED_STATUSES, HttpRequest, copy_request

_text = st.text(max_size=24)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=4,
)
_body = st.binary(max_size=64) | _json.map(lambda doc: json.dumps(doc).encode())
_STORES = ("query", "headers", "cookies")


def _kind(request: HttpRequest) -> str:
    """Method, host and path with ids and numbers folded: one name per
    kind of exchange, however many chunks or tracks it was sent for."""
    path = re.sub(r"[0-9a-f]{8,}|\d+", "#", request.path)
    return f"{request.method} {request.headers['host']}{path}"


def _played_bed() -> tuple[Testbed, list[HttpRequest]]:
    """A default bed after every bundle fetch and every client on one open
    track, and the requests they sent. The bed is seeded, so every call
    builds the same state and the same requests."""
    bed = Testbed()
    tap = bed.net.attach_tap()
    try:
        for spec in SPECS:
            bed.net.get(spec.bundle_url)
        plays = [(service, None) for service in RIP_SERVICES]
        plays += [("jiosaavn", "64"), ("gaana", "low"), ("hungama", "medium")]
        for service, quality in plays:
            bed.run_client(service, bed.open_tracks()[0], quality)
    finally:
        bed.net.detach_tap(tap)
    return bed, [rec.request for rec in tap.records()]


@functools.cache
def _corpus() -> tuple[Testbed, tuple[str, ...], tuple[HttpRequest, ...]]:
    """A played bed, the hosts it mounts, and the last request of each
    kind it saw. The last, because the quality plays come last and add
    the quality cookie and rates."""
    bed, requests = _played_bed()
    hosts = tuple(sorted(bed.net._routes))  # no public listing of routes
    kinds = {_kind(request): request for request in requests}
    return bed, hosts, tuple(kinds.values())


def _dispatch(bed: Testbed, request: HttpRequest, host: str | None = None) -> None:
    response = bed.net.dispatch(host or request.headers["host"], request)
    assert response.status in ALLOWED_STATUSES


def _json_body(request: HttpRequest) -> dict | None:
    try:
        doc = json.loads(request.body)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and doc else None


@functools.cache
def _known(attr: str) -> list[str]:
    """Every key some tapped request used in that store."""
    return sorted({key for req in _corpus()[2] for key in getattr(req, attr)})


def _keys(attr: str):
    return st.sampled_from(_known(attr)) | _text


def test_corpus_reaches_every_mounted_host():
    _bed, hosts, seeds = _corpus()
    assert len(hosts) == 15
    assert {req.headers["host"] for req in seeds} == set(hosts)


def _arbitrary():
    _bed, hosts, seeds = _corpus()
    paths = st.sampled_from(sorted({req.path for req in seeds}))
    request = st.builds(
        HttpRequest,
        st.sampled_from(("GET", "POST")),
        paths | st.builds(str.__add__, paths, _text) | st.text(max_size=48),
        st.dictionaries(_keys("query"), _text, max_size=4),
        st.dictionaries(_keys("headers"), _text, max_size=4),
        st.dictionaries(_keys("cookies"), _text, max_size=2),
        _body,
    )
    return st.tuples(request, st.sampled_from(hosts))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(st.deferred(_arbitrary))
def test_dispatch_is_total_on_arbitrary_requests(case):
    # one bed for every example: a request built from scratch carries no
    # live token, so it hardly ever changes what the bed holds
    _dispatch(_corpus()[0], *case)


def test_dispatch_is_total_with_one_field_dropped_or_flipped():
    bed = _played_bed()[0]
    for seed in _corpus()[2]:
        flipped = copy_request(seed)
        flipped.method = "POST" if seed.method == "GET" else "GET"
        _dispatch(bed, flipped)
        doc = _json_body(seed)
        for key in doc or ():
            dropped = copy_request(seed)
            rest = {k: v for k, v in doc.items() if k != key}
            dropped.body = json.dumps(rest).encode()
            _dispatch(bed, dropped)
        for attr in _STORES:
            for key in getattr(seed, attr):
                if key != "host":  # dispatch routes on its own argument
                    dropped = copy_request(seed)
                    del getattr(dropped, attr)[key]
                    _dispatch(bed, dropped)


_POOL = 5  # values drawn per example and shared out over the sites


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    st.lists(_text, min_size=_POOL, max_size=_POOL),
    st.lists(_json, min_size=_POOL, max_size=_POOL),
    st.lists(_body, min_size=_POOL, max_size=_POOL),
    st.integers(0, 2**16),
)
def test_dispatch_is_total_on_mutated_tapped_requests(texts, docs, bodies, salt):
    # One site is one field of one kind of tapped exchange. Every site is
    # mutated once per example, taking the next value of the example's
    # pools, so the pools are drawn once rather than once per site. Each
    # example gets a bed of its own, so a mutant that still succeeds (a
    # fresh wynk puzzle, say) cannot stale the seeds of later examples.
    bed = _played_bed()[0]
    turn = itertools.count(salt)

    def altered(value: str) -> str:
        """Junk after a real value, a prefix of it, or junk alone."""
        n = next(turn)
        junk = texts[n % _POOL]
        return (value + junk, value[: n % (len(value) + 1)], junk)[n % 3]

    for seed in _corpus()[2]:
        request = copy_request(seed)
        request.path = altered(seed.path)
        _dispatch(bed, request)

        request = copy_request(seed)
        request.body = bodies[next(turn) % _POOL]
        _dispatch(bed, request)

        doc = _json_body(seed)
        for key in doc or ():
            request = copy_request(seed)
            changed = {**doc, key: docs[next(turn) % _POOL]}
            request.body = json.dumps(changed).encode()
            _dispatch(bed, request)

        for attr in _STORES:
            request = copy_request(seed)
            names = _known(attr)
            n = next(turn)
            name = names[n % len(names)] if n % 2 else texts[n % _POOL]
            getattr(request, attr)[name] = altered("")
            _dispatch(bed, request)
            for key, value in getattr(seed, attr).items():
                if key != "host":
                    request = copy_request(seed)
                    getattr(request, attr)[key] = altered(value)
                    _dispatch(bed, request)
