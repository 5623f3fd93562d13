"""Fabric mechanics: routing, clock, rng, taps, header folding, export."""

from __future__ import annotations

import json
import random
from dataclasses import FrozenInstanceError
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmtestbed.services import wynk
from drmtestbed.transport import (
    ALLOWED_STATUSES,
    Clock,
    DeterministicEnv,
    ExpiringStore,
    HttpRequest,
    HttpResponse,
    Network,
    TapRecord,
    canonical_query,
    copy_request,
    copy_response,
    error_response,
    export_tap,
    hex_digits,
    json_response,
    query_string,
    split_url,
    url_host_path,
    uuid_like,
    _split_url,
)

# ----------------------------------------------------------------- clock


def test_clock_moves_only_when_told():
    clock = Clock(1000)
    assert clock.now() == 1000
    assert clock.now() == 1000
    clock.advance(25)
    assert clock.now() == 1025
    clock.set_to(99)
    assert clock.now() == 99


# --------------------------------------------------------- expiring store


def test_store_sweeps_expired_entries_from_the_front():
    clock = Clock(1000)
    store = ExpiringStore(ttl=100)
    for key in "abc":
        store.put(key, key.upper(), clock.now())
        clock.advance(40)  # a at 1000, b at 1040, c at 1080
    assert len(store) == 3
    assert store.live("a", 1099) == "A"
    assert store.live("a", 1100) is None  # dead at put time + ttl
    assert "a" in store  # refused, but not yet swept
    store.put("d", "D", 1145)  # a and b expired by now; c lives to 1180
    assert "a" not in store and "b" not in store
    assert len(store) == 2
    assert [store.live(k, 1145) for k in "cd"] == ["C", "D"]
    assert store.live("never", 1145) is None


def test_store_set_back_clock_stops_the_sweep_at_the_first_live_entry():
    clock = Clock(5000)
    store = ExpiringStore(ttl=100)
    store.put("late", 1, clock.now())  # lives to 5100
    clock.set_to(1000)
    store.put("early", 2, clock.now())  # lives to 1100, behind "late"
    clock.set_to(2000)
    store.put("next", 3, clock.now())
    # "late" is live at 2000, so "early" stays stored behind it...
    assert "early" in store and len(store) == 3
    # ...yet is refused as expired
    assert store.live("early", clock.now()) is None
    assert store.live("late", clock.now()) == 1
    clock.set_to(6000)
    store.put("last", 4, clock.now())
    assert len(store) == 1 and store.live("last", 6000) == 4


def test_store_repeat_put_renews_the_entry_at_the_back():
    store = ExpiringStore(ttl=100)
    store.put("a", 1, 0)
    store.put("b", 2, 50)
    store.put("a", 3, 60)  # a now lives to 160, behind b
    assert store.live("a", 120) == 3
    store.put("c", 4, 155)  # b expired at 150 and leads: swept
    assert "b" not in store and store.live("a", 155) == 3
    assert list(store) == ["a", "c"]  # put order
    del store["a"]
    assert "a" not in store and store.live("a", 155) is None


def test_store_with_zero_ttl_never_holds_a_live_entry():
    store = ExpiringStore(ttl=0)
    store.put("a", 1, 10)
    assert "a" in store and store.live("a", 10) is None
    store.put("b", 2, 10)
    assert "a" not in store and len(store) == 1


def test_env_determinism_and_shapes():
    a = DeterministicEnv(seed=13, clock_start=500)
    b = DeterministicEnv(seed=13, clock_start=500)
    assert a.hex_token(40) == b.hex_token(40)
    assert a.rng.randbytes(32) == b.rng.randbytes(32)
    assert uuid_like(a.rng) == uuid_like(b.rng)
    assert a.clock.now() == 500

    c = DeterministicEnv(seed=14, clock_start=500)
    assert a.hex_token(40) != c.hex_token(40)


def test_env_token_shapes():
    env = DeterministicEnv(seed=1, clock_start=0)
    token = env.hex_token(12)
    assert len(token) == 12 and all(ch in "0123456789abcdef" for ch in token)
    uid = uuid_like(env.rng)
    chunks = uid.split("-")
    assert [len(c) for c in chunks] == [8, 4, 4, 4, 12]


# ------------------------------------------------------- batched hex draws
# Each reference below is the per-digit rng.choice loop the batched draw
# replaced; equal output and an equal next rng.random() mean not one draw
# moved.

_HEX = "0123456789abcdef"
_SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
_RNG_EQUIVALENCE = settings(max_examples=60)


def _choice_loop(rng, n):
    return "".join(rng.choice(_HEX) for _ in range(n))


def _old_uuid_like(rng):
    return "-".join(_choice_loop(rng, n) for n in (8, 4, 4, 4, 12))


@_RNG_EQUIVALENCE
@given(seed=_SEEDS, n=st.integers(min_value=0, max_value=300))
def test_hex_digits_draws_what_the_choice_loop_draws(seed, n):
    new, old = random.Random(seed), random.Random(seed)
    assert hex_digits(new, n) == _choice_loop(old, n)
    assert new.random() == old.random()


@_RNG_EQUIVALENCE
@given(seed=_SEEDS, n=st.integers(min_value=0, max_value=300))
def test_hex_token_draws_what_the_choice_loop_draws(seed, n):
    env, old = DeterministicEnv(seed, 0), random.Random(seed)
    assert env.hex_token(n) == _choice_loop(old, n)
    assert env.rng.random() == old.random()


@_RNG_EQUIVALENCE
@given(seed=_SEEDS)
def test_uuid_like_draws_what_the_choice_loop_draws(seed):
    env, old = DeterministicEnv(seed, 0), random.Random(seed)
    assert uuid_like(env.rng) == _old_uuid_like(old)
    assert uuid_like(env.rng) == _old_uuid_like(old)
    assert env.rng.random() == old.random()


@_RNG_EQUIVALENCE
@given(seed=_SEEDS, now=st.integers(min_value=0, max_value=2**40))
def test_wynk_gen_bk_draws_what_the_choice_loop_draws(seed, now):
    new, old = random.Random(seed), random.Random(seed)
    assert wynk.gen_bk(now, new) == f"{now}-{_choice_loop(old, 16)}"
    assert new.random() == old.random()


@_RNG_EQUIVALENCE
@given(seed=_SEEDS)
def test_wynk_gen_device_id_draws_what_the_choice_loop_draws(seed):
    new, old = random.Random(seed), random.Random(seed)
    assert wynk.gen_device_id(new) == _old_uuid_like(old) + _old_uuid_like(old)
    assert new.random() == old.random()


def test_hex_digits_of_nothing_draws_nothing():
    new, old = random.Random(5), random.Random(5)
    assert hex_digits(new, 0) == ""
    assert new.random() == old.random()


# ---------------------------------------------------------------- headers
# Field names are case-insensitive (RFC 9110 section 5.1): a request folds
# them once, when it is built, and handlers read them lower case.


def _header_network():
    seen = []
    net = Network()
    net.register("f.test", lambda req: seen.append(req) or json_response({}))
    return net, net.attach_tap(), seen


def test_headers_case_folding():
    req = HttpRequest(method="GET", path="/", headers={"X-Bsy-Tk": "1", "HOST": "h"})
    assert req.headers == {"x-bsy-tk": "1", "host": "h"}
    net, tap, seen = _header_network()
    net.get("https://f.test/a", headers={"X-Bsy-Tk": "1", "Content-TYPE": "b"})
    want = {"x-bsy-tk": "1", "content-type": "b", "host": "f.test"}
    assert seen[0].headers == want and tap.records()[0].request.headers == want


def test_headers_last_duplicate_wins_at_first_position():
    req = HttpRequest(method="GET", path="/", headers={"B": "1", "c": "2", "b": "3"})
    assert list(req.headers.items()) == [("b", "3"), ("c", "2")]
    net, _tap, seen = _header_network()
    net.get("https://f.test/a", headers={"Range": "1", "x": "2", "RANGE": "3"})
    assert list(seen[0].headers.items()) == [("range", "3"), ("x", "2"), ("host", "f.test")]


def test_headers_of_nothing_is_empty():
    assert HttpRequest(method="GET", path="/").headers == {}
    assert HttpRequest(method="GET", path="/", headers={}).headers == {}
    net, _tap, seen = _header_network()
    net.get("https://f.test/a", headers=None)
    net.get("https://f.test/b", headers={})
    net.get("https://f.test/c")
    assert [r.headers for r in seen] == [{"host": "f.test"}] * 3


# ----------------------------------------------------- requests, responses


def test_request_validation_and_query_string():
    req = HttpRequest(method="GET", path="/x", query={"b": "2", "a": "1"})
    # insertion order, not sorted
    assert query_string(req.query) == "b=2&a=1"
    with pytest.raises(ValueError):
        HttpRequest(method="PUT", path="/x")


def test_request_header_coercion():
    req = HttpRequest(method="GET", path="/", headers={"UA": "z"})
    assert type(req.headers) is dict
    assert req.headers["ua"] == "z"


def test_query_string_joins_raw_in_insertion_order():
    assert query_string({}) == ""
    assert query_string({"b": "2", "a": "x+/="}) == "b=2&a=x+/="
    host, path, query = split_url("https://h.test/p?Policy=eyJ+/==&flag=&z=1")
    assert query_string(query) == "Policy=eyJ+/==&flag=&z=1"


def test_response_status_whitelist():
    assert ALLOWED_STATUSES == (200, 400, 401, 403, 404)
    for status in ALLOWED_STATUSES:
        HttpResponse(status=status)
    for status in (201, 301, 302, 500):
        with pytest.raises(ValueError):
            HttpResponse(status=status)


def test_json_and_error_helpers():
    resp = json_response({"ok": True})
    assert resp.status == 200
    assert resp.headers["content-type"] == "application/json"
    assert json.loads(resp.body) == {"ok": True}
    err = error_response(403, "nope")
    assert err.status == 403
    assert json.loads(err.body) == {"error": "nope"}


# ---------------------------------------------------------------- url split


def test_split_url_basic():
    host, path, query = split_url("https://api.example.test/v1/song?a=1&b=2")
    assert host == "api.example.test"
    assert path == "/v1/song"
    assert query == {"a": "1", "b": "2"}


def test_split_url_preserves_base64_values():
    # + / = must survive: there is no percent-encoding layer on this wire
    url = "https://cdn.test/x?Policy=eyJh+bGc/iJ9==&Signature=Zm9v+YmFy="
    _, _, query = split_url(url)
    assert query["Policy"] == "eyJh+bGc/iJ9=="
    assert query["Signature"] == "Zm9v+YmFy="


def test_split_url_defaults_and_errors():
    host, path, query = split_url("https://h.test")
    assert (host, path, query) == ("h.test", "/", {})
    with pytest.raises(ValueError):
        split_url("/relative/only")


def test_split_url_value_free_key():
    _, _, query = split_url("https://h.test/p?flag&x=1")
    assert query == {"flag": "", "x": "1"}


def test_split_url_hands_out_a_fresh_query_every_call():
    # the split is memoized; the dict a caller gets must not be the memo's
    url = "https://memo.test/p?a=1&b=2"
    _, _, query = split_url(url)
    query["a"] = "tampered"
    query["late"] = "1"
    assert split_url(url) == ("memo.test", "/p", {"a": "1", "b": "2"})


# Each part is often what a plain URL holds, else that salted with one odd
# character, else any text at all.
_ODD = ("\t", "\r", "\n", "\x00", "\x1f", "\x7f", " ", "#", "?", "&", "=", "@", ":",
        "[", "]", "/", "\u00e9", "\u0660", "\uff0e", "\U0001f600")


def _url_part(alphabet: str, size: int):
    plain = st.text(st.sampled_from(alphabet), max_size=size)
    return st.one_of(
        plain,
        st.tuples(plain, st.sampled_from(_ODD), plain).map("".join),
        st.text(st.characters(), max_size=size),
    )


_URLS = st.tuples(
    st.one_of(
        st.just("https://"),
        st.sampled_from(["http://", "HTTPS://", "ftp://", "https:", "//", "",
                         " https://", "\x01https://", "ht\ttps://"]),
    ),
    _url_part("abXY09.-", 6),
    st.sampled_from(["", "/", "?", "/p", "/p?a=1&b", "/?=&", "#f", "/p#"]),
    _url_part("aZ09-._~/?&=%!$'()*+,;:@", 8),
).map("".join)


def _urlsplit_parts(url):
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    return parts.netloc, parts.path, parts.query


@given(_URLS)
@example("https://Ab.c-d/p?x=1#f")
@example("https://h.test/p\tq?a=\n1")
@example("https://a[b/p")  # urlsplit raises
@example("https://h.test")
@example("seg_00001.ts")
@settings(max_examples=1000)
def test_splits_agree_with_urlsplit(url):
    # urlsplit is the reference for the direct split of plain URLs and for
    # everything handed back to urlsplit; url_host_path is the ripper's
    expected = _urlsplit_parts(url)
    if expected is None:
        for split in (_split_url, split_url, url_host_path):
            with pytest.raises(ValueError):
                split(url)
        return
    netloc, path, raw_query = expected
    pairs = [item.partition("=") for item in raw_query.split("&")] if raw_query else []
    query = {k: v for k, _, v in pairs}
    assert _split_url(url) == (netloc, path, query)
    assert url_host_path(url) == (netloc, path)
    if netloc:
        assert split_url(url) == (netloc, path or "/", query)
    else:
        with pytest.raises(ValueError):
            split_url(url)


def test_extra_query_never_leaks_into_the_next_split():
    seen = []
    net = Network()
    net.register(
        "leak.test", lambda req: seen.append(query_string(req.query)) or json_response({})
    )
    url = "https://leak.test/p?a=1"
    net.get(url, extra_query={"x": "9"})
    net.get(url)
    assert seen == ["a=1&x=9", "a=1"]
    assert split_url(url)[2] == {"a": "1"}


# ----------------------------------------------------------------- network


def wrap_route(net, host, edit) -> None:
    """Route host's requests through edit(request, answer), where answer
    is the handler it replaces; edit returns the response."""
    answer = net._routes[host]  # no public way to wrap a route
    net._routes[host] = lambda request: edit(request, answer)


def assert_refused(resp: HttpResponse, want: tuple[int, str]) -> None:
    """resp is the refusal want names, whole: status, headers, cookies, body."""
    assert resp == error_response(*want)


def _echo_network():
    net = Network()

    def handler(req: HttpRequest) -> HttpResponse:
        return json_response({"path": req.path, "host": req.headers.get("host")})

    net.register("echo.test", handler)
    return net


def test_dispatch_routes_and_sets_host_header():
    net = _echo_network()
    resp = net.get("https://echo.test/hello")
    assert resp.status == 200
    assert json.loads(resp.body) == {"path": "/hello", "host": "echo.test"}


def test_host_header_names_the_host_that_answered():
    net, tap, seen = _header_network()
    net.get("https://f.test/a", headers={"X": "1", "Host": "b.test", "Range": "2"})
    want = [("x", "1"), ("host", "f.test"), ("range", "2")]  # keeps its place
    assert list(seen[0].headers.items()) == want
    assert list(tap.records()[0].request.headers.items()) == want


def test_unknown_host_is_404():
    net = _echo_network()
    resp = net.get("https://nowhere.test/x")
    assert resp.status == 404


def test_duplicate_host_registration_rejected():
    net = _echo_network()
    with pytest.raises(ValueError):
        net.register("echo.test", lambda req: json_response({}))


def test_extra_query_merges_after_url_query():
    captured = {}
    net = Network()

    def handler(req):
        captured["qs"] = query_string(req.query)
        return json_response({})

    net.register("q.test", handler)
    net.get("https://q.test/p?a=1", extra_query={"b": "2", "c": "3"})
    assert captured["qs"] == "a=1&b=2&c=3"


def test_request_refuses_an_unknown_method():
    net = _echo_network()
    tap = net.attach_tap()
    with pytest.raises(ValueError, match="PUT"):
        net.request("PUT", "https://echo.test/p")
    assert tap.records() == []


def test_request_folds_header_keys_and_owns_its_cookies():
    seen = []
    net = Network()

    def handler(req):
        seen.append(req)
        return json_response({})

    net.register("c.test", handler)
    tap = net.attach_tap()
    cookies = {"sid": "1"}
    net.get("https://c.test/p", headers={"X-Bsy-Tk": "t", "Range": "r"}, cookies=cookies)
    req = seen[0]
    assert type(req.headers) is dict
    assert req.headers == {"x-bsy-tk": "t", "range": "r", "host": "c.test"}
    assert req.cookies is not cookies
    cookies["sid"] = "tampered"
    cookies["extra"] = "1"
    assert req.cookies == {"sid": "1"}
    assert tap.records()[0].request.cookies == {"sid": "1"}


def test_post_carries_body():
    captured = {}
    net = Network()

    def handler(req):
        captured["method"] = req.method
        captured["body"] = req.body
        return json_response({})

    net.register("p.test", handler)
    net.post("https://p.test/submit", body=b'{"x":1}')
    assert captured == {"method": "POST", "body": b'{"x":1}'}


def test_request_refuses_a_url_without_a_host():
    net = _echo_network()
    tap = net.attach_tap()
    with pytest.raises(ValueError, match="'/relative/only'"):
        net.get("/relative/only")
    assert tap.records() == []


def test_request_defaults_an_empty_path_to_slash():
    resp = _echo_network().get("https://echo.test")
    assert json.loads(resp.body) == {"path": "/", "host": "echo.test"}


def test_request_merges_extra_query_into_its_own_copy():
    seen = []
    net = Network()
    net.register("x.test", lambda req: seen.append(req) or json_response({}))
    url = "https://x.test/p?a=1&b=2"
    net.get(url, extra_query={"a": "9", "c": "3"})
    assert seen[0].query == {"a": "9", "b": "2", "c": "3"}
    assert seen[0].query is not _split_url(url)[2]
    assert _split_url(url)[2] == {"a": "1", "b": "2"}
    assert split_url(url) == ("x.test", "/p", {"a": "1", "b": "2"})


# -------------------------------------------------------------------- taps


def test_tap_sequences_increase_across_all_traffic():
    net = _echo_network()
    net.get("https://echo.test/warmup")  # before tap: bumps seq, not recorded
    tap = net.attach_tap()
    net.get("https://echo.test/a")
    net.get("https://nowhere.test/b")  # 404s are traffic too
    net.get("https://echo.test/c")
    records = tap.records()
    assert [r.seq for r in records] == [2, 3, 4]
    assert [r.request.path for r in records] == ["/a", "/b", "/c"]
    assert records[1].response.status == 404


def test_tap_reading_is_repeatable_and_detach_stops_recording():
    net = _echo_network()
    tap = net.attach_tap()
    net.get("https://echo.test/a")
    first = tap.records()
    second = tap.records()
    assert first == second
    net.detach_tap(tap)
    net.get("https://echo.test/b")
    assert len(tap.records()) == 1


def test_two_taps_see_the_same_records():
    net = _echo_network()
    t1 = net.attach_tap()
    t2 = net.attach_tap()
    net.get("https://echo.test/x")
    assert t1.records() == t2.records()


def test_tap_holds_copies_not_references():
    net = Network()

    def mutating_handler(req: HttpRequest) -> HttpResponse:
        return json_response({"q": dict(req.query)})

    net.register("m.test", mutating_handler)
    tap = net.attach_tap()
    req = HttpRequest(method="GET", path="/p", query={"k": "v"}, headers={})
    resp = net.dispatch("m.test", req)
    # mutate the originals after the exchange
    req.query["k"] = "tampered"
    req.headers["h"] = "tampered"
    resp.headers["h"] = "tampered"
    rec = tap.records()[0]
    assert rec.request.query == {"k": "v"}
    assert "h" not in rec.request.headers
    assert "h" not in rec.response.headers
    # and mutating the record's copies cannot touch the originals
    rec.request.query["z"] = "1"
    assert "z" not in req.query
    assert rec.request is not req and rec.response is not resp


def test_copy_helpers_are_deep_enough():
    req = HttpRequest(method="POST", path="/p", query={"a": "1"},
                      headers={"h": "v"}, cookies={"c": "1"}, body=b"b")
    dup = copy_request(req)
    dup.query["a"] = "2"
    dup.headers["h"] = "w"
    dup.cookies["c"] = "2"
    assert req.query["a"] == "1" and req.headers["h"] == "v" and req.cookies["c"] == "1"

    # a key gained after construction is copied as it stands, not folded
    req.headers["X-Late"] = "1"
    assert copy_request(req).headers == {"h": "v", "X-Late": "1"}

    resp = HttpResponse(status=200, headers={"x": "1"}, set_cookies={"s": "1"}, body=b"z")
    dup2 = copy_response(resp)
    dup2.headers["x"] = "2"
    dup2.set_cookies["s"] = "2"
    assert resp.headers["x"] == "1" and resp.set_cookies["s"] == "1"


def test_copies_equal_their_source_and_share_no_dict():
    req = HttpRequest(method="POST", path="/p", query={"a": "1"},
                      headers={"H": "v"}, cookies={"c": "1"}, body=b"b")
    dup = copy_request(req)
    assert dup == req and dup.headers == {"h": "v"}
    for name in ("query", "headers", "cookies"):
        assert getattr(dup, name) is not getattr(req, name)

    resp = HttpResponse(status=401, headers={"x": "1"}, set_cookies={"s": "1"},
                        body=memoryview(b"z"))
    dup2 = copy_response(resp)
    assert dup2 == resp
    for name in ("headers", "set_cookies"):
        assert getattr(dup2, name) is not getattr(resp, name)


def test_exchanges_own_their_dicts_from_construction():
    # the caller's dicts, mutated after the exchange is built, never reach
    # the exchange, the handler or the tap record
    query, headers, cookies = {"k": "v"}, {"H": "v"}, {"c": "1"}
    resp_headers, set_cookies = {"x": "1"}, {"s": "1"}
    seen = []
    net = Network()

    def handler(req):
        seen.append(req)
        resp = HttpResponse(200, resp_headers, set_cookies, b"z")
        resp_headers["x"] = "tampered"
        set_cookies["late"] = "1"
        return resp

    net.register("o.test", handler)
    tap = net.attach_tap()
    req = HttpRequest("POST", "/p", query, headers, cookies, b"b")
    for d in (query, headers, cookies):
        d["late"] = "tampered"
    query["k"] = headers["H"] = cookies["c"] = "tampered"
    resp = net.dispatch("o.test", req)
    resp_headers["y"] = set_cookies["s"] = "tampered"
    rec = tap.records()[0]
    for r in (req, seen[0], rec.request):
        assert (r.query, r.cookies) == ({"k": "v"}, {"c": "1"})
        assert r.headers == {"h": "v", "host": "o.test"}
    for r in (resp, rec.response):
        assert (r.headers, r.set_cookies) == ({"x": "1"}, {"s": "1"})


def test_dispatched_tap_record_is_a_frozen_snapshot():
    seen = []
    net = Network()

    def handler(req):
        seen.append(req)
        return HttpResponse(200, {"x": "1"}, {"s": "1"}, b"z")

    net.register("r.test", handler)
    tap = net.attach_tap()
    resp = net.get("https://r.test/p?a=1", headers={"H": "v"}, cookies={"c": "1"})
    req = seen[0]
    rec = tap.records()[0]
    assert rec == TapRecord(1, copy_request(req), copy_response(resp))
    for name, value in (("seq", 2), ("request", req), ("response", resp)):
        with pytest.raises(FrozenInstanceError):
            setattr(rec, name, value)
    assert rec.request is not req and rec.response is not resp
    for name in ("query", "headers", "cookies"):
        assert getattr(rec.request, name) is not getattr(req, name)
    for name in ("headers", "set_cookies"):
        assert getattr(rec.response, name) is not getattr(resp, name)


# ------------------------------------------------------------------ export


def test_canonical_query_sorts_and_dashes_empty():
    assert canonical_query({}) == "-"
    assert canonical_query({"b": "2", "a": "1"}) == "a=1&b=2"


def test_export_tap_exact_format():
    net = _echo_network()
    tap = net.attach_tap()
    net.get("https://echo.test/one?z=9&a=1")
    records = tap.records()
    body = records[0].response.body
    want = f"1\tGET\t/one\ta=1&z=9\t{len(body)}\t{body.hex()}\n"
    assert export_tap(records) == want


def test_export_tap_empty():
    assert export_tap([]) == ""
