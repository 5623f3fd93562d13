"""Fabric mechanics: routing, clock, rng, taps, header folding, export."""

from __future__ import annotations

import json

import pytest

from drmtestbed.transport import (
    ALLOWED_STATUSES,
    Clock,
    DeterministicEnv,
    Headers,
    HttpRequest,
    HttpResponse,
    Network,
    canonical_query,
    copy_request,
    copy_response,
    error_response,
    export_tap,
    json_response,
    read_tap,
    split_url,
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


def test_env_determinism_and_shapes():
    a = DeterministicEnv(seed=13, clock_start=500)
    b = DeterministicEnv(seed=13, clock_start=500)
    assert a.hex_token(40) == b.hex_token(40)
    assert a.rand_bytes(32) == b.rand_bytes(32)
    assert a.uuid_like() == b.uuid_like()
    assert a.now() == 500

    c = DeterministicEnv(seed=14, clock_start=500)
    assert a.hex_token(40) != c.hex_token(40)


def test_env_token_shapes():
    env = DeterministicEnv(seed=1, clock_start=0)
    token = env.hex_token(12)
    assert len(token) == 12 and all(ch in "0123456789abcdef" for ch in token)
    uid = env.uuid_like()
    chunks = uid.split("-")
    assert [len(c) for c in chunks] == [8, 4, 4, 4, 12]


# ---------------------------------------------------------------- headers


def test_headers_case_folding():
    h = Headers({"X-Bsy-Tk": "1"})
    assert h["x-bsy-tk"] == "1"
    assert h.get("X-BSY-TK") == "1"
    assert "x-bsy-TK" in h
    h["Content-Type"] = "a"
    h.update({"CONTENT-type": "b"})
    assert h["content-type"] == "b"
    h.setdefault("Host", "x")
    h.setdefault("HOST", "y")
    assert h["host"] == "x"
    assert set(h) == {"x-bsy-tk", "content-type", "host"}


def test_headers_from_pairs():
    h = Headers([("A", "1"), ("a", "2")])
    assert h == {"a": "2"}


def test_headers_copy_keeps_case_folding():
    h = Headers({"TK": "1"})
    dup = h.copy()
    assert isinstance(dup, Headers)
    assert dup.get("TK") == "1"
    dup["tk"] = "2"
    assert h["tk"] == "1"


# ----------------------------------------------------- requests, responses


def test_request_validation_and_query_string():
    req = HttpRequest(method="GET", path="/x", query={"b": "2", "a": "1"})
    # insertion order, not sorted
    assert req.query_string() == "b=2&a=1"
    with pytest.raises(ValueError):
        HttpRequest(method="PUT", path="/x")


def test_request_header_coercion():
    req = HttpRequest(method="GET", path="/", headers={"UA": "z"})
    assert isinstance(req.headers, Headers)
    assert req.headers["ua"] == "z"


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


# ----------------------------------------------------------------- network


def _echo_network():
    env = DeterministicEnv(seed=3, clock_start=0)
    net = Network(env)

    def handler(req: HttpRequest) -> HttpResponse:
        return json_response({"path": req.path, "host": req.headers.get("host")})

    net.register("echo.test", handler)
    return net


def test_dispatch_routes_and_sets_host_header():
    net = _echo_network()
    resp = net.get("https://echo.test/hello")
    assert resp.status == 200
    assert json.loads(resp.body) == {"path": "/hello", "host": "echo.test"}


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
    env = DeterministicEnv(seed=3, clock_start=0)
    net = Network(env)

    def handler(req):
        captured["qs"] = req.query_string()
        return json_response({})

    net.register("q.test", handler)
    net.get("https://q.test/p?a=1", extra_query={"b": "2", "c": "3"})
    assert captured["qs"] == "a=1&b=2&c=3"


def test_post_carries_body():
    captured = {}
    env = DeterministicEnv(seed=3, clock_start=0)
    net = Network(env)

    def handler(req):
        captured["method"] = req.method
        captured["body"] = req.body
        return json_response({})

    net.register("p.test", handler)
    net.post("https://p.test/submit", body=b'{"x":1}')
    assert captured == {"method": "POST", "body": b'{"x":1}'}


# -------------------------------------------------------------------- taps


def test_tap_sequences_increase_across_all_traffic():
    net = _echo_network()
    net.get("https://echo.test/warmup")  # before tap: bumps seq, not recorded
    tap = net.attach_tap()
    net.get("https://echo.test/a")
    net.get("https://nowhere.test/b")  # 404s are traffic too
    net.get("https://echo.test/c")
    records = read_tap(tap)
    assert [r.seq for r in records] == [2, 3, 4]
    assert [r.request.path for r in records] == ["/a", "/b", "/c"]
    assert records[1].response.status == 404


def test_tap_reading_is_repeatable_and_detach_stops_recording():
    net = _echo_network()
    tap = net.attach_tap()
    net.get("https://echo.test/a")
    first = read_tap(tap)
    second = read_tap(tap)
    assert first == second
    net.detach_tap(tap)
    net.get("https://echo.test/b")
    assert len(read_tap(tap)) == 1


def test_two_taps_see_the_same_records():
    net = _echo_network()
    t1 = net.attach_tap()
    t2 = net.attach_tap()
    net.get("https://echo.test/x")
    assert read_tap(t1) == read_tap(t2)


def test_tap_holds_copies_not_references():
    env = DeterministicEnv(seed=3, clock_start=0)
    net = Network(env)

    def mutating_handler(req: HttpRequest) -> HttpResponse:
        return json_response({"q": dict(req.query)})

    net.register("m.test", mutating_handler)
    tap = net.attach_tap()
    req = HttpRequest(method="GET", path="/p", query={"k": "v"}, headers=Headers())
    resp = net.dispatch("m.test", req)
    # mutate the originals after the exchange
    req.query["k"] = "tampered"
    req.headers["h"] = "tampered"
    resp.headers["h"] = "tampered"
    rec = read_tap(tap)[0]
    assert rec.request.query == {"k": "v"}
    assert "h" not in rec.request.headers
    assert "h" not in rec.response.headers
    # and mutating the record's copies cannot touch the originals
    rec.request.query["z"] = "1"
    assert "z" not in req.query
    assert rec.request is not req and rec.response is not resp


def test_copy_helpers_are_deep_enough():
    req = HttpRequest(method="POST", path="/p", query={"a": "1"},
                      headers=Headers({"h": "v"}), cookies={"c": "1"}, body=b"b")
    dup = copy_request(req)
    dup.query["a"] = "2"
    dup.headers["h"] = "w"
    dup.cookies["c"] = "2"
    assert req.query["a"] == "1" and req.headers["h"] == "v" and req.cookies["c"] == "1"

    resp = HttpResponse(status=200, headers={"x": "1"}, set_cookies={"s": "1"}, body=b"z")
    dup2 = copy_response(resp)
    dup2.headers["x"] = "2"
    dup2.set_cookies["s"] = "2"
    assert resp.headers["x"] == "1" and resp.set_cookies["s"] == "1"


# ------------------------------------------------------------------ export


def test_canonical_query_sorts_and_dashes_empty():
    assert canonical_query({}) == "-"
    assert canonical_query({"b": "2", "a": "1"}) == "a=1&b=2"


def test_export_tap_exact_format():
    net = _echo_network()
    tap = net.attach_tap()
    net.get("https://echo.test/one?z=9&a=1")
    records = read_tap(tap)
    body = records[0].response.body
    want = f"1\tGET\t/one\ta=1&z=9\t{len(body)}\t{body.hex()}\n"
    assert export_tap(records) == want


def test_export_tap_empty():
    assert export_tap([]) == ""
