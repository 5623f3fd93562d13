"""Client totality: whatever a 200 body holds, every reference client
returns its audio as a tuple of bytes-like chunks or stops with
ProtocolFailure, the one error the harness
and the auditor catch.

Each play runs one client on a fresh default bed whose dispatch
rewrites the body of one chosen 200 answer, the n-th the client gets.
The fuzzer truncates, empties or garbles that body and runs
derandomized, so a failure reproduces on every run.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed.clients import ProtocolFailure
from drmtestbed.testbed import RIP_SERVICES, Testbed
from drmtestbed.transport import copy_response


def _play(service: str, nth: int, rewrite) -> tuple:
    bed = Testbed()
    dispatch, answers = bed.net.dispatch, itertools.count()

    def rewriting_dispatch(host, request):
        response = dispatch(host, request)
        if response.status == 200 and next(answers) == nth:
            response = copy_response(response)  # servers may reuse theirs
            response.body = rewrite(bytes(response.body))
        return response

    bed.net.dispatch = rewriting_dispatch
    return bed.run_client(service, "trk1")


def _spoil(body: bytes, mode: str, at: int, mask: int) -> bytes:
    if mode == "empty" or not body:
        return b""
    at %= len(body)
    if mode == "truncate":
        return body[:at]
    return body[:at] + bytes([body[at] ^ mask]) + body[at + 1:]


@settings(max_examples=200)
@given(
    service=st.sampled_from(RIP_SERVICES),
    nth=st.integers(0, 11),
    mode=st.sampled_from(("truncate", "empty", "garble")),
    at=st.integers(0, 1 << 20),
    mask=st.integers(1, 255),
)
def test_client_returns_bytes_or_protocol_failure(service, nth, mode, at, mask):
    try:
        audio = _play(service, nth, lambda body: _spoil(body, mode, at, mask))
    except ProtocolFailure:
        return
    assert type(audio) is tuple
    assert all(type(chunk) in (bytes, memoryview) for chunk in audio)


@pytest.mark.parametrize("body", [
    pytest.param(b"[]", id="not-an-object"),
    pytest.param(b"{}", id="no-fields"),
    pytest.param(b'{"uid": "u1", "token": 5}', id="field-of-the-wrong-type"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-past-the-recursion-limit"),
    pytest.param(b"{not json", id="not-json"),
])
def test_json_answer_of_the_wrong_shape_is_a_protocol_failure(body):
    # the wynk-v1 device registration, the first 200 answer of its play
    with pytest.raises(ProtocolFailure, match="^unreadable answer: "):
        _play("wynk-v1", 0, lambda _body: body)


def _file_url_without_token(body: bytes) -> bytes:
    data = json.loads(body)
    data["file"] = data["file"].partition("?")[0]
    return json.dumps(data).encode()


@pytest.mark.parametrize("service,nth,rewrite,detail", [
    # wynk-v1's answers: registration, stream authorization, master
    pytest.param("wynk-v1", 2, lambda _body: b"#EXTM3U\n",
                 "manifest lists no variants", id="master-with-no-variants"),
    pytest.param("hungama", 0, _file_url_without_token,
                 "file url carries no token", id="file-url-with-no-token"),
])
def test_answer_that_parses_but_names_nothing_is_a_protocol_failure(
    service, nth, rewrite, detail
):
    with pytest.raises(ProtocolFailure, match=f"^{detail}$"):
        _play(service, nth, rewrite)
