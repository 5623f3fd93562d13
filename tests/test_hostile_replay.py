"""Handler totality under hostile values: every request one rip per
service sends is replayed with one field spoiled by one value of a
fixed table, and `dispatch` must answer each replay with an allowed
status and raise nothing.

The field is a query value, a header, a cookie, the path or the body.
The table holds values the fuzzers draw rarely or never: a lone
surrogate (no UTF-8 form), a decimal past `int()`'s digit limit, a
trailing newline, NUL, the empty string, and an array nested past the
JSON decoder's recursion limit. Some spoil a field by being appended to it,
the rest replace it. No Hypothesis: the replays are the same on every run.
"""

from __future__ import annotations

import pytest

from drmtestbed.testbed import SPECS, Testbed
from drmtestbed.transport import ALLOWED_STATUSES, HttpRequest, copy_request

_DEEP = 100_000
# (name, value, appended to the field rather than replacing it)
HOSTILE = (
    ("lone surrogate", "\ud800", True),
    ("5,000 digits", "9" * 5000, True),  # a number stays a number
    ("trailing newline", "\n", True),
    ("NUL", "\x00", True),
    ("empty", "", False),
    ("100,000-deep JSON array", "[" * _DEEP + "]" * _DEEP, False),
)
_STORES = ("query", "headers", "cookies")


def _spoiled(request: HttpRequest, value: str, append: bool):
    """Copies of request, each with one field spoiled by value."""

    def spoil(old):
        if isinstance(old, bytes):
            # a lone surrogate becomes bytes that are not UTF-8
            new = value.encode("utf-8", "surrogatepass")
            return old + new if append else new
        return old + value if append else value

    copy = copy_request(request)
    copy.path = spoil(request.path)
    yield copy
    copy = copy_request(request)
    copy.body = spoil(request.body)
    yield copy
    for attr in _STORES:
        for key, old in getattr(request, attr).items():
            copy = copy_request(request)
            getattr(copy, attr)[key] = spoil(old)
            yield copy


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_replays_with_a_hostile_field_get_allowed_statuses(spec):
    bed = Testbed()
    records, client_error = bed.tapped_run(spec.name, bed.open_tracks()[0])
    assert client_error == ""
    replays = 0
    for record in records:
        host = record.request.headers["host"]
        for name, value, append in HOSTILE:
            for request in _spoiled(record.request, value, append):
                status = bed.net.dispatch(host, request).status
                assert status in ALLOWED_STATUSES, (name, host, record.request.path)
                replays += 1
    # every tapped request gives at least its path and body sites
    assert replays >= 2 * len(HOSTILE) * len(records) > 0
