"""Signed URL grants and the media CDN they guard.

A grant is the CloudFront trio of query parameters, issued and checked
as the query dict that carries it: a base64 `Policy` naming a resource
prefix and an expiry epoch, a `Signature` that is the HMAC-SHA1 of the
policy bytes, and a `Key-Pair-Id`. The CDN recomputes the signature
over the *decoded* policy, so no amount of base64 massaging gets around
it, and the path prefix binds a grant to one asset. A query missing any
of the three is refused.

Admission is one rule, `GrantGate.admits`. Each CDN host checks a
grant's key-pair id and signature, and parses its policy, once for a run
of requests carrying that grant; expiry against the clock and the path
prefix are checked on every request. `verify_grant` is a fresh gate's
answer, so it applies the same rule with nothing cached.
"""

from __future__ import annotations

import hmac as _hmac
import json

from .crypto_kit import DecodeError, b64, b64_decode, hmac_sha1
from .hls import MediaAsset, render_index, render_master, segment_index
from .transport import Clock, HttpRequest, HttpResponse, error_response, query_string

POLICY_PARAM = "Policy"
SIGNATURE_PARAM = "Signature"
KEY_PAIR_PARAM = "Key-Pair-Id"

# "never expires" for services whose grants carry no practical timeout
FAR_FUTURE = 4102444800  # 2100-01-01T00:00:00Z
# seconds the auditor's replay probe jumps forward; a clock this close to
# FAR_FUTURE would see the never-expiring grants die, so a bed refuses it
REPLAY_HORIZON = 7200

# every path a CdnNode serves ends in one of these extensions
CONTENT_TYPES = {
    "ts": "video/mp2t",
    "m3u8": "application/vnd.apple.mpegurl",
    "aud": "audio/aud",
}


def issue_grant(
    secret: bytes, key_pair_id: str, resource_prefix: str, expires_at: int
) -> dict[str, str]:
    """The grant's query parameters, in wire order."""
    policy_doc = json.dumps(
        {"expires": int(expires_at), "resource": resource_prefix},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("ascii")
    return {
        POLICY_PARAM: b64(policy_doc),
        SIGNATURE_PARAM: b64(hmac_sha1(secret, policy_doc)),
        KEY_PAIR_PARAM: key_pair_id,
    }


def _signed_terms(
    secret: bytes, key_pair_id: str, query: dict[str, str]
) -> tuple[str, int] | None:
    """(resource prefix, expiry) of the grant in a query whose key-pair
    id and signature check out, else None: never an exception, whatever
    a correctly signed policy holds."""
    if query.get(KEY_PAIR_PARAM) != key_pair_id:
        return None
    try:
        policy_doc = b64_decode(query[POLICY_PARAM])
        given_sig = b64_decode(query[SIGNATURE_PARAM])
    except (KeyError, DecodeError):
        return None
    if not _hmac.compare_digest(given_sig, hmac_sha1(secret, policy_doc)):
        return None
    try:
        policy = json.loads(policy_doc)
        resource = policy["resource"]
        expires = int(policy["expires"])
    # OverflowError: an infinite expiry (json reads 1e400 as inf);
    # RecursionError: a deeply nested policy
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    if not isinstance(resource, str):
        return None
    return resource, expires


def verify_grant(
    secret: bytes,
    key_pair_id: str,
    query: dict[str, str],
    resource_path: str,
    now: int,
) -> bool:
    return GrantGate(secret, key_pair_id).admits(query, resource_path, now)


class GrantGate:
    """The one holder of a CDN host's key pair, and the only object on
    the CDN side that sees a secret: the service that owns the host
    builds it from its config, issues the host's grants through it and
    hands it to the `CdnNode` that serves them. `admits` is the one
    admission rule. The terms of the last grant whose signature checked
    out are kept, so a player fetching a stream chunk by chunk under one
    grant pays for the signature once. One slot,
    because players read one stream front to back and server state stays
    bounded; it never holds a decision, so expiry and path are judged on
    every request."""

    def __init__(self, secret: bytes, key_pair_id: str):
        self._secret = secret
        self._key_pair_id = key_pair_id
        # (policy, signature, terms) of the last grant that checked out
        self._last: tuple[str, str, tuple[str, int]] | None = None

    def grant(self, resource_prefix: str, expires_at: int) -> dict[str, str]:
        return issue_grant(self._secret, self._key_pair_id, resource_prefix, expires_at)

    def signed_url(self, host: str, path: str, expires_at: int) -> str:
        """https://host/path carrying a grant for exactly that path."""
        return f"https://{host}{path}?{query_string(self.grant(path, expires_at))}"

    def admits(self, query: dict[str, str], resource_path: str, now: int) -> bool:
        last = self._last
        # a hit compares the query's values in place: a missing one reads
        # None, which equals no cached string
        if (
            last is not None
            and query.get(SIGNATURE_PARAM) == last[1]
            and query.get(POLICY_PARAM) == last[0]
            and query.get(KEY_PAIR_PARAM) == self._key_pair_id
        ):
            terms = last[2]
        else:
            terms = _signed_terms(self._secret, self._key_pair_id, query)
            if terms is None:
                return False
            self._last = (query[POLICY_PARAM], query[SIGNATURE_PARAM], terms)
        resource, expires = terms
        return now < expires and resource_path.startswith(resource)


class CdnNode:
    """One media host: pre-rendered HLS trees and whole-file variants,
    every path gated by a grant for that path. The node holds no secret:
    it signs and checks grants through the `GrantGate` it is given.

    A segment body is a chunk of the asset's own cut (`MediaAsset.cut`),
    so CDNs that serve one asset at one rate and chunk size serve the
    same chunk objects, and a whole file is the catalog's variant
    object; the node copies no media and builds only its own URIs."""

    def __init__(self, host: str, gate: GrantGate, clock: Clock, chunk_bytes: int):
        self.host = host
        self._gate = gate
        self._clock = clock
        self._chunk_bytes = chunk_bytes
        self._content: dict[str, bytes | memoryview] = {}  # path -> body

    def url(self, path: str) -> str:
        return f"https://{self.host}{path}"

    # ---- tree construction ------------------------------------------------

    def add_hls_asset(self, key: str, asset: MediaAsset, bitrates=None) -> None:
        rates = sorted(bitrates or asset.variants, reverse=True)
        origin = len(self.url(""))  # each chunk lives at its index URI's path
        master = []
        for rate in rates:
            base = f"/hls/{key}/{rate}/"
            chunks = asset.cut(rate, self._chunk_bytes)
            index = segment_index(len(chunks), self.url(base))
            for chunk, (uri, _seconds) in zip(chunks, index):
                self._content[uri[origin:]] = chunk
            self._content[f"{base}index.m3u8"] = render_index(index).encode("utf-8")
            # single-variant master, for services that hand out one URI
            # per quality instead of a combined ladder
            entry = (rate * 1000, self.url(f"{base}index.m3u8"))
            self._content[f"{base}master.m3u8"] = render_master([entry]).encode("utf-8")
            master.append(entry)
        self._content[f"/hls/{key}/master.m3u8"] = render_master(master).encode("utf-8")

    def add_file_asset(self, key: str, asset: MediaAsset, bitrates=None) -> None:
        for rate in sorted(bitrates or asset.variants, reverse=True):
            self._content[f"/file/{key}/{rate}.aud"] = asset.variant(rate)

    # ---- grant issuance (service side) -------------------------------------

    def hls_grant(self, key: str, expires_at: int) -> dict[str, str]:
        return self._gate.grant(f"/hls/{key}/", expires_at)

    def signed_file_url(self, key: str, rate: int, expires_at: int) -> str:
        return self._gate.signed_url(self.host, f"/file/{key}/{rate}.aud", expires_at)

    def master_url(self, key: str) -> str:
        return self.url(f"/hls/{key}/master.m3u8")

    def variant_master_url(self, key: str, rate: int) -> str:
        return self.url(f"/hls/{key}/{rate}/master.m3u8")

    # ---- serving ------------------------------------------------------------

    def handler(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            return error_response(400, "GET only")
        body = self._content.get(request.path)
        if body is None:
            return error_response(404, "no such object")
        if not self._gate.admits(request.query, request.path, self._clock.now()):
            return error_response(403, "grant rejected")
        ctype = CONTENT_TYPES[request.path.rpartition(".")[2]]
        return HttpResponse(status=200, headers={"content-type": ctype}, body=body)
