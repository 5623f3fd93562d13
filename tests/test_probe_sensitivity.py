"""Probe sensitivity: each practices probe can flip, and flips alone.

Each row applies one perturbation to a default bed and names the cells
it must flip, if any. The audit of every service must then read
`EXPECTED` with exactly those cells flipped. On a second bed with the
same perturbation, the default principal must still play an open and a
premium track on each service the row names: a change that shuts the
paying user out is an outage, not a practice.

Five reference clients (wynk-v1, wynk-v2, jiosaavn, gaana, hungama)
present no identity, so the bed serves the default principal, an
anonymous one and a free one alike. A change to one of their services
alone can refuse an anonymous or a free user only by refusing the
default one too. Their `mandatory_user_identification` and
`premium_access_restrictions` rows stay in the table as strict xfails:
each flips its cell, or would, but shuts the default principal out.

`PRINCIPAL_ROWS` lends those clients an identity from the test side:
every request a client makes while the bed runs it for a principal
carries an `x-principal` header naming that principal (anonymous sends
none), and a CDN refuses gated media unless the header names a principal
it allows. With an identity to tell apart, each of the ten cells flips.
"""

from __future__ import annotations

import contextvars
import json

import pytest

from drmtestbed import benchmark as bench
from drmtestbed.auditor import (
    PRACTICE_FIELDS,
    AuditRefused,
    audit,
    audit_all,
)
from drmtestbed.clients import ProtocolFailure
from drmtestbed.config import TestbedConfig
from drmtestbed.testbed import ANONYMOUS, DEFAULT_PRINCIPAL, FREE_TIER, SPECS, Testbed
from drmtestbed.transport import (
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
    split_url,
)
from drmtestbed.webassets import MINIFIED_BANNER

from test_auditor import EXPECTED, EXTENDED_AUDIT_SERVICES

_SPEC = {spec.audit_name: spec for spec in SPECS}
_CDN_OWNER = {
    "wynk-v1": "wynk", "wynk-v2": "wynk", "jiosaavn": "saavn",
    "gaana": "gaana", "hungama": "hungama",
}
_XOR = bytes(i ^ 0x5A for i in range(256))
_MOVED_LICENSE_PATH = "/v2/license"


def _wrap(bed, host, edit) -> None:
    """Route host's requests through edit(request, answer)."""
    answer = bed.net._routes[host]  # no public way to wrap a route
    bed.net._routes[host] = lambda request: edit(request, answer)


def _with_body(response, body) -> HttpResponse:
    """A copy of response with another body; the answer itself may be a
    service's cached object."""
    return HttpResponse(response.status, response.headers, response.set_cookies, body)


def _edit_bundle(service, change):
    """The service's client bundle, its text passed through change."""
    def perturb(bed):
        host, path, _query = split_url(_SPEC[service].bundle_url)

        def edit(request, answer):
            response = answer(request)
            if request.path == path and response.status == 200:
                text = change(bed, response.body.decode("utf-8"))
                response = _with_body(response, text.encode("utf-8"))
            return response

        _wrap(bed, host, edit)
    return perturb


def _xor_media(service):
    """The service's CDN XORs every media body it serves."""
    def perturb(bed):
        def edit(request, answer):
            response = answer(request)
            if response.status == 200 and request.path.endswith((".ts", ".aud")):
                response = _with_body(response, bytes(response.body).translate(_XOR))
            return response

        _wrap(bed, getattr(bed, _CDN_OWNER[service]).cdn.host, edit)
    return perturb


def _gate_cdn_media(bed, service, premium_only, admits) -> None:
    """The service's CDN refuses media (of premium tracks only, or of
    every track) to a request that admits(request) turns away."""
    gated = {
        id(variant)
        for asset in bed.catalog.assets.values()
        if asset.premium or not premium_only
        for variant in asset.variants.values()
    }

    def edit(request, answer):
        response = answer(request)
        body = response.body
        # a CDN copies no media: a body is a variant or a view of one
        media = body.obj if isinstance(body, memoryview) else body
        if id(media) in gated and not admits(request):
            return error_response(401, "sign in")
        return response

    _wrap(bed, getattr(bed, _CDN_OWNER[service]).cdn.host, edit)


def _cdn_demands_identity(service, premium_only):
    """The service's CDN refuses media (of premium tracks only, or of
    every track) to a request that carries no `authorization` header."""
    def perturb(bed):
        _gate_cdn_media(
            bed, service, premium_only, lambda request: "authorization" in request.headers
        )
    return perturb


def _welcome_nobody(bed):
    bed.benchmark.users["nobody"] = ("wrong-password", "free")


def _everyone_premium(bed):
    """Only the benchmark's resolve reads every user's tier as premium;
    the user table itself, which picks the free principal, stays."""
    service = bed.benchmark
    resolve = service._resolve

    def everyone_premium(request):
        users = service.users
        service.users = {user: (password, "premium") for user, (password, _) in users.items()}
        try:
            return resolve(request)
        finally:
            service.users = users

    service._resolve = everyone_premium


def _move_license(bed):
    """resolve names a license URL on another path, and the license host
    answers there with a new request on the old one."""
    def resolve(request, answer):
        response = answer(request)
        if request.path.startswith(bench.RESOLVE_PREFIX) and response.status == 200:
            doc = json.loads(response.body)
            doc["license_url"] = f"https://{bench.HOST_LICENSE}{_MOVED_LICENSE_PATH}"
            response = json_response(doc)
        return response

    def license_(request, answer):
        if request.path != _MOVED_LICENSE_PATH:
            return error_response(404, "no such endpoint")
        moved = HttpRequest(
            request.method, bench.LICENSE_PATH, request.query,
            request.headers, request.cookies, request.body,
        )
        return answer(moved)

    _wrap(bed, bench.HOST_API, resolve)
    _wrap(bed, bench.HOST_LICENSE, license_)


def _row(name, field, services, perturb=None, marks=(), **config):
    return pytest.param(
        field, tuple(services), perturb, config,
        id=f"{field}-{'+'.join(services) or 'none'}-{name}", marks=marks,
    )


_NO_IDENTITY = pytest.mark.xfail(
    strict=True,
    raises=ProtocolFailure,
    reason="the reference client presents no identity, so the service "
    "can refuse an anonymous or a free user only by refusing the default one",
)

ROWS = [
    _row("nobody-logs-in", "mandatory_user_identification",
         ["spotify-benchmark"], _welcome_nobody),
    _row("everyone-premium", "premium_access_restrictions",
         ["spotify-benchmark"], _everyone_premium),
    _row("device-key-in-bundle", "hardcoded_keys", ["spotify-benchmark"],
         _edit_bundle("spotify-benchmark", lambda bed, text: text
                      + f';var deviceKey="{bed.config.key("device_key_hex").hex()}"')),
    _row("token-secret-in-bundle", "hardcoded_keys", ["hungama"],
         _edit_bundle("hungama", lambda bed, text: text
                      + f';var tokenSecret="{bed.config.key("hungama_token_secret_hex").hex()}"')),
    # a bundle is judged only on its own service's secrets, so another
    # service's key in it flips no cell
    _row("gaana-key-in-hungama-bundle", "hardcoded_keys", [],
         _edit_bundle("hungama", lambda bed, text: text
                      + f';var mediaKey="{bed.config.key("gaana_key_hex").hex()}"')),
    # wynk-v1 and wynk-v2 ship one bundle
    *(
        _row("no-banner", "obfuscation_minification", services,
             _edit_bundle(services[0], lambda bed, text: text.replace(MINIFIED_BANNER, "")))
        for services in (
            ["spotify-benchmark"], ["wynk-v2", "wynk-v1"], ["jiosaavn"], ["gaana"], ["hungama"],
        )
    ),
    *(
        _row("xor-media", "streamed_content_encryption", [service], _xor_media(service))
        for service in ("jiosaavn", "gaana", "hungama")
    ),
    _row("token-ttl-60", "cookie_auth_timeout", ["hungama"], hungama_token_ttl=60),
    _row("bearer-ttl-1e9", "cookie_auth_timeout", ["spotify-benchmark"], bearer_ttl=10**9),
    _row("license-moved", "drm_scheme", ["spotify-benchmark"], _move_license),
    # one row per cell; wynk-v1 and wynk-v2 share a CDN, so their
    # perturbations reach both
    *(
        _row(name, field, [service], _cdn_demands_identity(service, premium_only),
             marks=_NO_IDENTITY)
        for service in ("wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama")
        for name, field, premium_only in (
            ("cdn-wants-identity", "mandatory_user_identification", False),
            ("cdn-wants-identity-for-premium", "premium_access_restrictions", True),
        )
    ),
]


_IDENTITY_FIELDS = ("mandatory_user_identification", "premium_access_restrictions")
_PRINCIPAL = contextvars.ContextVar("principal", default=ANONYMOUS)
_PRINCIPAL_HEADER = "x-principal"


def _present_principals(bed) -> None:
    """While the bed runs a client for a principal, every request that
    client makes names the principal in an `x-principal` header; an
    anonymous one sends none. `authorization` cannot carry it, since the
    benchmark's Bearer token already does."""
    run_client, request = bed.run_client, bed.net.request

    def run_as(service, track, quality=None, principal=DEFAULT_PRINCIPAL):
        token = _PRINCIPAL.set(principal)
        try:
            return run_client(service, track, quality, principal)
        finally:
            _PRINCIPAL.reset(token)

    def request_as(method, url, *, headers=None, **kw):
        principal = _PRINCIPAL.get()
        if principal != ANONYMOUS:
            headers = {**(headers or {}), _PRINCIPAL_HEADER: principal}
        return request(method, url, headers=headers, **kw)

    bed.run_client, bed.net.request = run_as, request_as


def _cdn_admits_principals(service, premium_only):
    """Principals present themselves, and the service's CDN refuses media
    of premium tracks to all but the default principal, or of every
    track to an anonymous one."""
    allowed = {DEFAULT_PRINCIPAL} if premium_only else {DEFAULT_PRINCIPAL, FREE_TIER}

    def perturb(bed):
        _present_principals(bed)
        _gate_cdn_media(
            bed, service, premium_only,
            lambda request: request.headers.get(_PRINCIPAL_HEADER) in allowed,
        )
    return perturb


def _cdn_peers(service) -> list[str]:
    """The service first, then every other service its CDN serves."""
    return [service] + [
        peer for peer, owner in _CDN_OWNER.items()
        if owner == _CDN_OWNER[service] and peer != service
    ]


# one row per identity cell; a wynk perturbation reaches both wynk cells
PRINCIPAL_ROWS = [
    _row(name, field, _cdn_peers(service), _cdn_admits_principals(service, premium_only))
    for service in ("wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama")
    for name, field, premium_only in (
        ("cdn-wants-principal", _IDENTITY_FIELDS[0], False),
        ("cdn-wants-principal-for-premium", _IDENTITY_FIELDS[1], True),
    )
]


def _perturbed_bed(perturb, config) -> Testbed:
    bed = Testbed(TestbedConfig(**config))
    if perturb is not None:
        perturb(bed)
    return bed


@pytest.mark.parametrize("field, services, perturb, config", ROWS + PRINCIPAL_ROWS)
def test_a_perturbation_flips_only_its_cells(field, services, perturb, config):
    bed = _perturbed_bed(perturb, config)
    for service in services:
        spec = _SPEC[service]
        for track in (bed.open_tracks()[0], bed.premium_tracks()[0]):
            assert bed.run_client(spec.name, track)

    cards = audit_all(_perturbed_bed(perturb, config), EXTENDED_AUDIT_SERVICES)
    got = {name: tuple(card.as_dict().values()) for name, card in cards.items()}
    want = {name: list(row) for name, row in EXPECTED.items()}
    column = PRACTICE_FIELDS.index(field)
    for service in services:
        want[service][column] = not want[service][column]
    assert got == {name: tuple(row) for name, row in want.items()}


def test_every_probe_has_a_row_that_flips_it():
    flipping = {param.values[0] for param in ROWS if param.values[1] and not param.marks}
    assert flipping == set(PRACTICE_FIELDS)


def test_every_identity_probe_has_a_row_per_service():
    cells = {
        (param.values[0], service)
        for param in ROWS
        if param.values[0] in ("mandatory_user_identification", "premium_access_restrictions")
        for service in param.values[1]
    }
    assert cells == {
        (field, service)
        for field in ("mandatory_user_identification", "premium_access_restrictions")
        for service in EXTENDED_AUDIT_SERVICES
    }


def test_every_identity_cell_has_a_principal_row():
    cells = [(param.values[0], param.values[1][0]) for param in PRINCIPAL_ROWS]
    assert sorted(cells) == sorted(
        (field, service)
        for field in _IDENTITY_FIELDS
        for service in EXTENDED_AUDIT_SERVICES
        if service != "spotify-benchmark"
    )


def test_presented_principals_alone_move_no_verdict():
    bed = Testbed()
    _present_principals(bed)
    cards = audit_all(bed, EXTENDED_AUDIT_SERVICES)
    assert {name: tuple(card.as_dict().values()) for name, card in cards.items()} == EXPECTED


@pytest.mark.parametrize("service", ["jiosaavn", "gaana", "hungama", "wynk-v2", "wynk-v1"])
def test_premium_served_to_nobody_refuses_the_row(service):
    # the reference run plays the premium track as the paying user, so a
    # service that serves premium media to no one has no "yes" to earn
    bed = _perturbed_bed(_cdn_demands_identity(service, premium_only=True), {})
    with pytest.raises(AuditRefused, match=(
        rf"^{service}: reference run failed: .*\(status 401\)$"
    )):
        audit(bed, service)
