"""Mechanical practices audit: seven yes/no probes per service, each
one an experiment against the live testbed rather than a hand-filled
table. The probes only use what a client or an on-path observer could
use: public endpoints, static assets, a tap, and the injected clock.

A row rests on a working baseline: `audit` raises `AuditRefused` when
the default client's tapped run fails, when the exchange the replay
probe would replay was not a 200, or when the client bundle cannot be
fetched, since a harness failure would otherwise read as protection.

Two probes recognise a constant rather than the property in general:
`drm_scheme` looks for a request on the benchmark's `LICENSE_PATH`, and
`obfuscation_minification` looks for the one `MINIFIED_BANNER` string
in the client bundle. A license exchange on another path, or a bundle
minified without that banner, reads "no".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .benchmark import LICENSE_PATH
from .cdn import REPLAY_HORIZON
from .clients import ProtocolFailure
from .ripper import tap_rip
from .testbed import ANONYMOUS, FREE_TIER, SPECS, ServiceSpec, Testbed
from .transport import copy_request
from .webassets import MINIFIED_BANNER

# the five services the comparison table covers, plus the legacy flow,
# which is auditable but was already retired when the table was drawn
AUDIT_SERVICES = ("spotify-benchmark", "wynk-v2", "jiosaavn", "gaana", "hungama")
EXTENDED_AUDIT_SERVICES = AUDIT_SERVICES + ("wynk-v1",)


@dataclass(frozen=True)
class PracticesScorecard:
    mandatory_user_identification: bool
    streamed_content_encryption: bool
    hardcoded_keys: bool
    drm_scheme: bool
    cookie_auth_timeout: bool
    premium_access_restrictions: bool
    obfuscation_minification: bool

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


PRACTICE_FIELDS = tuple(f.name for f in fields(PracticesScorecard))


class AuditRefused(LookupError):
    """A row has no working baseline to rest on; the message names the
    service and the step that failed."""


def _audit_spec(service: str) -> ServiceSpec:
    """The row named by an audit name or a rip name."""
    for spec in SPECS:
        if service in (spec.audit_name, spec.name):
            return spec
    raise ValueError(f"unknown auditable service {service!r}")


def canonical_audit_name(service: str) -> str:
    return _audit_spec(service).audit_name


def _attempt(tb: Testbed, spec: ServiceSpec, track: str, principal: str) -> bool:
    """True when the client walks away with media bytes."""
    try:
        tb.run_client(spec.name, track, principal=principal)
    except ProtocolFailure:
        return False
    return True


def _replay_rejected(tb: Testbed, spec: ServiceSpec, records) -> bool:
    """Replay the captured authorization exchange after a clock jump.
    A service only scores here when the verbatim replay stops working.
    A tap with no such exchange, or whose last one was refused, has
    nothing to replay: AuditRefused."""
    target = None
    for rec in records:
        if spec.auth_path.fullmatch(rec.request.path):
            target = rec
    if target is None:
        raise AuditRefused(
            f"{spec.audit_name}: no exchange on {spec.auth_path.pattern!r} to replay"
        )
    if target.response.status != 200:
        raise AuditRefused(
            f"{spec.audit_name}: replay target {target.seq} answered "
            f"status {target.response.status}"
        )
    t0 = tb.env.clock.now()
    tb.env.clock.advance(REPLAY_HORIZON)
    try:
        resp = tb.net.dispatch(
            target.request.headers["host"], copy_request(target.request)
        )
    finally:
        tb.env.clock.set_to(t0)
    return resp.status != 200


def audit(tb: Testbed, service: str) -> PracticesScorecard:
    spec = _audit_spec(service)
    open_tracks = tb.open_tracks()
    premium_tracks = tb.premium_tracks()
    if not open_tracks or not premium_tracks:
        raise ValueError("audit needs at least one open and one premium track")
    track, premium = open_tracks[0], premium_tracks[0]

    mandatory_id = not _attempt(tb, spec, track, ANONYMOUS)

    records, client_error = tb.tapped_run(spec.name, track)
    if client_error:
        raise AuditRefused(f"{spec.audit_name}: reference run failed: {client_error}")

    rip = tap_rip(records, tb.catalog, spec.audit_name, track)
    encrypted = not rip.matched_catalog
    drm = any(rec.request.path == LICENSE_PATH for rec in records)
    replay_dies = _replay_rejected(tb, spec, records)

    fetched = tb.net.get(spec.bundle_url)
    if fetched.status != 200:
        raise AuditRefused(f"{spec.audit_name}: bundle fetch failed (status {fetched.status})")
    bundle = fetched.body.decode("utf-8", errors="replace")
    hardcoded = any(secret in bundle for secret in tb.secret_material())
    obfuscated = MINIFIED_BANNER in bundle

    premium_gated = not _attempt(tb, spec, premium, FREE_TIER)

    return PracticesScorecard(
        mandatory_user_identification=mandatory_id,
        streamed_content_encryption=encrypted,
        hardcoded_keys=hardcoded,
        drm_scheme=drm,
        cookie_auth_timeout=replay_dies,
        premium_access_restrictions=premium_gated,
        obfuscation_minification=obfuscated,
    )


def audit_all(
    tb: Testbed, services=AUDIT_SERVICES
) -> dict[str, PracticesScorecard]:
    return {name: audit(tb, name) for name in services}
