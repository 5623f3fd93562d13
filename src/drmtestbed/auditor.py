"""Mechanical practices audit: seven yes/no probes per service, each
one an experiment against the live testbed rather than a hand-filled
table. The probes only use what a client or an on-path observer could
use: public endpoints, static assets, a tap, and the injected clock.
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
    A tap with no such exchange has nothing to replay: LookupError."""
    target = None
    for rec in records:
        if spec.auth_path.fullmatch(rec.request.path):
            target = rec
    if target is None:
        raise LookupError(
            f"{spec.audit_name}: no exchange on {spec.auth_path.pattern!r} to replay"
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

    # audit whatever did cross the wire, whether or not the client got through
    records, _client_error = tb.tapped_run(spec.name, track)

    rip = tap_rip(records, tb.catalog, spec.audit_name, track)
    encrypted = not rip.matched_catalog
    drm = any(rec.request.path == LICENSE_PATH for rec in records)
    replay_dies = _replay_rejected(tb, spec, records)

    bundle = tb.net.get(spec.bundle_url).body.decode("utf-8", errors="replace")
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
