"""Practices audit probes against the live testbed."""

from __future__ import annotations

import dataclasses
import re

import pytest

from drmtestbed.auditor import (
    AUDIT_SERVICES,
    EXTENDED_AUDIT_SERVICES,
    PRACTICE_FIELDS,
    AuditRefused,
    PracticesScorecard,
    _replay_rejected,
    audit,
    audit_all,
    canonical_audit_name,
)
from drmtestbed.services import saavn as saavn_mod
from drmtestbed.testbed import SPECS, Testbed
from drmtestbed.transport import TapRecord, error_response, split_url

from test_config import spaced_hex
# one row per service, in PRACTICE_FIELDS order
EXPECTED = {
    "spotify-benchmark": (True, True, False, True, True, True, True),
    "wynk-v2": (False, False, True, False, True, False, True),
    "jiosaavn": (False, False, False, False, False, False, True),
    "gaana": (False, False, True, False, False, False, True),
    "hungama": (False, False, False, False, False, False, True),
    "wynk-v1": (False, False, True, False, False, False, True),
}



def refuse_on(bed, host, refused) -> None:
    """Wrap host's handler so that a request refused(request) names a
    status for gets that status instead of its answer."""
    answer = bed.net._routes[host]

    def handler(request):
        status = refused(request)
        return error_response(status, "refused") if status else answer(request)

    bed.net._routes[host] = handler


def refuse_saavn_auth_without_cookies(bed) -> None:
    refuse_on(
        bed,
        saavn_mod.HOST_WWW,
        lambda req: 401 if req.path == saavn_mod.API_PATH and not req.cookies else 0,
    )


class TestNaming:
    def test_table_services(self):
        assert AUDIT_SERVICES == (
            "spotify-benchmark",
            "wynk-v2",
            "jiosaavn",
            "gaana",
            "hungama",
        )
        assert EXTENDED_AUDIT_SERVICES == AUDIT_SERVICES + ("wynk-v1",)

    def test_canonical_names_pass_through(self):
        for name in EXTENDED_AUDIT_SERVICES:
            assert canonical_audit_name(name) == name

    def test_benchmark_alias(self):
        assert canonical_audit_name("benchmark") == "spotify-benchmark"

    @pytest.mark.parametrize("bogus", ["spotify", "wynk", "", "netflix"])
    def test_unknown_service_raises(self, bogus):
        with pytest.raises(ValueError):
            canonical_audit_name(bogus)

    def test_scorecard_dict_order(self):
        card = PracticesScorecard(*[False] * 7)
        assert tuple(card.as_dict()) == PRACTICE_FIELDS


class TestScorecards:
    @pytest.mark.parametrize("service", EXTENDED_AUDIT_SERVICES)
    def test_matches_expected_row(self, bed, service):
        card = audit(bed, service)
        assert tuple(card.as_dict().values()) == EXPECTED[service]

    def test_alias_audits_the_benchmark(self, bed):
        card = audit(bed, "benchmark")
        assert tuple(card.as_dict().values()) == EXPECTED["spotify-benchmark"]

    def test_audit_all_covers_the_table(self, bed):
        cards = audit_all(bed)
        assert tuple(cards) == AUDIT_SERVICES
        for name, card in cards.items():
            assert tuple(card.as_dict().values()) == EXPECTED[name]

    def test_audit_all_extended(self, bed):
        cards = audit_all(bed, services=EXTENDED_AUDIT_SERVICES)
        assert tuple(cards) == EXTENDED_AUDIT_SERVICES


class TestProbeMechanics:
    def test_clock_restored_after_replay_probe(self, bed):
        before = bed.env.clock.now()
        audit(bed, "gaana")
        assert bed.env.clock.now() == before

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_replay_probe_with_no_auth_exchange_raises(self, bed, spec):
        # a tap the auth path matches nothing in is a broken probe, not a
        # verdict: it must not score as "replay accepted"
        records, client_error = bed.tapped_run(spec.name, bed.open_tracks()[0])
        assert client_error == ""
        blind = dataclasses.replace(spec, auth_path=re.compile("/nothing"))
        with pytest.raises(LookupError, match=re.escape(spec.audit_name)) as caught:
            _replay_rejected(bed, blind, records)
        assert "/nothing" in str(caught.value)

    def test_audit_is_repeatable(self, bed):
        first = audit(bed, "wynk-v2")
        second = audit(bed, "wynk-v2")
        assert first == second

    def test_audit_needs_open_and_premium_tracks(self, bed):
        for asset in bed.catalog.assets.values():
            asset.premium = True
        with pytest.raises(ValueError):
            audit(bed, "gaana")

    @pytest.mark.parametrize("spell", [str.upper, spaced_hex], ids=["upper", "spaced"])
    def test_hardcoded_keys_do_not_hang_on_the_config_spelling(self, config, spell):
        # the bundle ships the key's bytes, so the verdict follows them
        config.gaana_key_hex = spell(config.gaana_key_hex)
        config.gaana_iv_hex = spell(config.gaana_iv_hex)
        assert audit(Testbed(config), "gaana").hardcoded_keys is True

    def test_benchmark_encryption_score_comes_from_the_tap(self, bed):
        # the probe must fail to reconstruct plaintext, not consult config
        card = audit(bed, "spotify-benchmark")
        assert card.streamed_content_encryption is True
        rip_result, _ = bed.rip("benchmark", bed.open_tracks()[0])
        assert rip_result.matched_catalog is False


class TestBaseline:
    """A row rests on a working reference run, replay target and bundle."""

    def test_failed_reference_run_refuses_the_row(self, bed):
        # the reference client stops at the auth call; scoring its tap
        # would read a harness failure as four "protected" cells
        refuse_saavn_auth_without_cookies(bed)
        with pytest.raises(
            AuditRefused,
            match=re.escape("jiosaavn: reference run failed: auth token refused (status 401)"),
        ):
            audit(bed, "jiosaavn")

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_refused_replay_target_refuses_the_row(self, bed, spec):
        records, client_error = bed.tapped_run(spec.name, bed.open_tracks()[0])
        assert client_error == ""
        target = [rec for rec in records if spec.auth_path.fullmatch(rec.request.path)][-1]
        refused = TapRecord(records[-1].seq + 1, target.request, error_response(403, "no"))
        before = bed.env.clock.now()
        with pytest.raises(AuditRefused, match=re.escape(f"{spec.audit_name}: replay target")):
            _replay_rejected(bed, spec, records + [refused])
        assert bed.env.clock.now() == before

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
    def test_failed_bundle_fetch_refuses_the_row(self, bed, spec):
        host, path, _query = split_url(spec.bundle_url)
        refuse_on(bed, host, lambda req: 404 if req.path == path else 0)
        with pytest.raises(
            AuditRefused, match=re.escape(f"{spec.audit_name}: bundle fetch failed (status 404)")
        ):
            audit(bed, spec.audit_name)
