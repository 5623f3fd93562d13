"""Command line behaviour: exit codes, output files, report routing."""

from __future__ import annotations

import hashlib
import json
import sys
from random import Random

import pytest

import drmtestbed.cli as cli_mod
from drmtestbed.catalog import demo_catalog, save_catalog
from drmtestbed.cli import EXIT_OK, EXIT_PROTOCOL, EXIT_USAGE, main, run
from drmtestbed.config import TestbedConfig
from drmtestbed.testbed import Testbed

from test_auditor import refuse_saavn_auth_without_cookies

from test_config import UNSIZED_SECRETS, spaced_hex


class TestRip:
    def test_rip_writes_media_and_reports(self, tmp_path, capsys):
        out = tmp_path / "rip.aud"
        code = main(["rip", "--service", "gaana", "--track", "trk1", "--out", str(out)])
        assert code == EXIT_OK
        blob = out.read_bytes()
        assert blob.startswith(b"AUD0")
        line = capsys.readouterr().out.strip()
        assert line.startswith("rip gaana trk1: ripped=yes matched=yes")
        assert f"bytes={len(blob)}" in line
        assert f"sha256={hashlib.sha256(blob).hexdigest()[:12]}" in line
        assert f"out={out}" in line

    def test_rip_quality_changes_the_bytes(self, tmp_path):
        high, low = tmp_path / "h.aud", tmp_path / "l.aud"
        assert main(["rip", "--service", "jiosaavn", "--track", "trk2",
                     "--out", str(high)]) == EXIT_OK
        assert main(["rip", "--service", "jiosaavn", "--track", "trk2",
                     "--quality", "64", "--out", str(low)]) == EXIT_OK
        assert len(low.read_bytes()) < len(high.read_bytes())

    def test_rip_benchmark_fails_with_protocol_exit(self, tmp_path, capsys):
        out = tmp_path / "none.aud"
        code = main(["rip", "--service", "benchmark", "--track", "trk1",
                     "--out", str(out)])
        assert code == EXIT_PROTOCOL
        assert out.read_bytes() == b""
        captured = capsys.readouterr()
        assert "ripped=no" in captured.out
        assert "no catalog media" in captured.err

    def test_client_refusal_lands_on_stderr(self, tmp_path, capsys):
        code = main(["rip", "--service", "jiosaavn", "--track", "trk1",
                     "--quality", "999", "--out", str(tmp_path / "x.aud")])
        assert code == EXIT_PROTOCOL
        assert "client:" in capsys.readouterr().err

    def test_unknown_track_is_a_protocol_failure(self, tmp_path):
        code = main(["rip", "--service", "gaana", "--track", "ghost",
                     "--out", str(tmp_path / "x.aud")])
        assert code == EXIT_PROTOCOL


class TestAudit:
    def test_default_audit_covers_the_table(self, capsys):
        assert main(["audit"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("spotify-benchmark", "wynk-v2", "jiosaavn", "gaana", "hungama"):
            assert name in out
        assert "(no rips)" in out

    def test_single_service_json(self, capsys):
        assert main(["audit", "--service", "benchmark", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert [a["service"] for a in doc["audits"]] == ["spotify-benchmark"]
        assert doc["audits"][0]["practices"]["drm_scheme"] is True

    @pytest.mark.parametrize("spell", [str.upper, spaced_hex], ids=["upper", "spaced"])
    def test_gaana_keys_read_hardcoded_however_the_config_spells_them(
        self, tmp_path, capsys, spell
    ):
        cfg = TestbedConfig()
        conf = tmp_path / "t.conf"
        conf.write_text(
            f"gaana_key_hex = {spell(cfg.gaana_key_hex)}\n"
            f"gaana_iv_hex = {spell(cfg.gaana_iv_hex)}\n",
            encoding="utf-8",
        )
        argv = ["audit", "--config", str(conf), "--service", "gaana", "--format", "json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["audits"][0]["practices"]["hardcoded_keys"] is True

    @pytest.mark.parametrize("argv", [["audit", "--service", "jiosaavn"], ["audit"]])
    def test_refused_audit_is_a_protocol_failure(self, monkeypatch, capsys, argv):
        def bed(config):
            tb = Testbed(config)
            refuse_saavn_auth_without_cookies(tb)
            return tb

        monkeypatch.setattr(cli_mod, "Testbed", bed)
        assert main(argv) == EXIT_PROTOCOL == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "testbed: jiosaavn: reference run failed: auth token refused (status 401)\n"
        )

    def test_unknown_service_is_a_usage_error(self, capsys):
        assert main(["audit", "--service", "tidal"]) == EXIT_USAGE
        assert "tidal" in capsys.readouterr().err

    def test_empty_service_is_a_usage_error_not_the_whole_table(self, capsys):
        assert main(["audit", "--service", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "testbed: unknown auditable service ''\n"


class TestDemo:
    def test_demo_runs_everything(self, capsys):
        assert main(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("trk1") >= 6  # one rip row per service
        assert "== practices audit ==" in out

    def test_demo_is_deterministic(self, capsys):
        assert main(["demo", "--seed", "3", "--clock", "1600000000"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["demo", "--seed", "3", "--clock", "1600000000"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_seed_changes_the_catalog_bytes(self, capsys):
        assert main(["demo", "--seed", "3"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["demo", "--seed", "4"]) == EXIT_OK
        assert capsys.readouterr().out != first

    @pytest.mark.parametrize("clock", ["0", "300", "599"])
    def test_demo_on_a_clock_below_one_otp_window(self, capsys, clock):
        # wynk-v2's previous-window check starts at the TOTP epoch, so the
        # report reads as it does on the default clock
        assert main(["demo"]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["demo", "--clock", clock]) == EXIT_OK
        assert capsys.readouterr() == (want, "")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frob"],
            ["rip", "--service", "gaana", "--track", "trk1"],  # missing --out
            ["rip", "--service", "nosuch", "--track", "t", "--out", "x"],
            ["audit", "--format", "xml"],
        ],
    )
    def test_bad_invocations_exit_64(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_64(self, tmp_path, capsys):
        code = main(["audit", "--config", str(tmp_path / "none.conf")])
        assert code == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_missing_catalog_dir_exits_64(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        missing = tmp_path / "nonexistent"
        conf.write_text(f"catalog_dir = {missing}\n", encoding="utf-8")
        assert main(["audit", "--config", str(conf)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"testbed: catalog directory {missing} not found\n"

    @pytest.mark.parametrize("asset_id", ["trk\u00e9", "trk#1", "trk?1", "trk\t1", "trk&1"])
    def test_asset_id_a_url_cannot_carry_exits_64(self, tmp_path, capsys, asset_id):
        # every service URL carries the id, so the catalog refuses it
        # rather than each service failing the rip its own way
        catalog = tmp_path / "cat"
        save_catalog(demo_catalog(Random(0)), catalog)
        for path in catalog.glob("trk1.*"):
            path.rename(catalog / path.name.replace("trk1", asset_id, 1))
        conf = tmp_path / "t.conf"
        conf.write_text(f"catalog_dir = {catalog}\n", encoding="utf-8")
        code = main(["rip", "--config", str(conf), "--service", "hungama",
                     "--track", asset_id, "--out", str(tmp_path / "x.aud")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"testbed: asset id {asset_id!r} is not ")

    @pytest.mark.parametrize("argv", [
        ["rip", "--service", "jiosaavn", "--track", "trk1", "--out", "rip.aud"],
        ["audit", "--format", "json"],
    ], ids=["rip", "audit"])
    def test_catalog_files_without_the_magic_exit_64(self, tmp_path, monkeypatch, capsys, argv):
        # the ripper finds whole-file media by the magic: such a catalog
        # would fail plaintext rips and audit them as encrypted
        monkeypatch.chdir(tmp_path)  # `rip` would write its --out here
        catalog = tmp_path / "cat"
        save_catalog(demo_catalog(Random(3)), catalog)
        for path in catalog.glob("*.aud"):
            path.write_bytes(b"\x00" * 4 + path.read_bytes()[4:])
        conf = tmp_path / "t.conf"
        conf.write_text(f"catalog_dir = {catalog}\n", encoding="utf-8")
        assert main([*argv, "--config", str(conf)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("testbed: catalog file trk1.128.aud ")

    @pytest.mark.parametrize("line", ["gaana_key=00", "__class__=x", "rip=1"])
    def test_config_key_that_is_not_a_field_exits_64(self, tmp_path, capsys, line):
        conf = tmp_path / "t.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        assert main(["audit", "--config", str(conf)]) == EXIT_USAGE
        key = line.partition("=")[0]
        assert capsys.readouterr().err == f"testbed: line 1: unknown key {key!r}\n"

    @pytest.mark.parametrize("field", UNSIZED_SECRETS)
    def test_empty_secret_exits_64(self, tmp_path, capsys, field):
        conf = tmp_path / "t.conf"
        conf.write_text(f"{field} =\n", encoding="utf-8")
        code = main(["rip", "--config", str(conf), "--service", "wynk-v1",
                     "--track", "trk1", "--out", str(tmp_path / "x.aud")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"testbed: {field} is empty\n"

    def test_a_one_byte_secret_exits_64(self, tmp_path, capsys):
        # jiosaavn's audit read such a secret as shipped: "16" is one of its bitRates
        conf = tmp_path / "t.conf"
        conf.write_text("saavn_cdn_secret_hex = 16\n", encoding="utf-8")
        assert main(["audit", "--config", str(conf)]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "testbed: saavn_cdn_secret_hex must be 16 bytes or more, got 1\n"
        )

    def test_config_file_reaches_the_testbed(self, tmp_path, capsys):
        conf = tmp_path / "t.conf"
        conf.write_text("seed = 3\nclock = 1600000000\n", encoding="utf-8")
        out = tmp_path / "rip.aud"
        assert main(["rip", "--config", str(conf), "--service", "gaana",
                     "--track", "trk1", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["demo", "--seed", "3", "--clock", "1600000000"]) == EXIT_OK
        demo_out = capsys.readouterr().out
        digest = hashlib.sha256(out.read_bytes()).hexdigest()[:12]
        assert digest in demo_out  # same seed, same catalog bytes

    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_negative_clock_exits_64(self, tmp_path, capsys, route):
        conf = tmp_path / "t.conf"
        conf.write_text("clock = -1\n", encoding="utf-8")
        argv = ["demo", "--clock", "-1"] if route == "flag" else ["demo", "--config", str(conf)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "testbed: clock must be 0 or later, got -1\n")

    def test_a_config_file_must_be_valid_without_the_flags(self, tmp_path, capsys):
        # the file is read into a config before --clock replaces its clock
        conf = tmp_path / "t.conf"
        conf.write_text("clock = -1\n", encoding="utf-8")
        assert main(["demo", "--config", str(conf), "--clock", "5"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "testbed: clock must be 0 or later, got -1\n")

    @pytest.mark.parametrize("route", ["demo-flag", "audit-file"])
    @pytest.mark.parametrize("clock", ["4102437600", "4102444800"])
    def test_clock_whose_replay_reaches_far_future_exits_64(
        self, tmp_path, capsys, route, clock
    ):
        # FAR_FUTURE - REPLAY_HORIZON = 4102437600; from there on the
        # replay probe would outlive the grants that never expire
        conf = tmp_path / "t.conf"
        conf.write_text(f"clock = {clock}\n", encoding="utf-8")
        argv = (["demo", "--clock", clock] if route == "demo-flag"
                else ["audit", "--config", str(conf)])
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"testbed: clock must be before 4102437600, got {clock}\n"
        )

    @pytest.mark.parametrize("line", ["hungama_token_ttl = 0", "grant_ttl = -5"])
    def test_lifetime_under_one_second_exits_64(self, tmp_path, capsys, line):
        conf = tmp_path / "t.conf"
        conf.write_text(f"{line}\n", encoding="utf-8")
        assert main(["audit", "--config", str(conf)]) == EXIT_USAGE
        field, _, ttl = line.partition(" = ")
        assert capsys.readouterr() == (
            "", f"testbed: {field} must be 1 or more, got {ttl}\n"
        )

    def test_console_entry_raises_system_exit(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["testbed", "audit", "--service", "gaana"])
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == EXIT_OK
