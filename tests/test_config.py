"""Config parsing: defaults, overrides, and diagnostics."""

from __future__ import annotations

from dataclasses import fields

import pytest

from drmtestbed.config import ConfigError, TestbedConfig, load_config, parse_config

# the *_hex secrets of any length but zero
UNSIZED_SECRETS = (
    "wynk_cdn_secret_hex",
    "saavn_cdn_secret_hex",
    "gaana_cdn_secret_hex",
    "hungama_cdn_secret_hex",
    "benchmark_cdn_secret_hex",
    "hungama_token_secret_hex",
)


class TestDefaults:
    def test_runs_without_a_file(self):
        cfg = TestbedConfig()
        assert cfg.seed == 7
        assert cfg.clock == 1700000000
        assert cfg.catalog_dir == ""
        assert cfg.chunk_bytes == 32768
        assert cfg.grant_ttl == 3600
        assert cfg.wynk_session_ttl == 2592000
        assert cfg.hungama_token_ttl == 86400
        assert cfg.bearer_ttl == 3600
        assert cfg.wynk_sk == "51ymYn1MS"

    def test_secret_accessors_decode(self):
        cfg = TestbedConfig()
        assert cfg.wynk_cdn_secret() == bytes.fromhex(cfg.wynk_cdn_secret_hex)
        assert cfg.hungama_token_secret().hex() == cfg.hungama_token_secret_hex
        for accessor in (
            cfg.saavn_seal_key,
            cfg.saavn_seal_iv,
            cfg.gaana_key,
            cfg.gaana_iv,
            cfg.device_key,
        ):
            assert len(accessor()) == 16

    def test_default_secrets_are_distinct(self):
        cfg = TestbedConfig()
        secrets = [
            cfg.wynk_cdn_secret_hex,
            cfg.saavn_cdn_secret_hex,
            cfg.gaana_cdn_secret_hex,
            cfg.hungama_cdn_secret_hex,
            cfg.benchmark_cdn_secret_hex,
            cfg.hungama_token_secret_hex,
            cfg.saavn_seal_key_hex,
            cfg.gaana_key_hex,
            cfg.device_key_hex,
        ]
        assert len(set(secrets)) == len(secrets)


class TestParsing:
    def test_overrides_and_comments(self):
        cfg = parse_config(
            "# tuning\n"
            "\n"
            "seed = 99\n"
            "  clock=123  \n"
            "wynk_sk = other-sk\n"
            "catalog_dir = /tmp/cat\n"
        )
        assert cfg.seed == 99
        assert cfg.clock == 123
        assert cfg.wynk_sk == "other-sk"
        assert cfg.catalog_dir == "/tmp/cat"
        assert cfg.chunk_bytes == 32768  # untouched default

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == TestbedConfig()

    def test_hex_override_reaches_accessor(self):
        cfg = parse_config("gaana_key_hex = " + "ab" * 16)
        assert cfg.gaana_key() == b"\xab" * 16

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("just words", "line 1"),
            ("seed = 7\nmystery = 1", "line 2"),
            ("seed = soon", "integer"),
            ("chunk_bytes = 1.5", "integer"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert fragment in str(err.value)

    def test_bad_hex_fails_at_access_time(self):
        cfg = parse_config("gaana_key_hex = zzzz")
        with pytest.raises(ConfigError):
            cfg.gaana_key()

    def test_wrong_hex_length_rejected(self):
        cfg = parse_config("saavn_seal_iv_hex = abcd")
        with pytest.raises(ConfigError) as err:
            cfg.saavn_seal_iv()
        assert "16 bytes" in str(err.value)

    def test_variable_length_secret_allows_any_size(self):
        cfg = parse_config("wynk_cdn_secret_hex = ff00")
        assert cfg.wynk_cdn_secret() == b"\xff\x00"

    @pytest.mark.parametrize("field", UNSIZED_SECRETS)
    def test_empty_secret_rejected(self, field):
        cfg = parse_config(f"{field} =")
        with pytest.raises(ConfigError, match=f"{field} is empty"):
            getattr(cfg, field.removesuffix("_hex"))()

    def test_every_other_hex_field_is_sized(self):
        hexes = {f.name for f in fields(TestbedConfig) if f.name.endswith("_hex")}
        for name in hexes - set(UNSIZED_SECRETS):
            for value in ("00", ""):
                cfg = parse_config(f"{name} = {value}")
                with pytest.raises(ConfigError, match="must be 16 bytes"):
                    getattr(cfg, name.removesuffix("_hex"))()

    @pytest.mark.parametrize("key", ["gaana_key", "__class__", "_hex", "__dict__"])
    def test_keys_that_are_not_fields_rejected(self, key):
        with pytest.raises(ConfigError, match=f"line 1: unknown key {key!r}"):
            parse_config(f"{key} = 00")


class TestLoading:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "testbed.conf"
        path.write_text("seed = 5\ngrant_ttl = 60\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.seed == 5 and cfg.grant_ttl == 60

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(tmp_path / "nope.conf")
        assert "cannot read" in str(err.value)
