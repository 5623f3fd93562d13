"""Config parsing: defaults, overrides, and diagnostics."""

from __future__ import annotations

import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed.cdn import FAR_FUTURE, REPLAY_HORIZON
from drmtestbed.config import (
    KEY_BYTES,
    KEY_FIELDS,
    MIN_KEY_BYTES,
    TTL_FIELDS,
    ConfigError,
    TestbedConfig,
    load_config,
    parse_config,
)

# the *_hex secrets of any length from MIN_KEY_BYTES up
UNSIZED_SECRETS = (
    "wynk_cdn_secret_hex",
    "saavn_cdn_secret_hex",
    "gaana_cdn_secret_hex",
    "hungama_cdn_secret_hex",
    "benchmark_cdn_secret_hex",
    "hungama_token_secret_hex",
)


def spaced_hex(text: str) -> str:
    """The same hex with a space between bytes."""
    return " ".join(text[i:i + 2] for i in range(0, len(text), 2))


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

    def test_keys_decode(self):
        cfg = TestbedConfig()
        assert cfg.key("wynk_cdn_secret_hex") == bytes.fromhex(cfg.wynk_cdn_secret_hex)
        assert cfg.key("hungama_token_secret_hex").hex() == cfg.hungama_token_secret_hex
        for name in (
            "saavn_seal_key_hex",
            "saavn_seal_iv_hex",
            "gaana_key_hex",
            "gaana_iv_hex",
            "device_key_hex",
        ):
            assert len(cfg.key(name)) == 16

    def test_default_hex_is_canonical(self):
        # so decoding each key and re-encoding it moves no audited string
        cfg = TestbedConfig()
        for name in KEY_FIELDS:
            assert cfg.key(name).hex() == getattr(cfg, name)

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


LAST_CLOCK = FAR_FUTURE - REPLAY_HORIZON - 1

# (field, value, the ConfigError message) for each out-of-range setting
OUT_OF_RANGE = [
    ("clock", -1, "clock must be 0 or later, got -1"),
    ("clock", LAST_CLOCK + 1, f"clock must be before {LAST_CLOCK + 1}, got {LAST_CLOCK + 1}"),
    *((name, 0, f"{name} must be 1 or more, got 0") for name in TTL_FIELDS),
    ("chunk_bytes", 0, "chunk_bytes must be 1 or more, got 0"),
]
# each way to make a config with one field set
MAKERS = {
    "constructor": lambda name, value: TestbedConfig(**{name: value}),
    "replace": lambda name, value: replace(TestbedConfig(), **{name: value}),
    "parse_config": lambda name, value: parse_config(f"{name} = {value}"),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=list(MAKERS))
@pytest.mark.parametrize("name,value,message", OUT_OF_RANGE)
def test_an_out_of_range_setting_is_refused_when_made(make, name, value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        make(name, value)


# (field, value, the ConfigError message) for each value no config file
# can spell, since parse_config converts every int field
WRONGLY_TYPED = [
    ("clock", "5", "clock must be int, got '5'"),
    ("grant_ttl", None, "grant_ttl must be int, got None"),
    ("seed", "x", "seed must be int, got 'x'"),
    ("seed", True, "seed must be int, got True"),
    ("wynk_sk", 5, "wynk_sk must be str, got 5"),
    ("catalog_dir", None, "catalog_dir must be str, got None"),
]


@pytest.mark.parametrize("make", [MAKERS["constructor"], MAKERS["replace"]],
                         ids=["constructor", "replace"])
@pytest.mark.parametrize("name,value,message", WRONGLY_TYPED)
def test_a_wrongly_typed_field_is_refused_when_made(make, name, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make(name, value)


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

    def test_hex_override_reaches_key(self):
        cfg = parse_config("gaana_key_hex = " + "ab" * 16)
        assert cfg.key("gaana_key_hex") == b"\xab" * 16

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
            cfg.key("gaana_key_hex")

    def test_wrong_hex_length_rejected(self):
        cfg = parse_config("saavn_seal_iv_hex = abcd")
        with pytest.raises(ConfigError) as err:
            cfg.key("saavn_seal_iv_hex")
        assert "16 bytes" in str(err.value)

    @pytest.mark.parametrize("field", UNSIZED_SECRETS)
    def test_variable_length_secret_allows_16_bytes_or_more(self, field):
        for size in (16, 17, 64):
            assert parse_config(f"{field} = {bytes(range(size)).hex()}").key(field) == bytes(range(size))
        cfg = parse_config(f"{field} = {bytes(range(15)).hex()}")
        with pytest.raises(ConfigError, match=f"^{field} must be 16 bytes or more, got 15$"):
            cfg.key(field)

    def test_a_secret_as_short_as_a_bundle_literal_is_refused(self):
        # "16" is one of jiosaavn's bitRates, so the audit read this secret
        # as shipped in a bundle that ships none
        cfg = parse_config("saavn_cdn_secret_hex = 16")
        with pytest.raises(ConfigError, match="^saavn_cdn_secret_hex must be 16 bytes or more, got 1$"):
            cfg.key("saavn_cdn_secret_hex")

    @pytest.mark.parametrize("field", UNSIZED_SECRETS)
    def test_empty_secret_rejected(self, field):
        cfg = parse_config(f"{field} =")
        with pytest.raises(ConfigError, match=f"{field} is empty"):
            cfg.key(field)

    def test_every_other_hex_field_is_sized(self):
        hexes = {f.name for f in fields(TestbedConfig) if f.name.endswith("_hex")}
        for name in hexes - set(UNSIZED_SECRETS):
            for value in ("00", ""):
                cfg = parse_config(f"{name} = {value}")
                with pytest.raises(ConfigError, match="must be 16 bytes"):
                    cfg.key(name)

    @pytest.mark.parametrize("key", ["gaana_key", "__class__", "_hex", "key", "__dict__"])
    def test_keys_that_are_not_fields_rejected(self, key):
        with pytest.raises(ConfigError, match=f"line 1: unknown key {key!r}"):
            parse_config(f"{key} = 00")


@st.composite
def _key_spellings(draw):
    """Hex as a config file might spell a key, and spellings near it: upper
    case, spaces between bytes, an odd digit count, a non-ASCII character,
    and keys of 2,500 bytes (5,000 digits or more)."""
    data = draw(
        st.one_of(
            st.binary(min_size=16, max_size=16),
            st.binary(max_size=24),
            st.binary(min_size=1, max_size=8).map(lambda b: (b * 2500)[:2500]),
        )
    )
    text = data.hex()
    if draw(st.booleans()):
        text = text.upper()
    if draw(st.booleans()):
        text = spaced_hex(text)
    if text and draw(st.booleans()):
        text = text[:-1]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("\u0660\u00e9\uff10\u2003")) + text[at:]
    return text


@settings(max_examples=1000)
@given(st.sampled_from(KEY_FIELDS), st.one_of(_key_spellings(), st.text(max_size=40)))
def test_key_decodes_or_raises_config_error(name, value):
    """parse_config then key() yields bytes of the table length, and at
    least MIN_KEY_BYTES, or raises ConfigError: never a bare ValueError or
    TypeError."""
    try:
        data = parse_config(f"{name} = {value}").key(name)
    except ConfigError:
        return
    assert len(data) == KEY_BYTES.get(name, len(data)) >= MIN_KEY_BYTES
    assert data.hex() == "".join(value.split()).lower()


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
