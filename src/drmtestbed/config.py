"""key=value config for the harness.

Everything has a working default so `testbed demo` runs with no file at
all; a config file only overrides. These are the only defaults: every
service reads its settings and secrets from a TestbedConfig. Secrets are
hex so the file stays one printable line per key.

A config is read-only. It refuses a field of the wrong type and an
out-of-range clock, lifetime or chunk size when it is made, and a bad
key when that key is read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .cdn import FAR_FUTURE, REPLAY_HORIZON
from .hls import DEFAULT_CHUNK_BYTES


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class TestbedConfig:
    seed: int = 7
    clock: int = 1700000000
    catalog_dir: str = ""
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    grant_ttl: int = 3600
    wynk_session_ttl: int = 2592000
    hungama_token_ttl: int = 86400
    bearer_ttl: int = 3600
    wynk_sk: str = "51ymYn1MS"
    wynk_cdn_secret_hex: str = "4f1c6d2a90be77d31e55a8c04962ddc1b07f93e2"
    saavn_cdn_secret_hex: str = "8a25c90bf417de6300982bd15efa4c7761d3a90f"
    gaana_cdn_secret_hex: str = "d6027be93f514cc8a1e7f04db96325aa80ce14d7"
    hungama_cdn_secret_hex: str = "23fa8c11d074b9e655201cdd38e6a7f4490b52e8"
    benchmark_cdn_secret_hex: str = "b85f03ae67c12d94f0261e5b7ad9c480d1537fa6"
    hungama_token_secret_hex: str = "97d11e40ab5f82c6e3094ffd261c7b3a5580ed29"
    saavn_seal_key_hex: str = "3d8a1f650b72c49ee8135a0c9746fd2b"
    saavn_seal_iv_hex: str = "71e04cb82f9ad6135c68020d94b7fae3"
    gaana_key_hex: str = "a45bd1087e92cf36610b54afc3d278e9"
    gaana_iv_hex: str = "0cf3a871469de2b5871e90cd5336ab14"
    device_key_hex: str = "5e21b7da93c604f8ab176ce0421f98d3"

    def __post_init__(self):
        for name, want in _FIELD_TYPES.items():
            # `is`, not isinstance: a bool is an int, and no setting is one
            if type(value := getattr(self, name)) is not want:
                raise ConfigError(f"{name} must be {want.__name__}, got {value!r}")
        # wynk-v2's stamps are unsigned decimals and TOTP counts from t0 = 0
        if self.clock < 0:
            raise ConfigError(f"clock must be 0 or later, got {self.clock}")
        # the replay probe must not carry the clock to where FAR_FUTURE
        # grants expire, or the audit would read a timeout nobody set
        if self.clock + REPLAY_HORIZON >= FAR_FUTURE:
            raise ConfigError(
                f"clock must be before {FAR_FUTURE - REPLAY_HORIZON}, got {self.clock}"
            )
        # a lifetime under 1 s refuses the bed's own clients, which the
        # audit would read as a practice the service does not have; a
        # chunk under 1 byte cuts no media at all
        for name in (*TTL_FIELDS, "chunk_bytes"):
            if (value := getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be 1 or more, got {value}")

    def key(self, name: str) -> bytes:
        """The bytes of the `*_hex` field `name`, whose hex may be in any
        case with spaces between bytes. A ConfigError naming the field
        when the hex is bad, empty, not the length KEY_BYTES sets, or
        shorter than MIN_KEY_BYTES."""
        raw = getattr(self, name)
        try:
            data = bytes.fromhex(raw)
        except ValueError as exc:
            raise ConfigError(f"{name} is not hex: {raw!r}") from exc
        want_len = KEY_BYTES.get(name)
        if want_len is not None and len(data) != want_len:
            raise ConfigError(f"{name} must be {want_len} bytes, got {len(data)}")
        if not data:
            raise ConfigError(f"{name} is empty")
        if len(data) < MIN_KEY_BYTES:
            raise ConfigError(f"{name} must be {MIN_KEY_BYTES} bytes or more, got {len(data)}")
        return data


# the byte length of each sized key; every other key is MIN_KEY_BYTES or
# more, since a shorter one can equal an ordinary literal of the bundle
# the hardcoded-keys probe searches for it
MIN_KEY_BYTES = 16
KEY_BYTES = {
    "saavn_seal_key_hex": 16,
    "saavn_seal_iv_hex": 16,
    "gaana_key_hex": 16,
    "gaana_iv_hex": 16,
    "device_key_hex": 16,
}
KEY_FIELDS = tuple(f.name for f in fields(TestbedConfig) if f.name.endswith("_hex"))
TTL_FIELDS = tuple(f.name for f in fields(TestbedConfig) if f.name.endswith("_ttl"))

# each field's declared type; the annotations are strings here
_FIELD_TYPES = {f.name: {"int": int, "str": str}[f.type] for f in fields(TestbedConfig)}


def parse_config(text: str) -> TestbedConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if _FIELD_TYPES[key] is int:
            try:
                value = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} wants an integer") from exc
        values[key] = value
    return TestbedConfig(**values)


def load_config(path) -> TestbedConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
