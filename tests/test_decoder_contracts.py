"""Decoder contracts: every decoder of untrusted text or bytes either
returns or refuses with its one refusal, whatever it is fed.

One table maps each decoder to its refusal: an exception type, or
`None` for a check that answers a refusal value (`None` or `False`) and
never raises. Each is fed pinned near misses and derandomized Hypothesis
draws with a fixed budget: short and long (5,000 characters or more)
text or bytes, alone or after a valid prefix. A failure reproduces on
every run.
"""

from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmtestbed import benchmark as bench
from drmtestbed.catalog import demo_catalog
from drmtestbed.cdn import KEY_PAIR_PARAM, POLICY_PARAM, SIGNATURE_PARAM, _signed_terms
from drmtestbed.config import TestbedConfig
from drmtestbed.crypto_kit import (
    CryptoError,
    DecodeError,
    SealError,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    b64,
    b64_decode,
    hmac_sha1,
    passphrase_open,
    passphrase_seal,
)
from drmtestbed.hls import ManifestError, parse_index, parse_master, render_index, render_master
from drmtestbed.services import gaana, saavn, wynk
from drmtestbed.services.hungama import HungamaService
from drmtestbed.transport import DeterministicEnv, split_url

KEY, IV = bytes(range(16)), bytes(range(16, 32))
SECRET, KEY_PAIR = b"grant-secret", "K1"
HUNGAMA = HungamaService(
    demo_catalog(Random(1)), DeterministicEnv(1, 1_700_000_000), TestbedConfig()
)
DEEP = "[" * 100_000

_any_char = st.characters(exclude_categories=())  # lone surrogates included
_short_text = st.text(_any_char, max_size=40)
# a short unit repeated: long draws without a long Hypothesis buffer
_long_text = st.text(_any_char, min_size=1, max_size=8).map(
    lambda unit: unit * (5000 // len(unit) + 1)
)
_json_text = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
).map(json.dumps)
_short_bytes = st.binary(max_size=64)
_long_bytes = st.binary(min_size=1, max_size=8).map(
    lambda unit: unit * (5000 // len(unit) + 1)
)


def _near_misses_text(*prefixes: str, suffix: str = ""):
    """Garbage text or JSON, alone or between one of the valid prefixes
    and the suffix that closes them."""
    garbage = _short_text | _long_text | _json_text
    return garbage | st.tuples(st.sampled_from(prefixes), garbage, st.just(suffix)).map("".join)


def _near_misses_bytes(*prefixes: bytes):
    garbage = _short_bytes | _long_bytes
    return garbage | st.tuples(st.sampled_from(prefixes), garbage).map(b"".join)


def _signed(doc: bytes) -> dict[str, str]:
    """A grant query whose signature checks out over any policy bytes."""
    return {POLICY_PARAM: b64(doc), SIGNATURE_PARAM: b64(hmac_sha1(SECRET, doc)),
            KEY_PAIR_PARAM: KEY_PAIR}


def _tagged(body: bytes) -> bytes:
    """A license blob whose tag checks out over any body."""
    return body + hmac_sha1(KEY, body)


def _hungama_token(expiry: str) -> str:
    tag = b64(hmac_sha1(HUNGAMA._token_secret, f"trk1{expiry}".encode("ascii")))
    return tag + expiry


def _live_hungama_token() -> str:
    """The token the service hands out for trk1 now."""
    return HUNGAMA._token("trk1", str(HUNGAMA.env.clock.now() + HUNGAMA.token_ttl))


_MASTER = render_master([(320000, "https://c.example/320/index.m3u8")])
_INDEX = render_index([("https://c.example/seg_00000.ts", 10.0)])
_SAAVN = "window.__INITIAL_DATA__ = "
_GAANA = '<span class="sourcelist" data-type="playSong">'
_MIX = wynk.mix_it("0123456789abcdef" * 2, "1700000000-0123456789abcdef")
_SEALED = passphrase_seal("pass", b"payload", b"saltsalt")
_CBC = aes_cbc_encrypt(KEY, IV, b"sixteen byte msg")
_LICENSE = bench._seal(KEY, b"k" * 32, IV)
_POLICY = b'{"expires":2000000000,"resource":"/'

# name -> (decoder of one input, its refusal, pinned near misses, draws)
CONTRACTS = {
    "hls.parse_master": (
        parse_master, ManifestError,
        [_MASTER + "x", "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=" + "9" * 5000 + "\nu\n"],
        _near_misses_text(_MASTER, "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH="),
    ),
    "hls.parse_index": (
        parse_index, ManifestError,
        [_INDEX + "x", "#EXTM3U\n#EXTINF:" + "9" * 5000 + ",\nu\n#EXT-X-ENDLIST\n"],
        _near_misses_text(_INDEX, _INDEX[:-len("#EXT-X-ENDLIST\n")], "#EXTM3U\n#EXTINF:"),
    ),
    "crypto_kit.b64_decode": (
        b64_decode, DecodeError,
        ["QUJDé", "QUJD=" + "A" * 5000],
        _near_misses_text("QUJD", "QUJDRA=="),
    ),
    "crypto_kit.passphrase_open": (
        lambda blob: passphrase_open("pass", blob), SealError,
        [_SEALED[:-1], _SEALED + bytes(16), b"Salted__" + bytes(5000)],
        _near_misses_bytes(_SEALED, b"Salted__saltsalt"),
    ),
    "crypto_kit.aes_cbc_decrypt": (
        lambda blob: aes_cbc_decrypt(KEY, IV, blob), CryptoError,
        [b"", _CBC[:-1], _CBC + bytes(16), bytes(5008)],
        _near_misses_bytes(_CBC),
    ),
    "benchmark._open": (
        lambda blob: bench._open(KEY, blob), bench.LicenseError,
        [_LICENSE[:-1], _tagged(IV + bytes(5)), _tagged(IV + bytes(5008))],
        _near_misses_bytes(_LICENSE) | (_short_bytes | _long_bytes).map(_tagged),
    ),
    "benchmark.extract_init_data": (
        bench.extract_init_data, bench.InitDataError,
        [bench.INIT_MAGIC, b"INIX" + bytes(5000)],
        _near_misses_bytes(bench.INIT_MAGIC),
    ),
    "transport.split_url": (
        split_url, ValueError,
        ["https://[x/seg.ts", "/no/host", "https://" + "＃" * 5000],
        _near_misses_text("https://", "https://[", "https://h.example/p?"),
    ),
    "saavn.parse_song_page": (
        saavn.parse_song_page, ValueError,
        [f"{_SAAVN}{{}};</script>", f"{_SAAVN}[];</script>", f"{_SAAVN}{DEEP};</script>",
         f'{_SAAVN}{{"song":1}};</script>', f'{_SAAVN}{{"song":[]}};</script>'],
        _near_misses_text(_SAAVN, _SAAVN + '{"song":', suffix=";</script>"),
    ),
    "gaana.parse_song_page": (
        gaana.parse_song_page, ValueError,
        [f'{_GAANA}{{"title":1,"path":1}}</span>', f"{_GAANA}[]</span>",
         f"{_GAANA}{DEEP}</span>", f'{_GAANA}{{"title":"t"}}</span>'],
        _near_misses_text(_GAANA, _GAANA + '{"title":"t","path":', suffix="</span>"),
    ),
    "wynk._parse_mix": (
        wynk._parse_mix, None,
        [_MIX[:-1] + "x", "0" * 64, "-" * 64, "0" * 5000],
        _near_misses_text(_MIX[:32], _MIX[:63]),
    ),
    "wynk._fresh_stamp": (
        lambda stamp: wynk._fresh_stamp(stamp, 1_700_000_000), None,
        ["9" * 5000, "²", "-1", "1700000000 "],
        _near_misses_text("1700000000", "17"),
    ),
    "hungama._token_valid": (
        lambda token: HUNGAMA._token_valid("trk1", token), None,
        [_hungama_token("9" * 5000), "A" * 28 + "1²", "A" * 28 + "9" * 5000,
         "\ud800" * 28 + "1"],
        _near_misses_text(_live_hungama_token(), _hungama_token("")),
    ),
    "cdn._signed_terms": (
        lambda query: _signed_terms(SECRET, KEY_PAIR, query), None,
        [_signed(b'{"expires":1e400,"resource":"/"}'), _signed(DEEP.encode()),
         _signed(b'{"expires":"' + b"9" * 5000 + b'","resource":"/"}'),
         _signed(b"\xff\xfe"), {POLICY_PARAM: "x", KEY_PAIR_PARAM: KEY_PAIR}],
        _near_misses_bytes(_POLICY).map(_signed)
        | st.dictionaries(st.sampled_from((POLICY_PARAM, SIGNATURE_PARAM, KEY_PAIR_PARAM)),
                          _short_text | _long_text),
    ),
}


def _check(name: str, value) -> None:
    decoder, refusal, _pinned, _draws = CONTRACTS[name]
    try:
        decoder(value)
    except Exception as exc:  # the contract is about every exception
        assert refusal is not None and isinstance(exc, refusal), (
            f"{name} raised {exc!r}, not {refusal.__name__ if refusal else 'nothing'}"
        )


@pytest.mark.parametrize("name", CONTRACTS)
def test_pinned_near_misses_meet_the_contract(name):
    for value in CONTRACTS[name][2]:
        _check(name, value)


@pytest.mark.parametrize("name", CONTRACTS)
@settings(max_examples=60)
@given(data=st.data())
def test_drawn_inputs_meet_the_contract(name, data):
    _check(name, data.draw(CONTRACTS[name][3], label="input"))


def test_valid_inputs_still_decode():
    # the near misses above start from these, so each must really decode
    assert parse_master(_MASTER) and parse_index(_INDEX)
    assert passphrase_open("pass", _SEALED) == b"payload"
    assert bench._open(KEY, _LICENSE) == b"k" * 32
    assert wynk._parse_mix(_MIX) == ("0123456789abcdef" * 2, "1700000000-0123456789abcdef")
    assert HUNGAMA._token_valid("trk1", _live_hungama_token())
    assert _signed_terms(SECRET, KEY_PAIR, _signed(_POLICY + b'"}')) == ("/", 2000000000)
    page = json.dumps({"song": {"perma_url": "p", "encrypted_media_url": "e", "title": "t"}})
    assert saavn.parse_song_page(f"{_SAAVN}{page};</script>").title == "t"
    block = json.dumps({"title": "t", "path": {"high": "x"}})
    assert gaana.parse_song_page(f"{_GAANA}{block}</span>").path == {"high": "x"}
