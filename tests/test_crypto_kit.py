"""Primitive-level checks against independent implementations.

Every primitive the services rely on is cross-checked two ways: frozen
vectors from the defining documents (RFC 2202, RFC 4648, RFC 6238,
NIST SP 800-38A, FIPS-197) and a second implementation written from
those documents rather than from the package. The AES second opinion
lives in aes_reference; HMAC, base64 and TOTP oracles are inline here.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aes_reference import cbc_encrypt, ctr_xor
from drmtestbed.crypto_kit import (
    SALT_MAGIC,
    DecodeError,
    InvalidKeyError,
    PaddingError,
    SealError,
    SizeError,
    TotpParams,
    aes_cbc_decrypt,
    aes_cbc_encrypt,
    aes_ctr,
    b64,
    b64_decode,
    hmac_sha1,
    passphrase_open,
    passphrase_seal,
    totp,
)

RANDOM_VECTORS = 128


# ---------------------------------------------------------------- oracles

_B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def oracle_b64(data: bytes) -> str:
    """Bit-walk base64: six bits at a time off each 3-byte group."""
    out = []
    for i in range(0, len(data), 3):
        group = data[i:i + 3]
        bits = int.from_bytes(group + b"\x00" * (3 - len(group)), "big")
        chars = [_B64_ALPHABET[(bits >> shift) & 0x3F] for shift in (18, 12, 6, 0)]
        keep = 1 + (len(group) * 8) // 6
        out.append("".join(chars[:keep]) + "=" * (4 - keep))
    return "".join(out)


def oracle_hmac_sha1(key: bytes, msg: bytes) -> bytes:
    """ipad/opad construction straight out of RFC 2104."""
    if len(key) > 64:
        key = hashlib.sha1(key).digest()
    key = key.ljust(64, b"\x00")
    inner = hashlib.sha1(bytes(b ^ 0x36 for b in key) + msg).digest()
    return hashlib.sha1(bytes(b ^ 0x5C for b in key) + inner).digest()


def oracle_totp(secret: bytes, window: int, digits: int, at: int, t0: int = 0) -> str:
    """RFC 6238 on top of RFC 4226 dynamic truncation."""
    counter = (at - t0) // window
    mac = oracle_hmac_sha1(secret, struct.pack(">Q", counter))
    offset = mac[-1] & 0x0F
    code = (struct.unpack(">I", mac[offset:offset + 4])[0] & 0x7FFFFFFF) % 10 ** digits
    return str(code).zfill(digits)


def test_hmac_oracle_agrees_with_stdlib():
    import hmac as stdlib_hmac

    rng = random.Random(0x1CEB00DA)
    for _ in range(RANDOM_VECTORS):
        key = rng.randbytes(rng.randrange(1, 100))
        msg = rng.randbytes(rng.randrange(0, 300))
        assert oracle_hmac_sha1(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha1).digest()


# ------------------------------------------------------------- hmac_sha1

# RFC 2202 section 3, all seven SHA-1 cases.
RFC2202 = [
    (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (bytes(range(1, 26)), b"\xcd" * 50, "4c9007f4026250c6bc8414f9bf50c86c2d7235da"),
    (b"\x0c" * 20, b"Test With Truncation", "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
     "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"),
]


@pytest.mark.parametrize("key,msg,digest", RFC2202)
def test_hmac_sha1_rfc2202(key, msg, digest):
    assert hmac_sha1(key, msg).hex() == digest


def test_hmac_sha1_quick_fox():
    got = hmac_sha1(b"key", b"The quick brown fox jumps over the lazy dog")
    assert got.hex() == "de7c9b85b8b78aa6bc8a7a36f70a90701c9db4d9"


def test_hmac_sha1_randomized_against_oracle():
    rng = random.Random(0xB617)
    for _ in range(RANDOM_VECTORS):
        key = rng.randbytes(rng.randrange(1, 100))
        msg = rng.randbytes(rng.randrange(0, 400))
        assert hmac_sha1(key, msg) == oracle_hmac_sha1(key, msg)


def test_hmac_sha1_rejects_empty_key():
    with pytest.raises(InvalidKeyError):
        hmac_sha1(b"", b"message")


# ---------------------------------------------------------------- base64

RFC4648 = [
    (b"", ""),
    (b"f", "Zg=="),
    (b"fo", "Zm8="),
    (b"foo", "Zm9v"),
    (b"foob", "Zm9vYg=="),
    (b"fooba", "Zm9vYmE="),
    (b"foobar", "Zm9vYmFy"),
]


@pytest.mark.parametrize("raw,encoded", RFC4648)
def test_b64_rfc4648(raw, encoded):
    assert b64(raw) == encoded
    assert b64_decode(encoded) == raw


def test_b64_randomized_against_oracle():
    rng = random.Random(0x4648)
    for _ in range(RANDOM_VECTORS):
        data = rng.randbytes(rng.randrange(0, 200))
        encoded = b64(data)
        assert encoded == oracle_b64(data)
        assert b64_decode(encoded) == data


@pytest.mark.parametrize("bad", ["Zm9v!a==", "Zm9", "Zg=", "Z g==", "Zm9v\n"])
def test_b64_decode_rejects_malformed(bad):
    with pytest.raises(DecodeError):
        b64_decode(bad)


@given(st.binary(max_size=512))
def test_b64_round_trip(data):
    assert b64_decode(b64(data)) == data


# ------------------------------------------------------------------ totp

# RFC 6238 appendix B, SHA-1 rows: 8 digits, 30 s steps, T0=0.
RFC6238_SECRET = b"12345678901234567890"
RFC6238 = [
    (59, "94287082"),
    (1111111109, "07081804"),
    (1111111111, "14050471"),
    (1234567890, "89005924"),
    (2000000000, "69279037"),
    (20000000000, "65353130"),
]


@pytest.mark.parametrize("at,code", RFC6238)
def test_totp_rfc6238(at, code):
    params = TotpParams(window_seconds=30, digits=8)
    assert totp(RFC6238_SECRET, params, at) == code


def test_totp_randomized_against_two_oracles():
    from cryptography.hazmat.primitives.hashes import SHA1
    from cryptography.hazmat.primitives.twofactor.totp import TOTP as LibTotp

    rng = random.Random(0x6238)
    for _ in range(RANDOM_VECTORS):
        secret = rng.randbytes(rng.randrange(10, 40))
        window = rng.choice([30, 60, 600])
        digits = rng.choice([6, 7, 8])
        at = rng.randrange(0, 2 ** 40)
        params = TotpParams(window_seconds=window, digits=digits)
        got = totp(secret, params, at)
        assert got == oracle_totp(secret, window, digits, at)
        lib = LibTotp(secret, digits, SHA1(), window, enforce_key_length=False)
        assert got == lib.generate(at).decode()


def test_totp_zero_pads_short_codes():
    # scan until a leading-zero code shows up, then check its width
    params = TotpParams(window_seconds=30, digits=6)
    for at in range(0, 30 * 5000, 30):
        code = totp(b"padding-probe", params, at)
        assert len(code) == 6 and code.isdigit()
        if code[0] == "0":
            break
    else:
        raise AssertionError("no leading-zero code in 5000 windows")


def test_totp_rejects_times_before_t0():
    params = TotpParams(window_seconds=30, digits=6)
    with pytest.raises(ValueError):
        totp(b"k", params, -31)
    with pytest.raises(ValueError):
        totp(b"k", params.__class__(window_seconds=30, digits=6, t0=1000), 969)


def test_totp_rejects_empty_secret():
    with pytest.raises(InvalidKeyError):
        totp(b"", TotpParams(window_seconds=30), 59)


def test_totp_params_validation():
    with pytest.raises(ValueError):
        TotpParams(window_seconds=0)
    with pytest.raises(ValueError):
        TotpParams(window_seconds=30, digits=5)
    with pytest.raises(ValueError):
        TotpParams(window_seconds=30, digits=9)


def test_totp_constant_within_window_step_at_boundary():
    params = TotpParams(window_seconds=600, digits=6)
    window_start = 1_700_000_400 - 1_700_000_400 % 600
    codes = {totp(b"secret", params, t)
             for t in (window_start, window_start + 277, window_start + 599)}
    assert len(codes) == 1
    # the first second of the next window computes from the next counter
    next_code = totp(b"secret", params, window_start + 600)
    assert next_code == oracle_totp(b"secret", 600, 6, window_start + 600)


# --------------------------------------------------------------- aes-cbc

SP800_38A_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def test_cbc_aes128_nist_f21():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    want = bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7"
    )
    got = aes_cbc_encrypt(key, SP800_38A_IV, SP800_38A_PT)
    # the vector has no padding; ours appends one padding block after it
    assert got[:64] == want
    assert len(got) == 80


def test_cbc_aes256_nist_f25():
    key = bytes.fromhex(
        "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4"
    )
    want = bytes.fromhex(
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b"
    )
    got = aes_cbc_encrypt(key, SP800_38A_IV, SP800_38A_PT)
    assert got[:64] == want


def test_cbc_randomized_against_reference():
    rng = random.Random(0x38A)
    for _ in range(RANDOM_VECTORS):
        key = rng.randbytes(rng.choice([16, 32]))
        iv = rng.randbytes(16)
        data = rng.randbytes(rng.randrange(0, 200))
        got = aes_cbc_encrypt(key, iv, data)
        assert got == cbc_encrypt(key, iv, data)
        assert aes_cbc_decrypt(key, iv, got) == data


def test_cbc_key_and_iv_sizes():
    with pytest.raises(SizeError):
        aes_cbc_encrypt(b"x" * 24, b"\x00" * 16, b"hi")
    with pytest.raises(SizeError):
        aes_cbc_encrypt(b"x" * 16, b"\x00" * 15, b"hi")
    with pytest.raises(SizeError, match="IV"):
        aes_cbc_decrypt(b"x" * 16, b"\x00" * 15, b"\x00" * 16)
    with pytest.raises(SizeError):
        aes_cbc_decrypt(b"x" * 16, b"\x00" * 16, b"short")
    with pytest.raises(SizeError):
        aes_cbc_decrypt(b"x" * 16, b"\x00" * 16, b"")


def test_cbc_bad_padding_detected():
    key = b"k" * 16
    iv = b"\x01" * 16
    ct = bytearray(aes_cbc_encrypt(key, iv, b"will not survive"))
    ct[-1] ^= 0x40
    with pytest.raises(PaddingError):
        aes_cbc_decrypt(key, iv, bytes(ct))


def test_cbc_empty_plaintext_is_one_padding_block():
    key = b"k" * 16
    iv = b"\x02" * 16
    ct = aes_cbc_encrypt(key, iv, b"")
    assert len(ct) == 16
    assert aes_cbc_decrypt(key, iv, ct) == b""


def test_cbc_context_cache_state_against_reference():
    """crypto_kit caches cipher contexts for 16 keys, and each cached
    encryptor carries the last block it chained. Twenty keys used in a
    random order force evictions and reuse; every call must still answer
    as the reference does, also right after a decrypt that failed."""
    rng = random.Random(0xCAC4E)
    keys = [rng.randbytes(16 if i % 2 else 32) for i in range(20)]
    for _ in range(200):
        key, iv = rng.choice(keys), rng.randbytes(16)
        data = rng.randbytes(rng.randrange(0, 301))
        want = cbc_encrypt(key, iv, data)
        roll = rng.random()
        if roll < 0.45:
            assert aes_cbc_encrypt(key, iv, data) == want
        elif roll < 0.9:
            assert aes_cbc_decrypt(key, iv, want) == data
        elif roll < 0.95:
            # zero the last padded byte: flip the byte chained into it
            pad = 16 - len(data) % 16
            bad_iv, bad = bytearray(iv), bytearray(want)
            if len(want) == 16:
                bad_iv[15] ^= pad
            else:
                bad[-17] ^= pad
            with pytest.raises(PaddingError):
                aes_cbc_decrypt(key, bytes(bad_iv), bytes(bad))
        else:
            with pytest.raises(SizeError):
                aes_cbc_decrypt(key, iv, want[: rng.randrange(0, len(want))])


@given(st.binary(max_size=300), st.binary(min_size=16, max_size=16))
@settings(max_examples=60)
def test_cbc_round_trip_property(data, iv):
    key = b"\x7f" * 32
    assert aes_cbc_decrypt(key, iv, aes_cbc_encrypt(key, iv, data)) == data


# --------------------------------------------------------------- aes-ctr

def test_ctr_aes128_nist_f51():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    want = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee"
    )
    assert aes_ctr(key, counter, SP800_38A_PT) == want


def test_ctr_randomized_against_reference():
    rng = random.Random(0xC7A)
    for _ in range(RANDOM_VECTORS):
        key = rng.randbytes(16)
        nonce = rng.randbytes(16)
        data = rng.randbytes(rng.randrange(0, 200))
        offset = rng.choice([0, rng.randrange(0, 100)])
        got = aes_ctr(key, nonce, data, byte_offset=offset)
        assert got == ctr_xor(key, nonce, data, offset)


def test_ctr_offset_slices_the_same_keystream():
    key = b"\x55" * 16
    nonce = b"\xab" * 16
    whole = aes_ctr(key, nonce, b"\x00" * 500)
    rng = random.Random(5)
    for _ in range(40):
        off = rng.randrange(0, 450)
        length = rng.randrange(0, 500 - off)
        chunk = aes_ctr(key, nonce, b"\x00" * length, byte_offset=off)
        assert chunk == whole[off:off + length]


def test_ctr_chunked_calls_continue_one_keystream_per_key():
    # two streams read in interleaved chunks, each call starting where the
    # last one under its (key, nonce) ended, plus a seek back mid-stream
    streams = [(b"\x01" * 16, b"\x02" * 16), (b"\x03" * 16, b"\xff" * 16)]
    data = bytes(range(256)) * 4
    rng = random.Random(12)
    got = [bytearray(), bytearray()]
    while any(len(g) < len(data) for g in got):
        i = rng.randrange(2)
        at = len(got[i])
        got[i] += aes_ctr(*streams[i], data[at:at + rng.randrange(1, 100)], byte_offset=at)
    for (key, nonce), g in zip(streams, got):
        assert bytes(g) == ctr_xor(key, nonce, data)
        assert aes_ctr(key, nonce, data[37:90], byte_offset=37) == g[37:90]


def test_ctr_writes_into_a_buffer_of_the_data_length():
    key, nonce, data = b"\x07" * 16, b"\x08" * 16, b"into a caller's buffer" * 3
    buf = bytearray(len(data) + 4)
    view = memoryview(buf)[2:-2]
    assert aes_ctr(key, nonce, data, byte_offset=5, out=view) is view
    assert bytes(view) == ctr_xor(key, nonce, data, 5)
    assert buf[:2] == buf[-2:] == b"\x00\x00"
    with pytest.raises(SizeError):
        aes_ctr(key, nonce, data, out=memoryview(buf))


def test_ctr_counter_wraps_mod_2_128():
    key = b"\x42" * 16
    top = b"\xff" * 16
    # second block from the all-ones counter lands on counter zero
    spliced = aes_ctr(key, top, b"\x00" * 32)[16:]
    assert spliced == aes_ctr(key, b"\x00" * 16, b"\x00" * 16)


def test_ctr_is_an_involution():
    key = b"\x10" * 16
    nonce = b"\x20" * 16
    data = b"all the way around" * 9
    assert aes_ctr(key, nonce, aes_ctr(key, nonce, data)) == data


def test_ctr_parameter_validation():
    with pytest.raises(SizeError):
        aes_ctr(b"k" * 32, b"\x00" * 16, b"x")
    with pytest.raises(SizeError):
        aes_ctr(b"k" * 16, b"\x00" * 8, b"x")
    with pytest.raises(ValueError):
        aes_ctr(b"k" * 16, b"\x00" * 16, b"x", byte_offset=-1)
    assert aes_ctr(b"k" * 16, b"\x00" * 16, b"") == b""


# ----------------------------------------------------- passphrase envelope

def oracle_evp_key_iv(passphrase: bytes, salt: bytes) -> tuple[bytes, bytes]:
    """Single-round MD5 chain: D_i = MD5(D_{i-1} || pass || salt)."""
    blocks = [b""]
    while sum(len(b) for b in blocks) < 48:
        blocks.append(hashlib.md5(blocks[-1] + passphrase + salt).digest())
    material = b"".join(blocks)
    return material[:32], material[32:48]


def test_envelope_layout_and_derivation():
    salt = bytes.fromhex("1122334455667788")
    sealed = passphrase_seal("open sesame", b"forty thieves", salt)
    assert sealed[:8] == SALT_MAGIC
    assert sealed[8:16] == salt
    key, iv = oracle_evp_key_iv(b"open sesame", salt)
    assert sealed[16:] == cbc_encrypt(key, iv, b"forty thieves")


def test_envelope_matches_openssl_enc():
    # openssl enc -aes-256-cbc -md md5 -pass pass:trusty-passphrase \
    #   -S 0011223344556677  (3.x omits the header when -S is explicit)
    salt = bytes.fromhex("0011223344556677")
    sealed = passphrase_seal("trusty-passphrase", b"attack at dawn", salt)
    assert sealed == SALT_MAGIC + salt + bytes.fromhex(
        "f9f3ee3092ebc99d03c3aac89c94adb8"
    )


def test_envelope_round_trip_variants():
    rng = random.Random(0xE4B)
    for _ in range(60):
        passphrase = rng.randbytes(rng.randrange(1, 30))
        plaintext = rng.randbytes(rng.randrange(0, 120))
        sealed = passphrase_seal(passphrase, plaintext, rng.randbytes(8))
        assert passphrase_open(passphrase, sealed) == plaintext


def test_envelope_accepts_str_or_bytes_passphrase():
    salt = b"\x09" * 8
    assert passphrase_seal("pw", b"x", salt) == passphrase_seal(b"pw", b"x", salt)


def test_envelope_open_failures():
    sealed = passphrase_seal("right", b"payload", b"\x01" * 8)
    with pytest.raises(SealError):
        passphrase_open("wrong", sealed)
    with pytest.raises(SealError):
        passphrase_open("right", b"NotSalt_" + sealed[8:])
    with pytest.raises(SealError):
        passphrase_open("right", sealed[:20])
    with pytest.raises(SealError):
        passphrase_open("right", sealed + b"\x00")  # not a block multiple


def test_envelope_salt_must_be_eight_bytes():
    with pytest.raises(SizeError):
        passphrase_seal("p", b"x", b"\x00" * 7)


def test_envelope_rejects_empty_passphrase():
    with pytest.raises(InvalidKeyError):
        passphrase_seal("", b"x", b"\x00" * 8)


@given(st.binary(min_size=1, max_size=20), st.binary(max_size=64))
@settings(max_examples=60)
def test_envelope_round_trip_property(passphrase, plaintext):
    sealed = passphrase_seal(passphrase, plaintext, b"\xa5" * 8)
    assert passphrase_open(passphrase, sealed) == plaintext
