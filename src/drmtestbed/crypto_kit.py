"""Primitives every simulated service leans on.

Everything here is deliberately boring: HMAC-SHA1, base64, RFC 6238 TOTP,
AES-CBC with PKCS#7, AES-CTR with a byte-addressable counter, and the
OpenSSL "Salted__" passphrase envelope. The AES block operations ride on
the cryptography wheel; the rest is stdlib.

Building cryptography's cipher objects costs several times what a short
CBC call does, and most keys here are fixed per service, so the CBC
contexts are cached per key (an LRU bounded at 16 keys). Outputs are
unchanged. A decrypt runs one cached ECB decryptor and XORs in the
chain itself: P = D(C) xor (IV || C[:-16]). An encrypt continues one
cached, never finalized CBC encryptor, which chains from the last
ciphertext block L it emitted (NIST SP 800-38A 6.2); XORing iv xor L
into the first plaintext block makes that chain start from iv instead.
Either way the result is a pure function of (key, iv, data).

AES-CTR keeps no state here: ctr_keystream returns an encryptor
positioned at any byte of a (key, nonce) stream, and aes_ctr runs one
per call, so its result is a pure function of (key, nonce, data,
offset). A caller that reads a stream in pieces holds its keystream
itself, as the benchmark CDM does for each installed key, so no content
key outlives its holder. The CBC cache is not thread-safe: the testbed
is single-threaded.
"""

from __future__ import annotations

import base64
import binascii
import functools
import hashlib
import hmac as _hmac
import struct
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes


class CryptoError(Exception):
    """Base for everything raised out of this module."""


class InvalidKeyError(CryptoError):
    pass


class SizeError(CryptoError):
    pass


class DecodeError(CryptoError):
    pass


class PaddingError(CryptoError):
    pass


class SealError(CryptoError):
    pass


@dataclass(frozen=True)
class TotpParams:
    window_seconds: int
    digits: int = 6
    t0: int = 0

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ValueError("window must be positive")
        if not 6 <= self.digits <= 8:
            raise ValueError("digits must be 6..8")


def hmac_sha1(key: bytes, msg: bytes) -> bytes:
    if not key:
        raise InvalidKeyError("empty HMAC key")
    return _hmac.new(key, msg, hashlib.sha1).digest()


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64_decode(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise DecodeError(f"bad base64: {exc}") from exc


def totp(secret: bytes, params: TotpParams, at: int) -> str:
    """RFC 6238 with HMAC-SHA1 and dynamic truncation, returned as a
    zero-padded decimal digit string (the string is what goes on the wire,
    never the integer)."""
    if not secret:
        raise InvalidKeyError("empty TOTP secret")
    counter = (int(at) - params.t0) // params.window_seconds
    if counter < 0:
        raise ValueError("time before t0")
    digest = hmac_sha1(secret, struct.pack(">Q", counter))
    offset = digest[19] & 0x0F
    code = (int.from_bytes(digest[offset:offset + 4], "big") & 0x7FFFFFFF)
    code %= 10 ** params.digits
    return format(code, f"0{params.digits}d")


def _check_aes_key(key: bytes, sizes: tuple[int, ...]) -> None:
    if len(key) not in sizes:
        raise SizeError(f"AES key must be {sizes} bytes, got {len(key)}")


class _CbcContexts:
    """cryptography's contexts for one AES key, each built on first use.
    `last` is the encryptor's last ciphertext block, as an int."""

    __slots__ = ("algorithm", "encryptor", "last", "decryptor")

    def __init__(self, key: bytes):
        self.algorithm = algorithms.AES(key)
        self.encryptor = self.decryptor = None
        self.last = 0


@functools.lru_cache(maxsize=16)
def _cbc_contexts(key: bytes) -> _CbcContexts:
    return _CbcContexts(key)


def aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    _check_aes_key(key, (16, 32))
    if len(iv) != 16:
        raise SizeError("IV must be 16 bytes")
    pad = 16 - len(plaintext) % 16
    padded = plaintext + bytes([pad]) * pad
    ctx = _cbc_contexts(key)
    if ctx.encryptor is None:
        ctx.encryptor = Cipher(ctx.algorithm, modes.CBC(bytes(16))).encryptor()
    head = (
        int.from_bytes(padded[:16], "big") ^ int.from_bytes(iv, "big") ^ ctx.last
    )
    out = ctx.encryptor.update(head.to_bytes(16, "big") + padded[16:])
    ctx.last = int.from_bytes(out[-16:], "big")
    return out


def aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    _check_aes_key(key, (16, 32))
    if len(iv) != 16:
        raise SizeError("IV must be 16 bytes")
    if not ciphertext or len(ciphertext) % 16:
        raise SizeError("ciphertext must be a positive multiple of 16")
    ctx = _cbc_contexts(key)
    if ctx.decryptor is None:
        ctx.decryptor = Cipher(ctx.algorithm, modes.ECB()).decryptor()
    chain = int.from_bytes(iv + ciphertext[:-16], "big")
    padded = (
        int.from_bytes(ctx.decryptor.update(ciphertext), "big") ^ chain
    ).to_bytes(len(ciphertext), "big")
    pad = padded[-1]
    if not 1 <= pad <= 16 or padded[-pad:] != bytes([pad]) * pad:
        raise PaddingError("bad PKCS#7 padding")
    return padded[:-pad]


def ctr_keystream(key: bytes, nonce: bytes, byte_offset: int = 0):
    """A cryptography CTR encryptor for (key, nonce), positioned at
    byte_offset of the stream: the counter starts at block
    nonce + offset//16 and the first offset%16 keystream bytes of that
    block are discarded. Each update() continues where the last ended."""
    _check_aes_key(key, (16,))
    if len(nonce) != 16:
        raise SizeError("nonce must be 16 bytes")
    if byte_offset < 0:
        raise ValueError("negative offset")
    block, skip = divmod(byte_offset, 16)
    counter = (int.from_bytes(nonce, "big") + block) % (1 << 128)
    keystream = Cipher(
        algorithms.AES(key), modes.CTR(counter.to_bytes(16, "big"))
    ).encryptor()
    keystream.update(bytes(skip))
    return keystream


def aes_ctr(
    key: bytes,
    nonce: bytes,
    data: bytes,
    byte_offset: int = 0,
    out: memoryview | None = None,
) -> bytes | memoryview:
    """CTR keystream XOR, addressable at any byte offset into the stream,
    so a caller can decrypt a slice of a long stream without walking the
    keystream from zero.

    With `out` (a writable buffer of exactly len(data) bytes) the result
    is written there and `out` is returned; otherwise new bytes are.
    """
    keystream = ctr_keystream(key, nonce, byte_offset)
    if out is None:
        return keystream.update(data)
    if len(out) != len(data):
        raise SizeError("output buffer must be as long as the data")
    keystream.update_into(data, out)
    return out


SALT_MAGIC = b"Salted__"


def _evp_kdf(passphrase: bytes, salt: bytes, key_len: int = 32, iv_len: int = 16):
    # Single-round MD5 chaining, the legacy OpenSSL EVP_BytesToKey schedule.
    out = b""
    block = b""
    while len(out) < key_len + iv_len:
        block = hashlib.md5(block + passphrase + salt).digest()
        out += block
    return out[:key_len], out[key_len:key_len + iv_len]


def _as_passphrase(passphrase) -> bytes:
    if isinstance(passphrase, str):
        passphrase = passphrase.encode("utf-8")
    if not passphrase:
        raise InvalidKeyError("empty passphrase")
    return passphrase


def passphrase_seal(passphrase, plaintext: bytes, salt: bytes) -> bytes:
    """OpenSSL-style envelope: b"Salted__" || salt || AES-256-CBC ciphertext
    with key+IV derived from the passphrase by MD5 chaining. This is the
    format CryptoJS emits, which is why it exists here at all."""
    pw = _as_passphrase(passphrase)
    if len(salt) != 8:
        raise SizeError("salt must be 8 bytes")
    key, iv = _evp_kdf(pw, salt)
    return SALT_MAGIC + salt + aes_cbc_encrypt(key, iv, plaintext)


def passphrase_open(passphrase, sealed: bytes) -> bytes:
    pw = _as_passphrase(passphrase)
    if len(sealed) < 32 or sealed[:8] != SALT_MAGIC:
        raise SealError("missing salt header")
    key, iv = _evp_kdf(pw, sealed[8:16])
    try:
        return aes_cbc_decrypt(key, iv, sealed[16:])
    except (PaddingError, SizeError) as exc:
        raise SealError("envelope does not open") from exc
