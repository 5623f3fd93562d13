"""Acceptance gates for the whole testbed.

Each test prints one verdict line (run with -s to see them all) and
asserts the property it names. Tolerances are pinned in the assertions,
not derived at runtime.
"""

from __future__ import annotations

import json
import string
import time
from itertools import permutations
from random import Random

from aes_reference import cbc_encrypt, ctr_xor
from test_auditor import EXPECTED
from test_crypto_kit import oracle_hmac_sha1, oracle_totp
from test_hungama import _mdnurl, _player_data, _token_of
from test_wynk import SID, V2, _check, _login, _prime, _sealed, _stream_call

from drmtestbed.auditor import AUDIT_SERVICES
from drmtestbed.cli import main
from drmtestbed.clients import wynk_v2_handshake
from drmtestbed.config import TestbedConfig
from drmtestbed.crypto_kit import (
    DecodeError,
    TotpParams,
    aes_cbc_encrypt,
    aes_ctr,
    b64_decode,
    hmac_sha1,
    totp,
)
from drmtestbed.hls import (
    AUDIO_MAGIC,
    BITRATE_LADDER,
    parse_index,
    parse_master,
    render_index,
    render_master,
    segment,
)
from drmtestbed.ripper import tap_rip
from drmtestbed.services import wynk
from drmtestbed.testbed import RIP_SERVICES, Testbed
from drmtestbed.transport import export_tap, query_string, split_url

INSECURE = ("wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama")

# golden practices matrix: the comparison table's rows of EXPECTED, each
# in PRACTICE_FIELDS order: user id, stream encryption, hardcoded keys,
# drm, cookie timeout, premium gating, obfuscation
GOLDEN_AUDIT = {name: EXPECTED[name] for name in AUDIT_SERVICES}

# characters a one-byte edit may substitute: the credential alphabets
# plus nearby punctuation, minus query-string structure ("&", "?", "#")
MUTATION_POOL = string.ascii_letters + string.digits + "+/=:.~!"


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _mutations(text: str, skip=None):
    """All single-character substitutions from MUTATION_POOL, minus the
    spellings `skip` marks as decoding to the very same credential."""
    for pos, orig in enumerate(text):
        for repl in MUTATION_POOL:
            if repl == orig:
                continue
            cand = text[:pos] + repl + text[pos + 1:]
            if skip is not None and skip(cand):
                continue
            yield cand


def _benchmark_plays(bed):
    """Every exchange of the benchmark client playing each catalog track."""
    records = []
    for track in bed.catalog.track_ids():
        played, client_error = bed.tapped_run("benchmark", track)
        assert client_error == "", client_error
        records += played
    return records


# ------------------------------------------------------------ criterion 1


def test_recovery_byte_identical_and_fast(bed):
    tracks = bed.catalog.track_ids()
    runs, slowest = 0, 0.0
    exact = True
    for service in INSECURE:
        for track in tracks:
            t0 = time.perf_counter()
            blob = b"".join(bed.run_client(service, track))
            slowest = max(slowest, time.perf_counter() - t0)
            runs += 1
            exact = exact and blob == bed.catalog.assets[track].variant(320)
    _verdict(
        1,
        "reference clients recover catalog bytes from every open service",
        exact and runs == 15 and slowest < 1.0,
        f"{runs} runs over {len(INSECURE)} services x {len(tracks)} tracks, "
        f"slowest {slowest * 1000:.0f} ms",
    )


# ------------------------------------------------------------ criterion 2


def test_rip_differential_insecure_vs_benchmark(bed):
    matched = 0
    for service in INSECURE:
        for track in bed.catalog.track_ids():
            result, client_error = bed.rip(service, track)
            if client_error == "" and result.succeeded and result.matched_catalog:
                matched += 1

    records = _benchmark_plays(bed)
    bench_defeated = all(
        not tap_rip(records, bed.catalog, "benchmark", track).succeeded
        for track in bed.catalog.track_ids()
    )
    media_bodies = [
        rec.response.body
        for rec in records
        if rec.response.status == 200 and len(rec.response.body) >= 1000
    ]
    no_magic = media_bodies and all(
        not rec.response.body.startswith(AUDIO_MAGIC) for rec in records
    )
    _verdict(
        2,
        "tap rip matches catalog on open services and fails on the benchmark",
        matched == 15 and bench_defeated and bool(no_magic),
        f"{matched}/15 insecure rips matched, "
        f"{len(media_bodies)} benchmark media bodies without plaintext magic",
    )


# ------------------------------------------------------------ criterion 3


def test_audit_matrix_golden(capsys):
    code = main(["audit", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    got = {
        entry["service"]: tuple(entry["practices"].values())
        for entry in doc["audits"]
    }
    cells_ok = sum(
        got.get(name, ()) == row for name, row in GOLDEN_AUDIT.items()
    )
    _verdict(
        3,
        "audit emits the golden 7x5 practices matrix cell for cell",
        code == 0 and len(got) == 5 and cells_ok == 5,
        f"{cells_ok}/5 service columns exact",
    )


# ------------------------------------------------------------ criterion 4


def _step_spit_out(net, env, art):
    art["bk"] = _prime(net, env)


def _step_check(net, env, art):
    resp = _check(net, env, art.get("bk") or wynk.gen_bk(env.clock.now(), env.rng))
    if resp.status == 200:
        values = json.loads(resp.body)
        art["bs"] = "".join(values[f] for f in wynk.CHECK_FIELDS)


def _step_login(net, env, art):
    art["issued"] = _login(net, env, art.get("bs", "0" * 32)).status == 200


_STEPS = {"spit_out": _step_spit_out, "check": _step_check, "login": _step_login}


def test_handshake_order_and_otp_window():
    issuing = []
    for order in permutations(_STEPS):
        tb = Testbed(TestbedConfig())
        art: dict = {}
        for step in order:
            _STEPS[step](tb.net, tb.env, art)
        if art.get("issued"):
            issuing.append(order)
    order_ok = issuing == [("spit_out", "check", "login")]

    tb = Testbed(TestbedConfig())
    session = wynk_v2_handshake(tb.net, tb.env)
    window = wynk.TOTP_PARAMS.window_seconds

    def otp_status(at):
        code = wynk.otp(session["dt"], tb.config.wynk_sk, at)
        return _stream_call(
            tb.net, tb.env, session, **V2, dt=session["dt"], t=_sealed(session["kt"], code)
        ).status

    now = tb.env.clock.now()
    accepted = [otp_status(now), otp_status(now - window)]
    rejected = [otp_status(now - 2 * window), otp_status(now + 2 * window)]
    window_ok = (
        window == 600
        and accepted == [200, 200]
        and rejected == [401, 401]
    )
    _verdict(
        4,
        "handshake order is enforced and the one-time code window is two steps",
        order_ok and window_ok,
        f"issuing orders {issuing}, accepted {accepted}, rejected {rejected}",
    )


# ------------------------------------------------------------ criterion 5


def _fuzz(send, credential: str, skip=None) -> tuple[int, int, int]:
    tried = accepts = rejected = 0
    for cand in _mutations(credential, skip):
        status = send(cand)
        tried += 1
        if status == 200:
            accepts += 1
        elif status == 403:
            rejected += 1
    return tried, rejected, accepts


def test_credential_mutation_fuzz(bed):
    # stream signature header on the playback API
    session = wynk_v2_handshake(bed.net, bed.env)
    qs = query_string(dict(wynk.STREAM_QUERY, id=SID))
    msg = wynk.stream_message("POST", wynk.V2_STREAM_PATH, qs, "{}")
    utkn = wynk.utkn(session["uid"], session["token"], msg)
    digest = b64_decode(utkn.partition(":")[2])

    def send_utkn(cand):
        return _stream_call(
            bed.net, bed.env, session, **V2, utkn=cand, dt=session["dt"], otp=True
        ).status

    def same_utkn(cand):
        # a different spelling of the identical uid:digest is not a forgery
        uid, sep, given = cand.partition(":")
        if not sep or uid != session["uid"]:
            return False
        try:
            return b64_decode(given) == digest
        except DecodeError:
            return False

    assert send_utkn(utkn) == 200  # the genuine header must work

    # signed grant on the media CDN, taken from a live authorization
    token = _token_of(_player_data(bed.net, "trk1"))
    media_url = json.loads(_mdnurl(bed.net, "trk1", token).body)["media_url"]
    host, path, grant_query = split_url(media_url)
    signature = grant_query["Signature"]
    sig_bytes = b64_decode(signature)

    def send_signature(cand):
        q = dict(grant_query)
        q["Signature"] = cand
        return bed.net.get(f"https://{host}{path}", extra_query=q).status

    def same_signature(cand):
        try:
            return b64_decode(cand) == sig_bytes
        except DecodeError:
            return False

    assert send_signature(signature) == 200

    def send_token(cand):
        return _mdnurl(bed.net, "trk1", cand).status

    assert send_token(token) == 200

    results = {
        "stream header": _fuzz(send_utkn, utkn, same_utkn),
        "grant signature": _fuzz(send_signature, signature, same_signature),
        "media token": _fuzz(send_token, token),
    }
    ok = all(
        tried >= 256 and rejected == tried and accepts == 0
        for tried, rejected, accepts in results.values()
    )
    detail = ", ".join(
        f"{name}: {tried} mutations, {accepts} accepted"
        for name, (tried, rejected, accepts) in results.items()
    )
    _verdict(5, "every single-byte credential mutation is refused", ok, detail)


# ------------------------------------------------------------ criterion 6


def test_crypto_matches_independent_implementations():
    rng = Random(0xACCE)
    n = 128
    hmac_ok = all(
        hmac_sha1(key, msg) == oracle_hmac_sha1(key, msg)
        for key, msg in (
            (rng.randbytes(rng.randint(1, 64)), rng.randbytes(rng.randint(0, 200)))
            for _ in range(n)
        )
    )
    totp_ok = True
    for _ in range(n):
        secret = rng.randbytes(rng.randint(1, 32))
        window = rng.choice((30, 300, 600))
        digits = rng.randint(6, 8)
        at = rng.randint(0, 4_000_000_000)
        params = TotpParams(window_seconds=window, digits=digits)
        totp_ok = totp_ok and totp(secret, params, at) == oracle_totp(
            secret, window, digits, at
        )
    cbc_ok = True
    for _ in range(n):
        key = rng.randbytes(rng.choice((16, 32)))
        iv = rng.randbytes(16)
        pt = rng.randbytes(rng.randint(0, 100))
        cbc_ok = cbc_ok and aes_cbc_encrypt(key, iv, pt) == cbc_encrypt(key, iv, pt)
    ctr_ok = True
    for _ in range(n):
        key, nonce = rng.randbytes(16), rng.randbytes(16)
        data = rng.randbytes(rng.randint(0, 200))
        offset = rng.randint(0, 1000)
        ctr_ok = ctr_ok and aes_ctr(key, nonce, data, byte_offset=offset) == ctr_xor(
            key, nonce, data, offset
        )
    cip_ok = (
        wynk.encode_cip("1234") == "112234"
        and wynk.encode_cip("99") == "199"
        and wynk.encode_cip("0000") == "100200"
    )
    _verdict(
        6,
        "primitives agree with second implementations and traced vectors",
        hmac_ok and totp_ok and cbc_ok and ctr_ok and cip_ok,
        f"{n} random vectors each for hmac/totp/cbc/ctr, 3 cip vectors",
    )


# ------------------------------------------------------------ criterion 7


def test_manifest_and_segmentation_round_trip():
    rng = Random(0x415)
    rounds, ok = 500, True
    for _ in range(rounds):
        media = rng.randbytes(rng.randint(1, 4000))
        chunk = rng.randint(1, len(media) + 100)
        chunks, index = segment(media, chunk, uri_prefix="v/")
        ok = ok and b"".join(chunks) == media
        ok = ok and parse_index(render_index(index)) == tuple(index)
        entries = [
            (r * 1000, f"https://cdn.example/{r}/index.m3u8")
            for r in sorted(rng.sample(BITRATE_LADDER, rng.randint(1, 5)))
        ]
        ok = ok and parse_master(render_master(entries)) == tuple(entries)
        if not ok:
            break
    _verdict(
        7,
        "segmentation and playlist rendering invert exactly",
        ok,
        f"{rounds} random (media, chunk size) pairs",
    )


# ------------------------------------------------------------ criterion 8


def test_key_confinement_in_benchmark_transcript(bed):
    records = _benchmark_plays(bed)
    bodies = [rec.request.body for rec in records] + [
        rec.response.body for rec in records
    ]
    keys = [bed.config.key("device_key_hex"), *bed.benchmark._license_keys.values()]
    assert all(len(key) == 16 for key in keys)
    hits = 0
    windows = 0
    for body in bodies:
        windows += max(0, len(body) - 15)
        for start in range(len(body) - 15):
            if body[start:start + 16] in keys:
                hits += 1
    _verdict(
        8,
        "content and device keys never cross the wire in the clear",
        hits == 0 and windows > 50_000 and len(keys) == 4,
        f"{windows} sliding windows over {len(bodies)} bodies, {hits} hits",
    )


# ------------------------------------------------------------ criterion 9


def test_deterministic_tap_exports():
    def transcripts():
        tb = Testbed(TestbedConfig())
        exports = []
        for service in RIP_SERVICES:
            records = []
            for track in tb.catalog.track_ids():
                played, client_error = tb.tapped_run(service, track)
                assert client_error == "", client_error
                records += played
            exports.append(export_tap(records).encode("utf-8"))
        return exports

    same = [
        first == second and len(first) > 0
        for first, second in zip(transcripts(), transcripts())
    ]
    _verdict(
        9,
        "same seed and clock give byte-identical tap exports per service",
        all(same),
        f"{sum(same)}/{len(RIP_SERVICES)} services identical across runs",
    )
