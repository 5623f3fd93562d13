"""Metamorphic audit properties: what may and may not move the matrix.

The practices matrix is a fact about the protocols, so no seed, no clock
in the valid range (0 <= clock < FAR_FUTURE - REPLAY_HORIZON) and no
chunk size may change it. A lifetime may, but only the one verdict it
governs: the replay probe's, for the service whose replayed
authorization lives that long, and exactly when the lifetime ends within
the probe's jump. Both run derandomized, so a failure reproduces on
every run.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmtestbed.auditor import PRACTICE_FIELDS, audit_all
from drmtestbed.cdn import FAR_FUTURE, REPLAY_HORIZON
from drmtestbed.config import ConfigError, TestbedConfig
from drmtestbed.testbed import Testbed

from test_acceptance import GOLDEN_AUDIT
from test_auditor import EXPECTED, EXTENDED_AUDIT_SERVICES

LAST_CLOCK = FAR_FUTURE - REPLAY_HORIZON - 1

# the service whose replayed authorization exchange lives each lifetime.
# wynk-v2's replay also carries a one-time code, stale after the jump
# whatever the session lifetime; every replayed exchange issues a fresh
# grant, so grant_ttl governs none.
GOVERNED = {
    "hungama_token_ttl": "hungama",
    "bearer_ttl": "spotify-benchmark",
    "wynk_session_ttl": "wynk-v1",
    "grant_ttl": None,
}
TIMEOUT = PRACTICE_FIELDS.index("cookie_auth_timeout")


def _matrix(cfg: TestbedConfig, services=EXTENDED_AUDIT_SERVICES) -> dict:
    cards = audit_all(Testbed(cfg), services)
    return {name: tuple(card.as_dict().values()) for name, card in cards.items()}


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**64),
    clock=st.integers(0, LAST_CLOCK),
    chunk_bytes=st.integers(1 << 10, 1 << 20),
)
@example(seed=7, clock=0, chunk_bytes=1 << 10)
@example(seed=7, clock=LAST_CLOCK, chunk_bytes=1 << 20)
def test_no_seed_clock_or_chunk_size_moves_the_matrix(seed, clock, chunk_bytes):
    cfg = TestbedConfig(seed=seed, clock=clock, chunk_bytes=chunk_bytes)
    assert _matrix(cfg, tuple(GOLDEN_AUDIT)) == GOLDEN_AUDIT


@settings(max_examples=40)
@given(
    field=st.sampled_from(sorted(GOVERNED)),
    ttl=st.integers(1, 4 * REPLAY_HORIZON) | st.integers(1, 10**9),
)
@example(field="hungama_token_ttl", ttl=REPLAY_HORIZON)
@example(field="hungama_token_ttl", ttl=REPLAY_HORIZON + 1)
@example(field="bearer_ttl", ttl=REPLAY_HORIZON)
@example(field="bearer_ttl", ttl=REPLAY_HORIZON + 1)
@example(field="wynk_session_ttl", ttl=REPLAY_HORIZON)
@example(field="wynk_session_ttl", ttl=REPLAY_HORIZON + 1)
def test_a_lifetime_moves_only_its_own_replay_verdict(field, ttl):
    want = dict(EXPECTED)
    service = GOVERNED[field]
    if service is not None:
        row = list(want[service])
        row[TIMEOUT] = ttl <= REPLAY_HORIZON
        want[service] = tuple(row)
    assert _matrix(TestbedConfig(**{field: ttl})) == want


def test_the_last_valid_clock_yields_the_golden_matrix():
    assert _matrix(TestbedConfig(clock=LAST_CLOCK), tuple(GOLDEN_AUDIT)) == GOLDEN_AUDIT


@pytest.mark.parametrize("clock", [LAST_CLOCK + 1, FAR_FUTURE, FAR_FUTURE + 1])
def test_build_refuses_a_clock_whose_replay_reaches_far_future(clock):
    # the replay probe would carry such a clock to where FAR_FUTURE grants
    # expire, and jiosaavn's and gaana's rows would read a timeout
    with pytest.raises(ConfigError, match=f"^clock must be before {LAST_CLOCK + 1}, got {clock}$"):
        Testbed(TestbedConfig(clock=clock))
