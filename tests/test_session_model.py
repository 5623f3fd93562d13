"""A stateful model of server session state: plays of every service
as every principal, a clock that runs past each lifetime (hungama's
playback token's included) and is set back, and replays of captured
requests, against two beds fed the same steps.

Every expiring store logs its puts and pops, so the test can say from
the store's own contract what it must and may hold: an entry no later
put found expired is still there, an expired one is refused, and after
a put at time T nothing is left that was put before the first entry
still live at T. Every step's tap must also keep the benchmark's keys
confined: no benchmark exchange carries the device key or a content
key, and no benchmark CDN body is a run of catalog plaintext. Any
exception a step raises, from `dispatch` or a client, fails the run.
The machine runs derandomized with a fixed budget, so a failure
reproduces on every run.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from drmtestbed import benchmark as bench
from drmtestbed.clients import ProtocolFailure
from drmtestbed.config import TestbedConfig
from drmtestbed.testbed import ANONYMOUS, DEFAULT_PRINCIPAL, FREE_TIER, Testbed
from drmtestbed.transport import ALLOWED_STATUSES, copy_request, export_tap

# lifetimes small enough that a few clock steps outlive each of them
CONFIG = TestbedConfig(
    wynk_session_ttl=1800, bearer_ttl=900, grant_ttl=600, hungama_token_ttl=600
)
SERVICES = ("wynk-v1", "wynk-v2", "jiosaavn", "gaana", "hungama", "benchmark")
PRINCIPALS = (DEFAULT_PRINCIPAL, FREE_TIER, ANONYMOUS)
TRACKS = ("trk1", "trk2", "trk3")  # trk3 is premium
STEPS = (1, 119, 599, 600, 899, 900, 1799, 1800, 1801, 4000)


def _stores(bed: Testbed) -> dict:
    wynk = bed.wynk
    return {
        "benchmark._bearers": bed.benchmark._bearers,
        "benchmark._sessions": bed.benchmark._sessions,
        "wynk._by_uid": wynk._by_uid,
        "wynk._by_dt": wynk._by_dt,
        "wynk._by_bk": wynk._by_bk,
        "wynk._by_cip": wynk._by_cip,
    }


def _log_calls(store, log: list) -> None:
    """Append (key, expires_at) to log after every put to store, and
    (key, None) after every pop, the ones a put makes included."""
    put, pop = store.put, store.pop

    def logged_put(key, value, now):
        put(key, value, now)
        log.append((key, now + store.ttl))

    def logged_pop(key, *default):
        popped = pop(key, *default)
        log.append((key, None))
        return popped

    store.put, store.pop = logged_put, logged_pop


class SessionModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bed, self.twin = Testbed(CONFIG), Testbed(CONFIG)
        self.variants = {
            blob for asset in self.bed.catalog.assets.values()
            for blob in asset.variants.values()
        }
        self.keys = (self.bed.benchmark.device_key,
                     *self.bed.benchmark._license_keys.values())
        self.calls = {}  # store name -> its put and pop log, in call order
        for name, store in _stores(self.bed).items():
            _log_calls(store, self.calls.setdefault(name, []))
        self.captured = []  # requests the bed has seen, for replay

    def _on_both(self, step):
        """step(bed) on the bed and on its twin, each under a fresh tap;
        both must put the same bytes on the wire. Returns the bed's
        result."""
        results, taps = [], []
        for bed in (self.bed, self.twin):
            taps.append(bed.net.attach_tap())
            try:
                results.append(step(bed))
            finally:
                bed.net.detach_tap(taps[-1])
        mine, twins = (tap.records() for tap in taps)
        assert export_tap(mine) == export_tap(twins)
        self._keys_stay_confined(mine)
        self.captured += [rec.request for rec in mine]
        return results[0]

    def _keys_stay_confined(self, records):
        for rec in records:
            host = rec.request.headers["host"]
            if not host.endswith(".benchtune.sim"):
                continue
            sent, received = bytes(rec.request.body), bytes(rec.response.body)
            assert not any(key in sent or key in received for key in self.keys), rec.seq
            if host == bench.HOST_CDN and received:
                assert not any(received in variant for variant in self.variants), rec.seq

    @rule(service=st.sampled_from(SERVICES), principal=st.sampled_from(PRINCIPALS),
          track=st.sampled_from(TRACKS))
    def play(self, service, principal, track):
        def run(bed):
            try:
                return bed.run_client(service, track, None, principal)
            except ProtocolFailure:
                return None

        audio = self._on_both(run)
        if audio is not None:
            assert b"".join(audio) in self.variants
        if service == "benchmark" and principal != DEFAULT_PRINCIPAL:
            # bad credentials never play; a free account never plays premium
            assert audio is None or (
                principal == FREE_TIER and not self.bed.catalog.assets[track].premium
            )

    @rule(seconds=st.sampled_from(STEPS))
    def advance(self, seconds):
        self._on_both(lambda bed: bed.env.clock.advance(seconds))

    @rule(seconds=st.sampled_from(STEPS))
    def set_back(self, seconds):
        self._on_both(lambda bed: bed.env.clock.set_to(bed.env.now() - seconds))

    @rule(pick=st.integers(min_value=0))
    def replay(self, pick):
        if not self.captured:
            return
        request = self.captured[pick % len(self.captured)]
        host = request.headers["host"]
        response = self._on_both(lambda bed: bed.net.dispatch(host, copy_request(request)))
        assert response.status in ALLOWED_STATUSES

    @invariant()
    def stores_hold_only_their_live_window(self):
        now = self.bed.env.now()
        twin_stores = _stores(self.twin)
        for name, store in _stores(self.bed).items():
            assert len(store) == len(twin_stores[name])
            log = self.calls[name]
            # key -> (log index, expires_at) of its last put, or (i, None)
            # if a pop came after that put
            last = {key: (i, expires) for i, (key, expires) in enumerate(log)}
            put_times = [expires - store.ttl for _key, expires in log if expires]
            if not put_times:
                assert len(store) == 0
                continue
            # the last put swept every entry put before the first one
            # still live at its time
            live_from = min(
                i for i, expires in last.values() if expires and expires > put_times[-1]
            )
            assert len(store) <= sum(
                1 for i, expires in last.values() if expires and i >= live_from
            )
            # an expired entry is refused; one that no later put found
            # expired is still there
            later_put = float("-inf")
            for i in reversed(range(len(log))):
                key, expires = log[i]
                if expires and last[key][0] == i:
                    if expires <= now:
                        assert store.live(key, now) is None
                    elif expires > later_put:
                        assert store.live(key, now) is not None
                if expires:
                    later_put = max(later_put, expires - store.ttl)


SessionModel.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, derandomize=True, deadline=None,
    database=None,
)
test_session_model = SessionModel.TestCase
