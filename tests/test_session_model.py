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
The machine runs under a fixed seed with a fixed budget, so a failure
reproduces on every run, and an edit to the machine's source that draws
nothing new does not change which steps it draws (a derandomized run
alone seeds from that source).

One rule takes, for each `CONFIG` lifetime, an answered request of an
earlier play that this lifetime governs. It moves the clock to the
first second that lifetime no longer covers, and replays the request:
it must be refused. A lifetime counts from the play, except that of a
benchmark token request: its login session lives from the latest token
granted on it, by a play or by a replay, since each grant renews it. A
run must cross each lifetime's expiry at least `EXPIRY_FLOOR` times
that way, so the model cannot quietly stop reaching expired state.
"""

from __future__ import annotations

from hypothesis import seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from drmtestbed import benchmark as bench
from drmtestbed.clients import ProtocolFailure
from drmtestbed.config import TestbedConfig
from drmtestbed.services import hungama as hungama_mod
from drmtestbed.services import wynk as wynk_mod
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
# each CONFIG lifetime -> (host, path) -> whether it governs that request
GOVERNS = {
    "hungama_token_ttl": lambda host, path: (
        host == hungama_mod.HOST_WWW and path.startswith(hungama_mod.MDNURL_PREFIX)
    ),
    # both stream calls find their login in a store of this lifetime
    "wynk_session_ttl": lambda host, path: host == wynk_mod.HOST_PLAYBACK,
    "bearer_ttl": lambda host, path: host == bench.HOST_API and (
        path == bench.TOKEN_PATH or path.startswith(bench.RESOLVE_PREFIX)
    ),
    # saavn and gaana sign grants that never expire
    "grant_ttl": lambda host, path: host in (
        wynk_mod.HOST_CDN, hungama_mod.HOST_CDN, bench.HOST_CDN
    ),
}
EXPIRY_FLOOR = 20  # replays per lifetime that crossed its expiry, in one run
crossed = []  # the lifetime of every such replay in the current run


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


@seed(1)
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
        # lifetime -> (request, clock) of each answered request a play
        # made that the lifetime governs; a play issues its own credentials
        self.governed = {lifetime: [] for lifetime in GOVERNS}
        self.renewed = {}  # bench_sid -> clock of the latest token granted on it

    def _on_both(self, step):
        """step(bed) on the bed and on its twin, each under a fresh tap;
        both must put the same bytes on the wire. Returns the bed's
        result and tap records."""
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
        for rec in mine:
            if rec.request.path == bench.TOKEN_PATH and rec.response.status == 200:
                sid = rec.request.cookies[bench.SESSION_COOKIE]
                self.renewed[sid] = self.bed.env.clock.now()
        self.captured += [rec.request for rec in mine]
        return results[0], mine

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

        now = self.bed.env.clock.now()
        audio, records = self._on_both(run)
        for rec in records:
            if rec.response.status == 200:
                for lifetime, governs in GOVERNS.items():
                    if governs(rec.request.headers["host"], rec.request.path):
                        self.governed[lifetime].append((rec.request, now))
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
        self._on_both(lambda bed: bed.env.clock.set_to(bed.env.clock.now() - seconds))

    @rule(pick=st.integers(min_value=0))
    def replay(self, pick):
        if not self.captured:
            return
        request = self.captured[pick % len(self.captured)]
        host = request.headers["host"]
        response, _ = self._on_both(
            lambda bed: bed.net.dispatch(host, copy_request(request))
        )
        assert response.status in ALLOWED_STATUSES

    @precondition(lambda self: any(self.governed.values()))
    @rule(data=st.data())
    def replay_once_expired(self, data):
        for lifetime, answered in self.governed.items():
            if answered:
                request, played_at = data.draw(st.sampled_from(answered), label=lifetime)
                self._replay_at_expiry(lifetime, request, played_at)

    def _replay_at_expiry(self, lifetime, request, played_at):
        start = played_at
        if request.path == bench.TOKEN_PATH:
            start = self.renewed[request.cookies[bench.SESSION_COOKIE]]
        expired_at = start + getattr(CONFIG, lifetime)
        host = request.headers["host"]

        def replay(bed):
            bed.env.clock.set_to(expired_at)
            return bed.net.dispatch(host, copy_request(request))

        response, _ = self._on_both(replay)
        assert response.status != 200, (lifetime, request.path, expired_at)
        crossed.append(lifetime)

    @invariant()
    def stores_hold_only_their_live_window(self):
        now = self.bed.env.clock.now()
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


SessionModel.TestCase.settings = settings(max_examples=30, stateful_step_count=40)


class test_session_model(SessionModel.TestCase):
    """The machine's run, then its floor of crossed expiries."""

    def runTest(self):
        crossed.clear()
        super().runTest()
        counts = {lifetime: crossed.count(lifetime) for lifetime in GOVERNS}
        assert min(counts.values()) >= EXPIRY_FLOOR, counts


def test_a_replayed_token_request_renews_its_session():
    """The shape of the run `hypothesis.seed(6)` drew: a token request
    replayed while its login session lives renews that session, so the
    request is refused only bearer_ttl after the replay, not the play."""
    machine = SessionModel()
    played_at = machine.bed.env.clock.now()
    machine.play(service="benchmark", principal=DEFAULT_PRINCIPAL, track="trk1")
    token = next(req for req in machine.captured if req.path == bench.TOKEN_PATH)
    machine.advance(seconds=600)
    machine.replay(pick=machine.captured.index(token))
    machine._replay_at_expiry("bearer_ttl", token, played_at)
    assert machine.bed.env.clock.now() == played_at + 600 + CONFIG.bearer_ttl
    machine.stores_hold_only_their_live_window()
