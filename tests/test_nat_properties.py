"""Property tests for the proxy SNAT table (hypothesis, stateful).

The fleet runner leans on :class:`repro.cloud.nat.SnatTable` under real
port-pool pressure (auto-sized pools, UDP-style idle expiry, no explicit
release on vehicle leave), so its invariants get adversarial coverage
here: random interleavings of allocate / refresh / release / expire
must never double-assign a live public port, must keep every live flow
on its port, and exhaustion must recover as soon as idle mappings age
out.  The state machine mirrors the table with
an exact model — including the lazy expiry translate() performs when it
finds the pool full — so any divergence shrinks to a minimal op
sequence.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cloud.nat import NatError, SnatTable

slow = settings(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

PORT_COUNT = 8
IDLE_TIMEOUT = 5.0

#: Small flow universe so collisions and reuse actually happen.
flows = st.tuples(st.sampled_from(["10.64.0.1", "10.64.0.2", "10.64.0.3"]),
                  st.integers(min_value=50000, max_value=50005))


class SnatMachine(RuleBasedStateMachine):
    """Random op interleavings against an exact model of the table."""

    @initialize()
    def setup(self):
        self.table = SnatTable("203.0.113.7", port_count=PORT_COUNT,
                               idle_timeout=IDLE_TIMEOUT)
        self.now = 0.0
        #: key -> (public_port, last_used); the live-mapping model.
        self.model = {}

    def _expired(self):
        return [k for k, (_, used) in self.model.items()
                if self.now - used > IDLE_TIMEOUT]

    @rule(flow=flows)
    def translate(self, flow):
        ip, port = flow
        key = (17, ip, port)
        if key not in self.model and len(self.model) >= PORT_COUNT:
            # pool full: translate() must lazily evict idle mappings, or
            # refuse with NatError iff nothing is evictable
            expired = self._expired()
            if expired:
                _, public = self.table.translate(17, ip, port, now=self.now)
                for k in expired:
                    del self.model[k]
                self.model[key] = (public, self.now)
            else:
                with pytest.raises(NatError):
                    self.table.translate(17, ip, port, now=self.now)
            return
        _, public = self.table.translate(17, ip, port, now=self.now)
        if key in self.model:
            assert public == self.model[key][0], "mapping must be stable"
        self.model[key] = (public, self.now)

    @rule(flow=flows)
    def release(self, flow):
        ip, port = flow
        self.table.release(17, ip, port)
        self.model.pop((17, ip, port), None)

    @rule(dt=st.floats(min_value=0.5, max_value=4.0))
    def advance(self, dt):
        self.now += dt

    @rule()
    def expire_idle(self):
        expired = self._expired()
        n = self.table.expire_idle(self.now)
        assert n == len(expired)
        for k in expired:
            del self.model[k]

    @invariant()
    def no_double_assigned_ports(self):
        if not hasattr(self, "model"):
            return  # before initialize
        ports = [p for p, _ in self.model.values()]
        assert len(ports) == len(set(ports)), \
            "two live flows share a public port"

    @invariant()
    def table_matches_model(self):
        if not hasattr(self, "model"):
            return
        assert len(self.table) == len(self.model)
        for (proto, ip, port), (public, _) in self.model.items():
            # no ``now``: reads the mapping without refreshing its stamp
            assert self.table.translate(proto, ip, port)[1] == public

    @invariant()
    def pool_never_overcommitted(self):
        if not hasattr(self, "model"):
            return
        assert len(self.table) <= PORT_COUNT


TestSnatStateMachine = SnatMachine.TestCase
TestSnatStateMachine.settings = slow


class TestExhaustionRecovery:
    """Exhaustion is transient: idle expiry must reclaim the pool."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @slow
    def test_exhaustion_recovers_after_idle_expiry(self, seed):
        from repro.determinism import seeded_rng

        rng = seeded_rng(seed, "snat-recovery")
        table = SnatTable("203.0.113.7", port_count=16, idle_timeout=10.0)
        # saturate the pool with a first wave of flows at t=0
        for i in range(16):
            table.translate(17, "10.64.0.%d" % (i % 4), 50000 + i, now=0.0)
        with pytest.raises(NatError):
            table.translate(17, "10.64.1.1", 60000, now=rng.random() * 9.0)
        # ...but once the wave goes idle, new flows must allocate again —
        # lazily inside translate(), no explicit expire_idle() required
        t = 10.0 + rng.random() * 5.0 + 0.001
        for i in range(16):
            table.translate(17, "10.64.1.%d" % (i % 4), 60000 + i, now=t)
        assert len(table) == 16
        assert table.evictions == 16

    def test_eager_and_lazy_expiry_agree(self):
        a = SnatTable("203.0.113.7", port_count=4, idle_timeout=2.0)
        b = SnatTable("203.0.113.7", port_count=4, idle_timeout=2.0)
        for i in range(4):
            a.translate(17, "10.64.0.1", 50000 + i, now=0.0)
            b.translate(17, "10.64.0.1", 50000 + i, now=0.0)
        a.expire_idle(5.0)  # eager
        a.translate(17, "10.64.0.2", 60000, now=5.0)
        b.translate(17, "10.64.0.2", 60000, now=5.0)  # lazy, inside translate
        assert a.translate(17, "10.64.0.2", 60000, now=5.0) \
            == b.translate(17, "10.64.0.2", 60000, now=5.0)
        assert len(a) == len(b) == 1
