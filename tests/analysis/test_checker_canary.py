"""A canary for the checkers: a data-plane hazard must be caught.

Cascone et al. (PAPERS.md, "Relaxing state-access constraints in
stateful programmable data planes") show that splitting a stateful
read from its write across pipeline stages lets the packets in between
see stale state.  The mutation here does that to a
:class:`~repro.core.dataplane.SpeedlightUnit`: the pass that sees a new
snapshot ID reads the counter into the snapshot register, but the ID
register takes the new ID only at the unit's next pass, so the
capturing packet leaves with the old ID.  On a fixed small scenario,
:class:`ConsistencyChecker` or :class:`LinkAudit` must flag the mutated
run within :data:`SEEDS` seeds, and the same seeds must pass unmutated;
a checker that stops firing fails this test.
"""

from __future__ import annotations

from collections.abc import Callable
from unittest import mock

import pytest

from repro.analysis import ConsistencyChecker, LinkAudit
from repro.core import deploy
from repro.core.dataplane import SpeedlightUnit
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import Packet
from tests.conftest import linear
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

#: Seeds the mutated scenario may take before a checker flags it.
SEEDS = range(3)

Pass = Callable[[SpeedlightUnit, Packet, int, int], int]


def _split_read_and_write(real: Pass) -> Pass:
    """``process_packet`` with the ID register written one pass late."""
    def process_packet(self: SpeedlightUnit, packet: Packet,
                       channel_id: int, now_ns: int) -> int:
        late = vars(self).pop("late_sid", None)
        if late is not None:  # the write the last capture deferred lands
            self._sid = late
        before = self._sid
        after = real(self, packet, channel_id, now_ns)
        if after == before:
            return after
        self._sid, self.late_sid = before, after
        # A pending write must see the next pass (no quiet fast path).
        self.quiet_sid = None
        return before
    return process_packet


def _violations(seed: int) -> list[str]:
    """Every checker finding on one two-switch campaign: conservation
    violations, then links whose receiver counted more than was sent."""
    net = Network(linear(num_switches=2, hosts_per_switch=1),
                  NetworkConfig(seed=seed, enable_tracing=True))
    PoissonWorkload(net, PoissonConfig(seed=seed, rate_pps=20_000.0,
                                       stop_ns=30 * MS)).start()
    deployment = deploy(net, metric="packet_count", channel_state=True)
    epochs = deployment.schedule_campaign(3, 5 * MS)
    net.run(until=60 * MS)
    checker = ConsistencyChecker(deployment.ids, "packet_count")
    checker.ingest(net.trace_log)
    audit = LinkAudit(net)
    found: list[str] = []
    for epoch in epochs:
        snapshot = deployment.observer.snapshot(epoch)
        assert snapshot.complete, epoch
        found += checker.violations_of(snapshot, channel_state=True)
        if snapshot.consistent:
            found += map(str, audit.violations(snapshot))
    return found


@pytest.mark.parametrize("seed", SEEDS)
def test_the_unmutated_scenario_passes(seed: int) -> None:
    assert _violations(seed) == []


def test_a_split_read_and_write_is_flagged() -> None:
    split = _split_read_and_write(SpeedlightUnit.process_packet)
    with mock.patch.object(SpeedlightUnit, "process_packet", split):
        flagged = any(_violations(seed) for seed in SEEDS)
    assert flagged, f"no checker flagged the hazard in {len(SEEDS)} seeds"
