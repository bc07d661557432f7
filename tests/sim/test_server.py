"""The one serial server behind the model's CPU queues (repro.sim.server).

The queue mechanics themselves are exercised through each owner's own
tests (tests/core/test_control_plane.py, test_digest_channel.py,
test_aggregation.py and tests/service/test_pipeline.py); this file
holds what the shared class decides for all of them.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ControlPlaneConfig, control_plane
from repro.core.aggregation import AggregateMessage, RelayChannel
from repro.core.control_plane import DigestChannel, NotificationChannel
from repro.core.notifications import Notification
from repro.sim.engine import US, Simulator
from repro.sim.switch import Direction, UnitId

UNIT = UnitId("sw0", 0, Direction.INGRESS)


def _notification(i):
    return Notification(unit=UNIT, old_sid=i, new_sid=i + 1, timestamp_ns=i)


def _message(i):
    return AggregateMessage(source="kid", epoch=i, records=[],
                            min_finalized=0, complete=True)


SERVERS = {
    "notification": (lambda sim, handler: NotificationChannel(
        sim, random.Random(1), ControlPlaneConfig(), handler), _notification),
    "digest": (DigestChannel, _notification),
    "relay": (RelayChannel, _message),
}


@pytest.mark.parametrize("kind", sorted(SERVERS))
def test_item_in_service_dies_with_a_crash_despite_a_quick_restart(
        kind, monkeypatch):
    """A crash loses the item in service even when the server is back up
    before that item's service would have ended (it used to be handled
    after the restart), and what is admitted after the restart is served
    once that slot ends."""
    # One notification per digest: each arrival ships at once.
    monkeypatch.setattr(control_plane, "DIGEST_BATCH", 1)
    make, item = SERVERS[kind]
    sim = Simulator()
    handled = []
    server = make(sim, lambda x: handled.append((sim.now, x)))
    first, second = item(1), item(2)
    server.deliver(first)                    # straight into service
    slot_end = sim.peek_time()
    sim.run(until=1 * US)
    assert server.backlog == 1
    server.online = False                    # the crash, as the owners do it
    assert not server.flush_queued()         # nothing was waiting
    sim.run(until=2 * US)
    server.online = True                     # restarted 1 us later
    server.deliver(second)
    sim.run()
    assert [x for _, x in handled] == [second]
    assert handled[0][0] > slot_end
    assert (server.received, server.processed, server.dropped) == (2, 1, 1)
    assert server.backlog == 0
