"""Tests for the management plane."""

import random

import pytest

from repro.sim.engine import Simulator, US
from repro.sim.mgmt import ManagementPlane


def _mgmt(base=50 * US, jitter=20 * US):
    sim = Simulator()
    return sim, ManagementPlane(sim, random.Random(3), base, jitter)


class TestSend:
    def test_delivery_within_latency_bounds(self):
        sim, mgmt = _mgmt()
        seen = []
        mgmt.send(lambda: seen.append(sim.now))
        sim.run()
        assert len(seen) == 1
        assert 50 * US <= seen[0] <= 70 * US

    def test_no_jitter_is_deterministic(self):
        sim, mgmt = _mgmt(jitter=0)
        seen = []
        mgmt.send(lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50 * US]

    def test_messages_counted(self):
        sim, mgmt = _mgmt()
        for _ in range(3):
            mgmt.send(lambda: None)
        assert mgmt.messages_sent == 3

    def test_negative_latency_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ManagementPlane(sim, random.Random(1), base_latency_ns=-1)

    def test_base_latency_is_an_exact_int(self):
        # send() schedules without the engine's checks, so the base
        # latency is made exact (or refused) at construction.
        sim = Simulator()
        mgmt = ManagementPlane(sim, random.Random(1), base_latency_ns=5e4,
                               jitter_ns=0)
        assert type(mgmt.base_latency_ns) is int
        mgmt.send(lambda: None)
        sim.run()
        assert sim.now == 50 * US and type(sim.now) is int
        with pytest.raises(ValueError):
            ManagementPlane(sim, random.Random(1), base_latency_ns=0.5)


class TestRequest:
    """A request and its reply are two sends."""

    def test_round_trip(self):
        sim, mgmt = _mgmt(jitter=0)
        replies = []
        mgmt.send(lambda x: mgmt.send(replies.append, x * 2), 21)
        sim.run()
        assert replies == [42]
        assert sim.now == 100 * US  # two one-way latencies
        assert mgmt.messages_sent == 2

    def test_handler_runs_at_remote_time(self):
        sim, mgmt = _mgmt(jitter=0)
        times = []

        def handler():
            times.append(sim.now)
            mgmt.send(lambda: times.append(sim.now))

        mgmt.send(handler)
        sim.run()
        assert times == [50 * US, 100 * US]
