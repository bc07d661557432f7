"""Tests for the update driver, swap semantics and the seal baseline."""

import pytest

from repro.core import deploy
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.updates import (TimedSwap, UpdateContext, UpdateDriver,
                           UpdateSchedule, inject_clock_error, noiseless_ptp)

ROUTES = (("leaf0", "server1", ("spine1",)),
          ("spine0", "server1", ("leaf0",)))


def _net(seed=3, **kwargs):
    return Network(leaf_spine(hosts_per_leaf=1),
                   NetworkConfig(seed=seed, **kwargs))


def _schedule(net, plan):
    ctx = UpdateContext.for_topology(net.topology, horizon_ns=100 * MS)
    return plan.compile(ctx)


class TestSealBaseline:
    def test_build_ends_sealed_at_generation_zero(self):
        # The network loads each built table in one pass at generation
        # 0, so every device starts uniformly there (per-install bumps
        # would leak construction order into the fib_version metric).
        net = _net()
        for name in net.switches:
            sw = net.switch(name)
            assert sw.fib_generation == 0
            assert all(v == 0 for v in sw.route_version.values())
            assert all(v == 0 for v in sw.last_matched_version)

    def test_swap_counts_up_from_seal(self):
        net = _net()
        sw = net.switch("leaf0")
        port = net.port_toward("leaf0", "spine1")
        generation = sw.apply_route_swap([("server1", [port])])
        assert generation == 1
        assert sw.fib_generation == 1


class TestSwapSemantics:
    def test_swap_bumps_generation_exactly_once(self):
        net = _net()
        sw = net.switch("leaf0")
        port = net.port_toward("leaf0", "spine1")
        sw.apply_route_swap([("server1", [port]), ("server0", [port])])
        assert sw.fib_generation == 1
        # Every surviving rule is re-tagged and every ingress register
        # refreshed — the whole table flipped, not two rules.
        assert set(sw.route_version.values()) == {1}
        assert set(sw.last_matched_version) == {1}

    def test_empty_ports_removes_route(self):
        net = _net()
        sw = net.switch("spine0")
        assert "server1" in sw.routes
        sw.apply_route_swap([("server1", ())])
        assert "server1" not in sw.routes
        assert "server1" not in sw.route_version

    def test_scheduled_swap_fires_on_local_clock(self):
        net = _net(ptp_config=noiseless_ptp())
        offsets = inject_clock_error(net, 50_000, seed=69)
        schedule = _schedule(net, TimedSwap(at_ns=20 * MS, routes=ROUTES))
        driver = UpdateDriver(net, schedule)
        driver.arm()
        net.run(until=40 * MS)
        applied = {a.device: a for a in driver.applied}
        assert set(applied) == {"leaf0", "spine0"}
        for device, record in applied.items():
            # offset > 0 means the clock runs ahead -> fires early.
            assert record.true_ns == 20 * MS - offsets[device]
            assert record.generation == 1


class TestDriver:
    def test_empty_schedule_is_strict_noop(self):
        net = _net()
        driver = UpdateDriver(net, UpdateSchedule())
        assert driver.arm() == 0
        assert all(net.switch(s).drop_monitor is None
                   for s in net.switches)
        before = net.sim.events_run
        net.run(until=10 * MS)
        # Arming scheduled nothing of its own; only ambient protocol
        # events (none here: no deployment, no traffic).
        assert driver.applied == []
        assert driver.drops == []
        assert net.sim.events_run >= before

    def test_rearm_rejected(self):
        net = _net()
        driver = UpdateDriver(net, UpdateSchedule())
        driver.arm()
        with pytest.raises(RuntimeError):
            driver.arm()

    def test_unknown_via_neighbor_rejected(self):
        net = _net()
        plan = TimedSwap(at_ns=10 * MS,
                         routes=(("leaf0", "server1", ("tor9",)),))
        driver = UpdateDriver(net, _schedule(net, plan))
        with pytest.raises(ValueError):
            driver.arm()


class TestClockErrorInjection:
    def test_zero_sigma_is_identity(self):
        net = _net(ptp_config=noiseless_ptp())
        offsets = inject_clock_error(net, 0, seed=69)
        assert set(offsets.values()) == {0}

    def test_offsets_content_keyed_not_order_keyed(self):
        # The draw depends only on (seed, switch name), so a shard that
        # owns a subset of the switches realizes the same offsets the
        # single-process run does -> verdicts can't depend on sharding.
        net_a = _net(ptp_config=noiseless_ptp())
        net_b = _net(seed=4, ptp_config=noiseless_ptp())
        a = inject_clock_error(net_a, 25_000, seed=69)
        b = inject_clock_error(net_b, 25_000, seed=69)
        assert a == b

    def test_offsets_scale_linearly_with_sigma(self):
        a = inject_clock_error(_net(ptp_config=noiseless_ptp()),
                               10_000, seed=69)
        b = inject_clock_error(_net(ptp_config=noiseless_ptp()),
                               20_000, seed=69)
        for name in a:
            assert abs(b[name] - 2 * a[name]) <= 1  # integer rounding

    def test_noiseless_ptp_preserves_injected_offset(self):
        net = _net(ptp_config=noiseless_ptp())
        offsets = inject_clock_error(net, 50_000, seed=69)
        name = max(offsets, key=lambda n: abs(offsets[n]))
        net.run(until=1 * S)  # long past any default PTP sync interval
        clock = net.ptp.clocks[name]
        assert clock.true_time(2 * S) == 2 * S - offsets[name]


class TestDeployIntegration:
    def test_deploy_without_updates_has_no_driver(self):
        net = _net()
        deployment = deploy(net, metric="packet_count")
        assert deployment.update_driver is None

    def test_deploy_arms_plan(self):
        net = _net()
        schedule = TimedSwap(at_ns=20 * MS, routes=ROUTES).compile(
            UpdateContext.for_topology(net.topology, horizon_ns=100 * MS))
        deployment = deploy(net, metric="fib_version", updates=schedule)
        assert deployment.update_driver is not None
        assert deployment.update_driver.armed
        net.run(until=40 * MS)
        assert len(deployment.update_driver.applied) == 2

    def test_deploy_plan_requires_horizon(self):
        """A plan is compiled over a horizon by its caller; deploy
        refuses one that was not."""
        net = _net()
        plan = TimedSwap(at_ns=20 * MS, routes=ROUTES)
        with pytest.raises(TypeError, match="horizon_ns"):
            plan.compile(UpdateContext.for_topology(net.topology))
        with pytest.raises(TypeError, match="compiled UpdateSchedule"):
            deploy(net, metric="fib_version", updates=plan)
