"""Golden determinism pins: the exact event stream, and what it did.

Two digests over one seeded two-switch scenario — hosts, switches,
links, clocks, the snapshot protocol and the management plane:

* ``GOLDEN_SHA256`` / ``GOLDEN_EVENTS`` hash the full ``(time, seq,
  fn_qualname)`` stream.  It pins the *event structure*: any change
  that reorders, adds or removes an event fails it.  It was recorded on
  the pre-optimization engine (plus the ``Clock.true_time``
  floor-asymmetry fix) and held bit for bit until the fused packet hop
  (docs/PERF.md), which removes an event per hop and re-recorded it
  once, 38 735 -> 26 026 events, in a commit of its own.  It was
  re-recorded a second time, events unchanged, when the CPU queues
  became one ``SerialServer``: two callbacks are now named
  ``SerialServer.deliver`` and ``SerialServer._finish`` instead of
  ``NotificationChannel.deliver`` and ``NotificationChannel._finish``.
  Mapping those names back reproduces the previous hash
  (``bb5acd33…f6bf4aa``) exactly.
* ``GOLDEN_STATE_SHA256`` (:class:`StateRecorder`) hashes what the
  scenario *did*: every unit's ordered packet passes, every host's
  ordered arrivals, every link's and egress queue's counters.  It was
  recorded on the packet path as it was *before* the fused hop and must
  survive any rewrite of the event structure.

If either fails, a change perturbed the simulation itself — that is a
correctness regression, not a formality.  Re-record the event-stream
pin only for a change that *intentionally* alters the event structure,
in a commit that changes nothing else and says so; the state pin only
for one that intentionally alters simulated behaviour.
"""

import hashlib

from repro.core import deploy
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from tests.conftest import linear
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

GOLDEN_SHA256 = ("2bf543cfd1e909913ee677a2ce0a664e"
                 "5e5a2a2e0b83d13c9cce1886ec6c15ea")
GOLDEN_EVENTS = 26026
#: Re-recorded when liveness probes became ``PacketType.PROBE`` and
#: stopped updating unit counters (they are protocol-internal, not
#: measured traffic; counting them broke per-link count conservation).
#: The event stream — hash and count above — was bit-identical across
#: that change; only the snapshot totals shed the probe contributions.
GOLDEN_TOTALS = [2006, 6008, 10000]
#: What the scenario *did*, not which events did it (see
#: :class:`StateRecorder`): recorded before the packet path was fused
#: and required to survive any rewrite that changes the event stream
#: above without changing simulated behaviour.
GOLDEN_STATE_SHA256 = ("da735d4972fdeaa13ec63f9bdf524e76"
                       "75626260df551196a7affb232e1ff054")


class StateRecorder:
    """State-level digest of one network's run.

    Hashes, per snapshot unit, the ordered passes ``(time_ns,
    packet uid, carried_sid, unit_sid_after, channel, is_data)`` from
    the trace log (build the network with ``enable_tracing=True``); per
    host the ordered ``(arrival_ns, packet uid)`` list; per link
    ``(packets_delivered, packets_dropped)``; per egress queue (switch
    egresses and host NICs) ``(packets_sent, bytes_sent,
    max_depth_packets)``.  Every history is per unit — the paper's
    linearizable processing units (§4.1) — so the digest does not see
    which of two *different* units the engine visited first within one
    nanosecond, and it sees everything else.  Packet uids are counted
    from the recorder's construction (the uid counter is process-wide).
    Attach before the network runs.
    """

    def __init__(self, network):
        self.network = network
        self._uid_base = Packet(flow=FlowKey("", "", 0, 0)).uid + 1
        self.arrivals = {name: [] for name in network.hosts}
        for name, host in network.hosts.items():
            host.on_receive = self._arrival_hook(self.arrivals[name])

    def _arrival_hook(self, log):
        sim, base = self.network.sim, self._uid_base
        return lambda packet: log.append((sim.now, packet.uid - base))

    def state(self):
        network, base = self.network, self._uid_base
        units = {}
        for ev in network.trace_log:
            units.setdefault(str(ev.unit), []).append(
                (ev.time_ns, ev.packet_uid - base, ev.carried_sid,
                 ev.unit_sid_after, ev.channel, ev.is_data))
        queues = {host.name: host._nic for host in network.hosts.values()}
        for switch in network.switches.values():
            for port in switch.ports:
                queues[str(port.egress.unit_id)] = port.egress.queue
        return {
            "units": sorted(units.items()),
            "arrivals": sorted(self.arrivals.items()),
            "links": [(link.name, link.packets_delivered,
                       link.packets_dropped) for link in network.links],
            "queues": sorted(
                (name, q.packets_sent, q.bytes_sent, q.max_depth_packets)
                for name, q in queues.items()),
        }

    def hexdigest(self):
        return hashlib.sha256(repr(self.state()).encode()).hexdigest()


def _run_golden_scenario(arm_empty_fault_schedule=False, fault_schedule=None,
                         record_state=False):
    """The pinned two-switch scenario; returns (network, deployment,
    hexdigest) — the state-level digest with ``record_state`` (tracing
    on), else the event-stream digest."""
    network = Network(linear(num_switches=2, hosts_per_switch=2),
                      NetworkConfig(seed=7, enable_tracing=record_state))
    recorder = StateRecorder(network) if record_state else None
    PoissonWorkload(network, PoissonConfig(rate_pps=10_000,
                                           stop_ns=40 * MS,
                                           sport_churn=True)).start()
    deployment = deploy(network, metric="packet_count", channel_state=True)
    if arm_empty_fault_schedule:
        fault_schedule = FaultSchedule()
    if fault_schedule is not None:
        injector = FaultInjector(network, fault_schedule,
                                 deployment=deployment)
        assert injector.arm() == 0
    deployment.schedule_campaign(count=3, interval_ns=10 * MS)

    digest = hashlib.sha256()

    def trace(time: int, seq: int, fn) -> None:
        # Integer ns on every executed event, schedule_fast (which
        # skips exact_ns) included.
        assert type(time) is int
        name = getattr(fn, "__qualname__", None) or repr(fn)
        digest.update(f"{time}:{seq}:{name}\n".encode())

    network.sim.trace = trace
    network.run(until=60 * MS)
    if recorder is not None:
        return network, deployment, recorder.hexdigest()
    return network, deployment, digest.hexdigest()


def test_golden_event_trace_hash():
    network, deployment, digest = _run_golden_scenario()
    assert network.sim.events_run == GOLDEN_EVENTS
    assert digest == GOLDEN_SHA256
    snaps = [deployment.observer.snapshot(epoch) for epoch in (1, 2, 3)]
    assert [s.total_value() for s in snaps] == GOLDEN_TOTALS


def test_golden_state_digest():
    """The same scenario pinned by what it did: the rewrite-proof twin
    of the event-stream hash above."""
    network, deployment, digest = _run_golden_scenario(record_state=True)
    assert digest == GOLDEN_STATE_SHA256
    assert sum(h.packets_received for h in network.hosts.values()) == 4771
    snaps = [deployment.observer.snapshot(epoch) for epoch in (1, 2, 3)]
    assert [s.total_value() for s in snaps] == GOLDEN_TOTALS


def test_empty_fault_schedule_preserves_golden_trace():
    """The chaos layer must be pay-for-what-you-use: arming an *empty*
    FaultSchedule schedules nothing, draws no RNG, and reproduces the
    reference event stream byte-for-byte (docs/FAULTS.md)."""
    network, _, digest = _run_golden_scenario(arm_empty_fault_schedule=True)
    assert network.sim.events_run == GOLDEN_EVENTS
    assert digest == GOLDEN_SHA256


def test_all_zero_composite_profile_preserves_golden_trace():
    """The profile-algebra analogue: a composite whose every part is
    inert compiles to an *empty* schedule, and arming it is
    byte-identical to no injector at all (docs/FAULTS.md)."""
    from repro.faults import (Compose, IndependentFaults, MaintenanceWindow,
                              ProfileContext)
    from tests.conftest import linear as linear_topo

    topo = linear_topo(num_switches=2, hosts_per_switch=2)
    context = ProfileContext.for_topology(topo, horizon_ns=30 * MS,
                                          start_ns=10 * MS, seed=7)
    composite = (IndependentFaults(intensity=0.0)
                 | MaintenanceWindow(targets=())
                 | Compose(parts=(IndependentFaults(intensity=0.0,
                                                    stream="other"),)))
    schedule = composite.compile(context)
    assert not schedule
    network, _, digest = _run_golden_scenario(fault_schedule=schedule)
    assert network.sim.events_run == GOLDEN_EVENTS
    assert digest == GOLDEN_SHA256
