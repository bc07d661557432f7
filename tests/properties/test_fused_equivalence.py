"""Fused vs per-finish packet path: the first cell of the equivalence
matrix (ROADMAP, docs/PERF.md "The fused hop").

Hypothesis draws a small network, Poisson traffic with a 64 B / 1500 B
size mix (so serialisation times differ and short packets queue behind
long ones), channel state on or off (off, a unit pass that carries the
unit's own epoch takes the quiet pass, ``SnapshotAgent.quiet_sid``) and
a :class:`FaultSchedule` over the five data-path fault kinds,
overlapping windows included.  The same
scenario then runs twice — links wired fused, and links wired the way
every scoped (multi-shard) network wires them, one event per finish
instant — and must reach the same state-level digest
(:class:`tests.integration.test_golden_trace.StateRecorder`): every
unit's ordered packet passes, every host's ordered arrivals, every
link's and every egress queue's counters.

A failing example prints its fault schedule as JSON.  The tier-1 budget
is a smoke; ``make fused-diff-deep`` runs the same test much longer.
"""

import json
import os

from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.core import deploy
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sim.engine import US
from repro.sim.network import Network, NetworkConfig
from repro.sim.packet import FlowKey, Packet
from repro.topology import leaf_spine
from tests.conftest import linear
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload
from tests.integration.test_golden_trace import StateRecorder

EXAMPLES = int(os.environ.get("REPRO_FUSED_DIFF_EXAMPLES", "20"))

TRAFFIC_NS = 400 * US
UNTIL_NS = 1500 * US

TOPOLOGIES = {
    "leafspine": lambda: leaf_spine(hosts_per_leaf=2),
    "linear": lambda: linear(num_switches=3, hosts_per_switch=1),
}


class EveryNode:
    """A scope that owns every node.  Nothing is cut, so the network is
    the whole topology — wired the way scoped networks wire their links
    (``scope is not None``: per-finish, never fused)."""

    def owns(self, name):
        return True

    def boundary_link(self, sim, spec, loss=None):
        raise AssertionError("no link is cut")

    def remote_snapshot_enabled(self, name):
        return True


class MixedPoisson(PoissonWorkload):
    """Poisson arrivals; each packet draws its size (64 B or 1500 B)
    from the workload's own RNG."""

    def emit(self, src, dst, *, sport, dport, size_bytes, seq=0, proto=6):
        if not self.active:
            return
        size = 64 if self.rng.random() < 0.5 else 1500
        self.network.host(src).send_packet(Packet(
            flow=FlowKey(src, dst, sport, dport, proto), size_bytes=size))
        self.packets_emitted += 1


def run_scenario(case, schedule, scope):
    network = Network(TOPOLOGIES[case["topology"]](), NetworkConfig(
        seed=case["seed"], enable_tracing=True), scope=scope)
    assert all(link._plain is (scope is None) for link in network.links)
    recorder = StateRecorder(network)
    workload = MixedPoisson(network, PoissonConfig(
        seed=case["seed"] + 1, rate_pps=case["rate_pps"],
        stop_ns=TRAFFIC_NS, sport_churn=True))
    workload.start()
    deployment = deploy(network, metric="packet_count",
                        channel_state=case["channel_state"])
    FaultInjector(network, schedule, deployment=deployment).arm()
    deployment.schedule_campaign(count=2, interval_ns=150 * US)
    network.run(until=UNTIL_NS)
    return recorder.state()


LINKS = {name: [f"{s.a}-{s.b}" for s in build().links]
         for name, build in TOPOLOGIES.items()}
SWITCHES = {name: list(build().switches) for name, build in TOPOLOGIES.items()}

FAULT_PARAMS = {
    "link_down": st.just({}),
    "link_loss": st.one_of(
        st.builds(lambda p: {"model": "bernoulli", "p": p},
                  st.sampled_from([0.1, 0.5, 1.0])),
        st.just({"model": "gilbert_elliott", "p_good_to_bad": 0.2,
                 "p_bad_to_good": 0.3, "p_loss_bad": 0.7})),
    "link_delay": st.builds(lambda ns: {"extra_ns": ns},
                            st.integers(min_value=1, max_value=60_000)),
    "queue_squeeze": st.builds(lambda cap: {"capacity": cap},
                               st.integers(min_value=1, max_value=6)),
    "unit_stall": st.just({}),
}


@st.composite
def cases(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    case = {
        "topology": topology,
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "rate_pps": draw(st.sampled_from([100_000.0, 400_000.0])),
        "channel_state": draw(st.booleans()),
    }
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(sorted(FAULT_PARAMS)))
        pool = (LINKS if kind.startswith("link_") else SWITCHES)[topology]
        events.append(FaultEvent(
            at_ns=draw(st.integers(min_value=0, max_value=TRAFFIC_NS)),
            kind=kind, target=draw(st.sampled_from(pool + ["*"])),
            # No window shorter than the longest serialisation (1500 B at
            # 25 Gb/s is 480 ns): a revert then never meets a packet that
            # began serialising before the fault was applied, so "a change
            # in the finish nanosecond precedes the hand-over" holds.
            duration_ns=draw(st.integers(min_value=2 * US,
                                         max_value=TRAFFIC_NS // 2)),
            params=draw(FAULT_PARAMS[kind])))
    return case, FaultSchedule(events=events)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_fused_and_per_finish_wirings_reach_the_same_state(drawn):
    case, schedule = drawn
    note(f"case = {json.dumps(case)}")
    note(f"fault schedule = {schedule!r}")
    fused = run_scenario(case, schedule, scope=None)
    per_finish = run_scenario(case, schedule, scope=EveryNode())
    for part in fused:
        assert fused[part] == per_finish[part], part
    assert sum(len(log) for _host, log in fused["arrivals"]) > 0
