"""Randomized end-to-end property test: conservation on random networks.

Hypothesis drives whole simulations: random small topologies, random
traffic matrices and rates, random loss, random snapshot cadence — and
for every complete snapshot the system produces, the ground-truth
conservation law must hold exactly for every record marked consistent.
This is the strongest single statement the test suite makes: the
protocol's headline guarantee survives arbitrary (bounded) composition
of everything else the repository implements.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ConsistencyChecker
from repro.core import ControlPlaneConfig, deploy
from repro.sim.channel import BernoulliLoss
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine, linear, ring, single_switch
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _build_topology(kind: str):
    if kind == "single":
        return single_switch(num_hosts=3)
    if kind == "linear":
        return linear(num_switches=3, hosts_per_switch=1)
    if kind == "ring":
        return ring(num_switches=4, hosts_per_switch=1)
    return leaf_spine(hosts_per_leaf=1)


scenario = st.fixed_dictionaries({
    "topology": st.sampled_from(["single", "linear", "ring", "leafspine"]),
    "seed": st.integers(min_value=0, max_value=10_000),
    "rate_pps": st.sampled_from([2_000.0, 10_000.0, 25_000.0]),
    "loss_pct": st.sampled_from([0.0, 0.0, 0.005]),  # mostly lossless
    "channel_state": st.booleans(),
    "snapshots": st.integers(min_value=2, max_value=4),
    "interval_ms": st.integers(min_value=3, max_value=10),
})


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario)
def test_conservation_on_random_scenarios(params):
    loss_factory = None
    if params["loss_pct"]:
        loss_factory = (lambda spec, rng:
                        BernoulliLoss(params["loss_pct"], rng))
    network = Network(_build_topology(params["topology"]),
                      NetworkConfig(seed=params["seed"],
                                    enable_tracing=True,
                                    loss_factory=loss_factory))
    duration = 60 * MS + params["snapshots"] * params["interval_ms"] * MS \
        + 300 * MS
    workload = PoissonWorkload(network, PoissonConfig(
        seed=params["seed"] + 1, rate_pps=params["rate_pps"],
        stop_ns=duration, sport_churn=True))
    workload.start()
    deployment = deploy(
        network, metric="packet_count", channel_state=params["channel_state"],
        control_plane=ControlPlaneConfig(
            probe_delay_ns=2 * MS if params["channel_state"] else 0))
    deployment.schedule_campaign(params["snapshots"],
                                 params["interval_ms"] * MS)
    network.run(until=duration)

    snaps = deployment.observer.completed_snapshots()
    # Liveness: with retries and probes, every epoch completes.
    assert len(snaps) == params["snapshots"], (
        f"only {len(snaps)}/{params['snapshots']} snapshots completed")
    # Safety: every consistent record satisfies the conservation law.
    checker = ConsistencyChecker(deployment.ids)
    checker.ingest(network.trace_log)
    checked = checker.check_all(snaps, channel_state=params["channel_state"])
    assert checked > 0
