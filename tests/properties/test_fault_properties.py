"""Randomized fault-robustness properties.

Hypothesis drives snapshot campaigns over networks with arbitrary loss
patterns (independent, bursty, and adversarially scripted) plus random
fault schedules, and asserts the chaos-layer contract from
docs/FAULTS.md: faults may stall snapshots or get epochs flagged
inconsistent, but every *completed* snapshot still satisfies the
physical link invariant — a receiver never counts more pre-epoch
packets than its sender put on the wire (LinkAudit discrepancies are
non-negative) — and every record still *claiming* consistency passes
the ground-truth conservation law.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ConsistencyChecker, LinkAudit
from repro.core import deploy
from repro.faults import FaultInjector, IndependentFaults, ProfileContext
from repro.sim.channel import BernoulliLoss, GilbertElliottLoss, ScriptedLoss
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine, linear
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

ROUNDS = 3
INTERVAL_NS = 5 * MS


def _loss_factory(kind, param):
    if kind == "bernoulli":
        return lambda spec, rng: BernoulliLoss(param, rng)
    if kind == "gilbert":
        return lambda spec, rng: GilbertElliottLoss(
            rng, p_good_to_bad=0.02, p_bad_to_good=0.08, p_loss_bad=param)
    # Adversarially periodic: drop every k-th packet regardless of RNG.
    k = max(2, int(param * 20))
    return lambda spec, rng: ScriptedLoss(predicate=lambda p: p.uid % k == 0)


scenario = st.fixed_dictionaries({
    "topology": st.sampled_from(["linear", "leafspine"]),
    "seed": st.integers(min_value=0, max_value=10_000),
    "loss_kind": st.sampled_from(["bernoulli", "gilbert", "scripted"]),
    "loss_param": st.sampled_from([0.02, 0.1, 0.3]),
    "fault_intensity": st.sampled_from([0.0, 0.5, 1.5]),
    "rate_pps": st.sampled_from([5_000.0, 15_000.0]),
})


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario)
def test_link_audit_non_negative_under_arbitrary_loss(params):
    topo = (linear(num_switches=2, hosts_per_switch=1)
            if params["topology"] == "linear" else leaf_spine(hosts_per_leaf=1))
    network = Network(topo, NetworkConfig(
        seed=params["seed"], enable_tracing=True,
        loss_factory=_loss_factory(params["loss_kind"],
                                   params["loss_param"])))
    stop_ns = (ROUNDS + 2) * INTERVAL_NS + 20 * MS
    PoissonWorkload(network, PoissonConfig(seed=params["seed"] + 1,
                                           rate_pps=params["rate_pps"],
                                           stop_ns=stop_ns)).start()
    deployment = deploy(network, metric="packet_count", channel_state=True)

    if params["fault_intensity"]:
        context = ProfileContext.for_topology(
            topo, horizon_ns=ROUNDS * INTERVAL_NS, start_ns=5 * MS,
            seed=params["seed"])
        schedule = IndependentFaults(
            intensity=params["fault_intensity"]).compile(context)
        FaultInjector(network, schedule, deployment=deployment).arm()

    epochs = deployment.schedule_campaign(ROUNDS, INTERVAL_NS)
    network.run(until=stop_ns)
    snapshots = [deployment.observer.snapshot(e) for e in epochs]

    summary = LinkAudit(network).audit_completed(snapshots)
    assert summary.ok, str(summary) + "".join(
        f"\n  epoch {epoch}: {report}"
        for epoch, report in summary.negative_discrepancies)

    checker = ConsistencyChecker(deployment.ids, metric="packet_count")
    checker.ingest(network.trace_log)
    audit = checker.audit(snapshots, channel_state=True)
    assert audit.ok, str(audit) + "".join(f"\n  {v}" for v in audit.violations)
