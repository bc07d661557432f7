"""The equivalence matrix: one drawn deployment, paired execution modes,
one oracle (docs/SHARDING.md, "What the equivalence matrix checks").

A draw is a topology, traffic, a loss model, a campaign, a
DeploymentConfig with every field drawn (:data:`FIELDS`) and a fault
profile of any registered type over any fault kind (:data:`PROFILES`,
:data:`KINDS`), or none; a failing draw prints as a dict that evaluates
here, to pin with ``@example``.  A draw whose compiled fault schedule is
non-empty is checked for safety only (:data:`CARVE_OUTS`): every epoch
resolves, complete epochs pass the checkers, every excluded device has
a reason, and shard order changes no event.  Its flat, flat-modeled and
tree runs are not compared: a crashed control plane takes down the
relay it hosts only in a tree, so the collection paths see different
faults.  ``REPRO_MATRIX_EXAMPLES`` sets the example count,
``REPRO_MATRIX_DEEP=1`` adds fat-tree k=4.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections.abc import Callable
from dataclasses import fields, replace
from typing import Any, Optional

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.analysis import (ConsistencyChecker, LinkAudit, epoch_from_record,
                            epoch_record)
from repro.core import (RECOVERY_PRESETS, AggregationConfig,
                        ControlPlaneConfig, DeploymentConfig, ObserverConfig,
                        RecoveryPolicy, deploy)  # noqa: F401 - draws' repr
from repro.faults import (FAULT_KINDS, Cascade, Compose, CorrelatedGroup,
                          FaultInjector, FaultProfile, FaultSchedule,
                          IndependentFaults, MaintenanceWindow,
                          ProfileContext)
from repro.service.pipeline import PipelineConfig, SnapshotPipeline
from repro.service.query import QueryEngine
from repro.sim.channel import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.sim.engine import MS, US
from repro.sim.network import NetworkConfig
from repro.sim.shard import ShardRunner, ShardWorker
from repro.topology import fat_tree, leaf_spine, ring, single_switch
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload
from tests.conftest import linear

EXAMPLES = int(os.environ.get("REPRO_MATRIX_EXAMPLES", "20"))
TOPOLOGIES = {"single": lambda: single_switch(num_hosts=3),
              "linear": lambda: linear(num_switches=3, hosts_per_switch=1),
              "ring": lambda: ring(num_switches=4, hosts_per_switch=1),
              "leafspine": lambda: leaf_spine(hosts_per_leaf=1)}
if os.environ.get("REPRO_MATRIX_DEEP") == "1":
    TOPOLOGIES["fattree"] = lambda: fat_tree(k=4)
ACCUMULATORS = ("packet_count", "byte_count")
UNTIL_NS = 600 * MS  # past the slowest preset's retries and device timeout


def _recovered(base, config_of):
    """``base`` with a drawn recovery preset, or none, applied over it
    (``config_of`` is one of the two RecoveryPolicy config builders)."""
    presets = [RECOVERY_PRESETS[name] for name in sorted(RECOVERY_PRESETS)]
    return st.tuples(base, st.none() | st.sampled_from(presets)).map(
        lambda drawn: drawn[0] if drawn[1] is None
        else config_of(drawn[1], drawn[0]))


#: One strategy per DeploymentConfig field, given the draw's switches;
#: the guard test holds its keys to the dataclass.
FIELDS = {
    # Accumulators twice: only they are held to the conservation laws.
    "metric": lambda sws: st.sampled_from(
        ACCUMULATORS * 2 + ("queue_depth", "heavy_hitter")),
    "channel_state": lambda sws: st.booleans(),
    "max_sid": lambda sws: st.sampled_from([255, None, 3, 7]),
    "switches": lambda sws: st.none() | st.lists(
        st.sampled_from(sws), min_size=1, unique=True).map(sorted),
    "ideal_units": lambda sws: st.booleans(),
    "control_plane": lambda sws: _recovered(st.builds(
        ControlPlaneConfig, probe_delay_ns=st.sampled_from([2 * MS, 0]),
        notification_transport=st.sampled_from(["socket", "digest"])),
        RecoveryPolicy.control_plane_config),
    "observer": lambda sws: _recovered(st.builds(
        ObserverConfig, lead_time_ns=st.sampled_from([5 * MS, 10 * MS])),
        RecoveryPolicy.observer_config),
    "aggregation": lambda sws: st.none() | st.builds(
        AggregationConfig, degree=st.integers(0, 4)),
}

#: Every fault kind, by name; the guard test holds it to FAULT_KINDS.
KINDS = ("link_down", "link_loss", "link_delay", "queue_squeeze",
         "unit_stall", "cp_crash", "cp_overflow", "cp_slow",
         "clock_holdover", "clock_step")
#: How long a fault window lasts; 0 never reverts it.
DURATIONS = st.sampled_from([0, 1 * MS, 5 * MS])
#: When a pinned profile strikes (clamped into the fault window); None
#: lets the profile draw the instant from the draw's seed.
STRIKES = st.none() | st.sampled_from([5 * MS, 15 * MS])


def _kinds(layer: str) -> st.SearchStrategy[str]:
    return st.sampled_from([k for k in KINDS if FAULT_KINDS[k] == layer])


def _targets(kind: str, sws: list[str],
             links: list[str]) -> st.SearchStrategy[tuple[str, ...]]:
    """Named targets of ``kind``'s layer (a single switch has no fabric
    link to name)."""
    names = links if FAULT_KINDS[kind] == "link" else sws
    return st.lists(st.sampled_from(names), min_size=1, max_size=2,
                    unique=True).map(tuple) if names else st.just(())


Profiles = Callable[[list[str], list[str]], st.SearchStrategy[FaultProfile]]

#: One strategy per registered FaultProfile type, given the deployed
#: switches and the fabric links; the guard test holds its keys to the
#: registry.
PROFILES: dict[str, Profiles] = {
    "independent": lambda sws, links: st.builds(
        IndependentFaults, intensity=st.sampled_from([0.5, 1.5]),
        kinds=st.none() | st.lists(st.sampled_from(KINDS), min_size=1,
                                   max_size=3, unique=True).map(tuple),
        mean_duration_ns=st.sampled_from([1 * MS, 5 * MS])),
    "correlated": lambda sws, links: st.builds(
        CorrelatedGroup, switch=st.none() | st.sampled_from(sws),
        at_ns=STRIKES, duration_ns=DURATIONS,
        jitter_ns=st.sampled_from([0, 500 * US]),
        link_kind=_kinds("link"), switch_kind=_kinds("switch")),
    "maintenance": lambda sws, links: st.sampled_from(KINDS).flatmap(
        lambda kind: st.builds(
            MaintenanceWindow, targets=_targets(kind, sws, links),
            kind=st.just(kind), offset_ns=st.sampled_from([0, 8 * MS]),
            duration_ns=DURATIONS, stagger_ns=st.sampled_from([0, 2 * MS]))),
    "cascade": lambda sws, links: st.builds(
        Cascade, origin=st.none() | st.sampled_from(sws),
        probability=st.sampled_from([0.5, 1.0]),
        spread_delay_ns=st.sampled_from([100 * US, 1 * MS]),
        duration_ns=DURATIONS, max_depth=st.integers(0, 3), at_ns=STRIKES,
        include_cp=st.booleans()),
    "compose": lambda sws, links: st.lists(
        st.one_of([draw(sws, links) for tag, draw in PROFILES.items()
                   if tag != "compose"]),
        min_size=2, max_size=3).map(lambda parts: Compose(parts=tuple(parts))),
}


class ScriptedLoss(LossModel):
    """Drop exactly the packets ``predicate`` selects.  Key it on packet
    contents or a count, never on ``Packet.uid``: uids count across the
    whole process."""

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        self.predicate = predicate
        self.dropped: list[Any] = []

    def should_drop(self, packet: Any) -> bool:
        drop = self.predicate(packet)
        if drop:
            self.dropped.append(packet)
        return drop


#: Loss models by name, each a function of one drop rate.
LOSSES: dict[str, Callable[[float], Callable[[Any, Any], LossModel]]] = {
    "bernoulli": lambda rate: lambda spec, rng: BernoulliLoss(rate, rng),
    "gilbert": lambda rate: lambda spec, rng: GilbertElliottLoss(
        rng, p_good_to_bad=0.02, p_bad_to_good=0.08, p_loss_bad=rate),
    # Adversarially periodic: every k-th packet a link carries, whatever
    # the RNG says (not by packet uid: uids count across shards and runs).
    "scripted": lambda rate: lambda spec, rng: ScriptedLoss(
        predicate=lambda p, k=round(1 / rate), n=itertools.count(1):
        next(n) % k == 0),
}


def _schedule(case: dict[str, Any], config: DeploymentConfig
              ) -> FaultSchedule:
    """The draw's compiled fault schedule (empty without a profile),
    over the fabric links and the deployed switches, across the
    campaign."""
    if case["faults"] is None:
        return FaultSchedule()
    ctx = ProfileContext.for_topology(
        TOPOLOGIES[case["topology"]](), start_ns=2 * MS, seed=case["seed"],
        horizon_ns=(case["snapshots"] * case["interval"] + 10) * MS)
    if config.switches is not None:
        ctx = replace(ctx, switches=tuple(config.switches),
                      clocks=tuple(config.switches))
    return case["faults"].compile(ctx)


#: Draws with no liveness promise, by name: checked for safety only.
CARVE_OUTS = {
    # An epoch still pending when a window's worth of later epochs
    # initiate is abandoned (the no-lapping rule, §5.3).
    "ID window shorter than the campaign": lambda case, c: not c.ideal_units
    and c.max_sid is not None and c.max_sid // 2 < case["snapshots"],
    # A link dropping one packet in ten or more can swallow a unit's
    # every snapshot packet past the observer's retries.
    "Loss of 10% or more": lambda case, c: case["loss"] is not None
    and case["loss"][1] >= 0.1,
    # A crashed control plane is timed out and excluded, a stalled or
    # lossy path flags its epoch (§6): resolved, not complete.
    "Faults armed": lambda case, c: bool(_schedule(case, c)),
}


@st.composite
def cases(draw: st.DrawFn) -> dict[str, Any]:
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[topology]()
    switches = sorted(topo.switches)
    shards = 1 if len(switches) == 1 else draw(st.integers(2, 3))
    config = draw(st.builds(DeploymentConfig, **{
        name: field(switches) for name, field in FIELDS.items()}))
    links = list(ProfileContext.for_topology(topo, horizon_ns=1).links)
    return dict(
        topology=topology, seed=draw(st.integers(0, 10_000)),
        rate=draw(st.sampled_from([2_000.0, 10_000.0]))
        / (20 if topology == "fattree" else 1),
        loss=draw(st.none() | st.tuples(
            st.sampled_from(sorted(LOSSES)),
            st.sampled_from([0.005, 0.02, 0.1, 0.3]))),
        snapshots=draw(st.integers(2, 4)), interval=draw(st.integers(3, 10)),
        config=config, faults=draw(st.none() | st.sampled_from(
            sorted(PROFILES)).flatmap(lambda tag: PROFILES[tag](
                config.switches or switches, links))),
        shards=shards, order=draw(st.permutations(range(shards))))


def _setup(worker: ShardWorker, case: dict[str, Any],
           config: DeploymentConfig, live: dict[Any, Any]
           ) -> Callable[[], tuple[int, list[dict[str, Any]]]]:
    hosts = sorted(worker.network.topology.hosts)
    mine = [h for h in hosts if worker.plan.assignment[h] == worker.shard_id]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=case["seed"] + worker.shard_id, rate_pps=case["rate"],
        stop_ns=(40 + case["snapshots"] * case["interval"]) * MS,
        pairs=[(s, d) for s in mine for d in hosts if d != s],
        sport_churn=True)).start()
    deployment = live[worker.shard_id] = deploy(worker, **vars(config))
    # Each shard's injector arms the events it owns; an empty share
    # arms nothing.
    FaultInjector(worker.network, _schedule(case, config),
                  deployment=deployment).arm()
    if not deployment.is_observer_shard:
        return lambda: (worker.sim.events_run, [])
    epochs = deployment.schedule_campaign(case["snapshots"],
                                          case["interval"] * MS)
    live["store"] = SnapshotPipeline(worker.sim, deployment.observer,
                                     PipelineConfig(keyframe_interval=2)).store
    return lambda: (worker.sim.events_run, [
        epoch_record(deployment.observer.snapshot(e)) for e in epochs])


def _run(case: dict[str, Any], config: DeploymentConfig, shards: int = 1,
         order: Optional[list[int]] = None, traced: bool = False
         ) -> tuple[tuple[int, list[str], list[Any]], dict[Any, Any]]:
    """One run: (rounds, per-shard event digests, results), live objects.
    A digest hashes each event's integer ns (``:d`` refuses a float),
    seq and qualname."""
    live, loss = {}, case["loss"]
    runner = ShardRunner(TOPOLOGIES[case["topology"]](), NetworkConfig(
        seed=case["seed"], enable_tracing=traced,
        loss_factory=loss and LOSSES[loss[0]](loss[1])),
        shards=shards, setup=_setup,
        setup_args=(case, config, live), order=order)
    digests = [hashlib.sha256() for _ in runner.workers] if order else []
    for worker, digest in zip(runner.workers, digests):
        worker.sim.trace = lambda time, seq, fn, d=digest: d.update(
            f"{time:d}:{seq}:{getattr(fn, '__qualname__', None) or repr(fn)}\n"
            .encode())
    results = runner.run(UNTIL_NS)
    return (runner.rounds, [d.hexdigest() for d in digests], results), live


def _oracle(docs: list[dict[str, Any]], promised: bool,
            audit: Optional[LinkAudit],
            checker: Optional[ConsistencyChecker] = None,
            channel_state: bool = False) -> None:
    """Every epoch resolves (completes, if liveness is ``promised``) and
    names a reason for each device it excluded; a complete one's
    consistent records pass the checker, a complete consistent one
    LinkAudit."""
    for doc in docs:
        assert doc["status"] == "complete" if promised else (
            doc["status"] != "pending"), doc["epoch"]
        reasons = doc["exclusion_reasons"]
        assert sorted(reasons) == doc["excluded_devices"], doc["epoch"]
        assert all(reason == "silent" or reason.startswith("relay:")
                   for reason in reasons.values()), reasons
        if audit and doc["status"] == "complete":
            snap = epoch_from_record(doc)
            assert checker is None or checker.violations_of(
                snap, channel_state) == []
            assert not doc["consistent"] or audit.violations(snap) == []


def _collected(runs, observer):
    """What collection paths agree on: epochs no run abandoned, read
    before the first observer retry fires, less ``retries`` and
    ``exclusion_reasons``.  Intake latency decides abandonment (the ID
    window) and retries, a retry's re-fired initiation draws from the
    control plane's RNG, and a tree blames a silent relay ancestor."""
    fires = min([d["requested_wall_ns"] for docs in runs for d in docs
                 if d["retries"]], default=UNTIL_NS) \
        + observer.retry_timeout_ns + observer.lead_time_ns - MS
    skip = {d["epoch"] for docs in runs for d in docs
            if d["status"] == "abandoned"
            or any(r["read_ns"] >= fires for r in d["records"])}
    return [[{k: v for k, v in d.items()
              if k not in ("retries", "exclusion_reasons")}
             for d in docs if d["epoch"] not in skip] for docs in runs]


def test_strategy_draws_every_deployment_field() -> None:
    assert set(FIELDS) == {f.name for f in fields(DeploymentConfig)}


def test_strategy_draws_every_fault_profile_and_kind() -> None:
    assert set(PROFILES) == set(FaultProfile._registry)
    assert sorted(KINDS) == sorted(FAULT_KINDS)


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(cases())
# A relay's control plane crashes while it holds an epoch's records
# (AggregationAgent.set_online drops them; the observer blames it).
@example(case=dict(
    topology="ring", seed=2759, rate=2_000.0, loss=None, snapshots=3,
    interval=5, config=DeploymentConfig(
        metric="byte_count", channel_state=True, max_sid=3, ideal_units=True,
        control_plane=ControlPlaneConfig(probe_delay_ns=0),
        aggregation=AggregationConfig(degree=3)),
    faults=Cascade(origin="sw3", max_depth=0, at_ns=15 * MS, duration_ns=0,
                   include_cp=True),
    shards=2, order=[0, 1]))
# Channel state under periodic loss, probes with no delay: both epochs
# complete (liveness is promised; no carve-out applies).
@example(case=dict(
    topology="leafspine", seed=1, rate=2_000.0, loss=("scripted", 0.02),
    snapshots=2, interval=3, config=DeploymentConfig(
        channel_state=True, control_plane=ControlPlaneConfig(
            probe_delay_ns=0)),
    faults=None, shards=2, order=[0, 1]))
def test_equivalence_matrix(case: dict[str, Any]) -> None:
    config = case["config"]
    assert eval(repr(case)) == case  # a failing draw replays from its repr
    if config.channel_state and config.metric not in ACCUMULATORS:
        with pytest.raises(ValueError, match="channel state"):
            _run(case, config)
        return
    # The oracle, on one traced shard; uncarved draws promise liveness.
    (_, _, [(_, docs)]), live = _run(case, config, traced=True)
    deployment = live[0]
    checker = audit = None
    if config.metric in ACCUMULATORS:
        checker = ConsistencyChecker(deployment.ids, config.metric)
        checker.ingest(deployment.network.trace_log)
        audit = LinkAudit(deployment.network)
    promised = not any(carved(case, config) for carved in CARVE_OUTS.values())
    _oracle(docs, promised, audit, checker, config.channel_state)
    faulted = CARVE_OUTS["Faults armed"](case, config)
    # Service path: stored docs and conservation answers equal batch.
    kept = [deployment.observer.snapshot(doc["epoch"]) for doc in docs
            if doc["status"] != "abandoned"]
    assert QueryEngine(live["store"]).range() == [
        dict(epoch_record(s), merged_epochs=0) for s in kept]
    if audit:
        held = [s for s in kept if s.records and s.consistent]
        answer = QueryEngine(live["store"], audit, checker,
                             config.channel_state).conservation()
        assert (answer["checked"], answer["violating_epochs"]) == (
            len(held), [s.epoch for s in held if audit.violations(s)
                        or checker.violations_of(s, config.channel_state)])
    # Collection path: flat, flat-modeled and tree intake agree (not
    # under faults: a control-plane crash takes a relay down only in a
    # tree).
    tree = config.aggregation and config.aggregation.degree or 2
    for aggregation in (None, AggregationConfig(degree=0),
                        AggregationConfig(degree=tree)):
        if aggregation != config.aggregation and not faulted:
            (_, _, [(_, other)]), _ = _run(
                case, replace(config, aggregation=aggregation))
            ours, theirs = _collected([docs, other],
                                      deployment.config.observer)
            assert theirs == ours, aggregation
    # Shard order changes no event; shard count is an invariant, not an
    # equality (each scoped Network draws its own RNG).
    shards = case["shards"]
    if shards > 1 and (config.channel_state or config.switches is not None):
        with pytest.raises(ValueError, match="sharded"):
            _run(case, config, shards)
    elif shards > 1:
        runs = [_run(case, config, shards, order)[0]
                for order in (list(range(shards)), case["order"])]
        assert runs[0] == runs[1]
        _oracle(runs[0][2][0][1], promised, audit)
