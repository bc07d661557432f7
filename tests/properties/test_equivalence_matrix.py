"""The equivalence matrix: one drawn deployment, paired execution modes,
one oracle (docs/SHARDING.md, "What the equivalence matrix checks").

A draw is a topology, traffic, loss, a campaign and a DeploymentConfig
with every field drawn (:data:`FIELDS`); a failing one prints as a dict
that evaluates here, to pin with ``@example``.  ``REPRO_MATRIX_EXAMPLES``
sets the example count, ``REPRO_MATRIX_DEEP=1`` adds fat-tree k=4.
"""

import hashlib
import os
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (ConsistencyChecker, LinkAudit, epoch_from_record,
                            epoch_record)
from repro.core import (RECOVERY_PRESETS, AggregationConfig,
                        ControlPlaneConfig, DeploymentConfig, ObserverConfig,
                        RecoveryPolicy, deploy)  # noqa: F401 - draws' repr
from repro.service.pipeline import PipelineConfig, SnapshotPipeline
from repro.service.query import QueryEngine
from repro.sim.channel import BernoulliLoss
from repro.sim.engine import MS
from repro.sim.network import NetworkConfig
from repro.sim.shard import ShardRunner
from repro.sim.switch import SwitchConfig
from repro.topology import fat_tree, leaf_spine, linear, ring, single_switch
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload

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

#: Draws with no liveness promise, by name: checked for safety only.
CARVE_OUTS = {
    # An epoch still pending when a window's worth of later epochs
    # initiate is abandoned (the no-lapping rule, §5.3).
    "ID window shorter than the campaign": lambda case, c: not c.ideal_units
    and c.max_sid is not None and c.max_sid // 2 < case["snapshots"],
}


@st.composite
def cases(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    switches = sorted(TOPOLOGIES[topology]().switches)
    cos = draw(st.integers(1, 2))
    shards = 1 if len(switches) == 1 else draw(st.integers(2, 3))
    return dict(
        topology=topology, cos=cos, seed=draw(st.integers(0, 10_000)),
        rate=draw(st.sampled_from([2_000.0, 10_000.0]))
        / (20 if topology == "fattree" else 1),
        loss=draw(st.sampled_from([0.0, 0.005])),
        snapshots=draw(st.integers(2, 4)), interval=draw(st.integers(3, 10)),
        config=draw(st.builds(DeploymentConfig, **{
            name: field(switches) for name, field in FIELDS.items()})),
        shards=shards, order=draw(st.permutations(range(shards))))


def _setup(worker, case, config, live):
    hosts = sorted(worker.network.topology.hosts)
    mine = [h for h in hosts if worker.plan.assignment[h] == worker.shard_id]
    PoissonWorkload(worker.network, PoissonConfig(
        seed=case["seed"] + worker.shard_id, rate_pps=case["rate"],
        stop_ns=(40 + case["snapshots"] * case["interval"]) * MS,
        pairs=[(s, d) for s in mine for d in hosts if d != s],
        sport_churn=True)).start()
    deployment = live[worker.shard_id] = deploy(worker, **vars(config))
    if not deployment.is_observer_shard:
        return lambda: (worker.sim.events_run, [])
    epochs = deployment.schedule_campaign(case["snapshots"],
                                          case["interval"] * MS)
    live["store"] = SnapshotPipeline(worker.sim, deployment.observer,
                                     PipelineConfig(keyframe_interval=2)).store
    return lambda: (worker.sim.events_run, [
        epoch_record(deployment.observer.snapshot(e)) for e in epochs])


def _run(case, config, shards=1, order=None, traced=False):
    """One run: (rounds, per-shard event digests, results), live objects.
    A digest hashes each event's integer ns (``:d`` refuses a float),
    seq and qualname."""
    live, loss = {}, case["loss"]
    runner = ShardRunner(TOPOLOGIES[case["topology"]](), NetworkConfig(
        seed=case["seed"], enable_tracing=traced,
        switch_config=SwitchConfig(num_cos=case["cos"]),
        loss_factory=(lambda spec, rng: BernoulliLoss(loss, rng))
        if loss else None), shards=shards, setup=_setup,
        setup_args=(case, config, live), order=order)
    digests = [hashlib.sha256() for _ in runner.workers] if order else []
    for worker, digest in zip(runner.workers, digests):
        worker.sim.trace = lambda time, seq, fn, d=digest: d.update(
            f"{time:d}:{seq}:{getattr(fn, '__qualname__', None) or repr(fn)}\n"
            .encode())
    results = runner.run(UNTIL_NS)
    return (runner.rounds, [d.hexdigest() for d in digests], results), live


def _oracle(docs, promised, audit, checker=None, channel_state=False):
    """Every epoch resolves (completes, if liveness is ``promised``); a
    complete one's consistent records pass the checker, a complete
    consistent one LinkAudit."""
    for doc in docs:
        assert doc["status"] == "complete" if promised else (
            doc["status"] != "pending"), doc["epoch"]
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


def test_strategy_draws_every_deployment_field():
    assert set(FIELDS) == {f.name for f in fields(DeploymentConfig)}


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(cases())
def test_equivalence_matrix(case):
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
    # Collection path: flat, flat-modeled and tree intake agree.
    tree = config.aggregation and config.aggregation.degree or 2
    for aggregation in (None, AggregationConfig(degree=0),
                        AggregationConfig(degree=tree)):
        if aggregation != config.aggregation:
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
