"""End-to-end update properties.

Two claims ride on whole simulations rather than synthetic inputs:

1. With *zero* clock error a ``TimedSwap`` really is atomic — every
   straddling snapshot scores 1.0 and no transition drops appear,
   across randomized swap instants, traffic gaps and network seeds.
2. Verdicts are a pure function of the scenario, not of how the
   simulation was partitioned: ``--shards 2`` and the single-process
   run produce identical cuts, drop logs and verdicts.
"""

from dataclasses import asdict

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import deploy
from repro.core.sharded import OBSERVER_SHARD
from repro.experiments.updates import (UpdatesConfig, _render, _wave_cuts,
                                       setup)
from repro.sim.engine import MS, US
from repro.sim.network import Network, NetworkConfig
from repro.sim.shard import ShardRunner
from repro.topology import leaf_spine
from repro.updates import (TimedSwap, UpdateContext, UpdateVerifier,
                           inject_clock_error, noiseless_ptp)

HORIZON_NS = 30 * MS


def _start_traffic(network, hosts, gap_ns, until_ns):
    for i, src in enumerate(hosts):
        host = network.hosts.get(src)
        if host is None:
            continue
        for j, dst in enumerate(hosts):
            if src == dst:
                continue
            host.send_flow(dst, int(until_ns // gap_ns), sport=9000 + j,
                           dport=7000, gap_ns=gap_ns, start_delay_ns=17 * i)


def _loop_free_plan(wave_ats):
    """Alternating leaf-side pins; both endpoint states are loop-free,
    so any drop during the transition is a verdict-worthy artifact."""
    plan = None
    for i, at in enumerate(wave_ats):
        swap = TimedSwap(at_ns=at, label=f"w{i}", routes=(
            ("leaf0", "server1", ("spine1",) if i % 2 == 0 else ("spine0",)),
            ("leaf1", "server0", ("spine0",) if i % 2 == 0 else ("spine1",)),
        ))
        plan = swap if plan is None else plan | swap
    return plan


class TestZeroErrorAtomicity:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=5_000),
           first_ms=st.integers(min_value=5, max_value=12),
           gap_ms=st.integers(min_value=5, max_value=10),
           traffic_gap_ns=st.sampled_from([50 * US, 80 * US, 120 * US]))
    def test_timed_swap_atomic_without_clock_error(self, seed, first_ms,
                                                   gap_ms, traffic_gap_ns):
        topo = leaf_spine(hosts_per_leaf=1)
        network = Network(topo, NetworkConfig(seed=seed,
                                              ptp_config=noiseless_ptp()))
        offsets = inject_clock_error(network, 0, seed=seed)
        assert set(offsets.values()) == {0}

        plan = _loop_free_plan([first_ms * MS, (first_ms + gap_ms) * MS])
        schedule = plan.compile(
            UpdateContext.for_topology(topo, horizon_ns=HORIZON_NS))
        verifier = UpdateVerifier(schedule)
        deployment = deploy(network, metric="fib_version", updates=schedule)
        wave_epochs = {w: deployment.observer.take_snapshot(at_wall_ns=at)
                       for w, at in sorted(
                           verifier.snapshot_instants().items())}
        _start_traffic(network, sorted(topo.hosts), traffic_gap_ns,
                       HORIZON_NS)
        network.run(until=HORIZON_NS + 20 * MS)

        cuts = _wave_cuts(deployment.observer, wave_epochs)
        verdicts = _render(verifier, cuts, deployment.update_driver.drops)
        assert len(verdicts) == 2
        for verdict in verdicts:
            assert verdict.conclusive
            assert verdict.atomicity == 1.0
            assert verdict.stale_devices == ()
            assert verdict.loop_drops == 0
            assert verdict.blackhole_drops == 0


# A deliberately uncomfortable scenario for the determinism check: the
# detour pair is loop-prone under skew, and sigma is large enough that
# the two shards genuinely race their swaps against the snapshot cut.
_DETOUR = (TimedSwap(at_ns=20 * MS, label="detour", routes=(
               ("leaf0", "server1", ("spine1",)),
               ("spine0", "server1", ("leaf0",))))
           | TimedSwap(at_ns=40 * MS, label="revert", routes=(
               ("leaf0", "server1", ("spine0", "spine1")),
               ("spine0", "server1", ("leaf1",)))))


def _sharded_verdicts(shards):
    results = ShardRunner(
        leaf_spine(hosts_per_leaf=1),
        NetworkConfig(seed=7, ptp_config=noiseless_ptp()),
        shards=shards, setup=setup,
        setup_args=(UpdatesConfig(seed=7, clock_error_ns=[40_000],
                                  gap_ns=100 * US, ttl=6),
                    _DETOUR)).run(80 * MS)
    drops = sorted(row for shard in results for row in shard["drops"])
    cuts = results[OBSERVER_SHARD]["cuts"]
    applied = sum(shard["applied"] for shard in results)
    return cuts, drops, applied


class TestShardDeterminism:
    def test_verdicts_identical_across_shard_counts(self):
        single = _sharded_verdicts(1)
        double = _sharded_verdicts(2)
        assert single == double

        cuts, drops, applied = single
        assert applied == 4  # both waves hit both devices
        assert all(cut["usable"] for cut in cuts.values())
        # And the identical plain data renders to conclusive verdicts —
        # the equality above wasn't comparing two inconclusive blanks.
        from repro.updates.driver import DropRecord
        schedule = _DETOUR.compile(UpdateContext.for_topology(
            leaf_spine(hosts_per_leaf=1), horizon_ns=60 * MS))
        verifier = UpdateVerifier(schedule)
        records = [DropRecord(*row) for row in drops]
        verdicts = _render(verifier, cuts, records)
        assert [v.wave for v in verdicts] == [0, 1]
        assert all(v.conclusive and v.atomicity is not None
                   for v in verdicts)
        assert all("atomicity" in asdict(v) for v in verdicts)
