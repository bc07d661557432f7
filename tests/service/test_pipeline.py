"""The continuous pipeline: intake, backpressure, the ticker
(repro.service.pipeline and repro.service.stream).

Backpressure is the tentpole's explicit policy: the ingest queue is a
hard bound, overflow coalesces (newest-in wins, loss counted) rather
than queueing, and every stored document carries its merge count.
"""

from __future__ import annotations

import pytest

from repro.core import deploy
from repro.core.snapshot import SnapshotStatus
from repro.service.pipeline import (ContinuousCampaign, PipelineConfig,
                                    SnapshotPipeline)
from repro.service.stream import SnapshotStream
from repro.sim.engine import MS, S, US
from repro.sim.network import Network, NetworkConfig
from repro.topology import single_switch


def _deploy(seed=3):
    network = Network(single_switch(num_hosts=2), NetworkConfig(seed=seed))
    deployment = deploy(network, metric="packet_count")
    return network, deployment


class TestStreamIntake:
    def test_drains_epochs_incrementally(self):
        network, deployment = _deploy()
        stream = SnapshotStream(deployment.observer)
        seen: list[int] = []
        stream.subscribe(lambda: seen.extend(
            s.epoch for s in stream.drain()))
        first = deployment.take_snapshot()
        network.run(until=50 * MS)
        # Heard mid-run, not collected at the end.
        assert seen == [first]
        second = deployment.take_snapshot()
        network.run(until=100 * MS)
        assert seen == [first, second]
        assert stream.resolved == 2
        assert stream.pending == 0

    def test_statuses_filterable(self):
        network, deployment = _deploy()
        stream = SnapshotStream(deployment.observer,
                                statuses=(SnapshotStatus.COMPLETE,))
        deployment.take_snapshot()
        network.run(until=50 * MS)
        assert [s.status for s in stream.drain()] == [SnapshotStatus.COMPLETE]


class TestBackpressure:
    #: The ingest server slowed ~40x, to about 5 ms an epoch.
    SLOW = 40.0

    def _congested_run(self, ticks=30, capacity=2):
        """Ingest server far slower than the snapshot cadence."""
        network, deployment = _deploy()
        pipeline = SnapshotPipeline(
            network.sim, deployment.observer,
            config=PipelineConfig(
                retention=256, keyframe_interval=8,
                queue_capacity=capacity))
        pipeline.service_scale = self.SLOW  # cadence is 1 ms: must coalesce
        campaign = ContinuousCampaign(network.sim, deployment.observer,
                                      interval_ns=1 * MS)
        campaign.start(max_ticks=ticks)
        network.run(until=1 * S)
        return network, pipeline, campaign

    def test_overflow_coalesces_and_counts(self):
        network, pipeline, campaign = self._congested_run()
        assert pipeline.coalesced_epochs > 0
        assert pipeline.ingested + pipeline.coalesced_epochs == campaign.ticks
        # Every coalesce is visible on exactly the stored documents.
        merged = [int(d["merged_epochs"]) for d in pipeline.store.scan()]
        assert sum(merged) == pipeline.coalesced_epochs
        assert any(m > 0 for m in merged)

    def test_queue_never_exceeds_capacity(self):
        capacity = 2
        network, deployment = _deploy()
        pipeline = SnapshotPipeline(
            network.sim, deployment.observer,
            config=PipelineConfig(queue_capacity=capacity))
        pipeline.service_scale = self.SLOW
        campaign = ContinuousCampaign(network.sim, deployment.observer,
                                      interval_ns=1 * MS)
        campaign.start(max_ticks=40)
        highwater = 0

        def probe():
            nonlocal highwater
            # The server's own backlog: epochs waiting plus the one in
            # service.
            highwater = max(highwater,
                            len(pipeline._queue) + pipeline._busy)
            network.sim.schedule(100 * US, probe)

        network.sim.schedule(0, probe)
        network.run(until=200 * MS)
        assert 0 < highwater <= capacity
        assert pipeline.backlog == 0  # drained once the ticker stopped

    def test_newest_epoch_wins_a_coalesce(self):
        network, pipeline, campaign = self._congested_run()
        # Coalescing folds the *older* queued epoch away: stored epochs
        # are strictly increasing and the newest tick always survives.
        epochs = [int(d["epoch"]) for d in pipeline.store.scan()]
        assert epochs == sorted(set(epochs))
        assert epochs[-1] == campaign.ticks

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(queue_capacity=0)

    @pytest.mark.parametrize("field, value", [
        ("retention", 0), ("keyframe_interval", 0), ("queue_capacity", 1)])
    def test_config_refuses_each_field_below_its_minimum(self, field, value):
        with pytest.raises(ValueError, match=f"PipelineConfig.{field} "):
            PipelineConfig(**{field: value})
        PipelineConfig(**{field: value + 1})  # the minimum itself is fine


class TestContinuousCampaign:
    def test_ticks_until_stopped(self):
        network, deployment = _deploy()
        pipeline = SnapshotPipeline(network.sim, deployment.observer)
        campaign = ContinuousCampaign(network.sim, deployment.observer,
                                      interval_ns=2 * MS)
        campaign.start()
        network.run(until=21 * MS)
        campaign.stop()
        ticks_at_stop = campaign.ticks
        network.run(until=100 * MS)
        assert campaign.ticks == ticks_at_stop == 11  # t=0 inclusive
        assert pipeline.ingested == ticks_at_stop

    def test_max_ticks_bounds_the_run(self):
        network, deployment = _deploy()
        pipeline = SnapshotPipeline(network.sim, deployment.observer)
        campaign = ContinuousCampaign(network.sim, deployment.observer,
                                      interval_ns=2 * MS)
        campaign.start(max_ticks=5)
        network.run(until=1 * S)
        assert campaign.ticks == 5
        assert pipeline.ingested == 5
        assert pipeline.store.epochs() == [1, 2, 3, 4, 5]

    def test_restart_does_not_double_the_cadence(self):
        network, deployment = _deploy()
        campaign = ContinuousCampaign(network.sim, deployment.observer,
                                      interval_ns=2 * MS)
        campaign.start()
        network.run(until=5 * MS)  # ticks at 0, 2, 4; the next is queued
        campaign.stop()
        campaign.start()           # ...and still queued at the restart
        network.run(until=25 * MS)
        campaign.stop()
        walls = [deployment.observer.snapshot(e).requested_wall_ns
                 for e in range(1, campaign.ticks + 1)]
        gaps = [b - a for a, b in zip(walls, walls[1:])]
        assert gaps[:2] == [2 * MS, 2 * MS]
        assert gaps[2] == 1 * MS  # resumed at the restart instant, t=5
        assert set(gaps[3:]) == {2 * MS}  # one chain, not two interleaved
        assert campaign.ticks == 3 + 11

    def test_interval_validated(self):
        network, deployment = _deploy()
        with pytest.raises(ValueError):
            ContinuousCampaign(network.sim, deployment.observer, 0)

    def test_stats_shape(self):
        network, deployment = _deploy()
        pipeline = SnapshotPipeline(network.sim, deployment.observer)
        ContinuousCampaign(network.sim, deployment.observer,
                           interval_ns=2 * MS).start(max_ticks=3)
        network.run(until=1 * S)
        stats = pipeline.stats()
        assert stats["ingested"] == 3
        assert stats["coalesced_epochs"] == 0
        assert stats["backlog"] == 0
        assert stats["store_entries"] == 3
        assert stats["store_encoded_bytes"] > 0
