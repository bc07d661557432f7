"""The service query API against batch-mode ground truth
(repro.service.query).

Same seed, same simulation: every answer the query engine computes from
the delta store must equal what batch analysis computes directly from
the observer's in-memory snapshots — the store and the one canonical
serializer may not change a single bit of the records (stored docs and
conservation over drawn deployments: test_equivalence_matrix.py).
"""

from __future__ import annotations

import pytest

from repro.analysis import LinkAudit, epoch_record
from repro.core import deploy
from repro.service.pipeline import ContinuousCampaign, PipelineConfig, \
    SnapshotPipeline
from repro.service.query import QueryEngine
from repro.sim.engine import MS, S
from repro.sim.network import Network, NetworkConfig
from repro.topology import leaf_spine
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


def _service_run(metric="packet_count", seed=5, ticks=8):
    network = Network(leaf_spine(hosts_per_leaf=1), NetworkConfig(seed=seed))
    deployment = deploy(network, metric=metric)
    PoissonWorkload(network, PoissonConfig(
        seed=seed, rate_pps=20_000.0, stop_ns=ticks * 5 * MS,
        sport_churn=True)).start()
    pipeline = SnapshotPipeline(
        network.sim, deployment.observer,
        config=PipelineConfig(retention=64, keyframe_interval=4))
    ContinuousCampaign(network.sim, deployment.observer,
                       interval_ns=5 * MS).start(max_ticks=ticks)
    network.run(until=1 * S)
    return network, deployment, pipeline


class TestStoredDocsMatchBatch:
    def test_range_bounds_are_inclusive(self):
        network, deployment, pipeline = _service_run()
        engine = QueryEngine(pipeline.store)
        all_epochs = engine.epochs()
        lo, hi = all_epochs[1], all_epochs[-2]
        window = [d["epoch"] for d in engine.range(lo, hi)]
        assert window == [e for e in all_epochs if lo <= e <= hi]

    def test_snapshot_rebuild_round_trips(self):
        network, deployment, pipeline = _service_run()
        engine = QueryEngine(pipeline.store)
        epoch = engine.epochs()[0]
        rebuilt = engine.snapshot(epoch)
        original = deployment.observer.snapshot(epoch)
        assert rebuilt.records == original.records
        assert rebuilt.status is original.status
        assert engine.snapshot(10_000) is None


class TestConservation:
    def test_requires_a_law_to_check(self):
        network, deployment, pipeline = _service_run()
        with pytest.raises(ValueError):
            QueryEngine(pipeline.store).conservation()


class TestHeavyHitters:
    def test_drilldown_matches_batch_ordering(self):
        network, deployment, pipeline = _service_run(metric="heavy_hitter")
        engine = QueryEngine(pipeline.store)
        answer = engine.heavy_hitters(top=4)
        assert answer["epoch"] == pipeline.store.max_epoch
        assert answer["units"], "incast produced no heavy units"
        # Batch ground truth: the same epoch's records, value-sorted.
        batch = epoch_record(
            deployment.observer.snapshot(answer["epoch"]))["records"]
        expected = sorted(batch, key=lambda r: (-int(r["value"]),
                                                r["device"], int(r["port"]),
                                                r["direction"]))[:4]
        got = [(u["device"], u["port"], u["direction"], u["value"])
               for u in answer["units"]]
        want = [(r["device"], r["port"], r["direction"], r["value"])
                for r in expected if int(r["value"]) > 0]
        assert got == want

    def test_live_flow_resolver_pins_flows(self):
        network, deployment, pipeline = _service_run(metric="heavy_hitter")

        def resolver(device):
            switch = network.switches[device]
            out = []
            for unit in switch.snapshot_units():
                flow, estimate = unit.counters.get("heavy_hitter").top()
                if flow is not None and estimate > 0:
                    out.append((str(unit.unit_id),
                                f"{flow.src}->{flow.dst}:{flow.dport}",
                                estimate))
            return out

        engine = QueryEngine(pipeline.store, flow_resolver=resolver)
        answer = engine.heavy_hitters(top=4)
        assert answer["flows"], "resolver found no live flows"
        estimates = [int(f["estimate"]) for f in answer["flows"]]
        assert estimates == sorted(estimates, reverse=True)
        assert all("->" in str(f["flow"]) for f in answer["flows"])

    def test_empty_store_answers_empty(self):
        network, deployment, pipeline = _service_run(ticks=1)
        engine = QueryEngine(pipeline.store)
        missing = engine.heavy_hitters(epoch=999)
        assert missing == {"epoch": 999, "units": [], "flows": []}


class TestSummary:
    def test_counts_match_the_run(self):
        network, deployment, pipeline = _service_run()
        summary = QueryEngine(pipeline.store).summary()
        assert summary["epochs_stored"] == pipeline.ingested
        assert summary["min_epoch"] == pipeline.store.min_epoch
        assert summary["max_epoch"] == pipeline.store.max_epoch
        assert summary["merged_epochs"] == 0
        assert 0 < summary["usable_epochs"] <= summary["epochs_stored"]
        assert summary["entries"] == pipeline.ingested


class TestCopyFreeReads:
    """``snapshot``, ``heavy_hitters`` and ``conservation`` read the
    store's own rows (``EpochStore.views``); the copying reads they
    replaced are the oracle, and no answer may mutate the store."""

    def test_answers_equal_the_copying_reads(self):
        network, deployment, pipeline = _service_run(metric="heavy_hitter")
        store = pipeline.store
        before = list(store.scan())

        def answers(engine):
            out = []
            for epoch in engine.epochs():
                snapshot = engine.snapshot(epoch)
                out.append((epoch_record(snapshot),
                            list(snapshot.records.items()),
                            engine.heavy_hitters(epoch=epoch, top=3)))
            lo = engine.epochs()[2]
            out.append(engine.conservation())
            out.append(engine.conservation(lo, lo + 5))
            return out

        audit = LinkAudit(network)
        copy_free = answers(QueryEngine(store, link_audit=audit))
        copying = EpochStoreWithCopies(store)
        assert answers(QueryEngine(copying, link_audit=audit)) == copy_free
        assert copying.copies > 0
        assert list(store.scan()) == before


class EpochStoreWithCopies:
    """The store, with its copy-free reads routed through the copying
    ones (``get``/``scan``) the query engine used before."""

    def __init__(self, store):
        self._store = store
        self.copies = 0

    def __getattr__(self, name):
        return getattr(self._store, name)

    def view(self, epoch):
        self.copies += 1
        return self._store.get(epoch)

    def views(self, start=None, end=None):
        self.copies += 1
        return self._store.scan(start=start, end=end)
