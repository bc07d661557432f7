"""Decoded epochs against the decoder they replaced.

:func:`repro.analysis.report.epoch_from_record` resolves units through
one bounded table and builds records positionally.  The decoder it
replaced is kept below verbatim as the oracle: on drawn documents and on
a faulted service run, both rebuild the same document, and every
conservation answer computed from them is the same.
"""

from __future__ import annotations

import gc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ConsistencyChecker, LinkAudit
from repro.analysis.report import _unit, epoch_from_record, epoch_record
from repro.core import ControlPlaneConfig, deploy
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, SnapshotStatus
from repro.service import query as query_module
from repro.service.pipeline import ContinuousCampaign, PipelineConfig, \
    SnapshotPipeline
from repro.service.query import QueryEngine
from repro.service.store import EpochStore, StoreConfig
from repro.sim.engine import MS
from repro.sim.network import Network, NetworkConfig
from repro.sim.switch import Direction, UnitId
from repro.topology import Topology, leaf_spine
from repro.workloads.synthetic import PoissonConfig, PoissonWorkload


# -- the oracle: the decoder as it was, verbatim ------------------------

def _oracle_parse_unit(name: str) -> UnitId:
    device, port, direction = name.rsplit(":", 2)
    return UnitId(device, int(port), direction)


def _oracle_epoch_from_record(doc: dict[str, object]) -> GlobalSnapshot:
    """Rebuild a :class:`GlobalSnapshot` from its :func:`epoch_record`
    document (the derived fields — ``consistent``,
    ``capture_spread_ns`` — are recomputed from the records, not
    trusted from the document)."""
    epoch = int(doc["epoch"])  # type: ignore[arg-type]
    records: dict[UnitId, UnitSnapshotRecord] = {}
    for row in doc["records"]:  # type: ignore[union-attr]
        unit = UnitId(row["device"], int(row["port"]), row["direction"])
        records[unit] = UnitSnapshotRecord(
            unit=unit, epoch=epoch, value=int(row["value"]),
            channel_state=(None if row["channel_state"] is None
                           else int(row["channel_state"])),
            consistent=bool(row["consistent"]),
            captured_ns=int(row["captured_ns"]),
            read_ns=int(row["read_ns"]))
    missing = {_oracle_parse_unit(name)
               for name in doc["missing_units"]}  # type: ignore[union-attr]
    return GlobalSnapshot(
        epoch=epoch,
        requested_wall_ns=int(doc["requested_wall_ns"]),  # type: ignore[arg-type]
        expected_units=set(records) | missing,
        records=records,
        excluded_devices=set(doc["excluded_devices"]),  # type: ignore[arg-type]
        exclusion_reasons=dict(doc["exclusion_reasons"]),  # type: ignore[arg-type]
        status=SnapshotStatus(doc["status"]),
        retries=int(doc["retries"]))  # type: ignore[arg-type]


# -- drawn documents over a fabric with non-ASCII names -------------------

def _fabric() -> Network:
    topo = Topology()
    leaves, spines = ["leaf-ä0", "leaf-ß1"], ["spine-ü0", "spine-€1"]
    for name in leaves + spines:
        topo.add_switch(name)
    for leaf in leaves:
        for spine in spines:
            topo.add_link(leaf, spine)
    for i, leaf in enumerate(leaves):
        topo.add_host(f"hé{i}")
        topo.add_link(leaf, f"hé{i}")
    return Network(topo, NetworkConfig(seed=1))


NETWORK = _fabric()
AUDIT = LinkAudit(NETWORK)
UNITS = [UnitId(name, port, direction)
         for name in sorted(NETWORK.switches)
         for port in sorted(NETWORK.port_map[name].values())
         for direction in (Direction.INGRESS, Direction.EGRESS)]
DEVICES = sorted(NETWORK.switches)

_ns = st.integers(min_value=0, max_value=2**40)


@st.composite
def _documents(draw) -> dict[str, object]:
    """An :func:`epoch_record` document: rows with and without channel
    state, missing units, excluded devices with reasons, any status."""
    epoch = draw(st.integers(min_value=0, max_value=50))
    excluded = draw(st.lists(st.sampled_from(DEVICES), unique=True,
                             max_size=2))
    reasons = {d: draw(st.sampled_from(["silent", "relay:spine-ü0"]))
               for d in excluded}
    all_consistent = draw(st.booleans())
    expected: set[UnitId] = set()
    records: dict[UnitId, UnitSnapshotRecord] = {}
    for unit in UNITS:
        fate = draw(st.sampled_from(["row", "row", "row", "missing",
                                     "absent"]))
        if unit.device in excluded or fate == "absent":
            continue
        expected.add(unit)
        if fate == "row":
            # Small counts, so receivers often out-count senders.
            records[unit] = UnitSnapshotRecord(
                unit, epoch, draw(st.integers(min_value=0, max_value=12)),
                draw(st.one_of(st.none(),
                               st.integers(min_value=0, max_value=3))),
                all_consistent or draw(st.booleans()),
                draw(_ns), draw(_ns))
    return epoch_record(GlobalSnapshot(
        epoch=epoch, requested_wall_ns=draw(_ns), expected_units=expected,
        records=records, excluded_devices=set(excluded),
        exclusion_reasons=reasons,
        status=draw(st.sampled_from(list(SnapshotStatus))),
        retries=draw(st.integers(min_value=0, max_value=3))))


def _same_decode(doc: dict[str, object]) -> GlobalSnapshot:
    """Decode ``doc`` both ways, assert the two agree everywhere the
    readers look, and return the new decode."""
    new, old = epoch_from_record(doc), _oracle_epoch_from_record(doc)
    bare = {k: v for k, v in doc.items() if k != "merged_epochs"}
    assert epoch_record(new) == epoch_record(old) == bare
    assert new.records == old.records
    assert new.expected_units == old.expected_units
    assert (new.status, new.consistent, new.complete) == (
        old.status, old.consistent, old.complete)
    assert AUDIT.audit(new) == AUDIT.audit(old)
    if old.consistent:
        assert AUDIT.violations(new) == AUDIT.violations(old)
    else:
        for snapshot in (new, old):
            with pytest.raises(ValueError, match="consistent"):
                AUDIT.violations(snapshot)
    return new


def _conservation_both_ways(engine: QueryEngine, *bounds) -> dict:
    got = engine.conservation(*bounds)
    with mock.patch.object(query_module, "epoch_from_record",
                           _oracle_epoch_from_record):
        want = engine.conservation(*bounds)
    assert got == want
    return got


class TestDecodeEqualsTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(_documents())
    def test_drawn_documents(self, doc):
        snapshot = _same_decode(doc)
        # The audit's units are the decoded ones, not equal copies.
        decoded = {unit: unit for unit in snapshot.records}
        for sender, receiver in AUDIT._links:
            assert decoded.get(sender, sender) is sender
            assert decoded.get(receiver, receiver) is receiver

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_documents(), min_size=1, max_size=8),
           st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
           st.one_of(st.none(), st.integers(min_value=0, max_value=50)))
    def test_conservation_over_a_drawn_history(self, docs, start, end):
        store = EpochStore(StoreConfig(retention=6, keyframe_interval=3))
        for doc in {d["epoch"]: d for d in docs}.values():
            store.append(doc)
        engine = QueryEngine(store, link_audit=AUDIT)
        _conservation_both_ways(engine)
        _conservation_both_ways(engine, start, end)

    def test_a_faulted_service_run(self):
        """Two control planes crash mid-stream: one briefly (its epochs
        are marked inconsistent), one past the device timeout (partial
        epochs, excluded devices, missing units)."""
        network = Network(leaf_spine(hosts_per_leaf=1),
                          NetworkConfig(seed=5, enable_tracing=True))
        deployment = deploy(
            network, metric="packet_count", channel_state=True,
            control_plane=ControlPlaneConfig(probe_delay_ns=0,
                                             reinitiation_timeout_ns=0))
        PoissonWorkload(network, PoissonConfig(
            seed=5, rate_pps=20_000.0, stop_ns=500 * MS,
            sport_churn=True)).start()
        pipeline = SnapshotPipeline(
            network.sim, deployment.observer,
            config=PipelineConfig(retention=64, keyframe_interval=4))
        ContinuousCampaign(network.sim, deployment.observer,
                           interval_ns=3 * MS).start(max_ticks=40)
        names = sorted(deployment.control_planes)
        for name, down, up in ((names[0], 30, 70), (names[-1], 40, 400)):
            plane = deployment.control_planes[name]
            network.sim.schedule_at(down * MS, plane.crash)
            network.sim.schedule_at(up * MS, plane.restart)
        network.run(until=2000 * MS)

        checker = ConsistencyChecker(deployment.ids)
        checker.ingest(network.trace_log)
        engine = QueryEngine(pipeline.store, checker=checker,
                             channel_state=True,
                             link_audit=LinkAudit(network))
        docs = engine.range()
        assert any(not d["consistent"] for d in docs)
        assert any(d["status"] == "partial" for d in docs)
        assert any(d["excluded_devices"] for d in docs)
        for doc in docs:
            _same_decode(doc)
        answer = _conservation_both_ways(engine)
        assert answer["checked"] > 0 and answer["skipped"] > 0
        epochs = engine.epochs()
        _conservation_both_ways(engine, epochs[len(epochs) // 2], None)


def _wide_doc(epoch: int, rows: int) -> dict[str, object]:
    units = [UnitId(f"sw{i // 8}", i % 8 // 2,
                    (Direction.INGRESS, Direction.EGRESS)[i % 2])
             for i in range(rows)]
    return epoch_record(GlobalSnapshot(
        epoch=epoch, requested_wall_ns=epoch, expected_units=set(units),
        records={u: UnitSnapshotRecord(u, epoch, i, None, True, i, i + 1)
                 for i, u in enumerate(units)},
        status=SnapshotStatus.COMPLETE))


class TestUnitTable:
    def test_a_point_read_keeps_one_object_per_row(self):
        rows = 160
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=4))
        for epoch in range(1, 6):
            store.append(_wide_doc(epoch, rows))
        engine = QueryEngine(store)
        engine.snapshot(3)   # the fabric's units enter the table
        gc.collect()
        before = len(gc.get_objects())
        snapshot = engine.snapshot(3)
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(snapshot.records) == rows
        # One record per row and a handful of containers; every unit is
        # the table's.  (A fresh unit per row kept 2 x rows + 4.)
        assert kept <= rows + 16

    def test_more_units_than_the_table_holds_decode_exactly(self):
        bound = _unit.cache_info().maxsize
        doc = _wide_doc(7, bound + 100)
        for _ in range(2):
            _same_decode(doc)
        assert _unit.cache_info().currsize <= bound
