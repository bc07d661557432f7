"""The delta-encoded bounded epoch store (repro.service.store).

The codec property is the satellite's headline: for *any* epoch-record
sequence — skipped epochs, inconsistent rows, partial statuses, units
appearing and vanishing, service annotations — decoding the stored
chain reproduces every document bit-identically (canonical JSON).
The ring property is the tentpole's: memory never grows with run
length, and the byte accounting is exact, not estimated.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.report import snapshot_rows
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot
from repro.service import store as store_module
from repro.service.query import QueryEngine
from repro.service.store import (EpochStore, StoreConfig, apply_delta,
                                 canonical_bytes, encode_delta)
from repro.sim.switch import Direction, UnitId

#: Examples per write-path differential; the read-side ones take at
#: least 150 (``make store-diff-deep`` sets
#: ``REPRO_STORE_DIFF_EXAMPLES=2000``).
DIFF_EXAMPLES = int(os.environ.get("REPRO_STORE_DIFF_EXAMPLES", "40"))

#: A small fixed unit universe; presence masks make units come and go.
UNITS = [("sw0", 0, "ingress"), ("sw0", 0, "egress"),
         ("sw0", 1, "ingress"), ("sw1", 0, "ingress"),
         ("sw1", 2, "egress")]


def _canon(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _unstamped(doc):
    """``_canon`` with the rows' ``epoch`` field dropped (a view's
    decoded rows leave it to the document)."""
    return _canon({**doc, "records": [{k: v for k, v in row.items()
                                       if k != "epoch"}
                                      for row in doc["records"]]})


def _doc(epoch, present, values, consistent_flags, status="complete",
         retries=0, merged=None, units=UNITS):
    rows = []
    missing = []
    for (device, port, direction), here, value, ok in sorted(
            zip(units, present, values, consistent_flags)):
        if here:
            rows.append({"epoch": epoch, "device": device, "port": port,
                         "direction": direction, "value": value,
                         "channel_state": None, "total": value,
                         "consistent": ok, "captured_ns": epoch * 1000,
                         "read_ns": epoch * 1000 + 7})
        else:
            missing.append(f"{device}:{port}:{direction}")
    silent = sorted({n.split(":")[0] for n in missing})
    doc = {"epoch": epoch, "status": status, "retries": retries,
           "consistent": all(consistent_flags) and not missing,
           "requested_wall_ns": epoch * 1000 - 50,
           "capture_spread_ns": 13,
           "excluded_devices": silent,
           "exclusion_reasons": {d: "silent" for d in silent},
           "missing_units": sorted(missing),
           "records": rows}
    if merged is not None:
        doc["merged_epochs"] = merged
    return doc


_step = st.fixed_dictionaries({
    "gap": st.integers(min_value=1, max_value=4),  # skipped epochs
    "present": st.lists(st.booleans(), min_size=len(UNITS),
                        max_size=len(UNITS)),
    "values": st.lists(st.integers(min_value=0, max_value=2 ** 40),
                       min_size=len(UNITS), max_size=len(UNITS)),
    "consistent": st.lists(st.booleans(), min_size=len(UNITS),
                           max_size=len(UNITS)),
    "status": st.sampled_from(["complete", "partial", "abandoned"]),
    "retries": st.integers(min_value=0, max_value=3),
    "merged": st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
})


def _docs(steps):
    docs = []
    epoch = 0
    for step in steps:
        epoch += step["gap"]
        docs.append(_doc(epoch, step["present"], step["values"],
                         step["consistent"], status=step["status"],
                         retries=step["retries"], merged=step["merged"]))
    return docs


class TestDeltaCodecProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=2, max_size=12))
    def test_encode_apply_round_trips_bit_identically(self, steps):
        docs = _docs(steps)
        for prev, doc in zip(docs, docs[1:]):
            delta = encode_delta(prev, doc)
            assert _canon(apply_delta(prev, delta)) == _canon(doc)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_step, min_size=1, max_size=20),
           st.integers(min_value=1, max_value=7))
    def test_store_scan_reproduces_every_document(self, steps, interval):
        docs = _docs(steps)
        store = EpochStore(StoreConfig(retention=len(docs) + 1,
                                       keyframe_interval=interval))
        for doc in docs:
            store.append(doc)
        decoded = list(store.scan())
        assert [_canon(d) for d in decoded] == [_canon(d) for d in docs]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_step, min_size=8, max_size=30),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=8))
    def test_eviction_preserves_the_surviving_tail(self, steps, retention,
                                                   interval):
        docs = _docs(steps)
        store = EpochStore(StoreConfig(retention=retention,
                                       keyframe_interval=interval))
        for doc in docs:
            store.append(doc)
        survivors = docs[-min(retention, len(docs)):]
        assert ([_canon(d) for d in store.scan()]
                == [_canon(d) for d in survivors])


#: Strings an encoder must escape or widen: quotes, backslashes, control
#: characters, DEL, a line separator, non-ASCII and astral code points.
_TEXT = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9'
                                          '\U0001f600')),
                max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
    | st.sampled_from([-0.0, 1e300, -1e-300, 5e-324]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)
_UNIT_SET = st.lists(
    st.tuples(_TEXT, st.integers(min_value=0, max_value=3),
              st.sampled_from((Direction.INGRESS, Direction.EGRESS))),
    min_size=1, max_size=6, unique=True)


class TestWritePathDifferentials:
    """The write path sizes and orders without the sorted encoder and
    the per-unit key lambda; both old forms are the oracles."""

    @settings(max_examples=DIFF_EXAMPLES, deadline=None)
    @given(_JSON)
    def test_canonical_bytes_is_the_sorted_json_length(self, value):
        assert canonical_bytes(value) == len(_canon(value))

    @settings(max_examples=DIFF_EXAMPLES, deadline=None)
    @given(_UNIT_SET, st.data(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=4))
    def test_encoded_bytes_is_the_sum_over_stored_payloads(
            self, units, data, retention, interval):
        store = EpochStore(StoreConfig(retention=retention,
                                       keyframe_interval=interval))
        flags = st.lists(st.booleans(), min_size=len(units),
                         max_size=len(units))
        for epoch in range(1, data.draw(st.integers(2, 9)) + 1):
            values = data.draw(st.lists(st.integers(0, 2 ** 40),
                                        min_size=len(units),
                                        max_size=len(units)))
            store.append(_doc(epoch, data.draw(flags), values,
                              data.draw(flags), units=units))
            assert store.encoded_bytes == sum(
                len(_canon(e.payload)) for e in store._entries)

    @settings(max_examples=DIFF_EXAMPLES, deadline=None)
    @given(_UNIT_SET, st.randoms(use_true_random=False))
    def test_snapshot_rows_keep_the_key_sorted_order(self, units, rng):
        units = [UnitId(*u) for u in units]
        rng.shuffle(units)  # records arrive in any order
        snapshot = GlobalSnapshot(epoch=7, requested_wall_ns=0,
                                  expected_units=set(units))
        for n, unit in enumerate(units):
            snapshot.add_record(UnitSnapshotRecord(
                unit=unit, epoch=7, value=n, channel_state=None,
                consistent=True, captured_ns=n, read_ns=n + 1))
        old_order = sorted(snapshot.records.items(),
                           key=lambda kv: (kv[0].device, kv[0].port,
                                           kv[0].direction))
        assert ([(r["device"], r["port"], r["direction"], r["value"])
                 for r in snapshot_rows(snapshot)]
                == [(u.device, u.port, u.direction, rec.value)
                    for u, rec in old_order])


class TestBoundedMemory:
    def test_ring_is_flat_after_retention(self):
        """The bounded-memory satellite: identical per-epoch content at
        ever-higher epochs keeps the exact byte accounting constant."""
        store = EpochStore(StoreConfig(retention=16, keyframe_interval=4))
        sizes = []
        for epoch in range(1, 200):
            values = [100 + (epoch % 3)] * len(UNITS)
            store.append(_doc(epoch, [True] * len(UNITS), values,
                              [True] * len(UNITS)))
            if epoch > 32:  # ring full, promotion cadence settled
                sizes.append(store.encoded_bytes)
        assert len(store) == 16
        assert max(sizes) <= min(sizes) * 1.2
        assert store.evicted == store.appended - 16

    def test_byte_accounting_is_exact(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=3))
        for epoch in range(1, 40):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch * 10] * len(UNITS),
                              [True] * len(UNITS)))
            assert store.encoded_bytes == sum(
                canonical_bytes(e.payload) for e in store._entries)

    def test_eviction_promotes_orphaned_delta_to_keyframe(self):
        store = EpochStore(StoreConfig(retention=4, keyframe_interval=10))
        for epoch in range(1, 8):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        # Far from a keyframe boundary, yet the chain must still decode
        # from its first entry: eviction re-keyframed the survivor.
        assert "records" in store._entries[0].payload  # a full document
        assert store.promoted > 0
        assert [d["epoch"] for d in store.scan()] == [4, 5, 6, 7]


class TestStoreBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            StoreConfig(retention=0)
        with pytest.raises(ValueError):
            StoreConfig(keyframe_interval=0)
        with pytest.raises(TypeError):  # the config is the one form
            EpochStore(retention=4)  # type: ignore[call-arg]

    def test_get_and_bounds(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=2))
        assert store.min_epoch is None and store.max_epoch is None
        for epoch in (2, 5, 9):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        assert (store.min_epoch, store.max_epoch) == (2, 9)
        assert store.epochs() == [2, 5, 9]
        assert store.get(5)["epoch"] == 5
        assert store.get(4) is None

    def test_scan_yields_copies(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=2))
        for epoch in (1, 2, 3):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        for doc in store.scan():
            doc["records"].clear()  # caller vandalism...
            doc["status"] = "mutated"
        # ...must not corrupt the stored chain.
        assert [d["epoch"] for d in store.scan()] == [1, 2, 3]
        assert all(d["records"] for d in store.scan())

    def test_views_share_the_stored_rows(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=3))
        docs = [_doc(epoch, [True] * len(UNITS), [epoch] * len(UNITS),
                     [True] * len(UNITS)) for epoch in (1, 2, 3, 4)]
        for doc in docs:
            store.append(doc)
        assert store.view(1) is docs[0]  # a keyframe: its stored payload
        for epoch in (2, 3):  # decoded: fresh lists over the same rows
            once, twice = store.view(epoch), store.view(epoch)
            assert once is not twice and once["records"] is not twice["records"]
            assert all(a is b for a, b in zip(once["records"],
                                              twice["records"]))
            assert "epoch" not in once["records"][0]
        assert [d["epoch"] for d in store.views(2, None)] == [2, 3, 4]
        assert store.view(9) is None

    def test_duplicate_epoch_fails_loudly(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=3))
        doc = _doc(5, [True] * len(UNITS), [5] * len(UNITS),
                   [True] * len(UNITS))
        store.append(doc)
        with pytest.raises(ValueError, match="epoch 5"):
            store.append(dict(doc))
        assert len(store) == 1 and store.appended == 1

    def test_out_of_order_distinct_epochs_are_legal(self):
        store = EpochStore(StoreConfig(retention=8, keyframe_interval=3))
        for epoch in (7, 3, 9, 4):  # storage order is resolution order
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        assert [d["epoch"] for d in store.scan()] == [7, 3, 9, 4]
        assert [d["epoch"] for d in store.scan(start=4, end=8)] == [7, 4]
        assert store.get(3)["records"][0]["value"] == 3
        assert store.epochs() == [3, 4, 7, 9]

    def test_bounds_are_the_smallest_and_largest_epoch_in_any_order(self):
        store = EpochStore(StoreConfig(retention=3, keyframe_interval=2))
        engine = QueryEngine(store)

        def bounds():
            summary = engine.summary()
            assert (summary["min_epoch"], summary["max_epoch"]) == (
                store.min_epoch, store.max_epoch)
            return store.min_epoch, store.max_epoch

        for epoch in (1, 3, 2):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        assert bounds() == (1, 3)
        assert engine.heavy_hitters()["epoch"] == 3
        for epoch, want in ((0, (0, 3)), (5, (0, 5)), (6, (0, 6)),
                            (7, (5, 7))):   # evicts 1, then 3, 2, 0
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
            assert bounds() == want
        assert [d["epoch"] for d in store.scan(6, None)] == [6, 7]
        assert [d["epoch"] for d in store.scan(None, 5)] == [5]


# ----------------------------------------------------------------------
# The seekable store against a naive reference
# ----------------------------------------------------------------------

def _naive_key(row):
    return f"{row['device']}:{row['port']}:{row['direction']}"


def _naive_sort_key(name):
    device, port, direction = name.rsplit(":", 2)
    return (device, int(port), direction)


def _naive_strip(row):
    return {k: v for k, v in row.items() if k != "epoch"}


def _naive_encode(prev, doc):
    prev_rows = {_naive_key(r): r for r in prev["records"]}
    new_rows = {_naive_key(r): r for r in doc["records"]}
    changed = {}
    for key in sorted(new_rows, key=_naive_sort_key):
        old = prev_rows.get(key)
        if old is None or _naive_strip(old) != _naive_strip(new_rows[key]):
            changed[key] = _naive_strip(new_rows[key])
    removed = sorted((k for k in prev_rows if k not in new_rows),
                     key=_naive_sort_key)
    meta = {k: v for k, v in doc.items()
            if k != "records" and (k not in prev or prev[k] != v)}
    meta_removed = sorted(k for k in prev if k != "records" and k not in doc)
    return {"base": prev["epoch"], "meta": meta,
            "meta_removed": meta_removed, "rows": changed,
            "rows_removed": removed}


def _naive_apply(prev, delta):
    doc = {k: v for k, v in prev.items() if k != "records"}
    for k in delta["meta_removed"]:
        doc.pop(k, None)
    doc.update(delta["meta"])
    rows = {_naive_key(r): _naive_strip(r) for r in prev["records"]}
    for key in delta["rows_removed"]:
        rows.pop(key, None)
    for key, row in delta["rows"].items():
        rows[key] = dict(row)
    doc["records"] = [dict(rows[key], epoch=doc["epoch"])
                      for key in sorted(rows, key=_naive_sort_key)]
    return doc


class _NaiveStore:
    """Reference store: the same chain of keyframes and deltas, every
    read decoded front to back with whole-document hops."""

    def __init__(self, retention, keyframe_interval):
        self.retention = retention
        self.keyframe_interval = keyframe_interval
        self.entries = []  # [epoch, kind, payload]
        self.tail = None
        self.since_keyframe = 0
        self.appended = self.evicted = self.keyframes = self.promoted = 0

    def append(self, doc):
        if (self.tail is None
                or self.since_keyframe + 1 >= self.keyframe_interval):
            self.entries.append([doc["epoch"], "key", doc])
            self.since_keyframe = 0
            self.keyframes += 1
        else:
            self.entries.append([doc["epoch"], "delta",
                                 _naive_encode(self.tail, doc)])
            self.since_keyframe += 1
        self.tail = doc
        self.appended += 1
        while len(self.entries) > self.retention:
            oldest = self.entries.pop(0)
            self.evicted += 1
            if self.entries and self.entries[0][1] == "delta":
                head = self.entries[0]
                self.entries[0] = [head[0], "key",
                                   _naive_apply(oldest[2], head[2])]
                self.promoted += 1
                self.keyframes += 1
            if not self.entries:
                self.tail = None

    def scan(self, start=None, end=None):
        current = None
        for epoch, kind, payload in self.entries:
            current = (payload if kind == "key"
                       else _naive_apply(current, payload))
            if ((start is None or epoch >= start)
                    and (end is None or epoch <= end)):
                yield current

    def stats(self):
        return {"entries": len(self.entries), "appended": self.appended,
                "evicted": self.evicted, "keyframes": self.keyframes,
                "promoted": self.promoted,
                "encoded_bytes": sum(canonical_bytes(p)
                                     for _e, _k, p in self.entries)}


_bound = st.one_of(st.none(), st.integers(min_value=0, max_value=45))

def _churn(seed):
    """A churning step from one drawn integer (much cheaper for
    hypothesis to draw than twenty fields): any booleans, values 0–3,
    merged None or 0–2."""
    rng = random.Random(seed)
    return {"present": [rng.random() < 0.5 for _ in UNITS],
            "values": [rng.randrange(4) for _ in UNITS],
            "consistent": [rng.random() < 0.5 for _ in UNITS],
            "status": rng.choice(["complete", "partial"]),
            "retries": rng.randrange(2),
            "merged": rng.choice([None, 0, 1, 2]),
            "reverse_rows": rng.random() < 0.5}


def _churn_doc(epoch, step):
    doc = _doc(epoch, step["present"], step["values"], step["consistent"],
               status=step["status"], retries=step["retries"],
               merged=step["merged"])
    if step["reverse_rows"]:
        doc["records"].reverse()  # keyframes keep stored order
    return doc


def _seeded_doc(epoch, seed):
    """A ``_churn_doc`` from one drawn integer whose rows keep their
    capture stamps, so a row often repeats from one epoch to the next
    and neighbouring stored states share its dict."""
    rng = random.Random(seed)
    doc = _churn_doc(epoch, {
        "present": [rng.random() < 0.8 for _ in UNITS],
        "values": [rng.randrange(2) for _ in UNITS],
        "consistent": [rng.random() < 0.9 for _ in UNITS],
        "status": rng.choice(["complete", "partial"]),
        "retries": rng.randrange(2),
        "merged": rng.choice([None, 0, 2]),
        "reverse_rows": rng.random() < 0.2})
    for row in doc["records"]:
        row["captured_ns"], row["read_ns"] = 1000, 1007
    return doc


class TestSeekableStoreEqualsNaiveReference:
    @settings(max_examples=max(150, DIFF_EXAMPLES), deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                              st.integers()),
                    unique_by=lambda pair: pair[0], min_size=1, max_size=24),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=7),
           st.lists(st.tuples(_bound, _bound), max_size=6))
    def test_documents_order_and_counters_agree(self, seeded, retention,
                                                interval, probes):
        store = EpochStore(StoreConfig(retention=retention,
                                       keyframe_interval=interval))
        naive = _NaiveStore(retention, interval)
        for epoch, seed in seeded:  # unique, in arbitrary (resolution) order
            doc = _churn_doc(epoch, _churn(seed))
            store.append(doc)
            naive.append(json.loads(json.dumps(doc)))
            assert store.stats() == naive.stats()
            assert (_canon(store.get(epoch))  # the newest entry
                    == _canon(list(naive.scan())[-1]))
            held = [d["epoch"] for d in naive.scan()]
            assert (store.min_epoch, store.max_epoch) == (min(held),
                                                          max(held))
        for start, end in [(None, None), *probes]:
            assert ([_canon(d) for d in store.scan(start, end)]
                    == [_canon(d) for d in naive.scan(start, end)])
            assert ([_unstamped(d) for d in store.views(start, end)]
                    == [_unstamped(d) for d in naive.scan(start, end)])
        stored = {e: d for d in naive.scan() for e in [d["epoch"]]}
        for epoch in range(0, 42):
            got = store.get(epoch)
            assert (None if got is None else _canon(got)) == (
                _canon(stored[epoch]) if epoch in stored else None)
            seen = store.view(epoch)
            assert (None if seen is None else _unstamped(seen)) == (
                _unstamped(stored[epoch]) if epoch in stored else None)
        assert ([{k: v for k, v in d.items() if k != "records"}
                 for d in naive.scan()] == list(store.scan_meta()))
        assert store.stats() == naive.stats()  # reads change nothing


class TestHeldReadsStayPut:
    """Reads hand out the states the store keeps, so a stored state is
    never mutated: a read taken earlier still shows its epoch after
    later appends evict and promote past it."""

    @settings(max_examples=max(150, DIFF_EXAMPLES), deadline=None)
    @given(st.lists(st.integers(min_value=0), min_size=1, max_size=8),
           st.data(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5))
    def test_earlier_reads_survive_later_writes(self, first, data,
                                                retention, interval):
        later = data.draw(st.lists(st.integers(min_value=0),
                                   min_size=retention,
                                   max_size=retention + 2))
        docs = [_seeded_doc(epoch, seed)
                for epoch, seed in enumerate(first + later, start=1)]
        store = EpochStore(StoreConfig(retention=retention,
                                       keyframe_interval=interval))
        naive = _NaiveStore(retention, interval)
        for doc in docs[:len(first)]:
            store.append(doc)
            naive.append(json.loads(json.dumps(doc)))
        expected = [_canon(d) for d in naive.scan()]
        epochs = [d["epoch"] for d in naive.scan()]
        held = [(store.view(e), store.get(e)) for e in epochs]
        scanned, viewed = list(store.scan()), list(store.views())
        pending = store.scan()
        resumed = [next(pending)]  # started now, finished after the writes
        for doc in docs[len(first):]:  # evicts every held epoch
            store.append(doc)
            naive.append(json.loads(json.dumps(doc)))
        assert not set(epochs) & set(store.epochs())
        resumed.extend(pending)
        assert [_canon(d) for d in resumed] == expected
        assert [_unstamped(v) for v, _g in held] == [
            _unstamped(json.loads(d)) for d in expected]
        assert [_canon(g) for _v, g in held] == expected
        assert [_canon(d) for d in scanned] == expected
        assert [_unstamped(v) for v in viewed] == [
            _unstamped(json.loads(d)) for d in expected]
        assert ([_canon(d) for d in store.scan()]
                == [_canon(d) for d in naive.scan()])


class TestSeekCost:
    """Deterministic work counts: hops through the one delta kernel."""

    @pytest.fixture
    def counted(self, monkeypatch):
        hops = []
        kernel = store_module.apply_delta

        def counting(prev, delta):
            hops.append(delta["base"])
            return kernel(prev, delta)

        monkeypatch.setattr(store_module, "apply_delta", counting)
        store = EpochStore(StoreConfig(retention=512, keyframe_interval=32))
        for epoch in range(1, 700):  # full ring, evicting and promoting
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
        assert len(store) == 512
        hops.clear()
        return store, hops

    def test_get_decodes_from_the_nearest_keyframe(self, counted):
        """The nearest decoded form is the entry itself: a keyframe is
        read from its payload and a delta entry from the state it keeps,
        so no point read hops."""
        store, hops = counted
        for epoch in store.epochs():
            assert store.get(epoch)["epoch"] == epoch
            assert store.view(epoch)["epoch"] == epoch
            assert hops == [], f"epoch {epoch}: {len(hops)} hops"

    def test_newest_epoch_is_served_from_the_tail(self, counted):
        store, hops = counted
        assert store.get(store.max_epoch)["epoch"] == store.max_epoch
        assert store.view(store.max_epoch)["epoch"] == store.max_epoch
        assert hops == []

    def test_range_rides_the_seek(self, counted):
        """Every range is an index lookup: no read walks the chain."""
        store, hops = counted
        oldest, newest = store.min_epoch, store.max_epoch
        for start, end in [(None, None), (newest - 63, newest),
                           (oldest - 9, oldest + 40), (oldest + 100, None),
                           (None, oldest + 31), (0, 10 ** 6)]:
            held = [e for e in store.epochs()
                    if (start is None or e >= start)
                    and (end is None or e <= end)]
            assert [d["epoch"] for d in store.scan(start, end)] == held
            assert [d["epoch"] for d in store.views(start, end)] == held
        assert len(list(store.scan_meta())) == 512
        assert hops == []

    def test_a_delta_append_hops_once_and_a_promotion_none(self, counted):
        """A delta append hops once to build its own state, a keyframe
        append not at all, and a promotion materialises the promoted
        entry's state as it is."""
        store, hops = counted
        promoted = store.promoted
        kinds = []
        for epoch in range(700, 764):
            store.append(_doc(epoch, [True] * len(UNITS),
                              [epoch] * len(UNITS), [True] * len(UNITS)))
            kinds.append(store._entries[-1].keyed is None)  # a keyframe?
            assert len(hops) == (not kinds[-1]), epoch
            hops.clear()
        assert set(kinds) == {True, False}
        assert store.promoted - promoted == kinds.count(False)

    def test_an_open_end_takes_the_indexed_path(self, counted):
        """``scan(start, None)`` — the query engine's "last N" — looks
        up the epochs from ``start`` to the largest one instead of
        testing every stored epoch."""
        store, _hops = counted

        class CountingIndex(dict):
            visits = 0

            def __contains__(self, epoch):
                self.visits += 1
                return super().__contains__(epoch)

            def __iter__(self):
                self.visits += len(self)
                return super().__iter__()

            def items(self):
                self.visits += len(self)
                return super().items()

        store._index = index = CountingIndex(store._index)
        newest = store.max_epoch
        docs = list(store.scan(start=newest - 31, end=None))
        assert [d["epoch"] for d in docs] == list(range(newest - 31,
                                                        newest + 1))
        assert index.visits == 32

    def test_a_document_is_keyed_once_however_often_it_is_read(
            self, counted, monkeypatch):
        """Reads and promotions take an entry as stored; only an
        appended keyframe is keyed, once, by the append that encodes
        against it, and reads interleaved with evictions still decode
        every epoch exactly."""
        store, _hops = counted
        keyed = []
        init = store_module._Keyed.__init__

        def counting(self, doc):
            keyed.append(doc["epoch"])
            init(self, doc)

        def full(epoch):
            return _doc(epoch, [True] * len(UNITS), [epoch] * len(UNITS),
                        [True] * len(UNITS))

        monkeypatch.setattr(store_module._Keyed, "__init__", counting)
        for _ in range(2):
            for epoch in store.epochs():
                assert _canon(store.get(epoch)) == _canon(full(epoch))
        assert keyed == []
        appended = range(700, 780)  # 80 evictions, each promoting a delta
        for epoch in appended:
            store.append(full(epoch))
            oldest = store.min_epoch
            assert _canon(store.get(oldest + 5)) == _canon(full(oldest + 5))
        keyframes = [e.epoch for e in store._entries
                     if e.keyed is None and e.epoch in appended]
        assert keyed == keyframes and len(keyframes) in (2, 3)
