"""Delta-encoded, bounded epoch storage for the snapshot service.

The store holds a rolling window of epoch-record documents (the
JSON-stable shape produced by :func:`repro.analysis.report.epoch_record`)
as a chain of **keyframes** and **deltas**:

* a keyframe is the full document;
* a delta records, against the *previously stored* epoch, only the unit
  rows that changed, the rows that disappeared, and the top-level fields
  that moved — idle units and stable metadata cost nothing.

A keyframe is read from its payload, and every delta entry also keeps
the keyed state its epoch decodes to, built once on the write path and
never mutated, so a read is an index lookup and never walks the chain.
Retention is a hard ring: past ``retention`` entries the oldest entry
is evicted, and if that orphans a delta the delta is *promoted* — its
decoded state materialised as a fresh keyframe — so the chain always
decodes from its first entry and memory never grows with run length.
The store accounts for its own size exactly (canonical-JSON bytes of
every stored payload), which is what the service bench asserts flat.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from collections.abc import Iterator
from typing import Optional, Union, overload

from repro.sim.engine import check_minimums
from repro.sim.switch import parse_unit_key, unit_key

#: An epoch-record document (``repro.analysis.report.epoch_record``
#: output, possibly with service annotations such as ``merged_epochs``).
EpochDoc = dict[str, object]

_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def canonical_bytes(payload: object) -> int:
    """Exact size of ``payload`` as canonical (sorted, separator-free)
    JSON — the store's unit of memory accounting.  Key order never
    changes a JSON text's length, so the keys are left unsorted."""
    return len(_ENCODER.encode(payload))


def _strip_epoch(row: EpochDoc) -> EpochDoc:
    return {k: v for k, v in row.items() if k != "epoch"}


def _keyed_rows(doc: EpochDoc) -> dict[str, EpochDoc]:
    """A document's epoch-stripped unit rows by :func:`unit_key`."""
    return {unit_key(r["device"], r["port"], r["direction"]): _strip_epoch(r)
            for r in doc["records"]}  # type: ignore[union-attr]


def _meta_of(doc: EpochDoc) -> EpochDoc:
    return {k: v for k, v in doc.items() if k != "records"}


class _Keyed:
    """One document in keyed form — what a delta hop reads and returns.

    ``meta`` holds the top-level fields, ``rows`` the epoch-stripped unit
    rows by ``device:port:direction``.  Row dicts are shared with stored
    payloads and never mutated.  The sorted key order is computed on
    demand and survives every hop that adds or removes no row.
    """

    __slots__ = ("meta", "order", "rows")

    def __init__(self, doc: EpochDoc) -> None:
        self.meta = _meta_of(doc)
        self.rows = _keyed_rows(doc)
        self.order: Optional[list[str]] = None

    def sorted_keys(self) -> list[str]:
        if self.order is None:
            self.order = sorted(self.rows, key=parse_unit_key)
        return self.order

    def document(self) -> EpochDoc:
        """Materialise a fresh full document, rows in sorted order."""
        doc = dict(self.meta)
        epoch, rows = doc["epoch"], self.rows
        doc["records"] = [{**rows[key], "epoch": epoch}
                          for key in self.sorted_keys()]
        return doc

    def view(self) -> EpochDoc:
        """The document without per-row copies: a fresh top level and
        ``records`` list over the shared, epoch-stripped row dicts."""
        doc = dict(self.meta)
        rows = self.rows
        doc["records"] = [rows[key] for key in self.sorted_keys()]
        return doc


def _keyed(doc: Union[EpochDoc, _Keyed]) -> _Keyed:
    return doc if isinstance(doc, _Keyed) else _Keyed(doc)


def encode_delta(prev: Union[EpochDoc, _Keyed], doc: EpochDoc) -> EpochDoc:
    """Encode ``doc`` as a delta against ``prev``.

    The encoding is exact: :func:`apply_delta` reproduces ``doc``
    bit-for-bit (canonical-JSON identical).  Unit rows are keyed
    ``device:port:direction``; a row's ``epoch`` field is implied by the
    document and never stored twice.  ``prev`` is a document or — the
    store's newest entry's state — one already in keyed form.
    """
    state = _keyed(prev)
    old_meta, old_rows = state.meta, state.rows
    new_rows = _keyed_rows(doc)
    removed: list[str] = []
    if new_rows.keys() == old_rows.keys():
        order = state.sorted_keys()
    else:
        order = sorted(new_rows, key=parse_unit_key)
        removed = [k for k in state.sorted_keys() if k not in new_rows]
    changed = {k: new_rows[k] for k in order
               if old_rows.get(k) != new_rows[k]}
    meta = {k: v for k, v in doc.items()
            if k != "records" and (k not in old_meta or old_meta[k] != v)}
    meta_removed = sorted(k for k in old_meta if k not in doc)
    return {"base": old_meta["epoch"], "meta": meta,
            "meta_removed": meta_removed, "rows": changed,
            "rows_removed": removed}


@overload
def apply_delta(prev: EpochDoc, delta: EpochDoc) -> EpochDoc: ...
@overload
def apply_delta(prev: _Keyed, delta: EpochDoc) -> _Keyed: ...


def apply_delta(prev: Union[EpochDoc, _Keyed],
                delta: EpochDoc) -> Union[EpochDoc, _Keyed]:
    """Invert :func:`encode_delta` — the one hop of the delta chain.

    Given a document, rebuilds and returns the next full document.
    Given a keyed state, returns the next state at O(changed rows) and
    leaves ``prev`` as it was.  A delta that names every row and removes
    none lends the new state its ``rows`` dict; the sorted key order
    carries over unless the hop adds or removes a row.
    """
    state = _keyed(prev)
    named: dict[str, EpochDoc] = delta["rows"]  # type: ignore[assignment]
    removed: list[str] = delta["rows_removed"]  # type: ignore[assignment]
    meta = dict(state.meta)
    for k in delta["meta_removed"]:  # type: ignore[union-attr]
        meta.pop(k, None)
    meta.update(delta["meta"])  # type: ignore[arg-type]
    old = state.rows
    if not removed and named.keys() >= old.keys():
        rows = named
    else:
        rows = dict(old)
        for key in removed:
            rows.pop(key, None)
        rows.update(named)
    nxt = _Keyed.__new__(_Keyed)
    nxt.meta, nxt.rows = meta, rows
    nxt.order = None if removed or len(rows) != len(old) else state.order
    return nxt if state is prev else nxt.document()


def _copy_doc(doc: EpochDoc) -> EpochDoc:
    out = _meta_of(doc)
    out["records"] = [dict(r) for r in doc["records"]]  # type: ignore[union-attr]
    return out


@dataclass
class StoreConfig:
    """Retention and encoding policy of one :class:`EpochStore`."""

    #: Ring size: the store never holds more than this many epochs.
    retention: int = 1024
    #: A full keyframe every this many entries (deltas in between).
    keyframe_interval: int = 64

    def __post_init__(self) -> None:
        check_minimums(self, {"retention": 1, "keyframe_interval": 1})


class _Entry:
    __slots__ = ("epoch", "keyed", "payload", "size")

    def __init__(self, epoch: int, payload: EpochDoc,
                 keyed: Optional[_Keyed] = None) -> None:
        self.epoch = epoch
        self.payload = payload
        self.size = canonical_bytes(payload)
        #: None on a keyframe, which is read from its payload and keyed
        #: once, by the append that encodes against it.  A delta keeps
        #: the keyed state its epoch decodes to, never mutated once
        #: stored: reads and promotion take it as it is.
        self.keyed = keyed


class EpochStore:
    """Bounded, delta-encoded history of epoch records."""

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self.config = config or StoreConfig()
        self._entries: deque[_Entry] = deque()
        #: epoch -> lifetime append number; the entry sits at ring
        #: position ``number - self.evicted``.
        self._index: dict[int, int] = {}
        self._since_keyframe = 0
        #: Neighbouring entries out of epoch order (0: ascending ring).
        self._descents = 0
        #: Lifetime counters (monotonic; eviction does not reset them).
        self.appended = 0
        self.evicted = 0
        self.keyframes = 0
        self.promoted = 0
        #: Exact bytes of every stored payload, maintained incrementally.
        self.encoded_bytes = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, doc: EpochDoc) -> None:
        """Store one epoch document (newest; callers must not mutate it
        afterwards — the store keeps a reference).  Epochs may arrive in
        any order but each at most once while it is in the ring."""
        epoch = int(doc["epoch"])  # type: ignore[arg-type]
        if epoch in self._index:
            raise ValueError(f"epoch {epoch} is already stored")
        if (not self._entries
                or self._since_keyframe + 1 >= self.config.keyframe_interval):
            entry = _Entry(epoch, doc)
            self._since_keyframe = 0
            self.keyframes += 1
        else:
            last = self._entries[-1]
            tail = last.keyed or _Keyed(last.payload)
            delta = encode_delta(tail, doc)
            entry = _Entry(epoch, delta, apply_delta(tail, delta))
            self._since_keyframe += 1
        if self._entries and self._entries[-1].epoch > epoch:
            self._descents += 1
        self._entries.append(entry)
        self._index[epoch] = self.appended
        self.appended += 1
        self.encoded_bytes += entry.size
        while len(self._entries) > self.config.retention:
            self._evict_oldest()

    def _evict_oldest(self) -> None:
        oldest = self._entries.popleft()
        # Invariant: the first entry is always a keyframe (the first
        # append is one, and promotion below restores it after every
        # eviction), so the stored chain decodes from its front.
        del self._index[oldest.epoch]
        self.encoded_bytes -= oldest.size
        self.evicted += 1
        if not self._entries:
            return
        head = self._entries[0]
        if head.epoch < oldest.epoch:
            self._descents -= 1
        if head.keyed is not None:  # an orphaned delta
            promoted = _Entry(head.epoch, head.keyed.document())
            self.encoded_bytes += promoted.size - head.size
            self._entries[0] = promoted
            self.promoted += 1
            self.keyframes += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def min_epoch(self) -> Optional[int]:
        """The smallest stored epoch (O(1) while the ring is ascending)."""
        if self._descents:
            return min(self._index)
        return self._entries[0].epoch if self._entries else None

    @property
    def max_epoch(self) -> Optional[int]:
        """The largest stored epoch (O(1) while the ring is ascending)."""
        if self._descents:
            return max(self._index)
        return self._entries[-1].epoch if self._entries else None

    def epochs(self) -> list[int]:
        """Stored epochs, ascending."""
        return sorted(self._index)

    def scan(self, start: Optional[int] = None,
             end: Optional[int] = None) -> Iterator[EpochDoc]:
        """Stored documents in storage (resolution) order, those with
        ``start <= epoch <= end``; an open bound is the smallest or
        largest stored epoch.  Yielded documents are fresh copies —
        callers may mutate them.
        """
        for entry in self._hits(start, end):
            yield (_copy_doc(entry.payload) if entry.keyed is None
                   else entry.keyed.document())

    def views(self, start: Optional[int] = None,
              end: Optional[int] = None) -> Iterator[EpochDoc]:
        """:meth:`scan` without the copies, for readers that only look.

        Each document shares the store's row dicts: it is a keyframe's
        stored payload, or a fresh top level and ``records`` list over
        a delta entry's keyed rows, which then carry no ``epoch`` field.
        Callers must not mutate a view or anything in it.
        """
        for entry in self._hits(start, end):
            yield entry.payload if entry.keyed is None else entry.keyed.view()

    def view(self, epoch: int) -> Optional[EpochDoc]:
        """:meth:`get` without the copies (see :meth:`views`)."""
        return next(self.views(start=epoch, end=epoch), None)

    def _hits(self, start: Optional[int],
              end: Optional[int]) -> list[_Entry]:
        """The entries behind every read, in storage order, found through
        the epoch index.  Each is its own decoded form (a keyframe's
        payload, a delta's state), so no read hops through the chain,
        and a read resumed after later appends still yields what was
        stored when it started."""
        index = self._index
        lo = self.min_epoch if start is None else start
        hi = self.max_epoch if end is None else end
        if lo is None or hi is None:  # an empty store
            return []
        if hi - lo < len(index):
            hits = [index[e] for e in range(lo, hi + 1) if e in index]
        else:
            hits = [n for e, n in index.items() if lo <= e <= hi]
        entries, evicted = self._entries, self.evicted
        return [entries[number - evicted] for number in sorted(hits)]

    def scan_meta(self) -> Iterator[EpochDoc]:
        """The top-level fields (everything but ``records``) of every
        stored document, in storage order, without touching a row."""
        for entry in self._entries:
            yield (_meta_of(entry.payload) if entry.keyed is None
                   else dict(entry.keyed.meta))

    def get(self, epoch: int) -> Optional[EpochDoc]:
        """The document for one epoch, or None if outside the ring."""
        for doc in self.scan(start=epoch, end=epoch):
            return doc
        return None

    def stats(self) -> dict[str, int]:
        """Counters + exact size, for service reporting and benches."""
        return {
            "entries": len(self._entries),
            "appended": self.appended,
            "evicted": self.evicted,
            "keyframes": self.keyframes,
            "promoted": self.promoted,
            "encoded_bytes": self.encoded_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EpochStore({len(self._entries)} entries, "
                f"epochs {self.min_epoch}..{self.max_epoch}, "
                f"{self.encoded_bytes} bytes)")
