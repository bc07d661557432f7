"""A unit's name: ``UnitId`` over two plain direction strings, its one
``device:port:direction`` key and that key's one parser.

The oracles are the forms these replaced, kept verbatim: the ``Enum``
direction and the ``UnitId.__str__`` over it, the store's ``_row_key``
and ``_row_sort_key``, and ``snapshot_rows`` and ``device_records``
sorting by ``direction.value``.  Each runs on units that carry the old
``Enum`` member, the new code on the same units with the plain string,
over drawn device names with ``:`` and non-ASCII characters in them.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from repro.analysis.report import snapshot_rows
from repro.core.control_plane import UnitSnapshotRecord
from repro.core.snapshot import GlobalSnapshot, UnitTable
from repro.sim.switch import Direction, UnitId, parse_unit_key, unit_key

EXAMPLES = 60


# -- the oracles: the replaced forms, verbatim ----------------------------

class _OldDirection(enum.Enum):
    """Which side of the port a processing unit sits on."""

    INGRESS = "ingress"
    EGRESS = "egress"

    __hash__ = object.__hash__


class _OldUnitId(NamedTuple):
    device: str
    port: int
    direction: _OldDirection

    def __str__(self) -> str:
        return f"{self.device}:{self.port}:{self.direction.value}"


def _old_row_key(row):
    return f"{row['device']}:{row['port']}:{row['direction']}"


def _old_row_sort_key(name: str) -> tuple[str, int, str]:
    device, port, direction = name.rsplit(":", 2)
    return (device, int(port), direction)


def _old_snapshot_rows(snapshot):
    """One flat dict per unit record (stable ordering)."""
    # Units are unique, so the sort never reaches a value.  A frozen
    # snapshot's rows come straight from its columns.
    epoch = snapshot.epoch
    return [{
        "epoch": epoch,
        "device": device,
        "port": port,
        "direction": direction,
        "value": value,
        "channel_state": channel_state,
        "total": value if channel_state is None else value + channel_state,
        "consistent": consistent,
        "captured_ns": captured_ns,
        "read_ns": read_ns,
    } for device, port, direction, value, channel_state, consistent,
        captured_ns, read_ns in sorted(
        [(u.device, u.port, u.direction.value, value, channel_state,
          consistent, captured_ns, read_ns)
         for u, value, channel_state, consistent, captured_ns, read_ns
         in snapshot.rows()])]


def _old_device_records(snapshot, device):
    return [r for u, r in sorted(snapshot.records.items(),
                                 key=lambda kv: (kv[0].device, kv[0].port,
                                                 kv[0].direction.value))
            if u.device == device]


def _old(unit: UnitId) -> _OldUnitId:
    return _OldUnitId(unit.device, unit.port, _OldDirection(unit.direction))


# -- drawn units -----------------------------------------------------------

#: Device names with the key's separator, digits (``"sw:1"`` parses as
#: device ``"sw"`` port 1 unless the parser splits from the right),
#: non-ASCII and astral characters.
_DEVICE = st.text(st.sampled_from(":0179aZé€ß \U0001f600"), max_size=5)
_UNIT = st.builds(UnitId, _DEVICE, st.integers(0, 12),
                  st.sampled_from((Direction.INGRESS, Direction.EGRESS)))
_UNITS = st.lists(_UNIT, min_size=1, max_size=12, unique=True)
_INT = st.integers(0, 2 ** 40)


@st.composite
def _snapshot_pair(draw):
    """The same snapshot twice, over new and over old-enum units: live
    or frozen, channel state None everywhere, an int everywhere, or
    mixed; records in any arrival order."""
    units = draw(st.permutations(draw(_UNITS)))
    states = draw(st.sampled_from(("none", "ints", "mixed")))
    rows = [(draw(_INT),
             None if states == "none" else
             draw(_INT) if states == "ints" else draw(st.none() | _INT),
             draw(st.booleans()), draw(_INT), draw(_INT)) for _ in units]
    pair = []
    for build in (lambda u: u, _old):
        snapshot = GlobalSnapshot(epoch=3, requested_wall_ns=0,
                                  expected_units={build(u) for u in units})
        for unit, row in zip(units, rows):
            snapshot.add_record(UnitSnapshotRecord(build(unit), 3, *row))
        pair.append(snapshot)
    if draw(st.booleans()):
        for snapshot in pair:
            snapshot.freeze(UnitTable())
    return pair


class TestUnitKey:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(_UNITS)
    def test_one_key_and_its_parse_match_the_replaced_forms(self, units):
        for unit in units:
            key = unit_key(*unit)
            assert key == str(unit) == str(_old(unit))
            assert key == _old_row_key({"device": unit.device,
                                        "port": unit.port,
                                        "direction": unit.direction})
            assert parse_unit_key(key) == tuple(unit) == unit
            assert type(parse_unit_key(key)) is tuple

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(_UNITS)
    def test_units_sort_in_the_old_order(self, units):
        old_order = sorted(map(_old, units),
                           key=lambda u: (u.device, u.port, u.direction.value))
        assert sorted(units) == [UnitId(d, p, o.value)
                                 for d, p, o in old_order]
        keys = [str(u) for u in units]
        assert (sorted(keys, key=parse_unit_key)
                == sorted(keys, key=_old_row_sort_key)
                == [str(u) for u in sorted(units)])


class TestSnapshotRows:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(_snapshot_pair())
    def test_rows_equal_the_replaced_implementation(self, pair):
        new, old = pair
        assert new.frozen == old.frozen
        assert snapshot_rows(new) == _old_snapshot_rows(old)
        for device in sorted({u.device for u in new.records}):
            assert ([(str(r.unit), r.value, r.channel_state)
                     for r in new.device_records(device)]
                    == [(str(r.unit), r.value, r.channel_state)
                        for r in _old_device_records(old, device)])
