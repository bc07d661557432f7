"""Discrete-event simulation engine.

The engine is a priority queue of timestamped events.  It is deliberately
small: everything interesting lives in the network model built on top of
it.  Design points that matter for reproducing the paper:

* **Integer nanosecond time.**  Floating-point time makes FIFO reasoning
  fragile (two packets scheduled "at the same instant" can reorder through
  rounding).  All timestamps are ``int`` nanoseconds.
* **Deterministic tie-breaking.**  Events scheduled for the same instant
  fire in the order they were scheduled (a monotonically increasing
  sequence number breaks ties).  This keeps simulations reproducible for a
  given seed, which the experiment harness relies on.
* **Cancellable events.**  Timers (retransmissions, snapshot re-initiation
  timeouts) need cancellation; a cancelled event's sequence number goes
  into a side table and is skipped when its heap entry is popped.

Performance notes (see docs/PERF.md): heap entries are plain
``(time, seq, fn, args)`` tuples, so ``heapq`` orders them with C-level
tuple comparison instead of a Python ``__lt__`` per comparison — at
millions of packet events per trial this is the single hottest path in
the repository.  Cancellation state lives outside the heap (an
:class:`Event` handle plus a seq side table) so the common case — events
that are never cancelled — pays nothing for cancellability.  Internal
hot paths that schedule trusted non-negative integer delays and never
cancel use :meth:`Simulator.schedule_fast`, which skips both validation
and handle allocation.
"""

from __future__ import annotations

import numbers
from heapq import heapify, heappop, heappush
from collections.abc import Callable, Collection, Mapping
from typing import Any, Optional

#: One nanosecond, the base time unit.
NS = 1
#: Nanoseconds per microsecond.
US = 1_000
#: Nanoseconds per millisecond.
MS = 1_000_000
#: Nanoseconds per second.
S = 1_000_000_000

#: Compact the heap once at least this many events are cancelled *and*
#: they make up at least half of the heap (both bounds, so tiny heaps do
#: not thrash and huge heaps do not accumulate unbounded garbage).
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


def exact_ns(value: Any, what: str = "time") -> int:
    """Coerce ``value`` to an exact integer nanosecond count.

    Integral floats (e.g. ``2e6`` from config arithmetic) are accepted
    and converted exactly; non-integral values raise instead of being
    silently truncated — truncation would let float drift reorder
    events that FIFO/tie-break reasoning assumes are distinct instants.
    """
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        if -_INF < value < _INF and int(value) == value:
            return int(value)
        raise ValueError(
            f"{what}={value!r} is not an integral nanosecond count; round "
            "explicitly at the call site if sub-ns precision is intended")
    raise TypeError(f"{what} must be an integer nanosecond count, "
                    f"got {type(value).__name__}")


def check_minimums(config: object, bounds: Mapping[str, Any],
                   optional: Collection[str] = ()) -> None:
    """Refuse any field of ``config`` outside its bound, naming it: the
    one range check of every config and spec (docs/API.md, "Config
    contract").  A bound is the least value or ``(least, most)``, both
    inclusive; an ``int`` least admits integral values only, a ``float``
    least any real.  As in :func:`exact_ns`, a whole float such as
    ``2e6`` in an integer field is taken as the int it equals, and the
    field is set to that int.  NaN and ±inf are refused, None only for a
    field named in ``optional``.  A list field is a sweep: each of its
    entries is held to the bound."""
    for name, bound in bounds.items():
        value = getattr(config, name)
        if type(value) is int and (  # the common case, before unpacking
                bound <= value if type(bound) is int
                else type(bound) is tuple and bound[0] <= value <= bound[1]):
            continue
        if value is None and name in optional:
            continue
        if type(value) is list:
            object.__setattr__(config, name, [
                _within(config, f"{name} entries", entry, bound, False)
                for entry in value])
            continue
        checked = _within(config, name, value, bound, name in optional)
        if checked is not value:
            object.__setattr__(config, name, checked)


def _within(config: object, name: str, value: Any, bound: Any,
            optional: bool) -> Any:
    """``value`` if it is inside ``bound`` (a whole float in an integer
    field as the int it equals); else the error naming ``name``."""
    least, most = bound if type(bound) is tuple else (bound, _INF)
    whole = type(least) is int
    real = type(value) in (int, float) or isinstance(value, numbers.Real)
    if real and least <= value <= most and value != _INF:
        if not whole or isinstance(value, numbers.Integral):
            return value
        if int(value) == value:
            return int(value)
    span = f">= {least}" if most == _INF else f"in [{least}, {most}]"
    raise (ValueError if real else TypeError)(
        f"{type(config).__name__}.{name} must be "
        f"{'an integer' if whole else 'a finite number'} {span}"
        f"{' or None' if optional else ''}, got {value!r}")


class Event:
    """A cancellation handle for a scheduled callback.

    The callback itself lives in the simulator's heap as a plain tuple;
    this handle only remembers enough identity — ``(time, seq)`` — to
    cancel it.  Use :meth:`cancel` to prevent a pending event from
    firing; cancellation is O(1) (amortised: a heap compaction runs when
    cancelled entries pile up).
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once,
        and a no-op once the event has already fired."""
        if self.cancelled:
            return
        sim = self._sim
        # Events execute in strict (time, seq) order, so the last-fired
        # key tells us exactly whether this one is still in the heap.
        if (self.time, self.seq) <= (sim._last_time, sim.seq_now):
            return  # already fired
        self.cancelled = True
        sim.cancel(self.seq)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state}, fn={self.fn!r})"


class Simulator:
    """A single-threaded discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(10 * US, my_callback, arg1, arg2)
        sim.run(until=1 * S)

    The simulator makes no assumptions about what the callbacks do; the
    network model schedules further events from within callbacks.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: Heap of (time, seq, fn, args) tuples.
        self._heap: list[tuple[int, float, Callable[..., Any],
                               tuple[Any, ...]]] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._running: bool = False
        #: Seqs of cancelled-but-still-heaped events (the side table).
        self._cancelled: set[float] = set()
        self._cancellations: int = 0  # lifetime count, for stats
        self._compactions: int = 0
        #: (time, seq) of the most recently executed event; lets
        #: ``Event.cancel`` detect fired events exactly.  Inside a
        #: callback, ``seq_now`` is the running event's own sequence.
        self._last_time: int = -1
        self.seq_now: float = -1
        #: Optional hook called as ``trace(time, seq, fn)`` before every
        #: executed event (golden-trace determinism tests).  Set it
        #: before calling :meth:`run`.
        self.trace: Optional[Callable[[int, float, Callable[..., Any]], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative exact integer (integral floats
        are accepted; fractional ones raise).  Returns the
        :class:`Event`, which can be cancelled.
        """
        if type(delay) is not int:  # exact-int fast path; bool et al. go slow
            delay = exact_ns(delay, "delay")
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        return Event(time, seq, fn, self)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``
        (an exact integer; fractional times raise)."""
        if type(time) is not int:
            time = exact_ns(time, "time")
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))
        return Event(time, seq, fn, self)

    def schedule_fast(self, delay: int, fn: Callable[..., Any], *args: Any) -> int:
        """Handle-free fast-path scheduling for internal machinery.

        Skips validation and handle allocation; ``delay`` must be a
        trusted non-negative ``int``.  Packet forwarding, link delivery
        and queue drain — the per-packet hot paths — use this.  Sequence
        numbers come from the same counter as :meth:`schedule`, so
        mixing the two preserves deterministic tie-breaking.  Returns
        the event's sequence number, which :meth:`cancel` accepts.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args))
        return seq

    def schedule_fast_at(self, seq: float, delay: int, fn: Callable[..., Any],
                         *args: Any) -> None:
        """:meth:`schedule_fast` at a tie-break position the caller owns
        (each ``(time, seq)`` unique): a fraction just below a sequence
        number it was handed orders the event as if scheduled before it."""
        heappush(self._heap, (self.now + delay, seq, fn, args))

    def cancel(self, seq: float) -> None:
        """Cancel the event with sequence number ``seq``.  The caller
        vouches that it is still pending (:meth:`Event.cancel` checks)."""
        cancelled = self._cancelled
        cancelled.add(seq)
        if (len(cancelled) >= _COMPACT_MIN_CANCELLED
                and 2 * len(cancelled) >= len(self._heap)):
            self._compact()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap is empty or a limit is reached.

        ``until`` is an absolute time bound (inclusive); events scheduled
        after it remain pending.  ``max_events`` bounds the number of
        callbacks executed.  ``now`` advances to ``until`` only when no
        event at or before it is left pending.  Returns the number of
        events executed by this call.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        cancelled = self._cancelled
        pop = heappop
        trace = self.trace
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                entry = heap[0]
                if cancelled and entry[1] in cancelled:
                    cancelled.discard(pop(heap)[1])
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(heap)
                self.now = time
                self._last_time = time
                self.seq_now = entry[1]
                if trace is not None:
                    trace(time, entry[1], entry[2])
                entry[2](*entry[3])
                executed += 1
        finally:
            self._running = False
            self._events_run += executed
        if until is not None and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        return executed

    def run_horizon(self, horizon: int) -> int:
        """Run every event *strictly before* ``horizon`` and advance
        ``now`` to exactly ``horizon``.

        This is the conservative-window entry point used by the sharded
        coordinator (:mod:`repro.sim.shard`): a worker that has run to a
        horizon is guaranteed never to execute another event before it,
        so cross-shard arrivals timestamped at or after the horizon can
        be injected without violating causality.  Returns the number of
        events executed.
        """
        if type(horizon) is not int:
            horizon = exact_ns(horizon, "horizon")
        if horizon < self.now:
            raise ValueError(
                f"cannot run to horizon t={horizon}, now is {self.now}")
        # run(until=...) is inclusive and then advances now to the bound,
        # so "strictly before horizon" is exactly until=horizon - 1.
        executed = self.run(until=horizon - 1)
        self.now = horizon
        return executed

    def inject_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Uncancellable absolute-time scheduling for trusted callers.

        The shard transport injects merged cross-shard batches with this:
        ``time`` must be a trusted ``int >= now``.  Sequence numbers come
        from the same counter as :meth:`schedule`, so injection order is
        the deterministic tie-break at equal timestamps.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args))

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none left."""
        return self.run(max_events=1) == 1

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries from the heap and re-heapify.

        Mutates ``_heap`` in place (``run`` holds a reference to the
        list), so a compaction triggered from inside a callback is safe.
        """
        cancelled = self._cancelled
        self._cancellations += len(cancelled)
        self._heap[:] = [e for e in self._heap if e[1] not in cancelled]
        heapify(self._heap)
        cancelled.clear()
        self._compactions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - len(self._cancelled)

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed so far."""
        return self._compactions

    @property
    def events_run(self) -> int:
        """Total number of events executed over the simulator's lifetime."""
        return self._events_run

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or None if the queue is empty."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and cancelled and heap[0][1] in cancelled:
            cancelled.discard(heappop(heap)[1])
        return heap[0][0] if heap else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now}, pending={self.pending})"
