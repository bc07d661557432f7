"""The model's one CPU queue (Figure 10's bottleneck): a bounded FIFO
served one item at a time.  The notification socket and digest stream,
the aggregation relays and the service's ingest server subclass it."""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Generic, Optional, TypeVar

from repro.sim.engine import Simulator

T = TypeVar("T")


class SerialServer(Generic[T]):
    """A bounded FIFO served serially; :meth:`_begin` prices each item
    as it enters service.  ``capacity``, ``service_scale`` and ``online``
    are per-instance fault knobs (an owner's config is shared and stays
    immutable at run time).  Going down loses the item in service, even
    if the server is back up before its slot ends; what was admitted
    after the restart waits for that slot."""

    def __init__(self, sim: Simulator, capacity: int,
                 handler: Callable[[T], None]) -> None:
        self.sim = sim
        self.handler = handler
        #: Told of an item that dies in service, to book what it carried.
        self.on_lost: Optional[Callable[[T], None]] = None
        self._queue: deque[T] = deque()
        self._busy = False
        self._online = True
        #: The server went down with the item in service.
        self._lost_in_service = False
        self.capacity = capacity
        self.service_scale = 1.0
        self.received = 0
        self.processed = 0
        self.dropped = 0
        self.max_backlog = 0

    @property
    def online(self) -> bool:
        return self._online

    @online.setter
    def online(self, online: bool) -> None:
        if not online and self._busy:
            self._lost_in_service = True
        self._online = online

    @property
    def backlog(self) -> int:
        """Items waiting plus the one in service."""
        return len(self._queue) + self._busy

    def deliver(self, item: T) -> bool:
        """Admit ``item`` unless the server is down or its queue is
        full (a drop); returns whether it was admitted."""
        self.received += 1
        if not self._online or len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(item)
        backlog = len(self._queue) + self._busy
        if backlog > self.max_backlog:
            self.max_backlog = backlog
        if not self._busy:
            self._service_next()
        return True

    def flush_queued(self) -> list[T]:
        """Discard every waiting item (a crash) and return them; the
        item in service is lost at its completion."""
        lost = list(self._queue)
        self._queue.clear()
        return lost

    def _begin(self, item: T) -> int:
        """Called as ``item`` enters service: its cost in simulated ns."""
        raise NotImplementedError

    def _service_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        item = self._queue.popleft()
        cost = self._begin(item)
        if self.service_scale != 1.0:
            cost = max(1, int(cost * self.service_scale))
        self.sim.schedule_fast(cost, self._finish, item)

    def _finish(self, item: T) -> None:
        if self._lost_in_service:
            self._lost_in_service = False
            self._lose(item)
            if not self._online:
                self._busy = False
                return
        else:
            self.processed += 1
            self.handler(item)
        self._service_next()

    def _lose(self, item: T) -> None:
        """Book an item that died in service."""
        self.dropped += 1
        if self.on_lost is not None:
            self.on_lost(item)
