"""FIFO stores and counted resources for the DES engine.

``Store`` models the DataSpaces task queue and free-bucket list: producers
``put`` items, consumers ``yield store.get()``. ``Resource`` models counted
capacity (e.g. a node's cores, concurrent RDMA channels, I/O servers).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.des.engine import Engine, EventHandle


class Store:
    """Unbounded FIFO item queue with blocking ``get``.

    Items are delivered to getters in arrival order; getters are served in
    request order (FCFS), which is exactly the paper's bucket-assignment
    policy.
    """

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[EventHandle] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Insert an item; wakes the oldest pending getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> EventHandle:
        """Return an event that triggers with the next available item."""
        ev = EventHandle(self.engine)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def items_snapshot(self) -> list[Any]:
        """Copy of queued items (for instrumentation/tests)."""
        return list(self._items)


class Resource:
    """Counted resource with FCFS acquisition.

    Usage in a process::

        grant = yield resource.acquire()
        ...
        resource.release()
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[EventHandle] = deque()

    def acquire(self) -> EventHandle:
        """Event that triggers once a unit of capacity is granted."""
        engine = self.engine
        ev = EventHandle(engine)
        if self.in_use < self.capacity:
            self.in_use += 1
            # ``ev.succeed(self)`` on an event with no waiter and no
            # callback yet: the two fields and the trigger stamp.
            ev.triggered = True
            ev.value = self
            if engine._traced:
                c = engine._triggers  # stamped in place: Counter.inc(1)
                c.value += 1
                c.times.append(c.clock())
                c.values.append(c.value)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> bool:
        """Return a unit of capacity; hands it to the oldest waiter if any.

        Cancelled (withdrawn) acquire requests are skipped — a process
        that died while queueing must not swallow the unit. Returns
        whether ``in_use`` fell.
        """
        if self.in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        while self._waiters:
            ev = self._waiters.popleft()
            if ev.cancelled:
                continue
            ev.succeed(self)
            return False
        self.in_use -= 1
        return True

    def cancel(self, grant: EventHandle) -> bool:
        """Withdraw an acquire request (the requester is aborting).

        If the grant already landed, the unit is returned to the pool;
        otherwise the queued request is revoked so a later ``release``
        cannot hand capacity to a dead process. Returns whether
        ``in_use`` fell.
        """
        if grant.triggered:
            return self.release()
        if grant.cancel():
            try:
                self._waiters.remove(grant)
            except ValueError:
                pass
        return False
