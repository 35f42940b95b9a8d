"""A standalone :class:`ComponentAllocator` for tests, backed by a FlowTable.

The engine hands the allocator its :class:`~repro.simulate.flowtable.
FlowTable` slot ids and rate array.  :class:`TableAllocator` does the same
with a table of its own and offers the Flow-keyed surface of
:func:`~repro.simulate.flows.allocate_rates`: ``add(flow)`` returns the
flow's slot, and ``solve()`` returns every tracked flow's rate, so
differential tests can compare it with the reference dict for dict.
Every other attribute (``last_changed``, ``components()``, ...) is the
wrapped allocator's.  A flow is tracked by one table at a time: the
table stashes its slot on ``Flow.fid``.
"""

from __future__ import annotations

from repro.simulate.components import ComponentAllocator
from repro.simulate.flows import Flow
from repro.simulate.flowtable import FlowTable


class TableAllocator:
    """A :class:`ComponentAllocator` over its own :class:`FlowTable`."""

    def __init__(self) -> None:
        self.alloc = ComponentAllocator()
        self.table = FlowTable()
        #: tracked flow -> slot, in add order
        self.fids: dict[Flow, int] = {}

    def __getattr__(self, name: str):
        return getattr(self.alloc, name)

    def add(self, flow: Flow) -> int:
        """Admit ``flow`` to a table slot and the allocator; its slot."""
        if flow in self.fids:
            raise ValueError("flow already tracked")
        fid = self.table.acquire(flow)
        try:
            self.alloc.add(flow, fid)
        except KeyError:
            self.table.release(flow)
            raise
        self.fids[flow] = fid
        return fid

    def remove(self, flow: Flow) -> None:
        self.alloc.remove(flow)
        del self.fids[flow]
        self.table.release(flow)

    def solve(self) -> dict[Flow, float]:
        """Re-solve into the table; every tracked flow's rate."""
        self.alloc.solve(self.table.rate)
        rate = self.table.rate.item
        return {f: rate(fid) for f, fid in self.fids.items()}

    @property
    def active_flows(self) -> int:
        return len(self.fids)
