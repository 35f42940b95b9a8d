"""Structure-of-arrays flow slot table for the simulation engine.

The engine tracks every active :class:`~repro.simulate.flows.Flow` in a
dense slot table so the per-event hot path runs as whole-array kernels
instead of per-object attribute walks: ``remaining`` and ``rate`` are
flat float64 arrays indexed by slot id, the settle pass is one fused
``remaining -= rate * dt`` over the full range, and the component
allocator scatters solved rates straight into the ``rate`` array.

The slot is a flow's only id (stashed on the flow as ``Flow.fid``, and
the id the allocator tracks it under), and ``rate`` is its rate's only
copy.  The table keeps no Flow-keyed registry: the engine's
``Simulation._flows`` is the active set, and :meth:`sync_remaining`
walks it.  :class:`FlowTable` owns the layout:

* **slot recycling** — freed slot ids return through a free list, so the
  arrays stay dense however many flows have come and gone.  Freed slots
  hold the sentinels ``remaining = inf, rate = 1``: a hole's predicted
  completion is ``+inf`` and its remaining never drains, so the
  vectorised settle/sweep/prediction passes run over the whole range
  without masking.  A recycled slot holds no trace of its old tenant;
  the engine recognises the old tenant's parked heap entries by their
  per-slot sequence numbers, and answers queries about a finished flow
  from its registry, never from the slot;
* **cached length-n views** — ``views()`` returns length-n slices of the
  remaining/rate/scratch arrays, rebuilt only when the slot count grows
  (the only time the backing arrays can reallocate).

The authoritative ``remaining`` lives in the array; the ``Flow`` objects
are synchronised at observation points only (:meth:`sync_remaining`).
The table is a pure container — it never reads the wall clock, never
touches DFS state, and does no float arithmetic beyond the fused settle
update, so it is registered in the OPS103 purity registry and carries
O(deg) cost contracts on the per-event operations (O(n) only in the
whole-range kernels ``settle`` and ``sync_remaining``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .flows import Flow

__all__ = ["FlowTable"]

#: Initial slot capacity; the arrays double when it is outgrown.
_GROW = 64


class FlowTable:
    """Dense recycled-slot arrays for the active flow set."""

    __slots__ = (
        "flow_at",
        "free_ids",
        "rem",
        "rate",
        "scratch",
        "_nview",
        "_rem_v",
        "_rate_v",
        "_scr_v",
    )

    def __init__(self) -> None:
        #: slot id -> Flow (None while the slot is free)
        self.flow_at: list[Flow | None] = []
        #: recycled slot ids, LIFO
        self.free_ids: list[int] = []
        self.rem = np.full(_GROW, np.inf)
        self.rate = np.ones(_GROW)
        #: scratch buffer for the settle/sweep passes (same capacity as
        #: the slot arrays) so the per-event array math allocates nothing
        self.scratch = np.empty(_GROW)
        # cached length-n views of rem/rate/scratch; rebuilt when the
        # slot count changes (the only time the arrays can reallocate)
        self._nview = -1
        self._rem_v = self.rem[:0]
        self._rate_v = self.rate[:0]
        self._scr_v = self.scratch[:0]

    # -- sizing ---------------------------------------------------------------

    def views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Length-n views of the remaining/rate/scratch arrays (cached)."""
        n = len(self.flow_at)
        if n != self._nview:
            self._nview = n
            self._rem_v = self.rem[:n]
            self._rate_v = self.rate[:n]
            self._scr_v = self.scratch[:n]
        return self._rem_v, self._rate_v, self._scr_v

    # -- slot lifecycle -------------------------------------------------------

    def acquire(self, flow: Flow) -> int:
        """Admit ``flow``, returning its slot id.

        The slot starts at the flow's full ``remaining`` with rate 0 —
        the settle pass covering the instant of creation must not move
        a flow the allocator has not rated yet, and every solved rate
        differs from 0, so the allocator reports the new tenant.
        """
        if self.free_ids:
            fid = self.free_ids.pop()
        else:
            fid = len(self.flow_at)
            self.flow_at.append(None)
            if fid >= len(self.rem):
                grow = len(self.rem)
                self.rem = np.concatenate([self.rem, np.full(grow, np.inf)])  # opass: alloc-ok -- capacity doubling, amortized O(1)/acquire
                self.rate = np.concatenate([self.rate, np.ones(grow)])  # opass: alloc-ok -- capacity doubling, amortized O(1)/acquire
                self.scratch = np.empty(len(self.rem))  # opass: alloc-ok -- capacity doubling, amortized O(1)/acquire
                self._nview = -1
        self.flow_at[fid] = flow
        flow.fid = fid
        self.rem[fid] = flow.remaining
        self.rate[fid] = 0.0
        return fid

    def release(self, flow: Flow) -> int:
        """Return the flow's slot to the free list, restoring sentinels."""
        fid = flow.fid
        self.flow_at[fid] = None
        flow.fid = -1
        self.rem[fid] = np.inf
        self.rate[fid] = 1.0
        self.free_ids.append(fid)
        return fid

    # -- whole-range kernels --------------------------------------------------

    def settle(self, dt: float) -> int:
        """Credit ``dt`` seconds to every slot: ``rem = max(0, rem - rate*dt)``.

        Fused through the scratch buffer — elementwise identical to the
        allocating form.  Free slots are unharmed: their sentinel
        ``inf - 1*dt`` stays ``inf``.  Returns the active flow count
        (for the caller's perf accounting).
        """
        rem, rate, scratch = self.views()
        np.multiply(rate, dt, out=scratch)
        np.subtract(rem, scratch, out=rem)
        np.maximum(rem, 0.0, out=rem)
        return len(self.flow_at) - len(self.free_ids)

    def sync_remaining(self, flows: Iterable[Flow], dt: float = 0.0) -> None:
        """Write each of ``flows``' slot ``remaining``, drained ``dt``
        seconds further, onto the Flow object: ``max(0, rem - rate*dt)``,
        the settle's own arithmetic, without changing the slot (``dt = 0``
        copies ``rem``).  ``flows`` are active flows of this table."""
        rem_item = self.rem.item
        rate_item = self.rate.item
        for f in flows:
            fid = f.fid
            f.remaining = max(0.0, rem_item(fid) - rate_item(fid) * dt)
