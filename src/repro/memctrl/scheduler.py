"""Request-ordering policies for a channel controller.

The paper's controller uses FR-FCFS (Table I): among queued requests,
row-buffer hits are served before older row misses, which maximizes
row-buffer locality.  The trace-driven core model hands the controller
small *batches* of concurrently-outstanding requests (an MLP episode or
overlapping requests from several cores); the scheduler decides the order
in which the batch drains into the device model.
"""

from __future__ import annotations

from typing import Sequence

from repro.memctrl.request import MemRequest
from repro.memdev.module import MemoryModule


def fcfs_order(module: MemoryModule, batch: Sequence[MemRequest]) -> list[MemRequest]:
    """First-come first-served: issue order (stable by issue cycle)."""
    return sorted(batch, key=lambda r: (r.issue_cycle, r.gaddr))


def frfcfs_order(module: MemoryModule, batch: Sequence[MemRequest]) -> list[MemRequest]:
    """First-ready FCFS with read priority.

    Criticality classes: demand loads (the core is waiting), then demand
    stores (buffered but MSHR-held), then writebacks (pure background
    drain).  Within each class, open-row hits jump ahead of older row
    misses.  Ties keep issue order, so the policy degrades to FCFS on a
    pattern with no locality.

    Row-hit status is a deliberate *snapshot* policy: every request in
    the batch is classified against the bank state as it stands when the
    batch arrives, before any request drains.  A later request that
    targets the row a preceding request in the same batch is about to
    open still sorts as a miss (and vice versa: a "hit" may find its row
    closed by an intervening conflict by the time it is served).  Real
    FR-FCFS re-evaluates per scheduling slot; the batch model pays the
    sort once.  The compiled replay kernel snapshots at the same instant —
    ``tests/test_memctrl.py`` pins the semantics so the kernelized
    drain cannot silently change it.
    """
    def key(req: MemRequest) -> tuple[int, int, int, int]:
        sub, bank_i, row = module.decode(req.local_addr)
        hit = module.banks[sub][bank_i].is_hit(row)
        if req.demand:
            klass = 0 if not req.is_write else 1
        else:
            klass = 2
        return (klass, 0 if hit else 1, req.issue_cycle, req.gaddr)

    return sorted(batch, key=key)


SCHEDULERS = {
    "frfcfs": frfcfs_order,
    "fcfs": fcfs_order,
}
