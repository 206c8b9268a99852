"""The OS frame allocator with per-type fallback chains (paper Sec. IV-D).

Given the channel-group *roles* of a memory system (which group is the
latency module, which the bandwidth module, ...), the allocator resolves
an object type's fallback chain to concrete groups and hands out frames,
spilling to the next-best module when the preferred pool is full.

Pages are placed in runs: :meth:`OSPageAllocator.place_pages` takes a
whole object's page array, draws a run of frames from each pool of the
chain in turn (each pool is the paper's bump allocator) and maps the runs
in one call each, so placement costs a few numpy calls per object rather
than Python work per page.

Exhaustion is a first-class outcome, not just an exception:
:meth:`OSPageAllocator.allocate_page` raises :class:`OutOfFramesError`
(carrying per-pool occupancy and the requested type) when every pool in
the chain is out of frames, while ``place_pages`` by default overcommits
instead — the degraded path the placement planner takes rather than
crashing.  It models the OS swapping past physical capacity, with every
such page tallied in :class:`AllocationStats` so a degraded run stays
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs.registry import OBS
from repro.vm.heap import FALLBACK_CHAINS, ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool, OutOfMemory


class OutOfFramesError(OutOfMemory):
    """Every pool in a fallback chain is exhausted.

    Attributes:
        object_type: The :class:`ObjectType` whose chain came up empty.
        occupancy: group index → ``(allocated, total)`` frame counts at
            the moment of failure, so the failure is diagnosable without
            a debugger (which module filled first, which was offline).
    """

    def __init__(self, object_type: ObjectType,
                 occupancy: dict[int, tuple[int, int]]):
        self.object_type = object_type
        self.occupancy = dict(occupancy)
        detail = ", ".join(
            f"group {g}: {used}/{total}"
            for g, (used, total) in sorted(occupancy.items()))
        super().__init__(
            f"no frames left in any pool for type {object_type} ({detail})")


@dataclass
class AllocationStats:
    """Placement outcome counters.

    ``placed[type][group]`` counts pages of each object type per group;
    ``spills[type]`` counts pages that missed their first-choice module;
    ``exhausted[type]`` counts pages that found *every* pool full and had
    to be overcommitted (the degraded no-crash path).
    """

    placed: dict[ObjectType, dict[int, int]] = field(
        default_factory=lambda: {t: {} for t in ObjectType})
    spills: dict[ObjectType, int] = field(
        default_factory=lambda: {t: 0 for t in ObjectType})
    exhausted: dict[ObjectType, int] = field(
        default_factory=lambda: {t: 0 for t in ObjectType})

    def record(self, typ: ObjectType, group: int, n: int,
               spilled: bool) -> None:
        """Count ``n`` pages of ``typ`` placed in ``group``."""
        by_group = self.placed[typ]
        by_group[group] = by_group.get(group, 0) + n
        if spilled:
            self.spills[typ] += n

    @property
    def total_pages(self) -> int:
        return sum(n for by_g in self.placed.values() for n in by_g.values())

    @property
    def total_spills(self) -> int:
        return sum(self.spills.values())

    @property
    def total_exhausted(self) -> int:
        return sum(self.exhausted.values())

    def spill_rate(self, typ: ObjectType) -> float:
        total = sum(self.placed[typ].values())
        return self.spills[typ] / total if total else 0.0

    @property
    def overall_spill_rate(self) -> float:
        total = self.total_pages
        return self.total_spills / total if total else 0.0

    def to_dict(self) -> dict:
        """Manifest/provenance-ready summary of the placement outcome."""
        return {
            "pages": self.total_pages,
            "spills": self.total_spills,
            "exhausted": self.total_exhausted,
            "spill_rate": round(self.overall_spill_rate, 6),
            "spills_by_type": {t.name: n for t, n in self.spills.items()},
            "exhausted_by_type": {t.name: n
                                  for t, n in self.exhausted.items()},
        }


class OSPageAllocator:
    """Demand-paging allocator over role-named frame pools.

    Args:
        pools: group index → :class:`FramePool` (one per channel group).
        roles: role name (``"lat" | "bw" | "pow" | "main"``) → group index.
            A role may be absent (e.g. no RLDRAM in a homogeneous system);
            chains skip absent roles.
        page_table: Shared page table to record mappings into.
    """

    def __init__(self, pools: dict[int, FramePool], roles: dict[str, int],
                 page_table: PageTable | None = None):
        if not pools:
            raise ValueError("allocator needs at least one pool")
        unknown = set(roles.values()) - set(pools)
        if unknown:
            raise ValueError(f"roles reference missing groups {sorted(unknown)}")
        self.pools = pools
        self.roles = dict(roles)
        self.page_table = page_table or PageTable()
        self.stats = AllocationStats()
        self._requested = 0  # pages asked of place_pages so far
        self._fault: tuple[int, Callable[[], None]] | None = None
        # Resolve each type's role chain to concrete group indices once.
        self._chains: dict[ObjectType, list[int]] = {}
        for typ, role_chain in FALLBACK_CHAINS.items():
            groups = [roles[r] for r in role_chain if r in roles]
            # Any group not already in the chain is a last-ditch fallback,
            # in index order (never raise while memory remains anywhere).
            for g in sorted(pools):
                if g not in groups:
                    groups.append(g)
            self._chains[typ] = groups

    def chain_for(self, typ: ObjectType) -> list[int]:
        """Concrete group order this type's pages try, best-fit first."""
        return list(self._chains[typ])

    def occupancy(self) -> dict[int, tuple[int, int]]:
        """Per-group ``(allocated, total)`` frame counts right now."""
        return {g: (p.n_allocated, p.n_frames)
                for g, p in self.pools.items()}

    def arm_fault(self, after_pages: int, action: Callable[[], None]) -> None:
        """Run ``action`` once, just before page request number
        ``after_pages + 1`` — mid-object if that is where it falls.  The
        fault-injection layer (:mod:`repro.faults.inject`) uses it to
        offline/shrink pools, modelling a module failing mid-run."""
        self._fault = (self._requested + after_pages, action)

    def place_pages(self, vpages: np.ndarray, typ: ObjectType, *,
                    overcommit: bool = True) -> int:
        """Map every page of ``vpages``, in order, with frames for ``typ``.

        Each page takes the first pool of the type's chain with a frame
        left, so the array splits into one run per pool.  Pages that find
        every pool full are overcommitted (see
        :meth:`allocate_overcommit`), or raise :class:`OutOfFramesError`
        with ``overcommit=False``.  Returns the number overcommitted.
        """
        return self._place(vpages, typ, overcommit)[0]

    def _place(self, vpages: np.ndarray, typ: ObjectType,
               overcommit: bool) -> tuple[int, int, int]:
        """:meth:`place_pages`, also returning the ``(group, frame)`` the
        last page got (``(-1, -1)`` for no pages)."""
        vpages = np.asarray(vpages, dtype=np.int64)
        n = len(vpages)
        start = 0
        overcommitted = 0
        if self._fault is not None:
            at, action = self._fault
            split = at - self._requested
            if split < n:
                overcommitted = self._place_run(vpages[:split], typ,
                                                overcommit)[0]
                self._requested += split
                start = split
                self._fault = None
                action()
        self._requested += n - start
        rest, group, frame = self._place_run(vpages[start:], typ, overcommit)
        return overcommitted + rest, group, frame

    def _place_run(self, vpages: np.ndarray, typ: ObjectType,
                   overcommit: bool) -> tuple[int, int, int]:
        n = len(vpages)
        placed = 0
        last = (-1, -1)
        for i, group in enumerate(self._chains[typ]):
            if placed == n:
                break
            frames = self.pools[group].allocate_run(n - placed)
            k = len(frames)
            if not k:
                continue
            self.page_table.map_pages(vpages[placed:placed + k], group, frames)
            self.stats.record(typ, group, k, spilled=i > 0)
            if OBS.enabled:
                OBS.add(f"alloc.placed.{typ.name}", k)
                if i > 0:
                    # Paper Sec. IV-C/D: the preferred module was
                    # full and the pages fell through the chain.
                    OBS.add(f"alloc.spill.{typ.name}", k)
            placed += k
            last = (group, int(frames[-1]))
        rest = n - placed
        if rest:
            if OBS.enabled:
                OBS.add(f"alloc.oom.{typ.name}", rest)
            if not overcommit:
                raise OutOfFramesError(typ, self.occupancy())
            last = self._overcommit(vpages[placed:], typ)
        return (rest, *last)

    def _overcommit(self, vpages: np.ndarray,
                    typ: ObjectType) -> tuple[int, int]:
        chain = self._chains[typ]
        target = next((g for g in reversed(chain)
                       if not self.pools[g].is_offline), chain[-1])
        frames = self.pools[target].allocate_overcommit_run(len(vpages))
        self.page_table.map_pages(vpages, target, frames)
        self.stats.record(typ, target, len(vpages), spilled=True)
        self.stats.exhausted[typ] += len(vpages)
        if OBS.enabled:
            OBS.add(f"alloc.overcommit.{typ.name}", len(vpages))
        return target, int(frames[-1])

    def allocate_page(self, vpage: int, typ: ObjectType) -> tuple[int, int]:
        """Map ``vpage`` with a frame of type ``typ``; returns (group, frame).

        One-page :meth:`place_pages` that raises :class:`OutOfFramesError`
        (an :class:`OutOfMemory`) when every pool in the chain is
        exhausted; resilient callers degrade via
        :meth:`allocate_overcommit` instead of propagating.
        """
        _, group, frame = self._place(np.array([vpage]), typ,
                                      overcommit=False)
        return group, frame

    def allocate_overcommit(self, vpage: int, typ: ObjectType) -> tuple[int, int]:
        """Degraded allocation when the whole chain is exhausted.

        Places the page in the last online pool of the type's chain (the
        worst acceptable home) *beyond* its physical capacity — the
        reproduction's stand-in for the OS swapping — and tallies it in
        ``stats.exhausted`` so graceful degradation is visible in every
        report.
        """
        return self._overcommit(np.array([vpage]), typ)

    def free_frames(self) -> dict[int, int]:
        """Remaining frames per group."""
        return {g: p.frames_left for g, p in self.pools.items()}
