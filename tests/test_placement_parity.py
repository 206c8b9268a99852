"""Run-based placement against the per-page loop it replaced.

``plan_placement`` hands each object's page array to
``OSPageAllocator.place_pages``, which takes a run of frames from each
pool of the type's fallback chain.  :func:`per_page_plan` below is the
per-page loop that did the same job one page at a time; it stays here as
the oracle, drawing frames from :class:`OraclePool`, its own copy of the
per-frame free-list and bump logic, so no code under test sits on both
sides of the comparison.  Hypothesis drives both over random pool capacities, pre-freed
frames, chains with absent roles and capacity faults whose trigger lands
mid-object or past exhaustion, and every observable must agree: the page
table, the allocation stats, per-pool counters, the ``alloc.*``/``fault.*``
counters, the exhaustion warning and the translated streams.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.hierarchy import MissStream
from repro.faults.inject import arm_allocator
from repro.faults.plan import FaultPlan
from repro.moca.allocation import CORE_STRIDE, MocaPolicy, plan_placement
from repro.obs.registry import OBS
from repro.sim.config import ALL_SYSTEMS
from repro.trace.events import PAGE_BYTES, VirtualLayout
from repro.vm.allocator import AllocationStats, OSPageAllocator
from repro.vm.heap import FALLBACK_CHAINS, ObjectType
from repro.vm.pagetable import PageTable
from repro.vm.physmem import FramePool
from repro.workloads.inputs import app_layout

ROLES = ("lat", "bw", "pow")


class OraclePool:
    """Per-frame pool state, kept apart from :class:`FramePool`: the free
    list is popped one frame at a time, else the next fresh frame is
    bumped while any is left."""

    def __init__(self, n_frames, n_pre, frees):
        self.n_frames = n_frames
        self.next = n_pre
        self.free = list(frees)
        self.n_allocated = n_pre - len(frees)
        self.n_overcommitted = 0
        self.offline = False

    def allocate(self):
        if self.offline:
            return None
        if self.free:
            frame = self.free.pop()
        elif self.next < self.n_frames:
            frame = self.next
            self.next += 1
        else:
            return None
        self.n_allocated += 1
        return frame

    def allocate_overcommit(self):
        frame = self.next
        self.next += 1
        self.n_allocated += 1
        self.n_overcommitted += 1
        return frame

    def shrink(self, fraction):
        self.n_frames = max(self.next, int(self.n_frames * (1.0 - fraction)))

    @property
    def frames_left(self):
        if self.offline:
            return 0
        return len(self.free) + max(0, self.n_frames - self.next)


def oracle_faults(pools, roles, plan):
    if plan.offline_role in roles:
        pools[roles[plan.offline_role]].offline = True
        OBS.add(f"fault.offline.{plan.offline_role}")
    if plan.shrink_role in roles:
        pools[roles[plan.shrink_role]].shrink(plan.shrink_fraction)
        OBS.add(f"fault.shrink.{plan.shrink_role}")


def oracle_chain(typ, roles, groups):
    chain = [roles[r] for r in FALLBACK_CHAINS[typ] if r in roles]
    return chain + [g for g in sorted(groups) if g not in chain]


def per_page_plan(streams, policy, pools, roles, layouts, faults):
    """The per-page placement loop (oracle) over :class:`OraclePool` s;
    returns its page table and ``(placed, spills, exhausted)`` tallies."""
    objects = []
    if layouts is not None:
        for core, layout in enumerate(layouts):
            for region in layout.all_regions():
                objects.append((policy.object_priority(core, region.obj_id),
                                region.obj_id, core, list(region.pages())))
    else:
        for core, stream in enumerate(streams):
            if len(stream) == 0:
                continue
            uniq, first_idx = np.unique(stream.vline // PAGE_BYTES,
                                        return_index=True)
            owners = stream.obj_id[first_idx]
            for obj in np.unique(owners):
                mask = owners == obj
                order = np.argsort(first_idx[mask], kind="stable")
                objects.append((policy.object_priority(core, int(obj)),
                                int(obj), core, uniq[mask][order].tolist()))
    objects.sort(key=lambda t: t[:3])
    placed = {t: {} for t in ObjectType}
    spills = {t: 0 for t in ObjectType}
    exhausted = {t: 0 for t in ObjectType}
    mapping: dict[int, tuple[int, int]] = {}
    requested = 0
    warned = False
    if faults is not None and faults.trigger_page <= 0:
        oracle_faults(pools, roles, faults)
        faults = None
    for _, obj, core, pages in objects:
        typ = policy.object_type(core, obj)
        chain = oracle_chain(typ, roles, pools)
        for vpage in pages:
            requested += 1
            if faults is not None and requested == faults.trigger_page + 1:
                oracle_faults(pools, roles, faults)
            for i, group in enumerate(chain):
                frame = pools[group].allocate()
                if frame is not None:
                    spilled = i > 0
                    OBS.add(f"alloc.placed.{typ.name}")
                    if i > 0:
                        OBS.add(f"alloc.spill.{typ.name}")
                    break
            else:
                OBS.add(f"alloc.oom.{typ.name}")
                if not warned:
                    warned = True
                    OBS.warn(f"placement: all frame pools exhausted placing "
                             f"{typ.name} pages; overcommitting "
                             f"(degraded run)")
                group = next((g for g in reversed(chain)
                              if not pools[g].offline), chain[-1])
                frame = pools[group].allocate_overcommit()
                spilled = True
                exhausted[typ] += 1
                OBS.add(f"alloc.overcommit.{typ.name}")
            placed[typ][group] = placed[typ].get(group, 0) + 1
            spills[typ] += spilled
            key = core * (CORE_STRIDE // PAGE_BYTES) + vpage
            mapping[key] = (group, frame)
    return mapping, (placed, spills, exhausted)


def translate(mapping, streams):
    """Per-core (groups, gaddrs) from a plain page-table dict."""
    out = []
    for core, stream in enumerate(streams):
        keys = (stream.vline // PAGE_BYTES
                + core * (CORE_STRIDE // PAGE_BYTES)).tolist()
        groups = [mapping[k][0] for k in keys]
        gaddrs = [mapping[k][1] * PAGE_BYTES + int(v) % PAGE_BYTES
                  for k, v in zip(keys, stream.vline)]
        out.append((groups, gaddrs))
    return out


@st.composite
def scenarios(draw):
    n_groups = draw(st.integers(1, 3))
    caps = draw(st.lists(st.integers(1, 48), min_size=n_groups,
                         max_size=n_groups))
    # Pre-allocate some frames in each pool and free a subset of them in a
    # drawn order, so runs must start from the free list.
    prefree = []
    for cap in caps:
        n_pre = draw(st.integers(0, cap))
        frees = draw(st.permutations(range(n_pre)))
        prefree.append((n_pre, frees[:draw(st.integers(0, n_pre))]))
    # Roles on a random subset of groups: absent roles drop out of chains.
    role_names = draw(st.permutations(ROLES))
    groups = draw(st.permutations(range(n_groups)))
    n_roles = draw(st.integers(0, n_groups))
    roles = dict(zip(role_names[:n_roles], groups[:n_roles]))
    layouts = []
    for _ in range(draw(st.integers(1, 2))):
        layout = VirtualLayout(stack_bytes=PAGE_BYTES,
                               code_bytes=draw(st.integers(1, 3)) * PAGE_BYTES,
                               global_bytes=PAGE_BYTES)
        for i, size in enumerate(draw(st.lists(st.integers(1, 24),
                                               min_size=1, max_size=5))):
            layout.place(f"o{i}", size * PAGE_BYTES - draw(st.integers(0, 64)),
                         site=i + 1)
        layouts.append(layout)
    types = [{o.obj_id: draw(st.sampled_from(list(ObjectType)))
              for o in layout.objects} for layout in layouts]
    heat = [{o.obj_id: float(draw(st.integers(0, 2)))
             for o in layout.all_regions()} for layout in layouts]
    streams = []
    for layout in layouts:
        regions = layout.all_regions()
        picks = draw(st.lists(st.tuples(st.integers(0, len(regions) - 1),
                                        st.integers(0, 1 << 20),
                                        st.integers(0, PAGE_BYTES // 64 - 1)),
                              max_size=40))
        vline = [regions[r].pages()[p % len(regions[r].pages())] * PAGE_BYTES
                 + line * 64 for r, p, line in picks]
        owner = [regions[r].obj_id for r, _, _ in picks]
        n = len(picks)
        streams.append(MissStream(
            inst=np.arange(n, dtype=np.int64) * 10,
            vline=np.asarray(vline, dtype=np.int64),
            obj_id=np.asarray(owner, dtype=np.int32),
            dep=np.zeros(n, dtype=bool), kind=np.zeros(n, dtype=np.int8),
            total_instructions=10 * n + 10))
    total = sum(len(r.pages()) for lay in layouts for r in lay.all_regions())
    faults = draw(st.one_of(
        st.none(),
        st.builds(lambda role, trig: FaultPlan(offline_role=role,
                                               trigger_page=trig),
                  st.sampled_from(ROLES), st.integers(0, total + 10)),
        st.builds(lambda role, frac, trig: FaultPlan(
            shrink_role=role, shrink_fraction=frac, trigger_page=trig),
                  st.sampled_from(ROLES), st.floats(0.05, 1.0),
                  st.integers(0, total + 10))))
    demand = draw(st.booleans())
    return dict(caps=caps, prefree=prefree, roles=roles, layouts=layouts,
                types=types, heat=heat, streams=streams, faults=faults,
                demand=demand)


def make_allocator(sc) -> OSPageAllocator:
    pools = {g: FramePool(cap * PAGE_BYTES, g)
             for g, cap in enumerate(sc["caps"])}
    for g, (n_pre, frees) in enumerate(sc["prefree"]):
        got = [pools[g].allocate() for _ in range(n_pre)]
        for i in frees:
            pools[g].free(got[i])
    return OSPageAllocator(pools, sc["roles"], PageTable())


def observe(planner):
    """Run one planner with OBS on; return what it returns plus the
    ``alloc.*``/``fault.*`` counters and warnings it left behind."""
    warnings: list[str] = []
    OBS.reset().enable()
    try:
        with mock.patch.object(OBS, "warn", side_effect=warnings.append):
            out = planner()
        counters = {k: v for k, v in OBS.counters.items()
                    if k.startswith(("alloc.", "fault."))}
    finally:
        OBS.reset().disable()
    return dict(out, counters=counters, warnings=warnings)


class TestPlacementParity:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_runs_match_the_per_page_loop(self, sc):
        layouts = None if sc["demand"] else sc["layouts"]
        policy = MocaPolicy(sc["types"], sc["heat"])

        def by_runs():
            allocator = make_allocator(sc)
            if sc["faults"] is not None:
                arm_allocator(allocator, sc["faults"])
            plan = plan_placement(sc["streams"], policy, allocator, layouts)
            stats = allocator.stats
            return dict(
                table=allocator.page_table.snapshot(),
                tallies=(stats.placed, stats.spills, stats.exhausted),
                summary=stats.to_dict(),
                pools={g: (p.n_allocated, p.n_overcommitted, p.frames_left)
                       for g, p in allocator.pools.items()},
                translated=[(g.tolist(), a.tolist())
                            for g, a in zip(plan.groups, plan.gaddrs)])

        def by_pages():
            pools = {g: OraclePool(cap, *sc["prefree"][g])
                     for g, cap in enumerate(sc["caps"])}
            table, tallies = per_page_plan(sc["streams"], policy, pools,
                                           sc["roles"], layouts, sc["faults"])
            return dict(
                table=table, tallies=tallies,
                summary=AllocationStats(*tallies).to_dict(),
                pools={g: (p.n_allocated, p.n_overcommitted, p.frames_left)
                       for g, p in pools.items()},
                translated=translate(table, sc["streams"]))

        assert observe(by_runs) == observe(by_pages)


class TestNoPerPageCalls:
    """Placing a real layout never drops to per-page calls."""

    def test_mcf_layout_on_heter_config1(self, monkeypatch):
        config = ALL_SYSTEMS["Heter-config1"]
        allocator = config.make_allocator(config.build())
        layout = app_layout("mcf", "ref")
        regions = layout.all_regions()

        def forbidden(*args, **kwargs):
            raise AssertionError("per-page call on the placement path")

        monkeypatch.setattr(FramePool, "allocate", forbidden)
        monkeypatch.setattr(OSPageAllocator, "allocate_page", forbidden)
        monkeypatch.setattr(PageTable, "map_page", forbidden)
        calls = []
        allocate_run = FramePool.allocate_run

        def counted(pool, n):
            calls.append(n)
            return allocate_run(pool, n)

        monkeypatch.setattr(FramePool, "allocate_run", counted)
        # Every object typed LAT: RLDRAM overflows, so chains are walked.
        policy = MocaPolicy([{o.obj_id: ObjectType.LAT
                              for o in layout.objects}])
        vline = np.asarray([r.vbase for r in regions], dtype=np.int64)
        stream = MissStream(
            inst=np.arange(len(vline), dtype=np.int64),
            vline=vline,
            obj_id=np.asarray([r.obj_id for r in regions], dtype=np.int32),
            dep=np.zeros(len(vline), dtype=bool),
            kind=np.zeros(len(vline), dtype=np.int8),
            total_instructions=len(vline))
        plan = plan_placement([stream], policy, allocator, layouts=[layout])
        n_pages = sum(len(r.pages()) for r in regions)
        assert plan.stats.total_pages == n_pages
        assert plan.stats.total_spills > 0
        assert len(calls) <= len(regions) * len(allocator.pools)
        assert len(allocator.page_table) == n_pages


@pytest.mark.parametrize("trigger", [1, 7, 8, 9, 40])
def test_fault_splits_an_object_run(trigger):
    """The fault fires before page request ``trigger + 1`` even when that
    request falls inside one object's run."""
    pools = {0: FramePool(32 * PAGE_BYTES, 0),
             1: FramePool(64 * PAGE_BYTES, 1)}
    allocator = OSPageAllocator(pools, {"lat": 0, "pow": 1})
    arm_allocator(allocator, FaultPlan(offline_role="lat",
                                       trigger_page=trigger))
    allocator.place_pages(np.arange(8), ObjectType.LAT)
    allocator.place_pages(np.arange(8, 24), ObjectType.LAT)
    in_lat = min(trigger, 24)
    assert allocator.stats.placed[ObjectType.LAT].get(0, 0) == in_lat
    assert allocator.page_table.pages_in_group(1) == 24 - in_lat
    assert pools[0].is_offline == (trigger < 24)
