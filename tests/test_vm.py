"""Tests for the OS substrate: frame pools, page table, TLB, allocator."""

import numpy as np
import pytest

from repro.trace.events import PAGE_BYTES
from repro.vm.allocator import OSPageAllocator
from repro.vm.heap import FALLBACK_CHAINS, ObjectType, TypedHeap
from repro.vm.pagetable import PageTable, TLB
from repro.vm.physmem import FramePool, OutOfMemory
from repro.util.units import MIB


class TestFramePool:
    def test_sequential_allocation(self):
        p = FramePool(4 * PAGE_BYTES, group=0)
        assert [p.allocate() for _ in range(4)] == [0, 1, 2, 3]

    def test_exhaustion_returns_none(self):
        p = FramePool(PAGE_BYTES, group=0)
        assert p.allocate() == 0
        assert p.allocate() is None
        assert p.full

    def test_free_and_reuse(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        f = p.allocate()
        p.allocate()
        p.free(f)
        assert not p.full
        assert p.allocate() == f

    def test_free_validates(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        with pytest.raises(ValueError):
            p.free(1)  # never allocated

    def test_utilization(self):
        p = FramePool(4 * PAGE_BYTES, group=0)
        p.allocate()
        assert p.utilization == pytest.approx(0.25)

    def test_frames_left_never_negative_when_overcommitted(self):
        p = FramePool(2 * PAGE_BYTES, group=0)
        p.allocate()
        p.allocate()
        p.allocate_overcommit()
        assert p.frames_left == 0
        assert p.full
        assert len(p.allocate_run(3)) == 0
        alloc = OSPageAllocator({0: p}, roles={"main": 0})
        assert alloc.free_frames() == {0: 0}

    @pytest.mark.parametrize("n", range(9))
    def test_allocate_run_matches_single_frame_calls(self, n):
        pools = FramePool(6 * PAGE_BYTES, 0), FramePool(6 * PAGE_BYTES, 0)
        for p in pools:
            got = [p.allocate() for _ in range(4)]
            p.free(got[2])
            p.free(got[0])
        run = pools[0].allocate_run(n)
        assert run.dtype == np.int64
        single = [pools[1].allocate() for _ in range(n)]
        assert run.tolist() == [f for f in single if f is not None]
        assert run.tolist() == [0, 2, 4, 5][:n]
        assert (pools[0].n_allocated, pools[0].frames_left) == \
            (pools[1].n_allocated, pools[1].frames_left)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            FramePool(100, group=0)


class TestPageTable:
    def test_map_and_lookup(self):
        pt = PageTable()
        pt.map_page(10, group=1, frame=5)
        assert pt.lookup(10) == (1, 5)
        assert 10 in pt
        assert len(pt) == 1

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map_page(10, 0, 0)
        with pytest.raises(ValueError):
            pt.map_page(10, 0, 1)

    def test_page_fault(self):
        with pytest.raises(KeyError, match="page fault"):
            PageTable().lookup(3)

    def test_translate_lines(self):
        pt = PageTable()
        pt.map_page(0, group=0, frame=7)
        pt.map_page(1, group=1, frame=2)
        vlines = np.asarray([64, PAGE_BYTES + 128])
        groups, gaddr = pt.translate_lines(vlines)
        assert groups.tolist() == [0, 1]
        assert gaddr.tolist() == [7 * PAGE_BYTES + 64, 2 * PAGE_BYTES + 128]

    def test_translate_unmapped_raises(self):
        pt = PageTable()
        pt.map_page(0, 0, 0)
        with pytest.raises(KeyError, match="page fault"):
            pt.translate_lines(np.asarray([5 * PAGE_BYTES]))

    def test_translate_on_empty_table_faults(self):
        with pytest.raises(KeyError, match="page fault"):
            PageTable().translate_lines(np.asarray([0]))

    def test_translate_after_incremental_maps(self):
        pt = PageTable()
        pt.map_page(0, 0, 0)
        pt.translate_lines(np.asarray([0]))
        pt.map_page(1, 0, 1)  # merged into the columns on the next read
        groups, gaddr = pt.translate_lines(np.asarray([PAGE_BYTES]))
        assert gaddr[0] == PAGE_BYTES

    def test_map_pages_duplicate_rejected_on_merge(self):
        pt = PageTable()
        pt.map_pages(np.arange(4), 0, np.arange(4))
        pt.map_pages(np.array([7, 3]), 1, np.array([0, 1]))
        with pytest.raises(ValueError, match="already mapped"):
            len(pt)

    def test_runs_remap_in_place(self):
        pt = PageTable()
        pt.map_pages(np.array([5, 1, 3]), 2, np.array([10, 11, 12]))
        pt.translate_lines(np.asarray([PAGE_BYTES]))
        assert pt.remap(3, 0, 99) == (2, 12)
        groups, gaddr = pt.translate_lines(np.asarray([3 * PAGE_BYTES + 64]))
        assert groups.tolist() == [0]
        assert gaddr.tolist() == [99 * PAGE_BYTES + 64]
        assert pt.snapshot() == {1: (2, 11), 3: (0, 99), 5: (2, 10)}
        pt.remap_many([5, 1], [0, 1], [7, 8])
        groups, frames = pt.lookup_many([1, 5])
        assert groups.tolist() == [1, 0] and frames.tolist() == [8, 7]
        with pytest.raises(KeyError, match="page fault"):
            pt.lookup_many([2])

    def test_map_pages_keeps_its_own_copy(self):
        pt = PageTable()
        vpages, frames = np.arange(4), np.arange(10, 14)
        pt.map_pages(vpages[1:], 0, frames[1:])
        vpages[2] = 9
        frames[:] = 0
        assert pt.snapshot() == {1: (0, 11), 2: (0, 12), 3: (0, 13)}

    def test_failed_merge_drops_the_queued_runs(self):
        pt = PageTable()
        pt.map_pages(np.arange(2), 0, np.arange(2))
        len(pt)
        pt.map_pages(np.array([5]), 1, np.array([0]))
        pt.map_pages(np.array([1]), 1, np.array([1]))
        with pytest.raises(ValueError, match="already mapped"):
            len(pt)
        assert pt.snapshot() == {0: (0, 0), 1: (0, 1)}

    def test_map_page_sees_queued_runs(self):
        pt = PageTable()
        pt.map_pages(np.array([4, 2]), 0, np.array([0, 1]))
        with pytest.raises(ValueError, match="already mapped"):
            pt.map_page(2, 1, 0)
        pt.map_page(3, 1, 0)
        assert pt.snapshot() == {2: (0, 1), 3: (1, 0), 4: (0, 0)}

    def test_pages_in_group(self):
        pt = PageTable()
        pt.map_page(0, 0, 0)
        pt.map_page(1, 1, 0)
        pt.map_page(2, 1, 1)
        assert pt.pages_in_group(1) == 2


class TestTLB:
    def test_hit_after_touch(self):
        t = TLB(entries=4)
        assert not t.access(1)
        assert t.access(1)

    def test_lru_eviction(self):
        t = TLB(entries=2)
        t.access(1)
        t.access(2)
        t.access(1)   # 1 MRU
        t.access(3)   # evicts 2
        assert t.access(1)
        assert not t.access(2)

    def test_hit_rate_on_stream(self):
        t = TLB(entries=64)
        vlines = np.arange(1000) % 10 * PAGE_BYTES
        assert t.simulate_stream(vlines) > 0.9

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTypedHeap:
    def test_default_type(self):
        h = TypedHeap()
        assert h.type_of(42) == ObjectType.POW

    def test_set_and_get(self):
        h = TypedHeap()
        h.set_type(1, ObjectType.LAT)
        assert h.type_of(1) == ObjectType.LAT

    def test_partition_counts(self):
        h = TypedHeap()
        h.set_type(1, ObjectType.LAT)
        h.set_type(2, ObjectType.LAT)
        h.set_type(3, ObjectType.BW)
        assert h.partition_counts() == {
            ObjectType.LAT: 2, ObjectType.BW: 1, ObjectType.POW: 0}

    def test_chains_cover_all_types(self):
        for typ in ObjectType:
            assert FALLBACK_CHAINS[typ][0] in ("lat", "bw", "pow")

    def test_bw_falls_back_to_pow_first(self):
        """Sec. III-C: the next best module for HBM is LPDDR."""
        chain = FALLBACK_CHAINS[ObjectType.BW]
        assert chain.index("pow") < chain.index("lat")


def _pools(caps):
    return {i: FramePool(c, group=i) for i, c in enumerate(caps)}


class TestOSPageAllocator:
    def test_best_fit_first(self):
        alloc = OSPageAllocator(_pools([MIB, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        g, f = alloc.allocate_page(0, ObjectType.LAT)
        assert g == 0
        g, f = alloc.allocate_page(1, ObjectType.BW)
        assert g == 1
        g, f = alloc.allocate_page(2, ObjectType.POW)
        assert g == 2

    def test_fallback_when_full(self):
        alloc = OSPageAllocator(_pools([PAGE_BYTES, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        alloc.allocate_page(0, ObjectType.LAT)   # fills RL
        g, _ = alloc.allocate_page(1, ObjectType.LAT)
        assert g == 1  # spilled to bw
        assert alloc.stats.spills[ObjectType.LAT] == 1

    def test_bw_spills_to_pow_before_lat(self):
        alloc = OSPageAllocator(_pools([MIB, PAGE_BYTES, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        alloc.allocate_page(0, ObjectType.BW)
        g, _ = alloc.allocate_page(1, ObjectType.BW)
        assert g == 2

    def test_out_of_memory(self):
        alloc = OSPageAllocator(_pools([PAGE_BYTES]), roles={"main": 0})
        alloc.allocate_page(0, ObjectType.POW)
        with pytest.raises(OutOfMemory):
            alloc.allocate_page(1, ObjectType.POW)

    def test_one_page_calls_do_not_read_the_table_back(self, monkeypatch):
        """Each call returns the mapping it made, so a loop of one-page
        calls never merges (re-sorts) the page table."""
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES, PAGE_BYTES]),
                                roles={"lat": 0, "pow": 1})

        def forbidden(self):
            raise AssertionError("page table merged")

        monkeypatch.setattr(PageTable, "_merge", forbidden)
        got = [alloc.allocate_page(vp, ObjectType.LAT) for vp in range(3)]
        got.append(alloc.allocate_overcommit(3, ObjectType.LAT))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]
        monkeypatch.undo()
        assert alloc.page_table.snapshot() == dict(enumerate(got))

    def test_missing_roles_are_skipped(self):
        alloc = OSPageAllocator(_pools([MIB]), roles={"main": 0})
        for typ in ObjectType:
            assert alloc.chain_for(typ) == [0]

    def test_chain_includes_all_groups_as_last_resort(self):
        alloc = OSPageAllocator(_pools([MIB, MIB]),
                                roles={"lat": 0})  # group 1 has no role
        assert set(alloc.chain_for(ObjectType.LAT)) == {0, 1}

    def test_roles_must_reference_pools(self):
        with pytest.raises(ValueError):
            OSPageAllocator(_pools([MIB]), roles={"lat": 5})

    def test_stats_record_placements(self):
        alloc = OSPageAllocator(_pools([MIB, MIB, MIB]),
                                roles={"lat": 0, "bw": 1, "pow": 2})
        for vp in range(5):
            alloc.allocate_page(vp, ObjectType.POW)
        assert alloc.stats.placed[ObjectType.POW][2] == 5
        assert alloc.stats.total_pages == 5
        assert alloc.stats.spill_rate(ObjectType.POW) == 0.0

    def test_free_frames_accounting(self):
        alloc = OSPageAllocator(_pools([2 * PAGE_BYTES]), roles={"main": 0})
        alloc.allocate_page(0, ObjectType.POW)
        assert alloc.free_frames() == {0: 1}

    def test_needs_pools(self):
        with pytest.raises(ValueError):
            OSPageAllocator({}, roles={})
