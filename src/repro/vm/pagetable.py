"""Page table and TLB models.

The page table maps virtual page numbers to ``(channel group, frame)``
pairs.  Mappings are created on demand (first touch) by the OS allocator,
one run of pages per call, and live in three sorted numpy columns, so
translation of whole miss streams is one vectorized search.

The TLB model mirrors the paper's Sec. IV-D narrative (TLB hit → PTE,
miss → page walk) and is used for statistics; its latency contribution is
identical across memory systems and thus cancels in every normalized
figure, so the experiment drivers leave it disabled by default.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import PAGE_BYTES


class PageTable:
    """vpage → (group, frame) mapping stored as sorted numpy columns.

    :meth:`map_pages` only queues a run; the queued runs are merged into
    the key-sorted ``keys``/``groups``/``frames`` columns on the next
    read, which is where a vpage mapped twice raises ``ValueError``.
    """

    def __init__(self):
        self._keys = np.empty(0, dtype=np.int64)
        self._groups = np.empty(0, dtype=np.int32)
        self._frames = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, int, np.ndarray]] = []

    def __len__(self) -> int:
        self._merge()
        return len(self._keys)

    def __contains__(self, vpage: int) -> bool:
        return self._index(vpage) is not None

    def map_pages(self, vpages: np.ndarray, group: int,
                  frames: np.ndarray) -> None:
        """Map ``vpages[i]`` to ``(group, frames[i])`` for every ``i``.

        The run is copied and queued, not checked: a vpage that is already
        mapped raises ``ValueError`` at the next read, which also drops
        every run queued since the previous read.  By then the frames,
        :class:`~repro.vm.allocator.AllocationStats` and counters of the
        allocator that placed the run have already advanced, so such an
        error is a bug in the caller, not a recoverable condition.
        """
        self._pending.append((np.array(vpages, dtype=np.int64), group,
                              np.array(frames, dtype=np.int64)))

    def map_page(self, vpage: int, group: int, frame: int) -> None:
        """Map one page, rejecting a remap at once.

        The page goes straight into the sorted columns (a binary search
        and an insert), so a loop of ``map_page`` calls never re-sorts
        the table.
        """
        self._merge()
        i = int(self._keys.searchsorted(vpage))
        if i < len(self._keys) and self._keys[i] == vpage:
            raise ValueError(f"vpage {vpage:#x} already mapped")
        self._keys = np.insert(self._keys, i, vpage)
        self._groups = np.insert(self._groups, i, group)
        self._frames = np.insert(self._frames, i, frame)

    def _merge(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        keys = np.concatenate([self._keys] + [k for k, _, _ in pending])
        # Runs arrive mostly ascending; the stable sort (timsort for
        # int64) merges such runs instead of sorting from scratch.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if len(dup):
            # The queued runs are dropped: the table stays as it was at
            # the last successful merge.
            raise ValueError(f"vpage {int(keys[dup[0]]):#x} already mapped")
        groups = np.concatenate(
            [self._groups] + [np.full(len(k), g, dtype=np.int32)
                              for k, g, _ in pending])
        frames = np.concatenate([self._frames] + [f for _, _, f in pending])
        self._keys = keys
        self._groups = groups[order]
        self._frames = frames[order]

    def _index(self, vpage: int) -> int | None:
        self._merge()
        i = int(self._keys.searchsorted(vpage))
        if i < len(self._keys) and self._keys[i] == vpage:
            return i
        return None

    def _require(self, vpage: int) -> int:
        i = self._index(vpage)
        if i is None:
            raise KeyError(f"page fault: vpage {vpage:#x} has no mapping")
        return i

    def lookup(self, vpage: int) -> tuple[int, int]:
        i = self._require(vpage)
        return int(self._groups[i]), int(self._frames[i])

    def remap(self, vpage: int, group: int, frame: int) -> tuple[int, int]:
        """Move an existing mapping in place (page migration); returns the
        old (group, frame) so the caller can free the vacated frame."""
        i = self._require(vpage)
        old = int(self._groups[i]), int(self._frames[i])
        self._groups[i] = group
        self._frames[i] = frame
        return old

    def snapshot(self) -> dict[int, tuple[int, int]]:
        """Every mapping as a plain ``{vpage: (group, frame)}`` dict."""
        self._merge()
        return dict(zip(self._keys.tolist(),
                        zip(self._groups.tolist(), self._frames.tolist())))

    def _indices(self, vpages: np.ndarray) -> np.ndarray:
        self._merge()
        keys = self._keys
        vpages = np.asarray(vpages, dtype=np.int64)
        idx = keys.searchsorted(vpages)
        missing = idx >= len(keys)
        if len(keys):
            missing |= keys[np.minimum(idx, len(keys) - 1)] != vpages
        if missing.any():
            first = vpages[missing]
            raise KeyError(f"page fault on {len(first)} pages, first "
                           f"{first[0]:#x}")
        return idx

    def lookup_many(self, vpages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`lookup`: ``(groups, frames)`` arrays.

        A scalar :meth:`lookup` is a binary search through numpy (about
        1.5 µs); callers that read many pages at once use this instead.
        """
        idx = self._indices(vpages)
        return self._groups[idx], self._frames[idx]

    def remap_many(self, vpages: np.ndarray, groups: np.ndarray,
                   frames: np.ndarray) -> None:
        """Vectorized :meth:`remap` (the caller already knows the old
        mappings)."""
        idx = self._indices(vpages)
        self._groups[idx] = groups
        self._frames[idx] = frames

    def translate_lines(self, vlines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Translate line addresses to (group, group-local physical address).

        Every page must already be mapped (the planner touches them first).
        """
        groups, frames = self.lookup_many(vlines // PAGE_BYTES)
        return groups, frames * PAGE_BYTES + (vlines % PAGE_BYTES)

    def pages_in_group(self, group: int) -> int:
        """How many mapped pages landed in a channel group."""
        self._merge()
        return int(np.count_nonzero(self._groups == group))


class TLB:
    """Fully-associative LRU TLB (statistics model)."""

    def __init__(self, entries: int = 64):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._store: dict[int, None] = {}
        self.n_hits = 0
        self.n_misses = 0

    def access(self, vpage: int) -> bool:
        """Touch a vpage; returns hit/miss and updates LRU order."""
        if vpage in self._store:
            del self._store[vpage]
            self._store[vpage] = None
            self.n_hits += 1
            return True
        self.n_misses += 1
        if len(self._store) >= self.entries:
            del self._store[next(iter(self._store))]
        self._store[vpage] = None
        return False

    @property
    def hit_rate(self) -> float:
        n = self.n_hits + self.n_misses
        return self.n_hits / n if n else 0.0

    def simulate_stream(self, vlines: np.ndarray) -> float:
        """Hit rate over a line-address stream (bulk helper)."""
        for vp in (vlines // PAGE_BYTES).tolist():
            self.access(vp)
        return self.hit_rate
