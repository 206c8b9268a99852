"""Physical frame pools, one per channel group.

The OS "maintains the starting, ending, and the next available page number
of each memory module" (paper Sec. IV-D); a :class:`FramePool` is exactly
that bump allocator, with an optional free list so long-running scenarios
can return frames.
"""

from __future__ import annotations

import numpy as np

from repro.trace.events import PAGE_BYTES


class OutOfMemory(RuntimeError):
    """Raised when every module in a fallback chain is exhausted."""


class FramePool:
    """Frames of one channel group, allocated in ascending order."""

    def __init__(self, capacity_bytes: int, group: int, name: str = ""):
        if capacity_bytes < PAGE_BYTES:
            raise ValueError("pool smaller than one page")
        self.group = group
        self.name = name
        self.n_frames = capacity_bytes // PAGE_BYTES
        self._next = 0
        self._free: list[int] = []
        self.n_allocated = 0
        self.is_offline = False
        self.n_overcommitted = 0

    @property
    def frames_left(self) -> int:
        """Frames :meth:`allocate_run` can still hand out: the free list
        plus the unbumped tail, never negative (an overcommitted pool has
        bumped past ``n_frames``)."""
        if self.is_offline:
            return 0
        return len(self._free) + max(0, self.n_frames - self._next)

    @property
    def full(self) -> bool:
        return self.frames_left == 0

    def _take(self, n: int) -> tuple[list[int], int, int]:
        """Claim up to ``n`` frames: ``(reused, first_fresh, n_fresh)``.

        ``reused`` are freed frames, most-recent first; the fresh frames
        are ``first_fresh .. first_fresh + n_fresh - 1``.
        """
        if self.is_offline or n <= 0:
            return [], self._next, 0
        free = self._free
        if free:
            reused = free[:-n - 1:-1]  # the last n freed, most recent first
            del free[-n:]
            n -= len(reused)
        else:
            reused = []
        first = self._next
        room = self.n_frames - first  # negative once overcommitted
        n_fresh = n if n <= room else max(room, 0)
        self._next = first + n_fresh
        self.n_allocated += len(reused) + n_fresh
        return reused, first, n_fresh

    def allocate_run(self, n: int) -> np.ndarray:
        """Take up to ``n`` frames; returns them as an int64 array.

        The order is exactly what ``n`` calls to :meth:`allocate` would
        return: freed frames most-recent first, then fresh frames in
        ascending order.  Fewer than ``n`` come back when the pool runs
        out (none when it is offline).
        """
        reused, first, n_fresh = self._take(n)
        fresh = np.arange(first, first + n_fresh, dtype=np.int64)
        if reused:
            return np.concatenate((np.array(reused, dtype=np.int64), fresh))
        return fresh

    def allocate(self) -> int | None:
        """Return the next free frame number, or ``None`` when full."""
        reused, first, n_fresh = self._take(1)
        if reused:
            return reused[0]
        return first if n_fresh else None

    def _overcommit(self, n: int) -> int:
        """Bump ``n`` frames past capacity; returns the first."""
        first = self._next
        self._next += n
        self.n_allocated += n
        self.n_overcommitted += n
        return first

    def allocate_overcommit_run(self, n: int) -> np.ndarray:
        """Hand out ``n`` frames *beyond* capacity (the OS's swap of last
        resort): never fails, but every such frame is tallied in
        ``n_overcommitted`` so degraded runs are measurable."""
        first = self._overcommit(n)
        return np.arange(first, first + n, dtype=np.int64)

    def allocate_overcommit(self) -> int:
        """One-frame :meth:`allocate_overcommit_run`."""
        return self._overcommit(1)

    # ---- fault injection -----------------------------------------------------

    def offline(self) -> None:
        """Take the pool offline: no further allocations succeed.

        Already-granted frames stay valid (their data is simply slow to
        reach), matching a module fenced off after correctable-error
        storms rather than one physically unplugged.
        """
        self.is_offline = True

    def shrink(self, fraction: float) -> int:
        """Remove ``fraction`` of the pool's frames; returns frames lost.

        Granted frames are never revoked: the pool shrinks to at most
        its currently-allocated extent.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"shrink fraction {fraction} outside [0, 1]")
        target = int(self.n_frames * (1.0 - fraction))
        # Never shrink below the high-water mark: frame numbers already
        # handed out (even ones since freed) stay addressable.
        new_frames = max(self._next, target)
        lost = max(0, self.n_frames - new_frames)
        self.n_frames = new_frames
        return lost

    def free(self, frame: int) -> None:
        """Return a frame to the pool."""
        if not 0 <= frame < self._next:
            raise ValueError(f"frame {frame} was never allocated")
        self._free.append(frame)
        self.n_allocated -= 1

    @property
    def utilization(self) -> float:
        return self.n_allocated / self.n_frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FramePool({self.name or self.group}, "
                f"{self.n_allocated}/{self.n_frames} frames)")
