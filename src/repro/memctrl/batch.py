"""Compiled DRAM replay: decoded columns, packed device state, C kernel.

The reference replay builds a :class:`~repro.memctrl.request.MemRequest`
object per record, routes it through ``MemorySystem.service_batch`` →
``ChannelGroup.service_batch`` → ``ChannelController.service_batch``, and
re-decodes its address at every layer.  For a trace replayed start to
finish all of that is static: the channel a record lands on, its
(subchannel, bank, row) decode and its FR-FCFS criticality class depend
only on the page mapping — never on timing.  :class:`ReplayTables`
decodes them once, vectorized, into ``int64`` columns, and the episode
loop itself — issue, scheduler order, refresh, tFAW, bank and bus
arithmetic, the core's cycle update — runs in one small C function
(``replay_kernel.c``, beside this file) called through :mod:`ctypes`.
A second entry point, :func:`interleave`, runs the multicore global-time
interleave over several cores' tables in the same call.

Bit-identity contract (pinned by ``tests/test_parity.py``):

* The reference drains per (group, channel) sub-batch, but channels are
  fully independent — only the *within-channel* order is semantically
  meaningful.  Sorting an episode by (channel, scheduler key, record
  index) therefore reproduces the reference order exactly; the record
  index mirrors ``sorted()``'s stability.
* Row-hit bits for the FR-FCFS key are snapshotted against bank state at
  episode entry, exactly when the reference scheduler sorts (before any
  access of the episode drains, and before any refresh those accesses
  may trigger).
* Mutable device state (bank rows/windows, bus direction and occupancy,
  tFAW activate history, refresh horizon) lives in a
  :class:`DeviceState` shared by every core replaying on one memory
  system, so multicore interleaves contend exactly as the reference
  does.  It is loaded from the Python device objects when the first
  kernel core on a system starts and written back when the last one
  finishes.  Pure counters (module/controller totals, latency
  histograms, OBS ``mem.*``/``memsys.*``) are deferred to
  :meth:`ReplayTables.flush_stats` at end of replay; nothing reads them
  mid-replay, so the deferral is observation-equivalent.  The one
  order-sensitive observation, each channel's ``queue_occupancy`` gauge
  (the size of the last batch the channel served), is resolved with
  global steps: every episode takes one from a counter shared by all
  cores on the system, and the kernel keeps, per core and channel, the
  step of the core's last episode on that channel.

Building: :mod:`repro.util.ckernel` compiles the kernel on first use
and caches it as ``replay_kernel-<tag>.so`` beside the source.  With no
compiler, or a failed build or ``dlopen``, :func:`replay_kernel` warns
once and the core falls back to the reference interpreter.
"""

from __future__ import annotations

import ctypes
import weakref
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.cpu.hierarchy import KIND_STORE, KIND_WRITEBACK
from repro.memctrl.addrmap import LINE_BITS, LINE_BYTES
from repro.memctrl.scheduler import fcfs_order, frfcfs_order
from repro.memctrl.system import MemorySystem
from repro.obs.registry import OBS
from repro.util import ckernel
from repro.util.resident import ResidentLRU, content_digest

# ---- building and loading the kernel ----------------------------------------

SOURCE = Path(__file__).with_name("replay_kernel.c")
CFLAGS = ckernel.CFLAGS

class _Ctx(ctypes.Structure):
    """Mirror of ``replay_ctx`` in ``replay_kernel.c`` (same field order)."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "ctrl", "bank", "sub",
        "r_ctrl", "r_bank", "r_sub", "r_row", "r_klass", "r_write",
        "r_gaddr", "r_off",
        "ep_start", "headgap",
        "ep_issue0", "ch_step", "clock",
        "done", "queue", "service", "hit", "bb",
        "scratch")] + [("cycle", ctypes.c_int64),
                       ("backlog", ctypes.c_int64)]


class Kernel(NamedTuple):
    """The kernel's entry points, typed for :mod:`ctypes` calls."""

    run: Callable
    interleave: Callable


def _bind(lib) -> Kernel | None:
    """Type the entry points; ``None`` for a library built from an
    older source (it is rebuilt, not half-used)."""
    if lib.replay_abi() != ctypes.sizeof(_Ctx):
        return None
    run, inter = lib.replay_run, lib.replay_interleave
    run.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64)
    run.restype = ctypes.c_int64
    inter.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                      ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    inter.restype = ctypes.c_int64
    return Kernel(run, inter)


_LIB = ckernel.CKernel(SOURCE, _bind, warning=(
    "replay kernel unavailable ({exc}); replays use the reference "
    "interpreter (bit-identical, slower)", "replay-kernel"))

# Module-level seams over the loader; the cache tests patch these.
_compiler = ckernel.compiler
_checksum_path = ckernel.checksum_path
_sha256 = ckernel.sha256
_library_name = _LIB.library_name
_open = _LIB.open


def _cache_dirs():
    return ckernel.cache_dirs(SOURCE)


def load_kernel() -> Kernel:
    """Load the cached kernel or build it; raises
    :class:`~repro.util.ckernel.KernelUnavailable`."""
    return _LIB.load(_cache_dirs(), _compiler)


#: ``None`` = not tried yet, ``False`` = unavailable, else the kernel.
_KERNEL = None


def replay_kernel() -> Kernel | None:
    """The process's replay kernel, or ``None`` (warned once)."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _LIB.try_load(load_kernel)
    return _KERNEL or None


# ---- device layout and packed state -----------------------------------------

# Row widths of the packed tables and the refresh-horizon column; the
# column order is that of the enums in replay_kernel.c.
C_FIELDS, C_NEXT_REF = 15, 14
B_FIELDS = 3
S_FIELDS = 7


def _layout(memsys: MemorySystem):
    """Flat controllers, group bases, and per-controller bank/sub bases."""
    controllers, bases = memsys.controller_layout()
    bank0, sub0 = [], []
    nb = ns = 0
    for c in controllers:
        bank0.append(nb)
        sub0.append(ns)
        nb += sum(len(sub) for sub in c.module.banks)
        ns += len(c.module.banks)
    return controllers, bases, bank0, sub0


class DeviceState:
    """Packed int64 device state of one memory system (kernel-owned).

    Rows of :attr:`ctrl`, :attr:`bank` and :attr:`sub` follow the flat
    controller order of :meth:`MemorySystem.controller_layout`.
    """

    def __init__(self, memsys: MemorySystem):
        self.controllers, _, bank0, _ = _layout(memsys)
        self.active = 0
        #: Global episode step counter, advanced by the kernel.
        self.clock = np.zeros(1, dtype=np.int64)
        #: Step of the episode behind each channel's occupancy gauge.
        self.gauge_step = np.full(len(self.controllers), -1, dtype=np.int64)
        ctrl = np.zeros((len(self.controllers), C_FIELDS), dtype=np.int64)
        for ci, c in enumerate(self.controllers):
            if c.scheduler is frfcfs_order:
                mode = 0
            elif c.scheduler is fcfs_order:
                mode = 1
            else:
                raise ValueError(
                    f"fast path does not support custom scheduler "
                    f"{c.scheduler!r}; run with fast_path=False")
            m = c.module
            t = m.timing
            # C_MODE ... C_NEXT_REF, as in replay_kernel.c
            ctrl[ci] = (mode, t.tCL, t.tCCD, t.tRP, t.tRAS, t.tRC, t.tRCD,
                        t.tFAW, t.turnaround, t.transfer_cycles(c.line_bytes),
                        t.tREFI, t.tRFC, bank0[ci],
                        sum(len(sub) for sub in m.banks), m._next_refresh)
        self.ctrl = ctrl
        self.bank = np.array(
            [(-1 if b.open_row is None else b.open_row, b.ready_at,
              b.last_activate) for b in self._banks()],
            dtype=np.int64).reshape(-1, B_FIELDS)
        subs = []
        for m in self._modules():
            for s in range(len(m.banks)):
                lw = m._last_was_write[s]
                acts = m._recent_acts[s]
                subs.append([m.bus_free_at[s], -1 if lw is None else int(lw),
                             len(acts), *acts, *[0] * (4 - len(acts))])
        self.sub = np.array(subs, dtype=np.int64).reshape(-1, S_FIELDS)

    def _modules(self):
        return [c.module for c in self.controllers]

    def _banks(self):
        return [b for m in self._modules() for sub in m.banks for b in sub]

    def store(self) -> None:
        """Write the packed state back into the Python device objects."""
        for c, row in zip(self.controllers, self.ctrl[:, C_NEXT_REF].tolist()):
            c.module._next_refresh = row
        for b, (row, ready, last) in zip(self._banks(), self.bank.tolist()):
            b.open_row = None if row < 0 else row
            b.ready_at = ready
            b.last_activate = last
        subs = iter(self.sub.tolist())
        for m in self._modules():
            for s in range(len(m.banks)):
                bus, lw, n, *acts = next(subs)
                m.bus_free_at[s] = bus
                m._last_was_write[s] = None if lw < 0 else bool(lw)
                m._recent_acts[s] = acts[:n]


#: Device state of every system with a kernel replay in flight.
_DEVICES: "weakref.WeakKeyDictionary[MemorySystem, DeviceState]" = \
    weakref.WeakKeyDictionary()


def _acquire(memsys: MemorySystem) -> DeviceState:
    dev = _DEVICES.get(memsys)
    if dev is None:
        dev = _DEVICES[memsys] = DeviceState(memsys)
    dev.active += 1
    return dev


# ---- decoded per-record columns ---------------------------------------------

#: Process-level memo of decoded routing columns, keyed by content hash
#: of (groups, gaddrs, kind) + addressing geometry.  The decode is a
#: pure function of those inputs and the columns are read-only during
#: replay, so a worker replaying the same placement against
#: interchangeable systems — or re-running a unit — skips the decode.
_DECODE_CACHE = ResidentLRU(16)


def _geometry_doc(memsys: MemorySystem, bases) -> list:
    """Everything besides (groups, gaddrs, kind) the decode depends on."""
    doc = [list(int(b) for b in bases)]
    for g in memsys.groups:
        amap = g.addrmap
        mod = g.modules[0]
        doc.append([amap.n_channels, bool(amap._pow2), int(amap._k),
                    int(mod._col_bits), int(mod._sub_mask),
                    int(mod._sub_bits), int(mod._bank_mask),
                    int(mod._bank_bits), int(g.timing.n_banks),
                    int(g.timing.n_rows), int(g.timing.n_subchannels)])
    return doc


def _decode(memsys: MemorySystem, groups: np.ndarray, gaddrs: np.ndarray,
            kind: np.ndarray) -> tuple:
    """Vectorized routing/decode; pure in its arguments (memoized).

    Mirrors ``GroupAddressMap.route`` and ``MemoryModule.decode``.
    Returns the columns (ctrl, bank, sub, row, klass, write, gaddr,
    demand); ``bank`` and ``sub`` index :class:`DeviceState` rows.
    """
    _, bases, bank0, sub0 = _layout(memsys)
    bank0 = np.asarray(bank0, dtype=np.int64)
    sub0 = np.asarray(sub0, dtype=np.int64)
    n = len(gaddrs)
    ctrl = np.zeros(n, dtype=np.int64)
    bank = np.zeros(n, dtype=np.int64)
    sub = np.zeros(n, dtype=np.int64)
    row = np.zeros(n, dtype=np.int64)
    for gi, g in enumerate(memsys.groups):
        sel = np.flatnonzero(groups == gi)
        if not len(sel):
            continue
        ga = gaddrs[sel]
        line = ga >> LINE_BITS
        offset = ga & (LINE_BYTES - 1)
        amap = g.addrmap
        nch = amap.n_channels
        if amap._pow2 and nch > 1:
            upper = line >> amap._k
            ch = (line & (nch - 1)) ^ ((upper ^ (upper >> 3)
                                        ^ (upper >> 6)) & (nch - 1))
            local = (upper << LINE_BITS) | offset
        else:
            ch = line % nch
            local = ((line // nch) << LINE_BITS) | offset
        mod = g.modules[0]
        dline = local >> mod._col_bits
        sb = dline & mod._sub_mask
        dline2 = dline >> mod._sub_bits
        bk = dline2 & mod._bank_mask
        c = bases[gi] + ch
        ctrl[sel] = c
        sub[sel] = sub0[c] + sb
        bank[sel] = bank0[c] + sb * g.timing.n_banks + bk
        row[sel] = (dline2 >> mod._bank_bits) % g.timing.n_rows
    demand = kind <= KIND_STORE
    write = (kind == KIND_STORE) | (kind == KIND_WRITEBACK)
    # FR-FCFS criticality: demand read 0, demand write 1, background 2.
    klass = np.where(demand, np.where(write, 1, 0), 2).astype(np.int64)
    return (ctrl, bank, sub, row, klass, write.astype(np.int64),
            gaddrs.copy(), demand)


class ReplayTables:
    """One core's compiled replay against one memory system.

    Built lazily by :class:`~repro.cpu.core.InOrderWindowCore` on its
    first episode (the memory system is not known at construction).
    Holds the decoded columns, the core's episode segmentation, the
    per-record outputs and the kernel context; :meth:`run` replays a
    range of episodes, :meth:`finish` flushes statistics and hands the
    device state back to the Python objects.
    """

    def __init__(self, memsys: MemorySystem, groups: np.ndarray,
                 gaddrs: np.ndarray, kind: np.ndarray, *, off: np.ndarray,
                 ep_start: np.ndarray, headgap: np.ndarray, cycle: int,
                 backlog: int):
        self.memsys = memsys
        self._groups = np.asarray(groups, dtype=np.int64)
        gaddrs = np.ascontiguousarray(gaddrs, dtype=np.int64)
        kind = np.asarray(kind, dtype=np.int64)
        bases = memsys.controller_layout()[1]
        digest = content_digest(self._groups, gaddrs, kind,
                                extra=_geometry_doc(memsys, bases))
        cols = _DECODE_CACHE.get(digest)
        if cols is None:
            cols = _decode(memsys, self._groups, gaddrs, kind)
            _DECODE_CACHE.put(digest, cols)
        else:
            OBS.add("replay.decode_reuse")
            OBS.add("data_plane.copies_avoided")
        (self.ctrl, bank, sub, row, self.klass, self.write, gaddr,
         self.demand) = cols
        self.dev = _acquire(memsys)
        n = len(gaddrs)
        self.ep_start = ep_start
        self.ep_issue0 = np.zeros(len(headgap), dtype=np.int64)
        self.ch_step = np.full(len(self.dev.controllers), -1, dtype=np.int64)
        self.done = np.zeros(n, dtype=np.int64)
        self.queue = np.zeros(n, dtype=np.int64)
        self.service = np.zeros(n, dtype=np.int64)
        self.hit = np.zeros(n, dtype=np.int64)
        self.bb = np.zeros(n, dtype=np.int64)
        longest = int(np.diff(ep_start).max())
        arrays = dict(
            ctrl=self.dev.ctrl, bank=self.dev.bank, sub=self.dev.sub,
            r_ctrl=self.ctrl, r_bank=bank, r_sub=sub, r_row=row,
            r_klass=self.klass, r_write=self.write, r_gaddr=gaddr,
            r_off=off, ep_start=ep_start, headgap=headgap,
            ep_issue0=self.ep_issue0, ch_step=self.ch_step,
            clock=self.dev.clock, done=self.done, queue=self.queue,
            service=self.service, hit=self.hit, bb=self.bb,
            scratch=np.zeros(3 * longest, dtype=np.int64))
        ctx = _Ctx(cycle=cycle, backlog=backlog)
        for name, arr in arrays.items():
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise TypeError(f"replay column {name} must be contiguous "
                                f"int64, got {arr.dtype}")
            setattr(ctx, name, arr.ctypes.data)
        self._arrays = arrays  # the context points into them
        self._ctx = ctx
        self._run = replay_kernel().run
        self._ptr = ctypes.addressof(ctx)

    @property
    def cycle(self) -> int:
        """The core's cycle after the last episode replayed."""
        return self._ctx.cycle

    def run(self, k0: int, k1: int) -> int:
        """Replay episodes ``[k0, k1)``; returns the core's new cycle."""
        return self._run(self._ptr, k0, k1)

    # ---- end of replay ----------------------------------------------------------

    def finish(self) -> None:
        """Flush deferred statistics and release the device state.

        Called once, at end of replay.  The last core to finish on a
        system writes the packed device state back, so ``BankState``,
        bus and refresh fields are exact whenever no kernel replay is in
        flight.
        """
        self.flush_stats()
        dev = self.dev
        dev.active -= 1
        if dev.active == 0:
            dev.store()
            _DEVICES.pop(self.memsys, None)

    def flush_stats(self) -> None:
        """Fold the per-record outputs into module/controller counters.

        Exact integer aggregation throughout (int64 sums, no float
        weights).  Assumes device timing did not change mid-replay
        (fault derating happens before replay starts).
        """
        done, queue, service = self.done, self.queue, self.service
        hit, bb, ctrl = self.hit, self.bb, self.ctrl
        write, demand = self.write, self.demand
        obs = OBS.enabled
        for ci, c in enumerate(self.dev.controllers):
            sel = np.flatnonzero(ctrl == ci)
            cnt = len(sel)
            if not cnt:
                continue
            m = c.module
            n_writes = int(write[sel].sum())
            n_hits = int(hit[sel].sum())
            queue_sum = int(queue[sel].sum())
            m.n_accesses += cnt
            m.n_row_hits += n_hits
            m.n_writes += n_writes
            m.n_reads += cnt - n_writes
            m.bus_busy_cycles += m.timing.transfer_cycles(c.line_bytes) * cnt
            m.bank_busy_cycles += int(bb[sel].sum())
            m.bytes_transferred += c.line_bytes * cnt
            done_max = int(done[sel].max())
            if done_max > m.last_done_cycle:
                m.last_done_cycle = done_max
            c.n_served += cnt
            c.total_queue_cycles += queue_sum
            c.total_service_cycles += int(service[sel].sum())
            dsel = sel[demand[sel]]
            if len(dsel):
                c.latency_hist.record_many(queue[dsel] + service[dsel])
            if obs:
                name = m.name
                OBS.add(f"mem.{name}.requests", cnt)
                OBS.add(f"mem.{name}.row_hits", n_hits)
                OBS.add(f"mem.{name}.queue_cycles", queue_sum)
                # The gauge holds the channel's last batch: this core's
                # last episode on it, unless another core on the system
                # served the channel at a later global step.
                step = int(self.ch_step[ci])
                if step > self.dev.gauge_step[ci]:
                    self.dev.gauge_step[ci] = step
                    ep = np.searchsorted(self.ep_start, sel[-1],
                                         side="right") - 1
                    lo, hi = self.ep_start[ep], self.ep_start[ep + 1]
                    OBS.gauge(f"mem.{name}.queue_occupancy",
                              int((ctrl[lo:hi] == ci).sum()))
        if obs:
            OBS.add("memsys.batches", len(self.ep_issue0))
            OBS.add("memsys.requests", len(done))
            names = self.memsys.group_names
            counts = np.bincount(self._groups, minlength=len(names))
            for g, cnt in enumerate(counts.tolist()):
                if cnt:
                    OBS.add(f"memsys.group.{names[g]}.requests", cnt)


def interleave(tables: list[ReplayTables], ep: list[int],
               nep: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Replay several cores' episodes in global issue order, in one call.

    ``tables[i]`` is core ``i``'s compiled replay (all on one memory
    system), at episode ``ep[i]`` of ``nep[i]``.  Each step runs the
    next episode of the unfinished core that issues earliest, ties to
    the lowest index.  Returns ``(order, finished)``: the core index of
    every step and the cores in the order they finished.
    """
    n = len(tables)
    ptrs = (ctypes.c_void_p * n)(*[tb._ptr for tb in tables])
    ep = np.array(ep, dtype=np.int64)
    nep = np.array(nep, dtype=np.int64)
    todo = np.maximum(nep - ep, 0)
    order = np.empty(int(todo.sum()), dtype=np.int64)
    finished = np.empty(int((todo > 0).sum()), dtype=np.int64)
    replay_kernel().interleave(ptrs, n, ep.ctypes.data, nep.ctypes.data,
                               order.ctypes.data, finished.ctypes.data)
    return order, finished
