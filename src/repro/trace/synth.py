"""Compiled trace synthesis: the reference chunk loop in C over numpy's RNG.

Each ``Generator`` call of :meth:`TraceBuilder._iter_reference
<repro.trace.builder.TraceBuilder._iter_reference>` wraps a C function
that numpy also ships in ``numpy/random/lib/libnpyrandom.a``.
``synth_kernel.c`` links that archive and runs the chunk loop on the
caller's own ``bitgen_t`` under ``bit_generator.lock``, one C call per
Generator call: ``random_bounded_uint64_fill`` for ``integers``,
``random_standard_uniform_fill`` for ``random``, ``random_geometric``
per gap.  The chunk schedule (``choice`` + ``random``, re-drawn when it
runs short) is drawn here with the reference's own calls and turned into
burst lengths with numpy's ``log``.  Columns and the final RNG state
thus equal the reference's for any BitGenerator
(``tests/test_trace_parity.py``).

Each C call emits whole bursts until it has written :data:`WINDOW`
rows; cursors and the schedule position carry over, so ``iter_blocks``
stays a bounded, resumable stream for ``trace.chunked``.
:mod:`repro.util.ckernel` builds the library, tagged with numpy's
version and the archive's SHA-256; without a compiler or the archive
:func:`synth_kernel` warns once and builds run the reference loop.
"""

from __future__ import annotations

import ctypes
import math
import sysconfig
from pathlib import Path

import numpy as np

from repro.util import ckernel

__all__ = ["supported", "iter_kernel_blocks", "synth_kernel"]

SOURCE = Path(__file__).with_name("synth_kernel.c")
#: Rows per kernel call, before the burst that crosses it.
WINDOW = 1 << 16
#: Bound on sizes, strides and burst caps: keeps the kernel's int64
#: offsets clear of overflow and burst caps exact as doubles.
_LIMIT = 1 << 53

_PATTERNS = {"seq": 0, "strided": 1, "rand": 2, "chase": 2, "hotspot": 3}
_P = ctypes.c_void_p


class _Ctx(ctypes.Structure):
    """Mirror of ``synth_ctx`` in ``synth_kernel.c`` (same field order)."""

    _fields_ = [(name, _P) for name in (
        "beh", "behf", "chunk_obj", "chunk_len")] + [
        (name, ctypes.c_int64) for name in (
            "n_chunks", "ci", "total", "n_accesses", "access_bytes")] + [
        (name, _P) for name in ("dbuf", "ubuf", "hot")]


def _bind(lib):
    """``synth_fill``, typed; ``None`` for a library of an older source."""
    if lib.synth_abi() != ctypes.sizeof(_Ctx):
        return None
    fill = lib.synth_fill
    fill.argtypes = (_P, _P, ctypes.c_int64) + (_P,) * 5
    fill.restype = ctypes.c_int64
    return fill


def _npyrandom() -> Path:
    """numpy's static distribution library."""
    return Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _inputs():
    archive = _npyrandom()
    if not archive.is_file():
        raise ckernel.KernelUnavailable(f"numpy ships no {archive}")
    include = [np.get_include(), sysconfig.get_paths()["include"]]
    return (include, [archive, "-lm"],
            [np.__version__, ckernel.sha256(archive)])


_LIB = ckernel.CKernel(SOURCE, _bind, inputs=_inputs, warning=(
    "synthesis kernel unavailable ({exc}); traces use the reference "
    "chunk loop (bit-identical, slower)", "synthesis-kernel"))

#: ``None`` = not tried yet, ``False`` = unavailable, else the kernel.
_KERNEL = None


def synth_kernel():
    """The process's ``synth_fill`` entry point, or ``None`` (warned once)."""
    global _KERNEL
    if _KERNEL is None:
        _KERNEL = _LIB.try_load()
    return _KERNEL or None


def _gap_p(builder, b) -> float:
    default_gap = max(1.0, 1000.0 / builder.mem_per_ki)
    return 1.0 / (b.gap_mean if b.gap_mean is not None else default_gap)


def _probs(builder) -> tuple[np.ndarray, np.ndarray]:
    """The reference's chunk-selection probabilities, and burst means."""
    weights = np.asarray([b.weight for b in builder.behaviors], float)
    bursts = np.asarray([b.burst_mean for b in builder.behaviors], float)
    chunk_w = weights / bursts
    return chunk_w / chunk_w.sum(), bursts


def supported(builder, rng) -> bool:
    """Whether the kernel can run this build.

    Declines where the reference raises mid-build (it then raises at the
    chunk it reaches) and where sizes or burst caps reach
    :data:`_LIMIT`.  Zero-weight behaviours are never scheduled, so they
    are not checked.
    """
    if not isinstance(rng, np.random.Generator):
        return False
    ab = builder.access_bytes
    for b in builder.behaviors:
        if b.weight <= 0:
            continue
        if b.pattern == "seq" and b.size_bytes < ab:
            return False
        if b.pattern == "strided" and b.stride <= 0:
            return False
        if b.pattern == "hotspot" and not (
                0.0 < b.hot_fraction <= 1.0 and 0.0 <= b.hot_weight <= 1.0):
            return False
        if not (math.isfinite(b.burst_mean)
                and 0.0 < _gap_p(builder, b) <= 1.0):
            return False  # int(burst_mean) or geometric(p) raises
        if max(b.size_bytes, b.stride, 4 * int(b.burst_mean) + 8) >= _LIMIT:
            return False
    return True


def _rows(builder, bases, ids) -> tuple[list, list]:
    """Each behaviour's int64 and float64 rows of the kernel's tables:
    the ``B_*`` and ``F_*`` columns of ``synth_kernel.c``, in order.
    Never-scheduled behaviours may hold parameters the reference would
    reject, so they get zero rows."""
    ab = builder.access_bytes
    ints, floats = [], []
    for b, base, obj in zip(builder.behaviors, bases, ids):
        if b.weight <= 0:
            ints.append((0,) * 9)
            floats.append((0.0,) * 4)
            continue
        hot_range = (max(ab, int(b.size_bytes * b.hot_fraction)) - ab
                     if b.pattern == "hotspot" else 0)
        if b.pattern == "strided":
            step = b.stride
            span = max(b.stride, (b.size_bytes // b.stride) * b.stride)
        else:
            step, span = ab, max(1, (b.size_bytes // ab) * ab)
        dp = b.effective_dep_prob
        dep = 1 if dp >= 1.0 else 0 if dp <= 0.0 else 2
        ints.append((_PATTERNS[b.pattern], base, obj, step, span,
                     max(0, b.size_bytes - ab), hot_range, dep, 0))
        floats.append((b.hot_weight, b.write_frac, dp, _gap_p(builder, b)))
    return ints, floats


class _Synth:
    """One build: the behaviour tables, the schedule, the C context."""

    def __init__(self, builder, n_accesses, rng, bases, ids):
        self.rng, self.n_accesses = rng, n_accesses
        self.probs, bursts = _probs(builder)
        mean_burst = float(np.dot(self.probs, bursts))
        self.est_chunks = max(16, int(n_accesses / mean_burst * 1.6) + 8)
        self.p_burst = 1.0 / bursts
        self.log1mp = np.asarray([np.log(1.0 - p) if p < 1.0 else -1.0
                                  for p in self.p_burst])
        self.cap = np.asarray([4 * int(b.burst_mean) + 8 if b.weight > 0
                               else 1 for b in builder.behaviors], np.int64)
        burst_max = min(int(self.cap.max()), n_accesses)
        ints, floats = _rows(builder, bases, ids)
        cols = dict(beh=np.asarray(ints, np.int64),
                    behf=np.asarray(floats, float),
                    dbuf=np.empty(burst_max, float),
                    ubuf=np.empty(burst_max, np.uint64),
                    hot=np.empty(burst_max, np.uint8))
        self.cols = cols  # the context points into them
        self.ctx = _Ctx(n_accesses=n_accesses,
                        access_bytes=builder.access_bytes,
                        **{k: v.ctypes.data for k, v in cols.items()})
        self.rows = min(n_accesses, WINDOW + burst_max)

    def _schedule(self) -> None:
        """Draw the next chunk schedule with the reference's calls."""
        rng, E = self.rng, self.est_chunks
        obj = rng.choice(len(self.probs), size=E, p=self.probs)
        u = rng.random(E)
        # n = 1 + int(log(max(u, 1e-12)) / log(1 - p)), capped; p == 1
        # gives 1.  Capping the ratio first keeps the cast in range.
        ratio = np.log(np.maximum(u, 1e-12)) / self.log1mp[obj]
        ratio[self.p_burst[obj] >= 1.0] = 0.0
        cap = self.cap[obj]
        n = np.minimum(1 + np.minimum(ratio, cap).astype(np.int64), cap)
        self.cols["chunk_obj"] = obj = obj.astype(np.int64)
        self.cols["chunk_len"] = n
        self.ctx.chunk_obj, self.ctx.chunk_len = obj.ctypes.data, n.ctypes.data
        self.ctx.n_chunks, self.ctx.ci = E, 0

    def blocks(self, fill):
        """Yield ``(vaddr, is_write, dep, obj_id, gaps)`` column blocks."""
        ctx = self.ctx
        bitgen = self.rng.bit_generator
        lock, state = bitgen.lock, bitgen.ctypes.bit_generator
        while ctx.total < self.n_accesses:
            if ctx.ci >= ctx.n_chunks:
                self._schedule()
            cols = (np.empty(self.rows, np.int64), np.empty(self.rows, bool),
                    np.empty(self.rows, bool), np.empty(self.rows, np.int32),
                    np.empty(self.rows, np.int64))
            with lock:
                n = fill(ctypes.byref(ctx), state, WINDOW,
                         *(c.ctypes.data for c in cols))
            yield tuple(c[:n] for c in cols)


def iter_kernel_blocks(builder, n_accesses: int, rng: np.random.Generator,
                       bases, ids):
    """Stream ``(vaddr, is_write, dep, obj_id, gaps)`` blocks equal to the
    reference loop's concatenated chunks; ``rng`` advances exactly as the
    reference advances it."""
    return _Synth(builder, n_accesses, rng, bases, ids).blocks(synth_kernel())
