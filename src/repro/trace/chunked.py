"""Chunked traces: mmap-native column shards in a content-addressed store.

A monolithic :class:`~repro.trace.events.AccessTrace` holds five full-
length columns in memory — fine at the default fidelity, hostile at
tens of millions of accesses or when importing real captured traces.
:class:`ChunkedTrace` stores the same five columns as fixed-size
shards on disk and replays them window by window, so both trace
*generation* (shard-by-shard from ``TraceBuilder.iter_blocks``) and
cache *filtering*
(:meth:`~repro.cpu.hierarchy.CacheHierarchy.filter_chunked`) run in
bounded RSS while producing byte-identical results to the monolithic
path (pinned by ``tests/test_trace_chunked.py``).

A chunked trace is one :class:`~repro.util.store.ColumnStore` entry
(the :mod:`repro.sim.stream_store` economy applied one stage earlier
in the pipeline), its columns named per shard::

    <store>/<digest>/shard-00000.inst.npy   # one file per column
    <store>/<digest>/shard-00000.vaddr.npy  # ... is_write/obj_id/dep
    <store>/<digest>/shard-00001.inst.npy
    <store>/<digest>/meta.json              # shard rows, layout

The resharder streams shards into the entry's temp directory and the
meta follows once the last shard is known.  A window maps its shard
lazily off the page cache, so concurrent readers of one entry share
physical pages.  A shard that fails to load drops the whole entry
through the shared corrupt path and raises :class:`CorruptTraceError`
— callers rebuild and retry
(:func:`repro.sim.single.filtered_stream_chunked` does exactly that).

Module-level wiring: an explicit :func:`configure` call, else
``REPRO_TRACE_STORE_DIR``, else ``<REPRO_CACHE_DIR>/traces``, else a
process-lifetime temporary directory (chunked traces must live
*somewhere* on disk — that is the point).
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.trace.events import AccessTrace, VirtualLayout
from repro.trace.io import COLUMN_DTYPES, layout_from_doc, layout_to_doc
from repro.util.rng import ROOT_SEED
from repro.util.store import (
    READ_ERRORS,
    ColumnStore,
    EntryWriter,
    drop_corrupt,
    key_digest,
    load_columns,
)

__all__ = [
    "ENV_DIR",
    "TRACE_STORE_VERSION",
    "ChunkedTrace",
    "CorruptTraceError",
    "TraceStore",
    "active",
    "build_chunked",
    "chunk_trace",
    "configure",
    "reset",
    "trace_key",
]

#: On-disk entry format; entries from other versions are dropped.
TRACE_STORE_VERSION = 3

#: Environment selection (inherited by sweep worker processes).
ENV_DIR = "REPRO_TRACE_STORE_DIR"


class CorruptTraceError(RuntimeError):
    """A shard failed to load; the store entry has been deleted.

    Rebuilding the entry (same key) and retrying recovers — the
    chunked drivers in ``repro.sim.single`` do this automatically.
    """


def trace_key(app_name: str, input_name: str, n_accesses: int,
              chunk_accesses: int) -> dict:
    """Canonical key document for one synthetic chunked trace.

    ``chunk_accesses`` is part of the key: shard *content* is identical
    across shard sizes, but the files are laid out differently, so two
    sizes cannot share an entry.
    """
    return {
        "schema": "chunked-trace",
        "app": app_name,
        "input": input_name,
        "n_accesses": int(n_accesses),
        "chunk_accesses": int(chunk_accesses),
        "seed": ROOT_SEED,
    }


def _shard(i: int) -> str:
    return f"shard-{i:05d}."


class ChunkedTrace:
    """A trace stored as fixed-size column shards in one entry.

    Construct via :meth:`TraceStore.get`, :func:`build_chunked`, or
    :func:`chunk_trace` — the constructor trusts its manifest.  The
    layout (and with it ``resolve``/placement) is rebuilt from the
    manifest, so no monolithic columns are ever needed.
    """

    def __init__(self, directory: str | Path, manifest: dict):
        self.directory = Path(directory)
        self.n_accesses = int(manifest["n_accesses"])
        self.chunk_accesses = int(manifest["chunk_accesses"])
        self.total_instructions = int(manifest["total_instructions"])
        self.shard_rows = [int(r) for r in manifest["shard_rows"]]
        if sum(self.shard_rows) != self.n_accesses:
            raise ValueError(
                f"shard rows sum to {sum(self.shard_rows)}, manifest "
                f"says {self.n_accesses} accesses")
        self.layout = layout_from_doc(manifest["layout"])

    def __len__(self) -> int:
        return self.n_accesses

    @property
    def n_shards(self) -> int:
        return len(self.shard_rows)

    def column_path(self, i: int, name: str) -> Path:
        return self.directory / f"{_shard(i)}{name}.npy"

    def windows(self):
        """Yield one :class:`AccessTrace` window per shard, in order.

        Windows share this trace's layout; ``inst`` carries *global*
        cumulative instruction counts, so windowed consumers see the
        exact rows a monolithic build would hold.  A shard that fails
        to load deletes the entry and raises
        :class:`CorruptTraceError` (rebuild + retry to recover).
        """
        for i in range(self.n_shards):
            try:
                cols = load_columns(self.directory, COLUMN_DTYPES,
                                    prefix=_shard(i),
                                    rows=self.shard_rows[i])
            except READ_ERRORS as exc:
                drop_corrupt(self.directory, exc, label="trace store",
                             obs="trace_store")
                raise CorruptTraceError(
                    f"{self.directory}: shard {i}") from exc
            yield AccessTrace(layout=self.layout,
                              total_instructions=self.total_instructions,
                              **cols)

    def materialize(self) -> AccessTrace:
        """Concatenate every shard into one monolithic trace.

        For tests and small traces only — this is exactly the RSS cost
        chunking exists to avoid.
        """
        windows = list(self.windows())
        return AccessTrace(
            inst=np.concatenate([w.inst for w in windows]),
            vaddr=np.concatenate([w.vaddr for w in windows]),
            is_write=np.concatenate([w.is_write for w in windows]),
            obj_id=np.concatenate([w.obj_id for w in windows]),
            dep=np.concatenate([w.dep for w in windows]),
            layout=self.layout,
            total_instructions=self.total_instructions,
        )


# ---- writing ----------------------------------------------------------------


class _Resharder:
    """Accumulate variable-size column blocks, emit fixed-size shards."""

    def __init__(self, writer: EntryWriter, chunk_accesses: int):
        self.writer = writer
        self.chunk = chunk_accesses
        self.bufs: dict[str, list[np.ndarray]] = \
            {name: [] for name in COLUMN_DTYPES}
        self.buffered = 0
        self.shard_rows: list[int] = []

    def push(self, cols: dict[str, np.ndarray]) -> None:
        n = len(cols["inst"])
        if n == 0:
            return
        for name, dtype in COLUMN_DTYPES.items():
            self.bufs[name].append(cols[name].astype(dtype, copy=False))
        self.buffered += n
        while self.buffered >= self.chunk:
            self._emit(self.chunk)

    def finish(self) -> list[int]:
        if self.buffered:
            self._emit(self.buffered)
        return self.shard_rows

    def _emit(self, rows: int) -> None:
        prefix = _shard(len(self.shard_rows))
        for name in COLUMN_DTYPES:
            whole = np.concatenate(self.bufs[name])
            self.bufs[name] = [whole[rows:]] if rows < len(whole) else []
            self.writer.column(f"{prefix}{name}", whole[:rows])
        self.shard_rows.append(rows)
        self.buffered -= rows


def _write_entry(directory: str | Path, chunk_accesses: int,
                 layout: VirtualLayout, total_instructions,
                 fill, key: dict | None) -> ChunkedTrace:
    """Build one entry at ``directory``; ``fill(resharder)`` streams rows.

    ``total_instructions`` may be a zero-arg callable, evaluated after
    ``fill`` ran — generation only knows the final instruction count
    once the last block has streamed through.
    """
    if chunk_accesses <= 0:
        raise ValueError(
            f"chunk_accesses must be positive, got {chunk_accesses}")
    with EntryWriter(directory) as writer:
        sharder = _Resharder(writer, chunk_accesses)
        fill(sharder)
        shard_rows = sharder.finish()
        if callable(total_instructions):
            total_instructions = total_instructions()
        manifest = {
            "key": key,
            "n_accesses": sum(shard_rows),
            "chunk_accesses": int(chunk_accesses),
            "shard_rows": shard_rows,
            "total_instructions": int(total_instructions),
            "layout": layout_to_doc(layout),
        }
        path = writer.publish(manifest, version=TRACE_STORE_VERSION)
    return ChunkedTrace(path, manifest)


def build_chunked(builder, n_accesses: int, rng: np.random.Generator,
                  directory: str | Path, *, chunk_accesses: int,
                  layout: VirtualLayout | None = None,
                  fast_path: bool | None = None,
                  key: dict | None = None) -> ChunkedTrace:
    """Generate a chunked trace shard-by-shard from a ``TraceBuilder``.

    Streams ``builder.iter_blocks`` (kernel or reference engine per
    ``fast_path``) through a resharding accumulator, threading the
    cumulative instruction counter across blocks, so peak RSS is one
    shard plus one generator block — never the whole trace.  Content
    and the caller's final ``rng`` state are byte-identical to
    ``builder.build`` with the same arguments.
    """
    layout = layout if layout is not None else VirtualLayout()
    default_gap = max(1.0, 1000.0 / builder.mem_per_ki)
    carry = {"inst": 0}

    def fill(sharder: _Resharder) -> None:
        for vaddr, is_write, dep, obj_id, gaps in builder.iter_blocks(
                n_accesses, rng, layout=layout, fast_path=fast_path):
            inst = np.cumsum(gaps) + carry["inst"]
            carry["inst"] = int(inst[-1])
            sharder.push({"inst": inst, "vaddr": vaddr, "is_write": is_write,
                          "obj_id": obj_id, "dep": dep})

    return _write_entry(directory, chunk_accesses, layout,
                        lambda: carry["inst"] + round(default_gap),
                        fill, key)


def chunk_trace(trace: AccessTrace, directory: str | Path, *,
                chunk_accesses: int, key: dict | None = None) -> ChunkedTrace:
    """Reshard an in-memory trace into a chunked store entry.

    The import path for external traces: :func:`repro.trace.io
    .import_trace` loads a captured ``*.trace.npz`` and hands it here.
    """
    def fill(sharder: _Resharder) -> None:
        n = len(trace)
        for s in range(0, n, chunk_accesses):
            e = min(s + chunk_accesses, n)
            sharder.push({"inst": trace.inst[s:e],
                          "vaddr": trace.vaddr[s:e],
                          "is_write": trace.is_write[s:e],
                          "obj_id": trace.obj_id[s:e],
                          "dep": trace.dep[s:e]})

    return _write_entry(directory, chunk_accesses, trace.layout,
                        trace.total_instructions, fill, key)


# ---- the store --------------------------------------------------------------


class TraceStore(ColumnStore):
    """Content-addressed ``trace_key -> ChunkedTrace`` store."""

    version = TRACE_STORE_VERSION
    obs = "trace_store"
    label = "trace store"

    def __init__(self, directory: str | Path):
        super().__init__(directory)

    def get(self, key: dict) -> ChunkedTrace | None:
        """Stored trace for ``key``, or ``None`` (= build it)."""
        return self.read(key_digest(key), ChunkedTrace)

    def build(self, key: dict, builder, n_accesses: int,
              rng: np.random.Generator, *,
              fast_path: bool | None = None) -> ChunkedTrace:
        """Build (and publish) the entry for a synthetic-trace key."""
        trace = build_chunked(builder, n_accesses, rng,
                              self.entry_path(key_digest(key)),
                              chunk_accesses=key["chunk_accesses"],
                              fast_path=fast_path, key=key)
        self.stored(trace.directory)
        return trace


# ---- module-level wiring ---------------------------------------------------

_UNSET = object()
_override: object = _UNSET
_env_store: TraceStore | None = None
_tmp_store: TraceStore | None = None


def configure(directory: str | Path | None) -> TraceStore | None:
    """Select the process-wide trace store.

    ``directory=None`` drops the explicit choice — the environment (or
    the temp-dir fallback) decides again.  Unlike the stream store, a
    chunked trace cannot be "disabled": the shards must live somewhere.
    """
    global _override
    _override = None if directory is None else TraceStore(directory)
    return _override  # type: ignore[return-value]


def reset() -> None:
    """Drop explicit configuration; the environment decides again."""
    global _override, _env_store
    _override = _UNSET
    _env_store = None


def active() -> TraceStore:
    """The store chunked builds land in (never ``None``).

    Precedence: explicit :func:`configure` call, else
    ``REPRO_TRACE_STORE_DIR``, else ``<REPRO_CACHE_DIR>/traces``, else
    a process-lifetime temporary directory (removed at exit).
    """
    global _env_store, _tmp_store
    if _override is not _UNSET and _override is not None:
        return _override  # type: ignore[return-value]
    env = os.environ.get(ENV_DIR)
    if env:
        directory = Path(env)
    else:
        base = os.environ.get("REPRO_CACHE_DIR")
        if base:
            directory = Path(base) / "traces"
        else:
            if _tmp_store is None:
                tmp = tempfile.mkdtemp(prefix="repro-traces-")
                atexit.register(shutil.rmtree, tmp, ignore_errors=True)
                _tmp_store = TraceStore(tmp)
            return _tmp_store
    if _env_store is None or _env_store.directory != directory:
        _env_store = TraceStore(directory)
    return _env_store
