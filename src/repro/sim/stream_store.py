"""Persistent content-addressed store for filtered miss streams.

Cache filtering is the sweep front end: every worker process needs the
``(MissStream, CacheStats)`` of each ``(app, input, n_accesses)`` it
replays, and the in-process ``lru_cache`` on
:func:`repro.sim.single.filtered_stream` cannot cross the
``ProcessPoolExecutor`` boundary.  This store persists filtered results
on disk so each trace is filtered once per *machine* instead of once
per process, the same profile-once/reuse-everywhere economy MOCA's
offline profiling pass is built around.

An entry is a :class:`~repro.util.store.ColumnStore` entry: the five
stream columns as raw ``.npy`` files plus the ``CacheStats`` in the
meta.  A hit maps the columns with ``np.load(mmap_mode="r")``, so a
stream maps once per machine and workers across processes share its
physical pages through the OS page cache; a process-level resident map
keeps recent decodes, so repeated gets within one worker return the
same objects without touching the disk.

The key covers everything that determines the stream: application,
input, trace length, the full hierarchy geometry (sizes, ways, line
size), the warmup fraction, and the trace RNG root.  The filter
*engine* is deliberately not part of the key — kernel and reference
produce byte-identical streams (``tests/test_filter_parity.py``), so
entries written by either are interchangeable.

Publishing, corrupt/stale handling, ``refresh`` and eviction are the
shared store protocol.  Module-level wiring follows the result-cache
precedence: an explicit :func:`configure` call, else
``REPRO_STREAM_STORE_DIR`` (empty string = explicitly disabled), else
``<REPRO_CACHE_DIR>/streams``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.cpu.hierarchy import CacheHierarchy, CacheStats, MissStream
from repro.util.resident import ResidentLRU
from repro.util.rng import ROOT_SEED
from repro.util.store import ColumnStore, key_digest, load_columns

__all__ = [
    "ENV_DIR",
    "ENV_REFRESH",
    "STREAM_STORE_VERSION",
    "StreamStore",
    "active",
    "configure",
    "filter_key",
    "reset",
    "stats_dict",
]

#: On-disk entry format; entries from other versions are ignored.
STREAM_STORE_VERSION = 3

#: Environment selection (inherited by sweep worker processes).
ENV_DIR = "REPRO_STREAM_STORE_DIR"
ENV_REFRESH = "REPRO_STREAM_REFRESH"

_COLUMNS = {"inst": np.int64, "vline": np.int64, "obj_id": np.int32,
            "dep": np.bool_, "kind": np.int8}

_STAT_FIELDS = ("total_instructions", "l1_hits", "l1_misses", "l2_hits",
                "l2_misses", "n_writebacks")


def filter_key(app_name: str, input_name: str, n_accesses: int, *,
               hierarchy: CacheHierarchy | None = None,
               warmup_frac: float = 0.2) -> dict:
    """Canonical key document for one filtered stream.

    ``hierarchy=None`` keys the stock geometry (the one
    ``filtered_stream`` builds); passing a hierarchy keys its actual
    sizes so experiments with non-Table-I caches never alias.
    """
    h = hierarchy if hierarchy is not None else CacheHierarchy()
    return {
        "schema": "miss-stream",
        "app": app_name,
        "input": input_name,
        "n_accesses": int(n_accesses),
        "l1_size": h.l1.size_bytes,
        "l1_assoc": h.l1.assoc,
        "l2_size": h.l2.size_bytes,
        "l2_assoc": h.l2.assoc,
        "line_bytes": h.line_bytes,
        "warmup_frac": warmup_frac,
        "seed": ROOT_SEED,
    }


def _decode(entry: Path, meta: dict) -> tuple[MissStream, CacheStats]:
    cols = load_columns(entry, _COLUMNS)
    stats_doc = meta["stats"]
    stream = MissStream(**cols,
                        total_instructions=int(meta["total_instructions"]))
    stats = CacheStats(
        **{name: int(stats_doc[name]) for name in _STAT_FIELDS},
        # JSON round-trip preserves list order, so first-touch
        # iteration order survives; keys come back as ints.
        per_object={int(obj): [int(acc), int(miss)]
                    for obj, acc, miss in stats_doc["per_object"]},
    )
    return stream, stats


class StreamStore(ColumnStore):
    """Content-addressed ``filter_key -> (MissStream, CacheStats)`` store.

    ``refresh`` extends the ``--refresh`` CLI semantics to streams.
    """

    version = STREAM_STORE_VERSION
    obs = "stream_store"
    label = "stream store"
    #: Decoded entries kept resident per process; sized for a sweep
    #: worker cycling through a handful of workloads.
    resident = ResidentLRU(8)

    def get(self, key: dict) -> tuple[MissStream, CacheStats] | None:
        """Stored stream for ``key``, or ``None`` (= filter the trace).

        A hit returns *shared* read-only views: column arrays are
        ``np.load(mmap_mode="r")`` maps of the entry files (or the
        process-resident decode of a recent hit, the very same
        objects), so concurrent readers share physical pages.
        """
        return self.read(key_digest(key), _decode)

    def put(self, key: dict, stream: MissStream,
            stats: CacheStats) -> Path:
        """Store one filtered result; returns the entry directory."""
        meta = {
            "key": key,
            "total_instructions": stream.total_instructions,
            "stats": {
                **{name: getattr(stats, name) for name in _STAT_FIELDS},
                "per_object": [[obj, acc, miss] for obj, (acc, miss)
                               in stats.per_object.items()],
            },
        }
        return self.write(key_digest(key), meta,
                          {name: getattr(stream, name) for name in _COLUMNS})


# ---- module-level wiring ---------------------------------------------------

_UNSET = object()
#: Explicit configuration: a StreamStore, None (= disabled), or _UNSET
#: (= fall back to the environment).
_override: object = _UNSET
_env_store: StreamStore | None = None


def configure(directory: str | Path | None, *, refresh: bool = False,
              max_entries: int | None = None) -> StreamStore | None:
    """Select the process-wide stream store.

    ``directory=None`` disables the store entirely (the ``--no-cache``
    semantics); otherwise a fresh :class:`StreamStore` (with fresh
    stats) is installed.  Returns the active store.
    """
    global _override
    if directory is None:
        _override = None
    else:
        _override = StreamStore(directory, refresh=refresh,
                                max_entries=max_entries)
    return _override  # type: ignore[return-value]


def reset() -> None:
    """Drop explicit configuration; the environment decides again."""
    global _override, _env_store
    _override = _UNSET
    _env_store = None


def active() -> StreamStore | None:
    """The store ``filtered_stream`` will consult, or ``None``.

    Precedence: explicit :func:`configure` call, else
    ``REPRO_STREAM_STORE_DIR`` (the empty string means *explicitly
    disabled* — how a ``--no-cache`` parent shields its workers), else
    ``<REPRO_CACHE_DIR>/streams`` so one ``--cache-dir`` flag keeps
    both caches side by side.
    """
    global _env_store
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    env = os.environ.get(ENV_DIR)
    if env is not None:
        if env == "":
            return None
        directory = Path(env)
    else:
        base = os.environ.get("REPRO_CACHE_DIR")
        if not base:
            return None
        directory = Path(base) / "streams"
    refresh = os.environ.get(ENV_REFRESH) == "1"
    if (_env_store is None or _env_store.directory != directory
            or _env_store.refresh != refresh):
        _env_store = StreamStore(directory, refresh=refresh)
    return _env_store


def stats_dict() -> dict | None:
    """Manifest-ready stats of the active store (``None`` = no store)."""
    store = active()
    if store is None:
        return None
    return {"directory": str(store.directory), **store.stats.to_dict()}
