"""One content-addressed column store under every persistent cache.

Four places persist derived data between runs: the result cache
(:mod:`repro.experiments.cache`), the miss-stream store
(:mod:`repro.sim.stream_store`), the chunked-trace store
(:mod:`repro.trace.chunked`) and frozen trace directories
(:mod:`repro.trace.io`).  They share the entry layout and the protocol
implemented here, once.

Entry layout — a directory holding a JSON meta plus named raw ``.npy``
columns::

    <root>/<64-hex digest>/meta.json     # written last
    <root>/<64-hex digest>/<column>.npy  # np.save: 64-byte aligned data

An entry is built in the dot-named temp directory
``<root>/.<digest>.<pid>.tmp/`` and published with one ``os.rename``,
so a reader sees a whole entry or none, and a writer that streams data
(the chunked resharder) can fill columns before its meta is known.
Readers map columns with ``np.load(mmap_mode="r")``; POSIX keeps a
mapping valid after its file is unlinked, so a reader's arrays survive
eviction and overwrite of their entry.

Protocol (:class:`ColumnStore`):

* keys are the SHA-256 of a canonical JSON document (:func:`key_digest`);
* no ``meta.json`` reads as a miss; a meta from another format version
  is *stale* and dropped silently; an unreadable meta or column, or a
  column of the wrong dtype or length, is *corrupt*: warn, drop the
  whole entry, count it, read as a miss;
* ``refresh`` bypasses reads while writes still publish;
* a :class:`~repro.util.resident.ResidentLRU` keyed by the meta file's
  stat signature serves repeated hits without re-reading, and a
  rewritten entry never matches an old signature;
* eviction drops whole entries oldest-first.  It only ever looks at
  published 64-hex entry directories, so temp directories and the
  ``streams/``/``traces/`` stores nested under a result-cache root are
  never counted or evicted.  An entry is dropped by renaming it to a
  dot-named temp name before deleting it, so two evictors racing for
  one victim count it once.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.obs.registry import OBS
from repro.util.resident import ResidentLRU

__all__ = [
    "META_NAME",
    "READ_ERRORS",
    "ColumnStore",
    "EntryWriter",
    "StaleEntry",
    "StoreStats",
    "drop",
    "drop_corrupt",
    "key_digest",
    "load_columns",
    "read_meta",
]

#: The meta file; its presence inside a published directory marks a
#: complete entry.
META_NAME = "meta.json"

_ENTRY_NAME = re.compile(r"[0-9a-f]{64}")

#: What a damaged entry raises while being read or decoded.
READ_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OSError,
               EOFError)


def key_digest(key: dict) -> str:
    """SHA-256 of the canonical JSON serialization of ``key``."""
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class StoreStats:
    """Per-store tallies; ``hit_ratio`` feeds the sweep manifest."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0

    @property
    def hit_ratio(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "evicted": self.evicted,
            "hit_ratio": round(self.hit_ratio, 6),
        }


class StaleEntry(ValueError):
    """The entry was written in another format version."""


def _temp_name(path: Path, tag: str = "") -> Path:
    return path.parent / f".{path.name}.{os.getpid()}{tag}.tmp"


def drop(entry: str | Path) -> bool:
    """Remove one entry directory; ``False`` if it was already gone.

    The rename to a temp name is the atomic step: a concurrent reader
    sees the whole entry or none, and of two droppers only one wins.
    """
    entry = Path(entry)
    trash = _temp_name(entry, ".old")
    shutil.rmtree(trash, ignore_errors=True)
    try:
        os.rename(entry, trash)
    except OSError:
        return False
    shutil.rmtree(trash, ignore_errors=True)
    return True


def drop_corrupt(entry: str | Path, exc: BaseException, *, label: str,
                 obs: str) -> None:
    """The corrupt path of every reader: warn, count, drop the entry."""
    OBS.warn(f"{label}: corrupt entry {Path(entry).name} "
             f"({type(exc).__name__}: {exc}); dropped, recomputing")
    OBS.add(f"{obs}.corrupt")
    drop(entry)


class EntryWriter:
    """Build one entry beside ``path``; :meth:`publish` moves it there.

    Columns land in the dot-named temp directory as they are written.
    Publishing writes the meta, then renames the directory into place,
    replacing any entry already at ``path``.  Leaving the ``with``
    block unpublished discards the temp directory.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.tmp = _temp_name(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir()

    def __enter__(self) -> "EntryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def column(self, name: str, values: np.ndarray) -> None:
        np.save(self.tmp / f"{name}.npy", np.ascontiguousarray(values))

    def publish(self, meta: dict, *, version: int) -> Path:
        from repro import __version__

        doc = {"version": version, "repro_version": __version__, **meta}
        (self.tmp / META_NAME).write_text(json.dumps(doc))
        try:
            os.rename(self.tmp, self.path)
        except OSError:
            drop(self.path)
            try:
                os.rename(self.tmp, self.path)
            except OSError:
                # A concurrent writer published in between.  Entries
                # are content-addressed, so theirs serves as well.
                if not (self.path / META_NAME).exists():
                    raise
        return self.path


def read_meta(entry: str | Path, version: int) -> dict:
    """The entry's meta; :class:`StaleEntry` if another version wrote it."""
    meta = json.loads((Path(entry) / META_NAME).read_text())
    if meta.get("version") != version:
        raise StaleEntry(f"unsupported format version "
                         f"{meta.get('version')!r} (want {version})")
    return meta


def load_columns(entry: str | Path, dtypes: dict[str, Any], *,
                 prefix: str = "", rows: int | None = None
                 ) -> dict[str, np.ndarray]:
    """Map ``<prefix><name>.npy`` per column read-only, checked.

    Every column must have its dtype and be 1-D with ``rows`` rows
    (default: as many as the first column).  Raises ``ValueError``
    naming the first column that does not.
    """
    cols = {}
    for name, dtype in dtypes.items():
        arr = np.load(Path(entry) / f"{prefix}{name}.npy", mmap_mode="r")
        if rows is None:
            rows = len(arr)
        if arr.dtype != dtype or arr.shape != (rows,):
            raise ValueError(
                f"column {prefix + name!r} has shape {arr.shape} dtype "
                f"{arr.dtype} (want ({rows},) {np.dtype(dtype)})")
        cols[name] = arr
    OBS.add("data_plane.copies_avoided")
    OBS.add("data_plane.bytes_mapped", sum(a.nbytes for a in cols.values()))
    return cols


def _signature(meta_path: Path) -> tuple | None:
    try:
        st = meta_path.stat()
    except OSError:
        return None
    return (str(meta_path), st.st_ino, st.st_mtime_ns, st.st_size)


class ColumnStore:
    """A directory of content-addressed entries under the shared protocol.

    Typed stores subclass it as codecs: they set the class attributes
    and define their own ``get``/``put`` over :meth:`read` and
    :meth:`write`.

    Args:
        directory: Store root; created lazily on the first write.
        refresh: When true, reads always miss (forcing a recompute)
            while writes still publish — the ``--refresh`` semantics.
        max_entries: Evict the oldest entries past this count after
            each write (``None`` = unbounded).
    """

    #: Format version written into, and required of, every entry.
    version: int
    #: OBS counter prefix (``<obs>.hit``, ``<obs>.miss``, ...).
    obs: str
    #: Names the store in warnings.
    label: str
    #: Process-level decoded values, keyed by meta stat signature.
    resident: ResidentLRU | None = None

    def __init__(self, directory: str | Path, *, refresh: bool = False,
                 max_entries: int | None = None):
        self.directory = Path(directory)
        self.refresh = refresh
        self.max_entries = max_entries
        self.stats = StoreStats()
        if refresh and self.resident is not None:
            # --refresh distrusts everything cached, including what
            # this process already decoded.
            self.resident.clear()

    def entry_path(self, digest: str) -> Path:
        return self.directory / digest

    # ---- read --------------------------------------------------------------

    def read(self, digest: str, decode: Callable[[Path, dict], Any]) -> Any:
        """``decode(entry, meta)`` of the entry, or ``None`` on a miss.

        Anything ``decode`` raises from :data:`READ_ERRORS` marks the
        entry corrupt — unless the meta changed meanwhile (a concurrent
        overwrite or eviction), which reads as a plain miss.
        """
        if self.refresh:
            return self._miss("refresh_bypass")
        entry = self.entry_path(digest)
        sig = _signature(entry / META_NAME)
        if sig is None:
            return self._miss()
        if self.resident is not None:
            value = self.resident.get(sig)
            if value is not None:
                OBS.add(f"{self.obs}.resident_hit")
                OBS.add("data_plane.copies_avoided")
                return self._hit(value)
        try:
            value = decode(entry, read_meta(entry, self.version))
        except StaleEntry:
            drop(entry)
            OBS.add(f"{self.obs}.stale")
            return self._miss()
        except READ_ERRORS as exc:
            if _signature(entry / META_NAME) == sig:
                self.stats.corrupt += 1
                drop_corrupt(entry, exc, label=self.label, obs=self.obs)
            return self._miss()
        if self.resident is not None:
            self.resident.put(sig, value)
        return self._hit(value)

    def _hit(self, value: Any) -> Any:
        self.stats.hits += 1
        OBS.add(f"{self.obs}.hit")
        return value

    def _miss(self, counter: str = "miss") -> None:
        self.stats.misses += 1
        OBS.add(f"{self.obs}.{counter}")
        return None

    # ---- write -------------------------------------------------------------

    def write(self, digest: str, meta: dict,
              columns: dict[str, np.ndarray] | None = None, *,
              resident: Any = None) -> Path:
        """Publish one entry; returns its directory.

        ``resident`` seeds the resident map with the value a later
        :meth:`read` of this entry would decode.
        """
        with EntryWriter(self.entry_path(digest)) as writer:
            for name, values in (columns or {}).items():
                writer.column(name, values)
            return self.stored(writer.publish(meta, version=self.version),
                               resident=resident)

    def stored(self, entry: Path, *, resident: Any = None) -> Path:
        """Account for an entry published at ``entry``, then evict."""
        if resident is not None and self.resident is not None:
            sig = _signature(entry / META_NAME)
            if sig is not None:
                self.resident.put(sig, resident)
        self.stats.stores += 1
        OBS.add(f"{self.obs}.store")
        if self.max_entries is not None:
            self.evict_over(self.max_entries)
        return entry

    # ---- eviction ----------------------------------------------------------

    def entries(self) -> list[Path]:
        """Published entry directories (temp dirs and sub-stores excluded)."""
        try:
            return [p for p in self.directory.iterdir()
                    if _ENTRY_NAME.fullmatch(p.name)]
        except OSError:
            return []

    def evict_over(self, limit: int) -> None:
        """Drop the oldest entries (by directory mtime) past ``limit``."""

        def age(entry: Path) -> float:
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0

        entries = sorted(self.entries(), key=age)
        for victim in entries[:max(0, len(entries) - limit)]:
            if drop(victim):
                self.stats.evicted += 1
                OBS.add(f"{self.obs}.evict")

    def __len__(self) -> int:
        return len(self.entries())
