"""Trace persistence: save/load :class:`AccessTrace` bundles.

Synthetic traces regenerate deterministically, but persistence matters
for two real workflows: (a) importing traces captured by external tools
(Pin, DynamoRIO, gem5) after converting them to the column format, and
(b) freezing a trace for byte-identical cross-machine comparisons.

Two on-disk shapes share one API, selected by the target path:

* ``*.npz`` — the interchange format, a plain
  ``numpy.savez_compressed`` archive holding the five access columns
  plus a JSON-encoded layout, producible and consumable without this
  library.  Kept for external tooling; loading fully materializes.
* anything else — a :mod:`repro.util.store` entry at that path: one
  raw aligned ``.npy`` file per column plus ``meta.json``, built in a
  temp directory and renamed into place.  Loading maps the columns
  with ``np.load(mmap_mode="r")`` and pages lazily, so a frozen trace
  costs no RSS until touched and concurrent readers share physical
  pages.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cpu.hierarchy import SEG_CODE, SEG_GLOBAL, SEG_STACK
from repro.trace.events import (
    PAGE_BYTES,
    AccessTrace,
    PlacedObject,
    VirtualLayout,
    _page_ceil,
)
from repro.util.store import META_NAME, EntryWriter, load_columns, read_meta

#: Version embedded in the directory format's meta.
FORMAT_VERSION = 3

#: Version embedded in ``.npz`` bundles (unchanged, so archives written
#: by older releases and external converters stay readable).
NPZ_FORMAT_VERSION = 1

#: Column name → required dtype.  External producers (Pin/DynamoRIO
#: converters, other languages) routinely emit int32 counters or uint8
#: flags; columns are coerced on load so kernels can keep assuming the
#: canonical dtypes.
COLUMN_DTYPES = {
    "inst": np.int64,
    "vaddr": np.int64,
    "is_write": np.bool_,
    "obj_id": np.int32,
    "dep": np.bool_,
}


def coerce_columns(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Validate and dtype-coerce the five access columns.

    Raises ``ValueError`` naming the offending column when a column is
    missing, not 1-D, of unequal length, non-coercible (e.g. floats
    into ``inst``), or when ``inst`` is not monotonically non-decreasing
    (an unsorted instruction column silently corrupts episode
    segmentation downstream).
    """
    out: dict[str, np.ndarray] = {}
    n = None
    for name, dtype in COLUMN_DTYPES.items():
        if name not in columns:
            raise ValueError(f"trace column {name!r} is missing")
        col = np.asarray(columns[name])
        if col.ndim != 1:
            raise ValueError(
                f"trace column {name!r} must be 1-D, got shape {col.shape}")
        if n is None:
            n = len(col)
        elif len(col) != n:
            raise ValueError(
                f"trace column {name!r} has {len(col)} rows, "
                f"expected {n} (columns must be equal length)")
        if col.dtype != dtype:
            if not (np.issubdtype(col.dtype, np.integer)
                    or col.dtype == np.bool_):
                raise ValueError(
                    f"trace column {name!r} has non-integer dtype "
                    f"{col.dtype} (cannot coerce to {np.dtype(dtype)})")
            coerced = col.astype(dtype)
            if np.issubdtype(np.dtype(dtype), np.integer) \
                    and not np.array_equal(coerced, col):
                raise ValueError(
                    f"trace column {name!r} overflows {np.dtype(dtype)}")
            col = coerced
        out[name] = col
    if n and np.any(np.diff(out["inst"]) < 0):
        raise ValueError(
            "trace column 'inst' must be monotonically non-decreasing")
    return out


def layout_to_doc(layout: VirtualLayout) -> dict:
    """JSON-compatible description of a layout (objects + segments).

    Shared by the single-file trace format and the chunked shard
    manifests (:mod:`repro.trace.chunked`), so both round-trip layouts
    identically.
    """
    return {
        "objects": [
            {"name": o.name, "vbase": o.vbase, "size_bytes": o.size_bytes,
             "site": o.site}
            for o in layout.objects
        ],
        "segments": {
            str(seg_id): {"vbase": seg.vbase, "size_bytes": seg.size_bytes,
                          "name": seg.name}
            for seg_id, seg in layout.segments.items()
        },
    }


def layout_from_doc(doc: dict) -> VirtualLayout:
    """Rebuild a :class:`VirtualLayout` from :func:`layout_to_doc` output."""
    layout = VirtualLayout()
    for obj in doc["objects"]:
        placed = layout.place(obj["name"], obj["size_bytes"],
                              site=obj["site"])
        if placed.vbase != obj["vbase"]:
            # Layout packing changed since the trace was written;
            # rebuild the placement verbatim instead.  The packing
            # cursor must follow the rebuilt extent (never move
            # backwards), or a later place() could overlap it.
            rebuilt = PlacedObject(
                placed.obj_id, obj["name"], obj["vbase"],
                obj["size_bytes"], obj["site"])
            layout.objects[-1] = rebuilt
            layout._cursor = max(
                layout._cursor,
                _page_ceil(rebuilt.vend) + PAGE_BYTES)
            layout._ranges_dirty = True
    for seg_key, seg in doc["segments"].items():
        seg_id = int(seg_key)
        if seg_id in (SEG_STACK, SEG_CODE, SEG_GLOBAL):
            layout.segments[seg_id] = PlacedObject(
                seg_id, seg["name"], seg["vbase"], seg["size_bytes"])
            layout._ranges_dirty = True
    return layout


def save_trace(trace: AccessTrace, path: str | Path) -> None:
    """Write a trace to ``path``.

    A ``*.npz`` path gets the single-file interchange bundle; any other
    path becomes a mmap-native entry directory (replacing an earlier
    trace saved there; any other non-empty directory is refused).
    """
    path = Path(path)
    doc = {**layout_to_doc(trace.layout),
           "total_instructions": trace.total_instructions}
    if path.suffix == ".npz":
        np.savez_compressed(
            path,
            **{name: getattr(trace, name) for name in COLUMN_DTYPES},
            layout=np.frombuffer(
                json.dumps({"version": NPZ_FORMAT_VERSION, **doc}).encode(),
                dtype=np.uint8),
        )
        return
    if (path.is_dir() and any(path.iterdir())
            and not (path / META_NAME).exists()):
        raise FileExistsError(f"{path} is a non-empty directory, not a "
                              "saved trace")
    with EntryWriter(path) as writer:
        for name in COLUMN_DTYPES:
            writer.column(name, getattr(trace, name))
        writer.publish(doc, version=FORMAT_VERSION)


def load_trace(path: str | Path) -> AccessTrace:
    """Read a trace written by :func:`save_trace` (either format).

    Directory entries are returned as lazily-paged mmap views; npz
    bundles decompress fully (and pass through :func:`coerce_columns`
    to normalize external dtype slop).
    """
    path = Path(path)
    if path.is_dir():
        doc = read_meta(path, FORMAT_VERSION)
        cols = load_columns(path, COLUMN_DTYPES)
    else:
        with np.load(path) as data:
            doc = json.loads(bytes(data["layout"]).decode())
            if doc.get("version") != NPZ_FORMAT_VERSION:
                raise ValueError(f"unsupported trace format version "
                                 f"{doc.get('version')!r}")
            cols = coerce_columns(
                {name: data[name] for name in COLUMN_DTYPES})
    return AccessTrace(layout=layout_from_doc(doc),
                       total_instructions=int(doc["total_instructions"]),
                       **cols)


def import_trace(path: str | Path, directory: str | Path, *,
                 chunk_accesses: int):
    """Import a saved/captured trace as a chunked store entry.

    The bounded-RSS on-ramp for external traces: a ``*.trace.npz``
    bundle (written by :func:`save_trace`, or converted from a Pin/
    DynamoRIO/gem5 capture into the same column format) is resharded
    into :class:`repro.trace.chunked.ChunkedTrace` shards under
    ``directory``, after which the cache filter can consume it window
    by window without ever holding the whole trace.  Columns pass
    through :func:`coerce_columns` on load, so external dtype slop is
    normalized before the shards are written.
    """
    from repro.trace import chunked

    return chunked.chunk_trace(load_trace(path), directory,
                               chunk_accesses=chunk_accesses)
