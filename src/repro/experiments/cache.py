"""Persistent content-addressed result cache for simulation runs.

One entry per :class:`~repro.sim.spec.RunSpec`: a
:class:`~repro.util.store.ColumnStore` entry named by
:meth:`RunSpec.key` whose meta holds the spec and the
:class:`~repro.sim.metrics.RunMetrics` round-tripped through
``to_dict``/``from_dict`` (no columns).  The key covers everything that
determines the numbers (workload, config *hash*, policy, trace length,
input, thresholds, seed), so a cache directory can be shared between
processes, sweeps, and repeated campaign invocations: online/offline
hybrid systems for heterogeneous memory amortize profiling across
executions the same way, by persisting guidance keyed by provenance.

Publishing, corrupt/stale handling, ``refresh``, eviction and the
resident map of parsed entries are the shared store protocol.  The
simulator's own version is recorded in each entry for forensics but is
deliberately **not** part of the key — bump ``repro.__version__`` or
pass ``--refresh`` after changing model code.  OBS counters are
``cache.hit``, ``cache.miss``, ``cache.resident_hit``, ...
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.metrics import RunMetrics
from repro.sim.spec import RunSpec
from repro.util.resident import ResidentLRU
from repro.util.store import ColumnStore

__all__ = ["CACHE_VERSION", "ResultCache"]

#: On-disk entry format; entries from other versions are ignored.
CACHE_VERSION = 2


def _decode(entry: Path, meta: dict) -> dict:
    RunMetrics.from_dict(meta["metrics"])  # a damaged doc fails here
    return meta["metrics"]


class ResultCache(ColumnStore):
    """Content-addressed ``RunSpec -> RunMetrics`` store on disk.

    Every hit returns a fresh :class:`RunMetrics`: the engine mutates
    ``meta`` of what it gets.
    """

    version = CACHE_VERSION
    obs = "cache"
    label = "result cache"
    #: Parsed metric docs, shared by every instance in the process.
    resident = ResidentLRU(256)

    def get(self, spec: RunSpec) -> RunMetrics | None:
        """Cached metrics for ``spec``, or ``None`` (= simulate)."""
        doc = self.read(spec.key(), _decode)
        return None if doc is None else RunMetrics.from_dict(doc)

    def put(self, spec: RunSpec, metrics: RunMetrics) -> Path:
        """Store one result; returns the entry directory."""
        doc = metrics.to_dict()
        return self.write(spec.key(),
                          {"spec": spec.canonical(), "metrics": doc},
                          resident=doc)
