"""The shared store protocol, run against every store built on it.

Each case drives :class:`~repro.experiments.cache.ResultCache`,
:class:`~repro.sim.stream_store.StreamStore` and
:class:`~repro.trace.chunked.TraceStore` through a small adapter that
puts entry ``i`` and reads it back fully loaded (a chunked read walks
every window).  Store-specific behaviour — key composition, resident
identity, env/engine wiring, chunked parity — stays in the per-store
test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.hierarchy import CacheHierarchy
from repro.experiments.cache import ResultCache
from repro.obs.registry import OBS
from repro.sim import stream_store
from repro.sim.spec import RunSpec, run
from repro.trace import chunked
from repro.trace.builder import ObjectBehavior, TraceBuilder
from repro.util.rng import stream
from repro.util.store import META_NAME, EntryWriter
from repro.util.units import MIB

REPO = Path(__file__).resolve().parent.parent

_BEHAVIORS = [ObjectBehavior("o", 2 * MIB, 1.0, pattern="rand", gap_mean=5,
                             write_frac=0.4, site=1)]


def _trace(n=3000):
    return TraceBuilder(_BEHAVIORS).build(n, stream("tests", "store"))


class ResultAdapter:
    """RunSpec -> RunMetrics; meta only, no columns."""

    columns = False
    _metrics = None

    def make(self, root, *, refresh=False, max_entries=None):
        return ResultCache(root, refresh=refresh, max_entries=max_entries)

    def key(self, i):
        return RunSpec("sift", "Homogen-DDR3", "homogen", 2_000 + i)

    def value(self, i):
        if ResultAdapter._metrics is None:
            ResultAdapter._metrics = run(
                RunSpec("sift", "Homogen-DDR3", "homogen", 1_000))
        return ResultAdapter._metrics

    def put(self, store, i):
        return store.put(self.key(i), self.value(i))

    def load(self, store, i):
        return store.get(self.key(i))

    def same(self, got, want):
        return got == want


class StreamAdapter:
    """filter_key -> (MissStream, CacheStats); five columns."""

    columns = True
    _value = None

    def make(self, root, *, refresh=False, max_entries=None):
        return stream_store.StreamStore(root, refresh=refresh,
                                        max_entries=max_entries)

    def key(self, i):
        return stream_store.filter_key("mcf", "ref", 6000 + i)

    def value(self, i):
        if StreamAdapter._value is None:
            StreamAdapter._value = CacheHierarchy().filter_trace(_trace())
        return StreamAdapter._value

    def put(self, store, i):
        return store.put(self.key(i), *self.value(i))

    def load(self, store, i):
        return store.get(self.key(i))

    def mapped(self, store, i):
        return self.arrays(store.get(self.key(i)))

    def arrays(self, got):
        miss, _ = got
        return [miss.inst, miss.vline, miss.obj_id, miss.dep, miss.kind]

    def same(self, got, want):
        return (all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(self.arrays(got), self.arrays(want)))
                and got[0].total_instructions == want[0].total_instructions
                and got[1] == want[1]
                and list(got[1].per_object) == list(want[1].per_object))


class TraceAdapter:
    """trace_key -> ChunkedTrace; five columns per shard, three shards."""

    columns = True

    def make(self, root, *, refresh=False, max_entries=None):
        store = chunked.TraceStore(root)
        store.refresh, store.max_entries = refresh, max_entries
        return store

    def key(self, i):
        return chunked.trace_key("mcf", "ref", 3000 + i, 1000)

    def value(self, i):
        return _trace(3000 + i)

    def put(self, store, i):
        return store.build(self.key(i), TraceBuilder(_BEHAVIORS),
                           3000 + i, stream("tests", "store")).directory

    def load(self, store, i):
        trace = store.get(self.key(i))
        try:
            return None if trace is None else trace.materialize()
        except chunked.CorruptTraceError:
            return None

    def mapped(self, store, i):
        return [a for w in store.get(self.key(i)).windows()
                for a in self.arrays(w)]

    def arrays(self, got):
        return [got.inst, got.vaddr, got.is_write, got.obj_id, got.dep]

    def same(self, got, want):
        return (all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in zip(self.arrays(got), self.arrays(want)))
                and got.total_instructions == want.total_instructions)


ADAPTERS = {"result": ResultAdapter(), "stream": StreamAdapter(),
            "trace": TraceAdapter()}
COLUMN_STORES = [name for name, a in ADAPTERS.items() if a.columns]


@pytest.fixture(autouse=True)
def _obs():
    OBS.reset().enable()
    yield
    OBS.reset().disable()


@pytest.fixture(params=list(ADAPTERS))
def adapter(request):
    return ADAPTERS[request.param]


@pytest.fixture(params=COLUMN_STORES)
def column_adapter(request):
    return ADAPTERS[request.param]


def _columns(entry):
    return sorted(entry.glob("*.npy"))


def _rewrite_meta(entry, text):
    """Replace an entry's meta with a new file, as any writer would."""
    tmp = entry / ".meta.tmp"
    tmp.write_text(text)
    os.replace(tmp, entry / META_NAME)


def test_round_trip(adapter, tmp_path):
    store = adapter.make(tmp_path)
    assert adapter.load(store, 0) is None
    entry = adapter.put(store, 0)
    assert entry.parent == tmp_path and len(entry.name) == 64
    assert adapter.same(adapter.load(store, 0), adapter.value(0))
    # A second instance (another process, in effect) reads it too.
    assert adapter.same(adapter.load(adapter.make(tmp_path), 0),
                        adapter.value(0))
    assert store.stats.to_dict() == {
        "hits": 1, "misses": 1, "stores": 1, "corrupt": 0, "evicted": 0,
        "hit_ratio": 0.5}
    assert len(store) == 1
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_corrupt_meta_warns_drops_and_misses(adapter, tmp_path, capsys):
    store = adapter.make(tmp_path)
    entry = adapter.put(store, 0)
    _rewrite_meta(entry, "{not json")
    assert adapter.load(store, 0) is None
    assert not entry.exists()
    assert store.stats.corrupt == 1
    assert OBS.counters[f"{store.obs}.corrupt"] == 1
    assert capsys.readouterr().err.count("corrupt entry") == 1
    # The slot re-fills and serves normally afterwards.
    adapter.put(store, 0)
    assert adapter.same(adapter.load(store, 0), adapter.value(0))


@pytest.mark.parametrize("damage", ["garbage", "truncated", "dtype"])
def test_corrupt_column_drops_entry(column_adapter, tmp_path, damage):
    store = column_adapter.make(tmp_path)
    entry = column_adapter.put(store, 0)
    col = _columns(entry)[-1]
    if damage == "garbage":
        col.write_bytes(b"not an npy")
    elif damage == "truncated":
        np.save(col, np.load(col)[:-1])
    else:
        np.save(col, np.load(col).astype(np.float32))
    assert column_adapter.load(store, 0) is None
    assert not entry.exists()
    assert OBS.counters[f"{store.obs}.corrupt"] == 1
    assert len(store) == 0


def test_missing_column_is_a_torn_entry(column_adapter, tmp_path):
    store = column_adapter.make(tmp_path)
    entry = column_adapter.put(store, 0)
    _columns(entry)[0].unlink()
    assert column_adapter.load(store, 0) is None
    assert not entry.exists()
    assert OBS.counters[f"{store.obs}.corrupt"] == 1


def test_unpublished_temp_dir_is_a_miss(adapter, tmp_path):
    store = adapter.make(tmp_path)
    entry = adapter.put(store, 0)
    # A writer that died before its rename: everything but published.
    tmp = entry.with_name(f".{entry.name}.99999.tmp")
    entry.rename(tmp)
    assert adapter.load(store, 0) is None
    assert len(store) == 0
    store.evict_over(0)
    assert tmp.is_dir()  # never counted, never evicted
    assert store.stats.corrupt == 0 and store.stats.evicted == 0


def test_stale_version_dropped_silently(adapter, tmp_path, capsys):
    store = adapter.make(tmp_path)
    entry = adapter.put(store, 0)
    doc = json.loads((entry / META_NAME).read_text())
    doc["version"] += 1
    _rewrite_meta(entry, json.dumps(doc))
    assert adapter.load(store, 0) is None
    assert not entry.exists()
    assert store.stats.corrupt == 0
    assert OBS.counters[f"{store.obs}.stale"] == 1
    assert "corrupt" not in capsys.readouterr().err


def test_refresh_bypasses_reads_but_still_writes(adapter, tmp_path):
    adapter.put(adapter.make(tmp_path), 0)
    store = adapter.make(tmp_path, refresh=True)
    assert adapter.load(store, 0) is None  # on disk, still a miss
    adapter.put(store, 0)
    assert store.stats.misses == 1 and store.stats.stores == 1
    assert OBS.counters[f"{store.obs}.refresh_bypass"] == 1
    assert adapter.same(adapter.load(adapter.make(tmp_path), 0),
                        adapter.value(0))


def test_eviction_oldest_first_spares_nested_stores(adapter, tmp_path):
    for sub in ("streams", "traces"):
        (tmp_path / sub / ("f" * 64)).mkdir(parents=True)
    store = adapter.make(tmp_path, max_entries=2)
    first = adapter.put(store, 0)
    os.utime(first, (1000.0, 1000.0))
    second = adapter.put(store, 1)
    os.utime(second, (2000.0, 2000.0))
    third = adapter.put(store, 2)
    assert not first.exists() and second.exists() and third.exists()
    assert store.stats.evicted == 1
    assert len(store) == 2
    assert OBS.counters[f"{store.obs}.evict"] == 1
    for sub in ("streams", "traces"):
        assert (tmp_path / sub / ("f" * 64)).is_dir()
    assert adapter.same(adapter.load(store, 1), adapter.value(1))


def test_evictor_spares_a_concurrent_writer(adapter, tmp_path,
                                            monkeypatch):
    """A bounded instance evicts while another instance's put sits
    between two of its column writes (just before publishing, for the
    column-less result cache).  The put must succeed and serve."""
    writer = adapter.make(tmp_path)
    evictor = adapter.make(tmp_path, max_entries=1)
    old = adapter.put(writer, 0)
    os.utime(old, (1000.0, 1000.0))
    fired = []

    def pause():
        if not fired:
            fired.append(True)
            adapter.put(evictor, 2)

    if adapter.columns:
        real_save, saves = np.save, []

        def save(*args, **kwargs):
            real_save(*args, **kwargs)
            saves.append(args[0])
            if len(saves) == 2:
                pause()

        monkeypatch.setattr(np, "save", save)
    else:
        real_publish = EntryWriter.publish

        def publish(self, *args, **kwargs):
            pause()
            return real_publish(self, *args, **kwargs)

        monkeypatch.setattr(EntryWriter, "publish", publish)
    adapter.put(writer, 1)
    monkeypatch.undo()
    assert fired and evictor.stats.evicted == 1 and not old.exists()
    assert adapter.same(adapter.load(writer, 1), adapter.value(1))
    assert writer.stats.hits == 1


def test_reader_mmap_survives_eviction_and_overwrite(column_adapter,
                                                     tmp_path):
    """POSIX keeps an unlinked mapping valid: a reader's arrays outlive
    eviction and overwrite of their entry."""
    store = column_adapter.make(tmp_path)
    column_adapter.put(store, 0)
    mapped = column_adapter.mapped(store, 0)
    snapshot = [a.copy() for a in mapped]
    store.evict_over(0)
    assert len(store) == 0
    column_adapter.put(store, 0)
    column_adapter.put(store, 0)
    assert all(np.array_equal(a, b) for a, b in zip(mapped, snapshot))


#: Worker body for the concurrent-eviction stress test below: hammer a
#: shared size-bounded store with distinct keys so every process evicts
#: entries while its siblings are storing (and vice versa).
EVICT_WORKER = """
import sys
sys.path[:0] = ["src", "tests"]
import test_store

name, directory, tag = sys.argv[1], sys.argv[2], int(sys.argv[3])
adapter = test_store.ADAPTERS[name]
store = adapter.make(directory, max_entries=4)
for i in range(30):
    adapter.put(store, 100 * tag + i)
print(store.stats.evicted)
"""


def test_parallel_processes_evicting_one_directory(adapter, tmp_path):
    """Four processes store into one bounded store at once; every race
    between their publishes and evictions must be harmless."""
    shared = tmp_path / "store"
    env = {**os.environ, "PYTHONPATH": "src"}
    name = next(k for k, v in ADAPTERS.items() if v is adapter)
    procs = [subprocess.Popen(
                 [sys.executable, "-c", EVICT_WORKER, name, str(shared),
                  str(tag)],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 text=True, env=env, cwd=REPO)
             for tag in range(4)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert all(p.returncode == 0 for p in procs), [err for _, err in outs]
    # Every worker actually exercised eviction, nobody crashed.
    assert all(int(out.strip()) > 0 for out, _ in outs)
    # The bound roughly holds (transient overshoot while several puts
    # race is fine; unbounded growth is not).
    store = adapter.make(shared)
    survivors = store.entries()
    assert 1 <= len(survivors) <= 16
    # Survivors are complete entries; no temp debris is left behind.
    assert all((entry / META_NAME).is_file() for entry in survivors)
    assert not [p for p in shared.iterdir() if p.name.startswith(".")]
