"""Tests for trace persistence (.npz and mmap-directory round-trips)."""

import json

import numpy as np
import pytest

from repro.cpu.hierarchy import CacheHierarchy
from repro.trace.io import load_trace, save_trace
from repro.util.store import META_NAME
from repro.workloads.inputs import build_app_trace


class TestTraceRoundtrip:
    def test_columns_identical(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace.npz"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        assert (restored.inst == tiny_trace.inst).all()
        assert (restored.vaddr == tiny_trace.vaddr).all()
        assert (restored.is_write == tiny_trace.is_write).all()
        assert (restored.obj_id == tiny_trace.obj_id).all()
        assert (restored.dep == tiny_trace.dep).all()
        assert restored.total_instructions == tiny_trace.total_instructions

    def test_layout_identical(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace.npz"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        assert len(restored.layout.objects) == len(tiny_trace.layout.objects)
        for a, b in zip(restored.layout.objects, tiny_trace.layout.objects):
            assert (a.name, a.vbase, a.size_bytes, a.site) == \
                (b.name, b.vbase, b.size_bytes, b.site)

    def test_resolution_identical(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace.npz"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        probe = tiny_trace.vaddr[:500]
        assert (restored.resolve_objects(probe)
                == tiny_trace.resolve_objects(probe)).all()

    def test_cache_filter_identical(self, tiny_trace, tmp_path):
        """The acid test: a restored trace produces the same miss stream."""
        path = tmp_path / "t.trace.npz"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        s1, _ = CacheHierarchy().filter_trace(tiny_trace)
        s2, _ = CacheHierarchy().filter_trace(restored)
        assert (s1.vline == s2.vline).all()
        assert (s1.kind == s2.kind).all()

    def test_real_app_trace(self, tmp_path):
        trace = build_app_trace("sift", "train", 5_000)
        path = tmp_path / "sift.trace.npz"
        save_trace(trace, path)
        restored = load_trace(path)
        assert len(restored) == len(trace)
        names = {o.name for o in restored.layout.objects}
        assert "dog_pyr" in names

    def test_bad_version_rejected(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace.npz"
        save_trace(tiny_trace, path)
        # Corrupt the embedded version.
        data = dict(np.load(path))
        doc = json.loads(bytes(data["layout"]).decode())
        doc["version"] = 99
        data["layout"] = np.frombuffer(json.dumps(doc).encode(),
                                       dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestDirectoryFormat:
    """The mmap-native directory format (non-.npz target paths)."""

    def test_round_trip_is_mmap(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        assert (path / META_NAME).exists()
        restored = load_trace(path)
        assert isinstance(restored.inst, np.memmap)
        assert not restored.inst.flags.writeable
        for name in ("inst", "vaddr", "is_write", "obj_id", "dep"):
            got, want = getattr(restored, name), getattr(tiny_trace, name)
            assert got.dtype == want.dtype and (got == want).all(), name
        assert restored.total_instructions == tiny_trace.total_instructions

    def test_layout_and_resolution_identical(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        for a, b in zip(restored.layout.objects, tiny_trace.layout.objects):
            assert (a.name, a.vbase, a.size_bytes, a.site) == \
                (b.name, b.vbase, b.size_bytes, b.site)
        probe = tiny_trace.vaddr[:500]
        assert (restored.resolve_objects(probe)
                == tiny_trace.resolve_objects(probe)).all()

    def test_cache_filter_identical(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        restored = load_trace(path)
        s1, _ = CacheHierarchy().filter_trace(tiny_trace)
        s2, _ = CacheHierarchy().filter_trace(restored)
        assert (s1.vline == s2.vline).all()
        assert (s1.kind == s2.kind).all()

    def test_bad_version_rejected(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        meta = path / META_NAME
        doc = json.loads(meta.read_text())
        doc["version"] = 99
        meta.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_wrong_dtype_rejected(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        np.save(path / "obj_id", tiny_trace.obj_id.astype(np.int64))
        with pytest.raises(ValueError, match="obj_id"):
            load_trace(path)

    def test_resave_replaces_and_foreign_dir_refused(self, tiny_trace,
                                                     tmp_path):
        path = tmp_path / "t.trace"
        save_trace(tiny_trace, path)
        save_trace(tiny_trace, path)  # replaces the earlier trace
        assert len(load_trace(path)) == len(tiny_trace)
        assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]
        foreign = tmp_path / "notes"
        foreign.mkdir()
        (foreign / "keep.txt").write_text("x")
        with pytest.raises(FileExistsError):
            save_trace(tiny_trace, foreign)
        assert (foreign / "keep.txt").exists()
