"""Building, caching and falling back from the compiled replay kernel.

``tests/test_parity.py`` pins what the kernel computes; this file pins
how it gets into the process: the cached shared library is reused by
later processes without a compiler, a damaged or unwritable cache is
rebuilt elsewhere, a missing compiler degrades to the reference
interpreter with exactly one warning, and the deferred OBS counters
equal the reference engine's live ones.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.cpu import core as core_mod
from repro.cpu.core import InOrderWindowCore
from repro.memctrl import batch
from repro.moca.allocation import HomogeneousPolicy, plan_placement
from repro.obs.registry import OBS
from repro.sim.config import ALL_SYSTEMS
from repro.sim.single import filtered_stream
from repro.workloads.inputs import app_layout

from test_parity import _memsys_doc

SRC = Path(__file__).resolve().parent.parent / "src"


def _use_dirs(monkeypatch, *dirs):
    monkeypatch.setattr(batch, "_cache_dirs", lambda: iter(dirs))


def _run_in_subprocess(code: str, cache: Path, path_env: str = ""):
    """Run ``code`` with the kernel cache pinned to ``cache``."""
    prelude = (
        "from pathlib import Path\n"
        "from repro.memctrl import batch\n"
        f"batch._cache_dirs = lambda: iter([Path({str(cache)!r})])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), PATH=path_env)
    return subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=120)


def _replay(app, config, n, fast, core_id=0):
    """One replay of ``app`` on a fresh ``config`` system."""
    stream, _ = filtered_stream(app, "ref", n)
    cfg = ALL_SYSTEMS[config]
    memsys = cfg.build()
    plan = plan_placement([stream], HomogeneousPolicy(),
                          cfg.make_allocator(memsys),
                          layouts=[app_layout(app, "ref")])
    core = InOrderWindowCore(stream, plan.groups[0], plan.gaddrs[0],
                             core_id=core_id, fast_path=fast)
    return core, core.run_to_completion(memsys), memsys


class TestLibraryCache:
    def test_second_process_loads_without_compiler(self, tmp_path,
                                                   monkeypatch):
        _use_dirs(monkeypatch, tmp_path)
        assert batch.load_kernel() is not None
        lib = tmp_path / batch._library_name()
        stamp = lib.stat().st_mtime_ns
        # No PATH: a rebuild would find no compiler and fail.
        proc = _run_in_subprocess(
            "assert batch._compiler() is None\n"
            "assert batch.load_kernel() is not None\n", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert lib.stat().st_mtime_ns == stamp

    def test_truncated_library_is_rebuilt(self, tmp_path):
        path = os.environ.get("PATH", "")
        code = "batch.load_kernel()\n"
        assert _run_in_subprocess(code, tmp_path, path).returncode == 0
        lib = tmp_path / batch._library_name()
        size = lib.stat().st_size
        lib.write_bytes(lib.read_bytes()[: size // 2])
        proc = _run_in_subprocess(code, tmp_path, path)
        assert proc.returncode == 0, proc.stderr
        assert lib.stat().st_size == size

    def test_library_without_interleave_is_rebuilt(self, tmp_path,
                                                    monkeypatch):
        """A checksummed library built from a source that predates
        ``replay_interleave`` is rebuilt, never loaded half-usable."""
        _use_dirs(monkeypatch, tmp_path)
        lib = tmp_path / batch._library_name()
        proc = subprocess.run(
            [batch._compiler(), *batch.CFLAGS,
             "-Dreplay_interleave=replay_interleave_absent", "-o", str(lib),
             str(batch.SOURCE)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        batch._checksum_path(lib).write_text(batch._sha256(lib))
        assert batch._open(lib) is None
        assert batch.load_kernel() is not None
        assert batch._open(lib) is not None

    def test_unwritable_cache_dir_falls_back(self, tmp_path, monkeypatch):
        blocked = tmp_path / "ro"
        blocked.mkdir()
        blocked.chmod(0o555)
        if os.geteuid() == 0:
            # Permission bits do not bind root: a directory below a
            # regular file is unwritable for everyone.
            (tmp_path / "file").write_text("")
            blocked = tmp_path / "file" / "cache"
        fallback = tmp_path / "fallback"
        _use_dirs(monkeypatch, blocked, fallback)
        try:
            assert batch.load_kernel() is not None
        finally:
            (tmp_path / "ro").chmod(0o755)
        assert (fallback / batch._library_name()).is_file()
        assert not (blocked / batch._library_name()).exists()


def _mix_rows(fast=None):
    """A 4-core mix's metrics (minus timestamped meta) and fast_path."""
    from repro.sim.multi import _run_multi

    metrics = _run_multi("2L1B1N", ALL_SYSTEMS["Heter-config1"], "homogen",
                         n_accesses=1500, fast_path=fast).to_dict()
    return metrics.pop("meta")["fast_path"], metrics


class TestFallback:
    def test_no_compiler_warns_once_and_uses_reference(
            self, tmp_path, monkeypatch, capsys):
        kernel_mix = _mix_rows()
        assert kernel_mix[0] is True
        _use_dirs(monkeypatch, tmp_path)
        monkeypatch.setattr(batch, "_compiler", lambda: None)
        monkeypatch.setattr(batch, "_KERNEL", None)
        heap_loops = []
        ref_loop = core_mod._interleave_ref
        monkeypatch.setattr(
            core_mod, "_interleave_ref",
            lambda *args: heap_loops.append(1) or ref_loop(*args))
        OBS.reset()
        capsys.readouterr()
        outcomes = []
        for _ in range(2):
            core, res, memsys = _replay("mcf", "Heter-config1", 3000, True)
            assert core.fast_path is False
            outcomes.append((res.to_dict(), _memsys_doc(memsys)))
        _, ref, ref_memsys = _replay("mcf", "Heter-config1", 3000, False)
        assert outcomes[0] == outcomes[1] == (ref.to_dict(),
                                              _memsys_doc(ref_memsys))
        # A 4-core mix asking for the fast path runs the reference heap
        # loop and gives the kernel run's rows.
        assert _mix_rows() == (False, kernel_mix[1])
        assert heap_loops == [1]
        err = capsys.readouterr().err
        assert err.count("replay kernel unavailable") == 1
        assert list(OBS._warned) == ["replay-kernel"]
        OBS.reset()


def _obs_of(run) -> dict:
    OBS.reset().enable()
    try:
        run()
        snap = OBS.snapshot()
    finally:
        OBS.reset().disable()
    keep = ("mem.", "memsys.", "core")
    return {kind: {k: v for k, v in snap[kind].items() if k.startswith(keep)}
            for kind in ("counters", "gauges")}


class TestObsCounters:
    def test_single_core_counters_match_reference(self):
        fast = _obs_of(lambda: _replay("milc", "Heter-config1", 4000, True))
        ref = _obs_of(lambda: _replay("milc", "Heter-config1", 4000, False))
        assert any(k.endswith(".row_hits") for k in fast["counters"])
        assert "memsys.batches" in fast["counters"]
        assert any(k.startswith("memsys.group.") for k in fast["counters"])
        assert fast == ref

    def test_multicore_counters_match_reference(self):
        from repro.sim.multi import _run_multi

        def run(fast):
            return lambda: _run_multi("2L1B1N", ALL_SYSTEMS["Heter-config1"],
                                      "homogen", n_accesses=1500,
                                      fast_path=fast)

        fast, ref = _obs_of(run(True)), _obs_of(run(False))
        # Gauges included: each channel's occupancy gauge comes from the
        # globally last episode on it, whichever core ran it.
        assert any(k.endswith(".queue_occupancy") for k in fast["gauges"])
        assert fast == ref


def test_device_state_is_written_back():
    """After a kernel replay every device field the reference engine
    mutates — beyond the bank states ``_memsys_doc`` covers — matches."""
    def device_doc(memsys):
        return [(m.bus_free_at, m._last_was_write, m._recent_acts,
                 m._next_refresh) for m in memsys.modules]

    _, _, fast = _replay("gcc", "Heter-config1", 3000, True)
    _, _, ref = _replay("gcc", "Heter-config1", 3000, False)
    assert not batch._DEVICES
    assert device_doc(fast) == device_doc(ref)
    assert _memsys_doc(fast) == _memsys_doc(ref)


class TestPackaging:
    ROOT = SRC.parent

    def test_c_source_ships_as_package_data(self):
        from repro.trace import synth

        pyproject = (self.ROOT / "pyproject.toml").read_text()
        setup_py = (self.ROOT / "setup.py").read_text()
        assert ('package_data={"repro.memctrl": ["*.c"], '
                '"repro.trace": ["*.c"]}') in setup_py
        for source in (batch.SOURCE, synth.SOURCE):
            package = source.parent.relative_to(SRC).as_posix()
            package = package.replace("/", ".")
            assert f'"{package}" = ["*.c"]' in pyproject
            assert source.is_file()
        assert batch.SOURCE.parent == SRC / "repro" / "memctrl"
        assert synth.SOURCE.parent == SRC / "repro" / "trace"

    def test_version_has_one_source(self):
        import re

        import repro

        pyproject = (self.ROOT / "pyproject.toml").read_text()
        assert re.search(r'^dynamic = \["version"\]', pyproject, re.M)
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert not re.search(r'^version = "', pyproject, re.M)
        setup_py = (self.ROOT / "setup.py").read_text()
        assert "version=VERSION" in setup_py
        assert re.search(r'^__version__ = "([^"]+)"',
                         (SRC / "repro" / "__init__.py").read_text(),
                         re.M).group(1) == repro.__version__
